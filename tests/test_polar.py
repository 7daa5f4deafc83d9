"""Quasi-sure supports, relevance and polar events."""

import json
import random
from fractions import Fraction

from robusthedge.model import load_model
from robusthedge.polar import compute_support, reference_measure

from conftest import node_mass, random_instance

F = Fraction


def _two_period_with_dirac():
    doc = {
        "horizon": 2,
        "nodes": [
            {"id": "r", "level": 0, "parent": None, "price": ["2"],
             "generators": [{"u": "1"}]},
            {"id": "u", "level": 1, "parent": "r", "price": ["3"],
             "generators": [{"uu": "1/2", "ud": "1/2"}]},
            {"id": "d", "level": 1, "parent": "r", "price": ["1"],
             "generators": [{"du": "1"}]},
            {"id": "uu", "level": 2, "parent": "u", "price": ["4"]},
            {"id": "ud", "level": 2, "parent": "u", "price": ["2"]},
            {"id": "du", "level": 2, "parent": "d", "price": ["1"]},
        ],
    }
    return load_model(json.dumps(doc))


def test_full_support_everything_relevant(example_b):
    mask = compute_support(example_b.tree)
    assert mask.node_support["root"] == ("8", "10", "13")
    assert mask.relevant_leaves == ("8", "10", "13")


def test_dirac_kernel_makes_siblings_polar():
    model = _two_period_with_dirac()
    mask = compute_support(model.tree)
    assert mask.node_support["r"] == ("u",)
    assert mask.relevant_leaves == ("uu", "ud")
    assert mask.relevant_nodes == (("r",), ("u",), ("uu", "ud"))
    # a leaf event is polar iff it misses every relevant leaf
    assert {"du"}.isdisjoint(mask.relevant_leaves)
    assert not {"uu"}.isdisjoint(mask.relevant_leaves)
    assert set().isdisjoint(mask.relevant_leaves)


def test_compute_support_matches_the_definition():
    # a node is relevant iff every edge on its root path is supported, and
    # the reference measure charges exactly the relevant leaves
    rng = random.Random(99)
    polar = 0
    for _ in range(200):
        tree = random_instance(rng).tree
        mask = compute_support(tree)

        def supported(parent, child):
            return any(g(child) > 0 for g in tree.nodes[parent].generators)

        def relevant(n):
            parent = tree.nodes[n].parent
            return parent is None or (supported(parent, n) and relevant(parent))

        assert mask.node_support == {
            n: tuple(c for c in tree.nodes[n].children if supported(n, c))
            for level in tree.levels[:-1] for n in level
        }
        assert mask.relevant_nodes == tuple(tuple(filter(relevant, lv)) for lv in tree.levels)
        assert mask.relevant_leaves == mask.relevant_nodes[-1]
        assert set(reference_measure(tree).weights) == set(mask.relevant_leaves)
        polar += len(mask.relevant_leaves) < len(tree.leaves)
    assert polar >= 20  # polar subtrees do occur in the corpus


def test_reference_measure_is_the_uniform_mixture_product():
    # leaf by leaf, in tree.leaves order: the product along the root path of
    # each node's mean generator weight on the next node
    rng = random.Random(31)
    for _ in range(200):
        tree = random_instance(rng).tree
        expected = {}
        for leaf in tree.leaves:
            path = tree.path(leaf)
            mass = F(1)
            for node, child in zip(path, path[1:]):
                gens = tree.nodes[node].generators
                mass *= sum((g.weights.get(child, F(0)) for g in gens), F(0)) / len(gens)
            if mass != 0:
                expected[leaf] = mass
        got = reference_measure(tree).weights
        assert list(got.items()) == list(expected.items())
        assert sum(got.values(), F(0)) == 1
        assert tuple(got) == compute_support(tree).relevant_leaves


def test_max_mass_on_polar_event_is_zero():
    # cross-check polarity by maximizing the event mass over generator choices
    model = _two_period_with_dirac()
    tree = model.tree
    mask = compute_support(tree)
    event = {"du"}

    def max_mass(node_id):
        node = tree.nodes[node_id]
        if node.is_leaf:
            return F(1) if node_id in event else F(0)
        best = F(0)
        for gen in node.generators:
            total = sum(
                (gen(c) * max_mass(c) for c in node.children), F(0)
            )
            best = max(best, total)
        return best

    assert max_mass(tree.root) == 0
    assert event.isdisjoint(mask.relevant_leaves)


def test_support_monotone_under_generator_growth():
    model = _two_period_with_dirac()
    before = compute_support(model.tree).relevant_leaves
    # enlarge the root Dirac by mixing in the other child
    doc = json.loads(
        """
        {"horizon": 2, "nodes": [
          {"id": "r", "level": 0, "parent": null, "price": ["2"],
           "generators": [{"u": "1/2", "d": "1/2"}]},
          {"id": "u", "level": 1, "parent": "r", "price": ["3"],
           "generators": [{"uu": "1/2", "ud": "1/2"}]},
          {"id": "d", "level": 1, "parent": "r", "price": ["1"],
           "generators": [{"du": "1"}]},
          {"id": "uu", "level": 2, "parent": "u", "price": ["4"]},
          {"id": "ud", "level": 2, "parent": "u", "price": ["2"]},
          {"id": "du", "level": 2, "parent": "d", "price": ["1"]}
        ]}
        """
    )
    bigger = load_model(json.dumps(doc))
    after = compute_support(bigger.tree).relevant_leaves
    assert set(before) <= set(after)


def test_node_mass_accumulates():
    model = _two_period_with_dirac()
    pm = reference_measure(model.tree)
    mass = node_mass(model.tree, pm)
    assert mass["r"] == 1
    assert mass["u"] == 1
    assert mass["d"] == 0
