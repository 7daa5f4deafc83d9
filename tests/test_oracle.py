"""Vertex enumeration against hand-derived fixtures and the LP route."""

import json
import random
from fractions import Fraction

import pytest

from robusthedge.arbitrage import node_na
from robusthedge.market import martingale_rows, verify_measure
from robusthedge.model import Claim, load_model
from robusthedge.oracle import (
    EmptyPolytope,
    InstanceTooLarge,
    _eliminate,
    _solve_exact_columns,
    brute_price,
    enumerate_vertices,
    one_step_vertices,
)
from robusthedge.polar import compute_support
from robusthedge.superhedge import ArbitrageDetected, check_complete, dual_price

from conftest import constant_stock_model, random_instance

F = Fraction


def test_example_b_two_vertices(example_b):
    mask = compute_support(example_b.tree)
    polytope = enumerate_vertices(example_b.tree, mask, ())
    weights = [v.weights for v in polytope.vertices]
    assert {"8": F(3, 5), "13": F(2, 5)} in weights
    assert {"10": F(1)} in weights
    assert len(weights) == 2


def test_example_b_with_call_single_vertex(example_b):
    mask = compute_support(example_b.tree)
    polytope = enumerate_vertices(example_b.tree, mask, example_b.options)
    assert [v.weights for v in polytope.vertices] == [{"8": F(3, 5), "13": F(2, 5)}]


def test_constant_stock_vertices_are_diracs():
    model = constant_stock_model(4)
    mask = compute_support(model.tree)
    polytope = enumerate_vertices(model.tree, mask, ())
    weights = sorted(tuple(v.weights.items()) for v in polytope.vertices)
    assert weights == sorted(
        ((leaf, F(1)),) for leaf in model.tree.leaves
    )


def _matrix(rows):
    return [[F(x) for x in row] for row in rows]


def test_basis_solve_rejects_dependent_columns():
    matrix = _matrix([[1, 2, 1], [2, 4, 0]])
    assert _solve_exact_columns(matrix, [F(1), F(2)], (0, 1)) is None
    assert _solve_exact_columns(matrix, [F(1), F(2)], (0, 2)) == [1, 0]


def test_basis_solve_of_an_overdetermined_system():
    # three rows, two columns; the first column needs a row swap
    matrix = _matrix([[0, 1], [1, 0], [1, 1]])
    assert _solve_exact_columns(matrix, [F(3), F(5), F(8)], (0, 1)) == [5, 3]
    assert _solve_exact_columns(matrix, [F(3), F(5), F(9)], (0, 1)) is None


@pytest.mark.parametrize(
    "rows, rank",
    [
        ([[1, 2, 3], [2, 4, 6], [1, 0, 1]], 2),
        ([[0, 1, 2], [0, 2, 4], [0, 0, 0]], 1),  # a column with no pivot
        ([[1, 1], [1, 1], [2, 2], [0, 0]], 1),
        ([[F(1, 3), 1, 0], [0, 1, 1], [F(1, 3), 2, 1], [F(2, 3), 0, -2]], 2),
        ([[0, 0], [0, 0]], 0),
    ],
)
def test_elimination_gives_the_rank(rows, rank):
    pivots = _eliminate(_matrix(rows), len(rows[0]))
    assert len(pivots) == rank
    assert [r for r, _ in pivots] == list(range(rank))


def test_brute_price_call(example_b):
    mask = compute_support(example_b.tree)
    polytope = enumerate_vertices(example_b.tree, mask, ())
    result = brute_price(polytope, example_b.claims["call"])
    assert result.maximum == F(6, 5)
    assert result.argmax.weights == {"8": F(3, 5), "13": F(2, 5)}
    assert result.minimum == 0
    assert result.argmin.weights == {"10": F(1)}

    const = Claim({leaf: F(9, 4) for leaf in example_b.tree.leaves})
    flat = brute_price(polytope, const)
    assert flat.maximum == flat.minimum == F(9, 4)


def test_empty_polytope():
    doc = {
        "horizon": 1,
        "nodes": [
            {"id": "r", "level": 0, "parent": None, "price": ["1"],
             "generators": [{"a": "1/2", "b": "1/2"}]},
            {"id": "a", "level": 1, "parent": "r", "price": ["2"]},
            {"id": "b", "level": 1, "parent": "r", "price": ["3"]},
        ],
    }
    model = load_model(json.dumps(doc))
    mask = compute_support(model.tree)
    polytope = enumerate_vertices(model.tree, mask, ())
    assert polytope.vertices == ()
    with pytest.raises(EmptyPolytope):
        brute_price(polytope, Claim({"a": F(0), "b": F(0)}))


def test_instance_cap():
    model = constant_stock_model(17)
    mask = compute_support(model.tree)
    with pytest.raises(InstanceTooLarge):
        enumerate_vertices(model.tree, mask, ())


def test_vertices_satisfy_equalities_and_dedupe():
    rng = random.Random(606)
    checked = 0
    for _ in range(40):
        model = random_instance(rng, mm_quotes=True, max_leaves=12)
        mask = compute_support(model.tree)
        try:
            polytope = enumerate_vertices(model.tree, mask, model.options)
        except InstanceTooLarge:
            continue
        rows = len(martingale_rows(model.tree, mask, model.options))
        seen = set()
        for vertex in polytope.vertices:
            key = tuple(sorted(vertex.weights.items()))
            assert key not in seen
            seen.add(key)
            # checked off the tree, not against the rows the oracle solved
            assert verify_measure(model.tree, mask, model.options, vertex) == []
            # basic feasible solution: support bounded by the row count
            assert len(vertex.weights) <= rows
        checked += 1
    assert checked >= 25


def test_completeness_iff_single_vertex():
    rng = random.Random(909)
    agree = 0
    for _ in range(40):
        model = random_instance(rng, mm_quotes=True, max_leaves=10)
        mask = compute_support(model.tree)
        try:
            complete = check_complete(model.tree, mask, model.options)
        except ArbitrageDetected:
            continue
        polytope = enumerate_vertices(model.tree, mask, model.options)
        assert complete == (len(polytope.vertices) == 1)
        agree += 1
    assert agree >= 10


def test_empty_polytope_implies_na_failure():
    """One direction only: a failing node on an avoidable branch leaves the
    polytope nonempty, so emptiness implies failure but not conversely."""
    from robusthedge.arbitrage import semistatic_na

    doc = {
        "horizon": 2,
        "nodes": [
            {"id": "r", "level": 0, "parent": None, "price": ["0"],
             "generators": [{"A": "1/2", "B": "1/2"}]},
            {"id": "A", "level": 1, "parent": "r", "price": ["0"],
             "generators": [{"Au": "1/2", "Ad": "1/2"}]},
            {"id": "B", "level": 1, "parent": "r", "price": ["0"],
             "generators": [{"Bu": "1"}]},
            {"id": "Au", "level": 2, "parent": "A", "price": ["1"]},
            {"id": "Ad", "level": 2, "parent": "A", "price": ["-1"]},
            {"id": "Bu", "level": 2, "parent": "B", "price": ["1"]},
        ],
    }
    model = load_model(json.dumps(doc))
    mask = compute_support(model.tree)
    # node B admits arbitrage and is relevant, yet q = (1/2, 1/2, 0) on the
    # A-branch is a martingale measure
    polytope = enumerate_vertices(model.tree, mask, ())
    assert len(polytope.vertices) >= 1
    assert semistatic_na(model.tree, mask, ()) is not None

    rng = random.Random(1234)
    for _ in range(40):
        inst = random_instance(rng, max_leaves=10)
        imask = compute_support(inst.tree)
        try:
            poly = enumerate_vertices(inst.tree, imask, inst.options)
        except InstanceTooLarge:
            continue
        if not poly.vertices:
            assert semistatic_na(inst.tree, imask, inst.options) is not None
        if semistatic_na(inst.tree, imask, inst.options) is None:
            assert poly.vertices


def test_oracle_agrees_with_lp_dual():
    rng = random.Random(555)
    agree = 0
    for _ in range(50):
        model = random_instance(rng, mm_quotes=True, max_leaves=12)
        mask = compute_support(model.tree)
        claim = model.claims["f"]
        try:
            value, _ = dual_price(model.tree, mask, claim, model.options)
        except ArbitrageDetected:
            continue
        polytope = enumerate_vertices(model.tree, mask, model.options)
        result = brute_price(polytope, claim)
        assert result.maximum == value
        agree += 1
    assert agree >= 15


def test_one_step_vertices_against_node_na():
    """Each vertex is a one-step martingale measure on the supported
    children, none appears twice, and together they charge every supported
    child exactly when the node passes local NA."""
    rng = random.Random(1618)
    seen = set()
    for _ in range(40):
        model = random_instance(rng, max_dim=3, max_options=0)
        tree = model.tree
        mask = compute_support(tree)
        for node in mask.relevant_nonleaf(tree):
            support = mask.node_support[node]
            vertices = one_step_vertices(tree, mask, node)
            keys = [tuple(sorted(v.weights.items())) for v in vertices]
            assert len(set(keys)) == len(keys)
            for v in vertices:
                assert set(v.weights) <= set(support)
                assert all(w > 0 for w in v.weights.values())
                assert sum(v.weights.values()) == 1
                for i in range(tree.dimension):
                    drift = sum(w * tree.increment(node, c)[i] for c, w in v.weights.items())
                    assert drift == 0
            charged = {c for v in vertices for c in v.weights}
            passed = node_na(tree, mask, node).passed
            assert (charged == set(support)) == passed
            seen.add((tree.dimension, passed))
    assert seen == {(d, p) for d in (1, 2, 3) for p in (True, False)}
