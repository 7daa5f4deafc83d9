"""Supermartingale testing and the optional decomposition."""

import random
from fractions import Fraction

import pytest

from robusthedge.decompose import (
    AdaptedProcess,
    NotSupermartingale,
    optional_decomposition,
    verify_decomposition,
)
from robusthedge.model import Strategy, wealth
from robusthedge.oracle import InstanceTooLarge, enumerate_vertices, one_step_vertices
from robusthedge.polar import compute_support
from robusthedge.superhedge import ArbitrageDetected, superhedge_dynamic

from conftest import (
    constant_stock_model,
    count_calls,
    grid_market_model,
    node_mass,
    random_claim,
    random_instance,
)

F = Fraction


def _surface_process(tree, mask, claim):
    price, values, strategy = superhedge_dynamic(tree, mask, claim)
    return AdaptedProcess(values), price, strategy


def test_constant_process_on_constant_stock():
    model = constant_stock_model(3)
    mask = compute_support(model.tree)
    process = AdaptedProcess(
        {n: F(5) for level in mask.relevant_nodes for n in level}
    )
    # returns, rather than raising NotSupermartingale
    optional_decomposition(model.tree, mask, process)


def test_value_surface_is_supermartingale(example_b):
    mask = compute_support(example_b.tree)
    process, _, _ = _surface_process(example_b.tree, mask, example_b.claims["call"])
    optional_decomposition(example_b.tree, mask, process)


def test_rising_process_fails_with_exact_gap():
    model = constant_stock_model(3)
    mask = compute_support(model.tree)
    values = {"root": F(0)}
    values.update({leaf: F(1) if leaf == "w1" else F(0) for leaf in model.tree.leaves})
    with pytest.raises(NotSupermartingale) as report:
        optional_decomposition(model.tree, mask, AdaptedProcess(values))
    assert (report.value.node, report.value.gap) == ("root", F(1))


def test_decomposition_of_call_surface(example_b):
    tree = example_b.tree
    mask = compute_support(tree)
    process, price, _ = _surface_process(tree, mask, example_b.claims["call"])
    decomposition = optional_decomposition(tree, mask, process)
    assert decomposition.strategy.initial == F(6, 5)
    assert decomposition.strategy.position("root", 1) == (F(3, 5),)
    # consumption accumulates only on the middle leaf
    assert decomposition.consumption == {
        "root": F(0), "8": F(0), "10": F(6, 5), "13": F(0)
    }
    assert verify_decomposition(tree, mask, process, decomposition) == []


def test_decomposition_of_martingale_transform(example_b):
    tree = example_b.tree
    mask = compute_support(tree)
    base = Strategy(F(1), (), {"root": (F(2),)})
    values = {"root": F(1)}
    for leaf in tree.leaves:
        values[leaf] = wealth(tree, base, (), leaf)
    process = AdaptedProcess(values)
    decomposition = optional_decomposition(tree, mask, process)
    assert all(v == 0 for v in decomposition.consumption.values())
    for leaf in mask.relevant_leaves:
        assert wealth(tree, decomposition.strategy, (), leaf) == process(leaf)
    assert verify_decomposition(tree, mask, process, decomposition) == []


def test_deterministic_decreasing_process():
    model = grid_market_model(span=0, start=4)  # constant stock, grid shape
    tree = model.tree
    mask = compute_support(tree)
    values = {}
    for level, ids in enumerate(mask.relevant_nodes):
        for n in ids:
            values[n] = F(-level)
    process = AdaptedProcess(values)
    decomposition = optional_decomposition(tree, mask, process)
    assert not decomposition.strategy.dynamic  # H = 0
    for level, ids in enumerate(mask.relevant_nodes):
        for n in ids:
            assert decomposition.consumption[n] == level
    assert verify_decomposition(tree, mask, process, decomposition) == []


def test_not_supermartingale_raises():
    model = constant_stock_model(2)
    mask = compute_support(model.tree)
    values = {"root": F(0)}
    values.update({leaf: F(2) for leaf in model.tree.leaves})
    with pytest.raises(NotSupermartingale) as err:
        optional_decomposition(model.tree, mask, AdaptedProcess(values))
    assert err.value.gap == 2


def test_round_trip_on_corpus():
    """Decomposing a superhedge surface gives K >= 0 with the exact identity;
    terminal wealth dominates the claim."""
    rng = random.Random(1618)
    done = 0
    while done < 25:
        model = random_instance(rng, max_options=0)
        tree = model.tree
        mask = compute_support(tree)
        claim = random_claim(rng, model)
        try:
            process, price, _ = _surface_process(tree, mask, claim)
        except ArbitrageDetected:
            continue
        decomposition = optional_decomposition(tree, mask, process)
        assert verify_decomposition(tree, mask, process, decomposition) == []
        for leaf in mask.relevant_leaves:
            terminal = wealth(tree, decomposition.strategy, (), leaf)
            assert terminal >= claim(leaf)
            # K = 0 exactly on the edges where the hedge is tight
            assert (decomposition.consumption[leaf] == 0) == (terminal == claim(leaf))
        done += 1


def test_yes_verdict_confirmed_by_sampled_kernels():
    """Sample random martingale measures (vertex mixtures) at each node and
    confirm the conditional one-step inequality 100 times per node."""
    rng = random.Random(2121)
    confirmed = 0
    while confirmed < 5:
        model = random_instance(rng, max_options=0, max_leaves=10)
        tree = model.tree
        mask = compute_support(tree)
        claim = random_claim(rng, model)
        try:
            process, _, _ = _surface_process(tree, mask, claim)
        except ArbitrageDetected:
            continue
        try:
            polytope = enumerate_vertices(tree, mask, ())
        except InstanceTooLarge:
            continue
        if not polytope.vertices:
            continue
        optional_decomposition(tree, mask, process)
        for _ in range(100):
            mix = [F(rng.randint(0, 4)) for _ in polytope.vertices]
            if sum(mix) == 0:
                mix[0] = F(1)
            total = sum(mix)
            q = {
                leaf: sum(
                    (m * v(leaf) for m, v in zip(mix, polytope.vertices)), F(0)
                )
                / total
                for leaf in tree.leaves
            }
            from robusthedge.model import PathMeasure

            measure = PathMeasure({k: v for k, v in q.items() if v > 0})
            mass = node_mass(tree, measure)
            # unconditional supermartingale inequality per relevant node:
            # sum of q-weighted child values <= node mass * node value
            for level in range(tree.horizon):
                for node_id in mask.relevant_nodes[level]:
                    lhs = F(0)
                    for child in tree.nodes[node_id].children:
                        if mass.get(child, F(0)) > 0:
                            lhs += mass[child] * process(child)
                    assert lhs <= mass[node_id] * process(node_id)
        confirmed += 1


def test_equivalence_decomposition_exists_iff_supermartingale():
    """(i) <=> (ii): a valid decomposition exists iff the one-step test
    passes; any returned decomposition forces supermartingality under every
    oracle vertex measure, and a refusal names a node where some oracle
    one-step martingale kernel beats the process by the reported gap."""
    rng = random.Random(3030)
    passed = failed = 0
    while passed < 10 or failed < 10:
        model = random_instance(rng, max_options=0, max_leaves=10)
        tree = model.tree
        mask = compute_support(tree)
        try:
            polytope = enumerate_vertices(tree, mask, ())
        except InstanceTooLarge:
            continue
        if not polytope.vertices:
            continue
        from robusthedge.arbitrage import global_na

        if global_na(tree, mask) is not None:
            continue
        values = {
            n: F(rng.randint(-3, 3))
            for level in mask.relevant_nodes
            for n in level
        }
        process = AdaptedProcess(values)
        try:
            decomposition = optional_decomposition(tree, mask, process)
        except NotSupermartingale as violation:
            failed += 1
            best = max(
                sum((w * process(c) for c, w in q.weights.items()), F(0))
                for q in one_step_vertices(tree, mask, violation.node)
            )
            assert violation.gap == best - process(violation.node) > 0
            continue
        passed += 1
        assert verify_decomposition(tree, mask, process, decomposition) == []
        # necessity: V = V0 + H.S - K with K nondecreasing forces the
        # supermartingale property under every vertex measure
        for vertex in polytope.vertices:
            mass = node_mass(tree, vertex)
            for level in range(tree.horizon):
                for node_id in mask.relevant_nodes[level]:
                    lhs = F(0)
                    for child in tree.nodes[node_id].children:
                        if mass.get(child, F(0)) > 0:
                            lhs += mass[child] * process(child)
                    assert lhs <= mass[node_id] * process(node_id)


def test_decomposition_solves_each_one_step_lp_once(monkeypatch):
    import robusthedge.decompose as dec

    model = grid_market_model()
    tree = model.tree
    mask = compute_support(tree)
    claim = random_claim(random.Random(7), model)
    process, _, _ = _surface_process(tree, mask, claim)
    calls = count_calls(monkeypatch, dec, "node_price")
    decomposition = optional_decomposition(tree, mask, process)
    assert [args[2] for args in calls] == mask.relevant_nonleaf(tree)
    assert verify_decomposition(tree, mask, process, decomposition) == []
