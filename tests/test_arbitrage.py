"""Local/global NA, arbitrage certificates, dominating martingale measures."""

import json
import random
from fractions import Fraction

import pytest

from robusthedge import arbitrage, lp, superhedge
from robusthedge.arbitrage import (
    ArbitrageDetected,
    find_dominating_mm,
    global_na,
    lift_first_failure,
    node_na,
    require_stock_na,
    scan_nodes,
    semistatic_na,
)
from robusthedge.market import ArbitrageFound, Market, martingale_rows, verify_witness
from robusthedge.model import Claim, PathMeasure, Strategy, load_model, wealth
from robusthedge.polar import compute_support, reference_measure
from robusthedge.superhedge import dual_price, superhedge_semistatic

from conftest import (
    DATA,
    constant_stock_model,
    count_calls,
    count_everywhere,
    random_instance,
)

F = Fraction


def test_node_na_example_b(example_b):
    mask = compute_support(example_b.tree)
    report = node_na(example_b.tree, mask, "root")
    assert report.passed
    assert report.certificate is None


def test_node_na_all_positive_increments():
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
    report = node_na(model.tree, mask, "r")
    assert not report.passed
    assert report.certificate == (F(1),)


def test_node_na_single_constant_child():
    doc = {
        "horizon": 1,
        "nodes": [
            {"id": "r", "level": 0, "parent": None, "price": ["7"],
             "generators": [{"a": "1"}]},
            {"id": "a", "level": 1, "parent": "r", "price": ["7"]},
        ],
    }
    model = load_model(json.dumps(doc))
    mask = compute_support(model.tree)
    assert node_na(model.tree, mask, "r").passed


def test_global_na_trinomial_passes(example_b):
    mask = compute_support(example_b.tree)
    assert global_na(example_b.tree, mask) is None


def test_global_na_dirac_shrink_fails():
    # ambiguity shrunk to Dirac(13): sure gain of 3 on the only relevant leaf
    doc = {
        "horizon": 1,
        "nodes": [
            {"id": "root", "level": 0, "parent": None, "price": ["10"],
             "generators": [{"13": "1"}]},
            {"id": "8", "level": 1, "parent": "root", "price": ["8"]},
            {"id": "10", "level": 1, "parent": "root", "price": ["10"]},
            {"id": "13", "level": 1, "parent": "root", "price": ["13"]},
        ],
    }
    model = load_model(json.dumps(doc))
    mask = compute_support(model.tree)
    found = global_na(model.tree, mask)
    assert found is not None
    assert found.strategy.dynamic == {"root": (F(1),)}
    assert found.strategy.initial == 0
    assert found.witness_leaves == ("13",)
    assert wealth(model.tree, found.strategy, (), "13") == 3


def test_failing_polar_node_is_ignored():
    # the "bad" subtree (strictly rising price, sure arbitrage) hangs under a
    # polar child, so the market still passes
    doc = {
        "horizon": 2,
        "nodes": [
            {"id": "r", "level": 0, "parent": None, "price": ["5"],
             "generators": [{"ok": "1"}]},
            {"id": "ok", "level": 1, "parent": "r", "price": ["5"],
             "generators": [{"u": "1/2", "d": "1/2"}]},
            {"id": "bad", "level": 1, "parent": "r", "price": ["5"],
             "generators": [{"up": "1"}]},
            {"id": "u", "level": 2, "parent": "ok", "price": ["6"]},
            {"id": "d", "level": 2, "parent": "ok", "price": ["4"]},
            {"id": "up", "level": 2, "parent": "bad", "price": ["9"]},
        ],
    }
    model = load_model(json.dumps(doc))
    mask = compute_support(model.tree)
    assert "bad" not in mask.relevant_nodes[1]
    assert global_na(model.tree, mask) is None

    # making the bad node relevant flips the verdict
    doc["nodes"][0]["generators"] = [{"ok": "1/2", "bad": "1/2"}]
    flipped = load_model(json.dumps(doc))
    fmask = compute_support(flipped.tree)
    found = global_na(flipped.tree, fmask)
    assert found is not None and "bad" in found.strategy.dynamic


# stocks only: "r" and "ok" pass, the relevant node "bad" rises surely
FAILS_AT_BAD = {
    "horizon": 2,
    "nodes": [
        {"id": "r", "level": 0, "parent": None, "price": ["5"],
         "generators": [{"ok": "1/2", "bad": "1/2"}]},
        {"id": "ok", "level": 1, "parent": "r", "price": ["5"],
         "generators": [{"u": "1/2", "d": "1/2"}]},
        {"id": "bad", "level": 1, "parent": "r", "price": ["5"],
         "generators": [{"up": "1"}]},
        {"id": "u", "level": 2, "parent": "ok", "price": ["6"]},
        {"id": "d", "level": 2, "parent": "ok", "price": ["4"]},
        {"id": "up", "level": 2, "parent": "bad", "price": ["9"]},
    ],
}


def test_stock_na_verdict_builds_no_martingale_system(monkeypatch):
    # the certificate is checked on leaf wealths; the Market never builds
    # its rows, which the stocks-only `na` op must not pay for
    model = load_model(json.dumps(FAILS_AT_BAD))
    tree, mask = model.tree, compute_support(model.tree)
    builds = count_everywhere(monkeypatch, martingale_rows)
    assert global_na(tree, mask).witness_leaves == ("up",)
    assert lift_first_failure(tree, mask, scan_nodes(tree, mask)) is not None
    assert builds == []


# two stocks: the root passes without an LP, and both level-1 nodes fail
# (their moves span a quadrant), each solving one separator LP in a scan
TWO_FAILING_NODES = {
    "horizon": 2,
    "nodes": [
        {"id": "r", "level": 0, "parent": None, "price": ["5", "5"],
         "generators": [{"a": "1/2", "b": "1/2"}]},
        {"id": "a", "level": 1, "parent": "r", "price": ["6", "6"],
         "generators": [{"a1": "1/2", "a2": "1/2"}]},
        {"id": "b", "level": 1, "parent": "r", "price": ["4", "4"],
         "generators": [{"b1": "1/2", "b2": "1/2"}]},
        {"id": "a1", "level": 2, "parent": "a", "price": ["7", "6"]},
        {"id": "a2", "level": 2, "parent": "a", "price": ["6", "7"]},
        {"id": "b1", "level": 2, "parent": "b", "price": ["3", "4"]},
        {"id": "b2", "level": 2, "parent": "b", "price": ["4", "3"]},
    ],
}


def test_global_na_stops_at_the_first_failing_node(monkeypatch):
    """global_na tests 'r' and 'a' and lifts the closed-form separator of
    'a' with no LP; scan_nodes tests every node and solves one separator LP
    per failing node, whose lift at 'a' is another arbitrage."""
    model = load_model(json.dumps(TWO_FAILING_NODES))
    tree, mask = model.tree, compute_support(model.tree)
    tested = count_calls(monkeypatch, arbitrage, "_local_na")
    solves = count_everywhere(monkeypatch, lp.solve)
    found = global_na(tree, mask)
    assert [args[2] for args in tested] == ["r", "a"]
    assert solves == []
    assert found == ArbitrageFound(Strategy(F(0), (), {"a": (F(1), F(0))}), ("a1",))
    tested.clear()
    reports = scan_nodes(tree, mask)
    assert [args[2] for args in tested] == ["r", "a", "b"]
    assert [r.passed for r in reports] == [True, False, False]
    assert len(solves) == 2
    assert lift_first_failure(tree, mask, reports) == ArbitrageFound(
        Strategy(F(0), (), {"a": (F(1), F(1))}), ("a1", "a2")
    )


def test_require_stock_na_returns_the_market_or_names_the_node(example_b):
    mask = compute_support(example_b.tree)
    market = require_stock_na(example_b.tree, mask, list(example_b.options))
    assert market == Market(example_b.tree, mask, example_b.options)
    model = load_model(json.dumps(FAILS_AT_BAD))
    mask = compute_support(model.tree)
    with pytest.raises(ArbitrageDetected, match="at node 'bad'") as denied:
        require_stock_na(model.tree, mask)
    assert denied.value.found == global_na(model.tree, mask)
    assert superhedge.ArbitrageDetected is ArbitrageDetected


def test_polar_invariance_of_global_na():
    base = {
        "horizon": 2,
        "nodes": [
            {"id": "r", "level": 0, "parent": None, "price": ["5"],
             "generators": [{"ok": "1"}]},
            {"id": "ok", "level": 1, "parent": "r", "price": ["5"],
             "generators": [{"u": "1/2", "d": "1/2"}]},
            {"id": "bad", "level": 1, "parent": "r", "price": ["5"],
             "generators": [{"up": "1"}]},
            {"id": "u", "level": 2, "parent": "ok", "price": ["6"]},
            {"id": "d", "level": 2, "parent": "ok", "price": ["4"]},
            {"id": "up", "level": 2, "parent": "bad", "price": ["9"]},
        ],
    }
    model = load_model(json.dumps(base))
    verdict = global_na(model.tree, compute_support(model.tree)) is None
    # rewrite prices and generators strictly inside the polar subtree
    base["nodes"][2]["price"] = ["1"]
    base["nodes"][5]["price"] = ["1/2"]
    mutated = load_model(json.dumps(base))
    assert (global_na(mutated.tree, compute_support(mutated.tree)) is None) == verdict


def test_find_dominating_constant_stock():
    model = constant_stock_model(3)
    mask = compute_support(model.tree)
    p = PathMeasure({"w0": F(1, 2), "w1": F(1, 4), "w2": F(1, 4)})
    witness = find_dominating_mm(model.tree, mask, (), p)
    assert witness is not None
    assert verify_witness(model.tree, mask, (), witness) == []
    # every measure is a martingale measure here, so p dominates itself
    assert witness.q.weights == p.weights or all(
        witness.q(leaf) > 0 for leaf in p.weights
    )


def test_find_dominating_example_b_uniform(example_b):
    mask = compute_support(example_b.tree)
    p = example_b.measures["uniform"]
    witness = find_dominating_mm(example_b.tree, mask, (), p)
    assert witness is not None
    assert verify_witness(example_b.tree, mask, (), witness) == []
    assert all(witness.q(leaf) > 0 for leaf in ("8", "10", "13"))


def _trinomial_with_call(horizon=4, steps=(-1, 0, 2)):
    """3**horizon leaves, uniform generators, one call struck at 10."""
    nodes = []

    def grow(node_id, level, parent, price):
        node = {"id": node_id, "level": level, "parent": parent, "price": [str(price)]}
        nodes.append(node)
        if level < horizon:
            kids = [f"{node_id}{k}" for k in range(len(steps))]
            node["generators"] = [{kid: "1/3" for kid in kids}]
            for kid, step in zip(kids, steps):
                grow(kid, level + 1, node_id, price + step)

    grow("r", 0, None, 10)
    payoff = {n["id"]: str(max(int(n["price"][0]) - 10, 0)) for n in nodes if n["level"] == horizon}
    doc = {
        "horizon": horizon,
        "nodes": nodes,
        "options": [{"name": "call", "quote": "1", "payoff": payoff}],
    }
    return load_model(json.dumps(doc))


def test_float_dual_price_is_the_number_only():
    # a float LP yields a number: the float dual price is within 1e-9 of the
    # exact one, and neither float route returns an unverified measure or
    # strategy
    model = _trinomial_with_call()
    tree = model.tree
    mask = compute_support(tree)
    assert len(mask.relevant_leaves) == 81
    prices = {leaf: tree.nodes[leaf].price[0] for leaf in tree.leaves}
    claim = Claim({leaf: max(11 - x, F(0)) for leaf, x in prices.items()})
    mode = lp.float_mode(1e-9)
    exact, q_exact = dual_price(tree, mask, claim, model.options)
    approx, q_approx = dual_price(tree, mask, claim, model.options, mode)
    assert abs(approx - float(exact)) < 1e-9
    assert q_exact is not None and q_approx is None
    price, strategy, q = superhedge_semistatic(tree, mask, claim, model.options, mode)
    assert abs(price - float(exact)) < 1e-9
    assert strategy is None and q is None


def test_find_dominating_with_option_pins_measure(example_b):
    # call quoted at 6/5 forces (3/5, 0, 2/5): Dirac(10) cannot be dominated
    mask = compute_support(example_b.tree)
    p = example_b.measures["middle"]
    assert find_dominating_mm(example_b.tree, mask, example_b.options, p) is None
    # but the pinned measure itself is reachable from a compatible reference
    p_ok = PathMeasure({"8": F(1, 2), "13": F(1, 2)})
    witness = find_dominating_mm(example_b.tree, mask, example_b.options, p_ok)
    assert witness is not None
    assert witness.q.weights == {"8": F(3, 5), "13": F(2, 5)}


def _mm_lp(tree, mask, options, p):
    """The max-min-weight LP that find_dominating_mm solves, called
    directly: the verdict its route reaches without the shortcut."""
    rows, rhs = zip(*Market(tree, mask, tuple(options)).rows)
    return lp.max_min_weight(rows, rhs, [p(leaf) for leaf in mask.relevant_leaves])


def test_mm_none_from_the_stock_arbitrage_is_the_lps_verdict(monkeypatch):
    """On every envelope-mix seed-0 document whose stocks fail NA, the
    uniform reference charges a witness leaf of global_na's arbitrage, so
    `mm` answers None without an LP; the LP, solved directly, reaches the
    same verdict (infeasible, or t <= 0)."""
    monkeypatch.syspath_prepend(str(DATA.parents[1] / "bench"))
    import workloads

    failing = 0
    for doc in workloads.build("envelope-mix", 0).docs:
        model = load_model(json.dumps(doc.body))
        tree, mask = model.tree, compute_support(model.tree)
        found = global_na(tree, mask)
        if found is None:
            continue
        failing += 1
        p = reference_measure(tree)
        assert any(p(leaf) > 0 for leaf in found.witness_leaves)
        with monkeypatch.context() as patched:
            solves = count_everywhere(patched, lp.solve)
            assert find_dominating_mm(tree, mask, model.options, p) is None
            assert solves == []
        out = _mm_lp(tree, mask, model.options, p)
        assert isinstance(out, lp.Infeasible) or out.value <= 0
    assert failing == 75


def test_mm_reference_off_the_witness_leaves_still_solves_the_lp(monkeypatch):
    """The stocks fail at 'bad', whose lift gains at 'up' only. A reference
    that does not charge 'up' is left to the LP, which here finds a
    dominating measure: it puts no mass on 'bad'."""
    model = load_model(json.dumps(FAILS_AT_BAD))
    tree, mask = model.tree, compute_support(model.tree)
    assert global_na(tree, mask).witness_leaves == ("up",)
    solves = count_everywhere(monkeypatch, lp.solve)
    p = PathMeasure({"u": F(1, 2), "d": F(1, 2)})
    witness = find_dominating_mm(tree, mask, (), p)
    assert len(solves) == 1
    assert witness.q.weights == {"u": F(1, 2), "d": F(1, 2)}
    assert find_dominating_mm(tree, mask, (), reference_measure(tree)) is None
    assert len(solves) == 1


def _three_stocks(*children) -> str:
    """One period, three stocks, the root at the origin, and a uniform
    generator over children at the given prices."""
    nodes = [{"id": "r", "level": 0, "parent": None, "price": ["0", "0", "0"],
              "generators": [{f"c{k}": f"1/{len(children)}" for k in range(len(children))}]}]
    nodes += [
        {"id": f"c{k}", "level": 1, "parent": "r", "price": list(price)}
        for k, price in enumerate(children)
    ]
    return json.dumps({"horizon": 1, "dimension": 3, "nodes": nodes})


def _outcomes(monkeypatch) -> list:
    """The outcome of every `lp.solve`, in call order."""
    outcomes: list = []
    inner = lp.solve

    def solve(prog, mode=lp.EXACT):
        outcomes.append(inner(prog, mode))
        return outcomes[-1]

    monkeypatch.setattr(lp, "solve", solve)
    return outcomes


def _checked_denials(monkeypatch, model, p) -> list:
    """find_dominating_mm's None on the model, with the arbitrage strategies
    that `Market.arbitrage` checked on the way; each must gain on a leaf p
    charges."""
    tree, mask = model.tree, compute_support(model.tree)
    checked = count_everywhere(monkeypatch, Market.arbitrage)
    assert find_dominating_mm(tree, mask, model.options, p) is None
    strategies = [strategy for _, strategy in checked]
    market = Market(tree, mask, model.options)
    for strategy in strategies:
        assert any(p(leaf) > 0 for leaf in market.arbitrage(strategy).witness_leaves)
    return strategies


def test_three_stock_mm_finds_the_uniform_measure():
    model = load_model(_three_stocks("100", "010", "001", ("-1", "-1", "-1")))
    mask = compute_support(model.tree)
    witness = find_dominating_mm(model.tree, mask, (), reference_measure(model.tree))
    assert witness.q.weights == {f"c{k}": F(1, 4) for k in range(4)}


def test_three_stock_arbitrage_none_is_certified(monkeypatch):
    """Every increment is >= 0, so the stocks fail at the root, and the
    scan's lifted arbitrage, checked, gains on a leaf p charges."""
    model = load_model(_three_stocks("100", "010", "001"))
    [strategy] = _checked_denials(monkeypatch, model, reference_measure(model.tree))
    assert strategy.initial == 0 and list(strategy.dynamic) == ["r"]


@pytest.mark.parametrize(
    "document, measure",
    [
        ("example_b", "uniform"),
        ("example_b", "middle"),
        ("no_full_support", "uniform"),
        ("past_float_range", "uniform"),
    ],
)
def test_mm_none_at_a_zero_optimum_is_read_off_the_duals(monkeypatch, document, measure):
    """The stocks pass NA, so the LP decides; its optimum is t = 0, and its
    row duals are the checked arbitrage."""
    model = load_model((DATA / f"{document}.json").read_text())
    p = model.measures.get(measure) or reference_measure(model.tree)
    outcomes = _outcomes(monkeypatch)
    assert len(_checked_denials(monkeypatch, model, p)) == 1
    [out] = outcomes
    assert isinstance(out, lp.Optimal) and out.value == 0


def test_reference_charging_polar_leaf_rejected():
    doc = {
        "horizon": 1,
        "nodes": [
            {"id": "r", "level": 0, "parent": None, "price": ["1"],
             "generators": [{"a": "1"}]},
            {"id": "a", "level": 1, "parent": "r", "price": ["1"]},
            {"id": "b", "level": 1, "parent": "r", "price": ["1"]},
        ],
    }
    model = load_model(json.dumps(doc))
    mask = compute_support(model.tree)
    with pytest.raises(ValueError):
        find_dominating_mm(model.tree, mask, (), PathMeasure({"b": F(1)}))


def test_ftap_equivalence_on_corpus():
    """First FTAP, executable: semistatic NA <=> dominating witness for the
    reference selector; stocks-only when e = 0. Fail certificates re-verify."""
    rng = random.Random(424242)
    agree = 0
    for _ in range(120):
        model = random_instance(rng)
        tree = model.tree
        mask = compute_support(tree)
        p_hat = reference_measure(tree)
        witness = find_dominating_mm(tree, mask, model.options, p_hat)
        found = semistatic_na(tree, mask, model.options)
        assert (found is None) == (witness is not None)
        if witness is not None:
            assert verify_witness(tree, mask, model.options, witness) == []
        else:
            assert found is not None
            assert found.witness_leaves
            for leaf in mask.relevant_leaves:
                w = wealth(tree, found.strategy, model.options, leaf)
                assert w >= 0
                assert (leaf in found.witness_leaves) == (w > 0)
        if not model.options:
            stocks = global_na(tree, mask)
            assert (stocks is None) == (found is None)
        agree += 1
    assert agree == 120


def test_witness_for_reference_dominates_any_p():
    """A witness for the reference selector yields one for every p supported
    by the relevant leaves (tested domination lemma)."""
    rng = random.Random(77)
    tested = 0
    for _ in range(60):
        model = random_instance(rng, mm_quotes=True)
        tree = model.tree
        mask = compute_support(tree)
        p_hat = reference_measure(tree)
        if find_dominating_mm(tree, mask, model.options, p_hat) is None:
            continue
        leaves = list(mask.relevant_leaves)
        raw = [rng.randint(0, 3) for _ in leaves]
        if sum(raw) == 0:
            raw[0] = 1
        total = sum(raw)
        p = PathMeasure({l: F(w, total) for l, w in zip(leaves, raw) if w})
        got = find_dominating_mm(tree, mask, model.options, p)
        assert got is not None
        tested += 1
    assert tested >= 20


def test_martingale_transform_has_zero_mean():
    """Strategies with x = 0, h = 0 integrate to zero under any witness."""
    rng = random.Random(31337)
    tested = 0
    for _ in range(60):
        model = random_instance(rng, max_options=0)
        tree = model.tree
        mask = compute_support(tree)
        witness = find_dominating_mm(tree, mask, (), reference_measure(tree))
        if witness is None:
            continue
        from robusthedge.model import Strategy

        dynamic = {
            n: tuple(F(rng.randint(-3, 3)) for _ in range(tree.dimension))
            for n in mask.relevant_nonleaf(tree)
        }
        strat = Strategy(F(0), (), dynamic)
        mean = sum(
            (witness.q(leaf) * wealth(tree, strat, (), leaf) for leaf in tree.leaves),
            F(0),
        )
        assert mean == 0
        tested += 1
    assert tested >= 20


def _check_rows_give_wealth(model, rng):
    """A seeded position vector over the rows (initial capital on the mass
    row, node positions on the martingale rows 1 + k*d + i of the k-th
    relevant non-leaf node, option positions on the option rows) times each
    column is the terminal wealth at that leaf."""
    tree = model.tree
    mask = compute_support(tree)
    rows = martingale_rows(tree, mask, model.options)
    position = [F(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in rows]
    assert all(len(row) == len(mask.relevant_leaves) for row, _ in rows)
    d = tree.dimension
    nodes = mask.relevant_nonleaf(tree)
    assert len(rows) == 1 + len(nodes) * d + len(model.options)
    initial, static = position[0], position[1 + len(nodes) * d:]
    dynamic = {n: position[1 + k * d:1 + (k + 1) * d] for k, n in enumerate(nodes)}
    strategy = Strategy(initial, tuple(static), {n: tuple(h) for n, h in dynamic.items()})
    market = Market(tree, mask, model.options)
    columns = market.columns
    point = [initial, *static, *(v for h in dynamic.values() for v in h)]
    same = market.strategy(point)
    for k, leaf in enumerate(mask.relevant_leaves):
        want = wealth(tree, strategy, model.options, leaf)
        assert sum((row[k] * v for (row, _), v in zip(rows, position)), F(0)) == want
        assert sum((a * v for a, v in zip(columns[k], point)), F(0)) == want
        assert wealth(tree, same, model.options, leaf) == want


def test_martingale_rows_transpose_to_wealth(example_b):
    """The one builder of the martingale system against the path-walking
    wealth, on polar subtrees and with options."""
    rng = random.Random(2718)
    assert example_b.options
    _check_rows_give_wealth(example_b, rng)
    with_polar = 0
    for _ in range(60):
        model = random_instance(rng)
        mask = compute_support(model.tree)
        with_polar += len(mask.relevant_leaves) < len(model.tree.leaves)
        _check_rows_give_wealth(model, rng)
    assert with_polar >= 10


def test_float_phase1_ray_is_a_numerical_breakdown(monkeypatch):
    # phase 1 minimizes a sum of artificials >= 0, so an improving ray there
    # means float pivoting lost accuracy; exact mode keeps calling it a bug
    model = load_model((DATA / "float_phase1_ray.json").read_text())
    mask = compute_support(model.tree)
    p = reference_measure(model.tree)
    rows, rhs = zip(*martingale_rows(model.tree, mask, model.options))
    weights = [p(leaf) for leaf in mask.relevant_leaves]
    solved = []
    inner = lp.solve
    monkeypatch.setattr(lp, "solve", lambda prog, mode: solved.append(prog) or inner(prog, mode))
    assert isinstance(lp.max_min_weight(rows, rhs, weights), lp.Optimal)
    (prog,) = solved
    with pytest.raises(lp.NumericalBreakdown, match="phase 1 ran unbounded"):
        inner(prog, lp.float_mode(1e-9))
    prog = lp.linear_program([1], maximize=False, constraints=[([1], ">=", 1)])
    bug = lp._ExactSimplex(prog)._phase1_unbounded()
    assert isinstance(bug, RuntimeError) and "(bug)" in str(bug)
