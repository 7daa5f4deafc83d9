"""Superhedging: one-step prices, both global routes, intervals,
replicability, completeness, Lagrange form, inequality prover."""

import contextlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from robusthedge.arbitrage import global_na
from robusthedge.model import Claim, Strategy, load_model, wealth
from robusthedge.polar import compute_support, reference_measure
from robusthedge.superhedge import (
    OPEN_INTERVAL,
    POINT,
    ArbitrageDetected,
    NotReplicable,
    Proved,
    Refuted,
    Replicable,
    check_complete,
    check_replicable,
    dual_price,
    node_price,
    price_interval,
    prove_inequality,
    superhedge_dynamic,
    superhedge_semistatic,
)

from conftest import (
    DATA,
    constant_stock_model,
    count_everywhere,
    grid_market_model,
    random_claim,
    random_instance,
)

F = Fraction


def _call_claim(example_b):
    return example_b.claims["call"]


def test_node_price_example_b(example_b):
    mask = compute_support(example_b.tree)
    value, hedge = node_price(
        example_b.tree, mask, "root", {"8": F(0), "10": F(0), "13": F(3)}
    )
    assert value == F(6, 5)
    assert hedge == (F(3, 5),)


def test_node_price_constant_children(example_b):
    mask = compute_support(example_b.tree)
    value, hedge = node_price(
        example_b.tree, mask, "root", {"8": F(7), "10": F(7), "13": F(7)}
    )
    assert value == 7
    assert hedge == (F(0),)


def test_node_price_single_child_zero_increment():
    doc = {
        "horizon": 1,
        "nodes": [
            {"id": "r", "level": 0, "parent": None, "price": ["4"],
             "generators": [{"a": "1"}]},
            {"id": "a", "level": 1, "parent": "r", "price": ["4"]},
        ],
    }
    model = load_model(json.dumps(doc))
    mask = compute_support(model.tree)
    value, _ = node_price(model.tree, mask, "r", {"a": F(11, 3)})
    assert value == F(11, 3)


def test_node_price_reads_only_supported_children():
    """A value map with extra keys (every node of the tree, in another order)
    gives the price and hedge of the map over the supported children."""
    rng = random.Random(2027)
    checked = 0
    while checked < 40:
        model = random_instance(rng, max_options=0)
        tree = model.tree
        mask = compute_support(tree)
        if global_na(tree, mask) is not None:
            continue
        every = {n: F(rng.randint(-6, 9), rng.choice([1, 2, 3])) for n in reversed(tree.nodes)}
        for node_id in mask.relevant_nonleaf(tree):
            exact = {c: every[c] for c in mask.node_support[node_id]}
            assert node_price(tree, mask, node_id, every) == node_price(
                tree, mask, node_id, exact
            )
            checked += 1


def test_dynamic_one_period_is_node_price(example_b):
    mask = compute_support(example_b.tree)
    price, _, strategy = superhedge_dynamic(
        example_b.tree, mask, _call_claim(example_b)
    )
    assert price == F(6, 5)
    assert strategy.dynamic == {"root": (F(3, 5),)}
    # equality exactly at leaves 8 and 13, slack at 10
    values = {
        leaf: wealth(example_b.tree, strategy, (), leaf) for leaf in ("8", "10", "13")
    }
    assert values["8"] == 0 and values["13"] == 3 and values["10"] == F(6, 5)


def test_constant_stock_price_is_max(example_b):
    model = constant_stock_model(5)
    mask = compute_support(model.tree)
    rng = random.Random(3)
    for _ in range(10):
        claim = random_claim(rng, model)
        price, _, _ = superhedge_dynamic(model.tree, mask, claim)
        assert price == max(claim.values.values())


def test_dynamic_matches_global_on_recombining_call():
    model = grid_market_model(span=1, start=3)
    mask = compute_support(model.tree)
    tree = model.tree
    claim = Claim(
        {leaf: max(tree.nodes[leaf].price[0] - 3, F(0)) for leaf in tree.leaves}
    )
    dp_price, values, strategy = superhedge_dynamic(tree, mask, claim)
    lp_price, _, _ = superhedge_semistatic(tree, mask, claim, ())
    assert dp_price == lp_price
    # value process invariant: value + hedge . dS >= child value on supported edges
    for level in range(tree.horizon):
        for node_id in mask.relevant_nodes[level]:
            hedge = strategy.position(node_id, tree.dimension)
            for child in mask.node_support[node_id]:
                step = tree.increment(node_id, child)
                lhs = values[node_id] + sum(
                    h * s for h, s in zip(hedge, step)
                )
                assert lhs >= values[child]
    # values exactly at the relevant nodes
    relevant = {n for level in mask.relevant_nodes for n in level}
    assert set(values) == relevant


def test_arbitrage_detected_on_bad_market():
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
    claim = Claim({"a": F(1), "b": F(0)})
    with pytest.raises(ArbitrageDetected):
        superhedge_dynamic(model.tree, mask, claim)
    with pytest.raises(ArbitrageDetected):
        superhedge_semistatic(model.tree, mask, claim, ())


def test_semistatic_digital_with_traded_call(example_b):
    # call traded at its upper price 6/5 pins the measure (3/5, 0, 2/5)
    mask = compute_support(example_b.tree)
    digital = example_b.claims["digital"]
    price, strategy, dual = superhedge_semistatic(
        example_b.tree, mask, digital, example_b.options
    )
    assert price == F(2, 5)
    assert dual.weights == {"8": F(3, 5), "13": F(2, 5)}
    for leaf in example_b.tree.leaves:
        assert wealth(example_b.tree, strategy, example_b.options, leaf) >= digital(leaf)


def test_semistatic_of_traded_option_costs_nothing(example_b):
    mask = compute_support(example_b.tree)
    opt = example_b.options[0]
    normalized = Claim({leaf: opt.normalized(leaf) for leaf in example_b.tree.leaves})
    price, strategy, _ = superhedge_semistatic(
        example_b.tree, mask, normalized, example_b.options
    )
    assert price == 0
    # replicable claim: the optimal strategy replicates exactly on relevant leaves
    for leaf in mask.relevant_leaves:
        assert wealth(example_b.tree, strategy, example_b.options, leaf) == normalized(leaf)


def test_arbitrageable_quote_detected(example_b):
    # quoting the call above its superhedging price is an arbitrage
    bad_option = type(example_b.options[0])(
        "call", F(2), example_b.options[0].payoff
    )
    mask = compute_support(example_b.tree)
    with pytest.raises(ArbitrageDetected) as err:
        superhedge_semistatic(
            example_b.tree, mask, example_b.claims["digital"], (bad_option,)
        )
    assert "interval" in str(err.value)


def test_price_interval_examples(example_b):
    mask = compute_support(example_b.tree)
    call = _call_claim(example_b)
    interval = price_interval(example_b.tree, mask, call, ())
    assert (interval.lower, interval.upper) == (F(0), F(6, 5))
    assert interval.kind == OPEN_INTERVAL

    # f = 2 g1 + 3 is replicable: a Point at 3
    opt = example_b.options[0]
    repl = Claim(
        {leaf: 2 * opt.normalized(leaf) + 3 for leaf in example_b.tree.leaves}
    )
    point = price_interval(example_b.tree, mask, repl, example_b.options)
    assert point.kind == POINT and point.lower == 3

    const = Claim({leaf: F(7, 2) for leaf in example_b.tree.leaves})
    assert price_interval(example_b.tree, mask, const, ()).kind == POINT


def test_check_replicable_martingale_transform(example_b):
    mask = compute_support(example_b.tree)
    fixed = Strategy(F(0), (), {"root": (F(2),)})
    claim = Claim(
        {leaf: wealth(example_b.tree, fixed, (), leaf) for leaf in example_b.tree.leaves}
    )
    result = check_replicable(example_b.tree, mask, claim, ())
    assert isinstance(result, Replicable)
    assert result.price == 0


def test_check_replicable_call_not_replicable(example_b):
    mask = compute_support(example_b.tree)
    result = check_replicable(example_b.tree, mask, _call_claim(example_b), ())
    assert isinstance(result, NotReplicable)
    call = _call_claim(example_b)

    def expect(q):
        return sum((q(leaf) * call(leaf) for leaf in example_b.tree.leaves), F(0))

    assert expect(result.q_low) == 0
    assert expect(result.q_high) == F(6, 5)


def test_singleton_polytope_replicates_everything(example_b):
    mask = compute_support(example_b.tree)
    rng = random.Random(8)
    for _ in range(5):
        claim = random_claim(rng, example_b)
        result = check_replicable(example_b.tree, mask, claim, example_b.options)
        assert isinstance(result, Replicable)


def test_check_complete(example_b):
    doc = {
        "horizon": 1,
        "nodes": [
            {"id": "r", "level": 0, "parent": None, "price": ["2"],
             "generators": [{"u": "1/2", "d": "1/2"}]},
            {"id": "u", "level": 1, "parent": "r", "price": ["3"]},
            {"id": "d", "level": 1, "parent": "r", "price": ["1"]},
        ],
    }
    binomial = load_model(json.dumps(doc))
    assert check_complete(binomial.tree, compute_support(binomial.tree), ())

    mask = compute_support(example_b.tree)
    assert not check_complete(example_b.tree, mask, ())
    assert check_complete(example_b.tree, mask, example_b.options)


def test_replicable_denies_when_no_measure_has_full_support():
    model = load_model((DATA / "no_full_support.json").read_text())
    tree, options = model.tree, model.options
    mask = compute_support(tree)
    interval = price_interval(tree, mask, model.claims["f"], options)
    assert interval.kind == POINT and interval.lower == 2
    with pytest.raises(ArbitrageDetected) as denied:
        check_replicable(tree, mask, model.claims["f"], options)
    found = denied.value.found
    assert found is not None and found.witness_leaves
    for leaf in mask.relevant_leaves:
        gain = wealth(tree, found.strategy, options, leaf)
        assert gain >= 0 and (gain > 0) == (leaf in found.witness_leaves)
    with pytest.raises(ArbitrageDetected):
        check_complete(tree, mask, options)


def _lagrange(tree, mask, claim, options):
    """The semistatic price pi(f) and its optimal option positions h*,
    after asserting the Lagrange form pi(f) = pi_0(f - h*.(g - quote)):
    the stocks-only backward recursion prices the claim net of h*."""
    price, strategy, _ = superhedge_semistatic(tree, mask, claim, options)
    h_star = strategy.static
    static = Strategy(F(0), h_star)
    shifted = Claim(
        {leaf: claim(leaf) - wealth(tree, static, options, leaf) for leaf in tree.leaves}
    )
    assert superhedge_dynamic(tree, mask, shifted)[0] == price
    return price, h_star


def test_lagrange_check(example_b):
    mask = compute_support(example_b.tree)
    call = _call_claim(example_b)
    value, h_star = _lagrange(example_b.tree, mask, call, ())
    assert value == F(6, 5) and h_star == ()

    digital = example_b.claims["digital"]
    value, h_star = _lagrange(example_b.tree, mask, digital, example_b.options)
    assert value == F(2, 5)
    assert len(h_star) == 1

    opt = example_b.options[0]
    normalized = Claim({leaf: opt.normalized(leaf) for leaf in example_b.tree.leaves})
    value, _ = _lagrange(example_b.tree, mask, normalized, example_b.options)
    assert value == 0


def test_lagrange_identity_on_corpus():
    rng = random.Random(4242)
    priced = hedged = 0
    while priced < 15:
        model = random_instance(rng, mm_quotes=True)
        mask = compute_support(model.tree)
        try:
            _, h_star = _lagrange(model.tree, mask, model.claims["f"], model.options)
        except ArbitrageDetected:
            continue
        priced += 1
        hedged += any(h != 0 for h in h_star)
    assert hedged >= 5


def _grid_with_claim():
    model = grid_market_model(span=1, start=2)
    tree = model.tree
    values = {}
    for leaf in tree.leaves:
        path = tree.path(leaf)
        m1 = tree.nodes[path[1]].price[0]
        m2 = tree.nodes[leaf].price[0]
        values[leaf] = m1 * m1 - m1 * m2
    return model, Claim(values)


def test_prove_inequality_grid_identity():
    model, claim = _grid_with_claim()
    tree = model.tree
    mask = compute_support(tree)
    result = prove_inequality(tree, mask, claim, F(0))
    assert isinstance(result, Proved)
    # the pathwise certificate is exactly H_2 = -M_1 at every level-1 node
    for node_id in mask.relevant_nodes[1]:
        m1 = tree.nodes[node_id].price[0]
        assert result.strategy.position(node_id, 1) == (-m1,)
    for leaf in mask.relevant_leaves:
        assert claim(leaf) <= wealth(tree, result.strategy, (), leaf)

    refuted = prove_inequality(tree, mask, claim, F(-1))
    assert isinstance(refuted, Refuted)
    assert refuted.expectation > -1


def test_prove_martingale_mean():
    model = grid_market_model(span=1, start=2)
    tree = model.tree
    mask = compute_support(tree)
    terminal = Claim({leaf: tree.nodes[leaf].price[0] for leaf in tree.leaves})
    result = prove_inequality(tree, mask, terminal, F(2))
    assert isinstance(result, Proved)


def test_zero_gap_and_oracle_agreement_small_corpus():
    from robusthedge.oracle import InstanceTooLarge, brute_price, enumerate_vertices

    rng = random.Random(2718)
    done = 0
    for _ in range(60):
        model = random_instance(rng, mm_quotes=True)
        tree = model.tree
        mask = compute_support(tree)
        claim = model.claims["f"]
        try:
            upper, strategy, dual = superhedge_semistatic(
                tree, mask, claim, model.options
            )
        except ArbitrageDetected:
            continue
        value, measure = dual_price(tree, mask, claim, model.options)
        assert value == upper  # zero duality gap, exactly
        dual_expect = sum((dual(l) * claim(l) for l in tree.leaves), F(0))
        assert dual_expect == upper  # the primal's row duals attain it
        try:
            polytope = enumerate_vertices(tree, mask, model.options)
        except InstanceTooLarge:
            continue
        brute = brute_price(polytope, claim)
        assert brute.maximum == upper
        done += 1
    assert done >= 15


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mm_quotes=st.booleans())
def test_zero_duality_gap_on_generated_markets(seed, mm_quotes):
    """The primal and the dual route give the same exact price, or both
    deny: neither prices a market whose stocks or quotes admit arbitrage."""
    model = random_instance(
        random.Random(seed), mm_quotes=mm_quotes, max_options=2, max_leaves=12
    )
    assume(model.options)
    tree, claim = model.tree, model.claims["f"]
    mask = compute_support(tree)
    answers = []
    for route in (superhedge_semistatic, dual_price):
        try:
            answers.append(route(tree, mask, claim, model.options)[0])
        except ArbitrageDetected:
            answers.append("denied")
    assert answers[0] == answers[1]


def test_weak_duality_unconditional():
    """Any feasible (x, H, h) dominates every consistent measure's
    expectation, even without filtering for no-arbitrage."""
    from robusthedge.oracle import InstanceTooLarge, enumerate_vertices

    rng = random.Random(90210)
    checked = 0
    for _ in range(60):
        model = random_instance(rng, mm_quotes=True, max_leaves=12)
        tree = model.tree
        mask = compute_support(tree)
        claim = model.claims["f"]
        dynamic = {
            n: tuple(F(rng.randint(-2, 2)) for _ in range(tree.dimension))
            for n in mask.relevant_nonleaf(tree)
        }
        static = tuple(F(rng.randint(-2, 2)) for _ in model.options)
        partial = Strategy(F(0), static, dynamic)
        x = max(
            claim(leaf) - wealth(tree, partial, model.options, leaf)
            for leaf in mask.relevant_leaves
        )
        feasible = Strategy(x, static, dynamic)
        try:
            polytope = enumerate_vertices(tree, mask, model.options)
        except InstanceTooLarge:
            continue
        for vertex in polytope.vertices:
            expectation = sum(
                (vertex(l) * claim(l) for l in tree.leaves), F(0)
            )
            assert expectation <= x
            checked += 1
    assert checked >= 40


def test_pi_properties_spot_check():
    rng = random.Random(314)
    done = 0
    while done < 12:
        model = random_instance(rng, max_options=0)
        tree = model.tree
        mask = compute_support(tree)
        f = random_claim(rng, model)
        try:
            pf, _, _ = superhedge_semistatic(tree, mask, f, ())
        except ArbitrageDetected:
            continue
        done += 1
        g = random_claim(rng, model)
        pg, _, _ = superhedge_semistatic(tree, mask, g, ())
        c = F(rng.randint(-4, 4), rng.choice([1, 2]))
        lam = F(rng.randint(0, 5), rng.choice([1, 2]))
        shifted, _, _ = superhedge_semistatic(
            tree, mask, Claim({l: v + c for l, v in f.values.items()}), ()
        )
        assert shifted == pf + c
        scaled, _, _ = superhedge_semistatic(
            tree, mask, Claim({l: lam * v for l, v in f.values.items()}), ()
        )
        assert scaled == lam * pf
        added, _, _ = superhedge_semistatic(
            tree, mask, Claim({l: f(l) + g(l) for l in tree.leaves}), ()
        )
        assert added <= pf + pg
        dominated, _, _ = superhedge_semistatic(
            tree,
            mask,
            Claim({l: min(f(l), g(l)) for l in tree.leaves}),
            (),
        )
        assert dominated <= pf


@pytest.mark.parametrize(
    "entry",
    [
        "superhedge_semistatic",
        "dual_price",
        "price_interval",
        "check_replicable",
        "check_complete",
    ],
)
def test_stock_na_is_checked_once_per_call(example_b, monkeypatch, entry):
    import robusthedge.superhedge as sh

    tree, options = example_b.tree, example_b.options
    mask = compute_support(tree)

    def run(opts):
        if entry == "check_complete":
            return sh.check_complete(tree, mask, opts)
        return getattr(sh, entry)(tree, mask, example_b.claims["digital"], opts)

    scans = count_everywhere(monkeypatch, global_na)
    run(options)
    assert len(scans) == 1

    # the denial hints reuse the verdict instead of scanning per option
    scans.clear()
    with pytest.raises(ArbitrageDetected, match="interval"):
        run((type(options[0])("call", F(2), options[0].payoff),))
    assert len(scans) == 1


@pytest.mark.parametrize(
    "entry",
    [
        "superhedge_semistatic",
        "price_interval",
        "check_replicable",
        "check_complete",
        "dual_price",
        "find_dominating_mm",
        # denials: a quote outside its stocks-only price interval, and
        # quotes whose consistent measures all miss a relevant leaf
        "superhedge_semistatic-outside",
        "price_interval-outside",
        "dual_price-outside",
        "check_replicable-no_full_support",
        "check_complete-no_full_support",
    ],
)
def test_martingale_system_is_built_once_per_call(example_b, monkeypatch, entry):
    import robusthedge.arbitrage as arb
    import robusthedge.market as market
    import robusthedge.superhedge as sh

    entry, _, denial = entry.partition("-")
    model = example_b
    if denial == "no_full_support":
        model = load_model((DATA / "no_full_support.json").read_text())
    tree, options = model.tree, model.options
    if denial == "outside":
        options = (type(options[0])("call", F(2), options[0].payoff),)
    mask = compute_support(tree)
    claim = model.claims["f" if denial == "no_full_support" else "digital"]
    builds = count_everywhere(monkeypatch, market.martingale_rows)
    with pytest.raises(ArbitrageDetected) if denial else contextlib.nullcontext():
        if entry == "check_complete":
            sh.check_complete(tree, mask, options)
        elif entry == "find_dominating_mm":
            # stocks only, so a witness exists and is re-verified
            assert arb.find_dominating_mm(tree, mask, (), reference_measure(tree)) is not None
        else:
            getattr(sh, entry)(tree, mask, claim, options)
    # one build per options tuple; the hints on an outside quote price the
    # option in the stocks-only market, a second tuple
    built = Counter(tuple(opt.name for opt in args[2]) for args in builds)
    assert list(built.values()) == [1] * (2 if denial == "outside" else 1)
