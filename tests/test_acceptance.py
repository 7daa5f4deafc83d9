"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The seeded corpus stays inside the envelope T <= 3, branching <= 4, d <= 2,
e <= 2, <= 4 generators per node. Option quotes in the corpus are drawn from
full-support martingale measures on NA-passing trees (and left random on
failing ones), which keeps quoted instances strictly arbitrage-free.
"""

import random
import time
from fractions import Fraction

import pytest

from robusthedge import lp
from robusthedge.arbitrage import find_dominating_mm, global_na, semistatic_na
from robusthedge.decompose import (
    AdaptedProcess,
    NotSupermartingale,
    optional_decomposition,
    verify_decomposition,
)
from robusthedge.model import Claim, wealth
from robusthedge.oracle import brute_price, enumerate_vertices, one_step_vertices
from robusthedge.polar import compute_support, reference_measure
from robusthedge.superhedge import (
    Proved,
    Refuted,
    Replicable,
    check_complete,
    check_replicable,
    dual_price,
    prove_inequality,
    superhedge_dynamic,
    superhedge_semistatic,
)

from conftest import constant_stock_model, grid_market_model, random_claim, random_instance

F = Fraction


def _verdict(number: int, ok: bool, text: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


@pytest.fixture(scope="module")
def corpus():
    """All generated instances plus the strictly-NA-passing subset
    (>= 500), with masks precomputed."""
    rng = random.Random(20240601)
    passing = []
    stream = []
    while len(passing) < 500:
        model = random_instance(rng, mm_quotes=True)
        mask = compute_support(model.tree)
        entry = (model, mask)
        stream.append(entry)
        if semistatic_na(model.tree, mask, model.options) is None:
            passing.append(entry)
    return stream, passing


def test_criterion_1_trinomial_fixture(example_b):
    started = time.perf_counter()
    tree = example_b.tree
    mask = compute_support(tree)
    call = example_b.claims["call"]

    price, _, strategy = superhedge_dynamic(tree, mask, call)
    ok = price == F(6, 5)

    polytope = enumerate_vertices(tree, mask, ())
    vertex_weights = [v.weights for v in polytope.vertices]
    ok &= len(vertex_weights) == 2
    ok &= {"8": F(3, 5), "13": F(2, 5)} in vertex_weights
    ok &= {"10": F(1)} in vertex_weights
    ok &= brute_price(polytope, call).maximum == price

    ok &= strategy.dynamic == {"root": (F(3, 5),)}
    values = {leaf: wealth(tree, strategy, (), leaf) for leaf in tree.leaves}
    ok &= values["8"] == call("8") and values["13"] == call("13")
    ok &= values["10"] > call("10")

    elapsed = time.perf_counter() - started
    ok &= elapsed < 1.0
    _verdict(
        1,
        ok,
        f"call price 6/5, vertices {{(3/5,0,2/5),(0,1,0)}}, hedge 3/5 tight "
        f"at leaves 8 and 13 ({elapsed:.3f}s)",
    )


def test_criterion_2_zero_duality_gap(corpus):
    _, passing = corpus
    started = time.perf_counter()
    float_mode = lp.float_mode(1e-9)
    worst_float_gap = 0.0
    for model, mask in passing:
        claim = model.claims["f"]
        primal, _, _ = superhedge_semistatic(model.tree, mask, claim, model.options)
        dual, _ = dual_price(model.tree, mask, claim, model.options)
        assert primal - dual == 0, "exact duality gap must vanish"
        fp, _, _ = superhedge_semistatic(
            model.tree, mask, claim, model.options, float_mode
        )
        fd, _ = dual_price(model.tree, mask, claim, model.options, float_mode)
        gap = abs(fp - fd)
        worst_float_gap = max(worst_float_gap, gap)
        assert gap <= 1e-7, f"float duality gap {gap}"
    elapsed = time.perf_counter() - started
    _verdict(
        2,
        elapsed < 120.0,
        f"{len(passing)} NA-passing instances, exact gap 0, "
        f"worst float gap {worst_float_gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_executable_first_ftap(corpus):
    stream, _ = corpus
    checked = 0
    for model, mask in stream:
        tree = model.tree
        p_hat = reference_measure(tree)
        witness = find_dominating_mm(tree, mask, model.options, p_hat)
        stocks = global_na(tree, mask)
        # corpus quotes are MM-consistent, so the literal form holds
        assert (stocks is None) == (witness is not None)
        found = semistatic_na(tree, mask, model.options)
        assert (found is None) == (witness is not None)
        if found is not None:
            assert found.witness_leaves, "Fail must exhibit a nonpolar witness set"
            for leaf in mask.relevant_leaves:
                value = wealth(tree, found.strategy, model.options, leaf)
                assert value >= 0
                assert (leaf in found.witness_leaves) == (value > 0)
        checked += 1

    # random (non-repriced) quotes exercise the option-side equivalence
    rng = random.Random(777)
    for _ in range(250):
        model = random_instance(rng, mm_quotes=False)
        mask = compute_support(model.tree)
        witness = find_dominating_mm(model.tree, mask, model.options, reference_measure(model.tree))
        found = semistatic_na(model.tree, mask, model.options)
        assert (found is None) == (witness is not None)
        checked += 1
    _verdict(3, True, f"NA <=> dominating witness on {checked} instances, certificates exact")


def test_criterion_4_dynamic_equals_global(corpus):
    stream, _ = corpus
    checked = 0
    for model, mask in stream:
        if global_na(model.tree, mask) is not None:
            continue
        claim = model.claims["f"]
        dp, _, _ = superhedge_dynamic(model.tree, mask, claim)
        glob, _, _ = superhedge_semistatic(model.tree, mask, claim, ())
        assert dp == glob, "backward recursion must equal the global LP exactly"
        checked += 1
    _verdict(4, checked >= 500, f"DP price == global LP price on {checked} instances")


def test_criterion_5_second_ftap(corpus):
    _, passing = corpus
    checked = 0
    for model, mask in passing:
        if len(mask.relevant_leaves) > 12:
            continue
        tree = model.tree
        claim = model.claims["f"]
        polytope = enumerate_vertices(tree, mask, model.options)
        assert polytope.vertices, "NA-passing implies a nonempty polytope"
        result = check_replicable(tree, mask, claim, model.options)
        upper, _, _ = superhedge_semistatic(tree, mask, claim, model.options)
        negated = Claim({l: -v for l, v in claim.values.items()})
        upper_neg, _, _ = superhedge_semistatic(tree, mask, negated, model.options)
        lower = -upper_neg
        expectations = {
            sum((v(l) * claim(l) for l in tree.leaves), F(0))
            for v in polytope.vertices
        }
        constant = len(expectations) == 1
        assert isinstance(result, Replicable) == (upper == lower) == constant
        complete = check_complete(tree, mask, model.options)
        assert complete == (len(polytope.vertices) == 1)
        checked += 1
    _verdict(
        5,
        checked >= 200,
        f"replicability <=> point interval <=> constant vertex expectation; "
        f"completeness <=> single vertex ({checked} instances)",
    )


def test_criterion_6_optional_decomposition(corpus):
    _, passing = corpus
    rng = random.Random(606060)
    decomposed = 0
    perturbed = 0
    for model, mask in passing:
        tree = model.tree
        if global_na(tree, mask) is not None:
            continue
        claim = random_claim(rng, model)
        _, values, _ = superhedge_dynamic(tree, mask, claim)
        process = AdaptedProcess(values)
        decomposition = optional_decomposition(tree, mask, process)
        assert verify_decomposition(tree, mask, process, decomposition) == []
        assert all(v >= 0 for v in decomposition.consumption.values())
        decomposed += 1

        if tree.horizon < 2:
            continue
        # perturb a positively-weighted level-1 node: the root test must flip
        root_vertices = [q.weights for q in one_step_vertices(tree, mask, tree.root)]
        best = max(
            root_vertices,
            key=lambda q: sum((w * process(c) for c, w in q.items()), F(0)),
        )
        target = next(iter(best))
        bumped = dict(values)
        bumped[target] = bumped[target] + 1
        with pytest.raises(NotSupermartingale) as err:
            optional_decomposition(tree, mask, AdaptedProcess(bumped))
        report = err.value
        assert report.node == tree.root
        expected_gap = max(
            sum((w * bumped[c] for c, w in q.items()), F(0))
            for q in root_vertices
        ) - process(tree.root)
        assert report.gap == expected_gap > 0
        perturbed += 1
    _verdict(
        6,
        decomposed >= 500 and perturbed >= 100,
        f"K >= 0 and V = V0 + H.S - K exact on {decomposed} surfaces; "
        f"+1 bump flips the verdict with exact gap on {perturbed}",
    )


def test_criterion_7_martingale_inequality_prover():
    model = grid_market_model(span=1, start=2)
    tree = model.tree
    mask = compute_support(tree)
    values = {}
    for leaf in tree.leaves:
        path = tree.path(leaf)
        m1 = tree.nodes[path[1]].price[0]
        m2 = tree.nodes[leaf].price[0]
        values[leaf] = m1 * m1 - m1 * m2
    claim = Claim(values)

    result = prove_inequality(tree, mask, claim, F(0))
    ok = isinstance(result, Proved)
    if ok:
        for node_id in mask.relevant_nodes[1]:
            m1 = tree.nodes[node_id].price[0]
            ok &= result.strategy.position(node_id, 1) == (-m1,)
        for leaf in mask.relevant_leaves:
            ok &= claim(leaf) <= wealth(tree, result.strategy, (), leaf)

    refutation = prove_inequality(tree, mask, claim, F(-1))
    ok &= isinstance(refutation, Refuted)
    if isinstance(refutation, Refuted):
        expectation = sum(
            (refutation.q(l) * claim(l) for l in tree.leaves), F(0)
        )
        ok &= expectation == refutation.expectation > -1
    _verdict(
        7,
        ok,
        "f = M1^2 - M1 M2 <= 0 proved pathwise with H2 = -M1; bound -1 "
        "refuted by an explicit martingale measure",
    )


def test_criterion_8_constant_stock_sup():
    model = constant_stock_model(6, price=3)
    mask = compute_support(model.tree)
    rng = random.Random(88)
    ok = True
    for _ in range(50):
        claim = random_claim(rng, model)
        price, _, _ = superhedge_dynamic(model.tree, mask, claim)
        ok &= price == max(claim.values.values())
    _verdict(8, ok, "price equals the pointwise supremum for 50 random claims")


@pytest.fixture(scope="module")
def na_passing_stock_corpus():
    """Stocks-only NA-passing instances for the pi-property checks; the
    second list guarantees polar leaves."""
    rng = random.Random(909090)
    plain = []
    polar = []
    while len(plain) < 250 or len(polar) < 250:
        model = random_instance(rng, max_options=0)
        mask = compute_support(model.tree)
        if global_na(model.tree, mask) is not None:
            continue
        entry = (model, mask)
        if len(plain) < 250:
            plain.append(entry)
        if len(mask.relevant_leaves) < len(model.tree.leaves) and len(polar) < 250:
            polar.append(entry)
    return plain, polar


def test_criterion_9_price_functional_properties(na_passing_stock_corpus):
    plain, polar = na_passing_stock_corpus
    rng = random.Random(99)

    # on stocks-NA-passing instances the dual optimum equals pi (criteria
    # 2 and 4 establish the identification), and it is much cheaper
    def pi(model, mask, claim):
        value, _ = dual_price(model.tree, mask, claim, ())
        return value

    pairs = 0
    for model, mask in plain:
        tree = model.tree
        for _ in range(4):
            f = random_claim(rng, model)
            g = random_claim(rng, model)
            c = F(rng.randint(-4, 4), rng.choice([1, 2]))
            lam = F(rng.randint(0, 5), rng.choice([1, 2]))
            pf = pi(model, mask, f)
            pg = pi(model, mask, g)
            bigger = Claim({l: f(l) + abs(g(l)) for l in tree.leaves})
            assert pi(model, mask, bigger) >= pf  # monotone
            shifted = Claim({l: f(l) + c for l in tree.leaves})
            assert pi(model, mask, shifted) == pf + c  # translation
            scaled = Claim({l: lam * f(l) for l in tree.leaves})
            assert pi(model, mask, scaled) == lam * pf  # homogeneity
            summed = Claim({l: f(l) + g(l) for l in tree.leaves})
            assert pi(model, mask, summed) <= pf + pg  # subadditive
            pairs += 1

    polar_pairs = 0
    for model, mask in polar:
        tree = model.tree
        relevant = set(mask.relevant_leaves)
        for _ in range(4):
            f = random_claim(rng, model)
            pf = pi(model, mask, f)
            mangled = Claim(
                {
                    l: (f(l) if l in relevant else f(l) + F(rng.randint(1, 9)))
                    for l in tree.leaves
                }
            )
            assert pi(model, mask, mangled) == pf  # polar invariance
            polar_pairs += 1
    _verdict(
        9,
        pairs >= 1000 and polar_pairs >= 1000,
        f"monotone/translation/homogeneous/subadditive on {pairs} pairs; "
        f"polar invariance on {polar_pairs} pairs",
    )
