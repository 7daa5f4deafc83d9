"""Each certificate is re-verified once, by the library function that
returns it: call counts per CLI op, and one corrupted certificate per check."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest

import robusthedge.arbitrage as arb
import robusthedge.market as mk
import robusthedge.superhedge as sh
from robusthedge import lp
from robusthedge.cli import main
from robusthedge.decompose import AdaptedProcess, optional_decomposition
from robusthedge.model import Measure, load_model
from robusthedge.polar import compute_support, reference_measure

from conftest import count_everywhere

F = Fraction

ALL_POSITIVE = """{
  "horizon": 1,
  "nodes": [
    {"id": "r", "level": 0, "parent": null, "price": ["1"],
     "generators": [{"a": "1/2", "b": "1/2"}]},
    {"id": "a", "level": 1, "parent": "r", "price": ["2"]},
    {"id": "b", "level": 1, "parent": "r", "price": ["3"]}
  ]
}"""


def _stocks_only_text(example_b_text: str) -> str:
    """example_b without its quoted option, with a supermartingale to
    decompose (the call's superhedging value surface)."""
    doc = json.loads(example_b_text)
    del doc["options"]
    doc["processes"] = {"surface": {"root": "6/5", "8": "0", "10": "0", "13": "3"}}
    return json.dumps(doc)


@pytest.fixture
def stocks_only(example_b_text):
    return load_model(_stocks_only_text(example_b_text))


@pytest.mark.parametrize(
    "document, argv, function, times",
    [
        ("example_b", ["price", "--claim", "call"], mk.Market.wealths, 1),
        ("example_b", ["hedge", "--claim", "call"], mk.Market.wealths, 1),
        ("example_b", ["na"], mk.Market.wealths, 1),
        ("stocks_only", ["price", "--claim", "call"], mk.Market.wealths, 1),
        ("stocks_only", ["hedge", "--claim", "call"], mk.Market.wealths, 1),
        ("stocks_only", ["prove", "--claim", "call", "--bound", "2"], mk.Market.wealths, 1),
        ("stocks_only", ["mm"], mk.verify_witness, 1),
        ("stocks_only", ["decompose", "--process", "surface"], mk.verify_decomposition, 1),
        ("example_b", ["price", "--claim", "call"], mk.verify_measure, 1),
        ("stocks_only", ["prove", "--claim", "call", "--bound", "1"], mk.verify_measure, 1),
        ("stocks_only", ["interval", "--claim", "call"], mk.verify_measure, 2),
        ("stocks_only", ["replicate", "--claim", "call"], mk.verify_measure, 2),
        ("stocks_only", ["complete"], mk.verify_measure, 2),
    ],
)
def test_each_exact_op_checks_its_certificate_once(
    tmp_path, capsys, monkeypatch, example_b_text, document, argv, function, times
):
    text = example_b_text if document == "example_b" else _stocks_only_text(example_b_text)
    path = tmp_path / "m.json"
    path.write_text(text)
    calls = count_everywhere(monkeypatch, function)
    assert main([*argv, "--model", str(path)]) in (0, 2)
    capsys.readouterr()
    assert len(calls) == times


def _patch_solve(monkeypatch, corrupt) -> list:
    """Make lp.solve and lp.solve_dantzig pass each Optimal outcome
    through `corrupt`; returns the list of programs solved by either, in
    call order."""
    solved: list = []
    inner, inner_dantzig = lp.solve, lp.solve_dantzig

    def solve(prog, mode=lp.EXACT):
        solved.append(prog)
        out = inner(prog, mode)
        return corrupt(out) if isinstance(out, lp.Optimal) else out

    def solve_dantzig(prog):
        solved.append(prog)
        out = inner_dantzig(prog)
        return corrupt(out) if isinstance(out, lp.Optimal) else out

    monkeypatch.setattr(lp, "solve", solve)
    monkeypatch.setattr(lp, "solve_dantzig", solve_dantzig)
    return solved


def _patch_node_price(monkeypatch, module, corrupt) -> None:
    inner = module.node_price

    def node_price(tree, mask, node_id, child_values):
        return corrupt(*inner(tree, mask, node_id, child_values))

    monkeypatch.setattr(module, "node_price", node_price)


def test_dynamic_superhedge_check(stocks_only, monkeypatch):
    tree, claim = stocks_only.tree, stocks_only.claims["call"]
    mask = compute_support(tree)
    _patch_node_price(monkeypatch, sh, lambda value, hedge: (value - 1, hedge))
    with pytest.raises(RuntimeError, match="superhedging strategy failed"):
        sh.superhedge_dynamic(tree, mask, claim)
    # the prover's pathwise certificate rests on the same check
    with pytest.raises(RuntimeError, match="superhedging strategy failed"):
        sh.prove_inequality(tree, mask, claim, F(1))


# the global-LP routes of `hedge` and of `price`
SEMISTATIC = (sh.superhedge_semistatic, sh.semistatic_price)


def test_semistatic_superhedge_check(example_b, monkeypatch):
    tree, claim = example_b.tree, example_b.claims["call"]
    mask = compute_support(tree)
    solved = _patch_solve(
        monkeypatch,
        lambda out: lp.Optimal(out.value - 1, (out.primal[0] - 1,) + out.primal[1:], out.dual),
    )
    for k, price in enumerate(SEMISTATIC, 1):
        with pytest.raises(RuntimeError, match="superhedging strategy failed"):
            price(tree, mask, claim, example_b.options)
        assert len(solved) == k


def test_node_lift_arbitrage_check(monkeypatch):
    model = load_model(ALL_POSITIVE)
    mask = compute_support(model.tree)
    inner = arb._local_na

    def flipped(tree, mask, node_id, lp_separator):
        report = inner(tree, mask, node_id, lp_separator)
        return arb.NodeNaReport(node_id, tuple(-v for v in report.certificate))

    monkeypatch.setattr(arb, "_local_na", flipped)
    with pytest.raises(RuntimeError, match="arbitrage strategy lost money"):
        arb.global_na(model.tree, mask)


def test_semistatic_arbitrage_check(example_b, monkeypatch):
    mask = compute_support(example_b.tree)
    assert arb.semistatic_na(example_b.tree, mask, example_b.options) is not None
    _patch_solve(
        monkeypatch,
        lambda out: lp.Optimal(out.value, tuple(-v for v in out.primal), out.dual),
    )
    with pytest.raises(RuntimeError, match="arbitrage strategy lost money"):
        arb.semistatic_na(example_b.tree, mask, example_b.options)


def _all_on_first(values) -> tuple:
    return (F(1),) + (F(0),) * (len(values) - 1)


def test_dominating_measure_check(stocks_only, monkeypatch):
    tree = stocks_only.tree
    mask = compute_support(tree)
    inner = lp.solve_dantzig

    def lumped(prog):
        out = inner(prog)
        q = _all_on_first(out.primal[:-1])
        # `replace` keeps the certificate of the unique q, so `mm` reads this one
        assert "primal" in out.unique
        return replace(out, primal=q + out.primal[-1:])

    monkeypatch.setattr(lp, "solve_dantzig", lumped)
    with pytest.raises(RuntimeError, match="witness failed re-verification"):
        arb.find_dominating_mm(tree, mask, (), reference_measure(tree))


@pytest.mark.parametrize("side", [0, 1], ids=["q_high", "q_low"])
def test_separating_measures_check(stocks_only, monkeypatch, side):
    tree, claim = stocks_only.tree, stocks_only.claims["call"]
    mask = compute_support(tree)
    assert isinstance(sh.check_replicable(tree, mask, claim, ()), sh.NotReplicable)
    # on one side of the interval, a dual that is a probability measure but
    # not a martingale measure (the upper side is solved first)
    solved = _patch_solve(
        monkeypatch,
        lambda out: lp.Optimal(out.value, out.primal, _all_on_first(out.dual))
        if len(solved) == side + 1 else out,
    )
    with pytest.raises(RuntimeError, match="martingale measure failed"):
        sh.check_replicable(tree, mask, claim, ())


def _lump_dual(monkeypatch, at: int) -> None:
    """Put all of the dual mass of the at-th solve (from 1) on the first
    relevant leaf: a probability measure, but no martingale measure."""
    solved = _patch_solve(
        monkeypatch,
        lambda out: lp.Optimal(out.value, out.primal, _all_on_first(out.dual))
        if len(solved) == at else out,
    )


@pytest.mark.parametrize("side", [0, 1], ids=["q_high", "q_low"])
@pytest.mark.parametrize("mode", [lp.EXACT, lp.float_mode(1e-9)], ids=["exact", "float"])
def test_interval_measures_check(example_b, monkeypatch, side, mode):
    tree, claim = example_b.tree, example_b.claims["call"]
    mask = compute_support(tree)
    # the quoted call's interval is a point, so in float mode the exact LPs,
    # solves 3 and 4, decide it after the two float ones
    assert sh.price_interval(tree, mask, claim, example_b.options, mode).kind == sh.POINT
    _lump_dual(monkeypatch, side + (1 if mode.exact else 3))
    with pytest.raises(RuntimeError, match="martingale measure failed"):
        sh.price_interval(tree, mask, claim, example_b.options, mode)


def test_incompleteness_measures_check(stocks_only, monkeypatch):
    tree = stocks_only.tree
    mask = compute_support(tree)
    assert sh.check_complete(tree, mask, ()) is False
    _lump_dual(monkeypatch, 1)
    with pytest.raises(RuntimeError, match="martingale measure failed"):
        sh.check_complete(tree, mask, ())


def test_semistatic_measure_attains_the_price(stocks_only, monkeypatch):
    tree, claim = stocks_only.tree, stocks_only.claims["call"]
    mask = compute_support(tree)
    # all mass on leaf 10, where the stock stays at 10: a martingale measure,
    # but the call's expectation under it is 0, not the price 6/5
    assert mask.relevant_leaves == ("8", "10", "13")
    assert mk.verify_measure(tree, mask, (), Measure({"10": F(1)})) == []
    _patch_solve(monkeypatch, lambda out: lp.Optimal(out.value, out.primal, (F(0), F(1), F(0))))
    with pytest.raises(RuntimeError, match="expectation differs"):
        sh.superhedge_semistatic(tree, mask, claim, ())


def test_measure_checks_read_the_tree_not_the_rows(example_b, monkeypatch):
    """A row builder that drops the root's martingale row prices the call
    on the stocks alone at 3, not 6/5, and takes the uniform measure as a
    dominating martingale measure; the checks read the tree, so both are
    refused."""
    tree, claim = example_b.tree, example_b.claims["call"]
    mask = compute_support(tree)
    inner = mk.martingale_rows
    monkeypatch.setattr(mk, "martingale_rows", lambda *args: [
        row for k, row in enumerate(inner(*args)) if k != 1
    ])
    for price in (sh.superhedge_semistatic, sh.dual_price, sh.price_interval):
        with pytest.raises(RuntimeError, match="failed re-verification"):
            price(tree, mask, claim, ())
    for options in ((), example_b.options):
        with pytest.raises(RuntimeError, match="failed re-verification"):
            arb.find_dominating_mm(tree, mask, options, reference_measure(tree))


def test_semistatic_measure_check(stocks_only, monkeypatch):
    tree, claim = stocks_only.tree, stocks_only.claims["call"]
    mask = compute_support(tree)
    # a dual that is a probability measure but no martingale measure
    _patch_solve(
        monkeypatch, lambda out: lp.Optimal(out.value, out.primal, _all_on_first(out.dual))
    )
    for price in SEMISTATIC:
        with pytest.raises(RuntimeError, match="martingale measure failed"):
            price(tree, mask, claim, ())


def test_dual_price_measure_check(stocks_only, monkeypatch):
    tree, claim = stocks_only.tree, stocks_only.claims["call"]
    mask = compute_support(tree)
    _patch_solve(
        monkeypatch, lambda out: lp.Optimal(out.value, _all_on_first(out.primal), out.dual)
    )
    with pytest.raises(RuntimeError, match="martingale measure failed"):
        sh.dual_price(tree, mask, claim, ())


def test_refuting_measure_check(stocks_only, monkeypatch):
    tree, claim = stocks_only.tree, stocks_only.claims["call"]
    mask = compute_support(tree)
    assert isinstance(sh.prove_inequality(tree, mask, claim, F(1)), sh.Refuted)
    # all mass on leaf 13, where the call pays 3 > 1: it beats the bound,
    # but it is no martingale measure
    leaves = mask.relevant_leaves
    top = tuple(F(leaf == "13") for leaf in leaves)
    _patch_solve(monkeypatch, lambda out: lp.Optimal(F(3), top, out.dual))
    with pytest.raises(RuntimeError, match="martingale measure failed"):
        sh.prove_inequality(tree, mask, claim, F(1))


def test_decomposition_check(stocks_only, monkeypatch):
    tree = stocks_only.tree
    mask = compute_support(tree)
    process = AdaptedProcess(stocks_only.processes["surface"])
    _patch_node_price(
        monkeypatch, sh, lambda value, hedge: (value, tuple(v + 1 for v in hedge))
    )
    with pytest.raises(RuntimeError, match="decomposition failed re-verification"):
        optional_decomposition(tree, mask, process)


def test_semistatic_pass_check(example_b_text, tmp_path, capsys, monkeypatch):
    """`na`'s semistatic Pass is certified by its search LP: the row duals,
    normalized, are a consistent martingale measure charging every leaf."""
    doc = json.loads(example_b_text)
    doc["options"][0]["quote"] = "1/2"  # inside the call's interval (0, 6/5)
    path = tmp_path / "inside.json"
    path.write_text(json.dumps(doc))
    assert main(["na", "--model", str(path)]) == 0
    assert capsys.readouterr().out.endswith("semistatic NA (with options): Pass\n")
    _patch_solve(
        monkeypatch, lambda out: lp.Optimal(out.value, out.primal, _all_on_first(out.dual))
    )
    assert main(["na", "--model", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: no-arbitrage measure failed re-verification (bug): ")


def test_semistatic_fail_needs_a_witness(example_b, monkeypatch):
    """A search LP whose value is positive but whose strategy gains nowhere
    is refused rather than printed as a semistatic Fail."""
    mask = compute_support(example_b.tree)
    _patch_solve(
        monkeypatch,
        lambda out: lp.Optimal(out.value + 1, (F(0),) * len(out.primal), out.dual),
    )
    with pytest.raises(RuntimeError, match="no witness leaf"):
        arb.semistatic_na(example_b.tree, mask, example_b.options)


def test_semistatic_pass_measure_charges_every_leaf(stocks_only, monkeypatch):
    tree = stocks_only.tree
    mask = compute_support(tree)
    assert arb.semistatic_na(tree, mask, ()) is None
    # all mass on leaf 10: a martingale measure that misses leaves 8 and 13
    assert mask.relevant_leaves == ("8", "10", "13")
    _patch_solve(monkeypatch, lambda out: lp.Optimal(out.value, out.primal, (F(0), F(-1), F(0))))
    with pytest.raises(RuntimeError, match="does not charge every relevant leaf"):
        arb.semistatic_na(tree, mask, ())


def test_relative_interior_weights_check(monkeypatch):
    vectors = [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)), (F(-1),) * 3]
    assert arb._lp_separator(vectors) is None
    inner = lp.solve

    def lumped(prog, mode):
        out = inner(prog, mode)
        return lp.Optimal(out.value, _all_on_first(out.primal[:-1]) + out.primal[-1:], out.dual)

    monkeypatch.setattr(lp, "solve", lumped)
    with pytest.raises(RuntimeError, match="relative-interior weights failed"):
        arb._lp_separator(vectors)


@pytest.mark.parametrize("side", [0, 1], ids=["q_high", "q_low"])
def test_hint_measures_check(example_b, monkeypatch, side):
    tree, claim = example_b.tree, example_b.claims["call"]
    mask = compute_support(tree)
    outside = (replace(example_b.options[0], quote=F(2)),)
    with pytest.raises(sh.ArbitrageDetected, match="outside its stocks-only price interval"):
        sh.superhedge_semistatic(tree, mask, claim, outside)
    # solve 1 is the global LP (unbounded), solves 2 and 3 the call's
    # stocks-only upper and lower sides
    _lump_dual(monkeypatch, 2 + side)
    with pytest.raises(RuntimeError, match="martingale measure failed"):
        sh.superhedge_semistatic(tree, mask, claim, outside)


@pytest.mark.parametrize(
    "weights, problem",
    [
        ({"13": F(1)}, "mass on polar leaf '13'"),
        ({"8": F(-1), "10": F(2)}, "negative mass on '8'"),
        ({"10": F(1, 2)}, "total mass 1/2 != 1"),
        ({"10": F(1)}, "option 'call' violated by -6/5"),
        ({"8": F(1)}, "martingale condition at 'root':0 violated by -2"),
    ],
    ids=["polar", "negative", "total", "option", "martingale"],
)
def test_verify_measure_names_each_failure(example_b_text, weights, problem):
    # leaf 13 is polar: no generator charges it
    doc = json.loads(example_b_text)
    doc["nodes"][0]["generators"] = [{"8": "1", "10": "0", "13": "0"}, {"10": "1"}]
    model = load_model(json.dumps(doc))
    mask = compute_support(model.tree)
    assert mask.relevant_leaves == ("8", "10")
    assert problem in mk.verify_measure(model.tree, mask, model.options, Measure(weights))


@pytest.mark.parametrize(
    "change, problem",
    [
        (lambda d: replace(d, consumption={**d.consumption, "root": F(1)}), "K_0 != 0"),
        (lambda d: replace(d, consumption={**d.consumption, "8": F(-1)}),
         "K decreases on edge 'root'->'8'"),
        (lambda d: replace(d, strategy=replace(d.strategy, initial=F(2))),
         "identity fails at 'root': 6/5 != 2"),
    ],
    ids=["k0", "decreasing", "identity"],
)
def test_verify_decomposition_names_each_failure(stocks_only, change, problem):
    tree = stocks_only.tree
    mask = compute_support(tree)
    process = AdaptedProcess(stocks_only.processes["surface"])
    decomposition = optional_decomposition(tree, mask, process)
    assert mk.verify_decomposition(tree, mask, process, decomposition) == []
    assert problem in mk.verify_decomposition(tree, mask, process, change(decomposition))


def _corrupt_solve_dantzig(monkeypatch, corrupt) -> None:
    """Make lp.solve_dantzig pass its outcome through `corrupt`."""
    inner = lp.solve_dantzig
    monkeypatch.setattr(lp, "solve_dantzig", lambda *args: corrupt(inner(*args)))


def _zero_farkas(out):
    assert isinstance(out, lp.Infeasible)
    certificate = out.certificate
    return lp.Infeasible(replace(certificate, rows=(F(0),) * len(certificate.rows)))


def _shifted_dual(out):
    assert isinstance(out, lp.Optimal) and out.value == 0
    return lp.Optimal(out.value, out.primal, tuple(y + 1 for y in out.dual))


@pytest.mark.parametrize(
    "quote, corrupt",
    [("6/5", _shifted_dual), ("2", _zero_farkas)],
    ids=["dual", "farkas"],
)
def test_no_dominating_measure_check(example_b_text, tmp_path, capsys, monkeypatch,
                                     quote, corrupt):
    """`mm`'s none exists is certified by a semistatic arbitrage read off
    the max-min-weight LP: its row duals at the optimum t = 0 (the call
    quoted at 6/5, uniform reference), or its negated Farkas rows when no
    consistent martingale measure exists (the call quoted at 2)."""
    doc = json.loads(example_b_text)
    doc["options"][0]["quote"] = quote
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert main(["mm", "--model", str(path)]) == 2
    assert capsys.readouterr().out == "none exists\n"
    _corrupt_solve_dantzig(monkeypatch, corrupt)
    assert main(["mm", "--model", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and err.endswith(" (bug)\n")
