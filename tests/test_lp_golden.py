"""Golden outcomes of the exact and float LP kernels, and a certificate
property.

`data/lp_golden.json` holds a seeded corpus of small LPs of five kinds
(random, degenerate with redundant rows, infeasible, unbounded, free and
two-sided bounds) together with the outcome the exact kernel returned when
the file was recorded: the outcome kind and every value, primal, dual,
Farkas and ray entry as "p/q". The kernel must reproduce each outcome
exactly; Bland's rule fixes the pivot sequence, so any change in the
arithmetic that changes an answer or a certificate shows here.

`data/lp_golden_float.json` holds the float-mode outcome (tolerance 1e-9)
of the same 200 LPs, in their order, plus a few LPs of the size the
float-sweep benchmark workload solves (64-94 rows), stored with their
outcome. They were taken with `--dump-lp` on its documents of seeds 0 and
1: superhedge LPs from `price` and `interval` with `--float --tol 1e-9`,
and three max-min-weight LPs from a former `mm --float` (one of them breaks
down). `mm` solves exactly, so those three pin only the float kernel. Every
float is recorded with `float.hex`, so the float kernel must reproduce each
bit, sign of zero included; a `NumericalBreakdown` is recorded by its
message. The float duals and Farkas multipliers were re-recorded when the
float kernel began to read them off its final reduced-cost row, as the
exact kernel does, instead of solving y'B = c_B again on the original
matrix: only those fields moved, each by at most 6e-12, and every kind,
value, primal point, ray, base point and breakdown stayed the same. The
float duals of the sweep LPs are also held to within 1e-9 of the exact
ones.

`data/lp_golden_market.json` holds LPs of the shapes the market layer
solves, with their exact outcomes: superhedge, max-min-weight and
arbitrage-search LPs taken with `--dump-lp` from one op cycle of the
global-lp and envelope-mix benchmark workloads, seed 0. Per workload, LP
kind and outcome kind it keeps up to MARKET_PER_OUTCOME distinct LPs,
evenly spaced in dump order. These LPs have free variables (split into two
columns) and ">=" rows with a zero right-hand side (a slack and an
artificial each), the columns the exact kernel stores once; the file holds
Infeasible outcomes and outcomes whose final basis holds the negative half
of a free variable.

Re-record (only from a kernel whose answers are trusted) with
`PYTHONPATH=src python tests/test_lp_golden.py` (exact),
`PYTHONPATH=src python tests/test_lp_golden.py --float` (float; it re-solves
the LPs already in both files) and
`PYTHONPATH=src python tests/test_lp_golden.py --market` (market; it runs
the two op cycles).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robusthedge import lp
from robusthedge.lp import (
    Infeasible,
    NumericalBreakdown,
    Optimal,
    Unbounded,
    _ExactSimplex,
    _FloatSimplex,
    float_mode,
    linear_program,
    lp_to_text,
    set_dump_file,
    solve,
    solve_superhedge,
)

from conftest import verify

F = Fraction
GOLDEN = Path(__file__).parent / "data" / "lp_golden.json"
GOLDEN_FLOAT = Path(__file__).parent / "data" / "lp_golden_float.json"
GOLDEN_MARKET = Path(__file__).parent / "data" / "lp_golden_market.json"
FLOAT_TOL = 1e-9
KINDS = ("random", "degenerate", "infeasible", "unbounded", "bounds")
CORPUS_SEED = 20261018
PER_KIND = 40


def _coef(rng, span=5):
    return F(rng.randint(-span, span), rng.randint(1, 4))


def _bounds(rng, n, free_share):
    lower, upper = [], []
    for _ in range(n):
        u = rng.random()
        if u < free_share:
            lower.append(None)
            upper.append(None)
        elif u < free_share + 0.25:
            lo = _coef(rng)
            lower.append(lo)
            upper.append(lo + abs(_coef(rng)) + rng.randint(0, 2))
        elif u < free_share + 0.4:
            lower.append(None)
            upper.append(_coef(rng))
        else:
            lower.append(F(0))
            upper.append(None)
    return lower, upper


def _inside(rng, lo, up):
    if lo is None and up is None:
        return _coef(rng)
    if lo is None:
        return up - abs(_coef(rng))
    if up is None:
        return lo + abs(_coef(rng))
    return lo + (up - lo) * F(rng.randint(0, 4), 4)


def build_lp(rng, kind):
    """One LP of `kind`; infeasible and unbounded kinds are so by
    construction, the degenerate kind has x = 0 feasible, many zero
    right-hand sides and rows repeated up to a rational factor."""
    n = rng.randint(1, 8)
    m = rng.randint(1, 8)
    maximize = rng.random() < 0.5
    objective = [_coef(rng) for _ in range(n)]
    rows = []
    if kind == "degenerate":
        base = [
            ([_coef(rng) for _ in range(n)], rng.choice(["<=", "=", ">="]), F(0))
            for _ in range(max(1, m // 2))
        ]
        for coeffs, rel, rhs in base:
            rows.append((coeffs, rel, rhs))
            factor = F(rng.choice([1, 2, 3, -1, -2]), rng.randint(1, 3))
            flipped = {"<=": ">=", ">=": "<=", "=": "="}[rel] if factor < 0 else rel
            rows.append(([factor * a for a in coeffs], flipped, factor * rhs))
        for _ in range(m - len(base)):
            rows.append(([_coef(rng) for _ in range(n)], "<=", abs(_coef(rng))))
        if rng.random() < 0.6:
            rows.append(([F(1)] * n, "<=", F(rng.randint(1, n))))
        rng.shuffle(rows)
        return linear_program(objective, maximize=maximize, constraints=rows)
    if kind == "unbounded":
        # x_0 >= 0 appears with coefficients <= 0 in "<=" rows that x = 0
        # satisfies, and the objective improves along x_0
        for _ in range(m):
            coeffs = [_coef(rng) for _ in range(n)]
            coeffs[0] = -abs(coeffs[0])
            rows.append((coeffs, "<=", abs(_coef(rng))))
        gain = abs(_coef(rng)) + 1
        objective[0] = gain if maximize else -gain
        upper = [None] + [abs(_coef(rng)) + 1 if rng.random() < 0.3 else None for _ in range(n - 1)]
        return linear_program(objective, maximize=maximize, constraints=rows, upper=upper)
    if kind == "bounds":
        lower, upper = _bounds(rng, n, 0.35)
    else:
        lower, upper = [F(0)] * n, [None] * n
    # rows hold at a point inside the bounds, so most LPs are feasible
    point = [_inside(rng, lo, up) for lo, up in zip(lower, upper)]
    for _ in range(m):
        coeffs = [_coef(rng) for _ in range(n)]
        level = sum(a * x for a, x in zip(coeffs, point))
        rel = rng.choice(["<=", "=", ">="])
        slack = abs(_coef(rng)) if rng.random() < 0.7 else F(0)
        rows.append((coeffs, rel, level + slack if rel == "<=" else level - slack if rel == ">=" else level))
    if rng.random() < 0.6:
        rows.append(([F(rng.randint(0, 2)) for _ in range(n)], "<=", F(rng.randint(n, 3 * n))))
    if kind == "infeasible":
        coeffs = [_coef(rng) for _ in range(n)]
        coeffs[rng.randrange(n)] = F(rng.choice([-3, -1, 1, 2]))
        rhs = _coef(rng)
        factor = F(rng.randint(1, 3), rng.randint(1, 3))
        rows.insert(rng.randrange(len(rows) + 1), (coeffs, "<=", rhs))
        rows.insert(
            rng.randrange(len(rows) + 1),
            ([factor * a for a in coeffs], ">=", factor * (rhs + F(1, rng.randint(1, 4)))),
        )
    return linear_program(
        objective, maximize=maximize, constraints=rows, lower=lower, upper=upper
    )


def _rat(x):
    return None if x is None else str(x)


def lp_json(prog):
    return {
        "objective": [_rat(c) for c in prog.objective],
        "maximize": prog.maximize,
        "constraints": [
            [[_rat(a) for a in con.coeffs], con.relation, _rat(con.rhs)]
            for con in prog.constraints
        ],
        "lower": [_rat(b) for b in prog.lower],
        "upper": [_rat(b) for b in prog.upper],
    }


def lp_from_json(doc):
    return linear_program(
        [F(c) for c in doc["objective"]],
        maximize=doc["maximize"],
        constraints=[([F(a) for a in coeffs], rel, F(rhs)) for coeffs, rel, rhs in doc["constraints"]],
        lower=[None if b is None else F(b) for b in doc["lower"]],
        upper=[None if b is None else F(b) for b in doc["upper"]],
    )


def outcome_json(out, text=_rat):
    """The outcome with every number rendered by `text`."""
    if isinstance(out, Optimal):
        return {
            "kind": "Optimal",
            "value": text(out.value),
            "primal": [text(v) for v in out.primal],
            "dual": [text(v) for v in out.dual],
        }
    if isinstance(out, Infeasible):
        cert = out.certificate
        return {
            "kind": "Infeasible",
            "rows": [text(v) for v in cert.rows],
            "lower": [text(v) for v in cert.lower],
            "upper": [text(v) for v in cert.upper],
        }
    return {
        "kind": "Unbounded",
        "ray": [text(v) for v in out.ray],
        "base": [text(v) for v in out.base],
    }


def float_outcome_json(prog):
    """The float-mode outcome, each float as `float.hex` (only a float has
    that method, so a stray Fraction or int fails loudly)."""
    try:
        out = solve(prog, float_mode(FLOAT_TOL))
    except NumericalBreakdown as exc:
        return {"kind": "NumericalBreakdown", "message": str(exc)}
    return outcome_json(out, text=lambda v: v.hex())


def corpus():
    rng = random.Random(CORPUS_SEED)
    return [(kind, build_lp(rng, kind)) for kind in KINDS for _ in range(PER_KIND)]


def record(path=GOLDEN):
    entries = []
    for kind, prog in corpus():
        out = solve(prog)
        if verify(prog, out):
            raise RuntimeError(f"refusing to record an unverified {kind} outcome")
        entries.append({"kind": kind, "lp": lp_json(prog), "outcome": outcome_json(out)})
    lines = ",\n".join(json.dumps(e, separators=(",", ":")) for e in entries)
    path.write_text("[\n" + lines + "\n]\n", encoding="utf-8")
    return entries


def record_float(sweep=None, path=GOLDEN_FLOAT):
    """Re-solve the exact golden's LPs and the sweep LPs in float mode.
    `sweep` is a list of (source, LP); by default the file's own."""
    if sweep is None:
        old = json.loads(path.read_text(encoding="utf-8"))["sweep"]
        sweep = [(e["source"], lp_from_json(e["lp"])) for e in old]
    corpus_out = [
        float_outcome_json(lp_from_json(e["lp"]))
        for e in json.loads(GOLDEN.read_text(encoding="utf-8"))
    ]
    sweep_out = [
        {"source": source, "lp": lp_json(prog), "outcome": float_outcome_json(prog)}
        for source, prog in sweep
    ]
    dump = lambda items: ",\n".join(json.dumps(e, separators=(",", ":")) for e in items)
    path.write_text(
        f'{{"tolerance":{FLOAT_TOL!r},\n"corpus":[\n{dump(corpus_out)}\n],\n'
        f'"sweep":[\n{dump(sweep_out)}\n]}}\n',
        encoding="utf-8",
    )
    return corpus_out + sweep_out


def test_golden_outcomes_identical():
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(entries) == len(KINDS) * PER_KIND
    assert {e["outcome"]["kind"] for e in entries} == {"Optimal", "Infeasible", "Unbounded"}
    for k, entry in enumerate(entries):
        prog = lp_from_json(entry["lp"])
        assert outcome_json(solve(prog)) == entry["outcome"], (k, entry["kind"])


def test_float_golden_outcomes_identical():
    golden = json.loads(GOLDEN_FLOAT.read_text(encoding="utf-8"))
    assert golden["tolerance"] == FLOAT_TOL
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(golden["corpus"]) == len(entries)
    for k, (entry, want) in enumerate(zip(entries, golden["corpus"])):
        assert float_outcome_json(lp_from_json(entry["lp"])) == want, (k, entry["kind"])
    assert len(golden["sweep"]) >= 4
    for entry in golden["sweep"]:
        prog = lp_from_json(entry["lp"])
        assert len(prog.constraints) >= 64
        assert float_outcome_json(prog) == entry["outcome"], entry["source"]


def test_float_sweep_duals_match_exact():
    # the reduced-cost row gives the float duals of the sweep-sized LPs to
    # within 1e-9 of the exact duals wherever both modes reach an optimum
    golden = json.loads(GOLDEN_FLOAT.read_text(encoding="utf-8"))
    compared = 0
    for entry in golden["sweep"]:
        want = entry["outcome"]
        if want["kind"] != "Optimal":
            continue
        exact = solve(lp_from_json(entry["lp"]))
        if not isinstance(exact, Optimal):
            continue
        floats = [float.fromhex(v) for v in want["dual"]]
        assert len(floats) == len(exact.dual)
        for got, y in zip(floats, exact.dual):
            assert abs(got - float(y)) <= 1e-9, entry["source"]
        compared += 1
    assert compared >= 4


def test_float_golden_reads_mirrored_columns():
    # the float kernel reads a mirrored column off its stored twin; the
    # float golden holds LPs with x- halves, with mirrored artificials, and
    # with a mirrored column in the final basis
    golden = json.loads(GOLDEN_FLOAT.read_text(encoding="utf-8"))
    entries = json.loads(GOLDEN.read_text(encoding="utf-8")) + golden["sweep"]
    minus = artificial = basic = 0
    for entry in entries:
        simplex = _FloatSimplex(lp_from_json(entry["lp"]), FLOAT_TOL)
        mirrored = set(simplex.mirror)
        minus += bool(mirrored - simplex.artificials)
        artificial += bool(mirrored & simplex.artificials)
        try:
            simplex.run()
        except NumericalBreakdown:
            continue
        basic += bool(mirrored & set(simplex.basis))
    assert (minus, artificial, basic) == (38, 133, 69)


@settings(max_examples=150, deadline=None)
@given(rng=st.randoms(use_true_random=False), kind=st.sampled_from(KINDS))
def test_generated_certificates_verify(rng, kind):
    prog = build_lp(rng, kind)
    out = solve(prog)
    assert verify(prog, out) == []
    if kind == "infeasible":
        assert isinstance(out, Infeasible)
    if kind == "unbounded":
        assert isinstance(out, Unbounded)


MARKET_WORKLOADS = ("global-lp", "envelope-mix")
MARKET_PER_OUTCOME = 4


def lp_from_text(text):
    """Parse one LP written by `lp.lp_to_text` (the `--dump-lp` format)."""
    head, *rows, lower, upper = text.strip().splitlines()
    sense, *objective = head.split()
    constraints = []
    for line in rows:
        *coeffs, rel, rhs = line.split()
        constraints.append(([F(a) for a in coeffs], rel, F(rhs)))
    bound = lambda word: None if word in ("-inf", "+inf") else F(word)
    return linear_program(
        [F(c) for c in objective],
        maximize=sense == "max",
        constraints=constraints,
        lower=[bound(w) for w in lower.split()[1:]],
        upper=[bound(w) for w in upper.split()[1:]],
    )


def market_kind(prog):
    """superhedge: min x over free (x, h, H) with ">=" rows; max-min-weight:
    max t over q >= 0 and a free t; arbitrage-search: max clipped gains,
    the only one with upper bounds. Any other LP gives None."""
    if not prog.maximize and all(b is None for b in prog.lower):
        return "superhedge"
    if prog.maximize and any(b is not None for b in prog.upper):
        return "arbitrage-search"
    if prog.maximize and prog.lower[-1] is None and all(b == 0 for b in prog.lower[:-1]):
        return "max-min-weight"
    return None


def mirrored_basic(prog):
    """Whether the exact kernel's final basis holds the negative half of a
    free variable."""
    simplex = _ExactSimplex(prog)
    simplex.run()
    minus = {entry[2] for entry in simplex.var_map if entry[0] == "free"}
    return bool(minus & set(simplex.basis))


def run_cycle(workload, seed=0, docs=None, commands=None, extra=()):
    """Run one op cycle of a benchmark workload through the CLI, quietly:
    only the ops on its first `docs` documents and of `commands`, when
    given, each with the arguments `extra` added."""
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "bench"))
    import workloads
    from robusthedge import cli

    plan = workloads.build(workload, seed)
    with tempfile.TemporaryDirectory() as folder:
        paths = {}
        for doc in plan.docs[:docs]:
            paths[doc.name] = Path(folder) / f"{doc.name}.json"
            paths[doc.name].write_text(json.dumps(doc.body), encoding="utf-8")
        for op in plan.ops:
            if op.doc not in paths or commands is not None and op.command not in commands:
                continue
            argv = [op.args[0], "--model", str(paths[op.doc]), *op.args[1:], *extra]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)


def dumped_lps(workload, seed=0):
    """Every LP of one op cycle of a benchmark workload, in dump order."""
    with tempfile.TemporaryDirectory() as folder:
        dump = Path(folder) / "dump.lp"
        run_cycle(workload, seed, extra=("--dump-lp", str(dump)))
        texts = dump.read_text(encoding="utf-8").split("\n\n")
    return [text for text in texts if text.strip()]


def record_market(path=GOLDEN_MARKET):
    entries = []
    for workload in MARKET_WORKLOADS:
        groups = {}
        seen = set()
        for text in dumped_lps(workload):
            prog = lp_from_text(text)
            kind = market_kind(prog)
            if kind is None or text in seen:
                continue
            seen.add(text)
            out = solve(prog)
            if verify(prog, out):
                raise RuntimeError(f"refusing to record an unverified {kind} outcome")
            groups.setdefault((kind, type(out).__name__), []).append((prog, out))
        for (kind, outcome), items in sorted(groups.items()):
            count = min(MARKET_PER_OUTCOME, len(items))
            for i in range(count):
                prog, out = items[i * len(items) // count]
                entries.append({
                    "source": f"{workload} seed 0 {kind}",
                    "lp": lp_json(prog),
                    "outcome": outcome_json(out),
                })
    lines = ",\n".join(json.dumps(e, separators=(",", ":")) for e in entries)
    path.write_text("[\n" + lines + "\n]\n", encoding="utf-8")
    return entries


def test_market_golden_outcomes_identical():
    entries = json.loads(GOLDEN_MARKET.read_text(encoding="utf-8"))
    sources = {e["source"] for e in entries}
    assert sources == {
        f"{w} seed 0 {k}"
        for w in MARKET_WORKLOADS
        for k in ("superhedge", "max-min-weight", "arbitrage-search")
    }
    assert "Infeasible" in {e["outcome"]["kind"] for e in entries}
    minus_basic = 0
    for k, entry in enumerate(entries):
        prog = lp_from_json(entry["lp"])
        assert market_kind(prog) in entry["source"]
        assert outcome_json(solve(prog)) == entry["outcome"], (k, entry["source"])
        minus_basic += mirrored_basic(prog)
    assert minus_basic > 0


def market_entries(kind):
    return [
        e for e in json.loads(GOLDEN_MARKET.read_text(encoding="utf-8"))
        if e["source"].endswith(f" {kind}")
    ]


def check_superhedge_golden(entries, outcomes):
    """Each outcome has its golden entry's kind and value, and a
    certificate for the entry's (unshifted) LP."""
    for k, (entry, out) in enumerate(zip(entries, outcomes, strict=True)):
        want = entry["outcome"]
        assert type(out).__name__ == want["kind"], k
        if isinstance(out, Optimal):
            assert str(out.value) == want["value"], k
        assert verify(lp_from_json(entry["lp"]), out) == [], k


def test_solve_superhedge_matches_the_market_golden(tmp_path):
    """The trivial start reaches the golden's outcome kind and value, with
    a certificate for the caller's LP, and dumps the caller's LP."""
    entries = market_entries("superhedge")
    assert {e["outcome"]["kind"] for e in entries} == {"Optimal", "Unbounded"}
    dump = tmp_path / "dump.lp"
    set_dump_file(str(dump))
    try:
        outcomes = [solve_superhedge(lp_from_json(e["lp"])) for e in entries]
    finally:
        set_dump_file(None)
    check_superhedge_golden(entries, outcomes)
    assert dump.read_text(encoding="utf-8") == "".join(
        lp_to_text(lp_from_json(e["lp"])) + "\n" for e in entries
    )
    for entry in market_entries("max-min-weight")[:1]:
        with pytest.raises(ValueError, match="not a superhedge LP"):
            solve_superhedge(lp_from_json(entry["lp"]))


@pytest.mark.parametrize("run", [0, 1])
def test_bland_fallback_keeps_the_value(monkeypatch, run):
    """With the degenerate-run limit at 0, Bland's rule takes every pivot;
    at 1, it takes over after each degenerate pivot. Either way the value
    is `solve`'s and the certificate holds."""
    monkeypatch.setattr(lp, "_DEGENERATE_RUN", run)
    calls = {"bland": 0, "dantzig": 0}
    for name, rule in (("bland", "_enter"), ("dantzig", "_most_negative")):
        inner = getattr(_ExactSimplex, rule)

        def counted(self, z, barred, inner=inner, name=name):
            calls[name] += 1
            return inner(self, z, barred)

        monkeypatch.setattr(_ExactSimplex, rule, counted)
    entries = market_entries("superhedge")
    check_superhedge_golden(entries, [solve_superhedge(lp_from_json(e["lp"])) for e in entries])
    assert calls["bland"] > 0
    assert (calls["dantzig"] > 0) == (run > 0)


def test_value_only_pivot_count(monkeypatch):
    """A work counter that does not flake: the exact pivots of `price` and
    `interval` on the first 8 global-lp seed-0 documents. Bland's rule with
    a full phase 1 (`solve`) took 591 of them; the trivial start with
    Dantzig's rule takes 375."""
    pivots = []
    inner = _ExactSimplex._pivot

    def counted(self, r, col, z):
        pivots.append(col)
        return inner(self, r, col, z)

    monkeypatch.setattr(_ExactSimplex, "_pivot", counted)
    run_cycle("global-lp", 0, docs=8, commands=("price", "interval"))
    assert len(pivots) == 375



def test_lps_per_subcommand(tmp_path):
    """A work counter that does not flake: the LPs each subcommand solves
    (dumps) on the first 12 envelope-mix seed-0 documents. Before `mm`'s
    stock-arbitrage answer, `global_na`'s closed-form two-stock separators
    and the value-only denial hints, the counts were na 10, mm 12, price 5,
    hedge 5, interval 13, replicate 13, complete 25 and prove 12 (95)."""
    counts = {}
    for command in ("validate", "na", "mm", "price", "hedge", "interval",
                    "replicate", "complete", "prove"):
        dump = tmp_path / f"{command}.lp"
        dump.write_text("", encoding="utf-8")
        run_cycle("envelope-mix", 0, docs=12, commands=(command,),
                  extra=("--dump-lp", str(dump)))
        texts = dump.read_text(encoding="utf-8").split("\n\n")
        counts[command] = sum(1 for text in texts if text.strip())
    assert counts == {
        "validate": 0, "na": 10, "mm": 5, "price": 2, "hedge": 2,
        "interval": 10, "replicate": 10, "complete": 22, "prove": 9,
    }

if __name__ == "__main__":
    if sys.argv[1:] == ["--float"]:
        written, path = record_float(), GOLDEN_FLOAT
    elif sys.argv[1:] == ["--market"]:
        written, path = record_market(), GOLDEN_MARKET
    else:
        written, path = record(), GOLDEN
    print(f"recorded {len(written)} outcomes to {path}", file=sys.stderr)
