"""LP kernel: spec examples, certificate re-verification, determinism."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robusthedge import lp
from robusthedge.lp import (
    Infeasible,
    NumericalBreakdown,
    Optimal,
    Unbounded,
    float_mode,
    linear_program,
    solve,
    zero_in_relative_interior,
)
from robusthedge.model import load_model
from robusthedge.polar import compute_support
from robusthedge.superhedge import superhedge_semistatic

from conftest import DATA, verify
from test_lp_golden import GOLDEN, GOLDEN_MARKET, lp_from_json

F = Fraction


def test_one_variable_optimal_with_dual():
    # max x s.t. x <= 1, x >= 0 (both as explicit rows, x free)
    prog = linear_program(
        [1],
        maximize=True,
        constraints=[([1], "<=", 1), ([1], ">=", 0)],
        lower=[None],
    )
    out = solve(prog)
    assert isinstance(out, Optimal)
    assert out.value == 1
    assert out.primal == (F(1),)
    assert out.dual == (F(1), F(0))
    assert verify(prog, out) == []


def test_unbounded_ray():
    prog = linear_program([1], maximize=True, constraints=[([1], ">=", 0)], lower=[None])
    out = solve(prog)
    assert isinstance(out, Unbounded)
    assert out.ray[0] > 0
    assert verify(prog, out) == []


def test_infeasible_farkas():
    prog = linear_program(
        [1],
        maximize=True,
        constraints=[([1], "<=", 0), ([1], ">=", 1)],
        lower=[None],
    )
    out = solve(prog)
    assert isinstance(out, Infeasible)
    assert verify(prog, out) == []


def test_equality_and_bounds():
    # min x + y s.t. x + y = 2, x <= 3, defaults x,y >= 0
    prog = linear_program(
        [1, 1],
        maximize=False,
        constraints=[([1, 1], "=", 2)],
        upper=[3, None],
    )
    out = solve(prog)
    assert isinstance(out, Optimal)
    assert out.value == 2
    assert verify(prog, out) == []


def test_degenerate_redundant_rows():
    # duplicated equality rows force redundant-artificial handling
    prog = linear_program(
        [0, 1],
        maximize=False,
        constraints=[
            ([1, 1], "=", 1),
            ([1, 1], "=", 1),
            ([2, 2], "=", 2),
        ],
    )
    out = solve(prog)
    assert isinstance(out, Optimal)
    assert out.value == 0
    assert verify(prog, out) == []


def test_two_sided_bounds_infeasible():
    prog = linear_program(
        [1],
        maximize=False,
        constraints=[([1], ">=", 5)],
        lower=[F(0)],
        upper=[F(2)],
    )
    out = solve(prog)
    assert isinstance(out, Infeasible)
    assert verify(prog, out) == []


def test_determinism_same_outcome():
    prog = linear_program(
        [3, 5, 4],
        maximize=True,
        constraints=[
            ([2, 3, 0], "<=", 8),
            ([0, 2, 5], "<=", 10),
            ([3, 2, 4], "<=", 15),
        ],
    )
    first = solve(prog)
    second = solve(prog)
    assert first == second
    assert isinstance(first, Optimal)
    assert verify(prog, first) == []


def _random_lp(rng):
    n = rng.randint(1, 5)
    m = rng.randint(1, 5)
    maximize = rng.random() < 0.5

    def coef():
        return F(rng.randint(-4, 4), rng.randint(1, 3))

    constraints = []
    for _ in range(m):
        rel = rng.choice(["<=", "=", ">="])
        constraints.append(([coef() for _ in range(n)], rel, coef()))
    lower = []
    upper = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.4:
            lower.append(F(0))
            upper.append(None)
        elif kind < 0.6:
            lower.append(None)
            upper.append(None)
        elif kind < 0.8:
            lo = coef()
            lower.append(lo)
            upper.append(lo + abs(coef()) + 1)
        else:
            lower.append(None)
            upper.append(coef())
    return linear_program(
        [coef() for _ in range(n)],
        maximize=maximize,
        constraints=constraints,
        lower=lower,
        upper=upper,
    )


def test_randomized_certificates_verify_exactly():
    import random

    rng = random.Random(20240803)
    counts = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(400):
        prog = _random_lp(rng)
        out = solve(prog)
        assert verify(prog, out) == [], (prog, out)
        if isinstance(out, Optimal):
            counts["optimal"] += 1
        elif isinstance(out, Infeasible):
            counts["infeasible"] += 1
        else:
            counts["unbounded"] += 1
    # the generator must actually exercise all three outcomes
    assert all(v > 10 for v in counts.values()), counts


def test_float_mode_matches_exact_value():
    import random

    rng = random.Random(7)
    checked = 0
    for _ in range(200):
        prog = _random_lp(rng)
        exact_out = solve(prog)
        if not isinstance(exact_out, Optimal):
            continue
        try:
            float_out = solve(prog, float_mode(1e-9))
        except lp.NumericalBreakdown:
            continue
        if isinstance(float_out, Optimal):
            checked += 1
            assert abs(float(exact_out.value) - float_out.value) < 1e-6
    assert checked > 30


def test_relative_interior_basic():
    assert zero_in_relative_interior([(F(-2),), (F(0),), (F(3),)]) is None
    rows = [[F(-2), F(0), F(3)], [F(1)] * 3]
    assert lp.max_min_weight(rows, [F(0), F(1)], [F(1)] * 3).value == F(2, 7)

    assert zero_in_relative_interior([(F(0), F(0))]) is None

    outside = zero_in_relative_interior([(F(1),), (F(2),)])
    assert outside is not None
    assert all(outside[0] * v > 0 for v in (1, 2))

    # 0 on the relative boundary: bottom edge of a triangle
    y = zero_in_relative_interior([(F(1), F(0)), (F(-1), F(0)), (F(0), F(1))])
    assert y is not None
    prods = [y[0] * 1 + y[1] * 0, -y[0], y[1]]
    assert all(p >= 0 for p in prods) and any(p > 0 for p in prods)


def test_dump_lp(tmp_path):
    path = tmp_path / "dump.txt"
    lp.set_dump_file(str(path))
    try:
        prog = linear_program([1], maximize=True, constraints=[([1], "<=", 1)])
        solve(prog)
    finally:
        lp.set_dump_file(None)
    text = path.read_text()
    assert "max 1" in text
    assert "1 <= 1" in text


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_bad_float_tolerance_is_rejected(tol):
    with pytest.raises(ValueError, match="tolerance"):
        float_mode(tol)
    with pytest.raises(ValueError, match="tolerance"):
        lp.Mode(tolerance=tol)


def test_mode_is_exact_without_tolerance():
    assert lp.EXACT == lp.Mode(tolerance=None) and lp.EXACT.exact
    assert not float_mode(0.0).exact and float_mode().tolerance == 1e-9
    with pytest.raises(TypeError):
        lp.Mode(exact=True, tolerance=0.5)


def test_both_kernels_load_one_standard_form():
    # every LP of the exact and market goldens, before any pivot: each
    # float entry is the exact kernel's numerator over its row denominator,
    # converted as float(Fraction) converts it
    progs = [
        lp_from_json(entry["lp"])
        for path in (GOLDEN, GOLDEN_MARKET)
        for entry in json.loads(path.read_text(encoding="utf-8"))
    ]
    seen = {"flipped row": 0, "flip": 0, "two-sided": 0, "free": 0}
    for prog in progs:
        exact, floats = lp._ExactSimplex(prog), lp._FloatSimplex(prog, 1e-9)
        for name in ("var_map", "mirror", "basis", "artificials", "flipped", "ncols"):
            assert getattr(floats, name) == getattr(exact, name), name
        for r, row in enumerate(floats.tab):
            den = exact.den[r]
            assert row == [float(F(exact.tab[r].get(k, 0), den)) for k in range(exact.ncols)]
            assert floats.rhs[r] == float(F(exact.rhs[r], den))
        kinds = {entry[0] for entry in exact.var_map}
        seen["flipped row"] += any(exact.flipped)
        seen["flip"] += "flip" in kinds
        seen["two-sided"] += bool(exact.ubound_owner)
        seen["free"] += "free" in kinds
    assert all(seen.values()), seen


def test_float_rows_with_huge_denominators():
    # every value is in float range, but the lcm of a row's denominators
    # is not: each entry is divided as one correctly rounded quotient, so
    # every bit is the one float(Fraction) gave entry by entry
    a = F(1, 3**600)
    b = F(2 * 7**350 + 1, 3 * 7**350)
    c = F(3**600 + 1, 3**600)
    prog = linear_program(
        [1, 1, 1, -1],
        maximize=True,
        constraints=[
            ([a, b, 1, 0], "<=", F(5, 7)),
            ([-c, -b, 0, 1], "<=", -1),
            ([b, 1, -a, c], ">=", F(1, 3)),
        ],
        lower=[0, 0, 0, None],
        upper=[10, None, None, 2],
    )
    assert max(lp._ExactSimplex(prog).den) > 10**400
    out = solve(prog, float_mode(1e-9))
    assert isinstance(out, Optimal)
    assert out.value.hex() == "0x1.279e79e79e79fp+4"
    assert [v.hex() for v in out.primal] == [
        "0x1.4000000000000p+3", "0x1.124924924924ap+0", "0x0.0p+0", "-0x1.d9e79e79e79eap+2",
    ]
    assert [v.hex() for v in out.dual] == [
        "0x1.8000000000000p+1", "0x0.0p+0", "-0x1.0000000000001p+0",
    ]
    huge = linear_program([1], maximize=True, constraints=[([10**400], "<=", 1)])
    with pytest.raises(NumericalBreakdown, match="past float range"):
        solve(huge, float_mode(1e-9))


def _example_b_superhedge_lp(monkeypatch):
    # example_b's superhedge LP has free (x, h, H), each split into x+ and
    # x-, and ">=" rows with rhs >= 0, each with a -1 slack and a +1
    # artificial: both kinds of mirrored column
    model = load_model((DATA / "example_b.json").read_text(encoding="utf-8"))
    solved = []
    real_solve = lp.solve
    monkeypatch.setattr(
        lp, "solve", lambda prog, mode=lp.EXACT: solved.append(prog) or real_solve(prog, mode)
    )
    superhedge_semistatic(
        model.tree, compute_support(model.tree), model.claims["call"], model.options
    )
    return solved[-1]


def test_exact_rows_store_no_mirrored_column(monkeypatch):
    prog = _example_b_superhedge_lp(monkeypatch)
    simplex = lp._ExactSimplex(prog)
    out = simplex.run()
    assert out == solve(prog) and verify(prog, out) == []
    assert out.value == F(6, 5)
    mirrored = set(simplex.mirror)
    assert mirrored & simplex.artificials and mirrored - simplex.artificials
    assert all(row.keys().isdisjoint(mirrored) for row in simplex.tab)


def test_float_rows_store_no_mirrored_column(monkeypatch):
    prog = _example_b_superhedge_lp(monkeypatch)
    simplex = lp._FloatSimplex(prog, 1e-9)
    out = simplex.run()
    assert out == solve(prog, float_mode(1e-9))
    assert abs(out.value - 1.2) <= 1e-9
    mirrored = set(simplex.mirror)
    assert mirrored & simplex.artificials and mirrored - simplex.artificials
    assert all(row[j] == 0.0 for row in simplex.tab for j in mirrored)


_small = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def _mirrored_lps(draw):
    """LPs whose columns the exact kernel mirrors: mostly free variables and
    ">=" rows with rhs >= 0, plus some "<=" rows with rhs < 0, "=" rows and
    variables bounded below. Unless `loose`, every row holds at a drawn
    point, so most of these LPs are feasible; with `bounded`, the objective
    is a combination of the rows that the dual signs allow, so those LPs
    have an optimum."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 6))
    lower = [draw(st.sampled_from([None, None, F(0)])) for _ in range(n)]
    point = [abs(draw(_small)) if lo is not None else draw(_small) for lo in lower]
    loose = draw(st.booleans())
    rows = []
    for _ in range(m):
        coeffs = [draw(_small) for _ in range(n)]
        rel = draw(st.sampled_from([">=", ">=", ">=", "<=", "="]))
        level = sum(a * x for a, x in zip(coeffs, point))
        if (level < 0) == (rel == ">="):
            coeffs, level = [-a for a in coeffs], -level
        if loose:
            rhs = abs(draw(_small)) * (-1 if rel == "<=" else 1)
        else:
            rhs = level * draw(st.sampled_from([0, F(1, 2), 1])) if rel != "=" else level
        rows.append((coeffs, rel, rhs))
    maximize, bounded = draw(st.booleans()), draw(st.booleans())
    if bounded:
        objective = [abs(draw(_small)) if lo is not None else F(0) for lo in lower]
        for coeffs, rel, _ in rows:
            y = abs(draw(_small)) * {">=": 1, "<=": -1, "=": draw(st.sampled_from([1, -1]))}[rel]
            objective = [c + y * a for c, a in zip(objective, coeffs)]
        if maximize:
            objective = [-c for c in objective]
    else:
        objective = [draw(_small) for _ in range(n)]
    return linear_program(objective, maximize=maximize, constraints=rows, lower=lower)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(prog=_mirrored_lps())
def test_mirrored_columns_keep_certificates(prog):
    out = solve(prog)
    assert verify(prog, out) == []
    # the float kernel, which stores the same columns once, reaches the
    # same kind and value or reports its breakdown
    try:
        got = solve(prog, float_mode(1e-9))
    except NumericalBreakdown:
        return
    assert type(got) is type(out)
    if isinstance(out, Optimal):
        value = float(out.value)
        assert abs(got.value - value) <= 1e-9 * max(1.0, abs(value))


@pytest.mark.parametrize(
    "constraints, bounds, message",
    [
        ([([1, 2], "<=", 1)], {}, "constraint width 2 != 1 variables"),
        ([([1], "<", 1)], {}, "bad relation '<'"),
        ([], {"lower": [0, 0]}, "bounds must match the number of variables"),
        ([], {"upper": []}, "bounds must match the number of variables"),
    ],
    ids=["width", "relation", "lower", "upper"],
)
def test_linear_program_rejects_a_malformed_program(constraints, bounds, message):
    with pytest.raises(ValueError) as failure:
        linear_program([1], maximize=True, constraints=constraints, **bounds)
    assert str(failure.value) == message
