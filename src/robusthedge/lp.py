"""LP solver: two-phase simplex, by Bland's rule or Dantzig's.

Every optimization in the engine goes through `solve`, which takes Bland's
rule, except some exact LPs that go through `solve_dantzig`: Dantzig's
rule, with Bland's rule taking over during long degenerate runs, and a
superhedge LP, read off its shape, started at the trivial superhedge.
Every rule ends at the same value, so callers that print the value alone
take them as they are. A Dantzig optimum carries what its final basis
proves unique (`Optimal.unique`), and a caller that reads its primal or
its dual passes it through `settle`, which keeps each part so proven, as
every rule ends there, and otherwise solves the LP again by `solve`: the
parts read are always `solve`'s. Both kernels load one standard
form, built in one pass: integer rows over one denominator each. Exact
mode pivots on them fraction-free (Bareiss), and every value it returns
is an exact `Fraction`. Float mode divides each integer by its row
denominator and pivots on dense rows of floats. Both kernels store each
mirrored column once: a standard-form column that is -1 times another
(the negative half of a split free variable, or the artificial of a row
that also has a slack) has no entries of its own and is read off the
other, with the same pivots and the same values as a full tableau.
Exact outcomes carry certificates that re-verify exactly: an Optimal outcome
carries a dual vector satisfying complementary slackness, an Infeasible
outcome carries a Farkas certificate (constraint and bound multipliers that
aggregate to 0 >= positive), and an Unbounded outcome carries a feasible
base point plus an improving ray. Both kernels read the duals and the
Farkas multipliers off the final reduced-cost row. Bland's rule guarantees
termination, and so does the fallback to it. Both rules break ties by the
lowest column, and the ratio test by the lowest basic column, so with fixed
variable/constraint ordering the outcomes are deterministic. Float mode
runs the same Bland pivoting with tolerance comparisons, and the library
reads only the kind and the value of its outcomes. It raises
NumericalBreakdown when it loses accuracy (a lost primal feasibility, the
pivot limit, or an improving ray in phase 1) and when the LP holds a
number past float range; nothing retries it here, the caller decides (the
CLI asks for a rerun in exact mode, without --float).

Dual sign conventions:
  minimize: y_i >= 0 on ">=" rows, y_i <= 0 on "<=" rows, free on "=";
            reduced cost r_j = c_j - y.A_j is >= 0 at a lower bound,
            <= 0 at an upper bound, 0 strictly between.
  maximize: all of the above with signs flipped.
The kernel tests check every exact outcome's certificate against them
(`verify` in tests/conftest.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from math import gcd, isfinite

from .rational import integer_row

_MAX_PIVOTS = 200_000
# degenerate pivots in a row after which Dantzig's rule hands over to
# Bland's. The longest runs on the global-lp and envelope-mix benchmark
# cycles, seeds 0 and 1: 6 on the superhedge LPs of `price`, `interval` and
# `replicate`, 25 on those of `complete`, and on the max-min-weight LPs of
# `mm` 37 and 49 (global-lp seeds 0 and 1) and 21 (envelope-mix)
_DEGENERATE_RUN = 50


class NumericalBreakdown(Exception):
    """Float-mode pivoting lost too much accuracy; exact mode cannot."""


@dataclass(frozen=True)
class Mode:
    tolerance: float | None  # None: exact

    def __post_init__(self) -> None:
        tol = self.tolerance
        if tol is not None and not (isfinite(tol) and tol >= 0):
            raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")

    @property
    def exact(self) -> bool:
        return self.tolerance is None


EXACT = Mode(tolerance=None)


def float_mode(tolerance: float = 1e-9) -> Mode:
    return Mode(tolerance=tolerance)


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: str  # "<=", "=", ">="
    rhs: Fraction


@dataclass(frozen=True)
class LinearProgram:
    objective: tuple[Fraction, ...]
    maximize: bool
    constraints: tuple[Constraint, ...]
    lower: tuple[Fraction | None, ...]  # None = -inf
    upper: tuple[Fraction | None, ...]  # None = +inf

    @property
    def n(self) -> int:
        return len(self.objective)


def _fraction(v) -> Fraction:
    return v if type(v) is Fraction else Fraction(v)


def linear_program(
    objective,
    *,
    maximize: bool,
    constraints,
    lower=None,
    upper=None,
) -> LinearProgram:
    """Convenience constructor; default bounds are x >= 0 with no upper.
    A Fraction is kept as it is; any other number goes through Fraction()."""
    obj = tuple(map(_fraction, objective))
    n = len(obj)
    rows = []
    for coeffs, relation, rhs in constraints:
        coeffs = tuple(map(_fraction, coeffs))
        if len(coeffs) != n:
            raise ValueError(f"constraint width {len(coeffs)} != {n} variables")
        if relation not in ("<=", "=", ">="):
            raise ValueError(f"bad relation {relation!r}")
        rows.append(Constraint(coeffs, relation, _fraction(rhs)))
    lo = (Fraction(0),) * n if lower is None else tuple(
        None if b is None else _fraction(b) for b in lower
    )
    up = (None,) * n if upper is None else tuple(
        None if b is None else _fraction(b) for b in upper
    )
    if len(lo) != n or len(up) != n:
        raise ValueError("bounds must match the number of variables")
    return LinearProgram(obj, maximize, tuple(rows), lo, up)


@dataclass(frozen=True)
class Optimal:
    value: Fraction | float
    primal: tuple
    dual: tuple
    # set by the Dantzig solves alone: the parts, "primal" and "dual", that
    # the final basis proves to be the LP's only optimum (`settle`); None
    # on `solve`'s outcomes
    unique: frozenset[str] | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class FarkasCertificate:
    """Multipliers aggregating the system to an impossible inequality.

    rows[i] multiplies constraint i (<= rows need rows[i] <= 0, >= rows
    need rows[i] >= 0, = rows are free); lower[j] >= 0 multiplies x_j >= l_j
    and upper[j] >= 0 multiplies -x_j >= -u_j. Validity: the aggregated
    left-hand side vanishes coordinatewise while the aggregated right-hand
    side is strictly positive.
    """

    rows: tuple
    lower: tuple
    upper: tuple


@dataclass(frozen=True)
class Infeasible:
    certificate: FarkasCertificate


@dataclass(frozen=True)
class Unbounded:
    ray: tuple
    base: tuple


LpOutcome = Optimal | Infeasible | Unbounded

_dump_path: str | None = None


def set_dump_file(path: str | None) -> None:
    """Debug hook: append every solved LP to `path` as plain text."""
    global _dump_path
    _dump_path = path


def lp_to_text(lp: LinearProgram) -> str:
    sense = "max" if lp.maximize else "min"
    lines = [f"{sense} " + " ".join(str(c) for c in lp.objective)]
    for con in lp.constraints:
        lines.append(
            " ".join(str(c) for c in con.coeffs) + f" {con.relation} {con.rhs}"
        )
    lines.append(
        "lower " + " ".join("-inf" if b is None else str(b) for b in lp.lower)
    )
    lines.append(
        "upper " + " ".join("+inf" if b is None else str(b) for b in lp.upper)
    )
    return "\n".join(lines) + "\n"


def _dump(lp: LinearProgram) -> None:
    if _dump_path is not None:
        with open(_dump_path, "a", encoding="utf-8") as handle:
            handle.write(lp_to_text(lp))
            handle.write("\n")


def solve(lp: LinearProgram, mode: Mode = EXACT) -> LpOutcome:
    """Solve the LP; outcome certificates satisfy the module conventions."""
    _dump(lp)
    if mode.exact:
        return _ExactSimplex(lp).run()
    try:
        return _FloatSimplex(lp, mode.tolerance).run()
    except OverflowError:
        raise NumericalBreakdown("the LP holds a number past float range") from None


def solve_dantzig(lp: LinearProgram) -> LpOutcome:
    """Solve the LP exactly as `solve` does, but by Dantzig's entering rule,
    with Bland's rule taking over during long degenerate runs (see
    `_Simplex._run_phase`). The outcome satisfies the module conventions,
    with `solve`'s kind and value, but it may be another optimum: `settle`
    makes the parts a caller reads `solve`'s.

    A superhedge LP, min x_0 over a free x_0 with every row `x_0 + a.x >=
    f` (coefficient 1 on x_0, no other objective weight), starts at the
    trivial superhedge: with M = max f, x_0 = M and the rest 0 is feasible,
    so the LP is solved for x_0 = M + x'. Every rhs f - M is <= 0, a row
    with f < M starts with its own slack basic, and only the rows where f
    attains M keep an artificial, basic at 0. The outcome is mapped back
    (value, primal[0] and an Unbounded base point plus M); `unique` holds
    for the caller's LP too, since the shift moves x_0 alone and every dual
    has y.1 = 1, so y.f - M is its value. Any other LP takes the ordinary
    phase 1. `--dump-lp` receives the caller's LP."""
    _dump(lp)
    objective = lp.objective
    if (
        lp.maximize
        or not objective
        or objective[0] != 1
        or any(objective[1:])
        or lp.lower[0] is not None
        or lp.upper[0] is not None
        or any(con.relation != ">=" or con.coeffs[0] != 1 for con in lp.constraints)
    ):
        return _ExactSimplex(lp, dantzig=True).run()
    top = max((con.rhs for con in lp.constraints), default=Fraction(0))
    shifted = LinearProgram(
        objective,
        False,
        tuple(Constraint(con.coeffs, ">=", con.rhs - top) for con in lp.constraints),
        lp.lower,
        lp.upper,
    )
    out = _ExactSimplex(shifted, dantzig=True).run()
    if isinstance(out, Optimal):
        primal = (out.primal[0] + top,) + out.primal[1:]
        return Optimal(out.value + top, primal, out.dual, out.unique)
    if isinstance(out, Unbounded):
        return Unbounded(out.ray, (out.base[0] + top,) + out.base[1:])
    return out  # a Farkas certificate of the shifted rows holds for these


def settle(lp: LinearProgram, out: LpOutcome, *reads: str) -> LpOutcome:
    """`out`, an exact outcome of `lp`, with each part the caller reads
    ("primal", "dual") the one `solve` returns. A Dantzig optimum whose
    final basis proves those parts unique (`Optimal.unique`) is kept, since
    every pivot rule ends at them; otherwise `solve`'s outcome replaces it,
    solved without a second dump. Any other outcome is returned as is."""
    unique = getattr(out, "unique", None)
    if unique is None or unique.issuperset(reads):
        return out
    return _ExactSimplex(lp).run()


# --------------------------------------------------------------------------
# solver internals
# --------------------------------------------------------------------------


class _Simplex:
    """Two-phase simplex: standard form, the one pivot loop (Bland's rule,
    or with `dantzig` Dantzig's, exact only) and the assembly of outcomes.
    Subclasses own the rows and the arithmetic.

    Standard form: minimize over x~ >= 0 with equality rows; general bounds
    become shifts (finite lower), reflections (finite upper only) or split
    pairs (free), plus one "<=" row per two-sided variable after the user
    rows. Each row starts with an identity column of its own (its +1 slack
    or an artificial), so the tableau is always B^-1 A for the current
    basis B.

    `_standardize` builds each row once, as integer numerators over one
    positive denominator, its rhs and coefficients scaled by `integer_row`,
    negated if its rhs is < 0, with slack +-den and artificial +den; only
    the rhs shift by the bounds is exact Fraction arithmetic. Both kernels
    `_load` these rows, the float one dividing each integer by its den.

    `mirror` maps each mirrored column j to the column k whose negative it
    is: the second half x- of a split free variable, and the artificial of
    a row that also has a slack (a -1 slack after any flip, so the +1
    artificial is its negative). Row operations are linear, so column j of
    the tableau stays -1 times column k. No row stores an entry in a
    mirrored column; each kernel derives it from column k when it reads it.
    """

    def __init__(self, lp: LinearProgram, dantzig: bool = False):
        self.lp = lp
        self.dantzig = dantzig  # entering rule: Bland's, or Dantzig's (exact only)
        self._standardize()

    def _standardize(self) -> None:
        lp = self.lp
        self.var_map: list[tuple] = []
        self.mirror: dict[int, int] = {}  # ascending mirrored column -> its negative
        ncols = 0
        # one "<=" row x~ <= up - lo per two-sided variable, after the user rows
        bound_rows: list[tuple[dict, str, Fraction]] = []
        self.ubound_owner: list[int] = []  # var index per bound row
        for j in range(lp.n):
            lo, up = lp.lower[j], lp.upper[j]
            if lo is not None:
                self.var_map.append(("shift", ncols, lo))
                if up is not None:
                    bound_rows.append(({ncols: Fraction(1)}, "<=", up - lo))
                    self.ubound_owner.append(j)
                ncols += 1
            elif up is not None:
                self.var_map.append(("flip", ncols, up))
                ncols += 1
            else:
                self.var_map.append(("free", ncols, ncols + 1))
                self.mirror[ncols + 1] = ncols
                ncols += 2

        # objective in min form over structural columns; each variable owns
        # its columns, so no column collects two contributions
        sense = -1 if lp.maximize else 1
        cost: dict[int, Fraction] = {}
        for j, entry in enumerate(self.var_map):
            cj = sense * lp.objective[j]
            if cj == 0:
                continue
            if entry[0] == "shift":
                cost[entry[1]] = cj
            elif entry[0] == "flip":
                cost[entry[1]] = -cj
            else:
                cost[entry[1]] = cj
                cost[entry[2]] = -cj

        # each row as its coefficients by column, its relation and its rhs
        # shifted by the finite bounds
        specs = []
        for con in lp.constraints:
            terms = {}
            b = con.rhs
            for j, a in enumerate(con.coeffs):
                if a == 0:
                    continue
                kind, col, shift = self.var_map[j]
                terms[col] = -a if kind == "flip" else a
                if kind != "free" and shift:
                    b -= a * shift
            specs.append((terms, con.relation, b))
        specs += bound_rows

        # slacks follow the structural columns and artificials the slacks,
        # each in row order; a row with rhs < 0 is negated (`flipped`)
        slack = ncols
        art = first_art = ncols + sum(rel != "=" for _, rel, _ in specs)
        rows: list[dict[int, int]] = []
        rhs: list[int] = []
        dens: list[int] = []
        self.flipped: list[bool] = []
        basis: list[int] = []
        for terms, rel, b in specs:
            flip = b < 0
            # the rhs comes last, so zip pairs each column with its own entry
            den, numerators = integer_row([*terms.values(), b])
            if flip:
                row = {col: -p for col, p in zip(terms, numerators)}
            else:
                row = dict(zip(terms, numerators))
            unit = art
            if rel == "=":
                row[art] = den
            else:
                # +1 slack on "<=", -1 on ">=", negated with the row
                row[slack] = den if (rel == "<=") != flip else -den
                if row[slack] > 0:
                    unit = slack
                else:
                    self.mirror[art] = slack  # the +1 artificial is its negative
                slack += 1
            if unit == art:
                art += 1
            basis.append(unit)
            rows.append(row)
            rhs.append(abs(numerators[-1]))
            dens.append(den)
            self.flipped.append(flip)
        self.ncols = art
        self.artificials = set(range(first_art, art))
        self.identity = list(basis)  # each row's own unit column
        self.basis = basis
        self.m = len(rows)
        self._load(rows, rhs, dens, cost)

    def _run_phase(self, z, barred: set[int]) -> int | None:
        """Bland's loop, or with `dantzig` set, Dantzig's: the entering
        column has the most negative reduced cost. Returns the entering
        column on unboundedness. A run of _DEGENERATE_RUN pivots in a row
        that leave every basic value as it is hands the choice to Bland's
        rule until a pivot moves them. Bland's rule cannot cycle (Bland,
        Math. Oper. Res. 1977), so each degenerate run ends, and a pivot
        that moves strictly lowers the objective, so no basis repeats: the
        loop terminates."""
        stalled = 0
        for _ in range(_MAX_PIVOTS):
            if self.dantzig and stalled < _DEGENERATE_RUN:
                col = self._most_negative(z, barred)
            else:
                col = self._enter(z, barred)
            if col is None:
                return None
            r = self._leave(col)
            if r is None:
                return col
            stalled = stalled + 1 if self.rhs[r] == 0 else 0
            self._pivot(r, col, z)
        raise self._pivot_limit()

    # -- solution assembly --------------------------------------------------

    def _to_user(self, std: dict, ray: bool = False) -> list:
        """User variables of a standard-form point, or of a direction when
        `ray` is set (no shifts by the finite bounds)."""
        out = []
        for entry in self.var_map:
            v = std.get(entry[1], self._zero)
            if entry[0] == "free":
                out.append(v - std.get(entry[2], self._zero))
            elif ray:
                out.append(v if entry[0] == "shift" else -v)
            elif entry[0] == "shift":
                out.append(entry[2] + v)
            else:
                out.append(entry[2] - v)
        return out

    # -- main ---------------------------------------------------------------

    def run(self) -> LpOutcome:
        # phase 1
        c1 = {c: self._one for c in self.artificials}
        z1 = self._z_row(c1)
        if self._run_phase(z1, set()) is not None:
            raise self._phase1_unbounded()
        if self._phase1_infeasible():
            return self._extract_infeasible(self._duals(z1, c1))

        # drive basic artificials out on any nonzero structural/slack entry
        for r in range(self.m):
            if self.basis[r] in self.artificials:
                target = self._drive_target(r)
                if target is not None:
                    self._pivot(r, target, z1)
                # else: redundant row; its artificial stays basic at zero

        # phase 2
        z2 = self._z_row(self.cost)
        unb = self._run_phase(z2, self.artificials)
        if unb is not None:
            ray = self._to_user(self._ray(unb), ray=True)
            base = self._to_user(self._basic_values())
            return Unbounded(tuple(ray), tuple(base))

        primal = self._to_user(self._basic_values())
        value = sum(
            (c * x for c, x in zip(self.lp.objective, primal)), self._zero
        )
        y = self._duals(z2, self.cost)
        sense = -1 if self.lp.maximize else 1
        # the user rows come first, then the bound rows
        dual = [
            sense * (-y[r] if self.flipped[r] else y[r])
            for r in range(len(self.lp.constraints))
        ]
        self._check_primal(primal)
        unique = self._unique(z2) if self.dantzig else None
        return Optimal(value, tuple(primal), tuple(dual), unique)

    def _check_primal(self, primal: list) -> None:
        """Hook for arithmetic that can lose feasibility; exact cannot."""

    def _extract_infeasible(self, y: list) -> Infeasible:
        n = self.lp.n
        y = [-v if flip else v for v, flip in zip(y, self.flipped)]
        srow = y[: len(self.lp.constraints)]
        # var index -> bound-row multiplier; the bound rows follow the user rows
        mrow = dict(zip(self.ubound_owner, y[len(srow):]))
        lower_mult = [self._zero] * n
        upper_mult = [self._zero] * n
        for j in range(n):
            lo, up = self.lp.lower[j], self.lp.upper[j]
            g = self._zero
            for i, con in enumerate(self.lp.constraints):
                a = con.coeffs[j]
                if a != 0:
                    g += srow[i] * a
            if lo is not None:
                mj = mrow.get(j, self._zero)
                upper_mult[j] = -mj if up is not None else self._zero
                lower_mult[j] = -(g + mj)
            elif up is not None:
                upper_mult[j] = g
        return Infeasible(
            FarkasCertificate(tuple(srow), tuple(lower_mult), tuple(upper_mult))
        )


def _primitive(row: dict[int, int], rhs: int, den: int) -> tuple[dict[int, int], int, int]:
    """Divide an integer row, its rhs and its denominator by their gcd."""
    g = gcd(den, rhs, *row.values())
    if g == 1:
        return row, rhs, den
    return {k: v // g for k, v in row.items()}, rhs // g, den // g


def _combine(s: int, row: dict[int, int], t: int, items) -> dict[int, int]:
    """s * row - t * (the row whose nonzero entries are `items`), sparse."""
    new = {k: v * s for k, v in row.items()} if s != 1 else dict(row)
    for k, v in items:
        nv = new.get(k, 0) - t * v
        if nv:
            new[k] = nv
        else:
            del new[k]
    return new


class _ExactSimplex(_Simplex):
    """Fraction-free exact pivoting (Bareiss, "Sylvester's identity and
    multistep integer-preserving Gaussian elimination", Math. Comp. 1968).

    Row r stands for tab[r] / den[r] and rhs[r] / den[r]: integer
    numerators over one positive integer denominator, divided by their gcd
    after every update, so no gcd runs per entry. The reduced-cost row z is
    [numerators, denominator] in the same form, plus the set `lift` below.
    Every decision reads a sign or compares ratios by cross-multiplication
    (reduced costs share z's denominator), so the pivots are the ones the
    entering rule takes on the rational tableau, and every value returned
    is the same Fraction. Duals and Farkas multipliers come from the final
    z row at each row's identity column j: y_r = c_j - z_j, the unique
    solution of y'B = c_B.

    Rows and z hold no entry in a mirrored column j (see `_Simplex`); each
    is derived from its stored column k when read. The tableau entry of j
    is -entry(k), and its reduced cost is c_j + c_k - z_k, where c_j + c_k
    is 0 except for a mirrored artificial in phase 1 (`lift`), where it is
    1; the dual at a mirrored identity column is y_r = z_k - c_k. Column
    indices keep their meaning, so either rule takes the same pivots, and
    every stored integer, and so every value returned, is the one a full
    tableau would hold: a gcd over a row is the same without entries that
    are negatives of others. Free variables and ">=" rows with rhs >= 0,
    common in the market LPs, thus cost no pivot work twice.
    """

    _zero = Fraction(0)
    _one = Fraction(1)

    def _load(self, rows, rhs, dens, cost) -> None:
        reduced = list(map(_primitive, rows, rhs, dens))
        self.tab = [row for row, _, _ in reduced]
        self.rhs = [b for _, b, _ in reduced]
        self.den = [den for _, _, den in reduced]
        self.cost = cost

    def _pivot(self, r: int, col: int, z: list) -> None:
        k = self.mirror.get(col, col)  # col's stored column; neg: col = -k
        neg = k != col
        row, b = self.tab[r], self.rhs[r]
        p = -row[k] if neg else row[k]
        if p < 0:
            row = {c: -v for c, v in row.items()}
            b, p = -b, -p
        # the pivot row divided by its pivot entry is row / p
        row, b, p = _primitive(row, b, p)
        self.tab[r], self.rhs[r], self.den[r] = row, b, p
        items = list(row.items())
        for i in range(self.m):
            if i == r:
                continue
            other = self.tab[i]
            f = other.get(k)
            if f is None:
                continue
            if neg:
                f = -f
            # other/d - (f/d)(row/p) = (p*other - f*row) / (d*p)
            self.tab[i], self.rhs[i], self.den[i] = _primitive(
                _combine(p, other, f, items),
                self.rhs[i] * p - f * b,
                self.den[i] * p,
            )
        zrow, zden, lift = z
        f = zrow.get(k)
        if neg:
            f = (zden if col in lift else 0) - (f or 0)
        if f:
            z[0], _, z[1] = _primitive(_combine(p, zrow, f, items), 0, zden * p)
        self.basis[r] = col

    def _enter(self, z: list, barred: set[int]) -> int | None:
        zrow, zden, lift = z
        best = min(
            (col for col, v in zrow.items() if v < 0 and col not in barred),
            default=None,
        )
        # mirrored columns ascend, so the first improving one below `best`
        # is the smallest; its reduced cost c_j + c_k - z_k is negative iff
        # z_k exceeds c_j + c_k
        for j, k in self.mirror.items():
            if best is not None and j > best:
                break
            if j not in barred and zrow.get(k, 0) > (zden if j in lift else 0):
                return j
        return best

    def _most_negative(self, z: list, barred: set[int]) -> int | None:
        """Dantzig's entering column, the lowest of those whose reduced cost
        is the most negative, mirrored columns included; z holds one
        denominator, so its numerators compare as the reduced costs do."""
        zrow, zden, lift = z
        best, low = None, 0
        for col, v in zrow.items():
            if v < low or (v == low and best is not None and col < best):
                if col not in barred:
                    best, low = col, v
        for j, k in self.mirror.items():
            v = (zden if j in lift else 0) - zrow.get(k, 0)
            if v < low or (v == low and best is not None and j < best):
                if j not in barred:
                    best, low = j, v
        return best

    def _leave(self, col: int) -> int | None:
        k = self.mirror.get(col, col)
        neg = k != col
        best_row = None
        for r in range(self.m):
            a = self.tab[r].get(k)
            if a is None:
                continue
            if neg:
                a = -a
            if a <= 0:
                continue
            if best_row is None:
                best_row, best_b, best_a = r, self.rhs[r], a
                continue
            # rhs/a against best_b/best_a; the row denominators cancel
            lhs, rhs = self.rhs[r] * best_a, best_b * a
            if lhs < rhs or (lhs == rhs and self.basis[r] < self.basis[best_row]):
                best_row, best_b, best_a = r, self.rhs[r], a
        return best_row

    def _z_row(self, cost: dict) -> list:
        mirror = self.mirror
        stored = {k: v for k, v in cost.items() if k not in mirror} if mirror else cost
        den, numerators = integer_row(stored.values())
        z = dict(zip(stored, numerators))
        for r in range(self.m):
            cb = cost.get(self.basis[r])
            if cb is None:
                continue
            # z/den - cb * tab/d = (s*z - t*tab) / (s*den), s = cb.den*d
            s = cb.denominator * self.den[r]
            t = cb.numerator * den
            z, _, den = _primitive(_combine(s, z, t, self.tab[r].items()), 0, den * s)
        # c_j + c_k is 0 for an x- half (c_j = -c_k) and for a mirrored
        # artificial in phase 2; it is 1 for a mirrored artificial in phase 1
        lift = {j for j in mirror if j in cost and j in self.artificials} if mirror else ()
        return [z, den, lift]

    def _phase1_infeasible(self) -> bool:
        return any(
            self.rhs[r] > 0
            for r in range(self.m)
            if self.basis[r] in self.artificials
        )

    def _drive_target(self, r: int) -> int | None:
        # a mirrored column never wins: its stored column is smaller,
        # nonzero in the same rows, and no artificial
        return min(
            (col for col in self.tab[r] if col not in self.artificials), default=None
        )

    def _basic_values(self) -> dict:
        return {
            self.basis[r]: Fraction(self.rhs[r], self.den[r]) for r in range(self.m)
        }

    def _ray(self, col: int) -> dict:
        k = self.mirror.get(col, col)
        neg = k != col
        direction = {col: self._one}
        for r in range(self.m):
            a = self.tab[r].get(k)
            if a is not None:
                direction[self.basis[r]] = Fraction(a if neg else -a, self.den[r])
        return direction

    def _duals(self, z: list, cost: dict) -> list:
        zrow, zden, _ = z
        mirror = self.mirror
        return [
            cost.get(j, 0) - Fraction(zrow.get(j, 0), zden)
            if j not in mirror
            else Fraction(zrow.get(mirror[j], 0), zden) - cost.get(mirror[j], 0)
            for j in self.identity
        ]

    def _unique(self, z: list) -> frozenset[str] | None:
        """What the final optimal basis of a Dantzig solve proves unique
        (Mangasarian, "Uniqueness of solution in linear programming", Linear
        Algebra Appl. 1979). Bland's outcome is `solve`'s own, so `run` asks
        only after Dantzig's rule.

        "primal": every nonbasic column has a nonzero reduced cost, except
        the artificials (0 in every point of the LP) and the twin of a basic
        half of a split free variable. An optimal point puts no weight on a
        column of nonzero reduced cost, and the basis then fixes every basic
        value, a twin moving its half with it, so x+ - x- stays put.
        "dual": no artificial is basic, and every basic column that is not a
        free half is positive. Complementary slackness then makes y.A_j = c_j
        on every basic column (a free half's dual row is an equation), and
        the basis fixes y."""
        halves = {}
        for entry in self.var_map:
            if entry[0] == "free":
                halves[entry[1]], halves[entry[2]] = entry[2], entry[1]
        basic = set(self.basis)
        exempt = self.artificials.union(halves[b] for b in basic if b in halves)
        zrow = z[0]  # phase 2 lifts no column: a mirrored reduced cost is -z_k
        unique = set()
        if all(
            zrow.get(self.mirror.get(j, j))
            for j in range(self.ncols)
            if j not in basic and j not in exempt
        ):
            unique.add("primal")
        if basic.isdisjoint(self.artificials) and all(
            b in halves or self.rhs[r] > 0 for r, b in enumerate(self.basis)
        ):
            unique.add("dual")
        return frozenset(unique)

    def _pivot_limit(self) -> Exception:
        return RuntimeError("pivot limit exceeded in exact mode (bug)")

    def _phase1_unbounded(self) -> Exception:
        return RuntimeError("phase 1 cannot be unbounded (bug)")


class _FloatSimplex(_Simplex):
    """The same pivots in floats, on dense rows: each tableau row is a list
    of `ncols` floats. An update sets an entry of magnitude 1e-13 or less
    to 0.0, signs are read against the tolerance, and duals and Farkas
    multipliers come from the final reduced-cost row as in exact mode:
    y_r = c_j - z_j at each row's identity column j.

    A pivot collects the nonzero columns of the pivot row once and updates
    only those entries, and only in rows with a nonzero in the entering
    column; the drop applies only to the entries an update computes, so a
    small entry that no update touches keeps its value.

    As in exact mode, a row holds 0.0 in every mirrored column j (see
    `_Simplex`) and is read at its stored column k with the sign flipped.
    The reduced-cost row z stays full, since c_j + c_k need not be 0: a
    pivot updates z_j from the pivot row's entry at k with the sign
    flipped. IEEE negation is exact, so every value read (ratios, reduced
    costs, duals) has the bits a full tableau would give, and Bland's rule
    takes the same pivots. One departure: when a pivot skips a row whose
    multiplier is 1e-13 or less, a full tableau zeroes the entering column
    there but keeps the tiny entry of its twin; here both read 0.0."""

    _zero = 0.0
    _one = 1.0
    drop = 1e-13

    def __init__(self, lp: LinearProgram, tolerance: float):
        self.eps = tolerance
        super().__init__(lp)

    def _load(self, rows, rhs, dens, cost) -> None:
        # int / int is correctly rounded, as float(Fraction) is, and raises
        # OverflowError past float range
        self.tab = []
        for row, den in zip(rows, dens):
            dense = [0.0] * self.ncols
            for k, v in row.items():
                dense[k] = v / den
            self.tab.append(dense)
        self.rhs = [b / den for b, den in zip(rhs, dens)]
        self.cost = {k: float(v) for k, v in cost.items()}
        self.twin = {k: j for j, k in self.mirror.items()}  # stored -> mirrored

    def _pivot(self, r: int, col: int, z: list) -> None:
        drop = self.drop
        low = -drop
        k = self.mirror.get(col, col)  # col's stored column; neg: col = -k
        neg = k != col
        rhs = self.rhs
        row = self.tab[r]
        nonzero = list(compress(range(self.ncols), row))
        piv = -row[k] if neg else row[k]
        if piv != 1:
            for c in nonzero:
                row[c] /= piv
            rhs[r] /= piv
        row[k] = -1.0 if neg else 1.0
        # column k ends at 0.0 in every other row, and so does its twin
        items = [(c, row[c]) for c in nonzero if c != k]
        rr = rhs[r]
        for i, other in enumerate(self.tab):
            f = other[k]
            if not f or i == r:
                continue
            other[k] = 0.0
            if neg:
                f = -f
            if low <= f <= drop:
                continue
            for c, v in items:
                nv = other[c] - f * v
                other[c] = 0.0 if low <= nv <= drop else nv
            nb = rhs[i] - f * rr
            rhs[i] = 0.0 if low <= nb <= drop else nb
        f = z[col]
        z[col] = 0.0
        if not low <= f <= drop:
            twin = self.twin
            for c, v in items:
                nv = z[c] - f * v
                z[c] = 0.0 if low <= nv <= drop else nv
                j = twin.get(c)
                if j is not None:
                    # the pivot row holds -v at j
                    nv = z[j] + f * v
                    z[j] = 0.0 if low <= nv <= drop else nv
            # the pivot row holds -1.0 at the entering column's twin
            t = k if neg else twin.get(k)
            if t is not None:
                nv = z[t] + f
                z[t] = 0.0 if low <= nv <= drop else nv
        self.basis[r] = col

    def _enter(self, z: list, barred: set[int]) -> int | None:
        bound = -self.eps
        for col, zv in enumerate(z):
            if zv < bound and col not in barred:
                return col
        return None

    def _leave(self, col: int) -> int | None:
        k = self.mirror.get(col, col)
        neg = k != col
        best_row = None
        best_ratio = None
        eps = self.eps
        for r, row in enumerate(self.tab):
            d = -row[k] if neg else row[k]
            if d <= eps:
                continue
            ratio = self.rhs[r] / d
            if best_ratio is None or ratio < best_ratio or (
                ratio == best_ratio and self.basis[r] < self.basis[best_row]
            ):
                best_ratio = ratio
                best_row = r
        return best_row

    def _z_row(self, cost: dict) -> list:
        drop = self.drop
        low = -drop
        twin = self.twin
        z = [0.0] * self.ncols
        for k, v in cost.items():
            z[k] = v
        for r, row in enumerate(self.tab):
            cb = cost.get(self.basis[r])
            if cb is None or low <= cb <= drop:
                continue
            for k in compress(range(self.ncols), row):
                v = row[k]
                nv = z[k] - cb * v
                z[k] = 0.0 if low <= nv <= drop else nv
                j = twin.get(k)
                if j is not None:
                    nv = z[j] + cb * v
                    z[j] = 0.0 if low <= nv <= drop else nv
        return z

    def _phase1_infeasible(self) -> bool:
        infeas = 0.0
        for r in range(self.m):
            if self.basis[r] in self.artificials:
                infeas += self.rhs[r]
        return infeas > self.eps

    def _drive_target(self, r: int) -> int | None:
        drop = self.drop
        for col, v in enumerate(self.tab[r]):
            if not -drop <= v <= drop and col not in self.artificials:
                return col
        return None

    def _basic_values(self) -> dict:
        return {self.basis[r]: self.rhs[r] for r in range(self.m)}

    def _ray(self, col: int) -> dict:
        k = self.mirror.get(col, col)
        neg = k != col
        drop = self.drop
        direction = {col: 1.0}
        for r, row in enumerate(self.tab):
            d = row[k]
            if not -drop <= d <= drop:
                direction[self.basis[r]] = d if neg else -d
        return direction

    def _duals(self, z: list, cost: dict) -> list:
        return [cost.get(j, 0.0) - z[j] for j in self.identity]

    def _check_primal(self, primal: list) -> None:
        scale = 1.0 + max((abs(float(x)) for x in primal), default=0.0)
        tol = max(self.eps, 1e-9) * 1e3 * scale
        # numerator / denominator is float(Fraction) without its generic
        # numbers.Rational dispatch: the same correctly rounded bits
        for con in self.lp.constraints:
            lhs = sum(
                a.numerator / a.denominator * float(x)
                for a, x in zip(con.coeffs, primal)
                if a
            )
            gap = lhs - con.rhs.numerator / con.rhs.denominator
            if con.relation == "<=" and gap > tol:
                raise NumericalBreakdown("primal feasibility lost")
            if con.relation == ">=" and gap < -tol:
                raise NumericalBreakdown("primal feasibility lost")
            if con.relation == "=" and abs(gap) > tol:
                raise NumericalBreakdown("primal feasibility lost")

    def _pivot_limit(self) -> Exception:
        return NumericalBreakdown("pivot limit exceeded")

    def _phase1_unbounded(self) -> Exception:
        # phase 1 is bounded below by 0, so only lost accuracy finds a ray
        return NumericalBreakdown("phase 1 ran unbounded")
