"""Superhedging prices, optimal semistatic strategies and price intervals.

Two independent routes compute the same number (zero duality gap, exact in
rational mode): a backward recursion of one-step problems down the relevant
tree, and a single global LP over (initial capital, option positions, node
positions) whose row duals form the optimizing martingale measure. The
one-step problem is solved without an LP where a closed form gives its
answer: with one stock, by the best chord across 0, at a flat node (every
increment 0) and at a tie node (one down, one level and one up child, the
level child above the chord); with d >= 2 stocks, at a complete node (d + 1
children, every martingale weight positive). The exact one-step LP answers
elsewhere. On top of these sit price intervals, replication and
completeness tests, and the pathwise martingale-inequality prover.

Each public function checks the stocks once (`require_stock_na`) and hands
the returned `Market` to the private helpers, which read the martingale
system, its wealth columns, strategies, measures and checks through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .arbitrage import ArbitrageDetected, require_stock_na, search_arbitrage
from .market import Market
from .model import Claim, Measure, ScenarioTree, StaticOption, Strategy, dot
from .polar import SupportMask
from .rational import integer_row

F = Fraction

POINT = "Point"
OPEN_INTERVAL = "OpenInterval"


@dataclass(frozen=True)
class PriceInterval:
    lower: Fraction
    upper: Fraction

    @property
    def kind(self) -> str:
        return POINT if self.lower == self.upper else OPEN_INTERVAL


@dataclass(frozen=True)
class Replicable:
    strategy: Strategy

    @property
    def price(self) -> Fraction:
        """The replication price: the initial capital of the strategy."""
        return self.strategy.initial


@dataclass(frozen=True)
class NotReplicable:
    q_low: Measure
    q_high: Measure
    interval: PriceInterval


@dataclass(frozen=True)
class Proved:
    strategy: Strategy


@dataclass(frozen=True)
class Refuted:
    q: Measure
    expectation: Fraction


def node_price(
    tree: ScenarioTree,
    mask: SupportMask,
    node_id: str,
    child_values: dict[str, Fraction],
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """One-step superhedging, exact in every mode: the largest one-step
    martingale expectation of the child values, with the dual hedge y
    satisfying value + y.dS_c >= child value on every supported child.

    With one stock the price is the upper concave envelope of the points
    (dS_c, v_c) at 0, read off the best chord across 0, and the hedge is
    that chord's slope; a flat node (every increment 0) and a tie node (a
    zero-increment child above the chord of one down and one up child)
    take the LP's answer in closed form. See `_one_stock_price` for these
    and for the cases left to the LP. With d >= 2 stocks and d + 1
    supported children, a complete node (one martingale measure, every
    weight positive) is priced by one exact linear system,
    `_complete_price`. Every other node solves the exact one-step LP.
    Either way the hedge is re-verified. Only the node's supported
    children are read from `child_values`, so it may hold other nodes too.
    """
    support = mask.node_support[node_id]
    increments = [tree.increment(node_id, c) for c in support]
    values = [child_values[c] for c in support]
    if tree.dimension == 1:
        solved = _one_stock_price(increments, values)
    elif len(support) == tree.dimension + 1:
        solved = _complete_price(increments, values)
    else:
        solved = None
    if solved is None:
        solved = _one_step_lp(node_id, increments, values)
    value, hedge = solved
    for inc, v in zip(increments, values):
        if value + dot(hedge, inc) - v < 0:
            raise RuntimeError("one-step hedge failed re-verification (bug)")
    return value, hedge


def _one_stock_price(increments, values):
    """Exact one-step price and hedge for one stock, or None where the LP
    must answer.

    With a pair dS_i < 0 < dS_j, the price is the largest chord value
    (v_i dS_j - v_j dS_i)/(dS_j - dS_i) over such pairs, and the hedge is
    that chord's slope, unique when 0 lies strictly inside one linear piece
    of the envelope; a zero-increment ("level") child on the chord leaves
    its slope the only hedge. Chords are compared in integers: with child c
    scaled by s_c (`integer_row`) to x_c = s_c dS_c and u_c = s_c v_c, the
    chord is (u_i x_j - u_j x_i)/(x_j s_i - x_i s_j), over a positive
    denominator. Pairs are taken in support order, and a later pair
    replaces the best only when its chord is strictly larger.

    Two more shapes are answered as the LP answers them; the LP is the
    two-phase Bland simplex (`lp.solve`) on the rows sum q_c dS_c = 0
    (row 0) and sum q_c = 1 (row 1), columns in support order, artificials
    a0, a1 after them, and the hedge is the dual of row 0.

    Flat: every increment is 0. Row 0 is all zero, so its artificial is
    never driven out and stays basic at 0 (cost 0 in phase 2): the dual of
    row 0 is 0. The price is max v_c and the hedge (0,).

    Tie: three children, one down (D, dS = d < 0), one level (L) and one
    up (U, dS = u > 0), with L strictly above the chord. The price is v_L;
    the optimal hedges form the interval between the slopes of the lines
    through L and U and through L and D, and the LP returns the one whose
    basis is {L, U} ("tight on U") or {L, D}. Phase 1 starts from {a0, a1}
    with reduced cost -(dS_c + 1) at child c: always negative at L and U,
    negative at D iff d > -1. Bland's rule enters the first negative column
    in support order and leaves the row of least ratio, ties to the
    smaller basic column. Whatever enters first, the walk ends in one of
    three ways:
    - L enters (row 1 leaves), then U (row 0 leaves at ratio 0): {L, U}.
    - U enters (row 0 leaves at ratio 0), then the earlier of L and D:
      {L, U}, or the chord basis {D, U}.
    - D enters (d > -1; row 1 leaves), then the earlier of L and U. L ties
      rows 0 and 1 at ratio 1 and takes D's row, and U then leaves row 0
      at ratio 0: {L, U}. U leaves row 0 at the smaller ratio: {D, U}.
    In phase 2, {L, U} and {L, D} are optimal and stop at once (the other
    child has a positive reduced cost, as L is strictly above the chord).
    From {D, U}, L enters; D and U tie at ratio 1, and the earlier of them
    in support order leaves. So the basis is {L, D} exactly when D's column
    comes after U's and {D, U} is reached, that is for the support order
    (U, D, L) alone, whatever d and u are; every other order gives {L, U}.

    None when there is no pair across 0 and some increment is nonzero
    (one-signed moves: the LP prices a level child or raises
    ValueError), or when a level child lies strictly above the best
    chord of any other shape (the LP's pick is not derived here).
    """
    below, above, level = [], [], []
    for inc, v in zip(increments, values):
        s, (x, u) = integer_row((inc[0], v))
        if x < 0:
            below.append((x, u, s))
        elif x > 0:
            above.append((x, u, s))
        else:
            level.append((u, s))
    best = None
    for xi, ui, si in below:
        for xj, uj, sj in above:
            num = ui * xj - uj * xi
            den = xj * si - xi * sj
            if best is None or num * best[1] > best[0] * den:
                best = (num, den, ui, si, uj, sj)
    if best is None:
        return None if below or above else (max(values), (F(0),))
    num, den, ui, si, uj, sj = best
    if not any(u * den > num * s for u, s in level):
        return F(num, den), (F(uj * si - ui * sj, den),)
    if len(values) != 3:
        return None
    # a tie node: one down (-1), one level (0) and one up (+1) child
    signs = [(inc[0] > 0) - (inc[0] < 0) for inc in increments]
    zero = signs.index(0)
    tight = signs.index(-1) if signs == [1, -1, 0] else signs.index(1)
    return values[zero], ((values[tight] - values[zero]) / increments[tight][0],)


def _complete_price(increments, values):
    """Exact one-step price and hedge at a complete node, or None where the
    LP must answer.

    With k = d + 1 children whose increments are affinely independent and
    whose barycentric weights q (sum q_c = 1, sum q_c dS_c = 0) are all
    positive, q is the node's only martingale measure. Complementary
    slackness then makes value + y.dS_c = v_c hold on every child: the
    price and the hedge are the unique solution of that square system, and
    the unique optimum of the one-step LP and its dual. None when the rank
    is short or some q_c <= 0 (0 on a facet, or local arbitrage).

    Each row [1, dS_c | v_c] is scaled to integers by `integer_row`, a
    positive factor that changes neither the solution nor the sign of any
    weight, and augmented with the unit row e_c. Fraction-free Gauss-Jordan
    elimination (Bareiss 1968) turns [A | b | I] into [D I | D x | D A^-1],
    D = det(A) up to sign, in integers with exact divisions. Row 0 of A^-1
    holds q_c / s_c, so q > 0 iff that row has the sign of D throughout.
    """
    k = len(increments)
    rows = []
    for c, (inc, v) in enumerate(zip(increments, values)):
        scale, row = integer_row((*inc, v))
        unit = [0] * k
        unit[c] = 1
        rows.append([scale, *row, *unit])
    previous = 1
    for j in range(k):
        p = next((i for i in range(j, k) if rows[i][j]), None)
        if p is None:
            return None
        rows[j], rows[p] = rows[p], rows[j]
        pivot_row = rows[j]
        pivot = pivot_row[j]
        for i in range(k):
            if i != j:
                row = rows[i]
                f = row[j]
                rows[i] = [
                    (pivot * a - f * b) // previous for a, b in zip(row, pivot_row)
                ]
        previous = pivot
    if any(w * previous <= 0 for w in rows[0][k + 1:]):
        return None
    return F(rows[0][k], previous), tuple(F(row[k], previous) for row in rows[1:])


def _one_step_lp(node_id, increments, values):
    """The exact one-step superhedging LP: max sum q_c v_c over weights
    q >= 0 with sum q_c = 1 and sum q_c dS_c = 0; the hedge is the dual of
    the martingale rows."""
    d = len(increments[0])
    constraints = []
    for i in range(d):
        constraints.append(([inc[i] for inc in increments], "=", F(0)))
    constraints.append(([F(1)] * len(increments), "=", F(1)))
    prog = lp.linear_program(values, maximize=True, constraints=constraints)
    out = lp.solve(prog, lp.EXACT)
    if isinstance(out, lp.Infeasible):
        raise ValueError(f"no one-step martingale weights at node {node_id!r}")
    assert isinstance(out, lp.Optimal)
    return out.value, tuple(out.dual[i] for i in range(d))


def one_step_bug(node_id):
    """The error for a one-step LP without martingale weights at a node of
    stocks that passed NA: that contradicts the certified verdict, so it is
    a bug, not the user's local arbitrage (`node_price` called directly
    raises ValueError)."""
    return RuntimeError(
        f"the one-step LP at node {node_id!r} found no martingale weights, "
        "but the stocks pass NA (bug)"
    )


def _no_consistent_measure(market, mode, kind):
    """Build the ArbitrageDetected for an empty option-constrained polytope,
    which the `kind` LP ("superhedge" or "dual") reported, hinting at each
    option whose quote leaves its stocks-only price range. Hints and
    arbitrage are exact. A hint prints the two bounds alone, so its LPs are
    value-only (`lp.solve_superhedge`, as in `price_interval`), and each
    hint's two measures are still checked. When the exact search finds no
    arbitrage, the LP's report was wrong: in float mode NumericalBreakdown,
    in exact mode a bug. The stocks must already pass NA."""
    hints = []
    stocks = Market(market.tree, market.mask, ())
    for opt in market.options:
        raw = Claim({leaf: opt.payoff[leaf] for leaf in market.tree.leaves})
        interval, _, q_high, q_low = _both_sides(stocks, raw, lp.EXACT)
        stocks.check_measure(q_high, raw, interval.upper)
        stocks.check_measure(q_low, raw, interval.lower)
        if not interval.lower <= opt.quote <= interval.upper:
            hints.append(
                f"option {opt.name!r} quoted {opt.quote} outside its "
                f"stocks-only price interval [{interval.lower}, {interval.upper}]"
            )
    detail = (
        "; ".join(hints)
        if hints
        else "option quotes jointly admit arbitrage (no consistent martingale measure)"
    )
    found = search_arbitrage(market)
    if found is None:
        if mode.exact:
            raise RuntimeError(
                f"the exact {kind} LP found no consistent martingale measure, "
                "but the exact arbitrage search finds no arbitrage (bug)"
            )
        raise lp.NumericalBreakdown(
            "a float LP found no consistent martingale measure, but the exact "
            "arbitrage search finds no arbitrage"
        )
    return ArbitrageDetected(detail, found)


def superhedge_dynamic(
    tree: ScenarioTree,
    mask: SupportMask,
    claim: Claim,
) -> tuple[Fraction, dict[str, Fraction], Strategy]:
    """Backward recursion over the relevant tree (stocks only): the price,
    the superhedging value at every relevant node, and the optimal strategy
    the one-step hedges assemble into, with price + H.S_T >= claim on every
    relevant leaf."""
    market = require_stock_na(tree, mask)
    values: dict[str, Fraction] = {
        leaf: claim(leaf) for leaf in mask.relevant_leaves
    }
    dynamic: dict[str, tuple[Fraction, ...]] = {}
    for level in range(tree.horizon - 1, -1, -1):
        for node_id in mask.relevant_nodes[level]:
            try:
                values[node_id], hedge = node_price(tree, mask, node_id, values)
            except ValueError as exc:
                raise one_step_bug(node_id) from exc
            if any(v != 0 for v in hedge):
                dynamic[node_id] = hedge
    price = values[tree.root]
    strategy = Strategy(price, (), dynamic)
    market.check_superhedge(strategy, claim)
    return price, values, strategy


def superhedge_semistatic(
    tree: ScenarioTree,
    mask: SupportMask,
    claim: Claim,
    options: tuple[StaticOption, ...] | list[StaticOption],
    mode: lp.Mode = lp.EXACT,
) -> tuple[Fraction | float, Strategy | None, Measure | None]:
    """Global LP route: min x over semistatic strategies superhedging the
    claim on the relevant leaves. In exact mode it also returns an optimal
    strategy and the dual optimizer, a martingale measure attaining the
    price, both re-verified; in float mode it returns the price only, with
    None for the strategy and the measure.

    Requires the stocks to pass NA and the option quotes to admit at least
    one consistent martingale measure; otherwise ArbitrageDetected.
    """
    market = require_stock_na(tree, mask, options)
    x, strategy, q = _primal_superhedge(market, claim, mode)
    if mode.exact:
        market.check_measure(q, claim, x)
    return x, strategy, q


def semistatic_price(
    tree: ScenarioTree,
    mask: SupportMask,
    claim: Claim,
    options: tuple[StaticOption, ...] | list[StaticOption],
    mode: lp.Mode = lp.EXACT,
) -> Fraction | float:
    """The price of `superhedge_semistatic`, alone. In exact mode the global
    LP starts at the trivial superhedge (`lp.solve_superhedge`), so its
    optimal strategy and measure may differ from `superhedge_semistatic`'s;
    both are re-verified all the same, and the price is the same."""
    market = require_stock_na(tree, mask, options)
    x, _, q = _primal_superhedge(market, claim, mode, value_only=True)
    if mode.exact:
        market.check_measure(q, claim, x)
    return x


def _primal_superhedge(market, claim, mode, value_only=False):
    """superhedge_semistatic once the stocks are known to pass NA; the
    measure is not yet checked. With `value_only`, for callers that print
    the price alone, an exact LP goes to `lp.solve_superhedge`."""
    _, out = _superhedge_lp(market, claim, mode, value_only)
    return _read_superhedge(market, claim, mode, out)


def _superhedge_lp(market, claim, mode, trivial_start):
    """The global superhedge LP of the claim and its optimum, solved by
    `lp.solve_superhedge` if exact with `trivial_start`, else by `lp.solve`;
    ArbitrageDetected when it is unbounded."""
    columns = market.columns
    objective = [F(1)] + [F(0)] * (len(columns[0]) - 1)  # min x
    constraints = [
        (column, ">=", claim(leaf))
        for column, leaf in zip(columns, market.mask.relevant_leaves)
    ]
    lower = [None] * len(objective)
    prog = lp.linear_program(
        objective, maximize=False, constraints=constraints, lower=lower
    )
    if trivial_start and mode.exact:
        out = lp.solve_superhedge(prog)
    else:
        out = lp.solve(prog, mode)
    if isinstance(out, lp.Unbounded):
        # dual infeasible: no martingale measure matches the quotes
        raise _no_consistent_measure(market, mode, "superhedge")
    assert isinstance(out, lp.Optimal), "superhedge LP is always feasible"
    return prog, out


def _read_superhedge(market, claim, mode, out):
    """The price of a superhedge LP's optimum, and in exact mode its
    strategy, checked, and its measure, not yet checked; in float mode None
    for both."""
    x = out.primal[0]
    if not mode.exact:
        return x, None, None
    strategy = market.strategy(out.primal)
    market.check_superhedge(strategy, claim)
    return x, strategy, market.measure(out.dual)


def _both_sides(market, claim, mode, reads=None):
    """The price interval [-pi(-f), pi(f)] of the claim, with the
    superhedging strategy and measure of the upper side and the measure of
    the lower side; the stocks must already pass NA. Each exact LP starts at
    the trivial superhedge (`lp.solve_superhedge`), so the strategy and the
    measures may be any optimum's; `reads`, given the interval, names the
    parts read on the upper and the lower side, which are then `lp.solve`'s
    (`lp.settle`)."""
    negated = Claim({leaf: -v for leaf, v in claim.values.items()})
    (upper_lp, upper), (lower_lp, lower) = (
        _superhedge_lp(market, side, mode, True) for side in (claim, negated)
    )
    # 0 - x, not -x: a float 0.0 stays 0.0 rather than becoming -0.0
    interval = PriceInterval(0 - lower.primal[0], upper.primal[0])
    if reads is not None:
        upper_reads, lower_reads = reads(interval)
        upper = lp.settle(upper_lp, upper, *upper_reads)
        lower = lp.settle(lower_lp, lower, *lower_reads)
    _, strategy, q_high = _read_superhedge(market, claim, mode, upper)
    _, _, q_low = _read_superhedge(market, negated, mode, lower)
    return interval, strategy, q_high, q_low


def dual_price(
    tree: ScenarioTree,
    mask: SupportMask,
    claim: Claim,
    options: tuple[StaticOption, ...] | list[StaticOption],
    mode: lp.Mode = lp.EXACT,
) -> tuple[Fraction | float, Measure | None]:
    """Direct dual route: maximize the claim expectation over the
    option-constrained martingale polytope. In exact mode it also returns
    the optimizing measure, checked by `Market.check_measure` first; in float
    mode it returns the value only, with None for the measure.

    Like superhedge_semistatic, it requires the stocks to pass NA and the
    option quotes to admit a consistent martingale measure; otherwise
    ArbitrageDetected.
    """
    return _dual_lp(require_stock_na(tree, mask, options), claim, mode)


def _dual_lp(market, claim, mode):
    """dual_price once the stocks are known to pass NA."""
    objective = [claim(leaf) for leaf in market.mask.relevant_leaves]
    constraints = [(row, "=", rhs) for row, rhs in market.rows]
    prog = lp.linear_program(objective, maximize=True, constraints=constraints)
    out = lp.solve(prog, mode)
    if isinstance(out, lp.Infeasible):
        raise _no_consistent_measure(market, mode, "dual")
    assert isinstance(out, lp.Optimal)
    if not mode.exact:
        return out.value, None
    q = market.measure(out.primal)
    market.check_measure(q, claim, out.value)
    return out.value, q


def price_interval(
    tree: ScenarioTree,
    mask: SupportMask,
    claim: Claim,
    options: tuple[StaticOption, ...] | list[StaticOption],
    mode: lp.Mode = lp.EXACT,
) -> PriceInterval:
    """Arbitrage-free price range [-pi(-f), pi(f)]; a Point iff replicable.

    Float bounds within the tolerance of each other may be one point split
    or reversed by rounding, so there the exact LPs decide point or
    interval and give the bounds: floats guide, exact decides. Each exact
    LP starts at the trivial superhedge, as in `semistatic_price`."""
    market = require_stock_na(tree, mask, options)
    interval, _, q_high, q_low = _both_sides(market, claim, mode)
    lower, upper = interval.lower, interval.upper
    if not mode.exact and upper - lower <= mode.tolerance * max(1, abs(lower), abs(upper)):
        interval, _, q_high, q_low = _both_sides(market, claim, lp.EXACT)
    if q_high is not None:
        market.check_measure(q_high, claim, interval.upper)
        market.check_measure(q_low, claim, interval.lower)
    return interval


def check_replicable(
    tree: ScenarioTree,
    mask: SupportMask,
    claim: Claim,
    options: tuple[StaticOption, ...] | list[StaticOption],
) -> Replicable | NotReplicable:
    """Second FTAP for one claim, exact: replicable iff the two superhedging
    prices coincide; otherwise two martingale measures separate the
    expectations."""
    return _replicable(require_stock_na(tree, mask, options), claim)


def _replicable(market, claim, measures=True):
    """check_replicable once the stocks pass NA, separating measures
    checked. The parts it reads are `lp.solve`'s: the upper strategy of a
    point, and the two measures of an interval where they are printed
    (`measures`; `check_complete` prints a bool)."""

    def reads(interval):
        if interval.kind == POINT:
            return ("primal",), ()
        return (("dual",), ("dual",)) if measures else ((), ())

    interval, strategy, q_high, q_low = _both_sides(market, claim, lp.EXACT, reads)
    if interval.kind == POINT:
        if any(w != claim(leaf) for leaf, w in market.wealths(strategy).items()):
            # Both bounds are attained at one price, so the superhedge minus
            # the subhedge is a semistatic arbitrage: the consistent
            # martingale measures miss some relevant leaf.
            found = search_arbitrage(market)
            if found is None:
                raise RuntimeError("replication is not exact (bug)")
            raise ArbitrageDetected(
                "option quotes admit arbitrage (no consistent martingale "
                "measure charges every relevant leaf)",
                found,
            )
        return Replicable(strategy)
    market.check_measure(q_high, claim, interval.upper)
    market.check_measure(q_low, claim, interval.lower)
    return NotReplicable(q_low, q_high, interval)


def check_complete(
    tree: ScenarioTree,
    mask: SupportMask,
    options: tuple[StaticOption, ...] | list[StaticOption],
) -> bool:
    """Complete iff every relevant leaf indicator is replicable (iff the
    martingale polytope is a single point); exact."""
    market = require_stock_na(tree, mask, options)
    for leaf in mask.relevant_leaves:
        indicator = Claim(
            {l: (F(1) if l == leaf else F(0)) for l in tree.leaves}
        )
        result = _replicable(market, indicator, measures=False)
        if isinstance(result, NotReplicable):
            return False
    return True


def prove_inequality(
    tree: ScenarioTree,
    mask: SupportMask,
    claim: Claim,
    bound: Fraction,
) -> Proved | Refuted:
    """Reduce 'E_Q[f] <= bound for every martingale measure' to a pathwise
    certificate f <= bound + H.S_T on the relevant leaves, or refute it with
    the exact `dual_price` optimizer and its checked expectation, which
    must beat the bound."""
    price, _, strategy = superhedge_dynamic(tree, mask, claim)
    if price <= bound:
        # superhedge_dynamic has checked the hedge from price <= bound, so
        # the same hedge from the bound superhedges too
        return Proved(Strategy(bound, (), strategy.dynamic))
    expectation, q = _dual_lp(Market(tree, mask, ()), claim, lp.EXACT)
    if expectation <= bound:
        raise RuntimeError("refutation measure does not beat the bound (bug)")
    return Refuted(q, expectation)
