"""Arbitrage detection and dominating martingale measures.

Local no-arbitrage at a node means 0 lies in the relative interior of the
convex hull of the supported price increments; the market passes globally
when every relevant node passes locally. With one or two stocks the
verdict needs no LP; every node with three or more stocks solves the
max-min-weight LP, and so does a failing two-stock node for the separator
that `na` prints. Failures come with a hedge vector whose one-node lift is
a quasi-surely nonnegative strategy with positive wealth on a nonpolar
set. The dominating-measure search is the executable First Fundamental
Theorem: given a reference measure p it maximizes the uniform domination
factor t with q >= t p over the option-constrained martingale polytope; a
witness exists exactly when t* > 0. Its contrapositive certifies a None:
a semistatic arbitrage whose gain p charges leaves no dominating measure.

The martingale system, its `Market` and every certificate check are in
`market`; the max-min-weight LP is built and read here alone, and `lp`
only solves it. `require_stock_na` is the pricing precondition:
`ArbitrageDetected` unless the stocks alone pass NA, otherwise the call's
`Market`, which its denial paths search too (`search_arbitrage`).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .market import ArbitrageFound, FtapWitness, Market, verify_measure, verify_witness
# bench/ reads it here: checks.py, the spans.py TRACED pair, the layers.py metric
from .market import martingale_rows  # noqa: F401
from .model import Measure, ScenarioTree, StaticOption, Strategy, dot
from .polar import SupportMask
from .rational import integer_row

F = Fraction


@dataclass(frozen=True)
class NodeNaReport:
    node: str
    certificate: tuple[Fraction, ...] | None  # present exactly on failure

    @property
    def passed(self) -> bool:
        return self.certificate is None


class ArbitrageDetected(Exception):
    """The market (with its quoted options) admits arbitrage; prices are
    undefined. Carries the failing certificate and, when the stocks alone
    are fine, each offending option's own price interval as a hint."""

    def __init__(self, message: str, found: ArbitrageFound):
        super().__init__(message)
        self.found = found


def node_na(tree: ScenarioTree, mask: SupportMask, node_id: str) -> NodeNaReport:
    """Local NA test, exact in every mode; on failure the certificate y has
    y.dS >= 0 on every supported child with at least one strict inequality,
    scaled so the largest absolute entry is 1.

    With one stock the test needs no LP: the node passes iff its increments
    take both signs or all vanish, and otherwise (1,) or (-1,) is the only
    scaled separator. With two stocks the verdict needs no LP either
    (`_two_stock_separator`), and a failing node solves the exact
    max-min-weight LP for the separator `na` prints. With three or more
    stocks that LP decides. Whenever there is a separator, it is
    re-verified.
    """
    return _local_na(tree, mask, node_id, lp_separator=True)


def _local_na(
    tree: ScenarioTree, mask: SupportMask, node_id: str, lp_separator: bool
) -> NodeNaReport:
    """node_na; without `lp_separator`, a failing two-stock node keeps the
    closed-form separator of `_two_stock_separator` and solves no LP."""
    node = tree.nodes[node_id]
    if node.is_leaf:
        raise ValueError(f"{node_id!r} is a leaf")
    support = mask.node_support[node_id]
    vectors = [tree.increment(node_id, c) for c in support]
    if tree.dimension == 1:
        y = _one_stock_separator(vectors)
    elif tree.dimension == 2:
        y = _two_stock_separator(vectors)
        if y is not None and lp_separator:
            y = _lp_separator(vectors)
    else:
        y = _lp_separator(vectors)
    if y is None:
        return NodeNaReport(node_id, None)
    products = [dot(y, v) for v in vectors]
    if not (all(p >= 0 for p in products) and any(p > 0 for p in products)):
        raise RuntimeError("separator failed re-verification (bug)")
    return NodeNaReport(node_id, y)


def _lp_separator(
    increments: list[tuple[Fraction, ...]],
) -> tuple[Fraction, ...] | None:
    """Decide 0 in ri(conv(increments)) exactly by the max-min-weight LP:
    None when 0 is inside, else a separator y scaled so the largest
    absolute entry is 1.

    0 lies in the relative interior of the hull of finitely many points iff
    some convex combination with all weights strictly positive vanishes; the
    LP maximizes the smallest weight, and a positive optimum's weights are
    re-verified. Otherwise the increment rows' `_separating_multipliers`
    separate: y.v >= 0 for every increment with at least one strict
    inequality. A zero y fails re-verification here, before it is scaled.
    """
    d = len(increments[0])
    rows = [[v[i] for v in increments] for i in range(d)] + [[F(1)] * len(increments)]
    rhs = [F(0)] * d + [F(1)]
    out = lp.solve(_max_min_weight_lp(rows, rhs, [F(1)] * len(increments)), lp.EXACT)
    if isinstance(out, lp.Optimal) and out.value > 0:
        q = out.primal[:-1]
        if min(q) <= 0 or sum(q) != 1 or any(
            sum(w * v[i] for w, v in zip(q, increments)) for i in range(d)
        ):
            raise RuntimeError("relative-interior weights failed re-verification (bug)")
        return None
    y = _separating_multipliers(out)[:d]
    peak = max(abs(v) for v in y)
    if not peak:
        raise RuntimeError("separator failed re-verification (bug)")
    return tuple(v / peak for v in y)


def _max_min_weight_lp(rows, rhs, weights) -> lp.LinearProgram:
    """The LP max t over q >= 0 with rows . q = rhs and q_k >= t * weights[k]:
    the largest uniform domination factor of the given weights that the
    equality system admits. The variables are q, then t (free)."""
    k = len(weights)
    constraints = [(list(row) + [F(0)], "=", b) for row, b in zip(rows, rhs)]
    for v in range(k):
        coeffs = [F(0)] * (k + 1)
        coeffs[v] = F(1)
        coeffs[k] = -weights[v]
        constraints.append((coeffs, ">=", F(0)))
    lower: list[Fraction | None] = [F(0)] * k + [None]
    objective = [F(0)] * k + [F(1)]
    return lp.linear_program(objective, maximize=True, constraints=constraints, lower=lower)


def _separating_multipliers(out: lp.LpOutcome) -> list[Fraction]:
    """The row multipliers of a max-min-weight LP outcome other than a
    positive optimum: an optimum's row duals, or the negated Farkas rows."""
    if isinstance(out, lp.Unbounded):
        raise RuntimeError("the max-min-weight LP is Unbounded (bug)")
    return list(out.dual) if isinstance(out, lp.Optimal) else [-v for v in out.certificate.rows]


def _one_stock_separator(
    increments: list[tuple[Fraction, ...]],
) -> tuple[Fraction, ...] | None:
    """Exact local NA for one stock: None when 0 lies in the relative
    interior of the hull of the increments (they take both signs or all
    vanish), otherwise the scaled separator, (1,) or (-1,)."""
    up = any(v[0] > 0 for v in increments)
    down = any(v[0] < 0 for v in increments)
    if up == down:
        return None
    return (F(1),) if up else (F(-1),)


def _two_stock_separator(
    increments: list[tuple[Fraction, ...]],
) -> tuple[Fraction, ...] | None:
    """Exact local NA for two stocks: None when 0 lies in the relative
    interior of the hull of the increments, otherwise a separator h, with
    h.w >= 0 for every increment w and one strict inequality, scaled so the
    largest absolute entry is 1. When such an h exists, the cone
    {h : h.w >= 0 for every w} is a half-plane whose inward normal is an
    increment v, or its edges, each some +-v_perp, include one; so only v
    and +-v_perp over the nonzero increments v are tried, in that order
    and in support order (-v never works: -v.v < 0). Each increment is
    scaled to integers by `integer_row`, a positive factor that keeps every
    sign."""
    vectors = [integer_row(v)[1] for v in increments if any(v)]
    for x, y in vectors:
        for h0, h1 in ((x, y), (-y, x), (y, -x)):
            products = [h0 * u + h1 * v for u, v in vectors]
            if min(products) >= 0 and max(products) > 0:
                peak = max(abs(h0), abs(h1))
                return F(h0, peak), F(h1, peak)
    return None


def scan_nodes(tree: ScenarioTree, mask: SupportMask) -> list[NodeNaReport]:
    """node_na at every relevant non-leaf node, level by level."""
    return [node_na(tree, mask, n) for n in mask.relevant_nonleaf(tree)]


def global_na(tree: ScenarioTree, mask: SupportMask) -> ArbitrageFound | None:
    """Stocks-only market NA; None means Pass.

    On failure the certificate is the lift of the first failing relevant
    node (lowest level, document order): hold y there, zero elsewhere. The
    scan stops at that node, so no later node is tested. The verdict is
    node_na's at every node, but a failing two-stock node lifts the
    closed-form separator of `_two_stock_separator`, not the LP's, so with
    one or two stocks the scan solves no LP. The separator passes the same
    products check, and the lift `Market.arbitrage`.
    """
    reports = (
        _local_na(tree, mask, n, lp_separator=False) for n in mask.relevant_nonleaf(tree)
    )
    return lift_first_failure(tree, mask, reports)


def require_stock_na(
    tree: ScenarioTree,
    mask: SupportMask,
    options: tuple[StaticOption, ...] | list[StaticOption] = (),
) -> Market:
    """The precondition of every pricing function: ArbitrageDetected, naming
    the first failing node and carrying global_na's certificate, unless the
    stocks alone pass NA; otherwise the call's Market."""
    found = global_na(tree, mask)
    if found is not None:
        node = next(iter(found.strategy.dynamic))
        raise ArbitrageDetected(f"market admits arbitrage at node {node!r}", found)
    return Market(tree, mask, tuple(options))


def lift_first_failure(
    tree: ScenarioTree, mask: SupportMask, reports: Iterable[NodeNaReport]
) -> ArbitrageFound | None:
    """The global_na verdict from a scan_nodes result, read up to its first
    failing report."""
    failed = next((r for r in reports if not r.passed), None)
    if failed is None:
        return None
    strategy = Strategy(F(0), (), {failed.node: failed.certificate})
    found = Market(tree, mask, ()).arbitrage(strategy)
    if not found.witness_leaves:
        raise RuntimeError(f"the separator at node {failed.node!r} gains on no leaf (bug)")
    return found


def semistatic_na(
    tree: ScenarioTree,
    mask: SupportMask,
    options: tuple[StaticOption, ...] | list[StaticOption],
) -> ArbitrageFound | None:
    """`search_arbitrage` of the stocks with these quoted options."""
    return search_arbitrage(Market(tree, mask, tuple(options)))


def search_arbitrage(market: Market) -> ArbitrageFound | None:
    """NA of the full semistatic market (stocks plus quoted options),
    exact; None means Pass. Searches for (H, h) with quasi-surely
    nonnegative terminal wealth and positive wealth on some relevant
    leaf, by maximizing clipped gains: max sum(w) s.t. wealth(leaf) >=
    w_leaf, 0 <= w_leaf <= 1. NA holds iff the optimum is 0. With no
    options this agrees with global_na."""
    columns = market.columns
    nw = len(columns)
    width = len(columns[0]) - 1  # h and the node blocks; no initial capital
    objective = [F(0)] * width + [F(1)] * nw
    constraints = []
    for li, column in enumerate(columns):
        gains = [F(0)] * nw
        gains[li] = F(-1)
        constraints.append((column[1:] + gains, ">=", F(0)))
    lower: list[Fraction | None] = [None] * width + [F(0)] * nw
    upper: list[Fraction | None] = [None] * width + [F(1)] * nw
    prog = lp.linear_program(
        objective, maximize=True, constraints=constraints, lower=lower, upper=upper
    )
    out = lp.solve(prog, lp.EXACT)
    if not isinstance(out, lp.Optimal):
        raise RuntimeError(f"the arbitrage-search LP is {type(out).__name__} (bug)")
    if out.value > 0:
        found = market.arbitrage(market.strategy((F(0),) + out.primal))
        if not found.witness_leaves:
            raise RuntimeError("arbitrage search found no witness leaf (bug)")
        return found
    # Pass (Stiemke): each gain w_leaf sits at 0 with reduced cost
    # 1 + y_leaf <= 0, so every row dual is negative, and the free hedge
    # columns make y, normalized, a consistent martingale measure
    total = sum(out.dual)
    q = market.measure([y / total for y in out.dual]) if total else Measure({})
    problems = verify_measure(market.tree, market.mask, market.options, q)
    if len(q.weights) < nw:
        problems.append("does not charge every relevant leaf")
    if problems:
        raise RuntimeError(f"no-arbitrage measure failed re-verification (bug): {problems}")
    return None


def find_dominating_mm(
    tree: ScenarioTree,
    mask: SupportMask,
    options: tuple[StaticOption, ...] | list[StaticOption],
    p: Measure,
) -> FtapWitness | None:
    """Martingale measure q consistent with the option quotes and dominating
    p (q >= t p with t > 0, so q charges every leaf p charges), exact and
    re-verified; None when no such measure exists.

    A None is certified by a semistatic arbitrage H with capital 0 whose
    gain p charges: under any consistent martingale measure q, E_q[H.dS] =
    0 while the wealth is >= 0 on every relevant leaf, so q misses each
    witness leaf and no t > 0 exists. When the stocks fail and p charges a
    witness leaf of `global_na`'s arbitrage, None is returned without the
    LP. Otherwise the max-min-weight LP over the martingale system decides,
    solved by Dantzig's rule (`lp.solve_dantzig`). A witness keeps its q
    only where the final basis proves the LP's optimum unique, and is
    otherwise read off `lp.solve`'s optimum (`lp.settle`). A None reads
    the arbitrage off the row duals of any optimum with t <= 0, or off the
    negated Farkas rows when no consistent martingale measure exists;
    either must pass `Market.arbitrage` and gain on a leaf p charges.
    """
    leaves = mask.relevant_leaves
    relevant = set(leaves)
    for leaf, w in p.weights.items():
        if w > 0 and leaf not in relevant:
            raise ValueError(f"reference measure charges polar leaf {leaf!r}")
    found = global_na(tree, mask)
    if found is not None and any(p(leaf) > 0 for leaf in found.witness_leaves):
        return None
    market = Market(tree, mask, tuple(options))
    rows, rhs = zip(*market.rows)
    prog = _max_min_weight_lp(rows, rhs, [p(leaf) for leaf in leaves])
    out = lp.solve_dantzig(prog)
    if isinstance(out, lp.Optimal) and out.value > 0:
        out = lp.settle(prog, out, "primal")
        witness = FtapWitness(market.measure(out.primal), p)
        problems = verify_witness(tree, mask, options, witness)
        if problems:
            raise RuntimeError(f"witness failed re-verification (bug): {problems}")
        return witness
    y = market.column_order(_separating_multipliers(out))
    found = market.arbitrage(market.strategy((F(0), *y[1:])))
    if not any(p(leaf) > 0 for leaf in found.witness_leaves):
        raise RuntimeError("no-dominating-measure arbitrage gains on no leaf p charges (bug)")
    return None
