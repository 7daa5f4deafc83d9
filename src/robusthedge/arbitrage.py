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
witness exists exactly when t* > 0. Its contrapositive answers first: a
stocks arbitrage whose gain p charges leaves no dominating measure.

That polytope and the superhedging LPs read one object, the
option-constrained martingale system: its rows constrain the martingale
measures, and its columns are the terminal-wealth map of a semistatic
strategy. The internal `Market` (tree, mask, options) builds it once, on
first use, and is the one reader of its layout; it also computes a
strategy's terminal wealth at every relevant leaf. The public functions
still take (tree, mask, options). A measure is checked off the tree
(`verify_measure`), never off these rows; that includes the measure that
certifies a semistatic Pass, read off the arbitrage search's row duals.
`require_stock_na` is the pricing precondition: `ArbitrageDetected`
unless the stocks alone pass NA, otherwise the call's `Market`, which its
denial paths search too.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import lp
from .model import Claim, Measure, ScenarioTree, StaticOption, Strategy, dot
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


@dataclass(frozen=True)
class ArbitrageFound:
    strategy: Strategy
    witness_leaves: tuple[str, ...]


class ArbitrageDetected(Exception):
    """The market (with its quoted options) admits arbitrage; prices are
    undefined. Carries the failing certificate and, when the stocks alone
    are fine, each offending option's own price interval as a hint."""

    def __init__(self, message: str, found: ArbitrageFound):
        super().__init__(message)
        self.found = found


@dataclass(frozen=True)
class FtapWitness:
    q: Measure
    dominated: Measure


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
    """`lp.zero_in_relative_interior`, its separator scaled so the largest
    absolute entry is 1."""
    y = lp.zero_in_relative_interior(increments)
    if y is None:
        return None
    peak = max(abs(v) for v in y)
    return tuple(v / peak for v in y)


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
    assert found.witness_leaves, "failing node must produce a nonpolar witness set"
    return found


def semistatic_na(
    tree: ScenarioTree,
    mask: SupportMask,
    options: tuple[StaticOption, ...] | list[StaticOption],
) -> ArbitrageFound | None:
    """`Market.search_arbitrage` of the stocks with these quoted options."""
    return Market(tree, mask, tuple(options)).search_arbitrage()


def martingale_rows(
    tree: ScenarioTree,
    mask: SupportMask,
    options: tuple[StaticOption, ...],
) -> list[tuple[list[Fraction], Fraction]]:
    """Equality rows of the option-constrained martingale polytope over the
    relevant leaves: normalization, one row per relevant node and price
    coordinate (unconditional form), one row per option.

    Returns (row, rhs) pairs, each row dense over mask.relevant_leaves: the
    mass row (rhs 1), row 1 + k*d + i for coordinate i of the k-th relevant
    non-leaf node, then the option rows (rhs 0). Read by columns, the rows
    give terminal wealth: column k holds the coefficients of the initial
    capital, the node positions and the option positions at leaf k.
    """
    leaves = mask.relevant_leaves
    nodes = mask.relevant_nonleaf(tree)
    d = tree.dimension
    first = {n: 1 + k * d for k, n in enumerate(nodes)}
    rows = [[F(1)] * len(leaves)]
    rows += [[F(0)] * len(leaves) for _ in range(len(nodes) * d)]
    rows += [[opt.normalized(leaf) for leaf in leaves] for opt in options]
    for k, leaf in enumerate(leaves):
        path = tree.path(leaf)
        for parent, child in zip(path, path[1:]):
            # every ancestor of a relevant leaf is relevant
            step = tree.increment(parent, child)
            for i in range(d):
                rows[first[parent] + i][k] = step[i]
    rhs = [F(1)] + [F(0)] * (len(rows) - 1)
    return list(zip(rows, rhs))


@dataclass(frozen=True)
class Market:
    """One call's market: the tree, its support mask and the quoted options,
    with the option-constrained martingale system built on first use, once.

    `rows` are its `martingale_rows`; `columns` hold, per relevant leaf, the
    coefficients of terminal wealth in the hedge variables: initial
    capital, option positions, then one d-block per relevant non-leaf node
    (the columns of `rows`, option rows moved up behind the mass row).
    Every reading of that layout is a method here. `check_measure` checks
    a measure the LPs return, off the tree, and the value it certifies.
    """

    tree: ScenarioTree
    mask: SupportMask
    options: tuple[StaticOption, ...]

    @cached_property
    def rows(self) -> list[tuple[list[Fraction], Fraction]]:
        return martingale_rows(self.tree, self.mask, self.options)

    @cached_property
    def columns(self) -> list[list[Fraction]]:
        rows = [row for row, _ in self.rows]
        cut = len(rows) - len(self.options)
        rows = rows[:1] + rows[cut:] + rows[1:cut]
        return [list(column) for column in zip(*rows)]

    def strategy(self, point) -> Strategy:
        """The Strategy of a point laid out like a column; entries past the
        node blocks are ignored."""
        d = self.tree.dimension
        n_options = len(self.options)
        blocks = point[1 + n_options:]
        dynamic = {}
        for k, n in enumerate(self.mask.relevant_nonleaf(self.tree)):
            vec = tuple(blocks[k * d:(k + 1) * d])
            if any(v != 0 for v in vec):
                dynamic[n] = vec
        return Strategy(point[0], tuple(point[1:1 + n_options]), dynamic)

    def measure(self, weights) -> Measure:
        """The path measure of exact LP weights over the relevant leaves, in
        their order: the positive ones."""
        return Measure(
            {leaf: w for leaf, w in zip(self.mask.relevant_leaves, weights) if w > 0}
        )

    def wealths(self, strategy: Strategy) -> dict[str, Fraction]:
        """Terminal wealth of the strategy with these options, as
        `model.wealth` computes it, at every relevant leaf in
        mask.relevant_leaves order: one top-down pass over the relevant tree
        accumulates x + sum_u H_u . dS_u, then the option term is added."""
        tree, mask = self.tree, self.mask
        at = {tree.root: strategy.initial}
        for level in mask.relevant_nodes[:-1]:
            for node_id in level:
                here = at[node_id]
                position = strategy.dynamic.get(node_id)
                for child in mask.node_support[node_id]:
                    total = here
                    if position is not None:
                        # the same additions in the same order as `wealth`
                        for h, s in zip(position, tree.increment(node_id, child)):
                            total += h * s
                    at[child] = total
        out = {}
        for leaf in mask.relevant_leaves:
            total = at[leaf]
            for h, opt in zip(strategy.static, self.options):
                total += h * opt.normalized(leaf)
            out[leaf] = total
        return out

    def arbitrage(self, strategy: Strategy) -> ArbitrageFound:
        """The arbitrage certificate of a strategy: its witnesses are exactly
        the relevant leaves where its wealth is positive, and its wealth
        must be nonnegative on every relevant leaf."""
        wealths = self.wealths(strategy)
        if any(w < 0 for w in wealths.values()):
            raise RuntimeError("arbitrage strategy lost money (bug)")
        return ArbitrageFound(strategy, tuple(leaf for leaf, w in wealths.items() if w > 0))

    def search_arbitrage(self) -> ArbitrageFound | None:
        """NA of the full semistatic market (stocks plus quoted options),
        exact; None means Pass. Searches for (H, h) with quasi-surely
        nonnegative terminal wealth and positive wealth on some relevant
        leaf, by maximizing clipped gains: max sum(w) s.t. wealth(leaf) >=
        w_leaf, 0 <= w_leaf <= 1. NA holds iff the optimum is 0. With no
        options this agrees with global_na."""
        columns = self.columns
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
        assert isinstance(out, lp.Optimal), "arbitrage-search LP is feasible and bounded"
        if out.value > 0:
            found = self.arbitrage(self.strategy((F(0),) + out.primal))
            if not found.witness_leaves:
                raise RuntimeError("arbitrage search found no witness leaf (bug)")
            return found
        # Pass (Stiemke): each gain w_leaf sits at 0 with reduced cost
        # 1 + y_leaf <= 0, so every row dual is negative, and the free hedge
        # columns make y, normalized, a consistent martingale measure
        total = sum(out.dual)
        q = self.measure([y / total for y in out.dual]) if total else Measure({})
        problems = verify_measure(self.tree, self.mask, self.options, q)
        if len(q.weights) < nw:
            problems.append("does not charge every relevant leaf")
        if problems:
            raise RuntimeError(f"no-arbitrage measure failed re-verification (bug): {problems}")
        return None

    def check_measure(self, q: Measure, claim: Claim, value: Fraction) -> None:
        """Fail unless q passes `verify_measure` and E_q[claim] is value."""
        problems = verify_measure(self.tree, self.mask, self.options, q)
        expectation = sum((w * claim(leaf) for leaf, w in q.weights.items()), F(0))
        if expectation != value:
            problems.append(f"expectation differs from {value}: {expectation}")
        if problems:
            raise RuntimeError(
                f"martingale measure failed re-verification (bug): {problems}"
            )


def find_dominating_mm(
    tree: ScenarioTree,
    mask: SupportMask,
    options: tuple[StaticOption, ...] | list[StaticOption],
    p: Measure,
) -> FtapWitness | None:
    """Martingale measure q consistent with the option quotes and dominating
    p (q >= t p with t > 0, so q charges every leaf p charges), exact and
    re-verified; None when no such measure exists.

    When the stocks fail NA and p charges a witness leaf of `global_na`'s
    arbitrage H, None is returned without the LP: under any consistent
    martingale measure q, E_q[H.dS] = 0 while the wealth is >= 0 on every
    relevant leaf, so q misses each witness leaf and no t > 0 exists. That
    arbitrage, re-verified by `Market.arbitrage`, certifies the None.
    Otherwise the max-min-weight LP over the martingale system decides.
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
    out = lp.max_min_weight(rows, rhs, [p(leaf) for leaf in leaves])
    if isinstance(out, lp.Infeasible):
        return None
    assert isinstance(out, lp.Optimal)
    if out.value <= 0:
        return None
    witness = FtapWitness(market.measure(out.primal), p)
    problems = verify_witness(tree, mask, options, witness)
    if problems:
        raise RuntimeError(f"witness failed re-verification (bug): {problems}")
    return witness


def verify_measure(
    tree: ScenarioTree,
    mask: SupportMask,
    options: tuple[StaticOption, ...] | list[StaticOption],
    q: Measure,
) -> list[str]:
    """Exact recheck that q lies in the option-constrained martingale
    polytope, read off the tree: nonnegative mass 1 on relevant leaves only,
    E_q[payoff - quote] = 0 per option, and sum_c mass(c) dS(n, c) = 0 over
    the supported children c of each relevant non-leaf node n, where mass(n)
    = sum_c mass(c), bottom-up from q on the leaves; empty list = sound."""
    bad: list[str] = []
    relevant = set(mask.relevant_leaves)
    total = F(0)
    for leaf, w in q.weights.items():
        if leaf not in relevant:
            bad.append(f"mass on polar leaf {leaf!r}")
        if w < 0:
            bad.append(f"negative mass on {leaf!r}")
        total += w
    if total != 1:
        bad.append(f"total mass {total} != 1")
    mass = {leaf: w for leaf, w in q.weights.items() if leaf in relevant}
    for opt in options:
        if acc := sum((w * opt.normalized(leaf) for leaf, w in mass.items()), F(0)):
            bad.append(f"option {opt.name!r} violated by {acc}")
    for node in reversed(mask.relevant_nonleaf(tree)):
        support = mask.node_support[node]
        moved = [(mass[c], tree.increment(node, c)) for c in support if mass.get(c)]
        mass[node] = sum(w for w, _ in moved)
        for i in range(tree.dimension):
            if drift := sum(w * step[i] for w, step in moved):
                bad.append(f"martingale condition at {node!r}:{i} violated by {drift}")
    return bad


def verify_witness(
    tree: ScenarioTree,
    mask: SupportMask,
    options: tuple[StaticOption, ...] | list[StaticOption],
    witness: FtapWitness,
) -> list[str]:
    """Exact recheck of every FtapWitness invariant: `verify_measure` of q,
    and q charging every leaf the reference charges; empty list = sound."""
    q = witness.q
    bad = verify_measure(tree, mask, options, q)
    for leaf, w in witness.dominated.weights.items():
        if w > 0 and q(leaf) <= 0:
            bad.append(f"does not dominate the reference at {leaf!r}")
    return bad
