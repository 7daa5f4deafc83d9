"""Arbitrage detection and dominating martingale measures.

Local no-arbitrage at a node means 0 lies in the relative interior of the
convex hull of the supported price increments; the market passes globally
when every relevant node passes locally. Failures come with a hedge vector
whose one-node lift is a quasi-surely nonnegative strategy with positive
wealth on a nonpolar set. The dominating-measure search is the executable
First Fundamental Theorem: given a reference measure p it maximizes the
uniform domination factor t with q >= t p over the option-constrained
martingale polytope; a witness exists exactly when t* > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .model import PathMeasure, ScenarioTree, StaticOption, Strategy, wealth
from .polar import SupportMask

F = Fraction


@dataclass(frozen=True)
class NodeNaReport:
    node: str
    passed: bool
    certificate: tuple[Fraction, ...] | None  # present exactly on failure


@dataclass(frozen=True)
class ArbitrageFound:
    strategy: Strategy
    witness_leaves: tuple[str, ...]


@dataclass(frozen=True)
class FtapWitness:
    q: PathMeasure
    dominated: PathMeasure


def node_na(
    tree: ScenarioTree,
    mask: SupportMask,
    node_id: str,
    mode: lp.Mode = lp.EXACT,
) -> NodeNaReport:
    """Local NA test; on failure the certificate y has y.dS >= 0 on every
    supported child with at least one strict inequality, scaled so the
    largest absolute entry is 1."""
    node = tree.nodes[node_id]
    if node.is_leaf:
        raise ValueError(f"{node_id!r} is a leaf")
    support = mask.node_support[node_id]
    vectors = [tree.increment(node_id, c) for c in support]
    status = lp.zero_in_relative_interior(vectors, mode)
    if status.inside:
        return NodeNaReport(node_id, True, None)
    y = status.separator
    assert y is not None
    peak = max(abs(v) for v in y)
    y = tuple(v / peak for v in y)
    if mode.exact:
        products = [_dot(y, v) for v in vectors]
        if not (all(p >= 0 for p in products) and any(p > 0 for p in products)):
            raise RuntimeError("separator failed re-verification (bug)")
    return NodeNaReport(node_id, False, y)


def _dot(a, b):
    return sum((x * y for x, y in zip(a, b)), F(0))


def scan_nodes(
    tree: ScenarioTree,
    mask: SupportMask,
    mode: lp.Mode = lp.EXACT,
) -> list[NodeNaReport]:
    """node_na at every relevant non-leaf node, level by level."""
    return [node_na(tree, mask, n, mode) for n in mask.relevant_nonleaf(tree)]


def global_na(
    tree: ScenarioTree,
    mask: SupportMask,
    mode: lp.Mode = lp.EXACT,
) -> ArbitrageFound | None:
    """Stocks-only market NA; None means Pass.

    On failure the certificate is the lift of the first failing relevant
    node (lowest level, document order): hold y there, zero elsewhere.
    """
    return lift_first_failure(tree, mask, scan_nodes(tree, mask, mode), mode)


def lift_first_failure(
    tree: ScenarioTree,
    mask: SupportMask,
    reports: list[NodeNaReport],
    mode: lp.Mode = lp.EXACT,
) -> ArbitrageFound | None:
    """The global_na verdict from a scan_nodes result."""
    for report in reports:
        if report.passed:
            continue
        y = report.certificate
        strategy = Strategy(F(0), (), {report.node: y})
        witnesses = []
        for leaf in mask.relevant_leaves:
            w = wealth(tree, strategy, (), leaf)
            if mode.exact and w < 0:
                raise RuntimeError("arbitrage certificate lost money (bug)")
            if w > 0:
                witnesses.append(leaf)
        assert witnesses, "failing node must produce a nonpolar witness set"
        return ArbitrageFound(strategy, tuple(witnesses))
    return None


def semistatic_na(
    tree: ScenarioTree,
    mask: SupportMask,
    options: tuple[StaticOption, ...] | list[StaticOption],
    mode: lp.Mode = lp.EXACT,
) -> ArbitrageFound | None:
    """NA of the full semistatic market (stocks plus quoted options).

    Searches for (H, h) with quasi-surely nonnegative terminal wealth and
    positive wealth on some relevant leaf, by maximizing clipped gains:
    max sum(w) s.t. wealth(leaf) >= w_leaf, 0 <= w_leaf <= 1. NA holds iff
    the optimum is 0. With no options this agrees with global_na.
    """
    options = tuple(options)
    layout = _HedgeLayout(tree, mask, options)
    nw = len(mask.relevant_leaves)
    nvar = layout.width + nw
    objective = [F(0)] * layout.width + [F(1)] * nw
    constraints = []
    for li, leaf in enumerate(mask.relevant_leaves):
        coeffs = layout.wealth_row(leaf, nvar)
        coeffs[layout.width + li] = F(-1)
        constraints.append((coeffs, ">=", F(0)))
    lower: list[Fraction | None] = [None] * layout.width + [F(0)] * nw
    upper: list[Fraction | None] = [None] * layout.width + [F(1)] * nw
    prog = lp.linear_program(
        objective, maximize=True, constraints=constraints, lower=lower, upper=upper
    )
    out = lp.solve(prog, mode)
    assert isinstance(out, lp.Optimal), "arbitrage-search LP is feasible and bounded"
    gain_tol = 0 if mode.exact else mode.tolerance
    if out.value <= gain_tol:
        return None
    strategy = layout.strategy(F(0), out.primal)
    witnesses = []
    for leaf in mask.relevant_leaves:
        w = wealth(tree, strategy, options, leaf)
        if mode.exact and w < 0:
            raise RuntimeError("arbitrage strategy lost money (bug)")
        if w > 0:
            witnesses.append(leaf)
    return ArbitrageFound(strategy, tuple(witnesses))


class _HedgeLayout:
    """Shared variable layout for wealth-linear LPs: option positions h
    first, then one d-block per relevant non-leaf node."""

    def __init__(self, tree: ScenarioTree, mask: SupportMask, options):
        self.tree = tree
        self.mask = mask
        self.options = tuple(options)
        self.nodes = mask.relevant_nonleaf(tree)
        self.node_offset = {
            n: len(self.options) + k * tree.dimension for k, n in enumerate(self.nodes)
        }
        self.width = len(self.options) + len(self.nodes) * tree.dimension

    def wealth_row(self, leaf: str, nvar: int) -> list[Fraction]:
        """Coefficients of wealth(H, h) at a leaf, over nvar variables."""
        tree = self.tree
        coeffs = [F(0)] * nvar
        for k, opt in enumerate(self.options):
            coeffs[k] = opt.normalized(leaf)
        path = tree.path(leaf)
        for parent, child in zip(path, path[1:]):
            off = self.node_offset.get(parent)
            if off is None:
                continue  # polar ancestors hold the zero position
            step = tree.increment(parent, child)
            for i in range(tree.dimension):
                coeffs[off + i] += step[i]
        return coeffs

    def strategy(self, initial: Fraction, primal) -> Strategy:
        d = self.tree.dimension
        static = tuple(primal[k] for k in range(len(self.options)))
        dynamic = {}
        for n in self.nodes:
            off = self.node_offset[n]
            vec = tuple(primal[off + i] for i in range(d))
            if any(v != 0 for v in vec):
                dynamic[n] = vec
        return Strategy(initial, static, dynamic)


def martingale_rows(
    tree: ScenarioTree,
    mask: SupportMask,
    options: tuple[StaticOption, ...],
) -> list[tuple[dict[str, Fraction], str]]:
    """Equality rows of the option-constrained martingale polytope over the
    relevant leaves: normalization, one row per relevant node and price
    coordinate (unconditional form), one row per option.

    Returns (leaf -> coefficient, label) pairs; every rhs is 0 except the
    normalization row whose rhs is 1 (kept first, label "mass").
    """
    rows: list[tuple[dict[str, Fraction], str]] = []
    rows.append(({leaf: F(1) for leaf in mask.relevant_leaves}, "mass"))
    paths = {leaf: tree.path(leaf) for leaf in mask.relevant_leaves}
    for node_id in mask.relevant_nonleaf(tree):
        level = tree.nodes[node_id].level
        for i in range(tree.dimension):
            row: dict[str, Fraction] = {}
            for leaf in mask.relevant_leaves:
                path = paths[leaf]
                if len(path) > level and path[level] == node_id:
                    child = path[level + 1]
                    coeff = tree.increment(node_id, child)[i]
                    if coeff != 0:
                        row[leaf] = coeff
            rows.append((row, f"martingale:{node_id}:{i}"))
    for opt in options:
        row = {}
        for leaf in mask.relevant_leaves:
            v = opt.normalized(leaf)
            if v != 0:
                row[leaf] = v
        rows.append((row, f"option:{opt.name}"))
    return rows


def find_dominating_mm(
    tree: ScenarioTree,
    mask: SupportMask,
    options: tuple[StaticOption, ...] | list[StaticOption],
    p: PathMeasure,
    mode: lp.Mode = lp.EXACT,
) -> FtapWitness | None:
    """Martingale measure q consistent with the option quotes and dominating
    p (q >= t p with t > 0, so q charges every leaf p charges); None when no
    such measure exists."""
    options = tuple(options)
    for leaf, w in p.weights.items():
        if w > 0 and leaf not in set(mask.relevant_leaves):
            raise ValueError(f"reference measure charges polar leaf {leaf!r}")
    leaves = mask.relevant_leaves
    index = {leaf: k for k, leaf in enumerate(leaves)}
    n = len(leaves)
    nvar = n + 1  # q per relevant leaf, then t
    objective = [F(0)] * n + [F(1)]
    constraints = []
    for row, label in martingale_rows(tree, mask, options):
        coeffs = [F(0)] * nvar
        for leaf, a in row.items():
            coeffs[index[leaf]] = a
        rhs = F(1) if label == "mass" else F(0)
        constraints.append((coeffs, "=", rhs))
    for leaf in leaves:
        coeffs = [F(0)] * nvar
        coeffs[index[leaf]] = F(1)
        coeffs[n] = -p(leaf)
        constraints.append((coeffs, ">=", F(0)))
    lower: list[Fraction | None] = [F(0)] * n + [None]
    prog = lp.linear_program(
        objective, maximize=True, constraints=constraints, lower=lower
    )
    out = lp.solve(prog, mode)
    if isinstance(out, lp.Infeasible):
        return None
    assert isinstance(out, lp.Optimal)
    if mode.exact:
        if out.value <= 0:
            return None
    else:
        if abs(out.value) <= mode.tolerance:
            # indeterminate under tolerance: settle it exactly
            return find_dominating_mm(tree, mask, options, p, lp.EXACT)
        if out.value < 0:
            return None
    q = lp_measure({leaf: out.primal[index[leaf]] for leaf in leaves}, mode)
    witness = FtapWitness(q, p)
    if mode.exact:
        problems = verify_witness(tree, mask, options, witness)
        if problems:
            raise RuntimeError(f"witness failed re-verification (bug): {problems}")
    return witness


_GRID = 10**12


def lp_measure(values: dict[str, Fraction | float], mode: lp.Mode) -> PathMeasure:
    """The path measure of LP leaf weights: positive ones in exact mode;
    in float mode those above the tolerance, rescaled to sum 1 and rounded
    once to multiples of 1/10**12, the largest weight taking the remainder
    so the total is exactly 1."""
    if mode.exact:
        return PathMeasure({leaf: w for leaf, w in values.items() if w > 0})
    kept = {leaf: w for leaf, w in values.items() if w > mode.tolerance}
    total = sum(kept.values())
    ticks = {leaf: round(w / total * _GRID) for leaf, w in kept.items()}
    if ticks:
        top = max(ticks, key=ticks.__getitem__)
        ticks[top] += _GRID - sum(ticks.values())
    return PathMeasure({leaf: F(t, _GRID) for leaf, t in ticks.items() if t})


def verify_witness(
    tree: ScenarioTree,
    mask: SupportMask,
    options: tuple[StaticOption, ...] | list[StaticOption],
    witness: FtapWitness,
) -> list[str]:
    """Exact recheck of every FtapWitness invariant; empty list = sound."""
    bad: list[str] = []
    q = witness.q
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
    for row, label in martingale_rows(tree, mask, tuple(options)):
        if label == "mass":
            continue
        acc = sum((q(leaf) * a for leaf, a in row.items()), F(0))
        if acc != 0:
            bad.append(f"row {label} violated by {acc}")
    for leaf, w in witness.dominated.weights.items():
        if w > 0 and q(leaf) <= 0:
            bad.append(f"does not dominate the reference at {leaf!r}")
    return bad
