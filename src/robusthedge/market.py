"""The option-constrained martingale system of one market, and every check
that certifies a verdict; this module imports no solver."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .model import Claim, Measure, ScenarioTree, StaticOption, Strategy
from .polar import SupportMask

F = Fraction


@dataclass(frozen=True)
class ArbitrageFound:
    strategy: Strategy
    witness_leaves: tuple[str, ...]


@dataclass(frozen=True)
class FtapWitness:
    q: Measure
    dominated: Measure


@dataclass(frozen=True)
class Decomposition:
    strategy: Strategy  # initial = V_0, static empty
    consumption: dict[str, Fraction]  # accumulated K per relevant node, K_0 = 0


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
        return [list(column) for column in zip(*self.column_order([r for r, _ in self.rows]))]

    def column_order(self, per_row) -> list:
        """Entries per row of `rows` in column order (mass, options, nodes); extras dropped."""
        cut = len(self.rows) - len(self.options)
        return [*per_row[:1], *per_row[cut:len(self.rows)], *per_row[1:cut]]

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

    def node_wealths(self, strategy: Strategy) -> dict[str, Fraction]:
        """Wealth x + sum_u H_u . dS_u of the strategy's dynamic part at
        every relevant node, in one top-down pass over the relevant tree."""
        tree, mask = self.tree, self.mask
        at = {tree.root: strategy.initial}
        for node_id in mask.relevant_nonleaf(tree):
            here = at[node_id]
            position = strategy.dynamic.get(node_id)
            for child in mask.node_support[node_id]:
                total = here
                if position is not None:
                    # the same additions in the same order as `wealth`
                    for h, s in zip(position, tree.increment(node_id, child)):
                        total += h * s
                at[child] = total
        return at

    def wealths(self, strategy: Strategy) -> dict[str, Fraction]:
        """Terminal wealth of the strategy with these options, as
        `model.wealth` computes it, at every relevant leaf in
        mask.relevant_leaves order: `node_wealths`, then the option term is
        added."""
        at = self.node_wealths(strategy)
        static = list(zip(strategy.static, self.options))
        return {
            leaf: sum((h * opt.normalized(leaf) for h, opt in static), at[leaf])
            for leaf in self.mask.relevant_leaves
        }

    def arbitrage(self, strategy: Strategy) -> ArbitrageFound:
        """The arbitrage certificate of a strategy: its witnesses are exactly
        the relevant leaves where its wealth is positive, and its wealth
        must be nonnegative on every relevant leaf."""
        wealths = self.wealths(strategy)
        if any(w < 0 for w in wealths.values()):
            raise RuntimeError("arbitrage strategy lost money (bug)")
        return ArbitrageFound(strategy, tuple(leaf for leaf, w in wealths.items() if w > 0))

    def check_superhedge(self, strategy: Strategy, claim: Claim) -> None:
        """Fail unless the strategy's terminal wealth covers the claim on every
        relevant leaf."""
        if any(w < claim(leaf) for leaf, w in self.wealths(strategy).items()):
            raise RuntimeError("superhedging strategy failed re-verification (bug)")

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


def verify_decomposition(
    tree: ScenarioTree,
    mask: SupportMask,
    process,
    decomposition: Decomposition,
) -> list[str]:
    """Exact recheck: K_0 = 0, K nondecreasing along supported edges, and
    V_t = V_0 + H.S_t - K_t at every relevant node, with V_0 + H.S_t read
    off `Market.node_wealths`."""
    bad: list[str] = []
    k = decomposition.consumption
    if k.get(tree.root) != 0:
        bad.append("K_0 != 0")
    for node_id in mask.relevant_nonleaf(tree):
        for child in mask.node_support[node_id]:
            if k[child] < k[node_id]:
                bad.append(f"K decreases on edge {node_id!r}->{child!r}")
    wealth = Market(tree, mask, ()).node_wealths(decomposition.strategy)
    for level in mask.relevant_nodes:
        for node_id in level:
            lhs = process(node_id)
            rhs = wealth[node_id] - k[node_id]
            if lhs != rhs:
                bad.append(f"identity fails at {node_id!r}: {lhs} != {rhs}")
    return bad
