"""Nondominated optional decomposition, and with it the universal
supermartingale test.

A process is a supermartingale under every martingale measure of the family
iff its one-step superhedging value never exceeds it at any relevant node;
`optional_decomposition` raises NotSupermartingale where it does. Such a
process splits exactly into initial value plus a martingale transform
minus a nondecreasing consumption: the hedge comes from the one-step dual,
the consumption from the per-edge slack, and the identity
V_t = V_0 + H.S_t - K_t holds by construction at every relevant node.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arbitrage import require_stock_na
from .market import Decomposition, verify_decomposition
from .model import ScenarioTree, Strategy, dot
from .polar import SupportMask
from .superhedge import gated_node_price

F = Fraction


class NotSupermartingale(Exception):
    def __init__(self, node: str, gap: Fraction):
        super().__init__(
            f"one-step value exceeds the process at node {node!r} by {gap}"
        )
        self.node = node
        self.gap = gap


@dataclass(frozen=True)
class AdaptedProcess:
    """Node-indexed values, defined at least on every relevant node; the
    name, when given, is the one its errors print."""

    values: dict[str, Fraction]
    name: str | None = None

    def __call__(self, node_id: str) -> Fraction:
        return self.values[node_id]

    def validate(self, mask: SupportMask) -> None:
        missing = [
            n
            for level in mask.relevant_nodes
            for n in level
            if n not in self.values
        ]
        if missing:
            label = "process" if self.name is None else f"process {self.name!r}"
            raise ValueError(f"{label} undefined on relevant nodes {missing}")


def optional_decomposition(
    tree: ScenarioTree,
    mask: SupportMask,
    process: AdaptedProcess,
) -> Decomposition:
    """Split a universal supermartingale as V_0 + H.S - K with K
    nondecreasing along relevant paths and K_0 = 0, from exact one-step
    hedges; the result passes `verify_decomposition` before it is returned.
    Raises NotSupermartingale, with the exact positive gap, at the first
    relevant node (top level first, document order) whose one-step value
    exceeds the process."""
    require_stock_na(tree, mask)
    process.validate(mask)
    dynamic: dict[str, tuple[Fraction, ...]] = {}
    consumption: dict[str, Fraction] = {tree.root: F(0)}
    for level in range(tree.horizon):
        for node_id in mask.relevant_nodes[level]:
            value, hedge = gated_node_price(tree, mask, node_id, process.values)
            gap = value - process(node_id)
            if gap > 0:
                raise NotSupermartingale(node_id, gap)
            if any(v != 0 for v in hedge):
                dynamic[node_id] = hedge
            for child in mask.node_support[node_id]:
                gain = dot(hedge, tree.increment(node_id, child))
                increment = process(node_id) + gain - process(child)
                consumption[child] = consumption[node_id] + increment
    decomposition = Decomposition(Strategy(process(tree.root), (), dynamic), consumption)
    problems = verify_decomposition(tree, mask, process, decomposition)
    if problems:
        raise RuntimeError(f"decomposition failed re-verification (bug): {problems}")
    return decomposition
