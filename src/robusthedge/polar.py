"""Quasi-sure supports and polar events.

A child is in a node's support when some generator gives it positive weight;
a node is relevant when every edge on its path from the root is supported.
Everything off the relevant part of the tree is polar: null under every
measure of the ambiguity family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import Measure, ScenarioTree


@dataclass(frozen=True)
class SupportMask:
    node_support: dict[str, tuple[str, ...]]  # non-leaf node -> supported children
    relevant_nodes: tuple[tuple[str, ...], ...]  # per level, document order
    relevant_leaves: tuple[str, ...]

    def relevant_nonleaf(self, tree: ScenarioTree) -> list[str]:
        """Relevant non-leaf nodes, level by level, document order."""
        return [n for level in self.relevant_nodes[:-1] for n in level]


def compute_support(tree: ScenarioTree) -> SupportMask:
    """One top-down pass; no fixpoint needed since polarity is hereditary
    along paths."""
    node_support: dict[str, tuple[str, ...]] = {}
    for level in range(tree.horizon):
        for node_id in tree.levels[level]:
            node = tree.nodes[node_id]
            gens = node.generators
            # weights are validated nonnegative, so a nonzero numerator is
            # a positive weight
            node_support[node_id] = tuple(
                c for c in node.children if any(g.weights[c].numerator for g in gens)
            )

    # a node is relevant iff its parent is and supports it
    relevant = [(tree.root,)]
    for level in tree.levels[1:]:
        supported = {c for n in relevant[-1] for c in node_support[n]}
        relevant.append(tuple(n for n in level if n in supported))
    return SupportMask(node_support, tuple(relevant), relevant[-1])


def reference_measure(tree: ScenarioTree) -> Measure:
    """The uniform-mixture product, a measure of maximal support (any
    strictly positive mixture would do; uniform keeps it deterministic). One
    top-down pass gives each child of a node with mass that mass times the
    mean of the node's generator weights on it. Its support is exactly the
    relevant leaves, in `tree.leaves` order."""
    mass = {tree.root: Fraction(1)}
    for level in tree.levels[:-1]:
        for node_id in level:
            w = mass.get(node_id)
            if w is None:
                continue
            node = tree.nodes[node_id]
            gens = node.generators
            for child in node.children:
                share = w * sum(g(child) for g in gens) / len(gens)
                if share:
                    mass[child] = share
    result = Measure({leaf: mass[leaf] for leaf in tree.leaves if leaf in mass})
    result.validate()
    return result
