"""Brute-force ground truth: all vertices of the martingale polytope.

Deliberately independent of the simplex kernel so it can cross-check it:
the equality system (normalization, per-node martingale rows, option rows)
is solved by plain Gaussian elimination on every candidate support of size
rank, keeping the nonnegative basic solutions. Exponential by design; the
leaf cap keeps it at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .market import martingale_rows
from .model import Claim, Measure, ScenarioTree, StaticOption
from .polar import SupportMask

F = Fraction

# the most relevant leaves a model may have before enumeration is refused
LEAF_CAP = 16


class InstanceTooLarge(Exception):
    pass


class EmptyPolytope(Exception):
    """No martingale measure fits: local arbitrage or inconsistent quotes."""


@dataclass(frozen=True)
class MartingalePolytope:
    vertices: tuple[Measure, ...]


def enumerate_vertices(
    tree: ScenarioTree,
    mask: SupportMask,
    options: tuple[StaticOption, ...] | list[StaticOption],
) -> MartingalePolytope:
    """All basic feasible solutions of the martingale equality system.

    Candidate supports are the column subsets of size rank(E); each square
    solve either fails (dependent columns, inconsistent data) or yields the
    unique basic solution, kept when nonnegative. Duplicates from degenerate
    bases are removed exactly.
    """
    leaves = mask.relevant_leaves
    if len(leaves) > LEAF_CAP:
        raise InstanceTooLarge(
            f"{len(leaves)} relevant leaves exceed the cap of {LEAF_CAP}"
        )
    matrix, rhs = zip(*martingale_rows(tree, mask, tuple(options)))
    ordered = sorted(
        set(_basic_points(matrix, rhs)),
        key=lambda pt: (
            tuple(k for k, v in enumerate(pt) if v != 0),
            pt,
        ),
    )
    return MartingalePolytope(
        tuple(
            Measure({leaves[k]: v for k, v in enumerate(pt) if v != 0})
            for pt in ordered
        )
    )


def _basic_points(matrix, rhs):
    """The nonnegative basic solutions of matrix x = rhs as dense tuples,
    one per candidate support of size rank, in `combinations` order;
    degenerate bases repeat a point."""
    n = len(matrix[0])
    rank = len(_eliminate([list(row) for row in matrix], n))
    for support in combinations(range(n), min(rank, n)):
        solution = _solve_exact_columns(matrix, rhs, support)
        if solution is None or any(v < 0 for v in solution):
            continue
        point = [F(0)] * n
        for col, v in zip(support, solution):
            point[col] = v
        yield tuple(point)


def _eliminate(rows: list[list[Fraction]], width: int) -> list[tuple[int, int]]:
    """Gauss-Jordan elimination in place on the first `width` columns (later
    columns ride along); the (row, column) pivots, top row first."""
    pivots: list[tuple[int, int]] = []
    for col in range(width):
        row = len(pivots)
        pivot = next((r for r in range(row, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        top = rows[row]
        for r, other in enumerate(rows):
            if r == row or other[col] == 0:
                continue
            factor = other[col] / top[col]
            for k in range(col, len(top)):
                other[k] -= factor * top[k]
        pivots.append((row, col))
    return pivots


def _solve_exact_columns(matrix, rhs, support) -> list[Fraction] | None:
    """Solve E[:, support] x = rhs; None when the columns are dependent or
    the overdetermined system is inconsistent."""
    k = len(support)
    aug = [[row[c] for c in support] + [b] for row, b in zip(matrix, rhs)]
    pivots = _eliminate(aug, k)
    if len(pivots) < k or any(row[k] != 0 for row in aug[k:]):
        return None
    return [aug[r][k] / aug[r][c] for r, c in pivots]


def one_step_vertices(
    tree: ScenarioTree, mask: SupportMask, node_id: str
) -> list[Measure]:
    """Vertices of a single node's one-step martingale simplex (weights over
    the supported children with zero mean increment), by the same square
    solves as the path-level enumeration."""
    support = mask.node_support[node_id]
    d = tree.dimension
    matrix = [[F(1)] * len(support)]
    rhs = [F(1)]
    for i in range(d):
        matrix.append([tree.increment(node_id, c)[i] for c in support])
        rhs.append(F(0))
    return [
        Measure({support[k]: v for k, v in enumerate(point) if v != 0})
        for point in dict.fromkeys(_basic_points(matrix, rhs))
    ]


@dataclass(frozen=True)
class BrutePrice:
    maximum: Fraction
    argmax: Measure
    minimum: Fraction
    argmin: Measure


def brute_price(polytope: MartingalePolytope, claim: Claim) -> BrutePrice:
    """Exact extremal expectations over the vertex list (linear objectives
    attain their extrema at vertices)."""
    if not polytope.vertices:
        raise EmptyPolytope("no martingale measure exists")
    best = None
    worst = None
    for vertex in polytope.vertices:
        value = sum((w * claim(leaf) for leaf, w in vertex.weights.items()), F(0))
        if best is None or value > best[0]:
            best = (value, vertex)
        if worst is None or value < worst[0]:
            worst = (value, vertex)
    return BrutePrice(best[0], best[1], worst[0], worst[1])
