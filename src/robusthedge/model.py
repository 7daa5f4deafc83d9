"""Finite market model: event tree, per-node ambiguity sets, options and claims.

The market lives on a finite scenario tree. Each node carries a d-dimensional
discounted price vector; each non-leaf node carries a finitely generated
ambiguity set (the convex hull of its generator measures) over its children.
Probability weights, prices, option quotes and claim values are exact
rationals; validation happens once at load time and every object is treated
as immutable afterwards, so models are safe to share across threads. The
loader builds the name of a field only when the number in it fails to parse,
and checks each distinct generator row once per document. A tree keeps each
price increment it computes (`ScenarioTree.increment`); two threads
computing the same one store equal values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import TYPE_CHECKING

from .rational import RationalParseError, integer_row, json_float, json_int, to_rational

if TYPE_CHECKING:
    from .polar import SupportMask

# A document may hold at most this many nodes. A valid tree has at least
# horizon + 1 nodes and at most as many leaves as nodes, so the cap bounds
# both as well.
MAX_NODES = 100_000


class MalformedDocument(ValueError):
    """A document the loader cannot use; the message names the field."""


@dataclass(frozen=True)
class Measure:
    """Probability weights by node id: a one-step kernel over a node's
    children or a measure on leaves; nonnegative, summing to 1."""

    weights: dict[str, Fraction]

    def validate(self) -> None:
        for node_id, w in self.weights.items():
            if w.numerator < 0:
                raise ValueError(f"negative weight {w} on {node_id!r}")
        # the sum in integers over the common denominator
        common, numerators = integer_row(self.weights.values())
        total = sum(numerators)
        if total != common:
            raise ValueError(f"weights sum to {Fraction(total, common)}, not 1")

    def __call__(self, node_id: str) -> Fraction:
        return self.weights.get(node_id, Fraction(0))


PathMeasure = Measure  # the name the measure on leaves goes by


@dataclass(frozen=True)
class Node:
    id: str
    level: int
    parent: str | None
    price: tuple[Fraction, ...]
    children: tuple[str, ...]
    # the ambiguity set is their convex hull; empty exactly at leaves
    generators: tuple[Measure, ...]

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class ScenarioTree:
    horizon: int
    dimension: int
    nodes: dict[str, Node]
    root: str
    levels: tuple[tuple[str, ...], ...]  # node ids per level, document order

    @property
    def leaves(self) -> tuple[str, ...]:
        return self.levels[self.horizon]

    @cached_property
    def _increments(self) -> dict[tuple[str, str], tuple[Fraction, ...]]:
        return {}

    def increment(self, parent: str, child: str) -> tuple[Fraction, ...]:
        """Price increment S(child) - S(parent), computed on the first call
        for the pair and kept on the tree, which never changes after load."""
        key = (parent, child)
        step = self._increments.get(key)
        if step is None:
            p = self.nodes[parent].price
            c = self.nodes[child].price
            step = tuple(c[i] - p[i] for i in range(self.dimension))
            self._increments[key] = step
        return step

    def path(self, leaf: str) -> tuple[str, ...]:
        """Node ids from the root to the given leaf, inclusive."""
        ids = [leaf]
        while (parent := self.nodes[ids[-1]].parent) is not None:
            ids.append(parent)
        ids.reverse()
        return tuple(ids)


@dataclass(frozen=True)
class StaticOption:
    """Traded option: raw payoff per leaf plus its time-0 quote.

    The engine works with the normalized payoff (payoff - quote), so the
    normalized quote is always 0.
    """

    name: str
    quote: Fraction
    payoff: dict[str, Fraction]

    def normalized(self, leaf: str) -> Fraction:
        return self.payoff[leaf] - self.quote


@dataclass(frozen=True)
class Claim:
    """Contingent claim: finite value per leaf."""

    values: dict[str, Fraction]

    def __call__(self, leaf: str) -> Fraction:
        return self.values[leaf]


@dataclass(frozen=True)
class Strategy:
    """Semistatic strategy: initial capital, static option positions,
    and a predictable stock position chosen at each non-leaf node.

    Nodes absent from `dynamic` hold the zero position (polar nodes default
    to zero).
    """

    initial: Fraction
    static: tuple[Fraction, ...]
    dynamic: dict[str, tuple[Fraction, ...]] = field(default_factory=dict)

    def position(self, node_id: str, dimension: int) -> tuple[Fraction, ...]:
        return self.dynamic.get(node_id, (Fraction(0),) * dimension)


@dataclass(frozen=True)
class Model:
    """A validated market: tree, traded options, named claims, and the
    optional named adapted processes / path measures the CLI can reference."""

    tree: ScenarioTree
    options: tuple[StaticOption, ...]
    claims: dict[str, Claim]
    processes: dict[str, dict[str, Fraction]]
    measures: dict[str, Measure]


def _reject_constant(token: str) -> None:
    raise MalformedDocument(f"non-finite number {token!r} is not a valid rational")


def _section(doc: dict, key: str, kind: type) -> list | dict:
    """The optional top-level section `key`, empty when absent or null."""
    raw = doc.get(key)
    if raw is None:
        return kind()
    if not isinstance(raw, kind):
        shape = "an array" if kind is list else "an object"
        raise MalformedDocument(f"{key!r} must be {shape} or null")
    return raw


def load_model(text: str) -> Model:
    """Parse and validate a model document (see README for the schema).

    JSON numbers are parsed exactly: decimals through scaled integers,
    never through binary floats. Each numeral string is parsed once per
    document, and the name of the field a number sits in is built only
    when it fails to parse. Each distinct generator row (its raw values in
    document order) is checked for nonnegative weights summing to 1 once
    per document, after every value in it has parsed. Nothing is kept
    between calls.
    """
    try:
        doc = json.loads(
            text,
            parse_float=json_float,
            parse_int=json_int,
            parse_constant=_reject_constant,
        )
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise MalformedDocument("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise MalformedDocument("top level must be an object")

    # each numeral string is read once per document; keyed by strings only,
    # because 1, True and Fraction(1) hash alike
    seen: dict[str, Fraction] = {}

    def rational(raw: object) -> Fraction:
        if type(raw) is not str:
            return to_rational(raw)
        value = seen.get(raw)
        if value is None:
            value = seen[raw] = to_rational(raw)
        return value

    horizon = doc.get("horizon")
    if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 1:
        raise MalformedDocument("'horizon' must be an integer >= 1")

    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise MalformedDocument("'nodes' must be a nonempty array")
    if len(raw_nodes) > MAX_NODES:
        raise MalformedDocument(
            f"'nodes' holds {len(raw_nodes)} nodes, more than the {MAX_NODES} allowed"
        )

    # First pass: identities, levels, parents, prices.
    parsed = []
    ids: set[str] = set()
    for k, entry in enumerate(raw_nodes):
        if not isinstance(entry, dict) or "id" not in entry:
            raise MalformedDocument("every node needs an 'id'")
        node_id = entry["id"]
        if type(node_id) is not str:
            raise MalformedDocument(f"node {k}: 'id' must be a string")
        if node_id in ids:
            raise MalformedDocument(f"duplicate node id {node_id!r}")
        ids.add(node_id)
        level = entry.get("level")
        if not isinstance(level, int) or isinstance(level, bool) or not 0 <= level <= horizon:
            raise MalformedDocument(f"node {node_id!r}: bad level {level!r}")
        parent_id = entry.get("parent")
        if parent_id is not None and type(parent_id) is not str:
            raise MalformedDocument(f"node {node_id!r}: 'parent' must be a string or null")
        raw_price = entry.get("price")
        if not isinstance(raw_price, list) or not raw_price:
            raise MalformedDocument(f"node {node_id!r}: 'price' must be a nonempty array")
        try:
            price = tuple(map(rational, raw_price))
        except RationalParseError as exc:
            raise MalformedDocument(f"node {node_id!r} price: {exc}") from exc
        parsed.append((node_id, level, parent_id, price, entry.get("generators")))

    dimension = doc.get("dimension")
    if dimension is None:
        dimension = len(parsed[0][3])
    elif not isinstance(dimension, int) or isinstance(dimension, bool) or dimension < 1:
        raise MalformedDocument("'dimension' must be an integer >= 1")

    roots = [p for p in parsed if p[2] is None]
    if len(roots) != 1:
        raise MalformedDocument(f"expected exactly one root node, found {len(roots)}")
    root_id, root_level = roots[0][0], roots[0][1]
    if root_level != 0:
        raise MalformedDocument(f"root node {root_id!r} must be at level 0")

    children: dict[str, list[str]] = {p[0]: [] for p in parsed}
    level_of = {p[0]: p[1] for p in parsed}
    for node_id, level, parent_id, price, _ in parsed:
        if len(price) != dimension:
            raise MalformedDocument(
                f"node {node_id!r}: price vector has {len(price)} coordinates, "
                f"expected {dimension}"
            )
        if parent_id is None:
            continue
        if parent_id not in children:
            raise MalformedDocument(f"node {node_id!r}: unknown parent {parent_id!r}")
        if level != level_of[parent_id] + 1:
            raise MalformedDocument(
                f"node {node_id!r}: level {level} is not parent level + 1"
            )
        children[parent_id].append(node_id)

    # Second pass: generators over the now-known children.
    nodes: dict[str, Node] = {}
    zero = Fraction(0)
    # raw weight rows that passed Measure.validate. A row is looked up only
    # after every value in it parsed, so no bool (True hashes like 1),
    # Oversize or unhashable value reaches the lookup.
    valid_rows: set[tuple] = set()
    for node_id, level, parent_id, price, raw_gens in parsed:
        kids = tuple(children[node_id])
        if level == horizon and kids:
            raise MalformedDocument(f"node {node_id!r} at level {horizon} has children")
        if level < horizon and not kids:
            raise MalformedDocument(
                f"node {node_id!r} at level {level} < horizon has no children"
            )
        gens: list[Measure] = []
        if kids:
            if not isinstance(raw_gens, list) or not raw_gens:
                raise MalformedDocument(
                    f"node {node_id!r}: 'generators' must be a nonempty array"
                )
            kid_set = set(kids)
            for g_index, raw_g in enumerate(raw_gens):
                if not isinstance(raw_g, dict):
                    raise MalformedDocument(
                        f"node {node_id!r}: generator {g_index} must be an object"
                    )
                weights: dict[str, Fraction] = {}
                try:
                    # each child is checked before its weight is parsed
                    for child, raw_w in raw_g.items():
                        if child not in kid_set:
                            raise MalformedDocument(
                                f"node {node_id!r}: reference to unknown child {child!r}"
                            )
                        weights[child] = rational(raw_w)
                except RationalParseError as exc:
                    where = f"node {node_id!r} generator {g_index}"
                    raise MalformedDocument(f"{where}: {exc}") from exc
                measure = Measure({c: weights.get(c, zero) for c in kids})
                row = tuple(raw_g.values())
                if row not in valid_rows:
                    try:
                        measure.validate()
                    except ValueError as exc:
                        where = f"node {node_id!r} generator {g_index}"
                        raise MalformedDocument(f"{where}: {exc}") from exc
                    valid_rows.add(row)
                gens.append(measure)
        nodes[node_id] = Node(node_id, level, parent_id, price, kids, tuple(gens))

    levels: list[list[str]] = [[] for _ in range(horizon + 1)]
    for node_id, level, _, _, _ in parsed:
        levels[level].append(node_id)
    tree = ScenarioTree(
        horizon=horizon,
        dimension=dimension,
        nodes=nodes,
        root=root_id,
        levels=tuple(tuple(lv) for lv in levels),
    )
    leaf_set = set(tree.leaves)

    def leaf_map(raw: object, where: str, complete: bool) -> dict[str, Fraction]:
        if not isinstance(raw, dict):
            raise MalformedDocument(f"{where} must be an object of leaf values")
        out: dict[str, Fraction] = {}
        for leaf, val in raw.items():
            if leaf not in leaf_set:
                raise MalformedDocument(f"{where}: {leaf!r} is not a leaf")
            try:
                out[leaf] = rational(val)
            except RationalParseError as exc:
                raise MalformedDocument(f"{where} at leaf {leaf!r}: {exc}") from exc
        if complete:
            for leaf in tree.leaves:
                if leaf not in out:
                    raise MalformedDocument(f"{where}: missing value at leaf {leaf!r}")
            out = {leaf: out[leaf] for leaf in tree.leaves}
        return out

    options: list[StaticOption] = []
    for k, raw_opt in enumerate(_section(doc, "options", list)):
        if not isinstance(raw_opt, dict) or "name" not in raw_opt:
            raise MalformedDocument(f"option {k}: needs 'name', 'quote' and 'payoff'")
        name = raw_opt["name"]
        if type(name) is not str:
            raise MalformedDocument(f"option {k}: 'name' must be a string")
        if any(opt.name == name for opt in options):
            raise MalformedDocument(f"duplicate option name {name!r}")
        if "quote" not in raw_opt:
            raise MalformedDocument(f"option {name!r}: needs a 'quote'")
        try:
            quote = rational(raw_opt["quote"])
        except RationalParseError as exc:
            raise MalformedDocument(f"option {name!r} quote: {exc}") from exc
        payoff = leaf_map(raw_opt.get("payoff"), f"option {name!r} payoff", complete=True)
        options.append(StaticOption(name, quote, payoff))

    claims: dict[str, Claim] = {}
    for name, raw_claim in _section(doc, "claims", dict).items():
        claims[name] = Claim(leaf_map(raw_claim, f"claim {name!r}", complete=True))

    processes: dict[str, dict[str, Fraction]] = {}
    for name, raw_proc in _section(doc, "processes", dict).items():
        if not isinstance(raw_proc, dict):
            raise MalformedDocument(f"process {name!r} must be an object of node values")
        values: dict[str, Fraction] = {}
        for node_id, val in raw_proc.items():
            if node_id not in nodes:
                raise MalformedDocument(f"process {name!r}: unknown node {node_id!r}")
            try:
                values[node_id] = rational(val)
            except RationalParseError as exc:
                where = f"process {name!r} at node {node_id!r}"
                raise MalformedDocument(f"{where}: {exc}") from exc
        processes[name] = values

    measures: dict[str, Measure] = {}
    for name, raw_meas in _section(doc, "measures", dict).items():
        pm = Measure(leaf_map(raw_meas, f"measure {name!r}", complete=False))
        try:
            pm.validate()
        except ValueError as exc:
            raise MalformedDocument(f"measure {name!r}: {exc}") from exc
        measures[name] = pm

    return Model(tree, tuple(options), claims, processes, measures)


def save_model(model: Model) -> str:
    """Emit the document schema with exact "p/q" strings; load_model of the
    result reproduces the model bit-exactly."""
    tree = model.tree
    raw_nodes = []
    for level_ids in tree.levels:
        for node_id in level_ids:
            node = tree.nodes[node_id]
            entry: dict[str, object] = {
                "id": node.id,
                "level": node.level,
                "parent": node.parent,
                "price": [str(p) for p in node.price],
            }
            if node.generators:
                entry["generators"] = [
                    {c: str(g.weights[c]) for c in node.children}
                    for g in node.generators
                ]
            raw_nodes.append(entry)
    doc = {
        "horizon": tree.horizon,
        "dimension": tree.dimension,
        "nodes": raw_nodes,
        "options": [
            {
                "name": opt.name,
                "quote": str(opt.quote),
                "payoff": {leaf: str(opt.payoff[leaf]) for leaf in tree.leaves},
            }
            for opt in model.options
        ],
        "claims": {
            name: {leaf: str(claim.values[leaf]) for leaf in tree.leaves}
            for name, claim in model.claims.items()
        },
        "processes": {
            name: {nid: str(v) for nid, v in vals.items()}
            for name, vals in model.processes.items()
        },
        "measures": {
            name: {leaf: str(w) for leaf, w in pm.weights.items()}
            for name, pm in model.measures.items()
        },
    }
    return json.dumps(doc, indent=2)


def dot(a, b) -> Fraction:
    """Exact inner product, e.g. of a position and a price increment:
    the products added from the first one on, and Fraction(0) for none."""
    products = map(mul, a, b)
    total = next(products, None)
    if total is None:
        return Fraction(0)
    for term in products:
        total += term
    return total


def wealth(
    tree: ScenarioTree,
    strategy: Strategy,
    options: tuple[StaticOption, ...] | list[StaticOption],
    leaf: str,
) -> Fraction:
    """Terminal wealth x + sum_u H_u . dS_u + h . g along the root-to-leaf
    path, with option payoffs normalized by their quotes."""
    node = tree.nodes[leaf]
    if not node.is_leaf:
        raise ValueError(f"{leaf!r} is not a leaf")
    total = strategy.initial
    path = tree.path(leaf)
    for parent_id, child_id in zip(path, path[1:]):
        position = strategy.position(parent_id, tree.dimension)
        step = tree.increment(parent_id, child_id)
        for i in range(tree.dimension):
            total += position[i] * step[i]
    for k, opt in enumerate(options):
        h = strategy.static[k] if k < len(strategy.static) else Fraction(0)
        total += h * opt.normalized(leaf)
    return total


def leaf_wealths(
    tree: ScenarioTree,
    mask: SupportMask,
    strategy: Strategy,
    options: tuple[StaticOption, ...] | list[StaticOption],
) -> dict[str, Fraction]:
    """Terminal wealth, as `wealth` computes it, at every relevant leaf in
    mask.relevant_leaves order: one top-down pass over the relevant tree
    accumulates x + sum_u H_u . dS_u, then the option term is added."""
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
        for h, opt in zip(strategy.static, options):
            total += h * opt.normalized(leaf)
        out[leaf] = total
    return out

