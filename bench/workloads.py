"""Seeded model documents and op schedules for the benchmark workloads.

Generation is plain Python over `fractions.Fraction` and never calls the
library, so a change to the engine cannot change the inputs it is measured
on. Each generated document also carries `facts`: what the generator knows
by construction (a martingale measure that prices the options, whether the
stocks are balanced at every node), which the answer checks use as an
independent reference.

An op is one CLI call: a subcommand and its flags, run against one document.
Every op uses default flags only (no `--threads`, `--json` or `--dump-lp`),
so removing such a knob changes neither what is measured nor whether the
benchmark runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

F = Fraction

FLOAT_TOL = "1e-9"


@dataclass(frozen=True)
class Doc:
    name: str
    body: dict  # the JSON document
    facts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    doc: str
    args: tuple[str, ...]  # subcommand first; "--model FILE" is added at run time

    @property
    def key(self) -> str:
        return f"{self.doc}:{' '.join(self.args)}"

    @property
    def command(self) -> str:
        return self.args[0]


@dataclass(frozen=True)
class Workload:
    docs: tuple[Doc, ...]
    ops: tuple[Op, ...]  # one cycle, in the order it is run
    warmup: Op  # run once in set-up: `validate` on the first document, whose
    # cost barely depends on the seed


# --------------------------------------------------------------------------
# tree generation
# --------------------------------------------------------------------------


class _Tree:
    """A scenario tree under construction, with the uniform kernel on each
    node's supported children (a martingale kernel at balanced nodes)."""

    def __init__(self, dim: int):
        self.dim = dim
        self.entry: dict[str, dict] = {}  # JSON node entries, in document order
        self.price: dict[str, tuple[Fraction, ...]] = {}
        self.children: dict[str, list[str]] = {}
        self.support: dict[str, list[str]] = {}
        self.balanced: dict[str, bool] = {}
        self.levels: list[list[str]] = []
        self.parent: dict[str, str | None] = {}

    @property
    def leaves(self) -> list[str]:
        return self.levels[-1]

    def relevant_leaf_mass(self) -> dict[str, Fraction]:
        """Product of the uniform supported-child kernels: positive exactly
        on the relevant leaves."""
        mass = {self.levels[0][0]: F(1)}
        for level in self.levels[:-1]:
            for node in level:
                if node not in mass:
                    continue
                kids = self.support[node]
                for kid in kids:
                    mass[kid] = mass[node] / len(kids)
        return {leaf: mass[leaf] for leaf in self.leaves if leaf in mass}

    def all_balanced_on_relevant(self) -> bool:
        mass = self.relevant_leaf_mass()
        relevant = set()
        for leaf in mass:
            node = leaf
            while node is not None:
                relevant.add(node)
                node = self.parent[node]
        return all(
            self.balanced[n] and len(self.support[n]) == len(self.children[n])
            for n in relevant
            if n in self.support
        )


def _grow(
    shape: random.Random,
    rng: random.Random,
    *,
    horizon: int,
    dim: int,
    branch,  # shape rng -> child count
    balanced_prob: float,
    dirac_prob: float = 0.3,
) -> _Tree:
    """Draw the structure (branching, which nodes are balanced, generator
    supports) from `shape` and the numbers (prices, weights) from `rng`.

    A balanced node gets zero-sum increments plus a uniform full-support
    generator, so it passes local NA. Every other node moves the first price
    coordinate the same way on all its children, so it is an arbitrage
    wherever it is relevant.
    """
    tree = _Tree(dim)
    tree.parent["r"] = None
    root_price = tuple(F(rng.randint(2, 8)) for _ in range(dim))
    tree.price["r"] = root_price
    tree.levels.append(["r"])
    tree.entry["r"] = {"id": "r", "level": 0, "parent": None,
                       "price": [str(x) for x in root_price]}
    counter = 0

    def step(choices=(-2, -1, 0, 1, 2)):
        return F(rng.choice(choices), rng.choice((1, 1, 2)))

    for level in range(1, horizon + 1):
        tree.levels.append([])
        for parent in tree.levels[level - 1]:
            balanced = shape.random() < balanced_prob
            k = branch(shape)
            if balanced:
                k = max(k, 2)
                steps = [[step() for _ in range(dim)] for _ in range(k - 1)]
                steps.append([-sum(s[i] for s in steps) for i in range(dim)])
            else:
                sign = shape.choice((-1, 1))
                steps = [[sign * step((1, 2))] + [step() for _ in range(dim - 1)]
                         for _ in range(k)]
            kids = []
            for s in steps:
                counter += 1
                kid = f"n{counter}"
                kids.append(kid)
                tree.parent[kid] = parent
                tree.price[kid] = tuple(tree.price[parent][i] + s[i] for i in range(dim))
                tree.levels[level].append(kid)
                tree.entry[kid] = {"id": kid, "level": level, "parent": parent,
                                   "price": [str(x) for x in tree.price[kid]]}
            gens = []
            for _ in range(shape.randint(1, 2 if balanced else 3)):
                if shape.random() < dirac_prob:
                    gens.append({kids[shape.randrange(k)]: "1"})
                    continue
                charged = [shape.random() < 0.75 for _ in kids]
                if not any(charged):
                    charged[shape.randrange(k)] = True
                raw = [rng.randint(1, 3) if c else 0 for c in charged]
                total = sum(raw)
                gens.append({c: str(F(w, total)) for c, w in zip(kids, raw) if w})
            if balanced:
                gens.append({c: str(F(1, k)) for c in kids})
            supported = {c for g in gens for c in g}
            tree.children[parent] = kids
            tree.support[parent] = [c for c in kids if c in supported]
            tree.balanced[parent] = balanced
            tree.entry[parent]["generators"] = gens
    return tree


def _expect(mass: dict[str, Fraction], values: dict[str, Fraction]) -> Fraction:
    return sum((w * values[leaf] for leaf, w in mass.items()), F(0))


def _rationals(rng, leaves, lo, hi, dens=(1, 2)) -> dict[str, Fraction]:
    return {leaf: F(rng.randint(lo, hi), rng.choice(dens)) for leaf in leaves}


def _text(values: dict[str, Fraction]) -> dict[str, str]:
    return {k: str(v) for k, v in values.items()}


def _document(tree: _Tree, options, claims, processes=None) -> dict:
    body = {
        "horizon": len(tree.levels) - 1,
        "dimension": tree.dim,
        "nodes": list(tree.entry.values()),
        "options": [
            {"name": name, "quote": str(quote), "payoff": _text(payoff)}
            for name, quote, payoff in options
        ],
        "claims": {name: _text(values) for name, values in claims.items()},
    }
    if processes:
        body["processes"] = {name: _text(v) for name, v in processes.items()}
    return body


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


def _envelope_doc(shape, rng, name: str) -> tuple[Doc, list[Op]]:
    """A random model inside the acceptance envelope: T <= 3, branching <= 4,
    d <= 2, e <= 2, at most 20 leaves. Half the documents quote their
    options at the generator's measure (a martingale measure when every
    relevant node is balanced); the rest quote each option strictly above
    or below its payoff on every relevant leaf, a static arbitrage by
    construction.

    Random quotes inside the payoff range are not drawn: where they admit
    consistent martingale measures but none that charges every relevant
    leaf, `replicate` and `complete` raise `RuntimeError: replication is
    not exact (bug)` (see README), and such failing ops would make the
    failure count of a run depend on how many ops it reached."""
    while True:
        tree = _grow(
            shape,
            rng,
            horizon=shape.randint(1, 3),
            dim=shape.randint(1, 2),
            branch=lambda r: r.randint(1, 4),
            balanced_prob=0.7,
        )
        if len(tree.leaves) <= 20:
            break
    quoted = shape.random() < 0.5
    mass = tree.relevant_leaf_mass()
    options = []
    for k in range(shape.randint(0, 2)):
        payoff = _rationals(rng, tree.leaves, -3, 6)
        if quoted:
            quote = _expect(mass, payoff)
        else:
            gap = F(rng.randint(1, 2), rng.choice((1, 2)))
            relevant = [payoff[leaf] for leaf in mass]
            quote = max(relevant) + gap if rng.random() < 0.5 else min(relevant) - gap
        options.append((f"g{k}", quote, payoff))
    f = _rationals(rng, tree.leaves, -4, 8)
    bound = (min(f.values()) + max(f.values())) / 2
    facts = {"quoted": quoted, "q": mass, "relevant": len(mass),
             "martingale_q": tree.all_balanced_on_relevant()}
    doc = Doc(name, _document(tree, options, {"f": f}), facts)
    ops = [
        Op(name, ("validate",)),
        Op(name, ("na",)),
        Op(name, ("mm",)),
        Op(name, ("price", "--claim", "f")),
        Op(name, ("hedge", "--claim", "f")),
        Op(name, ("interval", "--claim", "f")),
        Op(name, ("replicate", "--claim", "f")),
        Op(name, ("complete",)),
        Op(name, ("prove", "--claim", "f", f"--bound={bound}")),
    ]
    return doc, ops


def _balanced_tree(rng, horizon, dim, branching) -> _Tree:
    return _grow(
        rng,
        rng,
        horizon=horizon,
        dim=dim,
        branch=lambda _r: branching,
        balanced_prob=1.0,
        dirac_prob=0.0,
    )


def _deep_doc(rng: random.Random, name: str, horizon: int, dim: int) -> tuple[Doc, list[Op]]:
    """Stocks only, branching 3, every child supported. The process -S1^2 is
    concave in the price, hence a supermartingale under every martingale
    measure; the bound max(f) always proves."""
    tree = _balanced_tree(rng, horizon, dim, 3)
    f = _rationals(rng, tree.leaves, -4, 8)
    v = {node: -(p[0] * p[0]) for node, p in tree.price.items()}
    mass = tree.relevant_leaf_mass()
    doc = Doc(name, _document(tree, [], {"f": f}, {"v": v}),
              {"q": mass, "relevant": len(mass), "martingale_q": True,
               "supermartingale": True})
    ops = [
        Op(name, ("validate",)),
        Op(name, ("na",)),
        Op(name, ("price", "--claim", "f")),
        Op(name, ("decompose", "--process", "v")),
        Op(name, ("prove", "--claim", "f", f"--bound={max(f.values())}")),
    ]
    return doc, ops


def _option_doc(rng, name, tree: _Tree, n_options: int) -> Doc:
    """Options quoted at the expectation under the generator's full-support
    martingale measure, so the semistatic market is strictly arbitrage-free."""
    mass = tree.relevant_leaf_mass()
    options = []
    for k in range(n_options):
        payoff = _rationals(rng, tree.leaves, -3, 6)
        options.append((f"g{k}", _expect(mass, payoff), payoff))
    f = _rationals(rng, tree.leaves, -4, 8)
    return Doc(name, _document(tree, options, {"f": f}),
               {"quoted": True, "q": mass, "relevant": len(mass), "martingale_q": True})


def _global_doc(rng, name, horizon, dim, branching, n_options) -> tuple[Doc, list[Op]]:
    tree = _balanced_tree(rng, horizon, dim, branching)
    doc = _option_doc(rng, name, tree, n_options)
    ops = [
        Op(name, ("price", "--claim", "f")),
        Op(name, ("hedge", "--claim", "f")),
        Op(name, ("interval", "--claim", "f")),
        Op(name, ("replicate", "--claim", "f")),
        Op(name, ("mm",)),
        Op(name, ("na",)),
    ]
    return doc, ops


def _float_doc(rng, name, horizon, branching, n_options) -> tuple[Doc, list[Op]]:
    tree = _balanced_tree(rng, horizon, 1, branching)
    doc = _option_doc(rng, name, tree, n_options)
    flags = ("--float", "--tol", FLOAT_TOL)
    # no mm: in float mode it fails on most documents of this size, and ran
    # for minutes on another (see README)
    ops = [
        Op(name, ("price", "--claim", "f") + flags),
        Op(name, ("interval", "--claim", "f") + flags),
    ]
    return doc, ops


# Document shapes per workload. The shapes are fixed; the seed draws the
# numbers (increments, generators, payoffs, quotes). Fixing the shapes keeps
# the cost of one cycle nearly the same from seed to seed, so runs on
# different seeds can be compared; many documents per workload keep the
# cost mix of a run from hanging on a few of them. Sizes are chosen so that
# a run of the benchmark's length completes well over 100 ops on every
# workload.
ENVELOPE_DOCS = 120
DEEP_SHAPES = ((4, 1), (4, 2), (4, 1), (4, 2), (5, 1)) * 4  # (horizon, dim)
GLOBAL_SHAPES = ((2, 1, 4, 2), (2, 2, 4, 3), (2, 1, 4, 3), (2, 2, 4, 2)) * 16  # (T, d, branching, options)
FLOAT_SHAPES = ((2, 8), (3, 4), (2, 8), (2, 9)) * 12  # (horizon, branching)


def build(name: str, seed: int) -> Workload:
    """The documents and one cycle of ops of a workload, drawn from `seed`."""
    rng = random.Random(f"{name}:{seed}")
    shape = random.Random(f"{name}:shape")
    docs: list[Doc] = []
    per_doc: list[list[Op]] = []

    def add(pair):
        docs.append(pair[0])
        per_doc.append(pair[1])

    if name == "envelope-mix":
        for k in range(ENVELOPE_DOCS):
            add(_envelope_doc(shape, rng, f"m{k:02d}"))
    elif name == "deep-dp":
        for k, (horizon, dim) in enumerate(DEEP_SHAPES):
            add(_deep_doc(rng, f"d{k:02d}", horizon, dim))
    elif name == "global-lp":
        for k, (horizon, dim, branching, n_options) in enumerate(GLOBAL_SHAPES):
            add(_global_doc(rng, f"g{k:02d}", horizon, dim, branching, n_options))
    elif name == "float-sweep":
        for k, (horizon, branching) in enumerate(FLOAT_SHAPES):
            add(_float_doc(rng, f"s{k:02d}", horizon, branching, 2))
    else:
        raise ValueError(f"unknown workload {name!r}")
    # A run executes a prefix of the cycle whose length depends on the
    # machine's speed. Interleaving keeps the documents and subcommands of
    # every prefix in nearly equal shares: with the documents in a seeded
    # random order, op i runs subcommand (d + i // D) mod C of document
    # d = i mod D, which over the whole cycle is every subcommand of every
    # document once.
    width = len(per_doc[0])
    assert all(len(doc_ops) == width for doc_ops in per_doc)
    count = len(per_doc)
    rng.shuffle(per_doc)
    order = [per_doc[i % count][(i % count + i // count) % width] for i in range(count * width)]
    return Workload(tuple(docs), tuple(order), Op(docs[0].name, ("validate",)))


WORKLOADS = ("envelope-mix", "deep-dp", "global-lp", "float-sweep")
