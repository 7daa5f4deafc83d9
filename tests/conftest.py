"""Shared fixtures: the trinomial example model and a seeded instance corpus,
and the exact check of an LP outcome's certificate (`verify`).

Corpus instances stay inside the acceptance envelope (T <= 3, branching <= 4,
d <= 2, e <= 2, <= 4 generators per node) with small rational data so exact
pivoting stays fast.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from robusthedge.lp import Infeasible, LinearProgram, LpOutcome, Optimal, Unbounded
from robusthedge.model import Claim, Measure, Model, ScenarioTree, load_model

DATA = Path(__file__).parent / "data"

F = Fraction


@pytest.fixture(scope="session")
def example_b() -> Model:
    return load_model((DATA / "example_b.json").read_text())


@pytest.fixture(scope="session")
def example_b_text() -> str:
    return (DATA / "example_b.json").read_text()


def count_calls(monkeypatch, module, name: str) -> list[tuple]:
    """Patch module.name to record the positional arguments of each call."""
    calls: list[tuple] = []
    inner = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def count_everywhere(monkeypatch, function) -> list[tuple]:
    """Record, in one list, the positional arguments of each call of
    `function` through every robusthedge module that binds it by name,
    found in sys.modules at run time."""
    name = function.__name__
    calls: list[tuple] = []

    def counting(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("robusthedge") and getattr(module, name, None) is function:
            monkeypatch.setattr(module, name, counting)
    return calls


# where example_b holds a claim value, a price and a quote, and how the
# loader names each of them
NUMBER_FIELDS = {
    "claim": (("claims", "digital", "13"), "claim 'digital' at leaf '13'"),
    "price": (("nodes", 0, "price", 0), "node 'root' price"),
    "quote": (("options", 0, "quote"), "option 'call' quote"),
    "weight": (("nodes", 0, "generators", 0, "8"), "node 'root' generator 0"),
    "measure": (("measures", "uniform", "8"), "measure 'uniform' at leaf '8'"),
}


# where example_b holds a node id, a parent and an option name, and the
# loader's message when one of them is not a JSON string
NAME_FIELDS = {
    "id": (("nodes", 1, "id"), "node 1: 'id' must be a string"),
    "parent": (("nodes", 1, "parent"), "node '8': 'parent' must be a string or null"),
    "name": (("options", 0, "name"), "option 0: 'name' must be a string"),
}


def example_b_with(field: str, literal: str) -> str:
    """example_b's text with one field of NUMBER_FIELDS or NAME_FIELDS set
    to `literal`, written into the JSON as it is (a bare number, or a quoted
    string)."""
    doc = json.loads((DATA / "example_b.json").read_text())
    *path, last = {**NUMBER_FIELDS, **NAME_FIELDS}[field][0]
    slot = doc
    for key in path:
        slot = slot[key]
    slot[last] = "@@"
    return json.dumps(doc).replace('"@@"', literal)


def constant_stock_model(n_leaves: int = 4, price: int = 5) -> Model:
    """One period, constant price, full ambiguity (all Dirac generators)."""
    leaves = [f"w{k}" for k in range(n_leaves)]
    doc = {
        "horizon": 1,
        "nodes": [
            {
                "id": "root",
                "level": 0,
                "parent": None,
                "price": [str(price)],
                "generators": [{leaf: "1"} for leaf in leaves],
            }
        ]
        + [
            {"id": leaf, "level": 1, "parent": "root", "price": [str(price)]}
            for leaf in leaves
        ],
    }
    return load_model(json.dumps(doc))


def grid_market_model(span: int = 1, start: int = 2) -> Model:
    """Two-period recombining walk: children prices = parent price +/- span
    steps, full ambiguity via Dirac generators. Coordinate process fixture."""
    moves = list(range(-span, span + 1))
    nodes = [
        {
            "id": "r",
            "level": 0,
            "parent": None,
            "price": [str(start)],
            "generators": None,
        }
    ]
    level1 = []
    for m1 in moves:
        nid = f"a{m1 + span}"
        level1.append((nid, start + m1))
        nodes.append(
            {"id": nid, "level": 1, "parent": "r", "price": [str(start + m1)]}
        )
    level2 = []
    for nid, p1 in level1:
        for m2 in moves:
            leaf = f"{nid}b{m2 + span}"
            level2.append((leaf, nid, p1 + m2))
            nodes.append(
                {"id": leaf, "level": 2, "parent": nid, "price": [str(p1 + m2)]}
            )
    nodes[0]["generators"] = [{nid: "1"} for nid, _ in level1]
    for nid, _ in level1:
        kids = [leaf for leaf, parent, _ in level2 if parent == nid]
        for entry in nodes:
            if entry["id"] == nid:
                entry["generators"] = [{leaf: "1"} for leaf in kids]
    doc = {"horizon": 2, "nodes": nodes}
    return load_model(json.dumps(doc))


def random_instance(
    rng: random.Random,
    *,
    max_depth: int = 3,
    max_branch: int = 4,
    max_dim: int = 2,
    max_options: int = 2,
    max_leaves: int = 20,
    mm_quotes: bool = False,
) -> Model:
    """Draw a model inside the acceptance envelope.

    With mm_quotes, option quotes are expectations under a full-support
    martingale measure whenever one exists (keeps quotes arbitrage-free on
    NA-passing trees); otherwise quotes are small random rationals.
    """
    for _ in range(200):
        model = _try_random_instance(rng, max_depth, max_branch, max_dim, max_options)
        if len(model.tree.leaves) <= max_leaves:
            break
    if mm_quotes and model.options:
        model = _reprice_options(model, rng)
    return model


def _try_random_instance(rng, max_depth, max_branch, max_dim, max_options) -> Model:
    horizon = rng.randint(1, max_depth)
    dim = rng.randint(1, max_dim)
    counter = 0
    nodes = [("r", 0, None, [F(rng.randint(2, 8)) for _ in range(dim)])]
    frontier = [("r", nodes[0][3])]
    children_of: dict[str, list[str]] = {"r": []}
    generators_of: dict[str, list[dict[str, str]]] = {}

    def increment():
        return F(rng.choice([-2, -1, 0, 1, 2]), rng.choice([1, 1, 2]))

    for level in range(1, horizon + 1):
        next_frontier = []
        for parent, parent_price in frontier:
            # a "balanced" node gets zero-sum increments plus a full-support
            # generator, so it passes local NA by construction; the rest are
            # unconstrained and often produce arbitrage
            balanced = rng.random() < 0.7
            branch = rng.randint(2 if balanced else 1, max_branch)
            steps = [[increment() for _ in range(dim)] for _ in range(branch - 1)]
            if balanced:
                steps.append([-sum(s[i] for s in steps) for i in range(dim)])
            else:
                steps.append([increment() for _ in range(dim)])
            kids = []
            for step in steps:
                counter += 1
                nid = f"n{counter}"
                price = [parent_price[i] + step[i] for i in range(dim)]
                nodes.append((nid, level, parent, price))
                children_of.setdefault(parent, []).append(nid)
                children_of[nid] = []
                kids.append(nid)
                next_frontier.append((nid, price))
            gens = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.3:
                    gens.append({rng.choice(kids): "1"})  # Dirac: polar mass
                    continue
                raw = [rng.randint(0, 3) for _ in kids]
                if sum(raw) == 0:
                    raw[rng.randrange(len(kids))] = 1
                total = sum(raw)
                gens.append({k: str(F(w, total)) for k, w in zip(kids, raw) if w})
            if balanced:
                gens.append({k: str(F(1, len(kids))) for k in kids})
            generators_of[parent] = gens
        frontier = next_frontier

    raw_nodes = []
    for nid, level, parent, price in nodes:
        entry = {
            "id": nid,
            "level": level,
            "parent": parent,
            "price": [str(x) for x in price],
        }
        if children_of.get(nid):
            entry["generators"] = generators_of[nid]
        raw_nodes.append(entry)

    leaves = [nid for nid, level, _, _ in nodes if level == horizon]
    n_options = rng.randint(0, max_options)
    options = []
    for k in range(n_options):
        payoff = {leaf: str(F(rng.randint(-3, 6), rng.choice([1, 2]))) for leaf in leaves}
        quote = str(F(rng.randint(-2, 4), rng.choice([1, 2])))
        options.append({"name": f"g{k}", "quote": quote, "payoff": payoff})
    claims = {
        "f": {leaf: str(F(rng.randint(-4, 8), rng.choice([1, 2]))) for leaf in leaves}
    }
    doc = {
        "horizon": horizon,
        "dimension": dim,
        "nodes": raw_nodes,
        "options": options,
        "claims": claims,
    }
    return load_model(json.dumps(doc))


def _reprice_options(model: Model, rng: random.Random) -> Model:
    """Quote each option at its expectation under a full-support martingale
    measure of the stocks-only market, when such a measure exists."""
    from robusthedge.arbitrage import find_dominating_mm
    from robusthedge.polar import compute_support, reference_measure

    mask = compute_support(model.tree)
    p_hat = reference_measure(model.tree)
    witness = find_dominating_mm(model.tree, mask, (), p_hat)
    if witness is None:
        return model
    q = witness.q
    options = tuple(
        type(opt)(
            opt.name,
            sum((q(leaf) * opt.payoff[leaf] for leaf in model.tree.leaves), F(0)),
            opt.payoff,
        )
        for opt in model.options
    )
    return Model(model.tree, options, model.claims, model.processes, model.measures)


def node_mass(tree: ScenarioTree, measure: Measure) -> dict[str, Fraction]:
    """Total leaf mass under every node (root mass is 1 for a probability)."""
    mass: dict[str, Fraction] = {leaf: measure(leaf) for leaf in tree.leaves}
    for level in range(tree.horizon - 1, -1, -1):
        for node_id in tree.levels[level]:
            mass[node_id] = sum(
                (mass[c] for c in tree.nodes[node_id].children), Fraction(0)
            )
    return mass


def random_claim(rng: random.Random, model: Model) -> Claim:
    return Claim(
        {
            leaf: F(rng.randint(-5, 9), rng.choice([1, 2, 3]))
            for leaf in model.tree.leaves
        }
    )


# --------------------------------------------------------------------------
# certificate verification
# --------------------------------------------------------------------------


def verify_optimal(lp: LinearProgram, out: Optimal) -> list[str]:
    """Return a list of violations (empty list = certificate checks out)."""
    bad: list[str] = []
    x = out.primal
    y = out.dual
    for j in range(lp.n):
        lo, up = lp.lower[j], lp.upper[j]
        if lo is not None and x[j] < lo:
            bad.append(f"x[{j}] below lower bound")
        if up is not None and x[j] > up:
            bad.append(f"x[{j}] above upper bound")
    for i, con in enumerate(lp.constraints):
        lhs = sum(a * xv for a, xv in zip(con.coeffs, x))
        if con.relation == "<=" and lhs > con.rhs:
            bad.append(f"row {i} violated")
        if con.relation == ">=" and lhs < con.rhs:
            bad.append(f"row {i} violated")
        if con.relation == "=" and lhs != con.rhs:
            bad.append(f"row {i} violated")
        if y[i] * (lhs - con.rhs) != 0:
            bad.append(f"row {i} complementary slackness violated")
        want_nonneg = (con.relation == ">=") != lp.maximize
        if con.relation != "=":
            if want_nonneg and y[i] < 0:
                bad.append(f"row {i} dual sign violated")
            if not want_nonneg and y[i] > 0:
                bad.append(f"row {i} dual sign violated")
    reduced = []
    for j in range(lp.n):
        r = lp.objective[j] - sum(
            y[i] * lp.constraints[i].coeffs[j] for i in range(len(lp.constraints))
        )
        reduced.append(r)
        lo, up = lp.lower[j], lp.upper[j]
        at_lo = lo is not None and x[j] == lo
        at_up = up is not None and x[j] == up
        if at_lo and at_up:
            continue
        sign_lo, sign_up = r >= 0, r <= 0  # min sense
        if lp.maximize:
            sign_lo, sign_up = sign_up, sign_lo
        if at_lo and not sign_lo:
            bad.append(f"reduced cost sign at lower bound of x[{j}]")
        elif at_up and not sign_up:
            bad.append(f"reduced cost sign at upper bound of x[{j}]")
        elif not at_lo and not at_up and r != 0:
            bad.append(f"reduced cost of interior x[{j}] not zero")
    if out.value != sum(c * xv for c, xv in zip(lp.objective, x)):
        bad.append("reported value differs from objective at primal")
    dual_value = sum(y[i] * lp.constraints[i].rhs for i in range(len(lp.constraints)))
    dual_value += sum(reduced[j] * x[j] for j in range(lp.n))
    if out.value != dual_value:
        bad.append("strong duality identity violated")
    return bad


def verify_infeasible(lp: LinearProgram, out: Infeasible) -> list[str]:
    cert = out.certificate
    bad: list[str] = []
    for i, con in enumerate(lp.constraints):
        s = cert.rows[i]
        if con.relation == "<=" and s > 0:
            bad.append(f"multiplier sign on <= row {i}")
        if con.relation == ">=" and s < 0:
            bad.append(f"multiplier sign on >= row {i}")
    for j in range(lp.n):
        if cert.lower[j] < 0 or cert.upper[j] < 0:
            bad.append(f"bound multiplier sign for x[{j}]")
        if lp.lower[j] is None and cert.lower[j] != 0:
            bad.append(f"lower multiplier on unbounded-below x[{j}]")
        if lp.upper[j] is None and cert.upper[j] != 0:
            bad.append(f"upper multiplier on unbounded-above x[{j}]")
        combo = sum(
            cert.rows[i] * lp.constraints[i].coeffs[j]
            for i in range(len(lp.constraints))
        )
        combo += cert.lower[j] - cert.upper[j]
        if combo != 0:
            bad.append(f"aggregated coefficient of x[{j}] does not vanish")
    total = sum(
        cert.rows[i] * lp.constraints[i].rhs for i in range(len(lp.constraints))
    )
    for j in range(lp.n):
        if cert.lower[j] != 0:
            total += cert.lower[j] * lp.lower[j]
        if cert.upper[j] != 0:
            total -= cert.upper[j] * lp.upper[j]
    if total <= 0:
        bad.append("aggregated right-hand side not positive")
    return bad


def verify_unbounded(lp: LinearProgram, out: Unbounded) -> list[str]:
    bad: list[str] = []
    x, r = out.base, out.ray
    for j in range(lp.n):
        lo, up = lp.lower[j], lp.upper[j]
        if lo is not None and (x[j] < lo or r[j] < 0):
            bad.append(f"base/ray violates lower bound of x[{j}]")
        if up is not None and (x[j] > up or r[j] > 0):
            bad.append(f"base/ray violates upper bound of x[{j}]")
    for i, con in enumerate(lp.constraints):
        lhs = sum(a * xv for a, xv in zip(con.coeffs, x))
        step = sum(a * rv for a, rv in zip(con.coeffs, r))
        if con.relation == "<=" and (lhs > con.rhs or step > 0):
            bad.append(f"ray leaves <= row {i}")
        if con.relation == ">=" and (lhs < con.rhs or step < 0):
            bad.append(f"ray leaves >= row {i}")
        if con.relation == "=" and (lhs != con.rhs or step != 0):
            bad.append(f"ray leaves = row {i}")
    gain = sum(c * rv for c, rv in zip(lp.objective, r))
    if not (gain > 0 if lp.maximize else gain < 0):
        bad.append("ray does not improve the objective")
    return bad


def verify(lp: LinearProgram, out: LpOutcome) -> list[str]:
    """Exact check of an outcome's certificate; empty list = sound."""
    if isinstance(out, Optimal):
        return verify_optimal(lp, out)
    if isinstance(out, Infeasible):
        return verify_infeasible(lp, out)
    return verify_unbounded(lp, out)
