"""Answer checks for benchmark ops, run after the timed loop with library calls.

Each distinct (op, exit code, output) is checked once. The printed answer is
parsed into its unique fields (verdicts, prices, interval bounds) and
compared with, in order of preference:

- the brute-force vertex oracle, on at most 16 relevant leaves when the
  vertex enumeration is small enough to finish within a run;
- what the generator knows by construction (a full-support martingale
  measure that prices the options, a concave process, a bound that proves);
- a second library route: the LP price against the DP price on stocks-only
  models, the dual LP against the primal one on option models;
- the pinned answers of this seed, when `pins.json` holds them.

Every printed strategy, measure, separator and decomposition is re-verified
in exact arithmetic instead of being pinned, since a degenerate LP may return
another optimal basis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

from robusthedge import (
    EXACT,
    ArbitrageDetected,
    NumericalBreakdown,
    Claim,
    FtapWitness,
    PathMeasure,
    Strategy,
    brute_price,
    compute_support,
    dual_price,
    enumerate_vertices,
    float_mode,
    load_model,
    one_step_vertices,
    reference_measure,
    superhedge_semistatic,
    verify_decomposition,
    verify_witness,
    wealth,
)
from robusthedge.arbitrage import martingale_rows
from robusthedge.decompose import AdaptedProcess, Decomposition

F = Fraction

ORACLE_LEAVES = 16
# Largest number of candidate supports the vertex oracle may try for one
# document; each costs a small exact Gaussian elimination (about 1-4 ms).
ORACLE_SUPPORTS = 400
EXACT_LP_SIZE = 81

OK, FAILED, WRONG = "ok", "failed", "wrong"

NUMERIC_FIELDS = ("price", "lower", "upper", "initial", "expectation")


@dataclass(frozen=True)
class Verdict:
    kind: str  # OK, FAILED (no answer: exit 1 or exception) or WRONG
    message: str = ""
    answer: dict | None = None  # the unique answer fields, for pins


class _Wrong(Exception):
    pass


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise _Wrong(message)


def _number(text: str):
    """A value printed by the CLI: "p/q (=decimal)" in exact mode, a
    decimal in float mode."""
    text = text.strip()
    if " (=" in text:
        return F(text.split(" (=")[0])
    return float(text)


def _text(x) -> str:
    return str(x) if isinstance(x, Fraction) else repr(x)


class _Reference:
    """Lazily computed reference answers for one document."""

    def __init__(self, doc, mode, float_tol: float):
        self.doc = doc
        self.mode = mode  # the lp.Mode the ops of this document run in
        self.float_tol = float_tol
        self.model = load_model(json.dumps(doc.body))
        self.tree = self.model.tree
        self.mask = compute_support(self.tree)
        self.claim = self.model.claims.get("f")

    # -- stocks ----------------------------------------------------------

    @cached_property
    def node_pass(self) -> dict[str, bool]:
        """Local NA per relevant node from the one-step vertex oracle: 0 is
        in the relative interior iff every supported child carries weight in
        some one-step martingale vertex."""
        out = {}
        for node in self.mask.relevant_nonleaf(self.tree):
            covered = set()
            for vertex in one_step_vertices(self.tree, self.mask, node):
                covered.update(c for c, w in vertex.weights.items() if w > 0)
            out[node] = covered == set(self.mask.node_support[node])
        return out

    @cached_property
    def stocks_pass(self) -> bool:
        return all(self.node_pass.values())

    # -- martingale polytope --------------------------------------------

    def _vertices(self, options):
        leaves = len(self.mask.relevant_leaves)
        if leaves > ORACLE_LEAVES:
            return None
        rows = len(martingale_rows(self.tree, self.mask, options))
        if comb(leaves, min(rows, leaves)) > ORACLE_SUPPORTS:
            return None
        return enumerate_vertices(self.tree, self.mask, options)

    @cached_property
    def polytope(self):
        """Vertices with the document's options, or None when the oracle
        is out of reach."""
        return self._vertices(self.model.options)

    @cached_property
    def stock_polytope(self):
        return self._vertices(())

    def full_support(self, polytope) -> bool:
        covered = set()
        for vertex in polytope.vertices:
            covered.update(leaf for leaf, w in vertex.weights.items() if w > 0)
        return covered == set(self.mask.relevant_leaves)

    @cached_property
    def facts_full_support(self) -> bool:
        """The generator's measure is a full-support martingale measure that
        prices every option."""
        facts = self.doc.facts
        return bool(facts.get("martingale_q")) and (
            facts.get("quoted") or not self.model.options
        )

    @cached_property
    def strict_na(self) -> bool | None:
        """Semistatic NA with the options (Stiemke: a consistent martingale
        measure charging every relevant leaf exists)."""
        if self.polytope is not None:
            return bool(self.polytope.vertices) and self.full_support(self.polytope)
        if self.facts_full_support:
            return True
        return None

    # -- prices ----------------------------------------------------------

    @cached_property
    def bounds(self):
        """(lower, upper) expectation of f over the option-constrained
        martingale polytope, or None when it is empty (a denial)."""
        if not self.stocks_pass:
            return None
        if self.polytope is not None:
            if not self.polytope.vertices:
                return None
            extremes = brute_price(self.polytope, self.claim)
            return extremes.minimum, extremes.maximum
        try:
            upper, _ = dual_price(self.tree, self.mask, self.claim, self.model.options, self.mode)
            negated = Claim({leaf: -v for leaf, v in self.claim.values.items()})
            lower, _ = dual_price(self.tree, self.mask, negated, self.model.options, self.mode)
        except ArbitrageDetected:
            return None
        except (NumericalBreakdown, RuntimeError):
            if self.mode.exact:
                raise
            return None, None  # the float dual LP broke down: no reference
        return -lower, upper

    @cached_property
    def stock_upper(self):
        """Superhedging price of f with stocks only: the oracle maximum, or
        else the global-LP price (the CLI prices stocks-only models by the
        backward recursion, so this is the DP-equals-LP check). Past
        EXACT_LP_SIZE leaves times dimensions the exact LP takes seconds,
        so the LP runs in float mode and answers are compared within the
        tolerance."""
        if self.stock_polytope is not None:
            return brute_price(self.stock_polytope, self.claim).maximum
        mode = self.mode
        if len(self.mask.relevant_leaves) * self.tree.dimension > EXACT_LP_SIZE:
            mode = float_mode(self.float_tol)
        try:
            price, _, _ = superhedge_semistatic(self.tree, self.mask, self.claim, (), mode)
        except (NumericalBreakdown, RuntimeError):
            if mode.exact:
                raise
            return None  # the float LP broke down: no reference
        return price

    @property
    def denied(self) -> bool:
        """Pricing ops must deny: the stocks, or the quotes, admit arbitrage."""
        return self.bounds is None if self.model.options else not self.stocks_pass

    def price(self):
        """The reference price of f (None when none is at hand)."""
        return self.bounds[1] if self.model.options else self.stock_upper


class Checker:
    def __init__(self, docs, pins: dict | None, float_tol: float):
        self.docs = {d.name: d for d in docs}
        self.pins = pins or {}
        self.float_tol = float_tol
        self._refs: dict[tuple[str, bool], _Reference] = {}

    def reference(self, name: str, exact: bool) -> _Reference:
        key = (name, exact)
        if key not in self._refs:
            mode = EXACT if exact else float_mode(self.float_tol)
            self._refs[key] = _Reference(self.docs[name], mode, self.float_tol)
        return self._refs[key]

    def check(self, op, code, out: str, err: str) -> Verdict:
        if code == 1 or not isinstance(code, int):
            first = (err.strip().splitlines() or [str(code)])[-1]
            return Verdict(FAILED, f"{op.key}: exit {code}: {first}")
        exact = "--float" not in op.args
        ref = self.reference(op.doc, exact)
        try:
            answer = getattr(self, "_" + op.command)(op, ref, code, out)
            pin = self.pins.get(op.key)
            if pin is not None:
                self._compare_pin(pin, answer, exact)
        except _Wrong as exc:
            return Verdict(WRONG, f"{op.key}: {exc}")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return Verdict(WRONG, f"{op.key}: unreadable output ({exc!r}): {out[:200]!r}")
        return Verdict(OK, answer=answer)

    # -- comparisons -----------------------------------------------------

    def _close(self, got, want) -> bool:
        if isinstance(got, Fraction) and isinstance(want, Fraction):
            return got == want
        return abs(float(got) - float(want)) <= self.float_tol * max(1.0, abs(float(want)))

    def _compare_pin(self, pin: dict, answer: dict, exact: bool) -> None:
        """Exact ops must reproduce the pin. Float ops are pinned with the
        exact answer: numbers must lie within the tolerance, and the interval
        kind is not compared (float bounds of a point may differ in the last
        digits)."""
        _expect(set(pin) == set(answer), f"answer fields {sorted(answer)} != pinned {sorted(pin)}")
        for field, want in pin.items():
            got = answer[field]
            if exact:
                _expect(got == want, f"{field} {got!r} != pinned {want!r}")
            elif field in NUMERIC_FIELDS and want is not None:
                _expect(self._close(float(got), F(want)),
                        f"{field} {got} not within tolerance of pinned {want}")
            elif field != "kind":
                _expect(got == want, f"{field} {got!r} != pinned {want!r}")

    def _denial(self, op, ref, code, out, expected_denied: bool) -> bool:
        """True when the op denied; checks the denial is expected."""
        denied = code == 2 and out.startswith("denied: ")
        _expect(denied == expected_denied,
                f"{'denied' if denied else 'answered'} but the reference "
                f"{'denies' if expected_denied else 'prices'}")
        return denied

    def _check_value(self, got, want, what: str) -> None:
        if want is None:
            return
        _expect(self._close(got, want), f"{what} {got} != reference {want}")

    # -- one method per subcommand ---------------------------------------

    def _validate(self, op, ref, code, out):
        tree = ref.tree
        expected = (
            f"valid model: T={tree.horizon} d={tree.dimension} "
            f"nodes={len(ref.doc.body['nodes'])} leaves={len(tree.leaves)} "
            f"(relevant {ref.doc.facts['relevant']}) "
            f"options={len(ref.doc.body['options'])} claims={len(ref.doc.body['claims'])}"
        )
        _expect(code == 0 and out.strip() == expected, f"summary {out.strip()!r} != {expected!r}")
        return {"code": code, "summary": expected}

    def _na(self, op, ref, code, out):
        lines = out.strip().splitlines()
        _expect(lines[0].split() == ["node", "status", "certificate"], "missing NA table header")
        nodes = {}
        k = 1
        while not lines[k].startswith("stocks-only NA:"):
            node, status, *cert = lines[k].split()
            nodes[node] = status
            if status == "Fail":
                self._check_separator(ref, node, [F(c) for c in cert])
            else:
                _expect(status == "Pass" and cert == ["-"], f"bad row {lines[k]!r}")
            k += 1
        _expect(nodes == {n: "Pass" if ok else "Fail" for n, ok in ref.node_pass.items()},
                "per-node NA verdicts differ from the one-step oracle")
        stocks = lines[k].split(": ")[1]
        _expect(stocks == ("Pass" if ref.stocks_pass else "Fail"), f"stocks-only NA {stocks}")
        semistatic = None
        if ref.model.options:
            semistatic = lines[-1].split(": ")[1]
            _expect(lines[-1].startswith("semistatic NA (with options): "), "missing semistatic verdict")
            if ref.strict_na is not None:
                _expect(semistatic == ("Pass" if ref.strict_na else "Fail"),
                        f"semistatic NA {semistatic}")
        failed = stocks == "Fail" or semistatic == "Fail"
        _expect(code == (2 if failed else 0), f"exit {code} with verdicts {stocks}/{semistatic}")
        return {"code": code, "nodes": nodes, "stocks": stocks, "semistatic": semistatic}

    def _check_separator(self, ref, node, y) -> None:
        products = []
        for child in ref.mask.node_support[node]:
            step = ref.tree.increment(node, child)
            products.append(sum((a * b for a, b in zip(y, step)), F(0)))
        _expect(all(p >= 0 for p in products) and any(p > 0 for p in products),
                f"separator at {node!r} does not certify arbitrage")

    def _mm(self, op, ref, code, out):
        if code == 2:
            _expect(out.strip() == "none exists", "exit 2 without 'none exists'")
            _expect(ref.strict_na is not True, "no dominating measure, but the reference has one")
            return {"code": code, "exists": False}
        _expect(code == 0, f"exit {code}")
        weights = {}
        for line in out.strip().splitlines():
            leaf, value = line.split(": ", 1)
            weights[leaf] = _number(value)
        if ref.mode.exact:
            witness = FtapWitness(PathMeasure(weights), reference_measure(ref.tree))
            problems = verify_witness(ref.tree, ref.mask, ref.model.options, witness)
            _expect(not problems, f"witness fails re-verification: {problems[:2]}")
        _expect(ref.strict_na is not False, "dominating measure printed, but the reference has none")
        return {"code": code, "exists": True}

    def _price(self, op, ref, code, out):
        if self._denial(op, ref, code, out, ref.denied):
            return {"code": code, "denied": True}
        price = _number(out)
        self._check_value(price, ref.price(), "price")
        if ref.doc.facts.get("q") and ref.facts_full_support:
            q = ref.doc.facts["q"]
            floor = sum((w * ref.claim(leaf) for leaf, w in q.items()), F(0))
            _expect(self._close(price, floor) or price > floor,
                    f"price {price} below the generator measure's expectation {floor}")
        return {"code": code, "price": _text(price)}

    def _hedge(self, op, ref, code, out):
        if self._denial(op, ref, code, out, ref.denied):
            return {"code": code, "denied": True}
        raw = json.loads(out)
        strategy = Strategy(
            F(raw["initial"]),
            tuple(F(raw["static"][opt.name]) for opt in ref.model.options),
            {node: tuple(F(v) for v in vec) for node, vec in raw["dynamic"].items()},
        )
        for leaf in ref.mask.relevant_leaves:
            _expect(wealth(ref.tree, strategy, ref.model.options, leaf) >= ref.claim(leaf),
                    f"hedge does not superhedge at leaf {leaf!r}")
        self._check_value(strategy.initial, ref.price(), "hedge cost")
        return {"code": code, "initial": _text(strategy.initial)}

    def _interval(self, op, ref, code, out):
        if self._denial(op, ref, code, out, ref.bounds is None):
            return {"code": code, "denied": True}
        text = out.strip()
        if text.startswith("point "):
            lower = upper = _number(text[len("point "):])
            kind = "Point"
        else:
            _expect(text.startswith("open interval (") and text.endswith(")"), "bad interval")
            lower, upper = (_number(t) for t in _split_pair(text[len("open interval ("):-1]))
            kind = "OpenInterval"
        self._check_interval(ref, lower, upper)
        _expect((kind == "Point") == (lower == upper), "interval kind disagrees with its bounds")
        return {"code": code, "lower": _text(lower), "upper": _text(upper), "kind": kind}

    def _check_interval(self, ref, lower, upper) -> None:
        want_lower, want_upper = ref.bounds
        self._check_value(lower, want_lower, "lower bound")
        self._check_value(upper, want_upper, "upper bound")
        q = ref.doc.facts.get("q")
        if q and ref.facts_full_support:
            mean = sum((w * ref.claim(leaf) for leaf, w in q.items()), F(0))
            _expect((self._close(lower, mean) or lower < mean) and (self._close(upper, mean) or mean < upper),
                    f"generator measure's expectation {mean} outside [{lower}, {upper}]")

    def _replicate(self, op, ref, code, out):
        if self._denial(op, ref, code, out, ref.bounds is None):
            return {"code": code, "denied": True}
        text = out.strip()
        if text.startswith("replicable at "):
            lower = upper = _number(text[len("replicable at "):])
            replicable = True
        else:
            prefix = "not replicable: prices fill ("
            _expect(text.startswith(prefix) and text.endswith(")"), "bad replicate output")
            lower, upper = (_number(t) for t in _split_pair(text[len(prefix):-1]))
            replicable = False
            _expect(lower != upper, "not replicable, yet the price range is a point")
        self._check_interval(ref, lower, upper)
        return {"code": code, "replicable": replicable, "lower": _text(lower), "upper": _text(upper)}

    def _complete(self, op, ref, code, out):
        if self._denial(op, ref, code, out, ref.bounds is None):
            return {"code": code, "denied": True}
        text = out.strip()
        _expect(text in ("complete", "incomplete"), "bad complete output")
        complete = text == "complete"
        if ref.polytope is not None:
            _expect(complete == (len(ref.polytope.vertices) == 1),
                    f"{text}, but the oracle polytope has {len(ref.polytope.vertices)} vertices")
        return {"code": code, "complete": complete}

    def _prove(self, op, ref, code, out):
        if self._denial(op, ref, code, out, not ref.stocks_pass):
            return {"code": code, "denied": True}
        bound = F(_flag(op, "--bound"))
        text = out.strip()
        upper = ref.stock_upper
        if text.startswith("proved: "):
            _expect(code == 0, f"proved with exit {code}")
            _expect(upper is None or upper <= bound or self._close(upper, bound),
                    f"proved, but the price {upper} exceeds the bound")
            return {"code": code, "proved": True, "expectation": None}
        _expect(code == 2 and text.startswith("refuted: expectation "), "bad prove output")
        expectation = _number(text[len("refuted: expectation "):].split(" exceeds ")[0])
        _expect(expectation > bound, "refutation does not beat the bound")
        self._check_value(expectation, upper, "refuting expectation")
        return {"code": code, "proved": False, "expectation": _text(expectation)}

    def _decompose(self, op, ref, code, out):
        name = _flag(op, "--process")
        process = AdaptedProcess(ref.model.processes[name])
        if code == 2 and out.startswith("not a supermartingale"):
            _expect(not ref.doc.facts.get("supermartingale"),
                    "not a supermartingale, but the process is concave in the price")
            return {"code": code, "supermartingale": False}
        if self._denial(op, ref, code, out, not ref.stocks_pass):
            return {"code": code, "denied": True}
        raw = json.loads(out)
        strategy = Strategy(
            process(ref.tree.root), (),
            {node: tuple(F(v) for v in vec) for node, vec in raw["H"].items()},
        )
        consumption = {node: F(v) for node, v in raw["K"].items()}
        problems = verify_decomposition(ref.tree, ref.mask, process,
                                        Decomposition(strategy, consumption))
        _expect(not problems, f"decomposition fails re-verification: {problems[:2]}")
        return {"code": code, "supermartingale": True}


def _flag(op, flag: str) -> str:
    """The value of `flag`, written either "--flag value" or "--flag=value"."""
    for k, arg in enumerate(op.args):
        if arg == flag:
            return op.args[k + 1]
        if arg.startswith(flag + "="):
            return arg[len(flag) + 1:]
    raise KeyError(flag)


def _split_pair(text: str) -> tuple[str, str]:
    """Split "a (=x), b (=y)" or "x, y" at the separating comma."""
    marker = "), " if " (=" in text else ", "
    head, tail = text.split(marker, 1)
    return (head + ")" if marker == "), " else head), tail


