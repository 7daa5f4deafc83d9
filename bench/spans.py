"""In-memory span recorder, installed from outside the library.

`install` wraps each traced public function in every `robusthedge` module
namespace that binds it (a function imported by name into another module is
wrapped there too), and swaps the thread pool class those modules use for
one that carries the caller's span into pool threads. `uninstall` puts the
original objects back. Spans are kept in memory; `summarize` turns them into
per-layer metrics and `write` dumps them when the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import sys
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter_ns

# (defining module, function) pairs, named "<module>.<function>" in spans.
TRACED = (
    ("cli", "main"),
    ("model", "load_model"),
    ("model", "wealth"),
    ("polar", "compute_support"),
    ("polar", "reference_measure"),
    ("lp", "solve"),
    ("arbitrage", "node_na"),
    ("arbitrage", "scan_nodes"),
    ("arbitrage", "global_na"),
    ("arbitrage", "semistatic_na"),
    ("arbitrage", "find_dominating_mm"),
    ("arbitrage", "martingale_rows"),
    ("arbitrage", "verify_witness"),
    ("superhedge", "node_price"),
    ("superhedge", "superhedge_dynamic"),
    ("superhedge", "superhedge_semistatic"),
    ("superhedge", "dual_price"),
    ("superhedge", "price_interval"),
    ("superhedge", "check_replicable"),
    ("superhedge", "check_complete"),
    ("superhedge", "prove_inequality"),
    ("decompose", "check_supermartingale"),
    ("decompose", "optional_decomposition"),
    ("decompose", "verify_decomposition"),
)

# A solve under one of these is a one-step LP; every other solve is global.
ONE_STEP_PARENTS = ("superhedge.node_price", "arbitrage.node_na")

_parent: contextvars.ContextVar[int] = contextvars.ContextVar("span", default=-1)


class Recorder:
    """Spans as (id, name, parent id, op id, start ns, end ns) tuples, plus
    the size and outcome of every LP handed to `lp.solve`."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.lp_info: dict[int, tuple[int, int, int, str]] = {}
        self.op = -1
        self._ids = itertools.count()

    def wrap(self, name: str, fn, after=None):
        """`fn` recording one span per call; `after(span, args, result)`
        runs once the span is closed (result is None if `fn` raised)."""
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = next(ids)
            parent = _parent.get()
            token = _parent.set(span)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                _parent.reset(token)
                spans.append((span, name, parent, self.op, start, end))
                if after is not None:
                    after(span, args, result)

        return traced

    def after_solve(self, span: int, args, result) -> None:
        prog = args[0]
        constraints = getattr(prog, "constraints", ())
        nnz = sum(1 for con in constraints for c in con.coeffs if c != 0)
        outcome = "error" if result is None else type(result).__name__
        self.lp_info[span] = (len(constraints), len(prog.objective), nnz, outcome)


class _ContextPool(ThreadPoolExecutor):
    """Runs each task in a copy of the submitting thread's context, so spans
    opened in pool threads keep the submitting span as their parent."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "robusthedge" or name.startswith("robusthedge."))
    ]


class Installation:
    """Wraps on `install`, restores every replaced binding on `uninstall`.
    The bindings to replace are found once, when the installation is made."""

    def __init__(self, recorder: Recorder):
        wrapped = {}
        self.missing: list[str] = []
        for mod_name, fn_name in TRACED:
            fn = getattr(sys.modules.get(f"robusthedge.{mod_name}"), fn_name, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            name = f"{mod_name}.{fn_name}"
            after = recorder.after_solve if name == "lp.solve" else None
            wrapped[id(fn)] = (fn, recorder.wrap(name, fn, after))
        wrapped[id(ThreadPoolExecutor)] = (ThreadPoolExecutor, _ContextPool)
        self.bindings: list[tuple[object, str, object, object]] = []
        for module in _modules():
            for attr, value in vars(module).items():
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self.bindings.append((module, attr, value, hit[1]))

    def install(self) -> None:
        for module, attr, _, replacement in self.bindings:
            setattr(module, attr, replacement)

    def uninstall(self) -> None:
        for module, attr, original, _ in self.bindings:
            setattr(module, attr, original)


def summarize(recorder: Recorder, n_ops: int) -> dict[str, float]:
    """Per-layer statistics of one traced cycle of `n_ops` ops.

    For every span name: calls, busy time (spans with no same-name ancestor,
    so a recursive call is not counted twice) and self time (duration minus
    the union of its children's intervals, so overlapping pool threads are
    counted once). Solves are split into one-step LPs (under node_price or
    node_na) and global LPs, with the sizes of the global ones.
    """
    spans = {s[0]: s for s in recorder.spans}
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span, _, parent, _, start, end in spans.values():
        children[parent].append((start, end))

    def ancestors(span):
        parent = spans[span][2]
        while parent in spans:
            yield spans[parent][1]
            parent = spans[parent][2]

    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    per_op_global_na: dict[int, int] = defaultdict(int)
    solves = {"onestep": [0, 0], "global": [0, 0]}  # calls, ns
    sizes = [0, 0, 0]
    outcomes: dict[str, int] = defaultdict(int)
    for span, name, _, op, start, end in spans.values():
        duration = end - start
        calls[name] += 1
        names_above = set(ancestors(span))
        if name not in names_above:
            busy[name] += duration
        self_ns[name] += duration - _coverage(children.get(span, ()))
        if name == "arbitrage.global_na":
            per_op_global_na[op] += 1
        if name == "lp.solve":
            rows, cols, nnz, outcome = recorder.lp_info[span]
            outcomes[outcome] += 1
            kind = "onestep" if names_above.intersection(ONE_STEP_PARENTS) else "global"
            solves[kind][0] += 1
            solves[kind][1] += duration
            if kind == "global":
                sizes[0] += rows
                sizes[1] += cols
                sizes[2] += nnz

    out: dict[str, float] = {}
    for name in calls:
        out[f"{name}.calls_per_op"] = calls[name] / n_ops
        out[f"{name}.ms_per_op"] = busy[name] / 1e6 / n_ops
        out[f"{name}.self_ms_per_op"] = self_ns[name] / 1e6 / n_ops
    for kind, (count, ns) in solves.items():
        out[f"lp.solve.{kind}.calls_per_op"] = count / n_ops
        out[f"lp.solve.{kind}.ms_per_call"] = ns / 1e6 / count if count else 0.0
    n_global = solves["global"][0]
    for k, stat in enumerate(("rows_mean", "cols_mean", "nnz_mean")):
        out[f"lp.solve.global.{stat}"] = sizes[k] / n_global if n_global else 0.0
    n_solves = sum(outcomes.values())
    out["lp.solve.infeasible_frac"] = outcomes["Infeasible"] / n_solves if n_solves else 0.0
    out["lp.solve.unbounded_frac"] = outcomes["Unbounded"] / n_solves if n_solves else 0.0
    out["lp.solve.error_frac"] = outcomes["error"] / n_solves if n_solves else 0.0
    total = sum(per_op_global_na.values())
    repeats = sum(c - 1 for c in per_op_global_na.values())
    out["arbitrage.global_na.repeat_frac"] = repeats / total if total else 0.0
    return out


def is_count(metric: str) -> bool:
    """Metrics that count work; in exact mode they repeat exactly."""
    return not metric.endswith(("ms_per_op", "ms_per_call"))


def _coverage(intervals) -> int:
    covered = 0
    last_end = None
    for start, end in sorted(intervals):
        if last_end is None or start > last_end:
            covered += end - start
            last_end = end
        elif end > last_end:
            covered += end - last_end
            last_end = end
    return covered


def write(recorder: Recorder, ops, path) -> None:
    """One JSON line per op of the cycle, then one per span."""
    with open(path, "w", encoding="utf-8") as handle:
        for k, op in enumerate(ops):
            handle.write(json.dumps({"op": k, "key": op.key}) + "\n")
        for span, name, parent, op, start, end in sorted(recorder.spans):
            handle.write(json.dumps({"span": span, "name": name, "parent": parent,
                                     "op": op, "start_ns": start, "end_ns": end}) + "\n")
