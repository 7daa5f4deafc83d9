"""Benchmark: robusthedge CLI queries, end to end and layer by layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Drives `robusthedge.cli.main(argv)` in-process, one op (one subcommand on
one generated document) at a time: a closed loop with a single caller. The
documents are generated from the seed and written under `.bench_work/`
before timing; each op loads its document from disk, as a CLI user would.
Answers are checked after the timed loop (see checks.py).

--trace 0 prints the end-to-end metrics. Their times are taken at a
reference CPU speed: a fixed calibration loop runs before every op and
around every set-up, and each wall time is rescaled by how long the loop
took around it, so that a shared host slowing every process down for a
minute (by up to 1.7x on a 2-core virtual machine) does not read as a
slower program. The wall figures are printed beside them.

--trace 1 runs passes over the workload's op cycle in which every op runs
once untraced and once traced, checks that every work counter repeats
exactly between passes, and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PINS = Path(__file__).resolve().parent / "pins.json"

SETUP_REPEATS = 11
SETUP_UNITS = 5  # calibration units timed before and after each set-up
# One calibration unit takes this long at the reference speed (about an
# uncontended core of a 2-core x86-64 virtual machine under CPython 3.11).
REF_UNIT_S = 0.0015
CAL_WINDOW = 5  # an op is rescaled by the median of the 2 * 5 + 1 nearest units
MIN_TAIL_OPS = 100  # p90 needs at least 10 samples beyond it
TRACE_OPS = 96  # a traced pass runs at most this prefix of the op cycle


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


def check_declared() -> None:
    """The metrics this script reports must be the ones BENCHMARK.json
    declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end, per_layer = layers.benchmark_entries()
    if declared["end_to_end"] != end_to_end or declared["per_layer"] != per_layer:
        raise BenchError("BENCHMARK.json metrics differ from bench/layers.py")


def fresh_import():
    """Import robusthedge from this checkout's src/ as a fresh process
    would; returns the cli module."""
    for name in [n for n in sys.modules if n == "robusthedge" or n.startswith("robusthedge.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("robusthedge")
    if Path(package.__file__).resolve().parent != SRC / "robusthedge":
        raise BenchError(f"robusthedge imported from {package.__file__}, not from {SRC}")
    return importlib.import_module("robusthedge.cli")


def write_docs(name: str, seed: int, workload) -> dict[str, Path]:
    folder = WORK / f"{name}-{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    paths = {}
    for doc in workload.docs:
        path = folder / f"{doc.name}.json"
        path.write_text(json.dumps(doc.body, indent=1), encoding="utf-8")
        paths[doc.name] = path
    return paths


def calibration_unit() -> float:
    """Seconds taken by a fixed piece of pure-Python Fraction arithmetic,
    the kind of work the engine does; it never touches robusthedge."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i)
    return time.perf_counter() - start


def at_reference_speed(seconds: list[float], units: list[float]) -> list[float]:
    """Each op's wall time rescaled by the median calibration unit among the
    ops around it: the time the op takes when a unit takes REF_UNIT_S."""
    scaled = []
    for i, took in enumerate(seconds):
        local = statistics.median(units[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 1])
        scaled.append(took * REF_UNIT_S / local)
    return scaled


def run_op(cli, op, paths) -> tuple[object, str, str, float]:
    """One CLI call; returns (exit code or failure tag, stdout, stderr, s)."""
    argv = [op.args[0], "--model", str(paths[op.doc]), *op.args[1:]]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = f"usage exit {exc.code}"
    except Exception:
        code = "exception"
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def setup(name: str, seed: int):
    """Import, generate and write the documents, run one warm-up op.
    Returns the wall time with what it set up."""
    start = time.perf_counter()
    cli = fresh_import()
    workload = workloads.build(name, seed)
    paths = write_docs(name, seed, workload)
    run_op(cli, workload.warmup, paths)
    return time.perf_counter() - start, cli, workload, paths


class Outcomes:
    """Distinct (op, exit code, output) results with how often each came
    back; each distinct result is checked once, after timing."""

    def __init__(self) -> None:
        self.counts: dict[tuple, int] = {}
        self._keys: dict[tuple, tuple] = {}

    def add(self, index: int, code, out: str, err: str) -> tuple:
        """Counts the result; returns one shared key per distinct result."""
        key = self._keys.setdefault((index, code, out, err), (index, code, out, err))
        self.counts[key] = self.counts.get(key, 0) + 1
        return key

    def check(self, workload, seed: int, name: str) -> dict:
        """The verdict on each distinct result."""
        import checks  # imports robusthedge, so only after the final setup

        pins = load_pins().get(name, {}).get(str(seed))
        checker = checks.Checker(workload.docs, pins, float(workloads.FLOAT_TOL))
        verdicts = {}
        for key in self.counts:
            index, code, out, err = key
            verdicts[key] = checker.check(workload.ops[index], code, out, err)
        return verdicts


def load_pins() -> dict:
    if not PINS.exists():
        return {}
    return json.loads(PINS.read_text(encoding="utf-8"))


def tally(outcomes: Outcomes, verdicts) -> tuple[int, int, bool, list[str]]:
    attempted = failed = 0
    correct = True
    messages = []
    for key, count in outcomes.counts.items():
        verdict = verdicts[key]
        attempted += count
        if verdict.kind != "ok":
            failed += count
            messages.append(f"{verdict.kind}: {verdict.message}")
        if verdict.kind == "wrong":
            correct = False
    return attempted, failed, correct, messages


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def end_to_end(args, setups, cli, workload, paths) -> tuple[dict, Outcomes, dict]:
    ops = workload.ops
    outcomes = Outcomes()
    keys: list[tuple] = []
    seconds: list[float] = []
    units: list[float] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    # A host slowdown can leave a run short of the ops op_p90_ms needs; the
    # loop then goes on until it has them, for at most three run lengths.
    limit = start + 3 * args.seconds
    k = 0
    while time.perf_counter() < deadline or (k < MIN_TAIL_OPS and time.perf_counter() < limit):
        index = k % len(ops)
        units.append(calibration_unit())
        code, out, err, took = run_op(cli, ops[index], paths)
        seconds.append(took)
        keys.append(outcomes.add(index, code, out, err))
        k += 1
    rss = peak_rss_mb()
    if len(keys) < MIN_TAIL_OPS:
        raise BenchError(
            f"only {len(keys)} ops completed in {3 * args.seconds} s; op_p90_ms needs "
            f"at least {MIN_TAIL_OPS}"
        )
    verdicts = outcomes.check(workload, args.seed, args.workload)
    passed = [verdicts[key].kind == "ok" for key in keys]
    scaled = at_reference_speed(seconds, units)
    metrics = {
        "ref_ops_per_s": sum(passed) / sum(scaled),
        "ref_op_p50_ms": 1000 * statistics.median(scaled),
        "ref_op_p90_ms": 1000 * statistics.quantiles(scaled, n=10)[8],
        "ok_frac": sum(passed) / len(keys),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    wall = {
        "ops_per_s": sum(passed) / sum(seconds),
        "op_p50_ms": 1000 * statistics.median(seconds),
        "op_p90_ms": 1000 * statistics.quantiles(seconds, n=10)[8],
    }
    print(f"{args.workload:>12} latency samples: {len(keys)} "
          f"(op percentiles are taken over all of them)")
    print(f"{args.workload:>12} calibration unit: median {statistics.median(units) * 1000:.4g} ms, "
          f"reference {REF_UNIT_S * 1000:.4g} ms")
    for name, unit in (("ops_per_s", "ops/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms")):
        print(f"{args.workload:>12} {name + ' (wall)':<50} {wall[name]:12.6g} {unit}")
    return metrics, outcomes, verdicts


def traced_pass(spans, cli, ops, paths, outcomes: Outcomes):
    """Runs every op twice, untraced and traced, alternating which goes
    first, so both timings see the same state of the machine. Returns the
    recorder and the untraced and traced seconds."""
    recorder = spans.Recorder()
    installation = spans.Installation(recorder)
    if installation.missing:
        print(f"not traced (absent): {', '.join(installation.missing)}", file=sys.stderr)
    seconds = [0.0, 0.0]
    for index, op in enumerate(ops):
        recorder.op = index
        for traced in (False, True) if index % 2 == 0 else (True, False):
            if traced:
                installation.install()
            try:
                code, out, err, took = run_op(cli, op, paths)
            finally:
                installation.uninstall()
            seconds[traced] += took
            outcomes.add(index, code, out, err)
    return recorder, seconds[0], seconds[1]


def per_layer(args, cli, workload, paths) -> tuple[dict, Outcomes, dict]:
    """Traced passes over the op cycle (at most TRACE_OPS of it) until the
    run length is used and at least two passes are done."""
    import spans

    ops = workload.ops[:TRACE_OPS]
    outcomes = Outcomes()
    untraced = traced = 0.0
    summaries: list[dict] = []
    first = None
    deadline = time.perf_counter() + args.seconds
    while len(summaries) < 2 or time.perf_counter() < deadline:
        recorder, plain_s, traced_s = traced_pass(spans, cli, ops, paths, outcomes)
        untraced += plain_s
        traced += traced_s
        summaries.append(spans.summarize(recorder, len(ops)))
        if first is None:
            first = recorder
    counts = [{m: v for m, v in s.items() if spans.is_count(m)} for s in summaries]
    for later in counts[1:]:
        if later != counts[0]:
            drift = sorted(m for m in set(later) | set(counts[0]) if later.get(m) != counts[0].get(m))
            raise BenchError(f"work counters differ between traced passes: {drift[:8]}")
    WORK.mkdir(parents=True, exist_ok=True)
    spans.write(first, ops, WORK / f"trace-{args.workload}-{args.seed}.jsonl")
    metrics = {}
    for name, *_ in layers.PER_LAYER:
        if name == "trace.overhead_frac":
            metrics[name] = 1 - untraced / traced
        else:
            metrics[name] = statistics.median(s.get(name, 0.0) for s in summaries)
    verdicts = outcomes.check(workload, args.seed, args.workload)
    print(f"traced passes: {len(summaries)}, ops per pass: {len(ops)}, "
          f"untraced {untraced:.3f} s, traced {traced:.3f} s")
    return metrics, outcomes, verdicts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.environ.pop("ROBUSTHEDGE_MODE", None)
    sys.path.insert(0, str(SRC))
    try:
        check_declared()
        setups, walls = [], []
        for _ in range(SETUP_REPEATS):
            units = [calibration_unit() for _ in range(SETUP_UNITS)]
            seconds, cli, workload, paths = setup(args.workload, args.seed)
            units += [calibration_unit() for _ in range(SETUP_UNITS)]
            setups.append(seconds * REF_UNIT_S / statistics.median(units))
            walls.append(seconds)
        print(f"{args.workload:>12} {'setup_s (wall)':<50} {statistics.median(walls):12.6g} s")
        if args.trace:
            metrics, outcomes, verdicts = per_layer(args, cli, workload, paths)
        else:
            metrics, outcomes, verdicts = end_to_end(args, setups, cli, workload, paths)
    except (BenchError, ImportError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, correct, messages = tally(outcomes, verdicts)
    for message in sorted(set(messages)):
        print(message, file=sys.stderr)
    units = dict((n, u) for n, u, *_ in layers.END_TO_END + layers.PER_LAYER)
    for name, value in metrics.items():
        print(f"{args.workload:>12} {name:<50} {value:12.6g} {units[name]}")
    print(f"{args.workload:>12} {'failed_frac':<50} {failed / attempted:12.6g} ratio"
          f"  ({failed} of {attempted} ops; correct={correct})")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
