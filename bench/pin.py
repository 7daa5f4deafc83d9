"""Write bench/pins.json: the unique answer fields of every op, per seed.

    python3 bench/pin.py [--seeds 0-4] [--workload NAME ...]

Each op is run once through `robusthedge.cli.main` and its answer is pinned
only if it passes every other check (see checks.py). Float ops are pinned
with the answer of the same op in exact mode, so a run can check its float
answers against exact values within the tolerance. The pins of each
workload named are replaced; those of other workloads are kept.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-4")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    cli = run.fresh_import()
    import checks

    pins = run.load_pins()
    unpinned = 0
    for name in args.workload or workloads.WORKLOADS:
        pins[name] = {}
        for seed in seeds(args.seeds):
            workload = workloads.build(name, seed)
            paths = run.write_docs(name, seed, workload)
            checker = checks.Checker(workload.docs, None, float(workloads.FLOAT_TOL))
            answers = {}
            for op in dict.fromkeys(workload.ops):
                exact = workloads.Op(op.doc, exact_args(op.args))
                code, out, err, _ = run.run_op(cli, exact, paths)
                verdict = checker.check(exact, code, out, err)
                if verdict.kind == checks.OK:
                    answers[op.key] = verdict.answer
                else:
                    unpinned += 1
                    print(f"not pinned: {verdict.kind}: {verdict.message}", file=sys.stderr)
            pins[name][str(seed)] = dict(sorted(answers.items()))
            print(f"{name} seed {seed}: {len(answers)} ops pinned")
    run.PINS.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{unpinned} ops not pinned")
    return 0


def exact_args(args: tuple[str, ...]) -> tuple[str, ...]:
    out = []
    skip = False
    for arg in args:
        if skip:
            skip = False
        elif arg == "--tol":
            skip = True
        elif arg != "--float":
            out.append(arg)
    return tuple(out)


if __name__ == "__main__":
    sys.exit(main())
