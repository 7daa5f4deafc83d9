"""Compare two source trees op by op on one benchmark op cycle.

    python3 tools/same_answers.py BASE_SRC NEW_SRC --workload W [--seed S] [--fewer-lps]

BASE_SRC and NEW_SRC are directories that contain a `robusthedge` package
(the `src/` folder of two checkouts). For each of them, a fresh Python
process builds the documents and the full op cycle of workload W from
`bench/workloads.py` (seed S), writes the documents to a temporary folder,
and runs every op through `robusthedge.cli.main` in order, twice: as the
workload gives it and again with `--json`, both with `--dump-lp` on. The
two trees are then compared run by run on the exit code, standard output
(a `"wall_time_s"` value is masked), standard error and the dumped LP
text, so the fields only the JSON report carries are compared too. The
first run that differs is printed and the exit code is 1; when no run
differs the exit code is 0.

Each worker then runs `validate` on MUTANTS seeded one-value mutations of
the workload's documents, taken in turn. A mutation replaces one value of a
document (a scalar, an array or an object, anywhere in it) and never
deletes a key: by null, a bool, `[]`, `"x"`, `"1/0"`, `"1e5000"`, a bare
1e5000, -1, a generator with one child renamed to an unknown id, or a
generator with one weight changed so that the row is no longer
normalized. A draw that leaves the text unchanged is drawn again. These
runs are compared the same way, so the loader's and the support mask's
errors must match byte for byte too.

With `--fewer-lps` the new run may solve fewer LPs: per run, its LP dump
must be an ordered subsequence of the base run's (LPs may only disappear,
and each one left is byte-identical), while the exit code, standard output
and standard error must still match exactly.

The LP count is printed twice: the total over both runs of every op, and,
in brackets, the plain runs alone, which is the count of one op cycle as the
benchmark runs it. With `--fewer-lps` both counts are printed for each tree.

`bench/` is only imported, never changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import re
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WALL = re.compile(r'("wall_time_s": )[-+0-9.eE]+')
MUTANTS = 480  # validate runs on mutated documents per worker, a few seconds
BARE = "@@bare 1e5000@@"  # written into the JSON text as the numeral 1e5000
REPLACEMENTS = (None, True, False, [], "x", "1/0", "1e5000", BARE, -1)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _slots(value, path=()):
    """The path of every value below the top of a JSON document."""
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _slots(child, path + (key,))


def mutate(body: dict, rng: random.Random) -> tuple[str, str]:
    """One mutation of a document: (what was changed, the mutated JSON text).
    A draw that leaves the text as it was (null on the root's parent, say)
    is drawn again; texts are compared, not values, because True == 1."""
    original = json.dumps(body, indent=1)
    while True:
        change, text = _draw(body, rng)
        if text != original:
            return change, text


def _draw(body: dict, rng: random.Random) -> tuple[str, str]:
    doc = json.loads(json.dumps(body))
    generators = [("nodes", i, "generators", k)
                  for i, node in enumerate(doc["nodes"])
                  for k, row in enumerate(node.get("generators") or ()) if row]
    kind = rng.randrange(len(REPLACEMENTS) + 2)
    if kind < len(REPLACEMENTS) or not generators:
        path = rng.choice(list(_slots(doc)))
        new = REPLACEMENTS[kind % len(REPLACEMENTS)]
        label = "1e5000 (bare)" if new == BARE else json.dumps(new)
    else:
        path = rng.choice(generators)
        row = doc["nodes"][path[1]]["generators"][path[3]]
        child = rng.choice(list(row))
        if kind == len(REPLACEMENTS):
            new = {("zz-unknown" if key == child else key): w for key, w in row.items()}
            label = f"child {child!r} renamed to 'zz-unknown'"
        else:
            new = {**row, child: "3/7" if row[child] != "3/7" else "4/7"}
            label = f"weight of {child!r} set to {new[child]}"
    *parent, last = path
    slot = doc
    for key in parent:
        slot = slot[key]
    slot[last] = new
    text = json.dumps(doc, indent=1).replace(json.dumps(BARE), "1e5000")
    return f"{'/'.join(map(str, path))} = {label}", text


def mutants(docs: list, workload: str, seed: int):
    """The worker's MUTANTS mutations, taken from `docs` in turn:
    (document, what was changed, the mutated JSON text)."""
    rng = random.Random(f"{workload} {seed}")
    for index in range(MUTANTS):
        doc = docs[index % len(docs)]
        yield (doc, *mutate(doc.body, rng))


def _run(cli, argv: list[str]) -> tuple[object, str, str]:
    """One CLI call: (exit code or failure tag, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = f"usage exit {exc.code}"
    except Exception:
        code = "exception"
        err.write(traceback.format_exc())
    return code, WALL.sub(r"\1<masked>", out.getvalue()), err.getvalue()


def run_cycle(src: str, workload: str, seed: int) -> None:
    """Worker: run the op cycle, then the mutants, against `src`, one JSON
    line per run."""
    sys.path[:0] = [src, str(BENCH)]
    import workloads
    from robusthedge import cli

    package = Path(sys.modules["robusthedge"].__file__).resolve().parent
    if package != (Path(src) / "robusthedge").resolve():
        raise SystemExit(f"robusthedge imported from {package}, not from {src}")
    plan = workloads.build(workload, seed)
    with tempfile.TemporaryDirectory() as folder:
        paths = {}
        for doc in plan.docs:
            paths[doc.name] = Path(folder) / f"{doc.name}.json"
            paths[doc.name].write_text(json.dumps(doc.body, indent=1), encoding="utf-8")
        dump = Path(folder) / "dump.lp"
        for index, op in enumerate(plan.ops):
            for extra in ((), ("--json",)):
                argv = [op.args[0], "--model", str(paths[op.doc]), *op.args[1:],
                        *extra, "--dump-lp", str(dump)]
                code, out, err = _run(cli, argv)
                lps = dump.read_text(encoding="utf-8").split("\n\n") if dump.exists() else []
                dump.unlink(missing_ok=True)
                record = {
                    "op": index,
                    "key": " ".join([op.key, *extra]),
                    "code": code,
                    "stdout": out,
                    "stderr": err,
                    "lps": [_digest(text) for text in lps if text],
                }
                print(json.dumps(record), flush=True)
        mutant = Path(folder) / "mutant.json"
        for index, (doc, change, text) in enumerate(mutants(plan.docs, workload, seed)):
            mutant.write_text(text, encoding="utf-8")
            code, out, err = _run(cli, ["validate", "--model", str(mutant)])
            record = {"op": f"mutant {index}", "key": f"validate {doc.name}: {change}",
                      "code": code, "stdout": out, "stderr": err, "lps": []}
            print(json.dumps(record), flush=True)


def collect(src: str, workload: str, seed: int) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", src, "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run against {src} failed:\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def _is_subsequence(short: list[str], long: list[str]) -> bool:
    rest = iter(long)
    return all(item in rest for item in short)


def first_difference(base: list[dict], new: list[dict], fewer_lps: bool = False) -> str | None:
    if len(base) != len(new):
        return f"run counts differ: {len(base)} against {len(new)}"
    for a, b in zip(base, new):
        for field in ("code", "stdout", "stderr"):
            if a[field] != b[field]:
                return (f"op {a['op']} ({a['key']}): {field} differs\n"
                        f"--- base\n{a[field]}\n--- new\n{b[field]}")
        if fewer_lps:
            if not _is_subsequence(b["lps"], a["lps"]):
                return (f"op {a['op']} ({a['key']}): new LP dump is not an ordered "
                        f"subsequence of the base one ({len(a['lps'])} LPs against "
                        f"{len(b['lps'])})")
        elif a["lps"] != b["lps"]:
            k = next((k for k, (x, y) in enumerate(zip(a["lps"], b["lps"])) if x != y),
                     min(len(a["lps"]), len(b["lps"])))
            return (f"op {a['op']} ({a['key']}): LP dump differs from LP {k} "
                    f"({len(a['lps'])} LPs against {len(b['lps'])})")
    return None


def lp_count(records: list[dict]) -> str:
    """The LPs of all runs, and of the plain runs (every op runs plain
    first, then with `--json`) as one op cycle."""
    total = sum(len(r["lps"]) for r in records)
    plain = sum(len(r["lps"]) for r in records[::2])
    return f"{total} ({plain} per plain cycle)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fewer-lps", action="store_true",
                        help="let the new run drop LPs; every LP it keeps must match, in order")
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        run_cycle(args.worker, args.workload, args.seed)
        return 0
    if not args.base or not args.new:
        parser.error("BASE_SRC and NEW_SRC are required")
    base = collect(args.base, args.workload, args.seed)
    new = collect(args.new, args.workload, args.seed)
    diff = first_difference(base, new, args.fewer_lps)
    if diff is not None:
        print(diff)
        return 1
    base, new = base[:-MUTANTS], new[:-MUTANTS]
    runs = (f"{args.workload} seed {args.seed}: {len(base) // 2} ops, {len(base)} runs "
            f"and {MUTANTS} mutants")
    if args.fewer_lps:
        print(f"{runs}, {lp_count(base)} LPs in base, {lp_count(new)} in new, no difference")
    else:
        print(f"{runs}, {lp_count(base)} LPs, no difference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
