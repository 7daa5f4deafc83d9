"""CLI: exit codes, human and JSON output, determinism, certificates."""

import ast
import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robusthedge
from robusthedge import lp, superhedge
from robusthedge.cli import _build_parser, main
from robusthedge.model import load_model
from robusthedge.polar import compute_support
from robusthedge.rational import format_with_decimal

from conftest import DATA, NAME_FIELDS, NUMBER_FIELDS, example_b_with
from test_readme import library_example

BROKEN = """{
  "horizon": 1,
  "nodes": [
    {"id": "r", "level": 0, "parent": null, "price": ["1"],
     "generators": [{"a": "1/2", "b": "3/5"}]},
    {"id": "a", "level": 1, "parent": "r", "price": ["1"]},
    {"id": "b", "level": 1, "parent": "r", "price": ["2"]}
  ]
}"""

ALL_POSITIVE = """{
  "horizon": 1,
  "nodes": [
    {"id": "r", "level": 0, "parent": null, "price": ["1"],
     "generators": [{"a": "1/2", "b": "1/2"}]},
    {"id": "a", "level": 1, "parent": "r", "price": ["2"]},
    {"id": "b", "level": 1, "parent": "r", "price": ["3"]}
  ]
}"""

WITH_PROCESS = """{
  "horizon": 1,
  "nodes": [
    {"id": "root", "level": 0, "parent": null, "price": ["10"],
     "generators": [{"8": "1"}, {"10": "1"}, {"13": "1"}]},
    {"id": "8", "level": 1, "parent": "root", "price": ["8"]},
    {"id": "10", "level": 1, "parent": "root", "price": ["10"]},
    {"id": "13", "level": 1, "parent": "root", "price": ["13"]}
  ],
  "claims": {"call": {"8": "0", "10": "0", "13": "3"}},
  "processes": {
    "surface": {"root": "6/5", "8": "0", "10": "0", "13": "3"},
    "rising": {"root": "0", "8": "0", "10": "1", "13": "0"}
  }
}"""


@pytest.fixture
def b_path(tmp_path, example_b_text):
    path = tmp_path / "b.json"
    path.write_text(example_b_text)
    return str(path)


def test_price_example_b(b_path, capsys):
    assert main(["price", "--model", b_path, "--claim", "call"]) == 0
    assert capsys.readouterr().out.strip() == "6/5 (=1.2)"


def test_na_all_positive_exit_2(tmp_path, capsys):
    path = tmp_path / "allpos.json"
    path.write_text(ALL_POSITIVE)
    assert main(["na", "--model", str(path)]) == 2
    out = capsys.readouterr().out
    assert "Fail" in out
    assert "witness leaves a, b" in out
    assert "1" in out  # certificate y = 1


def test_na_certificate_json(tmp_path, capsys):
    path = tmp_path / "allpos.json"
    path.write_text(ALL_POSITIVE)
    assert main(["na", "--model", str(path), "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["nodes"] == [{"node": "r", "status": "Fail", "certificate": ["1"]}]
    assert report["verdict"]["strategy"]["dynamic"] == {"r": ["1"]}


def test_float_mode_decides_na_exactly(capsys):
    # leaf a lies 10**-12 below the root: a float test can take that
    # increment for zero and see an arbitrage, the exact sign test does not;
    # without options the backward recursion prices exactly in every mode,
    # and the report says so
    path = str(DATA / "tiny_increment.json")
    assert main(["na", "--model", path]) == 0
    assert capsys.readouterr().out.endswith("stocks-only NA: Pass\n")
    assert main(["price", "--model", path, "--claim", "f", "--float"]) == 0
    assert capsys.readouterr().out == "1/1000000000001 (=9.99999999999e-13)\n"
    assert main(["price", "--model", path, "--claim", "f", "--float", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["mode"] == {"kind": "exact"}


# one period, root 1, children 1/2, 1 and 3/2; the option's stocks-only
# price interval is [1/10, 1], and it is quoted above it
OUTSIDE_QUOTE = {
    "horizon": 1,
    "nodes": [
        {"id": "r", "level": 0, "parent": None, "price": ["1"],
         "generators": [{"d": "1/3", "m": "1/3", "u": "1/3"}]},
        {"id": "d", "level": 1, "parent": "r", "price": ["1/2"]},
        {"id": "m", "level": 1, "parent": "r", "price": ["1"]},
        {"id": "u", "level": 1, "parent": "r", "price": ["3/2"]},
    ],
    "options": [{"name": "g", "quote": "7/3",
                 "payoff": {"d": "0", "m": "1/10", "u": "2"}}],
    "claims": {"f": {"d": "0", "m": "0", "u": "1"}},
}


def test_float_denial_is_exact(tmp_path, capsys, monkeypatch):
    # the float LP finds no consistent measure; the hints and the arbitrage
    # behind the denial are computed exactly
    path = tmp_path / "outside.json"
    path.write_text(json.dumps(OUTSIDE_QUOTE))
    for mode in ([], ["--float"]):
        assert main(["price", "--model", str(path), "--claim", "f", *mode]) == 2
        assert capsys.readouterr().out == (
            "denied: option 'g' quoted 7/3 outside its stocks-only price "
            "interval [1/10, 1]\n"
        )
    # a float verdict the exact search cannot confirm is a breakdown
    monkeypatch.setattr(superhedge, "search_arbitrage", lambda market: None)
    assert main(["price", "--model", str(path), "--claim", "f", "--float"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("; retry without --float\n")


def _inside_quote(tmp_path, example_b_text):
    """example_b with the call quoted at 1/2, inside its interval (0, 6/5):
    the market is free of arbitrage."""
    doc = json.loads(example_b_text)
    doc["options"][0]["quote"] = "1/2"
    path = tmp_path / "inside.json"
    path.write_text(json.dumps(doc))
    return path


def test_exact_lp_without_measure_is_a_bug(tmp_path, capsys, monkeypatch, example_b_text):
    # an exact LP that finds no consistent measure on a market the exact
    # search finds free of arbitrage is a bug of that LP; no float LP ran.
    # The CLI prints it on one line and exits 1, with no traceback.
    path = _inside_quote(tmp_path, example_b_text)
    monkeypatch.setattr(lp, "solve_superhedge", lambda prog: lp.Unbounded((), ()))
    assert main(["price", "--model", str(path), "--claim", "call"]) == 1
    assert capsys.readouterr() == (
        "",
        "error: the exact superhedge LP found no consistent martingale measure, "
        "but the exact arbitrage search finds no arbitrage (bug)\n",
    )


def test_exact_dual_lp_without_measure_is_a_bug(tmp_path, monkeypatch, example_b_text):
    # the dual LP's Farkas verdict, the first LP solved, reads the same way;
    # the hints' value-only LPs after it are solved for real
    path = _inside_quote(tmp_path, example_b_text)
    inner, solved = lp.solve, []

    def infeasible_first(prog, mode=lp.EXACT):
        solved.append(prog)
        if len(solved) == 1:
            return lp.Infeasible(lp.FarkasCertificate((), (), ()))
        return inner(prog, mode)

    monkeypatch.setattr(lp, "solve", infeasible_first)
    model = load_model(path.read_text())
    mask = compute_support(model.tree)
    with pytest.raises(RuntimeError, match=r"exact dual LP found no .*\(bug\)"):
        superhedge.dual_price(model.tree, mask, model.claims["call"], model.options)


# two stocks on one line: the root's three increments are collinear, so
# its one-step problem goes to the LP
COLLINEAR = """{
  "horizon": 1,
  "dimension": 2,
  "nodes": [
    {"id": "r", "level": 0, "parent": null, "price": ["1", "1"],
     "generators": [{"a": "1/3", "b": "1/3", "c": "1/3"}]},
    {"id": "a", "level": 1, "parent": "r", "price": ["0", "0"]},
    {"id": "b", "level": 1, "parent": "r", "price": ["1", "1"]},
    {"id": "c", "level": 1, "parent": "r", "price": ["2", "2"]}
  ],
  "claims": {"f": {"a": "0", "b": "1", "c": "0"}},
  "processes": {"v": {"r": "1", "a": "0", "b": "1", "c": "0"}}
}"""


@pytest.mark.parametrize(
    "argv", [["price", "--claim", "f"], ["decompose", "--process", "v"]], ids=["price", "decompose"]
)
def test_infeasible_one_step_lp_is_a_bug(tmp_path, capsys, monkeypatch, argv):
    # the stocks pass NA, so no one-step LP can lack martingale weights: an
    # infeasible one contradicts the certified verdict and is named as a bug
    # of that LP at that node, not as the user's local arbitrage
    path = tmp_path / "m.json"
    path.write_text(COLLINEAR)
    command = [argv[0], "--model", str(path), *argv[1:]]
    assert main(command) == 0
    capsys.readouterr()
    monkeypatch.setattr(
        lp, "solve", lambda prog, mode=lp.EXACT: lp.Infeasible(lp.FarkasCertificate((), (), ()))
    )
    assert main(command) == 1
    assert capsys.readouterr() == (
        "",
        "error: the one-step LP at node 'r' found no martingale weights, "
        "but the stocks pass NA (bug)\n",
    )


@pytest.mark.parametrize("mode", [[], ["--float"]], ids=["exact", "float"])
def test_answer_too_long_to_print_exits_1(tmp_path, capsys, mode):
    # one period, prices and claim values of about 3000 digits: the exact
    # price has about 6000, past Python's int-to-str limit of 4300
    rng = random.Random(5)
    root, down, up, f_down, f_up = (rng.randrange(10**2999, 10**3000) for _ in range(5))
    doc = {
        "horizon": 1,
        "nodes": [
            {"id": "r", "level": 0, "parent": None, "price": [str(root)],
             "generators": [{"d": "1"}, {"u": "1"}]},
            {"id": "d", "level": 1, "parent": "r", "price": [str(root - down)]},
            {"id": "u", "level": 1, "parent": "r", "price": [str(root + up)]},
        ],
        "claims": {"f": {"d": str(f_down), "u": str(f_up)}},
    }
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    for command in ("price", "hedge") if not mode else ("price",):
        assert main([command, "--model", str(path), "--claim", "f", *mode]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the exact answer has more than 4300 digits\n"
        )


def test_answer_past_float_range_prints_its_decimal(tmp_path, capsys):
    # root 1, children 0 and 2, claim 1e400 at the child at 0: the price
    # 1e400/2 is past float range, so its decimal comes from `decimal`
    doc = {
        "horizon": 1,
        "nodes": [
            {"id": "r", "level": 0, "parent": None, "price": ["1"],
             "generators": [{"lo": "1/2", "hi": "1/2"}]},
            {"id": "lo", "level": 1, "parent": "r", "price": ["0"]},
            {"id": "hi", "level": 1, "parent": "r", "price": ["2"]},
        ],
        "claims": {"f": {"lo": "1e400", "hi": "0"}},
    }
    path = tmp_path / "past_float_range.json"
    path.write_text(json.dumps(doc))
    price = f"{5 * 10**399} (=5e+399)"
    for argv, code, out in [
        (["price", "--claim", "f"], 0, price),
        (["interval", "--claim", "f"], 0, f"point {price}"),
        (["replicate", "--claim", "f"], 0, f"replicable at {price}"),
        (["prove", "--claim", "f", "--bound", "1"], 2,
         f"refuted: expectation {price} exceeds 1 (=1) under a martingale measure"),
    ]:
        assert main([*argv, "--model", str(path)]) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out + "\n", "")
    # inside the normal float range the decimal is float's, as it always was
    normal = (Fraction(6, 5), Fraction(-1, 3), Fraction(2) ** -1022, Fraction(10**308))
    for x in (*normal, Fraction(0)):
        assert format_with_decimal(x) == f"{x} (={float(x):.12g})"


@pytest.mark.parametrize(
    "x, decimal",
    [
        (Fraction(1, 10**400), "1e-400"),
        (Fraction(-1, 10**400), "-1e-400"),
        (Fraction(123456789012345, 10**334), "1.23456789012e-320"),  # subnormal
    ],
)
def test_value_below_normal_float_range_prints_its_decimal(x, decimal):
    assert format_with_decimal(x) == f"{x} (={decimal})"


def test_answer_below_float_range_prints_its_decimal(capsys):
    # a claim of 1e-400 at every leaf is its own price, nonzero but below
    # float range, so its decimal comes from `decimal` rather than reading 0
    path = str(DATA / "below_float_range.json")
    assert main(["price", "--model", path, "--claim", "f"]) == 0
    assert capsys.readouterr().out == f"{Fraction(1, 10**400)} (=1e-400)\n"


def test_runtime_imports_only_the_standard_library():
    # a fresh interpreter, so modules the tests import do not hide any
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import robusthedge, robusthedge.cli, robusthedge.oracle\n"
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(loaded - {'robusthedge'} - set(sys.stdlib_module_names)))\n"
    )
    src = str(Path(superhedge.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout == "[]\n"


def test_no_private_name_crosses_a_module():
    # a name one module needs from another is public there
    crossing = [
        f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for path in sorted(Path(superhedge.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert crossing == []


@pytest.mark.parametrize("module", ["market", "oracle"])
def test_checks_and_oracle_import_no_solver(module):
    # read off the source, since the package __init__ loads every module
    path = Path(superhedge.__file__).parent / f"{module}.py"
    imported = {
        node.module or alias.name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    assert imported and not imported & {"lp", "arbitrage", "superhedge", "decompose", "cli"}
    if module == "market":
        assert imported <= {"model", "polar", "rational"}


def test_names_the_benchmark_reads_still_resolve():
    # the benchmark's answer checks import these names, and its tracer wraps
    # each (module, function) pair of TRACED it finds; a pair it misses
    # drops a per-layer metric. `decompose.check_supermartingale` is a
    # known stale entry.
    bench = Path(__file__).resolve().parent.parent / "bench"
    checks = ast.parse((bench / "checks.py").read_text(encoding="utf-8"))
    unresolved = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(checks)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("robusthedge")
        for alias in node.names
        if not hasattr(importlib.import_module(node.module), alias.name)
    ]
    assert unresolved == []
    spans = ast.parse((bench / "spans.py").read_text(encoding="utf-8"))
    [traced] = [
        ast.literal_eval(node.value)
        for node in spans.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED"
    ]
    absent = {
        f"{module}.{name}"
        for module, name in traced
        if not callable(getattr(importlib.import_module(f"robusthedge.{module}"), name, None))
    }
    assert absent == {"decompose.check_supermartingale"}


def test_only_rational_calls_lcm():
    # `rational.integer_row` is the one place a row is scaled to integers
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(superhedge.__file__).parent.glob("*.py"))
        if path.name != "rational.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "lcm"
    ]
    assert calls == []


def test_every_public_function_has_a_caller():
    # a public function earns its place by a caller in the package or by the
    # benchmark's answer checks, except `save_model`, kept for users to write
    # a model back out; a public method of a public class, by being read as
    # an attribute there
    allowed = {"save_model"}
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(superhedge.__file__).parent.glob("*.py"))
    }
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    checks_path = Path(__file__).resolve().parent.parent / "bench" / "checks.py"
    checks = ast.parse(checks_path.read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(checks)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    read = {
        node.attr
        for tree in [*modules.values(), checks]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    public = [
        (name, node)
        for name, tree in modules.items()
        if name != "__init__"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]
    uncalled = [
        f"{name}.{node.name}"
        for name, node in public
        if isinstance(node, ast.FunctionDef)
        and node.name not in referenced | imported | allowed
    ]
    unread = [
        f"{name}.{cls.name}.{node.name}"
        for name, cls in public
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in read
    ]
    assert uncalled + unread == []


def _from_package(source: str) -> set[str]:
    """The names a source imports from `robusthedge` itself."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "robusthedge"
        for alias in node.names
    }


def test_package_namespace_holds_what_its_readers_import():
    # the benchmark's answer checks and the README's Library example are the
    # package namespace's only readers; everything else imports by module
    checks = (Path(__file__).resolve().parent.parent / "bench" / "checks.py").read_text(
        encoding="utf-8"
    )
    readers = _from_package(checks) | _from_package(library_example())
    init = Path(robusthedge.__file__).read_text(encoding="utf-8")
    held = {
        alias.name
        for node in ast.parse(init).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(robusthedge.__all__) == sorted(held) == sorted(readers)


@pytest.mark.parametrize(
    "document, argv, code, out, err",
    [
        (None, ["price", "--claim", "call"], 0, "6/5 (=1.2)\n", ""),
        (None, ["na"], 2,
         "node  status  certificate\nroot  Pass    -\nstocks-only NA: Pass\n"
         "semistatic NA (with options): Fail\n", ""),
        # json.loads raises RecursionError here
        ("[" * 200000, ["validate"], 1, "", "error: invalid JSON: nested too deeply\n"),
        ('{"horizon": 1, "nodes": [{"id": "r", "level": 0, "parent": null, "price": ["1/0"]}]}',
         ["validate"], 1, "", "error: node 'r' price: cannot parse rational from '1/0'\n"),
        (example_b_with("name", "1e5000"), ["price", "--claim", "call"], 1, "",
         "error: option 0: 'name' must be a string\n"),
    ],
    ids=["answer", "denial", "nested", "zero_denominator", "name_not_a_string"],
)
def test_cli_process_exit_code_and_output(b_path, tmp_path, document, argv, code, out, err):
    # a fresh interpreter, so the exit code is the process's own and an
    # uncaught exception prints its traceback as the CLI would
    path = b_path
    if document is not None:
        path = str(tmp_path / "document.json")
        Path(path).write_text(document)
    src = str(Path(superhedge.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "robusthedge.cli", *argv, "--model", path],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert (run.returncode, run.stdout, run.stderr) == (code, out, err)


def test_repeated_option_name_exits_1(capsys):
    path = str(DATA / "repeated_option.json")
    for argv in (["validate"], ["hedge", "--claim", "put"]):
        assert main([*argv, "--model", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: duplicate option name 'call'\n"


def test_option_without_quote_exits_1(tmp_path, capsys, example_b_text):
    doc = json.loads(example_b_text)
    del doc["options"][0]["quote"]
    path = tmp_path / "no_quote.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--model", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: option 'call': needs a 'quote'\n")


def _example_b_set(path: tuple, value) -> str:
    """example_b's text with the value at `path` replaced."""
    doc = json.loads((DATA / "example_b.json").read_text(encoding="utf-8"))
    *parent, last = path
    slot = doc
    for key in parent:
        slot = slot[key]
    slot[last] = value
    return json.dumps(doc)


# each option quoted inside its stocks-only interval, [0, 2/5] and [0, 3/5],
# but the first prices q(13) = 1/5 and the second q(13) = 2/15
JOINT_ARBITRAGE = [
    {"name": "up", "quote": "1/5", "payoff": {"8": "0", "10": "0", "13": "1"}},
    {"name": "down", "quote": "1/5", "payoff": {"8": "1", "10": "0", "13": "0"}},
]


@pytest.mark.parametrize(
    "document, argv, code, line",
    [
        ("[]", ["validate"], 1, "error: top level must be an object"),
        ("[" * 200000, ["validate"], 1, "error: invalid JSON: nested too deeply"),
        (_example_b_set(("nodes", 2, "id"), "8"), ["validate"], 1,
         "error: duplicate node id '8'"),
        (_example_b_set(("nodes", 0, "level"), 1), ["validate"], 1,
         "error: root node 'root' must be at level 0"),
        (_example_b_set(("nodes", 1, "level"), 0), ["validate"], 1,
         "error: node '8': level 0 is not parent level + 1"),
        (_example_b_set(("claims", "call", "root"), "1"), ["validate"], 1,
         "error: claim 'call': 'root' is not a leaf"),
        (_example_b_set(("claims", "call"), {"8": "0", "10": "0"}), ["validate"], 1,
         "error: claim 'call': missing value at leaf '13'"),
        (_example_b_set(("processes",), {"p": {"zz": "1"}}), ["validate"], 1,
         "error: process 'p': unknown node 'zz'"),
        (_example_b_set(("measures", "middle", "10"), "1/2"), ["validate"], 1,
         "error: measure 'middle': weights sum to 1/2, not 1"),
        (None, ["mm", "--dominate", "nope"], 1,
         "error: measure 'nope' is not in the document"),
        (None, ["decompose", "--process", "nope"], 1,
         "error: process 'nope' is not in the document"),
        (_example_b_set(("processes",), {"p": {"root": "0", "8": "0", "10": "0"}}),
         ["decompose", "--process", "p"], 1,
         "error: process 'p' undefined on relevant nodes ['13']"),
        (None, ["prove", "--claim", "call", "--bound", "x"], 1,
         "error: --bound: cannot parse rational from 'x'"),
        (_example_b_set(("options",), JOINT_ARBITRAGE), ["price", "--claim", "call"], 2,
         "denied: option quotes jointly admit arbitrage (no consistent martingale measure)"),
    ],
    ids=[
        "not_an_object", "nested", "duplicate_id", "root_level", "child_level",
        "not_a_leaf", "missing_leaf", "unknown_process_node", "measure_sum",
        "unknown_measure", "unknown_process", "process_misses_a_node", "bad_bound",
        "joint_arbitrage",
    ],
)
def test_each_rejection_prints_one_line(b_path, tmp_path, capsys, document, argv, code, line):
    path = b_path
    if document is not None:
        path = str(tmp_path / "document.json")
        Path(path).write_text(document)
    assert main([*argv, "--model", path]) == code
    if code == 1:
        assert capsys.readouterr() == ("", line + "\n")
    else:
        assert capsys.readouterr() == (line + "\n", "")


@pytest.mark.parametrize("field", sorted(NAME_FIELDS))
@pytest.mark.parametrize("literal", ["[]", "true", "1e5000"])
def test_a_name_that_is_not_a_string_exits_1(tmp_path, capsys, field, literal):
    path = tmp_path / "name.json"
    path.write_text(example_b_with(field, literal))
    for argv in (["validate"], ["price", "--claim", "call"]):
        assert main([*argv, "--model", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {NAME_FIELDS[field][1]}\n")


def test_float_lp_past_float_range_asks_for_exact(capsys):
    # a claim value of 1e400 has no float: the float global LP is a
    # breakdown, and exact mode answers
    path = str(DATA / "past_float_range.json")
    for command in ("price", "interval"):
        assert main([command, "--model", path, "--claim", "f", "--float"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the LP holds a number past float range; retry without --float\n"
        )
    assert main(["price", "--model", path, "--claim", "f"]) == 0
    assert capsys.readouterr().out.endswith(" (=5e+399)\n")


def test_na_pass_exit_0(b_path, capsys):
    # the call quoted at 6/5 (boundary) is a strict semistatic arbitrage,
    # so `na` denies; the stocks-only market alone passes
    assert main(["na", "--model", b_path]) == 2
    out = capsys.readouterr().out
    assert "stocks-only NA: Pass" in out
    assert "semistatic NA (with options): Fail" in out


def test_validate_broken_names_node_and_generator(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(BROKEN)
    assert main(["validate", "--model", str(path)]) == 1
    err = capsys.readouterr().err
    assert "'r'" in err and "generator 0" in err


def test_validate_ok(b_path, capsys):
    assert main(["validate", "--model", b_path]) == 0
    assert "valid model" in capsys.readouterr().out


def test_json_determinism(b_path, capsys):
    def run():
        assert main(["interval", "--model", b_path, "--claim", "digital",
                     "--json"]) == 0
        return capsys.readouterr().out

    first, second = run(), run()
    a, b = json.loads(first), json.loads(second)
    a.pop("wall_time_s"), b.pop("wall_time_s")
    assert json.dumps(a) == json.dumps(b)
    assert a["lower"] == "2/5" and a["upper"] == "2/5" and a["kind"] == "Point"


def test_mm_uniform_and_named(b_path, capsys):
    assert main(["mm", "--model", b_path, "--dominate", "uniform"]) == 2
    assert "none exists" in capsys.readouterr().out  # quotes pin q(10) = 0

    assert main(["mm", "--model", b_path, "--dominate", "middle"]) == 2
    capsys.readouterr()


def test_mm_without_options(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(WITH_PROCESS)
    assert main(["mm", "--model", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["witness"]) == {"8", "10", "13"}


def test_mm_dominates_a_document_measure_named_uniform(capsys):
    # the document's own "uniform" charges 8 and 13 only; the built-in
    # reference measure would charge 10 as well
    path = str(DATA / "example_b_own_uniform.json")
    assert main(["mm", "--model", path]) == 0
    assert capsys.readouterr().out == "13: 2/5 (=0.4)\n8: 3/5 (=0.6)\n"


def test_float_interval_prints_no_negative_zero(capsys):
    argv = ["interval", "--claim", "call", "--float",
            "--model", str(DATA / "example_b_own_uniform.json")]
    assert main(argv) == 0
    assert capsys.readouterr().out == "open interval (0, 1.2)\n"
    assert main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["lower"] == "0.0"


def test_float_interval_decides_a_point_exactly(b_path, capsys):
    # the two float optima of the replicable digital differ by one rounding
    # (0.4 against 0.39999999999999997); the exact LPs decide the point
    argv = ["interval", "--claim", "digital", "--float", "--model", b_path]
    assert main(argv) == 0
    assert capsys.readouterr().out == "point 2/5 (=0.4)\n"
    assert main(argv + ["--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["lower"], report["upper"], report["kind"]) == ("2/5", "2/5", "Point")


def test_hedge_emits_strategy(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(WITH_PROCESS)
    assert main(["hedge", "--model", str(path), "--claim", "call", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["strategy"]["initial"] == "6/5"
    assert report["strategy"]["dynamic"] == {"root": ["3/5"]}


def test_replicate_and_complete(b_path, tmp_path, capsys):
    assert main(["replicate", "--model", b_path, "--claim", "digital"]) == 0
    assert "replicable at 2/5" in capsys.readouterr().out

    path = tmp_path / "m.json"
    path.write_text(WITH_PROCESS)
    assert main(["replicate", "--model", str(path), "--claim", "call"]) == 0
    assert "not replicable" in capsys.readouterr().out

    assert main(["complete", "--model", str(path)]) == 0
    assert "incomplete" in capsys.readouterr().out
    assert main(["complete", "--model", b_path]) == 0
    assert capsys.readouterr().out.strip() == "complete"


def test_replicate_and_complete_deny_when_no_measure_has_full_support(capsys):
    # quotes pin the only consistent martingale measure to leaf 10, so the
    # two prices of f coincide although f is not replicated on 8, 12, 13
    path = str(DATA / "no_full_support.json")
    assert main(["na", "--model", path]) == 2
    assert "semistatic NA (with options): Fail" in capsys.readouterr().out
    for argv in (["replicate", "--claim", "f"], ["complete"]):
        assert main([*argv, "--model", path]) == 2
        out = capsys.readouterr().out
        assert out.startswith("denied: option quotes admit arbitrage"), out


def test_float_phase1_ray_asks_for_exact(capsys, monkeypatch):
    # a float-sweep benchmark document; a float LP that breaks down is a
    # numerical breakdown, not a traceback
    path = str(DATA / "float_phase1_ray.json")
    assert main(["mm", "--model", path]) == 0
    capsys.readouterr()

    def breaks_down(prog, mode):
        raise lp.NumericalBreakdown("phase 1 ran unbounded")

    monkeypatch.setattr(lp, "solve", breaks_down)
    assert main(["price", "--model", path, "--claim", "f", "--float", "--tol", "1e-9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: phase 1 ran unbounded; retry without --float\n"


def test_decompose_command(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(WITH_PROCESS)
    assert main(["decompose", "--model", str(path), "--process", "surface",
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["H"] == {"root": ["3/5"]}
    assert report["K"] == {"10": "6/5", "13": "0", "8": "0", "root": "0"}

    assert main(["decompose", "--model", str(path), "--process", "rising"]) == 2
    out = capsys.readouterr().out
    assert "not a supermartingale" in out and "'root'" in out


def test_prove_command(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(WITH_PROCESS)
    assert main(["prove", "--model", str(path), "--claim", "call",
                 "--bound", "6/5"]) == 0
    assert "proved" in capsys.readouterr().out
    assert main(["prove", "--model", str(path), "--claim", "call",
                 "--bound", "1"]) == 2
    assert "refuted" in capsys.readouterr().out


def test_arbitrage_denied_exit_2(tmp_path, capsys):
    path = tmp_path / "allpos.json"
    bad = json.loads(ALL_POSITIVE)
    bad["claims"] = {"f": {"a": "1", "b": "0"}}
    bad["processes"] = {"v": {"r": "1", "a": "1", "b": "0"}}
    path.write_text(json.dumps(bad))
    message = "market admits arbitrage at node 'r'"
    for command, extra in [
        ("price", ["--claim", "f"]),
        ("hedge", ["--claim", "f"]),
        ("interval", ["--claim", "f"]),
        ("replicate", ["--claim", "f"]),
        ("complete", []),
        ("prove", ["--claim", "f", "--bound", "1"]),
        ("decompose", ["--process", "v"]),
    ]:
        argv = [command, "--model", str(path), *extra]
        assert main(argv) == 2, command
        assert capsys.readouterr().out == f"denied: {message}\n"
        assert main(argv + ["--json"]) == 2, command
        assert json.loads(capsys.readouterr().out)["denied"] == message


def test_dump_lp_flag(b_path, tmp_path, capsys):
    dump = tmp_path / "lps.txt"
    assert main(["price", "--model", b_path, "--claim", "call",
                 "--dump-lp", str(dump)]) == 0
    capsys.readouterr()
    text = dump.read_text()
    assert "max" in text or "min" in text


def test_missing_file_is_input_error(capsys):
    assert main(["validate", "--model", "/nonexistent/x.json"]) == 1


@pytest.mark.parametrize(
    "argv, named",
    [
        (["price", "--claim", "call"], "--model"),
        (["validate", "--model", "m.json", "--nope"], "--nope"),
        ([], "command"),
        # a required flag left out; m.json does not exist, so no file is read
        (["price", "--model", "m.json"], "--claim"),
        (["decompose", "--model", "m.json"], "--process"),
        (["prove", "--model", "m.json", "--claim", "call"], "--bound"),
    ],
    ids=[f"argv{k}" for k in range(6)],
)
def test_usage_errors_exit_1(capsys, argv, named):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and named in captured.err.splitlines()[-1]


# the flags each subcommand takes besides --model, --json and --dump-lp,
# and a value for each flag that takes one; --float and --tol reach only
# the global LPs of the two subcommands that print no certificate
FLOAT = ("--float", "--tol")
TAKES = {
    "validate": (),
    "na": (),
    "mm": ("--dominate",),
    "price": ("--claim", *FLOAT),
    "hedge": ("--claim",),
    "interval": ("--claim", *FLOAT),
    "replicate": ("--claim",),
    "complete": (),
    "decompose": ("--process",),
    "prove": ("--claim", "--bound"),
}
FLAG_VALUES = {
    "--claim": ["call"], "--method": ["dp"], "--process": ["surface"],
    "--bound": ["1"], "--seed": ["9"], "--dominate": ["uniform"], "--enumerate": [],
    "--float": [], "--tol": ["0.5"],
}
REQUIRED = ("--claim", "--process", "--bound")


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c, flags in TAKES.items() for f in FLAG_VALUES if f not in flags],
)
def test_flag_a_subcommand_does_not_read_is_usage_error(b_path, capsys, command, flag):
    # the subcommand's required flags are given, so the unread one is the
    # only error
    given = [arg for f in TAKES[command] if f in REQUIRED for arg in (f, *FLAG_VALUES[f])]
    with pytest.raises(SystemExit) as exited:
        main([command, "--model", b_path, *given, flag, *FLAG_VALUES[flag]])
    assert exited.value.code == 1
    unread = " ".join([flag, *FLAG_VALUES[flag]])
    assert f"unrecognized arguments: {unread}\n" in capsys.readouterr().err


def test_every_benchmark_op_parses(tmp_path):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    try:
        import workloads
    finally:
        del sys.path[0]
    argvs = set()
    for name in workloads.WORKLOADS:
        plan = workloads.build(name, 0)
        argvs.update(op.args for op in (*plan.ops, plan.warmup))
    for args in sorted(argvs):
        argv = [args[0], "--model", "m.json", *args[1:], "--dump-lp", str(tmp_path / "d.lp")]
        assert _build_parser().parse_args(argv).command == args[0]


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_bad_tolerance_is_usage_error(b_path, capsys, tol):
    with pytest.raises(SystemExit) as exited:
        main(["price", "--model", b_path, "--claim", "call", "--float", "--tol", tol])
    assert exited.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol" in captured.err and repr(tol) in captured.err


def test_float_with_and_without_tolerance(b_path, capsys):
    for extra in ([], ["--tol", "0"]):
        argv = ["price", "--model", b_path, "--claim", "call", "--float", "--json"]
        assert main(argv + extra) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == {"kind": "float", "tolerance": 0.0 if extra else 1e-9}
        assert abs(float(report["price"]) - 1.2) < 1e-9


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["price", "--claim", "call", "--tol", "0.5"], ("--tol", "--float")),
    ],
)
def test_flag_that_needs_the_other_mode_is_usage_error(tmp_path, capsys, argv, flags):
    path = tmp_path / "m.json"
    path.write_text(WITH_PROCESS)
    with pytest.raises(SystemExit) as exited:
        main([*argv, "--model", str(path)])
    assert exited.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert all(flag in captured.err for flag in flags)


def test_environment_does_not_set_the_mode(b_path, capsys, monkeypatch):
    monkeypatch.setenv("ROBUSTHEDGE_MODE", "float")
    assert main(["price", "--model", b_path, "--claim", "call"]) == 0
    assert capsys.readouterr().out == "6/5 (=1.2)\n"


@pytest.mark.parametrize("field", sorted(NUMBER_FIELDS))
@pytest.mark.parametrize("literal", ["1e5000", '"1e100000000"'])
def test_oversize_number_exits_1_naming_the_field(tmp_path, capsys, field, literal):
    path = tmp_path / "big.json"
    path.write_text(example_b_with(field, literal))
    assert main(["price", "--model", str(path), "--claim", "call"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {NUMBER_FIELDS[field][1]}: ")
    assert "4000 digits" in captured.err


# small bounded JSON values for the mutation property: no value can build a
# large tree, and the strings include a number past float range and a
# division by zero
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10),
    st.sampled_from(["", "x", "root", "8", "13", "-1", "1/2", "1e400", "1/0"]),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["8", "10", "13", "id", "name"]), inner, max_size=3),
    ),
    max_leaves=6,
)


@st.composite
def _mutated_example_b(draw):
    """example_b with one top-level field, or one field of a node, a
    generator or an option, replaced by a small JSON value."""
    doc = json.loads((DATA / "example_b.json").read_text())
    nodes = doc["nodes"]
    owners = [doc, *nodes, *nodes[0]["generators"], *doc["options"]]
    owner = owners[draw(st.integers(0, len(owners) - 1))]
    owner[draw(st.sampled_from(sorted(owner)))] = draw(_VALUES)
    return json.dumps(doc)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(text=_mutated_example_b())
def test_mutated_document_never_prints_a_traceback(text):
    with tempfile.TemporaryDirectory() as folder:
        path = str(Path(folder) / "mutated.json")
        Path(path).write_text(text)
        for argv in (["validate"], ["na"], ["price", "--claim", "call"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--model", path])
            assert code in (0, 1, 2), (argv, code)
            assert "Traceback" not in err.getvalue()
