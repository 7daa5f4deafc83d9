"""The identity gate, `tools/same_answers.py`: how it compares two runs, how
it counts LPs, and the mutants it feeds to `validate`."""

import ast
import importlib.util
import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import DATA

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_answers.py"
_spec = importlib.util.spec_from_file_location("same_answers", TOOL)
same_answers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_answers)
first_difference = same_answers.first_difference


def _record(op, lps=("a", "b", "c"), **fields):
    record = {"op": op, "key": f"price doc{op}", "code": 0, "stdout": "1/2\n",
              "stderr": "", "lps": list(lps)}
    record.update(fields)
    return record


def _runs(**fields):
    return [_record(0), _record(1, **fields), _record(2)]


def test_tool_imports_only_the_standard_library_at_top_level():
    tree = ast.parse(TOOL.read_text(encoding="utf-8"))
    modules = [
        alias.name for node in tree.body if isinstance(node, ast.Import)
        for alias in node.names
    ] + [node.module for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert modules
    assert [m for m in modules if m.split(".")[0] not in sys.stdlib_module_names
            and m != "__future__"] == []


def test_equal_records_have_no_difference():
    assert first_difference(_runs(), _runs()) is None
    assert first_difference(_runs(), _runs(), fewer_lps=True) is None


@pytest.mark.parametrize("field, value", [
    ("code", 1), ("stdout", "2/3\n"), ("stderr", "error: bad model\n"),
])
def test_a_changed_field_names_the_op_and_the_field(field, value):
    diff = first_difference(_runs(), _runs(**{field: value}))
    assert diff.startswith(f"op 1 (price doc1): {field} differs")
    assert first_difference(_runs(), _runs(**{field: value}), fewer_lps=True) == diff


def test_unequal_run_counts_are_reported():
    assert first_difference(_runs(), _runs()[:2]) == "run counts differ: 3 against 2"


@pytest.mark.parametrize("lps, subsequence", [
    (("a", "c"), True),  # dropped
    ((), True),  # all dropped
    (("a", "b", "c", "d"), False),  # added
    (("a", "x", "c"), False),  # changed
    (("b", "a", "c"), False),  # reordered
])
def test_lp_changes(lps, subsequence):
    diff = first_difference(_runs(), _runs(lps=lps))
    assert diff is not None and diff.startswith("op 1 (price doc1): LP dump differs")
    relaxed = first_difference(_runs(), _runs(lps=lps), fewer_lps=True)
    if subsequence:
        assert relaxed is None
    else:
        assert "not an ordered subsequence" in relaxed


def test_wall_time_is_masked():
    def main(argv):
        print(json.dumps({"price": "1/2", "wall_time_s": 0.0123, "argv": argv}))
        return 0

    code, out, err = same_answers._run(SimpleNamespace(main=main), ["price"])
    assert (code, err) == (0, "")
    assert out == '{"price": "1/2", "wall_time_s": <masked>, "argv": ["price"]}\n'
    assert same_answers.WALL.sub(r"\1<masked>", '"wall_time_s": -1.5e-05,') == (
        '"wall_time_s": <masked>,'
    )


def test_lp_count_takes_every_other_record_as_the_plain_cycle():
    records = [_record(k // 2, lps=["x"] * (k + 1)) for k in range(6)]
    # plain runs 0, 2, 4 hold 1, 3 and 5 LPs; the --json runs 2, 4 and 6
    assert same_answers.lp_count(records) == "21 (9 per plain cycle)"


def _example_b():
    return json.loads((DATA / "example_b.json").read_text(encoding="utf-8"))


def test_mutants_repeat_for_the_same_seed():
    body = _example_b()
    first, second = random.Random("gate 0"), random.Random("gate 0")
    drawn = [same_answers.mutate(body, first) for _ in range(60)]
    assert drawn == [same_answers.mutate(body, second) for _ in range(60)]
    assert body == _example_b()
    assert len(set(drawn)) > 1


def test_a_mutant_differs_only_at_the_path_it_reports():
    body = _example_b()
    rng = random.Random("gate 1")
    for _ in range(200):
        change, text = same_answers.mutate(body, rng)
        mutant = json.loads(text)
        *parent, last = change.split(" = ", 1)[0].split("/")
        original, slot = body, mutant
        for key in parent:
            key = int(key) if isinstance(slot, list) else key
            original, slot = original[key], slot[key]
        last = int(last) if isinstance(slot, list) else last
        slot[last] = original[last]
        assert json.dumps(mutant) == json.dumps(body), change


@pytest.mark.parametrize("workload", ["envelope-mix", "deep-dp", "global-lp", "float-sweep"])
def test_every_mutant_changes_its_document(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(same_answers.BENCH))
    import workloads

    docs = workloads.build(workload, 0).docs
    drawn = list(same_answers.mutants(docs, workload, 0))
    assert len(drawn) == same_answers.MUTANTS == 480
    unchanged = [change for doc, change, text in drawn
                 if text == json.dumps(doc.body, indent=1)]
    assert unchanged == []
