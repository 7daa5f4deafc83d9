"""The README's Library example runs as written."""

import shutil
from pathlib import Path

from conftest import DATA

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first python block under the README's `## Library` heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_library_example_runs(tmp_path, monkeypatch):
    shutil.copy(DATA / "example_b.json", tmp_path / "b.json")
    monkeypatch.chdir(tmp_path)
    code = library_example()
    assert "assert" in code
    exec(compile(code, f"{README}:## Library", "exec"), {})
