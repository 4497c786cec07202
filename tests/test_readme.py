"""The README's "Library" example runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    """The first python code block under the "## Library" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_block_runs(capsys):
    exec(compile(library_block(), f"{README.name} (Library)", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 4
    assert all(0 <= float(value) for value in printed)
