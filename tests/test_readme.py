"""The README's "Library" example runs against the package as it is, its
"typical comparison" table is what its command prints, and its "Experiments"
block is two simulate commands (tests/test_scripts.py runs them)."""

import re
import shlex
from pathlib import Path

from sortbatch.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def first_block(heading: str, lang: str = "") -> str:
    """The first code block under the `## {heading}` heading."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.DOTALL).group(1)


def commands(block: str) -> list[list[str]]:
    """The commands of a block, each with its backslash-continued lines joined."""
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip()]


def test_readme_library_block_runs(capsys):
    exec(compile(first_block("Library", "python"), f"{README.name} (Library)", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 4
    assert all(0 <= float(value) for value in printed)


def test_readme_typical_comparison_is_what_its_command_prints(tmp_path, capsys):
    section = README.read_text(encoding="utf-8").split("\nA typical comparison ", 1)[1]
    command, table = re.findall(r"```\n(.*?)```", section, re.DOTALL)[:2]
    [argv] = commands(command)
    assert argv[:2] == ["sortbatch", "simulate"]
    assert main([*argv[1:], "--out", str(tmp_path / "sweep")]) == 0
    assert capsys.readouterr().out == table


def experiment_commands() -> list[list[str]]:
    """The Experiments commands."""
    return commands(first_block("Experiments"))


def test_readme_experiments_are_two_simulate_commands():
    commands = experiment_commands()
    assert len(commands) == 2
    assert all(argv[:2] == ["sortbatch", "simulate"] for argv in commands)
