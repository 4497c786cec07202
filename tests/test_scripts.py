"""Smoke test of scripts/run_table_sweeps.py at a tiny corpus size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from sortbatch.cli import EXIT_OK, main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_table_sweeps.py"


@pytest.fixture(scope="module")
def sweeps_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweeps")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    argv = [sys.executable, str(SCRIPT), "--out", str(out), "--n-long", "3000", "--n-short", "3000", "--seeds", "0", "1"]
    result = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "== long_tail: 3000 pairs" in result.stdout and "== short: 3000 pairs" in result.stdout
    return out


@pytest.mark.parametrize("sweep", ["long_tail", "short"])
@pytest.mark.parametrize("fmt, name", [("csv", "comparison.csv"), ("md", "comparison.md")])
def test_report_reproduces_sweep_tables(sweeps_dir, tmp_path, capsys, sweep, fmt, name):
    rendered = tmp_path / name
    assert main(["report", str(sweeps_dir / sweep), "--format", fmt, "--out", str(rendered)]) == EXIT_OK
    assert rendered.read_bytes() == (sweeps_dir / sweep / name).read_bytes()
