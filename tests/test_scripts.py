"""README's Experiments commands, the two sweeps behind the paper's tables,
run at 3000 pairs and two seeds; `report` reproduces the tables they write."""

import contextlib
import io

import pytest

from sortbatch.cli import EXIT_OK, main

from .test_readme import experiment_commands

SWEEPS = ["long_tail", "short"]


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    """Runs each command in-process into `<tmp>/<sweep>` and returns that
    directory and what each command printed. argparse keeps the last value of
    a flag given twice, so the --n, --seeds and --out appended here override
    the README's."""
    out = tmp_path_factory.mktemp("sweeps")
    printed = {}
    for sweep, argv in zip(SWEEPS, experiment_commands(), strict=True):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv[1:] + ["--n", "3000", "--seeds", "0", "1", "--out", str(out / sweep)])
        assert code == EXIT_OK
        printed[sweep] = stdout.getvalue()
    return out, printed


@pytest.mark.parametrize("sweep", SWEEPS)
def test_readme_experiment_prints_the_comparison_md_it_writes(sweeps, sweep):
    out, printed = sweeps
    assert printed[sweep].encode() == (out / sweep / "comparison.md").read_bytes()


@pytest.mark.parametrize("sweep", SWEEPS)
@pytest.mark.parametrize("fmt, name", [("csv", "comparison.csv"), ("md", "comparison.md")])
def test_report_reproduces_sweep_tables(sweeps, tmp_path, sweep, fmt, name):
    out, _ = sweeps
    rendered = tmp_path / name
    assert main(["report", str(out / sweep), "--format", fmt, "--out", str(rendered)]) == EXIT_OK
    assert rendered.read_bytes() == (out / sweep / name).read_bytes()
