"""Fuzzed command lines: every outcome is a documented exit code, never a traceback.

Command lines are drawn from the real subcommands and flags, with bad values,
bad corpus files and bad report.json values among the good ones. Each runs in
this process through `main(argv)`. Every path a command line names lies in a
fresh directory of its own, so no `--out` is the working directory or one of
its ancestors, and no corpus holds more than 200 pairs.
"""

import contextlib
import io
import itertools
import json
import math
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sortbatch.batcher import BatchPlanConfig
from sortbatch.cli import EXIT_DATA, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from sortbatch.cost import RunReport

EXIT_CODES = (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_IO)

BAD_CORPORA = {
    "empty": b"",
    "zero_length": b"0\t3\n",
    "one_column": b"5\n",
    "three_columns": b"1\t2\t3\n",
    "sentences": b"a b\tc d e\n",
    "signed": b"+5\t3\n",
    "huge": b"99999999999999999999\t1\n",
    "not_utf8": b"\xff\xfe\t1\n",
    "no_newline": b"4\t2",
    "blank_line": b"4\t2\n\n3\t1\n",
}

@st.composite
def mostly(draw, good, bad):
    """A value from `good` most of the time, else one from `bad`."""
    return draw(bad) if draw(st.integers(0, 9)) == 9 else draw(good)


def one(strategy):
    return strategy.map(lambda value: [value])


# A corpus argument: the good corpus, a bad one, or a path that is no file.
CORPUS = mostly(st.just("@corpus"), st.sampled_from(["@dir", "@missing", *(f"@bad:{name}" for name in BAD_CORPORA)]))
# An output path, made in the example's own directory.
OUT = mostly(st.just("@new"), st.sampled_from(["@new/deeper", "@file", "@emptydir", "@nonempty", "@missing/out", "@sweep_copy"]))

BAD_INTS = st.sampled_from(["0", "-1", "x", "", "1.5", "1e3", "99999999999999999999", "٣"])
BAD_FLOATS = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-320", "1e308", "x", ""])  # and edge cases


def ints(lo, hi):
    return mostly(st.integers(lo, hi).map(str), BAD_INTS)


def floats(lo, hi):
    return mostly(st.floats(lo, hi).map(repr), BAD_FLOATS)


#: flag -> strategy for its value list (one item, several, or none for a switch)
FLAGS = {
    "--seed": one(ints(0, 50)),
    "--format": one(mostly(st.sampled_from(["csv", "md", "json"]), st.sampled_from(["xml", ""]))),
    "--out": one(OUT),
    "--n": one(mostly(st.integers(1, 200).map(str), st.sampled_from(["0", "-1", "x", "", "1.5"]))),
    "--mean-src": one(floats(1, 30)),
    "--std-src": one(floats(0, 10)),
    "--max-len": one(ints(1, 80)),
    "--pair-diff": one(floats(0, 3)),
    "--length-dist": one(mostly(st.sampled_from(["lognormal", "normal"]), st.just("gamma"))),
    "--corpus-format": one(mostly(st.sampled_from(["lengths-tsv", "parallel-tsv"]), st.just("tsv"))),
    "--hist-out": one(OUT),
    "--corpus": one(CORPUS),
    "--m": one(ints(1, 16)),
    "--k": mostly(
        st.lists(
            mostly(st.sampled_from(["1", "2", "3", "10", "all", "99999999999999999999"]), st.sampled_from(["0", "-1", "x", "ALL", "1.5"])),
            min_size=1,
            max_size=3,
        ),
        st.just([]),
    ),
    "--seeds": mostly(st.lists(ints(0, 5), min_size=1, max_size=2), st.just([])),
    "--epochs": one(mostly(st.sampled_from(["1", "2", "3"]), st.sampled_from(["0", "-1", "x"]))),
    "--drop-last": st.just([]),
}
#: the flags every subcommand takes
COMMON = ("--out",)
SYNTH = ("--n", "--mean-src", "--std-src", "--max-len", "--pair-diff", "--length-dist")
#: the flags a working command line of each subcommand needs
NEEDED = {
    "gen": ("--out", "--n", "--mean-src", "--std-src", "--max-len"),
    "simulate": ("--out", "--m", "--k"),
}
OPTIONAL = {
    "gen": ("--seed", "--pair-diff", "--length-dist"),
    "stats": ("--format", "--out", "--corpus-format", "--hist-out"),
    "simulate": ("--seed", "--format", "--seeds", "--epochs", "--drop-last"),
    "report": ("--format", "--out"),
}

RUN_DIRS = ("run_k1_seed0", "run_k3_seed0", "run_kall_seed0")
REPORT_KEYS = [f.name for f in fields(RunReport) if f.name != "config"]
CONFIG_KEYS = [f.name for f in fields(BatchPlanConfig)]
DELETE = object()
BAD_VALUES = [DELETE, None, "x", "", -1, 0, 1, 7, 10**30, 10**400, 1.5, math.nan, math.inf, [], {}, True, False]
#: (run dir, section, key, value) or (run dir, whole-file text)
REPORT_EDIT = st.one_of(
    st.tuples(
        st.sampled_from(RUN_DIRS),
        st.sampled_from(["top", "config"]),
        st.sampled_from([*REPORT_KEYS, *CONFIG_KEYS, "extra"]),
        st.sampled_from(BAD_VALUES),
    ),
    st.tuples(st.sampled_from(RUN_DIRS), st.sampled_from([b"", b"{", b"[]", b"null", b"\xff\xfe", b'{"config": 1}', b"[" * 100_000])),
)
REPORT_RUN = st.one_of(
    st.sampled_from(["@sweep", "@sweep/run_k3_seed0/report.json", "@missing", "@emptydir", "@corpus"]),
    REPORT_EDIT,
)


@st.composite
def command_lines(draw):
    """A subcommand with its flags: each needed flag most of the time, some
    optional ones, and now and then a flag of another subcommand."""
    command = draw(mostly(st.sampled_from(sorted(OPTIONAL)), st.just("bogus")))
    needed = NEEDED.get(command, ())
    if command == "simulate":
        needed += ("--corpus",) if draw(st.booleans()) else SYNTH[:4]
    chosen = [flag for flag in needed if draw(st.integers(0, 9)) < 9]
    chosen += draw(st.lists(st.sampled_from(OPTIONAL.get(command, COMMON)), max_size=3, unique=True))
    chosen += draw(mostly(st.just([]), st.sampled_from(sorted(FLAGS)).map(lambda flag: [flag])))
    argv = [command]
    if command == "stats":
        argv += draw(mostly(CORPUS.map(lambda path: [path]), st.just([])))
    if command == "report":
        argv += draw(st.lists(REPORT_RUN, min_size=1, max_size=2))
    for flag in draw(st.permutations(chosen)):
        argv += [flag, *draw(FLAGS[flag])]
    return argv


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A good corpus, the bad ones, and a good sweep over the good corpus."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "corpus.tsv").write_text("".join(f"{i % 20 + 1}\t{i % 15 + 1}\n" for i in range(120)), encoding="utf-8")
    for name, data in BAD_CORPORA.items():
        (root / f"bad_{name}.tsv").write_bytes(data)
    (root / "dir").mkdir()
    argv = ["simulate", "--corpus", str(root / "corpus.tsv"), "--m", "4", "--k", "1", "3", "all", "--seeds", "0"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", str(root / "sweep")]) == EXIT_OK
    return root


def _write_report_copy(target, sweep, edit):
    """A copy of the sweep's report.json files with one edited."""
    for run in RUN_DIRS:
        (target / run).mkdir(parents=True)
        (target / run / "report.json").write_bytes((sweep / run / "report.json").read_bytes())
    path = target / edit[0] / "report.json"
    if len(edit) == 2:
        path.write_bytes(edit[1])
        return
    _, section, key, value = edit
    report = json.loads(path.read_text(encoding="utf-8"))
    held = report["config"] if section == "config" else report
    if value is DELETE:
        held.pop(key, None)
    else:
        held[key] = value
    path.write_text(json.dumps(report), encoding="utf-8")


def _resolve(item, root, here, counter):
    """The command-line text of one drawn item; paths are made under `here`."""
    if isinstance(item, tuple):
        target = here / f"edited{next(counter)}"
        _write_report_copy(target, root / "sweep", item)
        return str(target)
    if not item.startswith("@"):
        return item
    name = item[1:]
    if name == "corpus":
        return str(root / "corpus.tsv")
    if name == "dir":
        return str(root / "dir")
    if name.startswith("bad:"):
        return str(root / f"bad_{name[4:]}.tsv")
    if name == "sweep" or name.startswith("sweep/"):
        return str(root / name)
    if name == "file":
        (here / "file").write_text("5\t5\n", encoding="utf-8")
    elif name == "emptydir":
        (here / "emptydir").mkdir(exist_ok=True)
    elif name == "nonempty":
        (here / "nonempty").mkdir(exist_ok=True)
        (here / "nonempty" / "keep.txt").write_text("keep\n", encoding="utf-8")
    elif name == "sweep_copy" and not (here / name).exists():
        _write_report_copy(here / name, root / "sweep", ("run_k1_seed0", b"{}"))
        (here / name / "sweep.json").write_text("{}\n", encoding="utf-8")
    return str(here / name)


_examples = itertools.count()


@given(command_lines())
@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_command_line_ends_in_a_documented_exit_code(workspace, argv):
    here = workspace / f"example{next(_examples)}"
    here.mkdir()
    counter = itertools.count()
    resolved = [_resolve(item, workspace, here, counter) for item in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(resolved)
    assert code in EXIT_CODES
    assert "Traceback" not in stderr.getvalue()
    if code != EXIT_OK:
        assert stderr.getvalue().startswith("error: ")
    assert (workspace / "corpus.tsv").read_text(encoding="utf-8").count("\n") == 120
