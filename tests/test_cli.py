"""End-to-end CLI behavior: flags, file layout, exit codes, round trips."""

import hashlib
import json
import os
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from sortbatch import batcher, cli
from sortbatch.batcher import BatchPlanConfig, config_for_k, k_label
from sortbatch.cli import EXIT_DATA, EXIT_IO, EXIT_OK, EXIT_USAGE, SweepSpec, collect_reports, main, run_sweep
from sortbatch.corpus import SentencePair, SynthParams, compute_stats, load_corpus
from sortbatch.cost import RunReport, compare_costs
from sortbatch.diagnostics import write_iid_report_json

GEN_FLAGS = ["--n", "200", "--mean-src", "10", "--std-src", "3", "--max-len", "50"]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_writes_requested_pairs(tmp_path, capsys):
    out = tmp_path / "c.tsv"
    code, stdout, _ = run(["gen", *GEN_FLAGS, "--seed", "7", "--out", str(out)], capsys)
    assert code == EXIT_OK
    assert "200" in stdout
    assert len(out.read_text().splitlines()) == 200
    assert len(load_corpus(out)) == 200


def test_gen_prints_the_src_moments_it_wrote(tmp_path, capsys):
    """No normal truncated to [1, 1000] has mean 10.99 and std 10, so the fit
    falls back to its start; gen says what it made (mean 13.93, std 7.92)."""
    out = tmp_path / "c.tsv"
    flags = ["--n", "20000", "--mean-src", "10.99", "--std-src", "10", "--max-len", "1000"]
    code, stdout, _ = run(["gen", *flags, "--length-dist", "normal", "--out", str(out)], capsys)
    assert code == EXIT_OK
    stats = compute_stats(load_corpus(out))
    assert stdout == f"wrote 20000 pairs (src mean {stats.mean_src:.4f}, std {stats.std_src:.4f}) to {out}\n"
    assert (f"{stats.mean_src:.4f}", f"{stats.std_src:.4f}") == ("13.9255", "7.9212")


def test_gen_single_pair(tmp_path, capsys):
    out = tmp_path / "one.tsv"
    code, _, _ = run(
        ["gen", "--n", "1", "--mean-src", "5", "--std-src", "1", "--max-len", "10", "--out", str(out)],
        capsys,
    )
    assert code == EXIT_OK
    assert len(out.read_text().splitlines()) == 1


def test_gen_requires_out(tmp_path, capsys, monkeypatch):
    """So does simulate; neither creates anything in the working directory."""
    monkeypatch.chdir(tmp_path)
    for argv in (["gen", *GEN_FLAGS], ["simulate", *GEN_FLAGS, "--m", "4", "--k", "1"]):
        code, _, err = run(argv, capsys)
        assert code == EXIT_USAGE
        assert err.startswith(f"error: {argv[0]} requires --out")
        assert list(tmp_path.iterdir()) == []


def test_gen_missing_flag_is_usage_error(capsys):
    code, _, _ = run(["gen", "--n", "5", "--mean-src", "5", "--std-src", "1"], capsys)
    assert code == EXIT_USAGE


def test_gen_unwritable_path_is_io_error(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "c.tsv"
    code, _, err = run(["gen", *GEN_FLAGS, "--out", str(out)], capsys)
    assert code == EXIT_IO
    assert err


def test_gen_infeasible_params_is_data_error(tmp_path, capsys):
    code, _, err = run(
        ["gen", "--n", "5", "--mean-src", "60", "--std-src", "1", "--max-len", "50",
         "--out", str(tmp_path / "c.tsv")],
        capsys,
    )
    assert code == EXIT_DATA
    assert "infeasible" in err


def test_gen_refuses_std_src_above_the_bhatia_davis_bound(tmp_path, capsys):
    """Lengths in [1, max_len] with mean mu have a std of at most
    sqrt((mu - 1)(max_len - mu)): 9.4868... for mean 10 in [1, 20]."""
    out = tmp_path / "c.tsv"
    flags = ["--n", "2000", "--mean-src", "10", "--max-len", "20", "--out", str(out)]
    code, _, err = run(["gen", *flags, "--std-src", "15"], capsys)
    assert code == EXIT_DATA
    assert "infeasible" in err and "9.486832980505138" in err
    assert not out.exists()
    code, _, err = run(["simulate", *flags, "--std-src", "9.5", "--m", "8", "--k", "1"], capsys)
    assert code == EXIT_DATA
    assert "9.486832980505138" in err
    assert not out.exists()
    code, _, _ = run(["gen", *flags[:4], "--max-len", "19", "--out", str(out), "--std-src", "9"], capsys)
    assert code == EXIT_OK  # at the bound: sqrt(9 * 9) for mean 10 in [1, 19]
    assert len(load_corpus(out)) == 2000


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.tsv"
    lines = [f"{i % 20 + 1}\t{i % 15 + 1}" for i in range(100)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_stats_prints_markdown_by_default(corpus_file, capsys):
    code, stdout, _ = run(["stats", str(corpus_file)], capsys)
    assert code == EXIT_OK
    assert "| mean_src |" in stdout
    assert "| n_pairs | 100 |" in stdout


def test_stats_records_filter(corpus_file, capsys):
    code, stdout, _ = run(["stats", str(corpus_file), "--max-len", "10", "--format", "csv"], capsys)
    assert code == EXIT_OK
    header, row = stdout.strip().splitlines()
    assert header.split(",")[-1] == "max_len_filter"
    assert row.split(",")[-1] == "10"


def test_stats_json_includes_histograms(corpus_file, capsys):
    code, stdout, _ = run(["stats", str(corpus_file), "--format", "json"], capsys)
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["n_pairs"] == 100
    assert sum(payload["histogram_src"].values()) == 100


def test_stats_csv_header_and_json_histogram_key_order(corpus_file, capsys):
    code, stdout, _ = run(["stats", str(corpus_file), "--format", "csv"], capsys)
    assert code == EXIT_OK
    assert stdout.splitlines()[0] == (
        "n_pairs,mean_src,std_src,max_src,mean_tgt,std_tgt,max_tgt,mean_pairwise_abs_diff,max_len_filter"
    )
    code, stdout, _ = run(["stats", str(corpus_file), "--format", "json"], capsys)
    assert code == EXIT_OK
    keys = list(json.loads(stdout)["histogram_src"])
    assert keys == sorted(str(length) for length in range(1, 21))  # "1", "10", ..., "19", "2", "20", "3"


STATS_BYTES = {
    ("csv", None): (
        "n_pairs,mean_src,std_src,max_src,mean_tgt,std_tgt,max_tgt,mean_pairwise_abs_diff,max_len_filter\n"
        "3,3.6667,2.4944,7,3.6667,1.2472,5,1.3333,\n"
    ),
    ("csv", "5"): (
        "n_pairs,mean_src,std_src,max_src,mean_tgt,std_tgt,max_tgt,mean_pairwise_abs_diff,max_len_filter\n"
        "2,2.0000,1.0000,3,3.0000,1.0000,4,1.0000,5\n"
    ),
    ("md", None): (
        "| stat | value |\n|---|---|\n| n_pairs | 3 |\n| mean_src | 3.6667 |\n| std_src | 2.4944 |\n"
        "| max_src | 7 |\n| mean_tgt | 3.6667 |\n| std_tgt | 1.2472 |\n| max_tgt | 5 |\n"
        "| mean_pairwise_abs_diff | 1.3333 |\n| max_len_filter | - |\n"
    ),
    ("md", "5"): (
        "| stat | value |\n|---|---|\n| n_pairs | 2 |\n| mean_src | 2.0000 |\n| std_src | 1.0000 |\n"
        "| max_src | 3 |\n| mean_tgt | 3.0000 |\n| std_tgt | 1.0000 |\n| max_tgt | 4 |\n"
        "| mean_pairwise_abs_diff | 1.0000 |\n| max_len_filter | 5 |\n"
    ),
    ("json", None): (
        '{\n  "histogram_src": {\n    "1": 1,\n    "3": 1,\n    "7": 1\n  },\n'
        '  "histogram_tgt": {\n    "2": 1,\n    "4": 1,\n    "5": 1\n  },\n'
        '  "max_len_filter": null,\n  "max_src": 7,\n  "max_tgt": 5,\n'
        '  "mean_pairwise_abs_diff": 1.3333333333333333,\n  "mean_src": 3.6666666666666665,\n'
        '  "mean_tgt": 3.6666666666666665,\n  "n_pairs": 3,\n'
        '  "std_src": 2.494438257849294,\n  "std_tgt": 1.247219128924647\n}\n'
    ),
    ("json", "5"): (
        '{\n  "histogram_src": {\n    "1": 1,\n    "3": 1\n  },\n'
        '  "histogram_tgt": {\n    "2": 1,\n    "4": 1\n  },\n'
        '  "max_len_filter": 5,\n  "max_src": 3,\n  "max_tgt": 4,\n'
        '  "mean_pairwise_abs_diff": 1.0,\n  "mean_src": 2.0,\n  "mean_tgt": 3.0,\n'
        '  "n_pairs": 2,\n  "std_src": 1.0,\n  "std_tgt": 1.0\n}\n'
    ),
}


@pytest.mark.parametrize("fmt, max_len", list(STATS_BYTES))
def test_stats_bytes_with_and_without_limit(fmt, max_len, tmp_path, capsys):
    path = tmp_path / "three.tsv"
    path.write_text("3\t4\n1\t2\n7\t5\n", encoding="utf-8")
    limit = [] if max_len is None else ["--max-len", max_len]
    code, stdout, _ = run(["stats", str(path), "--format", fmt, *limit], capsys)
    assert code == EXIT_OK
    assert stdout == STATS_BYTES[fmt, max_len]
    out = tmp_path / "stats.out"
    code, stdout, _ = run(["stats", str(path), "--format", fmt, *limit, "--out", str(out)], capsys)
    assert (code, stdout) == (EXIT_OK, "")
    assert out.read_bytes() == STATS_BYTES[fmt, max_len].encode()


def test_stats_limit_above_the_column_type_keeps_every_pair(corpus_file, capsys):
    """corpus_file's lengths are 1..20, one byte each; a limit of 1000 keeps them all."""
    assert load_corpus(corpus_file).src.dtype == np.uint8
    code, stdout, _ = run(["stats", str(corpus_file), "--max-len", "1000", "--format", "json"], capsys)
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert (payload["n_pairs"], payload["max_len_filter"]) == (100, 1000)


def test_stats_hist_out(corpus_file, tmp_path, capsys):
    hist = tmp_path / "hist.csv"
    code, _, _ = run(["stats", str(corpus_file), "--hist-out", str(hist)], capsys)
    assert code == EXIT_OK
    assert hist.read_text().splitlines()[0] == "length,src_count,tgt_count"


def test_stats_missing_file_is_io_error(tmp_path, capsys):
    code, _, _ = run(["stats", str(tmp_path / "nope.tsv")], capsys)
    assert code == EXIT_IO


def test_stats_malformed_file_is_data_error(tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    path.write_text("1\t2\t3\n", encoding="utf-8")
    code, _, err = run(["stats", str(path)], capsys)
    assert code == EXIT_DATA
    assert "line 1" in err


@pytest.mark.parametrize("command", ["stats", "simulate"])
def test_non_utf8_corpus_error_names_the_file_and_line(command, tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    path.write_bytes(b"3\t4\n\xff5\t6\n")
    argv = ["stats", str(path)] if command == "stats" else [
        "simulate", "--corpus", str(path), "--m", "2", "--k", "1", "--out", str(tmp_path / "sweep")
    ]
    code, _, err = run(argv, capsys)
    assert code == EXIT_DATA
    assert err == f"error: {path}: line 2: not UTF-8 text\n"


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def simulate_args(corpus_file, out_dir, k=("1", "3", "all"), seeds=("0", "1")):
    return [
        "simulate", "--corpus", str(corpus_file), "--m", "4",
        "--k", *k, "--seeds", *seeds, "--out", str(out_dir),
    ]


def test_simulate_writes_expected_layout(corpus_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    code, stdout, _ = run(simulate_args(corpus_file, out), capsys)
    assert code == EXIT_OK
    assert stdout.startswith("| policy | k |")
    assert (out / "comparison.csv").is_file()
    assert (out / "comparison.md").is_file()
    assert (out / "corpus.tsv").is_file()
    assert (out / "sweep.json").is_file()
    for label in ("1", "3", "all"):
        for seed in ("0", "1"):
            run_dir = out / f"run_k{label}_seed{seed}"
            assert (run_dir / "report.json").is_file()
            assert (run_dir / "batches.jsonl").is_file()
            assert (run_dir / "iid.json").is_file()


def test_simulate_maps_k_to_policies(corpus_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    code, _, _ = run(simulate_args(corpus_file, out, seeds=("0",)), capsys)
    assert code == EXIT_OK
    assert json.loads((out / "sweep.json").read_text())["k_values"] == ["1", "3", "all"]
    assert sorted(p.name for p in out.glob("run_*")) == ["run_k1_seed0", "run_k3_seed0", "run_kall_seed0"]
    header, *rows = (line.split(",") for line in (out / "comparison.csv").read_text().splitlines())
    cells = [(row[header.index("policy")], row[header.index("k")]) for row in rows]
    assert cells == [("unsorted", "1"), ("partial_sort", "3"), ("full_sort", "all")]
    for k, policy, config_k in ((1, "unsorted", 1), (3, "partial_sort", 3), ("all", "full_sort", 1)):
        config = json.loads((out / f"run_k{k}_seed0" / "report.json").read_text())["config"]
        assert (config["policy"], config["k"]) == (policy, config_k)
        # Both directions of the mapping: k to config, and config back to k.
        assert config_for_k(k, m=4, seed=0) == BatchPlanConfig(**config)
        assert k_label(BatchPlanConfig(**config)) == str(k)


def test_simulate_is_deterministic(corpus_file, tmp_path, capsys):
    code_a, _, _ = run(simulate_args(corpus_file, tmp_path / "a"), capsys)
    code_b, _, _ = run(simulate_args(corpus_file, tmp_path / "b"), capsys)
    assert code_a == code_b == EXIT_OK
    assert (tmp_path / "a" / "comparison.csv").read_bytes() == (
        tmp_path / "b" / "comparison.csv"
    ).read_bytes()


def test_simulate_synth_source(tmp_path, capsys):
    out = tmp_path / "sweep"
    code, _, _ = run(
        ["simulate", *GEN_FLAGS, "--seed", "3", "--m", "8", "--k", "1", "2",
         "--seeds", "0", "--out", str(out)],
        capsys,
    )
    assert code == EXIT_OK
    assert json.loads((out / "sweep.json").read_text())["corpus"]["synth"]["seed"] == 3


def test_simulate_requires_exactly_one_source(corpus_file, tmp_path, capsys):
    code, _, _ = run(
        ["simulate", "--corpus", str(corpus_file), *GEN_FLAGS, "--m", "4", "--k", "1",
         "--out", str(tmp_path / "x")],
        capsys,
    )
    assert code == EXIT_USAGE
    code, _, _ = run(["simulate", "--m", "4", "--k", "1", "--out", str(tmp_path / "y")], capsys)
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "flags", [["--pair-diff", "5"], ["--length-dist", "normal"], ["--seed", "7"], ["--n", "200"]]
)
def test_simulate_refuses_synth_flags_with_corpus(flags, corpus_file, tmp_path, capsys):
    """A synth flag given with --corpus would be ignored: it is a usage error that names the flag."""
    out = tmp_path / "sweep"
    code, stdout, err = run([*simulate_args(corpus_file, out), *flags], capsys)
    assert code == EXIT_USAGE
    assert flags[0] in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("k", [("0",), ("x",), ("1", "-2")], ids=["zero", "word", "negative"])
def test_simulate_rejects_bad_k(k, corpus_file, tmp_path, capsys):
    code, stdout, err = run(simulate_args(corpus_file, tmp_path / "sweep", k=k), capsys)
    assert code == EXIT_USAGE
    assert stdout == "" and len(err.splitlines()) == 1
    assert err.startswith("error: ") and "invalid k value" in err and k[-1] in err
    assert list(tmp_path.iterdir()) == [corpus_file]


@pytest.mark.parametrize(
    "given, message",
    [
        (dict(seeds=("0", "0")), "duplicate seeds: [0, 0]"),
        (dict(k=("1", "01")), "duplicate k values: ['1', '1']"),
        (dict(k=("all", "all")), "duplicate k values: ['all', 'all']"),
    ],
    ids=["seeds", "k", "k_all"],
)
def test_simulate_duplicate_seeds_or_k_is_data_error(given, message, corpus_file, tmp_path, capsys):
    code, _, err = run(simulate_args(corpus_file, tmp_path / "sweep", **given), capsys)
    assert code == EXIT_DATA
    assert message in err
    assert list(tmp_path.iterdir()) == [corpus_file]


@pytest.mark.parametrize("flags", [["--m", "0"], ["--epochs", "0"], ["--seeds", "1", "-1"]])
@pytest.mark.parametrize("source", ["corpus", "synth"])
def test_simulate_bad_setting_exits_before_reading_input(
    flags, source, corpus_file, tmp_path, capsys, monkeypatch
):
    """BatchPlanConfig's checks run when the sweep is specified: nothing is
    read or synthesised, hashed, or created under --out."""
    def refuse(*args):
        raise AssertionError("input read before the settings were checked")

    for name in ("load_corpus", "synth_generate", "corpus_hash"):
        monkeypatch.setattr(cli, name, refuse)
    given = ["--corpus", str(corpus_file)] if source == "corpus" else GEN_FLAGS
    out = tmp_path / "missing" / "dir"
    code, _, err = run(["simulate", *given, "--k", "1", "all", "--m", "4", *flags, "--out", str(out)], capsys)
    assert code == EXIT_DATA
    assert err.startswith("error: ") and ">= " in err
    assert list(tmp_path.iterdir()) == [corpus_file]


@pytest.mark.parametrize("empty", ["k_values", "seeds"])
def test_sweep_spec_refuses_no_k_values_or_no_seeds(empty, corpus_file, tmp_path):
    settings = dict(m=4, k_values=(1,), seeds=(0,), out_dir=tmp_path / "sweep", source=corpus_file)
    with pytest.raises(ValueError, match=f"{empty} must be nonempty"):
        SweepSpec(**{**settings, empty: ()})


def test_sweep_shuffles_once_per_seed_and_epoch(corpus_file, tmp_path, monkeypatch):
    """Every k of a seed batches the same epoch shuffles: 2 seeds x 2 epochs
    is 4 shuffles, not one per (k, seed, epoch)."""
    calls = []
    real = batcher.shuffle

    def counted(corpus, seed):
        calls.append(seed)
        return real(corpus, seed)

    monkeypatch.setattr(batcher, "shuffle", counted)
    common = dict(m=4, k_values=(1, 3, "all"), seeds=(0, 1), epochs=2)
    run_sweep(SweepSpec(out_dir=tmp_path / "sweep", source=corpus_file, **common))
    assert sorted(calls) == sorted(batcher.epoch_shuffle_seed(seed, epoch) for seed in (0, 1) for epoch in (0, 1))


def test_simulate_cleans_up_on_failure(corpus_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    argv = [
        "simulate", "--corpus", str(corpus_file), "--m", "500", "--drop-last",
        "--k", "1", "--seeds", "0", "--out", str(out),
    ]
    code, _, err = run(argv, capsys)  # m > corpus size with drop_last fails mid-sweep
    assert code == EXIT_DATA
    assert err
    assert not out.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.tsv"]  # no stage left behind


def tree(root):
    """Every path under root, mapped to its bytes (None for a directory)."""
    return {p.relative_to(root): None if p.is_dir() else p.read_bytes() for p in root.rglob("*")}


def test_failed_rerun_keeps_earlier_sweep(corpus_file, tmp_path, capsys, monkeypatch):
    out = tmp_path / "sweep"
    assert run(simulate_args(corpus_file, out), capsys)[0] == EXIT_OK
    before = tree(out)
    calls = []

    def fail_second_cell(report, path):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("injected write failure")
        write_iid_report_json(report, path)

    monkeypatch.setattr(cli, "write_iid_report_json", fail_second_cell)
    code, _, err = run(simulate_args(corpus_file, out, k=("1", "5")), capsys)
    assert code == EXIT_IO
    assert "injected" in err
    assert tree(out) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.tsv", "sweep"]


def test_failed_publish_puts_earlier_sweep_back(corpus_file, tmp_path, capsys, monkeypatch):
    """The stage-to-out rename fails once the earlier sweep is moved aside:
    that sweep is renamed back, and no .old or .tmp sibling is left."""
    out = tmp_path / "sweep"
    assert run(simulate_args(corpus_file, out), capsys)[0] == EXIT_OK
    before = tree(out)
    real_rename = Path.rename
    failed = []

    def rename(self, target):
        if self.name.endswith(".tmp") and Path(target) == out.resolve():
            failed.append(self)
            raise OSError("injected rename failure")
        return real_rename(self, target)

    monkeypatch.setattr(Path, "rename", rename)
    code, _, err = run(simulate_args(corpus_file, out, k=("1", "5")), capsys)
    assert (code, len(failed)) == (EXIT_IO, 1)
    assert "injected" in err
    assert tree(out) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.tsv", "sweep"]


@pytest.mark.parametrize("suffix", [".tmp", ".old", ".0a1b2c3d.tmp"])
def test_leftover_of_a_killed_run_with_this_pid_blocks_nothing(suffix, corpus_file, tmp_path, capsys):
    """A killed simulate may leave .sweep.PID.TOKEN.tmp (.sweep.PID.tmp before
    stages had a token), or .sweep.PID.old, and a later run can get the same
    pid; it still writes its sweep, names the leftover on stderr and leaves
    it as it was."""
    out = tmp_path / "sweep"
    if suffix == ".old":  # an earlier sweep to move aside
        assert run(simulate_args(corpus_file, out, k=("1",), seeds=("0",)), capsys)[0] == EXIT_OK
    leftover = tmp_path / f".sweep.{os.getpid()}{suffix}"
    leftover.mkdir()
    (leftover / "sweep.json").write_text("{}\n", encoding="utf-8")
    before = tree(leftover)
    code, _, err = run(simulate_args(corpus_file, out), capsys)
    assert code == EXIT_OK
    assert err == f"note: {leftover.resolve()}: left by a simulate that was killed or is still running\n"
    assert (out / "run_k3_seed1" / "report.json").is_file()
    assert tree(leftover) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([leftover.name, "corpus.tsv", "sweep"])


def test_simulate_notes_nothing_that_is_no_leftover_of_its_out(corpus_file, tmp_path, capsys):
    """A clean run prints no note, and neither does a rerun beside what only
    looks like a leftover: another --out's stage, a name that matches only if
    the dot of "a.b" matched any character, a bad suffix or token, a file."""
    out = tmp_path / "a.b"
    code, _, err = run(simulate_args(corpus_file, out), capsys)
    assert (code, err) == (EXIT_OK, "")
    for name in (".a.b.x.1.tmp", ".aXb.1.tmp", ".a.b.1.tmpx", ".a.b.1.TOKEN.tmp"):
        (tmp_path / name).mkdir()
    (tmp_path / ".a.b.1.old").write_text("", encoding="utf-8")
    code, _, err = run(simulate_args(corpus_file, out), capsys)
    assert (code, err) == (EXIT_OK, "")


def test_run_sweep_returns_the_table_report_reads_back(corpus_file, tmp_path):
    """Whatever the order of k and seeds, the table run_sweep returns equals
    the one compare_costs builds from the report.json files it wrote."""
    out = tmp_path / "sweep"
    comparison = run_sweep(SweepSpec(m=4, k_values=("all", 3, 1), seeds=(1, 0), out_dir=out, source=corpus_file))
    assert comparison == compare_costs(collect_reports([out]))


def test_rerun_replaces_earlier_sweep(corpus_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    run(simulate_args(corpus_file, out, k=("1", "10"), seeds=("0",)), capsys)
    code, _, _ = run(simulate_args(corpus_file, out, k=("1", "20"), seeds=("0",)), capsys)
    assert code == EXIT_OK
    assert not (out / "run_k10_seed0").exists()
    code, stdout, _ = run(["report", str(out), "--format", "csv"], capsys)
    assert code == EXIT_OK
    assert stdout == (out / "comparison.csv").read_text(encoding="utf-8")


def test_rerun_through_a_symlink_replaces_the_linked_sweep(corpus_file, tmp_path, capsys):
    target = tmp_path / "sweep"
    link = tmp_path / "latest"
    run(simulate_args(corpus_file, target, k=("1", "10"), seeds=("0",)), capsys)
    link.symlink_to(target.name)
    code, _, err = run(simulate_args(corpus_file, link, k=("1", "20"), seeds=("0",)), capsys)
    assert (code, err) == (EXIT_OK, "")
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert (target / "run_k20_seed0").is_dir() and not (target / "run_k10_seed0").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.tsv", "latest", "sweep"]


def test_simulate_refuses_out_that_holds_no_sweep(corpus_file, tmp_path, capsys):
    foreign = tmp_path / "notes"
    foreign.mkdir()
    (foreign / "todo.txt").write_text("keep me\n", encoding="utf-8")
    before = tree(foreign)
    code, _, err = run(simulate_args(corpus_file, foreign), capsys)
    assert code == EXIT_IO
    assert "refusing" in err
    assert tree(foreign) == before
    corpus_text = corpus_file.read_text(encoding="utf-8")
    code, _, _ = run(simulate_args(corpus_file, corpus_file), capsys)
    assert code == EXIT_IO
    assert corpus_file.read_text(encoding="utf-8") == corpus_text
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run(simulate_args(corpus_file, empty), capsys)[0] == EXIT_OK
    assert (empty / "sweep.json").is_file()


@pytest.mark.parametrize("out", [".", ".."])
def test_simulate_refuses_working_directory_and_its_ancestors(out, corpus_file, tmp_path, capsys, monkeypatch):
    work = tmp_path / "outer" / "work"
    work.mkdir(parents=True)
    (work.parent / "sweep.json").write_text("{}\n", encoding="utf-8")  # so only the new check refuses ".."
    monkeypatch.chdir(work)
    target = work if out == "." else work.parent
    inode, before = target.stat().st_ino, tree(target)
    code, _, err = run(simulate_args(corpus_file, out, k=("1",), seeds=("0",)), capsys)
    assert code == EXIT_IO
    assert "working directory" in err
    assert target.stat().st_ino == inode
    assert tree(target) == before


def test_simulate_costs_beyond_int64_is_data_error(tmp_path, capsys):
    corpus = tmp_path / "huge.tsv"
    corpus.write_text("3000000000\t5\n4000000000\t6\n", encoding="utf-8")
    argv = ["simulate", "--corpus", str(corpus), "--m", "2", "--k", "1", "--seeds", "0",
            "--out", str(tmp_path / "sweep")]
    code, _, err = run(argv, capsys)
    assert code == EXIT_DATA
    assert "int64" in err
    assert not (tmp_path / "sweep").exists()


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_round_trips_simulate_bytes(corpus_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    run(simulate_args(corpus_file, out), capsys)
    rt_csv = tmp_path / "rt.csv"
    code, _, _ = run(["report", str(out), "--format", "csv", "--out", str(rt_csv)], capsys)
    assert code == EXIT_OK
    assert rt_csv.read_bytes() == (out / "comparison.csv").read_bytes()
    rt_md = tmp_path / "rt.md"
    code, _, _ = run(["report", str(out), "--format", "md", "--out", str(rt_md)], capsys)
    assert code == EXIT_OK
    assert rt_md.read_bytes() == (out / "comparison.md").read_bytes()


def test_report_merges_separate_run_dirs(corpus_file, tmp_path, capsys):
    run(simulate_args(corpus_file, tmp_path / "a", k=("1",), seeds=("0",)), capsys)
    run(simulate_args(corpus_file, tmp_path / "b", k=("5",), seeds=("0",)), capsys)
    code, stdout, _ = run(
        ["report", str(tmp_path / "a"), str(tmp_path / "b"), "--format", "csv"], capsys
    )
    assert code == EXIT_OK
    lines = stdout.strip().splitlines()
    assert len(lines) == 3  # header + unsorted + k=5
    assert lines[1].startswith("unsorted,1,")
    assert lines[2].startswith("partial_sort,5,")


@pytest.mark.parametrize("leftover", [".sweep.999.tmp", ".sweep.999.old"])
def test_report_skips_a_killed_runs_hidden_siblings(leftover, corpus_file, tmp_path, capsys):
    """A killed simulate may leave its stage, or the sweep it was replacing,
    as a hidden sibling of --out; report over the parent reads neither."""
    runs = tmp_path / "runs"
    out = runs / "sweep"
    run(simulate_args(corpus_file, out, k=("1", "3"), seeds=("0",)), capsys)
    shutil.copytree(out, runs / leftover)
    code, stdout, err = run(["report", str(runs), "--format", "csv"], capsys)
    assert (code, err) == (EXIT_OK, "")
    assert stdout == (out / "comparison.csv").read_text(encoding="utf-8")
    for given in (runs / leftover, runs / leftover / "run_k1_seed0" / "report.json"):  # named, it is read
        code, stdout, _ = run(["report", str(given), "--format", "csv"], capsys)
        assert code == EXIT_OK and stdout.count("\n") == (3 if given.is_dir() else 2)


def test_report_orders_rows_k_ascending_full_sort_last(corpus_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    run(simulate_args(corpus_file, out, k=("all", "3", "1"), seeds=("0",)), capsys)
    code, stdout, _ = run(["report", str(out), "--format", "csv"], capsys)
    assert code == EXIT_OK
    first_cols = [line.split(",")[1] for line in stdout.strip().splitlines()[1:]]
    assert first_cols == ["1", "3", "all"]


def test_report_mismatched_m_is_data_error(corpus_file, tmp_path, capsys):
    run(simulate_args(corpus_file, tmp_path / "a", k=("1",), seeds=("0",)), capsys)
    argv = ["simulate", "--corpus", str(corpus_file), "--m", "8", "--k", "2",
            "--seeds", "0", "--out", str(tmp_path / "b")]
    run(argv, capsys)
    code, _, err = run(["report", str(tmp_path / "a"), str(tmp_path / "b")], capsys)
    assert code == EXIT_DATA
    assert "4" in err and "8" in err


def test_report_mismatched_corpus_is_data_error(corpus_file, tmp_path, capsys):
    other = tmp_path / "other.tsv"
    other.write_text("9\t9\n8\t8\n7\t7\n6\t6\n", encoding="utf-8")
    run(simulate_args(corpus_file, tmp_path / "a", k=("1",), seeds=("0",)), capsys)
    run(simulate_args(other, tmp_path / "b", k=("2",), seeds=("0",)), capsys)
    code, _, err = run(["report", str(tmp_path / "a"), str(tmp_path / "b")], capsys)
    assert code == EXIT_DATA
    assert "hash" in err


def test_report_missing_dir_is_io_error(tmp_path, capsys):
    code, _, _ = run(["report", str(tmp_path / "ghost")], capsys)
    assert code == EXIT_IO


def test_report_empty_dir_is_data_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = run(["report", str(empty)], capsys)
    assert code == EXIT_DATA
    assert "report.json" in err


def test_report_malformed_report_is_data_error(corpus_file, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "report.json").write_text('{"corpus_hash": null, "per_batch": []}', encoding="utf-8")
    code, _, err = run(["report", str(bad)], capsys)
    assert code == EXIT_DATA
    assert "config" in err

    out = tmp_path / "sweep"
    run(simulate_args(corpus_file, out, k=("1",), seeds=("0",)), capsys)
    path = out / "run_k1_seed0" / "report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    del report["config"]["m"]
    path.write_text(json.dumps(report), encoding="utf-8")
    code, _, err = run(["report", str(out)], capsys)
    assert code == EXIT_DATA
    assert "'m'" in err


def test_report_json_nested_too_deep_is_data_error(tmp_path, capsys):
    (tmp_path / "report.json").write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, _, err = run(["report", str(tmp_path)], capsys)
    assert code == EXIT_DATA
    assert "recursion" in err


def test_report_json_keys_are_runreport_fields(corpus_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    run(simulate_args(corpus_file, out, k=("1",), seeds=("0",)), capsys)
    report = json.loads((out / "run_k1_seed0" / "report.json").read_text(encoding="utf-8"))
    assert report.keys() == {f.name for f in fields(RunReport)}


def test_report_with_per_batch_block_is_data_error(corpus_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    run(simulate_args(corpus_file, out, k=("1",), seeds=("0",)), capsys)
    path = out / "run_k1_seed0" / "report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    report["per_batch"] = []
    path.write_text(json.dumps(report), encoding="utf-8")
    code, _, err = run(["report", str(out)], capsys)
    assert code == EXIT_DATA
    assert "'per_batch'" in err and str(path) in err


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("config", "m", "64"),
        ("config", "seed", None),
        ("config", "drop_last", "no"),
        (None, "avg_padded_src", "x"),
        (None, "total_linear_cost", None),
        (None, "avg_padded_src", float("nan")),
        (None, "overall_waste_src", float("inf")),
    ],
)
def test_report_value_of_wrong_type_is_data_error(corpus_file, tmp_path, capsys, section, key, value):
    out = tmp_path / "sweep"
    run(simulate_args(corpus_file, out, k=("1", "3"), seeds=("0",)), capsys)
    path = out / "run_k3_seed0" / "report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    (report[section] if section else report)[key] = value
    path.write_text(json.dumps(report), encoding="utf-8")
    code, _, err = run(["report", str(out)], capsys)
    assert code == EXIT_DATA
    assert repr(key) in err and str(path) in err


def test_report_other_avg_definition_is_data_error(corpus_file, tmp_path, capsys):
    """A cell whose averages follow another convention is not divided by the baseline."""
    out = tmp_path / "sweep"
    run(simulate_args(corpus_file, out, k=("1", "3"), seeds=("0",)), capsys)
    path = out / "run_k3_seed0" / "report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    report["avg_definition"] = "token_weighted_mean"
    path.write_text(json.dumps(report), encoding="utf-8")
    code, stdout, err = run(["report", str(out)], capsys)
    assert code == EXIT_DATA
    assert stdout == ""
    assert "'avg_definition'" in err and "token_weighted_mean" in err and str(path) in err


@pytest.mark.parametrize("label", ["1", "all"])
def test_report_look_ahead_outside_partial_sort_is_data_error(corpus_file, tmp_path, capsys, label):
    out = tmp_path / "sweep"
    run(simulate_args(corpus_file, out, k=("1", "3", "all"), seeds=("0",)), capsys)
    path = out / f"run_k{label}_seed0" / "report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    report["config"]["k"] = 7
    path.write_text(json.dumps(report), encoding="utf-8")
    code, stdout, err = run(["report", str(out)], capsys)
    assert code == EXIT_DATA
    assert stdout == ""
    assert "look-ahead k=7" in err and str(path) in err


def test_report_same_run_twice_is_data_error(corpus_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    run(simulate_args(corpus_file, out, k=("1", "3"), seeds=("0",)), capsys)
    shutil.copytree(out, tmp_path / "copy")
    code, _, err = run(["report", str(out), str(tmp_path / "copy")], capsys)
    assert code == EXIT_DATA
    assert "seed=0" in err


def test_report_reads_a_file_reached_by_several_spellings_once(corpus_file, tmp_path, capsys, monkeypatch):
    """Relative, absolute and symlinked paths to one sweep, and one of its
    report.json files, are read as the sweep alone."""
    monkeypatch.chdir(tmp_path)
    run(simulate_args(corpus_file, "sweep", k=("1", "3"), seeds=("0", "1")), capsys)
    (tmp_path / "alias").symlink_to("sweep", target_is_directory=True)
    spellings = ["sweep", str(tmp_path / "sweep"), "alias", "alias/run_k1_seed0/report.json"]
    code, stdout, err = run(["report", *spellings, "--format", "csv"], capsys)
    assert (code, err) == (EXIT_OK, "")
    assert stdout == (tmp_path / "sweep" / "comparison.csv").read_text(encoding="utf-8")


def test_missing_baseline_noted_on_stderr(corpus_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    code, _, err = run(simulate_args(corpus_file, out, k=("3",), seeds=("0",)), capsys)
    assert code == EXIT_OK
    assert err == "warning: no unsorted baseline among reports; ratio columns omitted\n"
    code, _, err = run(["report", str(out)], capsys)
    assert code == EXIT_OK
    assert "no unsorted baseline" in err


def test_failed_report_write_prints_only_the_error(corpus_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    run(simulate_args(corpus_file, out, k=("3",), seeds=("0",)), capsys)
    code, _, err = run(["report", str(out), "--out", str(tmp_path / "missing" / "table.csv")], capsys)
    assert code == EXIT_IO
    assert err.startswith("error: ") and "no unsorted baseline" not in err


def test_simulate_makes_no_per_pair_objects(corpus_file, tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("SentencePair built on the simulate path")

    monkeypatch.setattr(SentencePair, "__post_init__", refuse)
    common = dict(m=4, k_values=(1, 3, "all"), seeds=(0, 1), epochs=2)
    run_sweep(SweepSpec(out_dir=tmp_path / "file", source=corpus_file, **common))
    synth = SynthParams(n=300, mean_src=10, std_src=3, max_len=50, pair_diff_mean=1.0)
    run_sweep(SweepSpec(out_dir=tmp_path / "synth", source=synth, **common))
    assert (tmp_path / "synth" / "comparison.csv").exists()


@pytest.mark.parametrize("source", ["canonical", "crlf_leading_zero", "synth"])
def test_corpus_hash_names_the_written_corpus_tsv(source, corpus_file, tmp_path):
    """sweep.json and every report.json carry the sha256 of the corpus.tsv
    bytes the sweep wrote; a canonical input file is written as it was read."""
    given = corpus_file
    if source == "crlf_leading_zero":
        given = tmp_path / "crlf.tsv"
        given.write_bytes(b"0" + corpus_file.read_bytes().replace(b"\n", b"\r\n"))
    elif source == "synth":
        given = SynthParams(n=300, mean_src=10, std_src=3, max_len=50, pair_diff_mean=1.0)
    out = tmp_path / "sweep"
    run_sweep(SweepSpec(m=4, k_values=(1, 3, "all"), seeds=(0, 1), out_dir=out, source=given))
    written = (out / "corpus.tsv").read_bytes()
    digest = hashlib.sha256(written).hexdigest()
    records = [out / "sweep.json", *sorted(out.glob("run_*/report.json"))]
    assert len(records) == 7
    assert {json.loads(path.read_text(encoding="utf-8"))["corpus_hash"] for path in records} == {digest}
    if source == "canonical":
        assert written == corpus_file.read_bytes()
    elif source == "crlf_leading_zero":
        assert written == corpus_file.read_bytes() != given.read_bytes()


def test_report_json_format(corpus_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    run(simulate_args(corpus_file, out, k=("1",), seeds=("0",)), capsys)
    code, stdout, _ = run(["report", str(out), "--format", "json"], capsys)
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["baseline_missing"] is False
    assert payload["rows"][0]["policy"] == "unsorted"


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()

@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gen", *GEN_FLAGS, "--format", "csv"], "--format"),
        (["stats", "c.tsv", "--seed", "1"], "--seed"),
        (["report", "runs", "--seed", "1"], "--seed"),
    ],
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    code, stdout, err = run([*argv, "--out", str(out)], capsys)
    assert code == EXIT_USAGE
    assert f"unrecognized arguments: {flag}" in err
    assert stdout == "" and not out.exists()
