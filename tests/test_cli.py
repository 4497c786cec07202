"""End-to-end CLI behavior: flags, file layout, exit codes, round trips."""

import json
import shutil
from dataclasses import fields

import pytest

from sortbatch import cli
from sortbatch.cli import EXIT_DATA, EXIT_IO, EXIT_OK, EXIT_USAGE, SweepSpec, main, run_sweep
from sortbatch.corpus import SentencePair, SynthParams, load_corpus
from sortbatch.cost import RunReport
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


def test_gen_single_pair(tmp_path, capsys):
    out = tmp_path / "one.tsv"
    code, _, _ = run(
        ["gen", "--n", "1", "--mean-src", "5", "--std-src", "1", "--max-len", "10", "--out", str(out)],
        capsys,
    )
    assert code == EXIT_OK
    assert len(out.read_text().splitlines()) == 1


def test_gen_requires_out(capsys):
    code, _, err = run(["gen", *GEN_FLAGS], capsys)
    assert code == EXIT_USAGE
    assert "out" in err


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
    policies = {
        label: json.loads((out / f"run_k{label}_seed0" / "report.json").read_text())["config"]["policy"]
        for label in ("1", "3", "all")
    }
    assert policies == {"1": "unsorted", "3": "partial_sort", "all": "full_sort"}


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


def test_simulate_rejects_bad_k(corpus_file, tmp_path, capsys):
    code, _, err = run(simulate_args(corpus_file, tmp_path / "x", k=("0",)), capsys)
    assert code == EXIT_USAGE
    code, _, _ = run(simulate_args(corpus_file, tmp_path / "y", k=("some",)), capsys)
    assert code == EXIT_USAGE


def test_simulate_duplicate_seeds_is_data_error(corpus_file, tmp_path, capsys):
    code, _, err = run(simulate_args(corpus_file, tmp_path / "sweep", seeds=("0", "0")), capsys)
    assert code == EXIT_DATA
    assert "duplicate seeds" in err
    assert list(tmp_path.iterdir()) == [corpus_file]


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


def test_rerun_replaces_earlier_sweep(corpus_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    run(simulate_args(corpus_file, out, k=("1", "10"), seeds=("0",)), capsys)
    code, _, _ = run(simulate_args(corpus_file, out, k=("1", "20"), seeds=("0",)), capsys)
    assert code == EXIT_OK
    assert not (out / "run_k10_seed0").exists()
    code, stdout, _ = run(["report", str(out), "--format", "csv"], capsys)
    assert code == EXIT_OK
    assert stdout == (out / "comparison.csv").read_text(encoding="utf-8")


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


def test_missing_baseline_noted_on_stderr(corpus_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    code, _, err = run(simulate_args(corpus_file, out, k=("3",), seeds=("0",)), capsys)
    assert code == EXIT_OK
    assert err == "warning: no unsorted baseline among reports; ratio columns omitted\n"
    code, _, err = run(["report", str(out)], capsys)
    assert code == EXIT_OK
    assert "no unsorted baseline" in err


def test_simulate_makes_no_per_pair_objects(corpus_file, tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("SentencePair built on the simulate path")

    monkeypatch.setattr(SentencePair, "__post_init__", refuse)
    common = dict(m=4, k_values=(1, 3, "all"), seeds=(0, 1), epochs=2)
    run_sweep(SweepSpec(out_dir=tmp_path / "file", corpus_path=corpus_file, **common))
    synth = SynthParams(n=300, mean_src=10, std_src=3, max_len=50, pair_diff_mean=1.0)
    run_sweep(SweepSpec(out_dir=tmp_path / "synth", synth=synth, **common))
    assert (tmp_path / "synth" / "comparison.csv").exists()


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
