"""Self-test of the benchmark's correctness gate, on tiny workloads.

Usage (from the root of a checkout):
    python3 perfbench/selftest.py

Builds a tiny, fast version of each workload with the code under test and
shows two things. The gate passes on the unmodified output. The gate fails
on each deliberately corrupted copy: one flipped padded_src, one duplicated
id, one altered comparison.csv cell. The pinned values for the tiny runs are
taken from their own clean output, so the pinned checks are exercised too.
Also checks that BENCHMARK.json and the per-layer table in layers.json name
the same metrics, and that the traced run reports every one of them.

Exit code 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import gate
import layers
import run
from run import LONG_TAILED, SHORT, ROOT, check_output, cli_argv, run_child, synth_flags

WORK = run.WORK / "selftest"


def sortbatch(*args: str) -> None:
    done = run_child(cli_argv(args), WORK / "command.log")
    if done.code != 0:
        raise SystemExit(f"selftest: sortbatch {' '.join(args)} failed:\n{(WORK / 'command.log').read_text()}")


def tiny_outputs() -> dict[str, Path]:
    """Simulate outputs of tiny versions of the workloads, by name."""
    corpus = WORK / "corpus.tsv"
    rel = run._rel
    sortbatch("gen", *synth_flags(LONG_TAILED, 3000, 0), "--out", rel(corpus))
    sortbatch("simulate", "--corpus", rel(corpus), "--m", "16", "--k", "1", "10", "all", "--seeds", "0",
              "--out", rel(WORK / "long_tail"))
    sortbatch("simulate", *synth_flags(SHORT, 2000, 0), "--m", "16", "--k", "1", "5", "10", "all",
              "--seeds", "0", "1", "--out", rel(WORK / "short_ladder"))
    return {name: WORK / name for name in run.WORKLOADS}


def gate_failures(out: Path, pins: dict) -> list[str]:
    checks = gate.Checks()
    check_output(out, pins, checks)
    return [name for name, _, _ in checks.failures]


def flip_padded_src(sweep: Path) -> None:
    path = next(iter(sorted(sweep.glob("run_k*_seed*")))) / "batches.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[0])
    record["padded_src"] += 1
    lines[0] = json.dumps(record) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def duplicate_id(sweep: Path) -> None:
    path = next(iter(sorted(sweep.glob("run_k*_seed*")))) / "batches.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[0])
    record["ids"][1] = record["ids"][0]
    lines[0] = json.dumps(record) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def alter_comparison_cell(sweep: Path) -> None:
    path = sweep / "comparison.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[3] = format(float(cells[3]) + 1.0, ".6f")
    lines[1] = ",".join(cells)
    path.write_text("".join(lines), encoding="utf-8")


def metric_names_agree(expect) -> None:
    spec = run.benchmark_spec()
    declared = {m["name"] for m in spec["per_layer"]}
    documented = set(json.loads((run.BENCH_DIR / "layers.json").read_text(encoding="utf-8")))
    expect("layers.json documents exactly the per-layer metrics", documented == declared,
           f"only in BENCHMARK.json: {sorted(declared - documented)}, only in layers.json: {sorted(documented - declared)}")
    derived = set(layers.from_spans([])) | set(layers.peaks([])) | {"trace.overhead_frac"}
    expect("the traced run reports every per-layer metric", declared <= derived, f"missing: {sorted(declared - derived)}")


def main() -> int:
    failures: list[str] = []

    def expect(what: str, ok: bool, detail: str = "") -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}" + ("" if ok else f": {detail}"))
        if not ok:
            failures.append(what)

    metric_names_agree(expect)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        outputs = tiny_outputs()
        pins = {}
        for name, out in outputs.items():
            checks = gate.Checks()
            pins[name] = check_output(out, {}, checks)
            expect(f"{name}: gate passes on unmodified output ({len(checks.results)} checks)",
                   not checks.failures, str(checks.failures))
            expect(f"{name}: pinned values pass on unmodified output", not gate_failures(out, pins[name]))

        corruptions = (
            ("one flipped padded_src", flip_padded_src, "padded dims"),
            ("one duplicated id", duplicate_id, "ids once per epoch"),
            ("one altered comparison.csv cell", alter_comparison_cell, "report reproduces comparison.csv"),
        )
        for name, out in outputs.items():
            for what, corrupt, caught_by in corruptions:
                copy = WORK / f"corrupt_{name}"
                shutil.copytree(out, copy)
                corrupt(copy)
                failed = gate_failures(copy, pins[name])
                expect(f"{name}: gate catches {what}", any(caught_by in f for f in failed), f"failed checks: {failed}")
                print(f"     failed checks: {failed}")
                shutil.rmtree(copy)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        if run.WORK.is_dir() and not any(run.WORK.iterdir()):
            run.WORK.rmdir()

    print(f"selftest: {'FAILED ' + str(len(failures)) if failures else 'all expectations hold'}")
    return 1 if failures else 0


if __name__ == "__main__":
    if not (ROOT / "src" / "sortbatch" / "cli.py").is_file():
        sys.exit(f"selftest: no sortbatch sources under {ROOT / 'src'}")
    sys.exit(main())
