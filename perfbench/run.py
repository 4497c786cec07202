"""sortbatch benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload long_tail --seed 0 --seconds 36 --trace 0

Each command under test runs in a fresh single-threaded process, closed-loop:
one command at a time, the next only after the previous one has finished.
Inputs are made, untimed, by the code under test from --seed. Timed commands
repeat until --seconds of command wall time have passed, with the set-up
probes run in between, and the medians are reported. Every output is checked
by `gate.py`.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(see README.md). The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

import gate
import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINNED = BENCH_DIR / "pinned.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 3
#: Kills a command that runs past this many seconds; it then counts as failed.
COMMAND_LIMIT_S = 150
M = 64

#: Corpus parameters of the acceptance suite (`ENKR` and `ENLU`).
LONG_TAILED = dict(mean_src=22.64, std_src=15.55, max_len=125, pair_diff_mean=2.45)
SHORT = dict(mean_src=10.68, std_src=3.17, max_len=50, pair_diff_mean=0.006)
LONG_N = 500_000
SHORT_N = 40_000
LONG_K = ("1", "1000", "all")
SHORT_K = ("1", "100", "250", "500", "all")
SHORT_RUNS = 20

#: A fresh interpreter becomes ready to batch: import, acquire the corpus,
#: hash it. It says "ready" and leaves without tearing the corpus down.
SETUP_PROBE = """
import json, os, sys
import sortbatch
if sys.argv[1] == "load":
    sortbatch.corpus_hash(sortbatch.load_corpus(sys.argv[2]))
elif sys.argv[1] == "synth":
    sortbatch.corpus_hash(sortbatch.synth_generate(sortbatch.SynthParams(**json.loads(sys.argv[2]))))
sys.stdout.write("ready\\n")
sys.stdout.flush()
os._exit(0)
"""


@dataclass(frozen=True)
class Plan:
    """What one workload runs at one seed. Paths are relative to the checkout."""

    prep: tuple[tuple[str, ...], ...]
    setup: tuple[str, ...]
    command: Callable[[str], tuple[str, ...]]
    pairs: int


def _rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def synth_flags(params: dict, n: int, seed: int) -> tuple[str, ...]:
    return (
        "--n", str(n), "--mean-src", str(params["mean_src"]), "--std-src", str(params["std_src"]),
        "--max-len", str(params["max_len"]), "--pair-diff", str(params["pair_diff_mean"]), "--seed", str(seed),
    )


def make_plan(workload: str, seed: int, work: Path) -> Plan:
    if workload == "long_tail":
        corpus = _rel(work / "corpus.tsv")
        return Plan(
            prep=(("gen", *synth_flags(LONG_TAILED, LONG_N, seed), "--out", corpus),),
            setup=("load", corpus),
            command=lambda out: (
                "simulate", "--corpus", corpus, "--m", str(M), "--k", *LONG_K,
                "--seeds", str(seed), "--out", out, "--format", "csv",
            ),
            pairs=LONG_N * len(LONG_K),
        )
    if workload == "short_ladder":
        return Plan(
            prep=(),
            setup=("synth", json.dumps(dict(n=SHORT_N, seed=seed, **SHORT))),
            command=lambda out: (
                "simulate", *synth_flags(SHORT, SHORT_N, seed), "--m", str(M), "--k", *SHORT_K,
                "--seeds", *(str(seed + i) for i in range(SHORT_RUNS)), "--out", out, "--format", "csv",
            ),
            pairs=SHORT_N * len(SHORT_K) * SHORT_RUNS,
        )
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("long_tail", "short_ladder")


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass(frozen=True)
class Run:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int


def run_child(argv: list[str], log: Path) -> Run:
    """Run argv from the checkout root with its stdout and stderr in log;
    wall time, CPU time and peak RSS come from the child's own rusage."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode)


def cli_argv(args: tuple[str, ...]) -> list[str]:
    return [sys.executable, "-m", "sortbatch.cli", *args]


def setup_seconds(probe: tuple[str, ...]) -> float:
    """Wall seconds from spawning a fresh interpreter until it is ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_PROBE, *probe], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait(timeout=COMMAND_LIMIT_S) != 0 or line != b"ready\n":
        raise RuntimeError(f"set-up probe {probe} failed")
    return ready


def report_argv(out: Path, csv: Path) -> tuple[str, ...]:
    return ("report", _rel(out), "--format", "csv", "--out", _rel(csv))


def check_output(out: Path, pins: dict, checks: gate.Checks) -> dict:
    """The gate over one simulate output directory; returns what it observed
    of the pinned values. Besides the cell checks, `report` over the output
    must reproduce its comparison.csv."""
    observed = gate.check_sweep(out, checks)
    report = out.with_name(out.name + ".report.csv")
    run = run_child(cli_argv(report_argv(out, report)), report.with_suffix(".log"))
    if checks.add("report over the output: exit code", run.code == 0):
        gate.same_bytes(report, out / "comparison.csv", "report reproduces comparison.csv", checks)
    gate.check_pins(observed, pins, checks)
    return observed


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def provenance(workload: str, seed: int, plan: Plan) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), cpu_model)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        **versions,
        "prep": [["sortbatch", *p] for p in plan.prep],
        "command": ["sortbatch", *plan.command("<out>")],
    }


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.plan = make_plan(workload, seed, work)
        self.checks = gate.Checks()
        self.record: dict = {"provenance": provenance(workload, seed, self.plan)}

    def sortbatch(self, args: tuple[str, ...], name: str, traced: str | None = None, memory: bool = False) -> Run:
        """One command under test; a nonzero exit is one failed operation."""
        if traced is None:
            argv = cli_argv(args)
        else:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), "--spans", traced, *(["--memory"] if memory else []), "--", *args]
        log = self.work / f"{name}.log"
        run = run_child(argv, log)
        self.checks.add(f"{name}: exit code", run.code == 0, log.read_text(errors="replace")[-2000:])
        return run

    def prepare(self) -> None:
        for i, args in enumerate(self.plan.prep):
            if self.sortbatch(args, f"prep{i}").code != 0:
                raise RuntimeError(f"preparing the input failed: sortbatch {' '.join(args)}")

    def timed(self, tag: str, traced: bool = False) -> tuple[Run, Path, Path | None]:
        out = self.work / tag
        spans = self.work / f"{tag}.spans.json" if traced else None
        run = self.sortbatch(self.plan.command(_rel(out)), tag, traced=None if spans is None else _rel(spans))
        return run, out, spans

    def check_first(self, out: Path) -> None:
        """All checks on the first output of the timed command."""
        pins = {}
        if self.seed == DEFAULT_SEED:
            pins = json.loads(PINNED.read_text(encoding="utf-8")).get(self.workload, {})
            self.checks.add("pinned values exist", bool(pins), f"{PINNED.name} has no {self.workload}")
        self.record["observed_pins"] = check_output(out, pins, self.checks)

    def same_output(self, out: Path, first: tuple[str, int], name: str) -> None:
        digest = gate.tree_digest(out)
        self.checks.add(name, digest == first, "output files differ from the first run's")
        shutil.rmtree(out)

    def end_to_end(self) -> dict[str, float]:
        setups: list[float] = []
        runs: list[Run] = []
        first: tuple[str, int] | None = None
        while not runs or sum(r.wall_s for r in runs) < self.seconds:
            # Probes between repeats spread the repeats over the run, so they
            # meet the host's load at more different moments.
            if len(setups) < SETUP_REPEATS:
                setups.append(setup_seconds(self.plan.setup))
            run, out, _ = self.timed(f"run{len(runs)}")
            if run.code != 0:
                break
            runs.append(run)
            if first is None:
                first = gate.tree_digest(out)
                self.check_first(out)
            else:
                self.same_output(out, first, f"{out.name}: same output as run0")
        if not runs:
            raise RuntimeError("the timed command failed")
        setups += [setup_seconds(self.plan.setup) for _ in range(SETUP_REPEATS - len(setups))]
        self.record["setup_s"] = setups
        self.record["runs"] = [r.__dict__ for r in runs]
        return {
            "setup_s": statistics.median(setups),
            "pairs_per_s": statistics.median(self.plan.pairs / r.wall_s for r in runs),
            "cpu_s": statistics.median(r.cpu_s for r in runs),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
            "bytes_written": float(first[1]),
            "ok_frac": 1.0 - len(self.checks.failures) / len(self.checks.results),
        }

    def per_layer(self) -> dict[str, float]:
        plain: list[float] = []
        traced: list[float] = []
        samples: list[dict[str, float]] = []
        first: tuple[str, int] | None = None
        while not plain or sum(plain) + sum(traced) < self.seconds:
            i = len(plain)
            order = (False, True) if i % 2 == 0 else (True, False)
            for with_spans in order:
                tag = f"{'traced' if with_spans else 'run'}{i}"
                run, out, spans = self.timed(tag, traced=with_spans)
                if run.code != 0:
                    raise RuntimeError(f"{tag} failed")
                if with_spans:
                    traced.append(run.wall_s)
                    samples.append(self.traced_layers(tag, out, spans))
                else:
                    plain.append(run.wall_s)
                if first is None:
                    first = gate.tree_digest(out)
                    self.check_first(out)
                else:
                    self.same_output(out, first, f"{tag}: same output as the first run")
        memory_spans = self.work / "memory.spans.json"
        out = self.work / "memory"
        if self.sortbatch(self.plan.command(_rel(out)), "memory", traced=_rel(memory_spans), memory=True).code != 0:
            raise RuntimeError("memory pass failed")
        self.same_output(out, first, "memory pass: same output as the first run")
        metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
        metrics.update(layers.peaks(json.loads(memory_spans.read_text(encoding="utf-8"))["spans"]))
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        self.record["walls"] = {"untraced": plain, "traced": traced}
        return metrics

    def traced_layers(self, tag: str, out: Path, spans: Path) -> dict[str, float]:
        """Per-layer metrics of one traced simulate command plus a traced
        `report` over its output, which measures the read side."""
        report = self.work / f"{tag}.report.csv"
        report_spans = self.work / f"{tag}.report.spans.json"
        self.sortbatch(report_argv(out, report), f"{tag}.report", traced=_rel(report_spans))
        gate.same_bytes(report, out / "comparison.csv", f"{tag}: traced report reproduces comparison.csv", self.checks)
        documents = [json.loads(p.read_text(encoding="utf-8")) for p in (spans, report_spans)]
        self.record.setdefault("spans", documents)
        simulate, read = (layers.from_spans(d["spans"]) for d in documents)
        return {name: value + read[name] for name, value in simulate.items()}

    def run(self) -> dict[str, float]:
        warm = self.sortbatch(("--help",), "warmup")  # compiles bytecode before anything is timed
        if warm.code != 0:
            raise RuntimeError("sortbatch does not start")
        self.prepare()
        return self.per_layer() if self.trace else self.end_to_end()


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=36.0, help="command wall time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--record", type=Path, help="also write provenance, raw samples and checks here")
    args = parser.parse_args()

    if not (SRC / "sortbatch" / "cli.py").is_file():
        print(f"perfbench: no sortbatch sources at {SRC}", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        measured = bench.run()
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        for name, passed, detail in bench.checks.failures:
            print(f"  FAILED {name}: {detail}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    checks = bench.checks
    attempted, failed = len(checks.results), len(checks.failures)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    bench.record.update(metrics=metrics, checks=checks.results)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("provenance " + json.dumps(bench.record["provenance"]))
    for name, value in metrics.items():
        print(f"  {name:40s} {value['value']:>16.6g} {value['unit']}")
    print(f"  {'failed_frac':40s} {failed / attempted:>16.6g} ({failed} of {attempted} operations)")
    for name, _, detail in checks.failures:
        print(f"  FAILED {name}: {detail}")
    if args.record is not None:
        args.record.write_text(json.dumps(bench.record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
