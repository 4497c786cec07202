"""Command-line pipeline: generate corpora, inspect them, sweep batching
policies over k, and merge run reports.

Subcommands:
  gen       write a synthetic lengths-tsv corpus
  stats     print length statistics of a corpus file
  simulate  run a policy sweep and write reports, batch streams, diagnostics
  report    merge previously written run reports into one comparison table

Shared flags, each on the subcommands that read it: --seed (generator
seed; gen, simulate), --format {csv,md,json} (stats, simulate, report),
--out (all four).
Exit codes: 0 success, 1 usage error, 2 data error, 3 I/O error.

k values on the command line are integers >= 1 and the word "all"; each
maps to its policy by batcher.config_for_k. `stats --max-len` filters the
corpus first and reports that limit as the last column of its table.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import secrets
import shutil
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

from .batcher import BatchPlanConfig, config_for_k, epoch_shuffles, run_epochs, write_batches_jsonl
from .corpus import (
    CORPUS_FORMATS,
    LENGTH_DISTS,
    LENGTHS_TSV,
    LOGNORMAL,
    Corpus,
    LengthStats,
    SynthParams,
    compute_stats,
    corpus_hash,
    filter_max_len,
    load_corpus,
    synth_generate,
    write_lengths_tsv,
)
from .cost import (
    CostComparison,
    RunReport,
    compare_costs,
    comparison_to_csv,
    comparison_to_json,
    comparison_to_markdown,
    read_report_json,
    summarize_run,
    write_report_json,
)
from .diagnostics import iid_report, write_iid_report_json

#: The --format choices of stats, simulate and report; simulate also writes the csv and md tables.
FORMATS = ("csv", "md", "json")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3

__all__ = [
    "SweepSpec",
    "UsageError",
    "run_sweep",
    "collect_reports",
    "build_parser",
    "main",
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_DATA",
    "EXIT_IO",
]


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags, which collides with the data
    error code; raise instead and let main() translate."""

    def error(self, message: str) -> None:
        raise UsageError(f"{self.prog}: {message}")


@dataclass(frozen=True)
class SweepSpec:
    """One policy sweep: a corpus source crossed with k values and seeds. The
    source is a lengths-tsv file to load or the SynthParams to synthesise."""

    m: int
    k_values: tuple[int | str, ...]
    seeds: tuple[int, ...]
    out_dir: Path
    source: Path | SynthParams
    epochs: int = 1
    drop_last: bool = False

    def __post_init__(self) -> None:
        if not self.k_values:
            raise ValueError("k_values must be nonempty")
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"duplicate seeds: {list(self.seeds)}")
        labels = [str(k) for k in self.k_values]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate k values: {labels}")
        self.configs()  # BatchPlanConfig refuses a bad m, epochs or seed before any input is read

    def configs(self) -> dict[tuple[int | str, int], BatchPlanConfig]:
        """The BatchPlanConfig of each (k, seed) cell, k outer, as config_for_k builds it."""
        settings = dict(m=self.m, drop_last=self.drop_last, epochs=self.epochs)
        return {
            (k, seed): config_for_k(k, seed=seed, **settings) for k in self.k_values for seed in self.seeds
        }


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _sweep_record(spec: SweepSpec, digest: str) -> dict:
    if isinstance(spec.source, SynthParams):
        source = {"synth": asdict(spec.source)}
    else:
        source = {"path": str(spec.source)}
    return {
        "m": spec.m,
        "k_values": [str(k) for k in spec.k_values],
        "seeds": list(spec.seeds),
        "epochs": spec.epochs,
        "drop_last": spec.drop_last,
        "corpus": source,
        "corpus_hash": digest,
    }


def run_sweep(spec: SweepSpec) -> CostComparison:
    """Execute every (k, seed) cell of the sweep, write all output files and
    return the comparison table.

    Layout under spec.out_dir:
      corpus.tsv, sweep.json, comparison.csv, comparison.md,
      run_k{label}_seed{seed}/{report.json, batches.jsonl, iid.json}

    Seeds are the outer loop and k the inner: each seed's epoch shuffles
    are made once (batcher.epoch_shuffles), passed to run_epochs for every k,
    and dropped before the next seed's are made. Neither a cell's files nor
    the table depend on that order: compare_costs sorts the reports.

    Deterministic for a fixed spec. out_dir holds one sweep: it is written to
    a hidden sibling, .{name}.{pid}.{token}.tmp with a random token of its
    own, that replaces out_dir whole once complete, so a failed call leaves
    out_dir as it was, and a stage a killed call left behind under a reused
    pid does not block the next. An out_dir that is a symlink is resolved
    first: the sweep replaces its target and the link stays. FileExistsError
    refuses a non-directory, a non-empty directory without sweep.json, and
    the working directory or an ancestor of it, which the swap would delete.
    """
    out = Path(spec.out_dir).resolve()
    cwd = Path.cwd().resolve()
    if out in (cwd, *cwd.parents):
        raise FileExistsError(f"{spec.out_dir}: is the working directory or one of its ancestors; refusing to replace it")
    if out.exists() and (not out.is_dir() or (any(out.iterdir()) and not (out / "sweep.json").is_file())):
        raise FileExistsError(f"{spec.out_dir}: exists and holds no sweep; refusing to replace it")
    corpus = synth_generate(spec.source) if isinstance(spec.source, SynthParams) else load_corpus(spec.source)
    digest = corpus_hash(corpus)

    out.parent.mkdir(parents=True, exist_ok=True)
    stage = out.with_name(f".{out.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    stage.mkdir()  # not mkdtemp: its mode 0700 would become the mode of out_dir
    try:
        write_lengths_tsv(corpus, stage / "corpus.tsv")
        _emit(json.dumps(_sweep_record(spec, digest), indent=2, sort_keys=True) + "\n", stage / "sweep.json")

        configs = spec.configs()
        reports = []
        for seed in spec.seeds:
            shuffles = epoch_shuffles(corpus, seed, spec.epochs)
            for k in spec.k_values:
                run_dir = stage / f"run_k{k}_seed{seed}"
                reports.append(_run_cell(corpus, configs[k, seed], shuffles, digest, run_dir))
            del shuffles  # one seed's shuffles at a time: freed before the next seed makes its own
        comparison = compare_costs(reports)
        for fmt in ("csv", "md"):
            _emit(_render(comparison, fmt), stage / f"comparison.{fmt}")
        _publish(stage, out)
        return comparison
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _run_cell(
    corpus: Corpus, config: BatchPlanConfig, shuffles: list[Corpus], digest: str, run_dir: Path
) -> RunReport:
    """Batch one (k, seed) cell and write its three files into run_dir. The
    stream is freed on return, before the next cell allocates its own."""
    run_dir.mkdir()
    batches = run_epochs(corpus, config, shuffles)
    report = summarize_run(batches, config, corpus_hash=digest)
    write_report_json(report, run_dir / "report.json")
    write_batches_jsonl(batches, run_dir / "batches.jsonl")
    write_iid_report_json(iid_report(batches, config), run_dir / "iid.json")
    return report


def _publish(stage: Path, out: Path) -> None:
    """Rename stage onto out; an earlier sweep there is moved aside (suffix
    .old), put back if the rename fails, and deleted once it succeeds."""
    if not out.exists():
        stage.rename(out)
        return
    aside = stage.with_suffix(".old")
    out.rename(aside)
    try:
        stage.rename(out)
    except BaseException:
        aside.rename(out)
        raise
    shutil.rmtree(aside)


def _leftovers(out_dir: Path) -> list[Path]:
    """The directories beside out_dir named as a simulate's stage or the sweep
    it moves aside (.NAME.PID[.TOKEN].tmp or .old). None is deleted: the
    stage of a run still in progress looks the same as a killed one's."""
    out = out_dir.resolve()
    name = re.compile(rf"\.{re.escape(out.name)}\.\d+(\.[0-9a-f]+)?\.(tmp|old)")
    return sorted(p for p in out.parent.iterdir() if name.fullmatch(p.name) and p.is_dir())


def collect_reports(paths: Sequence[Path]) -> list[RunReport]:
    """Load every report.json at or below the given paths in sorted order, a
    file that several paths reach once, as the first of them spells it.
    Under a directory, hidden directories are skipped: a killed simulate may
    leave its stage (.NAME.PID.TOKEN.tmp) or the sweep it replaced
    (.NAME.PID.TOKEN.old)."""
    found: list[Path] = []
    for path in paths:
        if path.is_file():
            found.append(path)
        elif path.is_dir():
            reports = path.rglob("report.json")
            found.extend(p for p in reports if not any(part.startswith(".") for part in p.relative_to(path).parts))
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    found = sorted({p.resolve(): p for p in reversed(found)}.values(), key=str)
    if not found:
        raise ValueError(f"no report.json found under: {', '.join(map(str, paths))}")
    return [read_report_json(p) for p in found]


# ---------------------------------------------------------------------------
# rendering and writing
# ---------------------------------------------------------------------------

def _emit(text: str, out: Path | None) -> None:
    """Write text to the file out, or to stdout if out is None."""
    if out is None:
        print(text, end="")
    else:
        out.write_text(text, encoding="utf-8")


def _render(comparison: CostComparison, fmt: str) -> str:
    """The table in one of FORMATS, by the comparison_to_* bound when called (a tracer rebinds them)."""
    return {"csv": comparison_to_csv, "md": comparison_to_markdown, "json": comparison_to_json}[fmt](comparison)


def _render_stats(stats: LengthStats, max_len: int | None, fmt: str) -> str:
    """The stats table: every LengthStats field but the histograms, then
    max_len_filter, the --max-len applied (None if none). Only json adds the
    histograms (with string keys, so sort_keys orders them as text)."""
    values = {f.name: getattr(stats, f.name) for f in fields(LengthStats) if not f.name.startswith("histogram_")}
    values["max_len_filter"] = max_len
    if fmt == "json":
        values["histogram_src"] = {str(k): v for k, v in stats.histogram_src.items()}
        values["histogram_tgt"] = {str(k): v for k, v in stats.histogram_tgt.items()}
        return json.dumps(values, indent=2, sort_keys=True) + "\n"
    cells = {
        name: format(v, ".4f") if isinstance(v, float) else ("" if v is None else str(v))
        for name, v in values.items()
    }
    if fmt == "csv":
        return f"{','.join(cells)}\n{','.join(cells.values())}\n"
    lines = ["| stat | value |", "|---|---|"]
    lines += [f"| {name} | {cell or '-'} |" for name, cell in cells.items()]
    return "\n".join(lines) + "\n"


def _histogram_csv(stats: LengthStats) -> str:
    lengths = sorted(set(stats.histogram_src) | set(stats.histogram_tgt))
    lines = ["length,src_count,tgt_count"]
    lines += [
        f"{n},{stats.histogram_src.get(n, 0)},{stats.histogram_tgt.get(n, 0)}" for n in lengths
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_synth_flags(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument("--n", type=int, required=required, help="number of pairs to synthesize")
    parser.add_argument("--mean-src", type=float, required=required, help="target mean source length")
    parser.add_argument("--std-src", type=float, required=required, help="target source length std dev")
    parser.add_argument("--max-len", type=int, required=required, help="length cap on both sides")
    parser.add_argument("--pair-diff", type=float, help="target mean |src - tgt| (default 0)")
    parser.add_argument("--length-dist", choices=LENGTH_DISTS, help=f"source length family (default {LOGNORMAL})")


def _synth_params(args: argparse.Namespace) -> SynthParams:
    """The requested SynthParams, with its defaults for --pair-diff,
    --length-dist and --seed when they are not given."""
    optional = {"pair_diff_mean": args.pair_diff, "length_dist": args.length_dist, "seed": args.seed}
    return SynthParams(
        n=args.n,
        mean_src=args.mean_src,
        std_src=args.std_src,
        max_len=args.max_len,
        **{name: value for name, value in optional.items() if value is not None},
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sortbatch", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    seed, fmt, out, out_or_stdout = (_Parser(add_help=False) for _ in range(4))
    seed.add_argument("--seed", type=int, help="generator seed (default 0)")
    fmt.add_argument("--format", choices=FORMATS, default="md", help="output format (default md)")
    out.add_argument("--out", type=Path, required=True, help="output path")
    out_or_stdout.add_argument("--out", type=Path, default=None, help="output path")

    gen = sub.add_parser("gen", parents=[seed, out], help="write a synthetic lengths-tsv corpus")
    _add_synth_flags(gen, required=True)

    stats = sub.add_parser("stats", parents=[fmt, out_or_stdout], help="length statistics of a corpus file")
    stats.add_argument("corpus", type=Path, help="corpus file to inspect")
    stats.add_argument(
        "--corpus-format", choices=CORPUS_FORMATS, default=LENGTHS_TSV, help="input file format"
    )
    stats.add_argument("--max-len", type=int, default=None, help="drop pairs longer than this first")
    stats.add_argument("--hist-out", type=Path, default=None, help="also write a length histogram CSV")

    simulate = sub.add_parser("simulate", parents=[seed, fmt, out], help="run a policy sweep over k")
    simulate.add_argument("--corpus", type=Path, default=None, help="lengths-tsv corpus to batch")
    _add_synth_flags(simulate, required=False)
    simulate.add_argument("--m", type=int, required=True, help="batch size")
    simulate.add_argument(
        "--k", nargs="+", type=_k_value, required=True, metavar="K",
        help="look-ahead values: integers and/or 'all' (1 = unsorted, all = full sort)",
    )
    simulate.add_argument(
        "--seeds", nargs="+", type=int, default=[0, 1, 2], help="run seeds (default 0 1 2)"
    )
    simulate.add_argument("--epochs", type=int, default=1, help="epochs per run (default 1)")
    simulate.add_argument("--drop-last", action="store_true", help="discard short final batches")

    report = sub.add_parser("report", parents=[fmt, out_or_stdout], help="merge run reports into one table")
    report.add_argument("runs", nargs="+", type=Path, help="run directories or report.json files")

    return parser


def _k_value(text: str) -> int | str:
    """One --k value: the word "all" or an integer >= 1."""
    if text == "all":
        return text
    try:
        k = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid k value {text!r}: expected an integer or 'all'") from None
    if k < 1:
        raise argparse.ArgumentTypeError(f"invalid k value {k}: must be >= 1")
    return k


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    corpus = synth_generate(_synth_params(args))
    write_lengths_tsv(corpus, args.out)
    stats = compute_stats(corpus)  # the moments made, which a fit that has no root misses
    print(f"wrote {len(corpus)} pairs (src mean {stats.mean_src:.4f}, std {stats.std_src:.4f}) to {args.out}")
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus, fmt=args.corpus_format)
    if args.max_len is not None:
        corpus = filter_max_len(corpus, args.max_len)
    stats = compute_stats(corpus)
    _emit(_render_stats(stats, args.max_len, args.format), args.out)
    if args.hist_out is not None:
        _emit(_histogram_csv(stats), args.hist_out)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    needed = ("n", "mean_src", "std_src", "max_len")
    given = [name for name in (*needed, "pair_diff", "length_dist", "seed") if getattr(args, name) is not None]
    if args.corpus is None and not set(needed) <= set(given):
        raise UsageError("simulate needs --corpus or all of --n --mean-src --std-src --max-len")
    if args.corpus is not None and given:
        flags = " ".join("--" + name.replace("_", "-") for name in given)
        raise UsageError(f"--corpus and the synth flags are mutually exclusive, got {flags}")
    spec = SweepSpec(
        m=args.m,
        k_values=tuple(args.k),
        seeds=tuple(args.seeds),
        out_dir=args.out,
        source=args.corpus if args.corpus is not None else _synth_params(args),
        epochs=args.epochs,
        drop_last=args.drop_last,
    )
    _emit_comparison(run_sweep(spec), args.format, None)
    for leftover in _leftovers(args.out):
        print(f"note: {leftover}: left by a simulate that was killed or is still running", file=sys.stderr)
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    _emit_comparison(compare_costs(collect_reports(args.runs)), args.format, args.out)
    return EXIT_OK


def _emit_comparison(comparison: CostComparison, fmt: str, out: Path | None) -> None:
    """Write the table in the chosen format to `out`, or stdout if None. A
    missing baseline is noted on stderr only once the table is written, so a
    failed write leaves stderr holding just its error."""
    _emit(_render(comparison, fmt), out)
    if comparison.baseline_missing:
        print("warning: no unsorted baseline among reports; ratio columns omitted", file=sys.stderr)


_COMMANDS = {
    "gen": _cmd_gen,
    "stats": _cmd_stats,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_DATA if isinstance(exc, ValueError) else EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
