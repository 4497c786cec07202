#!/usr/bin/env python3
"""Desk-scale reproduction of the two batch-length sweeps.

Sweep A (long-tailed corpus, 125-token cap): how far a large look-ahead
pushes the average padded batch length below shuffled chunking, and how
little is left beyond k=1000.

Sweep B (short-sentence corpus, 50-token cap): the full k ladder
{1, 100, 250, 500, all} averaged over several seeds.

Produces per-run reports, batch streams, and i.i.d. diagnostics under the
output directory, plus comparison.csv / comparison.md per sweep; the
markdown tables are printed to stdout.

Usage:
    python scripts/run_table_sweeps.py --out runs/
    python scripts/run_table_sweeps.py --out runs/ --n-long 500000 --seeds 0 1 2
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from sortbatch.cli import SweepSpec, run_sweep
from sortbatch.corpus import SynthParams
from sortbatch.cost import comparison_to_markdown

LONG_TAIL = dict(mean_src=22.64, std_src=15.55, max_len=125, pair_diff_mean=2.45)
SHORT = dict(mean_src=10.68, std_src=3.17, max_len=50, pair_diff_mean=0.006)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("runs"), help="output directory")
    parser.add_argument("--n-long", type=int, default=100_000, help="pairs in the long-tailed corpus")
    parser.add_argument("--n-short", type=int, default=40_000, help="pairs in the short corpus")
    parser.add_argument("--m", type=int, default=64, help="batch size")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2], help="run seeds")
    parser.add_argument("--corpus-seed", type=int, default=0, help="synthesis seed")
    args = parser.parse_args()

    sweeps = {
        "long_tail": SweepSpec(
            m=args.m,
            k_values=(1, 1000, 2500),
            seeds=tuple(args.seeds),
            out_dir=args.out / "long_tail",
            source=SynthParams(n=args.n_long, seed=args.corpus_seed, **LONG_TAIL),
        ),
        "short": SweepSpec(
            m=args.m,
            k_values=(1, 100, 250, 500, "all"),
            seeds=tuple(args.seeds),
            out_dir=args.out / "short",
            source=SynthParams(n=args.n_short, seed=args.corpus_seed, **SHORT),
        ),
    }

    for name, spec in sweeps.items():
        start = time.perf_counter()
        comparison, reports = run_sweep(spec)
        elapsed = time.perf_counter() - start
        n_pairs = reports[0].n_pairs
        print(f"== {name}: {n_pairs} pairs, m={spec.m}, {len(reports)} runs, {elapsed:.1f}s ==")
        print(comparison_to_markdown(comparison))


if __name__ == "__main__":
    main()
