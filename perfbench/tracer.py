"""Run one `sortbatch` command under span tracing, in this process.

Usage:
    python3 perfbench/tracer.py --spans FILE [--memory] -- <sortbatch arguments>

The real `sortbatch.cli.main` pipeline runs unchanged. Before it starts, the
layer functions are wrapped by rebinding the module attributes their callers
look up at call time (for example `sortbatch.cli.run_epochs` or
`sortbatch.batcher.shuffle`). Each wrapped call records a span (name, start,
end, parent, attributes) in memory; all spans share one command id and are
written to FILE as JSON when the command ends. The exit code is the command's.

With --memory, only the corpus-acquisition and loader calls are traced, each
under `tracemalloc`, and their spans carry `peak_mb`: the peak of memory
allocated during the call. Allocation tracking slows Python by several times,
so this pass is kept apart from the timing pass.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time
import tracemalloc
import uuid


def _policy(args, result):
    return {"policy": args[1].policy, "batches": len(result), "pairs": sum(len(b.pairs) for b in result)}


def _written(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _lags(args, result):
    return {"lags": int(args[1])}


#: (module, attribute the caller looks up, span name, attributes from (args, result))
LAYERS = (
    ("sortbatch.cli", "load_corpus", "corpus.load_corpus", None),
    ("sortbatch.cli", "synth_generate", "corpus.synth_generate", None),
    ("sortbatch.cli", "corpus_hash", "corpus.corpus_hash", None),
    ("sortbatch.cli", "write_lengths_tsv", "corpus.write_lengths_tsv", _written),
    ("sortbatch.batcher", "shuffle", "corpus.shuffle", None),
    ("sortbatch.batcher", "epoch_order", "batcher.epoch_order", None),
    ("sortbatch.cli", "run_epochs", "batcher.run_epochs", _policy),
    ("sortbatch.cli", "write_batches_jsonl", "batcher.write_batches_jsonl", _written),
    ("sortbatch.cli", "summarize_run", "cost.summarize_run", None),
    ("sortbatch.cli", "write_report_json", "cost.write_report_json", _written),
    ("sortbatch.cli", "read_report_json", "cost.read_report_json", None),
    ("sortbatch.cli", "compare_costs", "cost.compare_costs", None),
    ("sortbatch.cli", "comparison_to_csv", "cost.render", None),
    ("sortbatch.cli", "comparison_to_markdown", "cost.render", None),
    ("sortbatch.cli", "comparison_to_json", "cost.render", None),
    ("sortbatch.cli", "iid_report", "diagnostics.iid_report", None),
    ("sortbatch.diagnostics", "autocorrelation", "diagnostics.autocorrelation", _lags),
    ("sortbatch.diagnostics", "cycle_analysis", "diagnostics.cycle_analysis", None),
    ("sortbatch.cli", "write_iid_report_json", "diagnostics.write_iid_report_json", None),
    ("sortbatch.cli", "run_sweep", "cli.run_sweep", None),
    ("sortbatch.cli", "collect_reports", "cli.collect_reports", None),
)

#: Spans that the memory pass traces; they never nest inside one another.
MEMORY_SPANS = ("corpus.load_corpus", "corpus.synth_generate", "batcher.run_epochs")


class Tracer:
    """In-memory span recorder for one command."""

    def __init__(self) -> None:
        self.command_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, attrs, memory):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            if memory:
                tracemalloc.start()
            span["start_ns"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end_ns"] = time.perf_counter_ns()
                if memory:
                    span["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, result))
            return result

        return traced

    def install(self, memory: bool) -> None:
        for module_name, attr, name, attrs in LAYERS:
            if memory and name not in MEMORY_SPANS:
                continue
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(getattr(module, attr), name, attrs, memory))

    def run(self, argv: list[str]) -> int:
        from sortbatch import cli

        root = self.wrap(cli.main, "cli.main", None, False)
        return root(argv)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans as JSON")
    parser.add_argument("--memory", action="store_true", help="trace peak memory of the corpus and loader calls")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the sortbatch arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    tracer = Tracer()
    tracer.install(args.memory)
    code = tracer.run(argv)
    with open(args.spans, "w", encoding="utf-8") as handle:
        json.dump({"command_id": tracer.command_id, "argv": argv, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
