"""Per-layer metrics derived from the spans `tracer.py` writes.

Timings (`.s`) are summed over calls. Self time (`.self_s`) is a span's
duration minus the time its child spans cover; the command runs on one
thread, so child spans never overlap and their durations simply add up.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import LAYERS

POLICIES = ("unsorted", "partial_sort", "full_sort")
SELF_TIMED = ("batcher.run_epochs", "cli.run_sweep", "cli.collect_reports")
WRITERS = ("corpus.write_lengths_tsv", "batcher.write_batches_jsonl", "cost.write_report_json")
#: Spans whose `.s` is split by policy instead.
UNSUMMED = ("batcher.run_epochs",)


def _seconds(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e9


def from_spans(spans: list[dict]) -> dict[str, float]:
    """Timings and counts of one traced command."""
    by_name: dict[str, list[dict]] = defaultdict(list)
    children: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
        if span["parent"] is not None:
            children[span["parent"]].append(span)

    # Layers a workload never calls report zero.
    metrics = {
        f"{name}.s": sum(map(_seconds, by_name[name]))
        for name in dict.fromkeys(layer[2] for layer in LAYERS)
        if name not in UNSUMMED
    }
    loads = by_name["batcher.run_epochs"]
    for policy in POLICIES:
        metrics[f"batcher.run_epochs.{policy}.s"] = sum(_seconds(s) for s in loads if s["policy"] == policy)
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = sum(
            _seconds(s) - sum(map(_seconds, children[s["id"]])) for s in by_name[name]
        )
    for name in WRITERS:
        metrics[f"{name}.bytes"] = sum(s["bytes"] for s in by_name[name])
    metrics["batcher.batches"] = sum(s["batches"] for s in loads)
    metrics["batcher.pairs"] = sum(s["pairs"] for s in loads)
    metrics["cli.cells"] = len(loads)
    metrics["cost.read_report_json.calls"] = len(by_name["cost.read_report_json"])
    metrics["diagnostics.autocorrelation.lags"] = sum(s["lags"] for s in by_name["diagnostics.autocorrelation"])
    return metrics


def peaks(spans: list[dict]) -> dict[str, float]:
    """Peak traced memory of the corpus and loader layers, from a memory pass."""

    def peak(*names: str) -> float:
        return max((s["peak_mb"] for s in spans if s["name"] in names), default=0.0)

    return {
        "corpus.peak_mb": peak("corpus.load_corpus", "corpus.synth_generate"),
        "batcher.peak_mb": peak("batcher.run_epochs"),
    }
