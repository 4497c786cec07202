"""The benchmark's tracer still finds every layer it wraps.

perfbench/tracer.py rebinds the functions named in its LAYERS table by
module attribute; a refactor that drops or renames one breaks the traced
benchmark run. This runs the tracer over a tiny synthetic sweep and checks
the per-layer metrics it yields. It only reads perfbench/.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_traced_simulate_reports_the_changed_layers(tmp_path, monkeypatch):
    spans, out = tmp_path / "spans.json", tmp_path / "sweep"
    argv = [
        sys.executable, str(PERFBENCH / "tracer.py"), "--spans", str(spans), "--",
        "simulate", "--n", "300", "--mean-src", "10", "--std-src", "3", "--max-len", "50",
        "--m", "4", "--k", "1", "3", "all", "--seeds", "0", "1", "--out", str(out),
    ]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr

    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    metrics = layers.from_spans(json.loads(spans.read_text(encoding="utf-8"))["spans"])
    for name in ("diagnostics.autocorrelation.s", "batcher.epoch_order.s", "corpus.shuffle.s"):
        assert metrics[name] > 0, name
    lags = sum(len(json.loads(p.read_text(encoding="utf-8"))["lag_autocorrs"]) for p in out.glob("run_*/iid.json"))
    assert len(list(out.glob("run_*/iid.json"))) == 6
    assert lags > 0
    assert metrics["diagnostics.autocorrelation.lags"] == lags
