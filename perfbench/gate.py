"""Correctness gate over the files a `sortbatch` command leaves behind.

Every check is one operation: it passes or fails, and a failure is counted,
never raised. The checks read only the files, so the gate holds whatever the
program does inside.

At every seed:
  * every pair id appears exactly once per epoch in each batches.jsonl;
  * each batch's padded_src / padded_tgt equals the maximum of its members'
    lengths, read from corpus.tsv;
  * `report` over a simulate output reproduces comparison.csv byte for byte
    (the caller runs `report`; `same_bytes` compares).

At the pinned seed, also:
  * each pinned comparison.csv column, read by name, so added columns pass;
  * a digest of each cell's batch stream (ids and padded dims), taken over
    the parsed records rather than the raw file bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Checks:
    """Outcomes of the checks run so far: (name, passed, detail)."""

    results: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> bool:
        self.results.append((name, bool(passed), detail))
        return bool(passed)

    @property
    def failures(self) -> list[tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]


@dataclass(frozen=True)
class Stream:
    """One batches.jsonl file as arrays; ids of all batches concatenated."""

    epoch: np.ndarray
    size: np.ndarray
    padded_src: np.ndarray
    padded_tgt: np.ndarray
    ids: np.ndarray

    def digest(self) -> str:
        """sha256 over the little-endian int64 arrays epoch, size,
        padded_src, padded_tgt and ids, in that order."""
        h = hashlib.sha256()
        for array in (self.epoch, self.size, self.padded_src, self.padded_tgt, self.ids):
            h.update(array.astype("<i8").tobytes())
        return h.hexdigest()


def read_lengths(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Source and target lengths of a lengths-tsv file."""
    values = np.array(path.read_text(encoding="utf-8").split(), dtype=np.int64)
    if values.size == 0 or values.size % 2:
        raise ValueError(f"{path}: not a two-column lengths file")
    return values[0::2], values[1::2]


def read_stream(path: Path) -> Stream:
    epoch, size, padded_src, padded_tgt, ids = [], [], [], [], []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            epoch.append(record["epoch"])
            size.append(len(record["ids"]))
            padded_src.append(record["padded_src"])
            padded_tgt.append(record["padded_tgt"])
            ids.extend(record["ids"])
    return Stream(*(np.array(a, dtype=np.int64) for a in (epoch, size, padded_src, padded_tgt, ids)))


def check_stream(stream: Stream, src: np.ndarray, tgt: np.ndarray, cell: str, checks: Checks) -> None:
    n = src.size
    in_range = stream.ids.size > 0 and stream.ids.min() >= 0 and stream.ids.max() < n
    if not in_range:
        checks.add(f"{cell}: ids once per epoch", False, "ids missing or outside the corpus")
        checks.add(f"{cell}: padded dims", False, "ids missing or outside the corpus")
        return

    id_epoch = np.repeat(stream.epoch, stream.size)
    bad_epochs = [
        int(e) for e in np.unique(stream.epoch)
        if not np.array_equal(np.bincount(stream.ids[id_epoch == e], minlength=n), np.ones(n, np.int64))
    ]
    checks.add(f"{cell}: ids once per epoch", not bad_epochs, f"epochs with a missing or repeated id: {bad_epochs}")

    if stream.size.min() < 1:
        checks.add(f"{cell}: padded dims", False, "empty batch")
        return
    starts = np.concatenate(([0], np.cumsum(stream.size)[:-1]))
    want_src = np.maximum.reduceat(src[stream.ids], starts)
    want_tgt = np.maximum.reduceat(tgt[stream.ids], starts)
    wrong = np.flatnonzero((want_src != stream.padded_src) | (want_tgt != stream.padded_tgt))
    checks.add(f"{cell}: padded dims", wrong.size == 0, f"{wrong.size} batches, first at index {wrong[:1].tolist()}")


def read_comparison(path: Path) -> dict[str, list[str]]:
    """comparison.csv as column name -> cells, in row order."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    names = rows[0].keys() if rows else ()
    return {name: [row[name] for row in rows] for name in names}


def check_sweep(out_dir: Path, checks: Checks) -> dict:
    """Check every cell of a simulate output directory.

    Returns the observed pins: comparison columns and per-cell stream digests.
    """
    observed: dict = {"comparison": {}, "streams": {}}
    try:
        src, tgt = read_lengths(out_dir / "corpus.tsv")
    except (OSError, ValueError) as exc:
        checks.add(f"{out_dir.name}: corpus.tsv readable", False, str(exc))
        return observed
    cells = sorted(out_dir.glob("run_k*_seed*"))
    checks.add(f"{out_dir.name}: has cells", bool(cells), "no run_k*_seed* directories")
    for cell_dir in cells:
        try:
            stream = read_stream(cell_dir / "batches.jsonl")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            checks.add(f"{cell_dir.name}: batches.jsonl readable", False, str(exc))
            continue
        check_stream(stream, src, tgt, cell_dir.name, checks)
        observed["streams"][cell_dir.name] = stream.digest()
    try:
        observed["comparison"] = read_comparison(out_dir / "comparison.csv")
    except OSError as exc:
        checks.add(f"{out_dir.name}: comparison.csv readable", False, str(exc))
    return observed


def check_pins(observed: dict, pinned: dict, checks: Checks) -> None:
    """Compare observed comparison columns and stream digests with pinned ones."""
    for name, cells in pinned.get("comparison", {}).items():
        got = observed.get("comparison", {}).get(name)
        checks.add(f"pinned comparison column {name}", got == cells, f"got {got}, pinned {cells}")
    for cell, digest in pinned.get("streams", {}).items():
        got = observed.get("streams", {}).get(cell)
        checks.add(f"pinned stream digest {cell}", got == digest, f"got {got}, pinned {digest}")


def same_bytes(produced: Path, expected: Path, name: str, checks: Checks) -> None:
    try:
        equal = produced.read_bytes() == expected.read_bytes()
    except OSError as exc:
        checks.add(name, False, str(exc))
        return
    checks.add(name, equal, f"{produced.name} differs from {expected}")


def tree_digest(path: Path) -> tuple[str, int]:
    """sha256 over the relative paths and contents of the files under a
    directory, and their total size in bytes."""
    h = hashlib.sha256()
    total = 0
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        data = file.read_bytes()
        total += len(data)
        h.update(str(file.relative_to(path)).encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), total
