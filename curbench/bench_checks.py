"""Output checks. Each returns None for a good file, or a one-line problem.

The checks read only the files curlearn wrote and the inputs the benchmark
generated; they recompute what they compare against and import nothing
from curlearn, so a change to the program cannot also change its check.
"""

from __future__ import annotations

import csv
import json

import numpy as np

CHECKPOINTS_PER_EPOCH = 10  # the default checkpoint fraction, 0.1
PARTITION_SPLIT = (9, 7)    # B1 / B2 draws in each full PME/PMD batch


def _read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def margins(probs: np.ndarray) -> np.ndarray:
    """Top-two margin of each row after renormalising it over its own sum."""
    matrix = probs / probs.sum(axis=1)[:, None]
    top = np.sort(matrix, axis=1)
    return top[:, -1] - top[:, -2]


def check_report(path, strategy: str, seed: int, epochs: int) -> str | None:
    """A run report: its cell, epochs x 10 checkpoints, and the first best index."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    if (report["strategy"], report["seed"]) != (strategy, seed):
        return f"report is for {report['strategy']} seed {report['seed']}"
    accs = [c["accuracy"] for c in report["checkpoints"]]
    if len(accs) != epochs * CHECKPOINTS_PER_EPOCH:
        return f"{len(accs)} checkpoints, expected {epochs * CHECKPOINTS_PER_EPOCH}"
    best = accs.index(max(accs))
    if report["best_checkpoint_index"] != best:
        return f"best_checkpoint_index {report['best_checkpoint_index']}, expected {best}"
    if not 0.0 <= report["test_metrics"]["accuracy"] <= 1.0:
        return "test accuracy outside [0, 1]"
    return None


def check_checkpoint_csv(path, epochs: int) -> str | None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["fraction_seen", "acc", "macro_f1", "macro_p", "macro_r", "loss"]:
        return f"unexpected header {rows[0]}"
    if len(rows) - 1 != epochs * CHECKPOINTS_PER_EPOCH:
        return f"{len(rows) - 1} checkpoint rows, expected {epochs * CHECKPOINTS_PER_EPOCH}"
    return None


def check_aggregate_csv(path, strategies, seeds) -> str | None:
    """One row per strategy, in order, over every seed and none missing."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [r["strategy"] for r in rows] != list(strategies):
        return f"rows {[r['strategy'] for r in rows]}, expected {list(strategies)}"
    want = " ".join(str(s) for s in seeds)
    for r in rows:
        if r["missing_seeds"] or r["seeds"] != want:
            return f"{r['strategy']}: seeds {r['seeds']!r}, missing {r['missing_seeds']!r}"
    return None


def check_aggregate_text(path, strategies) -> str | None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if [line.split()[0] for line in lines[1:]] != list(strategies):
        return "strategy rows out of order or missing"
    if any("missing:" in line for line in lines):
        return "table marks missing seeds"
    return None


def check_plan(path, strategy: str, n: int, scores: np.ndarray,
               lengths: np.ndarray, batch_size: int = 16) -> str | None:
    """Plan JSONL for one strategy over ids 0..n-1.

    Every epoch is a permutation; PME/PMD full batches hold 9 B1 then 7 B2
    draws; E2D (D2E) follows descending (ascending) ``scores`` with ties by
    ascending id; Length never decreases in token count.
    """
    records = _read_jsonl(path)
    epochs: dict[int, list[dict]] = {}
    for rec in records:
        epochs.setdefault(rec["epoch"], []).append(rec)
    if sorted(epochs) != list(range(len(epochs))) or not epochs:
        return f"epochs {sorted(epochs)} are not 0..k"
    ids = np.arange(n)
    for epoch, recs in epochs.items():
        if [r["position"] for r in recs] != list(range(len(recs))):
            return f"epoch {epoch}: positions out of order"
        order = np.array([r["example_id"] for r in recs], dtype=np.int64)
        tags = [r["partition_tag"] for r in recs]
        if len(order) != n or not np.array_equal(np.sort(order), ids):
            return f"epoch {epoch}: not a permutation of 0..{n - 1}"
        if strategy in ("PME", "PMD"):
            want = ["B1"] * PARTITION_SPLIT[0] + ["B2"] * PARTITION_SPLIT[1]
            for start in range(0, n - batch_size + 1, batch_size):
                if tags[start:start + batch_size] != want:
                    return f"epoch {epoch}: batch at {start} is not 9 B1 + 7 B2"
        elif any(t != "whole" for t in tags):
            return f"epoch {epoch}: partition tags on a {strategy} plan"
        if strategy in ("E2D", "D2E"):
            keys = -scores if strategy == "E2D" else scores
            if not np.array_equal(order, np.lexsort((ids, keys))):
                return f"epoch {epoch}: {strategy} order differs from the scores"
        if strategy == "Length" and np.any(np.diff(lengths[order]) < 0):
            return f"epoch {epoch}: token count decreases along the Length order"
    return None


def check_scores(path, n: int) -> str | None:
    """n records in id order; each score is its probs' top-two margin, in [0, 1]."""
    records = _read_jsonl(path)
    if [r["id"] for r in records] != list(range(n)):
        return f"ids are not 0..{n - 1} in order"
    for r in records:
        top = sorted(r["probs"])
        if not 0.0 <= r["score"] <= 1.0:
            return f"id {r['id']}: score {r['score']} outside [0, 1]"
        if abs(r["score"] - (top[-1] - top[-2])) > 1e-12:
            return f"id {r['id']}: score {r['score']} is not the top-two margin"
    return None


def check_histogram(path, n: int, bins: int) -> str | None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != bins:
        return f"{len(rows)} bins, expected {bins}"
    total = sum(int(r["correct_count"]) + int(r["incorrect_count"]) for r in rows)
    if total != n:
        return f"histogram counts sum to {total}, expected {n}"
    return None
