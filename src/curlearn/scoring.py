"""Difficulty scores from class probabilities, ranking, and histogram reports.

The difficulty score of an example is the margin between its two highest
class probabilities: 0 means the model is maximally uncertain (hardest),
1 means fully confident (easiest). The binary case is just the two-class
instance of the same margin, so one code path serves every C >= 2.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .dataset_io import open_atomic

_SUM_TOL = 1e-9


@dataclass
class ClassDistribution:
    """Normalized probability vector over the task's classes."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 1:
            raise ValueError("probs must be a flat vector")
        if np.any(self.probs < 0):
            raise ValueError("probabilities must be non-negative")
        if abs(float(self.probs.sum()) - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {self.probs.sum()}, expected 1")


def normalize_restricted(raw) -> ClassDistribution:
    """Divide a non-negative vector by its sum (the verbalizer-restricted renormalization)."""
    raw = np.asarray(raw, dtype=np.float64)
    if np.any(raw < 0):
        raise ValueError("entries must be non-negative")
    total = float(raw.sum())
    if total <= 0:
        raise ValueError("cannot normalize an all-zero vector")
    return ClassDistribution(raw / total)


def difficulty_score(dist) -> float:
    """Margin between the top two class probabilities, in [0, 1]."""
    probs = dist.probs if isinstance(dist, ClassDistribution) else np.asarray(dist, float)
    if probs.size < 2:
        raise ValueError("difficulty score needs at least two classes")
    top2 = np.partition(probs, -2)[-2:]
    return float(top2[1] - top2[0])


def margins_from_matrix(matrix: np.ndarray) -> np.ndarray:
    """Vectorized difficulty_score over an (N, C) probability matrix."""
    if matrix.shape[1] < 2:
        raise ValueError("difficulty score needs at least two classes")
    top2 = np.partition(matrix, matrix.shape[1] - 2, axis=1)[:, -2:]
    return top2[:, 1] - top2[:, 0]


@dataclass
class ScoreTable:
    """Per-example difficulty scores plus the distributions they came from.

    Rows are aligned with the dataset the table was built from; ``ids``
    carries that dataset's example ids (dense for freshly loaded files,
    possibly sparse for in-memory splits).
    """

    ids: np.ndarray
    scores: np.ndarray
    distributions: np.ndarray
    source: str = "external"

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.distributions = np.asarray(self.distributions, dtype=np.float64)
        if not (len(self.ids) == len(self.scores) == len(self.distributions)):
            raise ValueError("ids, scores and distributions must be aligned")

    def __len__(self):
        return len(self.ids)

    def restrict(self, ids) -> "ScoreTable":
        """Sub-table for the given ids, in ascending id order."""
        wanted = sorted(int(i) for i in ids)
        pos = {int(i): k for k, i in enumerate(self.ids)}
        missing = [i for i in wanted if i not in pos]
        if missing:
            raise KeyError(f"ids not in score table: {missing[:5]}")
        rows = [pos[i] for i in wanted]
        return ScoreTable(ids=self.ids[rows], scores=self.scores[rows],
                          distributions=self.distributions[rows], source=self.source)


def score_table_from_probs(matrix: np.ndarray, ids, source: str) -> ScoreTable:
    """Renormalize raw per-example probability rows and score them.

    Every row must be finite, non-negative and have a positive sum, as
    ``dataset_io.read_score_file`` checks for the score files it reads.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    matrix = matrix / matrix.sum(axis=1, keepdims=True)
    return ScoreTable(ids=np.asarray(ids, dtype=np.int64),
                      scores=margins_from_matrix(matrix),
                      distributions=matrix, source=source)


def score_dataset(provider, dataset, source: str = "probe_model") -> ScoreTable:
    """Score every example with a probability provider; no state updates.

    ``provider`` is any callable mapping an Example to a ClassDistribution.
    Results are laid down in dataset order regardless of how the provider
    might be scheduled internally.
    """
    rows = np.empty((len(dataset), dataset.class_count), dtype=np.float64)
    for k, ex in enumerate(dataset.examples):
        try:
            dist = provider(ex)
        except Exception as err:
            raise RuntimeError(f"probability provider failed for id {ex.id}: {err}") from err
        probs = dist.probs if isinstance(dist, ClassDistribution) else np.asarray(dist, float)
        if probs.shape != (dataset.class_count,):
            raise ValueError(f"provider returned {probs.shape} probabilities for id {ex.id}, "
                             f"expected ({dataset.class_count},)")
        rows[k] = probs
    return ScoreTable(ids=dataset.ids, scores=margins_from_matrix(rows),
                      distributions=rows, source=source)


@dataclass
class RankedList:
    """Example ids sorted by difficulty score; ties broken by ascending id."""

    order: np.ndarray
    direction: str  # "ascending" | "descending"

    def __post_init__(self):
        if self.direction not in ("ascending", "descending"):
            raise ValueError(f"unknown direction {self.direction!r}")
        self.order = np.asarray(self.order, dtype=np.int64)

    def __len__(self):
        return len(self.order)


def rank_examples(table: ScoreTable, direction: str) -> RankedList:
    if len(table) == 0:
        raise ValueError("cannot rank an empty score table")
    if direction == "ascending":
        keys = table.scores
    elif direction == "descending":
        keys = -table.scores
    else:
        raise ValueError(f"unknown direction {direction!r}")
    # lexsort: primary key last; ids break ties ascending in both directions
    perm = np.lexsort((table.ids, keys))
    return RankedList(order=table.ids[perm], direction=direction)


@dataclass
class HistogramReport:
    """Score histogram with counts split by prediction correctness.

    When no predictions were supplied everything lands in ``counts_correct``
    and ``split_by_correctness`` is False. ``mean_score`` is the exact
    (pre-binning) mean of the scored examples.
    """

    bin_edges: np.ndarray
    counts_correct: np.ndarray
    counts_incorrect: np.ndarray
    epoch_tag: int = 0
    split_by_correctness: bool = True
    mean_score: float = 0.0

    @property
    def total_counts(self) -> np.ndarray:
        return self.counts_correct + self.counts_incorrect

    def error_rates(self):
        """(bin_index, error_rate) over non-empty bins; needs a correctness split."""
        if not self.split_by_correctness:
            raise ValueError("histogram was built without predictions")
        totals = self.total_counts
        nonempty = np.flatnonzero(totals > 0)
        return nonempty, self.counts_incorrect[nonempty] / totals[nonempty]


def score_histogram(table: ScoreTable, predictions=None, labels=None,
                    bins: int = 20, epoch_tag: int = 0) -> HistogramReport:
    """Equal-width histogram of scores over [0, 1]; a score of exactly 1.0
    belongs to the last bin. With predictions and gold labels the per-bin
    counts are split by correctness. Scores must be finite and in [0, 1]."""
    if bins < 2:
        raise ValueError("bins must be >= 2")
    outside = ~((table.scores >= 0) & (table.scores <= 1))
    if outside.any():
        k = int(np.argmax(outside))
        raise ValueError(f"score {table.scores[k]!r} of id {int(table.ids[k])} "
                         "is not a finite value in [0, 1]")
    n = len(table)
    idx = np.minimum((table.scores * bins).astype(np.int64), bins - 1)
    idx = np.maximum(idx, 0)
    edges = np.linspace(0.0, 1.0, bins + 1)
    if predictions is None:
        counts = np.bincount(idx, minlength=bins)
        return HistogramReport(bin_edges=edges, counts_correct=counts,
                               counts_incorrect=np.zeros(bins, dtype=np.int64),
                               epoch_tag=epoch_tag, split_by_correctness=False,
                               mean_score=float(table.scores.mean()) if n else 0.0)
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(predictions) != n or len(labels) != n:
        raise ValueError(f"predictions/labels misaligned with table "
                         f"({len(predictions)}/{len(labels)} vs {n})")
    correct = predictions == labels
    return HistogramReport(
        bin_edges=edges,
        counts_correct=np.bincount(idx[correct], minlength=bins),
        counts_incorrect=np.bincount(idx[~correct], minlength=bins),
        epoch_tag=epoch_tag, split_by_correctness=True,
        mean_score=float(table.scores.mean()) if n else 0.0)


def write_histogram_csv(reports, path) -> None:
    """Serialize histogram reports: bin_lo, bin_hi, correct_count, incorrect_count, epoch_tag."""
    if isinstance(reports, HistogramReport):
        reports = [reports]
    with open_atomic(path, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "correct_count", "incorrect_count", "epoch_tag"])
        for rep in reports:
            for b in range(len(rep.counts_correct)):
                writer.writerow([
                    repr(float(rep.bin_edges[b])), repr(float(rep.bin_edges[b + 1])),
                    int(rep.counts_correct[b]), int(rep.counts_incorrect[b]),
                    int(rep.epoch_tag),
                ])
