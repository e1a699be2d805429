"""Difficulty scores from class probabilities, ranking, and histogram reports.

The difficulty score of an example is the margin between its two highest
class probabilities: 0 means the model is maximally uncertain (hardest),
1 means fully confident (easiest). The binary case is just the two-class
instance of the same margin, so one code path serves every C >= 2.

Probabilities arrive as one (N, C) matrix per dataset, from a score file
(``score_table_from_probs``) or from a frozen model (``score_dataset``).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .dataset_io import open_atomic, rows_of

_SUM_TOL = 1e-9


def margins_from_matrix(matrix: np.ndarray) -> np.ndarray:
    """Difficulty score of each row of an (N, C) probability matrix, in [0, 1]."""
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
        rows = rows_of(self.ids, np.sort(ids))
        return ScoreTable(ids=self.ids[rows], scores=self.scores[rows],
                          distributions=self.distributions[rows])


def score_table_from_probs(matrix: np.ndarray, ids) -> ScoreTable:
    """Renormalize raw per-example probability rows and score them.

    Every row must be finite, non-negative and have a positive sum, as
    ``dataset_io.read_score_file`` checks for the score files it reads.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    matrix = matrix / matrix.sum(axis=1, keepdims=True)
    return ScoreTable(ids=np.asarray(ids, dtype=np.int64),
                      scores=margins_from_matrix(matrix),
                      distributions=matrix)


def score_dataset(probs, dataset) -> ScoreTable:
    """Score every example from its row of an (N, C) probability matrix.

    Row k belongs to the dataset's k-th example, e.g. the rows of a frozen
    model's ``toy_model.probabilities(feats.logits(model))``. Each row must
    be finite, non-negative and sum to 1 within ``_SUM_TOL``; the first row
    that is not is reported with its example id.
    """
    probs = np.asarray(probs, dtype=np.float64)
    expected = (len(dataset), dataset.class_count)
    if probs.shape != expected:
        raise ValueError(f"probability matrix has shape {probs.shape}, expected {expected}")
    valid = (np.all(np.isfinite(probs) & (probs >= 0), axis=1)
             & (np.abs(probs.sum(axis=1) - 1.0) <= _SUM_TOL))
    if not valid.all():
        k = int(np.argmin(valid))
        raise ValueError(f"probabilities {probs[k].tolist()} for id {dataset.examples[k].id} "
                         "are not a distribution (finite, non-negative, summing to 1)")
    return ScoreTable(ids=dataset.ids, scores=margins_from_matrix(probs),
                      distributions=probs)


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
