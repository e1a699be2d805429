"""Fine-tuning loop over epoch plans, checkpoint evaluation and aggregation.

Protocol implemented here: difficulty scores are computed once before
training (external file or probe model), a fresh plan is drawn per epoch
from the substream (seed, epoch), the model takes one optimizer step per
batch, the validation split is evaluated every checkpoint_fraction of the
epoch's examples, and the test split is touched exactly once with the
parameters from the highest-validation-accuracy checkpoint (ties resolve
to the earliest one).

``train_grid`` is the one training loop. It trains a grid's runs (cells)
in lockstep as one block-diagonal model, each cell's numbers bit for bit
those of its run alone; ``run_training`` is its one-cell case. Checkpoint
and test metrics are computed per grid, not per cell: one ``logits`` call
scores a split for every cell, and one ``bincount`` gives every cell's
confusion matrix, which ``_metrics`` turns into its Metrics (``evaluate``
and ``compute_metrics`` are one-cell cases of the same path).

Reports are written by a small recursive writer over ``RunReport.to_dict()``
with the bytes of ``json.dump(..., indent=2, sort_keys=True)``, and
checkpoint series with the bytes ``csv.writer`` gives, without json's
pure-Python indenting encoder.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii

import numpy as np

from .dataset_io import Dataset, load_external_scores, open_atomic, rows_of, token_lengths
from .samplers import DEFAULT_BATCH_SIZE, EpochPlan, Strategy, make_plan
from .scoring import HistogramReport, ScoreTable, score_dataset, score_histogram
from .toy_model import (NONFINITE_GRADIENT, NONFINITE_PARAMETERS, FeatureMatrix,
                        LinearModel, OptimizerState, build_probe_scorer, loss_and_grad,
                        optimizer_step, probabilities)

# RNG substreams: epoch plans use (seed, epoch); the few-shot draw uses a
# stream that no epoch index can collide with.
FEWSHOT_STREAM = 2 ** 32


@dataclass
class TrainConfig:
    epochs: int = 5
    batch_size: int = DEFAULT_BATCH_SIZE
    checkpoint_fraction: float = 0.1
    seeds: tuple[int, ...] = (66, 88, 99)
    strategy: Strategy | str = Strategy.RANDOM
    optimizer: str = "adamw"
    # None resolves to the toy defaults: 0.01 for adamw, 0.1 for sgd.
    # Transformer-scale rates (1e-5) belong to real PLM fine-tuning pipelines,
    # not this stand-in.
    learning_rate: float | None = None
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    dim: int = 2 ** 16
    scores_path: str | None = None
    probe_fraction: float = 0.1
    probe_epochs: int = 1
    probe_seed: int = 0
    max_tokens: int | None = None
    rescore: bool = False
    rescore_split: str = "train"
    histogram_bins: int = 20

    def __post_init__(self):
        if isinstance(self.strategy, str):
            self.strategy = Strategy.parse(self.strategy)
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds:
            raise ValueError("seeds must not be empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {list(self.seeds)}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.checkpoint_fraction <= 1:
            raise ValueError("checkpoint_fraction must be in (0, 1]")
        if self.rescore_split not in ("train", "validation"):
            raise ValueError("rescore_split must be 'train' or 'validation'")
        if self.learning_rate is not None and not (math.isfinite(self.learning_rate)
                                                   and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.probe_epochs < 0:
            raise ValueError(f"probe_epochs must be >= 0, got {self.probe_epochs}")
        if self.max_tokens is not None and self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")
        if self.optimizer not in ("sgd", "adamw"):
            raise ValueError(f"optimizer must be 'sgd' or 'adamw', got {self.optimizer!r}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")

    def resolved_lr(self) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        return 0.1 if self.optimizer == "sgd" else 0.01


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class Metrics:
    """Accuracy plus macro-averaged precision/recall/F1.

    Macro values are unweighted means over all declared classes; a class
    with zero support (and, for precision, zero predictions) contributes 0.
    """

    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    per_class: list[ClassMetrics]

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
            "per_class": [vars(c).copy() for c in self.per_class],
        }


def compute_metrics(predictions, labels, class_count: int) -> Metrics:
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(predictions) != len(labels):
        raise ValueError("predictions and labels misaligned")
    if len(labels) == 0:
        raise ValueError("cannot compute metrics on an empty split")
    return _metrics(_confusions(predictions, labels, class_count))[0]


def _confusions(predictions: np.ndarray, labels: np.ndarray, class_count: int) -> np.ndarray:
    """(K, C, C) counts of (label, prediction) pairs, in one ``bincount``:
    ``predictions`` holds K runs of len(``labels``), run k being cell k's
    predictions of the shared labels."""
    for name, values in (("label", labels), ("prediction", predictions)):
        bad = (values < 0) | (values >= class_count)
        if bad.any():  # it would count in another class, or another cell's block
            raise ValueError(f"{name} {int(values[bad][0])} outside the "
                             f"{class_count} classes [0, {class_count})")
    cells = len(predictions) // len(labels)
    index = ((np.arange(cells)[:, None] * class_count + labels) * class_count).ravel()
    index += predictions
    return np.bincount(index, minlength=cells * class_count ** 2).reshape(
        cells, class_count, class_count)


def _metrics(confusions: np.ndarray) -> list[Metrics]:
    """Each cell's Metrics from its (C, C) confusion: the one metrics path."""
    class_count = confusions.shape[1]
    out = []
    for tps, predicted, supports in zip(np.diagonal(confusions, axis1=1, axis2=2).tolist(),
                                        confusions.sum(axis=1).tolist(),
                                        confusions.sum(axis=2).tolist()):
        per_class = []
        for tp, predicted_c, support in zip(tps, predicted, supports):
            precision = tp / predicted_c if predicted_c else 0.0
            recall = tp / support if support else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            per_class.append(ClassMetrics(precision, recall, f1, support))
        out.append(Metrics(
            accuracy=float(sum(tps)) / sum(supports),
            macro_precision=sum(c.precision for c in per_class) / class_count,
            macro_recall=sum(c.recall for c in per_class) / class_count,
            macro_f1=sum(c.f1 for c in per_class) / class_count,
            per_class=per_class,
        ))
    return out


def evaluate(model: LinearModel, split: Dataset, feats: FeatureMatrix | None = None,
             max_tokens: int | None = None) -> tuple[Metrics, float]:
    """Deterministic metrics and mean cross-entropy on a split."""
    _check_split(model.class_count, split)
    if feats is None:
        feats = FeatureMatrix.build(split, model.dim, max_tokens)
    return _score_cells(model, split.labels, feats)[0]


def _check_split(class_count: int, split: Dataset) -> None:
    if len(split) == 0:
        raise ValueError("cannot evaluate an empty split")
    if class_count != split.class_count:
        raise ValueError(f"model has {class_count} classes, split has {split.class_count}")


def _score_cells(model: LinearModel, labels: np.ndarray,
                 feats: FeatureMatrix) -> list[tuple[Metrics, float]]:
    """Each cell's metrics and mean cross-entropy on a split, from one
    ``logits`` call: the split's ``labels`` and ``feats`` at one block's width."""
    probs = probabilities(feats.logits(model, every_cell=True))
    cells, n = model.cells, len(labels)
    gold = np.clip(probs[np.arange(cells * n), np.tile(labels, cells)], 1e-300, None)
    # one 1-D mean per cell, summed as a run alone sums it
    losses = [float(-row.mean()) for row in np.log(gold).reshape(cells, n)]
    metrics = _metrics(_confusions(np.argmax(probs, axis=1), labels, model.class_count))
    return list(zip(metrics, losses))


def checkpoint_steps(N: int, fraction: float = 0.1) -> list[int]:
    """Example-count marks ceil(k*fraction*N), k = 1..ceil(1/fraction).

    Marks are deduplicated and capped at N; the trainer evaluates after the
    batch that crosses each mark, so the batch size does not move the marks.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    k_max = math.ceil(1 / fraction - 1e-9)
    marks = []
    for k in range(1, k_max + 1):
        value = k * fraction * N
        # guard against float crumbs pushing an exact product past its ceil
        mark = min(N, math.ceil(value - 1e-9 * max(1.0, value)))
        if not marks or mark != marks[-1]:
            marks.append(mark)
    return marks


@dataclass
class CheckpointEntry:
    epoch: int
    examples_seen_epoch: int
    fraction_of_epoch: float
    fraction_seen: float  # cumulative over the whole run
    metrics: Metrics
    mean_loss: float


@dataclass
class RunReport:
    strategy: str
    seed: int
    epochs: int
    batch_size: int
    n_train: int
    checkpoints: list[CheckpointEntry]
    best_checkpoint_index: int
    test_metrics: Metrics
    test_mean_loss: float
    score_histograms: list[HistogramReport] | None = None

    def to_dict(self) -> dict:
        out = {
            "schema_version": 1,
            "strategy": self.strategy,
            "seed": self.seed,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "n_train": self.n_train,
            "best_checkpoint_index": self.best_checkpoint_index,
            "test_mean_loss": self.test_mean_loss,
            "test_metrics": self.test_metrics.to_dict(),
            "checkpoints": [
                {
                    "epoch": e.epoch,
                    "examples_seen_epoch": e.examples_seen_epoch,
                    "fraction_of_epoch": e.fraction_of_epoch,
                    "fraction_seen": e.fraction_seen,
                    "mean_loss": e.mean_loss,
                    **e.metrics.to_dict(),
                }
                for e in self.checkpoints
            ],
        }
        if self.score_histograms is not None:
            out["score_histograms"] = [
                {
                    "epoch_tag": h.epoch_tag,
                    "bin_edges": [float(x) for x in h.bin_edges],
                    "counts_correct": [int(x) for x in h.counts_correct],
                    "counts_incorrect": [int(x) for x in h.counts_incorrect],
                    "split_by_correctness": h.split_by_correctness,
                    "mean_score": h.mean_score,
                }
                for h in self.score_histograms
            ]
        return out


@dataclass
class TrainOutcome:
    """Everything a run produced; ``report`` alone is the serialized contract."""

    report: RunReport
    best_model: LinearModel
    score_table: ScoreTable | None = None


def resolve_score_table(train_ds: Dataset, config: TrainConfig,
                        feats: FeatureMatrix | None = None,
                        val: tuple[Dataset, FeatureMatrix] | None = None,
                        ) -> tuple[ScoreTable, ScoreTable | None]:
    """The training split's scores, from the external score file when
    configured and from the probe model otherwise, plus the validation
    split's scores when the config rescores that split.

    ``feats`` is the training split's FeatureMatrix (built here when
    omitted); the probe trains on it once. ``val`` is the validation
    (dataset, FeatureMatrix) pair: with ``rescore_split='validation'`` the
    same probe scores it, and the second table is None otherwise.
    """
    score_val = val is not None and config.rescore and config.rescore_split == "validation"
    if config.scores_path:
        if score_val:  # an external file only covers the training split
            raise ValueError("rescore_split='validation' requires the probe "
                             "provider, not an external score file")
        return load_external_scores(config.scores_path, train_ds), None
    if feats is None:
        feats = FeatureMatrix.build(train_ds, config.dim, config.max_tokens)
    probe = build_probe_scorer(
        train_ds, feats, probe_fraction=config.probe_fraction,
        probe_epochs=config.probe_epochs, seed=config.probe_seed, kind=config.optimizer,
        base_lr=config.learning_rate, batch_size=config.batch_size)
    train_table = score_dataset(probabilities(feats.logits(probe)), train_ds)
    if not score_val:
        return train_table, None
    val_ds, val_feats = val
    return train_table, score_dataset(probabilities(val_feats.logits(probe)), val_ds)


def featurize_splits(splits, config: TrainConfig) -> tuple[FeatureMatrix, ...]:
    """One FeatureMatrix per dataset, hashed with the config's dim and max_tokens."""
    return tuple(FeatureMatrix.build(ds, config.dim, config.max_tokens) for ds in splits)


def epoch_plans(config: TrainConfig, score_table: ScoreTable | None, dataset: Dataset,
                seed: int) -> Iterator[EpochPlan]:
    """Yield the config's plan for each epoch, epoch e drawn from the substream
    (seed, e). ``curlearn plan`` writes these plans and ``train_grid``
    trains on them, so the two cannot drift apart."""
    length_index = (token_lengths(dataset, config.max_tokens)
                    if config.strategy is Strategy.LENGTH else None)
    for epoch in range(config.epochs):
        yield make_plan(config.strategy, score_table, dataset,
                        rng=np.random.default_rng((seed, epoch)),
                        batch_size=config.batch_size, length_index=length_index)


@dataclass
class Cell:
    """One (strategy, seed) run of a grid.

    ``config`` is the grid's config with this cell's strategy. ``train`` is
    what the cell schedules: the grid's training split, or for ``fewshot`` a
    subset of its rows. The tables are its scores, as ``run_training`` takes
    them.
    """

    config: TrainConfig
    seed: int
    train: Dataset
    score_table: ScoreTable | None = None
    val_table: ScoreTable | None = None


def run_training(train_ds: Dataset, val_ds: Dataset, test_ds: Dataset,
                 config: TrainConfig, seed: int | None = None,
                 score_table: ScoreTable | None = None,
                 features: tuple[FeatureMatrix, FeatureMatrix, FeatureMatrix] | None = None,
                 val_table: ScoreTable | None = None) -> TrainOutcome:
    """One seeded run, the one-cell case of ``train_grid``; returns the
    report plus the models behind it, and raises what failed the run.

    ``score_table`` and, for validation rescoring, ``val_table`` short-circuit
    scoring so a grid of runs can share the tables of one probe, mirroring
    the score-once-then-train protocol. ``features``, the
    (train, val, test) matrices built by ``FeatureMatrix.build`` with this
    config's ``dim`` and ``max_tokens``, does the same for featurization:
    hashing is seedless, so a grid can build them once and share them.
    ``best_model`` is scattered back to hashed width ``dim`` once, after
    training.
    """
    seed = config.seeds[0] if seed is None else int(seed)
    splits = (train_ds, val_ds, test_ds)
    if features is None:
        features = featurize_splits(splits, config)
    elif [(f.n_rows, f.dim, f.max_tokens) for f in features] != [
            (len(ds), config.dim, config.max_tokens) for ds in splits]:
        raise ValueError("features do not match the train/val/test split sizes "
                         "or the config's dim and max_tokens")
    rescore_val = config.rescore and config.rescore_split == "validation"
    if ((score_table is None and (config.strategy.needs_scores or config.rescore))
            or (rescore_val and val_table is None)):
        tables = resolve_score_table(train_ds, config, features[0], val=(val_ds, features[1]))
        score_table = tables[0] if score_table is None else score_table
        val_table = tables[1]
    [outcome] = train_grid([Cell(config, seed, train_ds, score_table, val_table)],
                           splits, features)
    if isinstance(outcome, Exception):
        raise outcome
    outcome.best_model = outcome.best_model.scatter(features[0].distinct_ids(), config.dim)
    return outcome


@dataclass
class _Run:
    """A cell's progress through ``train_grid``."""

    cell: Cell
    plans: Iterator[EpochPlan] | None = None
    rows: np.ndarray | None = None  # this epoch's plan, as rows of the train split
    checkpoints: list[CheckpointEntry] = field(default_factory=list)
    best_acc: float = -1.0
    best_index: int = -1
    best_model: LinearModel | None = None
    snapshots: list[LinearModel] = field(default_factory=list)
    outcome: TrainOutcome | None = None
    error: Exception | None = None


def train_grid(cells: list[Cell], splits: tuple[Dataset, Dataset, Dataset],
               features: tuple[FeatureMatrix, FeatureMatrix, FeatureMatrix],
               ) -> list[TrainOutcome | Exception]:
    """Train a grid's cells in lockstep, as one block-diagonal model.

    ``splits`` are the grid's (train, validation, test) datasets and
    ``features`` their matrices, as ``run_training`` takes them. The cells
    share every setting but the strategy, and their training size, so each
    step stacks every live cell's next batch, in cell order, into one batch:
    one ``loss_and_grad`` and one ``optimizer_step`` per step, and one
    ``logits`` call per validation checkpoint. Every cell's report and
    models are bit for bit those of its run alone (see ``toy_model``).

    The model trains, is evaluated and is rescored in the train split's own
    columns, ``vocab``, the sorted distinct ids of ``features[0]``, onto
    which the three matrices are mapped once; cell k owns columns
    k*W ... k*W + W - 1, W = len(vocab). A column a cell's rows never use
    gets no gradient and stays +0.0, so no metric or score moves.

    Returns, per cell, its outcome, whose ``best_model`` is in the columns
    ``vocab`` (``LinearModel.scatter`` widens it), or the exception that
    failed it. A non-finite loss, gradient or parameter, or an error in the
    cell's own plan draw or rescoring, fails only that cell: it leaves all
    later batches, and the other cells train on unchanged. The test split
    is scored once for every cell still in the grid, with their best models
    stacked into one grid model; an error there fails each of them, as it
    reads only the inputs they share.
    """
    config, n_train = cells[0].config, len(cells[0].train)
    if any(replace(c.config, strategy=config.strategy) != config or len(c.train) != n_train
           for c in cells):
        raise ValueError("a grid's cells must share every setting but the strategy, "
                         "and their training size")
    train_ds, val_ds, test_ds = splits
    class_count = train_ds.class_count
    for split in (val_ds, test_ds):
        _check_split(class_count, split)
    marks = checkpoint_steps(n_train, config.checkpoint_fraction)
    vocab = features[0].distinct_ids()
    width = len(vocab)
    feats_train, feats_val, feats_test = (f.in_columns(vocab) for f in features)
    ids, labels, val_labels = train_ds.ids, train_ds.labels, val_ds.labels
    model = LinearModel.zeros(class_count, len(cells) * width)
    model.bias = np.zeros((len(cells), class_count))  # one bias row per cell
    steps_per_epoch = math.ceil(n_train / config.batch_size)
    state = OptimizerState.for_model(
        model, kind=config.optimizer, base_lr=config.resolved_lr(),
        total_steps=config.epochs * steps_per_epoch, weight_decay=config.weight_decay,
        beta1=config.beta1, beta2=config.beta2, epsilon=config.epsilon)

    runs = [_Run(cell) for cell in cells]
    live = runs  # block j of the model trains live[j]
    for epoch in range(config.epochs):
        for run in live:
            try:
                if run.plans is None:
                    c = run.cell
                    run.plans = epoch_plans(c.config, c.score_table, c.train, c.seed)
                run.rows = rows_of(ids, next(run.plans).order)
            except Exception as err:  # noqa: BLE001 - the cell fails, the grid goes on
                run.error = err
        next_mark = 0
        for batch_no, start in enumerate(range(0, n_train, config.batch_size)):
            live = _drop_failed(live, model, state, width)
            if not live:
                break
            rows = np.stack([run.rows[start:start + config.batch_size] for run in live])
            batch = feats_train.take(rows.ravel())
            # cell j's entries move to its block of columns
            shift = np.repeat(np.arange(len(live)) * width,
                              np.diff(batch.indptr[::rows.shape[1]]))
            batch = replace(batch, flat_indices=batch.flat_indices + shift,
                            dim=len(live) * width)
            loss, grads = loss_and_grad(model, batch, labels[rows.ravel()])
            for j in np.flatnonzero(~np.isfinite(loss)):
                live[j].error = RuntimeError(
                    f"non-finite loss at epoch {epoch} batch {batch_no} "
                    f"(ids {ids[rows[j, :8]].tolist()}...)")
            cell_of = grads.cols // max(width, 1)
            _fail(live, _nonfinite_cells(grads.weight_vals, cell_of, grads.bias),
                  NONFINITE_GRADIENT)
            failed = np.array([run.error is not None for run in live])
            if failed.any():  # a failed cell's block takes no gradient
                grads.weight_vals[:, failed[cell_of]] = 0.0
                grads.bias[failed] = 0.0
            try:
                optimizer_step(model, grads, state)
            except FloatingPointError:
                bad = _nonfinite_cells(model.weights, np.repeat(np.arange(len(live)), width),
                                       model.bias)
                if not bad.any():
                    raise
                _fail(live, bad, NONFINITE_PARAMETERS)
            seen = start + rows.shape[1]
            crossed = []
            while next_mark < len(marks) and marks[next_mark] <= seen:
                crossed.append(marks[next_mark])
                next_mark += 1
            live = _drop_failed(live, model, state, width)
            if crossed and live:
                scored = _score_cells(model, val_labels, feats_val)
                for j, (run, (metrics, mean_loss)) in enumerate(zip(live, scored)):
                    for mark in crossed:
                        run.checkpoints.append(CheckpointEntry(
                            epoch=epoch, examples_seen_epoch=mark,
                            fraction_of_epoch=mark / n_train,
                            fraction_seen=(epoch * n_train + mark) / (config.epochs * n_train),
                            metrics=metrics, mean_loss=mean_loss))
                        if metrics.accuracy > run.best_acc:
                            run.best_acc = metrics.accuracy
                            run.best_index = len(run.checkpoints) - 1
                            run.best_model = _block(model, j, width)
        if config.rescore:
            for j, run in enumerate(live):
                run.snapshots.append(_block(model, j, width))

    # the test split, touched once: every finished cell's best model in one pass
    done = [run for run in runs if run.error is None]
    tested = []
    if done:
        try:
            best = LinearModel(np.concatenate([r.best_model.weights for r in done], axis=1),
                               np.stack([r.best_model.bias for r in done]))
            tested = _score_cells(best, test_ds.labels, feats_test)
        except Exception as err:  # noqa: BLE001 - it reads only what the cells share
            for run in done:
                run.error = err
    rescore_val = config.rescore and config.rescore_split == "validation"
    for run, (test_metrics, test_loss) in zip(done, tested):
        cell = run.cell
        try:
            histograms = None
            if config.rescore:
                if rescore_val:
                    ds, feats, initial = val_ds, feats_val, cell.val_table
                else:
                    ds, initial = cell.train, cell.score_table
                    feats = feats_train.take(rows_of(ids, cell.train.ids))
                histograms = rescore_analysis(run.snapshots, ds, feats, initial_table=initial,
                                              bins=config.histogram_bins)
            report = RunReport(
                strategy=cell.config.strategy.value, seed=cell.seed, epochs=config.epochs,
                batch_size=config.batch_size, n_train=n_train, checkpoints=run.checkpoints,
                best_checkpoint_index=run.best_index, test_metrics=test_metrics,
                test_mean_loss=test_loss, score_histograms=histograms)
            run.outcome = TrainOutcome(report=report, best_model=run.best_model,
                                       score_table=cell.score_table)
        except Exception as err:  # noqa: BLE001
            run.error = err
    return [run.outcome if run.error is None else run.error for run in runs]


def _nonfinite_cells(weights: np.ndarray, cell_of: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """A flag per cell: does its bias row, or a column of ``weights`` that
    ``cell_of`` gives to it, hold a non-finite value?"""
    bad = ~np.isfinite(bias).all(axis=1)
    bad[cell_of[~np.isfinite(weights).all(axis=0)]] = True
    return bad


def _fail(live: list[_Run], bad: np.ndarray, message: str) -> None:
    for j in np.flatnonzero(bad):
        if live[j].error is None:
            live[j].error = FloatingPointError(message)


def _drop_failed(live: list[_Run], model: LinearModel, state: OptimizerState,
                 width: int) -> list[_Run]:
    """The runs that have not failed; the model and optimizer state keep
    only their blocks."""
    keep = np.array([run.error is None for run in live], dtype=bool)
    if keep.all():
        return live
    C, K = model.class_count, len(live)

    def blocks(a):
        return a.reshape(C, K, width)[:, keep].reshape(C, int(keep.sum()) * width)

    model.weights, model.bias = blocks(model.weights), model.bias[keep]
    if state.m_w is not None:
        state.m_w, state.v_w = blocks(state.m_w), blocks(state.v_w)
        state.m_b, state.v_b = state.m_b[keep], state.v_b[keep]
    return [run for run, k in zip(live, keep) if k]


def _block(model: LinearModel, j: int, width: int) -> LinearModel:
    """A copy of block j of a grid model, as a model of its own."""
    return LinearModel(model.weights[:, j * width:(j + 1) * width], model.bias[j]).copy()


def rescore_analysis(snapshots, dataset: Dataset, feats: FeatureMatrix,
                     initial_table: ScoreTable | None = None,
                     bins: int = 20) -> list[HistogramReport]:
    """Score histograms per training epoch, split by prediction correctness.

    Epoch 0 comes from ``initial_table`` (the scores taken before training)
    when given; snapshot k produces the epoch-(k+1) report from its logits on
    ``feats``, the dataset's FeatureMatrix as the run built it.
    """
    if not snapshots and initial_table is None:
        raise ValueError("no snapshots or initial table to analyze")
    labels = dataset.labels
    reports = []
    if initial_table is not None:
        sub = initial_table.restrict(dataset.ids)
        preds = np.argmax(sub.distributions, axis=1)
        reports.append(score_histogram(sub, preds, labels, bins=bins, epoch_tag=0))
    for k, model in enumerate(snapshots):
        probs = probabilities(feats.logits(model))
        table = score_dataset(probs, dataset)
        preds = np.argmax(probs, axis=1)
        reports.append(score_histogram(table, preds, labels, bins=bins, epoch_tag=k + 1))
    return reports


def few_shot_select(strategy: Strategy | str, score_table: ScoreTable | None,
                    dataset: Dataset, k: int = 64,
                    rng: np.random.Generator | None = None,
                    length_index=None, batch_size: int = DEFAULT_BATCH_SIZE,
                    max_tokens: int | None = None) -> Dataset:
    """The k examples a strategy would schedule first.

    E2D gets the k easiest, D2E the k hardest, Length the k shortest,
    Random a uniform draw; the probabilistic strategies contribute the
    first k positions of one seeded plan (for PME/PMD that interleaves the
    partition draws, 9:7 at batch size 16, until k is reached).
    """
    if isinstance(strategy, str):
        strategy = Strategy.parse(strategy)
    if not 1 <= k <= len(dataset):
        raise ValueError(f"k must be in [1, {len(dataset)}], got {k}")
    if strategy is Strategy.LENGTH and length_index is None:
        length_index = token_lengths(dataset, max_tokens)
    plan = make_plan(strategy, score_table, dataset, rng=rng, batch_size=batch_size,
                     length_index=length_index)
    return dataset.subset(plan.order[:k])


def aggregate_runs(reports_by_strategy: dict[str, list[RunReport]]) -> list[dict]:
    """Mean test metrics per strategy over a common seed set."""
    if not reports_by_strategy:
        raise ValueError("no reports to aggregate")
    seed_sets = {name: tuple(sorted(r.seed for r in reports))
                 for name, reports in reports_by_strategy.items()}
    reference = next(iter(seed_sets.values()))
    bad = {n: s for n, s in seed_sets.items() if s != reference}
    if bad:
        raise ValueError(f"inconsistent seed sets across strategies: "
                         f"{reference} vs {bad}")
    rows = []
    for name, reports in reports_by_strategy.items():
        rows.append({
            "strategy": name,
            "accuracy": sum(r.test_metrics.accuracy for r in reports) / len(reports),
            "macro_f1": sum(r.test_metrics.macro_f1 for r in reports) / len(reports),
            "macro_precision": sum(r.test_metrics.macro_precision for r in reports) / len(reports),
            "macro_recall": sum(r.test_metrics.macro_recall for r in reports) / len(reports),
            "seeds": list(reference),
        })
    return rows


def write_checkpoint_csv(report: RunReport, path) -> None:
    """Checkpoint series CSV: fraction_seen, acc, macro_f1, macro_p, macro_r, loss.

    The bytes ``csv.writer`` gives: no float's ``repr`` needs quoting."""
    lines = ["fraction_seen,acc,macro_f1,macro_p,macro_r,loss\r\n"]
    for e in report.checkpoints:
        m = e.metrics
        lines.append(f"{e.fraction_seen!r},{m.accuracy!r},{m.macro_f1!r},"
                     f"{m.macro_precision!r},{m.macro_recall!r},{e.mean_loss!r}\r\n")
    with open_atomic(path, encoding="utf-8", newline="") as fh:
        fh.write("".join(lines))


def write_report_json(report: RunReport, path, manifest_ref: str = "manifest.json") -> None:
    """``report.to_dict()`` plus the manifest reference, as the bytes of
    ``json.dump(..., indent=2, sort_keys=True)`` and a newline."""
    with open_atomic(path, encoding="utf-8") as fh:
        fh.write(_json_text(report.to_dict() | {"manifest": manifest_ref}, "") + "\n")


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(value, pad: str) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for dicts, lists, str,
    bool, int and float (int.__repr__ and float.__repr__, whatever the
    subclass), its inner lines indented from ``pad``; json's indenting
    encoder is pure Python and about twice as slow."""
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        return ("{\n" + ",\n".join([f"{inner}{encode_basestring_ascii(key)}: "
                                     f"{_json_text(value[key], inner)}" for key in sorted(value)])
                + f"\n{pad}}}")
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = pad + "  "
        return (f"[\n{inner}" + f",\n{inner}".join([_json_text(v, inner) for v in value])
                + f"\n{pad}]")
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is True or value is False:
        return "true" if value else "false"
    return int.__repr__(value)


AGGREGATE_COLUMNS = ("strategy", "accuracy", "macro_f1", "macro_precision", "macro_recall")


def write_aggregate_csv(rows, path) -> None:
    with open_atomic(path, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(AGGREGATE_COLUMNS) + ["seeds", "missing_seeds"])
        for row in rows:
            writer.writerow([row["strategy"]]
                            + [repr(row[c]) if isinstance(row[c], float) else row[c]
                               for c in AGGREGATE_COLUMNS[1:]]
                            + [" ".join(str(s) for s in row.get("seeds", [])),
                               " ".join(str(s) for s in row.get("missing_seeds", []))])


def write_aggregate_text(rows, path) -> None:
    """Aligned text table in the Acc / F1 / Prec / Rec column order."""
    header = ["strategy", "acc", "f1", "prec", "rec"]
    body = [[row["strategy"],
             f"{row['accuracy']:.4f}", f"{row['macro_f1']:.4f}",
             f"{row['macro_precision']:.4f}", f"{row['macro_recall']:.4f}"]
            + (["missing:" + ",".join(str(s) for s in row["missing_seeds"])]
               if row.get("missing_seeds") else [])
            for row in rows]
    widths = [max(len(header[i]), max((len(r[i]) for r in body if i < len(r)), default=0))
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for r in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths + [0] * 2)))
    with open_atomic(path, encoding="utf-8") as fh:
        fh.write("\n".join(line.rstrip() for line in lines) + "\n")
