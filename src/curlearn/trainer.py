"""Fine-tuning loop over epoch plans, checkpoint evaluation and aggregation.

Protocol implemented here: difficulty scores are computed once before
training (external file or probe model), a fresh plan is drawn per epoch
from the substream (seed, epoch), the model takes one optimizer step per
batch, the validation split is evaluated every checkpoint_fraction of the
epoch's examples, and the test split is touched exactly once with the
parameters from the highest-validation-accuracy checkpoint (ties resolve
to the earliest one).
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dataset_io import Dataset, load_external_scores, open_atomic, rows_of, token_lengths
from .samplers import DEFAULT_BATCH_SIZE, EpochPlan, Strategy, make_plan
from .scoring import HistogramReport, ScoreTable, score_dataset, score_histogram
from .toy_model import (FeatureMatrix, LinearModel, OptimizerState,
                        build_probe_scorer, loss_and_grad, optimizer_step,
                        probabilities)

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
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.checkpoint_fraction <= 1:
            raise ValueError("checkpoint_fraction must be in (0, 1]")
        if self.rescore_split not in ("train", "validation"):
            raise ValueError("rescore_split must be 'train' or 'validation'")

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
    confusion = np.zeros((class_count, class_count), dtype=np.int64)
    np.add.at(confusion, (labels, predictions), 1)
    per_class = []
    for c in range(class_count):
        tp = int(confusion[c, c])
        predicted = int(confusion[:, c].sum())
        support = int(confusion[c, :].sum())
        precision = tp / predicted if predicted else 0.0
        recall = tp / support if support else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append(ClassMetrics(precision, recall, f1, support))
    return Metrics(
        accuracy=float(np.trace(confusion)) / len(labels),
        macro_precision=sum(c.precision for c in per_class) / class_count,
        macro_recall=sum(c.recall for c in per_class) / class_count,
        macro_f1=sum(c.f1 for c in per_class) / class_count,
        per_class=per_class,
    )


def evaluate(model: LinearModel, split: Dataset, feats: FeatureMatrix | None = None,
             max_tokens: int | None = None) -> tuple[Metrics, float]:
    """Deterministic metrics and mean cross-entropy on a split."""
    if len(split) == 0:
        raise ValueError("cannot evaluate an empty split")
    if model.class_count != split.class_count:
        raise ValueError(f"model has {model.class_count} classes, "
                         f"split has {split.class_count}")
    if feats is None:
        feats = FeatureMatrix.build(split, model.dim, max_tokens)
    probs = probabilities(feats.logits(model))
    labels = split.labels
    preds = np.argmax(probs, axis=1)
    gold = np.clip(probs[np.arange(len(labels)), labels], 1e-300, None)
    return compute_metrics(preds, labels, split.class_count), float(-np.log(gold).mean())


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
    (seed, e). ``curlearn plan`` writes these plans and ``run_training``
    trains on them, so the two cannot drift apart."""
    length_index = (token_lengths(dataset, config.max_tokens)
                    if config.strategy is Strategy.LENGTH else None)
    for epoch in range(config.epochs):
        yield make_plan(config.strategy, score_table, dataset,
                        rng=np.random.default_rng((seed, epoch)),
                        batch_size=config.batch_size, length_index=length_index)


def run_training(train_ds: Dataset, val_ds: Dataset, test_ds: Dataset,
                 config: TrainConfig, seed: int | None = None,
                 score_table: ScoreTable | None = None,
                 features: tuple[FeatureMatrix, FeatureMatrix, FeatureMatrix] | None = None,
                 val_table: ScoreTable | None = None) -> TrainOutcome:
    """One seeded run; returns the report plus the models behind it.

    ``score_table`` and, for validation rescoring, ``val_table`` short-circuit
    scoring so a grid of runs can share the tables of one probe, mirroring
    the score-once-then-train protocol. ``features``, the
    (train, val, test) matrices built by ``FeatureMatrix.build`` with this
    config's ``dim`` and ``max_tokens``, does the same for featurization:
    hashing is seedless, so a grid can build them once and share them.
    """
    seed = config.seeds[0] if seed is None else int(seed)
    strategy = config.strategy
    splits = (train_ds, val_ds, test_ds)
    if features is None:
        features = featurize_splits(splits, config)
    elif [(f.n_rows, f.dim, f.max_tokens) for f in features] != [
            (len(ds), config.dim, config.max_tokens) for ds in splits]:
        raise ValueError("features do not match the train/val/test split sizes "
                         "or the config's dim and max_tokens")
    feats_train, feats_val, feats_test = features
    rescore_val = config.rescore and config.rescore_split == "validation"
    if ((score_table is None and (strategy.needs_scores or config.rescore))
            or (rescore_val and val_table is None)):
        tables = resolve_score_table(train_ds, config, feats_train, val=(val_ds, feats_val))
        score_table = tables[0] if score_table is None else score_table
        val_table = tables[1]

    N = len(train_ds)
    model = LinearModel.zeros(train_ds.class_count, config.dim)
    steps_per_epoch = math.ceil(N / config.batch_size)
    state = OptimizerState.for_model(
        model, kind=config.optimizer, base_lr=config.resolved_lr(),
        total_steps=config.epochs * steps_per_epoch, weight_decay=config.weight_decay,
        beta1=config.beta1, beta2=config.beta2, epsilon=config.epsilon)
    marks = checkpoint_steps(N, config.checkpoint_fraction)
    ids, labels = train_ds.ids, train_ds.labels

    checkpoints: list[CheckpointEntry] = []
    best_acc, best_index, best_model = -1.0, -1, model.copy()
    snapshots: list[LinearModel] = []
    for epoch, plan in enumerate(epoch_plans(config, score_table, train_ds, seed)):
        plan_rows = rows_of(ids, plan.order)
        next_mark = 0
        for batch_no, start in enumerate(range(0, N, config.batch_size)):
            rows = plan_rows[start:start + config.batch_size]
            loss, grads = loss_and_grad(model, feats_train.take(rows), labels[rows])
            if not math.isfinite(loss):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch} batch {batch_no} "
                    f"(ids {ids[rows[:8]].tolist()}...)")
            optimizer_step(model, grads, state)
            seen = start + len(rows)
            crossed = []
            while next_mark < len(marks) and marks[next_mark] <= seen:
                crossed.append(marks[next_mark])
                next_mark += 1
            if crossed:
                metrics, mean_loss = evaluate(model, val_ds, feats_val)
                for mark in crossed:
                    checkpoints.append(CheckpointEntry(
                        epoch=epoch, examples_seen_epoch=mark,
                        fraction_of_epoch=mark / N,
                        fraction_seen=(epoch * N + mark) / (config.epochs * N),
                        metrics=metrics, mean_loss=mean_loss))
                    if metrics.accuracy > best_acc:
                        best_acc = metrics.accuracy
                        best_index = len(checkpoints) - 1
                        best_model = model.copy()
        if config.rescore:
            snapshots.append(model.copy())

    test_metrics, test_loss = evaluate(best_model, test_ds, feats_test)
    histograms = None
    if config.rescore:
        rescore_ds, rescore_feats, initial = ((val_ds, feats_val, val_table) if rescore_val
                                              else (train_ds, feats_train, score_table))
        histograms = rescore_analysis(snapshots, rescore_ds, rescore_feats, initial_table=initial,
                                      bins=config.histogram_bins)
    report = RunReport(
        strategy=strategy.value, seed=seed, epochs=config.epochs,
        batch_size=config.batch_size, n_train=N, checkpoints=checkpoints,
        best_checkpoint_index=best_index, test_metrics=test_metrics,
        test_mean_loss=test_loss, score_histograms=histograms)
    return TrainOutcome(report=report, best_model=best_model, score_table=score_table)


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
    """Checkpoint series CSV: fraction_seen, acc, macro_f1, macro_p, macro_r, loss."""
    with open_atomic(path, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fraction_seen", "acc", "macro_f1", "macro_p", "macro_r", "loss"])
        for e in report.checkpoints:
            writer.writerow([repr(e.fraction_seen), repr(e.metrics.accuracy),
                             repr(e.metrics.macro_f1), repr(e.metrics.macro_precision),
                             repr(e.metrics.macro_recall), repr(e.mean_loss)])


def write_report_json(report: RunReport, path, manifest_ref: str = "manifest.json") -> None:
    payload = report.to_dict()
    payload["manifest"] = manifest_ref
    with open_atomic(path, encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
