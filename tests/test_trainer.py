import csv
import io
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import curlearn.trainer as trainer_mod
from curlearn.dataset_io import Dataset, Example, rows_of
from curlearn.samplers import Strategy
from curlearn.scoring import rank_examples
from curlearn.scoring import HistogramReport
from curlearn.synthetic import make_noisy_corpus, make_separable_corpus
from curlearn.toy_model import FeatureMatrix, LinearModel
from curlearn.trainer import (TrainConfig, aggregate_runs, checkpoint_steps,
                              compute_metrics, evaluate, few_shot_select,
                              rescore_analysis, run_training,
                              write_checkpoint_csv, write_report_json)

from conftest import dataset_from_scores

DIM = 2 ** 12


def small_splits(n_train=96, n_val=48, n_test=48):
    return (make_separable_corpus(n_train, seed=1, split_tag="train"),
            make_separable_corpus(n_val, seed=2, split_tag="validation"),
            make_separable_corpus(n_test, seed=3, split_tag="test"))


# ------------------------------------------------------------------ metrics


def test_all_correct_predictions_score_one():
    labels = [0, 1] * 10
    metrics = compute_metrics(labels, labels, class_count=2)
    assert metrics.accuracy == 1.0
    assert metrics.macro_precision == 1.0
    assert metrics.macro_recall == 1.0
    assert metrics.macro_f1 == 1.0


def test_constant_predictor_macro_f1_is_one_third():
    labels = [0] * 10 + [1] * 10
    preds = [0] * 20
    metrics = compute_metrics(preds, labels, class_count=2)
    assert metrics.accuracy == pytest.approx(0.5)
    assert metrics.macro_f1 == pytest.approx(1 / 3)
    assert metrics.per_class[0].f1 == pytest.approx(2 / 3)
    assert metrics.per_class[1].f1 == 0.0


def test_metrics_match_confusion_matrix_oracle():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 3, size=200)
    preds = rng.integers(0, 3, size=200)
    metrics = compute_metrics(preds, labels, class_count=3)

    # independent brute-force recount
    precisions, recalls, f1s = [], [], []
    for c in range(3):
        tp = sum(1 for p, y in zip(preds, labels) if p == c and y == c)
        fp = sum(1 for p, y in zip(preds, labels) if p == c and y != c)
        fn = sum(1 for p, y in zip(preds, labels) if p != c and y == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        precisions.append(prec)
        recalls.append(rec)
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    assert metrics.macro_precision == pytest.approx(np.mean(precisions))
    assert metrics.macro_recall == pytest.approx(np.mean(recalls))
    assert metrics.macro_f1 == pytest.approx(np.mean(f1s))
    assert metrics.accuracy == pytest.approx(
        sum(p == y for p, y in zip(preds, labels)) / 200)


def test_zero_support_class_contributes_zero_to_macro():
    labels = [0, 0, 1, 1]
    preds = [0, 0, 1, 1]
    metrics = compute_metrics(preds, labels, class_count=3)
    assert metrics.per_class[2].support == 0
    assert metrics.macro_recall == pytest.approx(2 / 3)


@pytest.mark.parametrize("preds, labels, bad", [
    ([1, 0], [-1, 0], "label -1"), ([2, 0], [1, 0], "prediction 2"),
    ([0, 1], [0, 5], "label 5"), ([-3, 1], [0, 1], "prediction -3"),
])
def test_compute_metrics_refuses_classes_out_of_range(preds, labels, bad):
    with pytest.raises(ValueError, match=bad):
        compute_metrics(preds, labels, 2)


def _random_matrix(rng, n, width):
    """A random CSR matrix of n rows over ``width`` columns, some rows empty."""
    lengths = rng.integers(0, 6, size=n)
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    ids = np.concatenate([np.sort(rng.choice(width, size=k, replace=False)) for k in lengths])
    return FeatureMatrix(indptr=indptr, flat_indices=ids.astype(np.int32),
                         flat_values=rng.integers(1, 4, size=len(ids)).astype(np.float32),
                         dim=width, max_tokens=None)


@pytest.mark.parametrize("cells", [1, 3, 24])
@pytest.mark.parametrize("classes", [2, 3, 5])
@pytest.mark.parametrize("n", [200, 201])
def test_grid_metrics_match_the_per_cell_oracle(cells, classes, n):
    """One metrics pass over every cell of a grid model equals, per cell, a
    loop-built confusion and the mean loss over that cell's own slice."""
    rng = np.random.default_rng(cells * 100 + classes * 10 + n)
    width = 16
    feats = _random_matrix(rng, n, width)
    model = LinearModel(rng.normal(0, 2, size=(classes, cells * width)),
                        rng.normal(0, 1, size=(cells, classes)))
    if cells == 1:
        model.bias = model.bias[0]
    labels = rng.integers(0, classes, size=n)
    got = trainer_mod._score_cells(model, labels, feats)
    probs = trainer_mod.probabilities(feats.logits(model, every_cell=True))
    assert len(got) == cells
    for k, (metrics, loss) in enumerate(got):
        p = probs[k * n:(k + 1) * n]
        preds = np.argmax(p, axis=1)
        confusion = np.zeros((classes, classes), dtype=np.int64)
        for y, q in zip(labels, preds):
            confusion[y, q] += 1
        per_class = []
        for c in range(classes):
            tp, predicted, support = (int(confusion[c, c]), int(confusion[:, c].sum()),
                                      int(confusion[c, :].sum()))
            precision = tp / predicted if predicted else 0.0
            recall = tp / support if support else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            per_class.append(trainer_mod.ClassMetrics(precision, recall, f1, support))
        want = trainer_mod.Metrics(
            accuracy=float(np.trace(confusion)) / n,
            macro_precision=sum(c.precision for c in per_class) / classes,
            macro_recall=sum(c.recall for c in per_class) / classes,
            macro_f1=sum(c.f1 for c in per_class) / classes, per_class=per_class)
        assert metrics == want
        assert type(metrics.accuracy) is float and type(metrics.per_class[0].support) is int
        gold = p[np.arange(n), labels]
        assert loss == float(-np.log(np.clip(gold, 1e-300, None)).mean())
        assert type(loss) is float


def test_evaluate_rejects_empty_split_and_class_mismatch():
    model = LinearModel.zeros(2, DIM)
    empty = Dataset(examples=[], class_count=2)
    with pytest.raises(ValueError, match="empty"):
        evaluate(model, empty)
    three = Dataset(examples=[Example(id=0, text="x", label=2)], class_count=3)
    with pytest.raises(ValueError, match="classes"):
        evaluate(model, three)


# --------------------------------------------------------------- checkpoints


def test_checkpoint_marks_every_ten_percent():
    assert checkpoint_steps(100, 0.1) == [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]


def test_checkpoint_marks_ceil_rule():
    assert checkpoint_steps(7, 0.5) == [4, 7]


def test_checkpoint_marks_degenerate_single_example():
    assert checkpoint_steps(1, 0.1) == [1]


def test_checkpoint_marks_always_end_at_n():
    for n in (3, 10, 33, 997):
        for frac in (0.1, 0.25, 0.3, 1.0):
            marks = checkpoint_steps(n, frac)
            assert marks[-1] == n
            assert marks == sorted(set(marks))


# ------------------------------------------------------------------ training


def test_train_produces_expected_checkpoint_count():
    train_ds, val_ds, test_ds = small_splits()
    cfg = TrainConfig(epochs=2, strategy="Random", dim=DIM)
    report = run_training(train_ds, val_ds, test_ds, cfg, seed=66).report
    assert len(report.checkpoints) == 20  # ceil(1/0.1) per epoch
    assert report.strategy == "Random"
    assert report.seed == 66


def test_train_is_bit_deterministic():
    train_ds, val_ds, test_ds = small_splits()
    cfg = TrainConfig(epochs=2, strategy="PMD", dim=DIM)
    a = run_training(train_ds, val_ds, test_ds, cfg, seed=88).report
    b = run_training(train_ds, val_ds, test_ds, cfg, seed=88).report
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


@pytest.mark.parametrize("rescore_split", ["train", "validation"])
def test_prebuilt_features_give_the_same_report(rescore_split):
    splits = small_splits()
    cfg = TrainConfig(epochs=2, strategy="PMD", dim=DIM, rescore=True,
                      rescore_split=rescore_split)
    features = trainer_mod.featurize_splits(splits, cfg)
    fresh = run_training(*splits, cfg, seed=88).report.to_dict()
    shared = run_training(*splits, cfg, seed=88, features=features).report.to_dict()
    assert shared == fresh
    with pytest.raises(ValueError, match="split sizes"):
        run_training(*splits, cfg, seed=88, features=features[::-1])


@pytest.mark.parametrize("change", [{"dim": DIM // 2}, {"dim": DIM * 2}, {"max_tokens": 3}])
def test_prebuilt_features_must_match_the_config(change):
    splits = small_splits()
    cfg = TrainConfig(epochs=1, strategy="Random", dim=DIM)
    other = TrainConfig(epochs=1, strategy="Random", **{"dim": DIM, **change})
    with pytest.raises(ValueError, match="dim and max_tokens"):
        run_training(*splits, cfg, seed=88,
                     features=trainer_mod.featurize_splits(splits, other))


def test_epoch_plans_consume_each_example_exactly_once(monkeypatch):
    consumed = []
    real_make_plan = trainer_mod.make_plan

    def spy(*args, **kwargs):
        plan = real_make_plan(*args, **kwargs)
        consumed.append(plan.order.tolist())
        return plan

    monkeypatch.setattr(trainer_mod, "make_plan", spy)
    train_ds, val_ds, test_ds = small_splits()
    cfg = TrainConfig(epochs=3, strategy="SME", dim=DIM)
    run_training(train_ds, val_ds, test_ds, cfg, seed=66).report
    assert len(consumed) == 3
    for order in consumed:
        assert sorted(order) == list(range(len(train_ds)))
    assert consumed[0] != consumed[1]  # fresh substream per epoch


def test_e2d_consumes_descending_ranking_in_epoch_one(monkeypatch):
    consumed = []
    real_make_plan = trainer_mod.make_plan

    def spy(*args, **kwargs):
        plan = real_make_plan(*args, **kwargs)
        consumed.append(plan.order.tolist())
        return plan

    monkeypatch.setattr(trainer_mod, "make_plan", spy)
    train_ds, val_ds, test_ds = small_splits()
    cfg = TrainConfig(epochs=1, strategy="E2D", dim=DIM)
    outcome = run_training(train_ds, val_ds, test_ds, cfg, seed=66)
    want = rank_examples(outcome.score_table, "descending").order.tolist()
    assert consumed[0] == want


def test_adding_epochs_preserves_earlier_plans(monkeypatch):
    captured = {}

    def recording(epochs):
        consumed = []
        real_make_plan = trainer_mod.make_plan

        def spy(*args, **kwargs):
            plan = real_make_plan(*args, **kwargs)
            consumed.append(plan.order.tolist())
            return plan

        monkeypatch.setattr(trainer_mod, "make_plan", spy)
        train_ds, val_ds, test_ds = small_splits(48, 24, 24)
        cfg = TrainConfig(epochs=epochs, strategy="SMD", dim=DIM)
        run_training(train_ds, val_ds, test_ds, cfg, seed=99).report
        monkeypatch.setattr(trainer_mod, "make_plan", real_make_plan)
        return consumed

    captured[2] = recording(2)
    captured[4] = recording(4)
    assert captured[4][:2] == captured[2]


def test_batches_are_the_plan_order_cut_at_batch_size(monkeypatch):
    # sparse ids, so a batch's rows differ from its ids
    full, val_ds, test_ds = small_splits(60, 24, 24)
    train_ds = full.subset(range(1, 60, 2))
    cfg = TrainConfig(epochs=2, batch_size=7, strategy="PME", dim=DIM)
    feats = trainer_mod.featurize_splits((train_ds, val_ds, test_ds), cfg)
    plans, batches = [], []
    real_make_plan, real_loss = trainer_mod.make_plan, trainer_mod.loss_and_grad

    def plan_spy(*args, **kwargs):
        plans.append(real_make_plan(*args, **kwargs))
        return plans[-1]

    def loss_spy(model, batch, labels):
        batches.append((batch.indptr.tolist(), batch.flat_indices.tolist(), labels.tolist()))
        return real_loss(model, batch, labels)

    monkeypatch.setattr(trainer_mod, "make_plan", plan_spy)
    monkeypatch.setattr(trainer_mod, "loss_and_grad", loss_spy)
    run_training(train_ds, val_ds, test_ds, cfg, seed=3, features=feats)
    # training sees the train split's own columns; map them back to hashed ids
    vocab = np.unique(feats[0].flat_indices)
    batches = [(indptr, vocab[cols].tolist(), labels) for indptr, cols, labels in batches]
    row = {int(i): r for r, i in enumerate(train_ds.ids)}
    want = []
    for plan in plans:
        for start in range(0, len(plan), 7):
            rows = [row[i] for i in plan.order[start:start + 7].tolist()]
            batch = feats[0].take(rows)
            want.append((batch.indptr.tolist(), batch.flat_indices.tolist(),
                         train_ds.labels[rows].tolist()))
    assert len(plans) == 2 and batches == want


def test_best_checkpoint_tie_resolves_to_earliest():
    train_ds, val_ds, test_ds = small_splits()
    cfg = TrainConfig(epochs=2, strategy="Random", dim=DIM, learning_rate=0.0)
    report = run_training(train_ds, val_ds, test_ds, cfg, seed=66).report
    accs = [c.metrics.accuracy for c in report.checkpoints]
    assert len(set(accs)) == 1  # frozen model: every checkpoint ties
    assert report.best_checkpoint_index == 0


def test_test_metrics_come_from_best_validation_checkpoint():
    train_ds, val_ds, test_ds = small_splits()
    cfg = TrainConfig(epochs=2, strategy="D2E", dim=DIM)
    outcome = run_training(train_ds, val_ds, test_ds, cfg, seed=66)
    report = outcome.report
    best = report.best_checkpoint_index
    accs = [c.metrics.accuracy for c in report.checkpoints]
    assert accs[best] == max(accs)
    assert all(a < accs[best] for a in accs[:best])  # earliest argmax
    recomputed, _ = evaluate(outcome.best_model, test_ds)
    assert recomputed.accuracy == report.test_metrics.accuracy
    assert recomputed.macro_f1 == report.test_metrics.macro_f1


def test_training_runs_in_the_train_columns_and_scatters_best_model_once(monkeypatch):
    splits = small_splits()
    cfg = TrainConfig(epochs=2, strategy="Random", dim=DIM)
    features = trainer_mod.featurize_splits(splits, cfg)
    vocab = np.unique(features[0].flat_indices)
    widths, zeros_widths = [], []
    real_loss, real_zeros = trainer_mod.loss_and_grad, LinearModel.zeros.__func__

    def loss_spy(model, batch, labels):
        widths.append(model.dim)
        return real_loss(model, batch, labels)

    def zeros_spy(cls, class_count, dim):
        zeros_widths.append(dim)
        return real_zeros(cls, class_count, dim)

    monkeypatch.setattr(trainer_mod, "loss_and_grad", loss_spy)
    monkeypatch.setattr(LinearModel, "zeros", classmethod(zeros_spy))
    best = run_training(*splits, cfg, seed=66, features=features).best_model
    assert 0 < len(vocab) < DIM
    assert len(widths) == 2 * 96 // cfg.batch_size and set(widths) == {len(vocab)}
    assert zeros_widths == [len(vocab), DIM]  # the one hashed-width model is the scatter
    assert best.weights.shape == (2, DIM)
    outside = np.ones(DIM, dtype=bool)
    outside[vocab] = False
    assert not best.weights[:, outside].any() and not np.signbit(best.weights[:, outside]).any()
    assert best.weights[:, vocab].any()


def test_run_aborts_on_external_scores_for_wrong_ids(tmp_path):
    train_ds, val_ds, test_ds = small_splits(10, 10, 10)
    scores = tmp_path / "scores.jsonl"
    scores.write_text("\n".join(json.dumps({"id": i, "probs": [0.5, 0.5]})
                                for i in range(9)) + "\n")
    cfg = TrainConfig(epochs=1, strategy="E2D", dim=DIM, scores_path=str(scores))
    with pytest.raises(Exception, match="missing id"):
        run_training(train_ds, val_ds, test_ds, cfg, seed=66).report


# ------------------------------------------------------------------ grid


ALL_STRATEGIES = [s.value for s in Strategy]


def grid_setup(**settings):
    """Small splits, their features and the one probe's tables, for a grid."""
    splits = small_splits()
    cfg = TrainConfig(epochs=2, batch_size=10, dim=DIM, seeds=(66, 88), **settings)
    features = trainer_mod.featurize_splits(splits, cfg)
    tables = trainer_mod.resolve_score_table(splits[0], cfg, features[0],
                                             val=(splits[1], features[1]))
    return splits, cfg, features, tables


def grid_cells(cfg, train, tables, strategies=ALL_STRATEGIES):
    return [trainer_mod.Cell(replace(cfg, strategy=s), seed, train, *tables)
            for s in strategies for seed in cfg.seeds]


def assert_same_outcome(grid_outcome, vocab, alone):
    assert grid_outcome.report.to_dict() == alone.report.to_dict()
    best = grid_outcome.best_model.scatter(vocab, DIM)
    assert np.array_equal(best.weights, alone.best_model.weights)
    assert np.array_equal(best.bias, alone.best_model.bias)


@pytest.mark.parametrize("settings", [
    {}, {"optimizer": "sgd"}, {"rescore": True},
    {"rescore": True, "rescore_split": "validation"},
    {"optimizer": "sgd", "rescore": True, "rescore_split": "validation"},
], ids=["adamw", "sgd", "rescore-train", "rescore-validation", "sgd-rescore-validation"])
def test_grid_matches_separate_runs_bit_for_bit(settings):
    splits, cfg, features, tables = grid_setup(**settings)
    cells = grid_cells(cfg, splits[0], tables)
    outcomes = trainer_mod.train_grid(cells, splits, features)
    assert len(outcomes) == 16
    vocab = features[0].distinct_ids()
    for cell, outcome in zip(cells, outcomes):
        alone = run_training(*splits, cell.config, seed=cell.seed, score_table=tables[0],
                             features=features, val_table=tables[1])
        assert_same_outcome(outcome, vocab, alone)


@pytest.mark.parametrize("settings", [{}, {"optimizer": "sgd", "rescore": True}])
def test_fewshot_grid_matches_separate_runs_bit_for_bit(settings):
    splits, cfg, features, (table, val_table) = grid_setup(**settings)
    train_ds = splits[0]
    cells = []
    for seed in (3, 4, 5):
        subset = few_shot_select(Strategy.RANDOM, table, train_ds, k=40,
                                 rng=np.random.default_rng(seed))
        cells.append(trainer_mod.Cell(replace(cfg, strategy="PMD"), seed, subset,
                                      table.restrict(subset.ids), val_table))
    columns = [features[0].take(rows_of(train_ds.ids, c.train.ids)).distinct_ids().tolist()
               for c in cells]
    assert columns[0] != columns[1] != columns[2]  # the subsets use different columns
    outcomes = trainer_mod.train_grid(cells, splits, features)
    vocab = features[0].distinct_ids()
    for cell, outcome in zip(cells, outcomes):
        rows = rows_of(train_ds.ids, cell.train.ids)
        alone = run_training(cell.train, *splits[1:], cell.config, seed=cell.seed,
                             score_table=cell.score_table, val_table=val_table,
                             features=(features[0].take(rows), *features[1:]))
        assert_same_outcome(outcome, vocab, alone)


@pytest.mark.parametrize("settings", [
    {}, {"optimizer": "sgd", "rescore": True, "rescore_split": "validation"},
], ids=["adamw", "sgd-rescore-validation"])
def test_three_class_grid_matches_separate_runs_bit_for_bit(settings, tmp_path):
    splits = tuple(make_noisy_corpus(n, class_count=3, seed=seed, split_tag=tag)
                   for n, seed, tag in ((90, 4, "train"), (45, 5, "validation"),
                                        (61, 6, "test")))
    cfg = TrainConfig(epochs=2, batch_size=10, dim=DIM, seeds=(66, 88), **settings)
    features = trainer_mod.featurize_splits(splits, cfg)
    tables = trainer_mod.resolve_score_table(splits[0], cfg, features[0],
                                             val=(splits[1], features[1]))
    cells = grid_cells(cfg, splits[0], tables, ["Random", "E2D", "PME", "Length"])
    outcomes = trainer_mod.train_grid(cells, splits, features)
    vocab = features[0].distinct_ids()
    for cell, outcome in zip(cells, outcomes):
        alone = run_training(*splits, cell.config, seed=cell.seed, score_table=tables[0],
                             features=features, val_table=tables[1])
        assert_same_outcome(outcome, vocab, alone)
        assert_written_like_json_and_csv(outcome.report, tmp_path)
    assert {c.support for o in outcomes for c in o.report.test_metrics.per_class} != {0}


def _poison_loss(losses, grads, model, target):
    losses[target] = np.nan


def _poison_gradient(losses, grads, model, target):
    grads.bias[target, 0] = np.inf


def _poison_parameters(losses, grads, model, target):
    model.bias[target] = np.inf  # SGD keeps it infinite through the update


@pytest.mark.parametrize("poison, message", [
    (_poison_loss, r"non-finite loss at epoch 0 batch 4 \(ids \[\d+(, \d+){7}\]\.\.\.\)"),
    (_poison_gradient, "non-finite gradient; aborting the run"),
    (_poison_parameters, "non-finite parameters after update; aborting the run"),
])
@pytest.mark.parametrize("target", [0, 3, 5])
def test_a_failed_cell_leaves_the_others_bits_alone(monkeypatch, poison, message, target):
    splits, cfg, features, tables = grid_setup(optimizer="sgd", rescore=True)
    cells = grid_cells(cfg, splits[0], tables, ["Random", "E2D", "PMD"])
    want = trainer_mod.train_grid(cells[:target] + cells[target + 1:], splits, features)
    real = trainer_mod.loss_and_grad
    calls = []

    def poisoned(model, batch, labels):
        losses, grads = real(model, batch, labels)
        calls.append(1)
        if len(calls) == 5:  # epoch 0, batch 4: no cell has failed yet
            poison(losses, grads, model, target)
        return losses, grads

    monkeypatch.setattr(trainer_mod, "loss_and_grad", poisoned)
    # nothing non-finite reaches another cell
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        got = trainer_mod.train_grid(cells, splits, features)
    assert isinstance(got[target], (RuntimeError, FloatingPointError))
    assert re.fullmatch(message, str(got[target]))
    rest = got[:target] + got[target + 1:]
    assert [o.report.to_dict() for o in rest] == [o.report.to_dict() for o in want]


def test_a_failed_plan_draw_fails_only_its_cell(monkeypatch):
    splits, cfg, features, tables = grid_setup()
    cells = grid_cells(cfg, splits[0], tables, ["Random", "SME"])
    want = trainer_mod.train_grid(cells[1:], splits, features)
    real = trainer_mod.epoch_plans

    def second_epoch_fails(config, score_table, dataset, seed):
        plans = real(config, score_table, dataset, seed)
        yield next(plans)
        if (config.strategy.value, seed) == ("Random", 66):
            raise KeyError("no plan")
        yield from plans

    monkeypatch.setattr(trainer_mod, "epoch_plans", second_epoch_fails)
    got = trainer_mod.train_grid(cells, splits, features)
    assert isinstance(got[0], KeyError) and "no plan" in str(got[0])
    assert [o.report.to_dict() for o in got[1:]] == [o.report.to_dict() for o in want]


def test_a_failed_test_pass_fails_every_cell_still_in_it(monkeypatch):
    splits = small_splits(96, 48, 40)
    cfg = TrainConfig(epochs=1, batch_size=10, dim=DIM, seeds=(66, 88))
    features = trainer_mod.featurize_splits(splits, cfg)
    cells = grid_cells(cfg, splits[0], (None, None), ["Random", "Length"])
    real_plans, real_score = trainer_mod.epoch_plans, trainer_mod._score_cells
    tested = []

    def plans(config, score_table, dataset, seed):
        if (config.strategy.value, seed) == ("Random", 88):
            raise KeyError("no plan")
        return real_plans(config, score_table, dataset, seed)

    def score(model, labels, feats):
        if len(labels) == 40:  # the test split
            tested.append(model.cells)
            raise RuntimeError("test pass failed")
        return real_score(model, labels, feats)

    monkeypatch.setattr(trainer_mod, "epoch_plans", plans)
    monkeypatch.setattr(trainer_mod, "_score_cells", score)
    got = trainer_mod.train_grid(cells, splits, features)
    assert tested == [3]  # the cell that failed earlier is left out
    assert isinstance(got[1], KeyError)
    assert [str(got[k]) for k in (0, 2, 3)] == ["test pass failed"] * 3


def test_grid_cells_must_share_their_settings():
    splits, cfg, features, tables = grid_setup()
    cells = grid_cells(cfg, splits[0], tables, ["Random"])
    for odd in (trainer_mod.Cell(replace(cfg, epochs=3), 66, splits[0], *tables),
                trainer_mod.Cell(cfg, 66, splits[0].subset(splits[0].ids[:50]), *tables)):
        with pytest.raises(ValueError, match="share every setting but the strategy"):
            trainer_mod.train_grid(cells + [odd], splits, features)


# ------------------------------------------------------------------ few-shot


def test_few_shot_e2d_takes_highest_scores():
    ds, table = dataset_from_scores([0.1, 0.9, 0.5])
    subset = few_shot_select(Strategy.E2D, table, ds, k=2)
    assert sorted(int(i) for i in subset.ids) == [1, 2]


def test_few_shot_d2e_takes_lowest_scores():
    ds, table = dataset_from_scores([0.1, 0.9, 0.5])
    subset = few_shot_select(Strategy.D2E, table, ds, k=2)
    assert sorted(int(i) for i in subset.ids) == [0, 2]


def test_few_shot_k_equals_n_returns_whole_dataset():
    rng = np.random.default_rng(1)
    ds, table = dataset_from_scores(rng.random(12))
    subset = few_shot_select(Strategy.SME, table, ds, k=12,
                             rng=np.random.default_rng(0))
    assert sorted(int(i) for i in subset.ids) == list(range(12))


def test_few_shot_length_takes_shortest_with_id_ties():
    examples = [Example(id=0, text="a b c", label=0),
                Example(id=1, text="a", label=1),
                Example(id=2, text="a b", label=0),
                Example(id=3, text="a", label=1)]
    ds = Dataset(examples=examples, class_count=2)
    subset = few_shot_select(Strategy.LENGTH, None, ds, k=2)
    assert sorted(int(i) for i in subset.ids) == [1, 3]


def test_few_shot_random_is_seed_deterministic():
    ds, _ = dataset_from_scores(np.zeros(30))
    a = few_shot_select(Strategy.RANDOM, None, ds, k=5, rng=np.random.default_rng(4))
    b = few_shot_select(Strategy.RANDOM, None, ds, k=5, rng=np.random.default_rng(4))
    assert a.ids.tolist() == b.ids.tolist()


def test_few_shot_partitioned_draw_unique_and_sized():
    rng = np.random.default_rng(2)
    ds, table = dataset_from_scores(rng.random(100))
    subset = few_shot_select(Strategy.PME, table, ds, k=64,
                             rng=np.random.default_rng(0))
    ids = subset.ids.tolist()
    assert len(ids) == 64
    assert len(set(ids)) == 64


def test_few_shot_rejects_bad_k():
    ds, table = dataset_from_scores([0.1, 0.2])
    with pytest.raises(ValueError, match="k must be"):
        few_shot_select(Strategy.E2D, table, ds, k=3)
    with pytest.raises(ValueError, match="k must be"):
        few_shot_select(Strategy.E2D, table, ds, k=0)


# ----------------------------------------------------------------- rescoring


def test_rescore_epoch_zero_counts_conserved():
    ds, table = dataset_from_scores(np.linspace(0, 1, 30))
    reports = rescore_analysis([], ds, FeatureMatrix.build(ds, DIM), initial_table=table, bins=5)
    assert len(reports) == 1
    assert reports[0].epoch_tag == 0
    assert int(reports[0].total_counts.sum()) == 30


def test_rescore_zero_model_snapshot_all_mass_in_lowest_bin():
    ds, table = dataset_from_scores(np.linspace(0, 1, 10))
    snapshot = LinearModel.zeros(2, DIM)
    reports = rescore_analysis([snapshot], ds, FeatureMatrix.build(ds, DIM), initial_table=table,
                               bins=4)
    post = reports[1]
    assert post.epoch_tag == 1
    assert int(post.total_counts[0]) == 10
    assert int(post.total_counts[1:].sum()) == 0


def test_rescore_in_train_columns_matches_scattered_snapshots():
    train_ds, val_ds, _ = small_splits(64, 32, 32)
    rng = np.random.default_rng(4)
    # a few rows' columns, so both splits hold ids outside them
    vocab = np.unique(FeatureMatrix.build(train_ds, DIM).take(range(6)).flat_indices)
    for ds in (train_ds, val_ds):
        feats = FeatureMatrix.build(ds, DIM)
        compact = [LinearModel(weights=rng.normal(size=(2, len(vocab))), bias=rng.normal(size=2))
                   for _ in range(3)]
        scattered = [LinearModel.zeros(2, DIM) for _ in compact]
        for wide, narrow in zip(scattered, compact):
            wide.weights[:, vocab] = narrow.weights
            wide.bias[:] = narrow.bias
        got = rescore_analysis(compact, ds, feats.in_columns(vocab), bins=7)
        want = rescore_analysis(scattered, ds, feats, bins=7)
        assert len(got) == len(want) == 3
        for a, b in zip(got, want):
            assert np.array_equal(a.bin_edges, b.bin_edges)
            assert np.array_equal(a.counts_correct, b.counts_correct)
            assert np.array_equal(a.counts_incorrect, b.counts_incorrect)
            assert (a.epoch_tag, a.mean_score) == (b.epoch_tag, b.mean_score)


def test_rescore_requires_something_to_analyze():
    ds, _ = dataset_from_scores([0.1, 0.2])
    with pytest.raises(ValueError, match="no snapshots"):
        rescore_analysis([], ds, FeatureMatrix.build(ds, DIM), initial_table=None)


def test_rescore_after_training_raises_mean_score():
    train_ds, val_ds, test_ds = small_splits(128, 32, 32)
    cfg = TrainConfig(epochs=2, strategy="Random", dim=DIM, rescore=True,
                      probe_epochs=0, probe_fraction=0.5)
    outcome = run_training(train_ds, val_ds, test_ds, cfg, seed=66)
    hists = outcome.report.score_histograms
    assert len(hists) == 3  # epoch 0 (provider) + 2 trained epochs
    assert [h.epoch_tag for h in hists] == [0, 1, 2]
    assert all(int(h.total_counts.sum()) == 128 for h in hists)
    assert hists[-1].mean_score > hists[0].mean_score


# --------------------------------------------------------------- aggregation


def fake_report(strategy, seed, acc):
    metrics = compute_metrics([0, 1], [0, 1], 2)
    metrics.accuracy = acc
    metrics.macro_f1 = acc
    metrics.macro_precision = acc
    metrics.macro_recall = acc
    return trainer_mod.RunReport(strategy=strategy, seed=seed, epochs=1, batch_size=16,
                                 n_train=2, checkpoints=[], best_checkpoint_index=0,
                                 test_metrics=metrics, test_mean_loss=0.0)


def test_aggregate_identical_reports_is_idempotent():
    reports = [fake_report("Random", s, 0.75) for s in (66, 88, 99)]
    rows = aggregate_runs({"Random": reports})
    assert rows[0]["accuracy"] == pytest.approx(0.75)


def test_aggregate_means_accuracies():
    reports = [fake_report("E2D", s, a) for s, a in zip((66, 88, 99), (0.8, 0.9, 1.0))]
    rows = aggregate_runs({"E2D": reports})
    assert rows[0]["accuracy"] == pytest.approx(0.9)


def test_aggregate_full_grid_shape():
    strategies = [s.value for s in Strategy]
    grouped = {name: [fake_report(name, s, 0.5) for s in (66, 88, 99)]
               for name in strategies}
    rows = aggregate_runs(grouped)
    assert len(rows) == 8
    assert set(rows[0]) >= {"strategy", "accuracy", "macro_f1",
                            "macro_precision", "macro_recall"}


def test_aggregate_rejects_inconsistent_seed_sets():
    grouped = {"Random": [fake_report("Random", 66, 0.5)],
               "E2D": [fake_report("E2D", 88, 0.5)]}
    with pytest.raises(ValueError, match="inconsistent seed sets"):
        aggregate_runs(grouped)


# ------------------------------------------------------------------- writers


def assert_written_like_json_and_csv(report, tmp_path, manifest_ref="manifest.json"):
    """The report's files hold the bytes json.dump and csv.writer give."""
    write_report_json(report, tmp_path / "report.json", manifest_ref)
    want = io.StringIO()
    json.dump(report.to_dict() | {"manifest": manifest_ref}, want, indent=2, sort_keys=True)
    assert (tmp_path / "report.json").read_bytes() == (want.getvalue() + "\n").encode()
    write_checkpoint_csv(report, tmp_path / "checkpoints.csv")
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["fraction_seen", "acc", "macro_f1", "macro_p", "macro_r", "loss"])
    for e in report.checkpoints:
        writer.writerow([repr(e.fraction_seen), repr(e.metrics.accuracy),
                         repr(e.metrics.macro_f1), repr(e.metrics.macro_precision),
                         repr(e.metrics.macro_recall), repr(e.mean_loss)])
    assert (tmp_path / "checkpoints.csv").read_bytes() == want.getvalue().encode()


# floats to render as json does: np.float64 as a float, non-finite as NaN/Infinity
RENDER_FLOATS = [5e-324, 1e-300, 0.1, 1 / 3, 1e16, -0.0, 0.0, 1.0, 2.5e-7, 123456789.125,
                 np.float64(0.1), np.float64(1 / 3), np.float64(5e-324), np.float64(1e16),
                 math.nan, math.inf, -math.inf]


def synthetic_report(rng, classes, histograms, checkpoints=3, floats=RENDER_FLOATS):
    def pick():
        return floats[int(rng.integers(len(floats)))]

    def metrics():
        per_class = [trainer_mod.ClassMetrics(pick(), pick(), pick(), int(rng.integers(1, 9)))
                     for _ in range(classes)]
        per_class[int(rng.integers(classes))] = trainer_mod.ClassMetrics(0.0, 0.0, 0.0, 0)
        return trainer_mod.Metrics(pick(), pick(), pick(), pick(), per_class)

    entries = [trainer_mod.CheckpointEntry(epoch=k // 2, examples_seen_epoch=10 * k + 3,
                                           fraction_of_epoch=pick(), fraction_seen=pick(),
                                           metrics=metrics(), mean_loss=pick())
               for k in range(checkpoints)]
    for e in entries[:1]:
        e.mean_loss, e.metrics.per_class[-1].f1 = math.inf, math.nan
    return trainer_mod.RunReport(
        strategy='St"rat\\égie\n', seed=-(2 ** 70), epochs=3, batch_size=16, n_train=500,
        checkpoints=entries, best_checkpoint_index=1, test_metrics=metrics(),
        test_mean_loss=np.float64(1 / 3), score_histograms=histograms)


@pytest.mark.parametrize("classes", [2, 3, 5])
def test_report_renderers_match_json_and_csv_on_synthetic_reports(classes, tmp_path):
    rng = np.random.default_rng(classes)
    edges = np.linspace(0.0, 1.0, 6)
    histograms = [HistogramReport(bin_edges=edges, counts_correct=rng.integers(0, 9, 5),
                                  counts_incorrect=np.zeros(5, dtype=np.int64),
                                  epoch_tag=tag, split_by_correctness=tag % 2 == 1,
                                  mean_score=mean)
                  for tag, mean in enumerate([math.nan, math.inf, -math.inf,
                                              np.float64(math.nan), np.float64(0.1), 1e-300])]
    plain = [x for x in RENDER_FLOATS if type(x) is float]
    for hists, checkpoints, floats in ((histograms, 3, RENDER_FLOATS), (None, 3, plain),
                                       ([], 0, RENDER_FLOATS), (histograms[:1], 1, plain)):
        report = synthetic_report(rng, classes, hists, checkpoints, floats)
        assert_written_like_json_and_csv(report, tmp_path, manifest_ref="mänifest \"1\".json")


@pytest.mark.parametrize("rescore_split", ["train", "validation"])
def test_report_renderers_match_json_and_csv_on_rescored_runs(rescore_split, tmp_path):
    splits = small_splits(60, 30, 30)
    cfg = TrainConfig(epochs=2, strategy="SME", dim=DIM, rescore=True,
                      rescore_split=rescore_split)
    report = run_training(*splits, cfg, seed=66).report
    assert len(report.score_histograms) == 3
    assert_written_like_json_and_csv(report, tmp_path)


def test_checkpoint_csv_columns(tmp_path):
    train_ds, val_ds, test_ds = small_splits(32, 16, 16)
    cfg = TrainConfig(epochs=1, strategy="Random", dim=DIM)
    report = run_training(train_ds, val_ds, test_ds, cfg, seed=66).report
    path = tmp_path / "ckpt.csv"
    write_checkpoint_csv(report, path)
    header = path.read_text().splitlines()[0]
    assert header == "fraction_seen,acc,macro_f1,macro_p,macro_r,loss"
    assert len(path.read_text().splitlines()) == 1 + len(report.checkpoints)


def test_report_json_references_manifest(tmp_path):
    train_ds, val_ds, test_ds = small_splits(32, 16, 16)
    cfg = TrainConfig(epochs=1, strategy="Random", dim=DIM)
    report = run_training(train_ds, val_ds, test_ds, cfg, seed=66).report
    path = tmp_path / "report.json"
    write_report_json(report, path)
    payload = json.loads(path.read_text())
    assert payload["manifest"] == "manifest.json"
    assert payload["strategy"] == "Random"
    assert len(payload["checkpoints"]) == len(report.checkpoints)


def test_rescore_on_validation_split_covers_val_ids():
    train_ds, val_ds, test_ds = small_splits(96, 40, 40)
    cfg = TrainConfig(epochs=1, strategy="Random", dim=DIM, rescore=True,
                      rescore_split="validation", probe_epochs=1, probe_fraction=0.5)
    outcome = run_training(train_ds, val_ds, test_ds, cfg, seed=66)
    hists = outcome.report.score_histograms
    assert [h.epoch_tag for h in hists] == [0, 1]
    assert all(int(h.total_counts.sum()) == 40 for h in hists)


def test_rescore_validation_rejects_external_scores(tmp_path):
    train_ds, val_ds, test_ds = small_splits(10, 10, 10)
    scores = tmp_path / "scores.jsonl"
    scores.write_text("\n".join(json.dumps({"id": i, "probs": [0.5, 0.5]})
                                for i in range(10)) + "\n")
    cfg = TrainConfig(epochs=1, strategy="Random", dim=DIM, rescore=True,
                      rescore_split="validation", scores_path=str(scores))
    with pytest.raises(ValueError, match="probe provider"):
        run_training(train_ds, val_ds, test_ds, cfg, seed=66)


def test_config_defaults_match_protocol():
    cfg = TrainConfig()
    assert cfg.epochs == 5
    assert cfg.batch_size == 16
    assert cfg.checkpoint_fraction == 0.1
    assert cfg.seeds == (66, 88, 99)
    assert cfg.optimizer == "adamw"
    assert cfg.resolved_lr() == 0.01
    assert TrainConfig(optimizer="sgd").resolved_lr() == 0.1


def test_checkpoint_marks_are_increasing_and_capped_for_random_inputs():
    rng = np.random.default_rng(17)
    fractions = np.concatenate([rng.uniform(1e-3, 1.0, size=300),
                                1 / rng.integers(1, 200, size=100), [1.0, 0.1, 0.3]])
    for fraction in fractions:
        n = int(rng.integers(1, 20_001))
        marks = checkpoint_steps(n, float(fraction))
        assert marks[0] >= 1 and marks[-1] == n, (n, fraction)
        assert all(a < b for a, b in zip(marks, marks[1:])), (n, fraction)
