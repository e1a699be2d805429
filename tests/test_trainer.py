import json

import numpy as np
import pytest

import curlearn.trainer as trainer_mod
from curlearn.dataset_io import Dataset, Example
from curlearn.samplers import Strategy
from curlearn.scoring import rank_examples
from curlearn.synthetic import make_separable_corpus
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


def test_run_aborts_on_external_scores_for_wrong_ids(tmp_path):
    train_ds, val_ds, test_ds = small_splits(10, 10, 10)
    scores = tmp_path / "scores.jsonl"
    scores.write_text("\n".join(json.dumps({"id": i, "probs": [0.5, 0.5]})
                                for i in range(9)) + "\n")
    cfg = TrainConfig(epochs=1, strategy="E2D", dim=DIM, scores_path=str(scores))
    with pytest.raises(Exception, match="missing id"):
        run_training(train_ds, val_ds, test_ds, cfg, seed=66).report


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
