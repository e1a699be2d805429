import json
import multiprocessing
import os

import numpy as np
import pytest

from curlearn.cli import main
from curlearn.dataset_io import save_dataset
from curlearn.samplers import Strategy
from curlearn.synthetic import make_separable_corpus

DIM = "4096"


@pytest.fixture
def splits(tmp_path):
    paths = {}
    for name, seed in (("train", 1), ("val", 2), ("test", 3)):
        path = tmp_path / f"{name}.jsonl"
        save_dataset(make_separable_corpus(120, seed=seed), path)
        paths[name] = str(path)
    return paths


def split_flags(paths):
    return ["--train", paths["train"], "--val", paths["val"], "--test", paths["test"]]


def write_scores(path, n, probs=(0.9, 0.1)):
    with open(path, "w") as fh:
        for i in range(n):
            fh.write(json.dumps({"id": i, "probs": list(probs)}) + "\n")


# -------------------------------------------------------------------- score


def test_score_external_passthrough(tmp_path, splits):
    scores_in = tmp_path / "in.jsonl"
    write_scores(scores_in, 120)
    out = tmp_path / "scores.jsonl"
    rc = main(["score", "--dataset", splits["train"], "--scores", str(scores_in),
               "--out", str(out)])
    assert rc == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 120
    assert records[0]["probs"] == [0.9, 0.1]
    assert records[0]["score"] == pytest.approx(0.8)
    assert [r["id"] for r in records] == sorted(r["id"] for r in records)


def json_dumps_score_lines(table) -> bytes:
    """Reference writer: one json.dumps per record, as the score file was first written."""
    return "".join(
        json.dumps({"id": int(table.ids[row]),
                    "probs": [float(p) for p in table.distributions[row]],
                    "score": float(table.scores[row])}) + "\n"
        for row in np.argsort(table.ids, kind="stable")
    ).encode("utf-8")


def capture_score_tables(monkeypatch):
    from curlearn import cli
    tables = []
    real = cli.resolve_score_table

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        tables.append(result[0])
        return result

    monkeypatch.setattr(cli, "resolve_score_table", recording)
    return tables


# Rows whose sum is 1.0, so renormalizing keeps the awkward floats as they are;
# -0.0 passes the negative-probability check.
AWKWARD_ROWS = {
    2: [[5e-324, 1.0], [0.1 + 0.2, 0.7], [1e-300, 1.0], [-0.0, 1.0], [1.0, 0.0],
        [1 / 3, 2 / 3]],
    3: [[5e-324, 1.0, 0.0], [0.1 + 0.2, 0.7, 0.0], [1e-300, -0.0, 1.0], [1.0, 0.0, 0.0],
        [1 / 3, 1 / 3, 1 / 3], [0.25, 0.7, 0.05]],
}


@pytest.mark.parametrize("classes", [2, 3])
def test_score_file_bytes_equal_json_dumps_per_record(tmp_path, monkeypatch, classes):
    from curlearn.dataset_io import Dataset, Example
    n = 40
    dataset = tmp_path / "d.jsonl"
    save_dataset(Dataset([Example(id=i, text=f"w{i}", label=i % classes) for i in range(n)],
                         class_count=classes), dataset)
    rng = np.random.default_rng(classes)
    scores_in = tmp_path / "in.jsonl"
    with open(scores_in, "w") as fh:
        for i in rng.permutation(n).tolist():  # the writer sorts by id
            probs = AWKWARD_ROWS[classes][i % len(AWKWARD_ROWS[classes])]
            fh.write(json.dumps({"id": i, "probs": probs}) + "\n")
    tables = capture_score_tables(monkeypatch)
    out = tmp_path / "scores.jsonl"
    rc = main(["score", "--dataset", str(dataset), "--classes", str(classes),
               "--scores", str(scores_in), "--out", str(out)])
    assert rc == 0
    written = out.read_bytes()
    assert written == json_dumps_score_lines(tables[0])
    for token in (b"[5e-324, 1.0", b"[0.30000000000000004, ", b"[1e-300, ", b"-0.0, ",
                  b"[1.0, 0.0"):
        assert token in written


def test_score_file_from_probe_bytes_equal_json_dumps_per_record(tmp_path, monkeypatch, splits):
    tables = capture_score_tables(monkeypatch)
    out = tmp_path / "scores.jsonl"
    assert main(["score", "--dataset", splits["train"], "--dim", DIM, "--out", str(out)]) == 0
    assert out.read_bytes() == json_dumps_score_lines(tables[0])


def test_score_probe_provider_contract(tmp_path, splits):
    out = tmp_path / "scores.jsonl"
    rc = main(["score", "--dataset", splits["train"], "--dim", DIM, "--out", str(out)])
    assert rc == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 120
    assert all(0.0 <= r["score"] <= 1.0 for r in records)


def test_score_probe_featurizes_each_example_once(tmp_path, splits, monkeypatch):
    from curlearn import toy_model
    calls = []
    featurize = toy_model.featurize

    def counting_featurize(example, *args, **kwargs):
        calls.append(example.id)
        return featurize(example, *args, **kwargs)

    monkeypatch.setattr(toy_model, "featurize", counting_featurize)
    rc = main(["score", "--dataset", splits["train"], "--dim", DIM, "--probe-epochs", "2",
               "--out", str(tmp_path / "scores.jsonl")])
    assert rc == 0
    assert sorted(calls) == list(range(120))


def test_score_missing_file_names_path(tmp_path, capsys):
    rc = main(["score", "--dataset", str(tmp_path / "nope.jsonl"),
               "--out", str(tmp_path / "o.jsonl")])
    assert rc != 0
    assert "nope.jsonl" in capsys.readouterr().err


# --------------------------------------------------------------------- plan


def test_plan_dumps_schedule(tmp_path, splits):
    out = tmp_path / "plan.jsonl"
    rc = main(["plan", "--dataset", splits["train"], "--strategy", "PMD",
               "--seed", "7", "--epochs", "2", "--dim", DIM, "--out", str(out)])
    assert rc == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 240
    assert {r["epoch"] for r in records} == {0, 1}
    per_epoch = [r["example_id"] for r in records if r["epoch"] == 0]
    assert sorted(per_epoch) == list(range(120))


def test_plan_epochs_come_from_flag_then_config_file_then_1(tmp_path, splits):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"train.epochs": 3}))

    def plan_epochs(name, *flags):
        out = tmp_path / name
        assert main(["plan", "--dataset", splits["train"], "--strategy", "Random",
                     "--seed", "7", *flags, "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        assert manifest["resolved_config"]["train.epochs"] == len(records) // 120
        return sorted({r["epoch"] for r in records})

    assert plan_epochs("file.jsonl", "--config", str(config)) == [0, 1, 2]
    assert plan_epochs("flag.jsonl", "--config", str(config), "--epochs", "2") == [0, 1]
    assert plan_epochs("none.jsonl") == [0]


@pytest.mark.parametrize("strategy", ["PME", "PMD"])
@pytest.mark.parametrize("batch_size, full, ragged", [(32, (18, 14), [(14, 10)]),
                                                      (8, (5, 3), [])])
def test_plan_partitions_any_batch_size(tmp_path, splits, strategy, batch_size, full, ragged):
    out = tmp_path / "plan.jsonl"
    assert main(["plan", "--dataset", splits["train"], "--strategy", strategy,
                 "--batch-size", str(batch_size), "--dim", DIM, "--out", str(out)]) == 0
    tags = [json.loads(line)["partition_tag"] for line in out.read_text().splitlines()]
    batches = [tags[i:i + batch_size] for i in range(0, len(tags), batch_size)]
    assert all(b == sorted(b) for b in batches)  # B1 first
    assert ([(b.count("B1"), b.count("B2")) for b in batches]
            == [full] * (120 // batch_size) + ragged)


@pytest.mark.parametrize("strategy", [s.value for s in Strategy])
def test_plan_writes_the_schedule_train_consumes(tmp_path, splits, monkeypatch, strategy):
    from curlearn import trainer
    consumed = []
    real = trainer.make_plan

    def recording(*args, **kwargs):
        consumed.append(real(*args, **kwargs))
        return consumed[-1]

    # texts of 1 to 6 tokens, capped at 3: the cap reorders Length's ties
    train = make_separable_corpus(120, seed=1)
    for ex in train.examples:
        ex.text = " ".join(ex.text.split()[:1 + ex.id % 6])
    save_dataset(train, tmp_path / "varied.jsonl")
    splits = {**splits, "train": str(tmp_path / "varied.jsonl")}
    flags = ["--strategy", strategy, "--seed", "5", "--epochs", "2", "--batch-size", "8",
             "--max-tokens", "3", "--dim", DIM]
    monkeypatch.setattr(trainer, "make_plan", recording)
    assert main(["train", *split_flags(splits), *flags, "--out", str(tmp_path / "run")]) == 0
    monkeypatch.undo()
    out = tmp_path / "plan.jsonl"
    assert main(["plan", "--dataset", splits["train"], *flags, "--out", str(out)]) == 0
    written = [(r["epoch"], r["position"], r["example_id"], r["partition_tag"])
               for r in map(json.loads, out.read_text().splitlines())]
    assert len(consumed) == 2 and written == [
        (epoch, position, ex_id, tag) for epoch, plan in enumerate(consumed)
        for position, (ex_id, tag) in enumerate(zip(plan.order.tolist(),
                                                    plan.batch_provenance.tolist()))]


# -------------------------------------------------------------------- train


def test_train_writes_reports_and_manifest(tmp_path, splits):
    out = tmp_path / "run"
    rc = main(["train", *split_flags(splits), "--strategy", "Random",
               "--seed", "66", "--epochs", "1", "--dim", DIM, "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report_Random_seed66.json").read_text())
    assert report["strategy"] == "Random"
    assert report["manifest"] == "manifest.json"
    assert (out / "checkpoints_Random_seed66.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "curlearn"
    assert splits["train"] in manifest["input_digests"]


def test_train_refuses_existing_out_dir_without_force(tmp_path, splits):
    out = tmp_path / "run"
    args = ["train", *split_flags(splits), "--strategy", "Random", "--seed", "66",
            "--epochs", "1", "--dim", DIM, "--out", str(out)]
    assert main(args) == 0
    assert main(args) == 1
    assert main(args + ["--force"]) == 0


def test_train_unknown_strategy_is_usage_error(splits, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", *split_flags(splits), "--strategy", "Mystery",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    for name in ("Random", "Length", "E2D", "D2E", "SME", "SMD", "PME", "PMD"):
        assert name in err


def test_train_runs_one_report_per_seed(tmp_path, splits):
    out = tmp_path / "run"
    rc = main(["train", *split_flags(splits), "--strategy", "Length",
               "--seed", "66", "--seed", "88", "--epochs", "1", "--dim", DIM,
               "--out", str(out)])
    assert rc == 0
    assert (out / "report_Length_seed66.json").exists()
    assert (out / "report_Length_seed88.json").exists()


# ------------------------------------------------------------------ fewshot


def test_fewshot_trains_on_exactly_k(tmp_path, splits):
    out = tmp_path / "few"
    rc = main(["fewshot", *split_flags(splits), "--strategy", "SME", "--k", "64",
               "--seed", "66", "--epochs", "1", "--dim", DIM, "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report_fewshot_SME_seed66.json").read_text())
    assert report["n_train"] == 64


def test_fewshot_k_zero_is_usage_error(splits, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["fewshot", *split_flags(splits), "--strategy", "SME", "--k", "0",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_fewshot_k_above_n_fails(tmp_path, splits, capsys):
    rc = main(["fewshot", *split_flags(splits), "--strategy", "SME", "--k", "500",
               "--seed", "66", "--dim", DIM, "--out", str(tmp_path / "few")])
    assert rc == 1
    assert "exceeds" in capsys.readouterr().err


def test_fewshot_k_equals_n_matches_train(tmp_path, splits):
    shared = ["--strategy", "D2E", "--seed", "66", "--epochs", "1", "--dim", DIM,
              "--probe-epochs", "1"]
    out_few = tmp_path / "few"
    out_train = tmp_path / "train_run"
    assert main(["fewshot", *split_flags(splits), "--k", "120", *shared,
                 "--out", str(out_few)]) == 0
    assert main(["train", *split_flags(splits), *shared, "--out", str(out_train)]) == 0
    few = json.loads((out_few / "report_fewshot_D2E_seed66.json").read_text())
    full = json.loads((out_train / "report_D2E_seed66.json").read_text())
    assert few["checkpoints"] == full["checkpoints"]
    assert few["test_metrics"] == full["test_metrics"]


# ------------------------------------------------------------------ analyze


def test_analyze_single_file_counts_sum_to_n(tmp_path):
    scores = tmp_path / "s.jsonl"
    write_scores(scores, 50, probs=(0.6, 0.4))
    out = tmp_path / "hist.csv"
    rc = main(["analyze", str(scores), "--bins", "5", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "bin_lo,bin_hi,correct_count,incorrect_count,epoch_tag"
    total = sum(int(r.split(",")[2]) + int(r.split(",")[3]) for r in rows[1:])
    assert total == 50
    assert len(rows) == 1 + 5


def test_analyze_two_epoch_tagged_files(tmp_path):
    s0, s1 = tmp_path / "e0.jsonl", tmp_path / "e1.jsonl"
    with open(s0, "w") as fh:
        for i in range(10):
            fh.write(json.dumps({"id": i, "probs": [0.5, 0.5], "epoch": 0}) + "\n")
    with open(s1, "w") as fh:
        for i in range(10):
            fh.write(json.dumps({"id": i, "probs": [0.95, 0.05], "epoch": 1}) + "\n")
    out = tmp_path / "hist.csv"
    rc = main(["analyze", str(s0), str(s1), "--bins", "4", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()[1:]
    tags = [r.split(",")[4] for r in rows]
    assert tags == ["0"] * 4 + ["1"] * 4


@pytest.mark.parametrize("tags, message", [
    ([0, "final"], "non-numeric id, epoch or probability at line 2"),
    ([0, 1], "mixed epoch tags [0, 1]"),
])
def test_analyze_rejects_bad_epoch_tags(tmp_path, capsys, tags, message):
    scores = tmp_path / "s.jsonl"
    with open(scores, "w") as fh:
        for i, tag in enumerate(tags):
            fh.write(json.dumps({"id": i, "probs": [0.5, 0.5], "epoch": tag}) + "\n")
    rc = main(["analyze", str(scores), "--bins", "4", "--out", str(tmp_path / "h.csv")])
    assert rc == 1
    assert message in capsys.readouterr().err


def test_analyze_refuses_a_string_epoch_tag(tmp_path, capsys):
    scores = tmp_path / "s.jsonl"
    scores.write_text(json.dumps({"id": 0, "probs": [0.5, 0.5], "epoch": "3"}) + "\n")
    rc = main(["analyze", str(scores), "--bins", "4", "--out", str(tmp_path / "h.csv")])
    assert rc == 1
    assert (f"{scores}: non-numeric id, epoch or probability at line 1"
            in capsys.readouterr().err)


def test_analyze_predictions_split_and_mismatch(tmp_path, capsys):
    scores = tmp_path / "s.jsonl"
    write_scores(scores, 6)
    preds = tmp_path / "p.jsonl"
    with open(preds, "w") as fh:
        for i in range(6):
            fh.write(json.dumps({"id": i, "predicted_label": 0,
                                 "gold_label": i % 2}) + "\n")
    out = tmp_path / "hist.csv"
    rc = main(["analyze", str(scores), "--predictions", str(preds), "--bins", "2",
               "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()[1:]
    correct = sum(int(r.split(",")[2]) for r in rows)
    incorrect = sum(int(r.split(",")[3]) for r in rows)
    assert (correct, incorrect) == (3, 3)

    short = tmp_path / "short.jsonl"
    with open(short, "w") as fh:
        fh.write(json.dumps({"id": 0, "predicted_label": 0, "gold_label": 0}) + "\n")
    rc = main(["analyze", str(scores), "--predictions", str(short), "--bins", "2",
               "--out", str(out), "--force"])
    assert rc == 1
    assert "missing from predictions" in capsys.readouterr().err


def test_analyze_single_bin_is_usage_error(tmp_path):
    scores = tmp_path / "s.jsonl"
    write_scores(scores, 3)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(scores), "--bins", "1", "--out", str(tmp_path / "h.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize("records, message", [
    ([(0, [0.6, 0.4]), (1, [0.3, 0.7]), (1, [0.9, 0.1])], "duplicate id 1 at line 3"),
    ([(0, [0.6, 0.4]), (1, [-1.0, 0.8])], "negative probability for id 1 at line 2"),
    ([(0, [0.6, 0.4]), (1, [0.0, 0.0])], "all-zero probability vector for id 1 at line 2"),
])
def test_analyze_rejects_invalid_score_rows(tmp_path, capsys, records, message):
    scores = tmp_path / "s.jsonl"
    with open(scores, "w") as fh:
        for i, probs in records:
            fh.write(json.dumps({"id": i, "probs": probs}) + "\n")
    rc = main(["analyze", str(scores), "--bins", "4", "--out", str(tmp_path / "h.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(scores) in err and message in err


# ------------------------------------------------------------------ compare


def test_compare_two_strategies_one_seed(tmp_path, splits):
    out = tmp_path / "cmp"
    rc = main(["compare", *split_flags(splits), "--strategies", "Random", "E2D",
               "--seed", "66", "--epochs", "1", "--dim", DIM, "--out", str(out)])
    assert rc == 0
    rows = (out / "aggregate.csv").read_text().splitlines()
    assert rows[0].startswith("strategy,accuracy,macro_f1")
    assert len(rows) == 3
    assert rows[1].split(",")[0] == "Random"
    assert rows[2].split(",")[0] == "E2D"
    assert (out / "aggregate.txt").exists()
    assert (out / "report_E2D_seed66.json").exists()


def test_compare_empty_strategy_list_is_usage_error(splits, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["compare", *split_flags(splits), "--strategies",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_compare_parallel_jobs_matches_serial(tmp_path, splits):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    base = ["compare", *split_flags(splits), "--strategies", "Random", "Length",
            "--seed", "66", "--epochs", "1", "--dim", DIM]
    assert main(base + ["--out", str(serial)]) == 0
    assert main(base + ["--jobs", "2", "--out", str(parallel)]) == 0
    assert (serial / "aggregate.csv").read_text() == (parallel / "aggregate.csv").read_text()
    assert (serial / "report_Random_seed66.json").read_text() == \
        (parallel / "report_Random_seed66.json").read_text()


def test_compare_featurizes_each_split_once(tmp_path, splits, monkeypatch):
    from curlearn.toy_model import FeatureMatrix
    builds = []
    build = FeatureMatrix.build.__func__

    def counting_build(cls, dataset, *args, **kwargs):
        builds.append(dataset.split_tag)
        return build(cls, dataset, *args, **kwargs)

    monkeypatch.setattr(FeatureMatrix, "build", classmethod(counting_build))
    rc = main(["compare", *split_flags(splits), "--strategies", "Random", "E2D",
               "--seed", "66", "--seed", "88", "--epochs", "1", "--dim", DIM,
               "--out", str(tmp_path / "cmp")])
    assert rc == 0
    # train/validation/test once for all 4 cells; the probe trains on train's rows
    assert sorted(builds) == ["test", "train", "validation"]


@pytest.mark.parametrize("command, strategies", [
    ("compare", ["--strategies", "Random", "E2D"]),
    ("train", ["--strategy", "E2D"]),
    ("fewshot", ["--strategy", "E2D", "--k", "40"]),
])
def test_validation_rescoring_trains_the_probe_once(tmp_path, splits, monkeypatch,
                                                     command, strategies):
    import curlearn.trainer as trainer
    calls = []
    build = trainer.build_probe_scorer

    def counting_build(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(trainer, "build_probe_scorer", counting_build)
    rc = main([command, *split_flags(splits), *strategies, "--seed", "66", "--seed", "88",
               "--epochs", "1", "--dim", DIM, "--rescore", "--rescore-split", "validation",
               "--out", str(tmp_path / "run")])
    assert rc == 0
    # one probe scores the train split and the validation split for every cell
    assert len(calls) == 1


def test_fewshot_validation_rescoring_starts_from_the_full_split_probe(tmp_path, splits):
    # the 20 hardest of these 300 examples hold too few of class 0 for a
    # probe trained on a 10% slice of them
    train = tmp_path / "train300.jsonl"
    save_dataset(make_separable_corpus(300, seed=1), train)
    flags = ["--train", str(train), "--val", splits["val"], "--test", splits["test"],
             "--strategy", "D2E", "--seed", "66", "--seed", "88", "--epochs", "1",
             "--dim", DIM, "--rescore", "--rescore-split", "validation"]
    assert main(["fewshot", *flags, "--k", "20", "--out", str(tmp_path / "few")]) == 0
    assert main(["train", *flags, "--out", str(tmp_path / "full")]) == 0

    def epoch0_rows(path):
        rows = path.read_text().splitlines()
        return [r for r in rows[1:] if r.split(",")[-1] == "0"]

    for seed in (66, 88):
        few = epoch0_rows(tmp_path / "few" / f"histograms_fewshot_D2E_seed{seed}.csv")
        full = epoch0_rows(tmp_path / "full" / f"histograms_D2E_seed{seed}.csv")
        assert len(few) == 20  # the default 20 bins
        assert few == full


# ------------------------------------------------------------- configuration


def test_config_precedence_flag_beats_file_beats_default(tmp_path, splits):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"train.epochs": 2, "train.batch_size": 8,
                                  "model.dim": 4096}))
    out1 = tmp_path / "r1"
    assert main(["train", *split_flags(splits), "--strategy", "Random", "--seed", "66",
                 "--config", str(config), "--out", str(out1)]) == 0
    report = json.loads((out1 / "report_Random_seed66.json").read_text())
    assert report["epochs"] == 2          # from config file
    assert report["batch_size"] == 8      # from config file

    out2 = tmp_path / "r2"
    assert main(["train", *split_flags(splits), "--strategy", "Random", "--seed", "66",
                 "--config", str(config), "--epochs", "1", "--out", str(out2)]) == 0
    report = json.loads((out2 / "report_Random_seed66.json").read_text())
    assert report["epochs"] == 1          # flag wins
    assert report["batch_size"] == 8

    out3 = tmp_path / "r3"
    assert main(["train", *split_flags(splits), "--strategy", "Random", "--seed", "66",
                 "--epochs", "1", "--dim", DIM, "--out", str(out3)]) == 0
    report = json.loads((out3 / "report_Random_seed66.json").read_text())
    assert report["batch_size"] == 16     # built-in default


def test_config_schema_violations_reported_per_field(tmp_path, splits, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"train.epochs": "five", "unknown.key": 1}))
    rc = main(["train", *split_flags(splits), "--strategy", "Random",
               "--config", str(config), "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "train.epochs" in err
    assert "unknown.key" in err


def test_config_null_only_for_keys_unset_by_default(tmp_path, splits, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"train.epochs": None, "model.dim": None,
                                  "train.max_tokens": None, "optimizer.lr": None,
                                  "scores.path": None}))
    rc = main(["train", *split_flags(splits), "--strategy", "Random",
               "--config", str(config), "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config schema violations: train.epochs: expected int, got null; " \
           "model.dim: expected int, got null" in err
    assert "max_tokens" not in err and "optimizer.lr" not in err and "scores.path" not in err
    assert "Traceback" not in err

    config.write_text(json.dumps({"train.max_tokens": None, "optimizer.lr": None,
                                  "scores.path": None}))
    assert main(["train", *split_flags(splits), "--strategy", "Random", "--seed", "66",
                 "--epochs", "1", "--dim", DIM, "--config", str(config),
                 "--out", str(tmp_path / "ok")]) == 0


def test_seed_flag_overrides_default_seed_list(tmp_path, splits):
    out = tmp_path / "run"
    assert main(["train", *split_flags(splits), "--strategy", "Random",
                 "--seed", "7", "--epochs", "1", "--dim", DIM,
                 "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert "report_Random_seed7.json" in names
    assert len([n for n in names if n.startswith("report_")]) == 1


def _failing_run_training(monkeypatch, fails):
    """Make cli's run_training raise for every cell that ``fails(strategy, seed)`` picks."""
    import curlearn.cli as cli
    real = cli.run_training

    def run_training(train_ds, val_ds, test_ds, config, seed=None, **kwargs):
        if fails(config.strategy.value, seed):
            raise RuntimeError("injected failure")
        return real(train_ds, val_ds, test_ds, config, seed=seed, **kwargs)

    monkeypatch.setattr(cli, "run_training", run_training)


def test_compare_marks_failed_cells_and_runs_the_rest(tmp_path, splits, monkeypatch,
                                                      capsys):
    _failing_run_training(monkeypatch, lambda strategy, seed: strategy == "E2D")
    out = tmp_path / "cmp"
    rc = main(["compare", *split_flags(splits), "--strategies", "Random", "E2D",
               "--seed", "66", "--seed", "88", "--epochs", "1", "--dim", DIM,
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "curlearn: run failed: E2D seed 66: injected failure" in err
    assert "curlearn: run failed: E2D seed 88: injected failure" in err
    assert (out / "report_Random_seed66.json").exists()
    assert (out / "report_Random_seed88.json").exists()
    assert not list(out.glob("report_E2D_*"))
    assert (out / "manifest.json").exists()
    rows = {r.split(",")[0]: r.split(",") for r in
            (out / "aggregate.csv").read_text().splitlines()[1:]}
    assert rows["Random"][-2:] == ["66 88", ""]
    assert rows["E2D"][-2:] == ["", "66 88"]
    text = (out / "aggregate.txt").read_text()
    assert "missing:66,88" in text
    assert "missing" not in next(line for line in text.splitlines()
                                 if line.startswith("Random"))


@pytest.mark.parametrize("command, extra, stem", [
    ("train", [], "Random"),
    ("fewshot", ["--k", "40"], "fewshot_Random"),
])
def test_train_and_fewshot_run_every_seed_when_one_fails(tmp_path, splits, monkeypatch,
                                                          capsys, command, extra, stem):
    _failing_run_training(monkeypatch, lambda strategy, seed: seed == 66)
    out = tmp_path / "run"
    rc = main([command, *split_flags(splits), "--strategy", "Random", *extra,
               "--seed", "66", "--seed", "88", "--epochs", "1", "--dim", DIM,
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "curlearn: run failed: Random seed 66: injected failure" in err
    assert not (out / f"report_{stem}_seed66.json").exists()
    assert (out / f"report_{stem}_seed88.json").exists()
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("record, message", [
    ({"id": 1, "predicted_label": 0}, "needs 'gold_label'"),
    ({"id": 1, "predicted_label": 0, "gold_label": 7}, "gold_label 7 outside [0, 2) at line 2"),
    ({"id": 1, "predicted_label": -3, "gold_label": 0},
     "predicted_label -3 outside [0, 2) at line 2"),
])
def test_analyze_rejects_invalid_predictions(tmp_path, capsys, record, message):
    scores = tmp_path / "s.jsonl"
    write_scores(scores, 2)
    preds = tmp_path / "p.jsonl"
    preds.write_text(json.dumps({"id": 0, "predicted_label": 0, "gold_label": 0}) + "\n"
                     + json.dumps(record) + "\n")
    out = tmp_path / "h.csv"
    rc = main(["analyze", str(scores), "--predictions", str(preds), "--bins", "2",
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{preds}: " in err and message in err
    assert not out.exists()


def test_analyze_rejects_fractional_ids(tmp_path, capsys):
    scores = tmp_path / "s.jsonl"
    scores.write_text(json.dumps({"id": 0.9, "probs": [0.6, 0.4]}) + "\n"
                      + json.dumps({"id": 1.2, "probs": [0.3, 0.7]}) + "\n")
    rc = main(["analyze", str(scores), "--bins", "2", "--out", str(tmp_path / "h.csv")])
    assert rc == 1
    assert f"{scores}: non-numeric id, epoch or probability at line 1" in capsys.readouterr().err


def test_train_rejects_fractional_dataset_id(tmp_path, splits, capsys):
    bad = tmp_path / "bad_train.jsonl"
    bad.write_text(json.dumps({"id": 0, "text": "a b", "label": 0}) + "\n"
                   + json.dumps({"id": 1.7, "text": "c d", "label": 1}) + "\n")
    rc = main(["train", "--train", str(bad), "--val", splits["val"], "--test", splits["test"],
               "--strategy", "Random", "--seed", "66", "--epochs", "1", "--dim", DIM,
               "--out", str(tmp_path / "run")])
    assert rc == 1
    assert f"{bad}: non-integer id at line 2" in capsys.readouterr().err


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched run_training reaches workers only by fork")
def test_compare_jobs_records_a_dead_worker_and_writes_the_manifest(tmp_path, splits,
                                                                    monkeypatch, capsys):
    # the E2D cell kills its worker process
    _failing_run_training(monkeypatch, lambda strategy, seed: strategy == "E2D"
                          and os._exit(1))
    out = tmp_path / "cmp"
    rc = main(["compare", *split_flags(splits), "--strategies", "Random", "E2D",
               "--seed", "66", "--epochs", "1", "--dim", DIM, "--jobs", "2",
               "--out", str(out)])
    assert rc == 1
    assert "curlearn: run failed: E2D seed 66: " in capsys.readouterr().err
    assert (out / "aggregate.csv").exists()
    assert (out / "manifest.json").exists()
