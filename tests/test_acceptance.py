"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import hashlib
import json
import time

import numpy as np
import pytest
from scipy import stats

from curlearn.cli import main as cli_main
from curlearn.dataset_io import save_dataset
from curlearn.samplers import Strategy, make_plan, weighted_permutation
from curlearn.scoring import margins_from_matrix
from curlearn.synthetic import make_noisy_corpus, make_separable_corpus
from curlearn.trainer import TrainConfig, evaluate, few_shot_select, run_training

from conftest import dataset_from_scores
from test_toy_model import _random_instance, finite_difference_check

ALL_NAMES = [s.value for s in Strategy]


@pytest.fixture
def checked(capfd):
    """Run a criterion body and print its pass/fail line past pytest capture."""

    def run(criterion, body):
        t0 = time.perf_counter()
        try:
            detail = body()
        except BaseException:
            with capfd.disabled():
                print(f"\nACCEPTANCE {criterion} FAIL "
                      f"({time.perf_counter() - t0:.1f}s)", flush=True)
            raise
        with capfd.disabled():
            print(f"\nACCEPTANCE {criterion} PASS - {detail} "
                  f"({time.perf_counter() - t0:.1f}s)", flush=True)

    return run


# ------------------------------------------------------------ shared corpora


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    save_dataset(make_separable_corpus(2000, seed=10), root / "sep2000.jsonl")
    save_dataset(make_noisy_corpus(5000, noise=0.1, seed=30), root / "noisy5000.jsonl")
    save_dataset(make_noisy_corpus(500, noise=0.1, seed=31), root / "noisy500.jsonl")
    save_dataset(make_noisy_corpus(1000, noise=0.1, seed=20), root / "grid_train.jsonl")
    save_dataset(make_noisy_corpus(300, noise=0.1, seed=21), root / "grid_val.jsonl")
    save_dataset(make_noisy_corpus(300, noise=0.1, seed=22), root / "grid_test.jsonl")
    return root


def _c5_commands(root, out_root):
    sep = str(root / "sep2000.jsonl")
    commands = {}
    for name in ALL_NAMES:
        commands[name] = ["train", "--train", sep, "--val", sep, "--test", sep,
                          "--strategy", name, "--seed", "66", "--epochs", "20",
                          "--out", str(out_root / f"c5_{name}")]
    return commands


def _c6_command(root, out_dir):
    return ["train",
            "--train", str(root / "noisy5000.jsonl"),
            "--val", str(root / "noisy500.jsonl"),
            "--test", str(root / "noisy500.jsonl"),
            "--strategy", "Random", "--seed", "66", "--epochs", "1",
            "--rescore", "--out", str(out_dir)]


def _c7_command(root, out_dir):
    return ["compare",
            "--train", str(root / "grid_train.jsonl"),
            "--val", str(root / "grid_val.jsonl"),
            "--test", str(root / "grid_test.jsonl"),
            "--strategies", *ALL_NAMES,
            "--seed", "66", "--seed", "88", "--seed", "99",
            "--epochs", "5", "--out", str(out_dir)]


@pytest.fixture(scope="module")
def c5_outputs(workspace, tmp_path_factory):
    out_root = tmp_path_factory.mktemp("c5")
    commands = _c5_commands(workspace, out_root)
    t0 = time.perf_counter()
    for name, argv in commands.items():
        assert cli_main(argv) == 0
    return out_root, commands, time.perf_counter() - t0


@pytest.fixture(scope="module")
def c6_output(workspace, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("c6") / "run"
    argv = _c6_command(workspace, out_dir)
    t0 = time.perf_counter()
    assert cli_main(argv) == 0
    return out_dir, argv, time.perf_counter() - t0


@pytest.fixture(scope="module")
def c7_output(workspace, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("c7") / "grid"
    argv = _c7_command(workspace, out_dir)
    t0 = time.perf_counter()
    assert cli_main(argv) == 0
    return out_dir, argv, time.perf_counter() - t0


# -------------------------------------------------------------- criterion 1


def test_c1_difficulty_score_unit_suite(checked):
    def body():
        assert margins_from_matrix(np.array([[0.5, 0.5]]))[0] == 0.0
        assert margins_from_matrix(np.array([[1.0, 0.0]]))[0] == 1.0
        assert margins_from_matrix(np.array([[0.6, 0.3, 0.1]]))[0] == pytest.approx(0.3)
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            c = int(rng.choice([2, 3, 5]))
            probs = rng.random(c) + 1e-9
            probs /= probs.sum()
            want = float(np.sort(probs)[-1] - np.sort(probs)[-2])
            worst = max(worst, abs(margins_from_matrix(probs.reshape(1, -1))[0] - want))
        assert worst < 1e-12
        return f"3 fixed cases + 1000 random margins, max |err| = {worst:.2e}"

    checked("C1", body)


# -------------------------------------------------------------- criterion 2


def test_c2_sampler_first_position_laws(checked):
    def body():
        n, trials = 10, 100_000
        ids = np.arange(n)

        square = np.arange(1, n + 1, dtype=float) ** 2
        counts = np.zeros(n)
        for t in range(trials):
            counts[weighted_permutation(ids, square, np.random.default_rng(t))[0]] += 1
        err_sq = np.max(np.abs(counts / trials - square / square.sum()))
        assert err_sq < 0.01

        comp = (n - np.arange(1, n + 1, dtype=float)) ** 2  # rank 10 gets weight 0
        counts = np.zeros(n)
        last_ok = 0
        for t in range(trials):
            order = weighted_permutation(ids, comp, np.random.default_rng((1, t)))
            counts[order[0]] += 1
            last_ok += order[-1] == n - 1  # zero-weight tail rule
        err_comp = np.max(np.abs(counts / trials - comp / comp.sum()))
        assert err_comp < 0.01
        assert counts[n - 1] == 0
        assert last_ok == trials
        return (f"L-inf {err_sq:.4f} (square), {err_comp:.4f} (complement), "
                f"zero-weight id always last")

    checked("C2", body)


# -------------------------------------------------------------- criterion 3


def test_c3_permutation_invariant_all_strategies(checked):
    def body():
        checked = 0
        for n in (1, 2, 16, 17, 100):
            rng = np.random.default_rng(n)
            ds, table = dataset_from_scores(rng.random(n))
            lengths = rng.integers(1, 40, size=n)
            want = list(range(n))
            for strategy in Strategy:
                for seed in range(100):
                    plan = make_plan(strategy, table, ds,
                                     rng=np.random.default_rng(seed),
                                     length_index=lengths)
                    assert sorted(plan.order.tolist()) == want
                    if strategy in (Strategy.PME, Strategy.PMD):
                        tags = plan.batch_provenance.tolist()
                        for start in range(0, (n // 16) * 16, 16):
                            batch = tags[start:start + 16]
                            assert batch == ["B1"] * 9 + ["B2"] * 7
                    checked += 1
        return f"{checked} plans, every one an exact permutation with (9,7) full batches"

    checked("C3", body)


# -------------------------------------------------------------- criterion 4


def test_c4_gradient_check(checked):
    def body():
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(50):
            model, batch, labels = _random_instance(rng, dim=64)
            worst = max(worst, finite_difference_check(model, batch, labels))
        assert worst < 1e-4
        return f"50 instances, max relative gradient error {worst:.2e}"

    checked("C4", body)


# -------------------------------------------------------------- criterion 5


def test_c5_every_strategy_converges(c5_outputs, checked):
    def body():
        out_root, commands, elapsed = c5_outputs
        accuracies = {}
        for name in ALL_NAMES:
            report = json.loads(
                (out_root / f"c5_{name}" / f"report_{name}_seed66.json").read_text())
            accuracies[name] = report["test_metrics"]["accuracy"]
        assert all(acc >= 0.99 for acc in accuracies.values()), accuracies
        lo = min(accuracies.values())
        return (f"8 strategies on the separable corpus, min train accuracy "
                f"{lo:.4f}, runs took {elapsed:.1f}s")

    checked("C5", body)


# -------------------------------------------------------------- criterion 6


def test_c6_score_error_link_and_post_training_shift(c6_output, checked):
    def body():
        out_dir, _, elapsed = c6_output
        report = json.loads((out_dir / "report_Random_seed66.json").read_text())
        hists = report["score_histograms"]
        assert [h["epoch_tag"] for h in hists] == [0, 1]
        pre, post = hists
        correct = np.array(pre["counts_correct"], dtype=float)
        incorrect = np.array(pre["counts_incorrect"], dtype=float)
        totals = correct + incorrect
        nonempty = np.flatnonzero(totals > 0)
        assert len(nonempty) >= 10
        rho = stats.spearmanr(nonempty, incorrect[nonempty] / totals[nonempty]).statistic
        assert rho < -0.5
        delta = post["mean_score"] - pre["mean_score"]
        assert delta >= 0.05
        return (f"{len(nonempty)} non-empty bins, Spearman rho {rho:.3f}, "
                f"mean score shift +{delta:.3f}, run took {elapsed:.1f}s")

    checked("C6", body)


# -------------------------------------------------------------- criterion 7


def test_c7_protocol_fidelity(workspace, c7_output, checked):
    def body():
        out_dir, _, elapsed = c7_output
        report = json.loads((out_dir / "report_Random_seed66.json").read_text())
        assert len(report["checkpoints"]) == 50

        # recompute the best-checkpoint test metrics independently
        from curlearn.dataset_io import load_dataset
        train_ds = load_dataset(workspace / "grid_train.jsonl", class_count=2)
        val_ds = load_dataset(workspace / "grid_val.jsonl", class_count=2)
        test_ds = load_dataset(workspace / "grid_test.jsonl", class_count=2)
        config = TrainConfig(epochs=5, strategy="Random")
        outcome = run_training(train_ds, val_ds, test_ds, config, seed=66)
        recomputed, _ = evaluate(outcome.best_model, test_ds)
        assert recomputed.accuracy == report["test_metrics"]["accuracy"]
        assert recomputed.macro_f1 == report["test_metrics"]["macro_f1"]
        best = report["best_checkpoint_index"]
        accs = [c["accuracy"] for c in report["checkpoints"]]
        assert accs[best] == max(accs)

        rows = (out_dir / "aggregate.csv").read_text().splitlines()
        assert len(rows) == 1 + 8
        assert [r.split(",")[0] for r in rows[1:]] == ALL_NAMES
        return ("50 checkpoints per run, test metrics match the argmax-validation "
                f"recomputation, 8-row mean table, grid took {elapsed:.1f}s")

    checked("C7", body)


# -------------------------------------------------------------- criterion 8


def test_c8_few_shot_protocol(checked):
    def body():
        rng = np.random.default_rng(8)
        scores = rng.permutation(1000) / 1000.0
        ds, table = dataset_from_scores(scores)

        e2d = few_shot_select(Strategy.E2D, table, ds, k=64)
        want_easy = set(np.argsort(-scores, kind="stable")[:64].tolist())
        assert set(int(i) for i in e2d.ids) == want_easy
        assert len(e2d.ids) == len(set(e2d.ids.tolist())) == 64

        d2e = few_shot_select(Strategy.D2E, table, ds, k=64)
        want_hard = set(np.argsort(scores, kind="stable")[:64].tolist())
        assert set(int(i) for i in d2e.ids) == want_hard

        lengths = rng.integers(1, 60, size=1000)
        short = few_shot_select(Strategy.LENGTH, None, ds, k=64, length_index=lengths)
        want_short = set(np.lexsort((np.arange(1000), lengths))[:64].tolist())
        assert set(int(i) for i in short.ids) == want_short

        for strategy in (Strategy.SME, Strategy.SMD, Strategy.PME, Strategy.PMD,
                         Strategy.RANDOM):
            a = few_shot_select(strategy, table, ds, k=64,
                                rng=np.random.default_rng(123), length_index=lengths)
            b = few_shot_select(strategy, table, ds, k=64,
                                rng=np.random.default_rng(123), length_index=lengths)
            assert a.ids.tolist() == b.ids.tolist()
            assert len(set(a.ids.tolist())) == 64
        return "k=64 selections exact for E2D/D2E/Length, drawn ones seed-deterministic"

    checked("C8", body)


# -------------------------------------------------------------- criterion 9


def _digest_tree(root):
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_dir() or path.name.endswith("manifest.json"):
            continue
        digests[str(path.relative_to(root))] = hashlib.sha256(
            path.read_bytes()).hexdigest()
    return digests


def test_c9_reruns_are_byte_identical(workspace, c5_outputs, c6_output, c7_output,
                                      tmp_path_factory, checked):
    def body():
        rerun_root = tmp_path_factory.mktemp("c9")
        compared = 0

        out_root, commands, _ = c5_outputs
        for name, argv in commands.items():
            redo = rerun_root / f"c5_{name}"
            assert cli_main(argv[:-1] + [str(redo)]) == 0
            first = _digest_tree(out_root / f"c5_{name}")
            second = _digest_tree(redo)
            assert first == second
            compared += len(first)

        for (out_dir, argv, _unused), tag in ((c6_output, "c6"), (c7_output, "c7")):
            redo = rerun_root / tag
            assert cli_main(argv[:-1] + [str(redo)]) == 0
            first = _digest_tree(out_dir)
            second = _digest_tree(redo)
            assert first == second
            compared += len(first)
        return f"{compared} report files byte-identical across reruns"

    checked("C9", body)
