"""The three workloads: inputs generated from the workload seed, commands, checks.

Each workload is closed-loop: one process runs its ``curlearn`` commands one
after another, in-process through ``curlearn.cli.main``. curlearn receives
only the generated files and command-line flags.

An operation is one output file the workload expects. It fails when the
command that writes it exits non-zero, when it is missing, or when it fails
its check in ``bench_checks``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import bench_checks as checks

STRATEGIES = ("Random", "Length", "E2D", "D2E", "SME", "SMD", "PME", "PMD")


def derived_seed(seed: int, stream: int) -> int:
    """An independent integer seed per generated input, from the workload seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def write_dataset(examples, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps({"id": ex.id, "text": ex.text, "label": ex.label}) + "\n")


def read_labels(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.array([json.loads(line)["label"] for line in fh], dtype=np.int64)


def read_scores_jsonl(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.array([json.loads(line)["probs"] for line in fh], dtype=np.float64)


class Workload:
    """Inputs under ``inputs``, outputs under ``out``; ``units`` per iteration."""

    name = ""
    unit = ""

    def setup(self, seed: int, inputs: Path) -> None:
        raise NotImplementedError

    def commands(self, inputs: Path, out: Path) -> list[tuple[list[str], list[str]]]:
        """(argv, output files it writes, relative to ``out``) per command."""
        raise NotImplementedError

    def check(self, inputs: Path, out: Path, rel: str) -> str | None:
        raise NotImplementedError

    def units(self) -> int:
        raise NotImplementedError

    def accuracy(self, inputs: Path, out: Path) -> float:
        raise NotImplementedError


class CompareGrid(Workload):
    """The paper's protocol: all 8 strategies x seeds {66, 88, 99}.

    Why: training dominates. AdamW over the dense 2^16-column model and the
    per-example gradient loop take most of the time; each cell re-featurizes
    its splits, and plan construction hardly shows at this N. Defaults apart
    from the epoch count: AdamW, dim 2^16, probe scoring. The noisy corpus has
    a small vocabulary (about 300 distinct tokens, so 96% of token
    occurrences repeat one seen before).
    """

    name = "compare_grid"
    unit = "training examples consumed by optimizer steps (cells x epochs x N_train)"
    n_train, n_val, n_test = 500, 200, 1000
    epochs = 2
    seeds = (66, 88, 99)

    def setup(self, seed, inputs):
        from curlearn.synthetic import make_noisy_corpus

        for stream, (split, n) in enumerate((("train", self.n_train),
                                              ("validation", self.n_val),
                                              ("test", self.n_test))):
            ds = make_noisy_corpus(n, noise=0.1, seed=derived_seed(seed, stream),
                                   split_tag=split)
            write_dataset(ds.examples, inputs / f"{split}.jsonl")

    def _cells(self):
        return [(s, seed) for s in STRATEGIES for seed in self.seeds]

    def commands(self, inputs, out):
        argv = ["compare", "--train", str(inputs / "train.jsonl"),
                "--val", str(inputs / "validation.jsonl"),
                "--test", str(inputs / "test.jsonl"),
                "--strategies", *STRATEGIES, "--epochs", str(self.epochs),
                "--out", str(out / "grid")]
        for seed in self.seeds:
            argv += ["--seed", str(seed)]
        files = [f"grid/{kind}_{s}_seed{seed}.{ext}" for s, seed in self._cells()
                 for kind, ext in (("report", "json"), ("checkpoints", "csv"))]
        return [(argv, files + ["grid/aggregate.csv", "grid/aggregate.txt"])]

    def check(self, inputs, out, rel):
        path = out / rel
        name = Path(rel).name
        if name == "aggregate.csv":
            return checks.check_aggregate_csv(path, STRATEGIES, self.seeds)
        if name == "aggregate.txt":
            return checks.check_aggregate_text(path, STRATEGIES)
        kind, strategy, seed = Path(rel).stem.split("_")
        if kind == "report":
            return checks.check_report(path, strategy, int(seed[len("seed"):]), self.epochs)
        return checks.check_checkpoint_csv(path, self.epochs)

    def units(self):
        return len(self._cells()) * self.epochs * self.n_train

    def accuracy(self, inputs, out):
        accs = []
        for s, seed in self._cells():
            with open(out / f"grid/report_{s}_seed{seed}.json", encoding="utf-8") as fh:
                accs.append(json.load(fh)["test_metrics"]["accuracy"])
        return float(np.mean(accs))


class PlanExternal(Workload):
    """The faithful path: an external {id, probs} score file, then one plan per strategy.

    Why: the toy model never runs. make_plan dominates, almost all of it in
    the quadratic PME/PMD draws; the rest is loading the dataset, reading the
    score file and writing the plan JSONL, a large file read and a large file
    written per strategy. Probabilities are quantised to 1/1000 so that many
    scores tie and the id tie-break is exercised; texts have 1 to 8 tokens so
    that the Length order has ties too.

    test_accuracy here is the external scorer's argmax accuracy on the
    training labels. It is fixed by the inputs and cannot move with the
    program; it is reported because every workload reports every
    end-to-end metric.
    """

    name = "plan_external"
    unit = "plan positions written"
    n = 10000
    _expected = None  # (inputs dir, scores, token lengths), read once per run

    def setup(self, seed, inputs):
        from curlearn.synthetic import make_noisy_corpus

        ds = make_noisy_corpus(self.n, noise=0.1, seed=derived_seed(seed, 0))
        rng = np.random.default_rng(derived_seed(seed, 1))
        keep = rng.integers(1, 9, size=self.n)
        for ex, k in zip(ds.examples, keep):
            ex.text = " ".join(ex.text.split()[:k])
        write_dataset(ds.examples, inputs / "train.jsonl")
        # confidence in the gold label, so the scorer is right about 3 times in 4
        p_gold = np.round(rng.beta(3.0, 1.5, size=self.n), 3)
        with open(inputs / "probs.jsonl", "w", encoding="utf-8") as fh:
            for ex, p in zip(ds.examples, p_gold):
                probs = [float(p), float(1.0 - p)]
                if ex.label == 1:
                    probs.reverse()
                fh.write(json.dumps({"id": ex.id, "probs": probs}) + "\n")

    def commands(self, inputs, out):
        return [(["plan", "--dataset", str(inputs / "train.jsonl"),
                  "--scores", str(inputs / "probs.jsonl"), "--strategy", s,
                  "--seed", "66", "--out", str(out / f"plan_{s}.jsonl")],
                 [f"plan_{s}.jsonl"]) for s in STRATEGIES]

    def check(self, inputs, out, rel):
        if self._expected is None or self._expected[0] != inputs:
            scores = checks.margins(read_scores_jsonl(inputs / "probs.jsonl"))
            with open(inputs / "train.jsonl", encoding="utf-8") as fh:
                lengths = np.array([len(json.loads(line)["text"].split()) for line in fh])
            self._expected = (inputs, scores, lengths)
        _, scores, lengths = self._expected
        strategy = Path(rel).stem[len("plan_"):]
        return checks.check_plan(out / rel, strategy, self.n, scores, lengths)

    def units(self):
        return len(STRATEGIES) * self.n

    def accuracy(self, inputs, out):
        probs = read_scores_jsonl(inputs / "probs.jsonl")
        return float(np.mean(np.argmax(probs, axis=1) == read_labels(inputs / "train.jsonl")))


class ScoreAnalyze(Workload):
    """Probe-model scoring (SGD, set through the config file), then a histogram.

    Why: toy_model runs per example, through the probe provider, instead of
    per batch; featurize dominates, then score_dataset's own loop. SGD
    bypasses the dense AdamW path, so an AdamW change should not move this
    workload. The corpus has 24 tokens per text over a large vocabulary
    (about 46k distinct tokens, so only 81% of occurrences repeat one seen
    before, against 96% in compare_grid), which keeps a token memo from
    looking better than it would on real text.

    test_accuracy here is the frozen probe's argmax accuracy against the
    gold labels of the scored split, 70% of which the probe never trained on.
    The probe trains on 30% for 2 epochs: with the default 10% and 1 epoch,
    its argmax leans to one class by chance and this accuracy swings from
    0.63 to 0.84 across workload seeds, too wide to bound.
    """

    name = "score_analyze"
    unit = "examples scored"
    n = 10000
    bins = 20

    def setup(self, seed, inputs):
        from curlearn.synthetic import make_noisy_corpus

        ds = make_noisy_corpus(self.n, noise=0.1, words_per_text=24,
                               vocab_per_class=12500, shared_vocab=21000,
                               seed=derived_seed(seed, 0))
        write_dataset(ds.examples, inputs / "train.jsonl")
        with open(inputs / "config.json", "w", encoding="utf-8") as fh:
            json.dump({"optimizer.kind": "sgd", "probe.fraction": 0.3, "probe.epochs": 2},
                      fh)

    def commands(self, inputs, out):
        scores = str(out / "scores.jsonl")
        return [(["score", "--dataset", str(inputs / "train.jsonl"),
                  "--config", str(inputs / "config.json"), "--out", scores],
                 ["scores.jsonl"]),
                (["analyze", scores, "--bins", str(self.bins),
                  "--out", str(out / "hist.csv")],
                 ["hist.csv"])]

    def check(self, inputs, out, rel):
        if rel == "scores.jsonl":
            return checks.check_scores(out / rel, self.n)
        return checks.check_histogram(out / rel, self.n, self.bins)

    def units(self):
        return self.n

    def accuracy(self, inputs, out):
        probs = read_scores_jsonl(out / "scores.jsonl")
        return float(np.mean(np.argmax(probs, axis=1) == read_labels(inputs / "train.jsonl")))


WORKLOADS = {w.name: w for w in (CompareGrid(), PlanExternal(), ScoreAnalyze())}
