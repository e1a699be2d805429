"""Selecting 64 training examples per strategy and training on them alone."""

import numpy as np

from curlearn import Strategy, few_shot_select, score_dataset
from curlearn.synthetic import make_noisy_corpus
from curlearn.toy_model import FeatureMatrix, build_probe_scorer, probabilities
from curlearn.trainer import TrainConfig, run_training

train = make_noisy_corpus(1000, noise=0.1, seed=5, split_tag="train")
val = make_noisy_corpus(200, noise=0.1, seed=6, split_tag="validation")
test = make_noisy_corpus(200, noise=0.1, seed=7, split_tag="test")

feats = FeatureMatrix.build(train, dim=2 ** 14)
probe = build_probe_scorer(train, feats, probe_fraction=0.1, probe_epochs=1, seed=0)
table = score_dataset(probabilities(feats.logits(probe)), train)

print("mean difficulty score of each 64-example selection:")
subsets = {}
for strategy in Strategy:
    rng = np.random.default_rng(66)
    subset = few_shot_select(strategy, table, train, k=64, rng=rng)
    subsets[strategy] = subset
    picked = table.restrict(subset.ids).scores
    print(f"  {strategy.value:7s} mean score {picked.mean():.3f}  "
          f"(E2D should be highest, D2E lowest)")

# Train on the 64 selected by one strategy and evaluate on the full test set.
config = TrainConfig(epochs=5, strategy="SME", dim=2 ** 14)
subset = subsets[Strategy.SME]
outcome = run_training(subset, val, test, config, seed=66,
                       score_table=table.restrict(subset.ids))
print(f"\nSME few-shot run: trained on {outcome.report.n_train} examples, "
      f"test accuracy {outcome.report.test_metrics.accuracy:.4f}")
