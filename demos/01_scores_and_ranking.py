"""Difficulty scores from class probabilities, step by step.

The score of an example is the margin between its two largest class
probabilities: 0 = the model cannot tell the classes apart (hardest),
1 = fully confident (easiest).
"""

import numpy as np

from curlearn import rank_examples, score_dataset, score_histogram
from curlearn.scoring import margins_from_matrix, score_table_from_probs
from curlearn.synthetic import make_noisy_corpus
from curlearn.toy_model import FeatureMatrix, build_probe_scorer, probabilities

# Scores are computed for a whole (N, C) probability matrix at once, one row
# per example. A distribution that is all but decided is easy, a coin flip is
# maximally hard, and for multi-class only the top two probabilities matter.
print("margins of [0.95, 0.05], [0.5, 0.5] ->",
      margins_from_matrix(np.array([[0.95, 0.05], [0.5, 0.5]])).round(3).tolist())
print("margin of [0.6, 0.3, 0.1]           ->",
      margins_from_matrix(np.array([[0.6, 0.3, 0.1]])).round(3).tolist())

# Raw verbalizer-style mass (as in a score file) is renormalized over its own
# sum before it is scored.
raw = score_table_from_probs(np.array([[3.0, 1.0]]), ids=[0])
print("raw row [3, 1] -> renormalized", raw.distributions[0].tolist(),
      "margin", raw.scores[0])

# Score a whole corpus with a quick throwaway probe model. The probe stands
# in for pre-trained confidence; external score files are the faithful path.
# The corpus is hashed once; the probe trains on half of its rows, and one
# batch pass over all of them gives every example's class probabilities.
corpus = make_noisy_corpus(400, noise=0.1, seed=0)
feats = FeatureMatrix.build(corpus, dim=2 ** 12)
probe = build_probe_scorer(corpus, feats, probe_fraction=0.5, probe_epochs=4, seed=0)
table = score_dataset(probabilities(feats.logits(probe)), corpus)
print(f"\nscored {len(table)} examples; "
      f"mean {table.scores.mean():.3f}, min {table.scores.min():.3f}, "
      f"max {table.scores.max():.3f}")

# Ranking sorts ids by score, ties broken by ascending id. Descending order
# puts the easiest examples first.
ranked = rank_examples(table, "descending")
print("five easiest ids:", ranked.order[:5].tolist())
print("five hardest ids:", ranked.order[-5:].tolist())

# A histogram over [0, 1] summarizes the distribution, split by whether the
# probe classifies each example correctly.
preds = np.argmax(table.distributions, axis=1)
hist = score_histogram(table, preds, corpus.labels, bins=10)
print("\nbin     correct incorrect")
for b in range(10):
    lo, hi = hist.bin_edges[b], hist.bin_edges[b + 1]
    print(f"[{lo:.1f},{hi:.1f})   {hist.counts_correct[b]:5d} {hist.counts_incorrect[b]:7d}")
print("low-score bins carry most of the mistakes; that is the whole premise.")
