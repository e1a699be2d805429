"""What each sampling strategy does to one epoch's schedule.

Every strategy emits a permutation of the training set; they differ only in
how the difficulty ranking shapes the order.
"""

import numpy as np

from curlearn import Strategy, make_plan, rank_weights, token_lengths
from curlearn.scoring import ScoreTable

# Ten examples whose score equals id/10: id 0 is hardest, id 9 easiest.
scores = np.linspace(0.0, 0.9, 10)
dists = np.stack([(1 + scores) / 2, (1 - scores) / 2], axis=1)
table = ScoreTable(ids=np.arange(10), scores=scores, distributions=dists)

from curlearn.dataset_io import Dataset, Example
corpus = Dataset(examples=[Example(id=i, text="word " * (i + 1), label=i % 2)
                           for i in range(10)], class_count=2)
lengths = token_lengths(corpus)

print("example ids by difficulty: 0 hardest ... 9 easiest\n")
for strategy in Strategy:
    plan = make_plan(strategy, table, corpus, rng=np.random.default_rng(66),
                     length_index=lengths)
    print(f"{strategy.value:7s} {plan.order.tolist()}")

# The probabilistic strategies weight rank n by n^2; later ranks dominate.
w = rank_weights(10, "square")
print("\nsquare-law sampling probabilities by rank:")
print(np.round(w / w.sum(), 3).tolist())
w2 = rank_weights(10, "complement_square")
print("complement-law (note rank 10 gets zero):")
print(np.round(w2 / w2.sum(), 3).tolist())

# PME/PMD split every 16-example batch: 9 draws favoring one end of the
# ranking, then 7 favoring the other, all without replacement.
big_scores = np.linspace(0, 1, 32)
big_table = ScoreTable(ids=np.arange(32), scores=big_scores,
                       distributions=np.stack([(1 + big_scores) / 2,
                                               (1 - big_scores) / 2], axis=1))
big_corpus = Dataset(examples=[Example(id=i, text="x", label=0) for i in range(32)],
                     class_count=2)
plan = make_plan(Strategy.PME, big_table, big_corpus, rng=np.random.default_rng(1))
print("\nPME batch structure (B1 = easy-favoring, B2 = hard-favoring):")
for start in range(0, 32, 16):
    tags = plan.batch_provenance[start:start + 16]
    ids = plan.order[start:start + 16]
    print("  tags:", "".join("1" if t == "B1" else "2" for t in tags),
          " ids:", ids.tolist())

# Re-running with the same seed reproduces the same plan, bit for bit.
again = make_plan(Strategy.PME, big_table, big_corpus, rng=np.random.default_rng(1))
print("\nsame seed, same plan:", np.array_equal(plan.order, again.order))
