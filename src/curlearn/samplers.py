"""Epoch schedules for the six curriculum strategies and two baselines.

Every strategy emits an EpochPlan whose ``order`` is a permutation of the
training set, so per-epoch accounting (checkpoints at fractions of the
examples seen) stays exact:

* E2D / D2E   — fixed easiest-first / hardest-first order.
* SME / SMD   — weighted sampling without replacement, rank weight n^2 on a
  difficulty-sorted list (ascending for SME, descending for SMD).
* PME / PMD   — each batch of b is drawn as ceil(9b/16) examples (9 of 16)
  under the n^2 law, then the rest under the complement law (N-n)^2, from
  the pool of examples not yet used this epoch.
* Random      — uniform permutation.  Length — shortest-first.

Weighted sampling without replacement is realized as an exponential race
(weighted_permutation, the one place the races are drawn): item i gets
arrival time Exp(1)/w_i and the permutation sorts by arrival.  That
distribution is exactly the successive-draw law
P(next = i | remaining) = w_i / sum of remaining weights.  Items with zero
weight (the complement law gives rank N weight zero) have infinite arrival
time: they come after every positive-weight item, ordered by ascending id.
PME/PMD draw one race per law per epoch and consume both with skipping
cursors, which keeps the law exact at O(N log N) per epoch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .dataset_io import Dataset, open_atomic
from .scoring import RankedList, ScoreTable, rank_examples


class Strategy(enum.Enum):
    RANDOM = "Random"
    LENGTH = "Length"
    E2D = "E2D"
    D2E = "D2E"
    SME = "SME"
    SMD = "SMD"
    PME = "PME"
    PMD = "PMD"

    @classmethod
    def parse(cls, name: str) -> "Strategy":
        for member in cls:
            if member.value == name:
                return member
        valid = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown strategy {name!r}; valid strategies: {valid}")

    @property
    def needs_scores(self) -> bool:
        return self not in (Strategy.RANDOM, Strategy.LENGTH)


# Sort direction of the ranked list each strategy consumes.
RANK_DIRECTION = {
    Strategy.E2D: "descending",
    Strategy.SMD: "descending",
    Strategy.PMD: "descending",
    Strategy.D2E: "ascending",
    Strategy.SME: "ascending",
    Strategy.PME: "ascending",
}

DEFAULT_BATCH_SIZE = 16


def rank_weights(N: int, law: str = "square") -> np.ndarray:
    """w_n = n^2, or w_n = (N-n)^2 for the complement law (rank N gets 0).

    The weights are raw; a without-replacement sampler only sees their
    relative proportions, so each law is normalized over its own sum.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    n = np.arange(1, N + 1, dtype=np.float64)
    if law == "square":
        return n ** 2
    if law == "complement_square":
        return (N - n) ** 2
    raise ValueError(f"unknown rank weight law {law!r}")


@dataclass
class EpochPlan:
    """One epoch's ordered schedule: a permutation of the dataset's ids.

    ``batch_provenance[k]`` says which partition position k was drawn from:
    B1/B2 for the partitioned strategies, "whole" for everything else.
    """

    order: np.ndarray
    batch_provenance: np.ndarray

    def __post_init__(self):
        self.order = np.asarray(self.order, dtype=np.int64)
        if len(self.batch_provenance) != len(self.order):
            raise ValueError("batch_provenance must align with order")

    def __len__(self):
        return len(self.order)


def _whole_tags(n: int) -> np.ndarray:
    return np.full(n, "whole", dtype="<U5")


def sequential_plan(ranked: RankedList, which: Strategy) -> EpochPlan:
    """E2D/D2E: the ranked order itself is the schedule."""
    if which not in (Strategy.E2D, Strategy.D2E):
        raise ValueError(f"sequential_plan handles E2D/D2E, got {which}")
    _check_direction(ranked, which)
    return EpochPlan(order=ranked.order.copy(), batch_provenance=_whole_tags(len(ranked)))


def weighted_permutation(ids, weights, rng: np.random.Generator) -> np.ndarray:
    """Permutation distributed as successive weighted draws without replacement.

    P(position 0 = i) = w_i / sum(w); conditional on any prefix the next
    position follows the same law over the remaining weights. Zero-weight
    ids land after all positive-weight ids, ascending by id.
    """
    ids = np.asarray(ids, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    if len(ids) != len(w):
        raise ValueError("ids and weights must align")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    if not np.any(w > 0):
        raise ValueError("all weights are zero")
    arrivals = np.full(len(w), np.inf)
    pos = w > 0
    arrivals[pos] = rng.exponential(size=int(pos.sum())) / w[pos]
    return ids[np.lexsort((ids, arrivals))]


def probability_plan(ranked: RankedList, which: Strategy,
                     rng: np.random.Generator) -> EpochPlan:
    """SME/SMD: square-law weights by rank, then one weighted permutation."""
    if which not in (Strategy.SME, Strategy.SMD):
        raise ValueError(f"probability_plan handles SME/SMD, got {which}")
    _check_direction(ranked, which)
    weights = rank_weights(len(ranked), "square")
    order = weighted_permutation(ranked.order, weights, rng)
    return EpochPlan(order=order, batch_provenance=_whole_tags(len(ranked)))


def partitioned_plan(ranked: RankedList, which: Strategy, rng: np.random.Generator,
                     batch_size: int = DEFAULT_BATCH_SIZE,
                     split: tuple[int, int] | None = None) -> EpochPlan:
    """PME/PMD: per batch, draw split[0] ids under the square law and then
    split[1] under the complement law, all without replacement within the
    epoch; split defaults to ceil(9b/16) : rest at batch size b (9:7 at 16).
    A ragged final batch keeps the proportions, rounding B1 up."""
    if which not in (Strategy.PME, Strategy.PMD):
        raise ValueError(f"partitioned_plan handles PME/PMD, got {which}")
    _check_direction(ranked, which)
    if split is None:
        b1 = -(-9 * batch_size // 16)
        split = (b1, batch_size - b1)
    if split[0] + split[1] != batch_size:
        raise ValueError(f"partition split {split} must sum to batch_size {batch_size}")
    N = len(ranked)
    if N == 0:
        raise ValueError("empty dataset")
    tags = []
    for start in range(0, N, batch_size):
        left = min(batch_size, N - start)
        b1 = -(-left * split[0] // batch_size)  # ceil: split[0] in a full batch, B1 first
        tags += ["B1"] * b1 + ["B2"] * (left - b1)

    # One race per law over rank positions, each consumed by a cursor that
    # skips positions the other race already took. This is exact: given the
    # history, every position left in a race has a key above that race's
    # last taken key and no other constraint, so by memorylessness the
    # residual keys are fresh Exp(w_i) and the next pick follows
    # w_i / sum of remaining w, zero weights last and ties by position.
    # At N = 1 the complement law is all zero: its race is the one position.
    positions = np.arange(N)
    square = weighted_permutation(positions, rank_weights(N, "square"), rng)
    complement = (weighted_permutation(positions, rank_weights(N, "complement_square"), rng)
                  if N > 1 else positions)
    races = {"B1": iter(square.tolist()), "B2": iter(complement.tolist())}
    used = [False] * N
    picks = []
    for tag in tags:
        for pos in races[tag]:  # never runs dry: every unused position is still ahead
            if not used[pos]:
                break
        used[pos] = True
        picks.append(pos)
    return EpochPlan(order=ranked.order[picks], batch_provenance=np.array(tags, dtype="<U5"))


def baseline_plan(dataset: Dataset, which: Strategy, rng: np.random.Generator | None = None,
                  length_index: np.ndarray | None = None) -> EpochPlan:
    """Random: uniform permutation. Length: shortest-first by ``length_index``
    (``dataset_io.token_lengths``), ties by id."""
    ids = dataset.ids
    if which is Strategy.RANDOM:
        if rng is None:
            raise ValueError("Random baseline needs an rng")
        order = ids[rng.permutation(len(ids))]
    elif which is Strategy.LENGTH:
        if length_index is None:
            raise ValueError("Length baseline needs a token length index")
        if len(length_index) != len(ids):
            raise ValueError("length index misaligned with dataset")
        order = ids[np.lexsort((ids, length_index))]
    else:
        raise ValueError(f"baseline_plan handles Random/Length, got {which}")
    return EpochPlan(order=order, batch_provenance=_whole_tags(len(ids)))


def make_plan(strategy: Strategy, score_table: ScoreTable | None, dataset: Dataset,
              rng: np.random.Generator | None = None,
              batch_size: int = DEFAULT_BATCH_SIZE,
              split: tuple[int, int] | None = None,
              length_index: np.ndarray | None = None) -> EpochPlan:
    """Route a strategy to its plan constructor; ``batch_size`` and ``split`` shape PME/PMD."""
    if isinstance(strategy, str):
        strategy = Strategy.parse(strategy)
    if strategy.needs_scores:
        if score_table is None:
            raise ValueError(f"strategy {strategy.value} needs difficulty scores")
        ranked = rank_examples(score_table, RANK_DIRECTION[strategy])
        if strategy in (Strategy.E2D, Strategy.D2E):
            return sequential_plan(ranked, strategy)
        if strategy in (Strategy.SME, Strategy.SMD):
            return probability_plan(ranked, strategy, rng)
        return partitioned_plan(ranked, strategy, rng, batch_size=batch_size, split=split)
    return baseline_plan(dataset, strategy, rng=rng, length_index=length_index)


def _check_direction(ranked: RankedList, which: Strategy) -> None:
    want = RANK_DIRECTION[which]
    if ranked.direction != want:
        raise ValueError(f"{which.value} needs a {want} ranking, got {ranked.direction}")


def write_plan_jsonl(plans, path) -> None:
    """Dump plans as JSONL: {epoch, position, example_id, partition_tag}.

    The lines are the bytes of ``json.dumps`` with its default separators,
    built without a json call per position: ids and positions are ints, and
    the tags (B1, B2, whole) need no escaping.
    """
    with open_atomic(path, encoding="utf-8") as fh:
        for epoch, plan in enumerate(plans):
            fh.writelines(
                f'{{"epoch": {epoch}, "position": {position}, "example_id": {ex_id}, '
                f'"partition_tag": "{tag}"}}\n'
                for position, (ex_id, tag) in enumerate(
                    zip(plan.order.tolist(), plan.batch_provenance.tolist())))
