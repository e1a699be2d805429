import inspect
import itertools
import json
import math

import numpy as np
import pytest
from scipy import stats

from curlearn import samplers
from curlearn.samplers import (Strategy, baseline_plan, make_plan, partitioned_plan,
                               probability_plan, rank_weights, sequential_plan,
                               weighted_permutation, write_plan_jsonl)
from curlearn.scoring import rank_examples

from conftest import dataset_from_scores


# ----------------------------------------------------------------- strategy


def test_strategy_parse_accepts_all_eight():
    names = ["Random", "Length", "E2D", "D2E", "SME", "SMD", "PME", "PMD"]
    assert [Strategy.parse(n).value for n in names] == names


def test_strategy_parse_rejects_unknown():
    with pytest.raises(ValueError, match="E2D.*PMD"):
        Strategy.parse("EasyFirst")


# --------------------------------------------------------------- rank weights


def test_square_law_n3():
    w = rank_weights(3, "square")
    assert w.tolist() == [1.0, 4.0, 9.0]
    assert w.sum() == 14.0
    assert w / w.sum() == pytest.approx([1 / 14, 4 / 14, 9 / 14])


def test_complement_law_n3():
    w = rank_weights(3, "complement_square")
    assert w.tolist() == [4.0, 1.0, 0.0]


def test_square_law_degenerate_n1():
    w = rank_weights(1, "square")
    assert w.tolist() == [1.0]
    assert w / w.sum() == pytest.approx([1.0])


def test_rank_weights_rejects_n0():
    with pytest.raises(ValueError):
        rank_weights(0, "square")


# ------------------------------------------------------- weighted permutation


def test_forced_draw_and_zero_weight_rule():
    for seed in range(20):
        order = weighted_permutation([0, 1], [0.0, 1.0], np.random.default_rng(seed))
        assert order.tolist() == [1, 0]


def test_zero_weight_tail_in_ascending_id_order():
    for seed in range(20):
        order = weighted_permutation([0, 1, 2, 3], [3.0, 0.0, 1.0, 0.0],
                                     np.random.default_rng(seed))
        assert order[-2:].tolist() == [1, 3]


def test_all_zero_weights_rejected():
    with pytest.raises(ValueError, match="zero"):
        weighted_permutation([0, 1], [0.0, 0.0], np.random.default_rng(0))


def test_negative_weights_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        weighted_permutation([0, 1], [1.0, -1.0], np.random.default_rng(0))


def test_uniform_weights_give_equiprobable_permutations():
    trials = 60_000
    counts = {}
    for t in range(trials):
        order = weighted_permutation([0, 1, 2], [1.0, 1.0, 1.0],
                                     np.random.default_rng(t))
        key = tuple(order.tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    p = 1 / 6
    bound = 4 * math.sqrt(p * (1 - p) / trials)
    for key in itertools.permutations(range(3)):
        assert abs(counts.get(key, 0) / trials - p) < bound


def successive_draw_probability(sequence, weights):
    """Independent oracle: product of conditional weighted-draw probabilities."""
    remaining = set(range(len(weights)))
    prob = 1.0
    for item in sequence:
        total = sum(weights[j] for j in remaining)
        if total > 0:
            if weights[item] == 0:
                return 0.0
            prob *= weights[item] / total
        else:
            if item != min(remaining):
                return 0.0
        remaining.discard(item)
    return prob


def test_weighted_permutation_matches_exact_multinomial_oracle():
    weights = [1.0, 2.0, 3.0]
    trials = 60_000
    counts = {}
    for t in range(trials):
        key = tuple(weighted_permutation([0, 1, 2], weights,
                                         np.random.default_rng(t)).tolist())
        counts[key] = counts.get(key, 0) + 1
    expected = {seq: successive_draw_probability(seq, weights)
                for seq in itertools.permutations(range(3))}
    assert sum(expected.values()) == pytest.approx(1.0)
    for seq, p in expected.items():
        emp = counts.get(seq, 0) / trials
        assert abs(emp - p) < 5 * math.sqrt(p * (1 - p) / trials) + 1e-4


def test_square_law_first_draw_is_easiest_with_prob_9_14():
    # ids sorted ascending by difficulty score: id 2 holds rank 3, weight 9
    weights = rank_weights(3, "square")
    trials = 100_000
    hits = sum(weighted_permutation([0, 1, 2], weights,
                                    np.random.default_rng(t))[0] == 2
               for t in range(trials))
    assert abs(hits / trials - 9 / 14) < 0.01


# ------------------------------------------------------------ sequential plans


def test_e2d_plan_is_descending_ranking():
    _, table = dataset_from_scores([0.1, 0.9, 0.5])
    plan = sequential_plan(rank_examples(table, "descending"), Strategy.E2D)
    assert plan.order.tolist() == [1, 2, 0]
    assert set(plan.batch_provenance.tolist()) == {"whole"}


def test_d2e_plan_is_ascending_ranking():
    _, table = dataset_from_scores([0.1, 0.9, 0.5])
    plan = sequential_plan(rank_examples(table, "ascending"), Strategy.D2E)
    assert plan.order.tolist() == [0, 2, 1]


def test_d2e_reverses_e2d_for_distinct_scores():
    _, table = dataset_from_scores([0.3, 0.8, 0.15, 0.55])
    e2d = sequential_plan(rank_examples(table, "descending"), Strategy.E2D)
    d2e = sequential_plan(rank_examples(table, "ascending"), Strategy.D2E)
    assert e2d.order.tolist() == d2e.order.tolist()[::-1]


def test_sequential_plan_rejects_direction_mismatch():
    _, table = dataset_from_scores([0.1, 0.9])
    with pytest.raises(ValueError, match="descending"):
        sequential_plan(rank_examples(table, "ascending"), Strategy.E2D)


# ---------------------------------------------------------- probability plans


def test_sme_favors_easy_first():
    _, table = dataset_from_scores([0.0, 0.5, 1.0])  # id 2 easiest
    ranked = rank_examples(table, "ascending")
    trials = 100_000
    hits = 0
    for t in range(trials):
        plan = probability_plan(ranked, Strategy.SME, np.random.default_rng(t))
        hits += plan.order[0] == 2
    assert abs(hits / trials - 9 / 14) < 0.01


def test_smd_mirrors_sme_hardest_first():
    _, table = dataset_from_scores([0.0, 0.5, 1.0])  # id 0 hardest
    ranked = rank_examples(table, "descending")
    trials = 30_000
    hits = 0
    for t in range(trials):
        plan = probability_plan(ranked, Strategy.SMD, np.random.default_rng(t))
        hits += plan.order[0] == 0
    assert abs(hits / trials - 9 / 14) < 0.015


def test_probability_plan_always_a_permutation():
    rng = np.random.default_rng(0)
    _, table = dataset_from_scores(rng.random(37))
    ranked = rank_examples(table, "ascending")
    for seed in range(10):
        plan = probability_plan(ranked, Strategy.SME, np.random.default_rng(seed))
        assert sorted(plan.order.tolist()) == list(range(37))


def test_probability_plan_rejects_direction_mismatch():
    _, table = dataset_from_scores([0.1, 0.9])
    with pytest.raises(ValueError, match="ascending"):
        probability_plan(rank_examples(table, "descending"), Strategy.SME,
                         np.random.default_rng(0))


# ---------------------------------------------------------- partitioned plans


def test_partitioned_full_batches_carry_9_then_7_tags():
    rng = np.random.default_rng(1)
    _, table = dataset_from_scores(rng.random(32))
    plan = partitioned_plan(rank_examples(table, "ascending"), Strategy.PME,
                            np.random.default_rng(0))
    tags = plan.batch_provenance.tolist()
    assert tags == (["B1"] * 9 + ["B2"] * 7) * 2
    assert sorted(plan.order.tolist()) == list(range(32))


def test_partitioned_ragged_final_batch_splits_3_1():
    rng = np.random.default_rng(2)
    _, table = dataset_from_scores(rng.random(20))
    plan = partitioned_plan(rank_examples(table, "ascending"), Strategy.PME,
                            np.random.default_rng(0))
    tags = plan.batch_provenance.tolist()
    assert tags[:16] == ["B1"] * 9 + ["B2"] * 7
    assert tags[16:] == ["B1"] * 3 + ["B2"]


@pytest.mark.parametrize("batch_size, full, ragged", [
    # full batches ceil(9b/16) : rest; the ragged batch of b - 3 rounds B1 up
    (16, (9, 7), (8, 5)), (32, (18, 14), (17, 12)), (8, (5, 3), (4, 1)), (1, (1, 0), None),
])
def test_partitioned_default_split_follows_the_batch_size(batch_size, full, ragged):
    n = 3 * batch_size - (3 if ragged else 0)
    _, table = dataset_from_scores(np.linspace(0, 1, n))
    for strategy, direction in ((Strategy.PME, "ascending"), (Strategy.PMD, "descending")):
        plan = partitioned_plan(rank_examples(table, direction), strategy,
                                np.random.default_rng(0), batch_size=batch_size)
        tags = plan.batch_provenance.tolist()
        shape = [full, full] + [ragged or full]
        assert tags == [t for b1, b2 in shape for t in ["B1"] * b1 + ["B2"] * b2]


def test_partitioned_plan_rejects_bad_split():
    _, table = dataset_from_scores([0.1, 0.9])
    with pytest.raises(ValueError, match="sum to batch_size"):
        partitioned_plan(rank_examples(table, "ascending"), Strategy.PME,
                         np.random.default_rng(0), split=(9, 6))


def test_pme_first_b1_draw_favors_the_easy_tail():
    # scores ascend with id, so the id at ascending rank n is n-1
    _, table = dataset_from_scores(np.linspace(0, 1, 10))
    ranked = rank_examples(table, "ascending")
    trials = 100_000
    at_least_rank5 = 0
    at_least_rank6 = 0
    for t in range(trials):
        first = partitioned_plan(ranked, Strategy.PME,
                                 np.random.default_rng(t)).order[0]
        rank = int(first) + 1
        at_least_rank5 += rank >= 5
        at_least_rank6 += rank >= 6
    # analytic tail sums of n^2/385 over ranks 5..10 and 6..10
    assert abs(at_least_rank5 / trials - 355 / 385) < 0.01
    assert abs(at_least_rank6 / trials - 330 / 385) < 0.01


@pytest.mark.parametrize("N, batch_size, split, laws", [
    # N=6 -> one ragged batch drawn as 4 square-law then 2 complement-law picks
    (6, 16, (9, 7), "111122"),
    # N=5 in batches of 2 split 1:1 -> B1 B2 B1 B2 B1, so each race's cursor
    # has to skip positions the other race took in earlier batches
    (5, 2, (1, 1), "12121"),
], ids=["N6-ragged", "N5-batches"])
def test_partitioned_plan_matches_successive_draw_oracle_by_enumeration(N, batch_size,
                                                                        split, laws):
    trials = 100_000
    _, table = dataset_from_scores(np.linspace(0, 1, N))
    ranked = rank_examples(table, "ascending")
    w1 = rank_weights(N, "square")
    w2 = rank_weights(N, "complement_square")

    def oracle(seq):
        remaining = set(range(N))
        prob = 1.0
        for k, item in enumerate(seq):
            w = w1 if laws[k] == "1" else w2
            total = sum(w[j] for j in remaining)
            if total > 0:
                if w[item] == 0:
                    return 0.0
                prob *= w[item] / total
            elif item != min(remaining):
                return 0.0
            remaining.discard(item)
        return prob

    expected = {seq: oracle(seq) for seq in itertools.permutations(range(N))}
    assert sum(expected.values()) == pytest.approx(1.0)

    counts = {}
    for t in range(trials):
        plan = partitioned_plan(ranked, Strategy.PME, np.random.default_rng(t),
                                batch_size=batch_size, split=split)
        key = tuple(int(i) for i in plan.order)
        counts[key] = counts.get(key, 0) + 1
    assert "".join(tag[1] for tag in plan.batch_provenance) == laws  # the oracle's laws

    for seq, p in expected.items():
        emp = counts.get(seq, 0) / trials
        if p == 0.0:
            assert emp == 0.0  # impossible under the zero-weight rule
        else:
            assert abs(emp - p) < 5.5 * math.sqrt(p * (1 - p) / trials) + 1e-4

    possible = [seq for seq, p in expected.items() if p > 0]
    want = np.array([expected[seq] * trials for seq in possible])
    got = np.array([counts.get(seq, 0) for seq in possible])

    # An exact two-sided binomial tail per possible sequence (twice the
    # smaller tail), at a family-wise alpha of 1e-6, Bonferroni over the
    # 600 + 72 possible sequences of both cases. Unlike the z bound above it
    # needs no normal approximation, which is poor for cells expected about
    # 50 times.
    assert len(possible) == {"111122": 600, "12121": 72}[laws]
    cell_p = [expected[seq] for seq in possible]
    tail = np.minimum(stats.binom.cdf(got, trials, cell_p),
                      stats.binom.sf(got - 1, trials, cell_p))
    cell_p_value = np.minimum(1.0, 2 * tail)
    assert cell_p_value.min() > 1e-6 / (600 + 72), (cell_p_value.min(),
                                                   possible[int(cell_p_value.argmin())])

    # One chi-square over every possible sequence, at a family-wise alpha of
    # 1e-6 over both cases (Bonferroni: 5e-7 each). Cells expected fewer than
    # 5 times are pooled into one bin, as the chi-square approximation needs.
    small = want < 5
    if small.any():
        want = np.append(want[~small], want[small].sum())
        got = np.append(got[~small], got[small].sum())
    statistic, p_value = stats.chisquare(got, want)
    assert p_value > 1e-6 / 2, (statistic, p_value)


def test_b2_race_alone_at_n1_gives_the_one_id():
    _, table = dataset_from_scores([0.5])
    plan = partitioned_plan(rank_examples(table, "ascending"), Strategy.PME,
                            np.random.default_rng(0), split=(0, 16))
    assert plan.order.tolist() == [0]
    assert plan.batch_provenance.tolist() == ["B2"]


def test_b2_race_at_n2_puts_the_zero_weight_rank_last():
    # ascending ranking: id 0 holds rank 1 (weight 1), id 1 rank 2 (weight 0)
    _, table = dataset_from_scores([0.1, 0.9])
    ranked = rank_examples(table, "ascending")
    for seed in range(20):
        plan = partitioned_plan(ranked, Strategy.PME, np.random.default_rng(seed),
                                batch_size=2, split=(0, 2))
        assert plan.order.tolist() == [0, 1]
        assert plan.batch_provenance.tolist() == ["B2", "B2"]


def test_pmd_equals_pme_on_negated_scores():
    rng = np.random.default_rng(3)
    scores = rng.permutation(24) / 24.0
    _, table_desc = dataset_from_scores(scores)
    ranked_desc = rank_examples(table_desc, "descending")
    _, table_neg = dataset_from_scores(-scores)
    ranked_asc_neg = rank_examples(table_neg, "ascending")
    for seed in range(10):
        pmd = partitioned_plan(ranked_desc, Strategy.PMD, np.random.default_rng(seed))
        pme = partitioned_plan(ranked_asc_neg, Strategy.PME, np.random.default_rng(seed))
        assert pmd.order.tolist() == pme.order.tolist()
        assert pmd.batch_provenance.tolist() == pme.batch_provenance.tolist()


# -------------------------------------------------------------- baseline plans


def test_length_baseline_sorts_shortest_first(tiny_dataset):
    idx = np.array([5, 2, 9, 2, 4])
    plan = baseline_plan(tiny_dataset, Strategy.LENGTH, length_index=idx)
    assert plan.order.tolist() == [1, 3, 4, 0, 2]  # ties (ids 1,3) by id


def test_length_baseline_spec_example():
    ds, _ = dataset_from_scores([0.0, 0.0, 0.0])
    idx = np.array([5, 2, 9])
    plan = baseline_plan(ds, Strategy.LENGTH, length_index=idx)
    assert plan.order.tolist() == [1, 0, 2]


def test_random_baseline_deterministic_per_seed(tiny_dataset):
    a = baseline_plan(tiny_dataset, Strategy.RANDOM, np.random.default_rng(42))
    b = baseline_plan(tiny_dataset, Strategy.RANDOM, np.random.default_rng(42))
    assert a.order.tolist() == b.order.tolist()


def test_random_baseline_uniform_first_position():
    ds, _ = dataset_from_scores([0.0] * 4)
    trials = 48_000
    firsts = np.zeros(4)
    for t in range(trials):
        plan = baseline_plan(ds, Strategy.RANDOM, np.random.default_rng(t))
        firsts[plan.order[0]] += 1
    bound = 4 * math.sqrt(0.25 * 0.75 / trials)
    assert np.max(np.abs(firsts / trials - 0.25)) < bound


def test_length_requires_index(tiny_dataset):
    with pytest.raises(ValueError, match="length"):
        baseline_plan(tiny_dataset, Strategy.LENGTH)


# ------------------------------------------------------------------ make_plan


def test_make_plan_e2d_delegates_to_descending_ranking():
    ds, table = dataset_from_scores([0.1, 0.9, 0.5])
    plan = make_plan(Strategy.E2D, table, ds)
    assert plan.order.tolist() == [1, 2, 0]


def test_make_plan_random_without_scores():
    ds, _ = dataset_from_scores([0.0, 0.0, 0.0])
    plan = make_plan(Strategy.RANDOM, None, ds, rng=np.random.default_rng(0))
    assert sorted(plan.order.tolist()) == [0, 1, 2]


def test_make_plan_curriculum_without_scores_fails():
    ds, _ = dataset_from_scores([0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="needs difficulty scores"):
        make_plan(Strategy.SME, None, ds, rng=np.random.default_rng(0))


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("n", [1, 2, 16, 17, 100])
def test_every_strategy_emits_permutations(strategy, n):
    rng = np.random.default_rng(n)
    ds, table = dataset_from_scores(rng.random(n))
    lengths = rng.integers(1, 30, size=n)
    for seed in range(5):
        plan = make_plan(strategy, table, ds, rng=np.random.default_rng(seed),
                         length_index=lengths)
        assert sorted(plan.order.tolist()) == list(range(n))


@pytest.mark.parametrize("strategy", list(Strategy))
def test_seed_determinism_per_strategy(strategy):
    rng = np.random.default_rng(7)
    ds, table = dataset_from_scores(rng.random(33))
    lengths = rng.integers(1, 30, size=33)
    a = make_plan(strategy, table, ds, rng=np.random.default_rng(5), length_index=lengths)
    b = make_plan(strategy, table, ds, rng=np.random.default_rng(5), length_index=lengths)
    assert a.order.tolist() == b.order.tolist()
    assert a.batch_provenance.tolist() == b.batch_provenance.tolist()


def test_e2d_scores_non_increasing_and_d2e_non_decreasing():
    rng = np.random.default_rng(8)
    scores = rng.random(50)
    ds, table = dataset_from_scores(scores)
    by_id = dict(zip(range(50), scores))
    e2d = make_plan(Strategy.E2D, table, ds)
    d2e = make_plan(Strategy.D2E, table, ds)
    e2d_scores = [by_id[int(i)] for i in e2d.order]
    d2e_scores = [by_id[int(i)] for i in d2e.order]
    assert all(a >= b for a, b in zip(e2d_scores, e2d_scores[1:]))
    assert all(a <= b for a, b in zip(d2e_scores, d2e_scores[1:]))


def test_plan_jsonl_dump(tmp_path):
    ds, table = dataset_from_scores([0.1, 0.9, 0.5])
    plans = [make_plan(Strategy.PME, table, ds, rng=np.random.default_rng(e))
             for e in range(2)]
    path = tmp_path / "plan.jsonl"
    write_plan_jsonl(plans, path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == 6
    assert {r["epoch"] for r in records} == {0, 1}
    assert set(records[0]) == {"epoch", "position", "example_id", "partition_tag"}
    assert all(r["partition_tag"] in ("B1", "B2") for r in records)


def json_dumps_plan_lines(plans) -> bytes:
    """Reference writer: one json.dumps per position, as the plan file was first written."""
    return "".join(
        json.dumps({"epoch": epoch, "position": position, "example_id": int(ex_id),
                    "partition_tag": str(tag)}) + "\n"
        for epoch, plan in enumerate(plans)
        for position, (ex_id, tag) in enumerate(zip(plan.order, plan.batch_provenance))
    ).encode("utf-8")


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("batch_size, split", [(16, (9, 7)), (12, (5, 7))])
def test_plan_jsonl_bytes_equal_json_dumps_per_record(tmp_path, strategy, batch_size, split):
    rng = np.random.default_rng(5)
    n = 203  # ragged at both batch sizes
    ds, table = dataset_from_scores(rng.integers(0, 5, size=n) / 4)
    lengths = rng.integers(1, 30, size=n)
    plans = [make_plan(strategy, table, ds, rng=np.random.default_rng((11, epoch)),
                       batch_size=batch_size, split=split, length_index=lengths)
             for epoch in range(2)]
    path = tmp_path / "plan.jsonl"
    write_plan_jsonl(plans, path)
    assert path.read_bytes() == json_dumps_plan_lines(plans)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_plan_is_a_permutation_for_random_sizes_batches_and_splits(strategy):
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(1, 301))
        batch_size = int(rng.integers(1, 41))
        b1 = int(rng.integers(0, batch_size + 1))
        # ties in the scores exercise the id tie-break
        ds, table = dataset_from_scores(rng.integers(0, 5, size=n) / 4)
        lengths = rng.integers(1, 30, size=n)
        plan = make_plan(strategy, table, ds, rng=np.random.default_rng(int(rng.integers(1000))),
                         batch_size=batch_size, split=(b1, batch_size - b1),
                         length_index=lengths)
        assert sorted(plan.order.tolist()) == list(range(n)), (n, batch_size, b1)
        assert len(plan.batch_provenance) == n


# ------------------------------------------------------------- mutation check

# Each faulty sampler is one edit to the source of a curlearn.samplers
# function: (function, original text, faulty text).
SAMPLER_MUTANTS = {
    "B1-B2-laws-swapped": (
        "partitioned_plan",
        'races = {"B1": iter(square.tolist()), "B2": iter(complement.tolist())}',
        'races = {"B1": iter(complement.tolist()), "B2": iter(square.tolist())}'),
    "cursor-takes-used-positions": ("partitioned_plan", "if not used[pos]:", "if True:"),
    "ranks-off-by-one": ("rank_weights", "np.arange(1, N + 1,", "np.arange(2, N + 2,"),
    "zero-weights-not-last": ("weighted_permutation", "np.full(len(w), np.inf)",
                              "np.zeros(len(w))"),
    "ties-by-descending-id": ("weighted_permutation", "np.lexsort((ids, arrivals))",
                              "np.lexsort((-ids, arrivals))"),
}

LAW_TESTS = ["test_square_law_n3", "test_complement_law_n3",
             "test_forced_draw_and_zero_weight_rule",
             "test_zero_weight_tail_in_ascending_id_order",
             "test_partitioned_full_batches_carry_9_then_7_tags",
             "test_b2_race_alone_at_n1_gives_the_one_id",
             "test_b2_race_at_n2_puts_the_zero_weight_rank_last"]


@pytest.mark.parametrize("mutant", SAMPLER_MUTANTS)
def test_law_tests_catch_a_faulty_sampler(mutant, monkeypatch):
    name, original, faulty = SAMPLER_MUTANTS[mutant]
    source = inspect.getsource(getattr(samplers, name))
    assert source.count(original) == 1, "the mutant no longer matches the source"
    namespace = dict(vars(samplers))
    exec(compile(source.replace(original, faulty), samplers.__file__, "exec"), namespace)
    monkeypatch.setattr(samplers, name, namespace[name])
    if name in globals():  # law tests that call the function by its imported name
        monkeypatch.setitem(globals(), name, namespace[name])
    caught = []
    for law in LAW_TESTS:
        try:
            globals()[law]()
        except AssertionError:
            caught.append(law)
    assert caught, f"no law test fails under {mutant}"
