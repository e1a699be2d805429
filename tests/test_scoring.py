import csv

import numpy as np
import pytest

from curlearn.scoring import (ScoreTable, margins_from_matrix, rank_examples, score_dataset,
                              score_histogram, score_table_from_probs, write_histogram_csv)

from conftest import dataset_from_scores


def brute_force_margin(probs):
    ordered = sorted(probs, reverse=True)
    return ordered[0] - ordered[1]


def margin(probs):
    """The difficulty score of one probability vector, as a one-row matrix."""
    return float(margins_from_matrix(np.asarray([probs], dtype=np.float64))[0])


def renormalized(raw):
    """One raw row renormalized the way score files are (verbalizer-restricted)."""
    return score_table_from_probs([raw], ids=[0]).distributions[0]


# ---------------------------------------------------------------- normalize


def test_normalize_symmetric():
    assert renormalized([2, 2]) == pytest.approx([0.5, 0.5])


def test_normalize_direct_division():
    assert renormalized([3, 1]) == pytest.approx([0.75, 0.25])


def test_normalize_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.random(4) + 1e-3
        k = float(rng.random() * 10 + 0.1)
        a = score_table_from_probs([v], ids=[0]).scores[0]
        b = score_table_from_probs([k * v], ids=[0]).scores[0]
        assert a == pytest.approx(b, abs=1e-12)


# ----------------------------------------------------------- difficulty score


def test_margin_uniform_binary_is_zero():
    assert margin([0.5, 0.5]) == 0.0


def test_margin_one_hot_is_one():
    assert margin([1.0, 0.0]) == 1.0


def test_margin_three_class():
    assert margin([0.6, 0.3, 0.1]) == pytest.approx(0.3)


def test_margin_matches_brute_force_on_random_distributions():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        c = int(rng.choice([2, 3, 5]))
        probs = rng.random(c) + 1e-9
        probs /= probs.sum()
        got = margin(probs)
        assert got == pytest.approx(brute_force_margin(probs), abs=1e-12)


def test_margin_invariant_under_class_relabeling():
    rng = np.random.default_rng(2)
    for _ in range(100):
        probs = rng.random(5)
        probs /= probs.sum()
        base = margin(probs)
        perm = rng.permutation(5)
        assert margin(probs[perm]) == pytest.approx(base, abs=1e-12)


def test_margin_rejects_single_class():
    with pytest.raises(ValueError, match="two classes"):
        margin([1.0])


# ------------------------------------------------------------- score_dataset


def test_uniform_provider_scores_zero(tiny_dataset):
    table = score_dataset(np.full((5, 2), 0.5), tiny_dataset)
    assert table.scores == pytest.approx([0.0] * 5)


def test_one_hot_provider_scores_one(tiny_dataset):
    table = score_dataset(np.tile([1.0, 0.0], (5, 1)), tiny_dataset)
    assert table.scores == pytest.approx([1.0] * 5)


def test_external_provider_scores_match_hand_margins(tiny_dataset):
    rows = [[0.9, 0.1], [0.4, 0.6], [0.5, 0.5], [0.95, 0.05], [0.3, 0.7]]
    table = score_dataset(rows, tiny_dataset)
    assert table.scores == pytest.approx([0.8, 0.2, 0.0, 0.9, 0.4])
    assert table.ids.tolist() == tiny_dataset.ids.tolist()


def test_bad_row_names_the_id(tiny_dataset):
    # non-finite, negative, summing above 1, all zero
    for bad_row in ([np.nan, 0.5], [np.inf, 0.0], [-0.1, 1.1], [0.5, 0.6], [0.0, 0.0]):
        probs = np.full((5, 2), 0.5)
        probs[3] = bad_row
        with pytest.raises(ValueError, match="for id 3 "):
            score_dataset(probs, tiny_dataset)


@pytest.mark.parametrize("shape", [(4, 2), (5, 3), (10,)])
def test_wrong_shape_probabilities_rejected(tiny_dataset, shape):
    with pytest.raises(ValueError, match="shape"):
        score_dataset(np.full(shape, 0.5), tiny_dataset)


def test_score_table_recomputable_from_distributions(tiny_dataset):
    table = score_dataset(np.tile([0.7, 0.3], (5, 1)), tiny_dataset)
    assert table.scores == pytest.approx(margins_from_matrix(table.distributions))


# ------------------------------------------------------------------- ranking


def test_rank_descending_three_elements():
    _, table = dataset_from_scores([0.2, 0.9, 0.5])
    assert rank_examples(table, "descending").order.tolist() == [1, 2, 0]


def test_rank_tie_broken_by_ascending_id():
    _, table = dataset_from_scores([0.4, 0.4])
    assert rank_examples(table, "ascending").order.tolist() == [0, 1]
    assert rank_examples(table, "descending").order.tolist() == [0, 1]


def test_rank_matches_reference_sort_on_random_scores():
    rng = np.random.default_rng(3)
    scores = rng.random(1000)
    _, table = dataset_from_scores(scores)
    want = [i for _, i in sorted((s, i) for i, s in enumerate(scores))]
    assert rank_examples(table, "ascending").order.tolist() == want
    assert rank_examples(table, "descending").order.tolist() == want[::-1]


def test_rank_directions_are_reverses_for_distinct_scores():
    rng = np.random.default_rng(4)
    scores = rng.permutation(50) / 50.0
    _, table = dataset_from_scores(scores)
    asc = rank_examples(table, "ascending").order.tolist()
    desc = rank_examples(table, "descending").order.tolist()
    assert asc == desc[::-1]


def test_rank_rejects_empty_table():
    table = ScoreTable(ids=np.array([], dtype=np.int64), scores=np.array([]),
                       distributions=np.zeros((0, 2)))
    with pytest.raises(ValueError, match="empty"):
        rank_examples(table, "ascending")


# ----------------------------------------------------------------- histogram


def test_histogram_score_one_goes_to_last_bin():
    _, table = dataset_from_scores([0.0, 1.0])
    rep = score_histogram(table, predictions=[0, 0], labels=[0, 0], bins=2)
    assert rep.counts_correct.tolist() == [1, 1]
    assert rep.counts_incorrect.tolist() == [0, 0]


def test_histogram_without_predictions_conserves_total():
    rng = np.random.default_rng(5)
    _, table = dataset_from_scores(rng.random(10))
    rep = score_histogram(table, bins=4)
    assert not rep.split_by_correctness
    assert int(rep.total_counts.sum()) == 10


def test_histogram_matches_brute_force_binning():
    rng = np.random.default_rng(6)
    scores = rng.random(500)
    scores[:3] = [0.0, 1.0, 0.999999]
    ds, table = dataset_from_scores(scores)
    preds = rng.integers(0, 2, size=500)
    labels = ds.labels
    bins = 7
    rep = score_histogram(table, preds, labels, bins=bins)
    expect_c = [0] * bins
    expect_i = [0] * bins
    for s, p, y in zip(scores, preds, labels):
        b = min(int(s * bins), bins - 1)
        if p == y:
            expect_c[b] += 1
        else:
            expect_i[b] += 1
    assert rep.counts_correct.tolist() == expect_c
    assert rep.counts_incorrect.tolist() == expect_i
    assert int(rep.total_counts.sum()) == 500


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5, 9.0])
def test_histogram_rejects_scores_outside_unit_interval(bad):
    table = ScoreTable(ids=[0, 1, 2], scores=[0.2, bad, 1.0],
                       distributions=np.full((3, 2), 0.5))
    with pytest.raises(ValueError, match="id 1 is not a finite value in"):
        score_histogram(table, bins=4)


def test_histogram_rejects_misaligned_predictions():
    _, table = dataset_from_scores([0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="misaligned"):
        score_histogram(table, predictions=[0, 1], labels=[0, 1, 0])


def test_histogram_rejects_single_bin():
    _, table = dataset_from_scores([0.1, 0.2])
    with pytest.raises(ValueError, match="bins"):
        score_histogram(table, bins=1)


def test_histogram_csv_roundtrip(tmp_path):
    _, table = dataset_from_scores([0.05, 0.5, 0.95, 1.0])
    rep = score_histogram(table, predictions=[0, 1, 0, 1], labels=[0, 0, 0, 1],
                          bins=4, epoch_tag=2)
    path = tmp_path / "hist.csv"
    write_histogram_csv([rep], path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["epoch_tag"] for r in rows} == {"2"}
    total = sum(int(r["correct_count"]) + int(r["incorrect_count"]) for r in rows)
    assert total == 4
    assert float(rows[0]["bin_lo"]) == 0.0 and float(rows[-1]["bin_hi"]) == 1.0
