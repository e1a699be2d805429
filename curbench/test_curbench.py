"""Self-tests for the benchmark's own arithmetic and output checks.

Run with ``python3 -m pytest curbench``; they need numpy but not curlearn.
"""

import json

import numpy as np
import pytest

import bench_checks as checks
from bench_calibrate import REFERENCE_S, at_reference
from bench_trace import Span, Tracer, self_times, summarize


def span(sid, parent, name, start, end):
    return Span(sid, parent, name, start, end, "run0", False, None, None)


def test_self_time_subtracts_children_on_a_nested_tree():
    spans = [
        span(0, -1, "cli.main", 0.0, 10.0),
        span(1, 0, "trainer.run_training", 1.0, 4.0),
        span(2, 1, "toy_model.loss_and_grad", 2.0, 3.0),
        span(3, 0, "samplers.make_plan", 5.0, 9.0),
        span(4, 3, "scoring.rank_examples", 6.0, 7.0),
        span(5, 3, "scoring.rank_examples", 7.5, 8.0),
    ]
    assert self_times(spans) == pytest.approx(
        {0: 3.0, 1: 2.0, 2: 1.0, 3: 2.5, 4: 1.0, 5: 0.5})
    summary = summarize(spans, wall=10.0)
    assert summary["self_coverage"] == pytest.approx(1.0)
    assert summary["layers"]["scoring"]["total_s"] == pytest.approx(1.5)
    assert summary["layers"]["cli"]["share_of_wall"] == pytest.approx(0.3)


def test_overlapping_children_are_counted_once():
    spans = [span(0, -1, "cli.main", 0.0, 4.0),
             span(1, 0, "toy_model.featurize", 1.0, 3.0),
             span(2, 0, "toy_model.featurize", 2.0, 3.5)]
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_same_layer_nesting_is_not_added_twice_to_the_layer_total():
    spans = [span(0, -1, "toy_model.FeatureMatrix.build", 0.0, 2.0),
             span(1, 0, "toy_model.featurize", 0.5, 1.5)]
    layer = summarize(spans, wall=2.0)["layers"]["toy_model"]
    assert layer["total_s"] == pytest.approx(2.0)
    assert layer["self_s"] == pytest.approx(2.0)
    assert layer["calls"] == 2


def test_wrapped_calls_record_parent_and_errors():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_inner = tracer._wrap("scoring.inner", inner)
    traced_outer = tracer._wrap("cli.outer", lambda x: traced_inner(x))
    assert traced_outer(3) == 3
    with pytest.raises(ValueError):
        traced_outer(-1)
    inner_ok, outer_ok, inner_bad, outer_bad = tracer.spans
    assert inner_ok.parent == outer_ok.id and outer_ok.parent == -1
    assert inner_bad.parent == outer_bad.id
    assert [s.error for s in tracer.spans] == [False, False, True, True]
    assert all(s.end >= s.start for s in tracer.spans)


def test_reference_seconds_scale_with_the_kernel_around_the_phase():
    assert at_reference(2.0, REFERENCE_S, REFERENCE_S) == pytest.approx(2.0)
    # the machine ran twice as slow before and three times as slow after
    assert at_reference(5.0, 2 * REFERENCE_S, 3 * REFERENCE_S) == pytest.approx(2.0)


# ------------------------------------------------------------------ checks


def write_plan(path, order, tags):
    with open(path, "w", encoding="utf-8") as fh:
        for pos, (ex_id, tag) in enumerate(zip(order, tags)):
            fh.write(json.dumps({"epoch": 0, "position": pos, "example_id": int(ex_id),
                                 "partition_tag": tag}) + "\n")


def test_plan_check_flags_a_duplicated_id(tmp_path):
    n = 32
    order = list(np.random.default_rng(0).permutation(n))
    path = tmp_path / "plan.jsonl"
    scores, lengths = np.zeros(n), np.ones(n, dtype=int)
    write_plan(path, order, ["whole"] * n)
    assert checks.check_plan(path, "Random", n, scores, lengths) is None
    order[5] = order[6]
    write_plan(path, order, ["whole"] * n)
    assert "permutation" in checks.check_plan(path, "Random", n, scores, lengths)


def test_plan_check_flags_a_bad_partition_and_a_bad_e2d_order(tmp_path):
    n = 32
    scores = np.array([0.5, 0.9, 0.5, 0.1] * 8)
    lengths = np.ones(n, dtype=int)
    path = tmp_path / "plan.jsonl"
    e2d = list(np.lexsort((np.arange(n), -scores)))
    write_plan(path, e2d, ["whole"] * n)
    assert checks.check_plan(path, "E2D", n, scores, lengths) is None
    e2d[1], e2d[2] = e2d[2], e2d[1]  # swap two tied scores: ids out of order
    write_plan(path, e2d, ["whole"] * n)
    assert "order" in checks.check_plan(path, "E2D", n, scores, lengths)
    tags = (["B1"] * 9 + ["B2"] * 7) * 2
    write_plan(path, range(n), tags)
    assert checks.check_plan(path, "PME", n, scores, lengths) is None
    tags[3], tags[12] = "B2", "B1"
    write_plan(path, range(n), tags)
    assert "9 B1" in checks.check_plan(path, "PME", n, scores, lengths)


def write_report(path, accs, best):
    checkpoints = [{"accuracy": a} for a in accs]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"strategy": "PMD", "seed": 66, "best_checkpoint_index": best,
                   "checkpoints": checkpoints, "test_metrics": {"accuracy": 0.8}}, fh)


def test_report_check_flags_a_wrong_best_index(tmp_path):
    accs = [0.5, 0.7, 0.6, 0.7, 0.55, 0.6, 0.65, 0.7, 0.6, 0.5]
    path = tmp_path / "report.json"
    write_report(path, accs, best=1)
    assert checks.check_report(path, "PMD", 66, epochs=1) is None
    write_report(path, accs, best=3)  # a later tie is not the first best
    assert "best_checkpoint_index" in checks.check_report(path, "PMD", 66, epochs=1)
    write_report(path, accs[:9], best=1)
    assert "checkpoints" in checks.check_report(path, "PMD", 66, epochs=1)


def test_scores_check_flags_a_score_off_its_margin(tmp_path):
    path = tmp_path / "scores.jsonl"
    rows = [{"id": i, "probs": [p, 1.0 - p], "score": abs(1.0 - 2 * p)}
            for i, p in enumerate([0.1, 0.45, 0.8])]

    def write(records):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in records)

    write(rows)
    assert checks.check_scores(path, 3) is None
    rows[1]["score"] += 1e-9
    write(rows)
    assert "margin" in checks.check_scores(path, 3)


def test_histogram_check_flags_counts_that_do_not_sum_to_n(tmp_path):
    path = tmp_path / "hist.csv"
    lines = ["bin_lo,bin_hi,correct_count,incorrect_count,epoch_tag",
             "0.0,0.5,3,0,0", "0.5,1.0,4,0,0"]
    path.write_text("\n".join(lines) + "\n")
    assert checks.check_histogram(path, 7, bins=2) is None
    assert "sum to 7" in checks.check_histogram(path, 8, bins=2)
