import json
import string
import unicodedata

import numpy as np
import pytest

from curlearn.dataset_io import (Dataset, DatasetFormatError, Example, load_dataset,
                                 load_external_scores, open_atomic, read_predictions,
                                 read_score_file, rows_of, save_dataset,
                                 stratified_split, token_lengths, tokenize)

# ------------------------------------------------------------------ loading


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def test_load_jsonl_assigns_dense_ids_in_file_order(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"text": "a", "label": 0}, {"text": "b", "label": 1},
                       {"text": "c", "label": 0}])
    ds = load_dataset(path, "jsonl", class_count=2)
    assert len(ds) == 3
    assert [ex.id for ex in ds.examples] == [0, 1, 2]
    assert [ex.label for ex in ds.examples] == [0, 1, 0]


def test_load_rejects_label_out_of_range(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"text": "a", "label": 0}, {"text": "b", "label": 5}])
    with pytest.raises(DatasetFormatError, match="label out of range at line 2"):
        load_dataset(path, "jsonl", class_count=3)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text("")
    with pytest.raises(DatasetFormatError, match="empty"):
        load_dataset(path, "jsonl", class_count=2)


def test_load_rejects_malformed_record_with_line_number(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"text": "a", "label": 0}\nnot json\n')
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_dataset(path, "jsonl", class_count=2)


def test_load_rejects_non_dense_explicit_ids(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"id": 3, "text": "a", "label": 0}])
    with pytest.raises(DatasetFormatError, match="non-dense id"):
        load_dataset(path, "jsonl", class_count=2)


NASTY_ALPHABET = list(
    string.ascii_letters + string.digits + ' ,";\'\t.!?') + ["é", "中", "ß", "😀", "\n"]


def random_text(rng):
    n = int(rng.integers(0, 30))
    return "".join(rng.choice(NASTY_ALPHABET) for _ in range(n))


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_roundtrip_random_texts(tmp_path, fmt):
    # write-then-read oracle: 100 random strings survive byte-identically
    rng = np.random.default_rng(7)
    examples = []
    for i in range(100):
        pair = random_text(rng) if rng.random() < 0.4 else None
        examples.append(Example(id=i, text=random_text(rng), label=int(rng.integers(3)),
                                text_pair=pair if pair else None))
    ds = Dataset(examples=examples, class_count=3)
    path = tmp_path / f"d.{fmt}"
    save_dataset(ds, path, fmt)
    back = load_dataset(path, fmt, class_count=3)
    assert len(back) == len(ds)
    for orig, loaded in zip(ds.examples, back.examples):
        assert loaded.id == orig.id
        assert loaded.text == orig.text
        assert loaded.label == orig.label
        assert loaded.text_pair == orig.text_pair


def test_csv_quoted_commas(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text('id,text,text_pair,label\n0,"hello, world",,1\n', encoding="utf-8")
    ds = load_dataset(path, "csv", class_count=2)
    assert ds.examples[0].text == "hello, world"
    assert ds.examples[0].text_pair is None


# ------------------------------------------------------------------ rows_of


def test_rows_of_finds_ids_in_unsorted_ids():
    assert rows_of([40, 10, 30, 20], [10, 20, 30, 40]).tolist() == [1, 3, 2, 0]


def test_rows_of_keeps_the_wanted_order_and_repeats():
    assert rows_of([5, 9, 7], [7, 5, 7, 9, 5]).tolist() == [2, 0, 2, 1, 0]
    assert rows_of([5, 9, 7], []).tolist() == []


@pytest.mark.parametrize("ids, wanted, absent", [
    ([5, 9, 7], [9, 6, 10, 4], [6, 10, 4]),  # between, above and below the ids
    ([], [1], [1]),
])
def test_rows_of_names_the_absent_ids(ids, wanted, absent):
    with pytest.raises(KeyError) as err:
        rows_of(ids, wanted)
    assert err.value.args[0] == f"{len(absent)} ids not found, first {absent}"


# ---------------------------------------------------------------- tokenize


def test_tokenize_lowercases_and_strips_punctuation():
    assert tokenize("This was a GREAT movie!") == ["this", "was", "a", "great", "movie"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_keeps_interior_apostrophe():
    assert tokenize("don't stop") == ["don't", "stop"]


def _oracle_tokens(text):
    # reference implementation: regex-free edge stripping over a known class
    punct = {c for c in map(chr, range(0x3000))
             if unicodedata.category(c).startswith("P")}
    out = []
    for chunk in text.lower().split():
        while chunk and chunk[0] in punct:
            chunk = chunk[1:]
        while chunk and chunk[-1] in punct:
            chunk = chunk[:-1]
        if chunk:
            out.append(chunk)
    return out


def test_tokenize_matches_reference_split_on_random_strings():
    rng = np.random.default_rng(11)
    alphabet = list("abc XY.!?',\";:-") + ["é", "中"]
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(int(rng.integers(0, 40))))
        assert tokenize(text) == _oracle_tokens(text)


def test_tokenize_deterministic():
    text = "Some, Text; with -- punctuation!"
    assert tokenize(text) == tokenize(text)


# ------------------------------------------------------------ token lengths


def test_token_lengths_single_and_pair():
    ds = Dataset(examples=[Example(id=0, text="a b c", label=0),
                           Example(id=1, text="a b", label=0, text_pair="c")],
                 class_count=2)
    assert token_lengths(ds).tolist() == [3, 3]


def test_token_lengths_match_recount_oracle():
    rng = np.random.default_rng(3)
    words = ["alpha", "beta!", "Gamma,", "d", "épée"]
    examples = []
    for i in range(1000):
        text = " ".join(rng.choice(words) for _ in range(int(rng.integers(0, 9))))
        pair = (" ".join(rng.choice(words) for _ in range(int(rng.integers(0, 5))))
                if rng.random() < 0.5 else None)
        examples.append(Example(id=i, text=text, label=0, text_pair=pair))
    ds = Dataset(examples=examples, class_count=2)
    lengths = token_lengths(ds)
    for ex, got in zip(ds.examples, lengths):
        want = len(_oracle_tokens(ex.text))
        if ex.text_pair is not None:
            want += len(_oracle_tokens(ex.text_pair))
        assert got == want


def test_token_lengths_permutation_equivariant():
    rng = np.random.default_rng(5)
    examples = [Example(id=i, text=" ".join("w" * (1 + i % 4) for _ in range(i % 7 + 1)),
                        label=0) for i in range(40)]
    ds = Dataset(examples=examples, class_count=2)
    perm = rng.permutation(40)
    shuffled = Dataset(examples=[examples[p] for p in perm], class_count=2)
    assert token_lengths(shuffled).tolist() == token_lengths(ds)[perm].tolist()


def test_token_lengths_max_tokens_cap():
    ds = Dataset(examples=[Example(id=0, text="a b c d e", label=0)], class_count=2)
    assert token_lengths(ds, max_tokens=3).tolist() == [3]


# --------------------------------------------------------- stratified split


def balanced_dataset(n, class_count=2):
    return Dataset(examples=[Example(id=i, text=f"t{i}", label=i % class_count)
                             for i in range(n)], class_count=class_count)


def test_split_exact_divisible_case():
    ds = balanced_dataset(100)
    train, val = stratified_split(ds, [0.8, 0.2], seed=0)
    assert len(train) == 80 and len(val) == 20
    assert int((train.labels == 0).sum()) == 40 and int((train.labels == 1).sum()) == 40
    assert int((val.labels == 0).sum()) == 10 and int((val.labels == 1).sum()) == 10


def test_split_three_way_partition_covers_all_ids():
    # imbalanced 3-class data, 80/10/10
    labels = [0] * 70 + [1] * 20 + [2] * 10
    ds = Dataset(examples=[Example(id=i, text="x", label=lab)
                           for i, lab in enumerate(labels)], class_count=3)
    parts = stratified_split(ds, [0.8, 0.1, 0.1], seed=1)
    assert [p.split_tag for p in parts] == ["train", "validation", "test"]
    all_ids = sorted(int(i) for part in parts for i in part.ids)
    assert all_ids == list(range(100))


def test_split_deterministic_given_seed():
    ds = balanced_dataset(97)
    a = stratified_split(ds, [0.8, 0.2], seed=42)
    b = stratified_split(ds, [0.8, 0.2], seed=42)
    for pa, pb in zip(a, b):
        assert pa.ids.tolist() == pb.ids.tolist()


def test_split_class_proportions_within_one_example():
    rng = np.random.default_rng(9)
    for trial in range(20):
        counts = rng.integers(5, 40, size=3)
        labels = sum(([c] * int(n) for c, n in enumerate(counts)), [])
        ds = Dataset(examples=[Example(id=i, text="x", label=lab)
                               for i, lab in enumerate(labels)], class_count=3)
        fracs = [0.6, 0.25, 0.15]
        parts = stratified_split(ds, fracs, seed=trial)
        for c, n_c in enumerate(counts):
            for frac, part in zip(fracs, parts):
                got = int((part.labels == c).sum())
                assert abs(got - frac * n_c) < 1.0


def test_split_rejects_bad_fractions():
    ds = balanced_dataset(20)
    with pytest.raises(ValueError, match="sum"):
        stratified_split(ds, [0.8, 0.1], seed=0)
    with pytest.raises(ValueError, match="> 0"):
        stratified_split(ds, [1.2, -0.2], seed=0)


def test_split_rejects_too_small_dataset():
    ds = balanced_dataset(3, class_count=2)
    with pytest.raises(ValueError, match="too small"):
        stratified_split(ds, [0.5, 0.5], seed=0)


# ----------------------------------------------------------- external scores


def test_external_scores_margin(tmp_path, tiny_dataset):
    path = tmp_path / "s.jsonl"
    write_jsonl(path, [{"id": i, "probs": [0.9, 0.1]} for i in range(5)])
    table = load_external_scores(path, tiny_dataset)
    assert table.scores == pytest.approx([0.8] * 5)


def test_external_scores_missing_id_named(tmp_path, tiny_dataset):
    path = tmp_path / "s.jsonl"
    write_jsonl(path, [{"id": i, "probs": [0.5, 0.5]} for i in (0, 1, 2, 4)])
    with pytest.raises(DatasetFormatError, match="missing id 3"):
        load_external_scores(path, tiny_dataset)


def test_external_scores_renormalizes_uniform(tmp_path, tiny_dataset):
    path = tmp_path / "s.jsonl"
    write_jsonl(path, [{"id": i, "probs": [0.2, 0.2]} for i in range(5)])
    table = load_external_scores(path, tiny_dataset)
    assert table.distributions == pytest.approx(np.full((5, 2), 0.5))
    assert table.scores == pytest.approx([0.0] * 5)


def test_external_scores_duplicate_id(tmp_path, tiny_dataset):
    path = tmp_path / "s.jsonl"
    write_jsonl(path, [{"id": 0, "probs": [1, 0]}, {"id": 0, "probs": [0, 1]}])
    with pytest.raises(DatasetFormatError, match="duplicate id 0"):
        load_external_scores(path, tiny_dataset)


def test_external_scores_wrong_length(tmp_path, tiny_dataset):
    path = tmp_path / "s.jsonl"
    write_jsonl(path, [{"id": i, "probs": [0.2, 0.3, 0.5]} for i in range(5)])
    with pytest.raises(DatasetFormatError, match="probs length 3"):
        load_external_scores(path, tiny_dataset)


def test_external_scores_negative_probability(tmp_path, tiny_dataset):
    path = tmp_path / "s.jsonl"
    write_jsonl(path, [{"id": i, "probs": [1.2, -0.2]} for i in range(5)])
    with pytest.raises(DatasetFormatError, match="negative"):
        load_external_scores(path, tiny_dataset)


def test_external_scores_ignore_epoch_tags(tmp_path, tiny_dataset):
    path = tmp_path / "s.jsonl"
    write_jsonl(path, [{"id": i, "probs": [0.5, 0.5], "epoch": tag}
                       for i, tag in enumerate(["final", 0, 1, None, 2.5])])
    table = load_external_scores(path, tiny_dataset)
    assert len(table) == 5


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_external_scores_non_finite_probability(tmp_path, tiny_dataset, bad):
    path = tmp_path / "s.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"id": 0, "probs": [0.5, 0.5]}\n')
        fh.write(f'{{"id": 1, "probs": [{bad}, 0.5]}}\n')
        for i in range(2, 5):
            fh.write(f'{{"id": {i}, "probs": [0.5, 0.5]}}\n')
    with pytest.raises(DatasetFormatError,
                       match=rf"{path.name}: non-finite probability for id 1 at line 2"):
        load_external_scores(path, tiny_dataset)


# ------------------------------------------------------------- integer fields


@pytest.mark.parametrize("bad_id", [1.7, 1.2, True, "1.0", [1]])
def test_load_rejects_non_integer_ids_with_line(tmp_path, bad_id):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"id": 0, "text": "a", "label": 0},
                       {"id": bad_id, "text": "b", "label": 1}])
    with pytest.raises(DatasetFormatError, match=f"{path}: non-integer id at line 2"):
        load_dataset(path, "jsonl", class_count=2)


@pytest.mark.parametrize("bad_label", [0.5, False])
def test_load_rejects_non_integer_labels_with_line(tmp_path, bad_label):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"text": "a", "label": bad_label}])
    with pytest.raises(DatasetFormatError, match="non-integer label at line 1"):
        load_dataset(path, "jsonl", class_count=2)


def test_load_accepts_integral_float_ids(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"id": 0.0, "text": "a", "label": 0},
                       {"id": 1, "text": "b", "label": 1.0}])
    ds = load_dataset(path, "jsonl", class_count=2)
    assert ds.ids.tolist() == [0, 1] and ds.labels.tolist() == [0, 1]


@pytest.mark.parametrize("bad_id", [0.9, 1.2, True, "Infinity"])
def test_score_file_rejects_non_integer_ids_with_line(tmp_path, bad_id):
    path = tmp_path / "s.jsonl"
    path.write_text(json.dumps({"id": 0, "probs": [0.5, 0.5]}) + "\n"
                    + json.dumps({"id": bad_id, "probs": [0.5, 0.5]})
                    .replace('"Infinity"', "Infinity") + "\n")
    with pytest.raises(DatasetFormatError, match=f"{path}: non-numeric id.* at line 2"):
        read_score_file(path)


# JSONL numeric fields must be JSON numbers; each of these once read as a number.


@pytest.mark.parametrize("record", [{"text": "b", "label": "1"}, {"text": "b", "label": True},
                                    {"id": "1", "text": "b", "label": 1}])
def test_load_jsonl_refuses_strings_and_bools_for_integers(tmp_path, record):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"text": "a", "label": 0}, record])
    with pytest.raises(DatasetFormatError, match=f"{path}: non-integer (label|id) at line 2"):
        load_dataset(path, "jsonl", class_count=2)


def test_load_csv_reads_integer_cells_from_text(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,text,text_pair,label\n0,a,,1\n 1 ,b,,0 \n", encoding="utf-8")
    ds = load_dataset(path, "csv", class_count=2)
    assert ds.ids.tolist() == [0, 1] and ds.labels.tolist() == [1, 0]


@pytest.mark.parametrize("record", [
    {"id": "1", "probs": [0.25, 0.75]},
    {"id": 1, "probs": ["0.25", " 0.75 "]},
    {"id": 1, "probs": [True, False]},
    {"id": 1, "probs": "11"},
    {"id": 1, "probs": [0.25, 0.75], "epoch": "3"},
])
def test_score_file_refuses_strings_and_bools_for_numbers(tmp_path, record):
    path = tmp_path / "s.jsonl"
    write_jsonl(path, [{"id": 0, "probs": [1, 0.0]}, record])
    if "epoch" in record:  # tags are read only when asked for
        read_score_file(path)
    with pytest.raises(DatasetFormatError,
                       match=f"{path}: non-numeric id, epoch or probability at line 2"):
        read_score_file(path, epoch_tags=True)


def test_read_predictions_refuses_string_labels(tmp_path):
    path = tmp_path / "p.jsonl"
    write_jsonl(path, [{"id": 0, "predicted_label": "1", "gold_label": 1}])
    with pytest.raises(DatasetFormatError, match=f"{path}: non-integer id or label at line 1"):
        read_predictions(path, 2)


# ---------------------------------------------------------------- predictions


def test_read_predictions_maps_ids_to_labels(tmp_path):
    path = tmp_path / "p.jsonl"
    write_jsonl(path, [{"id": 1, "predicted_label": 2, "gold_label": 0},
                       {"id": 0.0, "predicted_label": 0, "gold_label": 2}])
    assert read_predictions(path, 3) == {1: (2, 0), 0: (0, 2)}


@pytest.mark.parametrize("record, message", [
    ({"id": 1, "predicted_label": 0}, "record at line 2 needs 'gold_label'"),
    ({"predicted_label": 0, "gold_label": 0}, "record at line 2 needs 'id'"),
    ({"id": 1, "predicted_label": "zero", "gold_label": 0}, "non-integer id or label at line 2"),
    ({"id": 1, "predicted_label": 0, "gold_label": 0.5}, "non-integer id or label at line 2"),
    ({"id": 1.2, "predicted_label": 0, "gold_label": 0}, "non-integer id or label at line 2"),
    ({"id": 0, "predicted_label": 1, "gold_label": 1}, "duplicate id 0 at line 2"),
    ({"id": 1, "predicted_label": 0, "gold_label": 7}, "gold_label 7 outside [0, 2) at line 2"),
    ({"id": 1, "predicted_label": -3, "gold_label": 0},
     "predicted_label -3 outside [0, 2) at line 2"),
])
def test_read_predictions_rejects_bad_records_with_line(tmp_path, record, message):
    path = tmp_path / "p.jsonl"
    write_jsonl(path, [{"id": 0, "predicted_label": 0, "gold_label": 1}, record])
    with pytest.raises(DatasetFormatError) as err:
        read_predictions(path, 2)
    assert str(err.value) == f"{path}: {message}"


# ------------------------------------------------------------ one JSON value per line

# One record every JSONL reader accepts: a dataset row, a score row and a prediction.
RECORD = ('{"id": 0, "text": "a b", "label": 0, "probs": [0.25, 0.75], '
          '"predicted_label": 1, "gold_label": 0}')

JSONL_READERS = {
    "load_dataset": lambda path: [vars(ex) for ex in load_dataset(path).examples],
    "read_score_file": lambda path: [part.tolist() if hasattr(part, "tolist") else part
                                     for part in read_score_file(path)],
    "read_predictions": lambda path: read_predictions(path, 2),
}


def _read(reader, path):
    """The reader's result, or its error message without the file name."""
    try:
        return "ok", JSONL_READERS[reader](path)
    except DatasetFormatError as err:
        return "error", str(err).replace(str(path), "<file>")


@pytest.mark.parametrize("reader", list(JSONL_READERS))
@pytest.mark.parametrize("line, blanks", [
    pytest.param(RECORD + "\n", 2, id="plain"),
    pytest.param(RECORD, 2, id="no-final-newline"),
    pytest.param(RECORD + "\r\n", 2, id="crlf"),
    pytest.param(" \t " + RECORD + "\t \t\n", 2, id="spaces-and-tabs"),
    pytest.param(RECORD + " x\n", 2, id="trailing-garbage"),
    pytest.param(RECORD + RECORD + "\n", 2, id="two-objects"),
    pytest.param(RECORD + " " + RECORD + "\n", 2, id="two-objects-spaced"),
    pytest.param(RECORD + ",\n", 2, id="trailing-comma"),
    pytest.param("\f" + RECORD + "\n", 2, id="form-feed-before"),
    pytest.param(RECORD + "\f\n", 2, id="form-feed-after"),
    pytest.param("\v" + RECORD + "\n", 2, id="vertical-tab-before"),
    pytest.param(RECORD + "\v\n", 2, id="vertical-tab-after"),
    pytest.param("\xa0" + RECORD + "\n", 2, id="nbsp-before"),
    pytest.param(RECORD + "\xa0\n", 2, id="nbsp-after"),
    pytest.param("\u2028" + RECORD + "\n", 2, id="line-separator-before"),
    pytest.param(RECORD + "\u2028\n", 2, id="line-separator-after"),
    pytest.param("\ufeff" + RECORD + "\n", 0, id="bom-on-line-1"),
    pytest.param("\ufeff" + RECORD + "\n", 2, id="bom-on-line-3"),
    # parses, then the score reader's finite check rejects it
    pytest.param(RECORD.replace("0.25", "NaN") + "\n", 2, id="nan-literal"),
    pytest.param(RECORD.split("0.75")[0] + "\n", 2, id="array-left-open"),
    # a reader that strips the line's end before parsing fails these two
    pytest.param(RECORD.split(" b")[0] + "\n", 2, id="string-left-open"),
    pytest.param(RECORD.split(" b")[0] + "\t\n", 2, id="string-left-open-tab"),
    pytest.param('[0, "a b", 0]\n', 2, id="array-not-object"),
])
def test_jsonl_readers_take_one_value_per_line_as_json_loads(tmp_path, reader, line, blanks):
    # binary writes keep "\r\n" and the BOM as given
    path = tmp_path / "in.jsonl"
    path.write_bytes(("\n" * blanks + line).encode("utf-8"))
    line_no = blanks + 1
    try:
        value = json.loads(line)
    except json.JSONDecodeError as err:
        expected = ("error", f"<file>: malformed JSON at line {line_no}: {err.msg}")
    else:
        # the same value on the same line, written by json.dumps
        canonical = tmp_path / "canonical.jsonl"
        canonical.write_text("\n" * blanks + json.dumps(value) + "\n", encoding="utf-8")
        expected = _read(reader, canonical)
    assert _read(reader, path) == expected


@pytest.mark.parametrize("reader", list(JSONL_READERS))
def test_jsonl_readers_skip_lines_of_any_unicode_whitespace(tmp_path, reader):
    path = tmp_path / "in.jsonl"
    path.write_bytes(" \t\f\v\xa0\u2028\n\r\n\n{}\n".format(RECORD).encode("utf-8"))
    canonical = tmp_path / "canonical.jsonl"
    canonical.write_text(RECORD + "\n")
    assert _read(reader, path) == _read(reader, canonical)
    path.write_bytes(b"\n\n\n[]\n")
    assert "at line 4" in _read(reader, path)[1]


# ------------------------------------------------------------- atomic outputs


def _plan_writer(path):
    from curlearn.samplers import Strategy, make_plan, write_plan_jsonl
    ds = Dataset([Example(id=i, text="t", label=0) for i in range(40)], class_count=2)
    plan = make_plan(Strategy.RANDOM, None, ds, rng=np.random.default_rng(0))
    write_plan_jsonl([plan, None], path)  # the second plan fails mid-stream


def _histogram_writer(path):
    from curlearn.scoring import ScoreTable, score_histogram, write_histogram_csv
    table = ScoreTable(ids=[0, 1], scores=[0.2, 0.9], distributions=[[0.6, 0.4], [1, 0]])
    write_histogram_csv([score_histogram(table, bins=4), None], path)


def _aggregate_writer(path):
    from curlearn.trainer import write_aggregate_csv
    row = {"strategy": "E2D", "accuracy": 0.5, "macro_f1": 0.5, "macro_precision": 0.5,
           "macro_recall": 0.5, "seeds": [66]}
    write_aggregate_csv([row, {"strategy": "PMD"}], path)


def _dataset_writer(path):
    ds = Dataset([Example(id=0, text="a", label=0)], class_count=2)
    ds.examples.append(None)
    save_dataset(ds, path)


@pytest.mark.parametrize("writer", [_plan_writer, _histogram_writer, _aggregate_writer,
                                    _dataset_writer])
def test_writer_failing_mid_stream_leaves_no_partial_file(tmp_path, writer):
    fresh, kept = tmp_path / "fresh.out", tmp_path / "kept.out"
    kept.write_text("previous run\n")
    for path in (fresh, kept):
        with pytest.raises((AttributeError, KeyError, TypeError)):
            writer(path)
    assert not fresh.exists()
    assert kept.read_text() == "previous run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.out"]


def test_open_atomic_replaces_target_only_on_success(tmp_path):
    path = tmp_path / "out.txt"
    with open_atomic(path) as fh:
        fh.write("first\n")
        assert not path.exists()
    assert path.read_text() == "first\n"
    with pytest.raises(RuntimeError):
        with open_atomic(path) as fh:
            fh.write("second, partial")
            raise RuntimeError("crash")
    assert path.read_text() == "first\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
