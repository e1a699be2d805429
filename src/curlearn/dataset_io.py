"""Loading, tokenizing, splitting and persisting labeled text datasets.

File formats (one record = one example):

* JSONL: fields ``id`` (optional; must equal the 0-based line index when
  present), ``text``, ``text_pair`` (optional), ``label``.
* CSV: RFC-4180, UTF-8, header row required, columns mirroring the JSONL
  fields. An empty ``text_pair`` cell means "no pair".

External score files are JSONL records ``{"id": int, "probs": [C floats]}``;
prediction files are JSONL records ``{"id", "predicted_label", "gold_label"}``.
Every JSONL reader takes one JSON value per non-blank line, as ``json.loads``
takes it (``_jsonl_values``), and its numeric fields must be JSON numbers:
a string or a bool there is refused. CSV cells are text, read with ``int``.
Every writer in the package goes through ``open_atomic``.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import unicodedata
from dataclasses import dataclass, replace

import numpy as np


class DatasetFormatError(ValueError):
    """A dataset or score file violates its documented format."""


@contextlib.contextmanager
def open_atomic(path, mode: str = "w", **kwargs):
    """Open a temporary file next to ``path`` for writing; it replaces
    ``path`` only when the block completes, and is removed if it raises."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


_JSON_NUMBERS = frozenset((int, float))  # bool is neither type exactly


def _integer(value) -> int:
    """A JSON number with no fractional part, as an int; bools and strings are refused."""
    if type(value) is int:
        return value
    if type(value) is not float or not value.is_integer():
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def rows_of(ids, wanted) -> np.ndarray:
    """The row in ``ids`` (any order) of each id in ``wanted``, in ``wanted``'s order,
    repeats kept; an id absent from ``ids`` raises a KeyError naming it."""
    ids, wanted = np.asarray(ids, dtype=np.int64), np.asarray(wanted, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    at = np.searchsorted(ids, wanted, sorter=order)
    found = at < len(ids)
    found[found] = ids[order[at[found]]] == wanted[found]
    if not found.all():
        missing = wanted[~found]
        raise KeyError(f"{len(missing)} ids not found, first {missing[:5].tolist()}")
    return order[at]


@dataclass
class Example:
    """One labeled text instance; ``text_pair`` is set for premise/hypothesis tasks."""

    id: int
    text: str
    label: int
    text_pair: str | None = None


@dataclass
class Dataset:
    examples: list[Example]
    class_count: int
    split_tag: str = "train"

    def __post_init__(self):
        for ex in self.examples:
            if not 0 <= ex.label < self.class_count:
                raise ValueError(f"label {ex.label} out of range for example id {ex.id}")

    def __len__(self):
        return len(self.examples)

    @property
    def ids(self) -> np.ndarray:
        return np.array([ex.id for ex in self.examples], dtype=np.int64)

    @property
    def labels(self) -> np.ndarray:
        return np.array([ex.label for ex in self.examples], dtype=np.int64)

    def subset(self, ids, split_tag: str | None = None) -> "Dataset":
        """New Dataset holding the given ids (ascending id order, ids kept)."""
        rows = rows_of(self.ids, np.sort(ids))
        return replace(self, examples=[self.examples[r] for r in rows.tolist()],
                       split_tag=split_tag or self.split_tag)


def tokenize(text: str) -> list[str]:
    """Lowercase, split on unicode whitespace, strip edge punctuation per token.

    Deterministic and pure; interior punctuation ("don't") survives. Tokens
    that are punctuation-only vanish.
    """
    out = []
    for raw in text.lower().split():
        tok = _strip_edge_punct(raw)
        if tok:
            out.append(tok)
    return out


def _strip_edge_punct(tok: str) -> str:
    start, end = 0, len(tok)
    while start < end and unicodedata.category(tok[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(tok[end - 1]).startswith("P"):
        end -= 1
    return tok[start:end]


def token_lengths(dataset: Dataset, max_tokens: int | None = None) -> np.ndarray:
    """Per-example token counts (text plus pair tokens, capped at ``max_tokens``),
    aligned with the dataset's example order."""
    lengths = []
    for ex in dataset.examples:
        n = len(tokenize(ex.text))
        if ex.text_pair is not None:
            n += len(tokenize(ex.text_pair))
        lengths.append(n if max_tokens is None else min(n, max_tokens))
    return np.array(lengths, dtype=np.int64)


def load_dataset(
    path,
    format: str = "jsonl",
    class_count: int = 2,
    split_tag: str = "train",
) -> Dataset:
    """Load a dataset file; ids come out dense (0..N-1 in file order).

    Records may carry an explicit ``id``; it must then equal the record's
    0-based position, otherwise the file is rejected.
    """
    if format == "jsonl":
        records = _read_jsonl_records(path)
    elif format == "csv":
        records = _read_csv_records(path)
    else:
        raise ValueError(f"unknown dataset format {format!r} (expected jsonl or csv)")

    integer = int if format == "csv" else _integer
    examples = []
    for pos, (line_no, rec) in enumerate(records):
        if "text" not in rec or rec.get("label") is None:
            raise DatasetFormatError(f"{path}: malformed record at line {line_no}: "
                                     "needs 'text' and 'label'")
        try:
            label = integer(rec["label"])
        except (TypeError, ValueError):
            raise DatasetFormatError(
                f"{path}: non-integer label at line {line_no}") from None
        if not 0 <= label < class_count:
            raise DatasetFormatError(
                f"{path}: label out of range at line {line_no} "
                f"(label {label}, class_count {class_count})")
        if rec.get("id") is not None:
            try:
                given = integer(rec["id"])
            except (TypeError, ValueError):
                raise DatasetFormatError(
                    f"{path}: non-integer id at line {line_no}") from None
            if given != pos:
                raise DatasetFormatError(
                    f"{path}: non-dense id {given} at line {line_no} (expected {pos})")
        pair = rec.get("text_pair")
        examples.append(Example(id=pos, text=str(rec["text"]), label=label,
                                text_pair=None if pair in (None, "") else str(pair)))
    if not examples:
        raise DatasetFormatError(f"{path}: empty dataset file")
    return Dataset(examples=examples, class_count=class_count, split_tag=split_tag)


# JSON's own whitespace; str.strip() would also take NBSP, form feed and the
# like, which json.loads refuses. Only the start of a line is skipped before
# parsing: stripping its end too would change json.loads's message for a
# string left open at the end of the line.
_JSON_WS = " \t\n\r"
_raw_decode = json.JSONDecoder().raw_decode


def _jsonl_values(path):
    """Yield ``(line_no, value)`` for each non-blank line of a JSONL file.

    Every such line must hold exactly one JSON value, as ``json.loads``
    takes it; anything else raises a DatasetFormatError naming the file,
    the line and json.loads's message.
    """
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                value, end = _raw_decode(line, len(line) - len(line.lstrip(_JSON_WS)))
                if line[end:].strip(_JSON_WS):
                    raise json.JSONDecodeError("Extra data", line, end)
            except json.JSONDecodeError as err:
                msg = ("Unexpected UTF-8 BOM (decode using utf-8-sig)"
                       if line.startswith("\ufeff") else err.msg)
                raise DatasetFormatError(
                    f"{path}: malformed JSON at line {line_no}: {msg}") from None
            yield line_no, value


def _read_jsonl_records(path):
    records = []
    for line_no, rec in _jsonl_values(path):
        if not isinstance(rec, dict):
            raise DatasetFormatError(
                f"{path}: malformed record at line {line_no}: not an object")
        records.append((line_no, rec))
    return records


def _read_csv_records(path):
    records = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "text" not in reader.fieldnames:
            raise DatasetFormatError(f"{path}: CSV header row with a 'text' column required")
        for row_no, row in enumerate(reader, start=2):  # header is line 1
            rec = dict(row)
            # empty cells mean "absent" for the optional columns only
            for optional in ("id", "text_pair", "label"):
                if rec.get(optional) in (None, ""):
                    rec.pop(optional, None)
            records.append((row_no, rec))
    return records


def save_dataset(dataset: Dataset, path, format: str = "jsonl") -> None:
    """Persist a dataset; load_dataset(save_dataset(d)) is record-equivalent."""
    if format == "jsonl":
        with open_atomic(path, encoding="utf-8") as fh:
            for ex in dataset.examples:
                rec = {"id": ex.id, "text": ex.text, "label": ex.label}
                if ex.text_pair is not None:
                    rec["text_pair"] = ex.text_pair
                fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")
    elif format == "csv":
        with open_atomic(path, encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "text", "text_pair", "label"])
            for ex in dataset.examples:
                writer.writerow([ex.id, ex.text, ex.text_pair or "", ex.label])
    else:
        raise ValueError(f"unknown dataset format {format!r} (expected jsonl or csv)")


def stratified_split(dataset: Dataset, fractions, seed: int, tags=None) -> list[Dataset]:
    """Partition a dataset into label-stratified splits (ids are kept).

    Per-class allocation uses largest-remainder rounding, so each split's
    class proportions match the parent within one example per class. The
    shuffle inside each class is driven only by ``seed``.
    """
    fractions = [float(f) for f in fractions]
    if any(f <= 0 for f in fractions):
        raise ValueError("every split fraction must be > 0")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions sum to {sum(fractions)}, expected 1")
    n_splits = len(fractions)
    if len(dataset) < dataset.class_count * n_splits:
        raise ValueError(
            f"class too small to stratify: {len(dataset)} examples over "
            f"{dataset.class_count} classes x {n_splits} splits")

    if tags is None:
        tags = {2: ("train", "validation"), 3: ("train", "validation", "test")}.get(
            n_splits, tuple("train" for _ in fractions))
    rng = np.random.default_rng(seed)

    assigned: list[list[int]] = [[] for _ in fractions]
    for c in range(dataset.class_count):
        members = [ex.id for ex in dataset.examples if ex.label == c]
        if not members:
            continue
        members = list(np.array(members)[rng.permutation(len(members))])
        counts = _largest_remainder(len(members), fractions)
        start = 0
        for k, cnt in enumerate(counts):
            assigned[k].extend(int(i) for i in members[start:start + cnt])
            start += cnt
    return [dataset.subset(ids, split_tag=tag) for ids, tag in zip(assigned, tags)]


def _largest_remainder(n: int, fractions) -> list[int]:
    raw = [n * f for f in fractions]
    counts = [math.floor(r) for r in raw]
    leftovers = n - sum(counts)
    order = sorted(range(len(fractions)), key=lambda k: (-(raw[k] - counts[k]), k))
    for k in order[:leftovers]:
        counts[k] += 1
    return counts


def read_score_file(path, class_count: int | None = None, known_ids=None,
                    epoch_tags: bool = False):
    """Read a ``{id, probs[, epoch]}`` JSONL score file and validate every record.

    Returns ``(ids, probs, epoch)``: the ids in file order, the raw (N, C)
    probability rows, and the file's epoch tag. Tags are read only with
    ``epoch_tags``: they must then be integers, one value per file, and the
    tag is None when no record has one; otherwise they are ignored and the
    tag is None. Each row must hold ``class_count`` entries, or as many as
    the first row when ``class_count`` is None; ``known_ids``, when given,
    is the set of ids a record may carry. Any violation raises a
    DatasetFormatError naming the file and line, including duplicate ids
    and negative, non-finite or all-zero probability rows.
    """
    ids, rows, lines, epochs = [], [], [], set()
    seen: set[int] = set()
    for line_no, rec in _jsonl_values(path):
        if not isinstance(rec, dict) or "id" not in rec or "probs" not in rec:
            raise DatasetFormatError(
                f"{path}: record at line {line_no} needs 'id' and 'probs'")
        try:
            rid = _integer(rec["id"])
            if epoch_tags and "epoch" in rec:
                epochs.add(_integer(rec["epoch"]))
            probs = rec["probs"]
            if type(probs) is not list or not _JSON_NUMBERS.issuperset(map(type, probs)):
                raise TypeError("probs must be a list of JSON numbers")
        except (TypeError, ValueError):
            raise DatasetFormatError(
                f"{path}: non-numeric id, epoch or probability at line {line_no}") from None
        if rid in seen:
            raise DatasetFormatError(f"{path}: duplicate id {rid} at line {line_no}")
        if known_ids is not None and rid not in known_ids:
            raise DatasetFormatError(f"{path}: unknown id {rid} at line {line_no}")
        if class_count is None:
            class_count = len(probs)
        if len(probs) != class_count:
            raise DatasetFormatError(
                f"{path}: probs length {len(probs)} != class_count {class_count} "
                f"for id {rid} at line {line_no}")
        seen.add(rid)
        ids.append(rid)
        rows.append(probs)
        lines.append(line_no)
    if not ids:
        raise DatasetFormatError(f"{path}: empty score file")
    if len(epochs) > 1:
        raise DatasetFormatError(f"{path}: mixed epoch tags {sorted(epochs)}")
    matrix = np.array(rows, dtype=np.float64)
    for bad, what in ((~np.isfinite(matrix).all(axis=1), "non-finite probability"),
                      ((matrix < 0).any(axis=1), "negative probability"),
                      (matrix.sum(axis=1) <= 0, "all-zero probability vector")):
        if bad.any():
            k = int(np.argmax(bad))
            raise DatasetFormatError(f"{path}: {what} for id {ids[k]} at line {lines[k]}")
    return np.array(ids, dtype=np.int64), matrix, (epochs.pop() if epochs else None)


def read_predictions(path, class_count: int) -> dict[int, tuple[int, int]]:
    """Read a ``{id, predicted_label, gold_label}`` JSONL file into
    id -> (predicted, gold).

    Every field must be an integer, ids must be unique and both labels must
    lie in [0, class_count); a violation raises a DatasetFormatError naming
    the file and line.
    """
    predictions = {}
    for line_no, rec in _read_jsonl_records(path):
        try:
            rid, pred, gold = (_integer(rec[k]) for k in ("id", "predicted_label", "gold_label"))
        except KeyError as err:
            raise DatasetFormatError(f"{path}: record at line {line_no} needs {err}") from None
        except (TypeError, ValueError):
            raise DatasetFormatError(
                f"{path}: non-integer id or label at line {line_no}") from None
        if rid in predictions:
            raise DatasetFormatError(f"{path}: duplicate id {rid} at line {line_no}")
        for name, label in (("predicted_label", pred), ("gold_label", gold)):
            if not 0 <= label < class_count:
                raise DatasetFormatError(f"{path}: {name} {label} outside [0, {class_count}) "
                                         f"at line {line_no}")
        predictions[rid] = (pred, gold)
    return predictions


def load_external_scores(path, dataset: Dataset):
    """Read a ``{id, probs}`` JSONL file and turn it into a ScoreTable.

    Every dataset id must appear exactly once; probability vectors are
    renormalized over their own sum before scoring. The checks are those
    of ``read_score_file``.
    """
    from .scoring import score_table_from_probs

    want = set(dataset.ids.tolist())
    ids, probs, _ = read_score_file(path, dataset.class_count, known_ids=want)
    if len(ids) != len(want):
        missing = sorted(want - set(ids.tolist()))
        raise DatasetFormatError(f"{path}: missing id {missing[0]} "
                                 f"({len(missing)} ids absent in total)")
    return score_table_from_probs(probs[rows_of(ids, dataset.ids)], ids=dataset.ids)
