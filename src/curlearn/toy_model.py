"""Hashed bag-of-words softmax regression: the desk-scale stand-in classifier.

This is deliberately NOT a pretrained language model. It exists so the
sampling strategies and the training harness have something differentiable
to drive end to end on a laptop. Anything produced with it is a qualitative
stand-in; faithful difficulty scores come from external score files.

Feature hashing uses blake2b (8-byte digest), which is fixed and seedless,
so feature ids are stable across processes and platforms. Tokens from the
first text are namespaced "p:", tokens from the pair text "h:".

A split is hashed in one pass into a CSR ``FeatureMatrix`` of int32 ids
(so ``dim`` is at most 2**31) and float32 counts, which widen exactly in the
float64 products. Training batches, evaluation and probe scoring all take
rows of such a matrix, and its ``logits`` method is the one place logits
are computed. ``FeatureMatrix.in_columns`` maps a matrix onto the columns a
training split uses, so every model (a run's and the probe's) trains at that
width, a few hundred columns for a small split, instead of ``dim``.

A grid model stacks K same-shaped models block-diagonally: cell k owns
columns k*W ... k*W + W - 1 of one (C, K*W) weight matrix and row k of a
(K, C) bias, so a grid of runs takes one gradient and one optimizer step
per batch. Every operation either is per element or per row, or adds one
cell's rows in that cell's row order, so each cell's numbers are bit for bit
those of the same run trained alone.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, replace

import numpy as np

from .dataset_io import Dataset, Example, rows_of, stratified_split, tokenize


def _hash_token(token: str) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def featurize(example: Example, dim: int, max_tokens: int | None = None,
              memo: dict[str, int] | None = None) -> list[int]:
    """The hashed column in [0, ``dim``) of each kept token, in token order.

    ``memo`` maps each prefixed raw whitespace piece ("p:" or "h:" plus a
    piece of the lowercased text) to its column, or to -1 for a piece that
    is punctuation only. Pass one dict to every call for a split (and one
    ``dim``) to strip and hash each distinct piece once.
    """
    if memo is None:
        memo = {}
    cols = _piece_columns("p:", example.text, dim, memo)
    if example.text_pair is not None:
        cols += _piece_columns("h:", example.text_pair, dim, memo)
    return cols[:max_tokens]


def _piece_columns(prefix: str, text: str, dim: int, memo: dict[str, int]) -> list[int]:
    cols = []
    for raw in text.lower().split():
        key = prefix + raw
        col = memo.get(key)
        if col is None:
            # a piece holds no whitespace, so tokenize gives at most one token
            token = tokenize(raw)
            col = memo[key] = _hash_token(prefix + token[0]) & (dim - 1) if token else -1
        if col >= 0:
            cols.append(col)
    return cols


@dataclass
class LinearModel:
    weights: np.ndarray  # (C, D); a grid model's D is K blocks of W columns
    bias: np.ndarray     # (C,), or a grid model's (K, C): one row per cell

    @classmethod
    def zeros(cls, class_count: int, dim: int) -> "LinearModel":
        return cls(weights=np.zeros((class_count, dim), dtype=np.float64),
                   bias=np.zeros(class_count, dtype=np.float64))

    @property
    def class_count(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    @property
    def cells(self) -> int:
        return 1 if self.bias.ndim == 1 else self.bias.shape[0]

    def copy(self) -> "LinearModel":
        return LinearModel(weights=self.weights.copy(), bias=self.bias.copy())

    def scatter(self, vocab, dim: int) -> "LinearModel":
        """This model, trained over the sorted distinct ids ``vocab``, at
        width ``dim``: column k moves to id ``vocab[k]``, every other column
        is +0.0."""
        wide = LinearModel.zeros(self.class_count, dim)
        wide.weights[:, vocab] = self.weights
        wide.bias[:] = self.bias
        return wide


# FeatureMatrix.logits works through this many rows at a time, so its
# temporaries hold one block's entries instead of the whole matrix's.
LOGITS_BLOCK_ROWS = 1024


@dataclass
class FeatureMatrix:
    """Featurized examples as a compressed sparse row (CSR) matrix.

    Row r holds the strictly increasing feature ids
    ``flat_indices[indptr[r]:indptr[r + 1]]`` and their counts in the same
    slice of ``flat_values``. ``logits`` is the one place logits are computed.
    """

    indptr: np.ndarray        # (rows + 1,) int64 offsets into the flat arrays
    flat_indices: np.ndarray  # feature ids in [0, dim), int32 when built
    flat_values: np.ndarray   # matching positive counts, float32 when built
    dim: int
    max_tokens: int | None

    @property
    def n_rows(self) -> int:
        return len(self.indptr) - 1

    @classmethod
    def build(cls, dataset: Dataset, dim: int, max_tokens: int | None = None):
        """Hash a split in one pass, each distinct piece once: the key
        row * dim + column of each kept token, sorted in place, gives the
        rows' strictly increasing ids (int32) and their counts (float32)."""
        if dim <= 0 or dim & (dim - 1):
            raise ValueError(f"dim must be a power of two, got {dim}")
        if dim > 2 ** 31:
            raise ValueError(f"dim must be at most 2**31 (int32 feature ids), got {dim}")
        keys = array("q")
        memo: dict[str, int] = {}
        for row, ex in enumerate(dataset.examples):
            offset = row * dim
            keys.extend([offset + col for col in featurize(ex, dim, max_tokens, memo)])
        del memo
        keys = np.frombuffer(keys, dtype=np.int64)
        keys.sort()  # in place, in the array's own buffer
        first = np.flatnonzero(_run_starts(keys))
        counts = np.diff(first, append=len(keys)).astype(np.float32)
        keys = keys[first]
        indptr = np.searchsorted(keys, np.arange(len(dataset) + 1, dtype=np.int64) * dim)
        keys &= dim - 1
        return cls(indptr=indptr, flat_indices=keys.astype(np.int32), flat_values=counts,
                   dim=dim, max_tokens=max_tokens)

    def distinct_ids(self) -> np.ndarray:
        """The sorted distinct feature ids, in the matrix's id dtype."""
        ids = np.sort(self.flat_indices)
        return ids[_run_starts(ids)]

    def take(self, rows) -> "FeatureMatrix":
        """The given rows, in the given order (repeats allowed)."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        entries = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return replace(self, indptr=indptr, flat_indices=self.flat_indices[entries],
                       flat_values=self.flat_values[entries])

    def in_columns(self, vocab) -> "FeatureMatrix":
        """This matrix over the sorted distinct ids ``vocab``: each id in it
        becomes its position there, entries outside it are dropped, and
        ``dim`` becomes ``len(vocab)``. The map is monotone, so each row
        keeps its kept entries in order."""
        vocab = np.asarray(vocab)
        pos = np.searchsorted(vocab, self.flat_indices)
        keep = pos < len(vocab)
        keep[keep] = vocab[pos[keep]] == self.flat_indices[keep]
        kept_before = np.concatenate([[0], np.cumsum(keep)])
        return replace(self, indptr=kept_before[self.indptr],
                       flat_indices=pos[keep].astype(self.flat_indices.dtype),
                       flat_values=self.flat_values[keep], dim=len(vocab))

    def logits(self, model: LinearModel, every_cell: bool = False) -> np.ndarray:
        """(rows, C) logits: bias plus each row's features summed in column order.

        For a grid model of K cells, the rows come in K equal runs, run k
        scored by cell k. Without ``every_cell`` they are this matrix's rows
        (a grid batch, each run's ids in its cell's block of columns). With
        ``every_cell`` this matrix is at one block's width, and each cell
        scores all of its rows: the result has K * rows rows.
        """
        cells = model.cells
        width = cells * self.dim if every_cell else self.dim
        if model.dim != width:
            raise ValueError(f"model dim {model.dim} != feature dim {width}")
        runs = cells if every_cell else 1
        rows = self.n_rows * runs
        if rows % cells:
            raise ValueError(f"{rows} rows do not split evenly over {cells} cells")
        out = np.empty((runs, self.n_rows, model.class_count), dtype=np.float64)
        # each block holds at most LOGITS_BLOCK_ROWS output rows
        step = max(1, LOGITS_BLOCK_ROWS // runs)
        for lo in range(0, self.n_rows, step):
            hi = min(lo + step, self.n_rows)
            first, last = self.indptr[lo], self.indptr[hi]
            row_of_entry = np.repeat(np.arange(hi - lo), np.diff(self.indptr[lo:hi + 1]))
            idx, vals = self.flat_indices[first:last], self.flat_values[first:last]
            if every_cell:  # cell k reads its block's columns into bins k*(hi - lo) + row
                idx = (np.arange(runs)[:, None] * self.dim + idx).ravel()
                vals = np.tile(vals, runs)
                row_of_entry = (np.arange(runs)[:, None] * (hi - lo) + row_of_entry).ravel()
            for c in range(model.class_count):
                sums = np.bincount(row_of_entry, weights=model.weights[c, idx] * vals,
                                   minlength=runs * (hi - lo))
                out[:, lo:hi, c] = sums.reshape(runs, hi - lo)
        out = out.reshape(rows, model.class_count)
        if model.bias.ndim == 1:
            out += model.bias
        else:
            out.reshape(cells, rows // cells, model.class_count)[:] += model.bias[:, None, :]
        return out


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values in the sorted ``keys`` starts.

    A sort and this mask stand in for numpy's ``unique``, which in numpy 2.4
    takes a hash-table path on integers: on the 72k int32 ids of a probe
    slice it is over 10x slower than a sort and can leave megabytes of
    fragmented heap behind.
    """
    run_start = np.empty(len(keys), dtype=bool)
    run_start[:1] = True  # empty keys have no run to start
    np.not_equal(keys[1:], keys[:-1], out=run_start[1:])
    return run_start


def probabilities(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, max-subtracted so large finite logits cannot overflow."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class SparseGrads:
    """Gradient of the mean batch loss, restricted to the touched columns."""

    cols: np.ndarray         # unique touched feature ids, in the batch's id dtype
    weight_vals: np.ndarray  # (C, len(cols))
    bias: np.ndarray         # the model's bias shape


def loss_and_grad(model: LinearModel, batch: FeatureMatrix,
                  labels) -> tuple[float | np.ndarray, SparseGrads]:
    """Mean cross-entropy over the rows of ``batch`` and their ``labels``.

    The logit gradient is (p - onehot)/rows, pushed onto the touched columns
    and the bias. Each column and the bias add their rows' terms in row
    order, starting from zero, as a loop over the rows would.

    For a grid model the batch holds each cell's rows in turn, the same
    number for every cell (see ``FeatureMatrix.logits``): "rows" is that
    per-cell count, the bias gradient is (K, C), and the loss is an array of
    each cell's mean.
    """
    n, cells, grid = batch.n_rows, model.cells, model.bias.ndim == 2
    if n == 0:
        raise ValueError("empty batch")
    per_cell = n // cells
    inv = 1.0 / per_cell
    rows = np.arange(n)
    delta = probabilities(batch.logits(model))
    log_p = np.log(np.maximum(delta[rows, labels], 1e-300))
    loss = (-log_p.reshape(cells, per_cell).sum(axis=1) * inv if grid
            else -float(log_p.sum()) * inv)
    delta[rows, labels] -= 1.0
    delta *= inv
    cols = batch.distinct_ids()
    at = np.searchsorted(cols, batch.flat_indices)
    row_of_entry = np.repeat(rows, np.diff(batch.indptr))
    gw = np.empty((model.class_count, len(cols)), dtype=np.float64)
    for c in range(model.class_count):
        gw[c] = np.bincount(at, weights=delta[row_of_entry, c] * batch.flat_values,
                            minlength=len(cols))
    # numpy sums along a non-contiguous axis one row after another
    gb = (delta.reshape(cells, per_cell, -1).sum(axis=1, initial=0.0) if grid
          else delta.sum(axis=0, initial=0.0))
    return loss, SparseGrads(cols=cols, weight_vals=gw, bias=gb)


@dataclass
class OptimizerState:
    """SGD or AdamW with a linear learning-rate decay to zero (no warm-up).

    The effective rate for the update at step count t (0-based, pre-update)
    is base_lr * max(0, 1 - t/total_steps); t increments once per update.
    """

    kind: str = "adamw"
    base_lr: float = 0.01
    total_steps: int = 1
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    t: int = 0
    m_w: np.ndarray | None = None
    v_w: np.ndarray | None = None
    m_b: np.ndarray | None = None
    v_b: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("sgd", "adamw"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")

    @classmethod
    def for_model(cls, model: LinearModel, kind: str = "adamw", base_lr: float | None = None,
                  total_steps: int = 1, weight_decay: float = 0.01,
                  beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        if base_lr is None:
            base_lr = 0.1 if kind == "sgd" else 0.01
        state = cls(kind=kind, base_lr=base_lr, total_steps=total_steps,
                    weight_decay=weight_decay, beta1=beta1, beta2=beta2, epsilon=epsilon)
        if kind == "adamw":
            state.m_w = np.zeros_like(model.weights)
            state.v_w = np.zeros_like(model.weights)
            state.m_b = np.zeros_like(model.bias)
            state.v_b = np.zeros_like(model.bias)
        return state

    def effective_lr(self) -> float:
        return self.base_lr * max(0.0, 1.0 - self.t / self.total_steps)


NONFINITE_GRADIENT = "non-finite gradient; aborting the run"
NONFINITE_PARAMETERS = "non-finite parameters after update; aborting the run"


def optimizer_step(model: LinearModel, grads: SparseGrads, state: OptimizerState):
    """Apply one update in place; returns (model, state) for convenience.

    Every operation is per element, so a grid model's cells update as they
    would alone: they share the step count and so the learning rate.
    """
    if not (np.all(np.isfinite(grads.weight_vals)) and np.all(np.isfinite(grads.bias))):
        raise FloatingPointError(NONFINITE_GRADIENT)
    lr = state.effective_lr()
    if state.kind == "sgd":
        if lr != 0.0:
            model.weights[:, grads.cols] -= lr * grads.weight_vals
            model.bias -= lr * grads.bias
    else:
        b1, b2 = state.beta1, state.beta2
        state.m_w *= b1
        state.m_w[:, grads.cols] += (1 - b1) * grads.weight_vals
        state.v_w *= b2
        state.v_w[:, grads.cols] += (1 - b2) * grads.weight_vals ** 2
        state.m_b = b1 * state.m_b + (1 - b1) * grads.bias
        state.v_b = b2 * state.v_b + (1 - b2) * grads.bias ** 2
        step_num = state.t + 1
        bc1 = 1 - b1 ** step_num
        bc2 = 1 - b2 ** step_num
        if lr != 0.0:
            denom = np.sqrt(state.v_w / bc2) + state.epsilon
            model.weights -= lr * ((state.m_w / bc1) / denom)
            if state.weight_decay:
                model.weights -= lr * state.weight_decay * model.weights
            denom_b = np.sqrt(state.v_b / bc2) + state.epsilon
            model.bias -= lr * ((state.m_b / bc1) / denom_b)
            if state.weight_decay:
                model.bias -= lr * state.weight_decay * model.bias
    state.t += 1
    if not (np.all(np.isfinite(model.weights)) and np.all(np.isfinite(model.bias))):
        raise FloatingPointError(NONFINITE_PARAMETERS)
    return model, state


def build_probe_scorer(dataset: Dataset, feats: FeatureMatrix, probe_fraction: float = 0.1,
                       probe_epochs: int = 1, seed: int = 0, kind: str = "adamw",
                       base_lr: float | None = None, batch_size: int = 16) -> LinearModel:
    """Train a throwaway classifier on a stratified slice and return it frozen.

    ``feats`` is the dataset's FeatureMatrix; the probe trains on the slice's
    rows of it, in the slice's own columns, and is returned scattered back to
    width ``feats.dim``, so its ``logits`` score every example and the model
    can stand in for pre-trained confidence when no external score file is
    available. A column the slice never uses stays +0.0. With probe_epochs=0
    the model stays all-zero and every score is exactly 0.
    """
    if not 0 < probe_fraction <= 1:
        raise ValueError("probe_fraction must be in (0, 1]")
    if probe_epochs < 0:
        raise ValueError(f"probe_epochs must be >= 0, got {probe_epochs}")
    if feats.n_rows != len(dataset):
        raise ValueError(f"features have {feats.n_rows} rows, dataset has {len(dataset)}")
    if probe_fraction < 1:
        probe = stratified_split(dataset, [probe_fraction, 1 - probe_fraction],
                                 seed=seed, tags=("train", "train"))[0]
    else:
        probe = dataset
    present = set(int(c) for c in dataset.labels)
    got = set(int(c) for c in probe.labels)
    if present - got:
        raise ValueError(f"probe subset smaller than one example per class "
                         f"(classes {sorted(present - got)} absent)")

    if probe_epochs == 0:
        return LinearModel.zeros(dataset.class_count, feats.dim)
    probe_rows = rows_of(dataset.ids, probe.ids)
    sliced = feats.take(probe_rows)
    vocab = sliced.distinct_ids()
    sliced, labels = sliced.in_columns(vocab), dataset.labels[probe_rows]
    model = LinearModel.zeros(dataset.class_count, len(vocab))
    steps_per_epoch = max(1, -(-len(probe) // batch_size))
    state = OptimizerState.for_model(model, kind=kind, base_lr=base_lr,
                                     total_steps=probe_epochs * steps_per_epoch)
    rng = np.random.default_rng(seed)
    for _ in range(probe_epochs):
        order = rng.permutation(len(probe))
        for start in range(0, len(probe), batch_size):
            rows = order[start:start + batch_size]
            _, grads = loss_and_grad(model, sliced.take(rows), labels[rows])
            optimizer_step(model, grads, state)
    return model.scatter(vocab, feats.dim)

