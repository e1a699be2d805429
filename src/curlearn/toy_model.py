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
are computed.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, field, replace

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
    weights: np.ndarray  # (C, D)
    bias: np.ndarray     # (C,)

    @classmethod
    def zeros(cls, class_count: int, dim: int) -> "LinearModel":
        if dim <= 0 or dim & (dim - 1):
            raise ValueError(f"dim must be a power of two, got {dim}")
        return cls(weights=np.zeros((class_count, dim), dtype=np.float64),
                   bias=np.zeros(class_count, dtype=np.float64))

    @property
    def class_count(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    def copy(self) -> "LinearModel":
        return LinearModel(weights=self.weights.copy(), bias=self.bias.copy())


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
        run_start = np.empty(len(keys), dtype=bool)
        run_start[:1] = True  # a split without tokens has no run to start
        np.not_equal(keys[1:], keys[:-1], out=run_start[1:])
        first = np.flatnonzero(run_start)
        counts = np.diff(first, append=len(keys)).astype(np.float32)
        keys = keys[first]
        indptr = np.searchsorted(keys, np.arange(len(dataset) + 1, dtype=np.int64) * dim)
        keys &= dim - 1
        return cls(indptr=indptr, flat_indices=keys.astype(np.int32), flat_values=counts,
                   dim=dim, max_tokens=max_tokens)

    def take(self, rows) -> "FeatureMatrix":
        """The given rows, in the given order (repeats allowed)."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        entries = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return replace(self, indptr=indptr, flat_indices=self.flat_indices[entries],
                       flat_values=self.flat_values[entries])

    def logits(self, model: LinearModel) -> np.ndarray:
        """(rows, C) logits: bias plus each row's features summed in column order."""
        if model.dim != self.dim:
            raise ValueError(f"model dim {model.dim} != feature dim {self.dim}")
        out = np.empty((self.n_rows, model.class_count), dtype=np.float64)
        for lo in range(0, self.n_rows, LOGITS_BLOCK_ROWS):
            hi = min(lo + LOGITS_BLOCK_ROWS, self.n_rows)
            first, last = self.indptr[lo], self.indptr[hi]
            row_of_entry = np.repeat(np.arange(hi - lo), np.diff(self.indptr[lo:hi + 1]))
            idx, vals = self.flat_indices[first:last], self.flat_values[first:last]
            for c in range(model.class_count):
                out[lo:hi, c] = np.bincount(row_of_entry, weights=model.weights[c, idx] * vals,
                                            minlength=hi - lo)
        out += model.bias
        return out


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
    bias: np.ndarray         # (C,)


def loss_and_grad(model: LinearModel, batch: FeatureMatrix,
                  labels) -> tuple[float, SparseGrads]:
    """Mean cross-entropy over the rows of ``batch`` and their ``labels``.

    The logit gradient is (p - onehot)/rows, pushed onto the touched columns
    and the bias. Each column and the bias add their rows' terms in row
    order, starting from zero, as a loop over the rows would.
    """
    n = batch.n_rows
    if n == 0:
        raise ValueError("empty batch")
    inv = 1.0 / n
    rows = np.arange(n)
    delta = probabilities(batch.logits(model))
    loss = -float(np.log(np.maximum(delta[rows, labels], 1e-300)).sum()) * inv
    delta[rows, labels] -= 1.0
    delta *= inv
    cols, at = np.unique(batch.flat_indices, return_inverse=True)
    row_of_entry = np.repeat(rows, np.diff(batch.indptr))
    gw = np.empty((model.class_count, len(cols)), dtype=np.float64)
    for c in range(model.class_count):
        gw[c] = np.bincount(at, weights=delta[row_of_entry, c] * batch.flat_values,
                            minlength=len(cols))
    # numpy sums along a non-contiguous axis one row after another
    gb = delta.sum(axis=0, initial=0.0)
    return loss, SparseGrads(cols=cols, weight_vals=gw, bias=gb)


@dataclass
class OptimizerState:
    """SGD or AdamW with a linear learning-rate decay to zero (no warm-up).

    The effective rate for the update at step count t (0-based, pre-update)
    is base_lr * max(0, 1 - t/total_steps); t increments once per update.

    ``live_cols`` is the sorted set of weight columns AdamW updates. Every
    column outside it is zero in the weights and in both moments, and an
    AdamW step leaves such a column at zero, so skipping it changes no bit.
    The set is seeded at the first AdamW step from the columns that are
    non-zero (or NaN) in any of the three, and grows by each step's
    gradient columns until it holds more than ``DENSE_LIVE_SHARE`` of them;
    from then on every step updates all columns and the set is not read.
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
    live_cols: np.ndarray | None = field(default=None, init=False, repr=False)

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


# Past this share of live columns, gathering and scattering them costs about
# as much as sweeping every column in place. Measured per step at dim 2**16
# with 2 and 4 classes, the live path takes 0.15-0.3x the sweep's time at 1%
# live, 0.8-1.0x at 20%, 1.0-1.2x at 30% and 5x at 100%.
DENSE_LIVE_SHARE = 0.2


def _live_columns(model: LinearModel, grads: SparseGrads, state: OptimizerState):
    """The sorted columns this AdamW step must update, or None for all of them."""
    live = state.live_cols
    if live is None:
        # -0.0 counts as live: the dense update turns a -0.0 weight into +0.0
        live = np.flatnonzero(np.any(
            (model.weights != 0) | np.signbit(model.weights)
            | (state.m_w != 0) | (state.v_w != 0), axis=0))
    if live.size > DENSE_LIVE_SHARE * model.dim:
        state.live_cols = live
        return None
    at = np.searchsorted(live, grads.cols)
    missing = at == live.size
    missing[~missing] = live[at[~missing]] != grads.cols[~missing]
    if missing.any():
        live = np.insert(live, at[missing], grads.cols[missing])
    state.live_cols = live
    return live


def optimizer_step(model: LinearModel, grads: SparseGrads, state: OptimizerState):
    """Apply one update in place; returns (model, state) for convenience.

    AdamW touches only ``state.live_cols`` while that set is small: the
    columns outside it are zero in the weights and both moments, where the
    dense update would leave them zero. Both ways apply the same operations
    to every updated element, so they give the same bits. Set parameters
    directly only before the state's first AdamW step; a column set later
    is not updated until a gradient touches it.
    """
    if not (np.all(np.isfinite(grads.weight_vals)) and np.all(np.isfinite(grads.bias))):
        raise FloatingPointError("non-finite gradient; aborting the run")
    lr = state.effective_lr()
    if state.kind == "sgd":
        if lr != 0.0:
            model.weights[:, grads.cols] -= lr * grads.weight_vals
            model.bias -= lr * grads.bias
    else:
        b1, b2 = state.beta1, state.beta2
        live = _live_columns(model, grads, state)
        if live is None:
            m_w, v_w, weights, pos = state.m_w, state.v_w, model.weights, grads.cols
        else:
            m_w, v_w, weights = (np.take(a, live, axis=1)
                                 for a in (state.m_w, state.v_w, model.weights))
            pos = np.searchsorted(live, grads.cols)
        m_w *= b1
        m_w[:, pos] += (1 - b1) * grads.weight_vals
        v_w *= b2
        v_w[:, pos] += (1 - b2) * grads.weight_vals ** 2
        state.m_b = b1 * state.m_b + (1 - b1) * grads.bias
        state.v_b = b2 * state.v_b + (1 - b2) * grads.bias ** 2
        step_num = state.t + 1
        bc1 = 1 - b1 ** step_num
        bc2 = 1 - b2 ** step_num
        if lr != 0.0:
            denom = np.sqrt(v_w / bc2) + state.epsilon
            weights -= lr * ((m_w / bc1) / denom)
            if state.weight_decay:
                weights -= lr * state.weight_decay * weights
            denom_b = np.sqrt(state.v_b / bc2) + state.epsilon
            model.bias -= lr * ((state.m_b / bc1) / denom_b)
            if state.weight_decay:
                model.bias -= lr * state.weight_decay * model.bias
        if live is not None:
            # row by row: numpy scatters a 1-D row about twice as fast as a 2-D block
            for full, part in ((state.m_w, m_w), (state.v_w, v_w), (model.weights, weights)):
                for row in range(len(full)):
                    full[row, live] = part[row]
    state.t += 1
    if not (np.all(np.isfinite(model.weights)) and np.all(np.isfinite(model.bias))):
        raise FloatingPointError("non-finite parameters after update; aborting the run")
    return model, state


def build_probe_scorer(dataset: Dataset, feats: FeatureMatrix, probe_fraction: float = 0.1,
                       probe_epochs: int = 1, seed: int = 0, kind: str = "adamw",
                       base_lr: float | None = None, batch_size: int = 16) -> LinearModel:
    """Train a throwaway classifier on a stratified slice and return it frozen.

    ``feats`` is the dataset's FeatureMatrix; the probe trains on the slice's
    rows of it, and its ``logits`` then score every example, so the model can
    stand in for pre-trained confidence when no external score file is
    available. With probe_epochs=0 the model stays all-zero and every score
    is exactly 0.
    """
    if not 0 < probe_fraction <= 1:
        raise ValueError("probe_fraction must be in (0, 1]")
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

    model = LinearModel.zeros(dataset.class_count, feats.dim)
    if probe_epochs > 0:
        probe_rows = rows_of(dataset.ids, probe.ids)
        labels = dataset.labels
        steps_per_epoch = max(1, -(-len(probe) // batch_size))
        state = OptimizerState.for_model(model, kind=kind, base_lr=base_lr,
                                         total_steps=probe_epochs * steps_per_epoch)
        rng = np.random.default_rng(seed)
        for _ in range(probe_epochs):
            order = rng.permutation(len(probe))
            for start in range(0, len(probe), batch_size):
                rows = probe_rows[order[start:start + batch_size]]
                _, grads = loss_and_grad(model, feats.take(rows), labels[rows])
                optimizer_step(model, grads, state)
    return model

