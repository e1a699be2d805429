"""Hashed bag-of-words softmax regression: the desk-scale stand-in classifier.

This is deliberately NOT a pretrained language model. It exists so the
sampling strategies and the training harness have something differentiable
to drive end to end on a laptop. Anything produced with it is a qualitative
stand-in; faithful difficulty scores come from external score files.

Feature hashing uses blake2b (8-byte digest), which is fixed and seedless,
so feature ids are stable across processes and platforms. Tokens from the
first text are namespaced "p:", tokens from the pair text "h:".
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .dataset_io import Dataset, Example, open_atomic, tokenize
from .scoring import ClassDistribution


def _hash_token(token: str) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass
class FeatureVector:
    indices: np.ndarray  # strictly increasing feature ids in [0, D)
    values: np.ndarray   # matching positive counts

    def __len__(self):
        return len(self.indices)


def featurize(example: Example, dim: int, max_tokens: int | None = None) -> FeatureVector:
    """Hash an example's tokens into a sparse count vector of width ``dim``."""
    if dim <= 0 or dim & (dim - 1):
        raise ValueError(f"dim must be a power of two, got {dim}")
    tokens = [f"p:{t}" for t in tokenize(example.text)]
    if example.text_pair is not None:
        tokens += [f"h:{t}" for t in tokenize(example.text_pair)]
    if max_tokens is not None:
        tokens = tokens[:max_tokens]
    counts = Counter(_hash_token(t) & (dim - 1) for t in tokens)
    if not counts:
        return FeatureVector(indices=np.empty(0, dtype=np.int64),
                             values=np.empty(0, dtype=np.float64))
    idx = np.array(sorted(counts), dtype=np.int64)
    vals = np.array([counts[i] for i in idx], dtype=np.float64)
    return FeatureVector(indices=idx, values=vals)


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


def forward(model: LinearModel, features: FeatureVector) -> np.ndarray:
    """Logits for one sparse input: bias + sum over active columns."""
    if len(features) and int(features.indices[-1]) >= model.dim:
        raise IndexError(f"feature index {int(features.indices[-1])} >= dim {model.dim}")
    return model.bias + model.weights[:, features.indices] @ features.values


def softmax(logits) -> ClassDistribution:
    """Max-subtracted softmax; safe for arbitrarily large finite logits."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("softmax needs finite logits")
    e = np.exp(z - z.max())
    return ClassDistribution(e / e.sum())


def predict(model: LinearModel, example: Example,
            max_tokens: int | None = None) -> tuple[int, ClassDistribution]:
    """Argmax label (ties to the lowest class index) and its distribution."""
    dist = softmax(forward(model, featurize(example, model.dim, max_tokens)))
    return int(np.argmax(dist.probs)), dist


@dataclass
class SparseGrads:
    """Gradient of the mean batch loss, restricted to the touched columns."""

    cols: np.ndarray         # unique touched feature ids
    weight_vals: np.ndarray  # (C, len(cols))
    bias: np.ndarray         # (C,)


def loss_and_grad(model: LinearModel, batch) -> tuple[float, SparseGrads]:
    """Mean cross-entropy over a batch of (FeatureVector, label) pairs.

    The logit gradient is (p - onehot)/|batch|, pushed onto the sparse
    active columns and the bias.
    """
    if not batch:
        raise ValueError("empty batch")
    C = model.class_count
    inv = 1.0 / len(batch)
    cols = np.unique(np.concatenate([fv.indices for fv, _ in batch])
                     if any(len(fv) for fv, _ in batch) else np.empty(0, dtype=np.int64))
    col_pos = {int(c): k for k, c in enumerate(cols)}
    gw = np.zeros((C, len(cols)), dtype=np.float64)
    gb = np.zeros(C, dtype=np.float64)
    loss = 0.0
    for fv, label in batch:
        z = forward(model, fv)
        z = z - z.max()
        e = np.exp(z)
        p = e / e.sum()
        loss -= float(np.log(max(p[label], 1e-300)))
        delta = p.copy()
        delta[label] -= 1.0
        delta *= inv
        gb += delta
        if len(fv):
            pos = [col_pos[int(c)] for c in fv.indices]
            gw[:, pos] += np.outer(delta, fv.values)
    return loss * inv, SparseGrads(cols=cols, weight_vals=gw, bias=gb)


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

    def effective_lr(self, t: int | None = None) -> float:
        t = self.t if t is None else t
        return self.base_lr * max(0.0, 1.0 - t / self.total_steps)


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


@dataclass
class FeatureMatrix:
    """A featurized dataset flattened for vectorized batch evaluation."""

    vectors: list[FeatureVector]
    flat_indices: np.ndarray
    flat_values: np.ndarray
    row_ids: np.ndarray
    n_rows: int
    dim: int
    max_tokens: int | None

    @classmethod
    def build(cls, dataset: Dataset, dim: int, max_tokens: int | None = None):
        vectors = [featurize(ex, dim, max_tokens) for ex in dataset.examples]
        nnz = [len(v) for v in vectors]
        if sum(nnz) == 0:
            flat_idx = np.empty(0, dtype=np.int64)
            flat_val = np.empty(0, dtype=np.float64)
        else:
            flat_idx = np.concatenate([v.indices for v in vectors if len(v)])
            flat_val = np.concatenate([v.values for v in vectors if len(v)])
        row_ids = np.repeat(np.arange(len(vectors)), nnz)
        return cls(vectors=vectors, flat_indices=flat_idx, flat_values=flat_val,
                   row_ids=row_ids, n_rows=len(vectors), dim=dim, max_tokens=max_tokens)

    def logits(self, model: LinearModel) -> np.ndarray:
        out = np.empty((self.n_rows, model.class_count), dtype=np.float64)
        for c in range(model.class_count):
            contrib = model.weights[c, self.flat_indices] * self.flat_values
            out[:, c] = np.bincount(self.row_ids, weights=contrib, minlength=self.n_rows)
        out += model.bias
        return out


def probabilities(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax for a logits matrix."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def build_probe_scorer(dataset: Dataset, probe_fraction: float = 0.1,
                       probe_epochs: int = 1, seed: int = 0, dim: int = 2 ** 16,
                       kind: str = "adamw", base_lr: float | None = None,
                       batch_size: int = 16, max_tokens: int | None = None):
    """Train a throwaway classifier on a stratified slice and freeze it.

    The returned callable maps an Example to a ClassDistribution and never
    updates its parameters, so it can stand in for pre-trained confidence
    when no external score file is available. With probe_epochs=0 the model
    stays all-zero and every score is exactly 0.
    """
    from .dataset_io import stratified_split

    if not 0 < probe_fraction <= 1:
        raise ValueError("probe_fraction must be in (0, 1]")
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

    model = LinearModel.zeros(dataset.class_count, dim)
    if probe_epochs > 0:
        feats = FeatureMatrix.build(probe, dim, max_tokens)
        labels = probe.labels
        steps_per_epoch = max(1, -(-len(probe) // batch_size))
        state = OptimizerState.for_model(model, kind=kind, base_lr=base_lr,
                                         total_steps=probe_epochs * steps_per_epoch)
        rng = np.random.default_rng(seed)
        for _ in range(probe_epochs):
            order = rng.permutation(len(probe))
            for start in range(0, len(probe), batch_size):
                rows = order[start:start + batch_size]
                batch = [(feats.vectors[r], int(labels[r])) for r in rows]
                _, grads = loss_and_grad(model, batch)
                optimizer_step(model, grads, state)

    def provider(example: Example) -> ClassDistribution:
        return softmax(forward(model, featurize(example, dim, max_tokens)))

    provider.model = model  # frozen; exposed for analysis
    return provider


CHECKPOINT_VERSION = 1


def save_model(path, model: LinearModel, state: OptimizerState | None = None) -> None:
    """Versioned .npz checkpoint; sparse columns are stored when cheaper."""
    payload = {
        "version": np.int64(CHECKPOINT_VERSION),
        "class_count": np.int64(model.class_count),
        "dim": np.int64(model.dim),
        "bias": model.bias,
    }
    nz_cols = np.flatnonzero(np.any(model.weights != 0, axis=0))
    if len(nz_cols) * (model.class_count + 1) < model.weights.size:
        payload["weight_cols"] = nz_cols
        payload["weight_col_vals"] = model.weights[:, nz_cols]
    else:
        payload["weights"] = model.weights
    if state is not None:
        payload.update({
            "opt_kind": np.bytes_(state.kind.encode()),
            "opt_scalars": np.array([state.base_lr, state.weight_decay, state.beta1,
                                     state.beta2, state.epsilon], dtype=np.float64),
            "opt_steps": np.array([state.t, state.total_steps], dtype=np.int64),
        })
        if state.kind == "adamw":
            payload.update({"opt_m_w": state.m_w, "opt_v_w": state.v_w,
                            "opt_m_b": state.m_b, "opt_v_b": state.v_b})
    with open_atomic(path, "wb") as fh:  # keep the exact path; np.savez would append .npz
        np.savez(fh, **payload)


def load_model(path) -> tuple[LinearModel, OptimizerState | None]:
    with np.load(path) as data:
        version = int(data["version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        C, D = int(data["class_count"]), int(data["dim"])
        if "weights" in data:
            weights = data["weights"]
        else:
            weights = np.zeros((C, D), dtype=np.float64)
            weights[:, data["weight_cols"]] = data["weight_col_vals"]
        model = LinearModel(weights=weights, bias=data["bias"])
        state = None
        if "opt_kind" in data:
            scalars = data["opt_scalars"]
            steps = data["opt_steps"]
            state = OptimizerState(
                kind=bytes(data["opt_kind"]).decode(), base_lr=float(scalars[0]),
                total_steps=int(steps[1]), weight_decay=float(scalars[1]),
                beta1=float(scalars[2]), beta2=float(scalars[3]),
                epsilon=float(scalars[4]), t=int(steps[0]))
            if state.kind == "adamw":
                state.m_w, state.v_w = data["opt_m_w"], data["opt_v_w"]
                state.m_b, state.v_b = data["opt_m_b"], data["opt_v_b"]
    return model, state
