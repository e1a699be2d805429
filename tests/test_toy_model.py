import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from curlearn import toy_model
from curlearn.dataset_io import Dataset, Example, tokenize
from curlearn.scoring import score_dataset
from curlearn.toy_model import (FeatureMatrix, LinearModel, OptimizerState,
                                build_probe_scorer, featurize, loss_and_grad,
                                optimizer_step, probabilities)
from curlearn.trainer import compute_metrics, evaluate
from curlearn.synthetic import make_separable_corpus

DIM = 2 ** 10


# ---------------------------------------------------------------- featurize


def reference_featurize(example, dim, max_tokens=None):
    """The per-example Counter/sorted featurization FeatureMatrix.build
    replaced: (strictly increasing ids, counts) of one example."""
    tokens = [f"p:{t}" for t in tokenize(example.text)]
    if example.text_pair is not None:
        tokens += [f"h:{t}" for t in tokenize(example.text_pair)]
    if max_tokens is not None:
        tokens = tokens[:max_tokens]
    counts = Counter(toy_model._hash_token(t) & (dim - 1) for t in tokens)
    idx = np.array(sorted(counts), dtype=np.int64)
    return idx, np.array([counts[i] for i in idx], dtype=np.float64)


def build_one(example, dim, max_tokens=None):
    """A one-row FeatureMatrix of ``example``."""
    return FeatureMatrix.build(Dataset(examples=[example], class_count=2), dim, max_tokens)


def test_featurize_counts_repeated_tokens():
    cols = featurize(Example(id=0, text="a a b", label=0), DIM)
    assert len(cols) == 3 and cols[0] == cols[1] != cols[2]
    row = build_one(Example(id=0, text="a a b", label=0), DIM)
    assert row.indptr.tolist() == [0, 2]
    assert sorted(row.flat_values.tolist()) == [1.0, 2.0]
    assert np.all(np.diff(row.flat_indices) > 0)


def test_featurize_deterministic():
    ex = Example(id=0, text="Stable hashing please", label=0)
    assert featurize(ex, DIM) == featurize(ex, DIM)


def test_featurize_namespaces_premise_and_hypothesis():
    cols = featurize(Example(id=0, text="a", label=0, text_pair="a"), DIM)
    assert len(cols) == 2 and cols[0] != cols[1]


def test_featurize_empty_text():
    assert featurize(Example(id=0, text="", label=0), DIM) == []
    row = build_one(Example(id=0, text="", label=0), DIM)
    assert row.indptr.tolist() == [0, 0] and len(row.flat_indices) == 0


def test_featurize_rejects_non_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        build_one(Example(id=0, text="a", label=0), 1000)


def test_build_rejects_dim_past_int32_ids():
    with pytest.raises(ValueError, match="2\\*\\*31"):
        build_one(Example(id=0, text="a", label=0), 2 ** 32)
    assert build_one(Example(id=0, text="a", label=0), 2 ** 31).flat_indices.dtype == np.int32


def test_featurize_max_tokens_truncates():
    ex = Example(id=0, text="a b c d", label=0)
    assert len(featurize(ex, DIM)) == 4
    assert featurize(ex, DIM, max_tokens=2) == featurize(ex, DIM)[:2]
    assert build_one(ex, DIM, max_tokens=2).flat_values.sum() == 2


def _random_text(rng, vocab):
    words = [str(w) for w in rng.choice(vocab, size=int(rng.integers(0, 12)))]
    return " ".join(words)


def test_build_matches_per_example_reference():
    # a small vocabulary repeats tokens, and dim 8 makes distinct tokens collide
    rng = np.random.default_rng(21)
    vocab = ["a", "b", "the", "cat", "don't", "it's", "x1", "!!", "...", "(?)", "-",
             "Zebra,", "quick.", "naïve", "日本"]
    fixed = [Example(id=0, text="", label=0), Example(id=1, text="!! ... (?)", label=0),
             Example(id=2, text="a a a b", label=0, text_pair="a b b"),
             Example(id=3, text="", label=0, text_pair="")]
    collisions = 0
    for trial in range(60):
        n = 1 if trial % 10 == 0 else int(rng.integers(1, 30))
        examples = [Example(id=i, text=_random_text(rng, vocab), label=0,
                            text_pair=_random_text(rng, vocab) if rng.random() < 0.5 else None)
                    for i in range(n)]
        if trial % 10 != 0:
            examples += [replace(ex, id=n + k) for k, ex in enumerate(fixed)]
        ds = Dataset(examples=examples, class_count=2)
        dim, max_tokens = [8, 64, 2 ** 16][trial % 3], [None, 1, 3, 100][trial % 4]
        want = csr([reference_featurize(ex, dim, max_tokens) for ex in examples], dim)
        if dim == 8:
            collisions += sum(len(set(featurize(ex, 2 ** 16, max_tokens)))
                              > len(set(featurize(ex, dim, max_tokens))) for ex in examples)
        got = FeatureMatrix.build(ds, dim, max_tokens)
        assert (got.dim, got.max_tokens, got.n_rows) == (dim, max_tokens, len(examples))
        assert got.flat_indices.dtype == np.int32 and got.flat_values.dtype == np.float32
        for name in ("indptr", "flat_indices", "flat_values"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (trial, name)
    assert collisions > 0


def test_build_with_the_piece_memo_matches_the_reference():
    dim, max_tokens = 2 ** 20, 6
    examples = [
        # pieces "--" and "!!!" drop and do not count toward the cap of 6,
        # which falls inside the pair text, after its "great" and "word"
        Example(id=0, text="Great great! (great) -- Word", label=0,
                text_pair="!!! great WORD ΟΔΟΣ, great"),
        Example(id=1, text="!!! -- ...", label=1),
        Example(id=2, text="ΟΔΟΣ, οδος (Οδος)", label=0, text_pair="--"),
        Example(id=3, text="word", label=1, text_pair="great!"),
    ]
    got = FeatureMatrix.build(Dataset(examples=examples, class_count=2), dim, max_tokens)
    want = csr([reference_featurize(ex, dim, max_tokens) for ex in examples], dim)
    for name in ("indptr", "flat_indices", "flat_values"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def col(token):
        return toy_model._hash_token(token) & (dim - 1)

    rows = [dict(zip(got.flat_indices[a:b].tolist(), got.flat_values[a:b].tolist()))
            for a, b in zip(got.indptr[:-1], got.indptr[1:])]
    assert col("p:great") != col("h:great") and col("p:word") != col("h:word")
    assert rows == [{col("p:great"): 3, col("p:word"): 1, col("h:great"): 1, col("h:word"): 1},
                    {},
                    {col("p:οδος"): 3},
                    {col("p:word"): 1, col("h:great"): 1}]

    memo = {}
    for ex in examples:
        assert featurize(ex, dim, max_tokens, memo) == featurize(ex, dim, max_tokens)
    assert memo["p:(great)"] == memo["p:great!"] == col("p:great")
    assert memo["p:--"] == memo["h:!!!"] == -1


def csr(rows, dim):
    """A FeatureMatrix holding the given (indices, values) pairs as its rows."""
    indptr = np.concatenate([[0], np.cumsum([len(idx) for idx, _ in rows])]).astype(np.int64)
    return FeatureMatrix(
        indptr=indptr,
        flat_indices=np.concatenate([np.empty(0, np.int64)] + [idx for idx, _ in rows]),
        flat_values=np.concatenate([np.empty(0)] + [vals for _, vals in rows]),
        dim=dim, max_tokens=None)


# ------------------------------------------------------------------ forward


def test_forward_zero_model_gives_zero_logits():
    model = LinearModel.zeros(3, DIM)
    feats = csr([reference_featurize(Example(id=0, text="x y z", label=0), DIM)], DIM)
    assert feats.logits(model).tolist() == [[0.0, 0.0, 0.0]]


def test_forward_single_feature():
    model = LinearModel.zeros(2, DIM)
    feats = csr([(np.array([7]), np.array([3.0]))], DIM)
    model.weights[0, 7] = 0.5
    model.bias[0] = 0.25
    logits = feats.logits(model)[0]
    assert logits[0] == pytest.approx(0.5 * 3.0 + 0.25)
    assert logits[1] == 0.0


def test_forward_matches_dense_matmul_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        C, D = int(rng.integers(2, 6)), 64
        model = LinearModel(weights=rng.normal(size=(C, D)), bias=rng.normal(size=C))
        vectors, dense = [], np.zeros((int(rng.integers(1, 6)), D))
        for row in dense:
            k = int(rng.integers(0, 10))
            idx = np.sort(rng.choice(D, size=k, replace=False)).astype(np.int64)
            vectors.append((idx, rng.integers(1, 4, size=k).astype(float)))
            row[idx] = vectors[-1][1]
        assert csr(vectors, D).logits(model) == pytest.approx(dense @ model.weights.T
                                                             + model.bias)


def test_forward_rejects_out_of_range_index():
    # a matrix hashed for a wider model holds ids past this model's columns
    model = LinearModel.zeros(2, 8)
    feats = csr([(np.array([9]), np.array([1.0]))], 16)
    with pytest.raises(ValueError, match="dim"):
        feats.logits(model)


def test_logits_blocks_match_one_pass(monkeypatch):
    rng = np.random.default_rng(6)
    ds = Dataset(examples=[Example(id=i, text=" ".join(f"t{rng.integers(40)}" for _ in
                                                      range(int(rng.integers(0, 6)))),
                                   label=0) for i in range(23)], class_count=3)
    model = LinearModel(weights=rng.normal(size=(3, DIM)), bias=rng.normal(size=3))
    feats = FeatureMatrix.build(ds, DIM)
    whole = feats.logits(model)
    monkeypatch.setattr(toy_model, "LOGITS_BLOCK_ROWS", 4)
    assert np.array_equal(feats.logits(model), whole)
    rows = [5, 0, 5, 22]
    assert np.array_equal(feats.take(rows).logits(model), whole[rows])


# ------------------------------------------------------------------ softmax


def softmax(logits):
    return probabilities(np.asarray([logits], dtype=np.float64))[0]


def test_softmax_symmetric():
    assert softmax([0.0, 0.0]) == pytest.approx([0.5, 0.5])


def test_softmax_large_logits_no_overflow():
    probs = softmax([1000.0, 1000.0, 1000.0])
    assert probs == pytest.approx([1 / 3] * 3)


def test_softmax_matches_high_precision_oracle():
    # frozen from a 60-digit arbitrary-precision computation
    want = [0.09003057317038046, 0.24472847105479765, 0.6652409557748219]
    got = softmax([1.0, 2.0, 3.0])
    assert np.max(np.abs(got - np.array(want))) < 1e-12


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    for _ in range(50):
        z = rng.normal(size=4) * 10
        c = float(rng.normal() * 100)
        assert np.max(np.abs(softmax(z + c) - softmax(z))) < 1e-12


def test_softmax_output_is_valid_distribution():
    rng = np.random.default_rng(2)
    probs = probabilities(rng.normal(size=(100, 5)) * 50)
    assert np.all(probs >= 0)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9


def test_softmax_rejects_non_finite():
    # an infinite logit gives a NaN row, which scoring refuses by example id
    ds = Dataset(examples=[Example(id=0, text="a", label=0), Example(id=7, text="b", label=1)],
                 class_count=2)
    with np.errstate(invalid="ignore"):
        probs = probabilities(np.array([[0.0, 1.0], [np.inf, 0.0]]))
    with pytest.raises(ValueError, match="id 7"):
        score_dataset(probs, ds)


# ------------------------------------------------------------ loss and grad


def _random_instance(rng, dim=64):
    C = int(rng.integers(2, 6))
    model = LinearModel(weights=rng.normal(size=(C, dim)) * 0.5,
                        bias=rng.normal(size=C) * 0.5)
    vectors, labels = [], []
    for _ in range(int(rng.integers(1, 9))):
        k = int(rng.integers(1, 8))
        idx = np.sort(rng.choice(dim, size=k, replace=False)).astype(np.int64)
        vals = rng.integers(1, 4, size=k).astype(float)
        vectors.append((idx, vals))
        labels.append(int(rng.integers(C)))
    return model, csr(vectors, dim), np.array(labels)


def finite_difference_check(model, batch, labels, eps=1e-5):
    """Max relative error of the analytic gradient on touched coordinates."""
    _, grads = loss_and_grad(model, batch, labels)
    worst = 0.0

    def loss_at():
        return loss_and_grad(model, batch, labels)[0]

    for c in range(model.class_count):
        for j, col in enumerate(grads.cols):
            model.weights[c, col] += eps
            up = loss_at()
            model.weights[c, col] -= 2 * eps
            down = loss_at()
            model.weights[c, col] += eps
            fd = (up - down) / (2 * eps)
            a = grads.weight_vals[c, j]
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-8))
        model.bias[c] += eps
        up = loss_at()
        model.bias[c] -= 2 * eps
        down = loss_at()
        model.bias[c] += eps
        fd = (up - down) / (2 * eps)
        worst = max(worst, abs(grads.bias[c] - fd) / max(abs(grads.bias[c]), abs(fd), 1e-8))
    return worst


def reference_loss_and_grad(model, batch, labels):
    """The per-example loop loss_and_grad replaced, with its logits from
    FeatureMatrix.logits; loss_and_grad must match it bit for bit."""
    C, n = model.class_count, batch.n_rows
    inv = 1.0 / n
    cols = np.unique(batch.flat_indices)
    col_pos = {int(c): k for k, c in enumerate(cols)}
    gw = np.zeros((C, len(cols)))
    gb = np.zeros(C)
    for r in range(n):
        z = batch.take([r]).logits(model)[0]
        z = z - z.max()
        e = np.exp(z)
        delta = e / e.sum()
        delta[labels[r]] -= 1.0
        delta *= inv
        gb += delta
        lo, hi = batch.indptr[r], batch.indptr[r + 1]
        if hi > lo:
            pos = [col_pos[int(c)] for c in batch.flat_indices[lo:hi]]
            gw[:, pos] += np.outer(delta, batch.flat_values[lo:hi])
    return cols, gw, gb


def test_gradient_matches_per_example_reference_bit_for_bit():
    rng = np.random.default_rng(12)
    for trial in range(200):
        C, D = int(rng.integers(2, 6)), int(rng.choice([8, 64, 1024]))
        model = LinearModel(weights=rng.normal(size=(C, D)) * rng.choice([0.01, 1.0, 30.0]),
                            bias=rng.normal(size=C))
        # few columns, so rows share them; some rows empty
        pool = int(rng.integers(1, D + 1))
        vectors = []
        for _ in range(int(rng.integers(1, 40))):
            k = int(rng.integers(0, min(pool, 9) + 1))
            idx = np.sort(rng.choice(pool, size=k, replace=False)).astype(np.int64)
            vectors.append((idx, rng.integers(1, 5, size=k).astype(float)))
        vectors[0] = (np.empty(0, np.int64), np.empty(0))
        feats = csr(vectors, D)
        rows = rng.integers(0, len(vectors), size=int(rng.integers(1, 33)))
        rows[-1] = rows[0]  # a row repeated within the batch
        if trial % 3 == 0:
            rows[0] = 0  # an empty row
        batch = feats.take(rows)
        labels = rng.integers(0, C, size=len(rows))
        _, grads = loss_and_grad(model, batch, labels)
        cols, gw, gb = reference_loss_and_grad(model, batch, labels)
        assert np.array_equal(grads.cols, cols)
        assert np.array_equal(grads.weight_vals, gw)
        assert np.array_equal(grads.bias, gb)


def test_narrow_built_matrix_gives_the_bits_of_its_wide_cast():
    # build stores int32 ids and float32 counts; small counts widen exactly
    rng = np.random.default_rng(8)
    examples = [Example(id=i, text=" ".join(f"t{rng.integers(30)}"
                                            for _ in range(int(rng.integers(0, 20)))),
                        label=int(rng.integers(3))) for i in range(60)]
    ds = Dataset(examples=examples, class_count=3)
    narrow = FeatureMatrix.build(ds, 64)
    assert narrow.flat_indices.dtype == np.int32 and narrow.flat_values.dtype == np.float32
    assert narrow.flat_values.max() > 1
    wide = replace(narrow, flat_indices=narrow.flat_indices.astype(np.int64),
                   flat_values=narrow.flat_values.astype(np.float64))
    model = LinearModel(weights=rng.normal(size=(3, 64)), bias=rng.normal(size=3))
    assert np.array_equal(narrow.logits(model), wide.logits(model))
    models = [model, model.copy()]
    states = [OptimizerState.for_model(m, total_steps=20) for m in models]
    for _ in range(10):
        rows = rng.integers(0, len(ds), size=16)
        (loss_n, grads_n), (loss_w, grads_w) = (
            loss_and_grad(model, feats.take(rows), ds.labels[rows])
            for model, feats in ((models[0], narrow), (models[1], wide)))
        assert loss_n == loss_w
        assert np.array_equal(grads_n.cols, grads_w.cols)
        assert np.array_equal(grads_n.weight_vals, grads_w.weight_vals)
        assert np.array_equal(grads_n.bias, grads_w.bias)
        optimizer_step(models[0], grads_n, states[0])
        optimizer_step(models[1], grads_w, states[1])
    assert np.array_equal(models[0].weights, models[1].weights)
    live = states[0].live_cols
    assert live.dtype == np.int64 and np.all(np.diff(live) > 0)
    assert np.array_equal(live, states[1].live_cols)


def test_zero_model_binary_loss_is_ln2():
    model = LinearModel.zeros(2, DIM)
    fv = reference_featurize(Example(id=0, text="hello world", label=0), DIM)
    loss, _ = loss_and_grad(model, csr([fv, fv], DIM), [0, 1])
    assert loss == pytest.approx(math.log(2), abs=1e-12)


def test_confident_correct_model_loss_near_zero():
    model = LinearModel.zeros(2, 8)
    model.weights[1, 3] = 50.0
    fv = (np.array([3]), np.array([1.0]))
    loss, _ = loss_and_grad(model, csr([fv], 8), [1])
    assert loss < 1e-8


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    for _ in range(10):
        model, batch, labels = _random_instance(rng)
        assert finite_difference_check(model, batch, labels) < 1e-4


def test_empty_batch_rejected():
    with pytest.raises(ValueError, match="empty"):
        loss_and_grad(LinearModel.zeros(2, 8), csr([], 8), [])


# ---------------------------------------------------------------- optimizer


def _scalar_setup(kind, base_lr, total_steps=10 ** 6, weight_decay=0.0):
    model = LinearModel.zeros(2, 2)
    state = OptimizerState.for_model(model, kind=kind, base_lr=base_lr,
                                     total_steps=total_steps, weight_decay=weight_decay)
    from curlearn.toy_model import SparseGrads
    grads = SparseGrads(cols=np.array([0]), weight_vals=np.array([[1.0], [0.0]]),
                        bias=np.zeros(2))
    return model, state, grads


def test_sgd_step_moves_against_gradient():
    model, state, grads = _scalar_setup("sgd", base_lr=1.0)
    optimizer_step(model, grads, state)
    assert model.weights[0, 0] == pytest.approx(-1.0)
    assert state.t == 1


def test_adamw_first_step_magnitude_is_lr():
    # hand-derived: m_hat = g, v_hat = g^2, so the step is lr*g/(|g|+eps)
    model, state, grads = _scalar_setup("adamw", base_lr=0.01)
    grads.weight_vals[0, 0] = 0.5
    optimizer_step(model, grads, state)
    want = -0.01 * 0.5 / (0.5 + state.epsilon)
    assert model.weights[0, 0] == pytest.approx(want, rel=1e-9)
    assert abs(model.weights[0, 0]) == pytest.approx(0.01, rel=1e-6)


def test_schedule_reaches_zero_update_at_total_steps():
    model, state, grads = _scalar_setup("sgd", base_lr=1.0, total_steps=5)
    state.t = 5
    before = model.weights.copy()
    optimizer_step(model, grads, state)
    assert np.array_equal(model.weights, before)
    assert state.t == 6


def test_linear_schedule_values():
    state = OptimizerState(kind="sgd", base_lr=0.1, total_steps=10)
    assert state.effective_lr() == pytest.approx(0.1)
    state.t = 5
    assert state.effective_lr() == pytest.approx(0.05)
    state.t = 10
    assert state.effective_lr() == 0.0
    state.t = 12
    assert state.effective_lr() == 0.0


def test_adamw_decoupled_weight_decay_shrinks_parameters():
    model, state, grads = _scalar_setup("adamw", base_lr=0.1, weight_decay=0.5)
    model.weights[1, 1] = 2.0  # untouched by the gradient, still decays
    optimizer_step(model, grads, state)
    assert model.weights[1, 1] == pytest.approx(2.0 * (1 - 0.1 * 0.5))


def test_non_finite_gradient_aborts():
    model, state, grads = _scalar_setup("sgd", base_lr=1.0)
    grads.weight_vals[0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        optimizer_step(model, grads, state)


def _dense_adamw_step(model, grads, state):
    """Reference AdamW over every column; optimizer_step must match it bit for bit."""
    if not (np.all(np.isfinite(grads.weight_vals)) and np.all(np.isfinite(grads.bias))):
        raise FloatingPointError("non-finite gradient; aborting the run")
    lr = state.effective_lr()
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
        raise FloatingPointError("non-finite parameters after update; aborting the run")


def _random_sparse_grads(rng, class_count, pool):
    """Gradient on a few columns of [0, pool), skewed so some are rarely touched."""
    from curlearn.toy_model import SparseGrads
    weights = 1.0 / np.arange(1, pool + 1)
    cols = np.unique(rng.choice(pool, size=int(rng.integers(0, 12)), p=weights / weights.sum()))
    return SparseGrads(cols=cols, weight_vals=rng.normal(size=(class_count, len(cols))),
                       bias=rng.normal(size=class_count))


@pytest.mark.parametrize("dense_share", [1.0, toy_model.DENSE_LIVE_SHARE],
                         ids=["live_only", "switching"])
@pytest.mark.parametrize("case", ["preset_weight", "negative_zero", "lr_zero",
                                  "nan_untouched"])
def test_adamw_matches_dense_reference_bit_for_bit(case, dense_share, monkeypatch):
    # live_only never switches to the in-place sweep; switching crosses the
    # default share mid-run, so both update paths and the switch are checked
    monkeypatch.setattr(toy_model, "DENSE_LIVE_SHARE", dense_share)
    rng = np.random.default_rng(11)
    C, D, pool, steps = 3, 512, 300, 220
    untouched = 400  # outside the gradient pool
    total = 100 if case == "lr_zero" else steps  # lr is 0 from step 100 on
    ref, model = LinearModel.zeros(C, D), LinearModel.zeros(C, D)
    if case == "preset_weight":
        ref.weights[1, untouched] = model.weights[1, untouched] = 0.7
    if case == "negative_zero":
        ref.weights[1, untouched] = model.weights[1, untouched] = -0.0
    ref_state = OptimizerState.for_model(ref, base_lr=0.05, total_steps=total)
    state = OptimizerState.for_model(model, base_lr=0.05, total_steps=total)
    live_sizes = []
    for step in range(steps):
        grads = _random_sparse_grads(rng, C, pool)
        if case == "nan_untouched" and step == 50:
            assert untouched not in state.live_cols
            ref.weights[2, untouched] = model.weights[2, untouched] = np.nan
            with pytest.raises(FloatingPointError):
                _dense_adamw_step(ref, grads, ref_state)
            with pytest.raises(FloatingPointError):
                optimizer_step(model, grads, state)
            return
        _dense_adamw_step(ref, grads, ref_state)
        optimizer_step(model, grads, state)
        live_sizes.append(len(state.live_cols))
    if dense_share < 1.0:
        assert live_sizes[10] <= dense_share * D < live_sizes[-1]
    assert live_sizes[-1] < D
    for want, got in ((ref.weights, model.weights), (ref.bias, model.bias),
                      (ref_state.m_w, state.m_w), (ref_state.v_w, state.v_w),
                      (ref_state.m_b, state.m_b), (ref_state.v_b, state.v_b)):
        assert np.array_equal(want, got)
    assert np.array_equal(np.signbit(ref.weights), np.signbit(model.weights))
    assert ref_state.t == state.t == steps


# ------------------------------------------------------------------ predict


def test_predict_zero_model_ties_to_lowest_class():
    model = LinearModel.zeros(3, DIM)
    ds = Dataset(examples=[Example(id=i, text="whatever", label=i) for i in range(3)],
                 class_count=3)
    metrics, loss = evaluate(model, ds)
    # every example predicted as class 0: only class 0 is ever recalled
    assert [c.recall for c in metrics.per_class] == [1.0, 0.0, 0.0]
    assert loss == pytest.approx(math.log(3))


def test_predict_matches_argmax_oracle():
    rng = np.random.default_rng(4)
    model = LinearModel(weights=rng.normal(size=(4, DIM)), bias=rng.normal(size=4))
    examples = [Example(id=i, text=" ".join(f"t{rng.integers(50)}" for _ in range(5)),
                        label=int(rng.integers(4))) for i in range(100)]
    ds = Dataset(examples=examples, class_count=4)
    oracle = []
    for ex in examples:
        idx, vals = reference_featurize(ex, DIM)
        oracle.append(int(np.argmax(model.weights[:, idx] @ vals + model.bias)))
    metrics, _ = evaluate(model, ds)
    assert metrics == compute_metrics(oracle, ds.labels, 4)


# ----------------------------------------------------------------- probing


def probe_scores(ds, **kwargs):
    feats = FeatureMatrix.build(ds, DIM)
    model = build_probe_scorer(ds, feats, **kwargs)
    return score_dataset(probabilities(feats.logits(model)), ds)


def test_probe_scores_are_non_degenerate_on_separable_data():
    ds = make_separable_corpus(80, seed=0)
    table = probe_scores(ds, probe_fraction=0.5, probe_epochs=2, seed=1)
    assert float(np.var(table.scores)) > 0


def test_probe_full_fraction_converges_on_separable_data():
    ds = make_separable_corpus(40, seed=1)
    table = probe_scores(ds, probe_fraction=1.0, probe_epochs=50, seed=1, kind="sgd",
                         base_lr=0.5)
    assert float(np.median(table.scores)) > 0.9


def test_probe_zero_epochs_scores_exactly_zero():
    ds = make_separable_corpus(20, seed=2)
    table = probe_scores(ds, probe_fraction=0.5, probe_epochs=0, seed=0)
    assert np.array_equal(table.scores, np.zeros(20))


def test_probe_rejects_subset_missing_a_class():
    # 25 examples of class 0, 3 of class 1: a 10% probe cannot cover class 1
    examples = [Example(id=i, text=f"w{i}", label=0) for i in range(25)]
    examples += [Example(id=25 + i, text=f"v{i}", label=1) for i in range(3)]
    ds = Dataset(examples=examples, class_count=2)
    with pytest.raises(ValueError, match="one example per class"):
        build_probe_scorer(ds, FeatureMatrix.build(ds, DIM), probe_fraction=0.1,
                           probe_epochs=1, seed=0)


def test_probe_training_is_bit_deterministic():
    ds = make_separable_corpus(60, seed=3)
    a = build_probe_scorer(ds, FeatureMatrix.build(ds, DIM), probe_fraction=0.5,
                           probe_epochs=3, seed=9)
    b = build_probe_scorer(ds, FeatureMatrix.build(ds, DIM), probe_fraction=0.5,
                           probe_epochs=3, seed=9)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)


def test_epoch_loss_strictly_decreases_on_separable_data():
    ds = make_separable_corpus(200, seed=4)
    feats = FeatureMatrix.build(ds, 2 ** 16)
    labels = ds.labels
    model = LinearModel.zeros(2, 2 ** 16)
    state = OptimizerState.for_model(model, kind="adamw", total_steps=5 * 13)
    rng = np.random.default_rng(0)
    epoch_losses = []
    for _ in range(5):
        order = rng.permutation(len(ds))
        losses = []
        for start in range(0, len(ds), 16):
            rows = order[start:start + 16]
            loss, grads = loss_and_grad(model, feats.take(rows), labels[rows])
            optimizer_step(model, grads, state)
            losses.append(loss)
        epoch_losses.append(float(np.mean(losses)))
    assert all(a > b for a, b in zip(epoch_losses, epoch_losses[1:]))

