import math

import numpy as np
import pytest

from endef.models import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPS,
    BAG_OF_EMBEDDINGS,
    CONV_NGRAM,
    AdamState,
    EncoderSpec,
    ModelError,
    ScalarModel,
    SparseGrad,
    adam_step,
    binary_cross_entropy,
    sigmoid,
)

from conftest import (
    backward,
    dense_grad,
    finite_difference,
    max_relative_error,
    reference_cross_entropy,
    reference_sigmoid,
    relu_safety_margin,
    tiny_spec,
    tiny_vocab,
)


def test_spec_validation():
    with pytest.raises(ModelError):
        EncoderSpec("unknown")
    with pytest.raises(ModelError):
        EncoderSpec(BAG_OF_EMBEDDINGS, embed_dim=0)
    with pytest.raises(ModelError):
        EncoderSpec(CONV_NGRAM, window_sizes=(2, 2))
    with pytest.raises(ModelError):
        EncoderSpec(CONV_NGRAM, window_sizes=())
    with pytest.raises(ModelError):
        EncoderSpec(BAG_OF_EMBEDDINGS, activation="tanh")
    # window sizes are a list of integers: [2.7, 1] is rejected, not truncated to [2, 1]
    for window_sizes in (3, [2.7, 1], ["2"], [True], "12"):
        for kind in (BAG_OF_EMBEDDINGS, CONV_NGRAM):
            with pytest.raises(ModelError, match="window_sizes"):
                EncoderSpec(kind, window_sizes=window_sizes)


def test_zero_params_give_zero_logit():
    vocab = tiny_vocab()
    for kind in (BAG_OF_EMBEDDINGS, CONV_NGRAM):
        spec = tiny_spec(kind)
        model = ScalarModel(spec, vocab)
        model.params[:] = 0.0
        assert model.forward(vocab.encode_tokens(["w0", "w1", "w2"])) == 0.0


def test_bag_logit_invariant_to_token_permutation():
    vocab = tiny_vocab()
    model = ScalarModel(tiny_spec(BAG_OF_EMBEDDINGS), vocab, seed=5)
    a = model.forward(vocab.encode_tokens(["w0", "w1", "w2", "w3"]))
    b = model.forward(vocab.encode_tokens(["w3", "w0", "w2", "w1"]))
    assert a == pytest.approx(b, abs=1e-15)


def test_empty_sequence_rejected():
    model = ScalarModel(tiny_spec(BAG_OF_EMBEDDINGS), tiny_vocab())
    with pytest.raises(ModelError):
        model.forward(np.array([], dtype=np.intp))
    for spec in REFERENCE_SPECS:
        model = ScalarModel(spec, REFERENCE_VOCAB)
        with pytest.raises(ModelError, match="empty token sequence"):
            model._forward_cache([[4, 5, 6], [], [7]])
        with pytest.raises(ModelError, match="empty batch"):
            model._forward_cache([])


def test_out_of_vocabulary_index_maps_to_unk():
    vocab = tiny_vocab()
    model = ScalarModel(tiny_spec(BAG_OF_EMBEDDINGS), vocab, seed=1)
    assert model.forward([vocab.size + 50]) == model.forward([vocab.unk_id])
    assert model.forward([-3]) == model.forward([vocab.unk_id])


def test_out_of_range_ids_in_a_batch_read_as_unk():
    vocab = REFERENCE_VOCAB
    batch = [[4, -1, 5, vocab.size], [vocab.size + 7], [6, 7, 8, 9, -40, 4], [-2, 5]]
    as_unk = [[vocab.unk_id if i < 0 or i >= vocab.size else i for i in ids] for ids in batch]
    upstream = np.array([0.3, -1.1, 0.7, 2.0])
    for seed in range(3):
        for spec in REFERENCE_SPECS:
            model = ScalarModel(spec, vocab, seed=seed)
            logits, cache = model._forward_cache(batch)
            expect_logits, expect_cache = model._forward_cache(as_unk)
            assert np.array_equal(logits, expect_logits)
            grad = model._backward_from_cache(cache, upstream)
            expect = model._backward_from_cache(expect_cache, upstream)
            for part, expect_part in zip(grad, expect):
                assert np.array_equal(part, expect_part)


def bag_forward_oracle(model, ids):
    """Straight-line re-implementation of the bag encoder in plain Python."""
    layout, p = model.layout, model.params
    E = layout.view(p, "embed")
    d = model.spec.embed_dim
    x = [0.0] * d
    for i in ids:
        for j in range(d):
            x[j] += float(E[i][j]) / len(ids)
    W1 = layout.view(p, "hidden_w")
    b1 = layout.view(p, "hidden_b")
    h = []
    for i in range(model.spec.hidden_dim):
        z = float(b1[i])
        for j in range(d):
            z += float(W1[i][j]) * x[j]
        h.append(max(z, 0.0))
    w2 = layout.view(p, "out_w")
    out = float(layout.view(p, "out_b")[0])
    for i in range(model.spec.hidden_dim):
        out += float(w2[i]) * h[i]
    return out


def conv_forward_oracle(model, ids):
    """Straight-line re-implementation of the conv encoder in plain Python."""
    layout, p, spec = model.layout, model.params, model.spec
    E = layout.view(p, "embed")
    d = spec.embed_dim
    ids = list(ids) + [0] * max(0, max(spec.window_sizes) - len(ids))
    X = [[float(E[i][j]) for j in range(d)] for i in ids]
    feat = []
    for w in spec.window_sizes:
        W = layout.view(p, f"conv{w}_w")
        b = layout.view(p, f"conv{w}_b")
        for f in range(spec.n_filters):
            best = -math.inf
            for pos in range(len(X) - w + 1):
                z = float(b[f])
                for t in range(w):
                    for j in range(d):
                        z += float(W[f][t * d + j]) * X[pos + t][j]
                best = max(best, max(z, 0.0))
            feat.append(best)
    W1 = layout.view(p, "hidden_w")
    b1 = layout.view(p, "hidden_b")
    h = []
    for i in range(spec.hidden_dim):
        z = float(b1[i])
        for j in range(len(feat)):
            z += float(W1[i][j]) * feat[j]
        h.append(max(z, 0.0))
    w2 = layout.view(p, "out_w")
    out = float(layout.view(p, "out_b")[0])
    for i in range(spec.hidden_dim):
        out += float(w2[i]) * h[i]
    return out


def test_forward_matches_duplicate_implementation_oracle():
    vocab = tiny_vocab(6)
    rng = np.random.default_rng(21)
    for trial in range(10):
        ids = rng.integers(0, vocab.size, size=rng.integers(1, 9)).tolist()
        bag = ScalarModel(EncoderSpec(BAG_OF_EMBEDDINGS, embed_dim=4, hidden_dim=3), vocab, seed=trial)
        assert bag.forward(ids) == pytest.approx(bag_forward_oracle(bag, ids), abs=1e-12)
        conv = ScalarModel(
            EncoderSpec(CONV_NGRAM, embed_dim=4, hidden_dim=3, window_sizes=(1, 2, 3), n_filters=2),
            vocab,
            seed=trial,
        )
        assert conv.forward(ids) == pytest.approx(conv_forward_oracle(conv, ids), abs=1e-12)


def test_forward_is_pure():
    vocab = tiny_vocab()
    model = ScalarModel(tiny_spec(CONV_NGRAM), vocab, seed=9)
    ids = vocab.encode_tokens(["w0", "w1", "w5"])
    before = model.params.copy()
    a = model.forward(ids)
    b = model.forward(ids)
    assert a == b
    assert np.array_equal(model.params, before)


def test_backward_zero_upstream_gives_zero_gradient():
    vocab = tiny_vocab()
    for kind in (BAG_OF_EMBEDDINGS, CONV_NGRAM):
        model = ScalarModel(tiny_spec(kind), vocab, seed=2)
        grads = backward(model, vocab.encode_tokens(["w0", "w1"]), 0.0)
        assert np.all(grads == 0.0)


def test_backward_untouched_embedding_rows_have_zero_gradient():
    vocab = tiny_vocab()
    model = ScalarModel(tiny_spec(BAG_OF_EMBEDDINGS), vocab, seed=2)
    ids = vocab.encode_tokens(["w0", "w0", "w3"])
    grads = backward(model, ids, 1.3)
    demb = model.layout.view(grads, "embed")
    touched = set(ids.tolist())
    for row in range(vocab.size):
        if row not in touched:
            assert np.all(demb[row] == 0.0)


def per_sample_forward_reference(model, token_ids):
    """The per-document forward pass the batched one replaced: (logit, cache) for one sequence."""
    # the reference cleans each sequence on its own, independently of the model:
    # out-of-range ids become [UNK], a short conv document is padded with [PAD]
    ids = np.asarray(token_ids, dtype=np.intp).ravel()
    if ids.size == 0:
        raise ModelError("cannot run the encoder on an empty token sequence")
    oov = (ids < 0) | (ids >= model.vocab.size)
    if oov.any():
        ids = np.where(oov, model.vocab.unk_id, ids)
    if model.spec.kind == CONV_NGRAM:
        need = max(model.spec.window_sizes)
        if ids.size < need:
            ids = np.concatenate([ids, np.full(need - ids.size, model.vocab.pad_id, dtype=np.intp)])
    p, layout = model.params, model.layout
    X = layout.view(p, "embed")[ids]
    cache = {"ids": ids, "X": X}
    if model.spec.kind == BAG_OF_EMBEDDINGS:
        feat = X.mean(axis=0)
    else:
        feats = []
        for w in model.spec.window_sizes:
            n_pos = X.shape[0] - w + 1
            M = np.lib.stride_tricks.sliding_window_view(X, (w, X.shape[1])).reshape(n_pos, -1)
            Z = M @ layout.view(p, f"conv{w}_w").T + layout.view(p, f"conv{w}_b")
            A = np.maximum(Z, 0.0)
            arg = A.argmax(axis=0)
            feats.append(A[arg, np.arange(A.shape[1])])
            cache[f"M{w}"] = M
            cache[f"Z{w}"] = Z
            cache[f"arg{w}"] = arg
        feat = np.concatenate(feats)
    z1 = layout.view(p, "hidden_w") @ feat + layout.view(p, "hidden_b")
    h = np.maximum(z1, 0.0)
    logit = float(layout.view(p, "out_w") @ h + layout.view(p, "out_b")[0])
    cache["feat"] = feat
    cache["z1"] = z1
    cache["h"] = h
    return logit, cache


def dense_backward_reference(model, cache, upstream_grad):
    """The dense per-filter backward pass of one sequence: a parameter-sized zero vector filled one filter at a time."""
    g = float(upstream_grad)
    p, layout = model.params, model.layout
    grads = np.zeros_like(p)
    feat, z1, h = cache["feat"], cache["z1"], cache["h"]
    layout.view(grads, "out_b")[0] = g
    layout.view(grads, "out_w")[:] = g * h
    dz1 = (g * layout.view(p, "out_w")) * (z1 > 0.0)
    layout.view(grads, "hidden_b")[:] = dz1
    layout.view(grads, "hidden_w")[:] = np.outer(dz1, feat)
    dfeat = layout.view(p, "hidden_w").T @ dz1
    ids, X = cache["ids"], cache["X"]
    demb = layout.view(grads, "embed")
    if model.spec.kind == BAG_OF_EMBEDDINGS:
        np.add.at(demb, ids, dfeat / ids.size)
        return grads
    dX = np.zeros_like(X)
    F = model.spec.n_filters
    off = 0
    for w in model.spec.window_sizes:
        dpool = dfeat[off : off + F]
        off += F
        Z, arg, M = cache[f"Z{w}"], cache[f"arg{w}"], cache[f"M{w}"]
        dZsel = np.where(Z[arg, np.arange(F)] > 0.0, dpool, 0.0)
        conv_w = layout.view(p, f"conv{w}_w")
        dW = layout.view(grads, f"conv{w}_w")
        db = layout.view(grads, f"conv{w}_b")
        for f in range(F):
            if dZsel[f] == 0.0:
                continue
            i = int(arg[f])
            dW[f] += dZsel[f] * M[i]
            db[f] += dZsel[f]
            dX[i : i + w] += (dZsel[f] * conv_w[f]).reshape(w, -1)
    np.add.at(demb, ids, dX)
    return grads


def per_sample_reference(model, batch, upstream):
    """Per-document logits, and the per-document dense gradients summed over the batch."""
    logits, grads = [], np.zeros_like(model.params)
    for ids, g in zip(batch, upstream):
        logit, cache = per_sample_forward_reference(model, ids)
        logits.append(logit)
        grads += dense_backward_reference(model, cache, g)
    return np.array(logits), grads


def batched(model, batch, upstream):
    logits, cache = model._forward_cache(batch)
    return logits, dense_grad(model._backward_from_cache(cache, upstream), model)


# batching reorders sums, so it matches the per-document path to rounding only
BATCH_RTOL, BATCH_ATOL = 1e-12, 1e-15

REFERENCE_VOCAB = tiny_vocab(6)

REFERENCE_DOCS = {
    "repeated ids": [4, 5, 4, 4, 6, 4, 4, 5, 4, 4, 4, 4],
    "overlapping windows": [4, 5, 6, 7, 8, 9, 4, 5, 6],
    "shorter than widest window": [7, 4],
    "oov ids": [REFERENCE_VOCAB.size + 3, 4, -1, REFERENCE_VOCAB.size, 5],
    "lone [PAD] entity input": [REFERENCE_VOCAB.pad_id],
}

REFERENCE_SPECS = (
    EncoderSpec(BAG_OF_EMBEDDINGS, embed_dim=4, hidden_dim=5),
    EncoderSpec(CONV_NGRAM, embed_dim=4, hidden_dim=5, window_sizes=(1, 3, 2, 5), n_filters=4),
)


def sparse_grad_bytes(model, batch):
    _, cache = model._forward_cache(batch)
    return sum(part.nbytes for part in model._backward_from_cache(cache, np.full(len(batch), 0.7)))


def test_batched_forward_matches_per_sample_reference():
    vocab = REFERENCE_VOCAB
    batch = list(REFERENCE_DOCS.values())
    for seed in range(6):
        for spec in REFERENCE_SPECS:
            model = ScalarModel(spec, vocab, seed=seed)
            logits, _ = model._forward_cache(batch)
            reference, _ = per_sample_reference(model, batch, np.zeros(len(batch)))
            np.testing.assert_allclose(logits, reference, rtol=BATCH_RTOL, atol=BATCH_ATOL)
            for ids, expect in zip(batch, reference):
                assert model.forward(ids) == pytest.approx(expect, rel=BATCH_RTOL, abs=BATCH_ATOL)


def test_sparse_backward_equals_dense_reference_exactly():
    # the batched backward sums the per-document dense reference over the
    # batch; summation order differs, so the match is to rounding, not bits
    vocab = REFERENCE_VOCAB
    rng = np.random.default_rng(17)
    docs = list(REFERENCE_DOCS.values())
    conv_rows_checked = 0
    for seed in range(6):
        for spec in REFERENCE_SPECS:
            model = ScalarModel(spec, vocab, seed=seed)
            for batch in (docs, docs[::-1], docs[1:3]):
                upstream = rng.normal(size=len(batch))
                upstream[0] = 0.0
                for g in (upstream, np.zeros(len(batch))):
                    _, reference = per_sample_reference(model, batch, g)
                    _, grads = batched(model, batch, g)
                    np.testing.assert_allclose(grads, reference, rtol=BATCH_RTOL, atol=BATCH_ATOL)
                    if not g.any():
                        assert not grads.any()
                    elif spec.kind == CONV_NGRAM:
                        conv_rows_checked += int(np.count_nonzero(model.layout.view(reference, "conv3_w").any(axis=1)))
    # the comparison must exercise the per-filter scatter, not only zero filters
    assert conv_rows_checked > 0


def test_batch_padding_does_not_leak():
    vocab = REFERENCE_VOCAB
    rng = np.random.default_rng(29)
    full = [[4, 5, 6, 7, 8, 9], [5, 5, 6, 4, 8], [9, 8, 7, 6, 5, 4, 4]]
    longer = [4, 5, 6, 7, 8, 9] * 5
    pad_rows_checked = 0
    for seed in range(4):
        for spec in REFERENCE_SPECS:
            model = ScalarModel(spec, vocab, seed=seed)
            alone, _ = model._forward_cache(full)
            with_longer, cache = model._forward_cache(full + [longer])
            assert np.max(np.abs(with_longer[: len(full)] - alone)) <= 1e-12
            # no document reads [PAD], so batch padding must not give its row a gradient
            sparse = model._backward_from_cache(cache, rng.normal(size=len(full) + 1))
            assert vocab.pad_id not in sparse.ids
            if spec.kind == CONV_NGRAM:
                # a short document's [PAD] positions are real inputs and do get one
                batch = full + [[7, 4], longer]
                g = rng.normal(size=len(batch))
                _, reference = per_sample_reference(model, batch, g)
                _, grads = batched(model, batch, g)
                pad_row = model.layout.view(grads, "embed")[vocab.pad_id]
                expect = model.layout.view(reference, "embed")[vocab.pad_id]
                np.testing.assert_allclose(pad_row, expect, rtol=BATCH_RTOL, atol=BATCH_ATOL)
                pad_rows_checked += int(np.any(expect != 0.0))
    assert pad_rows_checked > 0


def test_sparse_gradient_size_does_not_grow_with_vocabulary():
    doc = [f"w{i % 7}" for i in range(12)]
    for spec in (tiny_spec(BAG_OF_EMBEDDINGS), tiny_spec(CONV_NGRAM)):
        small, large = tiny_vocab(256 - 4), tiny_vocab(40_000 - 4)
        sizes = [
            sparse_grad_bytes(ScalarModel(spec, v, seed=3), [v.encode_tokens(d) for d in (doc, doc[:5], doc[3:])])
            for v in (small, large)
        ]
        assert sizes[0] == sizes[1]


def test_backward_matches_finite_differences_both_kinds():
    vocab = tiny_vocab(6)
    rng = np.random.default_rng(3)
    checked = 0
    trial = 0
    while checked < 8:
        trial += 1
        kind = (BAG_OF_EMBEDDINGS, CONV_NGRAM)[checked % 2]
        model = ScalarModel(tiny_spec(kind, rng), vocab, seed=100 + trial)
        ids = rng.integers(0, vocab.size, size=int(rng.integers(2, 8)))
        if relu_safety_margin(model, ids) < 1e-3:
            continue
        upstream = float(rng.normal())
        analytic = backward(model, ids, upstream)
        numeric = finite_difference(lambda: upstream * model.forward(ids), model.params)
        assert max_relative_error(analytic, numeric) < 1e-4
        checked += 1


def no_table(grads):
    """A dense gradient as the `SparseGrad` of a layout with no embedding table."""
    return SparseGrad(np.asarray(grads, dtype=np.float64), np.zeros(0, dtype=np.intp), np.zeros((0, 0)))


def textbook_adam(params, grads, m, v, lr, t):
    """The dense bias-corrected Adam update over every entry: (params, m, v)."""
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grads**2
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    return params - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), m, v


def test_adam_zero_gradient_leaves_params_unchanged():
    params = np.array([1.0, -2.0, 3.0])
    state = AdamState.zeros(3)
    out = adam_step(params, no_table(np.zeros(3)), state, lr=0.1, t=1)
    assert np.array_equal(out, params)


def test_adam_constant_gradient_closed_form():
    # with constant gradient g, bias correction makes every step exactly
    # lr * g / (|g| + eps)
    g = np.array([2.0, -0.5])
    params = np.zeros(2)
    state = AdamState.zeros(2)
    lr = 0.01
    for t in range(1, 20):
        new = adam_step(params, no_table(g), state, lr, t)
        step = params - new
        expect = lr * g / (np.abs(g) + ADAM_EPS)
        assert np.allclose(step, expect, rtol=1e-12, atol=0)
        assert np.allclose(step, lr * np.sign(g), rtol=1e-6)
        params = new


def test_adam_rejects_non_finite_gradient():
    # in the dense tail
    for bad in (np.nan, np.inf, -np.inf):
        state = AdamState.zeros(2)
        with pytest.raises(ModelError, match="non-finite"):
            adam_step(np.zeros(2), no_table([bad, 0.0]), state, 0.1, 1)


def test_adam_rejects_non_finite_row_gradient():
    # 3 embedding rows of width 2, then a tail of 2
    for bad in (np.nan, np.inf, -np.inf):
        state = AdamState.zeros(8)
        grad = SparseGrad(np.zeros(2), np.array([1]), np.array([[0.5, bad]]))
        with pytest.raises(ModelError, match="non-finite"):
            adam_step(np.zeros(8), grad, state, 0.1, 1)


def test_adam_rejects_rows_outside_the_table():
    for ids, rows in (([3], [[1.0, 1.0]]), ([-1], [[1.0, 1.0]]), ([0, 1], [[1.0, 1.0]])):
        with pytest.raises(ModelError):
            adam_step(np.zeros(8), SparseGrad(np.zeros(2), np.array(ids), np.array(rows)), AdamState.zeros(8), 0.1, 1)


def test_adam_trajectories_bit_identical():
    def run():
        rng = np.random.default_rng(5)
        params = rng.normal(size=10)
        state = AdamState.zeros(10)
        for t in range(1, 50):
            grads = rng.normal(size=10)
            params = adam_step(params, no_table(grads), state, 3e-3, t)
        return params

    assert np.array_equal(run(), run())


def test_adam_blocked_update_equals_textbook_update():
    n = 2 * ADAM_BLOCK + 123
    rng = np.random.default_rng(11)
    params = rng.normal(size=n)
    expect, m, v = params.copy(), np.zeros(n), np.zeros(n)
    state = AdamState.zeros(n)
    lr = 3e-3
    for t in range(1, 6):
        grads = rng.normal(size=n)
        params = adam_step(params, no_table(grads), state, lr, t)
        expect, m, v = textbook_adam(expect, grads, m, v, lr, t)
        assert np.array_equal(params, expect)
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)


# the ids each step's batch reads, per case: row 5 is first read at step 2;
# row 3 gets a zero gradient at step 3 and rows 0 and 3 are absent from
# later batches; step 3's and step 5's ids all lie below the mark; step 4
# raises the mark to the whole table, across Adam blocks
ROW_SCHEDULE = ([0, 3], [5, 7], [2, 3], [-1], [1, 4], [])


@pytest.mark.parametrize("n_rows, d, n_tail", [(2 * ADAM_BLOCK // 8 + 50, 8, 777), (0, 0, 2 * ADAM_BLOCK + 5)])
def test_sparse_adam_equals_textbook_dense_update(n_rows, d, n_tail):
    rng = np.random.default_rng(21)
    embed_end = n_rows * d
    params = rng.normal(size=embed_end + n_tail)
    if n_rows:
        # untouched rows holding -0.0 keep their sign bit: -0.0 - 0.0 is -0.0
        params[6 * d : 7 * d] = -0.0
        params[100 * d : 200 * d] = -0.0
    state = AdamState.zeros(params.size)
    expect, m, v = params.copy(), np.zeros(params.size), np.zeros(params.size)
    lr = 3e-3
    mark = 0
    for t, step_ids in enumerate(ROW_SCHEDULE if n_rows else [[]] * 6, start=1):
        ids = np.array(sorted(i % n_rows for i in step_ids), dtype=np.intp)
        rows = rng.normal(size=(ids.size, d))
        rows[ids == 3] = 0.0
        grad = SparseGrad(rng.normal(size=n_tail), ids, rows)
        dense = np.zeros(params.size)
        dense[embed_end:] = grad.tail
        dense[:embed_end].reshape(n_rows, d)[ids] = rows
        params = adam_step(params, grad, state, lr, t)
        expect, m, v = textbook_adam(expect, dense, m, v, lr, t)
        mark = max([mark, *(ids + 1)])
        assert state.rows == mark
        assert np.array_equal(params, expect) and params.tobytes() == expect.tobytes()
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
        assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()
    if n_rows:
        assert np.signbit(params[100 * d : 200 * d]).all() and np.signbit(params[6 * d : 7 * d]).all()


def test_checkpoint_payload_round_trip():
    vocab = tiny_vocab()
    model = ScalarModel(tiny_spec(CONV_NGRAM), vocab, seed=8)
    clone = ScalarModel.from_payload(model.to_payload())
    assert np.array_equal(clone.params, model.params)
    assert clone.spec == model.spec
    assert clone.vocab == model.vocab
    assert clone.reads == model.reads == "tokens"
    with pytest.raises(ModelError, match="reads"):
        ScalarModel(tiny_spec(CONV_NGRAM), vocab, reads="words")


def test_sigmoid_and_cross_entropy():
    p = sigmoid([0.0, 50.0, -50.0])
    assert p.dtype == np.float64 and p.shape == (3,)
    assert p[0] == 0.5
    assert p[1] == pytest.approx(1.0)
    assert p[2] == pytest.approx(0.0, abs=1e-20)
    ce = binary_cross_entropy([0.5, 1.0, 0.0, 1.0], [1, 1, 1, 0])
    assert ce.dtype == np.float64 and ce.shape == (4,)
    assert ce[0] == pytest.approx(math.log(2))
    assert ce[1] == pytest.approx(0.0, abs=1e-11)
    assert math.isfinite(ce[2])
    assert math.isfinite(ce[3])


SPECIAL_VALUES = (0.0, -0.0, 1e-300, -1e-300, 36.8, -36.8, 745.0, -745.0, math.inf, -math.inf, math.nan)


def same_value(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def test_array_sigmoid_and_cross_entropy_equal_the_scalar_formulas():
    # the special values, then ordinary logits: np.exp and np.log miss math's last bit on about 2 % of these
    z = np.concatenate([SPECIAL_VALUES, np.random.default_rng(3).normal(0.0, 10.0, 2000)])
    got = sigmoid(z)
    assert got.shape == z.shape and got.dtype == np.float64
    for v, p in zip(z.tolist(), got.tolist()):
        assert same_value(p, reference_sigmoid(v)), v
    # probabilities at and beyond the clamp, exact sigmoid outputs, and both labels
    probs = np.concatenate([SPECIAL_VALUES, (0.5, 1.0, 1.0 - 1e-15, 2.0), got])
    for label in (0, 1):
        ce = binary_cross_entropy(probs, np.full(probs.size, label))
        for q, c in zip(probs.tolist(), ce.tolist()):
            assert same_value(c, reference_cross_entropy(q, label)), (q, label)
    mixed = np.arange(probs.size) % 2
    assert all(
        same_value(c, reference_cross_entropy(q, y))
        for q, y, c in zip(probs.tolist(), mixed.tolist(), binary_cross_entropy(probs, mixed).tolist())
    )
    # a 2-D array keeps its shape
    assert np.array_equal(sigmoid(z[:10].reshape(2, 5)), got[:10].reshape(2, 5), equal_nan=True)


