import math
from dataclasses import replace

import numpy as np
import pytest

from endef.augmentation import Sample, plan_records
from endef.corpus import Corpus, NewsPiece, entity_bias_table
from endef.experiments import flipped_bias_spec
from endef.framework import branches, input_ids, loss_total, planned_ids, sample_ids
from endef.models import BAG_OF_EMBEDDINGS, CONV_NGRAM, MAX_SEQ_LEN, PROB_FLOOR, EncoderSpec, ModelError, ScalarModel
from endef.recognizer import Gazetteer, recognize_corpus
from endef.vocab import SPECIAL_TOKENS, Vocabulary, build_vocabulary


def unbiased_spec(seed=7, n_train=1600, n_val=320, n_test=320):
    """Control recipe: entities carry no signal in either period."""
    return replace(flipped_bias_spec(seed, n_train, n_val, n_test), train_corr=0.5, test_corr=0.5)


def recognized_audit(corpus, spec):
    """The bias audit of a generated corpus whose entity lists were thrown away and recognized again from its tokens.

    It reads the generator's entity lists nowhere, so it checks the ledger `generate` returns.
    """
    stripped = Corpus(tuple(replace(p, entities=()) for p in corpus), name=corpus.name)
    recognized = recognize_corpus(stripped, Gazetteer(frozenset(spec.entity_names())))
    return entity_bias_table(recognized, spec.period_boundary)


def piece_loss(model, pieces, max_len=MAX_SEQ_LEN, stop_grad_entity_from_overall=False):
    """`loss_total` of a batch of pieces, each branch reading `input_ids` of every piece."""
    ids = {name: [input_ids(enc, p, max_len) for p in pieces] for name, enc in branches(model).items()}
    return loss_total(model, ids, [p.label for p in pieces], stop_grad_entity_from_overall)


def reference_sigmoid(z):
    """The scalar logistic function that `models.sigmoid` applies to every element."""
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def reference_cross_entropy(prob, label, floor=PROB_FLOOR):
    """The scalar clamped cross-entropy that `models.binary_cross_entropy` applies to every element."""
    p = min(max(prob, floor), 1.0 - floor)
    return -math.log(p) if label == 1 else -math.log(1.0 - p)


def reference_loss_total(model, ids, labels, stop_grad_entity_from_overall=False):
    """`framework.loss_total` as a loop over the samples of the batch, with scalar sigmoid and cross-entropy.

    A single encoder takes its own path here: no entity term, alpha = 1.
    """
    if len(labels) == 0:
        raise ModelError("loss_total needs a non-empty batch")
    encoders = branches(model)
    passes = {name: enc._forward_cache(ids[name]) for name, enc in encoders.items()}
    alpha, beta = (model.alpha, model.beta) if "entity" in encoders else (1.0, 0.0)
    r_det = passes["detector"][0].tolist()
    r_ent = passes["entity"][0].tolist() if "entity" in encoders else None
    inv = 1.0 / len(labels)
    upstream = {name: [] for name in encoders}
    total_overall = 0.0
    total_entity = 0.0
    for i, label in enumerate(labels):
        if r_ent is None:
            fused = reference_sigmoid(r_det[i])
            l_entity = 0.0
        else:
            fused = reference_sigmoid(alpha * r_det[i] + (1.0 - alpha) * r_ent[i])
            p_ent = reference_sigmoid(r_ent[i])
            l_entity = reference_cross_entropy(p_ent, label)
        l_overall = reference_cross_entropy(fused, label)
        if not math.isfinite(l_overall + beta * l_entity):
            raise ModelError(f"non-finite loss on sample {i + 1} of the batch")
        total_overall += l_overall
        total_entity += l_entity
        residual = fused - label
        upstream["detector"].append(alpha * residual * inv)
        if r_ent is not None:
            up_ent = beta * (p_ent - label) * inv
            if not stop_grad_entity_from_overall:
                up_ent += (1.0 - alpha) * residual * inv
            upstream["entity"].append(up_ent)
    grads = {name: enc._backward_from_cache(passes[name][1], upstream[name]) for name, enc in encoders.items()}
    loss = total_overall * inv + beta * (total_entity * inv)
    return loss, grads


def tiny_vocab(n_words=8):
    return Vocabulary(SPECIAL_TOKENS + tuple(f"w{i}" for i in range(n_words)))


def tiny_spec(kind, rng=None):
    """A small random architecture of the given kind."""
    if rng is None:
        return (
            EncoderSpec(BAG_OF_EMBEDDINGS, embed_dim=3, hidden_dim=4)
            if kind == BAG_OF_EMBEDDINGS
            else EncoderSpec(CONV_NGRAM, embed_dim=3, hidden_dim=4, window_sizes=(1, 2), n_filters=2)
        )
    embed = int(rng.integers(2, 5))
    hidden = int(rng.integers(2, 5))
    if kind == BAG_OF_EMBEDDINGS:
        return EncoderSpec(BAG_OF_EMBEDDINGS, embed_dim=embed, hidden_dim=hidden)
    return EncoderSpec(CONV_NGRAM, embed_dim=embed, hidden_dim=hidden, window_sizes=(1, 2), n_filters=int(rng.integers(1, 3)))


def finite_difference(loss_fn, params, h=1e-4):
    """Central finite-difference gradient of loss_fn() with respect to `params` (mutated in place)."""
    grad = np.zeros_like(params)
    for i in range(params.size):
        orig = params[i]
        params[i] = orig + h
        lp = loss_fn()
        params[i] = orig - h
        lm = loss_fn()
        params[i] = orig
        grad[i] = (lp - lm) / (2.0 * h)
    return grad


def dense_grad(grad, encoder):
    """An encoder's `SparseGrad` as the dense gradient over its flat parameters."""
    dense = np.zeros_like(encoder.params)
    dense[encoder.layout.slices["embed"][1] :] += grad.tail
    encoder.layout.view(dense, "embed")[grad.ids] += grad.rows
    return dense


def backward(model, token_ids, upstream_grad):
    """d(logit)/d(params) of one encoded sequence scaled by upstream_grad, as a flat vector."""
    _, cache = model._forward_cache([token_ids])
    return dense_grad(model._backward_from_cache(cache, [upstream_grad]), model)


def max_relative_error(analytic, numeric, floor=1e-6):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def relu_safety_margin(model, ids):
    """Smallest distance of any relu pre-activation or pooling race from a kink.

    Finite differences are only valid away from relu kinks and max-pool
    argmax ties; callers regenerate random models whose margin is too small.
    A filter whose positions are all clearly negative is safe (the pooled
    value stays pinned at zero under small perturbations), so its margin is
    the distance of the least-negative position from zero.
    """
    _, cache = model._forward_cache([ids])
    margins = [float(np.min(np.abs(cache["z1"])))]
    if model.spec.kind == CONV_NGRAM:
        for w in model.spec.window_sizes:
            # a batch of one has no batch padding: every window position is real
            Z = model._conv_preactivations(cache["X"], w)[0]
            A = np.maximum(Z, 0.0)
            for f in range(Z.shape[1]):
                col = np.sort(A[:, f])
                top = col[-1]
                if top > 0.0:
                    margins.append(float(top if col.size == 1 else min(top, top - col[-2])))
                else:
                    margins.append(float(-Z[:, f].max()))
    return min(margins)


def reference_longest_matches(items, max_span, table, key):
    """The longest-match-leftmost scan before the word-tuple scanner: every position probed, one key call per probe."""
    found = []
    i, n = 0, len(items)
    while i < n:
        for end in range(min(i + max_span, n), i, -1):
            value = table.get(key(items[i:end]))
            if value is not None:
                found.append((i, end, value))
                i = end
                break
        else:
            i += 1
    return found


def make_piece(pid, tokens, entities=(), label=0, timestamp=0):
    return NewsPiece(pid, tuple(tokens), tuple(entities), label, timestamp)


def make_record(piece):
    return plan_records([piece])[0]


def make_plan(pieces, max_len=MAX_SEQ_LEN):
    """Training records of pieces, a token reader and an entity reader on the pieces' words, and each record's planned ids.

    Returns (records, encoders by branch name, one dict of planned ids by branch name per record).
    """
    pieces = list(pieces)
    vocab = build_vocabulary(pieces, 1)
    encoders = {
        "tokens": ScalarModel(tiny_spec(BAG_OF_EMBEDDINGS), vocab),
        "entities": ScalarModel(tiny_spec(BAG_OF_EMBEDDINGS), vocab, reads="entities"),
    }
    planned = {name: planned_ids(enc, pieces, max_len) for name, enc in encoders.items()}
    rows = [{name: ids[row] for name, ids in planned.items()} for row in range(len(pieces))]
    return plan_records(pieces), encoders, rows


def shown(sample):
    """The id and label of a training sample's piece, and the tokens and entities it shows: an edit's own, or its piece's."""
    edited = isinstance(sample, Sample)
    piece = (sample.record if edited else sample).piece
    view = sample if edited else piece
    return piece.id, piece.label, view.tokens, view.entities


def snapshot(sample, encoders, planned, max_len=MAX_SEQ_LEN):
    """What a training sample shows the loop, as comparable values: `shown(sample)` and each branch's ids."""
    ids = {name: sample_ids(enc, planned[name], sample, max_len).tolist() for name, enc in encoders.items()}
    return *shown(sample), ids


@pytest.fixture
def rng():
    return np.random.default_rng(0)
