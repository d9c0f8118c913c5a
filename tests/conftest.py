import math
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest

from endef.augmentation import Plan, _partition, augment, recompute_entities
from endef.corpus import Corpus, NewsPiece, entity_bias_table
from endef.experiments import flipped_bias_spec
from endef.framework import branches, input_words, loss_total, planned_ids
from endef.models import (
    BAG_OF_EMBEDDINGS,
    CONV_NGRAM,
    INPUT_VIEWS,
    MAX_SEQ_LEN,
    PROB_FLOOR,
    EncoderSpec,
    ModelError,
    ScalarModel,
    SparseGrad,
)
from endef.recognizer import Gazetteer, recognize_corpus
from endef.vocab import MASK_TOKEN, SPECIAL_TOKENS, Vocabulary, build_vocabulary


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


def packed(seqs):
    """Id sequences as one id batch: (flat, bounds), sequence k being flat[bounds[k]:bounds[k + 1]]."""
    flat = np.concatenate([np.zeros(0, dtype=np.intp), *(np.asarray(s, dtype=np.intp) for s in seqs)])
    return flat, [0, *accumulate(map(len, seqs))]


def input_ids(encoder, piece, max_len):
    """The ids an encoder reads from one piece: `planned_ids` of that piece alone."""
    return encoder.vocab.encode_tokens(input_words(encoder, piece, max_len))


def piece_loss(model, pieces, max_len=MAX_SEQ_LEN, stop_grad_entity_from_overall=False):
    """`loss_total` of a batch of pieces, each branch reading `input_ids` of every piece."""
    ids = {name: packed([input_ids(enc, p, max_len) for p in pieces]) for name, enc in branches(model).items()}
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
    passes = {name: enc._forward_cache(*ids[name]) for name, enc in encoders.items()}
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
    _, cache = model._forward_cache(*packed([token_ids]))
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
    _, cache = model._forward_cache(*packed([ids]))
    margins = [float(np.min(np.abs(cache["z1"])))]
    if model.spec.kind == CONV_NGRAM:
        for w in model.spec.window_sizes:
            # a batch of one has no window that straddles two documents: every window is real
            Z = cache[f"Z{w}"]
            A = np.maximum(Z, 0.0)
            for f in range(Z.shape[1]):
                col = np.sort(A[:, f])
                top = col[-1]
                if top > 0.0:
                    margins.append(float(top if col.size == 1 else min(top, top - col[-2])))
                else:
                    margins.append(float(-Z[:, f].max()))
    return min(margins)


def padded_conv_forward(model, flat, bounds):
    """The conv encoder's forward pass over its batch padded to (B, L) behind a length mask: (logits, cache).

    The formula `ScalarModel._forward_cache` used before it read the flat
    stream: per window size, one (F, d) weight slice per offset applied to
    every document of the padded tensor, a relu, windows that reach into
    batch padding set to -inf, then each (document, filter)'s first argmax.
    """
    sizes = np.diff(bounds)
    lengths = np.maximum(sizes, max(model.spec.window_sizes))
    columns = np.arange(lengths.max())
    padded = np.full((sizes.size, columns.size), model.vocab.pad_id, dtype=np.intp)
    padded[columns < sizes[:, None]] = flat[bounds[0] : bounds[-1]]
    padded[(padded < 0) | (padded >= model.vocab.size)] = model.vocab.unk_id
    mask = columns < lengths[:, None]
    p, layout, d = model.params, model.layout, model.spec.embed_dim
    X = layout.view(p, "embed")[padded]
    cache = {"ids": padded[mask], "mask": mask, "X": X}
    feats = []
    for w in model.spec.window_sizes:
        W = layout.view(p, f"conv{w}_w")
        n_pos = X.shape[1] - w + 1
        Z = X[:, :n_pos] @ W[:, :d].T
        for k in range(1, w):
            Z += X[:, k : k + n_pos] @ W[:, k * d : (k + 1) * d].T
        Z += layout.view(p, f"conv{w}_b")
        A = np.maximum(Z, 0.0)
        A[np.arange(Z.shape[1]) > (lengths - w)[:, None]] = -np.inf
        arg = A.argmax(axis=1)
        feats.append(np.take_along_axis(A, arg[:, None], axis=1)[:, 0])
        cache[f"arg{w}"] = arg
    feat = np.concatenate(feats, axis=1)
    z1 = feat @ layout.view(p, "hidden_w").T + layout.view(p, "hidden_b")
    h = np.maximum(z1, 0.0)
    cache.update(feat=feat, z1=z1, h=h)
    return h @ layout.view(p, "out_w") + layout.view(p, "out_b")[0], cache


def padded_conv_backward(model, cache, upstream_grad):
    """The conv encoder's `SparseGrad` from a `padded_conv_forward` cache, gathering windows from the padded tensor."""
    g = np.asarray(upstream_grad, dtype=np.float64)
    p, layout, d, F = model.params, model.layout, model.spec.embed_dim, model.spec.n_filters
    embed_end = layout.slices["embed"][1]
    tail = np.zeros(layout.size - embed_end)

    def dview(name):
        return layout.view(tail, name, embed_end)

    feat, z1, h, mask, X = cache["feat"], cache["z1"], cache["h"], cache["mask"], cache["X"]
    dview("out_b")[0] = g.sum()
    dview("out_w")[:] = g @ h
    dz1 = (g[:, None] * layout.view(p, "out_w")) * (z1 > 0.0)
    dview("hidden_b")[:] = dz1.sum(axis=0)
    dview("hidden_w")[:] = dz1.T @ feat
    dfeat = dz1 @ layout.view(p, "hidden_w")
    uniq, inv = np.unique(cache["ids"], return_inverse=True)
    slot = np.zeros(mask.shape, dtype=np.intp)
    slot[mask] = inv
    dpool = np.where(feat > 0.0, dfeat, 0.0)
    at, contrib = [], []
    for k, w in enumerate(model.spec.window_sizes):
        dZ = dpool[:, k * F : (k + 1) * F]
        bs, fs = np.nonzero(dZ)
        dsel = dZ[bs, fs]
        win = cache[f"arg{w}"][bs, fs][:, None] + np.arange(w)
        windows = X[bs[:, None], win].reshape(bs.size, w * d)
        dview(f"conv{w}_w")[:] = np.where(fs == np.arange(F)[:, None], dsel, 0.0) @ windows
        dview(f"conv{w}_b")[:] = dZ.sum(axis=0)
        at.append(slot[bs[:, None], win].ravel())
        contrib.append((dsel[:, None] * layout.view(p, f"conv{w}_w")[fs]).reshape(-1, d))
    at, contrib = np.concatenate(at), np.concatenate(contrib)
    rows = np.zeros(uniq.size * d)
    np.add.at(rows, (at[:, None] * d + np.arange(d)).ravel(), contrib.ravel())
    return SparseGrad(tail, uniq, rows.reshape(uniq.size, d))


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


def truncate_piece(piece, max_len):
    """A piece cut to max_len tokens, its entities recounted on the cut tokens: the piece an encoder reads."""
    if len(piece.tokens) <= max_len:
        return piece
    new_tokens = piece.tokens[:max_len]
    return replace(piece, tokens=new_tokens, entities=recompute_entities(piece, new_tokens))


class PieceRecord:
    """A training piece cut to max_len and scanned once: its gazetteer, external entities, tokens, spans and ids."""

    __slots__ = ("piece", "scanner", "external", "tokens", "spans", "planned")

    def __init__(self, piece, scanners, planned, max_len=MAX_SEQ_LEN):
        self.piece = piece
        self.scanner, self.external = _partition(piece, scanners)
        self.tokens = piece.tokens[:max_len]
        self.spans = tuple((a, b) for a, b, _ in self.scanner.spans(self.tokens))
        self.planned = planned

    def ids(self, encoder, max_len):
        """The ids an encoder reads from the unedited piece: those planned for its view."""
        return self.planned[encoder.reads]


class Sample:
    """An edited training record: the record and where the edit fell.

    `masked` holds the positions a mask replaced (empty for a drop) and
    `kept` the positions a drop kept (None for a mask), both counted on
    `record.tokens`. The id and label stay on `record.piece`.
    """

    __slots__ = ("record", "masked", "kept")

    def __init__(self, record, masked, kept):
        self.record = record
        self.masked = masked
        self.kept = kept

    def ids(self, encoder, max_len):
        """The ids an encoder reads from the edit, derived from those planned for its record.

        A token reader's ids are the planned ones with [MASK]'s id written at
        the masked positions, or only the kept ones left. Only an entity reader
        rebuilds the edited tokens; it rescans them and encodes the recount.
        """
        record = self.record
        planned = record.planned[encoder.reads]
        if encoder.reads == "tokens":
            if self.kept is not None:
                return planned[self.kept]
            ids = planned.copy()
            ids[list(self.masked)] = encoder.vocab.mask_id
            return ids
        tokens = record.tokens
        positions = range(len(tokens)) if self.kept is None else self.kept
        edited = tuple(MASK_TOKEN if i in self.masked else tokens[i] for i in positions)
        entities = tuple(e for _, _, e in record.scanner.spans(edited)) + record.external
        return encoder.vocab.encode_entities(entities, max_len)


def augment_record(record, settings, rng):
    """The per-sample augmentation oracle: one record under `training.AugmentSettings`, drawing from a `Generator`.

    Nothing is drawn when augmentation is disabled. Otherwise the sample is
    skipped with chance 1 - apply_probability (one draw, made only when that
    chance is positive), then one kind and one action are picked uniformly
    from the allowed ones. Word-level selects each token independently with
    the settings' probability; entity-level selects whole recognized spans
    (one draw per occurrence). When dropping would empty the sequence, one
    unmodified token chosen uniformly is retained instead. An unedited
    record comes back as itself; an edited one as a `Sample`.
    """
    if not settings.enabled:
        return record
    if settings.apply_probability < 1.0 and rng.random() >= settings.apply_probability:
        return record
    kind = settings.kinds[int(rng.integers(len(settings.kinds)))]
    action = settings.actions[int(rng.integers(len(settings.actions)))]
    p = settings.probability
    tokens = record.tokens
    if kind == "word_level":
        draws = rng.random(len(tokens)).tolist()
        selected = {i for i, u in enumerate(draws) if u < p}
    else:
        draws = rng.random(len(record.spans)).tolist()
        selected = {i for (a, b), u in zip(record.spans, draws) if u < p for i in range(a, b)}
    if not selected:
        return record
    if action == "mask":
        return Sample(record, selected, None)
    return Sample(record, (), [i for i in range(len(tokens)) if i not in selected] or [int(rng.integers(len(tokens)))])


def make_plan(pieces, max_len=MAX_SEQ_LEN, kind=BAG_OF_EMBEDDINGS):
    """Pieces planned for a token reader and an entity reader of `kind` on the pieces' words.

    Returns (oracle records, encoders by the view each reads, the batch
    `Plan`). A record's ids are those `planned_ids` reads through
    `framework.input_words`, apart from the plan's own scan.
    """
    pieces = list(pieces)
    vocab = build_vocabulary(pieces, 1)
    encoders = {view: ScalarModel(tiny_spec(kind), vocab, reads=view) for view in INPUT_VIEWS}
    planned = {view: planned_ids(enc, pieces, max_len) for view, enc in encoders.items()}
    scanners = {}
    records = [
        PieceRecord(p, scanners, {view: flat[b[k] : b[k + 1]] for view, (flat, b) in planned.items()}, max_len)
        for k, p in enumerate(pieces)
    ]
    return records, encoders, Plan(pieces, {view: enc.vocab for view, enc in encoders.items()}, max_len)


def batch_ids(plan, batch, settings, draws):
    """`augmentation.augment` of a batch of plan indices, as one {view: id list} per sample."""
    out = augment(plan, np.asarray(batch), settings, draws)
    return [{view: flat[b[k] : b[k + 1]].tolist() for view, (flat, b) in out.items()} for k in range(len(batch))]


def shown(sample):
    """The id and label of a training sample's piece, and the tokens and entities it shows.

    An unedited record shows its cut tokens. An edit shows them at the kept
    positions, or with [MASK] at the masked ones. Either shows the entities
    `recompute_entities` counts on the tokens it shows.
    """
    if not isinstance(sample, Sample):
        record, tokens = sample, sample.tokens
    elif sample.kept is not None:
        record = sample.record
        tokens = tuple(record.tokens[i] for i in sample.kept)
    else:
        record = sample.record
        tokens = tuple(MASK_TOKEN if i in sample.masked else t for i, t in enumerate(record.tokens))
    return record.piece.id, record.piece.label, tokens, recompute_entities(record.piece, tokens)


def snapshot(sample, encoders, max_len=MAX_SEQ_LEN):
    """What a training sample shows the loop, as comparable values: `shown(sample)` and the ids each encoder reads."""
    return *shown(sample), {view: sample.ids(enc, max_len).tolist() for view, enc in encoders.items()}


@pytest.fixture
def rng():
    return np.random.default_rng(0)
