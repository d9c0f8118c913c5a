"""Small differentiable text encoders with hand-written gradients and Adam.

Two scalar-logit encoders satisfy the detector contract: a mean-pooled
bag-of-embeddings MLP and an n-gram convolution encoder with per-window max
pooling. All parameters of a model live in one flat float64 vector; a layout
object maps named tensors into slices of it, which keeps finite-difference
checks and optimizer state trivial. `sigmoid` and `binary_cross_entropy`
map arrays to float64 arrays, each element bit for bit the scalar formula.
"""

import base64
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .payload import check_type, from_fields, require

BAG_OF_EMBEDDINGS = "bag_of_embeddings_mlp"
CONV_NGRAM = "conv_ngram"
ENCODER_KINDS = (BAG_OF_EMBEDDINGS, CONV_NGRAM)

MAX_SEQ_LEN = 170  # default truncation applied by callers before forward

# what an encoder reads from a piece: its token stream, or its entity mentions
INPUT_VIEWS = ("tokens", "entities")

# checkpoint format 2 stores params as base64 of little-endian float64 bytes
CHECKPOINT_FORMAT = 2

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# elements per Adam block: small enough that a block's operands stay in cache
ADAM_BLOCK = 32_768

PROB_FLOOR = 1e-12


class ModelError(ValueError):
    """Invalid model configuration, input, or a diverged computation."""


def _each(fn, x):
    """`math.exp` or `math.log` of each element: `np.exp` and `np.log` miss their last bit on some inputs."""
    return np.fromiter(map(fn, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def sigmoid(z):
    """The logistic function of each element of `z`, as a float64 array; exp of -|z| never overflows."""
    z = np.asarray(z, dtype=np.float64)
    e = _each(math.exp, -np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def binary_cross_entropy(prob, label, floor=PROB_FLOOR):
    """-y log p - (1-y) log(1-p) of each element, with p clamped away from {0, 1}, as a float64 array."""
    p = np.clip(np.asarray(prob, dtype=np.float64), floor, 1.0 - floor)
    return -_each(math.log, np.where(np.asarray(label) == 1, p, 1.0 - p))


@dataclass(frozen=True)
class EncoderSpec:
    """Architecture knobs for one scalar-logit encoder.

    window_sizes and n_filters only apply to the conv_ngram kind; n_filters
    is the number of convolution channels per window size.
    """

    kind: str
    embed_dim: int = 64
    hidden_dim: int = 384
    window_sizes: tuple[int, ...] = (1, 2, 3, 5, 10)
    n_filters: int = 16
    activation: str = "relu"

    def __post_init__(self):
        if not isinstance(self.window_sizes, (list, tuple)):
            raise ModelError(f"window_sizes must be a list of integers, got {self.window_sizes!r}")
        sizes = tuple(check_type(w, int, f"window_sizes[{i}]", ModelError) for i, w in enumerate(self.window_sizes))
        object.__setattr__(self, "window_sizes", sizes)
        if self.kind not in ENCODER_KINDS:
            raise ModelError(f"unknown encoder kind {self.kind!r}")
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise ModelError("embed_dim and hidden_dim must be positive")
        if self.activation != "relu":
            raise ModelError("only relu activation is supported")
        if self.kind == CONV_NGRAM:
            if not self.window_sizes or any(w < 1 for w in self.window_sizes):
                raise ModelError("window sizes must be positive integers")
            if len(set(self.window_sizes)) != len(self.window_sizes):
                raise ModelError("window sizes must be distinct")
            if self.n_filters < 1:
                raise ModelError("n_filters must be positive")


class ParamLayout:
    """Named tensor shapes packed into one flat parameter vector."""

    def __init__(self, shapes):
        self.shapes = dict(shapes)
        self.slices = {}
        size = 0
        for name, shape in self.shapes.items():
            stop = size + int(np.prod(shape))
            self.slices[name] = (size, stop, tuple(shape))
            size = stop
        self.size = size

    def view(self, flat, name, base=0):
        """The named tensor inside `flat`, a vector that starts at offset `base` of the full layout."""
        start, stop, shape = self.slices[name]
        return flat[start - base : stop - base].reshape(shape)


class SparseGrad(NamedTuple):
    """A batch's parameter gradient: dense after the embedding table, summed rows for the ids it read.

    `embed` is the first tensor of every layout, so `tail` covers the flat
    slice `[embed_end:]`; `rows[k]` is the gradient of embedding row `ids[k]`,
    and `ids` is sorted and unique. Rows the batch never read have gradient 0.
    """

    tail: np.ndarray
    ids: np.ndarray
    rows: np.ndarray


def _build_layout(spec, vocab_size):
    shapes = {"embed": (vocab_size, spec.embed_dim)}
    if spec.kind == CONV_NGRAM:
        for w in spec.window_sizes:
            shapes[f"conv{w}_w"] = (spec.n_filters, w * spec.embed_dim)
            shapes[f"conv{w}_b"] = (spec.n_filters,)
        feat_dim = spec.n_filters * len(spec.window_sizes)
    else:
        feat_dim = spec.embed_dim
    shapes["hidden_w"] = (spec.hidden_dim, feat_dim)
    shapes["hidden_b"] = (spec.hidden_dim,)
    shapes["out_w"] = (spec.hidden_dim,)
    shapes["out_b"] = (1,)
    return ParamLayout(shapes)


def _init_params(layout, rng):
    # embeddings uniform(-0.1, 0.1); dense/conv weights scaled normal
    # (std = sqrt(2 / fan_in)); biases zero
    flat = np.zeros(layout.size, dtype=np.float64)
    for name, shape in layout.shapes.items():
        v = layout.view(flat, name)
        if name == "embed":
            v[:] = rng.uniform(-0.1, 0.1, size=shape)
        elif name.endswith("_b"):
            continue
        else:
            fan_in = shape[-1] if len(shape) > 1 else shape[0]
            v[:] = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=shape)
    return flat


class ScalarModel:
    """A scalar-logit encoder: architecture spec + vocabulary + flat parameters + the view it reads."""

    def __init__(self, spec, vocab, params=None, seed=0, reads="tokens"):
        if reads not in INPUT_VIEWS:
            raise ModelError(f"an encoder reads one of {INPUT_VIEWS}, not {reads!r}")
        self.spec = spec
        self.vocab = vocab
        self.reads = reads
        self.layout = _build_layout(spec, vocab.size)
        if params is None:
            params = _init_params(self.layout, np.random.default_rng(seed))
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (self.layout.size,):
            raise ModelError(f"'params' must hold {self.layout.size} values, got shape {params.shape}")
        self.params = params

    @property
    def num_params(self):
        return self.layout.size

    def forward(self, token_ids):
        """Scalar logit for one encoded sequence (pure function of params and input)."""
        return float(self._forward_cache([token_ids])[0][0])

    def _conv_preactivations(self, X, w):
        """(B, L-w+1, F) window pre-activations: the bias plus one (F, d) weight slice per window offset."""
        d = self.spec.embed_dim
        W = self.layout.view(self.params, f"conv{w}_w")
        n_pos = X.shape[1] - w + 1
        Z = X[:, :n_pos] @ W[:, :d].T
        for k in range(1, w):
            Z += X[:, k : k + n_pos] @ W[:, k * d : (k + 1) * d].T
        Z += self.layout.view(self.params, f"conv{w}_b")
        return Z

    def _forward_cache(self, batch_ids):
        """Logits of a batch of encoded sequences, padded to (B, L) behind a length mask."""
        seqs = [np.asarray(ids, dtype=np.intp).ravel() for ids in batch_ids]
        if not seqs:
            raise ModelError("cannot run the encoder on an empty batch")
        sizes = np.array([s.size for s in seqs])
        if not sizes.all():
            raise ModelError("cannot run the encoder on an empty token sequence")
        # a conv document shorter than its widest window reads [PAD] as real input
        lengths = np.maximum(sizes, max(self.spec.window_sizes)) if self.spec.kind == CONV_NGRAM else sizes
        columns = np.arange(lengths.max())
        padded = np.full((sizes.size, columns.size), self.vocab.pad_id, dtype=np.intp)
        padded[columns < sizes[:, None]] = np.concatenate(seqs)
        padded[(padded < 0) | (padded >= self.vocab.size)] = self.vocab.unk_id
        mask = columns < lengths[:, None]
        ids = padded[mask]
        p, layout = self.params, self.layout
        X = layout.view(p, "embed")[padded]
        cache = {"ids": ids, "lengths": lengths, "mask": mask, "X": X}
        if self.spec.kind == BAG_OF_EMBEDDINGS:
            feat = (mask[:, None, :].astype(np.float64) @ X)[:, 0] / lengths[:, None]
        else:
            feats = []
            for w in self.spec.window_sizes:
                Z = self._conv_preactivations(X, w)
                A = np.maximum(Z, 0.0)
                # windows that reach into batch padding never win the max
                A[np.arange(Z.shape[1]) > (lengths - w)[:, None]] = -np.inf
                arg = A.argmax(axis=1)
                feats.append(np.take_along_axis(A, arg[:, None], axis=1)[:, 0])
                cache[f"arg{w}"] = arg
            feat = np.concatenate(feats, axis=1)
        z1 = feat @ layout.view(p, "hidden_w").T + layout.view(p, "hidden_b")
        h = np.maximum(z1, 0.0)
        logits = h @ layout.view(p, "out_w") + layout.view(p, "out_b")[0]
        cache.update(feat=feat, z1=z1, h=h)
        return logits, cache

    def _backward_from_cache(self, cache, upstream_grad):
        """Sum over the batch of d(logit_b)/d(params) scaled by upstream_grad[b], as one SparseGrad."""
        g = np.asarray(upstream_grad, dtype=np.float64)
        p, layout = self.params, self.layout
        embed_end = layout.slices["embed"][1]
        tail = np.zeros(layout.size - embed_end)

        def dview(name):
            return layout.view(tail, name, embed_end)

        feat, z1, h = cache["feat"], cache["z1"], cache["h"]
        dview("out_b")[0] = g.sum()
        dview("out_w")[:] = g @ h
        dz1 = (g[:, None] * layout.view(p, "out_w")) * (z1 > 0.0)
        dview("hidden_b")[:] = dz1.sum(axis=0)
        dview("hidden_w")[:] = dz1.T @ feat
        dfeat = dz1 @ layout.view(p, "hidden_w")
        d, lengths = self.spec.embed_dim, cache["lengths"]
        # batch padding is never read, so only real positions get a row
        uniq, inv = np.unique(cache["ids"], return_inverse=True)
        if self.spec.kind == BAG_OF_EMBEDDINGS:
            at = inv
            contrib = np.repeat(dfeat / lengths[:, None], lengths, axis=0)
        else:
            mask, X, F = cache["mask"], cache["X"], self.spec.n_filters
            slot = np.zeros(mask.shape, dtype=np.intp)
            slot[mask] = inv
            # gradient flows through each (sample, filter)'s max-pooled window,
            # gated by the conv relu
            dpool = np.where(feat > 0.0, dfeat, 0.0)
            at, contrib = [], []
            for k, w in enumerate(self.spec.window_sizes):
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

    def to_payload(self):
        return {
            "format_version": CHECKPOINT_FORMAT,
            "kind": "scalar_model",
            "reads": self.reads,
            "spec": asdict(self.spec),
            # not asdict: it would deep-copy every token string of a large vocabulary
            "vocab": {"tokens": self.vocab.tokens},
            # the array's own buffer: .tobytes() would copy the parameters once more
            "params": base64.b64encode(self.params.astype("<f8", copy=False)).decode("ascii"),
        }

    @classmethod
    def from_payload(cls, payload):
        """The encoder a payload describes."""
        from .vocab import Vocabulary

        (version,) = require(payload, ("format_version",), "scalar_model", ModelError)
        if version != CHECKPOINT_FORMAT:
            raise ModelError(f"unsupported checkpoint format_version {version!r}")
        if payload.get("kind") != "scalar_model":
            raise ModelError(f"expected a scalar_model payload, got {payload.get('kind')!r}")
        spec, vocab, params, reads = require(payload, ("spec", "vocab", "params", "reads"), "scalar_model", ModelError)
        return cls(
            from_fields(EncoderSpec, spec, "spec", ModelError),
            from_fields(Vocabulary, vocab, "vocab", ModelError),
            params=_decode_params(params),
            reads=reads,
        )


def _decode_params(text):
    """The writable native float64 vector that format 2 stores as base64 of little-endian bytes."""
    if not isinstance(text, str):
        raise ModelError(f"'params' must be a base64 string, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise ModelError(f"'params' is not valid base64: {exc}") from None
    if len(raw) % 8:
        raise ModelError(f"'params' decodes to {len(raw)} bytes, not a whole number of float64 values")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


@dataclass
class AdamState:
    """First and second moment accumulators for one flat parameter vector.

    `rows` is the touched mark: embedding rows `[0, rows)` cover every row
    that any gradient so far has read. Above it, every moment is still 0.
    """

    m: np.ndarray
    v: np.ndarray
    rows: int = 0

    @classmethod
    def zeros(cls, n):
        return cls(np.zeros(n, dtype=np.float64), np.zeros(n, dtype=np.float64))


def _adam_update(params, grads, ms, vs, lr, t):
    """The textbook bias-corrected update of one contiguous slice, in place.

    Block by block, in the order of the textbook update: m, v, then
    lr * m_hat / (sqrt(v_hat) + eps), then params minus that.
    """
    scratch = np.empty(min(ADAM_BLOCK, params.size))
    denom = np.empty_like(scratch)
    for start in range(0, params.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        g, m, v = grads[block], ms[block], vs[block]
        s, den = scratch[: g.size], denom[: g.size]
        np.multiply(g, 1.0 - ADAM_BETA1, out=s)
        m *= ADAM_BETA1
        m += s
        np.square(g, out=s)
        s *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += s
        np.divide(v, 1.0 - ADAM_BETA2**t, out=den)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        np.divide(m, 1.0 - ADAM_BETA1**t, out=s)
        s *= lr
        s /= den
        params[block] -= s


def adam_step(params, grad, state, lr, t):
    """One bias-corrected Adam update from a batch's `SparseGrad`; returns new params, mutates `state`.

    `t` is the 1-based step count. The step raises `state.rows` past the
    batch's largest id, then updates the embedding rows below it (a row the
    batch did not read gets gradient 0) and the dense tail. Above the mark
    every moment and gradient is 0, and the update leaves such an entry bit
    for bit as it is (p - 0.0 is p, also for -0.0), so skipping it gives the
    dense update's result. Non-finite gradients abort training rather than
    silently corrupting the parameters.
    """
    if lr <= 0:
        raise ModelError("learning rate must be positive")
    if t < 1:
        raise ModelError("step count must be >= 1")
    tail, ids, rows = (np.asarray(a) for a in grad)
    embed_end = params.size - tail.size
    if tail.ndim != 1 or embed_end < 0 or rows.ndim != 2 or rows.shape[0] != ids.size:
        raise ModelError("gradient/parameter shape mismatch")
    d = rows.shape[1]
    if ids.size and (d < 1 or embed_end % d or ids.min() < 0 or (ids.max() + 1) * d > embed_end):
        raise ModelError("gradient rows lie outside the embedding table")
    if not (np.isfinite(tail).all() and np.isfinite(rows).all()):
        raise ModelError("non-finite gradient; training diverged")
    if ids.size:
        state.rows = max(state.rows, int(ids.max()) + 1)
    prefix = state.rows * d
    g = np.zeros(prefix)
    g.reshape(state.rows, d)[ids] = rows
    out = params.copy()
    _adam_update(out[:prefix], g, state.m[:prefix], state.v[:prefix], lr, t)
    _adam_update(out[embed_end:], tail, state.m[embed_end:], state.v[embed_end:], lr, t)
    return out
