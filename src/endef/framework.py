"""Fused two-branch training with detector-only inference.

The entity branch sees only the entity mentions of a sample and soaks up
whatever shortcut value they carry; the detector sees the full token stream.
Training couples both logits through a fused sigmoid plus an auxiliary
entity loss; inference drops the entity branch entirely so entity shortcuts
learned from historical data cannot steer predictions on future data.
"""

import json
from dataclasses import dataclass, replace
from itertools import accumulate, chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .augmentation import recompute_entities
from .models import (
    BAG_OF_EMBEDDINGS,
    CHECKPOINT_FORMAT,
    MAX_SEQ_LEN,
    EncoderSpec,
    ModelError,
    ScalarModel,
    binary_cross_entropy,
    sigmoid,
)
from .payload import check_type, require
from .vocab import entity_words

DEFAULT_ALPHA = 0.8
DEFAULT_BETA = 0.2

# offset applied to the run seed for the entity branch so the two branches
# never share an initialization stream
ENTITY_SEED_OFFSET = 1_000_003

# documents per encoder pass when scoring; batch-mates shift a logit only in
# its last bits, so every scoring caller uses the same chunks
SCORE_CHUNK = 64


@dataclass
class EndefModel:
    """Detector + entity branch, fusion weight alpha, entity-loss weight beta."""

    entity_model: ScalarModel
    detector: ScalarModel
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ModelError("alpha must lie in [0, 1]")
        if not self.beta >= 0.0:  # NaN fails too
            raise ModelError("beta must be non-negative")

    @property
    def vocab(self):
        return self.detector.vocab


def default_entity_spec():
    """The entity branch when a run sets none: smaller than a detector, as it reads only entity mentions."""
    return EncoderSpec(kind=BAG_OF_EMBEDDINGS, embed_dim=16, hidden_dim=32)


def make_endef_model(detector_spec, entity_spec, vocab, *, seed=0, alpha=DEFAULT_ALPHA, beta=DEFAULT_BETA):
    """Build both branches; the detector initializes from `seed`, the entity branch from a derived seed."""
    detector = ScalarModel(detector_spec, vocab, seed=seed)
    entity_model = ScalarModel(entity_spec, vocab, seed=seed + ENTITY_SEED_OFFSET, reads="entities")
    return EndefModel(entity_model, detector, alpha, beta)


def truncate_piece(piece, max_len):
    """Cut tokens to max_len and re-locate entities on the shortened sequence."""
    if len(piece.tokens) <= max_len:
        return piece
    new_tokens = piece.tokens[:max_len]
    return replace(piece, tokens=new_tokens, entities=recompute_entities(piece, new_tokens))


def input_words(encoder, piece, max_len):
    """The words an encoder reads from a piece cut to max_len: its tokens, or the entities left in them.

    Training, validation and scoring all go through here, so a long piece's
    entity mentions are recounted on its truncated tokens wherever it is read,
    and an entity reader refuses a piece whose entities were never recognized.
    """
    if encoder.reads == "tokens":
        return piece.tokens[:max_len]
    if piece.needs_recognition:
        raise ModelError(f"piece {piece.id!r} has no recognized entities; run recognition first")
    return entity_words(truncate_piece(piece, max_len).entities)[:max_len]


def branches(model):
    """The encoders of a model by name; a single encoder is a detector without an entity branch."""
    if isinstance(model, EndefModel):
        return {"detector": model.detector, "entity": model.entity_model}
    return {"detector": model}


def planned_ids(encoder, pieces, max_len):
    """The ids of the words an encoder reads from each piece (`input_words`), as one flat array and each piece's bounds.

    The words of every piece are encoded end to end in one call, so the ids are held once, never also per piece.
    """
    words = [input_words(encoder, p, max_len) for p in pieces]
    bounds = [0, *accumulate(map(len, words))]
    return encoder.vocab.encode_tokens(chain.from_iterable(words), count=bounds[-1]), bounds


def loss_total(model, ids, labels, stop_grad_entity_from_overall=False):
    """Mean fused loss plus beta times mean entity loss, with gradients for every branch.

    `ids` maps each name of `branches(model)` to the (flat, bounds) pair of
    the ids that branch reads from each sample, sample k's being
    flat[bounds[k]:bounds[k + 1]] (`augmentation.augment` or `planned_ids`);
    `labels` holds each sample's label. Returns (loss, grads), grads keyed like
    `ids`, each branch's `models.SparseGrad` as its backward pass gives it.
    The fused term backpropagates into both branches (the fusion couples
    them); the auxiliary entity term touches only the entity branch. With
    stop_grad_entity_from_overall the fused term's gradient into the entity
    branch is suppressed. Each branch runs one forward and one backward pass
    over the batch, and each term is one array formula over it; a single
    encoder is the same formula with alpha = 1, beta = 0 and entity logit 0.
    """
    if len(labels) == 0:
        raise ModelError("loss_total needs a non-empty batch")
    encoders = branches(model)
    passes = {name: enc._forward_cache(*ids[name]) for name, enc in encoders.items()}
    alpha, beta = (model.alpha, model.beta) if "entity" in encoders else (1.0, 0.0)
    r_det = passes["detector"][0]
    r_ent = passes["entity"][0] if "entity" in encoders else np.zeros_like(r_det)
    y = np.asarray(labels, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as Python floats are: the check names the sample
        fused = sigmoid(alpha * r_det + (1.0 - alpha) * r_ent)
        p_ent = sigmoid(r_ent)
        l_overall = binary_cross_entropy(fused, y)
        l_entity = binary_cross_entropy(p_ent, y)
        (bad,) = np.nonzero(~np.isfinite(l_overall + beta * l_entity))
    if bad.size:
        raise ModelError(f"non-finite loss on sample {bad[0] + 1} of the batch")
    inv = 1.0 / len(labels)
    residual = fused - y
    upstream = {"detector": alpha * residual * inv, "entity": beta * (p_ent - y) * inv}
    if not stop_grad_entity_from_overall:
        upstream["entity"] += (1.0 - alpha) * residual * inv
    grads = {name: enc._backward_from_cache(passes[name][1], upstream[name]) for name, enc in encoders.items()}
    # sequential sums: Python's sum() compensates float rounding from 3.12 on
    total_overall, total_entity = (float(np.add.accumulate(terms)[-1]) for terms in (l_overall, l_entity))
    loss = total_overall * inv + beta * (total_entity * inv)
    return loss, grads


def encoded_logits(encoder, flat, bounds):
    """The raw logit of one encoder for each sequence flat[bounds[k]:bounds[k + 1]], in order, as a float64 array.

    Sequences are scored in fixed chunks of SCORE_CHUNK, so a piece's logit
    does not depend on which caller scores the corpus.
    """
    chunks = (bounds[k : k + SCORE_CHUNK + 1] for k in range(0, len(bounds) - 1, SCORE_CHUNK))
    return np.concatenate([np.zeros(0), *(encoder._forward_cache(flat, chunk)[0] for chunk in chunks)])


def logits(encoder, pieces, max_len=MAX_SEQ_LEN):
    """The raw logit of one encoder for every piece, read from the encoder's view, in corpus order."""
    return encoded_logits(encoder, *planned_ids(encoder, pieces, max_len))


def score(model, pieces, max_len=MAX_SEQ_LEN, scale_by_alpha=False):
    """Detector-only probabilities for every piece; the entity branch is never evaluated.

    scale_by_alpha multiplies a fused model's detector logit by the fusion
    weight before the sigmoid; rankings (AUC-family metrics) are unaffected
    either way, and a single encoder has nothing to scale.
    """
    scale = model.alpha if scale_by_alpha and isinstance(model, EndefModel) else 1.0
    return sigmoid(scale * logits(branches(model)["detector"], pieces, max_len))


def case_report(model, corpus, max_len=MAX_SEQ_LEN, scale_by_alpha=False):
    """Per-sample diagnostic rows (corpus order): each branch's probability, the fused one and the debiased one."""
    if not isinstance(model, EndefModel):
        raise ModelError("case-report needs a fused endef_model checkpoint, not a single-encoder scalar_model")
    alpha = model.alpha
    r_det = logits(model.detector, corpus, max_len)
    r_ent = logits(model.entity_model, corpus, max_len)
    p_detector = sigmoid(r_det)
    columns = {
        "id": [piece.id for piece in corpus],
        "p_entity": sigmoid(r_ent).tolist(),
        "p_detector": p_detector.tolist(),
        "p_fused": sigmoid(alpha * r_det + (1.0 - alpha) * r_ent).tolist(),
        "p_debiased": (sigmoid(alpha * r_det) if scale_by_alpha else p_detector).tolist(),
        "label": [piece.label for piece in corpus],
    }
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


class Checkpoint(NamedTuple):
    """A loaded checkpoint: the model and the settings its run scored with."""

    model: object
    max_len: int
    scale_by_alpha: bool


def save_checkpoint(model, path, max_len=MAX_SEQ_LEN, scale_by_alpha=False):
    """Write a model (composite or single encoder) and its inference settings as self-describing JSON."""
    if isinstance(model, EndefModel):
        payload = {
            "format_version": CHECKPOINT_FORMAT,
            "kind": "endef_model",
            "alpha": model.alpha,
            "beta": model.beta,
            "detector": model.detector.to_payload(),
            "entity_model": model.entity_model.to_payload(),
        }
    elif isinstance(model, ScalarModel):
        payload = model.to_payload()
    else:
        raise ModelError(f"cannot checkpoint object of type {type(model).__name__}")
    payload["inference"] = {"max_len": int(max_len), "scale_by_alpha": bool(scale_by_alpha)}
    # streamed: building the whole text first would hold the checkpoint in memory twice more
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def _load_encoder(payload, name):
    try:
        return ScalarModel.from_payload(payload)
    except ModelError as exc:
        raise ModelError(f"{name} encoder: {exc}") from None


def load_checkpoint(path):
    """Read a checkpoint written by save_checkpoint; dispatches on its kind field."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    (kind,) = require(payload, ("kind",), "checkpoint", ModelError)
    if kind == "endef_model":
        if payload.get("format_version") != CHECKPOINT_FORMAT:
            raise ModelError(f"unsupported checkpoint format_version {payload.get('format_version')!r}")
        entity, detector, alpha, beta = require(
            payload, ("entity_model", "detector", "alpha", "beta"), "checkpoint", ModelError
        )
        model = EndefModel(
            _load_encoder(entity, "entity_model"),
            _load_encoder(detector, "detector"),
            float(check_type(alpha, float, "checkpoint.alpha", ModelError)),
            float(check_type(beta, float, "checkpoint.beta", ModelError)),
        )
    elif kind == "scalar_model":
        model = _load_encoder(payload, "scalar_model")
    else:
        raise ModelError(f"unknown checkpoint kind {kind!r}")
    (inference,) = require(payload, ("inference",), "checkpoint", ModelError)
    max_len, scale_by_alpha = require(inference, ("max_len", "scale_by_alpha"), "checkpoint inference", ModelError)
    check_type(scale_by_alpha, bool, "checkpoint inference scale_by_alpha", ModelError)
    if isinstance(max_len, bool) or not isinstance(max_len, int) or max_len < 1:
        raise ModelError(f"checkpoint inference max_len must be a positive integer, got {max_len!r}")
    return Checkpoint(model, max_len, scale_by_alpha)
