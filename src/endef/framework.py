"""Fused two-branch training with detector-only inference.

The entity branch sees only the entity mentions of a sample and soaks up
whatever shortcut value they carry; the detector sees the full token stream.
Training couples both logits through a fused sigmoid plus an auxiliary
entity loss; inference drops the entity branch entirely so entity shortcuts
learned from historical data cannot steer predictions on future data.
"""

import json
import math
from dataclasses import dataclass, replace
from itertools import accumulate, islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .augmentation import Sample, recompute_entities
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


def input_ids(encoder, piece, max_len):
    """The ids an encoder reads from a piece cut to max_len: its tokens, or the entities left in them.

    Training, validation and scoring all go through here, so a long piece's
    entity mentions are recounted on its truncated tokens wherever it is read,
    and an entity reader refuses a piece whose entities were never recognized.
    """
    if encoder.reads == "tokens":
        return encoder.vocab.encode_tokens(piece.tokens, max_len)
    if piece.needs_recognition:
        raise ModelError(f"piece {piece.id!r} has no recognized entities; run recognition first")
    return encoder.vocab.encode_entities(truncate_piece(piece, max_len).entities, max_len)


def branches(model):
    """The encoders of a model by name; a single encoder is a detector without an entity branch."""
    if isinstance(model, EndefModel):
        return {"detector": model.detector, "entity": model.entity_model}
    return {"detector": model}


# one flat array, not one per piece: per-piece training arrays raised score-new-period's peak RSS from 245.6 to 262.6 MB
def planned_ids(encoder, pieces, max_len):
    """The ids an encoder reads from each piece (`input_ids`), kept in one flat array with one view per piece."""
    ids = [input_ids(encoder, p, max_len) for p in pieces]
    flat = np.concatenate(ids) if ids else np.zeros(0, dtype=np.intp)
    ends = list(accumulate(map(len, ids)))
    return [flat[a:b] for a, b in zip([0, *ends], ends)]


def sample_ids(encoder, planned, sample, max_len):
    """The ids an encoder reads from a training sample, given `planned`, those it reads from the unedited piece.

    An unedited record reads `planned`. For an edited `augmentation.Sample`,
    a token reader's ids are `planned` with [MASK]'s id written at the
    masked positions, or only the kept positions left: training pieces are
    cut to max_len before they are planned, so their token ids line up with
    their tokens. An entity reader's ids are re-encoded only when the edit
    changed the entity list; an edit never lengthens a planned piece, so
    there is nothing left to truncate.
    """
    if not isinstance(sample, Sample):
        return planned
    if encoder.reads == "tokens":
        if sample.kept is not None:
            return planned[sample.kept]
        ids = planned.copy()
        ids[list(sample.masked)] = encoder.vocab.mask_id
        return ids
    if sample.entities == sample.record.piece.entities:
        return planned
    return encoder.vocab.encode_entities(sample.entities, max_len)


def loss_total(model, ids, labels, stop_grad_entity_from_overall=False):
    """Mean fused loss plus beta times mean entity loss, with gradients for every branch.

    `ids` maps each name of `branches(model)` to the ids that branch reads
    from each sample (training derives them with `sample_ids`); `labels`
    holds each sample's label. Returns (loss, grads), grads keyed like
    `ids`, each branch's `models.SparseGrad` as its backward pass gives it.
    The fused term backpropagates into both branches (the fusion couples
    them); the auxiliary entity term touches only the entity branch. With
    stop_grad_entity_from_overall the fused term's gradient into the entity
    branch is suppressed. A single encoder is this objective with alpha = 1,
    beta = 0 and no entity branch. Each branch runs one forward and one
    backward pass over the whole batch; the loss is summed one sample at a time.
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
            fused = sigmoid(r_det[i])
            l_entity = 0.0
        else:
            fused = sigmoid(alpha * r_det[i] + (1.0 - alpha) * r_ent[i])
            p_ent = sigmoid(r_ent[i])
            l_entity = binary_cross_entropy(p_ent, label)
        l_overall = binary_cross_entropy(fused, label)
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


def encoded_logits(encoder, ids):
    """The raw logit of one encoder for each id sequence of an iterable, in order.

    Sequences are scored in fixed chunks of SCORE_CHUNK, so a piece's logit
    does not depend on which caller scores the corpus, nor on whether its
    ids were encoded in advance.
    """
    ids = iter(ids)
    out = []
    while chunk := list(islice(ids, SCORE_CHUNK)):
        out += encoder._forward_cache(chunk)[0].tolist()
    return out


def logits(encoder, pieces, max_len=MAX_SEQ_LEN):
    """The raw logit of one encoder for every piece, read from the encoder's view, in corpus order."""
    return encoded_logits(encoder, (input_ids(encoder, p, max_len) for p in pieces))


def probabilities(r):
    """Sigmoid of each logit, as a float64 array."""
    return np.array([sigmoid(x) for x in r], dtype=np.float64)


def score(model, pieces, max_len=MAX_SEQ_LEN, scale_by_alpha=False):
    """Detector-only probabilities for every piece; the entity branch is never evaluated.

    scale_by_alpha multiplies a fused model's detector logit by the fusion
    weight before the sigmoid; rankings (AUC-family metrics) are unaffected
    either way, and a single encoder has nothing to scale.
    """
    r = logits(branches(model)["detector"], pieces, max_len)
    if scale_by_alpha and isinstance(model, EndefModel):
        r = [model.alpha * x for x in r]
    return probabilities(r)


def case_report(model, corpus, max_len=MAX_SEQ_LEN, scale_by_alpha=False):
    """Per-sample diagnostic rows (corpus order): each branch's probability, the fused one and the debiased one."""
    if not isinstance(model, EndefModel):
        raise ModelError("case-report needs a fused endef_model checkpoint, not a single-encoder scalar_model")
    alpha = model.alpha
    r_det = logits(model.detector, corpus, max_len)
    r_ent = logits(model.entity_model, corpus, max_len)
    rows = []
    for piece, d, e in zip(corpus, r_det, r_ent):
        p_detector = sigmoid(d)
        rows.append(
            {
                "id": piece.id,
                "p_entity": sigmoid(e),
                "p_detector": p_detector,
                "p_fused": sigmoid(alpha * d + (1.0 - alpha) * e),
                "p_debiased": sigmoid(alpha * d) if scale_by_alpha else p_detector,
                "label": piece.label,
            }
        )
    return rows


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
