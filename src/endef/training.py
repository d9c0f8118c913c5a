"""Mini-batch training: augmentation wiring, early stopping, alpha grid search.

One loop trains a fused model or a single encoder: a single encoder is the
fused objective without an entity branch, so a fused model run with
alpha = 1 and beta = 0 walks bit-for-bit the same detector trajectory as the
plain baseline under the same seed (both draw from one pair of seeded
random streams for shuffling and augmentation). Validation and test data
are never augmented, and the vocabulary must come from the train part alone.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import augmentation as aug
from .augmentation import AUGMENT_ACTIONS, AUGMENT_KINDS
from .framework import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    branches,
    encoded_logits,
    loss_total,
    make_endef_model,
    planned_ids,
    score,
    truncate_piece,
)
from .metrics import DEFAULT_MAXFPR, PredictionSet, evaluate, f1_scores
from .models import MAX_SEQ_LEN, AdamState, ModelError, adam_step, sigmoid
from .replay import Draws
from .vocab import build_vocabulary


class TrainingError(ValueError):
    """Bad training configuration or a diverged run."""


@dataclass(frozen=True)
class AugmentSettings:
    """Per-sample augmentation knobs, validated once and read by `augmentation.augment`.

    probability is the per-token (or per-span) selection chance;
    apply_probability is the chance a sample gets augmented at all.
    """

    enabled: bool = True
    probability: float = 0.1
    apply_probability: float = 1.0
    kinds: tuple[str, ...] = AUGMENT_KINDS
    actions: tuple[str, ...] = AUGMENT_ACTIONS

    def __post_init__(self):
        object.__setattr__(self, "kinds", tuple(self.kinds))
        object.__setattr__(self, "actions", tuple(self.actions))
        if not 0.0 <= self.probability <= 1.0:
            raise TrainingError("augment probability must lie in [0, 1]")
        if not 0.0 <= self.apply_probability <= 1.0:
            raise TrainingError("augment apply_probability must lie in [0, 1]")
        if not set(self.kinds) <= set(AUGMENT_KINDS) or not self.kinds:
            raise TrainingError(f"augment kinds must be a non-empty subset of {AUGMENT_KINDS}")
        if not set(self.actions) <= set(AUGMENT_ACTIONS) or not self.actions:
            raise TrainingError(f"augment actions must be a non-empty subset of {AUGMENT_ACTIONS}")


@dataclass(frozen=True)
class TrainConfig:
    """Loop hyperparameters. alpha/beta are checked here, before any data loads, and consumed at model construction."""

    lr: float = 5e-3
    batch_size: int = 64
    max_epochs: int = 50
    patience: int = 5
    seed: int = 0
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    max_len: int = MAX_SEQ_LEN
    min_token_freq: int = 2
    stop_grad_entity_from_overall: bool = False
    augment: AugmentSettings = field(default_factory=AugmentSettings)

    def __post_init__(self):
        if not self.lr > 0:  # NaN fails too
            raise TrainingError("lr must be positive")
        if self.batch_size < 1:
            raise TrainingError("batch_size must be at least 1")
        if self.max_epochs < 1:
            raise TrainingError("max_epochs must be at least 1")
        if self.patience < 1:
            raise TrainingError("patience must be at least 1")
        if self.max_len < 1:
            raise TrainingError("max_len must be at least 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise TrainingError("alpha must lie in [0, 1]")
        if not self.beta >= 0.0:  # NaN fails too
            raise TrainingError("beta must be non-negative")


@dataclass
class TrainResult:
    model: object
    history: list
    best_epoch: int
    best_val_macf1: float


def _rng_streams(seed):
    """The shuffling `Generator` and the augmentation draws, replayed from the `Generator` of their own seed."""
    shuffle_ss, augment_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(shuffle_ss), Draws(augment_ss)


def labels_of(corpus):
    return np.array([p.label for p in corpus], dtype=np.int64)


def evaluate_model(model, corpus, max_len=MAX_SEQ_LEN, maxfpr=DEFAULT_MAXFPR, scale_by_alpha=False):
    """Full metric report for a trained model on an un-augmented corpus, scored as validation scores it."""
    scores = score(model, corpus, max_len, scale_by_alpha)
    return evaluate(PredictionSet(scores, labels_of(corpus)), maxfpr)


def _check_split(split):
    # the loop consumes train and validation; the test part is the caller's
    # business and may legitimately be absent from CLI-assembled splits
    for part, label in ((split.train, "train"), (split.validation, "validation")):
        if len(part) == 0:
            raise TrainingError(f"{label} part is empty")


def train(model, split, cfg):
    """Train a fused EndefModel or a single ScalarModel; early stop on the detector's validation macro F1.

    Each encoder reads the view it was built with; a single encoder that
    reads entities is the entity-only shortcut classifier. Training pieces
    are truncated up front because augmentation draws per token of the
    truncated piece; each is encoded once per input view
    (`framework.planned_ids`) and scanned once into the run's
    `augmentation.Plan`, from which `augmentation.augment` derives each
    batch's ids. The validation ids are encoded once too.
    The model is updated in place and, after the run, holds the parameters
    of the best validation epoch (not the last one). Adam writes into a
    private copy of each encoder's parameters, so the arrays the model held
    on entry are never written.
    """
    _check_split(split)
    encoders = branches(model)
    opts = {name: AdamState.zeros(enc.num_params) for name, enc in encoders.items()}
    shuffle_rng, augment_draws = _rng_streams(cfg.seed)
    pieces = [truncate_piece(p, cfg.max_len) for p in split.train]
    planned = {enc.reads: (enc.vocab, *planned_ids(enc, pieces, cfg.max_len)) for enc in encoders.values()}
    plan = aug.Plan(pieces, planned, cfg.max_len)
    labels = labels_of(pieces)
    val_ids = planned_ids(encoders["detector"], split.validation, cfg.max_len)
    val_labels = labels_of(split.validation)
    n = len(pieces)
    best_metric = -math.inf
    best_params = {}
    for name, enc in encoders.items():
        best_params[name], enc.params = enc.params, enc.params.copy()
    best_epoch = 0
    bad_epochs = 0
    history = []
    step = 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            batch_idx = order[start : start + cfg.batch_size]
            by_view = aug.augment(plan, batch_idx, cfg.augment, augment_draws)
            ids = {name: by_view[enc.reads] for name, enc in encoders.items()}
            step += 1
            try:
                loss, grads = loss_total(model, ids, labels[batch_idx], cfg.stop_grad_entity_from_overall)
            except ModelError as exc:
                raise TrainingError(f"epoch {epoch}, batch {start // cfg.batch_size + 1}: {exc}") from exc
            for name, enc in encoders.items():
                adam_step(enc.params, grads[name], opts[name], cfg.lr, step)
            loss_sum += loss * len(batch_idx)
        val_scores = sigmoid(encoded_logits(encoders["detector"], *val_ids))
        val_macf1 = f1_scores(PredictionSet(val_scores, val_labels)).macf1
        improved = val_macf1 > best_metric
        history.append(
            {"epoch": epoch, "train_loss": loss_sum / n, "val_macf1": val_macf1, "improved": improved}
        )
        if improved:
            best_metric = val_macf1
            best_params = {name: enc.params.copy() for name, enc in encoders.items()}
            best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    for name, enc in encoders.items():
        enc.params = best_params[name]
    return TrainResult(model, history, best_epoch, best_metric)


# the plain baseline is `train` on a single encoder; the name stays for callers
train_baseline = train


def grid_search_alpha(split, cfg, detector_spec, entity_spec):
    """Train one fused model per alpha in {0.0, 0.1, ..., 1.0}.

    Selection is by best validation macro F1; ties go to the larger alpha.
    Returns (best_alpha, rows) where rows is the full 11-entry table.
    """
    vocab = build_vocabulary(split.train, cfg.min_token_freq)
    rows = []
    for i in range(11):
        alpha = i / 10.0
        model = make_endef_model(detector_spec, entity_spec, vocab, seed=cfg.seed, alpha=alpha, beta=cfg.beta)
        result = train(model, split, cfg)
        rows.append({"alpha": alpha, "val_macf1": result.best_val_macf1, "best_epoch": result.best_epoch})
    best = max(rows, key=lambda r: (r["val_macf1"], r["alpha"]))
    return best["alpha"], rows
