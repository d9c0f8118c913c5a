"""Paired experiment harness on synthetic flipped-bias corpora.

Runs the plain detector and its fused-trained twin over matched seeds on a
corpus whose entity-label correlations flip between the train and test
periods, and reports the per-seed test metrics of both arms. Also trains the
entity-only shortcut classifier that certifies the trap exists (high train
accuracy, below-chance test AUC).
"""

from dataclasses import dataclass, replace

from .corpus import temporal_split
# default_entity_spec lives with the model it builds; the scripts and the benchmark import it from here
from .framework import default_entity_spec, make_endef_model
from .metrics import aggregate_reports
from .models import BAG_OF_EMBEDDINGS, EncoderSpec, ScalarModel
from .synthetic import BiasSpec, generate
from .training import TrainConfig, evaluate_model, train
from .vocab import build_vocabulary

# Entity fake fractions flip hard between periods: half the entities go
# 3% -> 67% fake, the other half 97% -> 33%, so shortcut features learned
# on the train period point the wrong way on the test period.
FLIPPED_TRAIN_CORR = (0.03, 0.97) * 6
FLIPPED_TEST_CORR = (0.67, 0.33) * 6


def flipped_bias_spec(seed=7, n_train=1600, n_val=320, n_test=320):
    """The standard trap recipe used by the regression experiment.

    Short documents keep entity tokens prominent under mean pooling and the
    moderate content signal stays learnable without drowning the shortcut,
    which is what makes the trap bite.
    """
    return BiasSpec(
        n_entities=12,
        vocab_size=240,
        n_train=n_train,
        n_val=n_val,
        n_test=n_test,
        train_corr=FLIPPED_TRAIN_CORR,
        test_corr=FLIPPED_TEST_CORR,
        content_signal_strength=0.20,
        min_tokens=8,
        max_tokens=16,
        seed=seed,
    )


def default_detector_spec():
    return EncoderSpec(kind=BAG_OF_EMBEDDINGS, embed_dim=32, hidden_dim=64)


def default_train_config(seed=0):
    return TrainConfig(lr=5e-3, batch_size=64, max_epochs=10, patience=3, seed=seed)


def split_for(spec, corpus, seed=0):
    """Temporal split matching the generator's period sizes."""
    total = len(corpus)
    return temporal_split(corpus, spec.n_train / total, spec.n_val / total, seed)


@dataclass
class PairedOutcome:
    """Per-seed test reports for the baseline arm and the fused arm."""

    seeds: tuple
    baseline_reports: tuple
    endef_reports: tuple

    def mean(self, arm, metric):
        reports = self.baseline_reports if arm == "baseline" else self.endef_reports
        return sum(getattr(r, metric) for r in reports) / len(reports)

    def gap(self, metric):
        return self.mean("endef", metric) - self.mean("baseline", metric)

    def to_dict(self):
        return {
            "seeds": list(self.seeds),
            "baseline": aggregate_reports(self.baseline_reports),
            "endef": aggregate_reports(self.endef_reports),
            "gap": {m: self.gap(m) for m in ("macf1", "acc", "auc", "spauc", "f1_real", "f1_fake")},
        }


def run_paired_comparison(bias_spec, detector_spec, entity_spec, cfg, seeds):
    """Train baseline and fused arms per seed on one corpus; evaluate on the test part.

    Both arms share the corpus, the split, the vocabulary, the detector
    initialization, and the loop randomness of their seed, so the only
    difference is the entity branch and the fused objective.
    """
    corpus, _ = generate(bias_spec)
    split = split_for(bias_spec, corpus, seed=bias_spec.seed)
    vocab = build_vocabulary(split.train, cfg.min_token_freq)
    baseline_reports = []
    endef_reports = []
    for seed in seeds:
        run_cfg = replace(cfg, seed=seed)
        base = ScalarModel(detector_spec, vocab, seed=seed)
        train(base, split, run_cfg)
        baseline_reports.append(evaluate_model(base, split.test, run_cfg.max_len))
        fused = make_endef_model(detector_spec, entity_spec, vocab, seed=seed, alpha=cfg.alpha, beta=cfg.beta)
        train(fused, split, run_cfg)
        endef_reports.append(evaluate_model(fused, split.test, run_cfg.max_len))
    return PairedOutcome(tuple(seeds), tuple(baseline_reports), tuple(endef_reports))


def run_entity_only_probe(bias_spec, entity_spec, cfg, seed=0):
    """Train the entity-only shortcut classifier; report train accuracy and test AUC.

    Augmentation is disabled so the classifier can latch onto the shortcut as
    hard as possible; that is the point of the probe.
    """
    corpus, _ = generate(bias_spec)
    split = split_for(bias_spec, corpus, seed=bias_spec.seed)
    vocab = build_vocabulary(split.train, cfg.min_token_freq)
    probe_cfg = replace(cfg, seed=seed, augment=replace(cfg.augment, enabled=False))
    model = ScalarModel(entity_spec, vocab, seed=seed, reads="entities")
    train(model, split, probe_cfg)
    train_report = evaluate_model(model, split.train, probe_cfg.max_len)
    test_report = evaluate_model(model, split.test, probe_cfg.max_len)
    return {"train_acc": train_report.acc, "test_auc": test_report.auc, "model": model}
