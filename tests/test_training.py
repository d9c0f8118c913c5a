import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from endef import augmentation as aug
from endef import framework
from endef.corpus import Corpus, SplitResult
from endef.experiments import (
    default_detector_spec,
    default_entity_spec,
    default_train_config,
    flipped_bias_spec,
    run_entity_only_probe,
    split_for,
)
from endef.framework import branches, make_endef_model, score
from endef.metrics import PredictionSet, f1_scores
from endef.models import BAG_OF_EMBEDDINGS, CONV_NGRAM, AdamState, EncoderSpec, ScalarModel, adam_step
from endef.payload import from_fields
from endef.recognizer import Gazetteer
from endef.replay import Draws
from endef.synthetic import BiasSpec, generate
from endef.training import (
    AugmentSettings,
    TrainConfig,
    TrainingError,
    evaluate_model,
    grid_search_alpha,
    labels_of,
    train,
)
from endef.vocab import MASK_TOKEN, Vocabulary, build_vocabulary

from conftest import augment_record, input_ids, make_piece, make_plan, piece_loss, truncate_piece, unbiased_spec
from test_augmentation import REFERENCE_SETTINGS, reference_augment


def tiny_setup(seed=0, det_kind=BAG_OF_EMBEDDINGS, n_train=120):
    spec = BiasSpec(
        n_entities=8,
        vocab_size=60,
        n_train=n_train,
        n_val=40,
        n_test=40,
        train_corr=(0.05, 0.95) * 4,
        test_corr=(0.7, 0.3) * 4,
        content_signal_strength=0.3,
        min_tokens=8,
        max_tokens=14,
        seed=11,
    )
    corpus, _ = generate(spec)
    split = split_for(spec, corpus, seed=11)
    vocab = build_vocabulary(split.train, 2)
    det_spec = EncoderSpec(det_kind, embed_dim=8, hidden_dim=12, window_sizes=(1, 2), n_filters=3)
    ent_spec = EncoderSpec(BAG_OF_EMBEDDINGS, embed_dim=6, hidden_dim=8)
    cfg = TrainConfig(lr=5e-3, batch_size=32, max_epochs=3, patience=2, seed=seed)
    return split, vocab, det_spec, ent_spec, cfg


def test_config_validation():
    for lr in (0.0, math.nan):
        with pytest.raises(TrainingError):
            TrainConfig(lr=lr)
    with pytest.raises(TrainingError):
        TrainConfig(batch_size=0)
    with pytest.raises(TrainingError):
        TrainConfig(patience=0)
    for alpha in (-0.1, 1.5):
        with pytest.raises(TrainingError, match=r"alpha must lie in \[0, 1\]"):
            TrainConfig(alpha=alpha)
    for beta in (-0.1, math.nan):
        with pytest.raises(TrainingError, match="beta must be non-negative"):
            TrainConfig(beta=beta)
    with pytest.raises(TrainingError):
        AugmentSettings(probability=1.2)
    with pytest.raises(TrainingError):
        AugmentSettings(kinds=("nope",))


def test_config_dict_round_trip():
    cfg = TrainConfig(lr=1e-3, augment=AugmentSettings(probability=0.2, kinds=("word_level",)))
    assert from_fields(TrainConfig, json.loads(json.dumps(asdict(cfg))), "train", TrainingError) == cfg


def test_truncate_piece_relocates_entities():
    piece = make_piece("a", ("e1", "x", "y", "e2"), ("e1", "e2"))
    cut = truncate_piece(piece, 2)
    assert cut.tokens == ("e1", "x")
    assert cut.entities == ("e1",)
    assert truncate_piece(piece, 10) is piece
    # every encoder reads the cut piece, so an entity reader sees only the entities left in it
    vocab = build_vocabulary([piece], 1)
    for reads, expect in (("tokens", ("e1", "x")), ("entities", ("e1",))):
        encoder = ScalarModel(EncoderSpec(BAG_OF_EMBEDDINGS), vocab, reads=reads)
        assert input_ids(encoder, piece, 2).tolist() == vocab.encode_tokens(expect).tolist()


def test_empty_split_part_rejected():
    split, vocab, det_spec, ent_spec, cfg = tiny_setup()
    empty = SplitResult(split.train, Corpus((), name="empty"), split.test)
    model = ScalarModel(det_spec, vocab, seed=0)
    with pytest.raises(TrainingError, match="validation part is empty"):
        train(model, empty, cfg)


def test_diverged_objective_names_the_epoch_batch_and_sample():
    split, vocab, det_spec, ent_spec, cfg = tiny_setup()
    model = make_endef_model(det_spec, ent_spec, vocab, seed=0)
    model.detector.params = np.full(model.detector.num_params, np.nan)
    with pytest.raises(TrainingError) as caught:
        train(model, split, cfg)
    assert str(caught.value) == "epoch 1, batch 1: non-finite loss on sample 1 of the batch"


def test_early_stop_fires_after_patience_without_improvement():
    # a vanishing learning rate freezes the model, so epoch 1 sets the best
    # metric and epoch 2 cannot improve: with patience=1 the loop stops at 2
    split, vocab, det_spec, ent_spec, cfg = tiny_setup()
    cfg = replace(cfg, lr=1e-12, patience=1, max_epochs=10)
    model = ScalarModel(det_spec, vocab, seed=0)
    result = train(model, split, cfg)
    assert len(result.history) == 2
    assert result.best_epoch == 1


def test_training_is_deterministic():
    split, vocab, det_spec, ent_spec, cfg = tiny_setup()

    def run():
        model = make_endef_model(det_spec, ent_spec, vocab, seed=3)
        return train(model, split, replace(cfg, seed=3))

    a, b = run(), run()
    assert a.history == b.history
    assert np.array_equal(a.model.detector.params, b.model.detector.params)
    assert np.array_equal(a.model.entity_model.params, b.model.entity_model.params)


def test_train_never_writes_the_callers_params():
    # Adam updates in place, so train must step a private copy of the arrays the encoders held on entry
    split, vocab, det_spec, ent_spec, cfg = tiny_setup()
    init = ScalarModel(det_spec, vocab, seed=4).params
    before = init.copy()
    model = ScalarModel(det_spec, vocab, params=init)
    assert model.params is init
    train(model, split, cfg)
    assert init.tobytes() == before.tobytes()
    assert not np.array_equal(model.params, init)
    fused = make_endef_model(det_spec, ent_spec, vocab, seed=4)
    held = {name: (enc.params, enc.params.copy()) for name, enc in branches(fused).items()}
    train(fused, split, cfg)
    for name, (array, copy) in held.items():
        assert array.tobytes() == copy.tobytes(), name
        assert not np.array_equal(branches(fused)[name].params, copy), name


def test_alpha_one_beta_zero_matches_baseline_bit_for_bit():
    split, vocab, det_spec, ent_spec, cfg = tiny_setup()
    seed = 5
    cfg = replace(cfg, seed=seed, max_epochs=4)

    baseline = ScalarModel(det_spec, vocab, seed=seed)
    base_result = train(baseline, split, cfg)

    fused = make_endef_model(det_spec, ent_spec, vocab, seed=seed, alpha=1.0, beta=0.0)
    fused_result = train(fused, split, cfg)

    assert np.array_equal(fused.detector.params, baseline.params)
    assert fused_result.history == base_result.history
    assert fused_result.best_epoch == base_result.best_epoch


def test_validation_and_test_never_augmented(monkeypatch):
    split, vocab, det_spec, ent_spec, cfg = tiny_setup()
    train_ids = set(split.train.ids())
    seen = []
    real_augment = aug.augment

    def spy(plan, batch, settings, draws):
        seen.extend(plan.pieces[i].id for i in batch)
        return real_augment(plan, batch, settings, draws)

    monkeypatch.setattr(aug, "augment", spy)
    model = make_endef_model(det_spec, ent_spec, vocab, seed=0)
    result = train(model, split, replace(cfg, augment=AugmentSettings(probability=0.5)))
    evaluate_model(result.model, split.test, cfg.max_len)
    assert seen, "augmentation never ran on the train part"
    assert set(seen) <= train_ids
    assert len(seen) == len(result.history) * len(split.train)


def test_augment_disabled_consumes_no_randomness():
    split, *_ = tiny_setup()
    settings = AugmentSettings(enabled=False, probability=1.0)
    draws = Draws(4)
    _, _, plan = make_plan(split.train)
    for start in range(0, len(split.train), 32):
        stop = min(start + 32, len(split.train))
        out = aug.augment(plan, np.arange(start, stop), settings, draws)
        assert out.keys() == plan.ids.keys()
        for view, (flat, bounds) in out.items():
            # every sample's ids are its planned slice
            planned, planned_bounds = plan.ids[view]
            assert np.array_equal(np.diff(bounds), np.diff(planned_bounds[start : stop + 1]))
            assert np.array_equal(flat, planned[planned_bounds[start] : planned_bounds[stop]])
    # the replayer read no word: its next draws are a fresh Generator's first
    fresh = np.random.default_rng(4)
    assert draws.integers(0, 2) == fresh.integers(2) and draws.random() == fresh.random()


def reference_edits(split, cfg, epochs):
    """(edits, edits that touch an entity span) of a mask-only run, replayed by the per-sample oracle and `Generator`s."""
    records, _, _ = make_plan(split.train, cfg.max_len)
    shuffle_rng, augment_rng = (np.random.default_rng(ss) for ss in np.random.SeedSequence(cfg.seed).spawn(2))
    edits = touched = 0
    for _ in range(epochs):
        for i in shuffle_rng.permutation(len(records)).tolist():
            out = augment_record(records[i], cfg.augment, augment_rng)
            if out is not records[i]:
                edits += 1
                touched += any(a <= t < b for a, b in records[i].spans for t in out.masked)
    return edits, touched


def test_only_an_entity_reader_rescans_an_edit(monkeypatch):
    """A baseline run scans each training piece once, while planning, whether max_len cuts it or not; a fused run
    also rescans each edit that touches a span. The pieces' entities are single words without [MASK], so a mask that
    touches no span leaves the recount as it was."""
    split, vocab, det_spec, ent_spec, cfg = tiny_setup()
    cfg = replace(cfg, max_len=11, augment=AugmentSettings(probability=0.3, actions=("mask",)))
    assert 0 < sum(len(p.tokens) > cfg.max_len for p in split.train) < len(split.train)
    assert all(len(e.split()) == 1 and e != MASK_TOKEN for p in split.train for e in p.entities)
    counts = {"spans": 0}
    real_spans = Gazetteer.spans

    def counting_spans(self, words, bounds=None):
        counts["spans"] += 1
        return real_spans(self, words, bounds)

    monkeypatch.setattr(Gazetteer, "spans", counting_spans)
    train(ScalarModel(det_spec, vocab, seed=0), split, cfg)
    assert counts["spans"] == len(split.train)
    counts.update(spans=0)
    result = train(make_endef_model(det_spec, ent_spec, vocab, seed=0), split, cfg)
    monkeypatch.setattr(Gazetteer, "spans", real_spans)
    edits, touched = reference_edits(split, cfg, len(result.history))
    assert 0 < touched < edits
    assert counts["spans"] == len(split.train) + touched


def reference_train(model, split, cfg):
    """The loop before the per-piece plan: augment each truncated piece, then `piece_loss` encodes the batch."""
    encoders = branches(model)
    opts = {name: AdamState.zeros(enc.num_params) for name, enc in encoders.items()}
    shuffle_rng, augment_rng = (np.random.default_rng(ss) for ss in np.random.SeedSequence(cfg.seed).spawn(2))
    train_pieces = [truncate_piece(p, cfg.max_len) for p in split.train]
    val_labels = labels_of(split.validation)
    n = len(train_pieces)
    best_metric = -math.inf
    best_params = {name: enc.params.copy() for name, enc in encoders.items()}
    bad_epochs = 0
    history = []
    step = 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            batch_idx = order[start : start + cfg.batch_size]
            batch = [reference_augment(train_pieces[i], cfg.augment, augment_rng, set()) for i in batch_idx]
            step += 1
            loss, grads = piece_loss(model, batch, cfg.max_len, cfg.stop_grad_entity_from_overall)
            for name, enc in encoders.items():
                enc.params = adam_step(enc.params, grads[name], opts[name], cfg.lr, step)
            loss_sum += loss * len(batch_idx)
        val_macf1 = f1_scores(PredictionSet(score(model, split.validation, cfg.max_len), val_labels)).macf1
        improved = val_macf1 > best_metric
        history.append({"epoch": epoch, "train_loss": loss_sum / n, "val_macf1": val_macf1, "improved": improved})
        if improved:
            best_metric = val_macf1
            best_params = {name: enc.params.copy() for name, enc in encoders.items()}
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    for name, enc in encoders.items():
        enc.params = best_params[name]
    return history


def oracle_split():
    """A small synthetic split whose train part also holds the pieces that ids derived from the plan must get right.

    - "[MASK] x" is in the text of four pieces, so masking position 0 creates a new match outside every span;
    - the external "q r" becomes contiguous when a drop removes the token between, also after a cut;
    - "ent a" and "ent  a" are two spellings of one token tuple;
    - most pieces are longer than the oracle's max_len of 5.
    """
    split, *_ = tiny_setup(n_train=60)
    extra = [make_piece(f"x-mask{i}", ("y", "x", MASK_TOKEN, "x"), (f"{MASK_TOKEN} x",), i % 2, 1) for i in range(4)]
    extra += [
        make_piece("x-join", ("q", "z", "r", "x"), ("q r",), 0, 2),
        make_piece("x-spell", ("ent", "a", "w", "ent", "a", "y", "z"), ("ent a", "ent  a", "ent a"), 1, 3),
        make_piece("x-join-long", ("x", "q", "z", "r", "y", "y", "x"), ("q r", "x", "x"), 0, 4),
    ]
    return SplitResult(Corpus(tuple(split.train) + tuple(extra), name="train"), split.validation, split.test)


def test_train_matches_reference_loop():
    split = oracle_split()
    assert sum(len(p.tokens) > 5 for p in split.train) > len(split.train) // 2
    vocab = build_vocabulary(split.train, 1)
    det_spec = EncoderSpec(BAG_OF_EMBEDDINGS, embed_dim=6, hidden_dim=8)
    ent_spec = EncoderSpec(BAG_OF_EMBEDDINGS, embed_dim=4, hidden_dim=6)
    models = {
        "fused": lambda: make_endef_model(det_spec, ent_spec, vocab, seed=1),
        "baseline": lambda: ScalarModel(det_spec, vocab, seed=1),
        "entity-only": lambda: ScalarModel(ent_spec, vocab, seed=1, reads="entities"),
    }
    for settings in REFERENCE_SETTINGS:
        for max_len in (5, 170):
            cfg = TrainConfig(lr=2e-2, batch_size=16, max_epochs=2, patience=2, seed=4, max_len=max_len, augment=settings)
            for name, make in models.items():
                if max_len == 170 and name != "fused":
                    continue
                model, reference = make(), make()
                result = train(model, split, cfg)
                history = reference_train(reference, split, cfg)
                assert result.history == history, (name, max_len, settings)
                for branch, enc in branches(model).items():
                    assert enc.params.tobytes() == branches(reference)[branch].params.tobytes(), (name, branch, settings)


def test_validation_is_encoded_once_per_run(monkeypatch):
    # an entity reader cut to 3 tokens: scoring validation pieces afresh would re-truncate and re-encode each every epoch
    split, vocab, det_spec, ent_spec, cfg = tiny_setup()
    read, encodes, scans = [], [], []
    real_words, real_encode, real_spans = framework.input_words, Vocabulary.encode_tokens, Gazetteer.spans

    def reading(encoder, piece, max_len, scanners=None):
        read.append(piece.id)
        return real_words(encoder, piece, max_len, scanners)

    def scanning(self, words, bounds=None):
        scans.append(words)
        return real_spans(self, words, bounds)

    def encoding(self, *args, **kwargs):
        encodes.append(kwargs.get("count"))
        return real_encode(self, *args, **kwargs)

    monkeypatch.setattr(framework, "input_words", reading)
    monkeypatch.setattr(Vocabulary, "encode_tokens", encoding)
    monkeypatch.setattr(Gazetteer, "spans", scanning)
    model = ScalarModel(ent_spec, vocab, seed=0, reads="entities")
    cfg = replace(cfg, max_epochs=3, patience=3, max_len=3, augment=AugmentSettings(enabled=False))
    result = train(model, split, cfg)
    assert len(result.history) == 3
    # the plan scans each training piece once and validation reads each of its pieces once, each part in one
    # encode call
    assert read == [p.id for p in split.validation]
    assert len(scans) == len(split.train) + len(split.validation)
    assert len(encodes) == 2 and None not in encodes


def test_vocabulary_from_train_split_only():
    split, *_ = tiny_setup()
    vocab = build_vocabulary(split.train, min_freq=2)
    val_only = set(t for p in split.validation for t in p.tokens) - set(
        t for p in split.train for t in p.tokens
    )
    for token in list(val_only)[:5]:
        assert token not in vocab


def test_early_stopping_returns_best_checkpoint_not_last():
    split, vocab, det_spec, ent_spec, cfg = tiny_setup()
    cfg = replace(cfg, max_epochs=8, patience=8, lr=2e-2)
    # documents run 8-14 tokens, so at max_len 6 rescoring must recount entities on the cut tokens as training did
    for model, run_cfg in (
        (make_endef_model(det_spec, ent_spec, vocab, seed=2), cfg),
        (ScalarModel(ent_spec, vocab, seed=2, reads="entities"), replace(cfg, max_len=6)),
    ):
        result = train(model, split, run_cfg)
        best_recorded = max(h["val_macf1"] for h in result.history)
        assert result.best_val_macf1 == best_recorded
        rescored = evaluate_model(result.model, split.validation, run_cfg.max_len)
        assert rescored.macf1 == pytest.approx(best_recorded, abs=1e-12)


def test_both_encoder_kinds_train():
    for kind in (BAG_OF_EMBEDDINGS, CONV_NGRAM):
        split, vocab, det_spec, ent_spec, cfg = tiny_setup(det_kind=kind)
        model = make_endef_model(det_spec, ent_spec, vocab, seed=1)
        result = train(model, split, cfg)
        report = evaluate_model(result.model, split.test, cfg.max_len)
        assert 0.0 <= report.macf1 <= 1.0
        assert len(result.history) >= 1


def test_baseline_sanity_floor_on_unbiased_corpus():
    spec = unbiased_spec(seed=7, n_train=800, n_val=160, n_test=160)
    corpus, _ = generate(spec)
    split = split_for(spec, corpus, seed=spec.seed)
    vocab = build_vocabulary(split.train, 2)
    cfg = default_train_config(seed=0)
    model = ScalarModel(default_detector_spec(), vocab, seed=0)
    train(model, split, cfg)
    report = evaluate_model(model, split.test, cfg.max_len)
    assert report.macf1 > 0.8


def test_baseline_underperforms_its_unbiased_self_on_flipped_corpus():
    cfg = default_train_config(seed=0)
    det_spec = default_detector_spec()

    def run(spec):
        corpus, _ = generate(spec)
        split = split_for(spec, corpus, seed=spec.seed)
        vocab = build_vocabulary(split.train, 2)
        model = ScalarModel(det_spec, vocab, seed=0)
        train(model, split, cfg)
        return evaluate_model(model, split.test, cfg.max_len)

    unbiased = run(unbiased_spec(seed=7, n_train=800, n_val=160, n_test=160))
    flipped = run(flipped_bias_spec(seed=7, n_train=800, n_val=160, n_test=160))
    assert flipped.macf1 < unbiased.macf1


def test_entity_only_classifier_saturates_on_perfect_correlation():
    spec = replace(
        flipped_bias_spec(seed=5, n_train=400, n_val=80, n_test=80),
        train_corr=(0.0, 1.0) * 6,
    )
    probe = run_entity_only_probe(spec, default_entity_spec(), default_train_config(), seed=0)
    assert probe["train_acc"] >= 0.99


def test_grid_search_alpha_table_and_tie_breaking():
    split, vocab, det_spec, ent_spec, cfg = tiny_setup()
    # frozen parameters make every alpha tie, so the largest must win
    frozen = replace(cfg, lr=1e-12, max_epochs=1)
    best_alpha, rows = grid_search_alpha(split, frozen, det_spec, ent_spec)
    assert len(rows) == 11
    assert [r["alpha"] for r in rows] == [i / 10 for i in range(11)]
    assert best_alpha == 1.0
    again_alpha, again_rows = grid_search_alpha(split, frozen, det_spec, ent_spec)
    assert again_alpha == best_alpha and again_rows == rows


def test_history_rows_are_json_serializable():
    split, vocab, det_spec, ent_spec, cfg = tiny_setup()
    model = make_endef_model(det_spec, ent_spec, vocab, seed=0)
    result = train(model, split, cfg)
    for row in result.history:
        encoded = json.loads(json.dumps(row))
        assert set(encoded) == {"epoch", "train_loss", "val_macf1", "improved"}
