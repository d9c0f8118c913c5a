import json
from dataclasses import asdict

import pytest

from endef.corpus import entity_bias_table
from endef.payload import from_fields
from endef.synthetic import BiasSpec, SyntheticSpecError, generate


def small_spec(**kwargs):
    base = dict(
        n_entities=8,
        vocab_size=60,
        n_train=300,
        n_val=60,
        n_test=60,
        train_corr=(0.05, 0.95) * 4,
        test_corr=(0.7, 0.3) * 4,
        content_signal_strength=0.3,
        min_tokens=8,
        max_tokens=16,
        seed=13,
    )
    base.update(kwargs)
    return BiasSpec(**base)


def test_spec_validation():
    with pytest.raises(SyntheticSpecError):
        small_spec(train_corr=(0.5,))  # wrong length
    with pytest.raises(SyntheticSpecError):
        small_spec(test_corr=1.5)
    # a correlation is a number or a list of numbers: a bool is not 1.0, nor a string the number it spells
    for corr in ("0.5", True, [0.5] * 7 + [False], {"a": 0.5}):
        with pytest.raises(SyntheticSpecError, match=r"train_corr(\[7\])? must be a number"):
            small_spec(train_corr=corr)
    with pytest.raises(SyntheticSpecError):
        small_spec(content_signal_strength=0.0)
    with pytest.raises(SyntheticSpecError):
        small_spec(n_train=0)
    with pytest.raises(SyntheticSpecError):
        small_spec(min_tokens=9, max_tokens=8)


def test_scalar_correlation_broadcasts():
    spec = small_spec(train_corr=0.5, test_corr=0.5)
    assert spec.train_corr == (0.5,) * 8


def test_generation_deterministic():
    a, ledger_a = generate(small_spec())
    b, ledger_b = generate(small_spec())
    assert a == b
    assert ledger_a == ledger_b
    c, _ = generate(small_spec(seed=14))
    assert c != a


def test_sizes_and_period_timestamps():
    spec = small_spec()
    corpus, _ = generate(spec)
    assert len(corpus) == spec.n_train + spec.n_val + spec.n_test
    pre = [p for p in corpus if p.timestamp < spec.period_boundary]
    post = [p for p in corpus if p.timestamp >= spec.period_boundary]
    assert len(pre) == spec.n_train
    assert len(post) == spec.n_val + spec.n_test
    assert max(p.timestamp for p in pre) < min(p.timestamp for p in post)


def test_entities_are_injected_as_tokens():
    spec = small_spec()
    corpus, _ = generate(spec)
    for piece in corpus:
        assert 1 <= len(piece.entities) <= spec.max_entities_per_piece
        for e in piece.entities:
            assert e in piece.tokens
        assert not piece.needs_recognition


def test_ledger_matches_bias_audit_exactly():
    spec = small_spec()
    corpus, ledger = generate(spec)
    assert entity_bias_table(corpus, spec.period_boundary) == ledger


def test_realized_correlations_near_targets():
    spec = small_spec(n_train=2000, n_val=400, n_test=400, seed=3)
    corpus, ledger = generate(spec)
    by_key = {(r.entity, r.period): r for r in ledger}
    names = spec.entity_names()
    for i, name in enumerate(names):
        pre = by_key[(name, "pre")]
        post = by_key[(name, "post")]
        assert pre.fake_fraction == pytest.approx(spec.train_corr[i], abs=0.06)
        assert post.fake_fraction == pytest.approx(spec.test_corr[i], abs=0.12)


def test_trump_style_flip_is_realized():
    # one entity flips 3% -> 67% fake between periods among neutral peers
    spec = small_spec(
        train_corr=(0.03,) + (0.5,) * 7,
        test_corr=(0.67,) + (0.5,) * 7,
        n_train=3000,
        n_val=600,
        n_test=600,
        seed=4,
    )
    _, ledger = generate(spec)
    by_key = {(r.entity, r.period): r for r in ledger}
    assert by_key[("ent_00", "pre")].fake_fraction == pytest.approx(0.03, abs=0.03)
    assert by_key[("ent_00", "post")].fake_fraction == pytest.approx(0.67, abs=0.08)


def test_no_flip_control_keeps_fractions_stable():
    spec = small_spec(train_corr=0.4, test_corr=0.4, n_train=3000, n_val=600, n_test=600, seed=5)
    _, ledger = generate(spec)
    by_entity = {}
    for row in ledger:
        by_entity.setdefault(row.entity, {})[row.period] = row.fake_fraction
    for fractions in by_entity.values():
        assert fractions["pre"] == pytest.approx(fractions["post"], abs=0.1)


def test_infeasible_spec_raises():
    # 40 entities cannot all appear in 6 post-period samples of <= 3 entities
    spec = small_spec(
        n_entities=40,
        train_corr=0.5,
        test_corr=0.5,
        n_train=200,
        n_val=3,
        n_test=3,
    )
    with pytest.raises(SyntheticSpecError, match="infeasible"):
        generate(spec)


def test_payload_round_trip():
    spec = small_spec()
    assert from_fields(BiasSpec, json.loads(json.dumps(asdict(spec))), "bias_spec", SyntheticSpecError) == spec


def test_content_signal_is_period_stable_and_learnable():
    # a model that never sees entity tokens must still beat chance on the
    # future period, because class-conditional content words do not flip
    from dataclasses import replace as dc_replace

    from endef.corpus import Corpus
    from endef.experiments import (
        default_detector_spec,
        default_train_config,
        flipped_bias_spec,
        split_for,
    )
    from endef.models import ScalarModel
    from endef.training import evaluate_model, train
    from endef.vocab import build_vocabulary

    spec = flipped_bias_spec(seed=7, n_train=600, n_val=120, n_test=120)
    corpus, _ = generate(spec)
    names = set(spec.entity_names())
    stripped = Corpus(
        tuple(
            dc_replace(p, tokens=tuple(t for t in p.tokens if t not in names) or p.tokens[:1], entities=())
            for p in corpus
        ),
        name="content-only",
    )
    split = split_for(spec, stripped, seed=spec.seed)
    vocab = build_vocabulary(split.train, 2)
    cfg = default_train_config(seed=0)
    model = ScalarModel(default_detector_spec(), vocab, seed=0)
    train(model, split, cfg)
    report = evaluate_model(model, split.test, cfg.max_len)
    assert report.acc > 0.6  # strictly above the 0.5 chance level, with margin
