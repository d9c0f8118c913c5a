import base64
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endef.framework import (
    EndefModel,
    branches,
    case_report,
    input_ids,
    load_checkpoint,
    logits,
    loss_total,
    make_endef_model,
    save_checkpoint,
    score,
)
from endef.models import (
    BAG_OF_EMBEDDINGS,
    CONV_NGRAM,
    MAX_SEQ_LEN,
    ModelError,
    ScalarModel,
    binary_cross_entropy,
    sigmoid,
)
from endef.training import evaluate_model

from conftest import (
    dense_grad,
    finite_difference,
    make_piece,
    max_relative_error,
    piece_loss,
    reference_cross_entropy,
    reference_loss_total,
    reference_sigmoid,
    relu_safety_margin,
    tiny_spec,
    tiny_vocab,
)


def small_model(alpha=0.8, beta=0.2, seed=4, det_kind=BAG_OF_EMBEDDINGS, ent_kind=BAG_OF_EMBEDDINGS):
    vocab = tiny_vocab()
    return make_endef_model(tiny_spec(det_kind), tiny_spec(ent_kind), vocab, seed=seed, alpha=alpha, beta=beta)


def sample_batch():
    return [
        make_piece("s1", ("w0", "w1", "w2", "w3"), ("w1",), 1, 4),
        make_piece("s2", ("w4", "w5"), (), 0, 5),
        make_piece("s3", ("w2", "w6", "w7"), ("w6", "w7"), 1, 6),
    ]


def force_logits(model, r_det, r_ent):
    """Zero both branches and set output biases so logits are exact constants."""
    for branch, value in ((model.detector, r_det), (model.entity_model, r_ent)):
        branch.params[:] = 0.0
        branch.layout.view(branch.params, "out_b")[0] = value


def entity_logits(model, pieces):
    return logits(model.entity_model, pieces)


def test_fused_forward_zero_logits_give_half():
    model = small_model()
    force_logits(model, 0.0, 0.0)
    piece = sample_batch()[0]
    assert case_report(model, [piece])[0]["p_fused"] == 0.5
    assert logits(model.detector, [piece]).tolist() == [0.0] and entity_logits(model, [piece]).tolist() == [0.0]


def test_fusion_weights_are_range_checked_and_nan_is_rejected():
    vocab = tiny_vocab()
    spec = tiny_spec(BAG_OF_EMBEDDINGS)
    for weights in ({"beta": math.nan}, {"beta": -0.1}, {"alpha": math.nan}, {"alpha": 1.5}):
        with pytest.raises(ModelError):
            make_endef_model(spec, spec, vocab, **weights)


def test_alpha_one_ignores_entity_branch():
    model = small_model(alpha=1.0)
    force_logits(model, 2.5, -40.0)
    assert case_report(model, sample_batch()[:1])[0]["p_fused"] == reference_sigmoid(2.5)


def test_fused_forward_fixed_values():
    # alpha=0.8, r_det=2.0, r_ent=-1.0 -> sigmoid(1.4)
    model = small_model(alpha=0.8)
    force_logits(model, 2.0, -1.0)
    fused = case_report(model, sample_batch()[:1])[0]["p_fused"]
    expect = 1.0 / (1.0 + math.exp(-(0.8 * 2.0 + 0.2 * -1.0)))
    assert fused == pytest.approx(expect, abs=1e-15)
    assert fused == pytest.approx(0.8022, abs=5e-5)


def test_empty_entity_list_is_well_defined():
    model = small_model()
    piece = make_piece("e", ("w0",), (), 0, 0)
    assert math.isfinite(entity_logits(model, [piece])[0])


def test_loss_overall_values():
    assert binary_cross_entropy(0.5, 1) == pytest.approx(math.log(2))
    assert binary_cross_entropy(1.0 - 1e-15, 1) == pytest.approx(0.0, abs=1e-11)
    assert binary_cross_entropy(0.8022, 0) == pytest.approx(-math.log(1 - 0.8022), abs=1e-12)


def test_loss_entity_values():
    def entity_loss(logit, label):
        return binary_cross_entropy(sigmoid(logit), label)

    assert entity_loss(0.0, 1) == pytest.approx(math.log(2))
    assert entity_loss(-1.0, 0) == pytest.approx(-math.log(1.0 - sigmoid(-1.0)), abs=1e-12)
    assert entity_loss(-1.0, 0) == pytest.approx(0.3133, abs=5e-5)
    # clamping keeps extreme logits finite
    assert math.isfinite(entity_loss(1e6, 0))
    assert math.isfinite(entity_loss(-1e6, 1))


def test_loss_total_beta_zero_equals_overall_alone():
    model = small_model(beta=0.0)
    batch = sample_batch()
    loss, _ = piece_loss(model, batch)
    rows = case_report(model, batch)
    expect = sum(reference_cross_entropy(r["p_fused"], p.label) for r, p in zip(rows, batch)) / len(batch)
    assert loss == pytest.approx(expect, abs=1e-15)


def test_loss_total_decomposition_identity():
    batch = sample_batch()
    for beta in (0.05, 0.2, 1.0, 3.0):
        model_b = small_model(beta=beta, seed=12)
        model_0 = small_model(beta=0.0, seed=12)
        lb = piece_loss(model_b, batch)[0]
        l0 = piece_loss(model_0, batch)[0]
        r_ent = entity_logits(model_b, batch)
        mean_entity = sum(reference_cross_entropy(reference_sigmoid(r), p.label) for r, p in zip(r_ent, batch)) / len(batch)
        assert lb - l0 == pytest.approx(beta * mean_entity, abs=1e-12)


def test_loss_total_alpha_one_beta_zero_entity_gradient_is_zero():
    model = small_model(alpha=1.0, beta=0.0)
    _, grads = piece_loss(model, sample_batch()[:1])
    assert np.all(dense_grad(grads["entity"], model.entity_model) == 0.0)
    assert np.any(dense_grad(grads["detector"], model.detector) != 0.0)


def test_loss_total_empty_batch_rejected():
    with pytest.raises(ModelError):
        piece_loss(small_model(), [])


def random_ids(rng, model, n):
    """Random id sequences, 1-6 long, for every branch of a model; out-of-range ids read as [UNK]."""
    return {
        name: [rng.integers(-1, enc.vocab.size + 1, size=int(rng.integers(1, 7))) for _ in range(n)]
        for name, enc in branches(model).items()
    }


def assert_same_loss(model, ids, labels, stop_grad=False):
    loss, grads = loss_total(model, ids, labels, stop_grad)
    ref_loss, ref_grads = reference_loss_total(model, ids, labels, stop_grad)
    assert type(loss) is float and loss == ref_loss
    assert set(grads) == set(ref_grads) == set(branches(model))
    for name, grad in grads.items():
        for got, want in zip(grad, ref_grads[name]):
            assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_loss_total_equals_the_per_sample_loop():
    rng = np.random.default_rng(5)
    vocab = tiny_vocab()
    weights = [(alpha, beta) for alpha in (0.0, 0.8, 1.0, None) for beta in (0.0, 0.2, None)] * 3
    for trial, (alpha, beta) in enumerate(weights):
        det_kind, ent_kind = (str(kind) for kind in rng.choice([BAG_OF_EMBEDDINGS, CONV_NGRAM], size=2))
        alpha = float(rng.uniform()) if alpha is None else alpha
        beta = float(rng.uniform(0.0, 3.0)) if beta is None else beta
        fused = make_endef_model(
            tiny_spec(det_kind, rng), tiny_spec(ent_kind, rng), vocab, seed=trial, alpha=alpha, beta=beta
        )
        single = ScalarModel(tiny_spec(det_kind, rng), vocab, seed=trial, reads=str(rng.choice(["tokens", "entities"])))
        n = int(rng.integers(1, 70))
        labels = rng.integers(0, 2, size=n).tolist()
        for model in (fused, single):
            ids = random_ids(rng, model, n)
            for stop_grad in (False, True):
                assert_same_loss(model, ids, labels, stop_grad)
            # saturated logits: the clamp and the far tails of the sigmoid
            for out_b in (40.0, -40.0, 745.0, -745.0, 1e6):
                for enc in branches(model).values():
                    enc.layout.view(enc.params, "out_b")[0] = out_b * rng.choice([-1.0, 1.0])
                assert_same_loss(model, ids, labels)


def test_loss_total_names_the_first_non_finite_sample():
    vocab = tiny_vocab()
    pieces = sample_batch()
    labels = [p.label for p in pieces]
    for model in (small_model(), small_model(alpha=1.0, beta=0.0), ScalarModel(tiny_spec(BAG_OF_EMBEDDINGS), vocab)):
        # only s3 reads w6, and it reads w6 in both views
        for enc in branches(model).values():
            enc.layout.view(enc.params, "embed")[vocab.encode_tokens(("w6",), 1)[0]] = math.nan
        ids = {name: [input_ids(enc, p, MAX_SEQ_LEN) for p in pieces] for name, enc in branches(model).items()}
        for objective in (loss_total, reference_loss_total):
            with pytest.raises(ModelError, match="^non-finite loss on sample 3 of the batch$"):
                objective(model, ids, labels)


def test_loss_total_gradient_matches_finite_differences_all_kind_pairs():
    batch = sample_batch()
    kind_pairs = [
        (BAG_OF_EMBEDDINGS, BAG_OF_EMBEDDINGS),
        (BAG_OF_EMBEDDINGS, CONV_NGRAM),
        (CONV_NGRAM, BAG_OF_EMBEDDINGS),
        (CONV_NGRAM, CONV_NGRAM),
    ]
    for det_kind, ent_kind in kind_pairs:
        model = None
        for seed in range(31, 131):
            candidate = small_model(seed=seed, det_kind=det_kind, ent_kind=ent_kind)
            margins = []
            for p in batch:
                ids_c = candidate.vocab.encode_tokens(p.tokens, 170)
                ids_e = candidate.vocab.encode_entities(p.entities, 170)
                margins.append(relu_safety_margin(candidate.detector, ids_c))
                margins.append(relu_safety_margin(candidate.entity_model, ids_e))
            if min(margins) > 1e-3:
                model = candidate
                break
        assert model is not None, "no kink-safe random model found"
        _, grads = piece_loss(model, batch)
        for branch_name, branch in (("detector", model.detector), ("entity", model.entity_model)):
            numeric = finite_difference(lambda: piece_loss(model, batch)[0], branch.params)
            assert max_relative_error(dense_grad(grads[branch_name], branch), numeric) < 1e-4, (
                det_kind,
                ent_kind,
                branch_name,
            )
    # a single encoder is the same objective with no entity branch, on either input view
    for kind in (BAG_OF_EMBEDDINGS, CONV_NGRAM):
        for reads in ("tokens", "entities"):
            single = None
            for seed in range(31, 131):
                candidate = ScalarModel(tiny_spec(kind), tiny_vocab(), seed=seed, reads=reads)
                ids = [input_ids(candidate, p, 170) for p in batch]
                if min(relu_safety_margin(candidate, i) for i in ids) > 1e-3:
                    single = candidate
                    break
            assert single is not None, "no kink-safe random model found"
            _, grads = piece_loss(single, batch)
            assert set(grads) == {"detector"}
            numeric = finite_difference(lambda: piece_loss(single, batch)[0], single.params)
            assert max_relative_error(dense_grad(grads["detector"], single), numeric) < 1e-4, (kind, reads)


def test_stop_grad_flag_suppresses_fused_path_into_entity_branch():
    model = small_model(alpha=0.5, beta=0.0, seed=6)
    _, grads = piece_loss(model, sample_batch(), stop_grad_entity_from_overall=True)
    assert np.all(dense_grad(grads["entity"], model.entity_model) == 0.0)
    _, grads_free = piece_loss(model, sample_batch(), stop_grad_entity_from_overall=False)
    assert np.any(dense_grad(grads_free["entity"], model.entity_model) != 0.0)


def test_debiased_predict_detector_only():
    model = small_model()
    force_logits(model, 0.0, 37.0)
    assert score(model, sample_batch()[:1])[0] == 0.5


def test_debiased_predict_independent_of_entity_params():
    model = small_model(seed=19)
    pieces = sample_batch()
    before = list(score(model, pieces))
    rng = np.random.default_rng(0)
    model.entity_model.params = rng.normal(size=model.entity_model.num_params)
    after_random = list(score(model, pieces))
    model.entity_model.params = np.zeros(model.entity_model.num_params)
    after_zero = list(score(model, pieces))
    assert before == after_random == after_zero


def test_score_never_evaluates_the_entity_branch(monkeypatch):
    model = small_model(seed=19)
    pieces = sample_batch()
    expect = score(model, pieces)

    def refuse(ids):
        raise AssertionError("the entity branch was evaluated")

    monkeypatch.setattr(model.entity_model, "forward", refuse)
    monkeypatch.setattr(model.entity_model, "_forward_cache", refuse)
    assert np.array_equal(score(model, pieces), expect)
    assert 0.0 <= evaluate_model(model, pieces).macf1 <= 1.0


def test_debiased_predict_scale_by_alpha_flag():
    model = small_model(alpha=0.8)
    force_logits(model, 2.0, 0.0)
    piece = sample_batch()[0]
    assert score(model, [piece])[0] == reference_sigmoid(2.0)
    assert score(model, [piece], scale_by_alpha=True)[0] == reference_sigmoid(0.8 * 2.0)


def test_biased_predict_consistency():
    model = small_model(seed=23)
    piece = sample_batch()[0]
    case = case_report(model, [piece])[0]
    r_det = logits(model.detector, [piece])[0]
    r_ent = entity_logits(model, [piece])[0]
    refused = reference_sigmoid(model.alpha * r_det + (1 - model.alpha) * r_ent)
    assert abs(case["p_fused"] - refused) <= 1e-15
    assert case["p_detector"] == reference_sigmoid(r_det) and case["p_entity"] == reference_sigmoid(r_ent)
    for value in (case["p_entity"], case["p_detector"], case["p_fused"]):
        assert 0.0 <= value <= 1.0


def test_case_report_scale_by_alpha_matches_score():
    model = small_model(seed=23)
    pieces = sample_batch()
    rows = case_report(model, pieces, scale_by_alpha=True)
    assert [r["p_debiased"] for r in rows] == list(score(model, pieces, scale_by_alpha=True))


def test_case_report_fields():
    model = small_model(seed=2)
    corpus_rows = case_report(model, sample_batch())
    assert [r["id"] for r in corpus_rows] == ["s1", "s2", "s3"]
    for row in corpus_rows:
        assert set(row) == {"id", "p_entity", "p_detector", "p_fused", "p_debiased", "label"}
        assert row["p_debiased"] == row["p_detector"]


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(min_value=0.05, max_value=0.95),
    r_det=st.floats(min_value=-5, max_value=5),
    r_ent=st.floats(min_value=-5, max_value=5),
    bump=st.floats(min_value=1e-3, max_value=2.0),
)
def test_fused_probability_strictly_monotone_in_each_logit(alpha, r_det, r_ent, bump):
    base = sigmoid(alpha * r_det + (1 - alpha) * r_ent)
    up_det = sigmoid(alpha * (r_det + bump) + (1 - alpha) * r_ent)
    up_ent = sigmoid(alpha * r_det + (1 - alpha) * (r_ent + bump))
    assert up_det > base
    assert up_ent > base


def test_debiased_ranking_beats_fused_on_flipped_test_set():
    # on a flipped-bias corpus the fused score still carries the entity
    # branch, which points the wrong way at test time; dropping it must
    # improve the ranking on average over seeds
    from dataclasses import replace

    from endef.experiments import (
        default_detector_spec,
        default_entity_spec,
        default_train_config,
        flipped_bias_spec,
        split_for,
    )
    from endef.metrics import PredictionSet, sp_auc
    from endef.synthetic import generate
    from endef.training import labels_of, train
    from endef.vocab import build_vocabulary

    spec = flipped_bias_spec(seed=7, n_train=800, n_val=160, n_test=160)
    corpus, _ = generate(spec)
    split = split_for(spec, corpus, seed=spec.seed)
    vocab = build_vocabulary(split.train, 2)
    cfg = default_train_config()
    labels = labels_of(split.test)
    diffs = []
    for seed in range(4):
        model = make_endef_model(default_detector_spec(), default_entity_spec(), vocab, seed=seed)
        train(model, split, replace(cfg, seed=seed))
        deb = score(model, split.test)
        fus = np.array([r["p_fused"] for r in case_report(model, split.test)])
        diffs.append(sp_auc(PredictionSet(deb, labels)) - sp_auc(PredictionSet(fus, labels)))
    assert sum(diffs) / len(diffs) > 0.0, diffs


def test_checkpoint_round_trip(tmp_path):
    model = small_model(seed=31, det_kind=CONV_NGRAM)
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    checkpoint = load_checkpoint(path)
    assert (checkpoint.max_len, checkpoint.scale_by_alpha) == (MAX_SEQ_LEN, False)
    loaded = checkpoint.model
    assert isinstance(loaded, EndefModel)
    assert loaded.alpha == model.alpha and loaded.beta == model.beta
    assert np.array_equal(loaded.detector.params, model.detector.params)
    assert np.array_equal(loaded.entity_model.params, model.entity_model.params)
    assert (loaded.detector.reads, loaded.entity_model.reads) == ("tokens", "entities")
    pieces = sample_batch()
    assert np.array_equal(score(loaded, pieces), score(model, pieces))
    assert case_report(loaded, pieces) == case_report(model, pieces)

    for reads in ("tokens", "entities"):
        scalar = ScalarModel(tiny_spec(BAG_OF_EMBEDDINGS), tiny_vocab(), seed=3, reads=reads)
        save_checkpoint(scalar, path)
        again = load_checkpoint(path).model
        assert np.array_equal(again.params, scalar.params)
        assert again.reads == reads


def test_checkpoint_params_round_trip_bit_for_bit_and_writable(tmp_path):
    path = tmp_path / "model.json"
    models = [
        ScalarModel(tiny_spec(kind), tiny_vocab(), seed=7, reads=reads)
        for kind in (BAG_OF_EMBEDDINGS, CONV_NGRAM)
        for reads in ("tokens", "entities")
    ]
    models.append(small_model(seed=8, det_kind=CONV_NGRAM, ent_kind=BAG_OF_EMBEDDINGS))
    for model in models:
        save_checkpoint(model, path, max_len=7, scale_by_alpha=True)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["format_version"] == 2
        assert payload["inference"] == {"max_len": 7, "scale_by_alpha": True}
        checkpoint = load_checkpoint(path)
        assert (checkpoint.max_len, checkpoint.scale_by_alpha) == (7, True)
        for name, encoder in branches(checkpoint.model).items():
            original = branches(model)[name]
            assert encoder.reads == original.reads
            assert encoder.params.tobytes() == original.params.tobytes()
            assert encoder.params.dtype == np.float64 and encoder.params.dtype.isnative
            assert encoder.params.flags.writeable
            encoder.params[0] += 1.0


def test_checkpoint_bytes_equal_the_one_shot_text(tmp_path):
    """The streamed writer gives the bytes of the whole text built at once, with params from `.tobytes()`."""

    def encoder_payload(encoder):
        return {
            "format_version": 2,
            "kind": "scalar_model",
            "reads": encoder.reads,
            "spec": asdict(encoder.spec),
            "vocab": {"tokens": encoder.vocab.tokens},
            "params": base64.b64encode(encoder.params.astype("<f8").tobytes()).decode("ascii"),
        }

    fused = small_model(seed=10, det_kind=CONV_NGRAM)
    single = ScalarModel(tiny_spec(CONV_NGRAM), tiny_vocab(), seed=10, reads="entities")
    payloads = [
        {
            "format_version": 2,
            "kind": "endef_model",
            "alpha": fused.alpha,
            "beta": fused.beta,
            "detector": encoder_payload(fused.detector),
            "entity_model": encoder_payload(fused.entity_model),
        },
        encoder_payload(single),
    ]
    path = tmp_path / "model.json"
    for model, payload in zip((fused, single), payloads):
        save_checkpoint(model, path, max_len=7, scale_by_alpha=True)
        payload["inference"] = {"max_len": 7, "scale_by_alpha": True}
        assert path.read_bytes() == (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def test_format_1_checkpoint_is_refused(tmp_path):
    model = small_model(seed=9, det_kind=CONV_NGRAM)

    def v1_encoder(encoder):
        # format 1 as first written: JSON-list params, no recorded view and no inference settings
        return {
            "format_version": 1,
            "kind": "scalar_model",
            "spec": asdict(encoder.spec),
            "vocab": asdict(encoder.vocab),
            "params": encoder.params.tolist(),
        }

    fused = {
        "format_version": 1,
        "kind": "endef_model",
        "alpha": model.alpha,
        "beta": model.beta,
        "detector": v1_encoder(model.detector),
        "entity_model": v1_encoder(model.entity_model),
    }
    path = tmp_path / "v1.json"
    for payload in (fused, v1_encoder(model.detector)):
        path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
        with pytest.raises(ModelError, match="unsupported checkpoint format_version 1"):
            load_checkpoint(path)
