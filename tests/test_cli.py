import base64
import json
import math
import re
from dataclasses import replace

import pytest

from endef.cli import _TRAIN_OVERRIDES, build_parser, main
from endef.corpus import Corpus, entity_bias_table, export_bias_table, load_corpus, save_corpus
from endef.framework import case_report, load_checkpoint, make_endef_model, save_checkpoint
from endef.models import BAG_OF_EMBEDDINGS, CONV_NGRAM, EncoderSpec, ModelError
from endef.synthetic import BiasSpec, generate
from endef.training import TrainConfig
from endef.vocab import SPECIAL_TOKENS, Vocabulary

from conftest import make_piece


def bias_spec_payload(**overrides):
    payload = {
        "n_entities": 6,
        "vocab_size": 60,
        "n_train": 120,
        "n_val": 30,
        "n_test": 30,
        "train_corr": [0.05, 0.95] * 3,
        "test_corr": [0.7, 0.3] * 3,
        "content_signal_strength": 0.3,
        "min_tokens": 8,
        "max_tokens": 14,
        "seed": 21,
    }
    payload.update(overrides)
    return payload


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(bias_spec_payload()), encoding="utf-8")
    return path


def run_cli(*args):
    return main([str(a) for a in args])


def test_unknown_subcommand_exits_2(capsys):
    assert run_cli("frobnicate") == 2
    capsys.readouterr()


def test_missing_required_flag_exits_2(capsys):
    assert run_cli("synthesize") == 2
    capsys.readouterr()


def test_module_error_exits_1(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    assert run_cli("split", "--corpus", missing, "--out-dir", tmp_path / "out") == 1
    assert "error:" in capsys.readouterr().err


def test_synthesize_writes_corpus_ledger_spec_provenance(spec_file, tmp_path, capsys):
    out = tmp_path / "synth"
    assert run_cli("synthesize", "--spec", spec_file, "--out-dir", out) == 0
    capsys.readouterr()
    for name in ("corpus.jsonl", "ledger.tsv", "bias_spec.json", "provenance.json"):
        assert (out / name).exists()
    corpus = load_corpus(out / "corpus.jsonl")
    assert len(corpus) == 180
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["command"] == "synthesize"
    assert prov["seed"] == 21
    assert "endef" in prov["versions"]


@pytest.mark.parametrize(
    "payload, message",
    [
        ([], "bias_spec must be a JSON object, got list"),
        (bias_spec_payload(n_entity=6), "bias_spec has unknown field 'n_entity'"),
        (bias_spec_payload(seed="21"), "bias_spec.seed must be an integer, got '21'"),
        (bias_spec_payload(train_corr="x"), "train_corr must be a number, got 'x'"),
        (bias_spec_payload(test_corr=True), "test_corr must be a number, got True"),
        (bias_spec_payload(train_corr=[0.5] * 5 + [True]), "train_corr[5] must be a number, got True"),
    ],
    ids=["not-an-object", "unknown-field", "wrong-type", "corr-string", "corr-bool", "corr-list-bool"],
)
def test_synthesize_rejects_malformed_spec(tmp_path, capsys, payload, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "synth"
    assert run_cli("synthesize", "--spec", spec, "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_cli_is_thin_shell_over_library(spec_file, tmp_path, capsys):
    # bias-report output must equal calling the module operations directly
    out = tmp_path / "synth"
    run_cli("synthesize", "--spec", spec_file, "--out-dir", out)
    report_dir = tmp_path / "bias"
    assert run_cli(
        "bias-report", "--corpus", out / "corpus.jsonl", "--boundary", 1_000_000, "--out-dir", report_dir
    ) == 0
    capsys.readouterr()
    spec = BiasSpec(**bias_spec_payload())
    corpus, _ = generate(spec)
    rows = entity_bias_table(corpus, 1_000_000)
    direct = tmp_path / "direct.tsv"
    export_bias_table(rows, direct)
    assert (report_dir / "bias_table.tsv").read_bytes() == direct.read_bytes()


def test_split_command(spec_file, tmp_path, capsys):
    out = tmp_path / "synth"
    run_cli("synthesize", "--spec", spec_file, "--out-dir", out)
    split_dir = tmp_path / "split"
    code = run_cli(
        "split",
        "--corpus",
        out / "corpus.jsonl",
        "--train-ratio",
        120 / 180,
        "--val-ratio",
        30 / 180,
        "--seed",
        3,
        "--out-dir",
        split_dir,
    )
    assert code == 0
    capsys.readouterr()
    assert len(load_corpus(split_dir / "train.jsonl")) == 120
    assert len(load_corpus(split_dir / "val.jsonl")) == 30
    assert len(load_corpus(split_dir / "test.jsonl")) == 30


def test_recognize_command(tmp_path, capsys):
    corpus_path = tmp_path / "raw.jsonl"
    with corpus_path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "a", "tokens": ["Donald", "Trump", "spoke"], "label": 0, "timestamp": 1}) + "\n")
    gaz_path = tmp_path / "gaz.tsv"
    gaz_path.write_text("Donald Trump\tPERSON\n", encoding="utf-8")
    out = tmp_path / "rec"
    assert run_cli("recognize", "--corpus", corpus_path, "--gazetteer", gaz_path, "--out-dir", out) == 0
    capsys.readouterr()
    recognized = load_corpus(out / "recognized.jsonl")
    assert recognized.pieces[0].entities == ("Donald Trump",)


def test_evaluate_perfect_predictions_gives_all_ones(tmp_path, capsys):
    pred_path = tmp_path / "preds.jsonl"
    with pred_path.open("w", encoding="utf-8") as fh:
        for score, label in ((0.99, 1), (0.98, 1), (0.01, 0), (0.02, 0)):
            fh.write(json.dumps({"score": score, "label": label}) + "\n")
    out = tmp_path / "eval"
    assert run_cli("evaluate", "--predictions", pred_path, "--out-dir", out) == 0
    shown = capsys.readouterr().out
    assert shown.splitlines()[-1].split() == ["1.0000"] * 6
    report = json.loads((out / "report.json").read_text())
    assert report["macf1"] == 1.0 and report["spauc"] == 1.0
    table = (out / "report.txt").read_text().splitlines()
    assert table[0].split() == ["macF1", "Acc", "AUC", "spAUC", "F1_real", "F1_fake"]


@pytest.mark.parametrize(
    "field, value, problem",
    [
        ("label", 0.7, "field 'label' must be the integer 0 or 1, got 0.7"),
        ("label", 1.0, "field 'label' must be the integer 0 or 1, got 1.0"),
        ("label", True, "field 'label' must be the integer 0 or 1, got True"),
        ("label", "0", "field 'label' must be the integer 0 or 1, got '0'"),
        ("label", 2, "field 'label' must be the integer 0 or 1, got 2"),
        ("score", "0.8", "field 'score' must be a number, got '0.8'"),
        ("score", True, "field 'score' must be a number, got True"),
        ("score", None, "field 'score' must be a number, got None"),
    ],
)
def test_evaluate_refuses_a_prediction_label_or_score_of_the_wrong_type(tmp_path, capsys, field, value, problem):
    pred_path = tmp_path / "preds.jsonl"
    rows = [{"score": 0.9, "label": 1}, {"score": 0.1, "label": 0}, {"score": 0.8, "label": 1}]
    rows[2][field] = value  # line 3
    pred_path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    out = tmp_path / "eval"
    assert run_cli("evaluate", "--predictions", pred_path, "--out-dir", out) == 1
    assert capsys.readouterr().err == f"error: {pred_path}: line 3: {problem}\n"
    assert not out.exists()


@pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf, -0.1, 1.5])
def test_evaluate_refuses_a_score_outside_zero_one_at_its_line(tmp_path, capsys, score):
    pred_path = tmp_path / "preds.jsonl"
    rows = [{"score": 0.9, "label": 1}, {"score": score, "label": 0}, {"score": 0.8, "label": 1}]
    pred_path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    assert run_cli("evaluate", "--predictions", pred_path, "--out-dir", tmp_path / "eval") == 1
    problem = f"field 'score' must be a finite number within [0, 1], got {score!r}"
    assert capsys.readouterr().err == f"error: {pred_path}: line 2: {problem}\n"
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize(
    "text, problem",
    [
        ("", "holds no prediction record"),
        ("\n", "holds no prediction record"),
        ('{"score": 0.9, "label": 1}\n{"score": 0.2, "label": 1}\n', "every label is 1"),
    ],
)
def test_evaluate_names_the_file_of_an_empty_or_single_class_prediction_set(tmp_path, capsys, text, problem):
    pred_path = tmp_path / "preds.jsonl"
    pred_path.write_text(text, encoding="utf-8")
    assert run_cli("evaluate", "--predictions", pred_path, "--out-dir", tmp_path / "eval") == 1
    assert capsys.readouterr().err == f"error: {pred_path}: {problem}\n"


def test_evaluate_refuses_a_prediction_record_without_a_field(tmp_path, capsys):
    pred_path = tmp_path / "preds.jsonl"
    pred_path.write_text('{"score": 0.9, "label": 1}\n{"score": 0.1}\n', encoding="utf-8")
    assert run_cli("evaluate", "--predictions", pred_path, "--out-dir", tmp_path / "eval") == 1
    assert f"{pred_path}: line 2: prediction record is missing field 'label'" in capsys.readouterr().err
    pred_path.write_text('{"score": 0.9, "label": 1}\n[0.2, 0]\n', encoding="utf-8")
    assert run_cli("evaluate", "--predictions", pred_path, "--out-dir", tmp_path / "eval") == 1
    assert f"{pred_path}: line 2: prediction record must be a JSON object, got list" in capsys.readouterr().err


def test_evaluate_requires_inputs(tmp_path, capsys):
    assert run_cli("evaluate", "--out-dir", tmp_path / "x") == 1
    capsys.readouterr()


def _write_config(path, max_epochs=2):
    payload = {
        "detector": {"kind": "bag_of_embeddings_mlp", "embed_dim": 8, "hidden_dim": 12},
        "entity_model": {"kind": "bag_of_embeddings_mlp", "embed_dim": 6, "hidden_dim": 8},
        "train": {"lr": 5e-3, "batch_size": 32, "max_epochs": max_epochs, "patience": 2, "seed": 0},
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def prepare_split_dir(tmp_path, spec_file):
    out = tmp_path / "synth"
    run_cli("synthesize", "--spec", spec_file, "--out-dir", out)
    split_dir = tmp_path / "split"
    run_cli(
        "split",
        "--corpus", out / "corpus.jsonl",
        "--train-ratio", 120 / 180,
        "--val-ratio", 30 / 180,
        "--seed", 3,
        "--out-dir", split_dir,
    )
    return split_dir


@pytest.fixture(scope="module")
def shared_split_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("shared")
    spec = tmp / "spec.json"
    spec.write_text(json.dumps(bias_spec_payload()), encoding="utf-8")
    return prepare_split_dir(tmp, spec)


@pytest.mark.parametrize(
    "payload, message",
    [
        ([], "config must be a JSON object, got list"),
        ({"detecter": {"kind": BAG_OF_EMBEDDINGS}}, "config has unknown field 'detecter'"),
        ({"entity_model": {"kind": BAG_OF_EMBEDDINGS, "embed_dims": 4}}, "config.entity_model has unknown field 'embed_dims'"),
        ({"detector": {"embed_dim": 8, "hidden_dim": 12}}, "config.detector is missing field 'kind'"),
        ({"train": {"lrr": 0.01}}, "config.train has unknown field 'lrr'"),
        ({"train": {"augment": {"prob": 0.2}}}, "config.train.augment has unknown field 'prob'"),
        ({"inference": {"scale_by_alpha": "false"}}, "config.inference.scale_by_alpha must be true or false"),
        ({"detector": {"kind": BAG_OF_EMBEDDINGS, "embed_dim": "8"}}, "config.detector.embed_dim must be an integer"),
        ({"train": {"lr": True}}, "config.train.lr must be a number, got True"),
        ({"train": {"alpha": 1.5}}, "alpha must lie in [0, 1]"),
        ({"train": {"beta": -0.5}}, "beta must be non-negative"),
        ({"detector": {"kind": CONV_NGRAM, "window_sizes": 3}}, "window_sizes must be a list of integers, got 3"),
        ({"detector": {"kind": CONV_NGRAM, "window_sizes": [2.7, 1]}}, "window_sizes[0] must be an integer, got 2.7"),
        ({"detector": {"kind": CONV_NGRAM, "window_sizes": ["2"]}}, "window_sizes[0] must be an integer, got '2'"),
        ({"detector": {"kind": CONV_NGRAM, "window_sizes": [1, True]}}, "window_sizes[1] must be an integer, got True"),
    ],
    ids=[
        "not-an-object",
        "section",
        "encoder-field",
        "encoder-kind",
        "train-field",
        "augment-field",
        "scale-by-alpha",
        "encoder-type",
        "train-type",
        "train-alpha",
        "train-beta",
        "window-sizes-scalar",
        "window-sizes-float",
        "window-sizes-string",
        "window-sizes-bool",
    ],
)
def test_train_rejects_malformed_config(shared_split_dir, tmp_path, capsys, payload, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    run_dir = tmp_path / "run"
    code = run_cli(
        "train",
        "--train", shared_split_dir / "train.jsonl",
        "--val", shared_split_dir / "val.jsonl",
        "--config", config,
        "--max-epochs", 1,
        "--out-dir", run_dir,
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert not run_dir.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--alpha", 1.5, "alpha must lie in [0, 1]"),
        ("--alpha", -0.1, "alpha must lie in [0, 1]"),
        ("--beta", -1, "beta must be non-negative"),
        ("--beta", "nan", "beta must be non-negative"),
        ("--lr", "nan", "lr must be positive"),
    ],
)
def test_train_rejects_out_of_range_hyperparameter_flags_before_any_output(
    shared_split_dir, tmp_path, capsys, flag, value, message
):
    # the flag fails before any corpus loads or any directory is made
    run_dir = tmp_path / "run"
    code = run_cli(
        "train",
        "--train", shared_split_dir / "train.jsonl",
        "--val", shared_split_dir / "val.jsonl",
        flag, value,
        "--out-dir", run_dir,
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert not run_dir.exists()


def test_training_flags_are_typed_as_the_config_fields_they_override(capsys):
    values = {"lr": "0.25", "batch_size": "3", "max_epochs": "4", "patience": "2", "seed": "5", "alpha": "0.5",
              "beta": "0.1", "max_len": "6"}
    common = ("--train", "t.jsonl", "--val", "v.jsonl", "--out-dir", "o")
    for command, keys in (("train", _TRAIN_OVERRIDES), ("grid-alpha", _TRAIN_OVERRIDES[:5] + ("beta",))):
        flags = [str(a) for key in keys for a in (f"--{key.replace('_', '-')}", values[key])]
        args = build_parser().parse_args([command, *common, *flags])
        for key in keys:
            expected = type(getattr(TrainConfig(), key))(values[key])
            assert getattr(args, key) == expected and type(getattr(args, key)) is type(expected), (command, key)
    # grid-alpha searches alpha itself, and it offers no --max-len flag
    for flag in ("--alpha", "--max-len"):
        assert run_cli("grid-alpha", *common, flag, "1") == 2
    # an integer field refuses a fractional value
    assert run_cli("train", *common, "--batch-size", "2.5") == 2
    capsys.readouterr()


def test_augment_flags_match_the_config_fields_they_set(shared_split_dir, tmp_path, capsys):
    base = json.loads(_write_config(tmp_path / "config.json", max_epochs=1).read_text(encoding="utf-8"))
    base["train"]["augment"] = {"apply_probability": 0.7}
    cases = (
        (("--augment-p", 0.3), {"probability": 0.3}),
        (("--no-augment",), {"enabled": False}),
        (("--augment-p", 0.3, "--no-augment"), {"probability": 0.3, "enabled": False}),
    )
    for i, (flags, fields) in enumerate(cases):
        # each flag run must equal a run whose config sets the same augment fields
        configured = json.loads(json.dumps(base))
        configured["train"]["augment"].update(fields)
        runs = {}
        for how, payload, extra in (("flags", base, flags), ("config", configured, ())):
            config = tmp_path / f"config-{i}-{how}.json"
            config.write_text(json.dumps(payload), encoding="utf-8")
            runs[how] = tmp_path / f"run-{i}-{how}"
            assert run_cli(
                "train",
                "--train", shared_split_dir / "train.jsonl",
                "--val", shared_split_dir / "val.jsonl",
                "--config", config,
                *extra,
                "--out-dir", runs[how],
            ) == 0
            capsys.readouterr()
        prov = {how: json.loads((d / "provenance.json").read_text())["config"] for how, d in runs.items()}
        assert prov["flags"] == prov["config"]
        assert prov["flags"]["train"]["augment"]["apply_probability"] == 0.7
        assert all(prov["flags"]["train"]["augment"][k] == v for k, v in fields.items())
        assert (runs["flags"] / "checkpoint.json").read_bytes() == (runs["config"] / "checkpoint.json").read_bytes()


def test_train_evaluate_case_report_end_to_end(spec_file, tmp_path, capsys):
    split_dir = prepare_split_dir(tmp_path, spec_file)
    config = _write_config(tmp_path / "config.json")
    run_dir = tmp_path / "run"
    code = run_cli(
        "train",
        "--train", split_dir / "train.jsonl",
        "--val", split_dir / "val.jsonl",
        "--test", split_dir / "test.jsonl",
        "--config", config,
        "--mode", "endef",
        "--out-dir", run_dir,
    )
    assert code == 0
    capsys.readouterr()
    assert (run_dir / "checkpoint.json").exists()
    history = [json.loads(line) for line in (run_dir / "history.jsonl").read_text().splitlines()]
    assert history and history[0]["epoch"] == 1
    assert (run_dir / "report.json").exists()

    eval_dir = tmp_path / "eval"
    code = run_cli(
        "evaluate",
        "--checkpoint", run_dir / "checkpoint.json",
        "--corpus", split_dir / "test.jsonl",
        "--out-dir", eval_dir,
    )
    assert code == 0
    capsys.readouterr()
    assert (eval_dir / "report.json").read_bytes() == (run_dir / "report.json").read_bytes()

    case_dir = tmp_path / "cases"
    code = run_cli(
        "case-report",
        "--checkpoint", run_dir / "checkpoint.json",
        "--corpus", split_dir / "test.jsonl",
        "--out-dir", case_dir,
    )
    assert code == 0
    capsys.readouterr()
    rows = [json.loads(line) for line in (case_dir / "cases.jsonl").read_text().splitlines()]
    assert len(rows) == 30
    assert set(rows[0]) == {"id", "p_entity", "p_detector", "p_fused", "p_debiased", "label"}


def test_train_baseline_and_entity_only_modes(spec_file, tmp_path, capsys):
    split_dir = prepare_split_dir(tmp_path, spec_file)
    config = _write_config(tmp_path / "config.json")
    for mode in ("baseline", "entity-only"):
        run_dir = tmp_path / f"run-{mode}"
        code = run_cli(
            "train",
            "--train", split_dir / "train.jsonl",
            "--val", split_dir / "val.jsonl",
            "--test", split_dir / "test.jsonl",
            "--config", config,
            "--mode", mode,
            "--out-dir", run_dir,
        )
        assert code == 0
        capsys.readouterr()
        checkpoint = json.loads((run_dir / "checkpoint.json").read_text())
        assert checkpoint["reads"] == {"baseline": "tokens", "entity-only": "entities"}[mode]
        # the checkpoint alone reproduces the report training wrote, whatever view the encoder reads
        eval_dir = tmp_path / f"eval-{mode}"
        assert run_cli(
            "evaluate",
            "--checkpoint", run_dir / "checkpoint.json",
            "--corpus", split_dir / "test.jsonl",
            "--out-dir", eval_dir,
        ) == 0
        capsys.readouterr()
        assert (eval_dir / "report.json").read_bytes() == (run_dir / "report.json").read_bytes()


def test_evaluate_and_case_report_score_with_the_checkpoint_settings(spec_file, tmp_path, capsys):
    split_dir = prepare_split_dir(tmp_path, spec_file)
    config = _write_config(tmp_path / "config.json")
    payload = json.loads(config.read_text(encoding="utf-8"))
    payload["inference"] = {"scale_by_alpha": True}
    config.write_text(json.dumps(payload), encoding="utf-8")
    test_part = split_dir / "test.jsonl"
    for mode in ("endef", "baseline", "entity-only"):
        run_dir = tmp_path / f"run-{mode}"
        assert run_cli(
            "train",
            "--train", split_dir / "train.jsonl",
            "--val", split_dir / "val.jsonl",
            "--test", test_part,
            "--config", config,
            "--mode", mode,
            "--max-len", 5,
            "--out-dir", run_dir,
        ) == 0
        capsys.readouterr()
        checkpoint = json.loads((run_dir / "checkpoint.json").read_text())
        assert checkpoint["inference"] == {"max_len": 5, "scale_by_alpha": True}
        # documents run 8-14 tokens, so scoring at the default max_len would give another report
        eval_dir = tmp_path / f"eval-{mode}"
        assert run_cli(
            "evaluate", "--checkpoint", run_dir / "checkpoint.json", "--corpus", test_part, "--out-dir", eval_dir
        ) == 0
        capsys.readouterr()
        assert (eval_dir / "report.json").read_bytes() == (run_dir / "report.json").read_bytes()
    # case-report takes max_len and alpha scaling from the checkpoint too
    run_dir = tmp_path / "run-endef"
    case_dir = tmp_path / "cases"
    assert run_cli(
        "case-report", "--checkpoint", run_dir / "checkpoint.json", "--corpus", test_part, "--out-dir", case_dir
    ) == 0
    capsys.readouterr()
    rows = [json.loads(line) for line in (case_dir / "cases.jsonl").read_text().splitlines()]
    model = load_checkpoint(run_dir / "checkpoint.json").model
    assert rows == case_report(model, load_corpus(test_part), 5, scale_by_alpha=True)


MISSING = object()


def test_malformed_checkpoint_fails_at_the_boundary(tmp_path, capsys):
    spec = EncoderSpec(BAG_OF_EMBEDDINGS, embed_dim=2, hidden_dim=3)
    model = make_endef_model(spec, spec, Vocabulary(SPECIAL_TOKENS + ("a", "b")))
    good = tmp_path / "good.json"
    save_checkpoint(model, good)
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(Corpus((make_piece("p0", ("a", "b"), ("a",), 1, 0),)), corpus)
    n = model.detector.num_params
    one_short = base64.b64encode(bytes(8 * (n - 1))).decode()
    cases = (
        (("detector", "params"), [0.0] * n, "detector encoder: 'params' must be a base64 string"),
        (("entity_model", "params"), 17, "entity_model encoder: 'params' must be a base64 string"),
        (("detector", "params"), "not*base64", "detector encoder: 'params' is not valid base64"),
        (("detector", "params"), "AAAA", "detector encoder: 'params' decodes to 3 bytes"),
        (("detector", "params"), one_short, f"detector encoder: 'params' must hold {n} values"),
        (("format_version",), 3, "unsupported checkpoint format_version 3"),
        (("format_version",), 1, "unsupported checkpoint format_version 1"),
        (("detector", "reads"), MISSING, "detector encoder: scalar_model is missing field 'reads'"),
        (("inference",), MISSING, "checkpoint is missing field 'inference'"),
        (("inference", "max_len"), MISSING, "checkpoint inference is missing field 'max_len'"),
        (("inference", "max_len"), "5", "checkpoint inference max_len must be a positive integer"),
        (("inference", "scale_by_alpha"), "yes", "checkpoint inference scale_by_alpha must be true or false"),
        (("inference",), [], "checkpoint inference must be a JSON object, got list"),
        (("detector",), [], "detector encoder: scalar_model must be a JSON object, got list"),
        (("detector", "spec"), MISSING, "detector encoder: scalar_model is missing field 'spec'"),
        (("detector", "params"), MISSING, "detector encoder: scalar_model is missing field 'params'"),
        (("detector", "vocab"), MISSING, "detector encoder: scalar_model is missing field 'vocab'"),
        (("entity_model", "spec", "kind"), MISSING, "entity_model encoder: spec is missing field 'kind'"),
        (("entity_model",), MISSING, "checkpoint is missing field 'entity_model'"),
        (("alpha",), MISSING, "checkpoint is missing field 'alpha'"),
        (("alpha",), True, "checkpoint.alpha must be a number, got True"),
        (("beta",), "0.2", "checkpoint.beta must be a number, got '0.2'"),
    )
    for i, ((*parents, field), value, message) in enumerate(cases):
        payload = json.loads(good.read_text(encoding="utf-8"))
        target = payload
        for key in parents:
            target = target[key]
        if value is MISSING:
            del target[field]
        else:
            target[field] = value
        path = tmp_path / f"bad-{i}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelError, match=re.escape(message)):
            load_checkpoint(path)
        out_dir = tmp_path / f"eval-{i}"
        assert run_cli("evaluate", "--checkpoint", path, "--corpus", corpus, "--out-dir", out_dir) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


def test_train_rejects_runs_below_one(spec_file, tmp_path, capsys):
    split_dir = prepare_split_dir(tmp_path, spec_file)
    capsys.readouterr()
    for runs in (0, -1):
        run_dir = tmp_path / f"runs{runs}"
        code = run_cli(
            "train",
            "--train", split_dir / "train.jsonl",
            "--val", split_dir / "val.jsonl",
            "--runs", runs,
            "--out-dir", run_dir,
        )
        assert code == 1
        assert "--runs must be at least 1" in capsys.readouterr().err
        assert not run_dir.exists()


def test_train_multi_runs_aggregate(spec_file, tmp_path, capsys):
    split_dir = prepare_split_dir(tmp_path, spec_file)
    config = _write_config(tmp_path / "config.json", max_epochs=1)
    run_dir = tmp_path / "runs"
    code = run_cli(
        "train",
        "--train", split_dir / "train.jsonl",
        "--val", split_dir / "val.jsonl",
        "--test", split_dir / "test.jsonl",
        "--config", config,
        "--runs", 2,
        "--out-dir", run_dir,
    )
    assert code == 0
    capsys.readouterr()
    agg = json.loads((run_dir / "aggregate.json").read_text())
    assert "macf1" in agg and "mean" in agg["macf1"] and "std" in agg["macf1"]
    assert (run_dir / "run-00" / "checkpoint.json").exists()
    assert (run_dir / "run-01" / "checkpoint.json").exists()


def test_cli_flag_overrides_config(spec_file, tmp_path, capsys):
    split_dir = prepare_split_dir(tmp_path, spec_file)
    config = _write_config(tmp_path / "config.json", max_epochs=5)
    run_dir = tmp_path / "run"
    code = run_cli(
        "train",
        "--train", split_dir / "train.jsonl",
        "--val", split_dir / "val.jsonl",
        "--config", config,
        "--max-epochs", 1,
        "--out-dir", run_dir,
    )
    assert code == 0
    capsys.readouterr()
    history = (run_dir / "history.jsonl").read_text().splitlines()
    assert len(history) == 1
    prov = json.loads((run_dir / "provenance.json").read_text())
    assert prov["config"]["train"]["max_epochs"] == 1


def test_grid_alpha_command(spec_file, tmp_path, capsys):
    split_dir = prepare_split_dir(tmp_path, spec_file)
    config = _write_config(tmp_path / "config.json", max_epochs=1)
    out = tmp_path / "grid"
    code = run_cli(
        "grid-alpha",
        "--train", split_dir / "train.jsonl",
        "--val", split_dir / "val.jsonl",
        "--config", config,
        "--lr", 1e-12,
        "--out-dir", out,
    )
    assert code == 0
    capsys.readouterr()
    lines = (out / "alpha_grid.tsv").read_text().splitlines()
    assert lines[0] == "alpha\tval_macf1\tbest_epoch"
    assert len(lines) == 12
    best = json.loads((out / "best_alpha.json").read_text())
    assert best["alpha"] == 1.0


@pytest.fixture(scope="module")
def unrecognized_split_dir(shared_split_dir, tmp_path_factory):
    """The shared split with every piece's entities removed, as a corpus loads before `endef recognize`."""
    out = tmp_path_factory.mktemp("unrecognized")
    for part in ("train", "val", "test"):
        corpus = load_corpus(shared_split_dir / f"{part}.jsonl")
        pieces = (replace(p, entities=(), needs_recognition=True) for p in corpus)
        save_corpus(Corpus(tuple(pieces), name=corpus.name), out / f"{part}.jsonl")
    return out


NO_ENTITIES = "has no recognized entities; run recognition first"
SINGLE_ENCODER = "case-report needs a fused endef_model checkpoint"


# (mode, command, error on recognized pieces, error on unrecognized pieces); None: the command runs
MODE_COMMAND_CELLS = [
    ("endef", "train", None, NO_ENTITIES),
    ("baseline", "train", None, None),
    ("entity-only", "train", None, NO_ENTITIES),
    ("endef", "evaluate", None, None),
    ("baseline", "evaluate", None, None),
    ("entity-only", "evaluate", None, NO_ENTITIES),
    ("endef", "case-report", None, NO_ENTITIES),
    ("baseline", "case-report", SINGLE_ENCODER, SINGLE_ENCODER),
    ("entity-only", "case-report", SINGLE_ENCODER, SINGLE_ENCODER),
    ("endef", "grid-alpha", None, NO_ENTITIES),
]


@pytest.mark.parametrize(
    "mode, command, recognized_error, unrecognized_error",
    MODE_COMMAND_CELLS,
    ids=[f"{mode}-{command}" for mode, command, *_ in MODE_COMMAND_CELLS],
)
def test_every_mode_and_command_on_recognized_and_unrecognized_pieces(
    shared_split_dir, unrecognized_split_dir, tmp_path, capsys, mode, command, recognized_error, unrecognized_error
):
    """Each cell writes its artifacts, or exits 1 with an `error:` line naming the problem; an entity reader needs recognized pieces."""
    config = _write_config(tmp_path / "config.json", max_epochs=1)
    checkpoint = tmp_path / "trained" / "checkpoint.json"
    if command in ("evaluate", "case-report"):
        assert run_cli(
            "train",
            "--train", shared_split_dir / "train.jsonl",
            "--val", shared_split_dir / "val.jsonl",
            "--config", config,
            "--mode", mode,
            "--out-dir", checkpoint.parent,
        ) == 0
        capsys.readouterr()
    artifacts = {
        "train": ["checkpoint.json", "history.jsonl", "provenance.json"],
        "evaluate": ["report.json", "report.txt", "provenance.json"],
        "case-report": ["cases.jsonl", "provenance.json"],
        "grid-alpha": ["alpha_grid.tsv", "best_alpha.json", "provenance.json"],
    }[command]
    for split_dir, error in ((shared_split_dir, recognized_error), (unrecognized_split_dir, unrecognized_error)):
        out = tmp_path / f"{split_dir.name}-{command}"
        if command in ("train", "grid-alpha"):
            args = ["--train", split_dir / "train.jsonl", "--val", split_dir / "val.jsonl", "--config", config]
            args += ["--mode", mode] if command == "train" else []
        else:
            args = ["--checkpoint", checkpoint, "--corpus", split_dir / "test.jsonl"]
        code = run_cli(command, *args, "--out-dir", out)
        err = capsys.readouterr().err
        if error is None:
            assert code == 0, err
            assert all((out / name).is_file() for name in artifacts)
        else:
            assert code == 1
            assert err.startswith("error:") and error in err and "Traceback" not in err, err



@pytest.mark.parametrize(
    "command, error",
    [
        ("synthesize", "infeasible spec: entity 'ent_00' drew no samples in period 'pre'"),
        ("train", NO_ENTITIES),
        ("train-runs", NO_ENTITIES),
    ],
    ids=["synthesize", "train", "train-runs"],
)
def test_failed_command_leaves_no_out_dir(unrecognized_split_dir, tmp_path, capsys, command, error):
    out = tmp_path / "out" / "nested"
    if command == "synthesize":
        spec = tmp_path / "infeasible.json"
        spec.write_text(json.dumps({"n_entities": 12, "n_train": 2, "n_val": 1, "n_test": 1, "seed": 1}))
        args = ["synthesize", "--spec", spec]
    else:
        args = ["train", "--train", unrecognized_split_dir / "train.jsonl", "--val", unrecognized_split_dir / "val.jsonl"]
        args += ["--max-epochs", 1] + (["--runs", 2] if command == "train-runs" else [])
    code = run_cli(*args, "--out-dir", out)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and error in err, err
    assert not (tmp_path / "out").exists()

def test_case_report_on_single_encoder_checkpoint_fails_cleanly(spec_file, tmp_path, capsys):
    split_dir = prepare_split_dir(tmp_path, spec_file)
    config = _write_config(tmp_path / "config.json", max_epochs=1)
    for mode in ("baseline", "entity-only"):
        run_dir = tmp_path / f"run-{mode}"
        assert run_cli(
            "train",
            "--train", split_dir / "train.jsonl",
            "--val", split_dir / "val.jsonl",
            "--config", config,
            "--mode", mode,
            "--out-dir", run_dir,
        ) == 0
        capsys.readouterr()
        code = run_cli(
            "case-report",
            "--checkpoint", run_dir / "checkpoint.json",
            "--corpus", split_dir / "test.jsonl",
            "--out-dir", tmp_path / f"cases-{mode}",
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "case-report needs a fused endef_model checkpoint" in err
        assert "attribute" not in err
