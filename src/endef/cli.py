"""Command-line entry points for the corpus, training, and evaluation workflow.

The CLI is a thin shell over the library: every subcommand parses arguments,
wires module operations together, and writes artifacts plus a provenance
file next to them. Outputs contain no wall-clock state, so a rerun with the
same config and seed is byte-identical.
"""

import argparse
import json
import platform
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import SplitResult, entity_bias_table, export_bias_table, is_label, load_corpus, save_corpus, temporal_split
from .framework import case_report, default_entity_spec, load_checkpoint, make_endef_model, save_checkpoint
from .metrics import PredictionSet, aggregate_reports, evaluate, format_aggregate_table
from .models import BAG_OF_EMBEDDINGS, EncoderSpec, ScalarModel
from .payload import check_type, from_fields, require
from .recognizer import Gazetteer, recognize_corpus
from .synthetic import BiasSpec, generate
from .training import TrainConfig, TrainingError, evaluate_model, grid_search_alpha, train
from .vocab import build_vocabulary


def _write_json(path, obj):
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_provenance(out_dir, command, config, seed):
    _write_json(
        Path(out_dir) / "provenance.json",
        {
            "command": command,
            "config": config,
            "seed": seed,
            "versions": {
                "endef": __version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
        },
    )


def _out_dir(args):
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


@dataclass(frozen=True)
class InferenceSection:
    """How `train` scores its test part; the checkpoint records it for `evaluate` and `case-report`."""

    scale_by_alpha: bool = False


@dataclass(frozen=True)
class TrainSetup:
    """A `--config` file: every section may be left out, and every field given is checked."""

    train: TrainConfig = field(default_factory=TrainConfig)
    detector: EncoderSpec = field(default_factory=lambda: EncoderSpec(kind=BAG_OF_EMBEDDINGS))
    entity_model: EncoderSpec = field(default_factory=default_entity_spec)
    inference: InferenceSection = field(default_factory=InferenceSection)


_TRAIN_OVERRIDES = ("lr", "batch_size", "max_epochs", "patience", "seed", "alpha", "beta", "max_len")


def _resolve_train_setup(args):
    """Precedence: CLI flag > config file > defaults; the file is checked as written, before any flag applies."""
    setup = TrainSetup()
    if args.config is not None:
        setup = from_fields(TrainSetup, json.loads(Path(args.config).read_text(encoding="utf-8")), "config", TrainingError)
    overrides = {key: getattr(args, key) for key in _TRAIN_OVERRIDES if getattr(args, key, None) is not None}
    augment = {}
    if getattr(args, "augment_p", None) is not None:
        augment["probability"] = args.augment_p
    if getattr(args, "no_augment", False):
        augment["enabled"] = False
    return replace(setup, train=replace(setup.train, **overrides, augment=replace(setup.train.augment, **augment)))


def cmd_synthesize(args):
    spec = BiasSpec.from_file(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    corpus, ledger = generate(spec)
    out = _out_dir(args)
    save_corpus(corpus, out / "corpus.jsonl")
    export_bias_table(ledger, out / "ledger.tsv")
    _write_json(out / "bias_spec.json", asdict(spec))
    _write_provenance(out, "synthesize", asdict(spec), spec.seed)
    print(f"wrote {len(corpus)} pieces to {out / 'corpus.jsonl'}")
    return 0


def cmd_split(args):
    corpus = load_corpus(args.corpus)
    result = temporal_split(corpus, args.train_ratio, args.val_ratio, args.seed)
    out = _out_dir(args)
    save_corpus(result.train, out / "train.jsonl")
    save_corpus(result.validation, out / "val.jsonl")
    save_corpus(result.test, out / "test.jsonl")
    config = {"corpus": str(args.corpus), "train_ratio": args.train_ratio, "val_ratio": args.val_ratio}
    _write_provenance(out, "split", config, args.seed)
    print(f"split sizes: train={len(result.train)} val={len(result.validation)} test={len(result.test)}")
    return 0


def cmd_recognize(args):
    corpus = load_corpus(args.corpus)
    gazetteer = Gazetteer.from_file(args.gazetteer, case_sensitive=not args.case_insensitive)
    recognized = recognize_corpus(corpus, gazetteer, dedupe=args.dedupe)
    out = _out_dir(args)
    save_corpus(recognized, out / "recognized.jsonl")
    config = {
        "corpus": str(args.corpus),
        "gazetteer": str(args.gazetteer),
        "case_sensitive": not args.case_insensitive,
        "dedupe": args.dedupe,
    }
    _write_provenance(out, "recognize", config, None)
    print(f"recognized entities for {len(recognized)} pieces")
    return 0


def _write_jsonl(path, rows):
    with Path(path).open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _build_model(mode, cfg, setup, vocab):
    """The untrained model of a training mode."""
    if mode == "endef":
        return make_endef_model(setup.detector, setup.entity_model, vocab, seed=cfg.seed, alpha=cfg.alpha, beta=cfg.beta)
    if mode == "baseline":
        return ScalarModel(setup.detector, vocab, seed=cfg.seed)
    if mode == "entity-only":
        return ScalarModel(setup.entity_model, vocab, seed=cfg.seed, reads="entities")
    raise ValueError(f"unknown training mode {mode!r}")


def _train_single(mode, split, evaluate_test, cfg, setup, out):
    """Train one seeded run; `out` is made once training succeeds. Its test report, or None without a test part."""
    scale_by_alpha = setup.inference.scale_by_alpha
    vocab = build_vocabulary(split.train, cfg.min_token_freq)
    result = train(_build_model(mode, cfg, setup, vocab), split, cfg)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(result.model, out / "checkpoint.json", cfg.max_len, scale_by_alpha)
    _write_jsonl(out / "history.jsonl", result.history)
    if not evaluate_test:
        return None
    report = evaluate_model(result.model, split.test, cfg.max_len, scale_by_alpha=scale_by_alpha)
    _write_json(out / "report.json", report.to_dict())
    (out / "report.txt").write_text(report.format_table() + "\n", encoding="utf-8")
    return report


def cmd_train(args):
    if args.runs < 1:
        raise ValueError(f"--runs must be at least 1, got {args.runs}")
    setup = _resolve_train_setup(args)
    cfg = setup.train
    parts = [load_corpus(args.train), load_corpus(args.val)]
    if args.test:
        parts.append(load_corpus(args.test))
    split = SplitResult(*parts)
    out = Path(args.out_dir)
    reports = []
    for r in range(args.runs):
        run_dir = out if args.runs == 1 else out / f"run-{r:02d}"
        reports.append(_train_single(args.mode, split, bool(args.test), replace(cfg, seed=cfg.seed + r), setup, run_dir))
    if args.test and args.runs == 1:
        print(reports[0].format_table())
    elif args.test:
        agg = aggregate_reports(reports)
        _write_json(out / "aggregate.json", agg)
        print(format_aggregate_table(agg))
    _write_provenance(out, "train", {**asdict(setup), "mode": args.mode, "runs": args.runs}, cfg.seed)
    return 0


def _load_predictions(path):
    """The scores and labels of a JSONL file of {score, label} records: a score is a JSON number in [0, 1], a label
    `is_label`, and both labels occur."""
    scores, labels = [], []
    with Path(path).open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: bad prediction record: {exc}") from None
            score, label = require(row, ("score", "label"), f"{where}: prediction record", ValueError)
            scores.append(float(check_type(score, float, f"{where}: field 'score'", ValueError)))
            if not 0.0 <= scores[-1] <= 1.0:  # NaN and the infinities fail too
                raise ValueError(f"{where}: field 'score' must be a finite number within [0, 1], got {score!r}")
            if not is_label(label):
                raise ValueError(f"{where}: field 'label' must be the integer 0 or 1, got {label!r}")
            labels.append(label)
    if len(set(labels)) < 2:
        raise ValueError(f"{path}: " + ("holds no prediction record" if not labels else f"every label is {labels[0]}"))
    return PredictionSet(np.array(scores), np.array(labels))


def cmd_evaluate(args):
    if args.predictions:
        pred = _load_predictions(args.predictions)
        report = evaluate(pred, maxfpr=args.maxfpr)
        config = {"predictions": str(args.predictions), "maxfpr": args.maxfpr}
    else:
        if not (args.checkpoint and args.corpus):
            raise ValueError("evaluate needs either --predictions or both --checkpoint and --corpus")
        checkpoint = load_checkpoint(args.checkpoint)
        corpus = load_corpus(args.corpus)
        report = evaluate_model(
            checkpoint.model, corpus, checkpoint.max_len, args.maxfpr, scale_by_alpha=checkpoint.scale_by_alpha
        )
        config = {"checkpoint": str(args.checkpoint), "corpus": str(args.corpus), "maxfpr": args.maxfpr}
    out = _out_dir(args)
    _write_json(out / "report.json", report.to_dict())
    (out / "report.txt").write_text(report.format_table() + "\n", encoding="utf-8")
    _write_provenance(out, "evaluate", config, None)
    print(report.format_table())
    return 0


def cmd_bias_report(args):
    corpus = load_corpus(args.corpus)
    rows = entity_bias_table(corpus, args.boundary)
    out = _out_dir(args)
    export_bias_table(rows, out / "bias_table.tsv")
    _write_provenance(out, "bias-report", {"corpus": str(args.corpus), "boundary": args.boundary}, None)
    print(f"wrote {len(rows)} audit rows to {out / 'bias_table.tsv'}")
    return 0


def cmd_case_report(args):
    checkpoint = load_checkpoint(args.checkpoint)
    corpus = load_corpus(args.corpus)
    scale_by_alpha = args.scale_by_alpha or checkpoint.scale_by_alpha
    rows = case_report(checkpoint.model, corpus, checkpoint.max_len, scale_by_alpha)
    out = _out_dir(args)
    _write_jsonl(out / "cases.jsonl", rows)
    config = {"checkpoint": str(args.checkpoint), "corpus": str(args.corpus), "scale_by_alpha": args.scale_by_alpha}
    _write_provenance(out, "case-report", config, None)
    print(f"wrote {len(rows)} case rows to {out / 'cases.jsonl'}")
    return 0


def cmd_grid_alpha(args):
    setup = _resolve_train_setup(args)
    split = SplitResult(load_corpus(args.train), load_corpus(args.val))
    best_alpha, rows = grid_search_alpha(split, setup.train, setup.detector, setup.entity_model)
    out = _out_dir(args)
    with (out / "alpha_grid.tsv").open("w", encoding="utf-8") as fh:
        fh.write("alpha\tval_macf1\tbest_epoch\n")
        for row in rows:
            fh.write(f"{row['alpha']:.1f}\t{row['val_macf1']:.6f}\t{row['best_epoch']}\n")
    _write_json(out / "best_alpha.json", {"alpha": best_alpha})
    _write_provenance(out, "grid-alpha", asdict(setup), setup.train.seed)
    print(f"best alpha: {best_alpha:.1f}")
    return 0


def _add_train_overrides(parser, skip=()):
    """One `--flag` per `_TRAIN_OVERRIDES` field not in `skip`, typed as the `TrainConfig` field it overrides."""
    types = {f.name: f.type for f in fields(TrainConfig)}
    for key in _TRAIN_OVERRIDES:
        if key not in skip:
            parser.add_argument(f"--{key.replace('_', '-')}", dest=key, type=types[key], default=None)


def build_parser():
    parser = argparse.ArgumentParser(prog="endef", description="Entity-debiasing training and evaluation toolkit.")
    parser.add_argument("--version", action="version", version=f"endef {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="generate a synthetic bias-injection corpus")
    p.add_argument("--spec", required=True, help="BiasSpec JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the seed in the recipe file")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("split", help="temporal train/validation/test split")
    p.add_argument("--corpus", required=True)
    p.add_argument("--train-ratio", type=float, default=0.6)
    p.add_argument("--val-ratio", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("recognize", help="fill entity lists via gazetteer matching")
    p.add_argument("--corpus", required=True)
    p.add_argument("--gazetteer", required=True)
    p.add_argument("--case-insensitive", action="store_true")
    p.add_argument("--dedupe", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("train", help="train a detector (fused, baseline, or entity-only)")
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--test", default=None)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--mode", choices=("endef", "baseline", "entity-only"), default="endef")
    p.add_argument("--runs", type=int, default=1, help="sequential seeded runs to aggregate")
    _add_train_overrides(p)
    p.add_argument("--augment-p", type=float, default=None)
    p.add_argument("--no-augment", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="metric report from a checkpoint+corpus or a predictions file")
    p.add_argument("--predictions", default=None, help="JSONL with per-line {score, label}")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--corpus", default=None)
    p.add_argument("--maxfpr", type=float, default=0.1)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bias-report", help="entity bias audit table (TSV)")
    p.add_argument("--corpus", required=True)
    p.add_argument("--boundary", type=int, required=True, help="period boundary timestamp")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_bias_report)

    p = sub.add_parser("case-report", help="per-sample diagnostic probabilities")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--scale-by-alpha", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_case_report)

    p = sub.add_parser("grid-alpha", help="grid search the fusion weight over {0.0, ..., 1.0}")
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--config", default=None)
    _add_train_overrides(p, skip=("alpha", "max_len"))
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_grid_alpha)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:  # CLI boundary: report and exit nonzero
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
