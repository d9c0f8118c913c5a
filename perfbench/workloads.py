"""The three benchmark workloads, driven through endef's public API.

Each workload has a `setup` (inputs made from the seed, untimed by the
operation loop), an `op(i)` that is one closed-loop operation, a `check` of
that operation's outputs, and `quality` figures taken from a fixed number of
leading operations so they do not depend on how many operations fit in the
run.
"""

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import replace
from pathlib import Path

from endef import cli, corpus, experiments, framework, metrics, models, synthetic, training, vocab

clock = time.perf_counter

QUALITY_OPS = 2

# criterion 5 of the acceptance suite: the flipped-bias corpus of seed 7,
# training seeds 0-9, and the frozen gap margins
CRITERION5_CORPUS_SEED = 7
CRITERION5_SEEDS = 10
DELTA_MACF1 = 0.0129
DELTA_SPAUC = 0.0148

REPORT_FIELDS = ("macf1", "acc", "auc", "spauc", "f1_real", "f1_fake")


def large_spec(seed, n_train, n_val, n_test):
    """The large recipe: 40k-word pools, documents of 100-160 content tokens."""
    return synthetic.BiasSpec(
        n_entities=12,
        vocab_size=40_000,
        n_train=n_train,
        n_val=n_val,
        n_test=n_test,
        train_corr=experiments.FLIPPED_TRAIN_CORR,
        test_corr=experiments.FLIPPED_TEST_CORR,
        content_signal_strength=0.7,
        min_tokens=100,
        max_tokens=160,
        seed=seed,
    )


def report_errors(label, report):
    return [
        f"{label}: {field} = {getattr(report, field)!r} is not a finite value in [0, 1]"
        for field in REPORT_FIELDS
        if not (math.isfinite(getattr(report, field)) and 0.0 <= getattr(report, field) <= 1.0)
    ]


def fused_quality(results):
    """The fused model's detector on the test part, averaged over the leading operations."""
    lead = results[:QUALITY_OPS]
    return {
        "detector_macf1": _mean(r["fused"].macf1 for r in lead),
        "detector_spauc": _mean(r["fused"].spauc for r in lead),
    }


def report_fingerprint(report):
    return {field: getattr(report, field) for field in REPORT_FIELDS}


class PairedSmall:
    """Criterion 5's paired experiment: baseline and fused arm per training seed."""

    name = "paired-small"

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        spec = experiments.flipped_bias_spec(seed=self.seed)
        pieces, _ = synthetic.generate(spec)
        self.split = experiments.split_for(spec, pieces, seed=self.seed)
        self.vocab = vocab.build_vocabulary(self.split.train, experiments.default_train_config().min_token_freq)
        return {}

    def op(self, i):
        cfg = experiments.default_train_config(seed=i)
        detector = experiments.default_detector_spec()
        baseline = models.ScalarModel(detector, self.vocab, seed=i)
        t0 = clock()
        base_run = training.train_baseline(baseline, self.split, cfg)
        t1 = clock()
        fused = framework.make_endef_model(
            detector, experiments.default_entity_spec(), self.vocab, seed=i, alpha=cfg.alpha, beta=cfg.beta
        )
        t2 = clock()
        fused_run = training.train(fused, self.split, cfg)
        t3 = clock()
        base_report = training.evaluate_model(baseline, self.split.test, cfg.max_len)
        fused_report = training.evaluate_model(fused, self.split.test, cfg.max_len)
        t4 = clock()
        epochs = len(base_run.history) + len(fused_run.history)
        return {
            "train_docs": epochs * len(self.split.train),
            "train_s": (t1 - t0) + (t3 - t2),
            "score_docs": 2 * len(self.split.test),
            "score_s": t4 - t3,
            "baseline": base_report,
            "fused": fused_report,
            "fingerprint": {"baseline": report_fingerprint(base_report), "fused": report_fingerprint(fused_report)},
        }

    def check(self, i, result):
        return report_errors(f"seed {i} baseline", result["baseline"]) + report_errors(
            f"seed {i} fused", result["fused"]
        )

    def quality(self, results):
        return fused_quality(results)

    def gaps(self, results):
        return {
            metric: _mean(getattr(r["fused"], metric) - getattr(r["baseline"], metric) for r in results)
            for metric in ("macf1", "spauc")
        }

    def run_checks(self, results):
        """Criterion 5's margins, checked when the run covered its corpus and all ten seeds."""
        if self.seed != CRITERION5_CORPUS_SEED or len(results) < CRITERION5_SEEDS:
            return None
        gaps = self.gaps(results[:CRITERION5_SEEDS])
        errors = []
        if gaps["macf1"] < DELTA_MACF1:
            errors.append(f"criterion 5: macF1 gap {gaps['macf1']:+.4f} below {DELTA_MACF1}")
        if gaps["spauc"] < DELTA_SPAUC:
            errors.append(f"criterion 5: spAUC gap {gaps['spauc']:+.4f} below {DELTA_SPAUC}")
        return errors

    def extras(self, results):
        gaps = self.gaps(results)
        return {"gap_macf1": gaps["macf1"], "gap_spauc": gaps["spauc"], "paired_seeds": len(results)}


class LargeConv:
    """Fused training of the conv-ngram detector on the large recipe."""

    name = "large-conv"
    detector = models.EncoderSpec(
        kind=models.CONV_NGRAM, embed_dim=32, hidden_dim=64, window_sizes=(1, 2, 3, 5, 10), n_filters=16
    )
    epochs = 2

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        spec = large_spec(self.seed, n_train=1500, n_val=300, n_test=2000)
        pieces, _ = synthetic.generate(spec)
        self.split = experiments.split_for(spec, pieces, seed=self.seed)
        self.vocab = vocab.build_vocabulary(self.split.train, experiments.default_train_config().min_token_freq)
        return {}

    def op(self, i):
        # patience equal to the epoch budget: every operation trains both epochs
        cfg = replace(experiments.default_train_config(seed=i), max_epochs=self.epochs, patience=self.epochs)
        model = framework.make_endef_model(
            self.detector, experiments.default_entity_spec(), self.vocab, seed=i, alpha=cfg.alpha, beta=cfg.beta
        )
        t0 = clock()
        run = training.train(model, self.split, cfg)
        t1 = clock()
        report = training.evaluate_model(model, self.split.test, cfg.max_len)
        t2 = clock()
        return {
            "train_docs": len(run.history) * len(self.split.train),
            "train_s": t1 - t0,
            "score_docs": len(self.split.test),
            "score_s": t2 - t1,
            "history": run.history,
            "fused": report,
            "fingerprint": {"fused": report_fingerprint(report), "losses": [h["train_loss"] for h in run.history]},
        }

    def check(self, i, result):
        errors = [
            f"seed {i} epoch {h['epoch']}: train loss {h['train_loss']!r} is not finite"
            for h in result["history"]
            if not math.isfinite(h["train_loss"])
        ]
        return errors + report_errors(f"seed {i} fused", result["fused"])

    def quality(self, results):
        return fused_quality(results)

    def run_checks(self, results):
        return None

    def extras(self, results):
        return {"vocab_size": self.vocab.size}


class ScoreNewPeriod:
    """Read-only CLI path on a future period: recognize, evaluate, case-report, bias-report."""

    name = "score-new-period"
    n_train = 800
    n_future = 8000
    train_epochs = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.work = Path(workdir)
        self.previous = None

    def setup(self):
        spec = large_spec(self.seed, n_train=self.n_train, n_val=200, n_test=self.n_future)
        pieces, _ = synthetic.generate(spec)
        split = experiments.split_for(spec, pieces, seed=self.seed)
        # the model `endef train` builds when given no config, trained for a
        # fixed epoch budget
        cfg = training.TrainConfig(seed=self.seed, max_epochs=self.train_epochs)
        detector = models.EncoderSpec(kind=models.BAG_OF_EMBEDDINGS)
        entity = models.EncoderSpec(kind=models.BAG_OF_EMBEDDINGS, embed_dim=16, hidden_dim=32)
        words = vocab.build_vocabulary(split.train, cfg.min_token_freq)
        model = framework.make_endef_model(detector, entity, words, seed=cfg.seed, alpha=cfg.alpha, beta=cfg.beta)
        t0 = clock()
        run = training.train(model, split, cfg)
        train_s = clock() - t0
        self.checkpoint = self.work / "checkpoint.json"
        framework.save_checkpoint(model, self.checkpoint)
        future = corpus.Corpus(
            tuple(replace(p, entities=(), needs_recognition=True) for p in split.test), name="future"
        )
        self.future = self.work / "future.jsonl"
        corpus.save_corpus(future, self.future)
        self.gazetteer = self.work / "gazetteer.tsv"
        self.gazetteer.write_text("".join(f"{e}\n" for e in spec.entity_names()), encoding="utf-8")
        stamps = sorted(p.timestamp for p in future)
        self.boundary = stamps[len(stamps) // 2]
        self.n_docs = len(future)
        return {"train_docs": len(run.history) * len(split.train), "train_s": train_s}

    def commands(self):
        out = self.work / "out"
        recognized = out / "recognize" / "recognized.jsonl"
        ckpt = str(self.checkpoint)
        return [
            ["recognize", "--corpus", str(self.future), "--gazetteer", str(self.gazetteer), "--out-dir", str(out / "recognize")],
            ["evaluate", "--checkpoint", ckpt, "--corpus", str(recognized), "--out-dir", str(out / "evaluate")],
            ["case-report", "--checkpoint", ckpt, "--corpus", str(recognized), "--out-dir", str(out / "case-report")],
            ["bias-report", "--corpus", str(recognized), "--boundary", str(self.boundary), "--out-dir", str(out / "bias-report")],
        ]

    def op(self, i):
        exits = []
        stderr = io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            for argv in self.commands():
                exits.append((argv[0], cli.main(argv)))
        score_s = clock() - t0
        return {"score_docs": self.n_docs, "score_s": score_s, "exits": exits, "stderr": stderr.getvalue()}

    def check(self, i, result):
        errors = [f"op {i}: `endef {cmd}` exited {code}: {result['stderr'].strip()}" for cmd, code in result["exits"] if code != 0]
        if errors:
            result["fingerprint"] = None
            return errors
        out = self.work / "out"
        report = json.loads((out / "evaluate" / "report.json").read_text(encoding="utf-8"))
        cases = [json.loads(line) for line in (out / "case-report" / "cases.jsonl").read_text(encoding="utf-8").splitlines()]
        recomputed = metrics.evaluate(
            metrics.PredictionSet([c["p_debiased"] for c in cases], [c["label"] for c in cases])
        ).to_dict()
        if recomputed != report:
            errors.append(f"op {i}: report recomputed from cases.jsonl differs from report.json")
        result["report"] = report
        result["fingerprint"] = {
            str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*"))
            if path.is_file()
        }
        if self.previous is not None and result["fingerprint"] != self.previous:
            errors.append(f"op {i}: artifacts differ from the previous operation's")
        self.previous = result["fingerprint"]
        return errors

    def quality(self, results):
        report = results[0]["report"]
        return {"detector_macf1": report["macf1"], "detector_spauc": report["spauc"]}

    def run_checks(self, results):
        return None

    def extras(self, results):
        return {"future_docs": self.n_docs}


WORKLOADS = {w.name: w for w in (PairedSmall, LargeConv, ScoreNewPeriod)}


def _mean(values):
    values = list(values)
    return sum(values) / len(values)
