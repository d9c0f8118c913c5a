"""The endef names the traced run wraps, and the per-layer metrics built from them.

Targets are the names callers look up at call time: module globals that
another endef module imported (``endef.training:loss_total`` is what the
trainer calls), class attributes for methods, and the ``cmd_*`` functions
the CLI parser binds on every ``main`` call. `README.md` in this directory
says which end-to-end metric each per-layer metric should move.
"""

import math
import os

from tracer import array_bytes

ENCODER_KINDS = ("bag_of_embeddings_mlp", "conv_ngram")

# boundaries whose individual spans are kept; all others only aggregate
COARSE = (
    "bench.setup",
    "bench.op",
    "training.train",
    "synthetic.generate",
    "framework.checkpoint_save",
    "framework.checkpoint_load",
    "framework.case_report",
    "cli.recognize",
    "cli.evaluate",
    "cli.case_report",
    "cli.bias_report",
)


def _by_kind(boundary):
    return lambda self, *args, **kwargs: f"{boundary}.{self.spec.kind}"


def _grad_bytes(tracer, args, kwargs, result):
    tracer.count("models.grad_bytes", array_bytes(result))


def _adam_bytes(tracer, args, kwargs, result):
    # computed, not measured: params, grads, m and v are read; m, v and the
    # new params are written, all of the parameter vector's size
    tracer.count("models.adam_bytes", 7 * array_bytes(args[0]))


def _training_counts(tracer, args, kwargs, result):
    split, cfg = args[1], args[2]
    epochs = len(result.history)
    tracer.count("training.epochs", epochs)
    tracer.count("training.steps", epochs * math.ceil(len(split.train) / cfg.batch_size))


def _augment_changed(tracer, args, kwargs, result):
    tracer.count("augmentation.changed", result is not args[0])


def _checkpoint_size(tracer, args, kwargs, result):
    tracer.counters["framework.checkpoint_bytes"] = os.path.getsize(args[0])


def _recognized_docs(tracer, args, kwargs, result):
    tracer.count("recognizer.docs", len(result))


TARGETS = (
    ("endef.models:ScalarModel.forward", _by_kind("models.forward"), None),
    ("endef.models:ScalarModel._forward_cache", _by_kind("models.forward"), None),
    ("endef.models:ScalarModel._backward_from_cache", _by_kind("models.backward"), _grad_bytes),
    ("endef.training:adam_step", "models.adam", _adam_bytes),
    ("endef.training:loss_total", "framework.loss_total", None),
    ("endef.training:train", "training.train", _training_counts),
    ("endef.training:train_baseline", "training.train", _training_counts),
    ("endef.augmentation:augment", "augmentation.augment", _augment_changed),
    ("endef.vocab:Vocabulary.encode_tokens", "vocab.encode", None),
    ("endef.vocab:Vocabulary.encode_entities", "vocab.encode", None),
    ("endef.training:debiased_predict", "framework.predict", None),
    ("endef.framework:debiased_predict", "framework.predict", None),
    ("endef.framework:biased_predict", "framework.predict", None),
    ("endef.training:evaluate", "metrics.evaluate", None),
    ("endef.cli:evaluate", "metrics.evaluate", None),
    ("endef.training:f1_scores", "metrics.f1_scores", None),
    ("endef.metrics:f1_scores", "metrics.f1_scores", None),
    ("endef.cli:case_report", "framework.case_report", None),
    ("endef.cli:load_checkpoint", "framework.checkpoint_load", _checkpoint_size),
    ("endef.cli:load_corpus", "corpus.load_corpus", None),
    ("endef.cli:save_corpus", "corpus.save_corpus", None),
    ("endef.cli:entity_bias_table", "corpus.entity_bias_table", None),
    ("endef.cli:recognize_corpus", "recognizer.recognize_corpus", _recognized_docs),
    ("endef.cli:cmd_recognize", "cli.recognize", None),
    ("endef.cli:cmd_evaluate", "cli.evaluate", None),
    ("endef.cli:cmd_case_report", "cli.case_report", None),
    ("endef.cli:cmd_bias_report", "cli.bias_report", None),
    ("endef.synthetic:generate", "synthetic.generate", None),
    ("endef.vocab:build_vocabulary", "vocab.build", None),
    ("endef.experiments:temporal_split", "corpus.temporal_split", None),
    ("endef.framework:save_checkpoint", "framework.checkpoint_save", None),
)


def _validation_spans(tracer):
    # the trainers hand their per-epoch validation scorer to the shared loop
    def make(run_loop):
        def traced_run_loop(*args, val_score_fn, **kwargs):
            def validate(*a, **k):
                with tracer.span("training.validate"):
                    return val_score_fn(*a, **k)

            return run_loop(*args, val_score_fn=validate, **kwargs)

        return traced_run_loop

    return make


def install(tracer):
    """Wrap every target; unresolved ones land in `tracer.absent`."""
    for target, name, after in TARGETS:
        tracer.wrap(target, name, after)
    tracer.patch("endef.training:_run_loop", _validation_spans(tracer), required=("val_score_fn",))


SETUP_METRICS = (
    ("synthetic.generate_s", "synthetic.generate"),
    ("vocab.build_s", "vocab.build"),
    ("corpus.temporal_split_s", "corpus.temporal_split"),
    ("framework.checkpoint_save_s", "framework.checkpoint_save"),
)


def per_layer_metrics(setup, run, ops, overhead_s):
    """{name: (value, unit)}: set-up layers from one traced set-up, the rest per traced operation.

    `overhead_s` is the traced minus the untraced wall time of one operation.
    """
    out = {}

    def calls(name, boundary):
        out[name] = (run.boundary(boundary).calls / ops, "calls")

    def seconds(name, boundary, self_time=False):
        b = run.boundary(boundary)
        out[name] = ((b.self_s if self_time else b.total_s) / ops, "s")

    def counted(name, counter, unit):
        out[name] = (run.counters[counter] / ops, unit)

    for kind in ENCODER_KINDS:
        calls(f"models.forward_calls.{kind}", f"models.forward.{kind}")
        seconds(f"models.forward_s.{kind}", f"models.forward.{kind}")
        calls(f"models.backward_calls.{kind}", f"models.backward.{kind}")
        seconds(f"models.backward_s.{kind}", f"models.backward.{kind}")
    calls("models.adam_calls", "models.adam")
    seconds("models.adam_s", "models.adam")
    counted("models.grad_bytes", "models.grad_bytes", "computed_B")
    counted("models.adam_bytes", "models.adam_bytes", "computed_B")

    calls("framework.loss_total_calls", "framework.loss_total")
    seconds("framework.loss_total_self_s", "framework.loss_total", self_time=True)
    seconds("training.self_s", "training.train", self_time=True)
    counted("training.steps", "training.steps", "count")
    counted("training.epochs", "training.epochs", "count")
    seconds("training.validate_s", "training.validate")
    calls("augmentation.augment_calls", "augmentation.augment")
    seconds("augmentation.augment_s", "augmentation.augment")
    augment_calls = run.boundary("augmentation.augment").calls
    changed = run.counters["augmentation.changed"] / augment_calls if augment_calls else 0.0
    out["augmentation.changed_ratio"] = (changed, "ratio")
    calls("vocab.encode_calls", "vocab.encode")
    seconds("vocab.encode_s", "vocab.encode")

    calls("framework.predict_calls", "framework.predict")
    seconds("framework.predict_s", "framework.predict")
    seconds("framework.case_report_s", "framework.case_report")
    seconds("framework.checkpoint_load_s", "framework.checkpoint_load")
    out["framework.checkpoint_bytes"] = (run.counters["framework.checkpoint_bytes"], "B")
    seconds("corpus.load_corpus_s", "corpus.load_corpus")
    seconds("corpus.save_corpus_s", "corpus.save_corpus")
    seconds("corpus.entity_bias_table_s", "corpus.entity_bias_table")
    seconds("recognizer.recognize_corpus_s", "recognizer.recognize_corpus")
    counted("recognizer.docs", "recognizer.docs", "docs")
    calls("metrics.evaluate_calls", "metrics.evaluate")
    seconds("metrics.evaluate_s", "metrics.evaluate")
    seconds("metrics.f1_scores_s", "metrics.f1_scores")
    for sub in ("recognize", "evaluate", "case_report", "bias_report"):
        seconds(f"cli.{sub}_s", f"cli.{sub}")

    for name, boundary in SETUP_METRICS:
        out[name] = (setup.boundary(boundary).total_s, "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.absent_targets"] = (len(set(setup.absent) | set(run.absent)), "count")
    return out
