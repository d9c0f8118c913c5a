"""Tests of the benchmark itself: span arithmetic, absent targets, metric names.

    python3 -m pytest perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_hand_built_span_tree():
    # a [0, 10] holds b [1, 5] (which holds c [2, 4]) and b again [6, 7]
    tracer = Tracer(coarse=("a", "c"), clock=FakeClock([0, 1, 2, 4, 5, 6, 7, 10]))
    tracer.enter("a")
    tracer.enter("b")
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    tracer.enter("b")
    tracer.exit()
    tracer.exit()
    a, b, c = (tracer.boundary(n) for n in "abc")
    assert (a.calls, a.total_s, a.self_s) == (1, 10, 5)
    assert (b.calls, b.total_s, b.self_s) == (2, 5, 3)
    assert (c.calls, c.total_s, c.self_s) == (1, 2, 2)
    assert a.self_s + b.self_s + c.self_s == a.total_s
    # individual spans only for the coarse boundaries, with their parents
    assert tracer.spans == [("c", 2, 4, "b"), ("a", 0, 10, None)]


def test_reentered_boundary_counts_its_outermost_span_once():
    # f [0, 10] calls f again [2, 6], as forward calls _forward_cache
    tracer = Tracer(clock=FakeClock([0, 2, 6, 10]))
    tracer.enter("f")
    tracer.enter("f")
    tracer.exit()
    tracer.exit()
    f = tracer.boundary("f")
    assert (f.calls, f.total_s, f.self_s) == (1, 10, 10)


def test_wrap_times_calls_and_uninstall_restores():
    from endef import vocab

    original = vocab.Vocabulary.encode_tokens
    tracer = Tracer()
    assert tracer.wrap("endef.vocab:Vocabulary.encode_tokens", "vocab.encode")
    words = vocab.Vocabulary.build([["a", "a", "b", "b"]])
    assert list(words.encode_tokens(["a", "b", "zzz"])) == [4, 5, 2]
    assert tracer.boundary("vocab.encode").calls == 1
    tracer.uninstall()
    assert vocab.Vocabulary.encode_tokens is original


def test_absent_targets_are_reported_not_raised(monkeypatch):
    from endef import models, training

    # a later refactor removes the per-sample cache path and renames the loop's scorer
    monkeypatch.delattr(models.ScalarModel, "_forward_cache")
    monkeypatch.setattr(training, "_run_loop", lambda split, cfg, *, step_fn, score_fn: None)
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert tracer.absent == ["endef.models:ScalarModel._forward_cache", "endef.training:_run_loop"]
        assert "_forward_cache" not in vars(models.ScalarModel)
        assert training.loss_total.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert not hasattr(training.loss_total, "__wrapped__")
    assert tracer.wrap("endef.no_such_module:thing", "x") is False
    metrics = layers.per_layer_metrics(Tracer(), tracer, 1, 0.0)
    assert metrics["trace.absent_targets"] == (3, "count")
    assert metrics["training.validate_s"] == (0.0, "s")


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_per_layer_names_match_benchmark_json():
    emitted = layers.per_layer_metrics(Tracer(), Tracer(), 1, 0.0)
    assert all(NAME.fullmatch(name) for name in emitted)
    assert {name: unit for name, (_, unit) in emitted.items()} == _declared("per_layer")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_names_match_benchmark_json(name):
    workload = workloads.WORKLOADS[name]

    class Stub:
        def quality(self, results):
            return workload.quality(self, results)

        def extras(self, results):
            return {}

    result = {
        "train_docs": 10,
        "train_s": 1.0,
        "score_docs": 5,
        "score_s": 0.5,
        "fused": SimpleNamespace(macf1=0.8, spauc=0.7),
        "report": {"macf1": 0.8, "spauc": 0.7},
    }
    ops = [{"wall_s": 1.0, "result": result, "errors": []}]
    emitted, _ = worker.end_to_end(Stub(), [(0.5, {})], ops)
    assert all(NAME.fullmatch(name) for name in emitted)
    assert {name: unit for name, (_, unit) in emitted.items()} == _declared("end_to_end")


def test_workload_names_match_benchmark_json():
    declared = [w["name"] for w in BENCHMARK["workloads"]]
    assert declared == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "paired-small", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
