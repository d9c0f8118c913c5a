"""Run one workload in this process and print its figures as one JSON line.

`run.py` starts this in a child process with the BLAS thread pools pinned,
so that every workload gets its own peak RSS and the same thread settings.

Untraced (``--trace 0``): set up `SETUP_REPEATS` times, then run operations
in a closed loop until ``--seconds`` have passed (at least `MIN_OPS`), with
nothing installed. Traced (``--trace 1``): one traced set-up and one
untraced warm-up operation, then each operation index untraced and traced
in turn until ``--seconds`` have passed, so the traced run measures its own
overhead on the same inputs and checks that tracing changes no output.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 3
MIN_OPS = 2

clock = time.perf_counter


def import_endef():
    """Import endef from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import endef

    if Path(endef.__file__).resolve().parent != src / "endef":
        raise SystemExit(f"endef was imported from {endef.__file__}, not from {src}")


def run_op(workload, i, tracer=None):
    t0 = clock()
    try:
        if tracer is None:
            result = workload.op(i)
        else:
            with tracer.span("bench.op"):
                result = workload.op(i)
        wall = clock() - t0
        errors = workload.check(i, result)
    except Exception:  # one failed operation is counted, the loop goes on
        wall = clock() - t0
        result, errors = None, [f"op {i} raised:\n{traceback.format_exc()}"]
    return {"wall_s": wall, "result": result, "errors": errors}


def run_ops(workload, seconds, min_ops):
    """Closed loop: start the next operation only after the previous one ended."""
    ops = []
    start = clock()
    while len(ops) < min_ops or clock() - start < seconds:
        ops.append(run_op(workload, len(ops)))
    return ops


def rate(samples):
    return statistics.median(docs / seconds for docs, seconds in samples)


def end_to_end(workload, setups, ops):
    results = [op["result"] for op in ops if not op["errors"]]
    if not results:
        raise SystemExit(f"{workload.name}: every operation failed")
    trained = [(x["train_docs"], x["train_s"]) for x in [*results, *(info for _, info in setups)] if "train_docs" in x]
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "wall_s": (statistics.median(op["wall_s"] for op in ops if not op["errors"]), "s"),
        "train_docs_per_s": (rate(trained), "docs/s"),
        "score_docs_per_s": (rate((r["score_docs"], r["score_s"]) for r in results), "docs/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for name, value in workload.quality(results).items():
        metrics[name] = (value, "ratio")
    return metrics, workload.extras(results)


def traced_run(workload, seconds):
    """Traced set-up, one untraced warm-up operation, then untraced/traced pairs of each index."""
    import layers
    from tracer import Tracer

    setup_tracer = Tracer(layers.COARSE)
    layers.install(setup_tracer)
    try:
        with setup_tracer.span("bench.setup"):
            workload.setup()
    finally:
        setup_tracer.uninstall()
    tracer = Tracer(layers.COARSE)
    ops = [run_op(workload, 0)]
    pairs = []
    start = clock()
    while not pairs or clock() - start < seconds:
        i = len(pairs)
        plain = run_op(workload, i)
        layers.install(tracer)
        try:
            traced = run_op(workload, i, tracer)
        finally:
            tracer.uninstall()
        if not (plain["errors"] or traced["errors"]) and plain["result"]["fingerprint"] != traced["result"]["fingerprint"]:
            traced["errors"].append(f"op {i}: traced outputs differ from untraced outputs")
        pairs.append((plain, traced))
        ops += [plain, traced]
    overhead = statistics.median(traced["wall_s"] - plain["wall_s"] for plain, traced in pairs)
    metrics = layers.per_layer_metrics(setup_tracer, tracer, len(pairs), overhead)
    return ops, metrics, {"absent": tracer.absent, "spans": setup_tracer.spans + tracer.spans}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    import_endef()
    import numpy
    import scipy
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    if args.trace:
        ops, metrics, extras = traced_run(workload, args.seconds)
        run_errors = None
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            info = workload.setup()
            setups.append((clock() - t0, info))
        ops = run_ops(workload, args.seconds, MIN_OPS)
        metrics, extras = end_to_end(workload, setups, ops)
        run_errors = workload.run_checks([op["result"] for op in ops if not op["errors"]])
    errors = [e for op in ops for e in op["errors"]]
    attempted = len(ops) + (run_errors is not None)
    failed = sum(1 for op in ops if op["errors"]) + bool(run_errors)
    errors += run_errors or []
    print(
        json.dumps(
            {
                "attempted": attempted,
                "failed": failed,
                "errors": errors[:20],
                "metrics": metrics,
                "extras": extras,
                "machine": {
                    "nproc": os.cpu_count(),
                    "affinity_cpus": len(os.sched_getaffinity(0)),
                    "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "scipy": scipy.__version__,
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
