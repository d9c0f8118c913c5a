#!/usr/bin/env python3
"""endef benchmark: one workload per child process, figures checked and printed.

    python3 perfbench/run.py --workload paired-small --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Run from the root of a checkout; the benchmark imports endef from its
``src/`` and writes only under ``.perfbench_work/``, which it removes. For
each workload it prints a table of every metric with its unit, then one JSON
line ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. That
JSON line is the last line of standard output. A workload that cannot run
(no endef source, a crash, a time-out) makes the command exit 1 without a
result line. `README.md` describes the workloads and metrics.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paired-small", "large-conv", "score-new-period")

# one BLAS thread on every machine and commit: at most nproc, and no
# thread-pool start-up or contention noise in small matrix products
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 170


def run_child(workload, seed, seconds, trace):
    workdir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    argv = [
        sys.executable,
        str(HERE / "worker.py"),
        *("--workload", workload, "--seed", str(seed), "--seconds", str(seconds)),
        *("--trace", str(trace), "--workdir", str(workdir)),
    ]
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env={**os.environ, **THREAD_ENV}, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: worker exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _format(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload, seed, seconds, trace, child):
    m = child["machine"]
    print(f"== {workload}  seed={seed}  seconds={seconds}  trace={trace}")
    print(
        f"   machine: nproc={m['nproc']} affinity_cpus={m['affinity_cpus']} "
        f"OPENBLAS_NUM_THREADS={m['OPENBLAS_NUM_THREADS']} python={m['python']} "
        f"numpy={m['numpy']} scipy={m['scipy']}"
    )
    for name, (value, unit) in child["metrics"].items():
        print(f"   {name:<44} {_format(value):>14} {unit}")
    attempted, failed = child["attempted"], child["failed"]
    print(f"   {'error_rate':<44} {_format(failed / attempted):>14} ratio  ({failed} failed of {attempted} attempted)")
    extras = child["extras"]
    for name, value in extras.items():
        if name == "spans":
            for span_name, start, end, parent in value:
                print(f"   span {span_name:<30} {end - start:10.4f} s  parent={parent}")
        elif name == "absent":
            print(f"   absent targets: {', '.join(value) if value else 'none'}")
        else:
            print(f"   {name:<44} {_format(value):>14}  (printed, not gated)")
    for error in child["errors"]:
        print(f"   FAILED: {error}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in child["metrics"].items()},
    }
    if not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
        print(f"{workload}: non-finite metric", file=sys.stderr)
        return None
    print(json.dumps(result), flush=True)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed non-negative")
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        child = run_child(workload, args.seed, args.seconds, args.trace)
        if child is None or report(workload, args.seed, args.seconds, args.trace, child) is None:
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
