"""One benchmark worker: a fresh process per run, so its peak RSS is the run's.

Usage (started by ``run.py``, from the root of a checkout)::

    python3 bench/worker.py setup  --workload W --seed S
    python3 bench/worker.py run    --workload W --seed S --seconds T --trace 0|1
    python3 bench/worker.py record

``setup`` builds the workload's inputs and exits; ``run`` then issues its
operations back to back for about ``T`` seconds.  Both print ``ready`` on
standard output right before the first timed call, and ``run`` ends with
one JSON line.  ``record`` runs every workload once and rewrites
``golden.json`` with the deterministic outputs the checks compare against;
run it only at a commit whose outputs are trusted.
"""

from __future__ import annotations

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

from counts import LatticeCounter
from references import GOLDEN_PATH
from tracing import Tracer, instrument, median_metrics, pass_metrics
from workloads import WORKLOADS, CliExit, heat_err

ROOT = Path.cwd()

#: Address-space budget of one worker, set on its own process.  The largest
#: case measured needs about 1.5 GiB of address space; an operation that
#: outgrows the budget fails with MemoryError and is counted as failed.
MEMORY_BUDGET_BYTES = 3 * 1024**3

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def set_memory_budget(limit: int) -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def import_sublex() -> None:
    """Import sublex from this checkout's sources, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "sublex" / "__init__.py").is_file():
        raise SystemExit(f"no sublex sources under {src}")
    sys.path.insert(0, str(src))
    import sublex

    if Path(sublex.__file__).resolve().parent != (src / "sublex").resolve():
        raise SystemExit(f"imported sublex from {sublex.__file__}, not from {src}")


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{k: os.environ.get(k) for k in THREAD_VARIABLES},
        "memory_budget_bytes": MEMORY_BUDGET_BYTES,
    }


def run_pass(workload, tracer, failures: list[str]) -> tuple[list[float], int, int]:
    """One closed-loop pass.  Each output is checked right after its call,
    untimed and untraced, then dropped.  Returns the per-operation times,
    the operations that failed and the outputs that were wrong."""
    times: list[float] = []
    failed = wrong = 0
    for i, op in enumerate(workload.ops):
        tracer.begin_op(i, op.name)
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a failed operation must not end the run
            times.append(time.perf_counter() - t0)
            tracer.end_op()
            failed += 1
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
            if not isinstance(exc, CliExit):
                traceback.print_exc(file=sys.stderr)
            continue
        times.append(time.perf_counter() - t0)
        tracer.end_op()
        enabled, tracer.enabled = tracer.enabled, False
        try:
            problem = op.check(out)
        except Exception as exc:  # an unreadable output fails its check
            problem = f"check raised {type(exc).__name__}: {exc}"
        tracer.enabled = enabled
        del out
        if problem:
            failed += 1
            wrong += 1
            failures.append(f"{op.name}: {problem}")
    return times, failed, wrong


def measure(args, proto) -> dict:
    tracer = Tracer()
    if args.trace:
        instrument(tracer)
    workload = WORKLOADS[args.workload](args.seed, ROOT)
    print("ready", file=proto, flush=True)

    start = time.perf_counter()
    walls: list[float] = []
    traced_walls: list[float] = []
    op_times: list[list[float]] = []
    layers: list[dict] = []
    failures: list[str] = []
    attempted = failed = wrong = 0
    counter = LatticeCounter()
    while True:
        elapsed = time.perf_counter() - start
        typical = statistics.median(walls + traced_walls) if walls else 0.0
        done = walls and (traced_walls or not args.trace)
        if done and elapsed + typical > args.seconds:
            break
        # a traced run spends its first half untraced, for the overhead baseline
        tracer.enabled = bool(args.trace and walls and elapsed >= args.seconds / 2)
        times, pass_failed, pass_wrong = run_pass(workload, tracer, failures)
        attempted += len(workload.ops)
        failed += pass_failed
        wrong += pass_wrong
        op_times.append(times)
        if tracer.enabled:
            traced_walls.append(sum(times))
            layers.append(pass_metrics(tracer.take(), counter))
        else:
            walls.append(sum(times))
    tracer.enabled = False
    result = {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "walls": walls,
        "heat_err": heat_err(workload),
        "ops": dict(zip((op.name for op in workload.ops),
                        (statistics.median(t) for t in zip(*op_times)))),
        "failures": sorted(set(failures)),
    }
    if args.trace:
        from sublex import iid

        family, n = workload.probe
        t0 = time.perf_counter()
        iid.sum_lattice(family, n)
        metrics = median_metrics(layers)
        metrics["iid.lattice_build_s"] = time.perf_counter() - t0
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        result["layers"] = metrics
        result["traced_walls"] = traced_walls
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = environment()
    return result


def record() -> None:
    golden = {}
    for name, build in WORKLOADS.items():
        workload = build(0, ROOT)
        for op in workload.ops:
            try:
                workload.record(op, op.call())
            except CliExit as exc:
                print(f"{op.name}: not recorded ({exc})", file=sys.stderr)
        if workload.golden:
            golden[name] = workload.golden
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "record"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    set_memory_budget(MEMORY_BUDGET_BYTES)
    import_sublex()
    proto = sys.stdout
    sys.stdout = sys.stderr  # the program's own prints must not reach the protocol
    if args.mode == "record":
        record()
    elif args.mode == "setup":
        WORKLOADS[args.workload](args.seed, ROOT)
        print("ready", file=proto, flush=True)
    else:
        print(json.dumps(measure(args, proto)), file=proto, flush=True)


if __name__ == "__main__":
    main()
