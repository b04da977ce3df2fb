"""sublex benchmark runner.

Usage, from the root of a checkout::

    python3 bench/run.py --workload cli-canonical --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn, each ending with its own
JSON line.

Each run starts fresh worker processes (``worker.py``): several that only
set up, for the set-up time, and one that issues the workload's operations
back to back for ``--seconds`` and checks every output against an
independent reference.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` the same operations run with spans around the
calls between sublex's layers and the run reports per-layer metrics.
Every metric is printed by name and unit, then the environment, and the
last line of standard output is one JSON object.  The exit code is 0 when
a result was printed, 2 when the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS
from worker import THREAD_VARIABLES
from workloads import WORKLOADS

ROOT = Path.cwd()
WORKER = Path(__file__).resolve().with_name("worker.py")

#: Set-up samples per run (setup-only workers plus the measuring one); the
#: reported set-up time is their median.
SETUP_SAMPLES = 7

#: Seconds a worker may take to become ready, and the whole run's ceiling.
READY_TIMEOUT_S = 30.0
RUN_CEILING_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "heat_err": "abs"}


class WorkerError(Exception):
    pass


def worker_env() -> dict[str, str]:
    """The environment with BLAS/OpenMP threads capped at the CPUs we may use."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARIABLES:
        value = env.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            env[var] = str(nproc)
    return env


def start_worker(argv: list[str]) -> tuple[subprocess.Popen, float]:
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, env=worker_env())
    return proc, t0


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def wait_ready(proc: subprocess.Popen, t0: float) -> float:
    """Seconds from the worker's start to its first timed call."""
    readable, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
    line = proc.stdout.readline() if readable else ""
    if line.strip() != "ready":
        stop(proc)
        raise WorkerError(f"worker did not set up (exit code {proc.returncode})")
    return time.perf_counter() - t0


def setup_time(workload: str, seed: int) -> float:
    proc, t0 = start_worker(["setup", "--workload", workload, "--seed", str(seed)])
    try:
        return wait_ready(proc, t0)
    finally:
        stop(proc)


def measure(args, deadline: float) -> tuple[float, dict]:
    proc, t0 = start_worker(["run", "--workload", args.workload, "--seed", str(args.seed),
                             "--seconds", str(args.seconds), "--trace", str(args.trace)])
    try:
        setup = wait_ready(proc, t0)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            raise WorkerError("worker exceeded the run's time ceiling") from None
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerError(f"worker ended with exit code {proc.returncode} and no result")
        return setup, json.loads(lines[-1])
    finally:
        stop(proc)


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[len("ref: "):]
            if (git / ref).is_file():
                return (git / ref).read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown (not a git checkout)"


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}"


def report(args, setups: list[float], result: dict) -> dict:
    """Print every metric with its unit; return the result object."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    if args.trace:
        metrics = {k: {"value": result["layers"][k], "unit": u} for k, u in LAYER_METRICS.items()}
        for name, m in metrics.items():
            print(f"  {name:26s} {m['value']:.6g} {m['unit']}")
        print(f"  (median of {len(result['traced_walls'])} traced passes; "
              f"{len(result['walls'])} untraced passes for the overhead baseline)")
    else:
        walls = result["walls"]
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "heat_err": result["heat_err"],
        }
        notes = {
            "wall_s": f"median over passes; {spread(walls)}",
            "setup_s": f"median over worker starts; {spread(setups)}",
            "peak_rss_mb": "ru_maxrss of the measuring worker",
            "heat_err": "worst |G-heat value - closed form|",
        }
        for name, value in metrics.items():
            print(f"  {name:12s} {value:.6g} {END_TO_END[name]}  ({notes[name]})")
        print(f"  {'fail_ratio':12s} {failed / attempted:.6g} ratio  ({failed} of {attempted} operations)")
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    for op, seconds in result["ops"].items():
        print(f"  op {op:28s} {seconds:.4f} s (median)")
    for failure in result["failures"]:
        print(f"  failed: {failure}")
    env = dict(result["env"], commit=git_commit(ROOT), seed=args.seed, workload=args.workload)
    print("env " + json.dumps(env, sort_keys=True))
    return {"correct": result["wrong"] == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "sublex" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no sublex sources (src/sublex)", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        args.workload = name
        deadline = time.perf_counter() + RUN_CEILING_S
        try:
            setups = [] if args.trace else [setup_time(args.workload, args.seed)
                                            for _ in range(SETUP_SAMPLES - 1)]
            setup, result = measure(args, deadline)
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(report(args, setups + [setup], result)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
