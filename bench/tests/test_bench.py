"""Self-tests of the benchmark's own arithmetic, counts, references and runner.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import counts
import references as ref
import tracing
import worker
import workloads
from tracing import Span, Tracer, pass_metrics, self_times

import sublex
from sublex import gnormal, iid

ROOT = Path(__file__).resolve().parents[2]


# -- span arithmetic ---------------------------------------------------------


def _span(name, start, end, parent, work=()):
    return Span(name, start, parent, 0, end, work)


def test_self_time_of_nested_spans():
    spans = [
        _span("bench.op", 0.0, 10.0, -1),
        _span("lln.slp_series", 1.0, 8.0, 0),
        _span("iid.sum_functional_series", 2.0, 5.0, 1),
        _span("gnormal.g_expectation", 5.5, 7.5, 1),
        _span("gnormal.evolve", 6.0, 7.0, 3, ("heat", 11, 4)),
        _span("core.upper_expect", 9.0, 9.5, 0),
    ]
    assert self_times(spans) == pytest.approx([2.5, 2.0, 3.0, 1.0, 1.0, 0.5])
    spans[2].work = ("exact", np.array([-1.0, 0.0, 1.0]), 2)
    m = pass_metrics(spans, counts.LatticeCounter())
    assert m["lln.self_s"] == pytest.approx(2.0)
    assert m["lln.calls"] == 1
    assert m["iid.dp_s"] == pytest.approx(3.0)
    assert m["iid.lattice_states"] == 1 + 3 + 5
    assert m["iid.states_per_s"] == pytest.approx(3.0)
    assert m["gnormal.solves"] == 1
    assert m["gnormal.evolve_s"] == pytest.approx(1.0)
    assert m["gnormal.cell_steps"] == 44
    assert m["gnormal.bytes_moved"] == 44 * counts.BYTES_PER_CELL_STEP
    assert m["core.calls"] == 1 and m["core.busy_s"] == pytest.approx(0.5)


def test_tracer_records_parents_and_skips_when_disabled():
    tracer = Tracer()
    inner = tracer.wrap("iid.inner", lambda x: x + 1)
    outer = tracer.wrap("lln.outer", lambda x: inner(x) * 2)
    assert outer(1) == 4 and tracer.spans == []
    tracer.enabled = True
    tracer.begin_op(0, "op")
    assert outer(1) == 4
    tracer.end_op()
    names = [(s.name, s.parent) for s in tracer.take()]
    assert names == [("bench.op", -1), ("lln.outer", 0), ("iid.inner", 1)]


# -- computed counts ---------------------------------------------------------


def _families():
    rng = np.random.default_rng(7)
    yield sublex.canonical_set()
    yield sublex.AmbiguitySet.from_rows((-2.0, 0.0, 1.0, 3.0), ((0.25,) * 4,))
    for atoms, meas in ((3, 2), (3, 3), (4, 2)):
        yield workloads.random_family(rng, atoms, meas)


@pytest.mark.parametrize("family", list(_families()))
def test_level_sizes_match_the_program_lattices(family):
    n = 9
    sizes = counts.level_sizes(family.grid.array, n)
    assert sizes == [len(iid.sum_lattice(family, k).states) for k in range(n + 1)]


@pytest.mark.parametrize("family", list(_families()))
def test_at_most_sizes_match_merged_unions(family):
    n = 7
    sizes = counts.level_sizes(family.grid.array, n, at_most=True)
    for j in range(n + 1):
        union = np.sort(np.concatenate([iid.sum_lattice(family, k).array for k in range(j + 1)]))
        assert sizes[j] == 1 + int(np.sum(np.diff(union) > iid.MERGE_TOL))


def test_maxabs_sizes_match_path_enumeration():
    offsets = sublex.canonical_set().grid.array
    sizes = counts.maxabs_level_sizes(offsets, 6)
    for k in range(7):
        states = set()
        for path in np.array(np.meshgrid(*[offsets] * k)).reshape(k, -1).T if k else [[]]:
            s = np.cumsum(path) if k else np.zeros(0)
            states.add((float(s[-1]) if k else 0.0, float(np.max(np.abs(s), initial=0.0))))
        assert sizes[k] == len(states)


def test_heat_steps_match_the_stepper(monkeypatch):
    calls = []

    def maximum(*args, **kwargs):
        calls.append(1)
        return np.maximum(*args, **kwargs)

    proxy = types.SimpleNamespace(**{k: getattr(np, k) for k in dir(np) if not k.startswith("__")})
    proxy.maximum = maximum
    monkeypatch.setattr(gnormal, "np", proxy)
    params = gnormal.GNormalParams(0.5, 1.0)
    for nx, t in ((11, 1.0), (21, 0.3), (41, 1.0), (11, 0.0)):
        grid = gnormal.default_grid(params, nx=nx)
        calls.clear()
        gnormal.evolve(np.zeros(nx), t, params, grid)
        assert len(calls) == 2 * counts.heat_steps(t, grid.dt)  # two maxima per step


# -- references --------------------------------------------------------------


def test_walk_moments_small_cases():
    assert ref.srw_abs_moment(1, 3) == 1.0
    assert ref.srw_abs_moment(2, 3) == 4.0  # (8 + 0 + 0 + 8) / 4
    assert ref.lazy_abs_moment(1, 3) == 0.5
    assert ref.lazy_abs_moment(2, 2) == 1.0  # variance 1/2 per step


def test_walk_moments_match_the_recursion():
    family = sublex.canonical_set()
    upper = iid.sum_functional_series(family, 50, lambda s: np.abs(s) ** 3)
    lower = iid.sum_functional_series(family, 50, lambda s: np.abs(s) ** 3, maximize=False)
    for n in (1, 7, 50):
        assert ref.close(upper[n - 1], ref.srw_abs_moment(n, 3))
        assert ref.close(lower[n - 1], ref.lazy_abs_moment(n, 3))


def test_heat_closed_forms():
    exact = ref.heat_closed_forms(0.5, 1.0)
    assert exact["square"] == pytest.approx(1.0)
    assert exact["abs"] == pytest.approx(math.sqrt(2 / math.pi))
    assert exact["abs_cubed"] == pytest.approx(2 * math.sqrt(2 / math.pi))
    assert exact["neg_square"] == pytest.approx(-0.5)


def test_compare_columns_reports_the_first_mismatch():
    recorded = {"a": [1.0, 0.0, "x"]}
    assert ref.compare_columns({"a": [1.0 + 1e-13, 0.0, "x"]}, recorded) is None
    assert "row 1" in ref.compare_columns({"a": [1.0, 1e-300, "x"]}, recorded)
    assert "row 2" in ref.compare_columns({"a": [1.0, 0.0, "y"]}, recorded)
    assert "values" in ref.compare_columns({"a": [1.0]}, recorded)


# -- worker and runner -------------------------------------------------------


def test_failed_operations_do_not_stop_the_pass():
    def boom():
        raise MemoryError("over budget")

    ops = [workloads.Op("boom", boom), workloads.Op("ok", lambda: 1, lambda out: None),
           workloads.Op("wrong", lambda: 2, lambda out: "differs")]
    failures = []
    times, failed, wrong = worker.run_pass(workloads.Workload(ops, ()), Tracer(), failures)
    assert len(times) == 3 and failed == 2 and wrong == 1
    assert failures[0].startswith("boom: MemoryError")


def test_memory_budget_turns_an_oversized_allocation_into_memoryerror():
    code = (
        "import numpy as np, worker\n"
        "worker.set_memory_budget(1024**3)\n"
        "try:\n    np.ones(2**28)\nexcept MemoryError:\n    print('MemoryError')\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=ROOT / "bench", timeout=60)
    assert out.stdout.strip() == "MemoryError"


def test_runner_refuses_a_directory_without_sources():
    empty = ROOT / ".bench_run" / "no-sources"
    empty.mkdir(parents=True, exist_ok=True)
    try:
        out = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "irregular-grid",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=empty, timeout=60)
    finally:
        shutil.rmtree(empty)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_layer_metric_names_follow_the_naming_rule():
    import re

    for name in tracing.LAYER_METRICS:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == list(tracing.LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.LAYER_METRICS
