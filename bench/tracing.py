"""Spans around the calls between sublex's layers, and per-layer metrics.

Every wrapped name is replaced where the importing module binds it
(``sublex.lln.sum_functional_series``, ``sublex.gnormal.evolve``, ...), so a
span covers exactly one call from one layer into another.  Spans are kept
in memory; a layer's self time is its spans' durations minus the part their
child spans cover.  Nothing inside the program is changed.
"""

from __future__ import annotations

import functools
import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

from counts import BYTES_PER_CELL_STEP, LatticeCounter, heat_steps

SUBCOMMAND_METRICS = (
    "axioms", "eval", "capacity", "gheat", "clt", "lln-series",
    "mz-check", "corollary", "cc-series", "subadd", "sqs",
)

#: Per-layer metric names and units, in the order they are reported.
LAYER_METRICS: dict[str, str] = {
    "core.calls": "count",
    "core.busy_s": "s",
    "iid.dp_calls": "count",
    "iid.dp_s": "s",
    "iid.lattice_states": "count",
    "iid.states_per_s": "1/s",
    "iid.lattice_build_s": "s",
    "iid.paths": "count",
    "iid.sample_s": "s",
    "iid.path_steps_per_s": "1/s",
    "iid.oracle_calls": "count",
    "iid.oracle_s": "s",
    "gnormal.solves": "count",
    "gnormal.evolve_calls": "count",
    "gnormal.evolve_s": "s",
    "gnormal.cell_steps": "count",
    "gnormal.cell_steps_per_s": "1/s",
    "gnormal.bytes_moved": "B",
    "lln.calls": "count",
    "lln.self_s": "s",
    "cli.runs": "count",
    "cli.config_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "count",
    **{f"cli.{name}_s": "s" for name in SUBCOMMAND_METRICS},
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    start: float
    parent: int  # index of the enclosing span, -1 at the root
    op: int  # index of the benchmark operation the span belongs to
    end: float = 0.0
    work: tuple = ()  # inputs of a computed count, evaluated after the pass

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    op: int = -1
    enabled: bool = False

    def wrap(self, name: str, fn: Callable, work: Callable[..., tuple] | None = None,
             after: Callable[[Any, Span], None] | None = None) -> Callable:
        """``fn`` recording a span named ``name`` while tracing is enabled.

        ``work(*args, **kwargs)`` captures the inputs of a computed count;
        ``after(result, span)`` runs once the span has closed.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = Span(name, 0.0, self.stack[-1] if self.stack else -1, self.op)
            self.spans.append(span)
            self.stack.append(idx)
            span.start = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self.stack.pop()
            if work is not None:
                span.work = work(*args, **kwargs)
            if after is not None:
                after(return_value, span)
            return return_value

        return traced

    def begin_op(self, index: int, name: str) -> None:
        self.op = index
        if self.enabled:
            self.stack.append(len(self.spans))
            self.spans.append(Span(f"bench.{name}", perf_counter(), -1, index))

    def end_op(self) -> None:
        if self.enabled:
            self.spans[self.stack.pop()].end = perf_counter()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


# --------------------------------------------------------------------------
# instrumentation of the sublex modules


def _chain_work(ambiguity, n, *args, **kwargs) -> tuple:
    return ("exact", ambiguity.grid.array, int(n))


def _series_work(ambiguity, horizon, psi, centered=False, maximize=True) -> tuple:
    offsets = ambiguity.grid.array
    if centered:
        offsets = offsets - ambiguity.mean
    return ("at_most", offsets, int(horizon))


def _maxabs_work(ambiguity, n, *args, **kwargs) -> tuple:
    return ("maxabs", ambiguity.grid.array - ambiguity.mean, int(n))


def _sumsq_work(ambiguity, n, *args, **kwargs) -> tuple:
    return ("exact", (ambiguity.grid.array - ambiguity.mean) ** 2, int(n))


def _path_work(ambiguity, policy, n, seed) -> tuple:
    return ("path", int(n))


def _evolve_work(values, t, params, grid) -> tuple:
    return ("heat", int(grid.nx), heat_steps(float(t), grid.dt))


_DP_WORK = {
    "eval_sum_functional": _chain_work,
    "eval_lower_sum_functional": _chain_work,
    "eval_additive_functional": _chain_work,
    "_additive_dp": _chain_work,
    "capacity_sum_event": _chain_work,
    "lower_capacity_sum_event": _chain_work,
    "sum_functional_series": _series_work,
    "eval_maxabs_functional": _maxabs_work,
    "eval_sumsq_functional": _sumsq_work,
}

_CORE = ("axiom_report", "capacity_pair", "upper_expect", "lower_expect")
_LLN = (
    "slp_series", "corollary_series", "cc_series", "mz_check", "mz_trend_slope",
    "subadditive_series_check", "sqs_empirical", "dichotomy_diagnosis",
    "tail_consistency", "fit_tail", "holder_step_check", "moment_dichotomy_scan",
)
_CLI_CONFIG = ("load_document", "apply_overrides", "config_from_dict")


def _bytes_after_run(manifest, span: Span) -> None:
    out = manifest.out_dir
    names = list(manifest.outputs) + ["manifest.json"]
    span.work = ("bytes", sum(os.path.getsize(os.path.join(out, n)) for n in names))


def instrument(tracer: Tracer) -> None:
    """Wrap every cross-layer binding of the sublex modules with spans."""
    from sublex import cli, gnormal, iid, lln

    def patch(module, attr: str, span_name: str, work=None, after=None) -> None:
        if hasattr(module, attr):
            setattr(module, attr, tracer.wrap(span_name, getattr(module, attr), work, after))

    for module in (cli, lln, gnormal, iid):
        for attr in _CORE:
            patch(module, attr, f"core.{attr}")
        for attr, work in _DP_WORK.items():
            if module is not iid or not attr.startswith("_"):
                patch(module, attr, f"iid.{attr}", work)
        patch(module, "sample_path", "iid.sample_path", _path_work)
        patch(module, "brute_force_oracle", "iid.brute_force_oracle")
        patch(module, "g_expectation", "gnormal.g_expectation")
    patch(gnormal, "evolve", "gnormal.evolve", _evolve_work)
    for attr in _LLN:
        patch(lln, attr, f"lln.{attr}")
    for attr in _CLI_CONFIG:
        patch(cli, attr, f"cli.config.{attr}")
    patch(cli, "run", "cli.run", after=_bytes_after_run)
    patch(cli, "main", "cli.main")


# --------------------------------------------------------------------------
# per-layer metrics of one traced pass


def pass_metrics(spans: list[Span], counter: LatticeCounter) -> dict[str, float]:
    """Per-layer figures of one pass over a workload's operations."""
    own = self_times(spans)
    m = {name: 0.0 for name in LAYER_METRICS if name not in ("iid.lattice_build_s", "trace.overhead_s")}
    # fill the count cache at the largest horizon first, so each key is built once
    largest: dict[tuple, tuple] = {}
    for s in spans:
        if s.work and s.work[0] in ("exact", "at_most", "maxabs"):
            key = (s.work[0], tuple(s.work[1].tolist()))
            if key not in largest or s.work[2] > largest[key][2]:
                largest[key] = s.work
    for kind, offsets, n in largest.values():
        counter.visited(kind, offsets, n)
    path_steps = cell_steps = 0
    for s, self_s in zip(spans, own):
        layer, fn = s.name.split(".", 1)
        if layer == "core":
            m["core.calls"] += 1
            m["core.busy_s"] += self_s
        elif s.name == "iid.sample_path":
            m["iid.paths"] += 1
            m["iid.sample_s"] += self_s
            path_steps += s.work[1]
        elif s.name == "iid.brute_force_oracle":
            m["iid.oracle_calls"] += 1
            m["iid.oracle_s"] += self_s
        elif layer == "iid":
            m["iid.dp_calls"] += 1
            m["iid.dp_s"] += self_s
            m["iid.lattice_states"] += counter.visited(*s.work)
        elif s.name == "gnormal.g_expectation":
            m["gnormal.solves"] += 1
        elif s.name == "gnormal.evolve":
            m["gnormal.evolve_calls"] += 1
            m["gnormal.evolve_s"] += self_s
            cell_steps += s.work[1] * s.work[2]
        elif layer == "lln":
            m["lln.calls"] += 1
            m["lln.self_s"] += self_s
        elif layer == "cli" and fn.startswith("config."):
            m["cli.config_s"] += s.duration
        elif layer == "cli":
            m["cli.self_s"] += self_s
            if fn == "run":
                m["cli.runs"] += 1
                if s.work:  # absent when the run raised before returning
                    m["cli.bytes_written"] += s.work[1]
        elif layer == "bench" and fn.startswith("cli."):
            sub = fn[len("cli."):]
            m[f"cli.{sub}_s"] += s.duration
    m["gnormal.cell_steps"] = float(cell_steps)
    m["gnormal.bytes_moved"] = float(cell_steps * BYTES_PER_CELL_STEP)
    m["iid.states_per_s"] = m["iid.lattice_states"] / m["iid.dp_s"] if m["iid.dp_s"] else 0.0
    m["iid.path_steps_per_s"] = path_steps / m["iid.sample_s"] if m["iid.sample_s"] else 0.0
    m["gnormal.cell_steps_per_s"] = cell_steps / m["gnormal.evolve_s"] if m["gnormal.evolve_s"] else 0.0
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
