"""The benchmark's workloads: operations, their inputs and their checks.

Each workload is a fixed list of operations issued back to back by one
caller (a closed loop).  An operation's ``call`` is what gets timed; its
``check`` runs afterwards, untimed, and returns a failure reason or None.
``sublex`` is imported inside the build functions, so this module loads without it.

Why these workloads (see README.md for which metric each should move):

* ``cli-canonical`` -- every subcommand through ``sublex.cli.main`` on
  ``configs/canonical.json``: the project's end-to-end definition, and the
  only workload with CLI I/O, report assembly and path sampling.
* ``canonical-scale`` -- library calls on the canonical family at sizes
  where the lattice dynamic programs and the PDE dominate.
* ``irregular-grid`` -- seeded random families with float atoms, whose
  lattices are incommensurable: the float-merge path, wide and shallow.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import references as ref

CANONICAL_CONFIG = Path("configs") / "canonical.json"

#: ``sqs`` draws this many paths per policy instead of the config's 10 000,
#: so that one pass over the CLI takes seconds.  Chosen for run length only.
SQS_PATHS = 1000


class CliExit(Exception):
    """A subcommand returned a non-zero exit code: a failed operation."""


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None] = lambda out: None
    #: the deterministic columns of the output that golden.json records
    extract: Callable[[Any], dict] | None = None


@dataclass
class Workload:
    ops: list[Op]
    probe: tuple  # (ambiguity set, N) of the workload's largest lattice
    heat: dict[str, float] = field(default_factory=dict)  # payoff -> |error|
    golden: dict[str, Any] = field(default_factory=dict)  # op -> recorded columns

    def record(self, op: Op, out: Any) -> None:
        """Store the columns ``op`` is checked against (golden recording)."""
        cols = op.extract(out) if op.extract is not None else None
        if cols:
            self.golden[op.name] = cols


def _golden_op(name: str, call: Callable[[], Any], extract: Callable[[Any], dict],
               golden: dict) -> Op:
    """An operation whose extracted columns must match the recorded ones."""

    def check(out: Any) -> str | None:
        if name not in golden:
            return f"no recorded values for {name}"
        return ref.compare_columns(extract(out), golden[name])

    return Op(name, call, check, extract)


def _heat_ops(workload: Workload, params, grid, tag: str) -> list[Op]:
    """The G-heat battery with closed forms, one solve per payoff."""
    import numpy as np

    from sublex import gnormal

    payoffs = {
        "square": lambda x: x**2,
        "abs": np.abs,
        "abs_cubed": lambda x: np.abs(x) ** 3,
        "neg_square": lambda x: -(x**2),
    }
    exact = ref.heat_closed_forms(params.sigma_lower_sq, params.sigma_upper_sq)
    ops = []
    for label, payoff in payoffs.items():

        def check(result, label=label) -> str | None:
            err = abs(result.value - exact[label])
            workload.heat[label] = err
            if err > ref.HEAT_ATOL:
                return f"G-heat {label}: {result.value} is {err} from the closed form {exact[label]}"
            return None

        call = (lambda payoff=payoff: gnormal.g_expectation(payoff, params, grid))
        ops.append(Op(f"gheat-{tag}-{label}", call, check))
    return ops


# --------------------------------------------------------------------------
# cli-canonical


def _cli_columns(out_dir: Path, sub: str) -> dict[str, dict[str, list]]:
    """The deterministic columns a subcommand writes: the ones that depend
    neither on the PDE nor on sampling (those are checked separately)."""
    keep = {
        "eval": {"eval.csv": None},
        "capacity": {"capacity.csv": None},
        "clt": {"clt.csv": ("n", "scaled_moment")},
        "lln-series": {"lln_series.csv": ("n", "term", "partial_sum"), "verdict.csv": None},
        "mz-check": {"mz_check.csv": None, "mz_summary.csv": None},
        "corollary": {"corollary.csv": ("n", "term", "partial_sum")},
        "cc-series": {"cc_series_0.csv": None},
        "subadd": {"subadd.csv": None},
    }.get(sub, {})
    cols: dict[str, dict[str, list]] = {}
    for fname, wanted in keep.items():
        table = ref.read_csv(out_dir / fname)
        if sub == "subadd":  # lhs and rhs; the margin is their difference
            table = {k: v[:2] for k, v in table.items()}
        for col, cells in table.items():
            if wanted is None or col in wanted:
                cols[f"{fname}:{col}"] = ref.numeric(cells)
    return cols


def _cli_closed_form_check(
    out_dir: Path, sub: str, cfg, workload: Workload, golden: dict
) -> str | None:
    """Checks of the CSV columns that depend on the PDE, against closed forms,
    and of the exact value ``sqs`` samples against."""
    lo, hi = cfg.ambiguity_set.variance_interval
    p = cfg.p
    c_p = ref.normal_abs_moment(p, hi)
    if sub == "gheat":
        exact = ref.heat_closed_forms(lo, hi)
        table = ref.read_csv(out_dir / "gheat.csv")
        for label, value in zip(table["payoff"], table["value"]):
            if label in exact:
                err = abs(float(value) - exact[label])
                workload.heat[label] = err
                if err > ref.HEAT_ATOL:
                    return f"gheat {label}: {value} is {err} from the closed form {exact[label]}"
        return None
    if sub == "sqs":
        # the additive recursion sqs bounds its samples by is the one whose
        # value subadd reports as lhs (same beta, horizon and costs)
        dp_upper = float(ref.read_csv(out_dir / "sqs_bound.csv")["value"][0])
        lhs = golden.get("cli.subadd", {}).get("subadd.csv:value", [math.nan])[0]
        if not ref.close(dp_upper, lhs):
            return f"sqs dp_upper {dp_upper!r} differs from the recorded subadd lhs {lhs!r}"
        return None
    if sub == "subadd":
        lhs, rhs, margin = (float(v) for v in ref.read_csv(out_dir / "subadd.csv")["value"])
        if not ref.close(margin, rhs - lhs, scale=rhs):
            return f"subadd margin {margin!r} is not rhs - lhs"
        return None
    if sub == "eval":
        n = cfg.horizon
        table = dict(zip(*ref.read_csv(out_dir / "eval.csv").values()))
        want = {
            "upper": ref.srw_abs_moment(n, int(p)) / n**p,
            "lower": ref.lazy_abs_moment(n, int(p)) / n**p,
        }
        for key, value in want.items():
            if not ref.close(float(table[key]), value):
                return f"eval {key}: {table[key]} differs from the walk moment {value!r}"
        return None
    if sub == "clt":
        table = ref.read_csv(out_dir / "clt.csv")
        for scaled, limit, gap in zip(table["scaled_moment"], table["limit_moment"], table["gap"]):
            if abs(float(limit) - c_p) > ref.HEAT_ATOL:
                return f"clt limit_moment {limit} is off the closed form {c_p}"
            if abs(float(gap) - abs(float(scaled) - c_p)) > ref.HEAT_ATOL:
                return f"clt gap {gap} disagrees with |scaled - c_p|"
        return None
    if sub in ("lln-series", "corollary"):
        fname = "lln_series.csv" if sub == "lln-series" else "corollary.csv"
        weight = p if sub == "lln-series" else cfg.beta  # term = raw * n^-weight
        table = ref.read_csv(out_dir / fname)
        for n, term, reference, gap in zip(table["n"], table["term"], table["reference"], table["clt_gap"]):
            n = int(n)
            scaled = float(term) * n ** (weight - p / 2)
            ref_unit = n ** (p / 2 - weight)
            if abs(float(reference) - c_p * ref_unit) > ref.HEAT_ATOL * ref_unit:
                return f"{fname} reference at n={n}: {reference} is off c_p n^{p / 2 - weight}"
            if abs(float(gap) - abs(scaled - c_p)) > ref.HEAT_ATOL:
                return f"{fname} clt_gap at n={n}: {gap} disagrees with |scaled - c_p|"
    return None


def build_cli_canonical(seed: int, root: Path) -> Workload:
    from sublex import cli

    overrides = ["--override", f"n_paths={SQS_PATHS}"]
    cfg = cli.config_from_dict(
        cli.apply_overrides(cli.load_document(root / CANONICAL_CONFIG), [f"n_paths={SQS_PATHS}"])
    )
    # paths relative to the checkout root keep the written bytes independent of where it is
    out_root = Path(".bench_run") / "cli-canonical"
    golden = ref.load_golden().get("cli-canonical", {})
    workload = Workload([], (cfg.ambiguity_set, cfg.horizon))
    for sub in cli.SUBCOMMANDS:
        out_dir = out_root / sub
        argv = [sub, "--config", str(CANONICAL_CONFIG), "--out", str(out_dir), *overrides]
        if sub == "axioms":
            # the random-instance property test draws from the workload seed;
            # every other subcommand keeps the config's own seed, so sqs runs
            # exactly as the canonical configuration defines it
            argv += ["--seed", str(seed)]

        def call(argv=argv) -> None:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            if code != 0:
                raise CliExit(f"exit {code}: {buf.getvalue().strip()}")

        def columns(result, sub=sub, out_dir=root / out_dir) -> dict:
            return _cli_columns(out_dir, sub)

        def check(result, sub=sub, out_dir=root / out_dir) -> str | None:
            cols = _cli_columns(out_dir, sub)
            if cols:
                if f"cli.{sub}" not in golden:
                    return f"no recorded values for cli.{sub}"
                problem = ref.compare_columns(cols, golden[f"cli.{sub}"])
                if problem:
                    return problem
            return _cli_closed_form_check(out_dir, sub, cfg, workload, golden)

        workload.ops.append(Op(f"cli.{sub}", call, check, columns))
    return workload


# --------------------------------------------------------------------------
# canonical-scale

SCALE_SERIES_N = 2000
SCALE_CC_N = 200
SCALE_MZ_MAX_N = 64
SCALE_SUBADD_N = 1000
SCALE_EVAL_N = 1000
SCALE_HEAT_NX = 1601
#: Horizons at which the |S_n|^3 series is checked against the exact walk moment.
SERIES_LADDER = (1, 2, 3, 5, 10, 20, 50, 100, 200, 500, 1000, 2000)


def build_canonical_scale(seed: int, root: Path) -> Workload:
    import numpy as np

    import sublex
    from sublex import gnormal, iid, lln

    family = sublex.canonical_set()
    params = gnormal.GNormalParams.from_ambiguity(family)
    grid = gnormal.default_grid(params, nx=SCALE_HEAT_NX)
    golden = ref.load_golden().get("canonical-scale", {})
    workload = Workload([], (family, SCALE_SERIES_N))

    def series_check(values) -> str | None:
        for n in SERIES_LADDER:
            want = ref.srw_abs_moment(n, 3)
            if not ref.close(float(values[n - 1]), want):
                return f"E|S_{n}|^3 = {values[n - 1]!r}, the walk moment is {want!r}"
        return None

    def eval_check(result) -> str | None:
        value, policy = result
        want = ref.srw_abs_moment(SCALE_EVAL_N, 3)
        if policy.horizon != SCALE_EVAL_N:
            return f"policy covers {policy.horizon} steps, expected {SCALE_EVAL_N}"
        if not ref.close(value, want):
            return f"E|S_{SCALE_EVAL_N}|^3 = {value!r}, the walk moment is {want!r}"
        return None

    def series_columns(report) -> dict:
        return {"terms": list(report.terms), "reference": list(report.reference)}

    def mz_columns(report) -> dict:
        return {"lhs": list(report.lhs), "rhs_core": list(report.rhs_core), "ratios": list(report.ratios)}

    def subadd_columns(result) -> dict:
        return {"lhs": [result[0]], "rhs": [result[1]]}

    workload.ops = [
        Op(f"series-{SCALE_SERIES_N}",
           lambda: iid.sum_functional_series(family, SCALE_SERIES_N, lambda s: np.abs(s) ** 3),
           series_check),
        _golden_op(f"cc-{SCALE_CC_N}", lambda: lln.cc_series(family, 0.5, 4.0, SCALE_CC_N),
                   series_columns, golden),
        _golden_op(f"mz-{SCALE_MZ_MAX_N}",
                   lambda: lln.mz_check(family, 4.0, list(range(2, SCALE_MZ_MAX_N + 1)), max_n=SCALE_MZ_MAX_N),
                   mz_columns, golden),
        _golden_op(f"subadd-{SCALE_SUBADD_N}",
                   lambda: lln.subadditive_series_check(family, 2.6, SCALE_SUBADD_N),
                   subadd_columns, golden),
        Op(f"eval-{SCALE_EVAL_N}",
           lambda: iid.eval_sum_functional(family, SCALE_EVAL_N, lambda s: abs(s) ** 3),
           eval_check),
        *_heat_ops(workload, params, grid, str(SCALE_HEAT_NX)),
    ]
    return workload


# --------------------------------------------------------------------------
# irregular-grid

#: (atoms, measures, horizon of the terminal and capacity recursions,
#: horizon of the all-n series, enumeration oracle depth) per family.
#: The series reaches sums of *at most* n draws, so its lattice grows one
#: dimension faster; its horizon keeps every family's share comparable.
IRREGULAR_SHAPES = ((3, 2, 150, 60, 3), (3, 3, 150, 60, 3), (4, 2, 40, 40, 2), (4, 3, 40, 40, 2))
IRREGULAR_HEAT_NX = 801
ORACLE_RTOL = 1e-9


def random_family(rng, n_atoms: int, n_measures: int):
    """Float atoms in [-1.5, 1.5] at least 0.1 apart, weights bounded away from 0."""
    import numpy as np

    import sublex

    while True:
        atoms = np.sort(rng.uniform(-1.5, 1.5, n_atoms))
        if np.min(np.diff(atoms)) >= 0.1:
            break
    rows = []
    for _ in range(n_measures):
        w = rng.random(n_atoms) + 0.05
        rows.append(w / w.sum())
    return sublex.AmbiguitySet.from_rows(atoms, rows)


def build_irregular_grid(seed: int, root: Path) -> Workload:
    import numpy as np

    from sublex import gnormal, iid

    rng = np.random.default_rng(seed)
    families = [(random_family(rng, a, m), n, ns, no) for a, m, n, ns, no in IRREGULAR_SHAPES]
    workload = Workload([], (families[0][0], families[0][1]))

    def cube(s):
        return abs(s) ** 3

    def cube_array(s):
        return np.abs(s) ** 3

    def path_cube(xs):
        return abs(float(np.sum(xs))) ** 3

    for i, (family, n, n_series, n_oracle) in enumerate(families):
        threshold = n * float(np.mean(family.per_measure_means))
        one_step = float(np.max(family.weight_matrix @ np.abs(family.grid.array) ** 3))

        def series_check(values, one_step=one_step) -> str | None:
            if not ref.close(float(values[0]), one_step):
                return f"one-step value {values[0]!r} differs from max_theta E|X|^3 = {one_step!r}"
            return None

        def oracle_check(value, family=family, n_oracle=n_oracle) -> str | None:
            dp, _ = iid.eval_sum_functional(family, n_oracle, cube)
            series = iid.sum_functional_series(family, n_oracle, cube_array)[-1]
            for label, got in (("recursion", dp), ("series", series)):
                if not ref.close(got, value, ORACLE_RTOL):
                    return f"{label} {got!r} differs from the enumeration oracle {value!r} at n={n_oracle}"
            return None

        def capacity_check(value) -> str | None:
            return None if 0.0 <= value <= 1.0 else f"capacity {value} outside [0, 1]"

        workload.ops += [
            Op(f"eval-{i}", lambda f=family, n=n: iid.eval_sum_functional(f, n, cube)),
            Op(f"capacity-{i}",
               lambda f=family, n=n, t=threshold: iid.capacity_sum_event(f, n, lambda s: s >= t),
               capacity_check),
            Op(f"series-{i}", lambda f=family, n=n_series: iid.sum_functional_series(f, n, cube_array),
               series_check),
            Op(f"oracle-{i}", lambda f=family, n=n_oracle: iid.brute_force_oracle(f, n, path_cube),
               oracle_check),
        ]
    # the G-normal law of the first family's variance ratio, at unit upper variance
    lo, hi = families[0][0].variance_interval
    params = gnormal.GNormalParams(lo / hi, 1.0)
    workload.ops += _heat_ops(workload, params, gnormal.default_grid(params, nx=IRREGULAR_HEAT_NX),
                              str(IRREGULAR_HEAT_NX))
    return workload


WORKLOADS: dict[str, Callable[[int, Path], Workload]] = {
    "cli-canonical": build_cli_canonical,
    "canonical-scale": build_canonical_scale,
    "irregular-grid": build_irregular_grid,
}


def heat_err(workload: Workload) -> float:
    """Worst |G-heat value - closed form| seen by the workload's checks."""
    return max(workload.heat.values()) if workload.heat else math.nan
