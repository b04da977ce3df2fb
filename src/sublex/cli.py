"""Deterministic command-line front end.

Reads a JSON experiment configuration, runs one subcommand, and writes
plottable CSV reports plus a run manifest into the output directory.
Identical configuration and seed produce byte-identical outputs.

Exit codes: 0 all assertions passed, 1 an assertion (mathematical check)
failed (CheckError), 2 a usage error or any other sublex Error
(ParameterError, CapacityError).  A run that exits nonzero writes nothing.
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import core, iid, lln
from .core import ATOL, AmbiguitySet, _axiom_residuals, _AXIOMS, _check_stacked, _upper_many
from .errors import CheckError, Error, ParameterError
from .gnormal import GNormalParams, HeatGrid, _g_expectations, _limit_abs_moment, default_grid
from .iid import MERGE_TOL, capacity_sum_event, sum_functional_series

#: The tolerances a run applies, each read from the constant that applies it,
#: recorded in every manifest.
TOLERANCES = {
    "comparison_atol": ATOL,
    "lattice_merge_tol": MERGE_TOL,
    "tail_factor": lln.TAIL_FACTOR,
    "sampling_z": lln.SAMPLING_Z,
}


@dataclass(frozen=True)
class RunManifest:
    """Everything that determined a run: reproducing it is replaying this file."""

    subcommand: str
    config: dict
    seed: int
    out_dir: str
    outputs: tuple[str, ...]
    tolerances: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


def _entry(key: str, convert, rule: str, check, default: Any = MISSING):
    """A config field: its JSON key (dotted inside the solver block), the
    conversion of its value, and its admissible range as a rule for messages
    and a check."""
    return field(default=default, metadata=dict(key=key, convert=convert, rule=rule, check=check))


def _real(value) -> float:
    """``value`` as a finite float; booleans are refused."""
    number = float(value)
    if isinstance(value, bool) or not math.isfinite(number):
        raise ValueError(value)
    return number


def _reals(values) -> tuple[float, ...]:
    return tuple(_real(v) for v in values)


def _integer(value) -> int:
    """``value`` as an int; booleans and numbers with a fractional part are refused."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(value)
    return int(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: an ambiguity set plus exponents, horizon and solver settings.

    The fields are the configuration schema: each names its JSON key, its
    conversion and its range, and a field without a default is required.
    An invalid value raises ParameterError naming its key.
    """

    atoms: tuple[float, ...] = _entry("atoms", _reals, "a nonempty list of finite numbers", bool)
    measures: tuple[tuple[float, ...], ...] = _entry(
        "measures", lambda rows: tuple(map(_reals, rows)),
        "a nonempty list of rows of finite numbers", bool
    )
    p: float = _entry("p", _real, "a finite number > 0", lambda x: x > 0.0, 2.0)
    alpha: float = _entry("alpha", _real, "a finite number > 2", lambda x: x > 2.0, 4.0)
    beta: float = _entry("beta", _real, "a finite number > 2", lambda x: x > 2.0, 3.0)
    horizon: int = _entry("N", _integer, "an integer >= 1", lambda n: n >= 1, 100)
    epsilons: tuple[float, ...] = _entry(
        "epsilons", _reals, "a nonempty list of finite numbers > 0",
        lambda e: bool(e) and min(e) > 0.0, (0.5,)
    )
    seed: int = _entry("seed", _integer, "an integer >= 0", lambda n: n >= 0, 0)
    nx: int = _entry("solver.nx", _integer, "an integer >= 5", lambda n: n >= 5, 801)
    half_width: float | None = _entry(
        "solver.half_width", lambda x: x if x is None else _real(x), "null or a finite number > 0",
        lambda x: x is None or x > 0.0, None
    )
    dt_safety: float = _entry(
        "solver.dt_safety", _real, "a finite number in (0, 1]", lambda x: 0.0 < x <= 1.0, 0.9
    )
    trials: int = _entry("trials", _integer, "an integer >= 1", lambda n: n >= 1, 1000)
    n_paths: int = _entry("n_paths", _integer, "an integer >= 1", lambda n: n >= 1, 10000)

    def __post_init__(self) -> None:
        for f in fields(self):
            entry, value = f.metadata, getattr(self, f.name)
            try:
                value = entry["convert"](value)
                admissible = entry["check"](value)
            except (TypeError, ValueError, OverflowError):
                admissible = False
            if not admissible:
                raise ParameterError(f"{entry['key']}: must be {entry['rule']}, got {value!r}")
            object.__setattr__(self, f.name, value)
        self.ambiguity_set  # the grid and measure invariants

    @cached_property
    def ambiguity_set(self) -> AmbiguitySet:
        return AmbiguitySet.from_rows(self.atoms, self.measures)

    def gnormal_params(self) -> GNormalParams:
        return GNormalParams.from_ambiguity(self.ambiguity_set)

    def heat_grid(self) -> HeatGrid:
        params = self.gnormal_params()
        if self.half_width is None:
            return default_grid(params, nx=self.nx, dt_safety=self.dt_safety)
        dx = 2.0 * self.half_width / (self.nx - 1)
        return HeatGrid(self.half_width, self.nx, self.dt_safety * dx * dx / params.sigma_upper_sq)


_SCHEMA = {f.metadata["key"]: f for f in fields(ExperimentConfig)}


def config_from_dict(doc: dict) -> ExperimentConfig:
    """The configuration a JSON document describes; keys absent from it take
    their defaults."""
    flat = {}
    for key, value in doc.items():
        if not any(k.startswith(f"{key}.") for k in _SCHEMA):
            flat[key] = value
        elif isinstance(value, dict):
            flat.update({f"{key}.{k}": v for k, v in value.items()})
        else:
            raise ParameterError(f"{key}: must be an object, got {value!r}")
    unknown = sorted(set(flat) - set(_SCHEMA) | {key for key in doc if "." in key})
    if unknown:
        raise ParameterError(f"unknown configuration keys {unknown}; the keys are {list(_SCHEMA)}")
    missing = [key for key, f in _SCHEMA.items() if f.default is MISSING and key not in flat]
    if missing:
        raise ParameterError(f"missing required configuration keys {missing}")
    return ExperimentConfig(**{_SCHEMA[key].name: value for key, value in flat.items()})


def config_to_dict(cfg: ExperimentConfig) -> dict:
    doc: dict = {}
    for key, f in _SCHEMA.items():
        group, _, name = key.rpartition(".")
        (doc.setdefault(group, {}) if group else doc)[name] = getattr(cfg, f.name)
    return json.loads(json.dumps(doc))  # tuples as lists


def load_document(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParameterError(f"{path}: top-level value must be an object")
    return doc


def parse_config(path: str | Path) -> ExperimentConfig:
    """Load and validate an experiment configuration document."""
    return config_from_dict(load_document(path))


def apply_overrides(doc: dict, overrides: Sequence[str]) -> dict:
    """Apply repeatable ``key=value`` overrides; dotted keys reach the solver block."""
    out = json.loads(json.dumps(doc))  # deep copy, JSON types only
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ParameterError(f"override {item!r} is not of the form key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target = out
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ParameterError(f"override {key!r} descends into a non-object")
        target[parts[-1]] = value
    return out


# ---------------------------------------------------------------------------
# subcommand runners: each runs its checks and returns its CSV tables, by
# file name, as (header, rows)

_Table = tuple[Sequence[str], Sequence[Sequence]]
_Tables = dict[str, _Table]


#: Bytes an ``axioms`` trial holds at most: its shape, its six residuals and
#: failure flags, its instance at the widest shape with the products that
#: check it, and its rows, a tuple per check beside the list of its
#: residuals as Python floats.
_TRIAL_BYTES = 1024


def _run_axioms(cfg: ExperimentConfig) -> _Tables:
    """The axioms and capacity identities on random instances, admitted
    against ``CHAIN_BUDGET_BYTES`` (``_TRIAL_BYTES`` a trial) before the
    first draw.  Every trial's (measures, atoms) shape is drawn first; then,
    shape by shape in increasing order, the instances of that shape are
    drawn as one block (atoms, weights, both payoffs, lambda, c and the event
    mask) and checked stacked.  The rows are written by trial."""
    held = _TRIAL_BYTES * cfg.trials
    if held > iid.CHAIN_BUDGET_BYTES:
        raise iid._over_budget(f"axioms of {cfg.trials} trials", held)
    rng = np.random.default_rng(cfg.seed)
    n_atoms = rng.integers(2, 6, cfg.trials)
    n_meas = rng.integers(1, 5, cfg.trials)
    names = (*_AXIOMS, "capacity_complement", "capacity_monotone")
    residuals = np.empty((cfg.trials, len(names)))
    grows = np.empty(cfg.trials, dtype=bool)
    for m, a in sorted(set(zip(n_meas.tolist(), n_atoms.tolist()))):
        members = np.flatnonzero((n_meas == m) & (n_atoms == a))
        t = members.size
        atoms = np.cumsum(0.2 + rng.random((t, a)), axis=1) - 1.5
        weights = rng.random((t, m, a)) + 1e-3
        weights /= weights.sum(axis=2, keepdims=True)
        va, vb = rng.uniform(-5, 5, (t, a)), rng.uniform(-5, 5, (t, a))
        lam, c = 3.0 * rng.random(t), rng.uniform(-5, 5, t)
        mask = rng.random((t, a)) < 0.5
        _check_stacked(atoms, weights)
        residuals[members, :4] = _axiom_residuals(weights, va, vb, lam, c)
        # V(A) + v(A^c) - 1, where capacity_pair's v(A^c) is 1 - V(A)
        upper = _upper_many(weights, mask.astype(float))
        residuals[members, 4] = np.abs(upper + (1.0 - upper) - 1.0)
        # the event grown by the first atom outside it (the event itself when full)
        grown = mask.copy()
        grown[np.arange(t), np.argmin(mask, axis=1)] = True
        residuals[members, 5] = upper - _upper_many(weights, grown.astype(float))
        # capacity_monotone is checked where the event has a complement to grow into
        grows[members] = ~mask.all(axis=1)
    rows = [
        (trial, name, r)
        for trial, (values, grow) in enumerate(zip(residuals.tolist(), grows.tolist()))
        for name, r in zip(names[: 5 + grow], values)
    ]
    failed = ~(residuals <= np.array([ATOL] * 4 + [0.0, ATOL]))  # capacity_complement is exact
    failures = int(np.count_nonzero(failed[:, :5]) + np.count_nonzero(failed[grows, 5]))
    if failures:
        raise CheckError(f"{failures} axiom checks exceeded the {ATOL} tolerance")
    return {"axioms.csv": (("trial", "check", "residual"), rows)}


def _run_eval(cfg: ExperimentConfig) -> _Tables:
    centred = core._shifted(cfg.ambiguity_set, cfg.ambiguity_set.require_mean_certain("eval"))
    n, p = cfg.horizon, cfg.p
    psi = lambda s: np.abs(s / n) ** p
    upper = float(sum_functional_series(centred, n, psi)[-1])
    lower = float(sum_functional_series(centred, n, psi, maximize=False)[-1])
    if lower > upper + ATOL:
        raise CheckError(f"lower expectation {lower} exceeds upper {upper}")
    return {"eval.csv": (("quantity", "value"), [("upper", upper), ("lower", lower)])}


def _run_capacity(cfg: ExperimentConfig) -> _Tables:
    ambiguity = cfg.ambiguity_set
    mu = ambiguity.require_mean_certain("capacity")
    n = cfg.horizon
    rows = []
    for eps in cfg.epsilons:
        event = lln._deviation_event(n, mu, eps)
        upper = capacity_sum_event(ambiguity, n, event)
        lower = capacity_sum_event(ambiguity, n, event, maximize=False)
        if lower > upper + ATOL:
            raise CheckError(f"lower capacity {lower} exceeds upper {upper} at eps={eps}")
        rows.append((eps, upper, lower))
    return {"capacity.csv": (("epsilon", "V", "v"), rows)}


_GHEAT_BATTERY: tuple[tuple[str, Callable[[np.ndarray], np.ndarray]], ...] = (
    ("square", lambda x: x**2),
    ("abs", np.abs),
    ("abs_cubed", lambda x: np.abs(x) ** 3),
    ("neg_square", lambda x: -(x**2)),
    ("cos", np.cos),
)


def _run_gheat(cfg: ExperimentConfig) -> _Tables:
    names, payoffs = zip(*_GHEAT_BATTERY)
    results = _g_expectations(payoffs, cfg.gnormal_params(), cfg.heat_grid())
    rows = [(name, r.value, r.residual_estimate) for name, r in zip(names, results)]
    return {"gheat.csv": (("payoff", "value", "residual"), rows)}


def _run_clt(cfg: ExperimentConfig) -> _Tables:
    centred = core._shifted(cfg.ambiguity_set, cfg.ambiguity_set.require_mean_certain("clt"))
    params = cfg.gnormal_params()
    limit, residual = _limit_abs_moment(cfg.p, params, cfg.heat_grid())
    n_list = [n for n in (2**k for k in range(4, 30)) if n <= cfg.horizon] or [cfg.horizon]
    raw = sum_functional_series(centred, max(n_list), lambda s: np.abs(s) ** cfg.p)
    rows = []
    gaps = []
    for n in n_list:
        scaled = float(raw[n - 1]) / n ** (cfg.p / 2.0)
        gap = abs(scaled - limit)
        rows.append((n, scaled, limit, gap))
        gaps.append(gap)
    slack = 2.0 * residual  # 0 where c_p is in closed form
    for earlier, later in zip(gaps, gaps[1:]):
        if later > earlier + slack:
            raise CheckError(f"CLT gap grew from {earlier} to {later} beyond the slack {slack}")
    return {"clt.csv": (("n", "scaled_moment", "limit_moment", "gap"), rows)}


def _series_table(report: lln.SeriesReport) -> _Table:
    columns = (report.n_values, report.terms, report.partial_sums, report.reference)
    header = ("n", "term", "partial_sum", "reference", "clt_gap")
    return header, list(zip(*columns, report.clt_gaps))


def _run_lln_series(cfg: ExperimentConfig) -> _Tables:
    report = lln.slp_series(cfg.ambiguity_set, cfg.p, cfg.horizon, grid=cfg.heat_grid())
    verdict = lln.dichotomy_diagnosis(report)
    burn_in = -1 if verdict.burn_in is None else verdict.burn_in
    return {
        "lln_series.csv": _series_table(report),
        "verdict.csv": (("p", "regime", "burn_in"), [(cfg.p, verdict.regime, burn_in)]),
    }


def _run_mz(cfg: ExperimentConfig) -> _Tables:
    if cfg.horizon < 2:
        raise ParameterError(f"N: mz-check needs N >= 2, got {cfg.horizon}")
    n_list = list(range(2, min(12, cfg.horizon) + 1))
    report = lln.mz_check(cfg.ambiguity_set, cfg.alpha, n_list)
    rows = list(
        zip(report.n_values, report.lhs, report.rhs_core, report.mean_terms, report.ratios)
    )
    slope = lln.mz_trend_slope(report)
    return {
        "mz_check.csv": (("n", "lhs", "rhs_core", "mean_term", "ratio"), rows),
        "mz_summary.csv": (
            ("quantity", "value"),
            [("running_max_ratio", report.running_max[-1]), ("trend_slope", slope)],
        ),
    }


def _run_corollary(cfg: ExperimentConfig) -> _Tables:
    report = lln.corollary_series(
        cfg.ambiguity_set, cfg.p, cfg.beta, cfg.horizon, grid=cfg.heat_grid()
    )
    lln._check_tail(report, "weighted series")
    return {"corollary.csv": _series_table(report)}


def _run_cc(cfg: ExperimentConfig) -> _Tables:
    tables: _Tables = {}
    for i, eps in enumerate(cfg.epsilons):
        report = lln.cc_series(cfg.ambiguity_set, eps, cfg.alpha, cfg.horizon)
        lln._check_tail(report, f"capacity series at eps={eps}")
        rows = list(zip(report.n_values, report.terms, report.reference))
        tables[f"cc_series_{i}.csv"] = (("n", "capacity", "markov_bound"), rows)
    return tables


def _run_subadd(cfg: ExperimentConfig) -> _Tables:
    lhs, rhs, margin = lln.subadditive_series_check(cfg.ambiguity_set, cfg.beta, cfg.horizon)
    return {"subadd.csv": (("quantity", "value"), [("lhs", lhs), ("rhs", rhs), ("margin", margin)])}


def _run_sqs(cfg: ExperimentConfig) -> _Tables:
    summary = lln.sqs_empirical(
        cfg.ambiguity_set, cfg.beta, cfg.horizon, cfg.n_paths, cfg.seed
    )
    rows = [
        (s.label, s.exact, s.mean, s.stderr, s.minimum, s.q25, s.median, s.q75, s.maximum)
        for s in summary.policies
    ]
    bound = [
        ("dp_upper", summary.dp_value),
        ("max_policy_mean", summary.max_policy_mean),
        ("max_path_value", summary.max_path_value),
    ]
    header = ("policy", "exact", "mean", "stderr", "min", "q25", "median", "q75", "max")
    return {"sqs.csv": (header, rows), "sqs_bound.csv": (("quantity", "value"), bound)}


_RUNNERS = {
    "axioms": _run_axioms,
    "eval": _run_eval,
    "capacity": _run_capacity,
    "gheat": _run_gheat,
    "clt": _run_clt,
    "lln-series": _run_lln_series,
    "mz-check": _run_mz,
    "corollary": _run_corollary,
    "cc-series": _run_cc,
    "subadd": _run_subadd,
    "sqs": _run_sqs,
}
SUBCOMMANDS = tuple(_RUNNERS)


def run(subcommand: str, cfg: ExperimentConfig, out_dir: str | Path) -> RunManifest:
    """Execute one subcommand, writing its CSV artifacts and manifest once
    every check has passed: a run that raises writes nothing."""
    if subcommand not in _RUNNERS:
        raise ParameterError(f"unknown subcommand {subcommand!r}")
    tables = _RUNNERS[subcommand](cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        _write_csv(out / name, header, rows)
    manifest = RunManifest(
        subcommand=subcommand,
        config=config_to_dict(cfg),
        seed=cfg.seed,
        out_dir=str(out_dir),
        outputs=tuple(tables),
        tolerances=dict(TOLERANCES),
    )
    (out / "manifest.json").write_text(manifest.to_json())
    return manifest


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sublex",
        description="exact experiments with sublinear expectations on finite ambiguity sets",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON configuration")
    parser.add_argument("--out", required=True, help="output directory for CSV artifacts")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config entry (repeatable; dotted keys reach the solver block)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        doc = load_document(args.config)
        doc = apply_overrides(doc, args.override)
        if args.seed is not None:
            doc["seed"] = args.seed
        cfg = config_from_dict(doc)
        manifest = run(args.subcommand, cfg, args.out)
    except CheckError as exc:
        print(f"FAIL: {exc}")
        return 1
    except Error as exc:
        print(f"error: {exc}")
        return 2
    print(f"ok: wrote {', '.join(manifest.outputs)} to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
