"""Deterministic command-line front end.

Reads a JSON experiment configuration, runs one subcommand, and writes
plottable CSV reports plus a run manifest into the output directory.
Identical configuration and seed produce byte-identical outputs.

Exit codes: 0 all assertions passed, 1 an assertion (mathematical check)
failed, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import lln
from .core import (
    ATOL,
    AmbiguitySet,
    TabulatedPayoff,
    axiom_report,
    capacity_pair,
)
from .errors import CheckError, ConfigError, Error
from .gnormal import g_expectation
from .iid import MERGE_TOL, capacity_sum_event, sum_functional_series
from .lln import ExperimentConfig

#: Named tolerances in effect for a run, recorded in every manifest.
TOLERANCES = {
    "comparison_atol": ATOL,
    "lattice_merge_tol": MERGE_TOL,
    "series_identity_tol": 1e-10,
    "pde_moment_tol": 1e-3,
    "tail_factor": 2.0,
    "mz_slope_limit": 0.05,
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
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "atoms": list(cfg.atoms),
        "measures": [list(row) for row in cfg.measures],
        "p": cfg.p,
        "alpha": cfg.alpha,
        "beta": cfg.beta,
        "N": cfg.horizon,
        "epsilons": list(cfg.epsilons),
        "seed": cfg.seed,
        "solver": {
            "nx": cfg.nx,
            "half_width": cfg.half_width,
            "dt_safety": cfg.dt_safety,
        },
        "trials": cfg.trials,
        "n_paths": cfg.n_paths,
    }


_TOP_KEYS = {
    "atoms",
    "measures",
    "p",
    "alpha",
    "beta",
    "N",
    "epsilons",
    "seed",
    "solver",
    "trials",
    "n_paths",
}
_SOLVER_KEYS = {"nx", "half_width", "dt_safety"}


def _integer(value, name: str) -> int:
    """``value`` as an int; booleans and numbers with a fractional part are refused."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{name}: must be an integer, got {value!r}")
    return int(value)


def config_from_dict(doc: dict) -> ExperimentConfig:
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    for required in ("atoms", "measures"):
        if required not in doc:
            raise ConfigError(f"missing required key {required!r}")
    solver = doc.get("solver", {})
    if not isinstance(solver, dict):
        raise ConfigError("solver: must be an object")
    unknown = set(solver) - _SOLVER_KEYS
    if unknown:
        raise ConfigError(f"unknown solver keys: {sorted(unknown)}")
    try:
        cfg = ExperimentConfig(
            atoms=tuple(doc["atoms"]),
            measures=tuple(tuple(row) for row in doc["measures"]),
            p=float(doc.get("p", 2.0)),
            alpha=float(doc.get("alpha", 4.0)),
            beta=float(doc.get("beta", 3.0)),
            horizon=_integer(doc.get("N", 100), "N"),
            epsilons=tuple(doc.get("epsilons", (0.5,))),
            seed=_integer(doc.get("seed", 0), "seed"),
            nx=_integer(solver.get("nx", 801), "solver.nx"),
            half_width=(None if solver.get("half_width") is None else float(solver["half_width"])),
            dt_safety=float(solver.get("dt_safety", 0.9)),
            trials=_integer(doc.get("trials", 1000), "trials"),
            n_paths=_integer(doc.get("n_paths", 10000), "n_paths"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed configuration value: {exc}") from exc
    cfg.ambiguity_set  # force grid/measure invariants at load time
    return cfg


def load_document(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level value must be an object")
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
            raise ConfigError(f"override {item!r} is not of the form key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target = out
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ConfigError(f"override {key!r} descends into a non-object")
        target[parts[-1]] = value
    return out


# ---------------------------------------------------------------------------
# subcommand runners: each writes CSVs and returns the list of files written


def _random_instance(rng: np.random.Generator) -> AmbiguitySet:
    n_atoms = int(rng.integers(2, 6))
    atoms = np.cumsum(0.2 + rng.random(n_atoms)) - 1.5
    n_meas = int(rng.integers(1, 5))
    rows = []
    for _ in range(n_meas):
        w = rng.random(n_atoms) + 1e-3
        rows.append(w / w.sum())
    return AmbiguitySet.from_rows(atoms, rows)


def _run_axioms(cfg: ExperimentConfig, out: Path) -> list[str]:
    rng = np.random.default_rng(cfg.seed)
    rows = []
    failures = 0
    for trial in range(cfg.trials):
        ambiguity = _random_instance(rng)
        atoms = ambiguity.grid.atoms
        pa = TabulatedPayoff(atoms, tuple(rng.uniform(-5, 5, len(atoms))))
        pb = TabulatedPayoff(atoms, tuple(rng.uniform(-5, 5, len(atoms))))
        lam = float(3.0 * rng.random())
        c = float(rng.uniform(-5, 5))
        report = axiom_report(ambiguity, pa, pb, lam, c)
        for check in report.checks:
            rows.append((trial, check.name, check.residual))
            failures += 0 if check.passed else 1

        mask = rng.random(len(atoms)) < 0.5
        event = [a for a, keep in zip(atoms, mask) if keep]
        complement = [a for a, keep in zip(atoms, mask) if not keep]
        upper_v, _ = capacity_pair(ambiguity, event)
        _, lower_c = capacity_pair(ambiguity, complement)
        defect = abs(upper_v + lower_c - 1.0)
        rows.append((trial, "capacity_complement", defect))
        failures += 0 if defect == 0.0 else 1

        if complement:
            grown = event + [complement[0]]
            grown_v, _ = capacity_pair(ambiguity, grown)
            slack = upper_v - grown_v  # monotone growth: violation > 0
            rows.append((trial, "capacity_monotone", slack))
            failures += 0 if slack <= ATOL else 1

    _write_csv(out / "axioms.csv", ("trial", "check", "residual"), rows)
    if failures:
        raise CheckError(f"{failures} axiom checks exceeded the {ATOL} tolerance")
    return ["axioms.csv"]


def _run_eval(cfg: ExperimentConfig, out: Path) -> list[str]:
    ambiguity = cfg.ambiguity_set
    ambiguity.require_mean_certain("eval")
    n, p = cfg.horizon, cfg.p
    psi = lambda s: np.abs(s / n) ** p
    upper = float(sum_functional_series(ambiguity, n, psi, centered=True)[-1])
    lower = float(sum_functional_series(ambiguity, n, psi, centered=True, maximize=False)[-1])
    rows = [("upper", upper), ("lower", lower)]
    _write_csv(out / "eval.csv", ("quantity", "value"), rows)
    if lower > upper + ATOL:
        raise CheckError(f"lower expectation {lower} exceeds upper {upper}")
    return ["eval.csv"]


def _run_capacity(cfg: ExperimentConfig, out: Path) -> list[str]:
    ambiguity = cfg.ambiguity_set
    mu = ambiguity.require_mean_certain("capacity")
    n = cfg.horizon
    rows = []
    for eps in cfg.epsilons:
        threshold = n * eps - 1e-12
        event = lambda s: abs(s - n * mu) >= threshold
        upper = capacity_sum_event(ambiguity, n, event)
        lower = capacity_sum_event(ambiguity, n, event, maximize=False)
        if lower > upper + ATOL:
            raise CheckError(f"lower capacity {lower} exceeds upper {upper} at eps={eps}")
        rows.append((eps, upper, lower))
    _write_csv(out / "capacity.csv", ("epsilon", "V", "v"), rows)
    return ["capacity.csv"]


_GHEAT_BATTERY: tuple[tuple[str, Callable[[np.ndarray], np.ndarray]], ...] = (
    ("square", lambda x: x**2),
    ("abs", np.abs),
    ("abs_cubed", lambda x: np.abs(x) ** 3),
    ("neg_square", lambda x: -(x**2)),
    ("cos", np.cos),
)


def _run_gheat(cfg: ExperimentConfig, out: Path) -> list[str]:
    params = cfg.gnormal_params()
    grid = cfg.heat_grid()
    rows = []
    for name, payoff in _GHEAT_BATTERY:
        result = g_expectation(payoff, params, grid)
        rows.append((name, result.value, result.residual_estimate))
    _write_csv(out / "gheat.csv", ("payoff", "value", "residual"), rows)
    return ["gheat.csv"]


def _run_clt(cfg: ExperimentConfig, out: Path) -> list[str]:
    ambiguity = cfg.ambiguity_set
    ambiguity.require_mean_certain("clt")
    params = cfg.gnormal_params()
    limit = g_expectation(lambda x: np.abs(x) ** cfg.p, params, cfg.heat_grid())
    n_list = [n for n in (2**k for k in range(4, 30)) if n <= cfg.horizon] or [cfg.horizon]
    raw = sum_functional_series(
        ambiguity, max(n_list), lambda s: np.abs(s) ** cfg.p, centered=True
    )
    rows = []
    gaps = []
    for n in n_list:
        scaled = float(raw[n - 1]) / n ** (cfg.p / 2.0)
        gap = abs(scaled - limit.value)
        rows.append((n, scaled, limit.value, gap))
        gaps.append(gap)
    _write_csv(out / "clt.csv", ("n", "scaled_moment", "limit_moment", "gap"), rows)
    slack = 2.0 * limit.residual_estimate
    for earlier, later in zip(gaps, gaps[1:]):
        if later > earlier + slack:
            raise CheckError(f"CLT gap grew from {earlier} to {later} beyond the slack {slack}")
    return ["clt.csv"]


def _series_rows(report: lln.SeriesReport):
    return list(
        zip(report.n_values, report.terms, report.partial_sums, report.reference, report.clt_gaps)
    )


def _run_lln_series(cfg: ExperimentConfig, out: Path) -> list[str]:
    report = lln.slp_series(
        cfg.ambiguity_set, cfg.p, cfg.horizon, params=cfg.gnormal_params(), grid=cfg.heat_grid()
    )
    verdict = lln.dichotomy_diagnosis(report, cfg.p, report.c_p)
    _write_csv(
        out / "lln_series.csv",
        ("n", "term", "partial_sum", "reference", "clt_gap"),
        _series_rows(report),
    )
    _write_csv(
        out / "verdict.csv",
        ("p", "regime", "burn_in"),
        [(cfg.p, verdict.regime, -1 if verdict.burn_in is None else verdict.burn_in)],
    )
    return ["lln_series.csv", "verdict.csv"]


def _run_mz(cfg: ExperimentConfig, out: Path) -> list[str]:
    n_list = list(range(2, min(12, cfg.horizon) + 1))
    report = lln.mz_check(cfg.ambiguity_set, cfg.alpha, n_list)
    rows = list(
        zip(report.n_values, report.lhs, report.rhs_core, report.mean_terms, report.ratios)
    )
    _write_csv(out / "mz_check.csv", ("n", "lhs", "rhs_core", "mean_term", "ratio"), rows)
    slope = lln.mz_trend_slope(report)
    _write_csv(
        out / "mz_summary.csv",
        ("quantity", "value"),
        [("running_max_ratio", report.running_max[-1]), ("trend_slope", slope)],
    )
    return ["mz_check.csv", "mz_summary.csv"]


def _run_corollary(cfg: ExperimentConfig, out: Path) -> list[str]:
    report = lln.corollary_series(
        cfg.ambiguity_set,
        cfg.p,
        cfg.beta,
        cfg.horizon,
        params=cfg.gnormal_params(),
        grid=cfg.heat_grid(),
    )
    _write_csv(
        out / "corollary.csv",
        ("n", "term", "partial_sum", "reference", "clt_gap"),
        _series_rows(report),
    )
    evidence = lln.tail_consistency(report)
    if report.tail.exponent <= 1.0 or evidence["max_increment_ratio"] > TOLERANCES["tail_factor"]:
        raise CheckError(f"weighted series fails the tail criterion: {evidence}")
    return ["corollary.csv"]


def _run_cc(cfg: ExperimentConfig, out: Path) -> list[str]:
    outputs = []
    for i, eps in enumerate(cfg.epsilons):
        report = lln.cc_series(cfg.ambiguity_set, eps, cfg.alpha, cfg.horizon)
        name = f"cc_series_{i}.csv"
        _write_csv(
            out / name,
            ("n", "capacity", "markov_bound"),
            list(zip(report.n_values, report.terms, report.reference)),
        )
        evidence = lln.tail_consistency(report)
        if (
            report.tail.exponent <= 1.0
            or evidence["max_increment_ratio"] > TOLERANCES["tail_factor"]
        ):
            raise CheckError(f"capacity series at eps={eps} fails the tail criterion: {evidence}")
        outputs.append(name)
    return outputs


def _run_subadd(cfg: ExperimentConfig, out: Path) -> list[str]:
    lhs, rhs, margin = lln.subadditive_series_check(cfg.ambiguity_set, cfg.beta, cfg.horizon)
    _write_csv(
        out / "subadd.csv",
        ("quantity", "value"),
        [("lhs", lhs), ("rhs", rhs), ("margin", margin)],
    )
    return ["subadd.csv"]


def _run_sqs(cfg: ExperimentConfig, out: Path) -> list[str]:
    summary = lln.sqs_empirical(
        cfg.ambiguity_set, cfg.beta, cfg.horizon, cfg.n_paths, cfg.seed
    )
    rows = [
        (s.label, s.exact, s.mean, s.stderr, s.minimum, s.q25, s.median, s.q75, s.maximum)
        for s in summary.policies
    ]
    _write_csv(
        out / "sqs.csv",
        ("policy", "exact", "mean", "stderr", "min", "q25", "median", "q75", "max"),
        rows,
    )
    _write_csv(
        out / "sqs_bound.csv",
        ("quantity", "value"),
        [
            ("dp_upper", summary.dp_value),
            ("max_policy_mean", summary.max_policy_mean),
            ("max_path_value", summary.max_path_value),
        ],
    )
    return ["sqs.csv", "sqs_bound.csv"]


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
    """Execute one subcommand, writing its CSV artifacts and manifest."""
    if subcommand not in _RUNNERS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = _RUNNERS[subcommand](cfg, out)
    manifest = RunManifest(
        subcommand=subcommand,
        config=config_to_dict(cfg),
        seed=cfg.seed,
        out_dir=str(out_dir),
        outputs=tuple(outputs),
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
