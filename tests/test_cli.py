import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import sublex as sx
from sublex import gnormal, iid, lln
from sublex.cli import (
    SUBCOMMANDS,
    ExperimentConfig,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    load_document,
    main,
    parse_config,
    run,
)

CANONICAL = {
    "atoms": [-1, 0, 1],
    "measures": [[0.25, 0.5, 0.25], [0.5, 0, 0.5]],
    "p": 3.0,
    "alpha": 4.0,
    "beta": 2.6,
    "N": 200,
    "epsilons": [0.5],
    "seed": 20240811,
    "solver": {"nx": 801, "dt_safety": 0.9},
    "trials": 1000,
    "n_paths": 10000,
}


@pytest.fixture()
def config_path(tmp_path) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CANONICAL))
    return path


def write_config(tmp_path, **changes) -> Path:
    doc = json.loads(json.dumps(CANONICAL))
    doc.update(changes)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestParseConfig:
    def test_valid_document(self, config_path):
        cfg = parse_config(config_path)
        assert cfg.p == 3.0
        assert cfg.horizon == 200
        assert cfg.ambiguity_set.variance_interval == (0.5, 1.0)

    def test_weights_not_summing(self, tmp_path):
        path = write_config(tmp_path, measures=[[0.4, 0.3, 0.2]])
        with pytest.raises(sx.ParameterError, match="weights"):
            parse_config(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "atoms": [1, 2,\n}')
        with pytest.raises(sx.ParameterError, match="line 3"):
            parse_config(path)

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, bogus=1)
        with pytest.raises(sx.ParameterError, match="bogus"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(sx.ParameterError):
            parse_config(tmp_path / "nope.json")

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(sx.ParameterError, match="object"):
            parse_config(path)

    @pytest.mark.parametrize("solver", [5, None, [1]])
    def test_solver_block_must_be_an_object(self, solver):
        with pytest.raises(sx.ParameterError, match="solver: must be an object"):
            config_from_dict({**CANONICAL, "solver": solver})

    def test_invalid_field_names_field(self, tmp_path):
        path = write_config(tmp_path, p=-1.0)
        with pytest.raises(sx.ParameterError, match="p:"):
            parse_config(path)

    def test_readme_matches_the_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        schema = {f.metadata["key"]: f for f in fields(ExperimentConfig)}
        block = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
        config_from_dict(block)
        keys = {k for k, v in block.items() if not isinstance(v, dict)}
        keys |= {f"{k}.{sub}" for k, v in block.items() if isinstance(v, dict) for sub in v}
        assert keys == set(schema)
        # the key table: one row per key with its default and its range
        rows = readme.split("\n| key ", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
        documented = {}
        for row in rows:
            key, default, rule = (cell.strip(" `") for cell in row.split("|")[1:4])
            documented[key] = (default, rule)
        assert documented == {
            key: ("required" if f.default is MISSING else json.dumps(f.default), f.metadata["rule"])
            for key, f in schema.items()
        }

    def test_roundtrip_through_dict(self, config_path):
        cfg = parse_config(config_path)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seed", 1.5),
            ("N", 2.7),
            ("N", True),
            ("trials", 3.9),
            ("n_paths", 10.5),
            ("solver.nx", 801.5),
        ],
    )
    def test_integer_fields_refuse_fractions_and_booleans(self, key, value):
        doc = apply_overrides(CANONICAL, [f"{key}={json.dumps(value)}"])
        with pytest.raises(sx.ParameterError, match=key):
            config_from_dict(doc)


class TestOverrides:
    def test_scalar_and_nested(self):
        doc = apply_overrides(CANONICAL, ["p=2.0", "solver.nx=401", "N=50"])
        assert doc["p"] == 2.0
        assert doc["solver"]["nx"] == 401
        assert doc["N"] == 50
        assert CANONICAL["p"] == 3.0  # original untouched

    def test_list_value(self):
        doc = apply_overrides(CANONICAL, ["epsilons=[0.25, 0.75]"])
        assert doc["epsilons"] == [0.25, 0.75]

    def test_malformed(self):
        with pytest.raises(sx.ParameterError):
            apply_overrides(CANONICAL, ["justakey"])


class TestExitCodes:
    def test_unknown_subcommand(self, config_path, tmp_path, capsys):
        code = main(["bogus", "--config", str(config_path), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_corollary_beta_boundary(self, config_path, tmp_path, capsys):
        code = main(
            [
                "corollary",
                "--config",
                str(config_path),
                "--out",
                str(tmp_path / "o"),
                "--override",
                "beta=2.5",
                "--override",
                "N=20",
            ]
        )
        assert code == 2
        assert "(p+2)/2" in capsys.readouterr().out

    def test_missing_config_file(self, tmp_path):
        code = main(["axioms", "--config", str(tmp_path / "no.json"), "--out", str(tmp_path)])
        assert code == 2

    def test_eval_ok(self, config_path, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["eval", "--config", str(config_path), "--out", str(out), "--override", "N=12"]
        )
        assert code == 0
        lines = (out / "eval.csv").read_text().splitlines()
        assert lines[0] == "quantity,value"
        assert lines[1].startswith("upper,") and lines[2].startswith("lower,")

    def test_mz_check_without_horizons_is_config_error(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "o")
        code = main(["mz-check", "--config", str(config_path), "--out", out, "--override", "N=1"])
        assert code == 2
        assert "at least one horizon" in capsys.readouterr().out

    def test_sqs_with_one_path_is_config_error(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "o")
        code = main(["sqs", "--config", str(config_path), "--out", out, "--override", "n_paths=1"])
        assert code == 2
        assert "n_paths" in capsys.readouterr().out

    def test_float_lattice_over_budget_is_capacity_error(self, tmp_path, capsys):
        # five incommensurable atoms, symmetric: mean-certain, float-merge lattice
        r2, r3 = 2**0.5, 3**0.5
        path = write_config(
            tmp_path,
            atoms=[-r3, -r2 / 2, 0.0, r2 / 2, r3],
            measures=[[0.1, 0.2, 0.4, 0.2, 0.1], [0.25, 0.05, 0.4, 0.05, 0.25]],
        )
        code = main(["eval", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "budget" in capsys.readouterr().out

    def test_mean_uncertain_set_is_config_error(self, tmp_path):
        path = write_config(tmp_path, measures=[[0.25, 0.5, 0.25], [0.1, 0.2, 0.7]])
        code = main(["eval", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize(
        "subcommand, changes, args, key",
        [
            ("lln-series", {"p": math.nan}, [], "p"),
            ("subadd", {}, ["--override", "beta=Infinity"], "beta"),
            ("axioms", {}, ["--seed", "-1"], "seed"),
            ("sqs", {"seed": -1}, [], "seed"),
            ("gheat", {"solver": {"half_width": math.nan}}, [], "solver.half_width"),
            ("clt", {"solver": {"half_width": math.nan}}, [], "solver.half_width"),
            ("lln-series", {"solver": {"half_width": math.nan}}, [], "solver.half_width"),
            ("corollary", {"solver": {"half_width": math.nan}}, [], "solver.half_width"),
            ("cc-series", {"epsilons": []}, [], "epsilons"),
            ("gheat", {}, ["--override", "solver.nx=3"], "solver.nx"),
            ("gheat", {}, ["--override", "solver.nx=4"], "solver.nx"),
        ],
        ids=[
            "p-nan",
            "beta-inf-override",
            "seed-flag-negative",
            "seed-negative",
            "half_width-nan-gheat",
            "half_width-nan-clt",
            "half_width-nan-lln-series",
            "half_width-nan-corollary",
            "epsilons-empty",
            "nx-3-gheat",
            "nx-4-gheat",
        ],
    )
    def test_invalid_value_exits_2_naming_its_key(
        self, tmp_path, capsys, subcommand, changes, args, key
    ):
        path = write_config(tmp_path, **changes)
        out = tmp_path / "o"
        code = main([subcommand, "--config", str(path), "--out", str(out), *args])
        assert code == 2
        assert capsys.readouterr().out.startswith(f"error: {key}: must be ")
        assert not out.exists()

    def test_smallest_solver_grid_runs_gheat(self, config_path, tmp_path):
        # nx = 5 is the smallest grid whose coarse rerun has 3 nodes
        out = tmp_path / "o"
        code = main(
            ["gheat", "--config", str(config_path), "--out", str(out), "--override", "solver.nx=5"]
        )
        assert code == 0
        assert (out / "gheat.csv").exists()


class TestArtifacts:
    def test_lln_series_schema_and_content(self, config_path, tmp_path):
        out = tmp_path / "series"
        code = main(
            [
                "lln-series",
                "--config",
                str(config_path),
                "--out",
                str(out),
                "--override",
                "p=2.0",
                "--override",
                "N=10",
            ]
        )
        assert code == 0
        lines = (out / "lln_series.csv").read_text().splitlines()
        assert lines[0] == "n,term,partial_sum,reference,clt_gap"
        assert len(lines) == 11
        first = lines[1].split(",")
        assert first[0] == "1" and float(first[1]) == 1.0
        tenth = lines[10].split(",")
        assert tenth[2] == "2.9289682539682538"  # 17 significant digits of H_10
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "lln-series"
        assert manifest["config"]["p"] == 2.0
        assert "lln_series.csv" in manifest["outputs"]

    def test_manifest_records_the_applied_tolerances(self, config_path, tmp_path):
        out = tmp_path / "subadd"
        assert main(["subadd", "--config", str(config_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tolerances"] == {
            "comparison_atol": sx.ATOL,
            "lattice_merge_tol": iid.MERGE_TOL,
            "tail_factor": lln.TAIL_FACTOR,
            "sampling_z": lln.SAMPLING_Z,
        }

    def test_gheat_schema(self, config_path, tmp_path):
        out = tmp_path / "gheat"
        assert main(["gheat", "--config", str(config_path), "--out", str(out)]) == 0
        lines = (out / "gheat.csv").read_text().splitlines()
        assert lines[0] == "payoff,value,residual"
        rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
        assert float(rows["square"][0]) == pytest.approx(1.0, abs=1e-3)
        assert float(rows["neg_square"][0]) == pytest.approx(-0.5, abs=1e-3)

    def test_mz_schema(self, config_path, tmp_path):
        out = tmp_path / "mz"
        assert main(["mz-check", "--config", str(config_path), "--out", str(out)]) == 0
        lines = (out / "mz_check.csv").read_text().splitlines()
        assert lines[0] == "n,lhs,rhs_core,mean_term,ratio"
        assert len(lines) == 12  # n = 2..12

    def test_cc_schema(self, config_path, tmp_path):
        out = tmp_path / "cc"
        code = main(
            [
                "cc-series",
                "--config",
                str(config_path),
                "--out",
                str(out),
                "--override",
                "N=40",
                "--override",
                "epsilons=[0.5, 0.75]",
            ]
        )
        assert code == 0
        for name in ("cc_series_0.csv", "cc_series_1.csv"):
            lines = (out / name).read_text().splitlines()
            assert lines[0] == "n,capacity,markov_bound"
            assert len(lines) == 41

    def test_capacity_subcommand(self, config_path, tmp_path):
        out = tmp_path / "cap"
        code = main(
            ["capacity", "--config", str(config_path), "--out", str(out), "--override", "N=12"]
        )
        assert code == 0
        lines = (out / "capacity.csv").read_text().splitlines()
        assert lines[0] == "epsilon,V,v"

    def test_subadd_artifacts(self, config_path, tmp_path):
        out = tmp_path / "subadd"
        code = main(
            [
                "subadd",
                "--config",
                str(config_path),
                "--out",
                str(out),
                "--override",
                "beta=3.0",
                "--override",
                "N=25",
            ]
        )
        assert code == 0
        rows = dict(
            line.split(",") for line in (out / "subadd.csv").read_text().splitlines()[1:]
        )
        assert float(rows["margin"]) >= -1e-12

    def test_sqs_artifacts(self, tmp_path):
        canonical = Path(__file__).resolve().parents[1] / "configs" / "canonical.json"
        out = tmp_path / "sqs"
        args = ["sqs", "--config", str(canonical), "--out", str(out), "--override", "n_paths=300"]
        assert main(args) == 0
        policies = (out / "sqs.csv").read_text().splitlines()
        assert policies[0] == "policy,exact,mean,stderr,min,q25,median,q75,max"
        assert [row.split(",")[0] for row in policies[1:]] == ["measure_0", "measure_1", "argmax"]
        bound = [row.split(",") for row in (out / "sqs_bound.csv").read_text().splitlines()]
        assert bound[0] == ["quantity", "value"]
        assert [row[0] for row in bound[1:]] == ["dp_upper", "max_policy_mean", "max_path_value"]
        assert policies[-1].split(",")[1] == bound[1][1]  # the argmax exact value is dp_upper
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tolerances"]["sampling_z"] == 5.0
        assert "sampling_tol" not in manifest["tolerances"]
        snapshot = {f.name: f.read_bytes() for f in out.iterdir()}
        assert main(args) == 0
        for f in sorted(out.iterdir()):
            assert f.read_bytes() == snapshot[f.name], f.name

    def test_seed_flag_overrides_config(self, config_path, tmp_path):
        out = tmp_path / "seeded"
        code = main(
            [
                "axioms",
                "--config",
                str(config_path),
                "--out",
                str(out),
                "--seed",
                "99",
                "--override",
                "trials=50",
            ]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99


class TestDeterminism:
    def test_repeat_run_is_byte_identical(self, config_path, tmp_path):
        out = tmp_path / "rerun"
        args = [
            "lln-series",
            "--config",
            str(config_path),
            "--out",
            str(out),
            "--override",
            "p=2.0",
            "--override",
            "N=25",
        ]
        assert main(args) == 0
        snapshot = {f.name: f.read_bytes() for f in out.iterdir()}
        assert main(args) == 0
        for f in sorted(out.iterdir()):
            assert f.read_bytes() == snapshot[f.name], f.name

    def test_runner_api_matches_cli(self, config_path, tmp_path):
        cfg = parse_config(config_path)
        manifest = run("subadd", cfg, tmp_path / "api")
        assert manifest.outputs == ("subadd.csv",)
        assert (tmp_path / "api" / "manifest.json").exists()


ROOT = Path(__file__).resolve().parents[1]

#: Imports sublex and the CLI, runs every subcommand given on its command
#: line on the canonical config, and prints the exit codes, the scipy
#: modules it loaded and whether it loaded numpy.ma as the last line of JSON.
IMPORT_PROBE = """
import json, sys
import sublex, sublex.cli
config, out, names = sys.argv[1], sys.argv[2], sys.argv[3:]
small = ["--override", "n_paths=200", "--override", "trials=20"]
codes = {
    name: sublex.cli.main([name, "--config", config, "--out", f"{out}/{name}", *small])
    for name in names
}
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": loaded, "numpy.ma": "numpy.ma" in sys.modules}))
"""


def run_import_probe(tmp_path, names):
    """The last line of ``IMPORT_PROBE`` run on ``names`` in a new process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    config = str(ROOT / "configs" / "canonical.json")
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, config, str(tmp_path), *names],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == {name: 0 for name in names}
    return result


def test_the_cli_path_loads_no_scipy(tmp_path):
    # importing scipy.integrate costs more than all subcommands together; a
    # quadrature check on the CLI path (c_p from classical_abs_moment, say)
    # must keep its import local and out of the subcommands
    assert run_import_probe(tmp_path, SUBCOMMANDS)["scipy"] == []


def test_eval_loads_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call (about 17 ms); the lattice
    # DPs behind eval call nothing that does
    assert run_import_probe(tmp_path, ["eval"])["numpy.ma"] is False


class TestHeatSolves:
    """The G-heat work each subcommand does on the canonical config: the
    gheat battery is one stacked solve on each of three grids (fine,
    coarsened, coarsened again), and c_p for p >= 1 is in closed form."""

    @staticmethod
    def evolve_calls(tmp_path, name, *overrides) -> int:
        config = str(ROOT / "configs" / "canonical.json")
        args = [name, "--config", config, "--out", str(tmp_path / name), *overrides]
        with mock.patch.object(gnormal, "evolve", wraps=gnormal.evolve) as spy:
            assert main(args) == 0
        return spy.call_count

    @pytest.mark.parametrize(
        "name, calls", [("gheat", 3), ("clt", 0), ("lln-series", 0), ("corollary", 0)]
    )
    def test_evolve_calls(self, tmp_path, name, calls):
        assert self.evolve_calls(tmp_path, name) == calls

    def test_order_below_one_still_solves_the_pde(self, tmp_path):
        assert self.evolve_calls(tmp_path, "clt", "--override", "p=0.5") == 3
        cfg = parse_config(ROOT / "configs" / "canonical.json")
        _, residual = gnormal._limit_abs_moment(0.5, cfg.gnormal_params(), cfg.heat_grid())
        assert residual > 0.0


def per_trial_axioms_csv(seed: int, trials: int) -> bytes:
    """``axioms.csv`` recomputed one trial at a time from the same draws: each
    instance built by ``AmbiguitySet.from_rows``, each residual from
    ``upper_expect`` on a payoff of the atoms, each capacity from
    ``capacity_pair`` on a mask predicate."""
    rng = np.random.default_rng(seed)
    lines = ["trial,check,residual"]
    for trial in range(trials):
        n_atoms = int(rng.integers(2, 6))
        atoms = np.cumsum(0.2 + rng.random(n_atoms)) - 1.5
        n_meas = int(rng.integers(1, 5))
        rows = []
        for _ in range(n_meas):
            w = rng.random(n_atoms) + 1e-3
            rows.append(w / w.sum())
        family = sx.AmbiguitySet.from_rows(atoms, rows)
        va = rng.uniform(-5, 5, n_atoms)
        vb = rng.uniform(-5, 5, n_atoms)
        lam = float(3.0 * rng.random())
        c = float(rng.uniform(-5, 5))

        def eup(values) -> float:
            return sx.upper_expect(family, lambda _: values)

        hi = va if np.all(va >= vb) else np.maximum(va, vb)
        residuals = {
            "monotonicity": eup(vb) - eup(hi),
            "constant_preserving": abs(eup(np.full(n_atoms, c)) - c),
            "subadditivity": eup(va + vb) - (eup(va) + eup(vb)),
            "positive_homogeneity": abs(eup(lam * va) - lam * eup(va)),
        }
        mask = rng.random(n_atoms) < 0.5
        upper, _ = sx.capacity_pair(family, lambda _: mask)
        _, lower = sx.capacity_pair(family, lambda _: ~mask)
        residuals["capacity_complement"] = abs(upper + lower - 1.0)
        if not mask.all():
            grown = mask.copy()
            grown[np.argmin(mask)] = True  # the first atom of the complement
            grown_upper, _ = sx.capacity_pair(family, lambda _: grown)
            residuals["capacity_monotone"] = upper - grown_upper
        lines += [f"{trial},{name},{format(r, '.17g')}" for name, r in residuals.items()]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("seed", [1, 2, 3, 901])
def test_axioms_csv_matches_the_per_trial_recomputation(config_path, tmp_path, seed):
    out = tmp_path / "axioms"
    args = ["axioms", "--config", str(config_path), "--out", str(out)]
    assert main(args + ["--seed", str(seed), "--override", "trials=200"]) == 0
    assert (out / "axioms.csv").read_bytes() == per_trial_axioms_csv(seed, 200)


#: SHA-256 of every CSV the subcommands write on ``configs/canonical.json``,
#: by ``<subcommand>/<file>``.  A change that moves an output on purpose
#: updates its digest here and lists the old and new values in CHANGES.md.
CANONICAL_DIGESTS = {
    "axioms/axioms.csv": "7de88b80752e8b9b15afc3f7910bc9b62461c66a517f7afb20741918baa7802e",
    "capacity/capacity.csv": "d13efce9f3e1cde2d833b31e9de54714153af725f158921159aed678fb8ba088",
    "cc-series/cc_series_0.csv": "e14a6ca9ce838997fc8387b30fb785e25f3f84017c061f86f38ee4c9d38dfc95",
    "clt/clt.csv": "110da8afb33ca97754ac2830f7f256bd583d014b539b479ca679cc7464b012f9",
    "corollary/corollary.csv": "1f0dc4bcef916bdf221797ad15ac0bc96e184179eb22cba051bd401e61d7f270",
    "eval/eval.csv": "5df322c7e96202285bc8f50f152037a65cb9a63fbc54df0cf1ddb68e0c5a3301",
    "gheat/gheat.csv": "448594da883fc5ef58a9df9b4a1d64c9100e5d67227e4177841109678efd0d16",
    "lln-series/lln_series.csv": "eac7d6aa4d6f94cce14248bb895bfde5e0dc252bc670606e43f7f6b0a3756ba3",
    "lln-series/verdict.csv": "a8f15f53fc6c8cb4078139746530de1bdce1188ddc3b60828c2be1c5b87d1abe",
    "mz-check/mz_check.csv": "a39736897bf32f63e91579d27e99da0fe1eed3aa41e28adb9e1eb4881d1ce7f3",
    "mz-check/mz_summary.csv": "bf4ff99c3ce52ea22089a75b14d90044fb35b8ccba47cef641181db5ce5f5176",
    "sqs/sqs.csv": "5640901d2d4b4a322690f6f408b82410d8775e4333fb332906026dfffe86e583",
    "sqs/sqs_bound.csv": "3816e84f27fe10a5156e217a13a18251addf91ab26d05c326ab6f8a8a0285a49",
    "subadd/subadd.csv": "f7f5875c533ffe232039943b390468817b14333fbce797243d1fc28048585924",
}


def test_canonical_csvs_are_byte_identical(tmp_path):
    # manifest.json is left out: it records the output directory
    config = str(ROOT / "configs" / "canonical.json")
    for name in SUBCOMMANDS:
        assert main([name, "--config", config, "--out", str(tmp_path / name)]) == 0
    digests = {
        f"{path.parent.name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.glob("*/*.csv"))
    }
    assert digests == CANONICAL_DIGESTS
