import json
import math
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

import sublex as sx
from sublex.cli import (
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
