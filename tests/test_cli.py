import json
import math

import pytest

from dpsco.bench import runner
from dpsco.bench.cli import main
from dpsco.bench.config import ExperimentConfig
from dpsco.bench.records import read_records, without_timing
from dpsco.errors import NumericError
from test_acceptance import CONVEX_TREND_DOC
from test_components import _base_doc, _md_doc


def _config_doc():
    return {
        "algorithm": "app_objp_sc",
        "loss": {"name": "mean_point", "domain_radius": 1.5, "constraint_radius": 1.0},
        "distribution": {"name": "ball_cloud", "mu_scale": 0.4, "spread": 1.0},
        "geometry": {"p": 2.0, "d": 3},
        "constraint": {"set": "l2", "radius": 1.0},
        "n_grid": [32, 64, 128],
        "eps_grid": [1.0],
        "delta": 1e-5,
        "trials": 2,
        "base_seed": 11,
        "evaluation": {"policy": "oracle"},
    }


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(_config_doc()))
    return path


class TestRunCommand:
    def test_run_emits_parsable_csv(self, config_path, tmp_path, capsys):
        out = tmp_path / "runs.csv"
        code = main(["run", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        records = read_records(out)
        assert len(records) == 6
        assert "wrote 6 records" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        doc = _config_doc()
        doc["unknown_key"] = 1
        bad.write_text(json.dumps(doc))
        code = main(["run", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_missing_config_exit_code(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_malformed_json_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["run", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("twice", [
        ('"delta": 1e-05', '"delta": 1e-05, "delta": 0.5'),
        ('"geometry": {', '"geometry": {"d": 5, '),
    ], ids=["top-level", "nested"])
    def test_repeated_key_exit_code(self, twice, tmp_path, capsys):
        # json.load would keep the last value, and the record would claim it.
        text = json.dumps(_config_doc())
        assert twice[0] in text
        bad = tmp_path / "twice.json"
        bad.write_text(text.replace(*twice))
        code = main(["run", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "repeated key" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_json_infinity_is_a_number(self, tmp_path):
        # JSON has no infinity; Python's Infinity token is how a file writes p = inf.
        # At p = inf the dual norm is l1, and features on the unit l1 sphere meet the bound of 1.
        doc = {**_config_doc(), "algorithm": "lipschitz_high_p", "geometry": {"p": "INF", "d": 3},
               "loss": {"name": "logistic", "feature_dual_bound": 1.0},
               "distribution": {"name": "logistic_sphere", "sphere_exponent": 1.0},
               "constraint": None, "evaluation": {}}
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc).replace('"INF"', "Infinity"))
        assert ExperimentConfig.from_json(path).geometry["p"] == math.inf

    def test_seed_env_override_changes_output(self, config_path, tmp_path, monkeypatch):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        main(["run", "--config", str(config_path), "--out", str(out1)])
        monkeypatch.setenv("DPSCO_SEED", "999")
        main(["run", "--config", str(config_path), "--out", str(out2)])
        r1, r2 = read_records(out1), read_records(out2)
        assert r1 != r2
        assert all(a.seed != b.seed for a, b in zip(r1, r2))

    @pytest.mark.parametrize("value", ["abc", "1.5", ""])
    def test_seed_env_not_an_integer_is_a_config_error(self, value, config_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DPSCO_SEED", value)
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
        assert "DPSCO_SEED" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_env_runs_as_the_base_seed(self, config_path, tmp_path, monkeypatch):
        # stable_seed takes any integer base, so a negative override runs.
        monkeypatch.setenv("DPSCO_SEED", "-3")
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "env.csv")]) == 0
        monkeypatch.delenv("DPSCO_SEED")
        path = tmp_path / "seeded.json"
        path.write_text(json.dumps(dict(_config_doc(), base_seed=-3)))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "doc.csv")]) == 0
        env, doc = (without_timing(read_records(tmp_path / f)) for f in ("env.csv", "doc.csv"))
        assert env == doc

    def test_uncertified_feature_bound_exit_code(self, tmp_path, capsys):
        # Features eight times the declared dual bound: noise calibrated to the
        # bound would not give the claimed epsilon, so the grid never runs.
        doc = dict(
            CONVEX_TREND_DOC, n_grid=[4096], trials=1, parallelism=1,
            loss={"name": "logistic", "feature_dual_bound": 1.0},
            distribution={"name": "logistic_sphere", "w_star_norm": 0.8, "feature_radius": 8.0},
        )
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "feature_dual_bound" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_numeric_error_exit_code(self, config_path, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise NumericError("release distance 1 exceeds certified bound 0.5")

        monkeypatch.setattr(runner, "app_objp_sc", fail)
        code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "error: release distance 1 exceeds certified bound" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, named", [
        (_base_doc(eps_grid=[1e308]), "eps_grid[0]=1e+308"),
        (_md_doc(eps_grid=[1e308]), "eps_grid[0]=1e+308"),
        (_md_doc(solver={"T": 4, "lambda_trunc": 1e308}), "'lambda_trunc': 1e+308"),
        (_md_doc(algorithm="noisy_reg_md", constraint=None, solver={"c_t": 1e308}), "'c_t': 1e+308"),
        (_base_doc(solver={"lambda_reg": 1e308}), "'lambda_reg': 1e+308"),
    ], ids=["epsilon", "batched-epsilon", "lambda_trunc", "c_t", "lambda_reg"])
    def test_arithmetic_overflow_exit_code(self, doc, named, tmp_path, capsys):
        # A finite value whose schedule overflows, or is not finite, at some cell of
        # the grid: refused at parse, naming the value, before any cell runs.
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err
        assert not (tmp_path / "x.csv").exists()

    def test_arithmetic_error_in_a_cell_exit_code(self, config_path, tmp_path, monkeypatch, capsys):
        def overflow(*args, **kwargs):
            raise OverflowError("(34, 'Numerical result out of range')")

        monkeypatch.setattr(runner, "app_objp_sc", overflow)
        code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: (34, 'Numerical result out of range')")


class TestSlopeCommand:
    def test_slope_from_csv(self, config_path, tmp_path, capsys):
        out = tmp_path / "runs.csv"
        main(["run", "--config", str(config_path), "--out", str(out)])
        code = main(["slope", "--in", str(out), "--group", "algo,eps,d"])
        assert code == 0
        text = capsys.readouterr().out
        assert "slope" in text and "app_objp_sc" in text


    @pytest.mark.parametrize("cut, named", [
        (lambda fields: fields[:9], "line 4: 9 fields, schema 1 has 13"),
        (lambda fields: [*fields[:3], "12x", *fields[4:]], "line 4: invalid literal for int()"),
    ], ids=["too-few-fields", "unparsable-value"])
    def test_malformed_row_exit_code(self, cut, named, config_path, tmp_path, capsys):
        out = tmp_path / "runs.csv"
        main(["run", "--config", str(config_path), "--out", str(out)])
        lines = out.read_text().splitlines()
        lines[3] = ",".join(cut(lines[3].split(",")))
        out.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["slope", "--in", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err


class TestWidthCommand:
    def test_l2_width(self, capsys):
        code = main(["width", "--set", "l2", "--d", "2", "--radius", "1.0", "--samples", "20000"])
        assert code == 0
        text = capsys.readouterr().out
        est = float(text.split("estimate:")[1].split("(")[0])
        assert abs(est - 1.2533) < 0.03

    def test_lp_requires_p(self, capsys):
        code = main(["width", "--set", "lp", "--d", "4"])
        assert code == 2

    def test_lp_width_uses_p(self, capsys):
        code = main(["width", "--set", "lp", "--p", "2.0", "--d", "2", "--samples", "20000"])
        assert code == 0
        est = float(capsys.readouterr().out.split("estimate:")[1].split("(")[0])
        assert abs(est - 1.2533) < 0.03

    def test_l2_refuses_p(self, capsys):
        code = main(["width", "--set", "l2", "--p", "1.5", "--d", "4"])
        assert code == 2
        assert "'p'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "-3"])
@pytest.mark.parametrize("argv", [
    ["width", "--set", "l1", "--d", "20", "--samples", "100"],
    ["mech-check", "--what", "gg", "--samples", "100"],
], ids=["width", "mech-check"])
def test_generator_seed_env_must_be_a_nonnegative_integer(argv, value, monkeypatch, capsys):
    # width and mech-check seed numpy's generator directly, which takes no negative seed.
    monkeypatch.setenv("DPSCO_SEED", value)
    assert main(argv) == 2
    assert "DPSCO_SEED" in capsys.readouterr().err


class TestMechCheckCommand:
    @pytest.mark.parametrize("what", ["gg", "gauss", "compose"])
    def test_runs_and_prints(self, what, capsys):
        code = main(["mech-check", "--what", what, "--samples", "20000"])
        assert code == 0
        assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("argv,named", [
    (["width", "--set", "l1", "--d", "0"], "--d"),
    (["width", "--set", "l1", "--d", "4", "--samples", "1"], "--samples"),
    (["mech-check", "--what", "gg", "--samples", "0"], "--samples"),
    (["mech-check", "--what", "gg", "--d", "0"], "--d"),
    (["mech-check", "--what", "gg", "--p", "0.5"], "--p"),
    (["mech-check", "--what", "gg", "--p", "0"], "--p"),
], ids=["width-d", "width-samples", "mech-check-samples", "mech-check-d", "mech-check-p-half", "mech-check-p-zero"])
def test_argument_out_of_range_exit_code(argv, named, capsys):
    # argparse exits 2 and names the argument before any sampling starts.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {named}:" in capsys.readouterr().err
