import json

import pytest

from dpsco.bench.cli import main
from dpsco.bench.records import read_records
from test_acceptance import CONVEX_TREND_DOC


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

    def test_seed_env_override_changes_output(self, config_path, tmp_path, monkeypatch):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        main(["run", "--config", str(config_path), "--out", str(out1)])
        monkeypatch.setenv("DPSCO_SEED", "999")
        main(["run", "--config", str(config_path), "--out", str(out2)])
        r1, r2 = read_records(out1), read_records(out2)
        assert r1 != r2
        assert all(a.seed != b.seed for a, b in zip(r1, r2))

    def test_release_distance_failure_exit_code(self, tmp_path, capsys):
        # Features eight times the declared dual bound break the smoothness
        # the certified inner count assumes, so the release check fails.
        doc = dict(
            CONVEX_TREND_DOC, n_grid=[4096], trials=1, parallelism=1,
            loss={"name": "logistic", "feature_dual_bound": 1.0},
            distribution={"name": "logistic_sphere", "w_star_norm": 0.8, "feature_radius": 8.0},
        )
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "exceeds certified bound" in capsys.readouterr().err


class TestSlopeCommand:
    def test_slope_from_csv(self, config_path, tmp_path, capsys):
        out = tmp_path / "runs.csv"
        main(["run", "--config", str(config_path), "--out", str(out)])
        code = main(["slope", "--in", str(out), "--group", "algo,eps,d"])
        assert code == 0
        text = capsys.readouterr().out
        assert "slope" in text and "app_objp_sc" in text


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


class TestMechCheckCommand:
    @pytest.mark.parametrize("what", ["gg", "gauss", "compose"])
    def test_runs_and_prints(self, what, capsys):
        code = main(["mech-check", "--what", what, "--samples", "20000"])
        assert code == 0
        assert capsys.readouterr().out.strip()
