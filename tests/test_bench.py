import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from dpsco.bench.config import ExperimentConfig
from dpsco.bench.records import RunRecord, read_records, without_timing, write_records
from dpsco.bench.runner import run_cell, run_experiment, stable_seed
from dpsco.bench.slopes import fit_slope
from dpsco.errors import ConfigError
from test_acceptance import CONVEX_TREND_DOC, LP_TREND_DOC, STRONGLY_CONVEX_DOC
from test_components import _logistic_doc, _md_doc


def _base_config(**over):
    doc = {
        "algorithm": "app_objp_sc",
        "loss": {"name": "mean_point", "domain_radius": 1.5, "constraint_radius": 1.0},
        "distribution": {"name": "ball_cloud", "mu_scale": 0.4, "spread": 1.0},
        "geometry": {"p": 2.0, "d": 4},
        "constraint": {"set": "l2", "radius": 1.0},
        "n_grid": [64],
        "eps_grid": [1.0],
        "delta": 1e-5,
        "trials": 1,
        "base_seed": 7,
        "evaluation": {"policy": "oracle"},
    }
    doc.update(over)
    return doc


class TestConfig:
    def test_unknown_top_level_key_rejected(self):
        doc = _base_config()
        doc["trails"] = 3  # typo
        with pytest.raises(ConfigError, match="trails"):
            ExperimentConfig.from_dict(doc)

    def test_unknown_solver_key_rejected(self):
        doc = _base_config(solver={"c_noize": 0.0})
        with pytest.raises(ConfigError, match="c_noize"):
            ExperimentConfig.from_dict(doc)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(_base_config(algorithm="sgd_like"))

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(_base_config(n_grid=[]))

    def test_bad_delta_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(_base_config(delta=2.0))

    def test_valid_roundtrip(self):
        for doc in (_base_config(), CONVEX_TREND_DOC, STRONGLY_CONVEX_DOC, LP_TREND_DOC):
            cfg = ExperimentConfig.from_dict(copy.deepcopy(doc))
            out = cfg.to_dict()
            # Every key of the document comes back as given; the rest are the defaults.
            assert {k: out[k] for k in doc} == doc
            assert ExperimentConfig.from_dict(out).to_dict() == out


class TestRecordsCsv:
    def test_roundtrip_field_for_field(self, tmp_path):
        records = [
            RunRecord("app_objp", 2.0, 4, 64, 1.0, 1e-5, 0, 123, 0.0123456789012345, None, 4.25),
            RunRecord("shuffled_truncated_md", 1.5, 10, 512, 0.01, 1e-5, 1, 456, 0.5, 0.125, 9.5),
            RunRecord(
                "shuffled_truncated_md", 1.5, 10, 64, 0.5, 1e-5, 2, 789, None, None, 1.0,
                refused=True, refusal_reason="outside regime, max eps 0.1",
            ),
        ]
        path = tmp_path / "runs.csv"
        write_records(records, path)
        assert read_records(path) == records

    def test_schema_1_bytes(self, tmp_path):
        records = [
            RunRecord("app_objp", 2.0, 4, 64, 1.0, 1e-5, 0, 123, 0.0123456789012345, None, 4.25),
            RunRecord(
                "shuffled_truncated_md", 1.5, 10, 64, 0.5, 1e-5, 2, 789, None, None, 1.0,
                refused=True, refusal_reason="outside regime,\nmax eps 0.1",
            ),
        ]
        path = tmp_path / "runs.csv"
        write_records(records, path)
        assert path.read_bytes() == (
            b"#schema=1\n"
            b"algorithm,p,d,n,epsilon,delta,trial,seed,excess_risk,trunc_fraction,wall_ms,refused,refusal_reason\n"
            b"app_objp,2.0,4,64,1.0,1e-05,0,123,0.0123456789012345,,4.25,0,\n"
            b"shuffled_truncated_md,1.5,10,64,0.5,1e-05,2,789,,,1.0,1,outside regime, max eps 0.1\n"
        )

    def test_schema_line_present(self, tmp_path):
        path = tmp_path / "runs.csv"
        write_records([], path)
        with open(path, encoding="utf-8") as f:
            assert f.readline().strip() == "#schema=1"

    def test_refused_cells_carry_no_risk(self):
        with pytest.raises(ValueError):
            RunRecord("x", 2.0, 2, 8, 1.0, 1e-5, 0, 1, 0.5, None, 1.0, refused=True)


class TestRunner:
    def test_seed_derivation_pure(self):
        a = stable_seed(7, 1, 2, 3)
        b = stable_seed(7, 1, 2, 3)
        assert a == b
        assert stable_seed(7, 1, 2, 4) != a

    def test_single_cell_single_record(self):
        cfg = ExperimentConfig.from_dict(_base_config())
        records = run_experiment(cfg)
        assert len(records) == 1
        r = records[0]
        assert not r.refused and r.excess_risk is not None
        assert r.n == 64 and r.epsilon == 1.0

    def test_solver_warnings_name_the_caller(self):
        # The solver warns three calls deep in dpsco; the warning names this line.
        cfg = ExperimentConfig.from_dict(_base_config(n_grid=[16], eps_grid=[0.5]))
        with pytest.warns(UserWarning, match="large-n regime") as caught:
            run_experiment(cfg)
        assert {w.filename for w in caught} == {__file__}

    def test_evaluation_policy_reaches_the_risk(self):
        def risk(policy):
            cfg = ExperimentConfig.from_dict(_base_config(evaluation={"policy": policy, "m_eval": 2000}))
            return run_cell(cfg, 0, 0, 0).excess_risk

        oracle = risk("oracle")
        assert risk("auto") == oracle
        assert risk("mc") != oracle

    def test_evaluation_defaults_come_from_the_risk_function(self):
        # A section without policy scores with excess_population_risk's
        # default, "auto", as an absent section does.
        def record(**over):
            return without_timing([run_cell(ExperimentConfig.from_dict(_base_config(**over)), 0, 0, 0)])

        absent = _base_config()
        del absent["evaluation"]
        no_policy = record(evaluation={"m_eval": 2000})
        assert no_policy == without_timing([run_cell(ExperimentConfig.from_dict(absent), 0, 0, 0)])
        assert no_policy == record(evaluation={"policy": "auto"}) == record(evaluation={"policy": "oracle"})

    def test_byte_identical_rerun(self, tmp_path):
        cfg = ExperimentConfig.from_dict(_base_config(trials=3, n_grid=[32, 64]))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        # wall-clock is the one nondeterministic field; everything else must
        # reproduce byte-for-byte
        write_records(without_timing(run_experiment(cfg)), p1)
        write_records(without_timing(run_experiment(cfg)), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parallel_matches_serial(self):
        # The mirror solver's cells also run on the parsed config's lp ball.
        for doc in (_base_config(trials=2, n_grid=[32, 64]), _md_doc(trials=2, n_grid=[32, 64])):
            serial = run_experiment(ExperimentConfig.from_dict(doc))
            pooled = run_experiment(ExperimentConfig.from_dict({**doc, "parallelism": 2}))
            assert without_timing(serial) == without_timing(pooled)

    def test_pool_sends_the_config_once_per_worker(self, monkeypatch):
        # Sent with every chunk, the config was pickled once per cell here, and
        # each copy redrew the Gaussian width app_objp caches on its C.
        pickled = []

        def getstate(cfg):
            pickled.append(cfg)
            return dict(vars(cfg))

        monkeypatch.setattr(ExperimentConfig, "__getstate__", getstate, raising=False)
        doc = _base_config(trials=3, n_grid=[32, 64], parallelism=2)
        cfg = ExperimentConfig.from_dict(doc)
        pooled = run_experiment(cfg)
        assert len(pickled) <= 2
        assert without_timing(pooled) == without_timing(run_experiment(ExperimentConfig.from_dict(
            {**doc, "parallelism": 1})))

    def test_pickled_config_runs_a_cell_to_the_same_record(self):
        # What a pool worker receives: the parsed config, built objects included.
        for doc in (_base_config(), _md_doc()):
            cfg = ExperimentConfig.from_dict(doc)
            copied = pickle.loads(pickle.dumps(cfg))
            assert copied.budgets == cfg.budgets
            assert without_timing([run_cell(copied, 0, 0, 0)]) == without_timing([run_cell(cfg, 0, 0, 0)])

    def test_high_p_entry_at_p_2_matches_phased_dp_sgd(self):
        # lipschitz_high_p runs phased_dp_sgd over 2 <= p <= inf; at p = 2 the
        # two entries give the same records field for field, but the name.
        def records(algorithm):
            doc = _logistic_doc(algorithm=algorithm, constraint=None, n_grid=[128, 512], trials=2)
            runs = without_timing(run_experiment(ExperimentConfig.from_dict(doc)))
            return [dataclasses.replace(r, algorithm="") for r in runs]

        high_p = records("lipschitz_high_p")
        assert high_p == records("phased_dp_sgd")
        assert not any(r.refused for r in high_p)

    def test_refusal_recorded_not_fatal(self):
        doc = _base_config(
            algorithm="shuffled_truncated_md",
            loss={"name": "pseudo_huber", "huber_delta": 8.0, "feature_dual_bound": 1.0},
            distribution={"name": "heavy_tail_linear", "w_star_norm": 0.3, "sphere_exponent": 3.0},
            geometry={"p": 1.5, "d": 4},
            constraint={"set": "lp", "radius": 1.0},
            eps_grid=[0.5],
            n_grid=[512],
            solver={"T": 4},
            evaluation={"policy": "mc", "m_eval": 1000},
        )
        records = run_experiment(ExperimentConfig.from_dict(doc))
        assert len(records) == 1
        assert records[0].refused
        assert records[0].excess_risk is None
        assert "epsilon" in records[0].refusal_reason

    def test_mean_point_matches_one_over_n_rate(self):
        # with a huge budget the solver is the (projected) sample mean, whose
        # expected excess risk is tr(Cov) / (2n)
        doc = _base_config(
            n_grid=[256], eps_grid=[1e6], trials=40,
            solver={"alpha_opt": 1e-10},
        )
        cfg = ExperimentConfig.from_dict(doc)
        records = run_experiment(cfg)
        risks = np.array([r.excess_risk for r in records])
        trace_cov = 1.0 * 4 / (4 + 2)
        expected = trace_cov / (2 * 256)
        se = risks.std(ddof=1) / math.sqrt(len(risks))
        assert abs(risks.mean() - expected) <= 3 * se

    def test_truncation_fraction_recorded(self):
        doc = _base_config(
            algorithm="batched_truncated_md",
            loss={"name": "pseudo_huber", "huber_delta": 20.0, "feature_dual_bound": 1.0},
            distribution={
                "name": "heavy_tail_linear", "w_star_norm": 0.3,
                "sphere_exponent": 3.0, "t_scale": 3.0,
            },
            geometry={"p": 1.5, "d": 4},
            constraint={"set": "lp", "radius": 1.0},
            eps_grid=[0.5],
            n_grid=[512],
            solver={"T": 4, "lambda_trunc": 2.0},
            evaluation={"policy": "mc", "m_eval": 1000},
        )
        records = run_experiment(ExperimentConfig.from_dict(doc))
        assert records[0].trunc_fraction is not None
        assert 0.0 < records[0].trunc_fraction < 1.0


def _synthetic_records(rate, c=1.0, algo="app_objp", eps=1.0):
    records = []
    for n in (128, 256, 512, 1024):
        for trial in range(3):
            records.append(
                RunRecord(algo, 2.0, 4, n, eps, 1e-5, trial, trial, c * n**rate, None, 1.0)
            )
    return records


class TestSlopes:
    def test_exact_inverse_n(self):
        fits = fit_slope(_synthetic_records(-1.0), ["algo", "eps"])
        fit = fits[("app_objp", 1.0)]
        assert fit.slope == pytest.approx(-1.0, abs=1e-9)
        assert fit.r2 == pytest.approx(1.0)

    def test_exact_inverse_sqrt_n(self):
        fits = fit_slope(_synthetic_records(-0.5), ["algo"])
        assert fits[("app_objp",)].slope == pytest.approx(-0.5, abs=1e-9)

    def test_groups_separated(self):
        recs = _synthetic_records(-1.0, eps=1.0) + _synthetic_records(-0.5, eps=0.5)
        fits = fit_slope(recs, ["eps"])
        assert fits[(1.0,)].slope == pytest.approx(-1.0, abs=1e-9)
        assert fits[(0.5,)].slope == pytest.approx(-0.5, abs=1e-9)

    def test_nonpositive_cell_excluded_with_warning(self):
        recs = _synthetic_records(-1.0)
        recs.append(RunRecord("app_objp", 2.0, 4, 2048, 1.0, 1e-5, 0, 0, -0.5, None, 1.0))
        with pytest.warns(UserWarning, match="nonpositive"):
            fits = fit_slope(recs, ["algo"])
        assert fits[("app_objp",)].n_cells == 4

    def test_warnings_name_the_caller(self):
        # One cell excluded leaves two usable cells of three, so the group is skipped.
        recs = [r for r in _synthetic_records(-1.0) if r.n in (128, 256)]
        recs.append(RunRecord("app_objp", 2.0, 4, 512, 1.0, 1e-5, 0, 0, -5.0, None, 1.0))
        with pytest.warns(UserWarning) as caught:
            assert fit_slope(recs, ["algo"]) == {}
        assert [str(w.message).split("; ")[-1] for w in caught] == ["cell excluded", "skipped"]
        assert {w.filename for w in caught} == {__file__}

    def test_too_few_n_values_rejected(self):
        recs = [r for r in _synthetic_records(-1.0) if r.n in (128, 256)]
        with pytest.raises(ValueError, match="3 distinct n"):
            fit_slope(recs, ["algo"])

    def test_refused_records_skipped(self):
        recs = _synthetic_records(-1.0)
        recs.append(
            RunRecord("app_objp", 2.0, 4, 4096, 1.0, 1e-5, 0, 0, None, None, 1.0,
                      refused=True, refusal_reason="x")
        )
        fits = fit_slope(recs, ["algo"])
        assert fits[("app_objp",)].n_cells == 4
