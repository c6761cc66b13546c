import dataclasses
import multiprocessing
import pickle

import numpy as np
import pytest

import penskew.montecarlo as montecarlo
from penskew.distributions import DirectParams, sample
from penskew.estimators import OptimizationError
from penskew.likelihood import ModelSpec
from penskew.montecarlo import (
    RateCurves,
    StudyConfig,
    bootstrap_se,
    rate_curves,
    run_study,
    summarize,
)
from penskew.wbar import WbarBracketError


def three_param_config(**kw):
    base = dict(
        true_params=DirectParams.scalar(0.0, 1.0, 5.0),
        sample_sizes=(30,),
        replicates=60,
        base_seed=411,
        family="sn",
        dimension=1,
        fixed={},
        estimators=("MLE", "MPLE", "WBAR"),
    )
    base.update(kw)
    return StudyConfig(**base)


class TestSummarize:
    def test_constant_list(self):
        out = summarize(np.full((7, 1), 2.5), [2.0], ["a"])["a"]
        assert out["std_dev"] == 0.0
        assert out["iqr"] == 0.0
        assert out["mean_bias"] == pytest.approx(0.5)

    def test_exact_truth(self):
        est = np.tile([1.0, 2.0], (5, 1))
        out = summarize(est, [1.0, 2.0], ["a", "b"])
        assert out["a"]["mean_bias"] == 0.0
        assert out["b"]["median_bias"] == 0.0

    def test_hand_computed_quartiles(self):
        # median-unbiased quartiles of {1,2,3,4,10}: q1 = 5/3, q3 = 6, IQR = 13/3
        out = summarize(np.array([[1.0], [2.0], [3.0], [4.0], [10.0]]), [0.0], ["a"])["a"]
        assert out["iqr"] == pytest.approx(13.0 / 3.0, rel=1e-12)
        assert out["median_bias"] == pytest.approx(3.0)
        assert out["mean_bias"] == pytest.approx(4.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize(np.empty((0, 1)), [0.0])


class TestDeterminismAndSeeding:
    def test_identical_configs_identical_output(self):
        cfg = three_param_config(replicates=25)
        a = run_study(cfg).to_csv_string()
        b = run_study(cfg).to_csv_string()
        assert a == b

    def test_adjacent_streams_do_not_collide(self):
        # raw 64-bit outputs of two neighbouring replicate streams never repeat
        g0 = np.random.default_rng(np.random.SeedSequence(411, spawn_key=(30, 0)))
        g1 = np.random.default_rng(np.random.SeedSequence(411, spawn_key=(30, 1)))
        a = g0.integers(0, 2**63, size=1_000_000, dtype=np.uint64)
        b = g1.integers(0, 2**63, size=1_000_000, dtype=np.uint64)
        assert len(np.intersect1d(a, b)) == 0

    def test_workers_do_not_change_results(self):
        serial = run_study(three_param_config(replicates=30))
        parallel = run_study(three_param_config(replicates=30, workers=2))
        assert serial.to_csv_string() == parallel.to_csv_string()

    def test_one_pool_serves_every_sample_size(self, monkeypatch):
        pools = []

        class CountingPool(montecarlo.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
        cfg = dict(true_params=DirectParams.scalar(0.0, 1.0, 5.0), sample_sizes=(20, 50, 100),
                   replicates=24, base_seed=412, fixed={"xi": 0.0, "omega": 1.0},
                   estimators=("MLE", "MPLE", "SF", "WBAR"), exclusion="common-finite")
        serial = run_study(StudyConfig(**cfg))
        assert pools == []
        parallel = run_study(StudyConfig(**cfg, workers=2))
        assert len(pools) == 1
        assert parallel.to_csv_string() == serial.to_csv_string()
        assert parallel.metadata["estimates"] == serial.metadata["estimates"]
        assert parallel.metadata["diverged"] == serial.metadata["diverged"]


def shape_only_config(**kw):
    base = dict(true_params=DirectParams.scalar(0.0, 1.0, 5.0), sample_sizes=(20, 50),
                replicates=1, base_seed=413, fixed={"xi": 0.0, "omega": 1.0},
                estimators=("MLE", "MPLE", "SF", "WBAR"), exclusion="common-finite")
    base.update(kw)
    return StudyConfig(**base)


def assert_same_study(a, b):
    assert a.to_csv_string() == b.to_csv_string()
    assert a.to_json_string() == b.to_json_string()
    for key in ("estimates", "diverged", "fit_failures", "failure_kinds", "work"):
        assert a.metadata[key] == b.metadata[key]


class TestPoolPath:
    @pytest.mark.parametrize("replicates, sample_sizes", [(1, (20, 50)), (17, (100, 20, 50))])
    def test_pool_matches_serial(self, replicates, sample_sizes, monkeypatch):
        submitted = []

        class RecordingPool(montecarlo.ProcessPoolExecutor):
            def map(self, fn, tasks):
                submitted.extend((n, list(reps)) for _, n, reps in tasks)
                return super().map(fn, tasks)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
        cfg = dict(replicates=replicates, sample_sizes=sample_sizes)
        serial = run_study(shape_only_config(**cfg))
        parallel = run_study(shape_only_config(**cfg, workers=2))
        assert_same_study(parallel, serial)
        assert list(dict.fromkeys(r["n"] for r in parallel.rows)) == list(sample_sizes)
        # chunks of 16 consecutive replicates, largest n first
        chunks = [list(range(i, min(i + 16, replicates))) for i in range(0, replicates, 16)]
        assert submitted == [(n, c) for n in sorted(sample_sizes, reverse=True) for c in chunks]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the failing fit reaches the pool workers only by fork")
    def test_pool_matches_serial_when_a_replicate_fails(self, monkeypatch):
        cfg = shape_only_config(replicates=17, sample_sizes=(100, 20, 50))
        doomed = sample(cfg.true_params, 50, np.random.SeedSequence(413, spawn_key=(50, 16)))
        real_fit_mple = montecarlo.fit_mple

        def fit_mple_failing_once(data, spec, **kw):
            if np.array_equal(data.rows, doomed.rows):
                raise OptimizationError("forced")
            return real_fit_mple(data, spec, **kw)

        monkeypatch.setattr(montecarlo, "fit_mple", fit_mple_failing_once)
        serial = run_study(cfg)
        assert serial.metadata["failure_kinds"] == {"MPLE@n=50": {"OptimizationError": 1},
                                                    "WBAR@n=50": {"input fit failed": 1}}
        assert_same_study(run_study(dataclasses.replace(cfg, workers=2)), serial)

    def test_plan(self):
        def plan(**kw):
            return [(n, reps) for _, n, reps in montecarlo._pool_tasks(shape_only_config(**kw))]

        # a rates_1p-shaped study: 3 chunks per n (16, 16, 8) instead of 20 chunks of 2
        rates = plan(replicates=40, sample_sizes=(50, 100, 250, 500, 1000), workers=2)
        assert len(rates) <= 20
        assert [n for n, _ in rates] == sorted((n for n, _ in rates), reverse=True)
        assert [list(r) for n, r in rates if n == 50] == [list(range(40))[i:i + 16]
                                                          for i in (0, 16, 32)]
        # large studies keep R // (8 W): 17 chunks of 18, and 16 chunks of 625 per n
        table1 = plan(replicates=300, sample_sizes=(50,), workers=2)
        assert [list(r) for _, r in table1] == [list(range(300))[i:i + 18]
                                                for i in range(0, 300, 18)]
        big = plan(replicates=10_000, sample_sizes=(50, 100, 250, 500, 1000), workers=2)
        assert [n for n, _ in big] == [n for n in (1000, 500, 250, 100, 50) for _ in range(16)]
        assert [list(r) for _, r in big[:16]] == [list(range(i, i + 625))
                                                  for i in range(0, 10_000, 625)]


@pytest.fixture(scope="module")
def outcomes():
    results = {}
    for rule in ("alpha-only", "common-finite", "whole-vector"):
        results[rule] = run_study(three_param_config(exclusion=rule))
    return results


class TestExclusionRules:

    def test_divergences_present(self, outcomes):
        s = outcomes["alpha-only"]
        p_div = s.value("MLE", "alpha", 30, "divergence_proportion")
        assert 0.0 < p_div < 1.0
        assert p_div == pytest.approx(s.diverged_mask(30).mean())

    def test_alpha_only_rule(self, outcomes):
        s = outcomes["alpha-only"]
        n_fin = int((~s.diverged_mask(30)).sum())
        assert s.replicates_used("MLE", "alpha", 30) == n_fin
        assert s.replicates_used("MLE", "xi", 30) == 60
        assert s.replicates_used("MPLE", "alpha", 30) == 60
        assert s.replicates_used("WBAR", "alpha", 30) == 60

    def test_common_finite_rule(self, outcomes):
        s = outcomes["common-finite"]
        n_fin = int((~s.diverged_mask(30)).sum())
        for est in ("MLE", "MPLE", "WBAR"):
            assert s.replicates_used(est, "alpha", 30) == n_fin

    def test_whole_vector_rule(self, outcomes):
        s = outcomes["whole-vector"]
        n_fin = int((~s.diverged_mask(30)).sum())
        assert s.replicates_used("MLE", "xi", 30) == n_fin
        assert s.replicates_used("MLE", "alpha", 30) == n_fin
        assert s.replicates_used("MPLE", "alpha", 30) == 60
        assert s.replicates_used("WBAR", "alpha", 30) == n_fin


class TestFailureReporting:
    def test_forced_failures_are_counted_and_grouped_by_kind(self, monkeypatch):
        calls = []
        real_fit_mle = montecarlo.fit_mle

        def flaky_fit_mle(data, spec, **kw):
            calls.append(None)
            if len(calls) == 2:
                raise OptimizationError("forced")
            return real_fit_mle(data, spec, **kw)

        def failing_fit_wbar(*args, **kw):
            raise WbarBracketError("forced")

        monkeypatch.setattr(montecarlo, "fit_mle", flaky_fit_mle)
        monkeypatch.setattr(montecarlo, "fit_wbar", failing_fit_wbar)
        s = run_study(three_param_config(replicates=4))
        assert s.metadata["fit_failures"] == {"MLE@n=30": 1, "WBAR@n=30": 4}
        # the replicate whose MLE failed has no WBAR attempt
        assert s.metadata["failure_kinds"] == {
            "MLE@n=30": {"OptimizationError": 1},
            "WBAR@n=30": {"WbarBracketError": 3, "input fit failed": 1},
        }
        assert s.replicates_used("MLE", "xi", 30) == 3
        assert s.replicates_used("MPLE", "xi", 30) == 4
        # a column every replicate of which failed is summarized as NaN over 0 replicates
        assert s.metadata["estimates"]["WBAR"][30] == []
        assert s.replicates_used("WBAR", "alpha", 30) == 0
        assert np.isnan(s.value("WBAR", "alpha", 30, "mean_bias"))
        assert s.to_json_dict()["metadata"]["failure_kinds"] == s.metadata["failure_kinds"]

    def test_stop_reasons_are_counted_per_estimator_and_n(self):
        s = run_study(three_param_config(sample_sizes=(50,), replicates=3, base_seed=20260809))
        assert s.diverged_mask(50).tolist() == [False, True, False]
        reasons = s.metadata["stop_reasons"]
        # the clamped MLE reports its re-fit's reason; WBAR, a closed form, none
        assert reasons == {"MLE@n=50": {"gtol": 3}, "MPLE@n=50": {"gtol": 3}}
        assert s.to_json_dict()["metadata"]["stop_reasons"] == reasons

    def test_clean_study_reports_no_failures(self):
        s = run_study(three_param_config(replicates=3))
        assert s.metadata["fit_failures"] == {} == s.metadata["failure_kinds"]


class TestWorkCounts:
    def test_sums_the_counts_of_the_fits_behind_the_estimates(self):
        cfg = shape_only_config(replicates=3)
        work = run_study(cfg).metadata["work"]
        spec = cfg.model_spec()
        expected = {}
        for n in cfg.sample_sizes:
            totals = {e: [0, 0] for e in cfg.estimators}
            for rep in range(cfg.replicates):
                data = sample(cfg.true_params, n, np.random.SeedSequence(413, spawn_key=(n, rep)))
                fits = {"MLE": montecarlo.fit_mle(data, spec),
                        "MPLE": montecarlo.fit_mple(data, spec),
                        "SF": montecarlo.fit_sf_one_param(data, spec)}
                fits["WBAR"] = montecarlo.fit_wbar(data, spec, fits["MLE"], fits["MPLE"],
                                                   allow_boundary_mle=True)
                for e, f in fits.items():
                    totals[e][0] += f.evaluations
                    totals[e][1] += f.iterations
            expected.update({f"{e}@n={n}": {"evaluations": ev, "iterations": it}
                             for e, (ev, it) in totals.items()})
        assert work == expected

    @staticmethod
    def totals(work):
        out = {}
        for key, counts in work.items():
            t = out.setdefault(key.partition("@")[0], [0, 0])
            t[0] += counts["evaluations"]
            t[1] += counts["iterations"]
        return out

    def test_rate_study_slice(self):
        # the first 40 criterion-5 replicates per n: shape-only fits count score
        # evaluations, one per iteration; the counts are the same on a pool
        cfg = shape_only_config(sample_sizes=(50, 100, 250, 500, 1000), replicates=40,
                                base_seed=20260810)
        work = run_study(cfg).metadata["work"]
        assert self.totals(work) == {"MLE": [1271, 1271], "MPLE": [1339, 1339],
                                     "SF": [1814, 1814], "WBAR": [200, 0]}
        assert run_study(dataclasses.replace(cfg, workers=2)).metadata["work"] == work

    def test_table1_slice(self):
        # the first 300 criterion-4 replicates: objective rows and BFGS iterations
        s = run_study(three_param_config(sample_sizes=(50,), replicates=300,
                                         base_seed=20260809, workers=2))
        assert self.totals(s.metadata["work"]) == {"MLE": [38314, 3927], "MPLE": [34594, 3467],
                                                   "WBAR": [300, 0]}
        assert s.to_json_dict()["metadata"]["work"] == s.metadata["work"]


class TestDivergenceRow:
    def test_bivariate_row_counts_the_largest_shape_component(self):
        truth = DirectParams(xi=[0.0, 0.0], omega_mat=[[1.0, 0.5], [0.5, 1.0]], alpha=[3.0, -1.0])
        s = run_study(StudyConfig(true_params=truth, sample_sizes=(20,), replicates=3,
                                  base_seed=3, dimension=2, estimators=("MLE",)))
        rows = [r for r in s.rows if r["statistic"] == "divergence_proportion"]
        assert [r["parameter"] for r in rows] == ["max_abs_alpha"]
        flags = s.diverged_mask(20)
        assert flags.tolist() == [True, False, False]
        assert rows[0]["value"] == pytest.approx(1 / 3) and rows[0]["replicates_used"] == 3
        max_abs_alpha = np.abs(s.estimates("MLE", 20)[:, -2:]).max(axis=1)
        assert max_abs_alpha[0] == 100.0 and np.all(max_abs_alpha[1:] < 100.0)


class TestStudyConfig:
    def test_round_trip(self):
        cfg = three_param_config(exclusion="common-finite", label="t")
        back = StudyConfig.from_dict(cfg.to_dict())
        assert back.to_dict() == cfg.to_dict()

    def test_rejects_bad_estimator(self):
        with pytest.raises(ValueError):
            three_param_config(estimators=("MLE", "MAP"))

    def test_rejects_bad_exclusion(self):
        with pytest.raises(ValueError):
            three_param_config(exclusion="drop-everything")

    def test_rejects_zero_replicates(self):
        with pytest.raises(ValueError):
            three_param_config(replicates=0)

    @pytest.mark.parametrize("field, value", [
        ("sample_sizes", ()),
        ("sample_sizes", (20, 20)),
        ("sample_sizes", (0,)),
        ("sample_sizes", (20.5,)),
        ("sample_sizes", ("20",)),
        ("sample_sizes", (True,)),
        ("workers", -3),
        ("workers", 0),
        ("workers", 2.0),
        ("replicates", 2.5),
        ("replicates", True),
        ("base_seed", 2.5),
        ("base_seed", True),
        ("base_seed", -3),
    ])
    def test_rejects_bad_sizes_and_workers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            three_param_config(**{field: value})

    def test_keeps_its_model_spec(self):
        cfg = shape_only_config()
        assert cfg.model_spec() is cfg.model_spec()
        assert cfg.model_spec() == ModelSpec(family="sn", dimension=1,
                                             fixed={"xi": 0.0, "omega": 1.0})
        wider = dataclasses.replace(cfg, fixed={"xi": 0.0}, estimators=("MLE", "MPLE"))
        assert wider.model_spec().fixed == {"xi": 0.0}
        assert not wider.model_spec().is_one_param and cfg.model_spec().is_one_param
        assert pickle.loads(pickle.dumps(cfg)).model_spec() == cfg.model_spec()

    def test_accepts_numpy_integer_sizes(self):
        cfg = three_param_config(sample_sizes=np.array([30, 20]), workers=np.int64(2),
                                 replicates=np.int64(3))
        assert cfg.sample_sizes == (30, 20) and all(type(n) is int for n in cfg.sample_sizes)
        assert type(cfg.replicates) is int and cfg.replicates == 3


@pytest.fixture(scope="module")
def curves() -> RateCurves:
    cfg = StudyConfig(
        true_params=DirectParams.scalar(0.0, 1.0, 5.0),
        sample_sizes=(50, 200),
        replicates=200,
        base_seed=612,
        family="sn",
        dimension=1,
        fixed={"xi": 0.0, "omega": 1.0},
        estimators=("MLE", "MPLE", "SF", "WBAR"),
        exclusion="common-finite",
    )
    return rate_curves(cfg)


class TestRateCurves:

    def test_mple_beats_mle_on_mean_bias(self, curves):
        for n in (50, 200):
            mle = abs(curves.summary.value("MLE", "alpha", n, "mean_bias"))
            mple = abs(curves.summary.value("MPLE", "alpha", n, "mean_bias"))
            assert mple < mle

    def test_slope_negative(self, curves):
        assert curves.slope("MLE") < 0

    def test_csv_emission(self, curves):
        text = curves.to_csv_string()
        assert text.startswith("estimator,n,log_n,statistic,value")
        assert "MPLE,200," in text

    def test_requires_one_param_model(self):
        with pytest.raises(ValueError):
            rate_curves(three_param_config())


class TestBootstrap:
    def test_se_of_mean(self, rng):
        x = rng.normal(size=400)
        se = bootstrap_se(x, np.mean, n_boot=600, seed=5)
        assert se == pytest.approx(x.std(ddof=1) / 20.0, rel=0.2)
