import json
import os
import subprocess
import sys

import numpy as np
import pytest

from penskew.cli import main
from penskew.distributions import Dataset

from conftest import sn_sample


def write_csv(path, values):
    Dataset(np.asarray(values)).to_csv(path)
    return str(path)


class TestFitCommand:
    def test_divergent_mle_exit_code_and_mple_report(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        csv = write_csv(tmp_path / "pos.csv", np.abs(rng.normal(size=30)) + 0.01)
        out = tmp_path / "fit.json"
        code = main(["fit", csv, "--estimator", "all", "--fix", "xi=0", "--fix", "omega=1",
                     "--out", str(out)])
        assert code == 2
        report = json.loads(out.read_text())
        assert report["schema"] == "penskew/fit/v1"
        assert report["fits"]["mle"]["diverged"] is True
        assert abs(report["fits"]["mle"]["estimates"]["alpha"][0]) == 100.0
        assert report["fits"]["mple"]["diverged"] is False
        assert abs(report["fits"]["mple"]["estimates"]["alpha"][0]) < 100.0
        assert "sf" in report["fits"] and "wbar" not in report["fits"]

    def test_gaussian_submodel_matches_closed_form(self, tmp_path):
        rng = np.random.default_rng(9)
        y = rng.normal(1.5, 2.0, size=400)
        csv = write_csv(tmp_path / "g.csv", y)
        out = tmp_path / "fit.json"
        code = main(["fit", csv, "--estimator", "mle", "--fix", "alpha=0", "--out", str(out)])
        assert code == 0
        est = json.loads(out.read_text())["fits"]["mle"]["estimates"]
        assert est["xi"][0] == pytest.approx(y.mean(), abs=1e-6)
        assert est["omega"] == pytest.approx(y.std(), abs=1e-6)

    def test_malformed_row_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0\n2.0\noops\n")
        code = main(["fit", str(bad)])
        assert code == 1
        assert "row 3" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        # the MPLE ran a full search, then failed with "searched [0.0, nan]"
        (["--fix", "xi=0", "--fix", "omega=0"], "pinned omega must be positive, got 0.0"),
        # the fit failed with "nu must be positive, got inf"
        (["--family", "st", "--fix", "nu=inf"], "pinned nu must be finite, got inf"),
        (["--fix", "xi=nan"], "pinned xi must be finite, got nan"),
        # it would bypass the shape-only model and its exact one-sign test
        (["--fix", "xi=0", "--fix", "omega_mat=1"], "pin 'omega' rather than 'omega_mat' for d = 1"),
        # the fit failed with "Input must be 1- or 2-d."
        (["--dim", "2", "--fix", "omega_mat=1"], "pinned omega_mat must be a 2 x 2 matrix, got shape ()"),
    ], ids=["omega=0", "nu=inf", "xi=nan", "omega_mat=1", "omega_mat=1-d2"])
    def test_bad_pinned_value_exit_one(self, extra, message, tmp_path, capsys):
        csv = write_csv(tmp_path / "y.csv", sn_sample(3.0, 30, 5).column(0))
        code = main(["fit", csv, "--estimator", "mple", *extra, "--out", os.devnull])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_skew_t_penalty_follows_the_model(self, tmp_path):
        from penskew.distributions import DirectParams, sample
        data = sample(DirectParams.scalar(0.0, 1.0, 3.0, nu=5.0), 500, 31)
        csv = tmp_path / "st.csv"
        data.to_csv(csv)
        for fix, provenance in ((["--fix", "nu=5"], "ST_EXACT"), ([], "ST_APPROX")):
            out = tmp_path / "fit.json"
            code = main(["fit", str(csv), "--family", "st", *fix,
                         "--estimator", "mple", "--out", str(out)])
            assert code == 0
            mple = json.loads(out.read_text())["fits"]["mple"]
            assert mple["penalty"]["provenance"] == provenance
            assert mple["penalty"]["nu"] == mple["estimates"]["nu"]

    def test_sample_then_fit_round_trip(self, tmp_path):
        csv = tmp_path / "draws.csv"
        assert main(["sample", "--alpha", "3.0", "--n", "10000", "--seed", "21",
                     "--out", str(csv)]) == 0
        out = tmp_path / "fit.json"
        assert main(["fit", str(csv), "--estimator", "mple", "--out", str(out)]) == 0
        a = json.loads(out.read_text())["fits"]["mple"]["estimates"]["alpha"][0]
        assert abs(a - 3.0) < 0.5

    def test_optimizer_stages_on_stderr_and_in_the_report(self, tmp_path, capsys):
        # an all-positive sample: the 3-parameter MLE diverges and is re-fitted
        # at the clamped shape, so its trace has more than one stage
        rng = np.random.default_rng(8)
        csv = write_csv(tmp_path / "pos.csv", np.abs(rng.normal(size=50)) + 0.01)
        out = tmp_path / "fit.json"
        assert main(["fit", csv, "--estimator", "all", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        fits = json.loads(out.read_text())["fits"]
        assert len(fits["mle"]["optimizer_trace"]) >= 2
        for name in ("mle", "mple"):
            fit = fits[name]
            assert fit["stop_reason"] in ("gtol", "line-search")
            lines = [f"{name}: {fit['iterations']} iterations, {fit['evaluations']} "
                     f"log-likelihood evaluations, stopped on {fit['stop_reason']}"]
            lines += [f"  {name} stage {stage}: {nit} iterations, objective {value:.10g}"
                      for stage, nit, value in fit["optimizer_trace"]]
            assert "\n".join(lines) + "\n" in err


class TestCoeffsCommand:
    def test_table_with_infinity_row(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["coeffs", "--nu-grid", "2,inf", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "nu,e1,e2_exact,e2_approx,c1,c2"
        inf_row = lines[2].split(",")
        assert inf_row[0] == "inf"
        assert float(inf_row[4]) == pytest.approx(0.875913, abs=1e-5)
        assert float(inf_row[5]) == pytest.approx(0.856250, abs=1e-5)

    def test_exact_and_approx_close(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["coeffs", "--nu-grid", "0.5,1,2,5,10,50", "--out", str(out)]) == 0
        for line in out.read_text().strip().splitlines()[1:]:
            _, _, exact, approx, _, _ = line.split(",")
            assert abs(float(approx) - float(exact)) / float(exact) < 0.05

    def test_rejects_nonpositive_nu(self, capsys):
        assert main(["coeffs", "--nu-grid", "-1"]) == 1
        assert "positive" in capsys.readouterr().err


class TestProfileCommand:
    def test_two_column_output(self, tmp_path):
        data = sn_sample(3.0, 60, seed=11)
        csv = tmp_path / "d.csv"
        data.to_csv(csv)
        out = tmp_path / "prof.csv"
        assert main(["profile", str(csv), "--grid", "0:8:17", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha,deviance"
        dev = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert len(dev) == 17
        assert np.all(dev >= 0)
        assert dev.min() < 0.5


class TestSimulateCommand:
    def test_bundled_smoke_config(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["simulate", "smoke", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("estimator,parameter,n,statistic,value")
        assert "MPLE,alpha,40," in text

    def test_rerun_identical_bytes(self, tmp_path):
        cfg = {
            "label": "mini",
            "true_params": {"xi": 0.0, "omega": 1.0, "alpha": 4.0},
            "sample_sizes": [25],
            "replicates": 8,
            "base_seed": 99,
            "family": "sn",
            "dimension": 1,
            "fixed": {},
            "estimators": ["MLE", "MPLE"],
        }
        cfg_path = tmp_path / "mini.json"
        cfg_path.write_text(json.dumps(cfg))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["simulate", str(cfg_path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_failure_kinds_on_stderr(self, monkeypatch, capsys):
        import penskew.montecarlo

        def failing_fit_mple(*args, **kw):
            raise RuntimeError("forced")

        monkeypatch.setattr(penskew.montecarlo, "fit_mple", failing_fit_mple)
        assert main(["simulate", "smoke", "--out", os.devnull]) == 0
        err = capsys.readouterr().err
        assert "fit failures: {'MPLE@n=40': 1}\n" in err
        assert "failure kinds: {'MPLE@n=40': {'RuntimeError': 1}}\n" in err

    def test_work_on_stderr(self, tmp_path, capsys):
        jout = tmp_path / "s.json"
        assert main(["simulate", "smoke", "--out", os.devnull, "--json-out", str(jout)]) == 0
        work = json.loads(jout.read_text())["metadata"]["work"]
        assert set(work) == {"MLE@n=40", "MPLE@n=40"}
        assert f"work: {work}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("change, field", [
        ({"sample_sizes": [20, 20]}, "sample_sizes"),
        ({"sample_sizes": [0]}, "sample_sizes"),
        ({"workers": -3}, "workers"),
        ({"replicates": 2.5}, "replicates"),
        ({"base_seed": 2.5}, "base_seed"),
    ])
    def test_bad_config_exit_one(self, change, field, tmp_path, capsys):
        cfg = {"true_params": {"xi": 0.0, "omega": 1.0, "alpha": 4.0}, "sample_sizes": [25],
               "replicates": 2, "base_seed": 99, **change}
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["simulate", str(cfg_path), "--out", os.devnull]) == 1
        assert f"error: {field} must" in capsys.readouterr().err

    def test_unknown_bundled_name(self, capsys):
        assert main(["simulate", "no-such-config"]) == 1
        assert "available" in capsys.readouterr().err

    def test_json_out(self, tmp_path):
        out = tmp_path / "s.csv"
        jout = tmp_path / "s.json"
        assert main(["simulate", "smoke", "--out", str(out), "--json-out", str(jout)]) == 0
        payload = json.loads(jout.read_text())
        assert payload["schema"] == "penskew/study-summary/v1"
        assert payload["rows"]


class TestWScatterCommand:
    def test_output_shape(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["wscatter", "--reps", "40", "--n", "50", "--alpha", "3",
                     "--seed", "5", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "W,Wp,branch"
        assert 0 < len(lines) - 1 <= 40
        for line in lines[1:]:
            w, wp, branch = line.split(",")
            assert float(w) >= 0 and float(wp) >= 0
            assert branch in ("both-over", "both-under", "mixed")


class TestEntryPoint:
    def test_console_script_version(self):
        res = subprocess.run([sys.executable, "-m", "penskew.cli", "--version"],
                             capture_output=True, text=True)
        assert res.returncode == 0
        assert "penskew" in res.stdout
