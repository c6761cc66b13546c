"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench -q``.

The command-line tests run the real benchmark briefly (about three
minutes in all on two cores; fit_mix makes one full pass over its
requests however short ``--seconds`` is).
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from penskew import Dataset, ModelSpec  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# metric names and units


def test_benchmark_json_matches_the_code():
    assert [m["name"] for m in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        tracing.per_layer_spec()
    assert {m["name"] for m in SPEC["end_to_end"]} == set(run.E2E_METRICS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload):
    proc = _run("--workload", workload, "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # the report lines name every metric, gated or not, with its unit
    lines = {line.split()[0]: line.split()[2] for line in proc.stdout.splitlines()[1:]
             if line.startswith("  ") and not line.strip().startswith("check")}
    own = (("fit_p50_ms", "fit_tail_ms", "requests_per_s") if workload == "fit_mix"
           else ("study_reps_per_s", "run_study_p50_ms", "run_study_tail_ms"))
    for name in ("setup_s", *own, "fail_ratio", "estimate_mismatch_ratio", "peak_rss_mb"):
        assert name in lines
    other = {"fit_p50_ms", "study_reps_per_s"} - set(own)
    assert not other & set(lines), "a metric printed on a workload it does not apply to"
    assert lines["fail_ratio"] == lines["estimate_mismatch_ratio"] == "ratio"
    saved = json.loads((BENCH / "results" / f"{workload}-seed"
                        f"{result_seed(workload)}-trace0.json").read_text())
    assert saved["provenance"]["nproc"] >= 1
    assert saved["report"]["estimate_mismatch_ratio"]["value"] == 0


def result_seed(workload):
    return wl.FIT_MIX_SEED if workload == "fit_mix" else wl.STUDIES[workload].default_seed


def test_traced_run_emits_every_per_layer_metric():
    proc = _run("--workload", "rates_1p", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] is True
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    spans = (BENCH / "results" / "spans-rates_1p-seed20260810-trace1.jsonl").read_text()
    first = json.loads(spans.splitlines()[0])
    assert {"id", "name", "parent", "start_ns", "end_ns", "rep"} <= set(first)


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("--workload", "fit_mix", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ---------------------------------------------------------------------------
# failure and mismatch accounting


def test_fail_ratio_counts_forced_failure_against_calls():
    three_param = wl.FitClass("3p", wl.TRUTH5, ModelSpec(family="sn", dimension=1))
    constant = Dataset(np.full(50, 1.5))  # scale not identifiable: fit_mle raises
    bad = wl.fit_request(three_param, constant)
    assert set(bad["errors"]) == {"MLE", "MPLE"}
    good = wl.fit_request(*wl.fit_mix_requests(wl.FIT_MIX_SEED, 1)[0])
    assert good["errors"] == {}
    # stderr and WBAR are not attempted without their inputs: base is 2 + 4 calls
    assert wl.fit_mix_failures([bad, good]) == (2, 6)


def test_failure_counts_do_not_depend_on_run_length():
    # at seed 24, fit_wbar raised on one table1_3p replicate when this was written;
    # one call or several, the slice's fits are counted once
    run._import_penskew()
    one = run.run_study_workload("table1_3p", 24, 0, HostSpeed())
    more = run.run_study_workload("table1_3p", 24, 6, HostSpeed())
    _, _, identical, failed, attempted, _, lat_ms = more
    assert identical and len(lat_ms) > len(one[6]) == 1
    assert (failed, attempted) == one[3:5] and attempted == wl.TABLE1_3P.fits_per_call()


def test_study_fail_ratio_base_is_fits_per_call():
    assert wl.TABLE1_3P.fits_per_call() == wl.TABLE1_3P.replicates * 3
    assert wl.RATES_1P.fits_per_call() == wl.RATES_1P.replicates * 5 * 4
    assert wl.study_failures({"fit_failures": {"MLE@n=50": 2, "WBAR@n=50": 3}}) == 5


def test_study_mismatch_flags_a_perturbed_reference():
    ref = run.load_reference("rates_1p")[str(wl.RATES_1P.default_seed)]
    total = wl.RATES_1P.fits_per_call()
    assert wl.study_mismatch(ref, ref) == (0, total)
    moved = json.loads(json.dumps(ref))
    moved["estimates"]["MPLE"]["100"][3][0] *= 1 + 1e-5
    assert wl.study_mismatch(moved, ref) == (1, total)
    moved["estimates"]["MPLE"]["100"][3][0] = ref["estimates"]["MPLE"]["100"][3][0] * (1 + 1e-8)
    assert wl.study_mismatch(moved, ref) == (0, total)
    moved["diverged"]["50"][0] = not moved["diverged"]["50"][0]
    assert wl.study_mismatch(moved, ref) == (1, total)
    dropped = json.loads(json.dumps(ref))
    del dropped["estimates"]["SF"]["250"][0]  # a failed fit shifts the cell
    assert wl.study_mismatch(dropped, ref) == (wl.RATES_1P.replicates, total)


def test_fit_mix_mismatch_flags_a_perturbed_reference():
    ref = run.load_reference("fit_mix")[str(wl.FIT_MIX_SEED)][:6]
    assert wl.fit_mix_mismatch(ref, ref) == (0, 24)
    moved = json.loads(json.dumps(ref))
    moved[2]["SE"][1] *= 1 + 1e-5
    assert wl.fit_mix_mismatch(moved, ref) == (1, 24)
    moved[4]["errors"]["WBAR"] = "ValueError: forced"
    moved[4]["WBAR"] = None
    assert wl.fit_mix_mismatch(moved, ref) == (2, 24)


# ---------------------------------------------------------------------------
# the traced replay describes the same program


def test_traced_study_agrees_with_two_workers_bit_for_bit():
    small = dataclasses.replace(wl.RATES_1P, replicates=3)
    summary2, rec2 = wl.run_study_record(small, 7, workers=2)
    tracer = tracing.Tracer()
    pairing = tracing.Pairing(tracer)
    summary1 = tracing.traced_study(small, 7, pairing)
    assert pairing.same
    assert wl.exactly_equal(wl.study_record(summary1), rec2)
    assert wl.exactly_equal(summary1.rows, summary2.rows)
    names = {s["name"] for s in tracer.spans}
    assert set(tracing.STUDY_SPANS.values()) | {"montecarlo.replicate"} == names
    reps = [s for s in tracer.spans if s["name"] == "montecarlo.replicate"]
    assert len(reps) == 3 * len(small.sample_sizes)
    fits = [s for s in tracer.spans if s["name"] == "estimators.fit_mle"]
    assert all(s["rep"] is not None and s["cls"] == "1p" and "iterations" in s for s in fits)
    # the program's own functions are back in place afterwards
    import penskew.montecarlo as mc
    assert mc.fit_mle.__module__ == "penskew.estimators"
    assert mc._run_replicate.__module__ == "penskew.montecarlo"


def test_slice_replicates_are_the_acceptance_study_prefix():
    ref = run.load_reference("table1_3p")[str(wl.TABLE1_3P.default_seed)]
    head = dataclasses.replace(wl.TABLE1_3P, replicates=4)
    _, rec = wl.run_study_record(head, wl.TABLE1_3P.default_seed, workers=1)
    for est, by_n in rec["estimates"].items():
        assert by_n["50"] == ref["estimates"][est]["50"][:4]


def test_self_time_subtracts_children():
    tr = tracing.Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    outer, inner = sorted(tr.spans, key=lambda s: s["id"])
    self_ns = tracing._self_times(tr.spans)
    assert inner["parent"] == outer["id"]
    assert self_ns[outer["id"]] == (outer["end_ns"] - outer["start_ns"]
                                    - (inner["end_ns"] - inner["start_ns"]))


def test_host_speed_scales_times_and_rates_oppositely():
    host = HostSpeed()
    host.samples_ms = [40.0, 50.0, 50.0]  # a host at half the reference speed
    assert host.factor == 0.5
    assert host.scale(10.0, "ms") == 5.0
    assert host.scale(10.0, "1/s") == 20.0
    host.sample(2)
    assert len(host.samples_ms) == 5 and min(host.samples_ms) > 0


def test_tail_is_an_interpolated_p90():
    assert wl.tail_p90(list(range(101))) == 90.0
    assert wl.tail_p90([1.0, 2.0]) == 1.9
    assert wl.tail_p90([4.0]) == 4.0


def test_fit_mix_prefix_is_stable_and_balanced():
    full = wl.fit_mix_requests(5, 9)
    head = wl.fit_mix_requests(5, 3)
    assert [fc.name for fc, _ in full[:3]] == ["st_pin", "st_free", "d2"]
    assert all(np.array_equal(a.rows, b.rows) for (_, a), (_, b) in zip(head, full))
