"""Benchmark of penskew's seeded studies and single fits.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload rates_1p --seed 20260810 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the serial traced replay of every workload's slice
and reports the per-layer metrics.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; its timings are
scaled to a reference host speed (see hostspeed.py).  A result file
with provenance (and, when traced, a per-span file) is written under
``perfbench/results/``.  See perfbench/README.md for the workloads and
what each metric is expected to show.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
REFERENCE = BENCH_DIR / "reference"
WORKLOADS = ("rates_1p", "table1_3p", "fit_mix")
E2E_METRICS = ("setup_s", "throughput_ref_per_s", "latency_p50_ref_ms", "latency_tail_ref_ms",
               "peak_rss_mb")
SETUP_REPEATS = 5
CAL_PER_STUDY_CALL = 2  # calibration samples after each run_study call
CAL_EVERY_REQUESTS = 3  # fit_mix requests per calibration sample

# what a fresh interpreter does before its first fit can start
SETUP_CODE = """
import json, time
t0 = time.perf_counter()
import penskew
t1 = time.perf_counter()
penskew.sn_coeffs()
t2 = time.perf_counter()
penskew.st_coeffs(4.0, "exact")
t3 = time.perf_counter()
print(json.dumps({"file": penskew.__file__, "import_s": t1 - t0,
                  "sn_coeffs_ms": 1e3 * (t2 - t1), "st_coeffs_exact_ms": 1e3 * (t3 - t2)}))
"""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the acceptance seed of the workload)")
    p.add_argument("--seconds", type=float, default=30.0, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_penskew():
    """Import penskew from this checkout's source tree, never from elsewhere."""
    if not (SRC / "penskew" / "__init__.py").is_file():
        raise FileNotFoundError(f"no penskew source tree at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import penskew

    if Path(penskew.__file__).resolve().parent != (SRC / "penskew").resolve():
        raise ImportError(f"penskew imported from {penskew.__file__}, not from {SRC}")
    return penskew


# ---------------------------------------------------------------------------
# set-up and provenance


def measure_setup(repeats=SETUP_REPEATS) -> dict:
    """Fresh interpreters from start until the first fit is ready, timed from outside."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, children = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(child["file"]).resolve().parent != (SRC / "penskew").resolve():
            raise ImportError(f"set-up interpreter imported penskew from {child['file']}")
        children.append(child)
    return {
        "setup_s": statistics.median(walls),
        "samples": walls,
        "sn_coeffs_cold_ms": statistics.median(c["sn_coeffs_ms"] for c in children),
        "st_coeffs_exact_cold_ms": statistics.median(c["st_coeffs_exact_ms"] for c in children),
    }


def _openblas_threads():
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "penskew").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seeds: dict) -> dict:
    import numpy as np
    import scipy

    from workloads import FIT_MIX_PER_CLASS, FIT_CLASSES, STUDIES, WORKERS

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_per_process": _openblas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "study_workers": WORKERS,
        "replicates_per_n": {name: s.replicates for name, s in STUDIES.items()},
        "fit_mix_requests": FIT_MIX_PER_CLASS * len(FIT_CLASSES),
        "seeds": seeds,
    }


def warm() -> None:
    """Do in this interpreter the set-up a fresh one pays before its first fit."""
    penskew = sys.modules["penskew"]
    penskew.sn_coeffs()
    penskew.st_coeffs(4.0, "exact")


def peak_rss_mb(pool_workers: int) -> float:
    """Peak RSS of this process plus ``pool_workers`` times that of its largest finished child.

    Read before any set-up interpreter starts, so that the only children
    are a study's pool workers; they run side by side, so each counts.
    Pages a forked worker shares with this process count in both.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if pool_workers else 0
    return (own + pool_workers * child) / 1024.0


# ---------------------------------------------------------------------------
# reference outputs


def load_reference(workload: str) -> dict:
    with open(REFERENCE / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)["seeds"]


# ---------------------------------------------------------------------------
# end-to-end runs (tracing off)
#
# Each run first computes, untimed, the reference seed's outputs: the
# requested seed when its outputs are recorded, else the default seed.
# That call is the warm-up and the estimate_mismatch_ratio check; the
# timed loop then runs at the requested seed and every repeat of it
# must reproduce its first result exactly.  ``attempted`` and ``failed``
# count the fits of the seeded input once each (fit_mix's loop runs
# every request of its set at least once), so they depend on the seed
# alone, not on how many times a run of a given length repeats the work.


def run_study_workload(name, seed, seconds, host):
    import workloads as wl

    slice_ = wl.STUDIES[name]
    ref = load_reference(name)
    ref_seed = seed if str(seed) in ref else slice_.default_seed
    _, warm_rec = wl.run_study_record(slice_, ref_seed)
    mismatch = wl.study_mismatch(warm_rec, ref[str(ref_seed)])
    first = warm_rec if ref_seed == seed else None
    walls, identical = [], True
    host.sample(CAL_PER_STUDY_CALL)
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        _, rec = wl.run_study_record(slice_, seed)
        walls.append(time.perf_counter() - t0)
        host.sample(CAL_PER_STUDY_CALL)
        first = first or rec
        identical &= wl.exactly_equal(rec, first)
    failures, attempted = wl.study_failures(first), slice_.fits_per_call()
    reps = slice_.replicates * len(slice_.sample_sizes)
    lat_ms = [1e3 * w for w in walls]
    calls = len(walls)
    rows = [
        ("study_reps_per_s", statistics.median(reps / w for w in walls), "1/s",
         f"median over {calls} run_study calls of {reps} replicates", "throughput_ref_per_s"),
        ("run_study_p50_ms", statistics.median(lat_ms), "ms",
         f"median of {calls} calls; the same measurement as study_reps_per_s",
         "latency_p50_ref_ms"),
        ("run_study_tail_ms", wl.tail_p90(lat_ms), "ms",
         f"p90 of {calls} calls, interpolated", "latency_tail_ref_ms"),
    ]
    return mismatch, ref_seed, identical, failures, attempted, rows, lat_ms


def run_fit_mix_workload(seed, seconds, host):
    import workloads as wl

    ref = load_reference("fit_mix")
    ref_seed = seed if str(seed) in ref else wl.FIT_MIX_SEED
    warm_recs = [wl.fit_request(fc, d)
                 for fc, d in wl.fit_mix_requests(ref_seed, wl.FIT_MIX_WARMUP)]
    requests = wl.fit_mix_requests(seed)
    first = [None] * len(requests)
    if ref_seed == seed:
        first[: len(warm_recs)] = warm_recs
    lat_ms, identical, i = [], True, 0
    by_class = {fc.name: [] for fc in wl.FIT_CLASSES}
    host.sample()
    deadline = time.perf_counter() + seconds
    # every request of the seeded set runs at least once, so the counts below are the set's
    while i < len(requests) or time.perf_counter() < deadline:
        k = i % len(requests)
        t0 = time.perf_counter()
        rec = wl.fit_request(*requests[k])
        lat_ms.append(1e3 * (time.perf_counter() - t0))
        by_class[rec["class"]].append(lat_ms[-1])
        first[k] = first[k] or rec
        identical &= wl.exactly_equal(rec, first[k])
        i += 1
        if i % CAL_EVERY_REQUESTS == 0:
            host.sample()
    failed, attempted = wl.fit_mix_failures(first)
    checked = first if ref_seed == seed else warm_recs
    mismatch = wl.fit_mix_mismatch(checked, ref[str(ref_seed)][: len(checked)])
    count = len(lat_ms)
    rows = [
        ("fit_p50_ms", statistics.median(lat_ms), "ms", f"per request, {count} requests",
         "latency_p50_ref_ms"),
        ("fit_tail_ms", wl.tail_p90(lat_ms), "ms", f"p90 of {count} requests",
         "latency_tail_ref_ms"),
        ("requests_per_s", 1e3 * count / sum(lat_ms), "1/s",
         f"one caller, {count} requests over their summed latency", "throughput_ref_per_s"),
        *((f"fit_p50_ms.{cls}", statistics.median(v), "ms", f"{len(v)} requests", None)
          for cls, v in by_class.items() if v),
    ]
    return mismatch, ref_seed, identical, failed, attempted, rows, lat_ms


def end_to_end(workload, seed, seconds):
    """Timed loop first, then peak RSS, then set-up in fresh interpreters.

    Each report row is (name, value, unit, note, gated name or None).  A
    wall-clock row names the gated metric it is scaled into, by the host
    speed the calibration samples of the timed loop give; a gated row
    names itself.
    """
    from hostspeed import REFERENCE_MS, HostSpeed
    import workloads as wl

    warm()
    host = HostSpeed()
    if workload == "fit_mix":
        out = run_fit_mix_workload(seed, seconds, host)
        pool_workers = 0
    else:
        out = run_study_workload(workload, seed, seconds, host)
        pool_workers = wl.WORKERS
    rss = peak_rss_mb(pool_workers)
    setup = measure_setup()
    (bad, total), ref_seed, identical, failed, attempted, rows, lat_ms = out
    rss_note = (f"this process plus {pool_workers} x its largest pool worker" if pool_workers
                else "this process (no children)")
    wall = [("setup_wall_s", setup["setup_s"], "s",
             f"median of {len(setup['samples'])} fresh interpreters", "setup_s"), *rows]
    scaled = [(gated, host.scale(value, unit), unit, f"{name} at the reference host speed", gated)
              for name, value, unit, _, gated in wall if gated]
    report = [
        *wall,
        ("fail_ratio", failed / attempted, "ratio",
         f"{failed} failed / {attempted} fits of the seeded input, each counted once", None),
        ("estimate_mismatch_ratio", bad / total, "ratio",
         f"{bad} / {total} estimate vectors vs seed {ref_seed}", None),
        ("host_speed_factor", host.factor, "ratio",
         f"calibration kernel median {host.median_ms:.4g} ms over {len(host.samples_ms)} "
         f"samples in the timed loop, reference {REFERENCE_MS:g} ms", None),
        *scaled,
        ("peak_rss_mb", rss, "MB", rss_note, "peak_rss_mb"),
    ]
    checks = {"repeat_runs_identical": identical, "matches_reference": bad == 0}
    extra = {"reference_seed": ref_seed, "latencies_ms": lat_ms,
             "calibration_ms": host.samples_ms}
    return report, checks, attempted, failed, extra


# ---------------------------------------------------------------------------
# traced run


def traced(seed_for: dict):
    import tracing
    import workloads as wl

    setup = measure_setup()
    warm()
    tracer = tracing.Tracer()
    pairing = tracing.Pairing(tracer)
    checks, walls_e2e = {}, {}
    attempted = failed = 0
    for name, slice_ in wl.STUDIES.items():
        seed = seed_for[name]
        t0 = time.perf_counter()
        summary2, rec2 = wl.run_study_record(slice_, seed)
        walls_e2e[name] = time.perf_counter() - t0
        summary1 = tracing.traced_study(slice_, seed, pairing)
        checks[f"{name}.traced_workers_1_equals_workers_2"] = (
            wl.exactly_equal(wl.study_record(summary1), rec2)
            and wl.exactly_equal(summary1.rows, summary2.rows))
        ref = load_reference(name)
        if str(seed) in ref:
            checks[f"{name}.matches_reference"] = wl.study_mismatch(rec2, ref[str(seed)])[0] == 0
        attempted += slice_.fits_per_call()
        failed += wl.study_failures(rec2)

    requests = wl.fit_mix_requests(seed_for["fit_mix"], wl.FIT_MIX_TRACED)
    records = tracing.traced_fit_mix(requests, pairing)
    checks["traced_equals_untraced"] = pairing.same
    ref = load_reference("fit_mix")
    if str(seed_for["fit_mix"]) in ref:
        checks["fit_mix.matches_reference"] = (
            wl.fit_mix_mismatch(records, ref[str(seed_for["fit_mix"])][: len(records)])[0] == 0)
    f, a = wl.fit_mix_failures(records)
    failed, attempted = failed + f, attempted + a

    metrics = tracing.span_metrics(tracer.spans, walls_e2e)
    metrics.update(tracing.kernel_metrics(seed_for, requests))
    metrics["penalty.sn_coeffs.cold_ms"] = setup["sn_coeffs_cold_ms"]
    metrics["penalty.st_coeffs_exact.cold_ms"] = setup["st_coeffs_exact_cold_ms"]
    metrics["trace.overhead_frac"] = pairing.overhead_frac
    return tracer, metrics, checks, attempted, failed


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        _import_penskew()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads as wl

    defaults = {"fit_mix": wl.FIT_MIX_SEED,
                **{name: s.default_seed for name, s in wl.STUDIES.items()}}
    seed = defaults[args.workload] if args.seed is None else args.seed
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    if args.trace:
        # one traced run replays every workload's slice, so every per-layer metric is emitted
        seed_for = {w: (defaults[w] if args.seed is None else seed) for w in WORKLOADS}
        tracer, values, checks, attempted, failed = traced(seed_for)
        spans_path = RESULTS / f"spans-{stem}.jsonl"
        tracer.write_jsonl(spans_path)
        units = {name: unit for name, unit, _ in tracing.per_layer_spec()}
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        extra = {"spans_file": str(spans_path.relative_to(ROOT)), "span_count": len(tracer.spans)}
        seeds = seed_for
        for k, v in metrics.items():
            print(f"  {k:<44} {v['value']:>14.6g} {v['unit']}")
    else:
        report, checks, attempted, failed, extra = end_to_end(args.workload, seed, args.seconds)
        seeds = {args.workload: seed, "reference": extra["reference_seed"]}
        print(f"workload {args.workload}  seed {seed}")
        for name, value, unit, note, gated in report:
            gate = f"  [scaled into {gated}]" if gated and gated != name else ""
            print(f"  {name:<32} {value:>14.6g} {unit:<6} {note}{gate}")
        gated_values = {name: {"value": value, "unit": unit}
                        for name, value, unit, _, gated in report if gated == name}
        metrics = {k: gated_values[k] for k in E2E_METRICS}
        extra["report"] = {name: {"value": value, "unit": unit, "note": note, "gated_as": gated}
                           for name, value, unit, note, gated in report}
    correct = all(checks.values())
    for k, ok in checks.items():
        print(f"  check {k}: {'ok' if ok else 'FAILED'}")
    result = {"correct": correct, "attempted": int(attempted), "failed": int(failed),
              "metrics": metrics}
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
                   "provenance": provenance(seeds), "checks": checks, **extra,
                   "result": result}, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
