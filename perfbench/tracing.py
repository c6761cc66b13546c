"""The traced run: a serial, in-process run of every workload's slice with spans.

Spans are recorded by the benchmark's own wrappers around the calls
into each penskew module; nothing inside the package is instrumented.
A study is traced by calling the public ``run_study`` with
``workers=1`` while the names its replicate loop looks up in
``penskew.montecarlo`` at call time are replaced by span wrappers, so
the traced run executes the program's own loop and aggregation and its
result can be checked bit for bit against the end-to-end run.  Spans
are kept in memory and written out at the end.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from contextlib import contextmanager

import numpy as np

import penskew.montecarlo as montecarlo
from penskew import DirectParams, loglik, run_study, sample, zeta1
from penskew.specfun import t_logcdf

from workloads import (
    FIT_CLASSES,
    RATES_1P,
    STUDIES,
    TABLE1_3P,
    TRUTH5,
    WORKERS,
    annotate_fit,
    exactly_equal,
    fit_request,
    tail_p90,
)

MODEL_CLASSES = ("1p", "3p", "st_pin", "st_free", "d2")
STDERR_CLASSES = ("st_pin", "st_free", "d2")

# names run_study's replicate loop and aggregation look up in
# penskew.montecarlo at call time, and the span each call gets
STUDY_SPANS = {
    "sample": "distributions.sample",
    "fit_mle": "estimators.fit_mle",
    "fit_mple": "estimators.fit_mple",
    "fit_sf_one_param": "estimators.fit_sf_one_param",
    "fit_wbar": "wbar.fit_wbar",
    "summarize": "montecarlo.summarize",
}


class Tracer:
    """Records spans (name, start, end, parent, attributes) in memory.

    Every span also carries the attributes in ``context`` (class,
    workload, replicate id).  With ``enabled`` false, ``span`` records
    nothing.
    """

    def __init__(self):
        self.spans = []
        self.context = {}
        self.enabled = True
        self._stack = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, name, **attrs):
        if not self.enabled:
            yield {}
            return
        rec = {"id": next(self._ids), "name": name,
               "parent": self._stack[-1]["id"] if self._stack else None,
               **self.context, **attrs}
        self._stack.append(rec)
        rec["start_ns"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(rec)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in sorted(self.spans, key=lambda r: r["start_ns"]):
                fh.write(json.dumps(rec) + "\n")


class Pairing:
    """Runs each unit of work untraced and traced back to back, alternating the order.

    Comparing the two walls unit by unit keeps drift in machine speed,
    which on a shared host is larger than the cost of the spans, out of
    ``trace.overhead_frac``.  Both runs must give the same result.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.untraced_s = self.traced_s = 0.0
        self.same = True
        self._units = 0

    def run(self, fn):
        order = (False, True) if self._units % 2 == 0 else (True, False)
        self._units += 1
        out = {}
        for enabled in order:
            self.tracer.enabled = enabled
            t0 = time.perf_counter()
            try:
                out[enabled] = fn()
            finally:
                self.tracer.enabled = True
            wall = time.perf_counter() - t0
            if enabled:
                self.traced_s += wall
            else:
                self.untraced_s += wall
        self.same &= exactly_equal(out[True], out[False])
        return out[True]

    @property
    def overhead_frac(self) -> float:
        return self.traced_s / self.untraced_s - 1.0


def _spanned(tracer, span_name, fn):
    def wrapper(*args, **kwargs):
        with tracer.span(span_name) as attrs:
            try:
                result = fn(*args, **kwargs)
            except Exception:  # run_study counts the failure; the span records it
                attrs["error"] = True
                raise
            annotate_fit(attrs, result)
            return result
    return wrapper


def traced_study(slice_, seed, pairing):
    """``run_study(workers=1)`` over a slice with every module call in a span.

    Each replicate runs twice through ``pairing``, untraced and traced;
    run_study aggregates the traced result.
    """
    tracer = pairing.tracer
    originals = {name: getattr(montecarlo, name) for name in (*STUDY_SPANS, "_run_replicate")}
    run_replicate = originals["_run_replicate"]
    base = {"cls": slice_.model_class, "workload": slice_.name, "rep": None}

    def replicate(config, n, rep):
        tracer.context = {**base, "rep": f"{slice_.name}:{n}:{rep}"}

        def unit():
            with tracer.span("montecarlo.replicate"):
                return run_replicate(config, n, rep)
        try:
            return pairing.run(unit)
        finally:
            tracer.context = base

    tracer.context = base
    try:
        for name, span_name in STUDY_SPANS.items():
            setattr(montecarlo, name, _spanned(tracer, span_name, originals[name]))
        montecarlo._run_replicate = replicate
        return run_study(slice_.config(seed, workers=1))
    finally:
        for name, fn in originals.items():
            setattr(montecarlo, name, fn)
        tracer.context = {}


def traced_fit_mix(requests, pairing) -> list:
    tracer = pairing.tracer
    records = []
    for i, (fc, data) in enumerate(requests):
        tracer.context = {"cls": fc.name, "workload": "fit_mix", "rep": f"fit_mix:{i}"}

        def request(fc=fc, data=data):
            with tracer.span("fit_mix.request"):
                return fit_request(fc, data, tracer)

        records.append(pairing.run(request))
    tracer.context = {}
    return records


# ---------------------------------------------------------------------------
# per-layer metrics

_U = {"p50_ms": "ms", "tail_ms": "ms", "self_s": "s", "iterations_mean": "count",
      "diverged_ratio": "ratio", "fail_ratio": "ratio", "us_per_call": "us",
      "ns_per_elem": "ns", "cold_ms": "ms", "self_frac": "ratio", "ms": "ms"}


def per_layer_spec() -> list:
    """(name, unit, better) of every per-layer metric the traced run emits."""
    out = []

    def add(name, better="lower"):
        out.append((name, _U.get(name.rsplit(".", 1)[-1], "ratio"), better))

    for call in ("fit_mle", "fit_mple"):
        for cls in MODEL_CLASSES:
            for stat in ("p50_ms", "tail_ms", "self_s", "iterations_mean"):
                add(f"estimators.{call}.{cls}.{stat}")
    for cls in MODEL_CLASSES:
        add(f"estimators.fit_mle.{cls}.diverged_ratio")
    for stat in ("p50_ms", "tail_ms", "self_s"):
        add(f"estimators.fit_sf_one_param.1p.{stat}")
    for cls in STDERR_CLASSES:
        add(f"estimators.stderr.{cls}.p50_ms")
        add(f"estimators.stderr.{cls}.fail_ratio")
    for cls in MODEL_CLASSES:
        add(f"wbar.fit_wbar.{cls}.p50_ms")
        add(f"wbar.fit_wbar.{cls}.self_s")
    add("wbar.fit_wbar.multi_root_ratio")
    for cls in MODEL_CLASSES:
        add(f"likelihood.loglik.{cls}.us_per_call")
    add("specfun.zeta1.ns_per_elem")
    add("specfun.t_logcdf.ns_per_elem")
    add("distributions.sample.us_per_call")
    add("distributions.DirectParams.us_per_call")
    add("penalty.sn_coeffs.cold_ms")
    add("penalty.st_coeffs_exact.cold_ms")
    for w in STUDIES:
        for stat in ("p50_ms", "tail_ms", "self_frac"):
            add(f"montecarlo.replicate.{w}.{stat}")
        add(f"montecarlo.summarize.{w}.ms")
        add(f"montecarlo.pool_efficiency.{w}", "higher")
    add("trace.overhead_frac")
    return out


def _self_times(spans) -> dict:
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
    return {s["id"]: s["end_ns"] - s["start_ns"] - child.get(s["id"], 0) for s in spans}


def span_metrics(spans, e2e_walls: dict) -> dict:
    """Per-layer metrics derivable from the spans; ``e2e_walls`` maps study -> run_study wall."""
    self_ns = _self_times(spans)
    groups = {}
    for s in spans:
        groups.setdefault((s["name"], s.get("cls")), []).append(s)

    def dur_ms(group):
        return [(s["end_ns"] - s["start_ns"]) / 1e6 for s in group]

    m = {}

    def timing(prefix, group):
        d = dur_ms(group)
        m[f"{prefix}.p50_ms"] = statistics.median(d)
        m[f"{prefix}.tail_ms"] = tail_p90(d)
        m[f"{prefix}.self_s"] = sum(self_ns[s["id"]] for s in group) / 1e9

    for call in ("fit_mle", "fit_mple"):
        for cls in MODEL_CLASSES:
            g = groups[(f"estimators.{call}", cls)]
            timing(f"estimators.{call}.{cls}", g)
            m[f"estimators.{call}.{cls}.iterations_mean"] = statistics.fmean(
                s["iterations"] for s in g if "iterations" in s)
            if call == "fit_mle":
                m[f"estimators.fit_mle.{cls}.diverged_ratio"] = statistics.fmean(
                    s["diverged"] for s in g if "diverged" in s)
    timing("estimators.fit_sf_one_param.1p", groups[("estimators.fit_sf_one_param", "1p")])
    for cls in STDERR_CLASSES:
        g = groups[("estimators.stderr", cls)]
        m[f"estimators.stderr.{cls}.p50_ms"] = statistics.median(dur_ms(g))
        m[f"estimators.stderr.{cls}.fail_ratio"] = sum(bool(s.get("error")) for s in g) / len(g)
    roots = []
    for cls in MODEL_CLASSES:
        g = groups[("wbar.fit_wbar", cls)]
        m[f"wbar.fit_wbar.{cls}.p50_ms"] = statistics.median(dur_ms(g))
        m[f"wbar.fit_wbar.{cls}.self_s"] = sum(self_ns[s["id"]] for s in g) / 1e9
        roots += [s["root_multiplicity"] for s in g if "root_multiplicity" in s]
    m["wbar.fit_wbar.multi_root_ratio"] = sum(r > 1 for r in roots) / len(roots)
    samples = [s for s in spans if s["name"] == "distributions.sample"]
    m["distributions.sample.us_per_call"] = statistics.fmean(dur_ms(samples)) * 1e3
    for w, wall in e2e_walls.items():
        reps = [s for s in spans if s["name"] == "montecarlo.replicate" and s["workload"] == w]
        summ = [s for s in spans if s["name"] == "montecarlo.summarize" and s["workload"] == w]
        d = dur_ms(reps)
        m[f"montecarlo.replicate.{w}.p50_ms"] = statistics.median(d)
        m[f"montecarlo.replicate.{w}.tail_ms"] = tail_p90(d)
        m[f"montecarlo.replicate.{w}.self_frac"] = (
            sum(self_ns[s["id"]] for s in reps) / 1e6 / sum(d))
        m[f"montecarlo.summarize.{w}.ms"] = sum(dur_ms(summ))
        busy_s = (sum(d) + sum(dur_ms(summ))) / 1e3
        m[f"montecarlo.pool_efficiency.{w}"] = busy_s / (WORKERS * wall)
    return m


# ---------------------------------------------------------------------------
# kernel timings at the workloads' sizes


def _per_call_s(fn, min_seconds=0.1) -> float:
    calls, t0 = 0, time.perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_seconds:
            return elapsed / calls


def kernel_metrics(seed_for: dict, fit_requests: list) -> dict:
    """Per-call costs of the likelihood, special functions and parameter objects.

    Inputs come from the workloads: the shape-only data at each of the
    rate-curve sample sizes, the 3-parameter n = 50 data, and the fit_mix
    datasets, each evaluated at the generating parameters.
    """
    m = {}
    seed_1p, seed_3p = seed_for["rates_1p"], seed_for["table1_3p"]
    cases = {"1p": [], "3p": []}
    spec_1p = RATES_1P.config(seed_1p).model_spec()
    for n in RATES_1P.sample_sizes:
        for rep in range(2):
            data = sample(TRUTH5, n, np.random.SeedSequence(seed_1p, spawn_key=(n, rep)))
            cases["1p"].append((TRUTH5, data, spec_1p))
    spec_3p = TABLE1_3P.config(seed_3p).model_spec()
    for rep in range(4):
        data = sample(TRUTH5, 50, np.random.SeedSequence(seed_3p, spawn_key=(50, rep)))
        cases["3p"].append((TRUTH5, data, spec_3p))
    for fc, data in fit_requests[: 4 * len(FIT_CLASSES)]:
        cases.setdefault(fc.name, []).append((fc.truth, data, fc.spec))
    for cls, group in cases.items():
        per = _per_call_s(lambda: [loglik(p, d, s) for p, d, s in group])
        m[f"likelihood.loglik.{cls}.us_per_call"] = per / len(group) * 1e6

    zeta_args = [5.0 * d.column(0) for _, d, _ in cases["1p"]]
    elems = sum(len(a) for a in zeta_args)
    m["specfun.zeta1.ns_per_elem"] = _per_call_s(lambda: [zeta1(a) for a in zeta_args]) / elems * 1e9
    nu = FIT_CLASSES[0].truth.nu
    t_args = []
    for _, d, _ in cases["st_pin"]:
        z = d.column(0)
        t_args.append(3.0 * z * np.sqrt((nu + 1.0) / (nu + z * z)))
    elems = sum(len(a) for a in t_args)
    m["specfun.t_logcdf.ns_per_elem"] = (
        _per_call_s(lambda: [t_logcdf(a, nu + 1.0) for a in t_args]) / elems * 1e9)
    xi, om, al = np.array([0.0]), np.array([[1.0]]), np.array([5.0])
    m["distributions.DirectParams.us_per_call"] = _per_call_s(
        lambda: DirectParams(xi=xi, omega_mat=om, alpha=al)) * 1e6
    return m

