"""The benchmark's workloads and the output records its correctness checks compare.

Two study slices run through the public ``run_study`` exactly as the
acceptance fixtures configure them (truth, base seed, sample sizes,
estimators, exclusion rule, two workers); only the replicate count is
cut to a run length, and because per-replicate seeds are keyed by
(n, replicate index), replicate i of a slice is bit-identical to
replicate i of the full acceptance study.  The third workload is a
closed loop of single fits, each doing what
``penskew fit --estimator all --stderr`` does.
"""

from __future__ import annotations

import math
import statistics
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from penskew import (
    DirectParams,
    FitResult,
    ModelSpec,
    StudyConfig,
    fit_mle,
    fit_mple,
    fit_wbar,
    run_study,
    sample,
    stderr_from_penalized_info,
)

WORKERS = 2
HELD_OUT_SEED = 4099
RTOL = 1e-6
TRUTH5 = DirectParams.scalar(0.0, 1.0, 5.0)


class NullTracer:
    """Tracer with tracing off: one code path serves timed and traced runs."""

    enabled = False

    def span(self, name, **attrs):
        return nullcontext({})


NULL_TRACER = NullTracer()


def annotate_fit(attrs: dict, result) -> None:
    """Record a fit's iteration count, MLE divergence flag and WBAR root count in a span."""
    if not isinstance(result, FitResult):
        return
    attrs["iterations"] = result.iterations
    if result.method == "MLE":
        attrs["diverged"] = bool(result.diverged)
    if result.method == "WBAR":
        attrs["root_multiplicity"] = result.diagnostics.root_multiplicity


def direct_vector(params: DirectParams, spec: ModelSpec) -> list:
    """Free parameters in the direct coordinates run_study reports.

    (xi, omega | lower triangle of Omega row by row, alpha, nu), leaving
    out the components ``spec`` pins.
    """
    out = []
    if "xi" not in spec.fixed:
        out.extend(params.xi.tolist())
    if "omega" not in spec.fixed and "omega_mat" not in spec.fixed:
        if params.d == 1:
            out.append(params.omega)
        else:
            out.extend(params.omega_mat[np.tril_indices(params.d)].tolist())
    if "alpha" not in spec.fixed:
        out.extend(params.alpha.tolist())
    if spec.family == "st" and "nu" not in spec.fixed:
        out.append(params.nu)
    return [float(v) for v in out]


# ---------------------------------------------------------------------------
# study slices


@dataclass(frozen=True)
class StudySlice:
    """The first ``replicates`` replicates of one acceptance study."""

    name: str
    model_class: str
    default_seed: int
    replicates: int
    sample_sizes: tuple
    fixed: dict
    estimators: tuple
    exclusion: str

    def config(self, seed: int, workers: int = WORKERS) -> StudyConfig:
        return StudyConfig(
            true_params=TRUTH5, sample_sizes=self.sample_sizes, replicates=self.replicates,
            base_seed=int(seed), family="sn", dimension=1, fixed=self.fixed,
            estimators=self.estimators, exclusion=self.exclusion, workers=workers,
            label=self.name,
        )

    def fits_per_call(self) -> int:
        return self.replicates * len(self.sample_sizes) * len(self.estimators)


# criterion 5 of the acceptance suite (rate curves), first R replicates per n
RATES_1P = StudySlice(
    name="rates_1p", model_class="1p", default_seed=20260810, replicates=40,
    sample_sizes=(50, 100, 250, 500, 1000), fixed={"xi": 0.0, "omega": 1.0},
    estimators=("MLE", "MPLE", "SF", "WBAR"), exclusion="common-finite",
)
# criterion 4 of the acceptance suite (Table 1 at n = 50), first R replicates
TABLE1_3P = StudySlice(
    name="table1_3p", model_class="3p", default_seed=20260809, replicates=300,
    sample_sizes=(50,), fixed={}, estimators=("MLE", "MPLE", "WBAR"),
    exclusion="alpha-only",
)
STUDIES = {s.name: s for s in (RATES_1P, TABLE1_3P)}


def study_record(summary) -> dict:
    """Per-replicate estimates, divergence flags and failure counts of a study."""
    meta = summary.metadata
    return {
        "estimates": {est: {str(n): rows for n, rows in by_n.items()}
                      for est, by_n in meta["estimates"].items()},
        "diverged": {str(n): flags for n, flags in meta["diverged"].items()},
        "fit_failures": dict(meta["fit_failures"]),
    }


def run_study_record(slice_: StudySlice, seed: int, workers: int = WORKERS) -> tuple:
    summary = run_study(slice_.config(seed, workers))
    return summary, study_record(summary)


def study_failures(record: dict) -> int:
    return int(sum(record["fit_failures"].values()))


# ---------------------------------------------------------------------------
# fit_mix: single fits in a closed loop

FIT_MIX_SEED = 20260811
FIT_MIX_N = 200
FIT_MIX_PER_CLASS = 64
FIT_MIX_WARMUP = 12  # requests of the reference seed fitted untimed before the loop
FIT_MIX_TRACED = 48  # requests the traced run replays
ST_NU = 4.0


@dataclass(frozen=True)
class FitClass:
    name: str
    truth: DirectParams
    spec: ModelSpec


FIT_CLASSES = (
    FitClass("st_pin", DirectParams.scalar(0.0, 1.0, 3.0, ST_NU),
             ModelSpec(family="st", dimension=1, fixed={"nu": ST_NU})),
    FitClass("st_free", DirectParams.scalar(0.0, 1.0, 3.0, ST_NU),
             ModelSpec(family="st", dimension=1)),
    FitClass("d2", DirectParams(xi=np.zeros(2), omega_mat=np.array([[1.0, 0.5], [0.5, 1.0]]),
                                alpha=np.array([3.0, -1.0])),
             ModelSpec(family="sn", dimension=2)),
)


def fit_mix_requests(seed: int, count: int | None = None) -> list:
    """The first ``count`` requests (default all) of a seed's fixed set, classes interleaved.

    Request 3i + c fits dataset i of class c, so any prefix holds the
    classes in equal shares.
    """
    requests = []
    for k in range(FIT_MIX_PER_CLASS * len(FIT_CLASSES) if count is None else count):
        i, c = divmod(k, len(FIT_CLASSES))
        fc = FIT_CLASSES[c]
        data = sample(fc.truth, FIT_MIX_N, np.random.SeedSequence(int(seed), spawn_key=(c, i)))
        requests.append((fc, data))
    return requests


def fit_request(fc: FitClass, data, tracer=NULL_TRACER) -> dict:
    """One ``fit --estimator all --stderr``: MLE, MPLE with standard errors, WBAR.

    A call whose inputs exist is attempted; an exception it raises is
    recorded as that call's failure and the calls that need its result
    are not attempted.
    """
    spec = fc.spec
    out = {"class": fc.name, "MLE": None, "diverged": None, "MPLE": None, "SE": None,
           "WBAR": None, "errors": {}, "attempted": 0}

    def attempt(key, call, fn):
        out["attempted"] += 1
        with tracer.span(call) as attrs:
            try:
                result = fn()
            except Exception as exc:  # failures are counted, not fatal
                out["errors"][key] = f"{type(exc).__name__}: {exc}"
                attrs["error"] = True
                return None
            annotate_fit(attrs, result)
            return result

    mle = attempt("MLE", "estimators.fit_mle", lambda: fit_mle(data, spec))
    if mle is not None:
        out["MLE"] = direct_vector(mle.estimates, spec)
        out["diverged"] = bool(mle.diverged)
    mple = attempt("MPLE", "estimators.fit_mple", lambda: fit_mple(data, spec))
    if mple is not None:
        out["MPLE"] = direct_vector(mple.estimates, spec)
        se = attempt("SE", "estimators.stderr",
                     lambda: stderr_from_penalized_info(mple, data, spec))
        if se is not None:
            out["SE"] = [float(v) for v in se]
    if mle is not None and mple is not None and not mle.diverged:
        wbar = attempt("WBAR", "wbar.fit_wbar", lambda: fit_wbar(data, spec, mle, mple))
        if wbar is not None:
            out["WBAR"] = direct_vector(wbar.estimates, spec)
    return out


# ---------------------------------------------------------------------------
# comparisons


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    x, y = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if x.shape != y.shape:
        return False
    return bool(np.all(np.abs(x - y) <= RTOL * np.maximum(np.abs(x), np.abs(y))))


def study_mismatch(record: dict, reference: dict) -> tuple[int, int]:
    """(differing, total) per-replicate estimate vectors against ``reference``.

    A vector differs when it is off by more than RTOL relative, when its
    replicate's divergence flag differs (counted on the MLE vector), or
    when the fit failed on one side only.  A failure shifts the
    positions of the surviving vectors, so an (estimator, n) cell whose
    count of vectors differs counts all its replicates as differing.
    """
    bad = total = 0
    for est, by_n in reference["estimates"].items():
        for n, ref_rows in by_n.items():
            rows = record["estimates"].get(est, {}).get(n, [])
            ref_flags, flags = reference["diverged"][n], record["diverged"].get(n, [])
            total += len(ref_flags)
            if len(rows) != len(ref_rows) or len(flags) != len(ref_flags):
                bad += len(ref_flags)
                continue
            for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
                differs = not _close(row, ref_row)
                if est == "MLE":
                    differs = differs or flags[i] != ref_flags[i]
                bad += differs
    return bad, total


FIT_VECTORS = ("MLE", "MPLE", "SE", "WBAR")


def fit_mix_mismatch(records: list, reference: list) -> tuple[int, int]:
    """(differing, total) per-request estimate vectors against ``reference``."""
    bad = total = 0
    for rec, ref in zip(records, reference):
        for key in FIT_VECTORS:
            total += 1
            differs = (not _close(rec[key], ref[key])
                       or (key in rec["errors"]) != (key in ref["errors"]))
            if key == "MLE":
                differs = differs or rec["diverged"] != ref["diverged"]
            bad += differs
    missing = abs(len(records) - len(reference)) * len(FIT_VECTORS)
    return bad + missing, total + missing


def fit_mix_failures(records: list) -> tuple[int, int]:
    """(failed, attempted) public calls over ``records``."""
    return (sum(len(r["errors"]) for r in records), sum(r["attempted"] for r in records))


def exactly_equal(a, b) -> bool:
    """Bit-for-bit equality of nested records (NaN equals NaN)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(exactly_equal(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(exactly_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return type(a) is type(b) and a == b


# ---------------------------------------------------------------------------
# timing statistics


def tail_p90(values) -> float:
    """90th percentile, interpolated between the sorted samples.

    Interpolation keeps the value continuous in the sample count, which
    on the study workloads (one sample per run_study call) is about 8
    to 25 a run.
    """
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=10, method="inclusive")[-1]
