"""Seeded, optionally parallel simulation studies over the four estimators.

Per-replicate seeds come from a splittable SeedSequence keyed by
(sample size, replicate index), so results are reproducible bit for bit
regardless of worker count or execution order.  Every study runs one
task list: every sample size is cut into chunks of max(16, R // (8 W))
consecutive replicates, largest sample size first.  With ``workers``
None or 1 the tasks run in this process, otherwise on one process pool,
and the results are put back together per sample size in replicate
order, so ``workers`` changes the speed of a study, never its output.
"""

from __future__ import annotations

import json
import logging
import numbers
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from io import StringIO

import numpy as np

from .distributions import Dataset, DirectParams, sample
from .estimators import (_FreeMap, _check_divergence_threshold, fit_mle, fit_mple,
                         fit_sf_one_param)
from .likelihood import ModelSpec, resolve_penalty
from .wbar import fit_wbar

__all__ = [
    "StudyConfig",
    "StudySummary",
    "RateCurves",
    "run_study",
    "rate_curves",
    "summarize",
    "bootstrap_se",
]

log = logging.getLogger(__name__)

_ESTIMATORS = ("MLE", "MPLE", "SF", "WBAR")
_EXCLUSIONS = ("alpha-only", "common-finite", "whole-vector")
_STATISTICS = ("mean_bias", "median_bias", "std_dev", "iqr")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class StudyConfig:
    """Declarative description of one simulation study.

    ``exclusion`` controls how replicates with a divergent MLE enter the
    summaries:

    - "alpha-only": only the MLE shape column drops them; location and
      scale columns keep every replicate (using the threshold-clamped
      fit), as do the other estimators.
    - "common-finite": every estimator is summarized over the common
      finite-MLE subset.
    - "whole-vector": the whole MLE vector drops them; MPLE/SF keep all
      replicates; the W=W_p estimator exists only on the finite subset.
    """

    true_params: DirectParams
    sample_sizes: tuple
    replicates: int
    base_seed: int
    family: str = "sn"
    dimension: int = 1
    fixed: dict = field(default_factory=dict)
    estimators: tuple = ("MLE", "MPLE")
    divergence_threshold: float = 100.0
    exclusion: str = "alpha-only"
    workers: int | None = None
    label: str = ""
    _spec: ModelSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = tuple(self.sample_sizes)
        if not sizes:
            raise ValueError("sample_sizes must name at least one sample size")
        if not all(_is_int(n) and n >= 1 for n in sizes):
            raise ValueError(f"sample_sizes must be integers of at least 1, got {sizes!r}")
        if len(set(sizes)) != len(sizes):
            raise ValueError(f"sample_sizes must not repeat, got {sizes!r}")
        if self.workers is not None and not (_is_int(self.workers) and self.workers >= 1):
            raise ValueError(f"workers must be None or an integer of at least 1, "
                             f"got {self.workers!r}")
        if not (_is_int(self.replicates) and self.replicates >= 1):
            raise ValueError(f"replicates must be an integer of at least 1, "
                             f"got {self.replicates!r}")
        if not (_is_int(self.base_seed) and self.base_seed >= 0):
            raise ValueError(f"base_seed must be a non-negative integer, got {self.base_seed!r}")
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in sizes))
        object.__setattr__(self, "replicates", int(self.replicates))
        object.__setattr__(self, "base_seed", int(self.base_seed))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "fixed", dict(self.fixed))
        object.__setattr__(self, "_spec", ModelSpec(family=self.family, dimension=self.dimension,
                                                    fixed=self.fixed))
        _check_divergence_threshold(self.divergence_threshold)
        for e in self.estimators:
            if e not in _ESTIMATORS:
                raise ValueError(f"unknown estimator {e!r}")
        if self.exclusion not in _EXCLUSIONS:
            raise ValueError(f"unknown exclusion rule {self.exclusion!r}")
        if self.true_params.d != self.dimension:
            raise ValueError("true_params dimension does not match config dimension")
        if "SF" in self.estimators and not self._spec.is_one_param:
            raise ValueError("the modified-score estimator requires the one-parameter model "
                             "(pin xi and omega)")

    def model_spec(self) -> ModelSpec:
        """The study's model, built once with the config (and again by ``replace``)."""
        return self._spec

    @classmethod
    def from_dict(cls, raw: dict) -> "StudyConfig":
        raw = dict(raw)
        tp = raw.pop("true_params")
        d = int(raw.get("dimension", 1))
        if d == 1 and "omega" in tp:
            params = DirectParams.scalar(tp.get("xi", 0.0), tp["omega"], tp.get("alpha", 0.0),
                                         tp.get("nu"))
        else:
            params = DirectParams(xi=np.asarray(tp["xi"], dtype=float),
                                  omega_mat=np.asarray(tp["omega_mat"], dtype=float),
                                  alpha=np.asarray(tp["alpha"], dtype=float),
                                  nu=tp.get("nu"))
        raw["true_params"] = params
        raw["sample_sizes"] = tuple(raw["sample_sizes"])
        raw["estimators"] = tuple(raw.get("estimators", ("MLE", "MPLE")))
        return cls(**raw)

    def to_dict(self) -> dict:
        tp = {"xi": self.true_params.xi.tolist(),
              "omega_mat": self.true_params.omega_mat.tolist(),
              "alpha": self.true_params.alpha.tolist()}
        if self.dimension == 1:
            tp = {"xi": float(self.true_params.xi[0]), "omega": self.true_params.omega,
                  "alpha": float(self.true_params.alpha[0])}
        if self.true_params.nu is not None:
            tp["nu"] = self.true_params.nu
        return {
            "true_params": tp,
            "sample_sizes": list(self.sample_sizes),
            "replicates": self.replicates,
            "base_seed": self.base_seed,
            "family": self.family,
            "dimension": self.dimension,
            "fixed": dict(self.fixed),
            "estimators": list(self.estimators),
            "divergence_threshold": self.divergence_threshold,
            "exclusion": self.exclusion,
            "label": self.label,
        }


@dataclass
class StudySummary:
    """Long-format summary rows plus provenance metadata."""

    rows: list
    metadata: dict

    def value(self, estimator: str, parameter: str, n: int, statistic: str) -> float:
        for row in self.rows:
            if (row["estimator"] == estimator and row["parameter"] == parameter
                    and row["n"] == n and row["statistic"] == statistic):
                return row["value"]
        raise KeyError(f"no row for {(estimator, parameter, n, statistic)}")

    def replicates_used(self, estimator: str, parameter: str, n: int) -> int:
        for row in self.rows:
            if (row["estimator"] == estimator and row["parameter"] == parameter
                    and row["n"] == n):
                return row["replicates_used"]
        raise KeyError(f"no rows for {(estimator, parameter, n)}")

    def estimates(self, estimator: str, n: int) -> np.ndarray:
        return np.asarray(self.metadata["estimates"][estimator][n])

    def diverged_mask(self, n: int) -> np.ndarray:
        return np.asarray(self.metadata["diverged"][n], dtype=bool)

    def to_csv_string(self) -> str:
        buf = StringIO()
        buf.write("estimator,parameter,n,statistic,value,replicates_used\n")
        for r in self.rows:
            buf.write(f"{r['estimator']},{r['parameter']},{r['n']},{r['statistic']},"
                      f"{r['value']:.10g},{r['replicates_used']}\n")
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        meta = {k: v for k, v in self.metadata.items() if k not in ("estimates", "diverged")}
        return {"schema": "penskew/study-summary/v1", "rows": self.rows, "metadata": meta}

    def to_json_string(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def summarize(estimates, truth, parameter_names=None) -> dict:
    """Per-parameter mean/median bias, SD, and median-unbiased IQR.

    ``estimates`` is an (R, k) array of per-replicate estimate vectors;
    ``truth`` the length-k true values.
    """
    arr = np.atleast_2d(np.asarray(estimates, dtype=float))
    truth = np.atleast_1d(np.asarray(truth, dtype=float))
    if arr.shape[0] < 1:
        raise ValueError("need at least one replicate")
    if parameter_names is None:
        parameter_names = [f"p{j}" for j in range(arr.shape[1])]
    out = {}
    for j, name in enumerate(parameter_names):
        col = arr[:, j]
        q1, q3 = np.quantile(col, [0.25, 0.75], method="median_unbiased")
        out[name] = {
            "mean_bias": float(col.mean() - truth[j]),
            "median_bias": float(np.median(col) - truth[j]),
            "std_dev": float(col.std(ddof=1)) if len(col) > 1 else 0.0,
            "iqr": float(q3 - q1),
            "replicates_used": int(len(col)),
        }
    return out


def bootstrap_se(values, stat, n_boot: int = 400, seed: int = 0) -> float:
    """Nonparametric bootstrap standard error of ``stat`` over ``values``."""
    x = np.asarray(values, dtype=float)
    rng = np.random.default_rng(seed)
    reps = np.empty(n_boot)
    for b in range(n_boot):
        reps[b] = stat(x[rng.integers(0, len(x), len(x))])
    return float(reps.std(ddof=1))


# ---------------------------------------------------------------------------
# replicate execution


def _needed_fits(estimators):
    need = set(estimators)
    if "WBAR" in need:
        need.update(("MLE", "MPLE"))
    return need


def _run_replicate(config: StudyConfig, n: int, rep: int) -> dict:
    spec = config.model_spec()
    fmap = _FreeMap(spec)
    data = sample(config.true_params, n,
                  np.random.SeedSequence(config.base_seed, spawn_key=(n, rep)))
    need = _needed_fits(config.estimators)
    out = {"rep": rep, "diverged": False, "errors": {}, "stop_reasons": {}, "work": {}}
    fits = {}
    # the lambdas look the fit functions up in this module at call time, so
    # wrappers set on the module (e.g. a tracer's) see every call
    calls = (
        ("MLE", lambda: fit_mle(data, spec, divergence_threshold=config.divergence_threshold)),
        ("MPLE", lambda: fit_mple(data, spec)),
        ("SF", lambda: fit_sf_one_param(data, spec)),
        ("WBAR", lambda: fit_wbar(data, spec, fits["MLE"], fits["MPLE"],
                                  allow_boundary_mle=True)),
    )
    for name, call in calls:
        if name not in need:
            continue
        if name == "WBAR" and not {"MLE", "MPLE"} <= fits.keys():
            out["errors"][name] = "input fit failed"
            continue
        try:
            fits[name] = call()
            out[name] = fmap.direct_pack(fits[name].estimates)
            out["stop_reasons"][name] = fits[name].stop_reason
            out["work"][name] = (fits[name].evaluations, fits[name].iterations)
        except Exception as exc:  # fit failures are counted, not fatal
            out["errors"][name] = repr(exc)
    if "MLE" in fits:
        out["diverged"] = fits["MLE"].diverged
    return out


def _worker(args):
    config, n, reps = args
    return [_run_replicate(config, n, rep) for rep in reps]


# A new 2-worker pool took 15-17 ms for one no-op task and 35-37 ms for
# 100 on a 2-core x86_64 host, so a task's round trip costs about 0.2 ms.
# 16 replicates are at least about 20 ms of work (16 shape-only
# replicates at n = 50), so a chunk of 16 keeps that overhead near 1 %.
_MIN_CHUNK = 16


def _pool_tasks(config: StudyConfig) -> list:
    """The (config, n, replicates) tasks of a study, in submission order.

    Each sample size is cut into runs of consecutive replicates, R // (8 W)
    long but at least ``_MIN_CHUNK``, and the largest sample size comes
    first, so the slowest tasks start early and the small ones fill the
    workers' last gaps.
    """
    R = config.replicates
    chunk = max(_MIN_CHUNK, R // ((config.workers or 1) * 8))
    return [(config, n, range(i, min(i + chunk, R)))
            for n in sorted(config.sample_sizes, reverse=True)
            for i in range(0, R, chunk)]


def _replicates_by_n(config: StudyConfig):
    """Yield (n, replicate results in replicate order) for each sample size, in config order.

    The tasks of ``_pool_tasks`` run in this process, or on one process
    pool for more than one worker; each task's results are appended to
    its sample size's list in submission order, which is replicate order.
    """
    tasks = _pool_tasks(config)
    by_n = {n: [] for n in config.sample_sizes}
    serial = config.workers in (None, 1)
    with nullcontext() if serial else ProcessPoolExecutor(max_workers=config.workers) as pool:
        for (_, n, _), results in zip(tasks, (map if serial else pool.map)(_worker, tasks)):
            by_n[n].extend(results)
    yield from by_n.items()


def run_study(config: StudyConfig) -> StudySummary:
    """Run the configured study and aggregate per-estimator summaries.

    Deterministic given the config (including base_seed); replicate
    failures are logged and counted separately from MLE divergence.  The
    metadata's ``stop_reasons`` counts, per "estimator@n=n", the
    ``FitResult.stop_reason`` of the estimates that the summary uses, and
    its ``work`` sums their ``evaluations`` and ``iterations``.  A study
    with the MPLE resolves its penalty coefficients before any replicate
    runs (unless the skew-t's nu is free), so pool workers start with them.
    """
    spec = config.model_spec()
    fmap = _FreeMap(spec)
    if "MPLE" in _needed_fits(config.estimators) and not fmap.free_nu:
        resolve_penalty(spec)  # cached here, so that forked pool workers inherit it
    names = fmap.direct_names
    truth = fmap.direct_pack(config.true_params)
    rows, est_store, div_store = [], {e: {} for e in config.estimators}, {}
    failure_counts, failure_kinds, stop_reasons, work = {}, {}, {}, {}
    for n, results in _replicates_by_n(config):
        diverged = np.array([r["diverged"] for r in results], dtype=bool)
        div_store[n] = diverged.tolist()
        for est in config.estimators:
            ok = [r for r in results if est in r]
            n_fail = config.replicates - len(ok)
            if n_fail:
                key = f"{est}@n={n}"
                failure_counts[key] = n_fail
                # an error is "input fit failed" or an exception's repr, whose
                # kind is the class name before the "("
                failure_kinds[key] = dict(Counter(r["errors"][est].partition("(")[0]
                                                  for r in results if est not in r))
                log.warning("study %s: %d %s fit failures at n=%d: %s",
                            config.label or "<unnamed>", n_fail, est, n, failure_kinds[key])
            # why each search behind the estimates stopped (WBAR, a closed form, reports none)
            reasons = Counter(r["stop_reasons"][est] for r in ok
                              if r["stop_reasons"][est] is not None)
            if reasons:
                stop_reasons[f"{est}@n={n}"] = dict(sorted(reasons.items()))
            counts = [r["work"][est] for r in ok]
            work[f"{est}@n={n}"] = {"evaluations": sum(e for e, _ in counts),
                                    "iterations": sum(i for _, i in counts)}
            arr = np.array([r[est] for r in ok]).reshape(len(ok), len(names))
            mask_fin = np.array([not r["diverged"] for r in ok], dtype=bool)
            est_store[est][n] = arr.tolist()
            for j, pname in enumerate(names):
                subset = _exclusion_subset(config.exclusion, est, pname, arr[:, j], mask_fin)
                if len(subset):
                    stats = summarize(subset[:, None], [truth[j]], [pname])[pname]
                else:  # every replicate excluded (e.g. all MLEs diverged)
                    stats = {s: float("nan") for s in _STATISTICS}
                    stats["replicates_used"] = 0
                for stat_name in _STATISTICS:
                    rows.append({"estimator": est, "parameter": pname, "n": n,
                                 "statistic": stat_name, "value": stats[stat_name],
                                 "replicates_used": stats["replicates_used"]})
            if est == "MLE":
                # d > 1 counts max_j |alpha_j| beyond the threshold
                rows.append({"estimator": "MLE",
                             "parameter": "alpha" if config.dimension == 1 else "max_abs_alpha",
                             "n": n, "statistic": "divergence_proportion",
                             "value": float(diverged.mean()),
                             "replicates_used": int(len(results))})
    metadata = {
        "config": config.to_dict(),
        "parameter_names": names,
        "quantile_method": "median_unbiased",
        "exclusion": config.exclusion,
        "fit_failures": failure_counts,
        "failure_kinds": failure_kinds,
        "stop_reasons": stop_reasons,
        "work": work,
        "estimates": est_store,
        "diverged": div_store,
    }
    return StudySummary(rows=rows, metadata=metadata)


def _exclusion_subset(rule: str, estimator: str, parameter: str,
                      values: np.ndarray, finite_mask: np.ndarray) -> np.ndarray:
    if rule == "common-finite":
        return values[finite_mask]
    if rule == "whole-vector":
        if estimator in ("MLE", "WBAR"):
            return values[finite_mask]
        return values
    # alpha-only: just the MLE shape column is conditional on finiteness
    if estimator == "MLE" and parameter.startswith("alpha"):
        return values[finite_mask]
    return values


# ---------------------------------------------------------------------------
# rate curves


@dataclass
class RateCurves:
    """Log-scale summary curves versus log n, plus fitted slopes."""

    summary: StudySummary
    sample_sizes: tuple
    estimators: tuple

    def curve(self, estimator: str, statistic: str) -> tuple[np.ndarray, np.ndarray]:
        xs = np.log(np.asarray(self.sample_sizes, dtype=float))
        param = self.summary.metadata["parameter_names"][-1]
        ys = np.array([self.summary.value(estimator, param, n, statistic)
                       for n in self.sample_sizes])
        return xs, ys

    def log_abs_curve(self, estimator: str, statistic: str) -> tuple[np.ndarray, np.ndarray]:
        xs, ys = self.curve(estimator, statistic)
        return xs, np.log(np.abs(ys))

    def slope(self, estimator: str, statistic: str = "mean_bias") -> float:
        xs, ys = self.log_abs_curve(estimator, statistic)
        return float(np.polyfit(xs, ys, 1)[0])

    def to_csv_string(self) -> str:
        buf = StringIO()
        buf.write("estimator,n,log_n,statistic,value,log_abs_value\n")
        for est in self.estimators:
            for stat in _STATISTICS:
                xs, ys = self.curve(est, stat)
                for n, x, y in zip(self.sample_sizes, xs, ys):
                    buf.write(f"{est},{n},{x:.6f},{stat},{y:.10g},{np.log(abs(y)):.6f}\n")
        return buf.getvalue()


def rate_curves(config: StudyConfig) -> RateCurves:
    """Study across sample sizes for the shape-only model, on log-log scales."""
    spec = config.model_spec()
    if not spec.is_one_param:
        raise ValueError("rate curves are defined for the one-parameter model")
    summary = run_study(config)
    return RateCurves(summary=summary, sample_sizes=config.sample_sizes,
                      estimators=config.estimators)
