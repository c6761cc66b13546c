"""Command-line interface: fit, simulate, coeffs, profile, sample, wscatter.

Every subcommand is non-interactive and scriptable.  Numeric results go
to --out (default stdout) as CSV or JSON; progress goes to stderr.
Exit codes: 0 success, 1 error, 2 the requested MLE diverged.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
from importlib import resources

import numpy as np

from . import __version__
from .distributions import Dataset, DirectParams, sample
from .estimators import (_check_divergence_threshold, fit_mle, fit_mple, fit_sf_one_param,
                         profile_deviance, stderr_from_penalized_info)
from .likelihood import ModelSpec
from .montecarlo import StudyConfig, run_study
from .penalty import sn_coeffs, st_coeffs, st_e2_approx, st_e_coeffs_exact, sn_e_coeffs
from .wbar import emit_w_scatter, fit_wbar

FIT_SCHEMA = "penskew/fit/v1"


def _write_output(text: str, out_path: str | None):
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_fixed(pairs):
    fixed = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"--fix expects name=value, got {pair!r}")
        name, value = pair.split("=", 1)
        fixed[name.strip()] = float(value)
    return fixed


def _divergence_threshold(text: str) -> float:
    try:
        return _check_divergence_threshold(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _ensure_seed(seed):
    if seed is not None:
        return int(seed)
    generated = secrets.randbits(48)
    print(f"seed not given; using generated seed {generated}", file=sys.stderr)
    return generated


def _cmd_fit(args) -> int:
    spec = ModelSpec(family=args.family, dimension=args.dim, fixed=_parse_fixed(args.fix))
    data = Dataset.from_csv(args.csv)
    if args.estimator == "all":
        wanted = ["mle", "mple", "wbar"] + (["sf"] if spec.is_one_param else [])
    else:
        wanted = [args.estimator]
    fits = {}
    mle = mple = None
    if "mle" in wanted or "wbar" in wanted:
        mle = fit_mle(data, spec, divergence_threshold=args.divergence_threshold)
        if "mle" in wanted:
            fits["mle"] = mle
    if "mple" in wanted or "wbar" in wanted:
        mple = fit_mple(data, spec)
        if args.stderr:
            stderr_from_penalized_info(mple, data, spec)
        if "mple" in wanted:
            fits["mple"] = mple
    if "sf" in wanted:
        fits["sf"] = fit_sf_one_param(data, spec)
    if "wbar" in wanted:
        if mle.diverged:
            print("wbar unavailable: MLE diverged", file=sys.stderr)
        else:
            fits["wbar"] = fit_wbar(data, spec, mle, mple)
    for name, fit in fits.items():
        stop = "" if fit.stop_reason is None else f", stopped on {fit.stop_reason}"
        print(f"{name}: {fit.iterations} iterations, {fit.evaluations} log-likelihood "
              f"evaluations{stop}", file=sys.stderr)
        for stage, iterations, value in fit.optimizer_trace or ():
            print(f"  {name} stage {stage}: {iterations} iterations, objective {value:.10g}",
                  file=sys.stderr)
        if fit.nu_at_bound:
            print(f"warning: {name} nu = {fit.estimates.nu:.6g} is at an edge of its search "
                  "range [0.1, 1e6]; the likelihood cannot tell it from the edge",
                  file=sys.stderr)
    report = {
        "schema": FIT_SCHEMA,
        "version": __version__,
        "input": str(args.csv),
        "n": data.n,
        "d": data.d,
        "seed": args.seed,
        "fits": {k: v.to_json_dict() for k, v in fits.items()},
    }
    _write_output(json.dumps(report, indent=2) + "\n", args.out)
    if mle is not None and mle.diverged and ("mle" in wanted or "wbar" in wanted):
        return 2
    return 0


def _cmd_sample(args) -> int:
    seed = _ensure_seed(args.seed)
    if args.params is not None:
        with open(args.params, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        params = DirectParams(xi=np.asarray(raw["xi"], dtype=float),
                              omega_mat=np.asarray(raw["omega_mat"], dtype=float),
                              alpha=np.asarray(raw["alpha"], dtype=float),
                              nu=raw.get("nu"))
    else:
        nu = args.nu if args.family == "st" else None
        if args.family == "st" and nu is None:
            raise ValueError("--nu is required for the skew-t family")
        params = DirectParams.scalar(args.xi, args.omega, args.alpha, nu)
    data = sample(params, args.n, seed)
    _write_output(data.to_csv_string(), args.out)
    return 0


def _cmd_coeffs(args) -> int:
    lines = ["nu,e1,e2_exact,e2_approx,c1,c2"]
    for token in args.nu_grid.split(","):
        token = token.strip()
        if token.lower() in ("inf", "infinity"):
            e1, e2 = sn_e_coeffs()
            c = sn_coeffs()
            lines.append(f"inf,{e1:.10g},{e2:.10g},{e2:.10g},{c.c1:.10g},{c.c2:.10g}")
            continue
        nu = float(token)
        if nu <= 0:
            raise ValueError(f"nu must be positive, got {nu}")
        e1, e2 = st_e_coeffs_exact(nu)
        c = st_coeffs(nu, mode=args.mode)
        lines.append(f"{nu:.10g},{e1:.10g},{e2:.10g},{st_e2_approx(nu):.10g},"
                     f"{c.c1:.10g},{c.c2:.10g}")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_profile(args) -> int:
    data = Dataset.from_csv(args.csv)
    lo, hi, steps = args.grid.split(":")
    grid = np.linspace(float(lo), float(hi), int(steps))
    fixed = _parse_fixed(args.fix)
    spec = ModelSpec(family=args.family, dimension=1, fixed=fixed)
    points = profile_deviance(grid, data, spec)
    lines = ["alpha,deviance"]
    for p in points:
        lines.append(f"{p.alpha:.10g},{p.deviance:.10g}")
        if not p.converged:
            print(f"warning: inner fit did not converge at alpha={p.alpha}", file=sys.stderr)
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _bundled_config(name: str):
    ref = resources.files("penskew").joinpath("configs", f"{name}.json")
    if not ref.is_file():
        available = sorted(p.name.removesuffix(".json")
                           for p in resources.files("penskew").joinpath("configs").iterdir())
        raise ValueError(f"unknown bundled config {name!r}; available: {available}")
    return json.loads(ref.read_text(encoding="utf-8"))


def _cmd_simulate(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raw = _bundled_config(args.config)
    if args.workers is not None:
        raw["workers"] = args.workers
    config = StudyConfig.from_dict(raw)
    print(f"running study {config.label or args.config!r}: "
          f"{config.replicates} replicates x n in {list(config.sample_sizes)}",
          file=sys.stderr)
    summary = run_study(config)
    _write_output(summary.to_csv_string(), args.out)
    if args.json_out:
        _write_output(summary.to_json_string() + "\n", args.json_out)
    print(f"work: {summary.metadata['work']}", file=sys.stderr)
    failures = summary.metadata.get("fit_failures") or {}
    if failures:
        print(f"fit failures: {failures}", file=sys.stderr)
        print(f"failure kinds: {summary.metadata['failure_kinds']}", file=sys.stderr)
    return 0


def _cmd_wscatter(args) -> int:
    seed = _ensure_seed(args.seed)
    points = emit_w_scatter(args.reps, args.n, args.alpha, seed,
                            divergence_threshold=args.divergence_threshold)
    lines = ["W,Wp,branch"]
    for p in points:
        lines.append(f"{p.w_at_true:.10g},{p.wp_at_true:.10g},{p.branch}")
    _write_output("\n".join(lines) + "\n", args.out)
    print(f"{len(points)} of {args.reps} replicates kept (finite MLE)", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="penskew",
        description="Penalized likelihood estimation for skew-normal and skew-t models",
    )
    parser.add_argument("--version", action="version", version=f"penskew {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model to CSV data")
    p_fit.add_argument("csv")
    p_fit.add_argument("--family", choices=("sn", "st"), default="sn")
    p_fit.add_argument("--dim", type=int, default=1)
    p_fit.add_argument("--estimator", choices=("mle", "mple", "sf", "wbar", "all"),
                       default="mple")
    p_fit.add_argument("--fix", action="append", metavar="NAME=VALUE",
                       help="pin a component, e.g. --fix nu=4 (repeatable)")
    p_fit.add_argument("--stderr", action="store_true",
                       help="attach penalized-information standard errors to the MPLE")
    p_fit.add_argument("--divergence-threshold", type=_divergence_threshold, default=100.0,
                       help="|alpha| beyond which an MLE counts as diverged (default 100)")
    p_fit.add_argument("--seed", type=int, default=None,
                       help="recorded in the report for provenance")
    p_fit.add_argument("--out", default=None)
    p_fit.set_defaults(func=_cmd_fit)

    p_sample = sub.add_parser("sample", help="draw observations to CSV")
    p_sample.add_argument("--family", choices=("sn", "st"), default="sn")
    p_sample.add_argument("--xi", type=float, default=0.0)
    p_sample.add_argument("--omega", type=float, default=1.0)
    p_sample.add_argument("--alpha", type=float, default=0.0)
    p_sample.add_argument("--nu", type=float, default=None)
    p_sample.add_argument("--params", default=None,
                          help="JSON file with xi/omega_mat/alpha[/nu] for d > 1")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.add_argument("--out", default=None)
    p_sample.set_defaults(func=_cmd_sample)

    p_coeffs = sub.add_parser("coeffs", help="tabulate penalty coefficients")
    p_coeffs.add_argument("--nu-grid", default="0.5,1,2,5,10,50,inf",
                          help="comma-separated nu values; 'inf' gives the skew-normal row")
    p_coeffs.add_argument("--mode", choices=("exact", "approx"), default="exact")
    p_coeffs.add_argument("--out", default=None)
    p_coeffs.set_defaults(func=_cmd_coeffs)

    p_prof = sub.add_parser("profile", help="deviance profile over a shape grid")
    p_prof.add_argument("csv")
    p_prof.add_argument("--grid", required=True, metavar="LO:HI:STEPS")
    p_prof.add_argument("--family", choices=("sn", "st"), default="sn")
    p_prof.add_argument("--fix", action="append", metavar="NAME=VALUE")
    p_prof.add_argument("--out", default=None)
    p_prof.set_defaults(func=_cmd_profile)

    p_sim = sub.add_parser("simulate", help="run a simulation study from a config")
    p_sim.add_argument("config", help="path to a JSON config, or a bundled config name")
    p_sim.add_argument("--workers", type=int, default=None)
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--json-out", default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_ws = sub.add_parser("wscatter", help="per-replicate (W, Wp) scatter data")
    p_ws.add_argument("--reps", type=int, required=True)
    p_ws.add_argument("--n", type=int, required=True)
    p_ws.add_argument("--alpha", type=float, required=True)
    p_ws.add_argument("--seed", type=int, default=None)
    p_ws.add_argument("--divergence-threshold", type=_divergence_threshold, default=100.0,
                      help="|alpha| beyond which an MLE counts as diverged (default 100)")
    p_ws.add_argument("--out", default=None)
    p_ws.set_defaults(func=_cmd_wscatter)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
