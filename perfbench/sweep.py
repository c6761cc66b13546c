"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/sweep.py --label baseline --seeds 1-10 [--workloads rates_1p,fit_mix]
    python3 perfbench/sweep.py --label again --seeds default --repeat 10 \
        --against perfbench/results/BENCH_baseline.json

For every workload, runs ``perfbench/run.py --trace 0`` once per seed
and repeat (one after another, never in parallel; ``default`` is each
workload's acceptance seed) and writes
``perfbench/results/BENCH_<label>.json``: every run's result line, and
per metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the interquartile distance as a share of the median, next to the
bound ``BENCHMARK.json`` fixes for it, with the provenance the latest
run recorded.  With ``--against``, each median is also compared with
that earlier sweep's: ``worse`` is the share by which it is worse, to
be read against the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list:
    if text == "default":
        return [None]
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10, 3,5,8 or default")
    p.add_argument("--repeat", type=int, default=1, help="runs per seed")
    p.add_argument("--against", help="an earlier sweep's BENCH_<label>.json to compare medians with")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    before = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}
    out = {"label": args.label, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in [s for s in _seeds(args.seeds) for _ in range(args.repeat)]:
            t0 = time.perf_counter()
            seed_args = [] if seed is None else ["--seed", str(seed)]
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, *seed_args,
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "wall_s": time.perf_counter() - t0, **result})
            print(workload, seed, json.dumps(result), flush=True)
        summary = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median, "bound": bounds[name]}
            line = (f"  {workload} {name}: median {median:.6g}  spread {(q3 - q1) / median:.4f}"
                    f"  bound {bounds[name]}")
            if workload in before:
                old = before[workload]["summary"][name]["median"]
                sign = 1 if better[name] == "lower" else -1
                summary[name]["worse"] = sign * (median - old) / old
                line += f"  worse {summary[name]['worse']:+.4f} vs {old:.6g}"
            print(line, flush=True)
        out["workloads"][workload] = {"runs": runs, "summary": summary,
                                      "all_correct": all(r["correct"] for r in runs)}
        latest = sorted((BENCH_DIR / "results").glob(f"{workload}-seed*-trace0.json"),
                       key=lambda p: p.stat().st_mtime)[-1]
        out.setdefault("provenance", json.loads(latest.read_text())["provenance"])
    (BENCH_DIR / "results").mkdir(exist_ok=True)
    path = BENCH_DIR / "results" / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
