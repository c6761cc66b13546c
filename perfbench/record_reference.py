"""Record the outputs that ``estimate_mismatch_ratio`` compares against.

    python3 perfbench/record_reference.py

writes perfbench/reference/<workload>.json with the per-replicate
estimates, divergence flags and failure counts of each study slice, and
the per-request estimates and standard errors of fit_mix, at the
default seed and at the held-out seed.  Re-record only in a change that
means to move the seeded outputs, and say so in that change.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run._import_penskew()
    import workloads as wl

    seeds = {"fit_mix": wl.FIT_MIX_SEED,
             **{name: s.default_seed for name, s in wl.STUDIES.items()}}
    run.REFERENCE.mkdir(exist_ok=True)
    for workload, default_seed in seeds.items():
        out = {}
        for seed in (default_seed, wl.HELD_OUT_SEED):
            if workload == "fit_mix":
                out[str(seed)] = [wl.fit_request(fc, d) for fc, d in wl.fit_mix_requests(seed)]
            else:
                out[str(seed)] = wl.run_study_record(wl.STUDIES[workload], seed)[1]
        doc = {"provenance": run.provenance({workload: [default_seed, wl.HELD_OUT_SEED]}),
               "seeds": out}
        with open(run.REFERENCE / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
        print(f"recorded {workload} at seeds {default_seed} and {wl.HELD_OUT_SEED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
