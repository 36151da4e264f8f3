"""Regenerate ``reference.json``: the outputs of the first ops of every
workload at the default seed, which later runs compare against at 1e-9
relative.  Run from the root of a checkout:

    python3 perfbench/pin.py

Pin only from a commit whose outputs are the accepted reference; a change
that is meant to keep outputs the same must not re-pin.
"""
from __future__ import annotations

import json

from measure import DEFAULT_SEED, REFERENCE, run_pass
from workloads import WORKLOADS

# ops pinned per workload; ops of a run past these get the invariant
# checks only
PINNED_OPS = {"sweep-cold": 36, "gait-batch": 200, "relax-cold": 6,
              "validate-rk4": 6}
UNPINNED = ("k", "latency_s", "steps", "error")   # and the *_sha256 digests: bitwise checks only


def main() -> None:
    reference = {}
    for name, n_ops in PINNED_OPS.items():
        w = WORKLOADS[name](DEFAULT_SEED)
        try:
            w.warm()
            records = run_pass(w, n_ops=n_ops)["records"]
        finally:
            w.close()
        raised = [r["k"] for r in records if r["error"] is not None]
        if raised:
            raise SystemExit(f"{name}: ops {raised} raised; nothing pinned")
        reference[name] = [{k: v for k, v in r.items()
                            if k not in UNPINNED and not k.endswith("_sha256")}
                           for r in records]
        print(f"{name}: {n_ops} ops pinned", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=0) + "\n")


if __name__ == "__main__":
    main()
