#!/usr/bin/env python3
"""Rewrite digests.json: the output digest of every op, per workload and seed.

    python3 perfbench/pin.py

Replays each workload's full script once for every seed in ``PIN_SEEDS``,
and the self-test's tiny scripts at ``TINY_SEED``. It refuses to pin an op
whose output fails its checks. Pinned digests make ``run.py`` flag any
change in revsel's output bytes, so re-pin only in a change that means to
alter them.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

PIN_SEEDS = range(32)
TINY_SEED = 1


def pin(workload: str, seed: int, size_name: str) -> dict:
    with run.workdir(f"pin-{workload}"):
        wr = run.WorkloadRun(workload, seed, size_name)
        wr.pins = None
        wr.setup(0)
        wr.run_pass()
    if wr.failed or wr.setup_errors:
        raise SystemExit(f"{workload} seed {seed}: outputs fail their checks: {wr.failures}")
    return {"script": wr.script_digest(), "ops": [wr.first[i] for i in range(len(wr.ops))]}


def main() -> int:
    if not run.use_checkout_sources():
        print(f"error: no revsel package under {run.SRC}", file=sys.stderr)
        return 2
    pins = {"full": {}, "tiny": {}}
    for workload in workloads.WORKLOADS:
        pins["tiny"][workload] = {str(TINY_SEED): pin(workload, TINY_SEED, "tiny")}
        full = pins["full"][workload] = {}
        for seed in PIN_SEEDS:
            full[str(seed)] = pin(workload, seed, "full")
            print(f"pinned {workload} seed {seed}", flush=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
