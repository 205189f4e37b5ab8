"""Regenerate ``reference.json``: sim-txload decision digests per protocol seed.

Run from the root of a checkout whose decisions are known good::

    python3 perfbench/make_reference.py

A sim-txload run with workload seed ``s`` uses protocol seed
``s % REFERENCE_SEEDS``; block ids hash transaction ids, not payloads,
so the digest depends on the protocol seed alone and one stored digest
per protocol seed covers every workload seed.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402


def main() -> int:
    digests = {}
    for seed in range(workloads.REFERENCE_SEEDS):
        protocol, txs, _, _ = workloads.run_sim_txload(seed)
        result = protocol.finish()
        if not result.analysis.safety().safe or not result.analysis.all_confirmed(txs):
            raise SystemExit(f"protocol seed {seed}: unsafe run or unconfirmed txs")
        digests[str(seed)] = workloads.sim_decision_digest(result.validators)
        print(seed, digests[str(seed)], flush=True)
    reference = {
        "workload": "sim-txload",
        "n": workloads.SIM_N,
        "delta": workloads.SIM_DELTA,
        "num_views": workloads.SIM_NUM_VIEWS,
        "txs_per_view": workloads.SIM_TXS_PER_VIEW,
        "digests": digests,
    }
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
