"""Tiny-size self-test of the benchmark's correctness checks.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For each workload it runs one repetition at a tiny size, checks that
the honest output passes, then tampers with the output (the decision
digest, one node's decision bytes, one sweep record) and checks that
the tampering counts as failed ops.  It also checks that the metric
names and units the benchmark emits are the ones ``BENCHMARK.json``
declares.  Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tracing  # noqa: E402

if __name__ == "__mp_main__":
    tracing.install_worker()


def shrink(workloads) -> None:
    """Tiny sizes: a few views, and a two-seed sweep grid with one crash arm."""

    workloads.SIM_TX_VIEWS = 4
    workloads.SIM_NUM_VIEWS = 6
    workloads.NODE_VIEWS = 4
    full_spec = workloads.sweep_spec

    def tiny_spec(seed: int):
        from dataclasses import replace

        spec = full_spec(seed)
        return replace(
            spec, participations=("stable",), seeds=2, fault_specs=spec.fault_specs[:2]
        )

    workloads.sweep_spec = tiny_spec


def workspace(work: str, name: str) -> tuple[str, str]:
    """``(probe_dir, work_dir)`` of one workload's repetition.

    Each repetition needs a probe directory of its own, as in ``rep.py``;
    child processes find it through the environment.
    """

    work_dir = os.path.join(work, name)
    probe_dir = os.path.join(work_dir, "probes")
    os.makedirs(probe_dir)
    os.environ[tracing.PROBE_DIR_ENV] = probe_dir
    return probe_dir, work_dir


def expect(label: str, condition: bool, failures: list[str]) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {label}")
    if not condition:
        failures.append(label)


def main() -> int:
    import metrics
    import workloads

    shrink(workloads)
    failures: list[str] = []
    seed = 7
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as work:
        probe_dir, work_dir = workspace(work, "sim")
        tracing.install_probes(probe_dir)

        rep = workloads.rep_sim_txload(seed, probe_dir, work_dir)
        reference = {"digests": {str(rep["check"]["protocol_seed"]): rep["check"]["digest"]}}
        expect("sim-txload: honest output passes",
               workloads.check_sim_txload(rep, reference) == 0, failures)
        tampered = copy.deepcopy(rep)
        tampered["check"]["digest"] = "0" * 64
        expect("sim-txload: tampered digest fails every tx",
               workloads.check_sim_txload(tampered, reference) == rep["attempted"], failures)

        rep = workloads.rep_node_tcp(seed, *workspace(work, "node"))
        attempted, failed = workloads.check_node_tcp(rep)
        expect("node-tcp: honest output matches the oracle", attempted > 0 and failed == 0,
               failures)
        tampered = copy.deepcopy(rep)
        record = tampered["check"]["nodes"]["2"]["decided"][-1]
        record["log_id"] = record["log_id"][::-1]
        attempted, failed = workloads.check_node_tcp(tampered)
        expect("node-tcp: tampered oracle bytes fail that node's decisions", failed > 0, failures)

        rep = workloads.rep_sweep_ablation(seed, *workspace(work, "sweep"))
        reference = workloads.sweep_reference(seed)
        expect("sweep-ablation: honest output matches the serial reference",
               workloads.check_sweep_ablation(rep, reference) == 0, failures)
        tampered = copy.deepcopy(rep)
        cell_id = sorted(tampered["check"]["lines"])[0]
        record = json.loads(tampered["check"]["lines"][cell_id])
        record["metrics"]["blocks"] += 1
        tampered["check"]["lines"][cell_id] = json.dumps(
            record, sort_keys=True, separators=(",", ":")
        )
        expect("sweep-ablation: one tampered record fails one cell",
               workloads.check_sweep_ablation(tampered, reference) == 1, failures)

        values = metrics.end_to_end([rep], attempted=10, failed=1)
        expect("ok_frac counts failed ops", values["ok_frac"] == 0.9, failures)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    expect("end_to_end metrics match BENCHMARK.json",
           {m["name"]: m["unit"] for m in declared["end_to_end"]} == metrics.E2E_UNITS, failures)
    expect("per_layer metrics match BENCHMARK.json",
           {m["name"]: m["unit"] for m in declared["per_layer"]} == metrics.LAYER_UNITS, failures)
    expect("workloads match BENCHMARK.json",
           [w["name"] for w in declared["workloads"]] == list(workloads.REPS), failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
