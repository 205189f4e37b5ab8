"""The three workloads: inputs from a seed, one measured repetition each,
and the correctness checks that turn their outputs into failed ops.

Every ``rep_*`` function runs inside a fresh interpreter (see
``rep.py``) and returns a JSON-able dict with the same core fields:

* ``setup_s`` — set-up samples in seconds: scenario and pool build;
  node spawn until every node has entered ``NodeRuntime.run``; executor
  spawn and warm-up.  The two multi-process workloads time
  ``SETUP_SAMPLES`` set-ups per repetition;
* ``run_s`` with the ``views``, ``decisions`` and ``cells`` completed in
  it, and ``cells_s``, the time ``cells_per_s`` divides by;
* ``view_ms`` — milliseconds per protocol view, one sample per view
  (for the sweep, one per cell: its time per view it simulated);
* ``raw`` — the uncalibrated set-up and run times and the machine speeds
  measured around them.  Every other time is calibrated to reference
  machine speed (see ``calibration.py``);
* ``peak_rss_mib`` — this process's peak RSS plus each child's;
* ``attempted`` — the ops the checks below judge;
* ``check`` — what the checks need, ``counts`` — exact protocol counts,
  and ``layers`` — per-layer figures the program reports itself.

The ``check_*`` functions are pure: they take a repetition's output and
the reference and return how many of its ops failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import resource
import time
from statistics import mean

import tracing
from calibration import Calibration

# sim-txload: the paper's setting (n=16, Δ=2) with a client tx stream.
SIM_N = 16
SIM_DELTA = 2
SIM_TX_VIEWS = 256  # views 1..256 each get SIM_TXS_PER_VIEW transactions
SIM_NUM_VIEWS = SIM_TX_VIEWS + 2  # two more views confirm the last batch
SIM_TXS_PER_VIEW = 4
SIM_TX_BYTES = 128
#: Protocol seeds with a stored decision digest; a workload seed runs
#: protocol seed ``seed % REFERENCE_SEEDS`` (payloads use the full seed).
REFERENCE_SEEDS = 16

# node-tcp: a loopback cluster with no client transactions.
NODE_N = 4
NODE_DELTA = 1
NODE_VIEWS = 64

# sweep-ablation: 96 TOB-SVD cells plus 8 MR-baseline cells.
SWEEP_WORKERS = 2
SWEEP_CRASH_VIEW = 20

#: Set-ups timed per node-tcp and sweep-ablation repetition: the one
#: before the measured run, and more after it.  Spawning fresh processes
#: costs the same every time, and one sample per repetition is too few
#: for a steady median.
SETUP_SAMPLES = 3

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@contextlib.contextmanager
def _probes_in(probe_dir: str):
    """Child processes started inside the block write their probes to ``probe_dir``."""

    os.makedirs(probe_dir)
    outer = os.environ[tracing.PROBE_DIR_ENV]
    os.environ[tracing.PROBE_DIR_ENV] = probe_dir
    try:
        yield
    finally:
        os.environ[tracing.PROBE_DIR_ENV] = outer


def _child_dumps(probe_dir: str, role: str) -> list[dict]:
    return [d for d in tracing.load_dumps(probe_dir) if d["role"] == role]


def _peak_rss_mib(children: list[dict]) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + sum(child["peak_rss_kib"] for child in children)) / 1024.0


def _raw(setup: Calibration, raw_setup_s: float, run: Calibration, start: float,
         end: float, raw_run_s: float) -> dict:
    """The ``raw`` entry of a repetition: raw times and machine speeds."""

    return {
        "setup_s": raw_setup_s,
        "run_s": raw_run_s,
        "setup_speed": 1 / setup.factor(),
        "run_speed": 1 / run.factor_around(start, end, pad=0.0),
    }


def _timed_setup(cal: Calibration, setup) -> float:
    """Calibrated seconds of ``setup()``, which returns its raw seconds."""

    cal.measure(10)
    now = time.monotonic()
    return setup() * cal.factor_around(now, now)


def digest_lines(lines) -> str:
    """SHA-256 over sorted lines joined by newlines."""

    return hashlib.sha256("\n".join(sorted(lines)).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# sim-txload


def sim_inputs(seed: int) -> list[str]:
    """SIM_TX_VIEWS × SIM_TXS_PER_VIEW seeded 128-character payloads."""

    rng = random.Random(seed)
    count = SIM_TX_VIEWS * SIM_TXS_PER_VIEW
    return [rng.randbytes(SIM_TX_BYTES // 2).hex() for _ in range(count)]


def sim_decision_digest(validators) -> str:
    """Digest of every honest validator's decision sequence.

    Records are the node runtime's oracle records (tick, length, log
    id), so the digest pins decision times and decided chains exactly.
    """

    from repro.node.runtime import decisions_as_records

    records = {
        str(vid): decisions_as_records(validator.decided)
        for vid, validator in sorted(validators.items())
    }
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_sim_txload(seed: int, on_run_end=None, setup_cal: Calibration | None = None,
                   run_cal: Calibration | None = None):
    """Drive the tx-loaded run view by view.

    Returns ``(protocol, txs, raw_setup_s, views)``, where ``views``
    holds each view's ``time.monotonic()`` start and end.  Calibration
    chunks run before the set-up and before each view, outside every
    timed interval.
    """

    from repro.chain.transactions import TransactionPool
    from repro.harness import stable_scenario

    setup_cal = setup_cal or Calibration()
    run_cal = run_cal or Calibration()
    payloads = sim_inputs(seed)
    clock = time.monotonic
    setup_cal.measure(10)
    start = clock()
    pool = TransactionPool()
    protocol = stable_scenario(
        n=SIM_N, num_views=SIM_NUM_VIEWS, delta=SIM_DELTA,
        seed=seed % REFERENCE_SEEDS, pool=pool, trace_mode="bounded",
    )
    protocol.start()
    raw_setup_s = clock() - start

    timing = protocol.config.time
    txs = []
    views = []
    for view in range(SIM_NUM_VIEWS):
        run_cal.measure()
        view_start = clock()
        if 1 <= view <= SIM_TX_VIEWS:
            # Submitted one tick before the view starts, so the view's
            # proposers batch them.
            at = timing.view_start(view) - 1
            base = (view - 1) * SIM_TXS_PER_VIEW
            for payload in payloads[base : base + SIM_TXS_PER_VIEW]:
                txs.append(pool.submit(payload=payload, at_time=at))
        protocol.advance(timing.view_start(view + 1) - 1)
        if view == SIM_NUM_VIEWS - 1:
            protocol.advance(protocol.config.horizon)
        views.append((view_start, clock()))
    if on_run_end is not None:
        on_run_end()
    return protocol, txs, raw_setup_s, views


def rep_sim_txload(seed: int, probe_dir: str, work_dir: str, on_run_end=None) -> dict:
    setup_cal, run_cal = Calibration(), Calibration()
    protocol, txs, raw_setup_s, views = run_sim_txload(seed, on_run_end, setup_cal, run_cal)
    setup_s = raw_setup_s * setup_cal.factor()
    view_ms = [(end - start) * 1000.0 * run_cal.factor_around(start, end) for start, end in views]
    run_s = sum(view_ms) / 1000.0
    raw_run_s = sum(end - start for start, end in views)
    result = protocol.finish()
    analysis = result.analysis
    decisions = sum(len(v.decided) for v in result.validators.values())
    confirmed = analysis.confirmation_times_deltas(txs, SIM_DELTA)
    deliveries = result.network.stats.deliveries
    return {
        "setup_s": [setup_s],
        "run_s": run_s,
        "views": SIM_NUM_VIEWS,
        "decisions": decisions,
        "cells": 1,
        "cells_s": setup_s + run_s,
        "view_ms": view_ms,
        "raw": _raw(setup_cal, raw_setup_s, run_cal, views[0][0], views[-1][1], raw_run_s),
        "peak_rss_mib": _peak_rss_mib([]),
        "attempted": len(txs),
        "check": {
            "protocol_seed": seed % REFERENCE_SEEDS,
            "safe": bool(analysis.safety().safe),
            "unconfirmed": len(txs) - len(confirmed),
            "digest": sim_decision_digest(result.validators),
        },
        "counts": {
            "deliveries_per_decision": deliveries / decisions,
            "phases_per_block": analysis.voting_phases_per_block("tobsvd"),
            "confirmation_latency_deltas": mean(confirmed) if confirmed else None,
        },
        "layers": {"deliveries": deliveries},
    }


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check_sim_txload(rep: dict, reference: dict) -> int:
    """Failed txs: unconfirmed ones, or every tx when safety or the digest fails."""

    check = rep["check"]
    expected = reference["digests"].get(str(check["protocol_seed"]))
    if not check["safe"] or check["digest"] != expected:
        return rep["attempted"]
    return check["unconfirmed"]


# ---------------------------------------------------------------------------
# node-tcp


def node_config(seed: int, num_views: int | None = None):
    from repro.core.tobsvd import TobSvdConfig

    return TobSvdConfig(
        n=NODE_N, num_views=num_views or NODE_VIEWS, delta=NODE_DELTA, seed=seed
    )


def _deploy(config, probe_dir: str, out_dir: str):
    """One loopback deployment; returns it with its nodes' probe records."""

    from repro.node.deploy import run_local_deployment

    with _probes_in(probe_dir):
        deployment = run_local_deployment(config, out_dir=out_dir)
    nodes = _child_dumps(probe_dir, "node")
    if len(nodes) != config.n:
        raise RuntimeError(f"expected {config.n} node probe files, found {len(nodes)}")
    return deployment, nodes


def rep_node_tcp(seed: int, probe_dir: str, work_dir: str, on_run_end=None) -> dict:
    config = node_config(seed)
    setup_cal, run_cal = Calibration(), Calibration()
    setup_cal.measure(10)
    run_cal.start_sampler()
    try:
        spawned = time.monotonic()
        deployment, nodes = _deploy(
            config, os.path.join(probe_dir, "run"), os.path.join(work_dir, "deploy")
        )
    finally:
        run_cal.stop_sampler()
    if on_run_end is not None:
        on_run_end()
    entered = max(node["probes"]["enter_run"] for node in nodes)
    exited = max(node["probes"]["exit_run"] for node in nodes)
    raw_setup_s = entered - spawned
    raw_run_s = exited - entered
    run_s = raw_run_s * run_cal.factor_around(entered, exited, pad=0.0)

    def setup_only(index: int) -> float:
        # A one-view deployment: the same spawn, a negligible run.
        before = time.monotonic()
        _, spares = _deploy(
            node_config(seed, num_views=1),
            os.path.join(probe_dir, f"setup-{index}"),
            os.path.join(work_dir, f"setup-{index}"),
        )
        return max(node["probes"]["enter_run"] for node in spares) - before

    setup_s = [raw_setup_s * setup_cal.factor()] + [
        _timed_setup(setup_cal, lambda i=i: setup_only(i)) for i in range(SETUP_SAMPLES - 1)
    ]

    ticks = next(node["probes"]["ticks"] for node in nodes if node["probes"]["node"] == 0)
    view_ticks = config.time.view_ticks
    starts = [at for tick, at in ticks if tick % view_ticks == 0]
    view_ms = [
        (end - start) * 1000.0 * run_cal.factor_around(start, end)
        for start, end in zip(starts, starts[1:])
    ]
    results = deployment.nodes
    decisions = deployment.total_decisions
    deliveries = sum(node["deliveries"] for node in results.values())
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "views": config.num_views,
        "decisions": decisions,
        "cells": 1,
        "cells_s": deployment.elapsed * run_cal.factor(),
        "view_ms": view_ms,
        "raw": _raw(setup_cal, raw_setup_s, run_cal, entered, exited, raw_run_s),
        "peak_rss_mib": _peak_rss_mib(nodes),
        "attempted": decisions,
        "check": {"seed": seed, "nodes": {str(vid): r for vid, r in results.items()}},
        "counts": {"deliveries_per_decision": deliveries / decisions},
        "layers": {
            "deliveries": deliveries,
            "holdback_duplicates": sum(r["holdback_duplicates"] for r in results.values()),
            "suspicions": sum(r["suspicions"] for r in results.values()),
            "reconnects": sum(
                link["reconnects"]
                for r in results.values()
                for link in r["link_stats"].values()
            ),
        },
    }


def check_node_tcp(rep: dict) -> tuple[int, int]:
    """``(attempted, failed)`` decisions against the simulator oracle.

    A node whose decision bytes differ from the oracle fails all of the
    oracle's decisions for it; a missing node counts the same way.
    """

    from repro.node.deploy import compare_to_oracle

    check = rep["check"]
    nodes = {int(vid): result for vid, result in check["nodes"].items()}
    report = compare_to_oracle(node_config(check["seed"]), nodes)
    oracle = report["oracle"]
    attempted = sum(len(records) for records in oracle.values())
    failed = sum(
        len(oracle[vid]) for vid in oracle if not report["per_node"].get(vid, False)
    )
    return attempted, failed


# ---------------------------------------------------------------------------
# sweep-ablation


def sweep_spec(seed: int):
    """The 104-cell ablation grid; the seed names the spec, which seeds every cell."""

    from repro.harness.sweep import ExperimentSpec

    def crash_arm(**overrides) -> str:
        fields = {"crash_count": 1, "crash_view": SWEEP_CRASH_VIEW, "crash_deltas": 4}
        fields.update(overrides)
        return json.dumps(fields, sort_keys=True, separators=(",", ":"))

    return ExperimentSpec(
        name=f"perfbench-{seed}",
        protocols=("tobsvd", "mr"),
        ns=(8,),
        fs=(0,),
        deltas=(2,),
        participations=("stable", "late-join", "bursty"),
        seeds=8,
        num_views=24,
        txs_per_cell=4,
        fault_specs=("", crash_arm(), crash_arm(crash_count=2), crash_arm(crash_deltas=8)),
    )


def sweep_lines(records) -> dict[str, str]:
    from repro.harness.sweep import canonical_record

    return {record["cell_id"]: canonical_record(record) for record in records}


def sweep_counts(lines: dict[str, str]) -> dict:
    phases: dict[str, list[float]] = {}
    latency = []
    for line in lines.values():
        record = json.loads(line)
        metrics = record["metrics"]
        if metrics.get("phases_per_block") is not None:
            phases.setdefault(record["cell"]["protocol"], []).append(metrics["phases_per_block"])
        if record["cell"]["protocol"] == "tobsvd" and metrics.get("latency_mean_deltas") is not None:
            latency.append(metrics["latency_mean_deltas"])
    counts = {f"phases_per_block_{name}": mean(values) for name, values in sorted(phases.items())}
    counts["confirmation_latency_deltas_tobsvd"] = mean(latency) if latency else None
    return counts


def rep_sweep_ablation(seed: int, probe_dir: str, work_dir: str, on_run_end=None) -> dict:
    from repro.harness.executor import SweepExecutor
    from repro.harness.sweep import ResultStore, run_sweep

    spec = sweep_spec(seed)
    setup_cal = Calibration()
    clock = time.monotonic
    setup_cal.measure(10)
    start = clock()
    executor = SweepExecutor(workers=SWEEP_WORKERS)
    try:
        executor.warmup()
        store = ResultStore(os.path.join(work_dir, "results.jsonl"))
        snapshot_dir = os.path.join(work_dir, "snapshots")
        os.makedirs(snapshot_dir)
        raw_setup_s = clock() - start
        run_start = clock()
        outcome = run_sweep(spec, store=store, executor=executor, snapshot_dir=snapshot_dir)
        run_end = clock()
        if on_run_end is not None:
            on_run_end()
    finally:
        executor.close()
    # The workers take one calibration chunk before each cell.
    workers = _child_dumps(probe_dir, "worker")
    run_cal = Calibration([chunk for w in workers for chunk in w["probes"]["calibration"]])
    raw_run_s = run_end - run_start
    run_s = raw_run_s * run_cal.factor_around(run_start, run_end, pad=0.0)
    view_ms = []  # per simulated view: forked cells only simulate their tail
    for worker in workers:
        own = Calibration(worker["probes"]["calibration"])
        view_ms += [
            (end - begin) * 1000.0 * own.factor_around(begin, end) / views
            for views, begin, end in worker["probes"]["cells"]
        ]

    def setup_only(index: int) -> float:
        with _probes_in(os.path.join(probe_dir, f"setup-{index}")):
            before = clock()
            with SweepExecutor(workers=SWEEP_WORKERS) as spare:
                spare.warmup()
                return clock() - before

    setup_s = [raw_setup_s * setup_cal.factor()] + [
        _timed_setup(setup_cal, lambda i=i: setup_only(i)) for i in range(SETUP_SAMPLES - 1)
    ]

    lines = sweep_lines(outcome.records)
    records = [json.loads(line) for line in lines.values()]
    blobs = [
        os.path.getsize(os.path.join(snapshot_dir, name))
        for name in os.listdir(snapshot_dir)
        if name.endswith(".snap")
    ]
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "views": sum(record["cell"]["num_views"] for record in records),
        # Records carry decided-block counts, not per-validator events.
        "decisions": sum(record["metrics"].get("blocks", 0) for record in records),
        "cells": len(records),
        "cells_s": run_s,
        "view_ms": view_ms,
        "raw": _raw(setup_cal, raw_setup_s, run_cal, run_start, run_end, raw_run_s),
        "peak_rss_mib": _peak_rss_mib(workers),
        "attempted": outcome.total_cells,
        "check": {"seed": seed, "lines": lines},
        "counts": sweep_counts(lines),
        "layers": {
            "workers": SWEEP_WORKERS,
            "cache": outcome.cache,
            "snapshot_blob_bytes": blobs,
        },
    }


def sweep_reference(seed: int) -> dict[str, str]:
    """Serial, snapshot-free execution of the same grid: the reference lines."""

    from repro.harness.sweep import run_sweep

    return sweep_lines(run_sweep(sweep_spec(seed)).records)


def check_sweep_ablation(rep: dict, reference: dict[str, str]) -> int:
    """Failed cells: not ``ok``, missing, or not byte-identical to the reference."""

    lines = rep["check"]["lines"]
    failed = 0
    for cell_id, expected in reference.items():
        line = lines.get(cell_id)
        if line is None or line != expected or json.loads(line)["status"] != "ok":
            failed += 1
    if failed == 0 and digest_lines(lines.values()) != digest_lines(reference.values()):
        failed = rep["attempted"]
    return failed


REPS = {
    "sim-txload": rep_sim_txload,
    "node-tcp": rep_node_tcp,
    "sweep-ablation": rep_sweep_ablation,
}
