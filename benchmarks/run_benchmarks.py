"""Machine-readable benchmark entry point.

Runs the micro-benchmark operations (the same hot ops as
``bench_micro.py``) plus an end-to-end / Table-1 group — including the
large-n (n=64) and views-scaling entries introduced with the scale
engine — and writes a JSON report mapping ``op -> ops/sec``.  Unlike
``bench_micro.py`` this harness has no pytest dependency, so it can run
anywhere and its output can be diffed across commits.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py --out BENCH.json
    PYTHONPATH=src python benchmarks/run_benchmarks.py --smoke   # quick sanity pass
    PYTHONPATH=src python benchmarks/run_benchmarks.py \
        --out BENCH_PR3.json --baseline BENCH_PR1.json
    PYTHONPATH=src python benchmarks/run_benchmarks.py \
        --smoke --against BENCH_PR3.json --tolerance 0.8   # CI regression gate
    PYTHONPATH=src python benchmarks/run_benchmarks.py \
        --profile e2e.full_view_n8                          # where does time go?

Report schema: one canonical ``results`` section (op -> ops/sec).  With
``--baseline`` the report additionally embeds the baseline numbers as
``before`` and per-op ``speedup`` factors — ``results`` is never
duplicated (earlier reports wrote an identical ``after`` copy;
:func:`read_results` still accepts those legacy files).  A ``memory``
section (skipped under ``--only``) records the long-horizon retention
comparison — events emitted vs retained, streaming-reducer state size,
and tracemalloc peak per trace mode — outside ``results`` so the
regression gate only judges throughput.

``--against`` is the regression gate: measure, compare each op present
in both reports, and exit non-zero if any current number falls below
``(1 - tolerance) * baseline``.  ``--smoke`` runs every op once with
minimal repetitions — numbers are noisy, so gate smoke runs with a
generous tolerance.  ``--tolerance`` is repeatable: a bare fraction is
the default, ``pattern=fraction`` overrides matching benchmarks
(fnmatch globs) so one noisy microbench can be gated loosely without
loosening the e2e floors::

    ... --against BENCH.json --tolerance 0.5 --tolerance 'sweep.*=0.8'

The ``sweep.*`` family measures orchestration itself: cells/sec over a
32-cell grid under a cold throwaway pool vs a warm persistent
:class:`SweepExecutor` (1/2/4 workers; smoke runs measure 2 only), a
serial reference, and setup-only cost via ``prepare_cell`` with cold vs
hot prebuild caches.

The ``fleet.*`` family runs the same 32-cell grid through the
coordinator/runner fabric (``repro.fleet``): two runner processes over
localhost TCP, timed from the start-barrier release to the last commit,
so the gap to ``sweep.cells_per_sec_grid32`` is the lease/wire
overhead.  Real-process numbers are noisier than in-process ones — gate
this family generously (``--tolerance 'fleet.*=0.9'``).

The ``node.*`` family measures the real-transport runtime: fleet-wide
decisions/sec of an n=4 loopback-TCP deployment of unmodified
validators in logical-tick lockstep (``repro deploy local``'s engine).
Process spawn is inside the figure.  Logs travel as delta frames, so
the wire codec no longer dominates: the traced 64-view ``node-tcp``
perfbench run on 2 vCPUs books 0.55 s to hashing, decode, framing and
encode together (5.4 s with whole-chain frames), 0.18 s to per-tick
protocol compute, and 1.2 s (summed over the four nodes) to
``TcpTransport.receive``: waiting at the done barrier for peers that
share the two cores, plus reading the frames, which happens there on
the node's own thread.  Gate it like the other real-process family
(``--tolerance 'node.*=0.9'``).

The ``snapshot.*`` family measures the snapshot/fork engine: captures
per second of a warmed n=8 run (``snapshot.save_n8``), forked
continuations vs the same scenario replayed from genesis
(``snapshot.fork_n8`` / ``snapshot.genesis_n8``, with their ratio as
``snapshot.fork_vs_genesis_n8``), and the harness-level fork grid —
32 cells sharing long warm-up prefixes, run with 2 workers through the
snapshot cache tier (``sweep.fork_grid_w2``) and from genesis
(``sweep.fork_grid_w2_genesis``; ratio ``sweep.fork_grid_speedup``).

``--profile OP`` runs cProfile over one chosen benchmark instead of
measuring, printing the top-N entries by cumulative and internal time —
the starting point for any future perf PR.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Callable

# Ops whose callable runs a multi-view scenario end-to-end; the reported
# number is *views per second* (runs/sec x views), so "per-view cost flat
# in chain length" reads directly as near-equal values across the family.
VIEW_RATE_OPS = {
    "e2e.view_rate_n8_v8": 8,
    "e2e.view_rate_n8_v32": 32,
    "e2e.long_horizon_n8_v256": 256,
}


def read_results(report: dict) -> dict:
    """Extract the op -> ops/sec mapping from any report generation.

    Prefers the canonical ``results`` section, falls back to the legacy
    duplicated ``after`` section, and finally treats the document itself
    as the mapping (hand-written baselines).
    """

    for key in ("results", "after"):
        section = report.get(key)
        if isinstance(section, dict) and section:
            return section
    return {
        name: value
        for name, value in report.items()
        if isinstance(value, (int, float))
    }


def _build_ops() -> dict[str, Callable[[], object]]:
    """Construct the benchmark operations over the public API.

    Imports live inside the function so ``--help`` works without
    PYTHONPATH, and so the op set stays identical across commits.
    """

    from repro.chain.log import Log
    from repro.chain.transactions import Transaction
    from repro.core.quorum import majority_chain, majority_tip
    from repro.core.state import LogView
    from repro.crypto.hashing import stable_digest
    from repro.crypto.signatures import KeyRegistry
    from repro.crypto.vrf import VRF
    from repro.harness import stable_scenario
    from repro.net.messages import Envelope, LogMessage
    from repro.sim.simulator import EventPriority, Simulator

    def make_tx(tx_id: int, payload: str = "") -> Transaction:
        return Transaction(tx_id=tx_id, payload=payload, submitted_at=0)

    def chain_of(length: int, tag: int = 0) -> Log:
        log = Log.genesis()
        for i in range(length):
            log = log.append_block(
                [make_tx(1000 * tag + i, payload=f"c{tag}-{i}")], proposer=0, view=i
            )
        return log

    registry = KeyRegistry(64, seed=0)

    log10 = chain_of(10)
    log50 = chain_of(50)
    prefix25 = log50.prefix(25)
    base20 = chain_of(20)
    fork_a = base20.append_block([make_tx(1)], 0, 0)
    fork_b = base20.append_block([make_tx(2)], 1, 0)

    log8 = chain_of(8)
    uniform_pairs = frozenset((vid, log8) for vid in range(64))
    base4 = chain_of(4)
    split_a = base4.append_block([make_tx(1)], 0, 0)
    split_b = base4.append_block([make_tx(2)], 1, 0)
    split_pairs = frozenset(
        (vid, split_a if vid % 2 else split_b) for vid in range(64)
    )
    long_base = chain_of(200)
    long_a = long_base.append_block([make_tx(3)], 0, 0)
    long_b = long_base.append_block([make_tx(4)], 1, 0)
    long_split_pairs = frozenset(
        (vid, long_a if vid % 2 else long_b) for vid in range(64)
    )

    log3 = chain_of(3)
    envelopes = []
    for vid in range(64):
        payload = LogMessage(ga_key=("m", 0), log=log3)
        envelopes.append(
            Envelope(payload=payload, signature=registry.key_for(vid).sign(payload.digest()))
        )

    key0 = registry.key_for(0)
    digest2 = LogMessage(ga_key=("m", 0), log=chain_of(2)).digest()
    vrf = VRF(seed=1)
    vrf_ids = list(range(64))

    def op_append_block():
        return log10.append_block([make_tx(1)], proposer=0, view=0)

    def op_prefix_check():
        return prefix25.prefix_of(log50)

    def op_conflict_check():
        return fork_a.conflicts_with(fork_b)

    def op_log_construct_50():
        return Log(log50.blocks)

    def op_all_prefixes_50():
        return list(log50.all_prefixes())

    def op_contains_tx():
        return log50.contains_transaction(make_tx(25, payload="c0-25"))

    def op_majority_uniform():
        return majority_chain(uniform_pairs, 64)

    def op_majority_split():
        return majority_chain(split_pairs, 64)

    def op_majority_tip_long_split():
        return majority_tip(long_split_pairs, 64)

    def op_handle_64():
        view = LogView()
        for envelope in envelopes:
            view.handle(envelope)
        return view.sender_count()

    def op_pairs_snapshot():
        view = LogView()
        for envelope in envelopes[:16]:
            view.handle(envelope)
        return [view.pairs() for _ in range(16)]

    def op_stable_digest_flat():
        return stable_digest(("sig", "a" * 64, "b" * 64))

    def op_sign_verify():
        return registry.verify(key0.sign(digest2), digest2)

    def op_payload_digest():
        return LogMessage(ga_key=("m", 0), log=log3).digest()

    def op_vrf_rank():
        return vrf.best(vrf_ids, view=5)

    def op_event_dispatch():
        sim = Simulator()
        counter = [0]
        for t in range(1000):
            sim.schedule(t, EventPriority.TIMER, lambda: counter.__setitem__(0, counter[0] + 1))
        sim.run_until(1000)
        return counter[0]

    def op_event_dispatch_sparse():
        # 1000 single-event ticks spread over ~a million ticks: the
        # skip-pointer workload.  A per-tick cursor scan pays the whole
        # horizon; the tick heap pays O(log ticks) per event.
        sim = Simulator()
        counter = [0]
        for i in range(1000):
            sim.schedule(i * 997, EventPriority.TIMER, lambda: counter.__setitem__(0, counter[0] + 1))
        sim.run_to_exhaustion()
        return counter[0]

    def op_full_view_n8():
        protocol = stable_scenario(n=8, num_views=2, delta=2, seed=0)
        result = protocol.run()
        return len(result.trace.decisions)

    def op_full_view_n64():
        protocol = stable_scenario(n=64, num_views=2, delta=2, seed=0)
        result = protocol.run()
        return len(result.trace.decisions)

    def op_view_rate_v8():
        protocol = stable_scenario(n=8, num_views=8, delta=2, seed=0)
        result = protocol.run()
        return len(result.trace.decisions)

    def op_view_rate_v32():
        protocol = stable_scenario(n=8, num_views=32, delta=2, seed=0)
        result = protocol.run()
        return len(result.trace.decisions)

    def op_long_horizon_v256():
        # The bounded-retention long-horizon workload: reducers only, no
        # event retention — the configuration long sweeps run under.
        protocol = stable_scenario(
            n=8, num_views=256, delta=2, seed=0, trace_mode="bounded"
        )
        result = protocol.run()
        return result.analysis.decision_count

    def op_stable_n16_views4():
        protocol = stable_scenario(n=16, num_views=4, delta=2, seed=0)
        result = protocol.run()
        return len(result.trace.decisions)

    return {
        "log.append_block": op_append_block,
        "log.prefix_check_long_chain": op_prefix_check,
        "log.conflict_check": op_conflict_check,
        "log.construct_len50": op_log_construct_50,
        "log.all_prefixes_len50": op_all_prefixes_50,
        "log.contains_transaction_len50": op_contains_tx,
        "quorum.majority_chain_64_senders": op_majority_uniform,
        "quorum.majority_chain_split": op_majority_split,
        "quorum.majority_tip_len200_split": op_majority_tip_long_split,
        "state.handle_64_log_messages": op_handle_64,
        "state.pairs_snapshot_x16": op_pairs_snapshot,
        "crypto.stable_digest_flat_tuple": op_stable_digest_flat,
        "crypto.sign_and_verify": op_sign_verify,
        "crypto.payload_digest": op_payload_digest,
        "crypto.vrf_ranking_64": op_vrf_rank,
        "sim.event_dispatch_1000": op_event_dispatch,
        "sim.event_dispatch_sparse1000": op_event_dispatch_sparse,
        "e2e.full_view_n8": op_full_view_n8,
        "e2e.full_view_n64": op_full_view_n64,
        "e2e.view_rate_n8_v8": op_view_rate_v8,
        "e2e.view_rate_n8_v32": op_view_rate_v32,
        "e2e.long_horizon_n8_v256": op_long_horizon_v256,
        "table1.stable_n16_views4": op_stable_n16_views4,
    }


# Every op name _measure_sweep_family can emit (full mode superset), so
# --only filtering can decide whether the family needs measuring at all.
SWEEP_FAMILY_OPS = tuple(
    [
        "sweep.cells_per_sec_grid32",
        "sweep.cells_per_sec_grid32_serial",
        "sweep.cell_setup_overhead",
        "sweep.cell_setup_cold",
    ]
    + [
        f"sweep.cells_per_sec_grid32_{mode}_w{workers}"
        for mode in ("cold", "warm")
        for workers in (1, 2, 4)
    ]
)


def _sweep_grid32_spec():
    """The 32-cell smoke grid the orchestration benchmarks run over.

    Small cells (n ∈ {4, 6}, 4 views) so orchestration cost — pool
    lifecycle, dispatch IPC, per-cell scaffolding — is visible next to
    the simulation work, mirroring the paper's many-small-runs grids.
    """

    from repro.harness.sweep import ExperimentSpec

    return ExperimentSpec(
        name="bench-grid32",
        protocols=("tobsvd",),
        ns=(4, 6),
        fs=(0,),
        deltas=(1, 2),
        participations=("stable", "late-join"),
        seeds=4,
        num_views=4,
        txs_per_cell=2,
    )


def _measure_sweep_family(smoke: bool, only: str | None = None) -> dict[str, float]:
    """Orchestration benchmarks: cells/sec over the 32-cell grid.

    Two modes per worker count:

    * ``cold`` — the pre-executor pattern: a throwaway pool per sweep
      (spawn + import inside the measurement) with ``chunksize=1``
      dispatch and cold prebuild caches.
    * ``warm`` — a persistent :class:`SweepExecutor`, warmed up and
      primed with one untimed pass, adaptive chunking, hot per-worker
      prebuild caches.

    The headline ``sweep.cells_per_sec_grid32`` is the warm 2-worker
    figure; ``sweep.cells_per_sec_grid32_cold_w2`` is the cold-pool
    baseline it is gated against (target: warm ≥ 3× cold).
    ``sweep.cell_setup_overhead`` measures :func:`prepare_cell` alone —
    cell scaffolding without the simulation — with hot prebuild caches
    (``_cold`` variant: caches cleared per pass).

    ``only`` (the ``--only`` substring) skips whole measurement groups:
    a setup-only filter never spawns a pool, a pool filter never runs
    the setup loop.
    """

    from repro.harness.executor import SweepExecutor
    from repro.harness.prebuild import PREBUILD
    from repro.harness.sweep import prepare_cell, run_sweep

    def wanted(name: str) -> bool:
        return only is None or only in name

    spec = _sweep_grid32_spec()
    cells = spec.expand()
    count = len(cells)
    passes = 1 if smoke else 2
    worker_counts = (2,) if smoke else (1, 2, 4)
    results: dict[str, float] = {}

    def timed_sweep(executor) -> float:
        start = time.perf_counter()
        run_sweep(spec, executor=executor)
        return time.perf_counter() - start

    for workers in worker_counts:
        cold_name = f"sweep.cells_per_sec_grid32_cold_w{workers}"
        if wanted(cold_name):
            best_cold = min(
                _timed(lambda: _cold_sweep_pass(spec, workers)) for _ in range(passes)
            )
            results[cold_name] = round(count / best_cold, 2)
        warm_name = f"sweep.cells_per_sec_grid32_warm_w{workers}"
        headline = workers == 2 and wanted("sweep.cells_per_sec_grid32")
        if wanted(warm_name) or headline:
            with SweepExecutor(workers=workers) as executor:
                executor.warmup()
                run_sweep(spec, executor=executor)  # untimed priming pass
                best_warm = min(timed_sweep(executor) for _ in range(passes))
            results[warm_name] = round(count / best_warm, 2)

    if wanted("sweep.cells_per_sec_grid32") and "sweep.cells_per_sec_grid32_warm_w2" in results:
        results["sweep.cells_per_sec_grid32"] = results[
            "sweep.cells_per_sec_grid32_warm_w2"
        ]

    if wanted("sweep.cells_per_sec_grid32_serial"):
        # Serial in-process reference (no pool at all), prebuild caches hot.
        run_sweep(spec)
        best_serial = min(_timed(lambda: run_sweep(spec)) for _ in range(passes))
        results["sweep.cells_per_sec_grid32_serial"] = round(count / best_serial, 2)

    if wanted("sweep.cell_setup_cold") or wanted("sweep.cell_setup_overhead"):
        # Setup-only cost: scaffolding per cell, without the simulation.
        def setup_pass() -> None:
            for cell in cells:
                prepare_cell(cell)

        cold_setups = []
        for _ in range(max(passes, 2)):
            PREBUILD.clear()
            cold_setups.append(_timed(setup_pass))
        results["sweep.cell_setup_cold"] = round(count / min(cold_setups), 2)
        warm_setups = [_timed(setup_pass) for _ in range(max(passes, 2))]
        results["sweep.cell_setup_overhead"] = round(count / min(warm_setups), 2)
    return results


def _timed(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


SNAPSHOT_FAMILY_OPS = (
    "snapshot.save_n8",
    "snapshot.fork_n8",
    "snapshot.genesis_n8",
    "snapshot.fork_vs_genesis_n8",
    "sweep.fork_grid_w2",
    "sweep.fork_grid_w2_genesis",
    "sweep.fork_grid_speedup",
)


def _fork_grid_spec():
    """The 32-cell fork grid: one long warm-up shared per seed.

    n=8 over 24 views with a crash-ablation fault axis whose windows all
    open at view 22 — every cell forks its seed's stored prefix at view
    22 and simulates only the two-view tail, so the snapshot tier's win
    is the shared 22-view warm-up.  ``warmup_views=22`` pulls the
    fault-free arm onto the same boundary.
    """

    from repro.harness.sweep import ExperimentSpec

    def arm(**overrides):
        fields = {"crash_count": 1, "crash_view": 22, "crash_deltas": 4}
        fields.update(overrides)
        return json.dumps(fields, sort_keys=True, separators=(",", ":"))

    return ExperimentSpec(
        name="bench-fork-grid",
        protocols=("tobsvd",),
        ns=(8,),
        fs=(0,),
        deltas=(2,),
        participations=("stable",),
        seeds=4,
        num_views=24,
        txs_per_cell=4,
        fault_specs=(
            "",
            arm(),
            arm(crash_count=2),
            arm(crash_deltas=2),
            arm(crash_deltas=8),
            arm(seed=1),
            arm(seed=2),
            arm(crash_count=2, seed=1),
        ),
    )


def _measure_snapshot_family(smoke: bool, only: str | None = None) -> dict[str, float]:
    """Snapshot/fork engine benchmarks.

    The micro trio warms one n=8 run to view 8 of 12 and measures
    capture+serialize cost, forked-continuation throughput, and the
    from-genesis reference; their ratio is the per-run fork speedup.
    The grid trio runs :func:`_fork_grid_spec` through a warm 2-worker
    executor with and without the snapshot tier (stores primed by an
    untimed pass, so the timed passes measure steady-state fork reuse —
    the sweep-resume / ablation-grid workload).
    """

    import tempfile

    from repro.chain.transactions import TransactionPool
    from repro.harness import stable_scenario
    from repro.harness.executor import SweepExecutor
    from repro.harness.sweep import run_sweep
    from repro.snapshot import capture, fork, warm_snapshot

    def wanted(name: str) -> bool:
        return only is None or only in name

    results: dict[str, float] = {}
    target = 0.02 if smoke else 0.2
    repeats = 1 if smoke else 3

    def build():
        return stable_scenario(
            n=8, num_views=12, delta=2, seed=0,
            pool=TransactionPool(), trace_mode="bounded",
        )

    micro_names = (
        "snapshot.save_n8",
        "snapshot.fork_n8",
        "snapshot.genesis_n8",
        "snapshot.fork_vs_genesis_n8",
    )
    if any(wanted(name) for name in micro_names):
        # One warm-up serves both ops: the protocol stays parked at the
        # fork tick (capture is pure serialization), and the snapshot it
        # produced thaws into every forked continuation.
        warmed = build()
        snap = warm_snapshot(warmed, "bench|fork-n8", 8)
        if wanted("snapshot.save_n8"):
            results["snapshot.save_n8"] = round(
                _measure(
                    lambda: capture(warmed, "bench|fork-n8", 8).to_bytes(),
                    target_seconds=target,
                    repeats=repeats,
                ),
                2,
            )
        need_ratio = wanted("snapshot.fork_vs_genesis_n8")
        fork_rate = genesis_rate = None
        if wanted("snapshot.fork_n8") or need_ratio:

            def run_fork():
                forked = fork(snap)
                forked.advance(forked.config.horizon)
                return forked.finish()

            fork_rate = _measure(run_fork, target_seconds=target, repeats=repeats)
            results["snapshot.fork_n8"] = round(fork_rate, 2)
        if wanted("snapshot.genesis_n8") or need_ratio:
            genesis_rate = _measure(
                lambda: build().run(), target_seconds=target, repeats=repeats
            )
            results["snapshot.genesis_n8"] = round(genesis_rate, 2)
        if need_ratio and fork_rate and genesis_rate:
            results["snapshot.fork_vs_genesis_n8"] = round(
                fork_rate / genesis_rate, 2
            )

    grid_names = (
        "sweep.fork_grid_w2",
        "sweep.fork_grid_w2_genesis",
        "sweep.fork_grid_speedup",
    )
    if any(wanted(name) for name in grid_names):
        spec = _fork_grid_spec()
        count = len(spec.expand())
        passes = 1 if smoke else 2
        with SweepExecutor(workers=2) as executor:
            executor.warmup()
            run_sweep(spec, executor=executor)  # untimed priming pass
            best_genesis = min(
                _timed(lambda: run_sweep(spec, executor=executor))
                for _ in range(passes)
            )
            with tempfile.TemporaryDirectory() as snapdir:
                kwargs = dict(
                    executor=executor, snapshot_dir=snapdir, warmup_views=22
                )
                run_sweep(spec, **kwargs)  # untimed: pays the saves
                best_fork = min(
                    _timed(lambda: run_sweep(spec, **kwargs))
                    for _ in range(passes)
                )
        results["sweep.fork_grid_w2_genesis"] = round(count / best_genesis, 2)
        results["sweep.fork_grid_w2"] = round(count / best_fork, 2)
        results["sweep.fork_grid_speedup"] = round(best_genesis / best_fork, 2)

    return {name: value for name, value in results.items() if wanted(name)}


FLEET_FAMILY_OPS = ("fleet.cells_per_sec_w2",)


def _measure_fleet_family(smoke: bool) -> dict[str, float]:
    """Fleet-fabric throughput: the 32-cell grid over localhost TCP.

    Two runner processes lease and execute the grid through a
    :func:`repro.fleet.local.run_fleet_local` fleet.  The reported
    figure divides the cell count by the coordinator's *steady-state*
    elapsed time — first grant eligibility (the start barrier releases
    once both runners registered) to the last commit — so interpreter
    spawn sits outside the measurement and the number is directly
    comparable to ``sweep.cells_per_sec_grid32``: the gap between the
    two is the fabric's lease/wire overhead.
    """

    from repro.fleet.local import run_fleet_local

    spec = _sweep_grid32_spec()
    cells = spec.expand()
    passes = 1 if smoke else 3
    best = float("inf")
    for _ in range(passes):
        summary = run_fleet_local(
            cells, runners=2, batch_size=4, timeout=300.0
        )
        assert summary.complete and summary.elapsed_steady is not None
        best = min(best, summary.elapsed_steady)
    return {"fleet.cells_per_sec_w2": round(len(cells) / best, 2)}


NODE_FAMILY_OPS = ("node.decisions_per_sec_loopback_n4",)


def _measure_node_family(smoke: bool) -> dict[str, float]:
    """Real-transport runtime throughput: an n=4 loopback deployment.

    Four node processes over loopback TCP (``repro deploy local``'s
    engine), each hosting an unmodified validator in logical-tick
    lockstep.  The figure is decided-log events per wall-clock second
    across the fleet.  At four views about half of it is process spawn
    and start-up (a one-view deployment takes 0.08 s of the 0.16 s on 2
    vCPUs); the wire codec costs O(new suffix) per message, and a traced
    long run splits the rest into barrier wait, per-tick protocol
    compute and, a tenth of its old share, the codec — see the module
    docstring.  Process spawn and listener set-up are inside the
    measurement (they are part of what a deployment costs), hence the
    generous CI tolerance (``--tolerance 'node.*=0.9'``).
    """

    from repro.core.tobsvd import TobSvdConfig
    from repro.node.deploy import run_local_deployment

    config = TobSvdConfig(n=4, num_views=4, delta=1, seed=7)
    passes = 1 if smoke else 3
    best = 0.0
    for _ in range(passes):
        deployment = run_local_deployment(config)
        assert deployment.total_decisions > 0
        best = max(best, deployment.decisions_per_sec())
    return {"node.decisions_per_sec_loopback_n4": round(best, 2)}


FAULT_FAMILY_OPS = ("faults.overhead_off",)


def _measure_fault_overhead(smoke: bool) -> tuple[dict[str, float], float]:
    """Cost of an installed-but-empty fault layer on ``e2e.full_view_n8``.

    Runs the same scenario with no fault plan and with a compiled
    all-zero-rate :class:`repro.faults.FaultSpec` plan installed, in
    back-to-back alternating pairs.  Returns the with-plan throughput
    (as ``faults.overhead_off``, gated like any e2e op) plus the median
    paired-ratio overhead percentage vs the plain run — the number
    ``--assert-overhead`` checks.  The disabled layer is supposed to be
    a single attribute check per broadcast, so the percentage should sit
    in the noise floor.
    """

    from repro.core.tobsvd import TobSvdConfig
    from repro.faults import FaultSpec
    from repro.harness import stable_scenario
    from repro.harness.scenarios import compile_checked_fault_plan
    from repro.sleepy.corruption import CorruptionPlan

    config = TobSvdConfig(n=8, num_views=2, delta=2, seed=0)
    plan = compile_checked_fault_plan(
        FaultSpec(), config, CorruptionPlan.none(), None, "bench-overhead"
    )
    assert not plan.has_message_faults and not plan.crash_windows

    def run_plain() -> None:
        stable_scenario(n=8, num_views=2, delta=2, seed=0).run()

    def run_disabled() -> None:
        stable_scenario(n=8, num_views=2, delta=2, seed=0, fault_plan=plan).run()

    # Overhead = median of per-pair time ratios.  Each pair runs back to
    # back (alternating order, so GC debt and cache effects cancel), and
    # the median over many pairs is immune to both slow outliers and
    # mid-measurement throughput drift — the failure modes of min-of-N
    # on shared machines.
    import gc

    pairs = 30 if smoke else 200
    run_plain(), run_disabled()  # warm caches outside the measurement
    ratios: list[float] = []
    best_disabled = float("inf")
    gc.collect()
    gc.disable()  # GC pauses dwarf a single-run delta at this granularity
    try:
        for i in range(pairs):
            if i % 2:
                t_disabled = _timed(run_disabled)
                t_plain = _timed(run_plain)
            else:
                t_plain = _timed(run_plain)
                t_disabled = _timed(run_disabled)
            ratios.append(t_disabled / t_plain)
            best_disabled = min(best_disabled, t_disabled)
    finally:
        gc.enable()
    ratios.sort()
    median_ratio = ratios[len(ratios) // 2]
    overhead_pct = (median_ratio - 1.0) * 100.0
    return (
        {"faults.overhead_off": round(1.0 / best_disabled, 2)},
        round(overhead_pct, 2),
    )


def _cold_sweep_pass(spec, workers: int) -> None:
    """One pre-executor-style sweep: throwaway pool, chunksize=1."""

    from repro.harness.executor import SweepExecutor
    from repro.harness.sweep import run_sweep

    with SweepExecutor(workers=workers, chunksize=1) as executor:
        run_sweep(spec, executor=executor)


def _measure_memory(smoke: bool) -> dict:
    """Peak-retention comparison of full vs bounded tracing, long horizon.

    Runs the n=8 long-horizon scenario once per retention mode and
    records, per mode: events emitted vs retained, the streaming
    reducers' state-table size, and the tracemalloc peak of the run.
    Peak process RSS (monotone, process-wide) is reported once at the
    section level.  These numbers land under the report's ``memory`` key,
    outside ``results``, so the ops/sec regression gate ignores them.
    """

    import tracemalloc

    from repro.harness import stable_scenario

    views = 64 if smoke else 256
    modes: dict[str, dict] = {}
    for mode in ("full", "bounded"):
        tracemalloc.start()
        result = stable_scenario(
            n=8, num_views=views, delta=2, seed=0, trace_mode=mode
        ).run()
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        bus = result.observability.bus
        modes[mode] = {
            "events_emitted": bus.events_emitted,
            "retained_events": bus.retained_events(),
            "reducer_state_entries": result.analysis.state_entries(),
            # end = live heap still referenced when the run finishes (the
            # retention cost); peak = transient high-water mark.
            "tracemalloc_end_kib": round(current / 1024, 1),
            "tracemalloc_peak_kib": round(peak / 1024, 1),
        }
    section: dict = {"scenario": f"stable n=8 v={views} Δ=2", "modes": modes}
    try:
        import resource

        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform == "darwin":  # ru_maxrss is bytes on macOS, KiB on Linux
            rss //= 1024
        section["ru_maxrss_kib"] = rss
    except ImportError:  # pragma: no cover - non-POSIX platforms
        pass
    return {"long_horizon_n8": section}


def _measure(fn: Callable[[], object], target_seconds: float, repeats: int) -> float:
    """Return ops/sec: calibrate a rep count, then take the best of ``repeats``."""

    reps = 1
    while True:
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= target_seconds / 4 or reps >= 1_000_000:
            break
        reps = min(reps * 4, 1_000_000)
    best = elapsed / reps
    for _ in range(repeats - 1):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed / reps)
    return 1.0 / best if best > 0 else float("inf")


def _profile_op(name: str, fn: Callable[[], object], top: int) -> None:
    """cProfile one op and print the top ``top`` rows (cumulative + internal)."""

    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    fn()
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs()
    print(f"profile of {name!r} — top {top} by cumulative time:")
    stats.sort_stats("cumulative").print_stats(top)
    print(f"profile of {name!r} — top {top} by internal time:")
    stats.sort_stats("tottime").print_stats(top)


def parse_tolerances(values: list[str] | None) -> tuple[float, list[tuple[str, float]]]:
    """Parse repeated ``--tolerance`` flags into (default, overrides).

    Each flag value is either a bare fraction (``0.8`` — the default
    tolerance, last one wins) or ``pattern=fraction`` (``sweep.*=0.9`` —
    a per-benchmark override; ``pattern`` is an ``fnmatch`` glob over op
    names, exact names included).  Overrides resolve first-match in the
    order given.  Raises ``ValueError`` on malformed entries or
    fractions outside ``[0, 1)``.
    """

    default = 0.5
    overrides: list[tuple[str, float]] = []
    for value in values or []:
        if "=" in value:
            pattern, _, raw = value.partition("=")
            pattern = pattern.strip()
            if not pattern:
                raise ValueError(f"--tolerance {value!r}: empty benchmark pattern")
            fraction = float(raw)
            if not 0.0 <= fraction < 1.0:
                raise ValueError(f"--tolerance {value!r}: fraction must lie in [0, 1)")
            overrides.append((pattern, fraction))
        else:
            default = float(value)
            if not 0.0 <= default < 1.0:
                raise ValueError(f"--tolerance {value!r}: fraction must lie in [0, 1)")
    return default, overrides


def tolerance_for(
    name: str, default: float, overrides: list[tuple[str, float]]
) -> float:
    """The tolerance applying to op ``name`` (first matching override wins)."""

    from fnmatch import fnmatchcase

    for pattern, fraction in overrides:
        if name == pattern or fnmatchcase(name, pattern):
            return fraction
    return default


def _check_regressions(
    results: dict[str, float],
    gate: dict,
    tolerance: float,
    overrides: list[tuple[str, float]] | None = None,
) -> list[str]:
    """Ops whose current ops/sec fell below ``(1 - tolerance) * baseline``.

    ``overrides`` loosens (or tightens) individual benchmarks — noisy
    microbenches get generous per-op floors while e2e stays tight.
    """

    baseline = read_results(gate)
    failures = []
    for name, current in results.items():
        reference = baseline.get(name)
        if not reference:
            continue
        applied = tolerance_for(name, tolerance, overrides or [])
        floor = (1.0 - applied) * reference
        if current < floor:
            failures.append(
                f"{name}: {current:,.1f} ops/sec < floor {floor:,.1f} "
                f"(baseline {reference:,.1f}, tolerance {applied:.0%})"
            )
    return failures


def _load_report(path: str) -> dict | None:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read report {path!r}: {exc}", file=sys.stderr)
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument(
        "--baseline",
        default=None,
        help="a prior report; embeds before/speedup into the output",
    )
    parser.add_argument(
        "--against",
        default=None,
        help="regression gate: compare against this report, exit 1 on regression",
    )
    parser.add_argument(
        "--tolerance",
        action="append",
        default=None,
        metavar="FRAC | PATTERN=FRAC",
        help="allowed fractional slowdown for --against (default 0.5; "
        "smoke runs are noisy, gate them generously).  Repeatable: a "
        "bare fraction sets the default, 'pattern=frac' overrides "
        "matching benchmarks (fnmatch globs, e.g. 'sim.event*=0.9'), "
        "first match wins",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="single quick pass per op (sanity only, suitable for CI)",
    )
    parser.add_argument(
        "--only", default=None, help="substring filter on op names"
    )
    parser.add_argument(
        "--assert-overhead",
        type=float,
        default=None,
        metavar="PCT",
        help="fail (exit 1) if the disabled fault layer costs more than "
        "PCT percent on e2e.full_view_n8 (the faults.overhead_off "
        "measurement; forces it to run even under --only)",
    )
    parser.add_argument(
        "--profile",
        default=None,
        metavar="OP",
        help="cProfile one op (exact name or unique substring) and exit",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=25,
        help="rows to print per --profile table (default 25)",
    )
    args = parser.parse_args(argv)
    try:
        tolerance, tolerance_overrides = parse_tolerances(args.tolerance)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    target = 0.02 if args.smoke else 0.2
    repeats = 1 if args.smoke else 3

    baseline = gate = None
    if args.baseline:
        baseline = _load_report(args.baseline)
        if baseline is None:
            return 2
    if args.against:
        gate = _load_report(args.against)
        if gate is None:
            return 2

    ops = _build_ops()
    if args.profile:
        matches = {name: fn for name, fn in ops.items() if args.profile in name}
        if not matches:
            print(f"error: --profile {args.profile!r} matches no ops", file=sys.stderr)
            return 2
        if len(matches) > 1 and args.profile not in matches:
            print(
                f"error: --profile {args.profile!r} is ambiguous: "
                f"{', '.join(sorted(matches))}",
                file=sys.stderr,
            )
            return 2
        name = args.profile if args.profile in matches else next(iter(matches))
        _profile_op(name, ops[name], args.profile_top)
        return 0
    sweep_family_wanted = args.only is None or any(
        args.only in name for name in SWEEP_FAMILY_OPS
    )
    fault_family_wanted = (
        args.only is None
        or any(args.only in name for name in FAULT_FAMILY_OPS)
        or args.assert_overhead is not None
    )
    fleet_family_wanted = args.only is None or any(
        args.only in name for name in FLEET_FAMILY_OPS
    )
    node_family_wanted = args.only is None or any(
        args.only in name for name in NODE_FAMILY_OPS
    )
    snapshot_family_wanted = args.only is None or any(
        args.only in name for name in SNAPSHOT_FAMILY_OPS
    )
    if args.only:
        ops = {name: fn for name, fn in ops.items() if args.only in name}
        if (
            not ops
            and not sweep_family_wanted
            and not fault_family_wanted
            and not fleet_family_wanted
            and not node_family_wanted
            and not snapshot_family_wanted
        ):
            print(f"error: --only {args.only!r} matches no ops", file=sys.stderr)
            return 2

    results: dict[str, float] = {}
    for name, fn in ops.items():
        ops_per_sec = _measure(fn, target_seconds=target, repeats=repeats)
        views = VIEW_RATE_OPS.get(name)
        if views is not None:
            ops_per_sec *= views  # report views/sec: flatness reads directly
        results[name] = round(ops_per_sec, 2)
        unit = "views/sec" if views is not None else "ops/sec"
        print(f"{name:40s} {ops_per_sec:>14,.1f} {unit}", flush=True)

    if sweep_family_wanted:
        sweep_results = _measure_sweep_family(args.smoke, args.only)
        if args.only:
            sweep_results = {
                name: value
                for name, value in sweep_results.items()
                if args.only in name
            }
        for name, value in sweep_results.items():
            unit = "setups/sec" if "setup" in name else "cells/sec"
            print(f"{name:40s} {value:>14,.1f} {unit}", flush=True)
        results.update(sweep_results)

    if fleet_family_wanted:
        fleet_results = _measure_fleet_family(args.smoke)
        for name, value in fleet_results.items():
            print(f"{name:40s} {value:>14,.1f} cells/sec", flush=True)
        results.update(fleet_results)

    if node_family_wanted:
        node_results = _measure_node_family(args.smoke)
        for name, value in node_results.items():
            print(f"{name:40s} {value:>14,.1f} decisions/sec", flush=True)
        results.update(node_results)

    if snapshot_family_wanted:
        snapshot_results = _measure_snapshot_family(args.smoke, args.only)
        for name, value in snapshot_results.items():
            if "speedup" in name or "_vs_" in name:
                unit = "x"
            elif name.startswith("sweep."):
                unit = "cells/sec"
            else:
                unit = "ops/sec"
            print(f"{name:40s} {value:>14,.1f} {unit}", flush=True)
        results.update(snapshot_results)

    fault_overhead_pct: float | None = None
    if fault_family_wanted:
        fault_results, fault_overhead_pct = _measure_fault_overhead(args.smoke)
        for name, value in fault_results.items():
            print(f"{name:40s} {value:>14,.1f} ops/sec", flush=True)
        print(f"{'faults.overhead_off_pct':40s} {fault_overhead_pct:>13,.2f}%",
              flush=True)
        results.update(fault_results)

    report: dict = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "smoke": args.smoke,
        },
        "results": results,
    }
    if fault_overhead_pct is not None:
        report["faults"] = {"overhead_off_pct": fault_overhead_pct}

    if not args.only:
        memory = _measure_memory(args.smoke)
        report["memory"] = memory
        section = memory["long_horizon_n8"]
        print(f"\nmemory ({section['scenario']}):")
        for mode, stats in section["modes"].items():
            print(
                f"  {mode:8s} retained {stats['retained_events']:>7d}"
                f"/{stats['events_emitted']} events  "
                f"state {stats['reducer_state_entries']:>6d} entries  "
                f"end {stats['tracemalloc_end_kib']:>9,.1f} KiB  "
                f"peak {stats['tracemalloc_peak_kib']:>10,.1f} KiB"
            )

    if baseline is not None:
        before = read_results(baseline)
        speedup = {
            name: round(results[name] / before[name], 2)
            for name in results
            if name in before and before[name]
        }
        report["before"] = before
        report["speedup"] = speedup
        print("\nspeedup vs baseline:")
        for name, factor in speedup.items():
            print(f"  {name:38s} {factor:>8.2f}x")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.out}")

    if args.assert_overhead is not None:
        if fault_overhead_pct > args.assert_overhead:
            print(
                f"\nFAULT-LAYER OVERHEAD: {fault_overhead_pct:.2f}% > "
                f"allowed {args.assert_overhead:.2f}% on e2e.full_view_n8",
                file=sys.stderr,
            )
            return 1
        print(
            f"\nfault-layer overhead check passed: {fault_overhead_pct:.2f}% "
            f"<= {args.assert_overhead:.2f}%"
        )

    if gate is not None:
        failures = _check_regressions(results, gate, tolerance, tolerance_overrides)
        if failures:
            print(f"\nREGRESSION vs {args.against}:", file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        extra = f" + {len(tolerance_overrides)} overrides" if tolerance_overrides else ""
        print(f"\nregression gate passed vs {args.against} "
              f"(tolerance {tolerance:.0%}{extra})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
