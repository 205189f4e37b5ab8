"""Spans and timing probes recorded from the benchmark's own files.

Nothing under ``src/`` knows it is being measured: every hook here
replaces a layer's public entry point (a class attribute, or a module
global at the call site that looks it up) with a timing wrapper.  Two
kinds of hook exist:

* **Probes** are always on, even in untraced runs, and cost one clock
  read per node tick, or one calibration chunk per sweep cell.  They
  give the end-to-end metrics the program does not report itself: when
  each node entered ``NodeRuntime.run``, node 0's tick wall times,
  per-cell wall time, simulated views and machine speed in sweep
  workers, and each child process's peak RSS.
* **Spans** are on only in the traced repetition.  Each wrapped call is
  a span with a parent (the enclosing span on the same thread) and a
  root (the outermost span of its call tree, which plays the role of a
  request id).  Self time is the span's duration minus its direct
  children's durations; per-name calls, total and self time are
  accumulated exactly for every span, and the first ``RAW_SPAN_CAP``
  spans of each thread are also kept verbatim.  Everything stays in
  memory and is written once per process (see :func:`dump`).

Processes reached: the repetition process itself; the forked node
processes of ``run_local_deployment`` (they inherit the patched
modules); and the spawned ``SweepExecutor`` workers, which re-import the
repetition script as ``__mp_main__`` and call :func:`install_worker`.
Sweep workers are SIGKILLed by ``SweepExecutor.close()``, so they write
their file before every chunk reply instead of at exit; a node writes
its file when ``NodeRuntime.run`` returns, before it reports its result
to the parent, which may terminate it right after.
"""

from __future__ import annotations

import copy
import functools
import importlib
import itertools
import json
import os
import resource
import threading
import time

import calibration

PROBE_DIR_ENV = "PERFBENCH_PROBE_DIR"
TRACE_ENV = "PERFBENCH_TRACE"
MEMORY_ENV = "PERFBENCH_MEMORY"

#: Raw spans kept per thread; aggregates stay exact beyond it.
RAW_SPAN_CAP = 20_000

#: (span name, module, attribute path) — the layer entry points.
SPAN_POINTS = (
    ("chain.pool", "repro.chain.transactions", "TransactionPool.pending_for_log"),
    ("chain.pool", "repro.chain.transactions", "TransactionPool.pending_for"),
    ("chain.append", "repro.chain.log", "Log.append_block"),
    ("core.handle", "repro.core.tobsvd", "TobSvdValidator.handle_envelope"),
    ("core.handle", "repro.baselines.structural_tob", "StructuralTobValidator.handle_envelope"),
    ("core.timer", "repro.core.validator", "GuardedTimer.__call__"),
    ("core.quorum", "repro.core.ga", "GaInstance.compute_outputs"),
    ("core.quorum", "repro.core.ga", "GaInstance.compute_output_tip"),
    ("sim.run", "repro.sim.simulator", "Simulator.run_until"),
    ("net.deliver", "repro.net.network", "Network._deliver_many"),
    ("net.deliver", "repro.net.network", "Network._deliver"),
    ("net.deliver", "repro.net.network", "Network.flush_pending"),
    ("net.deliver", "repro.node.runtime", "NodeNetwork.deliver_local"),
    ("net.deliver", "repro.node.runtime", "NodeNetwork.flush_pending"),
    ("crypto.verify", "repro.crypto.signatures", "KeyRegistry.verify"),
    ("crypto.digest", "repro.net.messages", "stable_digest"),
    ("crypto.digest", "repro.chain.block", "stable_digest"),
    ("crypto.digest", "repro.crypto.signatures", "stable_digest"),
    ("crypto.digest", "repro.crypto.vrf", "stable_digest"),
    ("crypto.digest", "repro.chain.log", "digest_tagged_strings"),
    ("crypto.vrf", "repro.crypto.vrf", "VRF.evaluate"),
    ("crypto.vrf", "repro.crypto.vrf", "VRF.verify"),
    ("crypto.vrf", "repro.crypto.vrf", "VRF.leader_ranking"),
    ("crypto.vrf", "repro.crypto.vrf", "VRF.best"),
    ("analysis.reducer", "repro.analysis.streaming", "StreamingAnalyzer.on_proposal"),
    ("analysis.reducer", "repro.analysis.streaming", "StreamingAnalyzer.on_vote_phase"),
    ("analysis.reducer", "repro.analysis.streaming", "StreamingAnalyzer.on_ga_output"),
    ("analysis.reducer", "repro.analysis.streaming", "StreamingAnalyzer.on_control"),
    ("analysis.reducer", "repro.analysis.streaming", "StreamingAnalyzer.on_decision"),
    ("node.decode", "repro.node.runtime", "decode_envelope"),
    ("node.encode", "repro.node.runtime", "encode_envelope"),
    ("net.frame", "repro.net.framing", "encode_frame"),
    ("net.barrier_wait", "repro.net.transport", "TcpTransport.receive"),
    ("harness.cell", "repro.harness.sweep", "run_cell"),
    ("harness.store_append", "repro.harness.sweep", "ResultStore.append_line"),
    ("snapshot.capture", "repro.snapshot", "capture"),
    ("snapshot.fork", "repro.harness.sweep", "fork"),
)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _patch(module_name: str, path: str, make_wrapper) -> None:
    owner, attr = _resolve(module_name, path)
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    wrapper = functools.wraps(original)(make_wrapper(original))
    setattr(owner, attr, wrapper)


class Tracer:
    """Per-process span and counter store (one per process, see TRACER)."""

    def __init__(self) -> None:
        self.role = "main"
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[dict] = []

    def reset(self, role: str) -> None:
        """Forget everything recorded so far (a forked child starts clean)."""

        self.role = role
        self._local = threading.local()
        self._threads = []
        for holder in _CALL_COUNTERS.values():
            holder[0] = itertools.count()

    def _state(self) -> dict:
        state = getattr(self._local, "state", None)
        if state is None:
            state = {
                "stack": [], "stats": {}, "counters": {}, "raw": [], "next_id": 0, "dropped": 0,
            }
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def count(self, name: str, amount: float = 1) -> None:
        # Per-thread like the stats: frames are encoded on transport threads.
        counters = self._state()["counters"]
        counters[name] = counters.get(name, 0) + amount

    def span_wrapper(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(args, result)`` may count."""

        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            state = getattr(tracer._local, "state", None) or tracer._state()
            stack = state["stack"]
            span_id = state["next_id"]
            state["next_id"] = span_id + 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0, parent[2] if parent else span_id]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                stats = state["stats"].get(name)
                if stats is None:
                    stats = state["stats"][name] = [0, 0.0, 0.0]
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                raw = state["raw"]
                if len(raw) < RAW_SPAN_CAP:
                    raw.append(
                        (span_id, parent[0] if parent else None, frame[2], name, start, elapsed)
                    )
                else:
                    state["dropped"] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def snapshot(self) -> dict:
        """Merged per-name stats, counters and raw spans of every thread."""

        stats: dict[str, list] = {}
        counters: dict[str, float] = {}
        raw = []
        dropped = 0
        with self._lock:
            threads = list(self._threads)
        for thread_index, state in enumerate(threads):
            for name, (calls, total, self_time) in state["stats"].items():
                merged = stats.setdefault(name, [0, 0.0, 0.0])
                merged[0] += calls
                merged[1] += total
                merged[2] += self_time
            for name, value in state["counters"].items():
                counters[name] = counters.get(name, 0) + value
            raw.extend([thread_index, *span] for span in state["raw"])
            dropped += state["dropped"]
        for name, holder in _CALL_COUNTERS.items():
            counters[name] = next(copy.copy(holder[0]))
        return {"stats": stats, "counters": counters, "raw": raw, "dropped": dropped}


TRACER = Tracer()

#: Probe data of this process, written next to its spans.
PROBES: dict = {}


def peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def start_memory_trace() -> None:
    """Trace allocations from now on (a forked child drops inherited ones)."""

    import tracemalloc

    if tracemalloc.is_tracing():
        tracemalloc.clear_traces()
    else:
        tracemalloc.start()


def memory_by_layer() -> dict[str, float]:
    """MiB allocated since :func:`start_memory_trace` and still live, by layer.

    Attributed by the source file of the allocating line: files under
    ``repro/chain/`` and ``repro/core/``.
    """

    import tracemalloc

    totals = {"chain": 0, "core": 0}
    for stat in tracemalloc.take_snapshot().statistics("filename"):
        path = stat.traceback[0].filename.replace(os.sep, "/")
        for layer in totals:
            if f"/repro/{layer}/" in path:
                totals[layer] += stat.size
    return {layer: size / 2**20 for layer, size in totals.items()}


def dump(tag: str, probe_dir: str | None = None) -> None:
    """Write this process's probes (and spans, when tracing) atomically.

    ``probe_dir`` defaults to the directory the environment names.
    """

    probe_dir = probe_dir or os.environ.get(PROBE_DIR_ENV)
    if not probe_dir:
        return
    record = {
        "role": TRACER.role,
        "pid": os.getpid(),
        "peak_rss_kib": peak_rss_kib(),
        "probes": PROBES,
    }
    if TRACER.enabled:
        record["trace"] = TRACER.snapshot()
    if os.environ.get(MEMORY_ENV) and TRACER.role != "main":
        record["memory"] = memory_by_layer()
    path = os.path.join(probe_dir, f"{tag}-{os.getpid()}.json")
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    os.replace(path + ".tmp", path)


def load_dumps(probe_dir: str) -> list[dict]:
    records = []
    for name in sorted(os.listdir(probe_dir)):
        if name.endswith(".json"):
            with open(os.path.join(probe_dir, name), encoding="utf-8") as handle:
                records.append(json.load(handle))
    return records


# ---------------------------------------------------------------------------
# Installation


def _counting_hooks():
    """Extra counts taken at a span's exit, keyed by span point."""

    def pool(args, result):
        TRACER.count("chain.pool_scanned_txs", len(args[0]))
        TRACER.count("chain.pool_returned_txs", len(result))

    def frame(args, result):
        TRACER.count("net.frames", 1)
        TRACER.count("net.frame_bytes", len(result))

    def append_line(args, result):
        TRACER.count("harness.record_bytes", len(args[1]) + 1)

    def decision(args, result):
        TRACER.count("analysis.decisions", 1)

    return {
        "TransactionPool.pending_for_log": pool,
        "TransactionPool.pending_for": pool,
        "encode_frame": frame,
        "ResultStore.append_line": append_line,
        "StreamingAnalyzer.on_decision": decision,
    }


def _delta_wrapper(name: str, counter: str, read):
    """Span ``name`` that also adds ``read(self)``'s growth to ``counter``."""

    def make(fn):
        inner = TRACER.span_wrapper(name, fn)

        def wrapper(self, *args, **kwargs):
            before = read(self)
            try:
                return inner(self, *args, **kwargs)
            finally:
                TRACER.count(counter, read(self) - before)

        return wrapper

    return make


#: Call counters too hot for :meth:`Tracer.count` (millions of calls):
#: an ``itertools.count`` advances in C and atomically under the GIL.
_CALL_COUNTERS: dict[str, list] = {}


def _call_counter(name: str):
    holder = _CALL_COUNTERS[name] = [itertools.count()]

    def make(fn):
        def wrapper(*args):
            next(holder[0])
            return fn(*args)

        return wrapper

    return make


def install_spans() -> None:
    """Wrap every layer entry point in :data:`SPAN_POINTS` (this process)."""

    TRACER.enabled = True
    hooks = _counting_hooks()
    deltas = {
        "sim.run": ("sim.events", lambda sim: sim.events_processed),
        "net.deliver": ("net.deliveries", lambda net: net.stats.deliveries),
    }
    for name, module_name, path in SPAN_POINTS:
        if name in deltas:
            counter, read = deltas[name]
            _patch(module_name, path, _delta_wrapper(name, counter, read))
        else:
            after = hooks.get(path)
            _patch(module_name, path, lambda fn, n=name, a=after: TRACER.span_wrapper(n, fn, a))

    def counting(counter, size=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                TRACER.count(counter, 1 if size is None else size(args))
                return fn(*args, **kwargs)

            return wrapper

        return make

    _patch("repro.chain.log", "Log.contains_transaction", _call_counter("chain.contains_tx_calls"))
    _patch("repro.node.codec", "decode_log", counting("node.blocks_decoded", lambda a: len(a[0])))
    _patch("repro.node.holdback", "HoldbackQueue.offer", counting("node.holdback_offers"))

    # Frame decoding runs inside read_frame together with blocking socket
    # reads, so only its JSON decode is timed: framing's ``json`` global
    # is pointed at a namespace whose ``loads`` is a span.
    import types

    import repro.net.framing as framing

    shim = types.SimpleNamespace(
        dumps=framing.json.dumps,
        loads=TRACER.span_wrapper("net.frame", framing.json.loads),
        JSONDecodeError=framing.json.JSONDecodeError,
    )
    framing.json = shim
    os.environ[TRACE_ENV] = "1"


def install_probes(probe_dir: str) -> None:
    """Always-on probes for node processes and sweep workers.

    Called in the repetition process before any program object exists;
    node processes fork from it and inherit the patches, and sweep
    workers find the directory through the environment.
    """

    os.environ[PROBE_DIR_ENV] = probe_dir
    import repro.node.deploy as deploy
    import repro.node.runtime as runtime
    import repro.sim.simulator as simulator

    node_main = deploy._node_process_main

    @functools.wraps(node_main)
    def node_process_main(node_id, *args, **kwargs):
        TRACER.reset("node")
        PROBES.clear()
        PROBES["node"] = node_id
        if os.environ.get(MEMORY_ENV):
            start_memory_trace()
        return node_main(node_id, *args, **kwargs)

    deploy._node_process_main = node_process_main

    run = runtime.NodeRuntime.run

    @functools.wraps(run)
    def node_run(self, *args, **kwargs):
        PROBES["enter_run"] = time.monotonic()
        try:
            return run(self, *args, **kwargs)
        finally:
            PROBES["exit_run"] = time.monotonic()
            dump(f"node{self.node_id}")

    runtime.NodeRuntime.run = node_run

    run_until = simulator.Simulator.run_until

    @functools.wraps(run_until)
    def timed_run_until(self, end_time):
        # Only node processes run NodeRuntime ticks; node 0 stands for
        # the cluster (every node waits at the same lockstep barrier).
        if PROBES.get("node") == 0:
            PROBES.setdefault("ticks", []).append((end_time, time.monotonic()))
        return run_until(self, end_time)

    simulator.Simulator.run_until = timed_run_until


def install_worker() -> None:
    """Probes (and spans when tracing) inside one spawned sweep worker."""

    if not os.environ.get(PROBE_DIR_ENV):
        return
    TRACER.reset("worker")
    if os.environ.get(TRACE_ENV):
        install_spans()
    if os.environ.get(MEMORY_ENV):
        start_memory_trace()
    import repro.harness.executor as executor
    import repro.harness.sweep as sweep
    import repro.sim.simulator as simulator

    calibration.warm_up()
    run_cell = sweep.run_cell
    cells = PROBES.setdefault("cells", [])
    chunks = PROBES.setdefault("calibration", [])
    advanced = [0]  # simulated ticks of the current cell

    @functools.wraps(run_cell)
    def timed_run_cell(cell, *args, **kwargs):
        # One calibration chunk per cell, on this worker's CPU and outside
        # the cell's own interval.
        cpu = calibration.chunk()
        chunks.append((time.monotonic(), cpu))
        advanced[0] = 0
        start = time.monotonic()
        record = run_cell(cell, *args, **kwargs)
        # Forked cells simulate only the tail after the fork point, so a
        # cell's cost is reported per simulated view (4Δ of ticks).
        cells.append((advanced[0] / (4 * cell.delta), start, time.monotonic()))
        return record

    sweep.run_cell = timed_run_cell

    run_until = simulator.Simulator.run_until

    @functools.wraps(run_until)
    def counted_run_until(self, end_time):
        before = self.now
        try:
            return run_until(self, end_time)
        finally:
            advanced[0] += max(0, self.now - before)

    simulator.Simulator.run_until = counted_run_until

    class DumpingConn:
        """The worker's pipe end; writes this worker's file before each reply."""

        def __init__(self, conn) -> None:
            self._conn = conn

        def send(self, message) -> None:
            dump("worker")
            self._conn.send(message)

        def __getattr__(self, name):
            return getattr(self._conn, name)

    worker_main = executor._pool_worker_main

    @functools.wraps(worker_main)
    def pool_worker_main(conn):
        return worker_main(DumpingConn(conn))

    executor._pool_worker_main = pool_worker_main
