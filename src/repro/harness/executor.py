"""The persistent, self-healing sweep worker pool.

:class:`SweepExecutor` runs sweep cells on a warm pool of worker
processes.  It has no scheduler of its own: each :meth:`~SweepExecutor.
map_cells` dispatch builds one :class:`~repro.harness.lease.LeaseTable`
— the same table the fleet coordinator (:mod:`repro.fleet`) schedules
through — and treats every worker as a runner of it.  The fleet's
runners speak TCP; the executor's speak over a ``multiprocessing``
pipe.  Everything else is the table's:

* a chunk dispatch is a ``grant``, and a chunk reply goes through
  ``complete`` (first write wins; a reply to an abandoned earlier
  dispatch names cells the new table does not know, and is dropped);
* a dead worker is ``runner_dead``, and a per-cell timeout is lease
  expiry (a chunk of ``k`` cells gets ``k * cell_timeout``);
* a failed cell is retried after a deterministic backoff derived from
  its hash (:func:`repro.faults.retry_backoff`) and granted alone; once
  out of ``retries`` it is quarantined as a canonical ``status:
  "failed"`` record instead of killing the sweep.

What the executor adds is the pool itself:

* **Warm pool.**  Workers are created lazily on first dispatch (or
  eagerly via :meth:`~SweepExecutor.warmup`) and reused across any
  number of sweeps.  The worker initializer pre-imports the protocol
  stack so the first real cell does not pay import latency.
* **Spawn start method.**  Workers start fresh (``spawn``) rather than
  forked: identical behaviour on every platform, no fork-with-threads
  hazards, and an honest cold-start cost the warm pool amortizes.
* **Adaptive chunked dispatch.**  ``chunksize=0`` picks
  ``clamp(todo / (workers * 4), 1, 16)``, collapsing per-cell IPC
  round-trips while keeping enough chunks in flight for load balance.
* **Worker-side serialization.**  Workers run cells through
  :func:`repro.harness.sweep.execute_cells` and return canonical JSONL
  lines; the parent appends the raw line (one encoder, one invocation —
  byte identity across serial/parallel is by construction).
* **Supervision.**  Each worker is an explicit ``Process`` with a duplex
  ``Pipe`` (``multiprocessing.Pool`` hangs forever when a worker is
  SIGKILLed mid-task).  Dead and timed-out workers are respawned; a
  worker that dies during start-up raises :class:`WorkerPoolError`
  carrying its exit code — never a silent hang.
* **Chaos mode.**  A :class:`repro.faults.ChaosPlan` SIGKILLs workers
  immediately before selected cells — on the first attempt only, so a
  sweep with ``retries >= 1`` always converges to the byte-identical
  record set of a fault-free run (successful records are pure functions
  of their cells; attempts leave no trace on them).

Determinism is unaffected by any of this: cells derive all randomness
from their own coordinates, workers share no mutable state, and the
per-worker prebuild caches (:mod:`repro.harness.prebuild`) hold only
artefacts that are pure functions of their cache key.  Completion order
*within* a sweep may vary with chunking and retries, which is why
consumers read sorted records.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import sys
import time
from multiprocessing import connection

from repro.faults import ChaosPlan
from repro.harness.lease import LeaseTable

_READY = "__worker_ready__"

#: Consecutive init-phase worker deaths tolerated before the supervisor
#: concludes workers cannot start at all and raises WorkerPoolError.
_MAX_INIT_DEATHS = 3

#: Supervision poll interval (seconds): the upper bound on how stale a
#: deadline/death check can be.  connection.wait returns immediately on
#: traffic, so a healthy pool never waits this long for results.
_POLL_INTERVAL = 0.05

#: Test hooks (inherited by spawn workers via the environment): die with
#: the given exit code before initializing; hang for an hour before
#: executing the named cell while its attempt count is below the
#: threshold (default 1: first attempt hangs, retries succeed).
_DIE_ON_INIT_ENV = "REPRO_SWEEP_WORKER_DIE_ON_INIT"
_HANG_CELL_ENV = "REPRO_SWEEP_TEST_HANG_CELL"
_HANG_ATTEMPTS_ENV = "REPRO_SWEEP_TEST_HANG_ATTEMPTS"


class WorkerPoolError(RuntimeError):
    """A sweep worker died outside any cell (start-up / initialization)."""


def _resolved_start_method(preferred: str) -> str:
    """``preferred``, downgraded to ``fork`` when ``spawn`` cannot work.

    ``spawn`` re-imports ``__main__`` from its file path inside every
    worker.  When the parent's ``__main__`` is not a real importable
    file — a heredoc/stdin script, some embedded interpreters — each
    worker would crash during start-up and the pool would respawn
    replacements forever.  Those parents get ``fork`` where the platform
    offers it (the pre-executor behaviour on Linux); real scripts,
    ``python -m repro`` and pytest all keep ``spawn``.
    """

    if preferred != "spawn":
        return preferred
    main_file = getattr(sys.modules.get("__main__"), "__file__", None)
    if main_file is not None and not os.path.exists(main_file):
        if "fork" in multiprocessing.get_all_start_methods():
            return "fork"
    return preferred


def _worker_init() -> None:
    """Pre-import the protocol stack inside a fresh worker process.

    Everything a cell can touch: the real protocol, the structural
    baselines, attackers, scenario builders, streaming analysis.  Also
    primes the genesis log so the first cell starts from a warm chain
    root.  Under ``spawn`` this is the difference between the first
    dispatched cell costing ~an import of the whole package and costing
    ~a cell.
    """

    import repro.adversary.tob_attackers  # noqa: F401
    import repro.analysis.streaming  # noqa: F401
    import repro.baselines.structural_tob  # noqa: F401
    import repro.core.tobsvd  # noqa: F401
    import repro.harness.scenarios  # noqa: F401
    import repro.harness.sweep  # noqa: F401
    from repro.chain.log import Log

    Log.genesis()


def _pool_worker_main(conn) -> None:
    """Worker process main loop: init, handshake, serve chunks.

    Protocol (all over the duplex pipe): the worker sends ``_READY``
    once initialized, then for each received ``(options, items)`` —
    where ``options`` is a dict carrying ``trace_mode`` plus the
    snapshot-tier settings, and ``items`` is a list of ``(cell_dict,
    attempt, kill)`` triples — it executes the cells in order through
    :func:`repro.harness.sweep.execute_cells` and replies ``(pairs,
    cache)``: one ``(cell_id, canonical line)`` pair per cell plus the
    chunk's prebuild/snapshot cache-counter deltas.  A ``kill`` item
    SIGKILLs the process before executing that cell (chaos mode: the
    parent decides, the worker obeys, determinism lives with the
    :class:`~repro.faults.ChaosPlan`).  ``None`` or a closed pipe shuts
    the worker down.

    The worker-side :class:`~repro.snapshot.SnapshotStore` is cached
    per ``snapshot_dir`` for the life of the process
    (:func:`repro.harness.sweep.process_snapshot_store`), and the store
    directory is shared by every worker — a prefix warmed by one
    process is a disk hit for all others (atomic first-rename-wins
    puts), which is the cross-process reuse the snapshot tier is for.
    """

    die = os.environ.get(_DIE_ON_INIT_ENV)
    if die:
        os._exit(int(die))
    _worker_init()
    try:
        conn.send(_READY)
    except (BrokenPipeError, OSError):
        return
    from repro.harness.sweep import Cell, execute_cells

    hang_cell = os.environ.get(_HANG_CELL_ENV)
    hang_attempts = int(os.environ.get(_HANG_ATTEMPTS_ENV, "1"))

    def chunk_cells(items):
        # Lazy, so each hook fires right before its own cell runs.
        for cell_data, attempt, kill in items:
            if kill:
                os.kill(os.getpid(), signal.SIGKILL)
            cell = Cell.from_dict(cell_data)
            if cell.cell_id == hang_cell and attempt < hang_attempts:
                time.sleep(3600)
            yield cell

    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        options, items = task
        cache: dict = {}
        pairs = list(
            execute_cells(
                chunk_cells(items),
                options["trace_mode"],
                snapshot_dir=options["snapshot_dir"],
                warmup_views=options["warmup_views"],
                cache=cache,
            )
        )
        try:
            conn.send((pairs, cache))
        except (BrokenPipeError, OSError):
            return


def adaptive_chunksize(todo: int, workers: int) -> int:
    """Chunk size balancing IPC amortization against load balance.

    Aim for ~4 chunks per worker (stragglers get rebalanced), capped at
    16 (bound worst-case loss when a chunk lands on a slow worker) and
    floored at 1.
    """

    if todo <= 0 or workers <= 0:
        return 1
    return max(1, min(16, todo // (workers * 4) or 1))


class _Worker:
    """Parent-side handle for one supervised worker process (a runner)."""

    __slots__ = ("proc", "conn", "ready", "runner_id")

    def __init__(self, proc, conn, runner_id: str) -> None:
        self.proc = proc
        self.conn = conn
        self.ready = False
        self.runner_id = runner_id


class SweepExecutor:
    """A reusable, context-managed, self-healing worker pool.

    Usage::

        with SweepExecutor(workers=4, retries=2, cell_timeout=30.0) as executor:
            executor.warmup()                      # optional: pay start-up now
            run_sweep(spec_a, store=a, executor=executor)
            run_sweep(spec_b, store=b, executor=executor)  # warm pool reused

    The pool is created lazily on first use, so constructing an executor
    is free.  ``close()`` (or leaving the ``with`` block) terminates the
    workers; a closed executor refuses further dispatch.

    ``retries`` bounds how many times a failed cell (worker death or
    timeout) is re-executed before it is quarantined as a ``status:
    "failed"`` record; retried cells are dispatched solo so one poisoned
    cell cannot burn its chunk-mates' attempts.  ``cell_timeout``
    (seconds) is a per-cell budget — a chunk of ``k`` cells gets ``k *
    cell_timeout`` before its worker is killed and the cells retried.
    ``chaos`` installs a :class:`repro.faults.ChaosPlan` that SIGKILLs
    workers before selected cells' first attempts.
    """

    def __init__(
        self,
        workers: int = 2,
        chunksize: int = 0,
        start_method: str = "spawn",
        retries: int = 0,
        cell_timeout: float | None = None,
        retry_backoff_base: float = 0.05,
        chaos: ChaosPlan | None = None,
        warmup_timeout: float = 60.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if chunksize < 0:
            raise ValueError("chunksize must be >= 0 (0 = adaptive)")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if cell_timeout is not None and cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive (None = no timeout)")
        self.workers = workers
        self.chunksize = chunksize
        self.retries = retries
        self.cell_timeout = cell_timeout
        self.chaos = chaos
        self._backoff_base = retry_backoff_base
        self._warmup_timeout = warmup_timeout
        self._start_method = start_method
        self._ctx = None
        self._workers: list[_Worker] | None = None
        self._closed = False
        self._spawned = 0
        self._init_deaths = 0
        self.sweeps_dispatched = 0
        self.cells_dispatched = 0
        self.retries_attempted = 0
        self.cells_quarantined = 0
        self.workers_respawned = 0

    # -- lifecycle -----------------------------------------------------------

    def _ensure_pool(self) -> list[_Worker]:
        if self._closed:
            raise RuntimeError("executor is closed")
        if self._workers is None:
            self._ctx = multiprocessing.get_context(
                _resolved_start_method(self._start_method)
            )
            self._workers = [self._spawn_worker() for _ in range(self.workers)]
        return self._workers

    def _spawn_worker(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_pool_worker_main, args=(child_conn,), daemon=True
        )
        proc.start()
        child_conn.close()  # the parent's copy; EOF detection needs it gone
        self._spawned += 1
        return _Worker(proc, parent_conn, f"worker-{self._spawned}")

    def _replace_worker(self, index: int) -> None:
        worker = self._workers[index]
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.proc.is_alive():
            worker.proc.kill()
        worker.proc.join()
        self.workers_respawned += 1
        self._workers[index] = self._spawn_worker()

    @property
    def started(self) -> bool:
        """Whether the worker pool has been created yet."""

        return self._workers is not None

    def warmup(self) -> None:
        """Start the pool now and wait until every worker is serving.

        Blocks until all workers have completed their initializer and
        sent the ready handshake.  A worker that dies on the way up —
        the ``multiprocessing.Pool`` version of this engine silently
        respawned such workers forever, hanging the caller — raises
        :class:`WorkerPoolError` carrying the dead worker's exit code.
        Calling this before a timed sweep moves pool start-up out of the
        measurement — the ``--warm`` CLI flag and the cells/sec
        benchmarks rely on it.
        """

        workers = self._ensure_pool()
        deadline = time.monotonic() + self._warmup_timeout

        def died(worker: _Worker) -> WorkerPoolError:
            worker.proc.join()
            return WorkerPoolError(
                f"sweep worker (pid {worker.proc.pid}) died during "
                f"warmup with exit code {worker.proc.exitcode}"
            )

        for worker in workers:
            while not worker.ready:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise WorkerPoolError(
                        f"sweep worker (pid {worker.proc.pid}) failed to "
                        f"initialize within {self._warmup_timeout:.0f}s"
                    )
                if worker.conn.poll(min(remaining, _POLL_INTERVAL)):
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        # A dead peer's pipe stays readable (EOF), so the
                        # recv failure *is* the death signal here.
                        raise died(worker) from None
                    if message == _READY:
                        worker.ready = True
                elif not worker.proc.is_alive():
                    raise died(worker)

    def close(self) -> None:
        """Terminate the workers.  Idempotent."""

        if self._workers is not None:
            for worker in self._workers:
                try:
                    worker.conn.close()
                except OSError:
                    pass
                if worker.proc.is_alive():
                    worker.proc.kill()
            for worker in self._workers:
                worker.proc.join()
            self._workers = None
        self._closed = True

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatch ------------------------------------------------------------

    def map_cells(
        self,
        cells,
        trace_mode: str = "bounded",
        chunksize: int | None = None,
        snapshot_dir: str | None = None,
        warmup_views: int | None = None,
        cache: dict | None = None,
    ):
        """Execute ``cells`` on the pool; yield canonical JSONL lines.

        Lines arrive in completion order, one per cell, each exactly as
        the worker serialized it — except quarantine records (cells that
        exhausted their retries), which the parent serializes with the
        same canonical encoder.  ``chunksize`` overrides the executor
        default for this dispatch; ``0`` (or an executor constructed
        with 0) picks :func:`adaptive_chunksize`.  ``snapshot_dir``
        turns on the worker-side snapshot tier (see
        :func:`repro.harness.sweep.run_cell`); ``warmup_views`` forces a
        snapshot boundary for fault-free cells.  ``cache`` (if given)
        accumulates the prebuild/snapshot counter deltas the workers
        report.
        """

        cells = list(cells)
        if not cells:
            return iter(())
        self._ensure_pool()
        effective = chunksize if chunksize is not None else self.chunksize
        if effective == 0:
            effective = adaptive_chunksize(len(cells), self.workers)
        self.sweeps_dispatched += 1
        self.cells_dispatched += len(cells)
        table = LeaseTable(
            ttl=self.cell_timeout or math.inf,
            retries=self.retries,
            backoff_base=self._backoff_base,
            ttl_per_cell=True,
        )
        table.add_cells(cells)
        options = {
            "trace_mode": trace_mode,
            "snapshot_dir": snapshot_dir,
            "warmup_views": warmup_views,
        }
        return self._supervise(table, options, effective, cache)

    # -- supervision ---------------------------------------------------------

    def _supervise(self, table: LeaseTable, options: dict, chunksize: int, cache):
        """The scheduling loop: reap, grant, collect.

        Every worker is a runner of ``table``, which makes each decision:
        a death is :meth:`~LeaseTable.runner_dead`, a timeout is lease
        expiry, a chunk reply goes through :meth:`~LeaseTable.complete`
        (a reply to an abandoned earlier dispatch names cells this table
        does not know, and is dropped), and the table says which failed
        cells are retried and which are quarantined.
        """

        from repro.harness.sweep import (
            Cell,
            add_cache_counters,
            canonical_record,
            quarantine_record,
        )

        out: list[str] = []

        def handle(worker: _Worker, message) -> None:
            if message == _READY:
                worker.ready = True
                self._init_deaths = 0
                return
            pairs, counters = message
            if cache is not None:
                add_cache_counters(cache, counters)
            for cell_id, line in pairs:
                if table.complete(cell_id, worker.runner_id) == "committed":
                    out.append(line)

        def drain(worker: _Worker) -> None:
            # Complete messages still buffered on a dead pipe.
            while True:
                try:
                    if not worker.conn.poll():
                        return
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    return
                handle(worker, message)

        while not table.all_committed:
            now = time.monotonic()

            # Reap dead and timed-out workers.  The pipe is drained first
            # so a result that raced ahead of a death is honoured rather
            # than re-executed.
            for index, worker in enumerate(self._workers):
                runner = worker.runner_id
                alive = worker.proc.is_alive()
                if alive:
                    deadline = table.deadline(runner)
                    if deadline is None or now < deadline:
                        continue
                    if worker.conn.poll():
                        table.renew(runner, now)  # its reply is already here
                        continue
                    worker.proc.kill()
                    worker.proc.join()
                drain(worker)
                if alive:
                    failed = table.expire(now, runner)
                    error = f"cell timeout after {self.cell_timeout:.1f}s"
                else:
                    if not worker.ready:
                        # Death before the ready handshake means worker
                        # initialization itself is broken; tolerate a
                        # bounded number, then give up loudly instead of
                        # respawning forever (the silent-hang bug).
                        self._init_deaths += 1
                        if self._init_deaths >= _MAX_INIT_DEATHS:
                            raise WorkerPoolError(
                                f"sweep workers keep dying during start-up "
                                f"(last exit code {worker.proc.exitcode}); "
                                f"giving up after {self._init_deaths} attempts"
                            )
                    failed = table.runner_dead(runner, now)
                    error = f"worker died (exit code {worker.proc.exitcode})"
                for cell_id in failed:
                    attempts = table.quarantined.get(cell_id)
                    if attempts is None:
                        self.retries_attempted += 1
                        continue
                    self.cells_quarantined += 1
                    cell = Cell.from_dict(table.items[cell_id])
                    out.append(canonical_record(quarantine_record(cell, error, attempts)))
                self._replace_worker(index)

            # Grant work to idle, ready workers.
            for worker in self._workers:
                if not worker.ready or table.deadline(worker.runner_id) is not None:
                    continue
                granted = table.grant_ids(worker.runner_id, now, chunksize)
                if not granted:
                    break  # drained, or everything pending is backing off
                items = []
                for cell_id in granted:
                    attempt = table.lease_of(cell_id).attempts - 1
                    kill = self.chaos is not None and self.chaos.kills(cell_id, attempt)
                    items.append((table.items[cell_id], attempt, kill))
                try:
                    worker.conn.send((options, items))
                except (BrokenPipeError, OSError):
                    table.release(worker.runner_id)  # death is reaped next pass

            # Collect results (and ready handshakes).
            by_conn = {worker.conn: worker for worker in self._workers}
            for conn in connection.wait(list(by_conn), timeout=_POLL_INTERVAL):
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    continue  # death is reaped on the next iteration
                handle(by_conn[conn], message)

            yield from out
            out.clear()
