"""The fleet runner: lease cells, execute them, stream results back.

A runner is a thin client around the machinery PRs 2-6 already built:
cells rebuild from their dict form, execute through
:func:`~repro.harness.sweep.run_cell` (in-process, sharing the
per-process :mod:`~repro.harness.prebuild` cache across every leased
batch) or through a local :class:`~repro.harness.executor.SweepExecutor`
pool (``workers >= 1``: one runner *host* fanning out to its own
supervised worker processes — the two-level tree a real multi-host
deployment uses), and results are already canonical JSONL lines, so the
runner ships them verbatim.

The loop is a straight poll cycle: ``lease`` → execute → ``result`` per
line (each reply acked, so the runner knows whether its line committed
or lost the first-write race) → repeat, until the coordinator answers
``done``.  Every message the runner sends renews its leases on the
coordinator, so no separate heartbeat thread is needed as long as cells
finish inside the lease TTL; between cells of a long batch the results
themselves are the heartbeat.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass, field

from repro.net.framing import FrameConnection, TruncatedStreamError, WireError


class RunnerError(RuntimeError):
    """The coordinator vanished or broke protocol mid-conversation."""


@dataclass
class RunnerStats:
    """What one runner did, as reported by ``FleetRunner.run``."""

    runner_id: str = ""
    batches_leased: int = 0
    cells_executed: int = 0
    results_committed: int = 0
    duplicates: int = 0
    rejected: int = 0
    waits: int = 0

    def to_dict(self) -> dict:
        return {
            "runner_id": self.runner_id,
            "batches_leased": self.batches_leased,
            "cells_executed": self.cells_executed,
            "results_committed": self.results_committed,
            "duplicates": self.duplicates,
            "rejected": self.rejected,
            "waits": self.waits,
        }


@dataclass
class FleetRunner:
    """One runner process's client logic.

    ``workers=0`` executes leased cells in-process (prebuild caches warm
    across batches — the common CI/localhost shape); ``workers >= 1``
    runs them on an owned :class:`~repro.harness.executor.SweepExecutor`
    pool, giving each runner host its own self-healing process tree.
    ``max_cells`` overrides the coordinator's advertised batch size.
    """

    host: str
    port: int
    runner_id: str = ""
    workers: int = 0
    max_cells: int = 0
    connect_timeout: float = 10.0
    snapshot_dir: str | None = None
    warmup_views: int | None = None
    stats: RunnerStats = field(default_factory=RunnerStats)

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = in-process)")
        if not self.runner_id:
            # Unique per process, never simulation-visible: runner ids
            # label leases and log lines, nothing derives results from
            # them, so determinism of the sweep output is untouched.
            self.runner_id = f"runner-{os.getpid()}-{os.urandom(3).hex()}"
        self.stats.runner_id = self.runner_id

    # -- the client loop -----------------------------------------------------

    def run(self) -> RunnerStats:
        """Serve the coordinator until it reports the sweep done."""

        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        sock.settimeout(None)  # blocking from here on; frames are small
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = FrameConnection(sock)
        executor = None
        try:
            register: dict = {"type": "register", "runner": self.runner_id}
            if self.snapshot_dir is not None:
                # Advertise locally cached snapshot ids so the
                # coordinator can lease cells whose warm-up this host
                # already holds (one field in an existing message — no
                # extra protocol round-trips).
                from repro.harness.sweep import process_snapshot_store

                register["snapshots"] = process_snapshot_store(
                    self.snapshot_dir
                ).ids()
            welcome = self._exchange(conn, register)
            if welcome.get("type") != "welcome":
                raise RunnerError(f"expected welcome, got {welcome!r}")
            trace_mode = welcome.get("trace_mode", "bounded")
            batch = self.max_cells or int(welcome.get("batch", 8))
            if self.workers >= 1:
                from repro.harness.executor import SweepExecutor

                executor = SweepExecutor(workers=self.workers)
            while True:
                reply = self._exchange(
                    conn,
                    {
                        "type": "lease",
                        "runner": self.runner_id,
                        "max_cells": batch,
                    },
                )
                kind = reply.get("type")
                if kind == "done":
                    break
                if kind == "wait":
                    self.stats.waits += 1
                    time.sleep(float(reply.get("retry_after", 0.05)))
                    continue
                if kind != "cells":
                    raise RunnerError(f"unexpected lease reply {reply!r}")
                self.stats.batches_leased += 1
                for cell_id, line in self._execute(reply["cells"], trace_mode, executor):
                    self.stats.cells_executed += 1
                    ack = self._exchange(
                        conn,
                        {
                            "type": "result",
                            "runner": self.runner_id,
                            "cell_id": cell_id,
                            "line": line,
                        },
                    )
                    outcome = ack.get("outcome")
                    if outcome == "committed":
                        self.stats.results_committed += 1
                    elif outcome == "duplicate":
                        self.stats.duplicates += 1
                    else:
                        self.stats.rejected += 1
            try:
                conn.send({"type": "goodbye", "runner": self.runner_id})
            except WireError:
                pass  # the coordinator may already be gone; we are done
        finally:
            if executor is not None:
                executor.close()
            conn.close()
        return self.stats

    def _exchange(self, conn: FrameConnection, message: dict) -> dict:
        """One request/response round trip; coordinator loss is typed."""

        try:
            conn.send(message)
            reply = conn.recv()
        except TruncatedStreamError as exc:
            raise RunnerError(f"lost coordinator: {exc}") from None
        if reply is None:
            raise RunnerError("coordinator closed the connection mid-sweep")
        if reply.get("type") == "error":
            raise RunnerError(f"coordinator rejected message: {reply.get('error')}")
        return reply

    def _execute(self, cell_dicts: list[dict], trace_mode: str, executor):
        """Yield ``(cell_id, canonical line)`` for one leased batch."""

        from repro.harness.sweep import Cell, execute_cells

        cells = [Cell.from_dict(data) for data in cell_dicts]
        if executor is None:
            yield from execute_cells(
                cells, trace_mode, self.snapshot_dir, self.warmup_views
            )
            return
        for line in executor.map_cells(
            cells,
            trace_mode,
            snapshot_dir=self.snapshot_dir,
            warmup_views=self.warmup_views,
        ):
            yield json.loads(line)["cell_id"], line
