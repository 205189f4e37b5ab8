"""Multi-host sweep fabric: a coordinator/runner fleet over TCP.

PRs 1-6 made one machine fast and fault-tolerant; this package scales a
sweep past one process tree.  The split mirrors SimBricks' symphony
layout (cli / runner / runtime / orchestration):

* :mod:`repro.net.framing` — the length-prefixed JSON frame codec both
  sides speak, with typed errors for oversized / corrupt / truncated
  frames (never a hang);
* :mod:`repro.harness.lease` — the pure lease state machine the
  coordinator trusts (the same one the local
  :class:`~repro.harness.executor.SweepExecutor` schedules through):
  grant / renew / expire / complete with first-write-wins commits, no
  I/O, no wall clock of its own;
* :mod:`repro.fleet.coordinator` — the TCP server that owns the sweep:
  cell queue, lease table, result acceptance into the append-only
  :class:`~repro.harness.sweep.ResultStore`;
* :mod:`repro.fleet.runner` — the client that registers, leases cell
  batches, executes them on the existing
  :class:`~repro.harness.executor.SweepExecutor` / prebuild stack, and
  streams canonical result lines back;
* :mod:`repro.fleet.local` — the single-command driver behind
  ``repro fleet local`` and ``run_sweep(backend="fleet")``: coordinator
  in-process, runner subprocesses on localhost sockets.

The fabric's contract is the strongest one the substrate allows: cells
are deterministic, hash-addressed and resumable, so the fleet's
aggregate output is **byte-identical** to the serial run — including
after runner death (lease expiry + re-dispatch) and duplicate or late
result delivery (first-write-wins, discards deterministic).
"""

from repro.fleet.coordinator import CoordinatorConfig, FleetCoordinator
from repro.fleet.local import FleetError, FleetSummary, run_fleet_local
from repro.fleet.runner import FleetRunner, RunnerStats
from repro.harness.lease import LeaseTable
from repro.net.framing import (
    CorruptFrameError,
    FrameTooLargeError,
    TruncatedStreamError,
    WireError,
    encode_frame,
    read_frame,
)

__all__ = [
    "CoordinatorConfig",
    "FleetCoordinator",
    "LeaseTable",
    "FleetError",
    "FleetSummary",
    "run_fleet_local",
    "FleetRunner",
    "RunnerStats",
    "WireError",
    "FrameTooLargeError",
    "CorruptFrameError",
    "TruncatedStreamError",
    "encode_frame",
    "read_frame",
]
