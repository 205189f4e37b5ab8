"""The sweep scheduler's lease state machine — pure, clockless, lock-free.

Every cell a dispatch schedules is in exactly one of three states:

* **pending** — unassigned, waiting in the dispatch queue;
* **leased** — assigned to one runner under a time-limited lease;
* **committed** — its canonical line was accepted (terminal).

A *runner* is whatever executes cells: a TCP client of the fleet
coordinator (:mod:`repro.fleet`) or a pipe-connected worker process of
the local :class:`~repro.harness.executor.SweepExecutor`.  Both drive
the same table, so grant, death, timeout, retry, quarantine and
first-write-wins are decided in one place.

The table owns no I/O, no threads and no clock: every mutating call
takes ``now`` from the caller, which is what makes the whole state
machine property-testable with synthetic time (see
``tests/property/test_lease_properties.py``).  The coordinator holds a
lock around it; the table itself assumes single-threaded access.

Safety and liveness, as the table enforces them:

* **At-most-once commit (safety).**  :meth:`complete` is
  first-write-wins on ``cell_id``: the first result for a cell commits
  regardless of who currently holds its lease (a late result from a
  runner whose lease already expired is still *correct* — records are
  pure functions of their cells — so it is accepted and the re-dispatch
  lease revoked); every subsequent delivery is reported as a duplicate
  and discarded.  No interleaving of grant / renew / expire / death /
  complete can commit a cell twice.
* **No lost cells (liveness).**  A cell leaves ``pending`` only into a
  lease and leaves a lease only by committing or returning to
  ``pending`` (expiry, runner death, release).  As long as some live
  runner keeps asking, every cell eventually commits.

A table built with a ``retries`` budget bounds that liveness instead:
a cell whose lease has failed (expired or died) more than ``retries``
times is **quarantined** — committed as a failure, listed in
:attr:`LeaseTable.quarantined` — and a retried cell is always granted
alone, so one poisoned cell cannot burn its batch-mates' attempts.
With ``backoff_base`` set, a failed cell is not granted again before
``now + retry_backoff(cell_id, failures, backoff_base)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field

from repro.faults import retry_backoff


@dataclass
class Lease:
    """One cell's current assignment."""

    cell_id: str
    runner_id: str
    expires_at: float
    attempts: int = 1  # this grant's attempt number: failed leases so far + 1


@dataclass
class LeaseCounters:
    """Observability totals the sweep summary reports."""

    runners_registered: int = 0
    runners_dead: int = 0
    leases_granted: int = 0
    leases_renewed: int = 0
    leases_expired: int = 0
    cells_redispatched: int = 0
    results_committed: int = 0
    duplicates_discarded: int = 0
    late_accepted: int = 0
    leases_affinity_matched: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class LeaseTable:
    """Pending queue + lease map + committed set for one sweep's cells.

    ``items`` maps ``cell_id -> payload`` (the cell's dict form, shipped
    verbatim to runners); insertion order of :meth:`add_cells` defines
    initial dispatch order, so the coordinator feeds cells in canonical
    grid order and gets deterministic first-pass assignment.

    ``ttl`` is a lease's lifetime; with ``ttl_per_cell`` a batch of
    ``k`` cells gets ``k * ttl`` instead (the executor's per-cell
    timeout).  ``retries`` and ``backoff_base`` are the retry budget and
    backoff described in the module docstring; ``None`` (the fleet's
    setting) means unlimited re-dispatch, immediately.
    """

    ttl: float
    retries: int | None = None
    backoff_base: float | None = None
    ttl_per_cell: bool = False
    items: dict[str, dict] = field(default_factory=dict)
    #: ``cell_id -> frozenset(snapshot ids)`` — every snapshot id that
    #: could serve the cell's warm-up prefix.  Set by the coordinator when
    #: snapshot-aware placement is on; empty means FIFO-only grants.
    affinity: dict = field(default_factory=dict)
    #: ``cell_id -> failed attempts`` for every quarantined cell, in
    #: quarantine order.
    quarantined: dict[str, int] = field(default_factory=dict)
    _pending: deque = field(default_factory=deque)
    _leases: dict[str, Lease] = field(default_factory=dict)
    _committed: set = field(default_factory=set)
    _runners: set = field(default_factory=set)
    _snapshots: dict = field(default_factory=dict)  # runner_id -> frozenset(ids)
    _failures: dict = field(default_factory=dict)  # cell_id -> failed leases
    _not_before: dict = field(default_factory=dict)  # cell_id -> backoff stamp
    counters: LeaseCounters = field(default_factory=LeaseCounters)

    def __post_init__(self) -> None:
        if self.ttl <= 0:
            raise ValueError("lease ttl must be positive")

    # -- population ---------------------------------------------------------

    def add_cells(self, cells) -> None:
        """Queue cells for dispatch.  ``cells`` yields objects with a
        ``cell_id`` and ``to_dict()`` (a :class:`~repro.harness.sweep.Cell`)
        or plain ``{"cell_id": ...}``-bearing dicts; known ids are ignored
        so resume filtering can stay upstream."""

        for cell in cells:
            if isinstance(cell, dict):
                cell_id, payload = cell["cell_id"], cell
            else:
                cell_id, payload = cell.cell_id, cell.to_dict()
            if cell_id in self.items:
                continue
            self.items[cell_id] = payload
            self._pending.append(cell_id)

    # -- runner membership --------------------------------------------------

    def register(self, runner_id: str) -> None:
        if runner_id in self._runners:
            return
        self._runners.add(runner_id)
        self.counters.runners_registered += 1

    def advertise(self, runner_id: str, snapshot_ids) -> None:
        """Record the snapshot ids warm in ``runner_id``'s local store.

        Advertised once, inside the register message — placement is a
        grant-time preference, never an extra protocol round-trip.
        """

        self._snapshots[runner_id] = frozenset(snapshot_ids)

    def runner_dead(self, runner_id: str, now: float) -> list[str]:
        """A runner is gone (disconnect, crash): fail its leases now
        rather than waiting out their TTLs.  Returns the failed ids —
        requeued, or quarantined when out of retries."""

        if runner_id in self._runners:
            self._runners.discard(runner_id)
            self.counters.runners_dead += 1
        failed = self.held_by(runner_id)
        for cell_id in failed:
            self._fail(cell_id, now)
        return failed

    def release(self, runner_id: str) -> list[str]:
        """Return ``runner_id``'s leases to the queue head uncharged:
        the grant never reached the runner, so no attempt was spent."""

        released = self.held_by(runner_id)
        for cell_id in released:
            del self._leases[cell_id]
        self._pending.extendleft(reversed(released))
        return released

    def held_by(self, runner_id: str) -> list[str]:
        """The ids ``runner_id`` currently holds leases on."""

        return [
            lease.cell_id
            for lease in self._leases.values()
            if lease.runner_id == runner_id
        ]

    # -- the lease lifecycle ------------------------------------------------

    def expire(self, now: float, runner_id: str | None = None) -> list[str]:
        """Fail every lease whose TTL has passed (only ``runner_id``'s,
        if given).  Returns the ids — requeued, or quarantined."""

        expired = [
            lease.cell_id
            for lease in self._leases.values()
            if now >= lease.expires_at
            and (runner_id is None or lease.runner_id == runner_id)
        ]
        for cell_id in expired:
            self.counters.leases_expired += 1
            self._fail(cell_id, now)
        return expired

    def _fail(self, cell_id: str, now: float) -> None:
        """One lease on ``cell_id`` ended without a result."""

        del self._leases[cell_id]
        failures = self._failures.get(cell_id, 0) + 1
        self._failures[cell_id] = failures
        if self.retries is not None and failures > self.retries:
            self._committed.add(cell_id)
            self.quarantined[cell_id] = failures
            return
        if self.backoff_base is not None:
            self._not_before[cell_id] = now + retry_backoff(
                cell_id, failures, self.backoff_base
            )
        self._pending.append(cell_id)
        self.counters.cells_redispatched += 1

    def grant(self, runner_id: str, now: float, max_cells: int) -> list[dict]:
        """Lease up to ``max_cells`` pending cells to ``runner_id``.

        Returns their payloads; :meth:`grant_ids` returns the ids.
        """

        return [self.items[cell_id] for cell_id in self.grant_ids(runner_id, now, max_cells)]

    def grant_ids(self, runner_id: str, now: float, max_cells: int) -> list[str]:
        """Lease up to ``max_cells`` pending cells to ``runner_id``.

        Expired leases are swept first, so a grant request from any live
        runner is also the event that re-dispatches a dead runner's
        cells — the coordinator needs no dedicated timer for progress.

        When ``runner_id`` advertised warm snapshots and the table holds
        an affinity map, cells whose warm-up snapshot the runner already
        has jump to the head of this grant (greedy; FIFO order is kept
        within the matched and unmatched classes, so placement stays
        deterministic given the request order).

        Cells still backing off stay queued in order; under a retry
        budget, a retried cell is granted alone.
        """

        self.expire(now)
        preferred = self._affinity_front(runner_id, max_cells)
        batch: list[str] = []
        deferred: list[str] = []
        while self._pending and len(batch) < max_cells:
            cell_id = self._pending.popleft()
            if cell_id in self._committed:  # late-accepted while queued
                continue
            if self._not_before.get(cell_id, 0.0) > now:
                deferred.append(cell_id)
                continue
            retried = self.retries is not None and cell_id in self._failures
            if retried and batch:
                deferred.append(cell_id)
                continue
            batch.append(cell_id)
            if retried:
                break
        self._pending.extend(deferred)
        ttl = self.ttl * len(batch) if self.ttl_per_cell else self.ttl
        for cell_id in batch:
            self._leases[cell_id] = Lease(
                cell_id=cell_id,
                runner_id=runner_id,
                expires_at=now + ttl,
                attempts=self._failures.get(cell_id, 0) + 1,
            )
            self.counters.leases_granted += 1
            if cell_id in preferred:
                self.counters.leases_affinity_matched += 1
        return batch

    def _affinity_front(self, runner_id: str, max_cells: int) -> set:
        """Move up to ``max_cells`` warm-snapshot cells to the queue head.

        Returns the moved ids so :meth:`grant` can count matches.  A
        stable two-class partition of the pending deque: matched cells
        first (FIFO among themselves), everything else after (FIFO),
        so two coordinators fed the same request order place leases
        identically.
        """

        warm = self._snapshots.get(runner_id)
        if not warm or not self.affinity or not self._pending:
            return set()
        matched: deque = deque()
        rest: deque = deque()
        for cell_id in self._pending:
            if (
                len(matched) < max_cells
                and cell_id not in self._committed
                and self.affinity.get(cell_id, frozenset()) & warm
            ):
                matched.append(cell_id)
            else:
                rest.append(cell_id)
        if not matched:
            return set()
        moved = set(matched)
        matched.extend(rest)
        self._pending = matched
        return moved

    def renew(self, runner_id: str, now: float) -> int:
        """Extend every lease ``runner_id`` holds (heartbeat).  Any
        protocol message from a runner renews: a runner that is talking
        is a runner that is alive.  Returns the number extended."""

        renewed = 0
        for lease in self._leases.values():
            if lease.runner_id == runner_id:
                lease.expires_at = now + self.ttl
                renewed += 1
        if renewed:
            self.counters.leases_renewed += renewed
        return renewed

    def complete(self, cell_id: str, runner_id: str) -> str:
        """Accept one result delivery; first write wins.

        Returns ``"committed"`` for the first delivery of a cell,
        ``"duplicate"`` for every later one (and for a quarantined
        cell, whose failure record already committed), and
        ``"unknown"`` for a cell id that was never part of this sweep (a
        misbehaving or misdirected runner, or a reply to an earlier
        dispatch — the caller discards the line).
        """

        if cell_id not in self.items:
            return "unknown"
        if cell_id in self._committed:
            self.counters.duplicates_discarded += 1
            return "duplicate"
        self._committed.add(cell_id)
        self.counters.results_committed += 1
        lease = self._leases.pop(cell_id, None)
        if lease is None or lease.runner_id != runner_id:
            # The sender's lease expired (or moved to another runner)
            # before its result landed: the result is still a pure
            # function of the cell, so accepting it is safe — and the
            # current holder's eventual delivery becomes the duplicate.
            self.counters.late_accepted += 1
        return "committed"

    # -- queries ------------------------------------------------------------

    @property
    def all_committed(self) -> bool:
        return len(self._committed) == len(self.items)

    @property
    def pending_count(self) -> int:
        return sum(1 for cid in self._pending if cid not in self._committed)

    @property
    def leased_count(self) -> int:
        return len(self._leases)

    @property
    def committed_count(self) -> int:
        return len(self._committed)

    def committed_ids(self) -> set:
        return set(self._committed)

    def lease_of(self, cell_id: str) -> Lease | None:
        return self._leases.get(cell_id)

    def deadline(self, runner_id: str) -> float | None:
        """The earliest expiry among ``runner_id``'s leases (``None``
        when it holds none — an idle runner)."""

        held = self.held_by(runner_id)
        return min((self._leases[cid].expires_at for cid in held), default=None)

    def check_invariants(self) -> None:
        """Assert the state partition (test hook; cheap, callable anywhere).

        Committed, leased, and pending are disjoint (modulo committed
        ids still sitting in the pending deque, which :meth:`grant`
        skips lazily), and every tracked id belongs to the sweep.
        """

        leased = set(self._leases)
        committed = self._committed
        assert not (leased & committed), "a committed cell still holds a lease"
        live_pending = {cid for cid in self._pending if cid not in committed}
        assert not (live_pending & leased), "a leased cell is also pending"
        universe = set(self.items)
        assert leased <= universe and committed <= universe
        assert live_pending <= universe
        assert set(self.quarantined) <= committed
        assert live_pending | leased | committed == universe or not self.items, (
            "cells lost: not pending, not leased, not committed"
        )
