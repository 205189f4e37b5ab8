"""Property tests for the fleet lease state machine.

Hypothesis drives arbitrary interleavings of the full operation
vocabulary — grant, renew, time advance (expiry), runner death,
result delivery including duplicates and results from stale runners —
over synthetic time, and checks the two theorems the fleet's
byte-identity contract rests on:

* **Safety (at-most-once).**  No interleaving ever produces a second
  ``"committed"`` for the same cell: first-write-wins holds under
  re-dispatch, late delivery, and runner death.
* **Liveness (no lost cells + convergence).**  After any interleaving,
  a simple drain loop (one live runner granting and completing) reaches
  the all-cells-committed terminal state — no cell is ever stranded
  outside pending ∪ leased ∪ committed.

The state partition itself (:meth:`LeaseTable.check_invariants`) is
asserted after every single operation, so a violation pins the exact
step that broke it.

With a retry budget and backoff (the local executor's settings) the
harness also models every failed lease independently and checks that
each cell ends committed *or* quarantined exactly once, that no cell is
granted before its backoff stamp, and that a retried cell is always
granted alone.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import retry_backoff
from repro.harness.lease import LeaseTable

RUNNERS = ("r0", "r1", "r2")

# One abstract operation per draw; cell/runner indexes resolve modulo
# the live populations so every drawn op is applicable.
_op = st.one_of(
    st.tuples(st.just("grant"), st.sampled_from(RUNNERS), st.integers(1, 4)),
    st.tuples(st.just("renew"), st.sampled_from(RUNNERS)),
    st.tuples(st.just("advance"), st.floats(0.1, 3.0, allow_nan=False)),
    st.tuples(st.just("death"), st.sampled_from(RUNNERS)),
    # Deliver a result for cell index k, claiming to come from a runner
    # that may or may not hold the lease (stale/duplicate delivery).
    st.tuples(st.just("deliver"), st.integers(0, 9), st.sampled_from(RUNNERS)),
    # Re-deliver a result for an already-committed cell (late duplicate).
    st.tuples(st.just("redeliver"), st.integers(0, 9)),
)


class _Harness:
    """Replays drawn ops against a table, tracking commits independently.

    ``retries`` and ``backoff`` configure the table's retry budget and
    backoff; the harness then also keeps its own model of every cell's
    failed leases, backoff stamp and quarantine.
    """

    def __init__(
        self,
        cells: int,
        ttl: float,
        retries: int | None = None,
        backoff: float | None = None,
    ) -> None:
        self.table = LeaseTable(ttl=ttl, retries=retries, backoff_base=backoff)
        self.table.add_cells({"cell_id": f"c{i}"} for i in range(cells))
        self.cells = [f"c{i}" for i in range(cells)]
        self.retries = retries
        self.backoff = backoff
        self.now = 0.0
        self.commits: dict[str, int] = {}
        self.quarantines: dict[str, int] = {}
        self.failures: dict[str, int] = {}
        self.not_before: dict[str, float] = {}
        for runner in RUNNERS:
            self.table.register(runner)

    def deliver(self, cell_id: str, runner: str) -> None:
        outcome = self.table.complete(cell_id, runner)
        assert outcome in ("committed", "duplicate")
        if outcome == "committed":
            self.commits[cell_id] = self.commits.get(cell_id, 0) + 1

    def observe(self, step):
        """Run ``step`` and account for every lease it ended unfulfilled."""

        leases = {cid: self.table.lease_of(cid) for cid in self.cells}
        committed = dict(self.commits)
        result = step()
        for cell_id, lease in leases.items():
            if lease is None or self.table.lease_of(cell_id) is lease:
                continue
            if self.commits.get(cell_id, 0) > committed.get(cell_id, 0):
                continue  # the lease ended in a commit
            failures = self.failures.get(cell_id, 0) + 1
            self.failures[cell_id] = failures
            out_of_retries = self.retries is not None and failures > self.retries
            assert (cell_id in self.table.quarantined) == out_of_retries
            if out_of_retries:
                assert self.table.quarantined[cell_id] == failures
                self.quarantines[cell_id] = self.quarantines.get(cell_id, 0) + 1
            elif self.backoff is not None:
                self.not_before[cell_id] = self.now + retry_backoff(
                    cell_id, failures, self.backoff
                )
        assert set(self.table.quarantined) == set(self.quarantines)
        return result

    def grant(self, runner: str, max_cells: int) -> list[dict]:
        batch = self.observe(lambda: self.table.grant(runner, self.now, max_cells))
        for payload in batch:
            cell_id = payload["cell_id"]
            assert self.now >= self.not_before.get(cell_id, 0.0), "granted while backing off"
            if self.retries is not None and self.failures.get(cell_id):
                assert len(batch) == 1, "a retried cell shared its grant"
        return batch

    def apply(self, op: tuple) -> None:
        kind = op[0]
        if kind == "grant":
            self.grant(op[1], op[2])
        elif kind == "renew":
            self.table.renew(op[1], self.now)
        elif kind == "advance":
            self.now += op[1]
            self.observe(lambda: self.table.expire(self.now))
        elif kind == "death":
            self.observe(lambda: self.table.runner_dead(op[1], self.now))
            self.table.register(op[1])  # it may come back later
        elif kind == "deliver":
            self.observe(lambda: self.deliver(self.cells[op[1] % len(self.cells)], op[2]))
        elif kind == "redeliver":
            cell_id = self.cells[op[1] % len(self.cells)]
            if cell_id in self.commits:
                assert self.table.complete(cell_id, "r0") == "duplicate"
        self.table.check_invariants()

    def drain(self) -> None:
        """One surviving runner finishes the sweep: grant + deliver."""

        guard = 0
        while not self.table.all_committed:
            guard += 1
            assert guard < 10_000, "drain loop did not converge"
            self.now += 0.5
            batch = self.grant("r0", 4)
            if not batch:
                # Everything uncommitted is leased to someone else or
                # backing off; age those leases out so the drain runner
                # can claim them.
                self.now += self.table.ttl
                continue
            for payload in batch:
                self.deliver(payload["cell_id"], "r0")
            self.table.check_invariants()


@settings(max_examples=200)
@given(
    cells=st.integers(1, 10),
    ttl=st.floats(0.5, 5.0, allow_nan=False),
    ops=st.lists(_op, max_size=60),
)
def test_interleavings_never_double_commit_and_always_converge(cells, ttl, ops):
    harness = _Harness(cells, ttl)
    for op in ops:
        harness.apply(op)
    harness.drain()

    # Safety: every cell committed exactly once, ever.
    assert set(harness.commits) == set(harness.cells)
    assert all(count == 1 for count in harness.commits.values())
    # Terminal state: all cells committed, nothing leased or pending.
    assert harness.table.all_committed
    assert harness.table.leased_count == 0
    assert harness.table.pending_count == 0
    # The table's own ledger agrees with the independent tally.
    assert harness.table.counters.results_committed == len(harness.cells)


@settings(max_examples=100)
@given(
    ttl=st.floats(0.5, 3.0, allow_nan=False),
    deliveries=st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from(RUNNERS)),
        min_size=1,
        max_size=40,
    ),
)
def test_duplicate_and_late_delivery_is_at_most_once(ttl, deliveries):
    """Any delivery sequence — duplicates, wrong senders, no lease at
    all — commits each cell on its first delivery and discards the rest."""

    table = LeaseTable(ttl=ttl)
    table.add_cells({"cell_id": f"c{i}"} for i in range(5))
    first_seen: set[str] = set()
    for index, runner in deliveries:
        cell_id = f"c{index}"
        outcome = table.complete(cell_id, runner)
        if cell_id in first_seen:
            assert outcome == "duplicate"
        else:
            assert outcome == "committed"
            first_seen.add(cell_id)
        table.check_invariants()
    assert table.counters.results_committed == len(first_seen)
    assert table.counters.duplicates_discarded == len(deliveries) - len(first_seen)


@settings(max_examples=100)
@given(
    ttl=st.floats(0.5, 2.0, allow_nan=False),
    kills=st.lists(st.sampled_from(RUNNERS), max_size=6),
)
def test_runner_death_never_loses_cells(ttl, kills):
    """Every death pattern requeues the victim's leases in full."""

    table = LeaseTable(ttl=ttl)
    table.add_cells({"cell_id": f"c{i}"} for i in range(8))
    now = 0.0
    for victim in kills:
        for runner in RUNNERS:
            table.register(runner)
            table.grant(runner, now, 2)
        table.runner_dead(victim, now)
        table.check_invariants()
        now += 0.25
    # Accounting: granted = committed-or-still-leased-or-requeued; no id
    # outside the original population ever appears.
    assert set(table.items) == {f"c{i}" for i in range(8)}
    assert table.committed_count == 0
    assert table.leased_count + table.pending_count == 8


@settings(max_examples=200)
@given(
    cells=st.integers(1, 10),
    ttl=st.floats(0.5, 5.0, allow_nan=False),
    retries=st.integers(0, 3),
    backoff=st.none() | st.floats(0.01, 2.0, allow_nan=False),
    ops=st.lists(_op, max_size=60),
)
def test_budgeted_interleavings_end_each_cell_exactly_once(cells, ttl, retries, backoff, ops):
    """Under a retry budget every cell ends committed or quarantined,
    exactly once; the grant-side rules are checked on every grant."""

    harness = _Harness(cells, ttl, retries=retries, backoff=backoff)
    for op in ops:
        harness.apply(op)
    harness.drain()

    assert set(harness.commits) | set(harness.quarantines) == set(harness.cells)
    assert not set(harness.commits) & set(harness.quarantines)
    assert all(count == 1 for count in harness.commits.values())
    assert all(count == 1 for count in harness.quarantines.values())
    assert harness.table.all_committed
    assert harness.table.leased_count == 0
    assert harness.table.pending_count == 0
    assert harness.table.counters.results_committed == len(harness.commits)
