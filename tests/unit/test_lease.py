"""Lease-table units: the concrete transitions the fleet relies on.

Directed versions of the scenarios the property suite explores at
random — each one a transition the coordinator's correctness argument
names explicitly (grant, renew-extends, expire-requeues, death-requeues,
first-write-wins, late acceptance revoking a re-dispatch lease).
"""

from __future__ import annotations

import pytest

from repro.harness.lease import LeaseTable


def make_table(count: int = 4, ttl: float = 10.0) -> LeaseTable:
    table = LeaseTable(ttl=ttl)
    table.add_cells({"cell_id": f"cell-{i}", "i": i} for i in range(count))
    return table


class TestGrant:
    def test_grant_respects_batch_size_and_order(self):
        table = make_table(5)
        batch = table.grant("r1", now=0.0, max_cells=3)
        assert [c["cell_id"] for c in batch] == ["cell-0", "cell-1", "cell-2"]
        assert table.leased_count == 3 and table.pending_count == 2

    def test_granted_cells_not_regranted_while_leased(self):
        table = make_table(2)
        table.grant("r1", now=0.0, max_cells=2)
        assert table.grant("r2", now=1.0, max_cells=2) == []

    def test_duplicate_add_cells_ignored(self):
        table = make_table(2)
        table.add_cells([{"cell_id": "cell-0"}])
        assert len(table.items) == 2

    def test_ttl_must_be_positive(self):
        with pytest.raises(ValueError):
            LeaseTable(ttl=0.0)


class TestExpiry:
    def test_expiry_requeues_for_the_next_grant(self):
        table = make_table(1, ttl=5.0)
        table.grant("r1", now=0.0, max_cells=1)
        assert table.grant("r2", now=4.9, max_cells=1) == []  # still live
        batch = table.grant("r2", now=5.0, max_cells=1)  # TTL hit: re-dispatch
        assert [c["cell_id"] for c in batch] == ["cell-0"]
        assert table.counters.leases_expired == 1
        assert table.counters.cells_redispatched == 1
        assert table.lease_of("cell-0").runner_id == "r2"
        assert table.lease_of("cell-0").attempts == 2

    def test_renew_extends_the_deadline(self):
        table = make_table(1, ttl=5.0)
        table.grant("r1", now=0.0, max_cells=1)
        assert table.renew("r1", now=4.0) == 1
        assert table.expire(now=5.0) == []  # deadline moved to 9.0
        assert table.expire(now=9.0) == ["cell-0"]

    def test_runner_death_requeues_immediately(self):
        table = make_table(3, ttl=100.0)
        table.register("r1")
        table.grant("r1", now=0.0, max_cells=2)
        requeued = table.runner_dead("r1", now=1.0)
        assert sorted(requeued) == ["cell-0", "cell-1"]
        assert table.pending_count == 3 and table.leased_count == 0
        assert table.counters.runners_dead == 1


class TestFirstWriteWins:
    def test_first_result_commits_second_is_duplicate(self):
        table = make_table(1)
        table.grant("r1", now=0.0, max_cells=1)
        assert table.complete("cell-0", "r1") == "committed"
        assert table.complete("cell-0", "r1") == "duplicate"
        assert table.counters.results_committed == 1
        assert table.counters.duplicates_discarded == 1

    def test_unknown_cell_rejected(self):
        table = make_table(1)
        assert table.complete("not-a-cell", "r1") == "unknown"

    def test_late_result_after_redispatch_wins_and_revokes(self):
        # r1 leases the cell, goes silent past the TTL, the cell is
        # re-dispatched to r2 — then r1's result finally lands.  The
        # record is a pure function of the cell, so it commits; r2's
        # lease is revoked and r2's eventual delivery is the duplicate.
        table = make_table(1, ttl=1.0)
        table.grant("r1", now=0.0, max_cells=1)
        table.grant("r2", now=2.0, max_cells=1)
        assert table.lease_of("cell-0").runner_id == "r2"
        assert table.complete("cell-0", "r1") == "committed"
        assert table.counters.late_accepted == 1
        assert table.lease_of("cell-0") is None
        assert table.complete("cell-0", "r2") == "duplicate"
        assert table.all_committed

    def test_late_result_while_requeued_pending(self):
        # Lease expired and the cell sits in the pending queue un-granted
        # when the original runner's result arrives: commit, and the
        # queue entry must never produce another lease.
        table = make_table(1, ttl=1.0)
        table.grant("r1", now=0.0, max_cells=1)
        table.expire(now=2.0)
        assert table.complete("cell-0", "r1") == "committed"
        assert table.grant("r2", now=3.0, max_cells=5) == []
        assert table.all_committed

    def test_commit_terminal_states(self):
        table = make_table(2)
        table.grant("r1", now=0.0, max_cells=2)
        table.complete("cell-0", "r1")
        assert not table.all_committed
        table.complete("cell-1", "r1")
        assert table.all_committed
        table.check_invariants()
