"""Unit tests for the persistent sweep executor.

Pool start-up costs real time (spawn), so these tests share one executor
where possible and keep grids tiny; the end-to-end warm-pool contract
(byte identity, resume, throughput floor) lives in
``tests/integration/test_sweep.py`` and
``tests/integration/test_sweep_throughput.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.executor import SweepExecutor, adaptive_chunksize
from repro.harness.sweep import ExperimentSpec, canonical_record, run_cell

TINY = ExperimentSpec(
    name="exec-unit", ns=(4,), fs=(0,), deltas=(1,), seeds=2,
    num_views=4, txs_per_cell=2,
)


class TestAdaptiveChunksize:
    def test_targets_four_chunks_per_worker(self):
        assert adaptive_chunksize(32, 2) == 4
        assert adaptive_chunksize(64, 2) == 8
        assert adaptive_chunksize(256, 4) == 16  # capped

    def test_small_grids_floor_at_one(self):
        assert adaptive_chunksize(3, 2) == 1
        assert adaptive_chunksize(0, 2) == 1
        assert adaptive_chunksize(8, 16) == 1

    def test_cap_bounds_straggler_loss(self):
        assert adaptive_chunksize(10_000, 1) == 16


class TestExecutorLifecycle:
    def test_construction_is_lazy(self):
        executor = SweepExecutor(workers=1)
        assert not executor.started
        executor.close()  # closing a never-started executor is fine

    def test_close_is_idempotent_and_final(self):
        executor = SweepExecutor(workers=1)
        executor.close()
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.warmup()
        with pytest.raises(RuntimeError, match="closed"):
            list(executor.map_cells(TINY.expand()))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SweepExecutor(workers=0)
        with pytest.raises(ValueError):
            SweepExecutor(chunksize=-1)

    def test_empty_dispatch_never_starts_the_pool(self):
        with SweepExecutor(workers=1) as executor:
            assert list(executor.map_cells([])) == []
            assert not executor.started


class TestExecutorDispatch:
    @pytest.fixture(scope="class")
    def executor(self):
        with SweepExecutor(workers=2) as executor:
            executor.warmup()
            yield executor

    def test_warmup_starts_the_pool(self, executor):
        assert executor.started

    def test_lines_are_worker_canonicalized_records(self, executor):
        cells = TINY.expand()
        lines = sorted(executor.map_cells(cells))
        expected = sorted(canonical_record(run_cell(cell)) for cell in cells)
        assert lines == expected  # byte-for-byte, serialized in the worker

    def test_chunksize_does_not_change_payloads(self, executor):
        cells = TINY.expand()
        by_chunk = sorted(executor.map_cells(cells, chunksize=2))
        one_by_one = sorted(executor.map_cells(cells, chunksize=1))
        assert by_chunk == one_by_one

    def test_reuse_across_sweeps_counts_dispatches(self, executor):
        before_sweeps = executor.sweeps_dispatched
        before_cells = executor.cells_dispatched
        cells = TINY.expand()
        list(executor.map_cells(cells))
        list(executor.map_cells(cells))
        assert executor.sweeps_dispatched == before_sweeps + 2
        assert executor.cells_dispatched == before_cells + 2 * len(cells)

    def test_trace_mode_is_forwarded(self, executor):
        cells = TINY.expand()
        full = sorted(executor.map_cells(cells, trace_mode="full"))
        bounded = sorted(executor.map_cells(cells, trace_mode="bounded"))
        assert full == bounded  # metrics are retention-independent

    def test_abandoned_dispatch_does_not_leak_into_the_next(self, executor):
        from repro.harness.sweep import Cell

        def cell(n: int, views: int) -> Cell:
            return Cell(
                spec_name="exec-abandon", protocol="tobsvd", n=n, f=0, delta=1,
                attacker="none", participation="stable", seed_index=0,
                num_views=views, txs_per_cell=2,
            )

        # One worker gets the fast cell, the other the slow one; the
        # dispatch is abandoned after the fast line, so the slow cell's
        # reply lands while the next dispatch is running.
        abandoned = executor.map_cells([cell(4, 4), cell(16, 24)], chunksize=1)
        next(abandoned)
        abandoned.close()
        cells = TINY.expand()
        lines = sorted(executor.map_cells(cells))
        assert lines == sorted(canonical_record(run_cell(c)) for c in cells)

    def test_error_cells_come_back_as_error_records(self, executor):
        from repro.harness.sweep import Cell

        bad = Cell(
            spec_name="exec-unit", protocol="tobsvd", n=6, f=2, delta=1,
            attacker="no-such-attacker", participation="stable",
            seed_index=0, num_views=4, txs_per_cell=2,
        )
        (line,) = list(executor.map_cells([bad]))
        record = json.loads(line)
        assert record["status"] == "error"
        assert "no-such-attacker" in record["error"]


class TestWorkerPoolHealth:
    def test_warmup_death_raises_with_exit_code(self, monkeypatch):
        from repro.harness.executor import WorkerPoolError

        # Every spawned worker exits with code 13 before its ready
        # handshake; warmup must surface that instead of hanging (the
        # multiprocessing.Pool behaviour this executor replaces).
        monkeypatch.setenv("REPRO_SWEEP_WORKER_DIE_ON_INIT", "13")
        with SweepExecutor(workers=1) as executor:
            with pytest.raises(WorkerPoolError, match="13"):
                executor.warmup()

    def test_dispatch_gives_up_after_repeated_init_deaths(self, monkeypatch):
        from repro.harness.executor import WorkerPoolError

        monkeypatch.setenv("REPRO_SWEEP_WORKER_DIE_ON_INIT", "7")
        with SweepExecutor(workers=1) as executor:
            with pytest.raises(WorkerPoolError, match="start-up"):
                list(executor.map_cells(TINY.expand()))

    def test_resilience_parameters_validated(self):
        with pytest.raises(ValueError):
            SweepExecutor(retries=-1)
        with pytest.raises(ValueError):
            SweepExecutor(cell_timeout=0)
