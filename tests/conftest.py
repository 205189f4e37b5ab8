"""Shared test fixtures and builders."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.chain.log import Log
from repro.chain.transactions import Transaction

# Property tests depend on their seeds, not on machine speed: no
# per-example wall-clock deadline, and a fixed example sequence.
settings.register_profile("repro", deadline=None, derandomize=True)
settings.load_profile("repro")


@pytest.fixture
def genesis() -> Log:
    return Log.genesis()


def make_tx(tx_id: int, payload: str = "", at: int = 0) -> Transaction:
    """A transaction literal for tests that bypass the pool."""

    return Transaction(tx_id=tx_id, payload=payload, submitted_at=at)


def chain_of(length: int, proposer: int = 0, tag: int = 0) -> Log:
    """A log with ``length`` non-genesis blocks; ``tag`` varies content."""

    log = Log.genesis()
    for i in range(length):
        log = log.append_block(
            [make_tx(1000 * tag + i, payload=f"c{tag}-{i}")], proposer=proposer, view=i
        )
    return log


def fork_of(log: Log, tag: int, proposer: int = 9) -> Log:
    """A one-block extension of ``log`` distinct from other tags."""

    return log.append_block(
        [make_tx(500_000 + tag, payload=f"fork-{tag}")], proposer=proposer, view=99
    )
