"""Machine-speed calibration for the timing metrics.

The machines this benchmark runs on are shared virtual machines whose
CPU speed drifts by up to 2× over tens of seconds (a pure-Python loop
measured 85–150 ms per 0.5 M iterations within four minutes).  Raw wall
times therefore spread more between runs than any regression bound
worth having.  Every timing metric is instead reported in *calibrated*
units: the raw figure times the machine's speed relative to a fixed
reference, where speed is measured during the same window with a
fixed, program-independent chunk of work (SHA-256 hashing plus dict and
set operations, the instruction mix of the simulator's hot paths):

    calibrated time = raw time × REFERENCE_CHUNK_S / mean chunk CPU time

Chunks are timed in thread CPU time, so waiting for a CPU inside the
machine does not count; only the CPU's own speed does.  The chunk does
not touch the program, so a change to the program moves the calibrated
figures exactly as it moves the raw ones.  On a machine whose speed
never drifts, the calibrated figures are the raw ones times a constant.
"""

from __future__ import annotations

import hashlib
import threading
import time

#: Thread CPU seconds one chunk takes at reference speed (about the
#: median on the 2-vCPU machine the benchmark was built on).
REFERENCE_CHUNK_S = 0.0015

_KEYS = [f"calibration-{i}".encode() for i in range(1000)]


def chunk() -> float:
    """Run one calibration chunk; return its thread CPU time in seconds."""

    start = time.thread_time()
    digests = {key: hashlib.sha256(key).hexdigest() for key in _KEYS}
    distinct = set(digests.values())
    hits = sum(1 for key in _KEYS if digests[key] in distinct)
    if hits != len(_KEYS):
        raise AssertionError("calibration chunk miscounted")
    return time.thread_time() - start


def warm_up() -> None:
    """The first chunks in a fresh process run cold (allocator, hash
    tables, caches) and would read as a slow machine."""

    for _ in range(3):
        chunk()


class Calibration:
    """Chunk timings taken during one measured window."""

    def __init__(self, samples: list | None = None) -> None:
        """``samples`` are chunks another process took; otherwise chunks
        are taken here, after a warm-up.
        """

        if samples is None:
            warm_up()
        #: ``(time.monotonic() at the end, thread CPU seconds)`` per chunk.
        self.samples: list[tuple[float, float]] = list(samples or [])
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def measure(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append((time.monotonic(), chunk()))

    def factor(self) -> float:
        """Multiply a raw time by this to get calibrated time (rates: divide)."""

        return REFERENCE_CHUNK_S * len(self.samples) / sum(cpu for _, cpu in self.samples)

    def factor_around(self, start: float, end: float, pad: float = 0.25) -> float:
        """:meth:`factor` from the chunks within ``pad`` seconds of a
        ``time.monotonic()`` interval; the whole window's when none are.

        The machine's speed drifts within a run, so single views and
        cells in the tail of a distribution need their local speed.
        """

        near = [cpu for at, cpu in self.samples if start - pad <= at <= end + pad]
        if not near:
            return self.factor()
        return REFERENCE_CHUNK_S * len(near) / sum(near)

    def start_sampler(self, interval_s: float = 0.05) -> None:
        """Sample from a background thread while this process's main thread waits.

        Only for windows in which the work runs in other processes (the
        node processes): the sampler costs one chunk per ``interval_s``,
        about 3 % of one CPU.
        """

        def loop() -> None:
            while not self._stop.wait(interval_s):
                self.measure()

        self._thread = threading.Thread(target=loop, name="calibration", daemon=True)
        self._thread.start()

    def stop_sampler(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
