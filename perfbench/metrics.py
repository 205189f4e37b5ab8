"""End-to-end aggregation and per-layer derivation.

End-to-end figures come from untraced repetitions: medians over the
repetitions, and percentiles over every view sample they produced.
Per-layer figures come from one traced repetition (spans merged over
every process it reached), one tracemalloc repetition, and what the
program reports itself; a layer a workload bypasses reads 0.
"""

from __future__ import annotations

from statistics import mean, median, quantiles

#: name -> unit; every workload reports all of them.
E2E_UNITS = {
    "setup_s": "s",
    "views_per_s": "1/s",
    "view_ms_p50": "ms",
    "view_ms_p95": "ms",
    "decisions_per_s": "1/s",
    "cells_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "ok_frac": "frac",
}

LAYER_UNITS = {
    "chain.pool_s": "s",
    "chain.pool_scanned_txs": "count",
    "chain.pool_useful_ratio": "ratio",
    "chain.contains_tx_calls": "count",
    "chain.append_s": "s",
    "mem.chain_log_mib": "MiB",
    "mem.core_state_mib": "MiB",
    "core.handle_s": "s",
    "core.handle_calls": "count",
    "core.timer_s": "s",
    "core.quorum_s": "s",
    "core.quorum_calls": "count",
    "sim.events": "count",
    "sim.self_s": "s",
    "net.deliver_s": "s",
    "net.deliveries": "count",
    "net.deliveries_per_decision": "ratio",
    "crypto.verify_s": "s",
    "crypto.digest_s": "s",
    "crypto.vrf_s": "s",
    "analysis.reducer_s": "s",
    "node.decode_s": "s",
    "node.encode_s": "s",
    "node.blocks_decoded": "count",
    "node.wire_bytes_per_decision": "bytes",
    "net.frame_s": "s",
    "net.frames": "count",
    "net.barrier_wait_s": "s",
    "node.tick_compute_s": "s",
    "node.holdback_dup_ratio": "ratio",
    "node.suspicions": "count",
    "node.reconnects": "count",
    "harness.cell_s": "s",
    "harness.worker_busy_frac": "frac",
    "harness.store_append_s": "s",
    "harness.record_bytes": "bytes",
    "harness.prebuild_hit_ratio": "ratio",
    "snapshot.capture_s": "s",
    "snapshot.fork_s": "s",
    "snapshot.blob_kib": "KiB",
    "snapshot.hit_ratio": "ratio",
    "trace.overhead_frac": "frac",
}


def percentile(samples: list[float], pct: int) -> float:
    return quantiles(samples, n=100, method="inclusive")[pct - 1]


def end_to_end(reps: list[dict], attempted: int, failed: int) -> dict[str, float]:
    """E2E metrics over untraced repetitions (medians; pooled view samples)."""

    view_ms = [sample for rep in reps for sample in rep["view_ms"]]
    return {
        "setup_s": median(sample for rep in reps for sample in rep["setup_s"]),
        "views_per_s": median(rep["views"] / rep["run_s"] for rep in reps),
        "view_ms_p50": percentile(view_ms, 50),
        "view_ms_p95": percentile(view_ms, 95),
        "decisions_per_s": median(rep["decisions"] / rep["run_s"] for rep in reps),
        "cells_per_s": median(rep["cells"] / rep["cells_s"] for rep in reps),
        "peak_rss_mib": median(rep["peak_rss_mib"] for rep in reps),
        "ok_frac": 1.0 - failed / attempted,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def merge_traces(dumps: list[dict], role: str | None = None) -> tuple[dict, dict]:
    """Summed ``(stats, counters)`` over process dumps, optionally one role."""

    stats: dict[str, list] = {}
    counters: dict[str, float] = {}
    for dump in dumps:
        if "trace" not in dump or (role is not None and dump["role"] != role):
            continue
        for name, values in dump["trace"]["stats"].items():
            merged = stats.setdefault(name, [0, 0.0, 0.0])
            for index, value in enumerate(values):
                merged[index] += value
        for name, value in dump["trace"]["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return stats, counters


def memory_mib(memory: dict, dumps: list[dict]) -> dict[str, float]:
    """Live MiB by layer at the end of the run, summed over processes."""

    totals = dict(memory["memory"])
    for dump in dumps:
        for layer, mib in dump.get("memory", {}).items():
            totals[layer] = totals.get(layer, 0.0) + mib
    return totals


def per_layer(
    plain: dict, traced: dict, memory: dict, dumps: list[dict], memory_dumps: list[dict]
) -> dict[str, float]:
    """Every metric in :data:`LAYER_UNITS` for one workload's traced run."""

    stats, counters = merge_traces(dumps)
    node_stats, _ = merge_traces(dumps, "node")
    worker_stats, _ = merge_traces(dumps, "worker")

    def calls(name: str, source=stats) -> float:
        return source.get(name, (0, 0.0, 0.0))[0]

    def total(name: str, source=stats) -> float:
        return source.get(name, (0, 0.0, 0.0))[1]

    def self_s(name: str) -> float:
        return stats.get(name, (0, 0.0, 0.0))[2]

    count = counters.get
    layers = traced["layers"]
    decisions = count("analysis.decisions", 0) or traced["decisions"]
    cache = layers.get("cache") or {}
    prebuild = cache.get("prebuild", {})
    snapshot = cache.get("snapshot", {})
    blobs = layers.get("snapshot_blob_bytes") or []
    mem = memory_mib(memory, memory_dumps)
    return {
        "chain.pool_s": self_s("chain.pool"),
        "chain.pool_scanned_txs": count("chain.pool_scanned_txs", 0),
        "chain.pool_useful_ratio": _ratio(
            count("chain.pool_returned_txs", 0), count("chain.pool_scanned_txs", 0)
        ),
        "chain.contains_tx_calls": count("chain.contains_tx_calls", 0),
        "chain.append_s": self_s("chain.append"),
        "mem.chain_log_mib": mem.get("chain", 0.0),
        "mem.core_state_mib": mem.get("core", 0.0),
        "core.handle_s": self_s("core.handle"),
        "core.handle_calls": calls("core.handle"),
        "core.timer_s": self_s("core.timer"),
        "core.quorum_s": self_s("core.quorum"),
        "core.quorum_calls": calls("core.quorum"),
        "sim.events": count("sim.events", 0),
        "sim.self_s": self_s("sim.run"),
        "net.deliver_s": self_s("net.deliver"),
        "net.deliveries": count("net.deliveries", 0),
        "net.deliveries_per_decision": _ratio(count("net.deliveries", 0), decisions),
        "crypto.verify_s": self_s("crypto.verify"),
        "crypto.digest_s": self_s("crypto.digest"),
        "crypto.vrf_s": self_s("crypto.vrf"),
        "analysis.reducer_s": self_s("analysis.reducer"),
        "node.decode_s": self_s("node.decode"),
        "node.encode_s": self_s("node.encode"),
        "node.blocks_decoded": count("node.blocks_decoded", 0),
        "node.wire_bytes_per_decision": _ratio(count("net.frame_bytes", 0), decisions),
        "net.frame_s": self_s("net.frame"),
        "net.frames": count("net.frames", 0),
        "net.barrier_wait_s": total("net.barrier_wait"),
        "node.tick_compute_s": total("sim.run", node_stats),
        "node.holdback_dup_ratio": _ratio(
            layers.get("holdback_duplicates", 0), count("node.holdback_offers", 0)
        ),
        "node.suspicions": layers.get("suspicions", 0),
        "node.reconnects": layers.get("reconnects", 0),
        "harness.cell_s": self_s("harness.cell"),
        "harness.worker_busy_frac": _ratio(
            total("harness.cell", worker_stats), layers.get("workers", 0) * traced["raw"]["run_s"]
        ),
        "harness.store_append_s": self_s("harness.store_append"),
        "harness.record_bytes": count("harness.record_bytes", 0),
        "harness.prebuild_hit_ratio": _ratio(
            prebuild.get("hits", 0), prebuild.get("hits", 0) + prebuild.get("misses", 0)
        ),
        "snapshot.capture_s": self_s("snapshot.capture"),
        "snapshot.fork_s": self_s("snapshot.fork"),
        "snapshot.blob_kib": mean(blobs) / 1024.0 if blobs else 0.0,
        "snapshot.hit_ratio": _ratio(
            snapshot.get("hits", 0), snapshot.get("hits", 0) + snapshot.get("misses", 0)
        ),
        "trace.overhead_frac": traced["run_s"] / plain["run_s"] - 1.0,
    }
