"""Node-runtime equivalence suite: the simulator is the oracle.

The contract under test (docs/ARCHITECTURE.md, "Real transport
runtime"): a deployment of **unmodified** validators over a real
transport produces decision sequences *byte-identical* to the simulator
running the same configuration — stable runs, planned crash windows,
and a real SIGKILL-and-respawn rejoin.

Fast tests drive the deterministic in-process ``MemoryHub`` backend;
the slow-marked tests run real OS processes over loopback TCP
(``repro deploy local`` is the CLI face of the same path).
"""

from __future__ import annotations

import pytest

from repro.core.tobsvd import TobSvdConfig
from repro.faults import FaultSpec
from repro.net.framing import encode_frame
from repro.net.transport import MemoryHub, MemoryTransport
from repro.node import codec
from repro.node import runtime as node_runtime
from repro.node.codec import Unresolved, decode_envelope
from repro.node.deploy import (
    compare_to_oracle,
    compile_deployment_plan,
    drive_memory_cluster,
    run_local_deployment,
    run_memory_cluster,
)
from repro.node.runtime import (
    NodeRuntime,
    decisions_as_records,
    structural_validator_factory,
)
from repro.runctx import LineageStore

N4 = TobSvdConfig(n=4, num_views=4, delta=1, seed=7)
N8 = TobSvdConfig(n=8, num_views=4, delta=1, seed=11)

#: One crash window inside view 1, 4Δ long: the victim misses a full
#: view and rejoins well before the horizon — the sim oracle models it
#: as a sleep window, the kill deployment as a real process death.
CRASH = FaultSpec(seed=3, crash_count=1, crash_view=1, crash_deltas=4)

#: Long horizons, where a whole-chain wire would cost O(L) per message.
N4_V16 = TobSvdConfig(n=4, num_views=16, delta=1, seed=7)
N4_V32 = TobSvdConfig(n=4, num_views=32, delta=1, seed=7)
N4_V64 = TobSvdConfig(n=4, num_views=64, delta=1, seed=7)

#: A crash late in a long run: the rejoining process must resolve delta
#: frames against bases it lost, through the resync path.
LATE_CRASH_V32 = FaultSpec(seed=3, crash_count=1, crash_view=24, crash_deltas=4)
LATE_CRASH_V64 = FaultSpec(seed=3, crash_count=1, crash_view=48, crash_deltas=8)


def assert_identical(config, nodes, fault_plan=None):
    report = compare_to_oracle(config, nodes, fault_plan)
    assert report["identical"], report["per_node"]
    assert set(report["per_node"]) == set(range(config.n))


class TestMemoryClusterEquivalence:
    def test_stable_n4_is_byte_identical(self):
        nodes = run_memory_cluster(N4)
        assert_identical(N4, nodes)
        assert all(result["decided"] for result in nodes.values())

    def test_stable_n8_is_byte_identical(self):
        nodes = run_memory_cluster(N8)
        assert_identical(N8, nodes)

    def test_crash_window_is_byte_identical(self):
        plan = compile_deployment_plan(CRASH, N4)
        schedule = plan.kill_schedule()
        assert schedule, "spec compiled to no crash window; fixture is dead"
        nodes = run_memory_cluster(N4, plan)
        assert_identical(N4, nodes, plan)
        (victim,) = schedule
        survivors = set(range(N4.n)) - {victim}
        longest = max(len(nodes[vid]["decided"]) for vid in survivors)
        assert len(nodes[victim]["decided"]) < longest

    def test_deliveries_happen_over_the_transport(self):
        nodes = run_memory_cluster(N4)
        for result in nodes.values():
            assert result["deliveries"] > 0
            assert result["codec_rejects"] == 0

    def test_hosts_structural_baseline_unmodified(self):
        from repro.baselines import StructuralTob
        from repro.baselines.structural_tob import StructuralConfig
        from repro.baselines.structure import structure_for

        factory, horizon = structural_validator_factory(N4, "mmr2")
        nodes = run_memory_cluster(N4, validator_factory=factory, horizon=horizon)
        oracle = StructuralTob(
            structure_for("mmr2"),
            StructuralConfig(n=N4.n, num_views=N4.num_views, delta=N4.delta, seed=N4.seed),
        ).run()
        for vid, validator in oracle.validators.items():
            assert nodes[vid]["decided"] == decisions_as_records(validator.decided)
        assert all(result["decided"] for result in nodes.values())


class TestLongHorizon:
    """Delta frames keep node work per message flat in the chain length."""

    def test_stable_v64_is_byte_identical(self):
        nodes = run_memory_cluster(N4_V64)
        assert_identical(N4_V64, nodes)
        assert all(result["codec_rejects"] == 0 for result in nodes.values())

    def test_crash_window_v64_is_byte_identical(self):
        plan = compile_deployment_plan(LATE_CRASH_V64, N4_V64)
        assert plan.kill_schedule(), "spec compiled to no crash window; fixture is dead"
        nodes = run_memory_cluster(N4_V64, plan)
        assert_identical(N4_V64, nodes, plan)

    def test_blocks_decoded_stay_within_twice_the_envelopes(self, monkeypatch):
        # Counts work done, not wall time: a whole-chain wire decodes
        # about 32 blocks per envelope at this horizon.
        counts = {"blocks": 0, "envelopes": 0}
        decode_log, decode_env = codec.decode_log, node_runtime.decode_envelope

        def counting_decode_log(blocks, *args):
            counts["blocks"] += len(blocks)
            return decode_log(blocks, *args)

        def counting_decode_envelope(*args):
            counts["envelopes"] += 1
            return decode_env(*args)

        monkeypatch.setattr(codec, "decode_log", counting_decode_log)
        monkeypatch.setattr(node_runtime, "decode_envelope", counting_decode_envelope)
        run_memory_cluster(N4_V64)
        assert counts["envelopes"] > 0
        assert counts["blocks"] <= 2 * counts["envelopes"], counts

    def test_largest_env_frame_is_flat_in_the_horizon(self, monkeypatch):
        post = MemoryHub.post

        def largest_env_frame(config) -> int:
            sizes = [0]

            def recording_post(hub, sender, recipient, message):
                if message.get("t") == "env":
                    sizes.append(len(encode_frame(message)))
                return post(hub, sender, recipient, message)

            monkeypatch.setattr(MemoryHub, "post", recording_post)
            run_memory_cluster(config)
            return max(sizes)

        short, long = largest_env_frame(N4_V16), largest_env_frame(N4_V64)
        assert long <= 1.5 * short, (short, long)

    def test_parked_frames_resolve_through_resync_byte_identically(self, monkeypatch):
        # A node that does not note the logs it sends lacks the bases its
        # peers take from envelopes they forward past it, so those frames
        # park behind a resync: the fallback path, exercised at scale.
        requests = []
        request = NodeRuntime._request_resync

        def counting_request(runtime, peer):
            requests.append((runtime.node_id, peer))
            return request(runtime, peer)

        monkeypatch.setattr(NodeRuntime, "_request_resync", counting_request)
        assert_identical(N4_V16, run_memory_cluster(N4_V16))
        assert requests == []  # normal operation never parks

        monkeypatch.setattr(NodeRuntime, "_note_own", lambda runtime, log: None)
        runtimes = drive_memory_cluster(N4_V16)
        nodes = {r.node_id: r.result() for r in runtimes}
        assert_identical(N4_V16, nodes)
        assert requests, "no frame parked; the fallback went unexercised"
        assert all(r.parked == {} and r.codec_rejects == 0 for r in runtimes)

    def test_resync_frames_fit_the_frame_limit_after_200_views(self):
        config = TobSvdConfig(n=4, num_views=200, delta=1, seed=7)
        runtime = drive_memory_cluster(config)[0]
        frames: list[dict] = []
        runtime.transport.send = lambda peer, message: frames.append(message)
        runtime._serve_resync(1)
        assert frames and frames[-1].get("last")
        lineage = LineageStore()  # a fresh process resolves the stream in order
        for frame in frames:
            encode_frame(frame)  # raises FrameTooLargeError past the limit
            for _, wire in frame["records"]:
                assert not isinstance(decode_envelope(wire, lineage), Unresolved)


class TestTickBatches:
    def test_each_tick_leaves_as_one_batch_per_peer_ending_in_its_done(self, monkeypatch):
        batches, posts = [], []
        send_all, post = MemoryTransport.send_all, MemoryHub.post

        def recording_send_all(transport, peer, messages):
            batches.append((transport.node_id, peer, list(messages)))
            return send_all(transport, peer, messages)

        def recording_post(hub, sender, recipient, message):
            posts.append(message)
            return post(hub, sender, recipient, message)

        monkeypatch.setattr(MemoryTransport, "send_all", recording_send_all)
        monkeypatch.setattr(MemoryHub, "post", recording_post)
        assert_identical(N4, run_memory_cluster(N4))
        dones: dict[tuple[int, int], list[int]] = {}
        for node, peer, messages in batches:
            *frames, done = messages
            assert done["t"] == "done"
            assert all(frame["t"] == "env" for frame in frames)
            dones.setdefault((node, peer), []).append(done["at"])
        assert len(dones) == N4.n * (N4.n - 1)
        assert all(ticks == list(range(N4.horizon + 1)) for ticks in dones.values())
        # No env frame leaves outside its tick's batch.
        batched = sum(len(messages) - 1 for _, _, messages in batches)
        assert batched > 0
        assert sum(1 for message in posts if message["t"] == "env") == batched


@pytest.mark.slow
class TestLoopbackEquivalence:
    """Real processes, real sockets, same bytes."""

    def test_tcp_n4_is_byte_identical(self):
        deployment = run_local_deployment(N4)
        assert_identical(N4, deployment.nodes)
        assert deployment.restarts == {}
        assert deployment.total_decisions > 0
        assert deployment.decisions_per_sec() > 0
        # Every listener is open before any node dials: no link backs off.
        assert all(
            link["reconnects"] == 0
            for result in deployment.nodes.values()
            for link in result["link_stats"].values()
        )

    def test_tcp_n8_is_byte_identical(self):
        deployment = run_local_deployment(N8)
        assert_identical(N8, deployment.nodes)

    def test_sigkill_and_restart_is_byte_identical(self):
        plan = compile_deployment_plan(CRASH, N4)
        (victim,) = plan.kill_schedule()
        deployment = run_local_deployment(N4, fault_spec=CRASH, chaos="kill")
        assert deployment.restarts == {victim: 1}
        assert_identical(N4, deployment.nodes, plan)
        # The respawned process resynced real history over the wire:
        # duplicates prove the at-least-once path exercised dedup.
        assert deployment.nodes[victim]["holdback_duplicates"] > 0

    def test_tcp_v32_is_byte_identical(self):
        deployment = run_local_deployment(N4_V32)
        assert_identical(N4_V32, deployment.nodes)
        assert all(r["codec_rejects"] == 0 for r in deployment.nodes.values())

    def test_sigkill_late_in_a_v32_run_is_byte_identical(self):
        plan = compile_deployment_plan(LATE_CRASH_V32, N4_V32)
        (victim,) = plan.kill_schedule()
        deployment = run_local_deployment(N4_V32, fault_spec=LATE_CRASH_V32, chaos="kill")
        assert deployment.restarts == {victim: 1}
        assert_identical(N4_V32, deployment.nodes, plan)
        assert all(r["codec_rejects"] == 0 for r in deployment.nodes.values())
