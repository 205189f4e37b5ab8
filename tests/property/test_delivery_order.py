"""Delivery-order invariants under shared-fanout batching.

The network delivers one shared envelope object per broadcast/forward
through batched fanout events, and buffers deliveries to asleep nodes
for flush-on-wake.  These tests pin the two order guarantees the
protocols rely on:

* per recipient, deliveries arrive in exactly the ``(time, priority,
  seq)`` order the un-batched per-recipient scheduling would have
  produced — checked by running identical randomized workloads through
  the bucket scheduler and the :class:`HeapSimulator` oracle and
  requiring identical per-recipient sequences;
* sleep-buffered envelopes are flushed in original delivery order,
  before any same-tick delivery or timer (CONTROL priority).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.signatures import KeyRegistry
from repro.net.delays import SplitDelay, UniformDelay
from repro.net.messages import Envelope, RecoveryMessage
from repro.sim.simulator import EventPriority, HeapSimulator, Simulator


class RecordingNode:
    """Minimal NetworkNode: records every delivery, no dedup opt-in."""

    def __init__(self, validator_id):
        self.validator_id = validator_id
        self.awake = True
        self.log = []

    def receive(self, envelope, time):
        self.log.append((time, envelope.payload.requested_at, envelope.sender))


def build_world(sim, n, registry, policy):
    from repro.net.network import Network

    network = Network(sim, delta=3, registry=registry, delay_policy=policy)
    nodes = [RecordingNode(vid) for vid in range(n)]
    for node in nodes:
        network.register(node)
    return network, nodes


@st.composite
def workloads(draw):
    """(n, script) — timed broadcasts/forwards plus sleep/wake toggles."""

    n = draw(st.integers(2, 5))
    script = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("bcast"),
                    st.integers(0, 10),  # time
                    st.integers(0, n - 1),  # sender
                    st.integers(0, 50),  # payload tag
                ),
                st.tuples(
                    st.just("sleep"),
                    st.integers(0, 10),
                    st.integers(0, n - 1),
                    st.just(0),
                ),
                st.tuples(
                    st.just("wake"),
                    st.integers(1, 12),
                    st.integers(0, n - 1),
                    st.just(0),
                ),
            ),
            min_size=1,
            max_size=10,
        )
    )
    split = draw(st.booleans())
    return n, script, split


def run_workload(sim, n, script, split):
    registry = KeyRegistry(n, seed=3)
    # SplitDelay exercises the per-recipient slow path; UniformDelay the
    # shared-fanout fast path.  Both must produce the same guarantees.
    policy = (
        SplitDelay(delta=3, fast_recipients={0}, fast_ticks=0)
        if split
        else UniformDelay(3)
    )
    network, nodes = build_world(sim, n, registry, policy)

    def do(op, vid, tag):
        node = nodes[vid]
        if op == "bcast":
            payload = RecoveryMessage(requested_at=tag)
            envelope = Envelope(
                payload=payload, signature=registry.key_for(vid).sign(payload.digest())
            )
            network.broadcast(envelope)
            # Forward on behalf of the next node, like protocol echo does.
            network.forward((vid + 1) % n, envelope)
        elif op == "sleep":
            node.awake = False
        else:  # wake
            if not node.awake:
                node.awake = True
                network.flush_pending(vid)

    for op, time, vid, tag in script:
        priority = (
            EventPriority.CONTROL if op in ("sleep", "wake") else EventPriority.TIMER
        )
        sim.schedule(time, priority, lambda o=op, v=vid, g=tag: do(o, v, g))
    sim.run_until(30)
    # Final flush so buffered messages are observable in a fixed order.
    for node in nodes:
        if not node.awake:
            node.awake = True
            network.flush_pending(node.validator_id)
    return [node.log for node in nodes], network.stats


class TestDeliveryOrderInvariants:
    @settings(max_examples=150)
    @given(workloads())
    def test_bucket_and_heap_schedulers_agree_per_recipient(self, data):
        n, script, split = data
        bucket_logs, bucket_stats = run_workload(Simulator(seed=5), n, script, split)
        heap_logs, heap_stats = run_workload(HeapSimulator(seed=5), n, script, split)
        assert bucket_logs == heap_logs
        assert bucket_stats.deliveries == heap_stats.deliveries
        assert bucket_stats.weighted_deliveries == heap_stats.weighted_deliveries
        assert dict(bucket_stats.by_type) == dict(heap_stats.by_type)

    @settings(max_examples=150)
    @given(workloads())
    def test_per_recipient_times_nondecreasing(self, data):
        n, script, split = data
        logs, _ = run_workload(Simulator(seed=5), n, script, split)
        for log in logs:
            times = [t for t, _, _ in log]
            assert times == sorted(times)

    def test_sleep_buffer_flushes_in_original_order_before_timers(self):
        sim = Simulator()
        registry = KeyRegistry(3, seed=1)
        network, nodes = build_world(sim, 3, registry, UniformDelay(2))
        nodes[2].awake = False

        def send(tag, sender):
            payload = RecoveryMessage(requested_at=tag)
            network.broadcast(
                Envelope(
                    payload=payload,
                    signature=registry.key_for(sender).sign(payload.digest()),
                )
            )

        sim.schedule(0, EventPriority.TIMER, lambda: send(1, 0))
        sim.schedule(1, EventPriority.TIMER, lambda: send(2, 1))
        sim.run_until(4)
        assert network.pending_count(2) == 2

        order = []
        nodes[2].log = order

        def wake():
            nodes[2].awake = True
            network.flush_pending(2)

        # Wake at t=5 (CONTROL) with a same-tick timer: flush runs first.
        sim.schedule(5, EventPriority.CONTROL, wake)
        sim.schedule(
            5, EventPriority.TIMER, lambda: order.append(("timer", None, None))
        )
        sim.run_until(5)
        assert [entry[1] for entry in order] == [1, 2, None]
