"""Transport units: backoff determinism, hub FIFO, bounded-queue shedding.

The reconnect schedule is part of the deterministic record — it must be
a pure function of link identity and attempt, mirroring the sweep's
``retry_backoff`` scheme exactly.  The in-process hub must be a strict
FIFO per link, because the runtime's barrier correctness rides on it.
A socket link encodes on the sender's thread, so a message the framing
refuses fails at ``send`` instead of wedging the link, and writes there
too: a batch the socket cannot take at once is finished by the link's
supervisor, whole and in order.
"""

from __future__ import annotations

import json
import socket
import struct
import time

import pytest

from repro.faults import retry_backoff
from repro.net.framing import MAX_FRAME_BYTES, FrameTooLargeError, encode_frame
from repro.net.transport import (
    DEFAULT_QUEUE_CAP,
    MemoryHub,
    TcpTransport,
    _PeerLink,
    listen_on,
    reconnect_delay,
)


class TestReconnectDelay:
    def test_mirrors_retry_backoff_keyed_by_link(self):
        for node, peer, attempt in [(0, 1, 1), (2, 5, 3), (7, 0, 6)]:
            expected = retry_backoff(f"node-link|{node}|{peer}", attempt, 0.05)
            assert reconnect_delay(node, peer, attempt, 0.05, 1e9) == expected

    def test_is_deterministic_across_calls(self):
        first = [reconnect_delay(1, 2, a, 0.05, 2.0) for a in range(1, 8)]
        second = [reconnect_delay(1, 2, a, 0.05, 2.0) for a in range(1, 8)]
        assert first == second

    def test_directionality_and_peers_change_the_schedule(self):
        assert reconnect_delay(1, 2, 1, 0.05, 2.0) != reconnect_delay(2, 1, 1, 0.05, 2.0)
        assert reconnect_delay(1, 2, 1, 0.05, 2.0) != reconnect_delay(1, 3, 1, 0.05, 2.0)

    def test_grows_exponentially_until_the_cap(self):
        delays = [reconnect_delay(0, 1, a, 0.05, 2.0) for a in range(1, 12)]
        assert delays == sorted(delays)
        assert delays[-1] == 2.0  # capped
        # Uncapped doubling dominates the jitter factor (jitter < 2x).
        uncapped = [reconnect_delay(0, 1, a, 0.05, 1e9) for a in range(1, 6)]
        for earlier, later in zip(uncapped, uncapped[1:]):
            assert later > earlier


class TestMemoryHub:
    def test_per_link_fifo_order(self):
        hub = MemoryHub(range(3))
        alice, bob = hub.transport(0), hub.transport(1)
        for i in range(5):
            alice.send(1, {"i": i})
        received = [bob.receive() for _ in range(5)]
        assert received == [(0, {"i": i}) for i in range(5)]
        assert bob.receive() is None

    def test_peer_ids_excludes_self(self):
        hub = MemoryHub(range(4))
        assert hub.transport(2).peer_ids() == (0, 1, 3)

    def test_send_to_unknown_peer_is_dropped_not_raised(self):
        hub = MemoryHub(range(2))
        hub.transport(0).send(99, {"x": 1})  # best-effort plane: no error

    def test_closed_transport_stops_sending(self):
        hub = MemoryHub(range(2))
        alice, bob = hub.transport(0), hub.transport(1)
        alice.close()
        alice.send(1, {"x": 1})
        assert bob.receive() is None

    def test_unknown_node_transport_is_an_error(self):
        with pytest.raises(KeyError):
            MemoryHub(range(2)).transport(5)


class TestBoundedLinkQueue:
    def make_link(self, cap: int) -> _PeerLink:
        # Port 1 on loopback: connection refused instantly, so the
        # supervisor stays in backoff and the deque is observable.
        link = _PeerLink(
            owner_id=0,
            peer_id=1,
            address=("127.0.0.1", 1),
            queue_cap=cap,
            heartbeat_interval=60.0,
            backoff_base=30.0,
            backoff_cap=60.0,
            connect_timeout=0.05,
        )
        return link

    def test_drop_oldest_when_full(self):
        link = self.make_link(cap=3)
        try:
            for i in range(5):
                link.enqueue({"i": i})
            with link._cond:
                # The queue holds encoded frames: 4-byte length + JSON.
                kept = [json.loads(frame[4:])["i"] for frame in link._deque]
            assert kept == [2, 3, 4]
            assert link.drops == 2
        finally:
            link.close()

    def test_enqueue_after_close_is_ignored(self):
        link = self.make_link(cap=DEFAULT_QUEUE_CAP)
        link.close()
        link.enqueue({"i": 0})
        assert len(link._deque) == 0


def loopback_pair() -> tuple[TcpTransport, TcpTransport]:
    """Two linked transports on loopback ports the kernel picks."""

    listeners = {vid: listen_on(("127.0.0.1", 0), 2) for vid in range(2)}
    addresses = {vid: listener.getsockname() for vid, listener in listeners.items()}
    return tuple(
        TcpTransport(vid, addresses, listener=listeners[vid]) for vid in range(2)
    )


class TestOversizedFrame:
    def test_oversized_message_raises_at_send_and_the_link_stays_live(self):
        sender, receiver = loopback_pair()
        try:
            with pytest.raises(FrameTooLargeError):
                sender.send(1, {"t": "big", "blob": "x" * MAX_FRAME_BYTES})
            sender.send(1, {"t": "small", "i": 1})
            got = None
            for _ in range(100):
                got = receiver.receive(timeout=0.1)
                if got is not None:
                    break
            assert got == (0, {"t": "small", "i": 1})
        finally:
            sender.close()
            receiver.close()


def receive_one(transport: TcpTransport):
    for _ in range(100):
        got = transport.receive(timeout=0.1)
        if got is not None:
            return got
    return None


class TestCallerThreadWrites:
    def test_a_batch_past_the_socket_buffer_arrives_whole_and_in_order(self):
        sender, receiver = loopback_pair()
        try:
            sender.send(1, {"t": "probe"})
            assert receive_one(receiver) == (0, {"t": "probe"})  # the link is up
            # Far more than one non-blocking write takes: the link's
            # supervisor finishes what the caller's write left.
            big = {"t": "big", "blob": "x" * (4 << 20)}
            sender.send_all(1, [{"t": "first"}, big, {"t": "last"}])
            sender.send(1, {"t": "after"})
            got = [receive_one(receiver) for _ in range(4)]
            assert got == [(0, {"t": "first"}), (0, big), (0, {"t": "last"}), (0, {"t": "after"})]
            assert sender.flush(timeout=5.0)
        finally:
            sender.close()
            receiver.close()

    def test_a_dial_to_an_opened_listener_is_never_refused(self):
        listeners = {vid: listen_on(("127.0.0.1", 0), 2) for vid in range(2)}
        addresses = {vid: listener.getsockname() for vid, listener in listeners.items()}
        sender = TcpTransport(0, addresses, listener=listeners[0])
        try:
            sender.send(1, {"t": "early"})
            # On the wire before node 1 exists: the backlog holds the link.
            assert sender.flush(timeout=5.0)
            receiver = TcpTransport(1, addresses, listener=listeners[1])
            try:
                assert receive_one(receiver) == (0, {"t": "early"})
            finally:
                receiver.close()
            assert sender.link_stats()[1]["reconnects"] == 0
        finally:
            sender.close()


class TestInboundFrames:
    @pytest.fixture
    def receiver(self):
        sender, receiver = loopback_pair()
        yield receiver
        sender.close()
        receiver.close()

    def test_whole_frames_before_a_malformed_one_arrive_and_the_link_drops(self, receiver):
        with socket.create_connection(receiver._listener.getsockname(), timeout=5.0) as sock:
            sock.sendall(
                encode_frame({"t": "hello", "node": 0})
                + encode_frame({"t": "env", "i": 1})
                + encode_frame({"t": "hb"})
                + struct.pack(">I", 3) + b"[1]"  # JSON, but not an object
                + encode_frame({"t": "env", "i": 2})
            )
            assert receive_one(receiver) == (0, {"t": "env", "i": 1})
            assert receiver.receive(timeout=0.2) is None  # nothing past the bad frame
            assert sock.recv(1) == b""  # the receiver closed the connection

    def test_a_connection_that_skips_hello_is_dropped(self, receiver):
        with socket.create_connection(receiver._listener.getsockname(), timeout=5.0) as sock:
            sock.sendall(encode_frame({"t": "env", "i": 1}))
            assert receiver.receive(timeout=0.2) is None
            assert sock.recv(1) == b""


class TestHeartbeats:
    def test_quiet_links_heartbeat_from_the_senders_receive_loop(self):
        heard: list[int] = []
        listeners = {vid: listen_on(("127.0.0.1", 0), 2) for vid in range(2)}
        addresses = {vid: listener.getsockname() for vid, listener in listeners.items()}
        sender = TcpTransport(0, addresses, listener=listeners[0], heartbeat_interval=0.05)
        receiver = TcpTransport(1, addresses, listener=listeners[1], on_heard=heard.append)
        try:
            sender.send(1, {"t": "probe"})
            assert receive_one(receiver) == (0, {"t": "probe"})
            heard.clear()
            time.sleep(0.2)
            assert receiver.receive(timeout=0.1) is None
            assert heard == []  # no thread heartbeats on a timer
            assert sender.receive(timeout=0.2) is None  # the link is quiet
            assert receiver.receive(timeout=0.2) is None  # heartbeats are not messages
            assert heard and set(heard) == {0}
        finally:
            sender.close()
            receiver.close()
