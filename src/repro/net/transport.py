"""Transport abstraction for the real-node runtime.

The in-sim :class:`~repro.net.network.Network` delivers envelope
*objects* inside one process; the node runtime (:mod:`repro.node`)
instead speaks *frames* between processes.  A transport is the message
plane under that runtime: it moves JSON dicts between named nodes and
says nothing about protocol semantics — ordering per link is FIFO,
delivery is at-least-once (the holdback layer upstairs dedups), and
liveness is best-effort (the failure detector upstairs suspects).

Two backends:

* :class:`MemoryTransport` — an in-process hub with per-node FIFO
  inboxes.  Single-threaded and fully deterministic; the fast
  equivalence tests and the loopback benchmark drive ``n`` runtimes
  round-robin over one hub.
* :class:`TcpTransport` — real sockets between OS processes using the
  shared length-prefixed canonical-JSON framing
  (:mod:`repro.net.framing`).  Robustness lives here: one supervisor
  thread per outbound link with deterministic-jitter exponential
  reconnect backoff (the PR 6 ``retry_backoff`` scheme, keyed by link),
  heartbeats on quiet links, and bounded send queues with drop-oldest
  backpressure.  The message path itself uses no thread: a sender
  writes on its own thread without blocking, a batch from
  :meth:`~TcpTransport.send_all` is one write, and the receiver reads
  (and heartbeats) in :meth:`~TcpTransport.receive` — so a lockstep
  tick costs each node one wake-up, not several hand-offs between
  threads, and no thread wakes on a timer.

A reconnecting link resends the frames it had not finished writing —
that is the at-least-once contract, made idempotent by the holdback
layer's envelope-id dedup.
"""

from __future__ import annotations

import io
import selectors
import socket
import struct
import threading
import time
from collections import deque
from typing import Callable, Iterable, Protocol

from repro.faults import retry_backoff
from repro.net import framing
from repro.net.framing import WireError, send_frame_bytes

#: Default ceiling on one link's send queue.  Lockstep pacing bounds
#: in-flight traffic to a few frames per peer per tick, so this is never
#: reached in a healthy deployment; it exists so a long-stalled link
#: degrades by shedding its oldest frames instead of growing without
#: bound (the resync path recovers whatever a rejoining peer missed).
DEFAULT_QUEUE_CAP = 4096


#: The idle-link heartbeat, encoded once.
_HEARTBEAT = framing.encode_frame({"t": "hb"})

#: A frame's length prefix (see :mod:`repro.net.framing`).
_FRAME_HEADER = struct.Struct(">I")
#: Bytes asked of one inbound ``recv``.
_RECV_BYTES = 1 << 16


def reconnect_delay(
    node_id: int, peer_id: int, attempt: int, base: float, cap: float
) -> float:
    """Deterministic backoff before reconnect ``attempt`` on one link.

    Exponential with keyed-hash jitter, mirroring the sweep's
    ``retry_backoff``: the jitter factor is a pure function of the link
    identity and the attempt number, so reconnect schedules are part of
    the deterministic record — two runs of the same deployment probe a
    dead peer at identical offsets.
    """

    return min(cap, retry_backoff(f"node-link|{node_id}|{peer_id}", attempt, base))


class Transport(Protocol):
    """What the node runtime needs from a message plane."""

    node_id: int

    def peer_ids(self) -> tuple[int, ...]:
        """All remote node ids this transport can reach."""
        ...

    def send(self, peer_id: int, message: dict) -> None:
        """Queue one message for ``peer_id`` (non-blocking, best-effort).

        A message the framing refuses raises here, never later.
        """
        ...

    def send_all(self, peer_id: int, messages: list[dict]) -> None:
        """:meth:`send` each message in order, as one write where possible."""
        ...

    def receive(self, timeout: float | None = None) -> tuple[int, dict] | None:
        """Next ``(peer_id, message)``, or None if nothing arrived in time."""
        ...

    def flush(self, timeout: float | None = None) -> bool:
        """Block until queued sends are on the wire (True) or time out."""
        ...

    def close(self) -> None:
        ...


# ---------------------------------------------------------------------------
# In-process backend


class MemoryHub:
    """Shared mailbox fabric for a single-process node cluster."""

    def __init__(self, node_ids: Iterable[int]) -> None:
        self._inboxes: dict[int, deque] = {nid: deque() for nid in node_ids}

    def transport(self, node_id: int) -> "MemoryTransport":
        if node_id not in self._inboxes:
            raise KeyError(f"unknown node {node_id}")
        return MemoryTransport(self, node_id)

    def post(self, sender: int, recipient: int, message: dict) -> None:
        inbox = self._inboxes.get(recipient)
        if inbox is not None:
            inbox.append((sender, message))

    def inbox(self, node_id: int) -> deque:
        return self._inboxes[node_id]

    def node_ids(self) -> tuple[int, ...]:
        return tuple(self._inboxes)


class MemoryTransport:
    """Deterministic in-process transport over a :class:`MemoryHub`.

    ``receive`` never blocks (the cluster driver round-robins runtimes,
    so "nothing available" means "let another runtime make progress");
    sends are delivered instantly into the peer's FIFO inbox.
    """

    def __init__(self, hub: MemoryHub, node_id: int) -> None:
        self._hub = hub
        self.node_id = node_id
        self._closed = False

    def peer_ids(self) -> tuple[int, ...]:
        return tuple(nid for nid in self._hub.node_ids() if nid != self.node_id)

    def send(self, peer_id: int, message: dict) -> None:
        if not self._closed:
            self._hub.post(self.node_id, peer_id, message)

    def send_all(self, peer_id: int, messages: list[dict]) -> None:
        for message in messages:
            self.send(peer_id, message)

    def receive(self, timeout: float | None = None) -> tuple[int, dict] | None:
        inbox = self._hub.inbox(self.node_id)
        if inbox:
            return inbox.popleft()
        return None

    def flush(self, timeout: float | None = None) -> bool:
        return True

    def close(self) -> None:
        self._closed = True


# ---------------------------------------------------------------------------
# Socket backend


class _PeerLink:
    """Supervisor for one outbound (dialer-side) link.

    Owns a bounded deque of encoded frames and a daemon thread that
    dials, identifies itself (HELLO), and on any link failure reconnects
    under :func:`reconnect_delay`.  Messages are encoded by
    :meth:`enqueue_all`, on the caller's thread: a message the framing
    refuses (:class:`~repro.net.framing.FrameTooLargeError`) raises there
    and never enters the queue, where it would fail every reconnect and
    wedge the frames behind it.

    While the link is up and no write is in progress, the caller writes
    the queue straight to the socket without blocking; whatever the
    socket does not take at once is finished by the supervisor thread.
    :meth:`heartbeat` writes the same way.  A healthy link therefore
    never wakes its supervisor, and a stalled peer never blocks the
    caller.  Frames only leave the deque once fully written, so a
    failure mid-write resends them on the next connection
    (at-least-once).
    """

    def __init__(
        self,
        owner_id: int,
        peer_id: int,
        address: tuple[str, int],
        *,
        queue_cap: int,
        heartbeat_interval: float,
        backoff_base: float,
        backoff_cap: float,
        connect_timeout: float,
    ) -> None:
        self._owner_id = owner_id
        self.peer_id = peer_id
        self._address = address
        self._queue_cap = queue_cap
        self._heartbeat_interval = heartbeat_interval
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._connect_timeout = connect_timeout
        self._deque: deque[bytes] = deque()
        self._cond = threading.Condition()
        self._closed = False
        #: The connected socket, once HELLO is on it; None while down.
        self._sock: socket.socket | None = None
        #: One thread at a time writes to ``_sock``; this is its token.
        self._writing = False
        #: A caller's short write, handed to the supervisor:
        #: ``(unwritten bytes, the frames they complete)``.
        self._carry: tuple[bytes, list[bytes]] | None = None
        #: A caller's write failed; the supervisor must reconnect.
        self._broken = False
        self._last_write = 0.0
        self._flushing = 0
        self.drops = 0
        self.reconnects = 0
        self._thread = threading.Thread(
            target=self._run, name=f"link-{owner_id}->{peer_id}", daemon=True
        )
        self._thread.start()

    def enqueue(self, message: dict) -> None:
        self.enqueue_all((message,))

    def enqueue_all(self, messages: Iterable[dict]) -> None:
        """Queue messages in order and, if the link is idle, write them now."""

        frames = [framing.encode_frame(message) for message in messages]
        with self._cond:
            if self._closed:
                return
            for frame in frames:
                if len(self._deque) >= self._queue_cap:
                    self._deque.popleft()
                    self.drops += 1
                self._deque.append(frame)
            if not self._idle():
                self._cond.notify_all()
                return
            sock, batch = self._take()
        self._write(sock, batch)

    def heartbeat(self, now: float) -> None:
        """Write a heartbeat if the link is up, idle and has been quiet
        for the heartbeat interval."""

        with self._cond:
            if (
                self._closed
                or self._deque
                or not self._idle()
                or now - self._last_write < self._heartbeat_interval
            ):
                return
            self._deque.append(_HEARTBEAT)
            sock, batch = self._take()
        self._write(sock, batch)

    def _idle(self) -> bool:
        """Up, healthy and not being written to (lock held)."""

        return self._sock is not None and not self._writing and not self._broken

    def _take(self) -> tuple[socket.socket, list[bytes]]:
        """Take the write token and the whole queue (lock held)."""

        self._writing = True
        return self._sock, list(self._deque)

    def _write(self, sock: socket.socket, batch: list[bytes]) -> None:
        """Write ``batch`` without blocking; hand any remainder to the
        supervisor, or have it reconnect if the socket failed."""

        data = batch[0] if len(batch) == 1 else b"".join(batch)
        try:
            sent = sock.send(data, socket.MSG_DONTWAIT)
        except BlockingIOError:
            sent = 0
        except OSError:
            with self._cond:
                self._writing = False
                self._broken = True
                self._cond.notify_all()
            return
        with self._cond:
            if sent == len(data):
                self._written(batch)
            else:
                self._carry = (data[sent:], batch)
                self._cond.notify_all()

    def _written(self, batch: list[bytes]) -> None:
        """Pop a fully written batch and release the write token (lock held).

        Backpressure may have shed some of it meanwhile; only frames
        still at the queue front are popped.
        """

        for frame in batch:
            if self._deque and self._deque[0] is frame:
                self._deque.popleft()
        self._writing = False
        self._last_write = time.monotonic()
        # Wake only a thread with something to do: the supervisor for
        # frames queued meanwhile, or a flush.  A healthy link's writes
        # then wake nobody.
        if self._deque or self._flushing:
            self._cond.notify_all()

    def flush(self, deadline: float) -> bool:
        with self._cond:
            self._flushing += 1
            try:
                while self._deque or self._writing:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or self._closed:
                        return False
                    self._cond.wait(remaining)
                return True
            finally:
                self._flushing -= 1

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # -- supervisor thread -------------------------------------------------

    def _run(self) -> None:
        attempt = 0
        hello = framing.encode_frame({"t": "hello", "node": self._owner_id})
        while not self._closed:
            sock: socket.socket | None = None
            try:
                sock = socket.create_connection(
                    self._address, timeout=self._connect_timeout
                )
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.settimeout(None)
                send_frame_bytes(sock.send, hello)
                attempt = 0
                self._serve(sock)
                return  # only a clean close() ends the service loop
            except (WireError, OSError):
                pass
            finally:
                if sock is not None:
                    sock.close()
            if self._closed:
                return
            attempt += 1
            self.reconnects += 1
            self._interruptible_sleep(
                reconnect_delay(
                    self._owner_id,
                    self.peer_id,
                    attempt,
                    self._backoff_base,
                    self._backoff_cap,
                )
            )

    def _serve(self, sock: socket.socket) -> None:
        """Own ``sock``: finish handed-over writes and drain the backlog."""

        with self._cond:
            self._sock = sock
            self._broken = False
            self._last_write = time.monotonic()
        try:
            while True:
                with self._cond:
                    data, batch = self._next_write()
                    if data is None:
                        return
                send_frame_bytes(sock.send, data)
                with self._cond:
                    self._written(batch)
        except WireError:
            with self._cond:
                self._writing = False
                self._carry = None
                self._cond.notify_all()
            raise
        finally:
            with self._cond:
                self._sock = None

    def _next_write(self) -> tuple[bytes | None, list[bytes]]:
        """Wait for the next write and take its token (lock held).

        ``(None, [])`` means the link was closed; a caller's failed
        write raises, to reconnect.
        """

        while True:
            if self._closed:
                return None, []
            if self._broken:
                raise WireError("send failed on the caller's thread")
            if self._carry is not None:
                carry, self._carry = self._carry, None
                return carry
            if self._deque and not self._writing:
                _, batch = self._take()
                return b"".join(batch), batch
            self._cond.wait()

    def _interruptible_sleep(self, duration: float) -> None:
        deadline = time.monotonic() + duration
        with self._cond:
            while not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                self._cond.wait(remaining)


def listen_on(address: tuple[str, int], n: int) -> socket.socket:
    """A listening socket on ``address`` for an ``n``-node deployment."""

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(address)
    listener.listen(max(8, 2 * n))
    return listener


class _Inbound:
    """One accepted connection: its socket, unparsed bytes and peer id."""

    __slots__ = ("sock", "buffer", "peer")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = bytearray()
        self.peer: int | None = None  # set by the HELLO frame


class TcpTransport:
    """Real-socket transport between OS processes (loopback or LAN).

    ``addresses`` maps every node id (self included) to a ``(host,
    port)`` pair; the transport binds its own listener and dials one
    outbound link per peer (or takes ``listener``, already listening
    on its address, from a launcher that opened every node's listener
    before starting any, so no first dial is refused into backoff).

    The inbound side has no threads: :meth:`receive` polls the listener
    and every accepted connection with a selector on the caller's
    thread, so a frame reaches the node with no hand-off between
    threads.  Inbound connections identify themselves with a HELLO
    frame; every received frame (heartbeats included) refreshes
    liveness via ``on_heard`` before protocol frames are returned.  A
    connection that sends a malformed frame is closed; the peer's link
    reconnects and resends.
    """

    def __init__(
        self,
        node_id: int,
        addresses: dict[int, tuple[str, int]],
        *,
        heartbeat_interval: float = 0.2,
        queue_cap: int = DEFAULT_QUEUE_CAP,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        connect_timeout: float = 2.0,
        on_heard: Callable[[int], None] | None = None,
        listener: socket.socket | None = None,
    ) -> None:
        if node_id not in addresses:
            raise ValueError(f"addresses must include node {node_id} itself")
        self.node_id = node_id
        self._addresses = dict(addresses)
        self._on_heard = on_heard
        self._heartbeat_interval = heartbeat_interval
        self._next_heartbeat = 0.0
        self._inbox: deque[tuple[int, dict]] = deque()
        self._closed = False
        self._listener = listener or listen_on(addresses[node_id], len(addresses))
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, None)

        self._links = {
            peer: _PeerLink(
                node_id,
                peer,
                addr,
                queue_cap=queue_cap,
                heartbeat_interval=heartbeat_interval,
                backoff_base=backoff_base,
                backoff_cap=backoff_cap,
                connect_timeout=connect_timeout,
            )
            for peer, addr in addresses.items()
            if peer != node_id
        }

    # -- Transport interface -----------------------------------------------

    def peer_ids(self) -> tuple[int, ...]:
        return tuple(self._links)

    def send(self, peer_id: int, message: dict) -> None:
        """Encode and queue one message; an over-limit one raises here."""

        self.send_all(peer_id, [message])

    def send_all(self, peer_id: int, messages: list[dict]) -> None:
        """Encode and queue messages in order; they go out as one write."""

        link = self._links.get(peer_id)
        if link is not None:
            link.enqueue_all(messages)

    def receive(self, timeout: float | None = None) -> tuple[int, dict] | None:
        """Next ``(peer_id, message)``; ``timeout=None`` never blocks.

        Heartbeats for quiet links go out from here too, so a node is
        heard for as long as its own loop runs, and no thread wakes on
        a timer while the links are busy.
        """

        if not self._inbox and not self._closed:
            self._poll(0.0)
            if timeout is not None:
                deadline = time.monotonic() + timeout
                while not self._inbox and not self._closed:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._poll(min(remaining, self._heartbeat_interval / 2))
        return self._inbox.popleft() if self._inbox else None

    def flush(self, timeout: float | None = None) -> bool:
        deadline = time.monotonic() + (timeout if timeout is not None else 5.0)
        return all(link.flush(deadline) for link in self._links.values())

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for link in self._links.values():
            link.close()
        for key in list(self._selector.get_map().values()):
            key.fileobj.close()
        self._selector.close()

    # -- stats ---------------------------------------------------------------

    def link_stats(self) -> dict[int, dict[str, int]]:
        return {
            peer: {"drops": link.drops, "reconnects": link.reconnects}
            for peer, link in self._links.items()
        }

    # -- inbound side --------------------------------------------------------

    def _poll(self, timeout: float) -> None:
        """Heartbeat quiet links, then accept and read whatever is ready
        within ``timeout`` seconds."""

        now = time.monotonic()
        if now >= self._next_heartbeat:
            self._next_heartbeat = now + self._heartbeat_interval / 2
            for link in self._links.values():
                link.heartbeat(now)
        for key, _ in self._selector.select(timeout):
            if key.data is None:
                self._accept()
            else:
                self._read(key.data)

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # nothing more pending, or the listener closed
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._selector.register(sock, selectors.EVENT_READ, _Inbound(sock))

    def _read(self, conn: _Inbound) -> None:
        """Take the bytes ready on ``conn`` and queue the whole frames.

        Frames that arrived whole before the peer closed or reset the
        connection are still delivered; a partial one dies with it.
        """

        closed = False
        try:
            while True:
                chunk = conn.sock.recv(_RECV_BYTES)
                if not chunk:
                    closed = True
                    break
                conn.buffer += chunk
                if len(chunk) < _RECV_BYTES:
                    break
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            closed = True
        try:
            self._parse(conn)
        except WireError:
            closed = True
        if closed:
            self._drop(conn)

    def _parse(self, conn: _Inbound) -> None:
        """Queue every whole frame in ``conn``'s buffer; a malformed one raises."""

        buffer = conn.buffer
        header = _FRAME_HEADER.size
        offset = 0
        while len(buffer) - offset >= header:
            (length,) = _FRAME_HEADER.unpack_from(buffer, offset)
            if length > framing.MAX_FRAME_BYTES:
                raise framing.FrameTooLargeError(
                    f"frame declares {length} bytes (limit {framing.MAX_FRAME_BYTES})"
                )
            end = offset + header + length
            if len(buffer) < end:
                break
            frame = io.BytesIO(buffer[offset:end])
            offset = end
            message = framing.read_frame(frame.read)
            if conn.peer is None:
                peer = message.get("node") if message.get("t") == "hello" else None
                if not isinstance(peer, int):
                    raise framing.CorruptFrameError("connection did not open with HELLO")
                conn.peer = peer
            elif message.get("t") != "hb":
                self._inbox.append((conn.peer, message))
            if self._on_heard is not None:
                self._on_heard(conn.peer)
        del buffer[:offset]

    def _drop(self, conn: _Inbound) -> None:
        self._selector.unregister(conn.sock)
        conn.sock.close()
