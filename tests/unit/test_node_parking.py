"""Runtime units: a delta frame whose base the node lacks is parked.

Logs travel as a known base plus the new suffix.  A frame whose base the
receiving node does not hold (after a rejoin, a reconnect or a shed
frame) must not be rejected or dropped: the node parks it, asks that
peer for one history resync, keeps the tick barrier closed while the
frame is due, and delivers the envelope at its due tick once the base
arrives.
"""

from __future__ import annotations

from repro.chain.log import Log
from repro.core.tobsvd import TobSvdConfig
from repro.net.messages import Envelope, LogMessage
from repro.net.transport import MemoryHub
from repro.node.codec import encode_envelope
from repro.node.runtime import NodeRuntime

CONFIG = TobSvdConfig(n=4, num_views=4, delta=1, seed=7)
PEER = 1
DUE = 3
DONE = 10  # every peer confirmed ticks well past DUE


def signed(runtime: NodeRuntime, payload) -> Envelope:
    key = runtime.registry.key_for(PEER)
    return Envelope(payload=payload, signature=key.sign(payload.digest()))


def build():
    hub = MemoryHub(range(CONFIG.n))
    runtime = NodeRuntime(0, CONFIG, hub.transport(0))
    delivered: list[tuple[int, str]] = []
    runtime.network.deliver_local = lambda envelope: delivered.append(
        (runtime.sim.now, envelope.envelope_id)
    )
    runtime.start()
    for peer in runtime.transport.peer_ids():
        hub.post(peer, 0, {"t": "done", "at": DONE})
    return hub, runtime, delivered


def resync_requests(hub: MemoryHub) -> int:
    return sum(1 for _, message in hub.inbox(PEER) if message.get("t") == "resync_req")


def test_unknown_base_parks_requests_once_and_delivers_on_resync():
    hub, runtime, delivered = build()
    base = Log.genesis().append_block((), proposer=PEER, view=0)
    child = base.append_block((), proposer=PEER, view=1)
    base_env = signed(runtime, LogMessage(ga_key=("probe", 0), log=base))
    child_envs = [
        signed(runtime, LogMessage(ga_key=("probe", k), log=child)) for k in (1, 2)
    ]
    # The peer believes node 0 holds ``base``: it encodes against it.
    for envelope in child_envs:
        wire = encode_envelope(envelope, {base.tip.block_id})
        hub.post(PEER, 0, {"t": "env", "at": DUE, "env": wire})

    runtime.step()
    assert runtime.tick < DUE  # the peer is not done while its resync is out
    assert not runtime._barrier_ready(DUE)
    assert sum(len(entries) for entries in runtime.parked.values()) == 2
    assert resync_requests(hub) == 1
    assert runtime.codec_rejects == 0
    assert not [at for at, eid in delivered if eid == child_envs[0].envelope_id]

    records = [[1, encode_envelope(base_env, set())]]
    hub.post(PEER, 0, {"t": "resync", "frontier": DONE, "records": records, "last": True})
    runtime.step()
    assert runtime.parked == {}
    assert runtime.codec_rejects == 0
    assert resync_requests(hub) == 1
    for envelope in child_envs:
        assert (DUE, envelope.envelope_id) in delivered
    assert runtime.tick == DONE + 2  # the barrier reopened for the peer


def test_frames_parked_past_a_resync_hold_the_barrier_and_ask_again():
    hub, runtime, _ = build()
    base = Log.genesis().append_block((), proposer=PEER, view=0)
    child = base.append_block((), proposer=PEER, view=1)
    envelope = signed(runtime, LogMessage(ga_key=("probe", 1), log=child))
    wire = encode_envelope(envelope, {base.tip.block_id})
    hub.post(PEER, 0, {"t": "env", "at": DUE, "env": wire})
    runtime.step()
    # An empty resync answers the request but cannot resolve the base:
    # the node runs up to the parked frame's due tick and no further.
    hub.post(PEER, 0, {"t": "resync", "frontier": DONE, "records": [], "last": True})
    runtime.step()
    assert runtime.tick == DUE and runtime.parked
    assert not runtime._barrier_ready(DUE)
    hub.post(PEER, 0, {"t": "env", "at": DUE + 1, "env": wire})
    runtime.step()
    assert resync_requests(hub) == 2
