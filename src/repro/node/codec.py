"""Envelope <-> JSON codec for the real transport.

The in-sim network hands validators live :class:`Envelope` objects; the
socket transport ships canonical-JSON frames.  This codec bridges the
two *losslessly with respect to content identity*: every digest in the
system (block ids, payload digests, ``envelope_id``) is a pure function
of the serialized fields, so a decoded envelope re-derives exactly the
ids the sender's object carried — signatures verify, dedup tokens
collapse wire copies with local originals, and the sim-oracle
equivalence contract (docs/ARCHITECTURE.md) survives the round trip.
Floats (the single VRF ``value`` field) round-trip exactly through JSON
(``repr``-based encoding), so VRF comparisons are bit-identical across
the wire.

**Wire form of a log: a known base plus the new suffix.**  ::

    {"base": <tip block id>, "base_len": <length of the base log>,
     "blocks": [{"parent": ..., "proposer": ..., "view": ..., "txs": [...]}, ...]}

The base is a prefix of the log that the receiver already holds.  The
sender passes the set of block ids it has already shipped on the same
FIFO links (``known``); the base is the longest prefix whose tip is in
that set, found by walking back from the tip, and genesis is always a
valid base.  Encoding against an empty set therefore ships the whole
chain, and re-sending a log already shipped ships no blocks at all.

The receiver looks the base up in its
:class:`~repro.runctx.LineageStore` (tip id → log, length-checked),
rebuilds and hashes only the suffix blocks, checks every parent link
(the first against the base tip) and extends the base one trusted block
at a time, noting each new log in the store.  Decoding costs O(suffix),
not O(chain length), and every prefix of a decoded log is then a valid
base for later frames.

A base the receiver does not hold is not an error: decoding returns
:class:`Unresolved` naming it, and the caller parks the frame until the
base arrives (the node runtime asks the sender for a history resync).
A known base of the wrong length, a broken parent link or a malformed
field raises :class:`CodecError`, so a corrupt or malicious peer cannot
smuggle a log with broken links past the codec.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.block import Block
from repro.chain.genesis import GENESIS_BLOCK
from repro.chain.log import Log
from repro.chain.transactions import Transaction
from repro.crypto.signatures import Signature
from repro.crypto.vrf import VrfOutput
from repro.net.messages import (
    Envelope,
    LogMessage,
    Payload,
    ProposalMessage,
    RecoveryMessage,
    StructuralVote,
    VoteMessage,
)
from repro.runctx import LineageStore


class CodecError(ValueError):
    """A wire dict does not describe a well-formed envelope."""


@dataclass(frozen=True)
class Unresolved:
    """A wire log whose base the receiver's lineage store does not hold."""

    base: str


def encode_log(log: Log, known: set[str]) -> dict:
    """Encode ``log`` as the longest prefix in ``known`` plus the suffix.

    ``known`` holds the block ids the receiver already has as log tips.
    The suffix's block ids are added to it, so the caller must ship the
    result on the links ``known`` describes.
    """

    blocks = log.blocks
    k = len(blocks) - 1
    while k and blocks[k].block_id not in known:
        k -= 1
    suffix = blocks[k + 1 :]
    known.update(block.block_id for block in suffix)
    return {
        "base": blocks[k].block_id,
        "base_len": k + 1,
        "blocks": [
            {
                "parent": block.parent_id,
                "proposer": block.proposer,
                "view": block.view,
                "txs": [[tx.tx_id, tx.payload, tx.submitted_at] for tx in block.transactions],
            }
            for block in suffix
        ],
    }


def decode_log(blocks: list, base: Log, lineage: LineageStore) -> Log:
    """Extend ``base`` by the wire block entries, re-validating parent links.

    Every new log is noted in ``lineage``; the returned instance is the
    store's shared one for the final tip.
    """

    log = base
    try:
        for entry in blocks:
            block = Block(
                parent_id=entry["parent"],
                transactions=tuple(
                    Transaction(tx_id=t[0], payload=t[1], submitted_at=t[2])
                    for t in entry["txs"]
                ),
                proposer=entry["proposer"],
                view=entry["view"],
            )
            if block.parent_id != log.tip.block_id:
                raise CodecError(
                    f"broken parent link: {block!r} does not extend {log.tip!r}"
                )
            log = lineage.note(Log._trusted(log.blocks + (block,), parent=log))
    except CodecError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise CodecError(f"malformed log on the wire: {exc}") from None
    return log


def _resolve_log(data: dict, lineage: LineageStore) -> Log | Unresolved:
    base_id, base_len = data["base"], data["base_len"]
    if not isinstance(base_id, str) or not isinstance(base_len, int):
        raise CodecError("malformed log base on the wire")
    base = lineage.by_tip(base_id)
    if base is None:
        if base_id != GENESIS_BLOCK.block_id:
            return Unresolved(base_id)
        base = lineage.note(Log.genesis())
    if len(base) != base_len:
        raise CodecError(
            f"log base {base_id[:8]} has length {len(base)}, wire says {base_len}"
        )
    return decode_log(data["blocks"], base, lineage)


def _encode_payload(payload: Payload, known: set[str]) -> dict:
    if isinstance(payload, LogMessage):
        return {"kind": "log", "ga_key": list(payload.ga_key), "log": encode_log(payload.log, known)}
    if isinstance(payload, ProposalMessage):
        vrf = payload.vrf
        return {
            "kind": "proposal",
            "view": payload.view,
            "log": encode_log(payload.log, known),
            "vrf": {
                "validator_id": vrf.validator_id,
                "view": vrf.view,
                "value": vrf.value,
                "proof": vrf.proof,
            },
        }
    if isinstance(payload, VoteMessage):
        return {"kind": "vote", "ga_key": list(payload.ga_key), "log": encode_log(payload.log, known)}
    if isinstance(payload, StructuralVote):
        return {
            "kind": "svote",
            "protocol": payload.protocol,
            "view": payload.view,
            "phase_index": payload.phase_index,
            "log": encode_log(payload.log, known),
        }
    if isinstance(payload, RecoveryMessage):
        return {"kind": "recovery", "requested_at": payload.requested_at}
    raise CodecError(f"unknown payload type {type(payload).__name__}")


def _decode_payload(data: dict, lineage: LineageStore) -> Payload | Unresolved:
    try:
        kind = data["kind"]
        if kind == "recovery":
            return RecoveryMessage(requested_at=data["requested_at"])
        if kind not in ("log", "proposal", "vote", "svote"):
            raise CodecError(f"unknown payload kind {kind!r}")
        log = _resolve_log(data["log"], lineage)
        if isinstance(log, Unresolved):
            return log
        if kind == "log":
            return LogMessage(ga_key=tuple(data["ga_key"]), log=log)
        if kind == "proposal":
            vrf = data["vrf"]
            return ProposalMessage(
                view=data["view"],
                log=log,
                vrf=VrfOutput(
                    validator_id=vrf["validator_id"],
                    view=vrf["view"],
                    value=vrf["value"],
                    proof=vrf["proof"],
                ),
            )
        if kind == "vote":
            return VoteMessage(ga_key=tuple(data["ga_key"]), log=log)
        return StructuralVote(
            protocol=data["protocol"],
            view=data["view"],
            phase_index=data["phase_index"],
            log=log,
        )
    except CodecError:
        raise
    except (KeyError, TypeError) as exc:
        raise CodecError(f"malformed payload on the wire: {exc}") from None


def encode_envelope(envelope: Envelope, known: set[str]) -> dict:
    """One envelope as a JSON-safe dict (payload + signature).

    Its log is encoded against ``known`` (see :func:`encode_log`).
    """

    sig = envelope.signature
    return {
        "payload": _encode_payload(envelope.payload, known),
        "sig": {"signer": sig.signer, "digest": sig.payload_digest, "tag": sig.tag},
    }


def decode_envelope(data: dict, lineage: LineageStore) -> Envelope | Unresolved:
    """Rebuild an envelope; content ids re-derive from the decoded fields.

    Its log is resolved against ``lineage``; an unknown base returns
    :class:`Unresolved` instead of an envelope.  The signature is
    carried verbatim — verification stays where it lives in the sim path
    (the network-facing ``broadcast``/delivery layer), so a forged frame
    fails exactly as a forged envelope would.
    """

    try:
        sig = data["sig"]
        signature = Signature(
            signer=sig["signer"], payload_digest=sig["digest"], tag=sig["tag"]
        )
        payload = _decode_payload(data["payload"], lineage)
    except CodecError:
        raise
    except (KeyError, TypeError) as exc:
        raise CodecError(f"malformed envelope on the wire: {exc}") from None
    if isinstance(payload, Unresolved):
        return payload
    return Envelope(payload=payload, signature=signature)
