"""Envelope codec units: content identity survives the wire.

Every digest in the system is derived from serialized fields, so the
codec's contract is strong: a decoded envelope re-derives the *same*
``envelope_id``, its signature still verifies, and a forged or corrupt
frame fails typed — never half-decodes.  Logs travel as a known base
plus the new suffix, resolved against the receiver's lineage store; an
unknown base is reported, not rejected.
"""

from __future__ import annotations

import json

import pytest

from repro.chain.log import Log
from repro.chain.transactions import Transaction
from repro.crypto.signatures import KeyRegistry, SignatureError
from repro.crypto.vrf import VRF
from repro.net.messages import (
    Envelope,
    LogMessage,
    ProposalMessage,
    RecoveryMessage,
    StructuralVote,
    VoteMessage,
)
from repro.node.codec import (
    CodecError,
    Unresolved,
    decode_envelope,
    encode_envelope,
    encode_log,
)
from repro.runctx import LineageStore


REGISTRY = KeyRegistry(4, seed=0)


def sign(payload, signer: int = 1) -> Envelope:
    return Envelope(
        payload=payload, signature=REGISTRY.key_for(signer).sign(payload.digest())
    )


def sample_log() -> Log:
    log = Log.genesis()
    log = log.append_block(
        (Transaction(tx_id=1, payload="a", submitted_at=0),), proposer=2, view=0
    )
    return log.append_block(
        (Transaction(tx_id=2, payload="b", submitted_at=3),), proposer=1, view=1
    )


def over_json(wire: dict) -> dict:
    # Through actual JSON text, as the wire does — not just dict identity.
    return json.loads(json.dumps(wire, sort_keys=True))


def roundtrip(envelope: Envelope) -> Envelope:
    # Nothing known on either side: the log ships whole, against genesis.
    return decode_envelope(over_json(encode_envelope(envelope, set())), LineageStore())


PAYLOADS = [
    LogMessage(ga_key=("tobsvd", 3), log=sample_log()),
    ProposalMessage(view=2, log=sample_log(), vrf=VRF(seed=0).evaluate(1, 2)),
    VoteMessage(ga_key=("ga2", 0), log=sample_log()),
    StructuralVote(protocol="mmr2", view=1, phase_index=2, log=sample_log()),
    RecoveryMessage(requested_at=17),
]


class TestRoundtrip:
    @pytest.mark.parametrize("payload", PAYLOADS, ids=lambda p: type(p).__name__)
    def test_payload_roundtrips_with_equal_content(self, payload):
        original = sign(payload)
        decoded = roundtrip(original)
        assert decoded.payload == original.payload
        assert decoded.payload.digest() == original.payload.digest()

    @pytest.mark.parametrize("payload", PAYLOADS, ids=lambda p: type(p).__name__)
    def test_envelope_id_is_preserved(self, payload):
        original = sign(payload)
        assert roundtrip(original).envelope_id == original.envelope_id

    @pytest.mark.parametrize("payload", PAYLOADS, ids=lambda p: type(p).__name__)
    def test_signature_still_verifies(self, payload):
        decoded = roundtrip(sign(payload))
        REGISTRY.require_valid(decoded.signature, decoded.payload.digest())

    def test_vrf_value_is_bit_exact(self):
        vrf = VRF(seed=9).evaluate(3, 5)
        original = sign(ProposalMessage(view=5, log=Log.genesis(), vrf=vrf), signer=3)
        assert roundtrip(original).payload.vrf.value == vrf.value

    def test_log_parent_links_survive(self):
        decoded = roundtrip(sign(LogMessage(ga_key=("tobsvd", 0), log=sample_log())))
        log = decoded.payload.log
        assert len(log) == 3
        assert log.log_id == sample_log().log_id


class TestRejection:
    def test_tampered_payload_fails_signature_check(self):
        wire = encode_envelope(sign(LogMessage(ga_key=("tobsvd", 0), log=sample_log())), set())
        wire["payload"]["ga_key"] = ["tobsvd", 1]  # re-derives a new digest
        decoded = decode_envelope(wire, LineageStore())
        with pytest.raises(SignatureError):
            REGISTRY.require_valid(decoded.signature, decoded.payload.digest())

    def test_unknown_kind_is_a_codec_error(self):
        wire = encode_envelope(sign(RecoveryMessage(requested_at=1)), set())
        wire["payload"]["kind"] = "warp"
        with pytest.raises(CodecError):
            decode_envelope(wire, LineageStore())

    def test_missing_fields_are_a_codec_error(self):
        wire = encode_envelope(sign(RecoveryMessage(requested_at=1)), set())
        del wire["sig"]
        with pytest.raises(CodecError):
            decode_envelope(wire, LineageStore())

    def test_broken_parent_link_is_a_codec_error(self):
        wire = encode_envelope(sign(LogMessage(ga_key=("tobsvd", 0), log=sample_log())), set())
        wire["payload"]["log"]["blocks"][1]["parent"] = "ff" * 32
        with pytest.raises(CodecError):
            decode_envelope(wire, LineageStore())

    def test_non_dict_input_is_a_codec_error(self):
        with pytest.raises(CodecError):
            decode_envelope({"payload": "nope", "sig": {}}, LineageStore())


def extend(log: Log, count: int, view: int = 2) -> Log:
    for offset in range(count):
        log = log.append_block(
            (Transaction(tx_id=100 + view + offset, payload="x", submitted_at=view),),
            proposer=offset % 4,
            view=view + offset,
        )
    return log


def decode_log_wire(wire: dict, lineage: LineageStore) -> Log:
    """Decode one wire log through a LOG envelope (the public path)."""

    envelope = sign(LogMessage(ga_key=("tobsvd", 0), log=Log.genesis()))
    data = encode_envelope(envelope, set())
    data["payload"]["log"] = wire
    decoded = decode_envelope(data, lineage)
    if isinstance(decoded, Unresolved):
        return decoded
    return decoded.payload.log


class TestDelta:
    """A log ships as a known base plus the suffix the receiver lacks."""

    def test_roundtrip_against_a_lineage_store(self):
        known: set[str] = set()
        lineage = LineageStore()
        first = sample_log()
        assert decode_log_wire(encode_log(first, known), lineage) == first
        longer = extend(first, 3)
        wire = over_json(encode_log(longer, known))
        assert wire["base"] == first.tip.block_id and wire["base_len"] == len(first)
        assert len(wire["blocks"]) == 3
        decoded = decode_log_wire(wire, lineage)
        assert decoded.log_id == longer.log_id
        # Every prefix on the way is now a resolvable base.
        for length in range(1, len(longer) + 1):
            assert lineage.by_tip(longer.prefix(length).tip.block_id) is not None

    def test_known_prefix_is_a_base_too(self):
        known: set[str] = set()
        lineage = LineageStore()
        longer = extend(sample_log(), 3)
        decode_log_wire(encode_log(longer, known), lineage)
        wire = encode_log(longer.prefix(4), known)
        assert wire["blocks"] == [] and wire["base_len"] == 4
        assert decode_log_wire(wire, lineage) == longer.prefix(4)

    def test_empty_suffix_resolves_to_the_shared_instance(self):
        known: set[str] = set()
        lineage = LineageStore()
        log = sample_log()
        first = decode_log_wire(encode_log(log, known), lineage)
        again = encode_log(log, known)
        assert again["blocks"] == []
        assert again["base"] == log.tip.block_id and again["base_len"] == len(log)
        assert decode_log_wire(again, lineage) is first

    def test_envelope_roundtrips_as_a_delta(self):
        known: set[str] = set()
        lineage = LineageStore()
        base = sign(LogMessage(ga_key=("tobsvd", 1), log=sample_log()))
        decode_envelope(over_json(encode_envelope(base, known)), lineage)
        original = sign(ProposalMessage(view=4, log=extend(sample_log(), 1), vrf=VRF(seed=0).evaluate(1, 4)))
        wire = over_json(encode_envelope(original, known))
        assert len(wire["payload"]["log"]["blocks"]) == 1
        decoded = decode_envelope(wire, lineage)
        assert decoded.envelope_id == original.envelope_id
        REGISTRY.require_valid(decoded.signature, decoded.payload.digest())

    def test_base_length_mismatch_is_a_codec_error(self):
        known: set[str] = set()
        lineage = LineageStore()
        decode_log_wire(encode_log(sample_log(), known), lineage)
        wire = encode_log(extend(sample_log(), 1), known)
        wire["base_len"] += 1
        with pytest.raises(CodecError):
            decode_log_wire(wire, lineage)

    def test_broken_link_at_the_suffix_boundary_is_a_codec_error(self):
        known: set[str] = set()
        lineage = LineageStore()
        decode_log_wire(encode_log(sample_log(), known), lineage)
        wire = encode_log(extend(sample_log(), 2), known)
        # The first suffix block must extend the base tip.
        wire["blocks"][0]["parent"] = sample_log().prefix(2).tip.block_id
        with pytest.raises(CodecError):
            decode_log_wire(wire, lineage)

    def test_unknown_base_is_unresolved_not_an_error(self):
        known = {sample_log().tip.block_id}  # the sender believes it shipped this
        log = extend(sample_log(), 1)
        envelope = sign(LogMessage(ga_key=("tobsvd", 2), log=log))
        result = decode_envelope(over_json(encode_envelope(envelope, known)), LineageStore())
        assert result == Unresolved(base=sample_log().tip.block_id)

