"""Canonical JSON, envelope signing and stream framing."""

import hashlib
import hmac
import io
import json
import random
import stat
from dataclasses import replace
from enum import IntEnum
from pathlib import Path

import pytest

from powdb import wire
from powdb.wire import (
    EncodingError,
    KeyShare,
    LinkKey,
    MessageEnvelope,
    NodeIdentity,
    ProtocolError,
    QUERY,
    canonical_json,
    decode_envelope,
    deframe,
    frame,
    sign_envelope,
    signing_bytes,
    split_frames,
    verify_envelope,
)

# ---------------------------------------------------------------------------
# Independent Ed25519 verifier (RFC 8032 textbook arithmetic, test-only oracle)
# ---------------------------------------------------------------------------

_P = 2**255 - 19
_L = 2**252 + 27742317777372353535851937790883648493


def _inv(x):
    return pow(x, _P - 2, _P)


_D = -121665 * _inv(121666) % _P
_I = pow(2, (_P - 1) // 4, _P)


def _xrecover(y):
    xx = (y * y - 1) * _inv(_D * y * y + 1)
    x = pow(xx, (_P + 3) // 8, _P)
    if (x * x - xx) % _P != 0:
        x = x * _I % _P
    if x % 2 != 0:
        x = _P - x
    return x


_BY = 4 * _inv(5) % _P
_B = (_xrecover(_BY), _BY)


def _edwards_add(p1, p2):
    x1, y1 = p1
    x2, y2 = p2
    x3 = (x1 * y2 + x2 * y1) * _inv(1 + _D * x1 * x2 * y1 * y2)
    y3 = (y1 * y2 + x1 * x2) * _inv(1 - _D * x1 * x2 * y1 * y2)
    return x3 % _P, y3 % _P


def _scalarmult(point, e):
    q = (0, 1)
    while e:
        if e & 1:
            q = _edwards_add(q, point)
        point = _edwards_add(point, point)
        e >>= 1
    return q


def _decodepoint(raw):
    y = int.from_bytes(raw, "little") & ((1 << 255) - 1)
    x = _xrecover(y)
    if x & 1 != raw[31] >> 7:
        x = _P - x
    if (-x * x + y * y - 1 - _D * x * x * y * y) % _P != 0:
        raise ValueError("point not on curve")
    return x, y


def rfc8032_verify(signature: bytes, message: bytes, public_key: bytes) -> bool:
    r_point = _decodepoint(signature[:32])
    a_point = _decodepoint(public_key)
    s = int.from_bytes(signature[32:], "little")
    if s >= _L:
        return False
    h = int.from_bytes(
        hashlib.sha512(signature[:32] + public_key + message).digest(), "little") % _L
    return _scalarmult(_B, s) == _edwards_add(r_point, _scalarmult(a_point, h))


# ---------------------------------------------------------------------------


class TestCanonicalJson:
    def test_key_sort(self):
        assert canonical_json({"b": 1, "a": 2}) == b'{"a":2,"b":1}'

    def test_empty_list(self):
        assert canonical_json([]) == b"[]"

    def test_nested_sort(self):
        assert canonical_json({"x": {"b": [1, 2], "a": 0}}) == b'{"x":{"a":0,"b":[1,2]}}'

    def test_fixed_point(self):
        rng = random.Random(8)

        def random_value(depth=0):
            choice = rng.randrange(6 if depth < 3 else 4)
            if choice == 0:
                return rng.randrange(-10**12, 10**12)
            if choice == 1:
                return "".join(rng.choice('ab"\\\n\té ¢') for _ in range(rng.randrange(6)))
            if choice == 2:
                return rng.choice([True, False])
            if choice == 3:
                return None
            if choice == 4:
                return [random_value(depth + 1) for _ in range(rng.randrange(4))]
            return {f"k{rng.randrange(9)}": random_value(depth + 1)
                    for _ in range(rng.randrange(4))}

        for _ in range(200):
            value = random_value()
            once = canonical_json(value)
            again = canonical_json(json.loads(once.decode("utf-8")))
            assert once == again

    def test_floats_rejected(self):
        with pytest.raises(EncodingError):
            canonical_json({"x": 1.5})
        with pytest.raises(EncodingError):
            canonical_json([5.0])

    def test_non_string_keys_rejected(self):
        with pytest.raises(EncodingError):
            canonical_json({1: "a"})

    def test_unicode_kept_raw(self):
        assert canonical_json({"k": "é"}) == '{"k":"é"}'.encode("utf-8")

    def test_lone_surrogate_keeps_its_escape(self):
        # JSON text can carry one, and what it decodes to must re-encode
        value = json.loads(b'{"k\\udfff":"a\\ud800b"}')
        assert canonical_json(value) == b'{"k\\udfff":"a\\ud800b"}'
        assert json.loads(canonical_json(value)) == value


class _Level(IntEnum):
    LOW = 1


def _reference_canonical_json(value) -> bytes:
    """The full-walk encoder: path-tracking check, then the dump."""
    wire._check_canonical(value)
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


def _outcome(encode, value):
    try:
        return "ok", encode(value)
    except EncodingError as exc:
        return type(exc), str(exc)


class TestCanonicalFastPath:
    """The fast pre-check never changes a result, an error type or a message."""

    @pytest.mark.parametrize("value", [
        {"a": [1, {"b": 2.5}]},
        {"a": {1: "x"}},
        {"a": {True: "x"}},
        {"a": {_Level.LOW: "x"}},
        {"a": (1, 2)},
        {"a": {1, 2}},
        {"a": [_Level.LOW]},
        {"é": ["ü", None, True, -2**70, {"z": {}, "y": []}]},
    ], ids=["nested-float", "int-key", "bool-key", "intenum-key", "tuple", "set",
            "intenum-value", "plain"])
    def test_same_outcome_as_full_walk(self, value):
        assert _outcome(canonical_json, value) == _outcome(_reference_canonical_json, value)

    def test_errors_name_the_path(self):
        with pytest.raises(EncodingError, match=r"non-integer number at \$\.a\[1\]\.b: 2\.5"):
            canonical_json({"a": [1, {"b": 2.5}]})


class TestEncodeReusesSignedBytes:
    """encode() splices the signed payload bytes and must equal the full encoding."""

    PAYLOADS = [
        {},
        {"block": {"index": 1, "data": "naïve ✓ \u2028 \"quoted\" \\", "nonce": 2**63}},
        {"blocks": [{"a": [1, [2, [3, None]]], "b": {"c": {"d": True}}}] * 3},
        {"what": "chain", "params": {"ключ": "値", "empty": [], "neg": -7}},
        {"what": "lone \ud800 surrogate"},
        {"what": "100% \"done\" %s %b %d"},
    ]

    def setup_method(self):
        self.identity = NodeIdentity.from_seed(b"\x11" * 32)

    @pytest.mark.parametrize("payload", PAYLOADS)
    def test_signed_decoded_and_hand_built_envelopes(self, payload):
        # signed, and tagged as a link's frame
        for key, counter in ((None, None), (LinkKey(b"\x22" * 32), 2**63)):
            env = sign_envelope("QUERY", 1234, payload, self.identity, key, counter)
            raw = env.encode()
            assert raw == canonical_json(env.to_json())
            decoded = decode_envelope(raw)
            assert decoded == env
            assert decoded.encode() == raw
            assert verify_envelope(decoded, key)
            hand_built = MessageEnvelope(env.sender, env.kind, env.timestamp, env.payload,
                                         env.signature, env.counter)
            assert hand_built.encode() == raw
            # a broadcast hands its one encoding of the payload to every link
            assert sign_envelope("QUERY", 1234, payload, self.identity, key, counter,
                                 canonical_json(payload)).encode() == raw

    def test_replaced_envelope_carries_no_stale_bytes(self):
        env = sign_envelope("TX", 5, {"tx": {"kind": "raw", "data": "é"}}, self.identity)
        for tampered in (replace(env, payload={"tx": {"kind": "raw", "data": "e"}}),
                         replace(env, signature="00" * 64),
                         replace(env, timestamp=6),
                         replace(env, kind="QUERY"),
                         MessageEnvelope(env.sender, env.kind, True, env.payload,
                                         env.signature)):
            assert tampered.encode() == canonical_json(tampered.to_json())
            assert tampered.encode() != env.encode()


class TestSigning:
    def setup_method(self):
        self.identity = NodeIdentity.from_seed(bytes(range(32)))

    def test_signing_bytes_layout(self):
        assert signing_bytes(QUERY, 0, {}) == b"QUERY\x1f0\x1f{}"

    def test_payload_key_order_irrelevant(self):
        a = signing_bytes("QUERY", 5, {"b": 1, "a": 2})
        b = signing_bytes("QUERY", 5, {"a": 2, "b": 1})
        assert a == b

    def test_kind_changes_bytes(self):
        assert signing_bytes("QUERY", 0, {}) != signing_bytes("RESPONSE", 0, {})

    def test_sign_then_verify(self):
        env = sign_envelope(QUERY, 12, {}, self.identity)
        assert env.sender == self.identity.node_id
        assert verify_envelope(env)

    def test_deterministic_signatures(self):
        env1 = sign_envelope(QUERY, 12, {"a": 1}, self.identity)
        env2 = sign_envelope(QUERY, 12, {"a": 1}, self.identity)
        assert env1.signature == env2.signature

    def test_cross_check_with_independent_verifier(self):
        for ts, payload in [(0, {}), (42, {"blocks": [1, 2, 3]}),
                            (9, {"nested": {"a": None, "b": "é"}})]:
            env = sign_envelope("QUERY", ts, payload, self.identity)
            assert rfc8032_verify(bytes.fromhex(env.signature),
                                  signing_bytes(env.kind, env.timestamp, env.payload),
                                  bytes.fromhex(env.sender))
        # and the oracle agrees on rejection
        env = sign_envelope("QUERY", 1, {"k": 1}, self.identity)
        assert not rfc8032_verify(bytes.fromhex(env.signature),
                                  signing_bytes(env.kind, env.timestamp, {"k": 2}),
                                  bytes.fromhex(env.sender))

    def test_payload_tamper_detected(self):
        env = sign_envelope("TX", 3, {"tx": {"kind": "raw", "data": "hi"}}, self.identity)
        tampered = MessageEnvelope(env.sender, env.kind, env.timestamp,
                                   {"tx": {"kind": "raw", "data": "hI"}}, env.signature)
        assert not verify_envelope(tampered)

    def test_sender_swap_detected(self):
        other = NodeIdentity.from_seed(bytes(reversed(range(32))))
        env = sign_envelope("QUERY", 3, {}, self.identity)
        swapped = MessageEnvelope(other.node_id, env.kind, env.timestamp,
                                  env.payload, env.signature)
        assert not verify_envelope(swapped)

    def test_malformed_hex_is_failure_not_crash(self):
        env = sign_envelope("QUERY", 3, {}, self.identity)
        assert not verify_envelope(MessageEnvelope("zz", env.kind, env.timestamp,
                                                   env.payload, env.signature))
        assert not verify_envelope(MessageEnvelope(env.sender, env.kind, env.timestamp,
                                                   env.payload, "nothex"))

    def test_too_deep_payload_is_failure_not_crash(self):
        env = sign_envelope("QUERY", 3, {}, self.identity)
        payload = []
        for _ in range(5000):
            payload = [payload]
        assert not verify_envelope(MessageEnvelope(env.sender, env.kind, env.timestamp,
                                                   payload, env.signature))

    def test_identity_file_round_trip(self, tmp_path):
        path = tmp_path / "node.key"
        first = NodeIdentity.load_or_create(path)
        second = NodeIdentity.load_or_create(path)
        assert first.node_id == second.node_id
        assert len(first.node_id) == 64

    def test_new_key_file_is_owner_only_from_the_start(self, tmp_path, monkeypatch):
        # no later chmod: the file is never readable by others, not even briefly
        def no_chmod(*_args, **_kwargs):
            raise AssertionError("the key file was created with a wider mode")

        monkeypatch.setattr(Path, "chmod", no_chmod)
        path = tmp_path / "node.key"
        created = NodeIdentity.load_or_create(path)
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert NodeIdentity.load_or_create(path).node_id == created.node_id

    def test_private_key_never_in_envelope(self):
        env = sign_envelope("GET_BLOCKS", 1, {"locator": [], "node_id": self.identity.node_id},
                            self.identity)
        blob = env.encode().decode("utf-8")
        assert bytes(range(32)).hex() not in blob


class TestLinkKeys:
    """The handshake's key derivation, and the tags made with its keys."""

    DIALER, LISTENER = (NodeIdentity.from_seed(bytes([i]) * 32).node_id for i in (1, 2))

    @staticmethod
    def share(seed):
        return KeyShare(random.Random(seed).randbytes)

    def pair(self, dialer_seed=1, listener_seed=2):
        dialer, listener = self.share(dialer_seed), self.share(listener_seed)
        d_hello, l_hello = dialer.hello(), listener.hello()
        return (dialer.link_keys(d_hello, l_hello, self.DIALER, self.LISTENER, dialer=True),
                listener.link_keys(l_hello, d_hello, self.LISTENER, self.DIALER, dialer=False))

    @staticmethod
    def tag(key, counter=1, message=b"m"):
        return key.tag(counter, message)

    def test_each_direction_has_one_key_both_ends_share(self):
        (d_send, d_recv), (l_send, l_recv) = self.pair()
        assert self.tag(d_send) == self.tag(l_recv)
        assert self.tag(l_send) == self.tag(d_recv)
        assert self.tag(d_send) != self.tag(l_send)

    def test_keys_bind_the_keys_the_nonces_and_the_node_ids(self):
        # a node keeps one key for all its links: each link's nonces make
        # its keys its own
        dialer, listener, other = self.share(1), self.share(2), self.share(3)
        d_hello, l_hello = dialer.hello(), listener.hello()
        other_id = NodeIdentity.from_seed(b"\x09" * 32).node_id

        def send_key(share, own, peer, listener_id=self.LISTENER):
            return share.link_keys(own, peer, self.DIALER, listener_id, dialer=True)[0]

        assert d_hello["key"] == dialer.hello()["key"] != l_hello["key"]
        tags = {self.tag(send_key(dialer, d_hello, l_hello)),
                self.tag(send_key(other, d_hello, l_hello)),  # another key, the same nonce
                self.tag(send_key(dialer, dialer.hello(), l_hello)),  # a new nonce here
                self.tag(send_key(dialer, d_hello, listener.hello())),  # and there
                self.tag(send_key(dialer, d_hello, l_hello, other_id))}  # another peer
        assert len(tags) == 5

    KEY = KeyShare(random.Random(2).randbytes).public
    BAD_HELLOS = {
        "none": None,
        "not-a-dict": ["00" * 32, "00" * 16],
        "key-missing": {"nonce": "ab" * 16},
        "key-int": {"key": 5, "nonce": "ab" * 16},
        "key-31-bytes": {"key": "ab" * 31, "nonce": "ab" * 16},
        "key-not-hex": {"key": "zz" * 32, "nonce": "ab" * 16},
        "low-order-point": {"key": "00" * 32, "nonce": "ab" * 16},
        "nonce-missing": {"key": KEY},
        "nonce-int": {"key": KEY, "nonce": 5},
        "nonce-15-bytes": {"key": KEY, "nonce": "ab" * 15},
        "nonce-not-hex": {"key": KEY, "nonce": "zz" * 16},
    }

    @pytest.mark.parametrize("peer", BAD_HELLOS.values(), ids=BAD_HELLOS.keys())
    def test_malformed_share_gives_no_keys(self, peer):
        share = self.share(1)
        assert share.link_keys(share.hello(), peer, self.DIALER, self.LISTENER, True) is None
        good = {"key": self.KEY, "nonce": "ab" * 16}
        assert share.link_keys(share.hello(), good, self.DIALER, self.LISTENER, True)

    def test_tag_is_hmac_sha256_over_the_counter_and_preimage(self):
        raw = bytes(range(32))
        preimage = signing_bytes("NEW_BLOCK", 5, {"block": 1})
        expected = hmac.digest(raw, b"17\x1f" + preimage, "sha256").hex()
        assert LinkKey(raw).tag(17, preimage) == expected

    def test_any_change_to_a_tagged_envelope_fails_its_check(self):
        (send, other), (_, recv) = self.pair()
        identity = NodeIdentity.from_seed(b"\x01" * 32)
        env = sign_envelope("NEW_BLOCK", 5, {"block": {"index": 1}}, identity, send, 3)
        assert verify_envelope(env, recv)
        for changed in (replace(env, counter=4), replace(env, counter=None),
                        replace(env, timestamp=6), replace(env, kind="BLOCKS"),
                        replace(env, payload={"block": {"index": 2}}),
                        replace(env, signature="é" + env.signature[1:]),
                        replace(env, signature=env.signature[:-2])):
            assert not verify_envelope(changed, recv)
        assert not verify_envelope(env, other)  # the other direction's key
        assert not verify_envelope(env)  # a tag is no signature

    def test_decode_keeps_the_counter_and_refuses_a_bad_one(self):
        (send, _), _ = self.pair()
        env = sign_envelope("QUERY", 1, {}, NodeIdentity.from_seed(b"\x01" * 32), send, 9)
        assert decode_envelope(env.encode()).counter == 9
        for counter in (None, True, "9", 9.0):
            obj = env.to_json()
            obj["counter"] = counter
            assert decode_envelope(json.dumps(obj).encode()) is None


class TestFraming:
    def test_header_layout(self):
        assert frame(b"hello") == b"\x00\x00\x00\x05hello"

    def test_round_trip_random_payloads(self):
        rng = random.Random(13)
        for _ in range(100):
            payload = bytes(rng.randrange(256) for _ in range(rng.randrange(200)))
            stream = io.BytesIO(frame(payload))
            assert deframe(stream.read) == payload

    def test_multiple_frames_in_sequence(self):
        stream = io.BytesIO(frame(b"one") + frame(b"two") + frame(b""))
        assert deframe(stream.read) == b"one"
        assert deframe(stream.read) == b"two"
        assert deframe(stream.read) == b""
        assert deframe(stream.read) is None

    def test_oversized_declared_length_rejected(self):
        stream = io.BytesIO((2**30).to_bytes(4, "big") + b"x")
        with pytest.raises(ProtocolError):
            deframe(stream.read)

    def test_truncated_body_rejected(self):
        stream = io.BytesIO(b"\x00\x00\x00\x0ashort")
        with pytest.raises(ProtocolError):
            deframe(stream.read)

    def test_truncated_header_rejected(self):
        stream = io.BytesIO(b"\x00\x00")
        with pytest.raises(ProtocolError):
            deframe(stream.read)

    def test_oversized_outbound_rejected(self):
        with pytest.raises(ProtocolError):
            frame(b"x" * (16 * 1024 * 1024 + 1))


class TestSplitFrames:
    def test_one_byte_at_a_time_yields_each_message_once(self):
        messages = [b"one", b"", b"three" * 50]
        stream = b"".join(frame(m) for m in messages)
        buffer, got = bytearray(), []
        for i in range(len(stream)):
            buffer += stream[i:i + 1]
            got += split_frames(buffer)
        assert got == messages and buffer == b""

    def test_three_frames_in_one_chunk(self):
        buffer = bytearray(frame(b"a") + frame(b"") + frame(b"bc"))
        assert split_frames(buffer) == [b"a", b"", b"bc"]
        assert buffer == b""

    @pytest.mark.parametrize("tail", [b"\x00\x00", b"\x00\x00\x00\x05abc"],
                             ids=["partial-header", "partial-body"])
    def test_trailing_partial_frame_stays(self, tail):
        buffer = bytearray(frame(b"whole") + tail)
        assert split_frames(buffer) == [b"whole"]
        assert buffer == tail
        assert split_frames(buffer) == [] and buffer == tail

    def test_oversized_declared_length_raises_before_the_body(self):
        buffer = bytearray((wire.MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        with pytest.raises(ProtocolError):
            split_frames(buffer)
        # a declared length at the cap waits for its body instead
        assert split_frames(bytearray(wire.MAX_FRAME_BYTES.to_bytes(4, "big"))) == []


class TestEnvelopeRoundTrip:
    def test_wire_round_trip_preserves_signature(self):
        identity = NodeIdentity.from_seed(b"\x07" * 32)
        env = sign_envelope("NEW_BLOCK", 777, {"block": {"index": 1}}, identity)
        stream = io.BytesIO(frame(env.encode()))
        raw = deframe(stream.read)
        parsed = decode_envelope(raw)
        assert parsed == env
        assert verify_envelope(parsed)

    def test_decode_rejects_bad_shapes(self):
        assert decode_envelope(b"not json") is None
        assert decode_envelope(b"[1,2]") is None
        assert decode_envelope(b'{"sender":"a"}') is None
        good = sign_envelope("QUERY", 1, {}, NodeIdentity.from_seed(b"\x01" * 32))
        for kind in ("NOPE", [1], {"a": 1}):
            obj = good.to_json()
            obj["kind"] = kind
            assert decode_envelope(json.dumps(obj).encode()) is None
        obj = good.to_json()
        obj["timestamp"] = "12"
        assert decode_envelope(json.dumps(obj).encode()) is None
