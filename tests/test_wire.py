"""Canonical JSON, envelope signing and stream framing."""

import hashlib
import hmac
import io
import json
import random
import re
import stat
from dataclasses import FrozenInstanceError, replace
from enum import IntEnum
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

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
    split_frames,
    tag_frames,
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


def preimage(kind, timestamp, payload) -> bytes:
    """What a signature covers, built here from its layout: kind,
    timestamp and canonical payload, split by 0x1f."""
    return b"\x1f".join([kind.encode(), str(timestamp).encode(), canonical_json(payload)])


# each kind's one-byte code on the wire
CODES = {"NEW_BLOCK": 1, "GET_BLOCKS": 2, "BLOCKS": 3, "TX": 4, "QUERY": 5, "RESPONSE": 6}


def frame_by_hand(code, counter, timestamp, sender: bytes, signature: bytes, body: bytes) -> bytes:
    """A frame built here from the header's description, not from
    wire.HEADER: the kind's code (1 byte), the counter + 1 (8 bytes, 0 for
    none), the timestamp (8, signed) and the sender's key (32), all
    big-endian, then the signature's length (1), the signature and the
    payload's bytes."""
    return (bytes([code]) + (0 if counter is None else counter + 1).to_bytes(8, "big")
            + timestamp.to_bytes(8, "big", signed=True) + sender + bytes([len(signature)])
            + signature + body)


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
        key = LinkKey(b"\x22" * 32)
        signed = sign_envelope("QUERY", 1234, payload, self.identity)
        [tagged] = tag_frames("QUERY", 1234, payload, self.identity.node_id, [(key, 2**63)])
        assert decode_envelope(signed.encode()) == signed
        for raw, check_key, counter in ((signed.encode(), None, None), (tagged, key, 2**63)):
            decoded = decode_envelope(raw)
            assert decoded.payload == payload
            assert (decoded.sender, decoded.kind, decoded.timestamp, decoded.counter,
                    decoded.body) == (self.identity.node_id, "QUERY", 1234, counter,
                                      canonical_json(payload))
            assert decoded.encode() == raw
            assert verify_envelope(decoded, check_key)
            # the frame built by hand from its decoded form
            assert frame_by_hand(CODES["QUERY"], decoded.counter, decoded.timestamp,
                                 self.identity.public_bytes, decoded.signature,
                                 canonical_json(decoded.payload)) == raw
        # a broadcast hands its one encoding of the payload to every link,
        # and each link's frame is the one it would get alone
        other = LinkKey(b"\x33" * 32)
        assert tag_frames("QUERY", 1234, payload, self.identity.node_id,
                          [(other, 1), (key, 2**63)])[1] == tagged

    def test_envelope_is_a_frozen_record(self):
        env = sign_envelope("TX", 5, {"tx": {"kind": "raw", "data": "x"}}, self.identity)
        with pytest.raises(FrozenInstanceError):
            env.kind = "QUERY"
        with pytest.raises(FrozenInstanceError):
            env.counter = 3
        twin = MessageEnvelope(env.sender, env.kind, env.timestamp, env.body, env.signature)
        assert twin == env and hash(twin) == hash(env) and twin.counter is None
        assert twin.payload == env.payload  # read from `body`
        assert replace(env, counter=4) != env
        assert replace(env, counter=4) == MessageEnvelope(
            sender=env.sender, kind=env.kind, timestamp=env.timestamp, body=env.body,
            signature=env.signature, counter=4)

    def test_replaced_envelope_carries_no_stale_bytes(self):
        # an envelope's payload is the value its bytes hold: no envelope can
        # be built, or replaced, with a payload apart from them
        env = sign_envelope("TX", 5, {"tx": {"kind": "raw", "data": "é"}}, self.identity)
        other = {"tx": {"kind": "raw", "data": "e"}}
        with pytest.raises(TypeError):
            replace(env, payload=other)
        with pytest.raises(TypeError):
            MessageEnvelope(env.sender, env.kind, env.timestamp, env.body, env.signature,
                            payload=other)
        assert replace(env, body=canonical_json(other)).payload == other
        # changed bytes are read as a peer reads them, and fail the check
        tampered = decode_envelope(env.encode().replace("é".encode(), b"e"))
        assert tampered.payload == other and tampered.body == canonical_json(other)
        assert not verify_envelope(tampered)


class TestSigning:
    def setup_method(self):
        self.identity = NodeIdentity.from_seed(bytes(range(32)))

    def test_signing_bytes_layout(self):
        env = sign_envelope(QUERY, 0, {}, self.identity)
        public = Ed25519PublicKey.from_public_bytes(self.identity.public_bytes)
        assert len(env.signature) == wire.SIGNATURE_BYTES
        public.verify(env.signature, b"QUERY\x1f0\x1f{}")

    def test_payload_key_order_irrelevant(self):
        a = sign_envelope("QUERY", 5, {"b": 1, "a": 2}, self.identity)
        b = sign_envelope("QUERY", 5, {"a": 2, "b": 1}, self.identity)
        assert a.encode() == b.encode()

    def test_kind_changes_bytes(self):
        assert (sign_envelope("QUERY", 0, {}, self.identity).signature
                != sign_envelope("RESPONSE", 0, {}, self.identity).signature)

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
            assert rfc8032_verify(env.signature,
                                  preimage(env.kind, env.timestamp, payload),
                                  bytes.fromhex(env.sender))
        # and the oracle agrees on rejection
        env = sign_envelope("QUERY", 1, {"k": 1}, self.identity)
        assert not rfc8032_verify(env.signature,
                                  preimage(env.kind, env.timestamp, {"k": 2}),
                                  bytes.fromhex(env.sender))

    def test_payload_tamper_detected(self):
        env = sign_envelope("TX", 3, {"tx": {"kind": "raw", "data": "hi"}}, self.identity)
        tampered = decode_envelope(env.encode().replace(b'"hi"', b'"hI"'))
        assert tampered.payload == {"tx": {"kind": "raw", "data": "hI"}}
        assert not verify_envelope(tampered)

    def test_sender_swap_detected(self):
        other = NodeIdentity.from_seed(bytes(reversed(range(32))))
        env = sign_envelope("QUERY", 3, {}, self.identity)
        swapped = decode_envelope(env.encode().replace(self.identity.public_bytes,
                                                       other.public_bytes))
        assert swapped.sender == other.node_id
        assert not verify_envelope(swapped)

    def test_malformed_hex_is_failure_not_crash(self):
        # a sender that is no hex key, or a signature of the wrong length, in
        # an envelope built by hand: the check fails and raises nothing
        env = sign_envelope("QUERY", 3, {}, self.identity)
        for field, bad in (("sender", "zz"), ("sender", "é" * 32), ("sender", "ab" * 31),
                           ("signature", b"ab"), ("signature", env.signature[:32]),
                           ("signature", b"")):
            assert not verify_envelope(replace(env, **{field: bad}))
        # a frame carries any 32 bytes as its sender's key
        decoded = decode_envelope(env.encode().replace(self.identity.public_bytes, b"\xff" * 32))
        assert decoded.sender == "ff" * 32
        assert not verify_envelope(decoded)

    def test_too_deep_payload_is_failure_not_crash(self):
        raw = sign_envelope("QUERY", 3, {}, self.identity).encode()
        deep = b"[" * 5000 + b"]" * 5000
        decoded = decode_envelope(raw.replace(b"{}", deep))
        assert decoded.body == deep and not verify_envelope(decoded)
        with pytest.raises(EncodingError):
            decoded.payload

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
        blob = env.encode()
        assert bytes(range(32)) not in blob and bytes(range(32)).hex().encode() not in blob


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
        expected = hmac.digest(raw, b'17\x1fNEW_BLOCK\x1f5\x1f{"block":1}', "sha256")
        [frame_bytes] = tag_frames("NEW_BLOCK", 5, {"block": 1},
                                   NodeIdentity.from_seed(b"\x01" * 32).node_id,
                                   [(LinkKey(raw), 17)])
        assert decode_envelope(frame_bytes).signature == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_tag_equals_hmac_for_any_key_counter_and_preimage(self, seed):
        # the kept inner and outer states give HMAC-SHA256's digest; a key
        # over SHA-256's 64-byte block is hashed first, as HMAC does
        rng = random.Random(seed)
        counters = [0, 1, 2**63 - 1] + [rng.randrange(2**63) for _ in range(3)]
        lengths = [0, 1, 63, 64, 65, 64 * 1024] + [rng.randrange(64 * 1024) for _ in range(4)]

        def check(key, counter, preimage):
            expected = hmac.digest(key, b"%d\x1f" % counter + preimage, "sha256")
            assert LinkKey(key).tag(counter, preimage) == expected

        for key_len in [*range(65), 65, 100, 200]:
            check(rng.randbytes(key_len), rng.choice(counters), rng.randbytes(rng.choice(lengths)))
        key = rng.randbytes(32)  # a link key's length, with every counter and length
        for counter in counters:
            for length in lengths:
                check(key, counter, rng.randbytes(length))

    def test_any_change_to_a_tagged_envelope_fails_its_check(self):
        (send, other), (_, recv) = self.pair()
        identity = NodeIdentity.from_seed(b"\x01" * 32)
        [raw] = tag_frames("NEW_BLOCK", 5, {"block": {"index": 1}}, identity.node_id, [(send, 3)])
        env = decode_envelope(raw)
        sender, tag, body = identity.public_bytes, env.signature, env.body
        assert frame_by_hand(CODES["NEW_BLOCK"], 3, 5, sender, tag, body) == raw
        assert verify_envelope(decode_envelope(raw), recv)
        for changed in (frame_by_hand(CODES["NEW_BLOCK"], 4, 5, sender, tag, body),
                        frame_by_hand(CODES["NEW_BLOCK"], None, 5, sender, tag, body),
                        frame_by_hand(CODES["NEW_BLOCK"], 3, 6, sender, tag, body),
                        frame_by_hand(CODES["BLOCKS"], 3, 5, sender, tag, body),
                        frame_by_hand(CODES["NEW_BLOCK"], 3, 5, sender, tag,
                                      body.replace(b'"index":1', b'"index":2')),
                        frame_by_hand(CODES["NEW_BLOCK"], 3, 5, sender,
                                      bytes([tag[0] ^ 1]) + tag[1:], body),
                        frame_by_hand(CODES["NEW_BLOCK"], 3, 5, sender, tag + tag, body)):
            assert changed != raw
            assert not verify_envelope(decode_envelope(changed), recv)
        assert not verify_envelope(env, other)  # the other direction's key
        assert not verify_envelope(env)  # a tag is no signature

    def test_decode_keeps_the_counter_and_refuses_a_bad_one(self):
        (send, _), _ = self.pair()
        [raw] = tag_frames("QUERY", 1, {}, NodeIdentity.from_seed(b"\x01" * 32).node_id,
                           [(send, 9)])
        assert decode_envelope(raw).counter == 9
        # the counter field holds counter + 1: 0 for a frame with none, and
        # its top value for the highest counter
        for field, counter in ((0, None), (1, 0), (2**64 - 1, 2**64 - 2)):
            assert decode_envelope(raw[:1] + field.to_bytes(8, "big") + raw[9:]).counter == counter
        # a frame cut short in its counter is refused (TestHeader cuts it anywhere)
        assert decode_envelope(raw[:5]) is None


class TestTagFrames:
    """tag_frames, the one maker of tagged frames."""

    PAYLOAD = {"block": {"index": 1, "data": "naïve"}, "have": ["0123abcd"]}

    def test_bytes_are_pinned(self):
        # the frame for a fixed key, counter, timestamp and payload, byte for
        # byte as the layout and the tag were first written
        sender = NodeIdentity.from_seed(b"\x44" * 32).node_id
        [raw] = tag_frames("NEW_BLOCK", 1700000000123, self.PAYLOAD, sender,
                           [(LinkKey(b"\x55" * 32), 41)])
        assert raw == bytes.fromhex(
            "01"  # NEW_BLOCK
            "000000000000002a"  # counter 41, + 1
            "0000018bcfe5687b"  # the timestamp
            "d759793bbc13a2819a827c76adb6fba8a49aee007f49f2d0992d99b825ad2c48"  # the sender
            "20"  # the tag's length, 32
            "54b8355893cf577178f79436431116d5ca0726926673d995750d0e931d7b1432"  # the tag
        ) + b'{"block":{"data":"na\xc3\xafve","index":1},"have":["0123abcd"]}'

    def test_each_link_gets_its_own_tag_and_counter(self):
        # one payload for three links: every frame decodes to the same
        # payload bytes and checks under its own receiving key only
        pairs = [TestLinkKeys().pair(seed, seed + 10) for seed in range(3)]
        sender = NodeIdentity.from_seed(b"\x01" * 32).node_id
        counters = [1, 7, 2**63 - 1]
        raws = tag_frames("NEW_BLOCK", 9, self.PAYLOAD, sender,
                          [(dialer[0], counter) for (dialer, _), counter in zip(pairs, counters)])
        assert len(raws) == 3 and len(set(raws)) == 3
        for i, raw in enumerate(raws):
            env = decode_envelope(raw)
            assert env.counter == counters[i] and env.body == canonical_json(self.PAYLOAD)
            assert (env.sender, env.kind, env.timestamp) == (sender, "NEW_BLOCK", 9)
            assert [verify_envelope(env, listener[1]) for _, listener in pairs] \
                == [j == i for j in range(3)]
        assert tag_frames("NEW_BLOCK", 9, self.PAYLOAD, sender, []) == []

    def test_unknown_kind_is_refused_by_both_makers(self):
        identity = NodeIdentity.from_seed(b"\x01" * 32)
        with pytest.raises(EncodingError):
            tag_frames("NOPE", 1, {}, identity.node_id, [(LinkKey(b"\x22" * 32), 1)])
        with pytest.raises(EncodingError):
            sign_envelope("NOPE", 1, {}, identity)


def parse_holders_per_entry(payload) -> list[str]:
    """The reference holder-list check: one fullmatch per entry."""
    have = payload.get("have") if isinstance(payload, dict) else None
    if (isinstance(have, list) and len(have) <= wire.MAX_HOLDERS
            and all(type(h) is str and re.fullmatch("[0-9a-f]{8}", h) for h in have)):
        return have
    return []


class TestParseHolders:
    """parse_holders checks a whole list at once and returns what the
    per-entry check returns."""

    IDS = [f"{i:08x}" for i in range(wire.MAX_HOLDERS + 1)]
    LISTS = {
        "empty": [],
        "one": IDS[:1],
        "full": IDS[:wire.MAX_HOLDERS],
        "over-the-cap": IDS,
        "seven-digits": IDS[:2] + ["abcdef0"],
        "nine-digits": ["abcdef012"] + IDS[:2],
        "seven-then-nine": ["abcdef0", "123456789"],
        "uppercase": IDS[:1] + ["ABCDEF01"],
        "comma-inside": ["01234567,89abcdef"],
        "comma-at-an-end": ["0123456,", "89abcdef"],
        "two-commas": ["01234567,", ",89abcdef"],
        "newline-inside": ["01234567\n89abcdef"],
        "newline-at-the-end": IDS[:1] + ["89abcdef\n"],
        "int": IDS[:1] + [12345678],
        "none": [None],
        "nested-list": [IDS[:1]],
    }

    @pytest.mark.parametrize("have", LISTS.values(), ids=LISTS.keys())
    def test_result_equals_the_per_entry_check(self, have):
        payload = {"block": {}, "have": have}
        assert wire.parse_holders(payload) == parse_holders_per_entry(payload)

    def test_accepts_up_to_max_holders_and_refuses_the_rest(self):
        accepted = {name for name, have in self.LISTS.items()
                    if wire.parse_holders({"have": have}) == have}
        assert accepted == {"empty", "one", "full"}

    @pytest.mark.parametrize("payload", [None, [], {}, {"have": "01234567"},
                                         {"have": None}, {"have": {"01234567": 1}}])
    def test_no_list_names_no_holder(self, payload):
        assert wire.parse_holders(payload) == parse_holders_per_entry(payload) == []


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
        # the JSON layout of a frame, with a kind or a timestamp of each type
        for field, value in (("kind", "QUERY"), ("kind", "NOPE"), ("kind", [1]),
                             ("kind", {"a": 1}), ("timestamp", "12")):
            obj = {"kind": "QUERY", "payload": {}, "sender": good.sender,
                   "signature": good.signature.hex(), "timestamp": 1, field: value}
            assert decode_envelope(canonical_json(obj)) is None


class TestHeader:
    """The fixed header decode_envelope reads, and the ranges its fields
    keep: no frame is read past a header it cannot hold, and no maker packs
    a value out of its field's range."""

    def setup_method(self):
        self.identity = NodeIdentity.from_seed(b"\x05" * 32)
        self.key = LinkKey(b"\x22" * 32)
        self.signed = sign_envelope(QUERY, 1, {}, self.identity)
        [self.tagged] = tag_frames(QUERY, 1, {}, self.identity.node_id, [(self.key, 1)])

    def test_fifty_bytes_in_network_order_with_one_code_per_kind(self):
        assert (wire.HEADER.format, wire.HEADER.size) == (">BQq32sB", 50)
        assert {kind: code for code, kind in enumerate(wire.KINDS, 1)} == CODES

    def test_truncated_header_or_signature_is_refused(self):
        for raw in (self.signed.encode(), self.tagged):
            end = wire.HEADER.size + raw[wire.HEADER.size - 1]  # where the payload starts
            for cut in range(end):  # the header cut short, or a tag that runs past the frame
                assert decode_envelope(raw[:cut]) is None
            # no payload at all: the header decodes, and the payload reads as nothing
            empty = decode_envelope(raw[:end])
            assert empty.body == b"" and decode_envelope(raw).body == b"{}"
            with pytest.raises(EncodingError):
                empty.payload

    @pytest.mark.parametrize("code", [0, 7, ord("{"), 255])
    def test_unknown_kind_code_is_refused(self, code):
        for raw in (self.signed.encode(), self.tagged):
            assert decode_envelope(bytes([code]) + raw[1:]) is None

    @pytest.mark.parametrize("length", [0, 1, 31, 33, 63, 65, 255])
    def test_signature_length_other_than_a_tag_or_a_signature_is_refused(self, length):
        at = wire.HEADER.size - 1
        for raw in (self.signed.encode(), self.tagged):
            padded = raw[:at] + bytes([length]) + raw[at + 1:] + bytes(255)
            assert decode_envelope(padded) is None

    def test_out_of_range_timestamp_or_counter_raises_encoding_error(self):
        # EncodingError, which every maker raises, and never struct.error
        node_id = self.identity.node_id
        for timestamp in (2**63, -2**63 - 1, 2**100):
            with pytest.raises(EncodingError):
                sign_envelope(QUERY, timestamp, {}, self.identity)
            with pytest.raises(EncodingError):
                tag_frames(QUERY, timestamp, {}, node_id, [(self.key, 1)])
            with pytest.raises(EncodingError):
                replace(self.signed, timestamp=timestamp).encode()
        for counter in (-1, -2, 2**64 - 1, 2**100):
            with pytest.raises(EncodingError):
                tag_frames(QUERY, 1, {}, node_id, [(self.key, 1), (self.key, counter)])
            with pytest.raises(EncodingError):
                replace(self.signed, counter=counter).encode()
        # each field's limits pack and read back
        for timestamp in (2**63 - 1, -2**63):
            raw = sign_envelope(QUERY, timestamp, {}, self.identity).encode()
            assert decode_envelope(raw).timestamp == timestamp
        [raw] = tag_frames(QUERY, 1, {}, node_id, [(self.key, 2**64 - 2)])
        assert decode_envelope(raw).counter == 2**64 - 2
        assert verify_envelope(decode_envelope(raw), self.key)


class TestOneLayout:
    """decode_envelope accepts only the layout encode() writes, and a decoded
    envelope is checked over its payload bytes as they arrived."""

    def setup_method(self):
        self.identity = NodeIdentity.from_seed(b"\x33" * 32)

    def test_any_other_layout_of_the_same_value_is_refused(self):
        # refused as it is decoded, or by its check
        key = LinkKey(b"\x22" * 32)
        [raw] = tag_frames("QUERY", 7, {"what": "stats"}, self.identity.node_id, [(key, 3)])
        env = decode_envelope(raw)
        json_layout = {"counter": 3, "kind": "QUERY", "payload": {"what": "stats"},
                       "sender": env.sender, "signature": env.signature.hex(), "timestamp": 7}
        sender = self.identity.public_bytes
        others = {
            "json": canonical_json(json_layout),
            "json-spaces": json.dumps(json_layout).encode(),
            "leading-zero-byte": b"\x00" + raw,
            "trailing-newline": raw + b"\n",
            "space-in-payload": raw.replace(b'"what":', b'"what": '),
            "escaped-payload": raw.replace(b'"stats"', b'"\\u0073tats"'),
            "little-endian-counter": raw[:1] + (4).to_bytes(8, "little") + raw[9:],
            "little-endian-timestamp": frame_by_hand(CODES["QUERY"], 3,
                                                     int.from_bytes((7).to_bytes(8, "big"),
                                                                    "little"),
                                                     sender, env.signature, env.body),
        }
        for name, other in others.items():
            decoded = decode_envelope(other)
            assert other != raw and (decoded is None or not verify_envelope(decoded, key)), name
        assert (env.counter, env.payload, env.encode()) == (3, {"what": "stats"}, raw)

    @pytest.mark.parametrize("number", [b"1.0", b"1e3", b"NaN", b"-Infinity",
                                        b"1" + b"0" * 5000])
    def test_payload_number_that_cannot_be_encoded_is_refused(self, number):
        # the header decodes; the payload, read after the check, does not
        raw = sign_envelope("QUERY", 7, {"n": 1}, self.identity).encode()
        decoded = decode_envelope(raw.replace(b'"n":1', b'"n":' + number))
        assert not verify_envelope(decoded)
        with pytest.raises(EncodingError):
            decoded.payload

    @pytest.mark.parametrize("keyed", [False, True], ids=["signed", "tagged"])
    def test_check_is_over_the_payload_bytes_received(self, keyed):
        key = LinkKey(b"\x22" * 32) if keyed else None
        payload = {"a": "é", "b": [2, 3]}
        if keyed:
            [raw] = tag_frames("QUERY", 7, payload, self.identity.node_id, [(key, 1)])
        else:
            raw = sign_envelope("QUERY", 7, payload, self.identity).encode()
        canonical = canonical_json(payload)
        assert verify_envelope(decode_envelope(raw), key)
        for relaid in ('{"a":"é","b":[2, 3]}'.encode(), '{"b":[2,3],"a":"é"}'.encode(),
                       b'{"a":"\\u00e9","b":[2,3]}'):
            decoded = decode_envelope(raw.replace(canonical, relaid))
            assert decoded.payload == payload and canonical_json(decoded.payload) == canonical
            assert decoded.body == relaid and decoded.encode() != raw
            assert not verify_envelope(decoded, key)
