"""Canonical JSON, envelope signing and stream framing."""

import hashlib
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


# each kind's one-byte code on the wire
CODES = {"NEW_BLOCK": 1, "GET_BLOCKS": 2, "BLOCKS": 3, "TX": 4, "QUERY": 5, "RESPONSE": 6}


def header_by_hand(code, counter, timestamp, sender: bytes, length: int) -> bytes:
    """A header built here from its description, not from wire.HEADER: the
    kind's code (1 byte), the counter + 1 (8 bytes, 0 for none), the
    timestamp (8, signed) and the sender's key (32), all big-endian, then
    the signature's length (1)."""
    return (bytes([code]) + (0 if counter is None else counter + 1).to_bytes(8, "big")
            + timestamp.to_bytes(8, "big", signed=True) + sender + bytes([length]))


def frame_by_hand(code, counter, timestamp, sender: bytes, signature: bytes, body: bytes) -> bytes:
    """A frame built here: its header, the signature and the payload's bytes."""
    return header_by_hand(code, counter, timestamp, sender, len(signature)) + signature + body


def signed_bytes(kind, timestamp, sender: bytes, payload) -> bytes:
    """What a signature covers, built here from the layout: the signed
    frame's header, then its canonical payload."""
    return (header_by_hand(CODES[kind], None, timestamp, sender, wire.SIGNATURE_BYTES)
            + canonical_json(payload))


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


def _dumps_canonical_json(value) -> bytes:
    """canonical_json written with one json.dumps per call, as it was before
    it kept one encoder: the reference for bytes and errors."""
    if not wire._is_plain(value):
        wire._check_canonical(value)
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8", "backslashreplace")


def _nested(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


class TestOneEncoder:
    """canonical_json encodes through one encoder, built once, and gives
    the bytes and the errors of a json.dumps per call."""

    CORPUS = {
        "nested": {"b": [1, {"d": [], "c": {}}], "a": {"z": [[], [{}]], "y": None}},
        "non-ascii": {"ключ": "値 naïve ✓  ", "é": ["ü"]},
        "non-bmp": {"\U0001d11e": "\U0001f600 \U00010000"},
        "lone-surrogate": {"k\udfff": ["a\ud800b", "\udbff"]},
        "big-ints": [2**63, -2**63 - 1, 2**64, -2**70, 10**40],
        "constants": [True, False, None, {"t": True, "f": False, "n": None}],
        "empty-dict": {},
        "empty-list": [],
        "escapes": '"quoted" \\ \n\t\x00\x1f \x7f',
        "scalar": 7,
    }

    @pytest.mark.parametrize("value", CORPUS.values(), ids=CORPUS.keys())
    def test_bytes_are_json_dumps_bytes(self, value):
        assert canonical_json(value) == json.dumps(
            value, sort_keys=True, separators=(",", ":"),
            ensure_ascii=False).encode("utf-8", "backslashreplace")

    REFUSED = {
        "float": {"a": [1, {"b": 2.5}]},
        "nan": [float("nan")],
        "int-key": {"a": {1: "x"}},
        "bool-key": {True: "x"},
        "tuple": {"a": (1, 2)},
    }

    @pytest.mark.parametrize("value", REFUSED.values(), ids=REFUSED.keys())
    def test_refused_values_raise_as_before(self, value):
        assert _outcome(canonical_json, value) == _outcome(_dumps_canonical_json, value)
        with pytest.raises(EncodingError):
            canonical_json(value)

    @pytest.mark.parametrize("depth", [100, 5_000, 100_000])
    def test_value_nested_too_deep_raises_as_before(self, depth):
        def outcome(encode):
            try:
                return encode(_nested(depth))
            except RecursionError:
                return RecursionError

        assert outcome(canonical_json) == outcome(_dumps_canonical_json)
        assert (outcome(canonical_json) is RecursionError) == (depth > 1_000)
        # a raise leaves the one encoder as it was
        nested = self.CORPUS["nested"]
        assert canonical_json(nested) == _dumps_canonical_json(nested)

    def test_one_encoder_is_built_once(self, monkeypatch):
        built = []
        init = json.JSONEncoder.__init__

        def counting_init(encoder, *args, **kwargs):
            built.append(encoder)
            init(encoder, *args, **kwargs)

        monkeypatch.setattr(json.JSONEncoder, "__init__", counting_init)
        for value in self.CORPUS.values():
            canonical_json(value)
        assert built == []


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


class TestLazyPayload:
    """MessageEnvelope.payload: the maker's value, or `body` read once on
    first use and kept in the envelope's dict; a read that fails keeps
    nothing."""

    PAYLOAD = {"tx": {"kind": "raw", "data": "é"}}

    def setup_method(self):
        self.identity = NodeIdentity.from_seed(b"\x12" * 32)

    def counted_scans(self, monkeypatch):
        calls = []
        scan = wire._scan_value

        def counting(text, at):
            calls.append(text)
            return scan(text, at)

        monkeypatch.setattr(wire, "_scan_value", counting)
        return calls

    def test_a_makers_payload_is_returned_without_reading_body(self, monkeypatch):
        calls = self.counted_scans(monkeypatch)
        env = sign_envelope("TX", 5, self.PAYLOAD, self.identity)
        assert env.payload is self.PAYLOAD and env.payload is self.PAYLOAD
        assert calls == []

    def test_a_decoded_body_is_read_once(self, monkeypatch):
        raw = sign_envelope("TX", 5, self.PAYLOAD, self.identity).encode()
        calls = self.counted_scans(monkeypatch)
        env = decode_envelope(raw)
        assert calls == [] and "payload" not in vars(env)
        first = env.payload
        assert first == self.PAYLOAD and env.payload is first and env.payload is first
        assert len(calls) == 1 and vars(env)["payload"] is first

    @pytest.mark.parametrize("body", [b"", b"{", b'{"a":1} ', b'{"a":1.5}', b"\xff",
                                      b"[" * 100_000 + b"]" * 100_000])
    def test_a_bad_body_raises_on_every_read_and_keeps_nothing(self, monkeypatch, body):
        env = decode_envelope(sign_envelope("TX", 5, {}, self.identity).encode()[:-2] + body)
        calls = self.counted_scans(monkeypatch)
        scans = []
        for _read in (1, 2):
            with pytest.raises(EncodingError, match="not one JSON value"):
                env.payload
            assert "payload" not in vars(env)
            scans.append(len(calls))
        assert scans[1] == 2 * scans[0]  # each read reads `body` again

    def test_equality_hash_and_repr_ignore_the_payload(self):
        env = sign_envelope("TX", 5, self.PAYLOAD, self.identity)
        unread, read = decode_envelope(env.encode()), decode_envelope(env.encode())
        assert read.payload == self.PAYLOAD
        assert unread == read == env and hash(unread) == hash(read) == hash(env)
        expected = ("MessageEnvelope(sender=%r, kind='TX', timestamp=5, body=%r, "
                    "signature=%r, counter=None)" % (env.sender, env.body, env.signature))
        assert repr(unread) == repr(read) == repr(env) == expected
        assert "payload" not in vars(unread)


class TestSigning:
    def setup_method(self):
        self.identity = NodeIdentity.from_seed(bytes(range(32)))

    def test_signing_bytes_layout(self):
        env = sign_envelope(QUERY, 0, {}, self.identity)
        public = Ed25519PublicKey.from_public_bytes(self.identity.public_bytes)
        assert len(env.signature) == wire.SIGNATURE_BYTES
        # the header as the frame carries it: QUERY's code, no counter,
        # timestamp 0, the sender's key and the signature's length; then the
        # payload's bytes
        public.verify(env.signature, b"\x05" + bytes(16) + self.identity.public_bytes
                      + b"\x40" + b"{}")

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
                                  signed_bytes(env.kind, env.timestamp,
                                               self.identity.public_bytes, payload),
                                  bytes.fromhex(env.sender))
        # and the oracle agrees on rejection
        env = sign_envelope("QUERY", 1, {"k": 1}, self.identity)
        assert not rfc8032_verify(env.signature,
                                  signed_bytes(env.kind, env.timestamp,
                                               self.identity.public_bytes, {"k": 2}),
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
    def tag(key):
        return key.tag(b"head", b"body")

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

    def test_tag_is_keyed_blake2b_over_the_header_and_payload(self):
        raw = bytes(range(32))
        sender = NodeIdentity.from_seed(b"\x01" * 32).public_bytes
        [frame_bytes] = tag_frames("NEW_BLOCK", 5, {"block": 1}, sender.hex(),
                                   [(LinkKey(raw), 17)])
        head = header_by_hand(CODES["NEW_BLOCK"], 17, 5, sender, 32)
        expected = hashlib.blake2b(head + b'{"block":1}', key=raw, digest_size=32).digest()
        assert frame_bytes == head + expected + b'{"block":1}'

    @pytest.mark.parametrize("seed", range(4))
    def test_tag_equals_keyed_blake2b_for_any_key_counter_and_payload(self, seed):
        # the one keyed state, copied per tag, gives the digest of a fresh
        # keyed BLAKE2b over the frame's header and payload bytes
        rng = random.Random(seed)
        sender = NodeIdentity.from_seed(bytes([seed + 1]) * 32).public_bytes
        counters = [0, 1, 2**63 - 1, 2**64 - 2] + [rng.randrange(2**64 - 1) for _ in range(3)]
        # 78 bytes of payload fill BLAKE2b's 128-byte block after the header
        lengths = [0, 1, 2, 77, 78, 79, 206, 64 * 1024] + [rng.randrange(64 * 1024)
                                                           for _ in range(4)]

        def oracle(key, head, body):
            return hashlib.blake2b(head + body, key=key, digest_size=32).digest()

        for counter in counters:
            for length in lengths:
                key = rng.randbytes(32)
                timestamp = rng.randrange(-2**63, 2**63)
                head = header_by_hand(CODES["TX"], counter, timestamp, sender, 32)
                body = rng.randbytes(length)
                assert LinkKey(key).tag(head, body) == oracle(key, head, body)
                # and a frame of about that length from the one maker
                text = "".join(rng.choice("abcdé") for _ in range(max(length - 2, 0)))
                [raw] = tag_frames("TX", timestamp, text, sender.hex(), [(LinkKey(key), counter)])
                body = canonical_json(text)
                assert raw[:50] == head and raw[82:] == body
                assert raw[50:82] == oracle(key, head, body)
                assert verify_envelope(decode_envelope(raw), LinkKey(key))

    @pytest.mark.parametrize("length", [0, 1, 16, 31, 33, 64, 65])
    def test_a_key_that_is_not_32_bytes_is_refused(self, length):
        with pytest.raises(ValueError, match="32 bytes"):
            LinkKey(bytes(length))
        assert len(LinkKey(bytes(32)).tag(b"head", b"body")) == wire.TAG_BYTES

    def test_any_change_to_a_tagged_envelope_fails_its_check(self):
        (send, other), (_, recv) = self.pair()
        identity = NodeIdentity.from_seed(b"\x01" * 32)
        [raw] = tag_frames("NEW_BLOCK", 5, {"block": {"index": 1}}, identity.node_id, [(send, 3)])
        env = decode_envelope(raw)
        sender, tag, body = identity.public_bytes, env.signature, env.body
        assert frame_by_hand(CODES["NEW_BLOCK"], 3, 5, sender, tag, body) == raw
        assert verify_envelope(decode_envelope(raw), recv)
        other_sender = bytes([sender[0] ^ 1]) + sender[1:]
        for changed in (frame_by_hand(CODES["NEW_BLOCK"], 4, 5, sender, tag, body),
                        frame_by_hand(CODES["NEW_BLOCK"], 3, 5, other_sender, tag, body),
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


class TestEveryByteCounts:
    """A tag or signature covers every byte of its frame but its own: a
    frame with any one byte changed, in its header, its tag or signature, or
    its payload, is refused as it is decoded or fails its check."""

    PAYLOAD = {"block": {"index": 1, "data": "naïve"}, "have": ["0123abcd"]}

    @staticmethod
    def each_change(raw):
        """(offset, frame) for each byte of `raw` changed in its low bit,
        its high bit, or all its bits."""
        for at in range(len(raw)):
            for mask in (0x01, 0x80, 0xFF):
                yield at, raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1:]

    def test_any_byte_of_a_tagged_frame(self):
        key = LinkKey(b"\x22" * 32)
        identity = NodeIdentity.from_seed(b"\x07" * 32)
        [raw] = tag_frames("NEW_BLOCK", 1700000000123, self.PAYLOAD, identity.node_id,
                           [(key, 5)])
        assert verify_envelope(decode_envelope(raw), key)
        for at, changed in self.each_change(raw):
            env = decode_envelope(changed)
            assert env is None or not verify_envelope(env, key), at

    def test_any_byte_of_a_signed_frame(self):
        identity = NodeIdentity.from_seed(b"\x07" * 32)
        raw = sign_envelope("QUERY", 1700000000123, self.PAYLOAD, identity).encode()
        assert verify_envelope(decode_envelope(raw))
        for at, changed in self.each_change(raw):
            env = decode_envelope(changed)
            assert env is None or not verify_envelope(env), at


class TestTagFrames:
    """tag_frames, the one maker of tagged frames."""

    PAYLOAD = {"block": {"index": 1, "data": "naïve"}, "have": ["0123abcd"]}

    def test_bytes_are_pinned(self):
        # the frame for a fixed key, counter, timestamp and payload, byte for
        # byte: the layout as first written, and the tag since it became
        # keyed BLAKE2b over the header and payload
        sender = NodeIdentity.from_seed(b"\x44" * 32).node_id
        [raw] = tag_frames("NEW_BLOCK", 1700000000123, self.PAYLOAD, sender,
                           [(LinkKey(b"\x55" * 32), 41)])
        assert raw == bytes.fromhex(
            "01"  # NEW_BLOCK
            "000000000000002a"  # counter 41, + 1
            "0000018bcfe5687b"  # the timestamp
            "d759793bbc13a2819a827c76adb6fba8a49aee007f49f2d0992d99b825ad2c48"  # the sender
            "20"  # the tag's length, 32
            "c2b07a532b824543fc7fa40c497973c2c5e654803e5ebb5cbe333ae5923d95cc"  # the tag
        ) + b'{"block":{"data":"na\xc3\xafve","index":1},"have":["0123abcd"]}'

    def test_frames_for_many_links_and_a_signed_frame_are_pinned(self):
        # digests of frames built from fixed inputs, as the makers wrote them
        # when each link's header took every check and json.dumps encoded,
        # with the tag and the signature over the header and payload bytes
        payload = {"block": {"index": 9, "data": "naïve \U0001f600 \ud800", "nonce": 2**63},
                   "have": ["0123abcd", "89abcdef"]}
        identity = NodeIdentity.from_seed(b"\x46" * 32)
        links = [(LinkKey(bytes([i]) * 32), counter)
                 for i, counter in enumerate([0, 1, 41, 2**32, 2**64 - 2])]
        raws = tag_frames("NEW_BLOCK", 1700000000123, payload, identity.node_id, links)
        assert [len(raw) for raw in raws] == [190] * 5
        assert hashlib.sha256(b"".join(raws)).hexdigest() == (
            "899e7a2e01b53bcd9ea42b62295b2559983b8809caac5cf31b4eb5760f4cc949")
        signed = sign_envelope("BLOCKS", -5, payload, identity).encode()
        assert hashlib.sha256(signed).hexdigest() == (
            "54c27cc166c7a8e3248c11f44eb9fb51cf162b1c40e69f64192e5a835051f220")
        # each frame is the one a link would get alone, header and all
        for (key, counter), raw in zip(links, raws):
            assert raw[:wire.HEADER.size] == header_by_hand(
                CODES["NEW_BLOCK"], counter, 1700000000123, identity.public_bytes, wire.TAG_BYTES)
            assert tag_frames("NEW_BLOCK", 1700000000123, payload, identity.node_id,
                              [(key, counter)]) == [raw]

    def test_a_bad_kind_sender_or_timestamp_raises_only_with_links(self):
        # no link, no frame, and nothing to check a header against
        identity = NodeIdentity.from_seed(b"\x01" * 32)
        key = LinkKey(b"\x22" * 32)
        for kind, sender, timestamp in (("NOPE", identity.node_id, 1),
                                        ("QUERY", "ab" * 31, 1),
                                        ("QUERY", identity.node_id, 2**63)):
            assert tag_frames(kind, timestamp, {}, sender, []) == []
            with pytest.raises(EncodingError):
                tag_frames(kind, timestamp, {}, sender, [(key, 1), (key, 2)])

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
