"""Message envelopes: canonical JSON, Ed25519 identities, link keys, stream framing.

Every message between nodes travels as a MessageEnvelope over the kind,
timestamp and canonicalized payload. A link between two nodes opens with
two Ed25519-signed messages, the dialer's first GET_BLOCKS and the
listener's BLOCKS reply, and each carries its node's X25519 key, made once
per process, and a fresh nonce. From the shared secret, both keys, both
nonces and both node ids, each end derives one HMAC-SHA256 key per
direction (HKDF, RFC 5869). Every later envelope on the link carries a
counter that rises with each send and, in place of the signature, a tag
over the counter, kind, timestamp and canonical payload under its
direction's key. A client's request and its reply stay signed. Envelopes
failing their check are dropped at this boundary and never reach a handler.
"""

from __future__ import annotations

import hmac
import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)

SEP = b"\x1f"

# Envelope kinds; the kind fixes the payload schema.
NEW_BLOCK = "NEW_BLOCK"
GET_BLOCKS = "GET_BLOCKS"
BLOCKS = "BLOCKS"
TX = "TX"
QUERY = "QUERY"
RESPONSE = "RESPONSE"

KINDS = frozenset({NEW_BLOCK, GET_BLOCKS, BLOCKS, TX, QUERY, RESPONSE})

MAX_FRAME_BYTES = 16 * 1024 * 1024
# What a frame that carries one block (NEW_BLOCK, a one-block BLOCKS page, a
# block query's RESPONSE) takes besides the block's escaped data: at most
# 600 bytes with every field at its maximum, rounded up.
BLOCK_ENVELOPE_BYTES = 1024

_LEN = struct.Struct(">I")


class EncodingError(ValueError):
    """A value cannot be canonically encoded (non-integer number, bad type)."""


class ProtocolError(Exception):
    """Framing violation: oversized length header or truncated stream."""


def _check_canonical(value, path="$"):
    if value is None or isinstance(value, (bool, str)):
        return
    if isinstance(value, float):
        raise EncodingError(f"non-integer number at {path}: {value!r}")
    if isinstance(value, int):
        return
    if isinstance(value, list):
        for i, item in enumerate(value):
            _check_canonical(item, f"{path}[{i}]")
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise EncodingError(f"non-string key at {path}: {key!r}")
            _check_canonical(item, f"{path}.{key}")
        return
    raise EncodingError(f"unencodable type at {path}: {type(value).__name__}")


_PLAIN_SCALARS = frozenset({str, int, bool, type(None)})


def _is_plain(value) -> bool:
    """True for exact str/int/bool/None, lists and str-keyed dicts of them.

    A fast pre-check with no path strings; anything it refuses (floats,
    subclasses, tuples, ...) goes to `_check_canonical`, which decides.
    """
    kind = type(value)
    if kind is dict:
        for key, item in value.items():
            if type(key) is not str:
                return False
            if type(item) not in _PLAIN_SCALARS and not _is_plain(item):
                return False
        return True
    if kind is list:
        for item in value:
            if type(item) not in _PLAIN_SCALARS and not _is_plain(item):
                return False
        return True
    return kind in _PLAIN_SCALARS


def canonical_json(value) -> bytes:
    """UTF-8 JSON with bytewise-sorted keys and no insignificant whitespace.

    All numbers must be integers; floats are rejected so two nodes can never
    disagree on a digest over the same logical value. A lone surrogate, which
    JSON text can carry as an escape, keeps its \\uXXXX escape, so every
    value a decoded envelope holds encodes.
    """
    if not _is_plain(value):
        _check_canonical(value)
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8", "backslashreplace")


def fits_block_frame(data: str) -> bool:
    """Whether a block carrying `data` fits one frame, also as a one-block
    BLOCKS page: its data, JSON-escaped, takes at most MAX_FRAME_BYTES -
    BLOCK_ENVELOPE_BYTES. A character escapes to at most 6 bytes, so data
    shorter than a sixth of that is never encoded here."""
    limit = MAX_FRAME_BYTES - BLOCK_ENVELOPE_BYTES
    return 6 * len(data) + 2 <= limit or len(canonical_json(data)) <= limit


class NodeIdentity:
    """Ed25519 keypair; the node id is the hex of the 32-byte public key."""

    def __init__(self, private_key: Ed25519PrivateKey):
        self._private = private_key
        self.public_bytes = private_key.public_key().public_bytes_raw()
        self.node_id = self.public_bytes.hex()

    @classmethod
    def generate(cls) -> "NodeIdentity":
        return cls(Ed25519PrivateKey.generate())

    @classmethod
    def from_seed(cls, seed: bytes) -> "NodeIdentity":
        return cls(Ed25519PrivateKey.from_private_bytes(seed))

    @classmethod
    def load_or_create(cls, path: str | Path) -> "NodeIdentity":
        """Read the 32-byte hex seed from `path`, generating it if missing."""
        path = Path(path)
        if path.exists():
            try:
                seed = bytes.fromhex(path.read_text().strip())
                return cls.from_seed(seed)
            except ValueError as exc:
                raise ValueError(f"key file {path} is not a 32-byte hex seed: {exc}") from exc
        identity = cls.generate()
        path.parent.mkdir(parents=True, exist_ok=True)
        # created with its owner-only mode, so the seed is never readable by others
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
        with os.fdopen(fd, "w") as out:
            out.write(identity._private.private_bytes_raw().hex() + "\n")
        return identity

    def sign(self, message: bytes) -> bytes:
        return self._private.sign(message)


@dataclass(frozen=True)
class MessageEnvelope:
    sender: str  # node id, hex public key
    kind: str
    timestamp: int  # Unix milliseconds, informational
    payload: object  # kind-specific JSON value
    signature: str  # 128 hex chars of an Ed25519 signature, or 64 of a link tag
    counter: int | None = None  # a tagged envelope's place in its link's direction
    # canonical payload bytes, set only by sign_envelope; a replaced or
    # hand-built envelope starts without them
    _payload_json: bytes | None = field(default=None, init=False, compare=False,
                                        repr=False)

    def to_json(self) -> dict:
        obj = {
            "sender": self.sender,
            "kind": self.kind,
            "timestamp": self.timestamp,
            "payload": self.payload,
            "signature": self.signature,
        }
        if self.counter is not None:
            obj["counter"] = self.counter
        return obj

    def encode(self) -> bytes:
        """canonical_json(self.to_json()), reusing the payload bytes that
        sign_envelope encoded.

        The keys sort as counter, kind, payload, sender, signature, timestamp.
        An envelope with those bytes came from sign_envelope, so its kind is
        one of KINDS and its sender and signature are hex: no escaping.
        """
        body, counter = self._payload_json, self.counter
        if (body is None or type(self.timestamp) is not int
                or (counter is not None and type(counter) is not int)):
            return canonical_json(self.to_json())
        head = b"" if counter is None else b'"counter":%d,' % counter
        return b'{%b"kind":"%b","payload":%b,"sender":"%b","signature":"%b","timestamp":%d}' % (
            head, self.kind.encode(), body, self.sender.encode(), self.signature.encode(),
            self.timestamp)


_FIELDS = frozenset({"sender", "kind", "timestamp", "payload", "signature"})


def _preimage(kind: str, timestamp: int, body: bytes) -> bytes:
    return SEP.join([kind.encode(), str(timestamp).encode(), body])


def signing_bytes(kind: str, timestamp: int, payload) -> bytes:
    """The signature preimage: kind, timestamp, canonical payload."""
    return _preimage(kind, timestamp, canonical_json(payload))


class LinkKey:
    """One direction's HMAC-SHA256 key."""

    def __init__(self, key: bytes):
        self._mac = hmac.new(key, digestmod="sha256")

    def tag(self, counter: int, preimage: bytes) -> str:
        """The tag over the counter and the signature preimage, as hex."""
        mac = self._mac.copy()  # the keyed state, hashed once per key
        mac.update(b"%d" % counter + SEP)
        mac.update(preimage)
        return mac.hexdigest()


def sign_envelope(kind: str, timestamp: int, payload, identity: NodeIdentity,
                  key: LinkKey | None = None, counter: int | None = None,
                  body: bytes | None = None) -> MessageEnvelope:
    """An envelope from `identity`, Ed25519-signed; or, given a link's send
    `key`, tagged as that direction's frame `counter`. `body` is
    canonical_json(payload) when the caller has it, as a broadcast, which
    encodes its payload once for every link."""
    if kind not in KINDS:
        raise EncodingError(f"unknown message kind {kind!r}")
    if body is None:
        body = canonical_json(payload)
    preimage = _preimage(kind, timestamp, body)
    if key is None:
        signature = identity.sign(preimage).hex()
    else:
        signature = key.tag(counter, preimage)
    env = MessageEnvelope(sender=identity.node_id, kind=kind, timestamp=timestamp,
                          payload=payload, signature=signature, counter=counter)
    object.__setattr__(env, "_payload_json", body)
    return env


def verify_envelope(env: MessageEnvelope, key: LinkKey | None = None) -> bool:
    """True iff the envelope checks: given a link's receive `key`, its tag
    over its counter; otherwise its Ed25519 signature. A malformed tag or
    counter, or a payload that cannot be re-encoded, fails, never raises."""
    if key is None:
        return verify_signature(env)
    if type(env.counter) is not int:
        return False
    try:
        expected = key.tag(env.counter, signing_bytes(env.kind, env.timestamp, env.payload))
        return hmac.compare_digest(expected, env.signature)
    except (ValueError, TypeError, EncodingError, RecursionError):
        return False


def verify_signature(env: MessageEnvelope) -> bool:
    """True iff the signature verifies under the sender's public key.

    Malformed hex or keys, and payloads nested too deep to re-encode, count
    as verification failure, never an exception.
    """
    try:
        public = Ed25519PublicKey.from_public_bytes(bytes.fromhex(env.sender))
        sig = bytes.fromhex(env.signature)
        public.verify(sig, signing_bytes(env.kind, env.timestamp, env.payload))
        return True
    except (InvalidSignature, ValueError, TypeError, EncodingError, RecursionError):
        return False


class KeyShare:
    """A node's X25519 key for the handshakes of its links. A node makes one
    at its first link open and keeps it in memory only, so a restarted node
    has a new one. Each link end adds a fresh nonce, so every link gets its
    own keys."""

    # HKDF's extract salt; fixed, as the nonces make each link's keys fresh
    SALT = b"powdb link keys v1"
    NONCE_BYTES = 16

    def __init__(self, random_bytes):
        """`random_bytes(n)` gives n random bytes: os.urandom for a live node."""
        self._random_bytes = random_bytes
        self._secret = X25519PrivateKey.from_private_bytes(random_bytes(32))
        self._public = self._secret.public_key().public_bytes_raw()
        self.public = self._public.hex()

    def hello(self) -> dict:
        """One link end's handshake fields: the key and a fresh nonce, in hex."""
        return {"key": self.public, "nonce": self._random_bytes(self.NONCE_BYTES).hex()}

    def link_keys(self, own: dict, peer, own_id: str, peer_id: str,
                  dialer: bool) -> tuple[LinkKey, LinkKey] | None:
        """This end's (send key, receive key) for a link whose handshake
        fields are `own`, from hello(), and the peer's `peer`; or None when
        `peer` lacks a hex X25519 key that yields a shared secret or a hex
        nonce of NONCE_BYTES.

        HKDF-SHA256 (RFC 5869) over the shared secret: one extract, then one
        expand block per direction, whose info names both node ids, keys and
        nonces, dialer first, and the direction.
        """
        try:
            peer_key, peer_nonce = bytes.fromhex(peer["key"]), bytes.fromhex(peer["nonce"])
            shared = self._secret.exchange(X25519PublicKey.from_public_bytes(peer_key))
        except (KeyError, ValueError, TypeError):
            return None
        if len(peer_nonce) != self.NONCE_BYTES:
            return None
        mine = own_id.encode() + self._public + bytes.fromhex(own["nonce"])
        theirs = peer_id.encode() + peer_key + peer_nonce
        transcript = mine + theirs if dialer else theirs + mine
        prk = hmac.digest(self.SALT, shared, "sha256")
        to_listener = LinkKey(hmac.digest(prk, transcript + b"dialer to listener\x01", "sha256"))
        to_dialer = LinkKey(hmac.digest(prk, transcript + b"listener to dialer\x01", "sha256"))
        return (to_listener, to_dialer) if dialer else (to_dialer, to_listener)


def decode_envelope(raw: bytes) -> MessageEnvelope | None:
    """Parse one wire message; None when the JSON or shape is invalid."""
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError):  # bad UTF-8 or JSON, or an integer too long to read
        return None
    if not isinstance(obj, dict):
        return None
    tagged = "counter" in obj
    counter = obj.pop("counter", None)
    if set(obj) != _FIELDS or (tagged and type(counter) is not int):
        return None
    if not isinstance(obj["sender"], str) or not isinstance(obj["signature"], str):
        return None
    if not isinstance(obj["kind"], str) or obj["kind"] not in KINDS:
        return None
    if not isinstance(obj["timestamp"], int) or isinstance(obj["timestamp"], bool):
        return None
    return MessageEnvelope(sender=obj["sender"], kind=obj["kind"],
                           timestamp=obj["timestamp"], payload=obj["payload"],
                           signature=obj["signature"], counter=counter)


def check_frame_size(message: bytes) -> None:
    """Raise ProtocolError when `message` is over the frame cap."""
    if len(message) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(message)} bytes exceeds the 16 MiB cap")


def frame(message: bytes) -> bytes:
    """Prepend the 4-byte big-endian length."""
    check_frame_size(message)
    return _LEN.pack(len(message)) + message


def deframe(read_exact) -> bytes | None:
    """Read one framed message via `read_exact(n) -> bytes`.

    Returns None on a clean end of stream before the header; raises
    ProtocolError on an oversized length or a truncated body.
    """
    header = read_exact(4)
    if header == b"":
        return None
    if len(header) != 4:
        raise ProtocolError("truncated frame header")
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"declared frame of {length} bytes exceeds the 16 MiB cap")
    body = read_exact(length)
    if len(body) != length:
        raise ProtocolError("truncated frame body")
    return body


def split_frames(buffer: bytearray) -> list[bytes]:
    """Remove the whole frames at the front of `buffer` and return them; a
    partial frame stays. A header over the cap raises before its body arrives."""
    messages, start = [], 0
    while len(buffer) - start >= _LEN.size:
        (length,) = _LEN.unpack_from(buffer, start)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(f"declared frame of {length} bytes exceeds the 16 MiB cap")
        end = start + _LEN.size + length
        if len(buffer) < end:
            break
        messages.append(bytes(buffer[start + _LEN.size:end]))
        start = end
    del buffer[:start]
    return messages


def socket_read_exact(sock):
    """Adapter giving deframe() an exact-read function over a socket."""

    def read_exact(n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining > 0:
            chunk = sock.recv(remaining)
            if chunk == b"":
                break
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    return read_exact
