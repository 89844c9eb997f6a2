"""Signed message envelopes: canonical JSON, Ed25519 identities, stream framing.

Every message between nodes travels as a MessageEnvelope whose signature
covers the kind, timestamp and canonicalized payload. Envelopes failing
verification are dropped at this boundary and never reach a handler.
"""

from __future__ import annotations

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

SEP = b"\x1f"

# Envelope kinds; the kind fixes the payload schema.
HELLO = "HELLO"
NEW_BLOCK = "NEW_BLOCK"
GET_BLOCKS = "GET_BLOCKS"
BLOCKS = "BLOCKS"
TX = "TX"
QUERY = "QUERY"
RESPONSE = "RESPONSE"

KINDS = frozenset({HELLO, NEW_BLOCK, GET_BLOCKS, BLOCKS, TX, QUERY, RESPONSE})

MAX_FRAME_BYTES = 16 * 1024 * 1024

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
    disagree on a digest over the same logical value.
    """
    if not _is_plain(value):
        _check_canonical(value)
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


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
    signature: str  # 128 hex chars
    # canonical payload bytes, set only by sign_envelope; a replaced or
    # hand-built envelope starts without them
    _payload_json: bytes | None = field(default=None, init=False, compare=False,
                                        repr=False)

    def to_json(self) -> dict:
        return {
            "sender": self.sender,
            "kind": self.kind,
            "timestamp": self.timestamp,
            "payload": self.payload,
            "signature": self.signature,
        }

    def encode(self) -> bytes:
        """canonical_json(self.to_json()), reusing the signed payload bytes.

        The keys sort as kind, payload, sender, signature, timestamp.
        """
        body = self._payload_json
        if body is None or type(self.timestamp) is not int:
            return canonical_json(self.to_json())
        return b"".join([b'{"kind":', _json_str(self.kind), b',"payload":', body,
                         b',"sender":', _json_str(self.sender), b',"signature":',
                         _json_str(self.signature), b',"timestamp":',
                         str(self.timestamp).encode(), b"}"])


def _json_str(text: str) -> bytes:
    return json.dumps(text, ensure_ascii=False).encode("utf-8")


def _preimage(kind: str, timestamp: int, body: bytes) -> bytes:
    return SEP.join([kind.encode(), str(timestamp).encode(), body])


def signing_bytes(kind: str, timestamp: int, payload) -> bytes:
    """The signature preimage: kind, timestamp, canonical payload."""
    return _preimage(kind, timestamp, canonical_json(payload))


def sign_envelope(kind: str, timestamp: int, payload, identity: NodeIdentity) -> MessageEnvelope:
    if kind not in KINDS:
        raise EncodingError(f"unknown message kind {kind!r}")
    body = canonical_json(payload)
    sig = identity.sign(_preimage(kind, timestamp, body))
    env = MessageEnvelope(sender=identity.node_id, kind=kind, timestamp=timestamp,
                          payload=payload, signature=sig.hex())
    object.__setattr__(env, "_payload_json", body)
    return env


def verify_envelope(env: MessageEnvelope) -> bool:
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


def decode_envelope(raw: bytes) -> MessageEnvelope | None:
    """Parse one wire message; None when the JSON or shape is invalid."""
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError):
        return None
    if not isinstance(obj, dict):
        return None
    if set(obj) != {"sender", "kind", "timestamp", "payload", "signature"}:
        return None
    if not isinstance(obj["sender"], str) or not isinstance(obj["signature"], str):
        return None
    if not isinstance(obj["kind"], str) or obj["kind"] not in KINDS:
        return None
    if not isinstance(obj["timestamp"], int) or isinstance(obj["timestamp"], bool):
        return None
    return MessageEnvelope(sender=obj["sender"], kind=obj["kind"],
                           timestamp=obj["timestamp"], payload=obj["payload"],
                           signature=obj["signature"])


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
