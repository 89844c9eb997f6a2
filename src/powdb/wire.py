"""Message envelopes: canonical JSON, Ed25519 identities, link keys, stream framing.

Every message between nodes travels as a MessageEnvelope over the kind,
timestamp and canonicalized payload. A link between two nodes opens with
two Ed25519-signed messages, the dialer's first GET_BLOCKS and the
listener's BLOCKS reply, and each carries its node's X25519 key, made once
per process, and a fresh nonce. From the shared secret, both keys, both
nonces and both node ids, each end derives one 32-byte key per direction
(HKDF-SHA256, RFC 5869). Every later envelope on the link carries a counter
that rises with each send and, in place of the signature, a keyed BLAKE2b
tag (RFC 7693) under its direction's key. A client's request and its reply
stay signed. A node checks every envelope, of any kind, as it arrives
(NodeCore.on_message): one failing its check is dropped there and never
reaches a handler.

Each kind of frame has one maker: sign_envelope a signed envelope,
tag_frames a payload's tagged frames for one or more links, and
decode_envelope a received one. A frame is a fixed binary HEADER, then the
raw tag or signature, then the payload's canonical JSON, as Bitcoin's P2P
messages put a fixed header before their payload. The tag or signature
covers the HEADER and the payload bytes exactly as sent and received, so
no byte of a frame goes unchecked and no end builds a message to check.
decode_envelope reads only the header, so a frame checks before anything
in its payload is read (TLS 1.3's record rule, RFC 8446 §5.2);
MessageEnvelope.payload reads it after, once and with no lock, and a
payload laid out other than canonically fails its check. No frame pays
codec set-up: canonical_json encodes through one encoder built at import,
and tag_frames checks a header's kind, timestamp and sender once per
payload, however many links it goes to.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import re
import struct
from dataclasses import dataclass
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

# Envelope kinds; the kind fixes the payload schema. A NEW_BLOCK carries
# {"block": a block's JSON, "have": [...]}, where "have" names, by short id,
# up to MAX_HOLDERS nodes that its sender knows hold the block.
NEW_BLOCK = "NEW_BLOCK"
GET_BLOCKS = "GET_BLOCKS"
BLOCKS = "BLOCKS"
TX = "TX"
QUERY = "QUERY"
RESPONSE = "RESPONSE"

# Every kind, in the order of its one-byte code on the wire, from 1.
KINDS = (NEW_BLOCK, GET_BLOCKS, BLOCKS, TX, QUERY, RESPONSE)
_CODES = {kind: code for code, kind in enumerate(KINDS, 1)}
_KIND_OF = dict(enumerate(KINDS, 1))

MAX_FRAME_BYTES = 16 * 1024 * 1024
# A holder list names a node by its short id, the first SHORT_ID_HEX hex
# digits of its node id, and names at most MAX_HOLDERS: a full list takes
# 625 bytes.
SHORT_ID_HEX = 8
MAX_HOLDERS = 56
# What a frame that carries one block (NEW_BLOCK, a one-block BLOCKS page, a
# block query's RESPONSE) takes besides the block's escaped data, with every
# field at its maximum: at most 1,015 bytes, for a NEW_BLOCK whose holder
# list is full (550 for a link-open BLOCKS reply), rounded up.
BLOCK_ENVELOPE_BYTES = 1024

# A frame's header: its kind's code, its counter + 1 (0 for none, as in a
# signed frame), its timestamp in Unix milliseconds, its sender's raw
# Ed25519 key and the length of the tag or signature after it; then those
# bytes, then the payload's.
HEADER = struct.Struct(">BQq32sB")
TAG_BYTES = 32  # a keyed BLAKE2b link tag
SIGNATURE_BYTES = 64  # an Ed25519 signature

_LEN = struct.Struct(">I")
# A holder list's entries, each followed by a comma: one fullmatch checks all.
_HOLDERS = re.compile(f"(?:[0-9a-f]{{{SHORT_ID_HEX}}},)*")


class EncodingError(ValueError):
    """A value cannot be canonically encoded (non-integer number, bad type),
    a header field is out of its range, or a payload's bytes are not one
    JSON value."""


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


# json.dumps with keywords builds an encoder per call; this one is built once
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_json(value) -> bytes:
    """UTF-8 JSON with bytewise-sorted keys and no insignificant whitespace.

    All numbers must be integers; floats are rejected so two nodes can never
    disagree on a digest over the same logical value. A lone surrogate, which
    JSON text can carry as an escape, keeps its \\uXXXX escape, so every
    value a decoded envelope holds encodes.
    """
    if not _is_plain(value):
        _check_canonical(value)
    return _ENCODER.encode(value).encode("utf-8", "backslashreplace")


def fits_block_frame(data: str) -> bool:
    """Whether a block carrying `data` fits one frame, also as a one-block
    BLOCKS page: its data, JSON-escaped, takes at most MAX_FRAME_BYTES -
    BLOCK_ENVELOPE_BYTES. A character escapes to at most 6 bytes, so data
    shorter than a sixth of that is never encoded here."""
    limit = MAX_FRAME_BYTES - BLOCK_ENVELOPE_BYTES
    return 6 * len(data) + 2 <= limit or len(canonical_json(data)) <= limit


def short_id(node_id: str) -> str:
    """The short id a holder list names a node by."""
    return node_id[:SHORT_ID_HEX]


def parse_holders(payload) -> list[str]:
    """The short ids a NEW_BLOCK payload's "have" list names; none when the
    list is missing, is not a list, is over MAX_HOLDERS or holds anything
    but short ids. A match as long as the entries and a comma after each
    leaves no comma inside an entry, so each entry is one id."""
    have = payload.get("have") if isinstance(payload, dict) else None
    if not isinstance(have, list) or len(have) > MAX_HOLDERS:
        return []
    try:
        joined = ",".join(have + [""])
    except TypeError:  # an entry that is not a string
        return []
    if len(joined) == (SHORT_ID_HEX + 1) * len(have) and _HOLDERS.fullmatch(joined):
        return have
    return []


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


def _head(kind: str, counter: int | None, timestamp: int, sender: str,
          signature_bytes: int) -> bytes:
    """A frame's HEADER; EncodingError for an unknown kind, a sender that is
    not a 32-byte key in hex, or a counter or timestamp out of its range."""
    try:
        key = bytes.fromhex(sender)
        if len(key) != 32 or (counter is not None and counter < 0):
            raise ValueError("no 32-byte sender key, or a negative counter")
        return HEADER.pack(_CODES[kind], 0 if counter is None else counter + 1, timestamp,
                           key, signature_bytes)
    except (KeyError, ValueError, struct.error) as exc:
        raise EncodingError(f"no header for kind {kind!r}, counter {counter}, timestamp "
                            f"{timestamp} and sender {sender!r}: {exc!r}") from None


class _Payload:
    """The kind-specific JSON value `body` holds, set by the maker that
    encoded it, or read from a received frame's bytes on first use, which
    NodeCore.on_message makes only once the frame has checked, and kept in
    the envelope's dict with no lock taken; a failed read keeps nothing.
    EncodingError when `body` is not exactly one JSON value, or holds a
    number that is not an integer, as it could never be encoded."""

    def __get__(self, env, owner=None):
        if env is None:
            return self
        try:
            text = env.body.decode("utf-8")
            value, end = _scan_value(text, 0)
            if end == len(text):
                vars(env)["payload"] = value
                return value
        except (ValueError, RecursionError, StopIteration):
            pass  # bad UTF-8 or JSON, a float, or an integer too long to read
        raise EncodingError("the payload is not one JSON value")


@dataclass(frozen=True, init=False)
class MessageEnvelope:
    """A message as signed or received; only sign_envelope and
    decode_envelope make one. Its payload is the value its `body` holds and
    its head the HEADER its other fields pack to, so it carries neither
    apart from its fields."""

    sender: str  # node id, hex public key
    kind: str
    timestamp: int  # Unix milliseconds, informational
    body: bytes  # the payload's JSON, as signed or received
    signature: bytes  # a raw Ed25519 signature (64 bytes) or link tag (32)
    counter: int | None = None  # a tagged envelope's place in its link's direction

    def __init__(self, sender, kind, timestamp, body, signature, counter=None):
        # one dict update: a frozen dataclass's own __init__ sets each field apart
        self.__dict__.update(sender=sender, kind=kind, timestamp=timestamp, body=body,
                             signature=signature, counter=counter)

    payload = _Payload()

    @property
    def head(self) -> bytes:
        """Its HEADER: as its maker packed it or as it arrived, or, built by
        hand, as its fields pack; EncodingError when no header holds them."""
        return vars(self).get("head") or _head(self.kind, self.counter, self.timestamp,
                                               self.sender, len(self.signature))

    def encode(self) -> bytes:
        """The envelope's wire bytes: its HEADER, its signature or tag, and
        the payload bytes it was signed or received with."""
        return self.head + self.signature + self.body


class LinkKey:
    """One direction's 32-byte link key, as keyed BLAKE2b (RFC 7693), a MAC
    by design, with a TAG_BYTES digest. The keyed state is made once, so a
    tag copies it and hashes only a frame's HEADER and payload bytes."""

    def __init__(self, key: bytes):
        if len(key) != 32:
            raise ValueError(f"a link key is 32 bytes, not {len(key)}")
        self._state = hashlib.blake2b(key=key, digest_size=TAG_BYTES)

    def tag(self, head: bytes, body: bytes) -> bytes:
        """The tag of the frame whose HEADER is `head` and payload `body`."""
        state = self._state.copy()
        state.update(head)
        state.update(body)
        return state.digest()


def sign_envelope(kind: str, timestamp: int, payload,
                  identity: NodeIdentity) -> MessageEnvelope:
    """An envelope from `identity`, Ed25519-signed over its head and body."""
    head = _head(kind, None, timestamp, identity.node_id, SIGNATURE_BYTES)
    body = canonical_json(payload)
    env = MessageEnvelope(sender=identity.node_id, kind=kind, timestamp=timestamp, body=body,
                          signature=identity.sign(head + body))
    vars(env).update(head=head, payload=payload)  # what its fields pack to and `body` encodes
    return env


def tag_frames(kind: str, timestamp: int, payload, sender: str,
               links: list[tuple[LinkKey, int]]) -> list[bytes]:
    """`payload` from node `sender` as one frame per (send key, counter) in
    `links`, tagged as that direction's frame `counter`. The payload is
    encoded and the header's kind, timestamp and sender checked once; each
    frame costs its counter's header and its tag over them."""
    sender_key = bytes.fromhex(sender)
    body = canonical_json(payload)
    if not links:
        return []
    code = _head(kind, 0, timestamp, sender, TAG_BYTES)[0]
    frames = []
    for key, counter in links:
        if not 0 <= counter <= 2**64 - 2:  # counter + 1 fills the header's field
            raise EncodingError(f"counter {counter} is out of its field's range")
        head = HEADER.pack(code, counter + 1, timestamp, sender_key, TAG_BYTES)
        frames.append(head + key.tag(head, body) + body)
    return frames


def verify_envelope(env: MessageEnvelope, key: LinkKey | None = None) -> bool:
    """True iff the envelope checks: given a link's receive `key`, its tag;
    otherwise its Ed25519 signature. Either is checked over the head and
    body as signed or received, so a payload laid out other than canonically
    fails, and neither reads the payload. A missing counter, a tag of the
    wrong length or fields no header holds fail."""
    if key is None:
        return verify_signature(env)
    try:
        return (env.counter is not None
                and hmac.compare_digest(key.tag(env.head, env.body), env.signature))
    except EncodingError:
        return False


def verify_signature(env: MessageEnvelope) -> bool:
    """True iff the signature verifies under the sender's public key.

    A malformed hex sender, or a key or signature of the wrong length,
    counts as verification failure, never an exception.
    """
    try:
        public = Ed25519PublicKey.from_public_bytes(bytes.fromhex(env.sender))
        public.verify(env.signature, env.head + env.body)
        return True
    except (InvalidSignature, ValueError):
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


def _no_float(text: str):
    raise ValueError(f"non-integer number {text}")


_scan_value = json.JSONDecoder(parse_float=_no_float, parse_constant=_no_float).scan_once


def decode_envelope(raw: bytes) -> MessageEnvelope | None:
    """Read one wire message's HEADER; None when the frame is shorter than
    it, names no kind, or has a tag or signature of any length but
    TAG_BYTES or SIGNATURE_BYTES or one that runs past the frame. The
    header and the payload, the bytes after the tag, are kept as they
    arrived, so a check hashes them as they are; nothing here reads them."""
    if len(raw) < HEADER.size:
        return None
    code, counter, timestamp, sender, length = HEADER.unpack_from(raw)
    start = HEADER.size + length
    kind = _KIND_OF.get(code)
    if kind is None or length not in (TAG_BYTES, SIGNATURE_BYTES) or len(raw) < start:
        return None
    env = MessageEnvelope(sender=sender.hex(), kind=kind, timestamp=timestamp,
                          body=raw[start:], signature=raw[HEADER.size:start],
                          counter=counter - 1 if counter else None)
    vars(env)["head"] = raw[:HEADER.size]
    return env


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
