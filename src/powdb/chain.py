"""Block data model, canonical serialization, hashing and proof-of-work predicate.

Everything in this module is a pure function over immutable values; the
consensus and storage layers build on these primitives.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, replace

from powdb import wire

# Field separator inside the hash preimage. Block data must never contain
# this byte or the serialization would stop being injective.
SEP = b"\x1f"
SEP_CHAR = "\x1f"

ZERO_HASH = "0" * 64

GENESIS_DATA = "GENESIS"

_HEX_HASH = re.compile(r"[0-9a-f]{64}")

# The largest index, timestamp and nonce a block may carry: SQLite's largest
# integer, so that every block that passes the shape check can be stored.
MAX_BLOCK_INT = 2**63 - 1
MAX_NONCE = MAX_BLOCK_INT
MAX_DIFFICULTY_BITS = 32


class MalformedBlockError(ValueError):
    """Raised when a block (usually off the wire) violates the field contracts."""


@dataclass(frozen=True)
class Block:
    index: int
    timestamp: int  # Unix seconds, set by the block creator
    data: str
    prev_hash: str
    hash: str
    difficulty: int  # leading zero bits required of `hash`
    nonce: int

    def with_nonce(self, nonce: int) -> "Block":
        return replace(self, nonce=nonce)

    def with_hash(self, hash_hex: str) -> "Block":
        return replace(self, hash=hash_hex)


@dataclass(frozen=True)
class ChainParams:
    """Consensus parameters shared by every node of a deployment."""

    target_block_interval_ms: int = 2000
    initial_difficulty: int = 8
    min_difficulty: int = 1
    max_difficulty: int = 24
    retarget_clamp: tuple[float, float] = (0.5, 2.0)

    def validate(self) -> None:
        if not (1 <= self.min_difficulty <= self.initial_difficulty
                <= self.max_difficulty <= MAX_DIFFICULTY_BITS):
            raise ValueError(
                "difficulty bounds must satisfy 1 <= min <= initial <= max <= 32, got "
                f"min={self.min_difficulty} initial={self.initial_difficulty} "
                f"max={self.max_difficulty}")
        lo, hi = self.retarget_clamp
        if not (0 < lo <= 1 <= hi):
            raise ValueError(f"retarget clamp must satisfy 0 < lo <= 1 <= hi, got {lo}, {hi}")
        if self.target_block_interval_ms <= 0:
            raise ValueError("target block interval must be positive")


def is_hex_hash(value: str) -> bool:
    return isinstance(value, str) and _HEX_HASH.fullmatch(value) is not None


def is_block_int(value) -> bool:
    """An integer (not a bool) in [0, MAX_BLOCK_INT]."""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value <= MAX_BLOCK_INT


def validate_block_shape(block: Block) -> None:
    """Check field-level contracts; raises MalformedBlockError.

    This is the structural gate run before the consensus checks, so garbage
    off the wire never reaches the hashing code.
    """
    for name in ("index", "timestamp"):
        value = getattr(block, name)
        if not is_block_int(value):
            raise MalformedBlockError(f"{name} must be an integer in [0, 2**63), got {value!r}")
    if not isinstance(block.data, str):
        raise MalformedBlockError("data must be a string")
    if SEP_CHAR in block.data:
        raise MalformedBlockError("data must not contain the 0x1f separator byte")
    try:
        block.data.encode("utf-8")  # a lone surrogate, which JSON can carry, does not
    except UnicodeEncodeError:
        raise MalformedBlockError("data must be Unicode text that encodes as UTF-8") from None
    if not wire.fits_block_frame(block.data):
        raise MalformedBlockError("data too large for a one-block frame")
    if not is_hex_hash(block.prev_hash):
        raise MalformedBlockError(f"prev_hash must be 64 lowercase hex chars, got {block.prev_hash!r}")
    if not is_hex_hash(block.hash):
        raise MalformedBlockError(f"hash must be 64 lowercase hex chars, got {block.hash!r}")
    if (not isinstance(block.difficulty, int) or isinstance(block.difficulty, bool)
            or not 0 <= block.difficulty <= MAX_DIFFICULTY_BITS):
        raise MalformedBlockError(f"difficulty must be an integer in [0, 32], got {block.difficulty!r}")
    if not is_block_int(block.nonce):
        raise MalformedBlockError(f"nonce must be an integer in [0, 2**63), got {block.nonce!r}")


def mining_prefix_bytes(block: Block) -> bytes:
    """Preimage bytes up to and including the separator before the nonce.

    The nonce search appends decimal nonces to this fixed prefix, so it is
    computed once per candidate block.
    """
    if SEP_CHAR in block.data:
        raise MalformedBlockError("data must not contain the 0x1f separator byte")
    return SEP.join([
        str(block.index).encode(),
        str(block.timestamp).encode(),
        block.data.encode("utf-8"),
        block.prev_hash.encode(),
        str(block.difficulty).encode(),
        b"",
    ])


def canonical_block_bytes(block: Block) -> bytes:
    """The hash preimage: index, timestamp, data, prev_hash, difficulty, nonce.

    Decimal fields carry no leading zeros; the block's own hash is excluded.
    """
    return mining_prefix_bytes(block) + str(block.nonce).encode()


def block_hash(block: Block) -> str:
    return hashlib.sha256(canonical_block_bytes(block)).hexdigest()


def meets_difficulty(hash_hex: str, difficulty_bits: int) -> bool:
    """True iff the first `difficulty_bits` bits of the digest are zero."""
    if not 0 <= difficulty_bits <= MAX_DIFFICULTY_BITS:
        raise ValueError(f"difficulty must be in [0, 32], got {difficulty_bits}")
    if difficulty_bits == 0:
        return True
    if not is_hex_hash(hash_hex):
        raise ValueError(f"malformed hash: {hash_hex!r}")
    # 32 bits = 8 hex digits; compare the integer prefix against the bit budget.
    prefix = int(hash_hex[:8], 16)
    return prefix >> (32 - difficulty_bits) == 0


def digest_meets_difficulty(digest: bytes, difficulty_bits: int) -> bool:
    """Same predicate over a raw 32-byte digest (used by the nonce search),
    for `difficulty_bits` in [0, 32]: the first 32 bits, shifted past the
    ones that may be set, leave zero."""
    return int.from_bytes(digest[:4], "big") >> (32 - difficulty_bits) == 0


def genesis_block() -> Block:
    """The fixed chain root every node shares; exempt from proof of work."""
    blk = Block(index=0, timestamp=0, data=GENESIS_DATA, prev_hash=ZERO_HASH,
                hash="", difficulty=0, nonce=0)
    return blk.with_hash(block_hash(blk))


def cumulative_work(chain: list[Block]) -> int:
    """Sum of 2^difficulty over non-genesis blocks; the fork-choice weight."""
    check_linkage(chain)
    return sum(1 << b.difficulty for b in chain[1:])


def check_linkage(chain: list[Block]) -> None:
    """Raise MalformedBlockError unless indices and prev_hash links are intact."""
    for i, blk in enumerate(chain):
        if blk.index != chain[0].index + i:
            raise MalformedBlockError(
                f"chain indices not dense: expected {chain[0].index + i}, got {blk.index}")
        if i > 0 and blk.prev_hash != chain[i - 1].hash:
            raise MalformedBlockError(f"prev_hash broken at index {blk.index}")


def block_to_json(block: Block) -> dict:
    """The Block JSON object used on the wire and in reports."""
    return {
        "index": block.index,
        "timestamp": block.timestamp,
        "data": block.data,
        "prev_hash": block.prev_hash,
        "hash": block.hash,
        "difficulty": block.difficulty,
        "nonce": block.nonce,
    }


def block_from_json(obj: object) -> Block:
    """Parse and shape-check a Block JSON object; raises MalformedBlockError."""
    if not isinstance(obj, dict):
        raise MalformedBlockError("block JSON must be an object")
    expected = {"index", "timestamp", "data", "prev_hash", "hash", "difficulty", "nonce"}
    if set(obj) != expected:
        raise MalformedBlockError(f"block JSON keys must be {sorted(expected)}, got {sorted(obj)}")
    blk = Block(
        index=obj["index"],
        timestamp=obj["timestamp"],
        data=obj["data"],
        prev_hash=obj["prev_hash"],
        hash=obj["hash"],
        difficulty=obj["difficulty"],
        nonce=obj["nonce"],
    )
    validate_block_shape(blk)
    return blk
