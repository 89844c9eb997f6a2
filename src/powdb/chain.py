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
SEP_CHAR = "\x1f"

ZERO_HASH = "0" * 64

GENESIS_DATA = "GENESIS"

_HEX_HASH = re.compile(r"[0-9a-f]{64}")
_BLOCK_KEYS = frozenset({"index", "timestamp", "data", "prev_hash", "hash", "difficulty", "nonce"})

# The largest index, timestamp and nonce a block may carry: SQLite's largest
# integer, so that every block that passes the shape check can be stored.
MAX_BLOCK_INT = 2**63 - 1
MAX_NONCE = MAX_BLOCK_INT
MAX_DIFFICULTY_BITS = 32


class MalformedBlockError(ValueError):
    """Raised when a block (usually off the wire) violates the field contracts."""


@dataclass(frozen=True, init=False)
class Block:
    index: int
    timestamp: int  # Unix seconds, set by the block creator
    data: str
    prev_hash: str
    hash: str
    difficulty: int  # leading zero bits required of `hash`
    nonce: int
    # set on an instance that has passed validate_block_shape; not a field, so
    # ==, hash() and repr() ignore it, and a dataclasses.replace copy is unchecked
    shape_checked = False

    def __init__(self, index, timestamp, data, prev_hash, hash, difficulty, nonce):
        # one dict update: a frozen dataclass's own __init__ sets each field apart
        self.__dict__.update(index=index, timestamp=timestamp, data=data, prev_hash=prev_hash,
                             hash=hash, difficulty=difficulty, nonce=nonce)

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
    off the wire never reaches the hashing code. A block that passes is
    marked `shape_checked`, and verify_block does not check it again.
    """
    if not is_block_int(block.index):
        raise MalformedBlockError(f"index must be an integer in [0, 2**63), got {block.index!r}")
    if not is_block_int(block.timestamp):
        raise MalformedBlockError(f"timestamp must be an integer in [0, 2**63), got {block.timestamp!r}")
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
    block.__dict__["shape_checked"] = True  # the record is frozen


def mining_prefix_bytes(block: Block) -> bytes:
    """Preimage bytes up to and including the separator before the nonce.

    The nonce search appends decimal nonces to this fixed prefix, so it is
    computed once per candidate block.
    """
    if SEP_CHAR in block.data:
        raise MalformedBlockError("data must not contain the 0x1f separator byte")
    return (f"{block.index}{SEP_CHAR}{block.timestamp}{SEP_CHAR}{block.data}{SEP_CHAR}"
            f"{block.prev_hash}{SEP_CHAR}{block.difficulty}{SEP_CHAR}").encode()


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


def genesis_block() -> Block:
    """The fixed chain root every node shares; exempt from proof of work."""
    blk = Block(index=0, timestamp=0, data=GENESIS_DATA, prev_hash=ZERO_HASH,
                hash="", difficulty=0, nonce=0)
    return blk.with_hash(block_hash(blk))


def cumulative_work(chain: list[Block]) -> int:
    """Sum of 2^difficulty over every block after the first, the root the
    list is weighed from (genesis for a whole chain); the fork-choice weight."""
    work = 0
    for b in chain[1:]:
        work += 1 << b.difficulty
    return work


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
    if obj.keys() != _BLOCK_KEYS:
        raise MalformedBlockError(f"block JSON keys must be {sorted(_BLOCK_KEYS)}, got {sorted(obj)}")
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
