"""Block creation, mining, verification, difficulty retargeting and fork choice."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from powdb import mining
from powdb.chain import (
    Block,
    ChainParams,
    MalformedBlockError,
    SEP_CHAR,
    block_hash,
    cumulative_work,
    genesis_block,
    mining_prefix_bytes,
    validate_block_shape,
)


class VerifyReason(Enum):
    WRONG_INDEX = "WrongIndex"
    PREV_HASH_MISMATCH = "PrevHashMismatch"
    HASH_MISMATCH = "HashMismatch"
    INSUFFICIENT_WORK = "InsufficientWork"
    MALFORMED_BLOCK = "MalformedBlock"
    # a gossiped block whose parent its sender's sync reply did not supply
    PARENT_NOT_SERVED = "ParentNotServed"


@dataclass(frozen=True, init=False)
class VerifyError:
    reason: VerifyReason
    detail: str = ""

    def __init__(self, reason, detail=""):
        self.__dict__.update(reason=reason, detail=detail)  # not one setattr per field

    def __str__(self) -> str:
        return f"{self.reason.value}: {self.detail}" if self.detail else self.reason.value


def effective_bits(d: float) -> int:
    """Round a real-valued difficulty to whole bits, ties upward.

    The difficulty stays a float between retargets because integer bits would
    quantize the multiplicative update too coarsely; it is rounded only when a
    block is actually mined or checked.
    """
    return math.floor(d + 0.5)


def retarget_raw(d_current: float, t_target_ms: float, t_actual_ms: float) -> float:
    """The bare retarget product: new = current * target/actual."""
    return d_current * (t_target_ms / t_actual_ms)


def adjust_difficulty(d: float, t_actual_ms: int, params: ChainParams) -> float:
    """Apply one retarget step with the per-step clamp and the bit bounds.

    A measured interval of zero (two blocks in the same second) is clamped up
    to 1 ms, which drives the factor to the upper clamp.
    """
    lo, hi = params.retarget_clamp
    factor = min(max(params.target_block_interval_ms / max(1, t_actual_ms), lo), hi)
    return min(max(d * factor, float(params.min_difficulty)), float(params.max_difficulty))


def difficulty_after_append(d: float, new_block: Block, prev_block: Block,
                            params: ChainParams) -> float:
    """Retarget after appending `new_block` on top of `prev_block`.

    The interval against the hard-coded genesis is not a mining-time sample,
    so the first retarget happens once two mined blocks exist.
    """
    if prev_block.index == 0:
        return d
    return adjust_difficulty(d, (new_block.timestamp - prev_block.timestamp) * 1000, params)


def replay_difficulty(blocks: list[Block], params: ChainParams) -> float:
    """The difficulty after `blocks`, recomputed from genesis; tests hold each
    stored difficulty to it, and no node code calls it. Deterministic across
    nodes because intervals come from block timestamps, never receipt times.
    """
    d = float(params.initial_difficulty)
    for i in range(1, len(blocks)):
        d = difficulty_after_append(d, blocks[i], blocks[i - 1], params)
    return d


def create_new_block(data: str, head: Block, difficulty: int, timestamp: int) -> Block:
    """Construct the unmined successor of `head`; hash stays empty until mined."""
    if SEP_CHAR in data:
        raise MalformedBlockError("data must not contain the 0x1f separator byte")
    return Block(index=head.index + 1, timestamp=timestamp, data=data,
                 prev_hash=head.hash, hash="", difficulty=difficulty, nonce=0)


def mine_block(block: Block, start: int = 0, count: int | None = None) -> Block | None:
    """The block mined with the smallest nonce in [start, start+count) whose
    hash meets its difficulty, or None if the range holds none; `count`
    None searches up to MAX_NONCE."""
    prefix = mining_prefix_bytes(block)
    hit = mining.find_nonce(prefix, block.difficulty, start, count)
    if hit is None:
        return None
    nonce, digest = hit
    return Block(block.index, block.timestamp, block.data, block.prev_hash, digest.hex(),
                 block.difficulty, nonce)


def verify_block(block: Block, current_head: Block,
                 min_difficulty: int = 1) -> VerifyError | None:
    """The shape gate, then the four acceptance conditions, in a fixed order.

    Returns None when the block extends `current_head`, else the first
    failing condition so rejection reasons are deterministic. A block
    already marked `shape_checked` (block_from_json marks every block it
    returns) is not shape-checked again; the hash check shows `block.hash`
    is a SHA-256 hexdigest, so the work test reads that digest unchecked.
    """
    if not block.shape_checked:
        try:
            validate_block_shape(block)
        except MalformedBlockError as exc:
            return VerifyError(VerifyReason.MALFORMED_BLOCK, str(exc))
    if block.index != current_head.index + 1:
        return VerifyError(VerifyReason.WRONG_INDEX,
                           f"expected {current_head.index + 1}, got {block.index}")
    if block.prev_hash != current_head.hash:
        return VerifyError(VerifyReason.PREV_HASH_MISMATCH,
                           f"head is {current_head.hash[:16]}..., block links {block.prev_hash[:16]}...")
    digest = block_hash(block)
    if block.hash != digest:
        return VerifyError(VerifyReason.HASH_MISMATCH, "stored hash differs from computed hash")
    # difficulty is in [0, 32]: the digest's first 32 bits, shifted, are 0 iff they meet it
    if block.difficulty < min_difficulty or int(digest[:8], 16) >> (32 - block.difficulty):
        return VerifyError(VerifyReason.INSUFFICIENT_WORK,
                           f"hash does not carry {block.difficulty} leading zero bits "
                           f"(minimum {min_difficulty})")
    return None


def verify_chain(chain: list[Block], params: ChainParams,
                 known: int = 0) -> VerifyError | None:
    """Block-by-block verification from the shared genesis.

    The first `known` blocks are taken as already verified (the caller holds
    them), so checking starts at block `known`; genesis is checked only when
    `known` is 0.
    """
    if not chain:
        return VerifyError(VerifyReason.MALFORMED_BLOCK, "empty chain")
    if known == 0 and chain[0] != genesis_block():
        return VerifyError(VerifyReason.MALFORMED_BLOCK, "genesis differs from the shared root")
    for i in range(max(known, 1), len(chain)):
        err = verify_block(chain[i], chain[i - 1], params.min_difficulty)
        if err is not None:
            return VerifyError(err.reason, f"block {chain[i].index}: {err.detail}")
    return None


def shared_prefix(a: list[Block], b: list[Block]) -> int:
    """How many leading blocks the two chains have in common."""
    common = 0
    for ours, theirs in zip(a, b):
        if ours is not theirs and ours != theirs:  # one object needs no field compare
            break
        common += 1
    return common


def choose_chain(local: list[Block], candidate: list[Block], params: ChainParams,
                 common: int | None = None) -> tuple[list[Block], VerifyError | None]:
    """Greatest cumulative work wins; ties and lesser work keep the local chain.

    Returns (selected chain, error); the error is set when the candidate
    failed verification, in which case the local chain is kept. The local
    chain holds only verified blocks, so the `common` blocks the candidate
    shares with it (shared_prefix when None) are neither verified nor
    weighed again. Linkage is checked once, in verify_chain."""
    common = shared_prefix(local, candidate) if common is None else common
    err = verify_chain(candidate, params, common)
    if err is not None:
        return local, err
    root = max(common, 1) - 1  # the last block both chains hold
    if cumulative_work(candidate[root:]) > cumulative_work(local[root:]):
        return candidate, None
    return local, None
