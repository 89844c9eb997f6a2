"""Batched, cancellable nonce search: find_nonce runs the hashlib search window by window."""

from __future__ import annotations

# _minepure stays its own module, because perfbench/backends.py imports it.
from powdb import _minepure
from powdb.chain import MAX_NONCE

# Looked up by find_nonce at call time, because perfbench/spans.py patches it.
_search = _minepure.search_nonce
# Kept as a constant, because perfbench/run.py and backends.py read it.
BACKEND = "pure"

# Nonce attempts between cancel polls. Must stay at or below 2**16 so a
# competing block can stop a miner promptly.
CANCEL_CHECK_INTERVAL = 4096


class NonceSpaceExhausted(RuntimeError):
    """The full 64-bit nonce space held no qualifying hash."""


def find_nonce(prefix: bytes, difficulty_bits: int, cancel=None,
               batch: int = CANCEL_CHECK_INTERVAL) -> tuple[int, bytes] | None:
    """Search nonces from 0 upward; returns (nonce, digest) or None on cancel.

    `cancel` is anything with an `is_set()` method (a threading.Event in the
    live node); it is polled between batches, never mid-batch.
    """
    if not 0 < batch <= 2**16:
        raise ValueError("batch must be in (0, 65536]")
    nonce = 0
    while True:
        if cancel is not None and cancel.is_set():
            return None
        window = min(batch, MAX_NONCE - nonce + 1)
        hit = _search(prefix, difficulty_bits, nonce, window)
        if hit is not None:
            return hit
        nonce += window
        if nonce > MAX_NONCE:
            raise NonceSpaceExhausted(
                f"no nonce meets {difficulty_bits} bits for this prefix")
