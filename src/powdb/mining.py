"""Cancellable nonce search: find_nonce runs the hashlib search window by window."""

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
    """No nonce in [0, MAX_NONCE] gave a qualifying hash."""


def find_nonce(prefix: bytes, difficulty_bits: int, cancel=None) -> tuple[int, bytes] | None:
    """Search nonces from 0 upward; returns (nonce, digest) or None on cancel.

    `cancel` is anything with an `is_set()` method (a threading.Event in the
    live node); it is polled between windows of CANCEL_CHECK_INTERVAL
    nonces, never mid-window.
    """
    nonce = 0
    while True:
        if cancel is not None and cancel.is_set():
            return None
        window = min(CANCEL_CHECK_INTERVAL, MAX_NONCE - nonce + 1)
        hit = _search(prefix, difficulty_bits, nonce, window)
        if hit is not None:
            return hit
        nonce += window
        if nonce > MAX_NONCE:
            raise NonceSpaceExhausted(
                f"no nonce meets {difficulty_bits} bits for this prefix")
