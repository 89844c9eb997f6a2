"""Nonce search over one range of nonces, in one call of the hashlib search."""

from __future__ import annotations

# _minepure stays its own module, because perfbench/backends.py imports it.
from powdb import _minepure
from powdb.chain import MAX_NONCE

# Looked up by find_nonce at call time, because perfbench/spans.py patches it.
_search = _minepure.search_nonce
# Kept as a constant, because perfbench/run.py and backends.py read it.
BACKEND = "pure"

# Nonces a live node searches per turn of its loop, about 0.4 ms at ~0.75 µs
# per nonce: a request that arrives while a window runs waits at most that
# long, and a competing block stops the search at the next window. With 512,
# a stats query's p95 while the node mines stays within 2x its idle p95;
# with 1024 it did not.
CANCEL_CHECK_INTERVAL = 512


class NonceSpaceExhausted(RuntimeError):
    """No nonce in [0, MAX_NONCE] gave a qualifying hash."""


def find_nonce(prefix: bytes, difficulty_bits: int, start: int = 0,
               count: int | None = None) -> tuple[int, bytes] | None:
    """The smallest (nonce, digest) in [start, start+count) that meets the
    difficulty, or None if the range holds none. `count` None searches up to
    MAX_NONCE; a range without a hit that reaches past MAX_NONCE raises
    NonceSpaceExhausted."""
    end = MAX_NONCE + 1 if count is None else start + count
    hit = _search(prefix, difficulty_bits, start, min(end, MAX_NONCE + 1) - start)
    if hit is None and end > MAX_NONCE:
        raise NonceSpaceExhausted(f"no nonce meets {difficulty_bits} bits for this prefix")
    return hit
