"""The nonce search: one window of candidate nonces over hashlib SHA-256.

A nonce's digits are those of its thousand, then its last three, so the
block prefix and each thousand's digits are hashed once, and each attempt
clones that context, hashes a tail from a table and compares the digest
with the window's bound as bytes.
"""

from __future__ import annotations

import hashlib

_TAILS = tuple(b"%03d" % n for n in range(1000))  # after a thousand's digits
_SHORT = tuple(b"%d" % n for n in range(1000))  # a nonce under 1000, whole


def search_nonce(prefix: bytes, difficulty_bits: int, start_nonce: int,
                 count: int) -> tuple[int, bytes] | None:
    """First (nonce, digest) in [start_nonce, start_nonce+count) meeting the
    difficulty, or None if the window holds no hit. A digest meets
    `difficulty_bits` in [0, 32] when, as 32 big-endian bytes, it is at most
    2**(256 - bits) - 1."""
    bound = ((1 << (256 - difficulty_bits)) - 1).to_bytes(32, "big")
    root = hashlib.sha256(prefix)
    nonce, end = start_nonce, start_nonce + count
    while nonce < end:
        thousand, low = divmod(nonce, 1000)
        base = root.copy()
        base.update(b"%d" % thousand if thousand else b"")
        tails = _TAILS if thousand else _SHORT
        for nonce, tail in enumerate(tails[low:min(1000, low + end - nonce)], nonce):
            ctx = base.copy()
            ctx.update(tail)
            if (digest := ctx.digest()) <= bound:
                return nonce, digest
        nonce += 1
    return None
