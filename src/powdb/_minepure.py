"""The nonce search: one window of candidate nonces over hashlib SHA-256.

Seeds one hashlib context with the block prefix and clones it per nonce, so
each attempt only hashes the decimal nonce suffix, and compares each digest
with the window's bound as bytes.
"""

from __future__ import annotations

import hashlib


def search_nonce(prefix: bytes, difficulty_bits: int, start_nonce: int,
                 count: int) -> tuple[int, bytes] | None:
    """First (nonce, digest) in [start_nonce, start_nonce+count) meeting the
    difficulty, or None if the window holds no hit. A digest meets
    `difficulty_bits` in [0, 32] when, as 32 big-endian bytes, it is at most
    2**(256 - bits) - 1."""
    bound = ((1 << (256 - difficulty_bits)) - 1).to_bytes(32, "big")
    base = hashlib.sha256(prefix)
    for nonce in range(start_nonce, start_nonce + count):
        ctx = base.copy()
        ctx.update(b"%d" % nonce)
        digest = ctx.digest()
        if digest <= bound:
            return nonce, digest
    return None
