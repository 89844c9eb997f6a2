"""The nonce search: one window of candidate nonces over hashlib SHA-256.

Seeds one hashlib context with the block prefix and clones it per nonce, so
each attempt only hashes the decimal nonce suffix.
"""

from __future__ import annotations

import hashlib

from powdb.chain import digest_meets_difficulty


def search_nonce(prefix: bytes, difficulty_bits: int, start_nonce: int,
                 count: int) -> tuple[int, bytes] | None:
    """First (nonce, digest) in [start_nonce, start_nonce+count) meeting the
    difficulty, or None if the window holds no hit."""
    base = hashlib.sha256(prefix)
    for nonce in range(start_nonce, start_nonce + count):
        ctx = base.copy()
        ctx.update(b"%d" % nonce)
        digest = ctx.digest()
        if digest_meets_difficulty(digest, difficulty_bits):
            return nonce, digest
    return None
