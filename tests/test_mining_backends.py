"""The hashlib nonce search against an independent oracle, and find_nonce."""

import hashlib
import random

import pytest

from powdb import mining
from powdb._minepure import search_nonce


def reference_search(prefix, bits, start, count):
    """Independent oracle: plain hashlib loop, no context reuse."""
    for nonce in range(start, start + count):
        digest = hashlib.sha256(prefix + str(nonce).encode()).digest()
        value = int.from_bytes(digest[:4], "big")
        if bits == 0 or value >> (32 - bits) == 0:
            return nonce, digest
    return None


class TestSearch:
    def test_difficulty_zero_hits_immediately(self):
        hit = search_nonce(b"abc\x1f", 0, 0, 10)
        assert hit is not None
        assert hit[0] == 0

    def test_matches_reference_on_random_prefixes(self):
        rng = random.Random(1234)
        for _ in range(25):
            prefix = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
            prefix = prefix.replace(b"\x1f", b"-")
            bits = rng.choice([4, 6, 8, 10])
            expected = reference_search(prefix, bits, 0, 1 << 16)
            got = search_nonce(prefix, bits, 0, 1 << 16)
            assert got == expected

    def test_window_start_offsets(self):
        prefix = b"1\x1f2\x1fdata\x1f" + b"0" * 64 + b"\x1f8\x1f"
        full = reference_search(prefix, 8, 0, 1 << 14)
        assert full is not None
        first, _ = full
        # a window starting past the first hit finds the next one
        nxt = search_nonce(prefix, 8, first + 1, 1 << 14)
        ref = reference_search(prefix, 8, first + 1, 1 << 14)
        assert nxt == ref

    def test_empty_window_misses(self):
        assert search_nonce(b"xyz", 30, 0, 64) is None


class FlagCancel:
    def __init__(self, after_polls):
        self.polls = 0
        self.after = after_polls

    def is_set(self):
        self.polls += 1
        return self.polls > self.after


class TestDriver:
    def test_find_nonce_returns_smallest(self):
        prefix = b"5\x1f9\x1fbody\x1f" + b"1" * 64 + b"\x1f6\x1f"
        nonce, digest = mining.find_nonce(prefix, 6)
        ref = reference_search(prefix, 6, 0, nonce + 1)
        assert ref == (nonce, digest)

    def test_cancel_stops_search(self):
        # difficulty 32 will essentially never hit within a few batches
        cancel = FlagCancel(after_polls=2)
        assert mining.find_nonce(b"never", 32, cancel=cancel, batch=256) is None
        assert cancel.polls >= 3

    def test_cancel_checked_at_least_every_interval(self):
        assert mining.CANCEL_CHECK_INTERVAL <= 2**16

    def test_bad_batch_rejected(self):
        with pytest.raises(ValueError):
            mining.find_nonce(b"x", 4, batch=0)
        with pytest.raises(ValueError):
            mining.find_nonce(b"x", 4, batch=2**17)

    def test_exhausted_nonce_space_raises(self, monkeypatch):
        # shrink the space so a 32-bit target provably has no hit inside it
        monkeypatch.setattr(mining, "MAX_NONCE", 2**10 - 1)
        with pytest.raises(mining.NonceSpaceExhausted):
            mining.find_nonce(b"nobody-home", 32, batch=256)
