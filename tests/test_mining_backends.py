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

    # the search seeds one context per thousand nonces, so windows that
    # start at, end at and cross a thousand's edge and a digit count's
    BOUNDARIES = [1000, 10_000, 10**6]
    PREFIX = b"3\x1f4\x1fedges\x1f" + b"5" * 64 + b"\x1f4\x1f"

    @pytest.mark.parametrize("edge", BOUNDARIES)
    def test_every_nonce_near_an_edge_hashes_its_decimal_digits(self, edge):
        # at 0 bits the first nonce of a window hits, so each start's digest
        # is the one-shot hash of the prefix and that nonce's digits
        for start in range(edge - 3, edge + 3):
            assert search_nonce(self.PREFIX, 0, start, 5) == reference_search(
                self.PREFIX, 0, start, 5)

    @pytest.mark.parametrize("bits", [4, 8, 32])
    @pytest.mark.parametrize("edge", BOUNDARIES)
    def test_windows_at_and_across_an_edge_match_the_oracle(self, edge, bits):
        windows = [(edge, 300), (edge - 300, 300), (edge - 1, 2), (edge - 150, 300),
                   (max(0, edge - 1500), 3000), (edge + 437, 1200)]
        for start, count in windows:
            assert search_nonce(self.PREFIX, bits, start, count) == reference_search(
                self.PREFIX, bits, start, count), (start, count)

    @pytest.mark.parametrize("bits", [0, 4, 32])
    def test_window_ending_at_max_nonce(self, bits):
        for start in (mining.MAX_NONCE, mining.MAX_NONCE - 2, mining.MAX_NONCE - 1999):
            count = mining.MAX_NONCE + 1 - start
            assert search_nonce(self.PREFIX, bits, start, count) == reference_search(
                self.PREFIX, bits, start, count), start

    def test_window_starting_mid_thousand_matches_the_oracle(self):
        rng = random.Random(28)
        for _ in range(20):
            start = rng.randrange(10**9) * 1000 + rng.randrange(1, 1000)
            count = rng.randrange(1, 2500)
            assert search_nonce(self.PREFIX, 6, start, count) == reference_search(
                self.PREFIX, 6, start, count), (start, count)

    def test_empty_window_misses(self):
        assert search_nonce(b"xyz", 30, 0, 64) is None


class TestDriver:
    def test_find_nonce_returns_smallest(self):
        prefix = b"5\x1f9\x1fbody\x1f" + b"1" * 64 + b"\x1f6\x1f"
        nonce, digest = mining.find_nonce(prefix, 6)
        ref = reference_search(prefix, 6, 0, nonce + 1)
        assert ref == (nonce, digest)

    @pytest.mark.parametrize("bits", [6, 10, 12])
    def test_windows_find_the_smallest_nonce(self, bits):
        # window by window, as the live node searches, the first window with
        # a hit holds the nonce one whole search finds
        prefix = b"7\x1f3\x1fwindows\x1f" + b"2" * 64 + b"\x1f%d\x1f" % bits
        whole = mining.find_nonce(prefix, bits)
        for window in (1, 100, mining.CANCEL_CHECK_INTERVAL):
            start = 0
            while (hit := mining.find_nonce(prefix, bits, start, window)) is None:
                start += window
            assert hit == whole
            assert start <= whole[0] < start + window

    def test_cancel_checked_at_least_every_interval(self):
        assert mining.CANCEL_CHECK_INTERVAL <= 2**16

    def test_exhausted_nonce_space_raises(self, monkeypatch):
        # shrink the space so a 32-bit target provably has no hit inside it
        monkeypatch.setattr(mining, "MAX_NONCE", 2**10 - 1)
        with pytest.raises(mining.NonceSpaceExhausted):
            mining.find_nonce(b"nobody-home", 32)
        # a window that ends at the last nonce, or reaches past it
        with pytest.raises(mining.NonceSpaceExhausted):
            mining.find_nonce(b"nobody-home", 32, 2**10 - 256, 256)
        with pytest.raises(mining.NonceSpaceExhausted):
            mining.find_nonce(b"nobody-home", 32, 2**10 - 100, 256)
        # a window that stops short of it only misses
        assert mining.find_nonce(b"nobody-home", 32, 2**10 - 256, 255) is None

    def test_range_past_max_nonce_searches_only_up_to_it(self, monkeypatch):
        calls = []

        def search(prefix, bits, start, count):
            calls.append((start, count))
            return None

        monkeypatch.setattr(mining, "_search", search)
        with pytest.raises(mining.NonceSpaceExhausted):
            mining.find_nonce(b"x", 8, mining.MAX_NONCE - 9, 4096)
        assert calls == [(mining.MAX_NONCE - 9, 10)]
