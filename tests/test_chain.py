"""Block model, canonical serialization, hashing and the difficulty predicate."""

import hashlib
import random
from types import SimpleNamespace

import pytest

from powdb import _minepure
from powdb.chain import (
    Block,
    ChainParams,
    MalformedBlockError,
    ZERO_HASH,
    block_from_json,
    block_hash,
    block_to_json,
    canonical_block_bytes,
    cumulative_work,
    genesis_block,
    is_hex_hash,
    meets_difficulty,
    validate_block_shape,
)

# Frozen before the build from a standalone SHA-256 pass over the
# hand-written genesis preimage bytes.
GENESIS_HASH = "59f26e7ddc5e0efd36a420a4785746f5c0d9905185c2643db1df47774532c970"
GENESIS_NONCE7_HASH = "ad20a75c733098e679a18eb8577c1ab0f639ced9d0528eace25ffe35f2df4e4c"


def unmined(index=0, timestamp=0, data="GENESIS", prev_hash=ZERO_HASH,
            difficulty=0, nonce=0):
    return Block(index=index, timestamp=timestamp, data=data, prev_hash=prev_hash,
                 hash="", difficulty=difficulty, nonce=nonce)


def sealed(**kwargs):
    blk = unmined(**kwargs)
    return blk.with_hash(block_hash(blk))


class TestCanonicalBytes:
    def test_genesis_layout(self):
        expected = b"0\x1f0\x1fGENESIS\x1f" + b"0" * 64 + b"\x1f0\x1f0"
        assert canonical_block_bytes(unmined()) == expected

    def test_nonce_changes_only_tail(self):
        base = canonical_block_bytes(unmined())
        with_nonce = canonical_block_bytes(unmined(nonce=7))
        assert with_nonce == base[:-1] + b"7"

    def test_decimal_prefix(self):
        got = canonical_block_bytes(unmined(index=12, timestamp=1700000000))
        assert got.startswith(b"12\x1f1700000000\x1f")

    def test_no_leading_zeros(self):
        assert canonical_block_bytes(unmined(index=0)).startswith(b"0\x1f")

    def test_rejects_separator_in_data(self):
        with pytest.raises(MalformedBlockError):
            canonical_block_bytes(unmined(data="a\x1fb"))

    def test_injective_on_random_blocks(self):
        rng = random.Random(7)
        seen = {}
        for _ in range(300):
            blk = unmined(
                index=rng.randrange(1000),
                timestamp=rng.randrange(10**9),
                data="".join(rng.choice("abc0 19") for _ in range(rng.randrange(8))),
                difficulty=rng.randrange(33),
                nonce=rng.randrange(2**32),
            )
            key = canonical_block_bytes(blk)
            if key in seen:
                assert seen[key] == blk
            seen[key] = blk


class TestBlockHash:
    def test_genesis_matches_oracle(self):
        assert block_hash(unmined()) == GENESIS_HASH

    def test_nonce7_matches_oracle(self):
        assert block_hash(unmined(nonce=7)) == GENESIS_NONCE7_HASH

    def test_output_shape(self):
        digest = block_hash(unmined(index=3, timestamp=5, data="x",
                                    prev_hash="ab" * 32, difficulty=4, nonce=9))
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")

    def test_nonce_flip_changes_digest(self):
        a = block_hash(unmined(nonce=0))
        b = block_hash(unmined(nonce=1))
        assert a != b
        # each agrees with a direct digest of its canonical bytes
        assert a == hashlib.sha256(canonical_block_bytes(unmined(nonce=0))).hexdigest()
        assert b == hashlib.sha256(canonical_block_bytes(unmined(nonce=1))).hexdigest()

    def test_every_preimage_field_matters(self):
        rng = random.Random(11)
        base = unmined(index=5, timestamp=100, data="abc", prev_hash="cd" * 32,
                       difficulty=6, nonce=42)
        baseline = block_hash(base)
        mutations = [
            dict(index=6), dict(timestamp=101), dict(data="abd"),
            dict(prev_hash="ce" * 32), dict(difficulty=7), dict(nonce=43),
        ]
        for _ in range(50):
            fields = dict(index=base.index, timestamp=base.timestamp, data=base.data,
                          prev_hash=base.prev_hash, difficulty=base.difficulty,
                          nonce=base.nonce)
            fields.update(rng.choice(mutations))
            mutated = unmined(**fields)
            assert block_hash(mutated) != baseline
            assert block_hash(mutated) == hashlib.sha256(
                canonical_block_bytes(mutated)).hexdigest()


class FixedDigest:
    """A stand-in for a hashlib SHA-256 context whose digest is fixed."""

    def __init__(self, digest):
        self._digest = digest

    def copy(self):
        return self

    def update(self, _data):
        pass

    def digest(self):
        return self._digest


class TestMeetsDifficulty:
    def test_zero_bits_always_true(self):
        assert meets_difficulty("f" * 64, 0)

    def test_first_byte_zero_is_eight_bits(self):
        h = "00ff" + "0" * 60
        assert meets_difficulty(h, 8)
        assert not meets_difficulty(h, 9)

    def test_monotone_in_bits(self):
        rng = random.Random(3)
        for _ in range(200):
            digest = bytes(rng.randrange(256) for _ in range(32))
            hex_digest = digest.hex()
            ok = [meets_difficulty(hex_digest, d) for d in range(33)]
            # once it fails at d it fails for every larger d
            for d in range(32):
                if not ok[d]:
                    assert not any(ok[d:])
                    break

    def test_hex_and_digest_forms_agree(self):
        # the nonce search's hit or miss on each nonce of a window, against
        # the predicate over the hex of the same digest, for every difficulty
        prefix = b"1\x1f2\x1fdata\x1f" + b"0" * 64 + b"\x1f"
        for nonce in range(300):
            digest = hashlib.sha256(prefix + b"%d" % nonce).digest()
            for d in range(33):
                hit = _minepure.search_nonce(prefix, d, nonce, 1)
                assert (hit is not None) == meets_difficulty(digest.hex(), d)
                assert hit is None or hit == (nonce, digest)

    def test_digest_form_agrees_at_every_boundary(self, monkeypatch):
        # digests whose first set bit is bit p, for p from 0 to 32, with
        # every later bit clear, random or set, or that are all zero, handed
        # to the nonce search by a stand-in for SHA-256, against every
        # difficulty from 0 to 32
        rng = random.Random(7)
        values = [0] + [(1 << (255 - p)) | (tail >> (p + 1)) for p in range(33)
                        for tail in (0, rng.getrandbits(256), 2**256 - 1)]
        for value in values:
            digest = value.to_bytes(32, "big")
            monkeypatch.setattr(_minepure, "hashlib", SimpleNamespace(
                sha256=lambda _prefix, _d=digest: FixedDigest(_d)))
            for d in range(33):
                expected = meets_difficulty(digest.hex(), d)
                hit = _minepure.search_nonce(b"prefix", d, 5, 1)
                assert hit == ((5, digest) if expected else None)
                assert expected == (value >> (256 - d) == 0)

    def test_malformed_hex_raises(self):
        with pytest.raises(ValueError):
            meets_difficulty("zz" * 32, 4)
        with pytest.raises(ValueError):
            meets_difficulty("abc", 4)


class TestGenesis:
    def test_fixed_fields(self):
        g = genesis_block()
        assert g.index == 0
        assert g.prev_hash == ZERO_HASH
        assert g.timestamp == 0
        assert g.difficulty == 0
        assert g.nonce == 0

    def test_pure_function(self):
        assert genesis_block() == genesis_block()

    def test_hash_matches_oracle(self):
        assert genesis_block().hash == GENESIS_HASH


class TestCumulativeWork:
    def chain_with_difficulties(self, difficulties):
        blocks = [genesis_block()]
        for d in difficulties:
            blk = sealed(index=blocks[-1].index + 1, timestamp=10,
                         data="x", prev_hash=blocks[-1].hash, difficulty=d)
            blocks.append(blk)
        return blocks

    def test_genesis_only_is_zero(self):
        assert cumulative_work([genesis_block()]) == 0

    def test_two_blocks_at_four_bits(self):
        assert cumulative_work(self.chain_with_difficulties([4, 4])) == 32

    def test_mixed_difficulties(self):
        assert cumulative_work(self.chain_with_difficulties([4, 8])) == 272

    def test_additive_under_concatenation(self):
        chain = self.chain_with_difficulties([3, 5, 7, 2])
        for cut in range(1, len(chain)):
            head, tail = chain[:cut], chain[cut:]
            tail_work = sum(1 << b.difficulty for b in tail)
            assert cumulative_work(chain) == cumulative_work(head) + tail_work


class TestBlockJson:
    def test_round_trip(self):
        blk = sealed(index=2, timestamp=99, data="hello", prev_hash="ab" * 32,
                     difficulty=5, nonce=77)
        assert block_from_json(block_to_json(blk)) == blk

    def test_key_set_enforced(self):
        obj = block_to_json(genesis_block())
        obj["extra"] = 1
        with pytest.raises(MalformedBlockError):
            block_from_json(obj)

    def test_shape_violations_rejected(self):
        good = block_to_json(genesis_block())
        for key, bad in [("index", -1), ("index", "0"), ("timestamp", -5),
                         ("data", 7), ("prev_hash", "xyz"), ("hash", "12"),
                         ("difficulty", 33), ("difficulty", -1),
                         ("nonce", -1), ("nonce", 2**64), ("index", True)]:
            obj = dict(good)
            obj[key] = bad
            with pytest.raises(MalformedBlockError):
                block_from_json(obj)

    def test_data_with_separator_rejected(self):
        obj = block_to_json(genesis_block())
        obj["data"] = "a\x1fb"
        with pytest.raises(MalformedBlockError):
            block_from_json(obj)


class TestChainParams:
    def test_defaults_validate(self):
        ChainParams().validate()

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            ChainParams(min_difficulty=0).validate()
        with pytest.raises(ValueError):
            ChainParams(min_difficulty=9, initial_difficulty=8).validate()
        with pytest.raises(ValueError):
            ChainParams(max_difficulty=33, initial_difficulty=33).validate()
        with pytest.raises(ValueError):
            ChainParams(retarget_clamp=(0.0, 2.0)).validate()
        with pytest.raises(ValueError):
            ChainParams(retarget_clamp=(1.5, 2.0), target_block_interval_ms=0).validate()

    def test_sealed_blocks_pass_shape_check(self):
        validate_block_shape(genesis_block())


@pytest.mark.parametrize("value, expected", [
    ("0123456789abcdef" * 4, True),
    ("0123456789ABCDEF" * 4, False),
    ("a" * 63, False),
    ("a" * 65, False),
    ("a" * 64 + "\n", False),
    ("a" * 63 + "\u0663", False),  # ARABIC-INDIC DIGIT THREE
    (b"a" * 64, False),
    (None, False),
])
def test_is_hex_hash(value, expected):
    assert is_hex_hash(value) is expected
