"""Mining, the four verification conditions, retargeting and fork choice."""

import math
import random
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from powdb import consensus
from powdb.chain import (
    MAX_DIFFICULTY_BITS,
    Block,
    ChainParams,
    MalformedBlockError,
    block_hash,
    cumulative_work,
    genesis_block,
    meets_difficulty,
)
from powdb.consensus import (
    VerifyError,
    VerifyReason,
    adjust_difficulty,
    choose_chain,
    create_new_block,
    difficulty_after_append,
    effective_bits,
    mine_block,
    replay_difficulty,
    retarget_raw,
    verify_block,
    verify_chain,
)

GENESIS = genesis_block()

# Frozen from an independent hashlib brute-force scan over nonce = 0,1,2,...
# for this exact block prefix at 8 bits.
ORACLE_BLOCK_FIELDS = dict(data="payload-1", difficulty=8, timestamp=1700000000)
ORACLE_NONCE = 21
ORACLE_HASH = "00e3c4a1c32db33837434070b583d357d7d5190f541e86725a114982e4834b04"


def mined_chain(difficulties, data_prefix="blk", start_ts=1000):
    """A fully mined chain on top of genesis, one block per difficulty entry."""
    blocks = [GENESIS]
    for i, d in enumerate(difficulties):
        blk = create_new_block(f"{data_prefix}-{i}", blocks[-1], d, start_ts + i)
        blocks.append(mine_block(blk))
    return blocks


class TestCreateNewBlock:
    def test_successor_of_genesis(self):
        blk = create_new_block("a", GENESIS, 4, 123)
        assert blk.index == 1
        assert blk.prev_hash == GENESIS.hash
        assert blk.nonce == 0
        assert blk.hash == ""

    def test_index_increments(self):
        head = replace(GENESIS, index=41)
        assert create_new_block("x", head, 4, 5).index == 42

    def test_separator_in_data_rejected(self):
        with pytest.raises(MalformedBlockError):
            create_new_block("bad\x1fdata", GENESIS, 4, 5)


class TestMineBlock:
    def test_difficulty_zero_takes_nonce_zero(self):
        blk = create_new_block("free", GENESIS, 0, 7)
        mined = mine_block(blk)
        assert mined.nonce == 0
        assert mined.hash == block_hash(mined)

    def test_matches_brute_force_oracle(self):
        blk = create_new_block(ORACLE_BLOCK_FIELDS["data"], GENESIS,
                               ORACLE_BLOCK_FIELDS["difficulty"],
                               ORACLE_BLOCK_FIELDS["timestamp"])
        mined = mine_block(blk)
        assert mined.nonce == ORACLE_NONCE
        assert mined.hash == ORACLE_HASH

    def test_postconditions(self):
        blk = create_new_block("check", GENESIS, 8, 77)
        mined = mine_block(blk)
        assert meets_difficulty(mined.hash, 8)
        assert block_hash(mined) == mined.hash
        # smallest qualifying nonce: everything below fails the predicate
        for n in range(mined.nonce):
            assert not meets_difficulty(block_hash(replace(mined, nonce=n)), 8)

    def test_mined_block_keeps_every_other_field(self):
        blk = create_new_block("fields", GENESIS, 8, 77)
        mined = mine_block(blk)
        assert mined == replace(blk, nonce=mined.nonce).with_hash(block_hash(mined))

    def test_window_without_hit_returns_none(self):
        blk = create_new_block("window", GENESIS, 8, 77)
        mined = mine_block(blk)
        assert mine_block(blk, 0, mined.nonce) is None
        assert mine_block(blk, mined.nonce, 1) == mined
        assert mine_block(create_new_block("never", GENESIS, 32, 1), 0, 64) is None


class TestRecords:
    """Block and VerifyError are frozen records: a field cannot be set,
    equal fields make equal records with equal hashes, and replace works."""

    def test_block(self):
        blk = mine_block(create_new_block("record", GENESIS, 4, 9))
        for name in ("index", "hash", "nonce", "data"):
            with pytest.raises(FrozenInstanceError):
                setattr(blk, name, getattr(blk, name))
        twin = Block(blk.index, blk.timestamp, blk.data, blk.prev_hash, blk.hash,
                     blk.difficulty, blk.nonce)
        assert twin == blk and hash(twin) == hash(blk) and twin is not blk
        assert {blk: 1}[twin] == 1
        changed = replace(blk, data="other")
        assert changed.data == "other" and changed != blk
        assert replace(changed, data=blk.data) == blk
        assert [getattr(changed, f.name) for f in fields(Block)] == [
            blk.index, blk.timestamp, "other", blk.prev_hash, blk.hash, blk.difficulty, blk.nonce]
        with pytest.raises(TypeError):
            Block(1, 2, "x", "p", "h", 3)  # every field is required

    def test_verify_error(self):
        err = VerifyError(VerifyReason.WRONG_INDEX, "expected 2")
        with pytest.raises(FrozenInstanceError):
            err.detail = "other"
        assert err == VerifyError(reason=VerifyReason.WRONG_INDEX, detail="expected 2")
        assert hash(err) == hash(VerifyError(VerifyReason.WRONG_INDEX, "expected 2"))
        assert VerifyError(VerifyReason.WRONG_INDEX).detail == ""
        assert str(err) == "WrongIndex: expected 2" and str(replace(err, detail="")) == "WrongIndex"


class TestVerifyBlock:
    def setup_method(self):
        blk = create_new_block("verify-me", GENESIS, 4, 50)
        self.block = mine_block(blk)

    def test_mined_block_passes(self):
        assert verify_block(self.block, GENESIS) is None

    def test_wrong_index(self):
        bad = replace(self.block, index=self.block.index + 1)
        assert verify_block(bad, GENESIS).reason is VerifyReason.WRONG_INDEX

    def test_prev_hash_flip(self):
        flipped = ("0" if self.block.prev_hash[0] != "0" else "1") + self.block.prev_hash[1:]
        bad = replace(self.block, prev_hash=flipped)
        assert verify_block(bad, GENESIS).reason is VerifyReason.PREV_HASH_MISMATCH

    def test_hash_mismatch_on_preimage_tampering(self):
        for mutation in (dict(timestamp=self.block.timestamp + 1),
                         dict(data="verify-mE"),
                         dict(difficulty=self.block.difficulty + 1),
                         dict(nonce=self.block.nonce + 1)):
            bad = replace(self.block, **mutation)
            assert verify_block(bad, GENESIS).reason is VerifyReason.HASH_MISMATCH, mutation

    def test_hash_field_flip(self):
        flipped = ("0" if self.block.hash[0] != "0" else "1") + self.block.hash[1:]
        bad = replace(self.block, hash=flipped)
        assert verify_block(bad, GENESIS).reason is VerifyReason.HASH_MISMATCH

    def test_insufficient_work_with_honest_hash(self):
        # honestly hashed but unmined: find fields whose nonce-0 hash fails 8 bits
        data = "lazy-block"
        while True:
            blk = create_new_block(data, GENESIS, 8, 60)
            blk = blk.with_hash(block_hash(blk))
            if not meets_difficulty(blk.hash, 8):
                break
            data += "."
        assert verify_block(blk, GENESIS).reason is VerifyReason.INSUFFICIENT_WORK

    def test_work_test_agrees_with_meets_difficulty_at_every_boundary(self, monkeypatch):
        # verify_block reads the digest it computed without meets_difficulty's
        # hex check; digests whose first set bit is bit p, p from 0 to 32, with
        # every later bit clear, random or set, or all zero, at every difficulty
        rng = random.Random(34)
        digests = [0]
        for p in range(33):
            top = 1 << (255 - p)
            digests += [top, top | rng.getrandbits(255 - p), top | (top - 1)]
        for value in digests:
            digest = f"{value:064x}"
            monkeypatch.setattr(consensus, "block_hash", lambda _blk, _d=digest: _d)
            for d in range(MAX_DIFFICULTY_BITS + 1):
                blk = replace(self.block, hash=digest, difficulty=d)
                err = verify_block(blk, GENESIS, min_difficulty=0)
                assert (err is None) == meets_difficulty(digest, d), (digest, d)
                assert err is None or err.reason is VerifyReason.INSUFFICIENT_WORK

    def test_below_min_difficulty_rejected(self):
        blk = mine_block(create_new_block("weak", GENESIS, 2, 60))
        assert verify_block(blk, GENESIS, min_difficulty=1) is None
        assert verify_block(blk, GENESIS, min_difficulty=4).reason is VerifyReason.INSUFFICIENT_WORK

    def test_malformed_block(self):
        bad = replace(self.block, prev_hash="nothex")
        assert verify_block(bad, GENESIS).reason is VerifyReason.MALFORMED_BLOCK

    def test_every_single_field_mutation_rejected(self):
        rng = random.Random(21)
        expected = {
            "index": VerifyReason.WRONG_INDEX,
            "prev_hash": VerifyReason.PREV_HASH_MISMATCH,
            "timestamp": VerifyReason.HASH_MISMATCH,
            "data": VerifyReason.HASH_MISMATCH,
            "difficulty": VerifyReason.HASH_MISMATCH,
            "nonce": VerifyReason.HASH_MISMATCH,
            "hash": VerifyReason.HASH_MISMATCH,
        }
        chain = mined_chain([4] * 10)
        for i in range(1, len(chain)):
            head, blk = chain[i - 1], chain[i]
            for field, reason in expected.items():
                mutated = _mutate_field(blk, field, rng)
                err = verify_block(mutated, head)
                assert err is not None and err.reason is reason, (field, i)


def _mutate_field(blk: Block, field: str, rng: random.Random) -> Block:
    if field in ("index", "timestamp", "nonce"):
        return replace(blk, **{field: getattr(blk, field) + rng.choice([1, 2, 5])})
    if field == "difficulty":
        return replace(blk, difficulty=blk.difficulty + 1)
    if field == "data":
        return replace(blk, data=blk.data + "!")
    value = getattr(blk, field)
    pos = rng.randrange(64)
    new_digit = "0123456789abcdef"[(int(value[pos], 16) + 1) % 16]
    return replace(blk, **{field: value[:pos] + new_digit + value[pos + 1:]})


class TestAdjustDifficulty:
    PARAMS = ChainParams(target_block_interval_ms=10_000, initial_difficulty=8,
                         min_difficulty=1, max_difficulty=32)

    def test_on_target_is_identity(self):
        assert adjust_difficulty(8.0, 10_000, self.PARAMS) == 8.0

    def test_double_interval_halves(self):
        assert abs(adjust_difficulty(8.0, 20_000, self.PARAMS) - 4.0) < 1e-12

    def test_raw_formula_exact(self):
        assert abs(retarget_raw(8.0, 10_000, 20_000) - 4.0) < 1e-12

    def test_fast_block_clamped_to_double(self):
        assert adjust_difficulty(8.0, 100, self.PARAMS) == 16.0

    def test_zero_interval_clamped_to_one_ms(self):
        assert adjust_difficulty(8.0, 0, self.PARAMS) == 16.0  # factor still capped at 2.0

    def test_direction_property(self):
        rng = random.Random(1)
        params = ChainParams(target_block_interval_ms=5000, initial_difficulty=8,
                             min_difficulty=2, max_difficulty=20)
        for _ in range(10_000):
            d = rng.uniform(2, 20)
            t_actual = rng.randrange(1, 20_000)
            new = adjust_difficulty(d, t_actual, params)
            assert params.min_difficulty <= new <= params.max_difficulty
            if t_actual > 5000:
                assert new <= d + 1e-9
            elif t_actual < 5000:
                assert new >= d - 1e-9

    def test_effective_bits_rounds_ties_up(self):
        assert effective_bits(7.5) == 8
        assert effective_bits(7.49) == 7
        assert effective_bits(8.0) == 8

    def test_simulated_mining_converges(self):
        # rate-controlled hash oracle: 1024 attempts/s, so 10 bits sits on target
        params = ChainParams(target_block_interval_ms=1000, initial_difficulty=6,
                             min_difficulty=1, max_difficulty=20)
        rng = random.Random(42)
        rate_per_ms = 1024 / 1000.0
        d = float(params.initial_difficulty)
        intervals = []
        for _ in range(200):
            p = 2.0 ** -effective_bits(d)
            attempts = int(math.log(rng.random()) / math.log(1.0 - p)) + 1
            t_ms = max(1, round(attempts / rate_per_ms))
            intervals.append(t_ms)
            d = adjust_difficulty(d, t_ms, params)
        settled = sorted(intervals[50:])
        median = settled[len(settled) // 2]
        assert 500 <= median <= 2000

    def test_skip_retarget_for_first_mined_block(self):
        params = ChainParams()
        chain = mined_chain([8], start_ts=10**9)
        assert difficulty_after_append(8.0, chain[1], chain[0], params) == 8.0

    def test_replay_matches_incremental(self):
        params = ChainParams(target_block_interval_ms=2000)
        chain = mined_chain([8, 8, 8, 8, 8], start_ts=5000)
        d = float(params.initial_difficulty)
        for i in range(1, len(chain)):
            d = difficulty_after_append(d, chain[i], chain[i - 1], params)
        assert replay_difficulty(chain, params) == d


class TestChooseChain:
    PARAMS = ChainParams(min_difficulty=1, initial_difficulty=4, max_difficulty=12)

    def test_identical_chain_keeps_local(self):
        local = mined_chain([4, 4])
        selected, err = choose_chain(local, list(local), self.PARAMS)
        assert err is None
        assert selected is local

    def test_heavier_candidate_adopted(self):
        local = mined_chain([4, 4], data_prefix="l")  # work 32
        candidate = mined_chain([4, 8], data_prefix="c")  # work 272
        assert cumulative_work(local) == 32
        assert cumulative_work(candidate) == 272
        selected, err = choose_chain(local, candidate, self.PARAMS)
        assert err is None
        assert selected is candidate

    def test_equal_work_keeps_local(self):
        local = mined_chain([4, 4], data_prefix="l")
        candidate = mined_chain([4, 4], data_prefix="c")
        selected, err = choose_chain(local, candidate, self.PARAMS)
        assert err is None
        assert selected is local

    def test_invalid_candidate_rejected_with_first_error(self):
        local = mined_chain([4], data_prefix="l")
        candidate = mined_chain([4, 4, 4], data_prefix="c")
        tampered = replace(candidate[2], data="swapped")
        candidate = [candidate[0], candidate[1], tampered, candidate[3]]
        selected, err = choose_chain(local, candidate, self.PARAMS)
        assert selected is local
        assert err is not None
        assert err.reason is VerifyReason.HASH_MISMATCH

    def test_foreign_genesis_rejected(self):
        local = mined_chain([4])
        fake_root = replace(GENESIS, data="OTHER")
        fake_root = fake_root.with_hash(block_hash(fake_root))
        blk = mine_block(create_new_block("x", fake_root, 4, 9))
        selected, err = choose_chain(local, [fake_root, blk], self.PARAMS)
        assert selected is local
        assert err.reason is VerifyReason.MALFORMED_BLOCK

    def test_adoption_never_decreases_work(self):
        def work(chain):  # inline, so the oracle does not share choose_chain's cumulative_work
            return sum(1 << b.difficulty for b in chain[1:])

        def extend(prefix, count, tag):
            blocks = list(prefix)
            for i in range(count):
                blk = create_new_block(f"{tag}-{i}", blocks[-1], rng.choice([3, 4, 5]), 2000 + i)
                blocks.append(mine_block(blk))
            return blocks

        rng = random.Random(77)
        # 20 forks at genesis, then 20 past a shared run of 1-4 mined blocks
        for shared in [0] * 20 + [rng.randint(1, 4) for _ in range(20)]:
            prefix = extend([GENESIS], shared, "s")
            local = extend(prefix, rng.randrange(0, 4), "l")
            candidate = extend(prefix, rng.randrange(0, 5), "c")
            selected, err = choose_chain(local, candidate, self.PARAMS)
            assert err is None
            assert selected is (candidate if work(candidate) > work(local) else local)


class TestChooseChainSharedPrefix:
    """Blocks the candidate shares with the local chain are not verified again."""

    PARAMS = TestChooseChain.PARAMS

    @pytest.fixture
    def verified(self, monkeypatch):
        import powdb.consensus as consensus

        seen = []

        def recording(block, head, min_difficulty=1):
            seen.append(block.index)
            return verify_block(block, head, min_difficulty)

        monkeypatch.setattr(consensus, "verify_block", recording)
        return seen

    def test_only_the_new_suffix_is_verified(self, verified):
        candidate = mined_chain([4] * 6)
        local = candidate[:4]
        selected, err = choose_chain(local, candidate, self.PARAMS)
        assert (selected, err) == (candidate, None)
        assert verified == [4, 5, 6]

    def test_fork_is_verified_from_the_fork_point(self, verified):
        local = mined_chain([4] * 4)
        candidate = local[:3]  # genesis, 1 and 2 are shared
        for i in range(4):
            candidate.append(mine_block(create_new_block(f"fork-{i}", candidate[-1], 4,
                                                         50 + i)))
        selected, err = choose_chain(local, candidate, self.PARAMS)
        assert (selected, err) == (candidate, None)
        assert verified == [3, 4, 5, 6]

    @pytest.mark.parametrize("cut", [1, 3, 5])
    def test_equal_or_prefix_candidate_keeps_local_unverified(self, verified, cut):
        local = mined_chain([4] * 4)
        selected, err = choose_chain(local, local[:cut], self.PARAMS)
        assert selected is local and err is None
        assert verified == []

    @staticmethod
    def _rehashed(blk, **changes):
        blk = replace(blk, **changes)
        return blk.with_hash(block_hash(blk))

    @pytest.mark.parametrize("reason,bad", [
        (VerifyReason.HASH_MISMATCH, lambda blk: replace(blk, data="swapped")),
        (VerifyReason.PREV_HASH_MISMATCH, lambda blk: replace(blk, prev_hash="0" * 64)),
        (VerifyReason.WRONG_INDEX, lambda blk: replace(blk, index=blk.index + 1)),
        (VerifyReason.INSUFFICIENT_WORK,
         lambda blk: TestChooseChainSharedPrefix._rehashed(blk, difficulty=30)),
        (VerifyReason.MALFORMED_BLOCK, lambda blk: replace(blk, hash="zz")),
    ], ids=["hash", "prev-hash", "index", "work", "malformed"])
    def test_bad_block_past_the_prefix_keeps_reason_and_detail(self, reason, bad):
        full_chain = mined_chain([4] * 5)
        local = full_chain[:4]
        candidate = local + [bad(full_chain[4])] + full_chain[5:]
        selected, err = choose_chain(local, candidate, self.PARAMS)
        assert selected is local
        assert err.reason is reason
        assert err.detail.startswith("block ")
        assert err == verify_chain(candidate, self.PARAMS)  # as verified from genesis

    def test_foreign_genesis_keeps_reason_and_detail(self):
        local = mined_chain([4, 4])
        fake_root = replace(GENESIS, data="OTHER")
        fake_root = fake_root.with_hash(block_hash(fake_root))
        candidate = [fake_root] + local[1:]
        selected, err = choose_chain(local, candidate, self.PARAMS)
        assert selected is local
        assert (err.reason, err.detail) == (VerifyReason.MALFORMED_BLOCK,
                                            "genesis differs from the shared root")


class TestVerifyChain:
    def test_full_chain_verifies(self):
        assert verify_chain(mined_chain([4, 5, 6]), ChainParams()) is None

    def test_empty_chain_rejected(self):
        assert verify_chain([], ChainParams()).reason is VerifyReason.MALFORMED_BLOCK

    def test_round_trip_mine_then_verify(self):
        chain = mined_chain([6] * 5)
        for i in range(1, len(chain)):
            assert verify_block(chain[i], chain[i - 1]) is None
