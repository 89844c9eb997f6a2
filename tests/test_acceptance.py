"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS lines live.
Every tolerance and runtime budget is pinned here; nothing is deferred.
"""

import random
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import pytest

from powdb.chain import ChainParams, block_from_json, genesis_block
from powdb.consensus import (
    VerifyReason,
    adjust_difficulty,
    create_new_block,
    mine_block,
    retarget_raw,
    verify_block,
    verify_chain,
)
from powdb.contracts import (
    ContractError,
    ExecReason,
    compile_contract,
    contract_id_for,
    execute,
)
from powdb.node import parse_tx_data
from powdb.sim import (
    PartitionWindow,
    ScenarioConfig,
    consistency_level,
    modal_head,
    report_to_json_bytes,
    run_scenario,
)
from powdb.store import BlockStore

from conftest import RETARGET, linked_chain
from test_contracts import random_contract

GENESIS_ORACLE = "59f26e7ddc5e0efd36a420a4785746f5c0d9905185c2643db1df47774532c970"

SIM_PARAMS = ChainParams(target_block_interval_ms=2000, initial_difficulty=8,
                         min_difficulty=6, max_difficulty=10)


@contextmanager
def criterion(number, description, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, (
        f"criterion {number} exceeded its {budget_s}s budget: {elapsed:.2f}s")
    print(f"ACCEPTANCE {number:02d} PASS  {description}  [{elapsed:.2f}s < {budget_s}s]")


def test_01_difficulty_retarget_exactness():
    with criterion(1, "retarget formula exact; direction property over 10k samples", 1.0):
        assert abs(retarget_raw(8.0, 10_000, 20_000) - 4.0) < 1e-12
        params = ChainParams(target_block_interval_ms=5000, initial_difficulty=8,
                             min_difficulty=2, max_difficulty=20)
        rng = random.Random(101)
        for _ in range(10_000):
            d = rng.uniform(2, 20)
            t_actual = rng.randrange(1, 25_000)
            new = adjust_difficulty(d, t_actual, params)
            assert params.min_difficulty <= new <= params.max_difficulty
            if t_actual > 5000:
                assert new <= d + 1e-9, "slower blocks must never raise difficulty"
            elif t_actual < 5000:
                assert new >= d - 1e-9, "faster blocks must never lower difficulty"


def test_02_consistency_metric_exactness():
    with criterion(2, "consistency level exact; recount oracle on 1000 random logs", 1.0):
        assert consistency_level(5, 1000) == 0.995
        rng = random.Random(202)
        for _ in range(1000):
            heads_log = [[rng.choice("abcdef") for _ in range(rng.randrange(1, 8))]
                         for _ in range(rng.randrange(1, 12))]
            total, inconsistent = 0, 0
            for heads in heads_log:
                _mode, bad = modal_head(heads)
                total += len(heads)
                inconsistent += bad
            expected_bad = 0
            for heads in heads_log:
                counts = Counter(heads)
                top = max(counts.values())
                mode = min(h for h, c in counts.items() if c == top)
                expected_bad += sum(1 for h in heads if h != mode)
            assert consistency_level(inconsistent, total) == 1 - expected_bad / total


def test_03_mining_verification_round_trip():
    with criterion(3, "100 mined blocks verify; every single-field mutation rejected", 30.0):
        rng = random.Random(303)
        chain = [genesis_block()]
        for i in range(100):
            block = mine_block(create_new_block(f"payload-{i}", chain[-1], 8, 1000 + i))
            chain.append(block)

        expected_reason = {
            "index": VerifyReason.WRONG_INDEX,
            "prev_hash": VerifyReason.PREV_HASH_MISMATCH,
            "timestamp": VerifyReason.HASH_MISMATCH,
            "data": VerifyReason.HASH_MISMATCH,
            "difficulty": VerifyReason.HASH_MISMATCH,
            "nonce": VerifyReason.HASH_MISMATCH,
            "hash": VerifyReason.HASH_MISMATCH,
        }
        for i in range(1, len(chain)):
            head, block = chain[i - 1], chain[i]
            assert verify_block(block, head) is None
            for field, reason in expected_reason.items():
                if field in ("index", "timestamp", "nonce"):
                    mutated = replace(block, **{field: getattr(block, field) + 1})
                elif field == "difficulty":
                    mutated = replace(block, difficulty=block.difficulty + 1)
                elif field == "data":
                    mutated = replace(block, data=block.data + "x")
                else:
                    value = getattr(block, field)
                    pos = rng.randrange(64)
                    flipped = "0123456789abcdef"[(int(value[pos], 16) + 1) % 16]
                    mutated = replace(block, **{field: value[:pos] + flipped + value[pos + 1:]})
                err = verify_block(mutated, head)
                assert err is not None and err.reason is reason, (i, field)


def test_04_gossip_convergence():
    with criterion(4, "5 nodes, 60 virtual s, writes every 2 s: c=1.0, equal heads", 10.0):
        config = ScenarioConfig(node_count=5, duration_ms=60_000, seed=7,
                                params=SIM_PARAMS, write_interval_ms=2000,
                                read_interval_ms=500, link_latency_ms=10)
        report = run_scenario(config)
        assert report["consistency"]["final_sample_c"] == 1.0
        assert len(set(report["final_heads"])) == 1
        assert report["committed_tx_count"] > 0


def test_05_partition_and_heal():
    with criterion(5, "2|3 split for 20 virtual s: fork seen, heals to max-work chain", 15.0):
        config = ScenarioConfig(
            node_count=5, duration_ms=60_000, seed=11, params=SIM_PARAMS,
            write_interval_ms=2000, read_interval_ms=1000, link_latency_ms=10,
            partitions=[PartitionWindow(10_000, 30_000, [[0, 1], [2, 3, 4]])])
        report = run_scenario(config)
        assert report["fork_count"] >= 1
        assert report["consistency"]["c"] < 1.0
        assert report["consistency"]["final_sample_c"] == 1.0
        # a post-heal sample already shows full agreement
        post_heal = [s for s in report["consistency"]["samples"] if s["t_ms"] > 30_000]
        assert any(s["n_inconsistent"] == 0 for s in post_heal)
        # every head equals the maximum-work chain produced
        assert len(set(report["final_heads"])) == 1
        assert report["final_heads"][0] == report["canonical"]["tip_hash"]


def test_06_adversarial_rejection():
    with criterion(6, "10 nodes, 30% malicious, 120 virtual s: zero bad blocks land", 30.0):
        config = ScenarioConfig(
            node_count=10, duration_ms=120_000, seed=3, params=SIM_PARAMS,
            write_interval_ms=2000, read_interval_ms=1000, link_latency_ms=10,
            malicious_fraction=0.3,
            malicious_behaviors=["invalid_pow", "bad_prev_hash", "tampered_signature"])
        report = run_scenario(config)
        assert len(report["malicious_nodes"]) == 3
        assert report["malicious_blocks_emitted"] > 0
        assert report["malicious_blocks_in_canonical"] == 0
        assert report["rejected_invalid_blocks"] > 0
        assert report["dropped_envelopes"] > 0
        assert report["consistency"]["final_sample_c"] == 1.0
        # block-by-block audit of the canonical chain the honest nodes agree on
        canonical = [block_from_json(b) for b in report["canonical"]["blocks"]]
        assert verify_chain(canonical, SIM_PARAMS) is None
        for block in canonical[1:]:
            tx = parse_tx_data(block.data)
            assert tx is not None and not tx.get("data", "").startswith("MAL:")


def test_07_contract_determinism_and_atomicity():
    with criterion(7, "1000 fuzzed contracts agree across interpreters; errors atomic", 30.0):
        rng = random.Random(707)
        error_count = 0
        for _ in range(1000):
            source = random_contract(rng)
            args = [rng.randrange(-10**9, 10**9) for _ in range(3)]
            initial = {k: rng.randrange(-100, 100) for k in ("a", "b", "c")}
            outcomes = []
            for _ in range(2):
                state = dict(initial)
                contract = compile_contract(source)
                try:
                    execute(contract, args, state.get, state.__setitem__)
                    outcomes.append(("ok", state))
                except ContractError as exc:
                    outcomes.append(("err", exc.reason, dict(state)))
            assert outcomes[0] == outcomes[1]
            if outcomes[0][0] == "err":
                error_count += 1
                assert outcomes[0][2] == initial, "failed execution must not write"
        assert error_count > 0

        # an injected Overflow leaves the state untouched, and a runaway never
        # runs: its compile stops at the node cap
        state = {"x": 1}
        overflow = compile_contract([["set", "y", 2], ["set", "x", 2**63 - 1],
                                     ["add", "x", 1]])
        with pytest.raises(ContractError) as err:
            execute(overflow, [], state.get, state.__setitem__)
        assert err.value.reason is ExecReason.OVERFLOW and state == {"x": 1}

        expr = 1
        for _ in range(18):
            expr = ["add", expr, expr]
        with pytest.raises(ContractError) as err:
            compile_contract([["set", "y", 3], ["set", "z", expr]])
        assert err.value.reason is ExecReason.MALFORMED_SOURCE and state == {"x": 1}


def test_08_cache_structural_claim():
    with criterion(8, "N calls: compiles=1, hits=N-1; cached equals uncached", 10.0):
        from test_node import make_node, submit_and_run

        source = [["add", "n", ["arg", 0]]]
        cid = contract_id_for(source)
        core, queue = make_node()
        submit_and_run(core, queue, {"kind": "deploy", "contract": source})
        n_calls = 50
        for i in range(n_calls):
            submit_and_run(core, queue, {"kind": "call", "contract_id": cid,
                                         "args": [i]})
        counters = core.cache.counters()
        assert counters["compiles"] == 1
        assert counters["hits"] == n_calls - 1
        assert counters["misses"] == 1

        # uncached replay reproduces the exact same state transitions
        replayed = {}
        for block in core.store.get_all_blocks()[1:]:
            tx = parse_tx_data(block.data)
            if tx and tx["kind"] == "call":
                fresh = compile_contract(source)  # recompiled every time
                execute(fresh, tx["args"],
                        lambda key: replayed.get((cid, key)),
                        lambda key, value: replayed.__setitem__((cid, key), value))
        assert replayed == core.store.all_state()


def test_09_durability(tmp_path):
    with criterion(9, "restart reproduces the chain; 35 crash points stay clean", 30.0):
        from test_node import COUNTER, COUNTER_ID, make_node, submit_and_run

        db = tmp_path / "durable.db"
        core, queue = make_node(store=BlockStore(db))
        submit_and_run(core, queue, {"kind": "deploy", "contract": COUNTER})
        for arg in (1, 2, 3):
            submit_and_run(core, queue, {"kind": "call", "contract_id": COUNTER_ID,
                                         "args": [arg]})
        chain = core.store.get_all_blocks()
        tip = core.store.tip().hash
        core.store.close()

        reopened, _q = make_node(store=BlockStore(db))
        assert reopened.store.tip().hash == tip
        assert reopened.store.get_all_blocks() == chain
        reopened.store.close()

        class Crash(Exception):
            pass

        victim_path = tmp_path / "victim.db"
        store = BlockStore(victim_path)
        injected = 0
        for block in linked_chain([4] * 34):
            before = store.chain_info()
            for step in ("block_inserted",):
                def boom(label, _step=step):
                    if label == _step:
                        raise Crash(label)

                store._crash_hook = boom
                with pytest.raises(Crash):
                    store.add_block(block, RETARGET)
                store._crash_hook = None
                injected += 1
                audit = BlockStore(victim_path)
                count, tip_hash = audit.chain_info()
                assert (count, tip_hash) == before, f"corruption at {step}"
                if count:
                    assert audit.get_block(count - 1).hash == tip_hash
                audit.close()
            store.add_block(block, RETARGET)
        assert injected == 35


def test_10_harness_determinism():
    with criterion(10, "identical (scenario, seed) twice: byte-identical reports", 30.0):
        config = ScenarioConfig(
            node_count=5, duration_ms=40_000, seed=99, params=SIM_PARAMS,
            write_interval_ms=2000, read_interval_ms=1000, link_latency_ms=10,
            partitions=[PartitionWindow(8_000, 20_000, [[0, 4], [1, 2, 3]])])
        first = report_to_json_bytes(run_scenario(config))
        second = report_to_json_bytes(run_scenario(config))
        assert first == second


def test_11_genesis_oracle():
    with criterion(11, "genesis hash equals the pre-build independent digest", 1.0):
        assert genesis_block().hash == GENESIS_ORACLE
