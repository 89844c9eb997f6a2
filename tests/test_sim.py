"""Simulation harness: determinism, partitions, adversaries, the consistency metric."""

import json
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from powdb import node as node_module
from powdb import wire
from powdb.chain import ChainParams
from powdb.sim import (
    ConfigError,
    PartitionWindow,
    ScenarioConfig,
    consistency_level,
    modal_head,
    percentile,
    report_to_json_bytes,
    run_scenario,
    write_report,
)
from powdb.simnet import EventQueue, MemNetwork, SimMiner
from powdb.wire import NodeIdentity

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

SIM_PARAMS = ChainParams(target_block_interval_ms=2000, initial_difficulty=8,
                         min_difficulty=6, max_difficulty=10)


def quick_config(**overrides):
    defaults = dict(node_count=5, duration_ms=30_000, seed=5, params=SIM_PARAMS,
                    write_interval_ms=2000, read_interval_ms=1000, link_latency_ms=10)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestConsistencyLevel:
    def test_exact_value(self):
        assert consistency_level(5, 1000) == 0.995

    def test_no_inconsistency_is_one(self):
        for n in (1, 10, 999):
            assert consistency_level(0, n) == 1.0

    def test_total_inconsistency_is_zero(self):
        for n in (1, 10, 999):
            assert consistency_level(n, n) == 0.0

    def test_zero_reads_undefined(self):
        with pytest.raises(ValueError):
            consistency_level(0, 0)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            consistency_level(5, 4)
        with pytest.raises(ValueError):
            consistency_level(-1, 4)

    def test_matches_brute_force_recount_on_random_logs(self):
        rng = random.Random(606)
        for _ in range(1000):
            samples = []
            for _ in range(rng.randrange(1, 20)):
                heads = [rng.choice("abcd") for _ in range(rng.randrange(1, 9))]
                samples.append(heads)
            total = 0
            inconsistent = 0
            for heads in samples:
                mode, bad = modal_head(heads)
                total += len(heads)
                inconsistent += bad
            # independent recount straight from the definition
            expect_bad = 0
            for heads in samples:
                counts = Counter(heads)
                top = max(counts.values())
                tie_mode = min(h for h, c in counts.items() if c == top)
                expect_bad += sum(1 for h in heads if h != tie_mode)
            assert inconsistent == expect_bad
            assert consistency_level(inconsistent, total) == 1 - expect_bad / total


class TestModalHead:
    def test_majority_wins(self):
        assert modal_head(["a", "a", "b"]) == ("a", 1)

    def test_tie_breaks_to_smallest_hash(self):
        mode, bad = modal_head(["b", "a"])
        assert mode == "a" and bad == 1


class TestPercentile:
    def test_empty_is_none(self):
        assert percentile([], 0.5) is None

    def test_nearest_rank(self):
        values = [10, 20, 30, 40]
        assert percentile(values, 0.50) == 20
        assert percentile(values, 0.95) == 40
        assert percentile([7], 0.5) == 7


class TestConfigValidation:
    def test_node_count_zero_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json({"node_count": 0, "duration_ms": 1000})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json({"node_count": 3, "duration_ms": 1000,
                                      "nodes": 5})

    def test_wrong_section_types_rejected(self):
        for key, bogus in [("chain_params", "fast"), ("workload", [1]),
                           ("malicious", 3), ("link", "lan"),
                           ("partitions", [{"start_ms": 1}]),
                           # a misspelt key in any section or window
                           ("chain_params", {"min_dificulty": 3}),
                           ("workload", {"write_interval": 500}),
                           ("malicious", {"fractoin": 0.1}),
                           ("link", {"latency": 50}),
                           ("partitions", [{"start_ms": 0, "end_ms": 5,
                                            "groups": [[0, 1, 2]], "label": "x"}]),
                           # a value of the wrong type or shape
                           ("chain_params", {"retarget_clamp": [0.5, 2.0, 4.0]}),
                           ("duration_ms", "5000"),
                           ("node_count", True),
                           ("malicious", {"fraction": 0.5, "behavior": "invalid_pow"})]:
            with pytest.raises(ConfigError):
                ScenarioConfig.from_json({"node_count": 3, "duration_ms": 1000,
                                          key: bogus})

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ConfigError):
            quick_config(partitions=[PartitionWindow(0, 10, [[0, 1], [1, 2, 3, 4]])]).validate()

    def test_groups_must_cover_all_nodes(self):
        with pytest.raises(ConfigError):
            quick_config(partitions=[PartitionWindow(0, 10, [[0, 1], [2, 3]])]).validate()

    def test_zero_length_window_allowed(self):
        quick_config(partitions=[PartitionWindow(10, 10, [[0, 1], [2, 3, 4]])]).validate()

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigError):
            quick_config(malicious_fraction=1.5, malicious_behaviors=["invalid_pow"]).validate()

    def test_unknown_behavior_rejected(self):
        with pytest.raises(ConfigError):
            quick_config(malicious_fraction=0.2, malicious_behaviors=["bribe"]).validate()

    def test_all_malicious_rejected(self):
        with pytest.raises(ConfigError):
            quick_config(node_count=2, malicious_fraction=1.0,
                         malicious_behaviors=["invalid_pow"]).validate()

    def test_json_round_trip(self):
        config = quick_config(partitions=[PartitionWindow(5, 10, [[0, 1], [2, 3, 4]])],
                              malicious_fraction=0.2,
                              malicious_behaviors=["invalid_pow"])
        again = ScenarioConfig.from_json(config.to_json())
        assert again == config


class TestSimnet:
    def test_event_queue_fifo_within_same_time(self):
        queue = EventQueue()
        order = []
        for i in range(5):
            queue.at(10, lambda i=i: order.append(i))
        queue.run()
        assert order == [0, 1, 2, 3, 4]

    def test_partition_blocks_cross_group_delivery(self):
        queue = EventQueue()
        net = MemNetwork(queue, random.Random(1), latency_ms=1)
        got = {"a": [], "b": []}
        gone = {"a": [], "b": []}

        class Owner:
            def __init__(self, name):
                self.name = name

            def on_inbound_connection(self, conn):
                pass

            def on_message(self, conn, raw):
                got[self.name].append(raw)

            def on_disconnect(self, conn):
                gone[self.name].append(conn)

        a, b = Owner("a"), Owner("b")
        net.listen("a", a)
        net.listen("b", b)
        conn = net.dial(a, "a", "b")
        queue.run()
        conn.send_message(b"before")
        queue.run()
        conn.send_message(b"in flight")
        net.set_partition([{"a"}, {"b"}])  # cuts the link, and both ends hear of it
        assert conn.closed and conn.peer.closed
        queue.run()
        assert gone == {"a": [conn], "b": [conn.peer]}
        assert net.dropped_by_partition == 1
        with pytest.raises(ConnectionError):
            conn.send_message(b"during")
        assert net.dial(a, "a", "b") is None
        net.heal()
        again = net.dial(a, "a", "b")
        queue.run()
        again.send_message(b"after")
        queue.run()
        assert got["b"] == [b"before", b"after"]
        assert net.dropped_by_partition == 1

    def test_loss_is_seed_deterministic(self):
        def run(seed):
            queue = EventQueue()
            net = MemNetwork(queue, random.Random(seed), latency_ms=1, loss_rate=0.5)
            delivered = []

            class Owner:
                def on_inbound_connection(self, conn):
                    pass

                def on_message(self, conn, raw):
                    delivered.append(raw)

                def on_disconnect(self, conn):
                    pass

            net.listen("x", Owner())
            conn = net.dial(Owner(), "y", "x")
            for i in range(64):
                conn.send_message(bytes([i]))
            queue.run()
            return delivered

        assert run(9) == run(9)
        assert run(9) != run(10)

    def test_sim_miner_cancel_reports_none_once(self):
        from powdb.chain import genesis_block
        from powdb.consensus import create_new_block

        queue = EventQueue()
        miner = SimMiner(queue, attempts_per_ms=1.0)
        results = []
        block = create_new_block("x", genesis_block(), 8, 1)
        handle = miner.start(block, results.append)
        handle.cancel()
        handle.cancel()
        queue.run()
        assert results == [None]

    def test_sim_miner_delay_tracks_attempts(self):
        from powdb.chain import genesis_block
        from powdb.consensus import create_new_block, mine_block

        queue = EventQueue()
        miner = SimMiner(queue, attempts_per_ms=2.0)
        results = []
        block = create_new_block("delay", genesis_block(), 8, 1)
        expected = mine_block(block)
        miner.start(block, results.append)
        queue.run()
        assert results == [expected]
        assert queue.now == max(1, round((expected.nonce + 1) / 2.0))


class TestScenarios:
    def test_quiescent_network_converges(self):
        report = run_scenario(quick_config(duration_ms=30_000))
        assert report["consistency"]["final_sample_c"] == 1.0
        assert len(set(report["final_heads"])) == 1
        assert report["committed_tx_count"] > 5
        assert report["malicious_blocks_emitted"] == 0

    def test_identical_config_and_seed_gives_identical_bytes(self):
        first = run_scenario(quick_config(duration_ms=20_000, seed=77))
        second = run_scenario(quick_config(duration_ms=20_000, seed=77))
        assert report_to_json_bytes(first) == report_to_json_bytes(second)

    def test_different_seed_changes_report(self):
        first = run_scenario(quick_config(duration_ms=20_000, seed=1))
        second = run_scenario(quick_config(duration_ms=20_000, seed=2))
        assert report_to_json_bytes(first) != report_to_json_bytes(second)

    def test_partition_diverges_then_heals(self):
        config = quick_config(
            duration_ms=60_000, seed=11,
            partitions=[PartitionWindow(10_000, 30_000, [[0, 1], [2, 3, 4]])])
        report = run_scenario(config)
        window = [s for s in report["consistency"]["samples"]
                  if 10_000 < s["t_ms"] <= 30_000]
        assert any(s["n_inconsistent"] > 0 for s in window)
        assert any(len(set(s["heads"])) == 2 for s in window)
        assert report["fork_count"] >= 1
        assert report["consistency"]["c"] < 1.0
        assert report["consistency"]["final_sample_c"] == 1.0
        assert len(set(report["final_heads"])) == 1
        # everyone ends on the heaviest chain produced
        assert all(h == report["canonical"]["tip_hash"] for h in report["final_heads"])

    def test_zero_length_window_has_no_effect(self):
        base = quick_config(duration_ms=20_000, seed=42)
        with_noop = quick_config(
            duration_ms=20_000, seed=42,
            partitions=[PartitionWindow(5_000, 5_000, [[0, 1], [2, 3, 4]])])
        r1, r2 = run_scenario(base), run_scenario(with_noop)
        assert r1["consistency"]["c"] == r2["consistency"]["c"] == 1.0

    @pytest.mark.parametrize("behavior,expect", [
        ("invalid_pow", "rejected"),
        ("bad_prev_hash", "synced"),
        ("tampered_signature", "dropped"),
    ])
    def test_single_behavior_adversary(self, behavior, expect):
        config = quick_config(node_count=4, duration_ms=30_000, seed=13,
                              malicious_fraction=0.25,
                              malicious_behaviors=[behavior])
        report = run_scenario(config)
        assert len(report["malicious_nodes"]) == 1
        assert report["malicious_blocks_emitted"] > 0
        assert report["malicious_blocks_in_canonical"] == 0
        assert report["consistency"]["final_sample_c"] == 1.0
        if expect == "rejected":
            assert report["rejected_invalid_blocks"] > 0
            assert "InsufficientWork" in report["rejects_by_reason"]
        elif expect == "synced":
            # its blocks set off syncs whose replies never reach them
            assert "ParentNotServed" in report["rejects_by_reason"]
        elif expect == "dropped":
            assert report["dropped_envelopes"] > 0
        honest_heads = [report["final_heads"][i] for i in report["honest_nodes"]]
        assert len(set(honest_heads)) == 1

    def test_thirty_percent_mixed_adversaries(self):
        config = quick_config(
            node_count=10, duration_ms=60_000, seed=3,
            malicious_fraction=0.3,
            malicious_behaviors=["invalid_pow", "bad_prev_hash", "tampered_signature"])
        report = run_scenario(config)
        assert len(report["malicious_nodes"]) == 3
        behaviors = set(report["malicious_behavior_by_node"].values())
        assert behaviors == {"invalid_pow", "bad_prev_hash", "tampered_signature"}
        assert report["malicious_blocks_in_canonical"] == 0
        assert report["rejected_invalid_blocks"] > 0
        assert report["consistency"]["final_sample_c"] == 1.0

    def test_adversarial_sync_traffic_stays_small(self, monkeypatch):
        # a link opens with one GET_BLOCKS and its BLOCKS reply; links open
        # while every node holds only genesis, so none pulls back. Past
        # that, a sync round costs the suffix after the fork point, not the
        # whole chain, and a bad_prev_hash peer sets off MAX_UNSERVED rounds
        # per link and then none
        link_open, sync_bytes, requests = Counter(), Counter(), 0
        link_open_bytes, opened = 0, set()
        real_deliver = MemNetwork.deliver

        def counting_deliver(net, src, dst, message):
            nonlocal requests, link_open_bytes
            kind = wire.decode_envelope(message).kind
            if kind in (wire.GET_BLOCKS, wire.BLOCKS):
                # the first of each kind on a link: the dialer's request and its reply
                first = (kind, frozenset({id(src), id(dst)}))
                if first not in opened:
                    opened.add(first)
                    link_open[kind] += 1
                    link_open_bytes += len(message)
                else:
                    sync_bytes[kind] += len(message)
                    requests += kind == wire.GET_BLOCKS
            real_deliver(net, src, dst, message)

        monkeypatch.setattr(MemNetwork, "deliver", counting_deliver)
        config = ScenarioConfig.from_json(
            json.loads((SCENARIOS / "adversarial.json").read_text()))
        report = run_scenario(config)
        n = config.node_count
        links = n * (n - 1) // 2
        assert link_open == Counter({wire.GET_BLOCKS: links, wire.BLOCKS: links})
        # the two link-open messages without their handshake fields measured
        # 29,115 bytes, under a bound of 30,465; each message now also
        # carries a key and a nonce: ',"key":' and 64 hex digits, and
        # ',"nonce":' and 32
        handshake_fields = 2 * links * (len(',"key":""') + 64 + len(',"nonce":""') + 32)
        assert link_open_bytes <= 29_115 + handshake_fields + 1_350
        assert sync_bytes[wire.GET_BLOCKS] > 0 and sync_bytes[wire.BLOCKS] > 0
        assert sum(sync_bytes.values()) < 20_000
        unserving = list(report["malicious_behavior_by_node"].values()).count("bad_prev_hash")
        assert unserving >= 1
        assert requests <= node_module.MAX_UNSERVED * (n - 1) * unserving

    def test_adversarial_ed25519_work_is_one_sign_and_one_verify_per_link_end(
            self, monkeypatch):
        # each link is authenticated once: its link-open request and the
        # reply are signed, and every later frame, a malicious node's
        # tampered one too, carries a tag. Signing every envelope took
        # 1,489 signs and 2,043 verifies here
        counts = Counter()
        real_sign, real_signature = NodeIdentity.sign, wire.verify_signature
        real_verify = node_module.verify_envelope

        def counting_sign(identity, message):
            counts["sign"] += 1
            return real_sign(identity, message)

        def counting_signature(env):
            counts["verify"] += 1
            return real_signature(env)

        def counting_verify(env, *key):
            counts["tag"] += bool(key)
            return real_verify(env, *key)

        monkeypatch.setattr(NodeIdentity, "sign", counting_sign)
        monkeypatch.setattr(wire, "verify_signature", counting_signature)
        monkeypatch.setattr(node_module, "verify_envelope", counting_verify)
        config = ScenarioConfig.from_json(
            json.loads((SCENARIOS / "adversarial.json").read_text()))
        report = run_scenario(config)
        n = config.node_count
        link_ends = n * (n - 1)
        assert counts["sign"] <= link_ends and counts["verify"] <= link_ends
        assert counts["tag"] > 1_000
        assert report["dropped_envelopes"] > 0  # tampered tags are still caught

    def test_adversarial_blocks_cost_no_verify_when_a_cheaper_check_rejects_them(
            self, monkeypatch):
        # invalid_pow blocks fail the work check and bad_prev_hash blocks past
        # MAX_UNSERVED fail the limited-link cut, both before the signature
        # check; what is left is honest blocks, tampered_signature blocks
        # and the few orphans that set off syncs (1,089 measured; checking
        # every block's signature first costs 2,142)
        block_verifies = 0
        real_verify = node_module.verify_envelope

        def counting_verify(env, *key):
            nonlocal block_verifies
            block_verifies += env.kind == wire.NEW_BLOCK
            return real_verify(env, *key)

        monkeypatch.setattr(node_module, "verify_envelope", counting_verify)
        config = ScenarioConfig.from_json(
            json.loads((SCENARIOS / "adversarial.json").read_text()))
        report = run_scenario(config)
        assert report["rejects_by_reason"]["InsufficientWork"] > 0
        assert block_verifies <= 1_100

    def test_mesh_checks_each_new_block_signature_about_once(self, monkeypatch):
        # every node relays every block to every peer; a relay of a block
        # the receiver holds must be dropped before its signature is checked
        block_verifies = 0
        real_verify = node_module.verify_envelope

        def counting_verify(env, *key):
            nonlocal block_verifies
            block_verifies += env.kind == wire.NEW_BLOCK
            return real_verify(env, *key)

        monkeypatch.setattr(node_module, "verify_envelope", counting_verify)
        shape = json.loads((SCENARIOS / "partition_short.json").read_text())
        config = replace(ScenarioConfig.from_json(shape), node_count=20, partitions=[])
        report = run_scenario(config)
        assert report["consistency"]["final_sample_c"] == 1.0
        n, length = config.node_count, report["canonical"]["length"]
        assert block_verifies <= 2 * (n - 1) * length

    def test_report_files(self, tmp_path):
        report = run_scenario(quick_config(duration_ms=10_000))
        json_path, csv_path = write_report(report, tmp_path / "out" / "report.json")
        assert json_path.exists() and csv_path.exists()
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t_ms,mode_hash,n_inconsistent,n_nodes"
        assert len(lines) == len(report["consistency"]["samples"]) + 1
        assert json_path.read_bytes() == report_to_json_bytes(report)
