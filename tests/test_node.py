"""Node orchestration: the request flow, state replay, durability, TCP runtime."""

import json
import socket
import threading
import time
from dataclasses import replace

import pytest

from powdb import consensus
from powdb import contracts as contracts_module
from powdb import node as node_module
from powdb import transport as transport_module
from powdb import wire
from powdb._minepure import search_nonce
from powdb.chain import (
    Block,
    ChainParams,
    block_hash,
    block_to_json,
    genesis_block,
    meets_difficulty,
    mining_prefix_bytes,
)
from powdb.consensus import create_new_block, effective_bits, mine_block, replay_difficulty
from powdb.contracts import ContractCache, cached_lookup, contract_id_for, execute
from powdb.node import (
    BadConfigError,
    NodeConfig,
    NodeCore,
    NodeRuntime,
    TxRejected,
    check_tx_payload,
    parse_tx_data,
    validate_tx_payload,
)
from powdb.sim import sim_hashrate_per_ms
from powdb.simnet import EventQueue, SimMiner
from powdb.store import BlockStore
from powdb.transport import parse_hostport
from powdb.wire import NodeIdentity, canonical_json, decode_envelope, sign_envelope

from conftest import TEST_PARAMS, Capture, PeerEnd, extend, on_loop, state_version
from test_contracts import sized_expr

COUNTER = [["add", "count", 1], ["add", "total", ["arg", 0]]]
COUNTER_ID = contract_id_for(COUNTER)


def make_node(store=None, params=TEST_PARAMS, mine=True, miner=None, identity=None):
    queue = EventQueue()
    core = NodeCore(
        identity=identity or NodeIdentity.from_seed(b"\x42" * 32),
        store=store or BlockStore(":memory:"),
        params=params,
        clock=lambda: queue.now,
        miner=miner or SimMiner(queue, sim_hashrate_per_ms(params)),
        mine_enabled=mine,
    )
    return core, queue


class TestNodeConfig:
    def test_well_formed_peers_pass(self):
        NodeConfig(peers=["127.0.0.1:4000", "localhost:0", "127.0.0.1:65535"]).validate()

    @pytest.mark.parametrize("peer", ["nohost", "127.0.0.1:notaport", ":4000", "127.0.0.1:",
                                      "127.0.0.1:65536", "127.0.0.1:-1"])
    def test_malformed_peer_is_a_bad_config(self, peer):
        with pytest.raises(BadConfigError, match="host:port"):
            NodeConfig(peers=["127.0.0.1:4000", peer]).validate()

    @pytest.mark.parametrize("addr", ["nohost", "127.0.0.1:notaport", "127.0.0.1:65536"])
    def test_malformed_listen_addr_is_a_bad_config(self, addr):
        with pytest.raises(BadConfigError, match="host:port"):
            NodeConfig(listen_addr=addr).validate()


def submit_and_run(core, queue, tx):
    results = []
    core.submit_tx(tx, results.append)
    queue.run()
    assert results, "no reply arrived"
    return results[-1]


class TestTxValidation:
    def test_payload_with_separator_rejected(self):
        with pytest.raises(TxRejected):
            validate_tx_payload({"kind": "raw", "data": "no\x1fgood"}, lambda _: True)

    def test_unknown_kind_rejected(self):
        with pytest.raises(TxRejected):
            validate_tx_payload({"kind": "drop"}, lambda _: True)

    def test_malformed_deploy_rejected(self):
        with pytest.raises(TxRejected):
            validate_tx_payload({"kind": "deploy", "contract": [["bogus"]]}, lambda _: True)

    def test_call_args_must_be_i64(self):
        with pytest.raises(TxRejected):
            validate_tx_payload({"kind": "call", "contract_id": "a" * 64,
                                 "args": [2**63]}, lambda _: True)

    def test_call_unknown_contract_rejected(self):
        with pytest.raises(TxRejected):
            validate_tx_payload({"kind": "call", "contract_id": "a" * 64,
                                 "args": []}, lambda _: False)

    def test_parse_round_trip(self):
        tx = {"kind": "raw", "data": "hello"}
        data, _ = validate_tx_payload(tx, lambda _: True)
        assert parse_tx_data(data) == tx
        assert parse_tx_data("GENESIS") is None
        assert parse_tx_data('{"kind":"unknown"}') is None


def parse_and_encode(data: str):
    """The reference parse: a payload counts only if it passes the checks
    and also encodes again."""
    try:
        obj = json.loads(data)
        validate_tx_payload(obj, lambda _cid: True)
    except (ValueError, RecursionError):
        return None
    return obj


CALL = '{"args":[%s],"contract_id":"' + COUNTER_ID + '","kind":"call"}'
DEPLOY = '{"contract":%s,"kind":"deploy"}'
NOT_INTEGERS = ["1.0", "1.5", "NaN", "Infinity", "-Infinity", "1e3"]


class TestParseRefusesWhatEncodingRefused:
    """parse_tx_data does not encode a payload again, and refuses every
    payload whose encoding would have failed."""

    TXS = {
        "raw": {"kind": "raw", "data": "hello"},
        "raw-lone-surrogate": {"kind": "raw", "data": "a\ud800b\udfff"},
        "deploy": {"kind": "deploy", "contract": COUNTER},
        "deploy-every-form": {"kind": "deploy", "contract": [
            ["if", ["lt", ["get", "x"], -2**63], [["set", "x", ["mul", ["arg", 2], 7]]],
             [["sub", "y", 2**63 - 1], ["if", ["eq", 1, ["get", "é"]], [], []]]]]},
        "call": {"kind": "call", "contract_id": COUNTER_ID, "args": [5, -2**63, 2**63 - 1]},
        "call-no-args": {"kind": "call", "contract_id": COUNTER_ID, "args": []},
    }

    @pytest.mark.parametrize("tx", TXS.values(), ids=TXS.keys())
    def test_validated_data_parses_back(self, tx):
        data, _ = validate_tx_payload(tx, lambda _cid: True)
        assert parse_tx_data(data) == tx == parse_and_encode(data)

    def test_a_lone_surrogate_travels_escaped(self):
        data, _ = validate_tx_payload(self.TXS["raw-lone-surrogate"], lambda _cid: True)
        assert data == '{"data":"a\\ud800b\\udfff","kind":"raw"}'

    REFUSED = {
        **{f"call-arg-{n}": CALL % f"1,{n}" for n in NOT_INTEGERS},
        **{f"deploy-literal-{n}": DEPLOY % f'[["set","k",{n}]]' for n in NOT_INTEGERS},
        **{f"deploy-arg-index-{n}": DEPLOY % f'[["add","k",["arg",{n}]]]'
           for n in NOT_INTEGERS},
        "deploy-nested-literal": DEPLOY % '[["if",["eq",["mul",2,NaN],1],[],[]]]',
        "deploy-condition-op": DEPLOY % '[["if",[NaN,1,2],[],[]]]',
        "deploy-statement-op": DEPLOY % '[[1.0,"k",1]]',
        "deploy-key": DEPLOY % '[["set",1.0,1]]',
        "raw-data": '{"data":1.0,"kind":"raw"}',
        "kind": '{"kind":NaN}',
        "contract-id": '{"args":[],"contract_id":1.0,"kind":"call"}',
    }

    @pytest.mark.parametrize("data", REFUSED.values(), ids=REFUSED.keys())
    def test_a_number_that_is_not_an_integer_is_refused(self, data):
        assert parse_tx_data(data) is None
        assert parse_and_encode(data) is None

    @pytest.mark.parametrize("tx", TXS.values(), ids=TXS.keys())
    def test_every_integer_swapped_for_a_float_is_refused(self, tx):
        def paths(value, path=()):
            if isinstance(value, int) and not isinstance(value, bool):
                yield path
            elif isinstance(value, (list, dict)):
                items = value.items() if isinstance(value, dict) else enumerate(value)
                for key, item in items:
                    yield from paths(item, path + (key,))

        def swapped(value, path, number):
            if not path:
                return number
            copy = dict(value) if isinstance(value, dict) else list(value)
            copy[path[0]] = swapped(value[path[0]], path[1:], number)
            return copy

        for path in paths(tx):
            for number in (1.0, float("nan"), float("inf")):
                data = json.dumps(swapped(tx, path, number))
                assert parse_tx_data(data) is None, (path, number)
                assert parse_and_encode(data) is None


def loads_parse_tx_data(data: str):
    """parse_tx_data written with json.loads, as it was before it kept one
    decoder: the reference."""
    try:
        obj = json.loads(data)
        check_tx_payload(obj, lambda _cid: True)
    except (ValueError, RecursionError):
        return None
    return obj


RAW = '{"data":"x","kind":"raw"}'


class TestParseMatchesJsonLoads:
    """parse_tx_data reads through one decoder exactly what json.loads
    reads: JSON whitespace around the value, NaN and Infinity, and no BOM."""

    DATA = {
        **{f"tx-{name}": validate_tx_payload(tx, lambda _cid: True)[0]
           for name, tx in TestParseRefusesWhatEncodingRefused.TXS.items()},
        "padded": " \t\n\r" + RAW + "\r\n\t ",
        "padded-before": "\n" + RAW,
        "padded-after": RAW + " ",
        "padded-inside": '{ "data" : "x" ,\n"kind":"raw" }',
        "no-break-space": "\u00a0" + RAW,
        "vertical-tab": RAW + "\x0b",
        "form-feed": "\x0c" + RAW,
        "bom": "\ufeff" + RAW,
        "bom-after-space": " \ufeff" + RAW,
        "trailing-data": RAW + "x",
        "trailing-value": RAW + " {}",
        "trailing-nul": RAW + "\x00",
        "nan": "NaN",
        "infinity": "Infinity",
        "minus-infinity": "-Infinity",
        "nan-arg": CALL % "NaN",
        "infinity-literal": DEPLOY % '[["set","k",Infinity]]',
        "float": "1.5",
        "float-arg": CALL % "1.5",
        "exponent-arg": CALL % "1e3",
        "integer-past-i64": CALL % str(2**63),
        "deep-nesting": DEPLOY % ("[" * 100_000 + "]" * 100_000),
        "deep-expression": DEPLOY % ('[["set","k",' + '["add",1,' * 30 + "1" + "]" * 30
                                     + "]]"),
        "empty": "",
        "spaces-only": "  \n ",
        "genesis": "GENESIS",
        "string": '"raw"',
        "integer": "7",
        "list": "[]",
        "duplicate-key": '{"data":"y","kind":"raw","data":"x"}',
        "escaped-text": '{"data":"\\u00e9\\ud83d\\ude00","kind":"raw"}',
        "control-in-string": '{"data":"a\x01","kind":"raw"}',
        "single-quotes": "{'data':'x','kind':'raw'}",
    }

    @pytest.mark.parametrize("data", DATA.values(), ids=DATA.keys())
    def test_same_result_as_json_loads(self, data):
        assert parse_tx_data(data) == loads_parse_tx_data(data)

    def test_the_table_holds_both_outcomes(self):
        accepted = {name for name, data in self.DATA.items()
                    if loads_parse_tx_data(data) is not None}
        assert {"padded", "padded-before", "padded-after", "padded-inside", "duplicate-key",
                "escaped-text", "deep-expression"} <= accepted
        assert {"bom", "trailing-data", "nan-arg", "deep-nesting", "vertical-tab"}.isdisjoint(
            accepted)
        assert parse_tx_data(self.DATA["padded"]) == {"kind": "raw", "data": "x"}


class TestSingleNodeFlow:
    def test_raw_put_commits_with_canonical_data(self):
        core, queue = make_node()
        tx = {"kind": "raw", "data": "hello"}
        result = submit_and_run(core, queue, tx)
        assert result["ok"] is True
        index = result["result"]["block_index"]
        assert index == 1
        block = core.store.get_block(index)
        assert block.data == canonical_json(tx).decode()
        assert block.hash == result["result"]["block_hash"]

    def test_deploy_then_call_updates_state(self):
        core, queue = make_node()
        deploy = submit_and_run(core, queue, {"kind": "deploy", "contract": COUNTER})
        assert deploy["ok"] is True
        assert core.store.get_contract(COUNTER_ID) is not None

        call = submit_and_run(core, queue, {"kind": "call", "contract_id": COUNTER_ID,
                                            "args": [40]})
        assert call["ok"] is True
        assert core.store.get_state(COUNTER_ID, "count") == 1
        assert core.store.get_state(COUNTER_ID, "total") == 40
        submit_and_run(core, queue, {"kind": "call", "contract_id": COUNTER_ID,
                                     "args": [2]})
        assert core.store.get_state(COUNTER_ID, "count") == 2
        assert core.store.get_state(COUNTER_ID, "total") == 42
        # state version records the writing block
        assert state_version(core.store, COUNTER_ID, "count") == 3

    def test_redeploy_is_idempotent(self):
        core, queue = make_node()
        submit_and_run(core, queue, {"kind": "deploy", "contract": COUNTER})
        first = core.store.get_contract(COUNTER_ID)
        submit_and_run(core, queue, {"kind": "deploy", "contract": COUNTER})
        assert core.store.get_contract(COUNTER_ID) == first
        assert core.store.get_block_count() == 3  # two deploy blocks, same id

    def test_exec_error_recorded_state_untouched(self):
        core, queue = make_node()
        overflow = [["set", "x", 9223372036854775807], ["add", "x", 1]]
        submit_and_run(core, queue, {"kind": "deploy", "contract": overflow})
        cid = contract_id_for(overflow)
        result = submit_and_run(core, queue, {"kind": "call", "contract_id": cid,
                                              "args": []})
        assert result["ok"] is True  # the block commits; the execution failed
        assert core.store.get_state(cid, "x") is None
        assert core.exec_errors == {"Overflow": 1}

    def test_deploy_with_a_key_that_does_not_encode_is_refused(self):
        # SQLite cannot bind a lone surrogate: mined, the deploy's calls raised on every node
        core, queue = make_node()
        deploy = submit_and_run(core, queue, {"kind": "deploy", "contract": [["set", "\ud800", 1]]})
        assert deploy["ok"] is False
        assert "encodes as UTF-8" in deploy["error"]
        put = submit_and_run(core, queue, {"kind": "raw", "data": "after"})
        assert put["ok"] is True
        assert core.store.get_block_count() == 2

    def test_rejected_payload_never_mines(self):
        core, queue = make_node()
        result = submit_and_run(core, queue, {"kind": "raw", "data": "bad\x1f"})
        assert result["ok"] is False
        assert core.store.get_block_count() == 1

    def test_no_mine_node_rejects_writes(self):
        core, queue = make_node(mine=False)
        results = []
        core.submit_tx({"kind": "raw", "data": "x"}, results.append)
        assert results[0]["ok"] is False

    def test_reads_during_mining_see_committed_data_only(self):
        core, queue = make_node()
        results = []
        core.submit_tx({"kind": "raw", "data": "inflight"}, results.append)
        # the miner is running (virtual time has not advanced); reads must
        # show only the committed chain
        assert core.handle_query("stats", {})["result"]["count"] == 1
        assert len(core.handle_query("chain", {})["result"]["blocks"]) == 1
        queue.run()
        assert results[0]["ok"] is True
        assert core.handle_query("stats", {})["result"]["count"] == 2

    def test_queued_transactions_commit_in_order(self):
        core, queue = make_node()
        replies = []
        for i in range(4):
            core.submit_tx({"kind": "raw", "data": f"q{i}"}, replies.append)
        queue.run()
        assert [r["ok"] for r in replies] == [True] * 4
        assert [r["result"]["block_index"] for r in replies] == [1, 2, 3, 4]

    def test_call_may_reference_deploy_still_in_pipeline(self):
        core, queue = make_node()
        replies = []
        core.submit_tx({"kind": "deploy", "contract": COUNTER}, replies.append)
        # the deploy has not been mined yet; the call must still validate
        core.submit_tx({"kind": "call", "contract_id": COUNTER_ID, "args": [9]},
                       replies.append)
        queue.run()
        assert [r["ok"] for r in replies] == [True, True]
        assert core.store.get_state(COUNTER_ID, "total") == 9


PEER = NodeIdentity.from_seed(b"\x07" * 32)


def peer_end(core, conn):
    """PEER's end of its keyed link to `core` over `conn`, opened on first use."""
    if getattr(conn, "peer_end", None) is None:
        conn.peer_end = PeerEnd(core, PEER, conn).open()
    return conn.peer_end


def from_peer(core, conn, kind, payload):
    """The outcome of PEER sending `payload` on `conn`: a client request
    signed, on a client's link the node is handed first as a runtime hands
    it every conn, and any other message tagged on the link PEER opened
    there."""
    if kind in (wire.TX, wire.QUERY):
        core.on_inbound_connection(conn)
        return core.on_message(conn, sign_envelope(kind, 1, payload, PEER).encode())
    return peer_end(core, conn).send(kind, payload)


class TestWireTxIntake:
    def test_invalid_tx_over_wire_gets_error_response(self):
        core, _queue = make_node()
        conn = Capture()
        from_peer(core, conn, wire.TX, {"tx": {"kind": "nope"}})
        assert len(conn.sent) == 1
        response = decode_envelope(conn.sent[0])
        assert response.kind == wire.RESPONSE
        assert response.payload["ok"] is False
        assert "unknown transaction kind" in response.payload["error"]
        assert core.store.get_block_count() == 1


class TestPeerBlockPayloads:
    """A peer's block is checked like a client transaction before it runs."""

    MALFORMED = {
        "call-without-fields": '{"kind":"call"}',
        "deploy-without-contract": '{"kind":"deploy"}',
        "string-args": canonical_json({"kind": "call", "contract_id": COUNTER_ID,
                                       "args": "12"}).decode(),
        "deep-nesting": '{"kind":"deploy","contract":' + "[" * 200_000 + "]" * 200_000 + "}",
        "float-arg": '{"args":[1.5],"contract_id":"%s","kind":"call"}' % COUNTER_ID,
        "bool-arg": canonical_json({"kind": "call", "contract_id": COUNTER_ID,
                                    "args": [True]}).decode(),
    }

    @pytest.mark.parametrize("data", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_payload_appends_as_opaque_data(self, data):
        core, queue = make_node()
        submit_and_run(core, queue, {"kind": "deploy", "contract": COUNTER})
        state, contracts = core.store.all_state(), core.store.get_contract(COUNTER_ID)
        tip = core.store.tip()
        block = mine_block(create_new_block(data, tip, effective_bits(core.difficulty),
                                            tip.timestamp + 1))
        outcome = from_peer(core, Capture(), wire.NEW_BLOCK, {"block": block_to_json(block)})
        assert outcome == "appended"
        assert core.store.tip().hash == block.hash
        assert parse_tx_data(block.data) is None
        assert core.store.all_state() == state
        assert core.store.get_contract(COUNTER_ID) == contracts


def over_cap_contract():
    """100 statements of 1,000 nodes each, which is STEP_BUDGET, and one more
    statement: 0.5 MB of JSON, under the frame cap."""
    return [["set", f"k{i}", sized_expr(999)] for i in range(100)] + [["set", "over", 1]]


class TestNodeCap:
    """A program over STEP_BUDGET nodes does not compile: refused at intake,
    opaque data in a peer's block, and never run from an older store."""

    CAP_ERROR = f"more than {contracts_module.STEP_BUDGET} nodes"

    def test_over_cap_deploy_is_refused_at_intake(self):
        core, queue = make_node()
        replies = []
        core.submit_tx({"kind": "deploy", "contract": over_cap_contract()}, replies.append)
        assert len(replies) == 1 and replies[0]["ok"] is False
        assert self.CAP_ERROR in replies[0]["error"]
        assert not core._queue
        queue.run()
        assert core.store.get_block_count() == 1

    def test_peer_block_with_an_over_cap_deploy_is_opaque_data_on_every_node(
            self, cluster_factory):
        cluster = cluster_factory(3)
        cluster.connect(0, 1)
        cluster.connect(1, 2)
        cluster.pump()
        source = over_cap_contract()
        cid = contract_id_for(source)
        data = canonical_json({"kind": "deploy", "contract": source}).decode()
        first = cluster.nodes[0]
        block = mine_block(create_new_block(data, first.store.tip(),
                                            effective_bits(first.difficulty), 1000))
        outcome = from_peer(first, Capture(), wire.NEW_BLOCK, {"block": block_to_json(block)})
        assert outcome == "appended"
        cluster.pump()
        assert cluster.heads() == [block.hash] * 3
        for i, core in enumerate(cluster.nodes):
            assert core.store.get_contract(cid) is None
            assert core.exec_errors == {}
            [reply] = cluster.submit(i, {"kind": "call", "contract_id": cid, "args": []})
            assert reply == {"ok": False, "what": "tx",
                             "error": f"unknown contract {cid[:16]}..."}

    def test_over_cap_contract_in_an_older_store_fails_every_call(self, store_path,
                                                                  monkeypatch):
        # an earlier version, which had no node cap, deployed it
        source = over_cap_contract()
        cid = contract_id_for(source)
        monkeypatch.setattr(contracts_module, "STEP_BUDGET", 2**20)
        older, queue = make_node(store=BlockStore(store_path))
        assert submit_and_run(older, queue, {"kind": "deploy", "contract": source})["ok"]
        older.store.close()
        monkeypatch.undo()

        core, queue = make_node(store=BlockStore(store_path))
        assert core.store.get_contract(cid) is not None
        for calls in (1, 2):
            reply = submit_and_run(core, queue, {"kind": "call", "contract_id": cid,
                                                 "args": []})
            assert reply["ok"] is True  # the block commits; the call runs nothing
            assert core.exec_errors == {"MalformedSource": calls}
            assert core.store.all_state() == {}
        core.store.close()


class TestQueryInput:
    """Every QUERY gets a RESPONSE, so a client never waits out its timeout."""

    @pytest.mark.parametrize("what,params,error", [
        ("block", -1, "params must be an object"),
        ("block", [1], "params must be an object"),
        ("state", "x", "params must be an object"),
        ("chain", True, "params must be an object"),
        ("block", {"index": 2**70}, "not-found"),
        ("block", {"index": 2**63}, "not-found"),
        ("block", {"index": -1}, "not-found"),
        ("state", {"contract_id": "\ud800", "key": "k"}, "not-found"),
        ("state", {"contract_id": COUNTER_ID, "key": "\ud800"}, "not-found"),
    ])
    def test_bad_params_answer_not_ok(self, what, params, error):
        core, _queue = make_node()
        conn = Capture()
        from_peer(core, conn, wire.QUERY, {"what": what, "params": params})
        assert len(conn.sent) == 1
        response = decode_envelope(conn.sent[0])
        assert response.kind == wire.RESPONSE
        assert response.payload == {"ok": False, "what": what, "error": error}


class TestHostileInput:
    """No signed peer message, whatever its payload, raises or moves the chain."""

    VALUES = (None, 0, -1, 2**70, True, "x", [], [1], {})
    HANDLER_KEYS = ("block", "blocks", "tx", "what", "params", "locator", "after", "more",
                    "have")

    @classmethod
    def payloads(cls):
        for value in cls.VALUES:
            yield value
            for key in cls.HANDLER_KEYS:
                yield {key: value}
            for what in ("block", "state"):
                yield {"what": what, "params": value}
            yield {"what": "block", "params": {"index": value}}

    @pytest.mark.parametrize("kind", sorted(wire.KINDS))
    def test_handlers_survive_every_payload(self, kind):
        core, _queue = make_node()
        before = (core.store.chain_info(), core.store.all_state())
        failures = []
        for payload in self.payloads():
            try:
                from_peer(core, Capture(), kind, payload)
            except Exception as exc:  # collect them all for one readable report
                failures.append(f"{payload!r}: {exc!r}")
        assert failures == []
        assert (core.store.chain_info(), core.store.all_state()) == before

    GENESIS = [0, genesis_block().hash]
    # locator -> whether it gets a reply
    HOSTILE_LOCATORS = {
        "height-2**70": ([[2**70, "0" * 64], GENESIS], False),
        "height-2**63": ([[2**63, "0" * 64], GENESIS], False),
        "height-minus-1": ([[-1, "0" * 64], GENESIS], False),
        "height-true": ([[True, "0" * 64], GENESIS], False),
        "hash-not-a-string": ([[1, 1], GENESIS], False),
        "entry-not-a-pair": ([[1], GENESIS], False),
        "non-hex-hash": ([[1, "not hex"], GENESIS], True),
        "no-entry-matches": ([[1, "f" * 64]], True),
        "empty": ([], True),
        "longest-answered": ([GENESIS] * node_module.MAX_LOCATOR, True),
        "10000-entries": ([GENESIS] * 10_000, False),
    }

    @pytest.mark.parametrize("locator,answered", HOSTILE_LOCATORS.values(),
                             ids=HOSTILE_LOCATORS.keys())
    def test_hostile_locator(self, locator, answered):
        core, queue = make_node()
        for i in range(3):
            submit_and_run(core, queue, {"kind": "raw", "data": f"r{i}"})
        chain = core.store.get_all_blocks()
        conn = Capture()
        from_peer(core, conn, wire.GET_BLOCKS, {"locator": locator})
        assert core.store.get_all_blocks() == chain
        assert len(conn.sent) == answered
        if answered:  # nothing the peer named matches: the suffix after genesis
            assert decode_envelope(conn.sent[0]).payload == {
                "after": 0, "blocks": [block_to_json(b) for b in chain[1:]], "more": False}

    @pytest.mark.parametrize("field", ["index", "timestamp", "nonce"])
    @pytest.mark.parametrize("kind", [wire.NEW_BLOCK, wire.BLOCKS])
    def test_block_integer_past_sqlite_range_is_malformed(self, kind, field):
        # a block at the tip's difficulty on the tip, one field at 2**63:
        # its shape is refused before the store or the miner is touched
        core, queue = make_node()
        submit_and_run(core, queue, {"kind": "raw", "data": "r0"})
        core.submit_tx({"kind": "raw", "data": "pending"}, lambda _result: None)
        [task] = core._queue
        chain = core.store.get_all_blocks()
        tip = chain[-1]
        block = replace(create_new_block("big", tip, effective_bits(core.difficulty),
                                         tip.timestamp + 1), **{field: 2**63})
        nonce, digest = search_nonce(mining_prefix_bytes(block), block.difficulty,
                                     block.nonce, 2**16)
        block = replace(block, nonce=nonce).with_hash(digest.hex())
        payload = ({"block": block_to_json(block)} if kind == wire.NEW_BLOCK
                   else {"after": tip.index, "blocks": [block_to_json(block)], "more": False})
        assert from_peer(core, Capture(), kind, payload) == "ignored"
        assert core.rejects_by_reason == {"MalformedBlock": 1}
        assert core.store.get_all_blocks() == chain
        assert not task.handle.finished

    MALFORMED_RAW = {
        "empty": b"",
        "header-cut-short": sign_envelope(wire.QUERY, 1, {}, PEER).encode()[:wire.HEADER.size - 1],
        "kind-code-0": wire.HEADER.pack(0, 0, 1, PEER.public_bytes, 64) + bytes(64) + b"{}",
        "kind-code-7": wire.HEADER.pack(7, 0, 1, PEER.public_bytes, 64) + bytes(64) + b"{}",
        "signature-of-33": wire.HEADER.pack(5, 0, 1, PEER.public_bytes, 33) + bytes(33) + b"{}",
        "signature-past-the-end": wire.HEADER.pack(5, 0, 1, PEER.public_bytes, 64) + bytes(63),
        # the JSON layout frames had before the binary header
        "json-layout": (b'{"kind":"QUERY","payload":{},"sender":"00","signature":"00",'
                        b'"timestamp":1}'),
    }

    @pytest.mark.parametrize("raw", MALFORMED_RAW.values(), ids=MALFORMED_RAW.keys())
    def test_frame_whose_header_does_not_decode_is_dropped(self, raw):
        core, _queue = make_node()
        assert core.on_message(Capture(), raw) == "dropped"
        assert core.dropped_envelopes == 1


def unlinked_block(core):
    """A mined block one past `core`'s tip whose parent exists nowhere."""
    tip = core.store.tip()
    block = create_new_block("orphan", tip, effective_bits(core.difficulty), tip.timestamp + 1)
    return mine_block(replace(block, prev_hash="f" * 64))


def next_block(core, data="peer"):
    """A mined block on `core`'s tip at its difficulty."""
    tip = core.store.tip()
    return mine_block(create_new_block(data, tip, effective_bits(core.difficulty),
                                       tip.timestamp + 1))


class TestIntakeOrder:
    """Every frame's tag is its first check: a forged frame of any kind is
    dropped and counted as it arrives, before its block is parsed or a row
    of the store is read. A NEW_BLOCK whose tag checks then meets its
    block's checks, cheapest first: the held check, the shape, the parent
    lookup, and then the fork choice's checks or, for an unlinked block, the
    limited-link cut and the pending-sync check.
    Every test sends on a link PEER opened with the handshake. `checks`
    counts the node's checks of an envelope, tag or signature; `signatures`
    the Ed25519 verifies among them, which a keyed link never needs;
    `verifies` the blocks the fork choice verified (consensus.verify_block)."""

    @pytest.fixture
    def core(self, monkeypatch):
        core, queue = make_node()
        for i in range(3):
            submit_and_run(core, queue, {"kind": "raw", "data": f"r{i}"})
        self.peer = PeerEnd(core, PEER).open()
        self.conn = self.peer.conn
        self.link = core._links[id(self.conn)]
        self.checks = self.signatures = self.verifies = 0
        real_check, real_signature = node_module.verify_envelope, wire.verify_signature
        real_verify = consensus.verify_block

        def counting_check(*args):
            self.checks += 1
            return real_check(*args)

        def counting_signature(env):
            self.signatures += 1
            return real_signature(env)

        def counting_verify(*args):
            self.verifies += 1
            return real_verify(*args)

        monkeypatch.setattr(node_module, "verify_envelope", counting_check)
        monkeypatch.setattr(wire, "verify_signature", counting_signature)
        monkeypatch.setattr(consensus, "verify_block", counting_verify)
        return core

    def second_link(self, core):
        """Another established link, whose sent frames the test reads."""
        conn = PeerEnd(core, PEER, seed=1).open().conn
        assert [link.conn for link in core.connected()] == [self.conn, conn]
        self.checks = self.signatures = 0
        return conn

    def forged(self, kind, payload):
        return self.peer.forged(kind, payload)

    @staticmethod
    def cheap_block(core):
        """The next block on `core`'s tip, with a hash that misses its difficulty."""
        tip = core.store.tip()
        bits = effective_bits(core.difficulty)
        block = create_new_block("cheap", tip, bits, tip.timestamp + 1)
        while meets_difficulty(block_hash(block), bits):
            block = replace(block, nonce=block.nonce + 1)
        return block.with_hash(block_hash(block))

    @staticmethod
    def rival_of_genesis():
        return mine_block(Block(index=0, timestamp=1, data="rival", hash="", difficulty=4,
                                nonce=0, prev_hash=genesis_block().hash))

    def frame(self, core, case):
        """(kind, payload) of a frame that, with its tag intact, meets the
        check `case` names, or is a message of kind `case`."""
        tip = core.store.tip()
        blocks = {
            "held": lambda: block_to_json(core.store.get_block(3)),
            "index-0": lambda: block_to_json(self.rival_of_genesis()),
            "malformed": lambda: "block",
            "invalid-pow": lambda: block_to_json(self.cheap_block(core)),
            "unlinked": lambda: block_to_json(unlinked_block(core)),
            "next": lambda: block_to_json(next_block(core)),
        }
        if case in blocks:
            return wire.NEW_BLOCK, {"block": blocks[case]()}
        return case, {
            wire.GET_BLOCKS: {"locator": [[tip.index, tip.hash]]},
            wire.BLOCKS: {"after": tip.index, "blocks": [block_to_json(next_block(core))],
                          "more": False},
            wire.TX: {"tx": {"kind": "raw", "data": "forged"}},
            wire.QUERY: {"what": "stats"},
        }[case]

    def count_parses(self, monkeypatch):
        """Count the JSON values read from frames' payloads from now on."""
        self.parses = 0
        real_scan = wire._scan_value

        def counting_scan(*args):
            self.parses += 1
            return real_scan(*args)

        monkeypatch.setattr(wire, "_scan_value", counting_scan)

    @pytest.mark.parametrize("case", ["held", "index-0", "malformed", "invalid-pow", "unlinked",
                                      "next", wire.GET_BLOCKS, wire.BLOCKS, wire.TX, wire.QUERY])
    def test_forged_frame_is_dropped_before_it_is_read(self, core, monkeypatch, case):
        # whatever check its block would have met next, a forged frame is
        # dropped at its tag: nothing parses its payload or its block, or
        # reads the store
        kind, payload = self.frame(core, case)
        raw = self.forged(kind, payload)
        link = core._links[id(self.conn)]
        link.quiet_since_ms = -1
        store = core.store
        self.count_parses(monkeypatch)
        monkeypatch.setattr(core, "store", None)  # any read would fail
        monkeypatch.setattr(node_module, "block_from_json", None)  # so would a parse
        assert core.on_message(self.conn, raw) == "dropped"
        assert self.parses == 0
        assert self.checks == 1 and self.signatures == 0 and self.verifies == 0
        assert core.dropped_envelopes == 1 and core.rejects_by_reason == {}
        assert self.conn.sent == [] and not core._queue
        # reading a NEW_BLOCK restarts the quiet timer whether its tag checks or not
        assert link.quiet_since_ms == (core.clock() if kind == wire.NEW_BLOCK else -1)
        monkeypatch.setattr(core, "store", store)
        assert self.peer.send(wire.QUERY, {"what": "stats"}) == "handled"  # the link lives

    @pytest.mark.parametrize("fields", [{}, {"hash": "not hex"}], ids=["valid", "malformed"])
    def test_signed_stale_block_costs_no_verify(self, core, monkeypatch, fields):
        # at a held height, the stored hash or a malformed one is ignored
        # once the tag checks, after one stored hash is read
        stale = {**block_to_json(core.store.get_block(2)), **fields}
        monkeypatch.setattr(core.store, "get_blocks", None)  # no suffix is loaded
        assert self.peer.send(wire.NEW_BLOCK, {"block": stale}) == "ignored"
        assert self.checks == 1 and self.verifies == 0
        assert core.dropped_envelopes == 0 and core.rejects_by_reason == {}

    UNREADABLE = {
        "empty": b"",
        "cut-short": b'{"block":',
        "two-values": b"{}{}",
        "trailing-newline": b"{}\n",
        "leading-space": b" {}",
        "not-utf-8": b'{"block":"\xff"}',
        "float": b'{"block":1.5}',
        "nan": b'{"block":NaN}',
        "5001-digits": b'{"block":1' + b"0" * 5000 + b"}",
        "deep-nesting": b'{"block":' + b"[" * 200_000 + b"]" * 200_000 + b"}",
    }

    @pytest.mark.parametrize("body", UNREADABLE.values(), ids=UNREADABLE.keys())
    def test_payload_that_is_not_one_json_value_is_dropped_after_its_tag(
            self, core, monkeypatch, body):
        # the tag checks, so the frame's counter is taken; then its payload,
        # read for the first time, is not one JSON value a frame can carry:
        # the frame is dropped and counted once, and the link is cut off
        chain = core.store.get_all_blocks()
        self.count_parses(monkeypatch)
        raw = self.peer.body_frame(wire.NEW_BLOCK, body)
        assert core.on_message(self.conn, raw) == "dropped"
        assert self.checks == 1 and self.signatures == 0 and self.verifies == 0
        assert self.parses <= 1  # none when the bytes are not UTF-8
        assert self.link.received == self.peer.sent
        assert core.dropped_envelopes == 1 and core.rejects_by_reason == {}
        assert self.conn.sent == [] and core.store.get_all_blocks() == chain
        assert self.link.cut_off  # see TestCutOff

    def test_forged_next_block_is_dropped(self, core):
        # the block would pass every check and is heavier: only the tag keeps
        # it off the chain, away from peers and from the miner, and its
        # check is no Ed25519 verify
        chain = core.store.get_all_blocks()
        other = self.second_link(core)
        core.submit_tx({"kind": "raw", "data": "pending"}, lambda _result: None)
        [task] = core._queue
        raw = self.forged(wire.NEW_BLOCK, {"block": block_to_json(next_block(core))})
        assert core.on_message(self.conn, raw) == "dropped"
        assert self.checks == 1 and self.signatures == 0
        assert core.dropped_envelopes == 1 and core.rejects_by_reason == {}
        assert core.store.get_all_blocks() == chain
        assert other.sent == []  # no relay
        assert not task.handle.finished  # mining goes on

    @pytest.mark.parametrize("at", [17, 30, 48], ids=["first", "middle", "last"])
    def test_next_block_with_a_changed_sender_byte_is_dropped(self, core, at):
        # the tag covers the whole header, the sender's key (offsets 17 to
        # 48) included: a frame with one sender byte changed is dropped and
        # counted at its tag, and its counter is not taken
        chain = core.store.get_all_blocks()
        raw = self.peer.frame(wire.NEW_BLOCK, {"block": block_to_json(next_block(core))})
        changed = raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1:]
        assert core.on_message(self.conn, changed) == "dropped"
        assert self.checks == 1 and self.signatures == 0 and self.verifies == 0
        assert core.dropped_envelopes == 1 and core.rejects_by_reason == {}
        assert core.store.get_all_blocks() == chain
        assert self.link.received == self.peer.sent - 1 and not self.link.cut_off
        assert core.on_message(self.conn, raw) == "appended"  # the frame as it was sent

    def test_forged_rival_of_equal_work_is_dropped(self, core):
        # a valid block that ties the tip would keep the chain "unchanged";
        # its forged envelope is still checked and counted
        chain = core.store.get_all_blocks()
        parent, tip = chain[-2:]
        rival = mine_block(create_new_block("rival", parent, tip.difficulty, tip.timestamp))
        raw = self.forged(wire.NEW_BLOCK, {"block": block_to_json(rival)})
        assert core.on_message(self.conn, raw) == "dropped"
        assert self.checks == 1 and self.signatures == 0
        assert core.dropped_envelopes == 1 and core.rejects_by_reason == {}
        assert core.store.get_all_blocks() == chain

    STALE = block_to_json(genesis_block())
    HOSTILE_BLOCKS = {
        "block-list": [STALE],
        "block-string": "block",
        "index-missing": {k: v for k, v in STALE.items() if k != "index"},
        "index-true": {**STALE, "index": True},
        "index-string": {**STALE, "index": "3"},
        "index-minus-1": {**STALE, "index": -1},
        "index-2**70": {**STALE, "index": 2**70},
    }

    @pytest.mark.parametrize("block", HOSTILE_BLOCKS.values(), ids=HOSTILE_BLOCKS.keys())
    def test_hostile_shape_is_counted_before_any_verify(self, core, block):
        chain = core.store.get_all_blocks()
        assert self.peer.send(wire.NEW_BLOCK, {"block": block}) == "ignored"
        assert self.checks == 1 and self.verifies == 0
        assert core.rejects_by_reason == {"MalformedBlock": 1}
        assert core.dropped_envelopes == 0
        assert core.store.get_all_blocks() == chain

    def test_invalid_pow_is_counted_by_the_fork_choice(self, core):
        tip = core.store.tip()
        block = self.cheap_block(core)
        assert self.peer.send(wire.NEW_BLOCK, {"block": block_to_json(block)}) == "ignored"
        assert self.checks == 1 and self.verifies == 1
        assert core.rejects_by_reason == {"InsufficientWork": 1}
        assert core.dropped_envelopes == 0
        assert core.store.tip() == tip

    def test_new_block_at_index_0_reads_no_chain(self, core, monkeypatch):
        # every chain holds genesis: a rival at index 0 is held whatever its
        # hash, so it costs neither a read of the chain nor a verify
        reads = []
        real_get_blocks = core.store.get_blocks
        monkeypatch.setattr(core.store, "get_blocks",
                            lambda *args: reads.append(args) or real_get_blocks(*args))
        payload = {"block": block_to_json(self.rival_of_genesis())}
        assert self.peer.send(wire.NEW_BLOCK, payload) == "ignored"
        assert reads == [] and self.checks == 1 and self.verifies == 0
        assert core.rejects_by_reason == {} and core.dropped_envelopes == 0

    def test_unlinked_block_on_a_limited_link_is_counted_before_any_verify(self, core):
        conn = self.conn
        core._links[id(conn)].unserved = node_module.MAX_UNSERVED
        payload = {"block": block_to_json(unlinked_block(core))}
        assert self.peer.send(wire.NEW_BLOCK, payload) == "ignored"
        assert self.checks == 1 and self.verifies == 0
        assert core.rejects_by_reason == {"ParentNotServed": 1}
        assert core.dropped_envelopes == 0
        assert conn.sent == []

    def test_forged_unlinked_block_sets_off_no_sync(self, core):
        conn = self.conn
        raw = self.forged(wire.NEW_BLOCK, {"block": block_to_json(unlinked_block(core))})
        assert core.on_message(conn, raw) == "dropped"
        assert self.checks == 1 and self.signatures == 0
        assert core.dropped_envelopes == 1 and core.rejects_by_reason == {}
        assert conn.sent == []  # no GET_BLOCKS
        assert core._links[id(conn)].wanted is None

    def test_unlinked_block_during_a_pending_sync_costs_no_verify(self, core):
        # the first unlinked block sets off a sync; until it is answered or
        # due a retry, another one sends nothing and leaves `wanted` as it is
        conn = self.conn
        block = unlinked_block(core)
        assert self.peer.send(wire.NEW_BLOCK, {"block": block_to_json(block)}) == "sync_triggered"
        assert self.checks == 1 and len(conn.sent) == 1
        assert self.peer.send(wire.NEW_BLOCK, {"block": block_to_json(block)}) == "sync_triggered"
        assert self.checks == 2 and self.verifies == 0 and len(conn.sent) == 1
        assert core.dropped_envelopes == 0 and core.rejects_by_reason == {}
        assert core._links[id(conn)].wanted == block.hash

    @pytest.mark.parametrize("case", ["held-malformed", "malformed-unlinked",
                                      "unlinked-invalid-pow", "limited-pending"])
    def test_the_earlier_check_decides(self, core, case):
        # each block fails two adjacent checks, and the earlier one's outcome
        # is the one seen: held before shape, shape before parent lookup,
        # parent lookup before the fork choice, limited-link cut before the
        # pending-sync check
        link = core._links[id(self.conn)]
        if case == "held-malformed":
            block = {**block_to_json(core.store.get_block(3)), "nonce": "not an int"}
            expect, rejects, sent = "ignored", {}, 0
        elif case == "malformed-unlinked":
            block = {**block_to_json(unlinked_block(core)), "nonce": "not an int"}
            expect, rejects, sent = "ignored", {"MalformedBlock": 1}, 0
        elif case == "unlinked-invalid-pow":
            block = block_to_json(replace(self.cheap_block(core), prev_hash="f" * 64))
            expect, rejects, sent = "sync_triggered", {}, 1
        else:
            link.unserved = node_module.MAX_UNSERVED
            link.sync_sent_ms = core.clock()
            block = block_to_json(unlinked_block(core))
            expect, rejects, sent = "ignored", {"ParentNotServed": 1}, 0
        assert self.peer.send(wire.NEW_BLOCK, {"block": block}) == expect
        assert self.checks == 1 and self.verifies == 0
        assert core.rejects_by_reason == rejects and core.dropped_envelopes == 0
        assert len(self.conn.sent) == sent

    def test_each_block_envelope_is_verified_once(self, core):
        # a NEW_BLOCK's tag is checked once, by on_message, whatever its
        # block's checks decide; on_envelope takes an envelope already
        # checked. The invalid block comes last, as it cuts the link off
        block = next_block(core)
        env = decode_envelope(self.peer.frame(wire.NEW_BLOCK,
                                              {"block": block_to_json(block)}))
        assert core.on_envelope(self.link, env) == "appended"
        assert self.checks == 0
        assert core.store.tip() == block
        outcomes = []
        for block in (unlinked_block(core), core.store.get_block(2), next_block(core),
                      self.cheap_block(core)):
            outcomes.append(self.peer.send(wire.NEW_BLOCK, {"block": block_to_json(block)}))
        assert outcomes == ["sync_triggered", "ignored", "appended", "ignored"]
        assert self.checks == 4 and self.signatures == 0

    @pytest.mark.parametrize("counter", ["same", "lower"])
    @pytest.mark.parametrize("kind", [wire.NEW_BLOCK, wire.GET_BLOCKS])
    def test_replayed_frame_is_dropped(self, core, kind, counter):
        # a frame whose counter does not rise is dropped before its tag is
        # computed: the same frame again, or an earlier one held back
        tip = core.store.tip()
        payload = ({"block": block_to_json(next_block(core))} if kind == wire.NEW_BLOCK
                   else {"locator": [[tip.index, tip.hash]]})
        earlier = self.peer.frame(wire.QUERY, {"what": "stats"})
        raw = self.peer.frame(kind, payload)
        assert core.on_message(self.conn, raw) in ("appended", "handled")
        chain, sent = core.store.get_all_blocks(), list(self.conn.sent)
        replayed = raw if counter == "same" else earlier
        assert core.on_message(self.conn, replayed) == "dropped"
        assert self.checks == 1 and self.conn.sent == sent
        assert core.dropped_envelopes == 1 and core.rejects_by_reason == {}
        assert core.store.get_all_blocks() == chain

    @pytest.mark.parametrize("fields", [{}, {"nonce": "cd" * 16}], ids=["same", "new-nonce"])
    def test_link_open_request_sent_again(self, core, fields):
        # a keyed link takes no link-open request, the one that opened it
        # or another: it carries no counter, so it is dropped and counted
        # before any check, and the link keeps its keys. A dialer that lost
        # the reply is keyed by the link it dials once its tick closes this one
        link = self.link
        keys = link.keys
        raw = self.peer.opening(**fields).encode()
        assert core.on_message(self.conn, raw) == "dropped"
        assert self.checks == 0 and self.conn.sent == []
        assert core.dropped_envelopes == 1
        assert link.keys is keys and core.connected() == [link]
        assert self.peer.send(wire.QUERY, {"what": "stats"}) == "handled"

    @pytest.mark.parametrize("frame", ["other-direction", "reflected"])
    @pytest.mark.parametrize("kind", [wire.NEW_BLOCK, wire.GET_BLOCKS])
    def test_frame_under_the_wrong_key_is_dropped(self, core, kind, frame):
        # PEER's frame tagged with the key of the node's direction, or the
        # node's own frame sent back to it: the tag fails, costing no
        # Ed25519 verify, and the frame is counted
        chain = core.store.get_all_blocks()
        tip = chain[-1]
        payload = ({"block": block_to_json(next_block(core))} if kind == wire.NEW_BLOCK
                   else {"locator": [[tip.index, tip.hash]]})
        if frame == "other-direction":
            raw = self.peer.frame(kind, payload, key=self.peer.keys[1])
        else:
            core._send_raw(self.link, core.frame(self.link, kind, payload))
            raw = self.conn.sent.pop()
        assert core.on_message(self.conn, raw) == "dropped"
        assert self.checks == 1 and self.signatures == 0
        assert core.dropped_envelopes == 1 and core.rejects_by_reason == {}
        assert self.conn.sent == []
        assert core.store.get_all_blocks() == chain

    @pytest.mark.parametrize("layout", ["space-after-comma", "reordered-keys"])
    def test_frame_with_its_payload_laid_out_anew_is_dropped(self, core, layout):
        # a frame is checked over its payload bytes as they arrived: a frame
        # whose payload holds the same value laid out other than the bytes
        # its honest tag covers is dropped and counted; the frame as tagged,
        # with the same counter, is then taken
        chain = core.store.get_all_blocks()
        payload = {"block": block_to_json(next_block(core)), "have": []}
        raw = self.peer.frame(wire.NEW_BLOCK, payload)
        canonical = canonical_json(payload)
        if layout == "space-after-comma":
            relaid = canonical.replace(b",", b", ", 1)
        else:
            relaid = json.dumps(dict(reversed(payload.items())), separators=(",", ":")).encode()
        assert relaid != canonical and json.loads(relaid) == payload
        assert raw.count(canonical) == 1
        assert core.on_message(self.conn, raw.replace(canonical, relaid)) == "dropped"
        assert self.checks == 1 and core.dropped_envelopes == 1
        assert core.store.get_all_blocks() == chain
        assert core.on_message(self.conn, raw) == "appended"

    def test_tagged_block_intake_encodes_no_payload(self, core, monkeypatch):
        # a NEW_BLOCK's tag is computed over its payload bytes as received,
        # so taking one in, held or appended, never runs canonical_json
        raws = [self.peer.frame(*self.frame(core, case))
                for case in ("held", "next")]
        calls = 0
        real = wire.canonical_json

        def counting(value):
            nonlocal calls
            calls += 1
            return real(value)

        monkeypatch.setattr(wire, "canonical_json", counting)
        monkeypatch.setattr(node_module, "canonical_json", counting)
        assert [core.on_message(self.conn, raw) for raw in raws] == ["ignored", "appended"]
        assert self.checks == 2 and calls == 0

    @pytest.mark.parametrize("kind", [wire.NEW_BLOCK, wire.BLOCKS])
    def test_block_on_a_link_without_keys_is_ignored(self, core, kind):
        # a client's link never runs the handshake: it carries no blocks,
        # and a signed block on it is not even checked
        conn = Capture()
        core.on_inbound_connection(conn)
        chain = core.store.get_all_blocks()
        block = block_to_json(next_block(core))
        payload = ({"block": block} if kind == wire.NEW_BLOCK
                   else {"after": chain[-1].index, "blocks": [block], "more": False})
        raw = sign_envelope(kind, 1, payload, PEER).encode()
        assert core.on_message(conn, raw) == "ignored"
        assert self.checks == 0 and conn.sent == []
        assert core.dropped_envelopes == 0 and core.rejects_by_reason == {}
        assert core.store.get_all_blocks() == chain

    @pytest.mark.parametrize("link_kind", ["client", "keyed"])
    def test_response_is_ignored_before_any_check(self, core, link_kind):
        # no node acts on a RESPONSE, so none is worth a tag or signature check
        payload = {"ok": True, "what": "stats", "result": {}}
        if link_kind == "client":
            conn = Capture()
            core.on_inbound_connection(conn)
            raw = sign_envelope(wire.RESPONSE, 1, payload, PEER).encode()
        else:
            conn, raw = self.conn, self.peer.frame(wire.RESPONSE, payload)
        link = core._links[id(conn)]
        received = link.received
        assert core.on_message(conn, raw) == "ignored"
        assert self.checks == 0 and conn.sent == []
        assert link.received == received and core.dropped_envelopes == 0

    @pytest.mark.parametrize("frame", ["signed", "tagged"])
    @pytest.mark.parametrize("kind", [wire.NEW_BLOCK, wire.GET_BLOCKS, wire.BLOCKS, wire.TX,
                                      wire.QUERY])
    def test_frame_on_a_conn_with_no_link_is_ignored(self, core, kind, frame):
        # both runtimes hand the core every conn before its first frame, so
        # a conn it was never handed has no link, and nothing on it is
        # checked, counted or answered
        conn = Capture()
        chain, links = core.store.get_all_blocks(), dict(core._links)
        block = block_to_json(next_block(core))
        payload = {
            wire.NEW_BLOCK: {"block": block},
            wire.GET_BLOCKS: PeerEnd(core, PEER, seed=2).opening().payload,
            wire.BLOCKS: {"after": chain[-1].index, "blocks": [block], "more": False},
            wire.TX: {"tx": {"kind": "raw", "data": "unlinked"}},
            wire.QUERY: {"what": "stats"},
        }[kind]
        raw = (sign_envelope(kind, 1, payload, PEER).encode() if frame == "signed"
               else self.peer.frame(kind, payload))
        assert core.on_message(conn, raw) == "ignored"
        assert self.checks == 0 and conn.sent == [] and self.conn.sent == []
        assert core.dropped_envelopes == 0 and core.rejects_by_reason == {}
        assert core._links == links and not core._queue
        assert core.store.get_all_blocks() == chain

    @pytest.mark.parametrize("kind", [wire.NEW_BLOCK, wire.BLOCKS])
    def test_data_that_is_not_unicode_text_is_malformed(self, core, kind):
        # JSON text can carry a lone surrogate as an escape; no block may
        # hold one, as its hash preimage would not encode
        chain = core.store.get_all_blocks()
        tip = chain[-1]
        block = replace(next_block(core), data="\ud800")
        payload = ({"block": block_to_json(block)} if kind == wire.NEW_BLOCK
                   else {"after": tip.index, "blocks": [block_to_json(block)], "more": False})
        raw = self.peer.frame(kind, payload)
        assert b"\\ud800" in raw  # the escape, as a peer would send it
        assert core.on_message(self.conn, raw) == "ignored"
        assert core.rejects_by_reason == {"MalformedBlock": 1}
        assert core.dropped_envelopes == 0
        assert core.store.get_all_blocks() == chain


class TestCutOff:
    """A frame whose tag checks but whose content no honest node sends, an
    invalid block or a payload that is not one JSON value, cuts its link
    off: the node decodes nothing more from it and sends nothing on it, and
    the conn stays open. What an honest peer can send, or an on-path
    attacker forge, leaves the link live. The node remembers the peer, by
    its full node id, and the peer's next link starts cut off. Every test
    sends on a link PEER opened with the handshake; `checks` counts the
    node's tag checks and `decodes` the frames whose header it decoded."""

    @pytest.fixture
    def core(self, monkeypatch):
        core, self.queue = make_node()
        for i in range(3):
            submit_and_run(core, self.queue, {"kind": "raw", "data": f"r{i}"})
        self.peer = PeerEnd(core, PEER).open()
        self.conn = self.peer.conn
        self.checks = self.decodes = 0
        real_check, real_decode = node_module.verify_envelope, node_module.decode_envelope

        def counting_check(*args):
            self.checks += 1
            return real_check(*args)

        def counting_decode(raw):
            self.decodes += 1
            return real_decode(raw)

        monkeypatch.setattr(node_module, "verify_envelope", counting_check)
        monkeypatch.setattr(node_module, "decode_envelope", counting_decode)
        return core

    def trigger(self, core, case):
        """Wire bytes of PEER's next frame, whose tag checks, meeting `case`."""
        if case == "invalid-pow":
            block = block_to_json(TestIntakeOrder.cheap_block(core))
        elif case == "hash-mismatch":
            block = {**block_to_json(next_block(core)), "data": "not what was mined"}
        elif case == "malformed":
            block = {**block_to_json(next_block(core)), "nonce": "not an int"}
        elif case == "unchained-page":  # its second block names another parent
            first = next_block(core)
            second = mine_block(replace(create_new_block("second", first, first.difficulty,
                                                         first.timestamp + 1),
                                        prev_hash="f" * 64))
            return self.peer.frame(wire.BLOCKS, {
                "after": core.store.tip().index,
                "blocks": [block_to_json(first), block_to_json(second)], "more": False})
        else:  # unreadable
            return self.peer.body_frame(wire.NEW_BLOCK, b"{}{}")
        return self.peer.frame(wire.NEW_BLOCK, {"block": block})

    # each trigger -> the reject it is counted as
    TRIGGERS = {
        "invalid-pow": {"InsufficientWork": 1},
        "hash-mismatch": {"HashMismatch": 1},
        "malformed": {"MalformedBlock": 1},
        "unchained-page": {"PrevHashMismatch": 1},
        "unreadable": {},  # dropped and counted as an envelope
    }

    @pytest.mark.parametrize("case,rejects", TRIGGERS.items(), ids=TRIGGERS.keys())
    def test_link_is_cut_off_at_its_first_invalid_frame(self, core, case, rejects):
        chain = core.store.get_all_blocks()
        core.on_message(self.conn, self.trigger(core, case))
        assert core.rejects_by_reason == rejects
        assert core.dropped_envelopes == (case == "unreadable")
        assert core.store.get_all_blocks() == chain
        dropped = core.dropped_envelopes
        assert core.handle_query("stats", {})["result"]["cut_off_links"] == 1
        # the peer's next frame, a valid next block, is dropped undecoded
        self.checks = self.decodes = 0
        block = next_block(core)
        raw = self.peer.frame(wire.NEW_BLOCK, {"block": block_to_json(block)})
        assert core.on_message(self.conn, raw) == "dropped"
        assert self.checks == 0 and self.decodes == 0
        assert core.dropped_envelopes == dropped + 1
        assert core.store.get_all_blocks() == chain
        # nothing is sent on the link: no relay and no resync
        assert core.broadcast_block(block) == 0
        self.queue.now += node_module.RESYNC_MS
        core.tick()
        assert self.conn.sent == [] and not self.conn.closed
        # the same peer's next link starts cut off
        self.assert_starts_cut_off(core, PEER, block)
        assert core.handle_query("stats", {})["result"]["cut_off_links"] == 2

    def assert_starts_cut_off(self, core, identity, block):
        """A link `identity` opens now starts cut off: its link open, whose
        locator names a tip the node lacks, is answered with no block and no
        pull-back; its next frame, `block`, is dropped undecoded; nothing is
        sent on it."""
        genesis = [0, core.store.get_hashes([0])[0]]
        other = PeerEnd(core, identity, seed=1).open(locator=[[99, "ab" * 32], genesis])
        assert other.reply.payload["blocks"] == [] and other.conn.sent == []
        chain, dropped = core.store.get_all_blocks(), core.dropped_envelopes
        self.checks = self.decodes = 0
        assert other.send(wire.NEW_BLOCK, {"block": block_to_json(block)}) == "dropped"
        assert self.checks == 0 and self.decodes == 0
        assert core.dropped_envelopes == dropped + 1
        assert core.store.get_all_blocks() == chain
        core.broadcast_block(block)
        self.queue.now += node_module.RESYNC_MS
        core.tick()
        assert other.conn.sent == [] and not other.conn.closed

    def cut_off(self, core, identity):
        """Open a link from `identity` and cut it off with a malformed block."""
        end = PeerEnd(core, identity, seed=2).open()
        block = {**block_to_json(next_block(core)), "nonce": "not an int"}
        assert end.send(wire.NEW_BLOCK, {"block": block}) == "ignored"
        assert core._links[id(end.conn)].cut_off

    def test_a_peer_with_the_same_short_id_is_served(self, core, monkeypatch):
        # the node remembers full node ids: a key ground to match a cut-off
        # peer's 32-bit short id does not cut an honest peer off
        monkeypatch.setattr(node_module, "short_id", lambda node_id: "same")
        core.on_message(self.conn, self.trigger(core, "invalid-pow"))
        assert core._links[id(self.conn)].cut_off
        honest = PeerEnd(core, NodeIdentity.from_seed(b"\x08" * 32)).open()
        block = next_block(core)
        assert honest.send(wire.NEW_BLOCK, {"block": block_to_json(block)}) == "appended"

    def test_the_oldest_cut_off_peer_is_forgotten_first(self, core, monkeypatch):
        monkeypatch.setattr(node_module, "MAX_CUT_OFF_PEERS", 2)
        first, second, third = (NodeIdentity.from_seed(bytes([seed]) * 32) for seed in (9, 10, 11))
        for identity in (first, second, third):
            self.cut_off(core, identity)
        for identity in (second, third):
            self.assert_starts_cut_off(core, identity, next_block(core))
        again = PeerEnd(core, first, seed=3).open()
        block = next_block(core)
        assert again.send(wire.NEW_BLOCK, {"block": block_to_json(block)}) == "appended"

    def test_a_dialed_link_to_a_cut_off_peer_starts_cut_off(self, core):
        # the node dials PEER, which answers the link open with a page that
        # would extend the node's chain: the link is keyed and cut off, and
        # the page is not read
        core.on_message(self.conn, self.trigger(core, "malformed"))
        server, _queue = make_node(identity=PEER)
        assert server.adopt_if_heavier(0, core.store.get_all_blocks()[1:] + [
            next_block(core)]) == "adopted"
        ask, answer = Capture(), Capture()
        core.connect_peer(ask)
        server.on_inbound_connection(answer)
        server.on_message(answer, ask.sent.pop())
        [reply] = answer.sent
        assert decode_envelope(reply).payload["blocks"] != []
        chain = core.store.get_all_blocks()
        assert core.on_message(ask, reply) == "ignored"
        assert core.store.get_all_blocks() == chain
        assert core._links[id(ask)].keys is not None and core._links[id(ask)].cut_off
        assert core.broadcast_block(next_block(core)) == 0
        self.queue.now += node_module.RESYNC_MS
        core.tick()
        assert ask.sent == [] and not ask.closed

    @pytest.mark.parametrize("case", ["forged", "unlinked", "held", "parent-not-served"])
    def test_link_stays_live(self, core, case):
        link = core._links[id(self.conn)]
        if case == "forged":
            raw = self.peer.forged(wire.NEW_BLOCK, {"block": block_to_json(next_block(core))})
            expect, rejects = "dropped", {}
        elif case == "unlinked":
            raw = self.peer.frame(wire.NEW_BLOCK, {"block": block_to_json(unlinked_block(core))})
            expect, rejects = "sync_triggered", {}
        elif case == "held":
            raw = self.peer.frame(wire.NEW_BLOCK, {"block": block_to_json(core.store.tip())})
            expect, rejects = "ignored", {}
        else:
            link.unserved = node_module.MAX_UNSERVED
            raw = self.peer.frame(wire.NEW_BLOCK, {"block": block_to_json(unlinked_block(core))})
            expect, rejects = "ignored", {"ParentNotServed": 1}
        assert core.on_message(self.conn, raw) == expect
        assert core.rejects_by_reason == rejects
        assert core.handle_query("stats", {})["result"]["cut_off_links"] == 0
        block = next_block(core)
        assert self.peer.send(wire.NEW_BLOCK, {"block": block_to_json(block)}) == "appended"
        self.conn.sent.clear()
        assert core.broadcast_block(next_block(core)) == 1
        self.queue.now += node_module.RESYNC_MS
        core.tick()
        assert [decode_envelope(raw).kind for raw in self.conn.sent] == [wire.NEW_BLOCK,
                                                                         wire.GET_BLOCKS]


class TestSelfDial:
    def test_own_link_open_request_is_not_answered(self):
        # a node that dials its own address (a --peer equal to --listen)
        # reads its own link-open request on the conn it accepted: it
        # answers nothing and keys no link to itself
        core, _queue = make_node()
        conn = Capture()
        core.on_inbound_connection(conn)
        raw = PeerEnd(core, core.identity).opening(**core._hello()).encode()
        assert core.on_message(conn, raw) == "self"
        assert conn.sent == [] and core.connected() == []
        assert core.dropped_envelopes == 0 and core.rejects_by_reason == {}


class TestSixStepOrder:
    STEP_OF = {
        "client_request": 1,
        "create_block": 2,
        "mine_block": 2,
        "verify_block": 3,
        "add_block": 3,
        "broadcast_block": 4,
        "execute_contracts": 5,
        "persist_state": 6,
    }

    @staticmethod
    def record_flow(core, monkeypatch) -> list[str]:
        """Wrap the real call behind each step; each call appends its step name."""
        events = []

        def wrap(owner, attr, name):
            real = getattr(owner, attr)

            def recorded(*args, **kwargs):
                events.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, attr, recorded)

        wrap(core, "submit_tx", "client_request")
        wrap(node_module, "create_new_block", "create_block")
        wrap(core.miner, "start", "mine_block")
        wrap(consensus, "verify_block", "verify_block")
        wrap(core.store, "add_block", "add_block")
        wrap(core, "broadcast_block", "broadcast_block")
        wrap(core, "_apply_block_payload", "execute_contracts")
        wrap(core.store, "put_contract", "persist_state")
        wrap(core.store, "put_state", "persist_state")
        return events

    def test_steps_execute_in_request_flow_order(self, monkeypatch):
        core, queue = make_node()
        events = self.record_flow(core, monkeypatch)
        submit_and_run(core, queue, {"kind": "deploy", "contract": COUNTER})
        steps = [self.STEP_OF[e] for e in events if e in self.STEP_OF]
        assert steps == sorted(steps)
        assert steps[0] == 1 and steps[-1] == 6

    def test_contract_execution_only_after_acceptance(self, monkeypatch):
        core, queue = make_node()
        events = self.record_flow(core, monkeypatch)
        submit_and_run(core, queue, {"kind": "raw", "data": "plain"})
        assert events.index("verify_block") < events.index("add_block")
        assert events.index("add_block") < events.index("execute_contracts")


class TestStatePurity:
    def test_state_is_pure_function_of_chain(self):
        core, queue = make_node()
        submit_and_run(core, queue, {"kind": "deploy", "contract": COUNTER})
        for arg in (3, 9, 27):
            submit_and_run(core, queue, {"kind": "call", "contract_id": COUNTER_ID,
                                         "args": [arg]})
        submit_and_run(core, queue, {"kind": "raw", "data": "noise"})

        # independent oracle: replay every payload through a fresh interpreter
        replayed: dict[tuple[str, str], int] = {}
        sources: dict[str, list] = {}
        cache = ContractCache()
        for block in core.store.get_all_blocks()[1:]:
            tx = parse_tx_data(block.data)
            if tx is None:
                continue
            if tx["kind"] == "deploy":
                sources[contract_id_for(tx["contract"])] = tx["contract"]
            elif tx["kind"] == "call":
                cid = tx["contract_id"]
                compiled = cached_lookup(cache, cid, sources.get)
                execute(compiled, tx["args"],
                        lambda key, _c=cid: replayed.get((_c, key)),
                        lambda key, value, _c=cid: replayed.__setitem__((_c, key), value))
        assert replayed == core.store.all_state()


class TestReorgStateRebuild:
    def test_adopted_chain_state_matches_sequential_replay(self, cluster_factory):
        # a reorg drops the effects of the replaced blocks and executes only the
        # new ones; the result must equal a plain sequential replay of the
        # adopted chain
        cluster = cluster_factory(2)
        a, b = cluster.nodes
        # b builds the heavier history with contract activity, a diverges
        cluster.nodes[1].submit_tx({"kind": "deploy", "contract": COUNTER}, lambda _: None)
        cluster.pump()
        for arg in (10, 20, 30):
            b.submit_tx({"kind": "call", "contract_id": COUNTER_ID, "args": [arg]},
                        lambda _: None)
            cluster.pump()
        a.submit_tx({"kind": "raw", "data": "lonely"}, lambda _: None)
        cluster.pump()
        assert a.store.tip().hash != b.store.tip().hash

        cluster.connect(0, 1)
        cluster.pump()
        assert a.store.tip().hash == b.store.tip().hash  # a reorged onto b

        replayed: dict[tuple[str, str], int] = {}
        sources: dict[str, list] = {}
        for block in a.store.get_all_blocks()[1:]:
            tx = parse_tx_data(block.data)
            if tx is None:
                continue
            if tx["kind"] == "deploy":
                sources[contract_id_for(tx["contract"])] = tx["contract"]
            elif tx["kind"] == "call":
                cid = tx["contract_id"]
                compiled = cached_lookup(ContractCache(), cid, sources.get)
                execute(compiled, tx["args"],
                        lambda key, _c=cid: replayed.get((_c, key)),
                        lambda key, value, _c=cid: replayed.__setitem__((_c, key), value))
        assert replayed == a.store.all_state()
        assert a.store.get_state(COUNTER_ID, "total") == 60

    def test_cached_contract_without_deploy_on_adopted_chain_is_not_run(self):
        # a has COUNTER compiled in its cache; the heavier chain calls it but
        # never deploys it, so on that chain the call must fail on every node
        a, a_queue = make_node()
        submit_and_run(a, a_queue, {"kind": "deploy", "contract": COUNTER})
        submit_and_run(a, a_queue, {"kind": "call", "contract_id": COUNTER_ID, "args": [1]})
        assert a.cache.counters()["compiles"] == 1

        heavier = [genesis_block()]
        call, _ = validate_tx_payload({"kind": "call", "contract_id": COUNTER_ID, "args": [5]},
                                      lambda _: True)
        for i, data in enumerate(["x", "y", call]):
            block = create_new_block(data, heavier[-1], 8, 1000 + i)
            heavier.append(mine_block(block))

        b, _ = make_node()
        assert a.adopt_if_heavier(0, heavier[1:]) == "adopted"
        assert b.adopt_if_heavier(0, heavier[1:]) == "adopted"
        assert a.store.tip().hash == b.store.tip().hash == heavier[-1].hash
        assert a.store.all_state() == b.store.all_state() == {}

    def test_mined_deploy_with_a_key_that_does_not_encode_deploys_nothing(self):
        source = [["set", "\ud800", 1]]
        call, _ = validate_tx_payload({"kind": "call", "contract_id": contract_id_for(source),
                                       "args": []}, lambda _: True)
        chain = [genesis_block()]
        for i, data in enumerate([canonical_json({"kind": "deploy", "contract": source}).decode(),
                                  call]):
            chain.append(mine_block(create_new_block(data, chain[-1], 4, 1000 + i)))
        core, _queue = make_node()
        assert core.adopt_if_heavier(0, chain[1:]) == "adopted"
        assert core.store.tip().hash == chain[-1].hash
        assert core.store.get_contract(contract_id_for(source)) is None
        assert core.exec_errors == {"ContractNotFound": 1}

    def test_replayed_block_counts_its_failed_call_once(self):
        core, _queue = make_node()
        call, _ = validate_tx_payload({"kind": "call", "contract_id": COUNTER_ID, "args": [1]},
                                      lambda _: True)
        first = [genesis_block()]
        for i, data in enumerate([call, "x"]):
            first.append(mine_block(create_new_block(data, first[-1], 4, 1000 + i)))
        assert core.adopt_if_heavier(0, first[1:]) == "adopted"
        assert core.exec_errors == {"ContractNotFound": 1}

        # the heavier fork keeps the call block and replaces the block after it
        fork = first[:2] + [mine_block(create_new_block("y", first[1], 10, 2000))]
        assert core.adopt_if_heavier(0, fork[1:]) == "adopted"
        assert core.store.tip().hash == fork[-1].hash
        assert core.exec_errors == {"ContractNotFound": 1}


class TestChainChange:
    """A reorg drops only the replaced tail; nothing replays the chain from genesis."""

    def test_reorg_writes_as_many_rows_on_a_long_chain_as_on_a_short_one(self):
        longest = extend([genesis_block()], [f"b{i}" for i in range(2000)], 4)
        changed = {}
        for length in (50, 2000):
            core, _queue = make_node()
            chain = longest[:length + 1]
            assert core.adopt_if_heavier(0, chain[1:]) == "adopted"
            fork = extend(chain[:-2], ["f0", "f1"], 8)  # replaces the last two blocks
            before = core.store._conn.total_changes
            assert core.adopt_if_heavier(length - 2, fork[length - 1:]) == "adopted"
            changed[length] = core.store._conn.total_changes - before
            assert core.store.tip() == fork[-1]
        assert changed[50] == changed[2000]

    def test_restart_after_a_reorg_reads_the_difficulty_from_the_tip(self, store_path,
                                                                     monkeypatch):
        core, _queue = make_node(store=BlockStore(store_path))
        chain = [genesis_block()]
        for i, spacing in enumerate([1, 1, 5, 1, 3, 2, 1]):  # the retarget moves both ways
            chain = extend(chain, [f"a{i}"], 4, spacing)
        assert core.adopt_if_heavier(0, chain[1:]) == "adopted"
        fork = extend(chain[:5], ["f0", "f1", "f2"], 6, spacing=4)
        assert core.adopt_if_heavier(4, fork[5:]) == "adopted"
        expected = replay_difficulty(fork, TEST_PARAMS)
        assert expected != replay_difficulty(chain, TEST_PARAMS)
        assert core.difficulty == expected
        core.store.close()

        def whole_chain(_store):
            raise AssertionError("startup read the whole chain")

        monkeypatch.setattr(BlockStore, "get_all_blocks", whole_chain)
        reopened, _queue = make_node(store=BlockStore(store_path))
        monkeypatch.undo()
        assert reopened.difficulty == expected
        assert reopened.store.get_all_blocks() == fork
        reopened.store.close()

    def test_failed_reorg_changes_nothing(self, store_path, monkeypatch):
        class StoreDown(Exception):
            pass

        other = [["add", "other", 1]]
        core, queue = make_node(store=BlockStore(store_path))
        submit_and_run(core, queue, {"kind": "deploy", "contract": COUNTER})
        submit_and_run(core, queue, {"kind": "call", "contract_id": COUNTER_ID, "args": [5]})
        submit_and_run(core, queue, {"kind": "deploy", "contract": other})
        chain, state, difficulty = (core.store.get_all_blocks(), core.store.all_state(),
                                    core.difficulty)
        audit = BlockStore(store_path)
        call, _ = validate_tx_payload({"kind": "call", "contract_id": COUNTER_ID, "args": [7]},
                                      lambda _: True)
        # the fork keeps the deploy at block 1 and replaces the call and the
        # second deploy; its own call, in its second block, fails to persist
        fork = extend(chain[:2], ["x", call, "y"], 10, spacing=4)
        assert replay_difficulty(fork[:3], TEST_PARAMS) != difficulty

        def put_state(*_args):
            raise StoreDown()

        monkeypatch.setattr(core.store, "put_state", put_state)
        with pytest.raises(StoreDown):
            core.adopt_if_heavier(1, fork[2:])
        for store in (core.store, audit):
            assert store.get_all_blocks() == chain
            assert store.all_state() == state
            assert store.get_contract(contract_id_for(other)) is not None
        assert core.difficulty == difficulty
        audit.close()

        monkeypatch.undo()  # with the store back, the same fork is adopted
        assert core.adopt_if_heavier(1, fork[2:]) == "adopted"
        assert core.store.get_contract(contract_id_for(other)) is None
        assert core.store.all_state() == {(COUNTER_ID, "count"): 1, (COUNTER_ID, "total"): 7}
        assert core.difficulty == replay_difficulty(fork, TEST_PARAMS)


class HeldJob:
    """One mining job of a HeldMiner; it finishes when the test calls `done`."""

    def __init__(self, block, done):
        self.block, self.done, self.cancelled = block, done, False

    def cancel(self):
        self.cancelled = True


class HeldMiner:
    def __init__(self):
        self.jobs = []

    def start(self, block, done):
        self.jobs.append(HeldJob(block, done))
        return self.jobs[-1]


class TestOneIntakePath:
    """Every block joins the chain through adopt_if_heavier, once."""

    @pytest.fixture
    def spied(self, monkeypatch):
        core, queue = make_node()
        calls = []
        real = core.adopt_if_heavier

        def spy(after, blocks, **kwargs):
            outcome = real(after, blocks, **kwargs)
            calls.append((after, [block.index for block in blocks], outcome))
            return outcome

        monkeypatch.setattr(core, "adopt_if_heavier", spy)
        return core, queue, calls

    def test_gossiped_block(self, spied):
        core, _queue, calls = spied
        block = extend([genesis_block()], ["gossip"], 4)[1]
        assert from_peer(core, Capture(), wire.NEW_BLOCK,
                         {"block": block_to_json(block)}) == "appended"
        assert calls == [(0, [1], "adopted")]

    def test_sync_page(self, spied):
        core, _queue, calls = spied
        chain = extend([genesis_block()], ["s0", "s1"], 4)
        page = {"after": 0, "blocks": [block_to_json(b) for b in chain[1:]], "more": False}
        assert from_peer(core, Capture(), wire.BLOCKS, page) == "adopted"
        assert calls == [(0, [1, 2], "adopted")]

    def test_mined_block(self, spied):
        core, queue, calls = spied
        assert submit_and_run(core, queue, {"kind": "raw", "data": "mined"})["ok"] is True
        assert calls == [(0, [1], "adopted")]


class TestNoCodecSetUpPerFrame:
    """A frame's path builds no JSON codec: canonical_json keeps one
    encoder and parse_tx_data one decoder, so neither json.dumps nor
    json.loads runs, and no json.JSONEncoder is made."""

    @pytest.fixture
    def codec_calls(self, monkeypatch):
        calls = []
        init, dumps, loads = json.JSONEncoder.__init__, json.dumps, json.loads

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return counted

        def start():
            monkeypatch.setattr(json.JSONEncoder, "__init__", counting("JSONEncoder", init))
            monkeypatch.setattr(json, "dumps", counting("dumps", dumps))
            monkeypatch.setattr(json, "loads", counting("loads", loads))
            return calls

        return start

    def test_gossiped_block_intake_apply_and_relay(self, codec_calls):
        core, _queue = make_node()
        sender = PeerEnd(core, PEER).open()
        other = PeerEnd(core, NodeIdentity.from_seed(b"\x08" * 32), seed=1).open()
        data, _ = validate_tx_payload({"kind": "raw", "data": "gossiped"}, lambda _cid: True)
        block = next_block(core, data)
        raw = sender.frame(wire.NEW_BLOCK, {"block": block_to_json(block)})
        calls = codec_calls()
        assert core.on_message(sender.conn, raw) == "appended"
        [relayed] = other.conn.sent  # the one broadcast: the block goes on to the other peer
        assert calls == []
        assert core.store.tip().hash == block.hash
        assert decode_envelope(relayed).payload["block"] == block_to_json(block)

    def test_own_block_broadcast(self, codec_calls):
        core, _queue = make_node()
        peers = [PeerEnd(core, NodeIdentity.from_seed(bytes([9 + i]) * 32), seed=i).open()
                 for i in range(3)]
        block = next_block(core)
        calls = codec_calls()
        assert core.broadcast_block(block) == 3
        assert calls == []
        assert all(len(peer.conn.sent) == 1 for peer in peers)


class TestQueuedDeployIds:
    """A queued deploy keeps its contract id from intake, so a call's intake
    encodes no queued source, and a deploy's source is encoded once at
    intake and once as its block is applied, by its compile, whose bytes
    give the id and are what the store keeps."""

    @staticmethod
    def count_source_encodes(monkeypatch, programs):
        """The encodes of any of `programs` from here on, through the
        contracts module, which the compile calls canonical_json in, and the
        node's own binding."""
        runs = []
        for module in (contracts_module, node_module):
            real = module.canonical_json
            monkeypatch.setattr(module, "canonical_json",
                                lambda value, real=real:
                                (value in programs and runs.append(value)) or real(value))
        return runs

    def test_call_intake_encodes_no_queued_source(self, monkeypatch):
        core, queue = make_node()
        programs = [[["add", "count", i]] for i in range(1, 4)]
        replies = []
        for program in programs:
            core.submit_tx({"kind": "deploy", "contract": program}, replies.append)
        assert len(core._queue) == 3 and replies == []
        last = contract_id_for(programs[-1])
        runs = self.count_source_encodes(monkeypatch, programs + [COUNTER])
        # a call of the last deploy queued, and one of a contract not deployed
        core.submit_tx({"kind": "call", "contract_id": last, "args": []}, replies.append)
        core.submit_tx({"kind": "call", "contract_id": COUNTER_ID, "args": []},
                       replies.append)
        assert runs == []
        assert len(core._queue) == 4
        [refused] = replies
        assert refused["ok"] is False and "unknown contract" in refused["error"]
        queue.run()
        assert [reply["ok"] for reply in replies[1:]] == [True] * 4
        assert core.store.get_state(last, "count") == 3

    def test_a_deploy_encodes_its_source_once_at_intake_and_once_per_apply(self, monkeypatch):
        core, queue = make_node()
        other, _ = make_node(identity=NodeIdentity.from_seed(b"\x43" * 32))
        peer = PeerEnd(other, NodeIdentity.from_seed(b"\x44" * 32)).open()
        program = [["add", "count", 1]]
        runs = self.count_source_encodes(monkeypatch, [program])
        replies = []
        core.submit_tx({"kind": "deploy", "contract": program}, replies.append)
        assert runs == [program] and replies == []  # intake
        queue.run()
        [reply] = replies
        # applied where it was mined: the store keeps the compile's bytes
        assert reply["ok"] is True and runs == [program] * 2
        block = core.store.tip()
        assert peer.send(wire.NEW_BLOCK, {"block": block_to_json(block)}) == "appended"
        assert runs == [program] * 3  # and where it arrived
        cid = contract_id_for(program)
        assert core.store.get_contract(cid) == other.store.get_contract(cid) is not None
        assert core.store.get_contract(cid) == canonical_json(program).decode("utf-8")


class TestCacheBound:
    def test_a_call_of_a_dropped_form_recompiles_and_writes_the_same_state(self, monkeypatch):
        monkeypatch.setattr(contracts_module, "CACHE_ENTRIES", 1)
        core, queue = make_node()
        programs = [[["add", "count", ["arg", 0]]], [["add", "other", ["arg", 0]]]]
        first, second = map(contract_id_for, programs)
        for program in programs:
            assert submit_and_run(core, queue, {"kind": "deploy", "contract": program})["ok"]
        for cid in (first, second, first):
            reply = submit_and_run(core, queue, {"kind": "call", "contract_id": cid, "args": [2]})
            assert reply["ok"]
        assert list(core.cache.entries) == [first]
        assert core.cache.counters() == {"hits": 0, "misses": 3, "compiles": 3}
        assert core.exec_errors == {}
        assert core.store.get_state(first, "count") == 4
        assert core.store.get_state(second, "other") == 2


class TestLateOwnBlock:
    """A block mined here that finishes after a peer's block took its height
    competes with that block by work, like any other block."""

    TX = {"kind": "raw", "data": "own"}

    def race(self, peer_bits):
        """The node mines at 6 bits; a peer's block at `peer_bits` arrives
        first, and the job finishes before its cancel reaches it."""
        miner = HeldMiner()
        core, _queue = make_node(miner=miner)
        depths, replies = [], []
        core.on_chain_change = lambda _blocks, depth: depths.append(depth)
        core.submit_tx(self.TX, replies.append)
        [job] = miner.jobs
        assert job.block.difficulty == 6
        peer = mine_block(create_new_block("peer", genesis_block(), peer_bits,
                                           job.block.timestamp))
        assert from_peer(core, Capture(), wire.NEW_BLOCK,
                         {"block": block_to_json(peer)}) == "appended"
        assert job.cancelled
        job.done(mine_block(job.block))
        return core, miner, depths, replies, peer

    def test_heavier_own_block_is_adopted(self):
        core, miner, depths, replies, peer = self.race(peer_bits=4)
        own = core.store.tip()
        assert own.data == canonical_json(self.TX).decode() and own.difficulty == 6
        assert replies == [{"ok": True, "what": "tx",
                            "result": {"block_index": 1, "block_hash": own.hash}}]
        assert depths == [0, 1]  # the peer's block, then a reorg of depth 1
        assert core.rejects_by_reason == {}
        assert len(miner.jobs) == 1  # nothing is mined again

    def test_tie_keeps_the_peer_block_and_retries(self):
        core, miner, depths, replies, peer = self.race(peer_bits=6)
        assert core.store.get_all_blocks() == [genesis_block(), peer]
        assert replies == [] and depths == [0]
        assert core.rejects_by_reason == {}
        [_, retry] = miner.jobs
        assert retry.block.prev_hash == peer.hash and not retry.cancelled


class TestStaleSyncReply:
    """A BLOCKS reply that no longer fits the chain is dropped, not counted."""

    @staticmethod
    def chain(base, n, bits, tag):
        blocks = list(base)
        for i in range(n):
            blocks.append(mine_block(create_new_block(f"{tag}{i}", blocks[-1], bits,
                                                      1000 + len(blocks))))
        return blocks

    @staticmethod
    def adopt(core, chain):
        assert core.adopt_if_heavier(0, chain[1:]) == "adopted"

    def reply_to(self, requester, server):
        """The requester dials the server; the server's BLOCKS answer to its
        link-open GET_BLOCKS, as wire bytes, and the requester's end."""
        ask, answer = Capture(), Capture()
        requester.connect_peer(ask)
        server.on_inbound_connection(answer)
        server.on_message(answer, ask.sent[0])
        [raw] = answer.sent
        return raw, ask

    @pytest.mark.parametrize("shared", [2, 5], ids=["fork-point-reorged-away",
                                                    "fork-point-past-the-tip"])
    def test_reply_after_a_reorg_is_ignored(self, cluster_factory, shared):
        requester, server = cluster_factory(2).nodes
        ours = self.chain([genesis_block()], shared, 4, "a")
        self.adopt(requester, ours)
        self.adopt(server, self.chain(ours, 2, 4, "b"))
        reply, conn = self.reply_to(requester, server)
        assert decode_envelope(reply).payload["after"] == shared

        # before the reply lands, a heavier two-block chain replaces ours
        heavier = self.chain([genesis_block()], 2, 10, "c")
        self.adopt(requester, heavier)
        assert requester.on_message(conn, reply) == "ignored"
        assert [link.conn for link in requester.connected()] == [conn]
        assert requester.store.get_all_blocks() == heavier
        assert requester.rejects_by_reason == {}


class TestDurability:
    def test_restart_reproduces_tip_and_chain(self, store_path):
        core, queue = make_node(store=BlockStore(store_path))
        submit_and_run(core, queue, {"kind": "deploy", "contract": COUNTER})
        submit_and_run(core, queue, {"kind": "call", "contract_id": COUNTER_ID,
                                     "args": [5]})
        chain_before = core.store.get_all_blocks()
        tip_before = core.store.tip().hash
        state_before = core.store.all_state()
        core.store.close()

        reopened, _queue = make_node(store=BlockStore(store_path))
        assert reopened.store.tip().hash == tip_before
        assert reopened.store.get_all_blocks() == chain_before
        assert reopened.store.all_state() == state_before

    def test_block_and_state_commit_together(self, store_path, monkeypatch):
        class StoreDown(Exception):
            pass

        core, queue = make_node(store=BlockStore(store_path))
        submit_and_run(core, queue, {"kind": "deploy", "contract": COUNTER})
        submit_and_run(core, queue, {"kind": "call", "contract_id": COUNTER_ID,
                                     "args": [5]})
        audit = BlockStore(store_path)
        info_before, state_before = audit.chain_info(), audit.all_state()

        def put_state(*_args):
            raise StoreDown()

        monkeypatch.setattr(core.store, "put_state", put_state)
        core.submit_tx({"kind": "call", "contract_id": COUNTER_ID, "args": [7]}, lambda _: None)
        with pytest.raises(StoreDown):
            queue.run()
        # a block is never durable without the state its payload wrote
        assert audit.chain_info() == info_before
        assert audit.all_state() == state_before
        audit.close()


class TestOversizedFrame:
    def test_send_over_frame_cap_keeps_link_and_block_commits(self):
        from powdb.wire import ProtocolError

        core, queue = make_node()

        class CappedConn:
            reliable = False

            def send_message(self, raw):
                raise ProtocolError("frame exceeds the 16 MiB cap")

            def close(self):
                pass

        conn = CappedConn()
        core.on_inbound_connection(conn)
        # the link opens, though the node's reply is refused too
        assert core.on_message(conn, PeerEnd(core, PEER, conn).opening().encode()) == "handled"
        [link] = core.connected()
        assert link.conn is conn
        assert core._send_raw(link, core.frame(link, "QUERY", {})) is False
        result = submit_and_run(core, queue, {"kind": "raw", "data": "big"})
        assert result["ok"] is True
        assert core.store.get_block_count() == 2
        assert core.connected() == [link]


class TestOversizedResponse:
    def test_answer_over_the_frame_cap_becomes_a_small_error(self, monkeypatch):
        core, queue = make_node()
        for data in ("one", "two"):
            submit_and_run(core, queue, {"kind": "raw", "data": data})

        class CappedConn(Capture):
            def send_message(self, raw):
                wire.check_frame_size(raw)
                super().send_message(raw)

        # a cap the chain's answer, 883 bytes, is over and a block's, 409, under
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 750)
        conn = CappedConn()
        from_peer(core, conn, wire.QUERY, {"what": "chain", "params": {}})
        assert len(conn.sent) == 1
        response = decode_envelope(conn.sent[0])
        assert response.kind == wire.RESPONSE
        assert response.payload["ok"] is False
        assert response.payload["what"] == "chain"
        assert "exceeds the 16 MiB cap" in response.payload["error"]
        from_peer(core, conn, wire.QUERY, {"what": "block", "params": {"index": 1}})
        assert decode_envelope(conn.sent[1]).payload["ok"] is True
        # a TX rejection that echoes its kind: the same small error, not silence
        conn = CappedConn()
        from_peer(core, conn, wire.TX, {"tx": {"kind": "k" * 1000}})
        [raw] = conn.sent
        response = decode_envelope(raw)
        assert response.kind == wire.RESPONSE
        assert response.payload["ok"] is False
        assert response.payload["what"] == "tx"
        assert "exceeds the 16 MiB cap" in response.payload["error"]

    @pytest.mark.parametrize("what", ["w" * 600, ["x"] * 200], ids=["long-string", "list"])
    def test_small_error_fits_when_what_fills_the_frame(self, monkeypatch, what):
        """A query whose `what` alone fills most of a frame gets the small
        error too: it echoes no `what`, so it is under the cap and is sent."""
        core, _queue = make_node()
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 900)
        conn = Capture()
        from_peer(core, conn, wire.QUERY, {"what": what, "params": {}})
        [raw] = conn.sent
        wire.check_frame_size(raw)  # a connection would drop it otherwise
        response = decode_envelope(raw)
        assert response.kind == wire.RESPONSE
        assert response.payload["ok"] is False
        assert response.payload["what"] is None
        assert "exceeds the 16 MiB cap" in response.payload["error"]


class TestQueries:
    def test_stats_on_fresh_node(self):
        core, _queue = make_node()
        response = core.handle_query("stats", {})
        assert response["ok"] is True
        stats = response["result"]
        assert stats["count"] == 1
        assert stats["peer_count"] == 0
        assert stats["cache"] == {"hits": 0, "misses": 0, "compiles": 0}

    def test_state_query_never_written_key(self):
        core, _queue = make_node()
        response = core.handle_query("state", {"contract_id": "a" * 64, "key": "x"})
        assert response == {"ok": False, "what": "state", "error": "not-found"}

    def test_chain_query_matches_count(self):
        core, queue = make_node()
        submit_and_run(core, queue, {"kind": "raw", "data": "one"})
        response = core.handle_query("chain", {})
        assert len(response["result"]["blocks"]) == core.store.get_block_count()

    def test_block_query(self):
        core, queue = make_node()
        submit_and_run(core, queue, {"kind": "raw", "data": "one"})
        ok = core.handle_query("block", {"index": 1})
        assert ok["ok"] and ok["result"]["block"]["index"] == 1
        missing = core.handle_query("block", {"index": 9})
        assert missing == {"ok": False, "what": "block", "error": "not-found"}

    def test_unknown_what(self):
        core, _queue = make_node()
        response = core.handle_query("everything", {})
        assert response["ok"] is False

    def test_response_echoes_what(self):
        core, _queue = make_node()
        for what in ("chain", "block", "state", "stats", "bogus"):
            response = core.handle_query(what, {})
            assert response["what"] == what


class TestMiningContention:
    def test_competing_submissions_both_commit(self, cluster_factory):
        cluster = cluster_factory(2)
        cluster.connect(0, 1)
        cluster.pump()
        replies = []
        # both nodes start mining the same height at the same instant
        cluster.nodes[0].submit_tx({"kind": "raw", "data": "from-a"}, replies.append)
        cluster.nodes[1].submit_tx({"kind": "raw", "data": "from-b"}, replies.append)
        cluster.pump()
        assert len(replies) == 2
        outcomes = sorted(r["ok"] for r in replies)
        heads = cluster.heads()
        assert heads[0] == heads[1]
        count = cluster.nodes[0].store.get_block_count()
        committed = sum(1 for r in replies if r["ok"])
        # loser retried on the new tip; both landed unless the retry lost again
        assert count == 1 + committed
        assert committed >= 1


class HandMiner:
    """A miner whose jobs end only when the test calls their `done`."""

    class Job:
        def __init__(self, block, done):
            self.block, self.done = block, done
            self.cancelled = False

        def cancel(self):
            self.cancelled = True

    def __init__(self):
        self.jobs = []

    def start(self, block, done):
        self.jobs.append(self.Job(block, done))
        return self.jobs[-1]


class TestMiningRetry:
    """A transaction whose block loses is mined once more, then fails retriable."""

    @staticmethod
    def peer_block(core, data):
        tip = core.store.tip()
        block = mine_block(create_new_block(data, tip, effective_bits(core.difficulty),
                                            tip.timestamp + 1))
        assert from_peer(core, Capture(), wire.NEW_BLOCK,
                         {"block": block_to_json(block)}) == "appended"

    def test_lost_race_retries_once_then_fails(self):
        miner = HandMiner()
        core, _queue = make_node(miner=miner)

        def pending():
            return core.handle_query("stats", {})["result"]["pending_txs"]

        a, b = [], []
        core.submit_tx({"kind": "raw", "data": "a"}, a.append)
        core.submit_tx({"kind": "raw", "data": "b"}, b.append)
        assert pending() == 2
        assert [job.block.index for job in miner.jobs] == [1]

        first = miner.jobs[0]
        self.peer_block(core, "peer-1")
        assert first.cancelled
        first.done(None)
        assert [job.block.index for job in miner.jobs] == [1, 2]  # `a` again, on the new tip
        assert a == [] and pending() == 2

        self.peer_block(core, "peer-2")
        assert miner.jobs[1].cancelled
        miner.jobs[1].done(None)
        assert a == [{"ok": False, "what": "tx",
                      "error": "retriable: competing blocks kept winning"}]
        assert pending() == 1

        job = miner.jobs[2]
        assert job.block.index == 3
        job.done(mine_block(job.block))
        assert b[0]["ok"] is True and b[0]["result"]["block_index"] == 3
        assert pending() == 0

        before = (core.store.chain_info(), list(a), list(b), len(miner.jobs))
        first.done(mine_block(first.block))  # late completion of the first job
        assert (core.store.chain_info(), a, b, len(miner.jobs)) == before


class TestLoopMiner:
    """The live node's miner: one loop call per window of nonces, and the
    result as a call of its own, run here by draining the submitted calls."""

    # about 16 windows a block, so a search spans several calls
    PARAMS = ChainParams(initial_difficulty=13, min_difficulty=13, max_difficulty=13)

    @pytest.fixture
    def loop(self, monkeypatch):
        calls, windows = [], []
        real = node_module.mine_block

        def mine_window(block, start=0, count=None):
            windows.append((block.prev_hash, start, count))
            return real(block, start, count)

        monkeypatch.setattr(node_module, "mine_block", mine_window)
        core, _queue = make_node(params=self.PARAMS,
                                 miner=node_module.LoopMiner(calls.append))
        return core, calls, windows

    def test_each_call_searches_one_window_and_the_result_is_its_own_call(self, loop):
        core, calls, windows = loop
        replies = []
        core.submit_tx({"kind": "raw", "data": "loop"}, replies.append)
        assert windows == [] and len(calls) == 1  # the search waits for the loop
        searched = []  # per call, whether it searched
        while calls:
            before = len(windows)
            calls.pop(0)()
            assert len(windows) - before <= 1
            searched.append(len(windows) > before)
            if replies:
                assert calls == []
        # every call but the last searched a window; the last only committed
        assert searched == [True] * (len(searched) - 1) + [False]
        assert len(windows) >= 2
        window = node_module.CANCEL_CHECK_INTERVAL
        assert windows == [(genesis_block().hash, i * window, window)
                           for i in range(len(windows))]
        tip = core.store.tip()
        assert windows[-1][1] <= tip.nonce < windows[-1][1] + window
        assert replies == [{"ok": True, "what": "tx",
                            "result": {"block_index": 1, "block_hash": tip.hash}}]

    def test_competing_block_ends_the_search_and_the_task_is_mined_again(self, loop):
        core, calls, windows = loop
        replies = []
        core.submit_tx({"kind": "raw", "data": "loop"}, replies.append)
        calls.pop(0)()
        assert len(windows) == 1 and len(calls) == 1  # a miss: the next window waits
        peer = mine_block(create_new_block("peer", genesis_block(), 13, 1))
        assert from_peer(core, Capture(), wire.NEW_BLOCK,
                         {"block": block_to_json(peer)}) == "appended"
        calls.pop(0)()  # the next window hands back None and searches nothing
        assert len(windows) == 1 and replies == []
        assert core.store.tip() == peer
        while calls:
            calls.pop(0)()
        assert {prev for prev, _start, _count in windows[1:]} == {peer.hash}
        assert windows[1][1] == 0
        assert replies[0]["ok"] is True and replies[0]["result"]["block_index"] == 2
        assert core.store.get_block(2).prev_hash == peer.hash


class TestTcpRuntime:
    def wait_until(self, predicate, timeout=30.0, interval=0.05):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(interval)
        return False

    @staticmethod
    def linked(*runtimes):
        """Whether each runtime has one established link, read on its loop."""
        return all(on_loop(r, lambda r=r: len(r.core.connected())) == 1 for r in runtimes)

    def test_two_process_loopback(self, tmp_path):
        from powdb.cli import client_request

        params = ChainParams(target_block_interval_ms=2000, initial_difficulty=6,
                             min_difficulty=4, max_difficulty=10)
        a = NodeRuntime(NodeConfig(listen_addr="127.0.0.1:0",
                                   db_path=str(tmp_path / "a.db"),
                                   key_path=str(tmp_path / "a.key"), params=params))
        a.start()
        b = NodeRuntime(NodeConfig(listen_addr="127.0.0.1:0", peers=[a.listen_addr],
                                   db_path=str(tmp_path / "b.db"),
                                   key_path=str(tmp_path / "b.key"), params=params))
        b.start()
        try:
            assert self.wait_until(lambda: self.linked(a, b)), "an established link on each side"

            result = client_request(b.listen_addr, "TX",
                                    {"tx": {"kind": "raw", "data": "over-tcp"}})
            assert result["ok"] is True
            index = result["result"]["block_index"]

            assert self.wait_until(
                lambda: on_loop(a, lambda: a.core.store.get_block_count()) == index + 1), \
                "replication to a"
            assert on_loop(a, lambda: a.core.store.get_block(index).hash) == \
                result["result"]["block_hash"]

            stats = client_request(a.listen_addr, "QUERY",
                                   {"what": "stats", "params": {}})
            assert stats["result"]["count"] == index + 1
        finally:
            a.stop()
            b.stop()

    def test_stop_closes_links_and_ends_threads(self, tmp_path):
        a = NodeRuntime(NodeConfig(listen_addr="127.0.0.1:0", db_path=str(tmp_path / "a.db"),
                                   mine_enabled=False))
        a.start()
        b = NodeRuntime(NodeConfig(listen_addr="127.0.0.1:0", peers=[a.listen_addr],
                                   db_path=str(tmp_path / "b.db"), mine_enabled=False))
        b.start()
        try:
            assert self.wait_until(lambda: self.linked(a, b)), "an established link on each side"
            threads = [t for runtime in (a, b) for t in runtime.transport._threads]
            assert [t.name for t in threads] == ["node-loop", "node-loop"]
            a.stop()
            assert self.wait_until(lambda: on_loop(b, lambda: b.core.connected()) == [],
                                   timeout=2.0), "the peer saw the link close"
        finally:
            a.stop()
            b.stop()
        for thread in threads:
            thread.join(timeout=2.0)
        assert [t.name for t in threads if t.is_alive()] == []

    def test_stop_waits_for_a_loop_call_that_runs_past_two_seconds(self, tmp_path,
                                                                   monkeypatch):
        runtime = NodeRuntime(NodeConfig(listen_addr="127.0.0.1:0",
                                         db_path=str(tmp_path / "n.db"), mine_enabled=False))
        raised, closes = [], []
        monkeypatch.setattr(threading, "excepthook", raised.append)
        close = runtime.store.close
        monkeypatch.setattr(runtime.store, "close", lambda: (closes.append(1), close()))
        busy, done = threading.Event(), threading.Event()

        def long_call():  # as a deploy's compile at intake holds the loop
            busy.set()
            time.sleep(2.5)
            done.set()

        runtime.start()
        runtime.submit(long_call)
        assert busy.wait(timeout=5)
        runtime.stop()
        assert done.is_set()
        assert not any(thread.is_alive() for thread in runtime.transport._threads)
        assert raised == [] and closes == [1]
        runtime.stop()
        assert closes == [1]

    def test_configured_peer_is_dialed_again_until_it_answers(self, tmp_path, monkeypatch,
                                                              caplog):
        # a short tick keeps the backoff's waits short
        monkeypatch.setattr(transport_module, "TICK_S", 0.05)
        monkeypatch.setattr(node_module, "TICK_S", 0.05)
        with socket.socket() as probe:  # a free port nothing listens on yet
            probe.bind(("127.0.0.1", 0))
            a_addr = "127.0.0.1:%d" % probe.getsockname()[1]
        params = ChainParams(initial_difficulty=6, min_difficulty=4, max_difficulty=10)
        b = NodeRuntime(NodeConfig(listen_addr="127.0.0.1:0", peers=[a_addr], params=params,
                                   db_path=str(tmp_path / "b.db"), mine_enabled=False))
        a = None
        b.start()
        try:
            assert self.wait_until(lambda: "cannot dial peer" in caplog.text, timeout=5)
            a = NodeRuntime(NodeConfig(listen_addr=a_addr, params=params,
                                       db_path=str(tmp_path / "a.db"), mine_enabled=False))
            chain = extend([genesis_block()], ["a0", "a1"], params.min_difficulty)
            assert a.core.adopt_if_heavier(0, chain[1:]) == "adopted"
            a.start()
            assert self.wait_until(lambda: on_loop(b, lambda: b.core.store.tip()) == chain[-1],
                                   timeout=10), "b linked up and pulled a's chain"

            # a drops the link, then grows while no link carries its gossip
            longer = extend(chain, ["a2", "a3"], params.min_difficulty)

            def drop_then_grow():
                for link in a.core.connected():
                    a.core._drop_conn(link.conn)
                a.core.adopt_if_heavier(2, longer[3:])

            a.submit(drop_then_grow)
            assert self.wait_until(lambda: on_loop(b, lambda: b.core.store.tip()) == longer[-1],
                                   timeout=10), "b dialed again and pulled the new tip"
            assert self.wait_until(lambda: self.linked(a), timeout=5)
        finally:
            b.stop()
            if a is not None:
                a.stop()

    def test_tick_syncs_a_block_the_push_missed(self, tmp_path, monkeypatch):
        # a's blocks are not pushed, as a false holder list would keep them
        # from b; b's tick sends a locator once RESYNC_MS passes on its link
        monkeypatch.setattr(transport_module, "TICK_S", 0.05)
        monkeypatch.setattr(node_module, "RESYNC_MS", 200)
        params = ChainParams(initial_difficulty=6, min_difficulty=4, max_difficulty=10)
        a = NodeRuntime(NodeConfig(listen_addr="127.0.0.1:0", params=params,
                                   db_path=str(tmp_path / "a.db"), mine_enabled=False))
        a.start()
        b = NodeRuntime(NodeConfig(listen_addr="127.0.0.1:0", peers=[a.listen_addr],
                                   params=params, db_path=str(tmp_path / "b.db"),
                                   mine_enabled=False))
        b.start()
        try:
            assert self.wait_until(lambda: self.linked(a, b)), "an established link on each side"
            assert all(on_loop(r, lambda r=r: all(link.conn.reliable
                                                  for link in r.core.connected()))
                       for r in (a, b))
            chain = extend([genesis_block()], ["unpushed"], params.min_difficulty)

            def grow_unpushed():
                a.core.broadcast_block = lambda *args: 0
                assert a.core.adopt_if_heavier(0, chain[1:]) == "adopted"

            a.submit(grow_unpushed)
            assert self.wait_until(lambda: on_loop(b, lambda: b.core.store.tip()) == chain[-1],
                                   timeout=10), "b's tick pulled a's tip"
        finally:
            b.stop()
            a.stop()

    @staticmethod
    def request(sock, kind, payload, step=None):
        """Send one signed request, `step` bytes at a time, and read the answer."""
        data = wire.frame(sign_envelope(kind, 1, payload, PEER).encode())
        step = step or len(data)
        for i in range(0, len(data), step):
            sock.sendall(data[i:i + step])
        return decode_envelope(wire.deframe(wire.socket_read_exact(sock)))

    @pytest.fixture
    def runtime(self, tmp_path):
        runtime = NodeRuntime(NodeConfig(listen_addr="127.0.0.1:0",
                                         db_path=str(tmp_path / "n.db"), mine_enabled=False))
        runtime.start()
        yield runtime
        runtime.stop()

    def client(self, runtime):
        return socket.create_connection(parse_hostport(runtime.listen_addr), timeout=5)

    def stats(self, runtime):
        with self.client(runtime) as sock:
            return self.request(sock, wire.QUERY, {"what": "stats"}).payload

    def test_mining_starts_no_thread_and_queries_are_served(self, tmp_path):
        # at 32 bits the put is still mining when the node stops
        params = ChainParams(initial_difficulty=32, min_difficulty=32, max_difficulty=32)
        runtime = NodeRuntime(NodeConfig(listen_addr="127.0.0.1:0", params=params,
                                         db_path=str(tmp_path / "n.db")))
        before = set(threading.enumerate())
        runtime.start()
        try:
            with self.client(runtime) as writer:
                put = sign_envelope(wire.TX, 1, {"tx": {"kind": "raw", "data": "put"}}, PEER)
                writer.sendall(wire.frame(put.encode()))
                assert self.wait_until(lambda: self.stats(runtime)["result"]["pending_txs"] == 1,
                                       timeout=5)
                assert self.stats(runtime)["result"]["count"] == 1
                started = [t.name for t in threading.enumerate() if t not in before]
                assert started == ["node-loop"]
        finally:
            stopping = time.monotonic()
            runtime.stop()
        assert time.monotonic() - stopping < 2.0
        assert not any(thread.is_alive() for thread in runtime.transport._threads)

    def test_idle_clients_start_no_threads(self, runtime):
        threads = threading.active_count()
        clients = [self.client(runtime) for _ in range(16)]
        try:
            assert self.wait_until(lambda: on_loop(runtime, lambda: len(runtime.core._links))
                                   == 16, timeout=5)
            assert threading.active_count() == threads
            assert self.stats(runtime)["ok"] is True
        finally:
            for sock in clients:
                sock.close()

    def test_request_sent_one_byte_at_a_time_is_answered(self, runtime):
        with self.client(runtime) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            answer = self.request(sock, wire.QUERY, {"what": "stats"}, step=1)
        assert answer.kind == wire.RESPONSE and answer.payload["ok"] is True

    def test_oversized_frame_drops_only_that_client(self, runtime):
        with self.client(runtime) as sock:
            sock.sendall((wire.MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            assert sock.recv(1) == b""  # closed before any body arrives
            assert self.stats(runtime)["ok"] is True

    def test_dropped_link_leaves_the_selector_before_its_fd_is_reused(self, runtime):
        for _ in range(10):
            with self.client(runtime) as sock:
                # a first GET_BLOCKS without a locator drops the link
                sock.sendall(wire.frame(
                    sign_envelope(wire.GET_BLOCKS, 1, {"x": 1}, PEER).encode()))
                assert sock.recv(1) == b""
            assert self.stats(runtime)["ok"] is True

    def test_link_without_the_handshake_carries_requests_but_no_blocks(self, runtime):
        # a client never runs the handshake: its signed requests are
        # answered, signed, and a block it sends is ignored unread
        block = mine_block(create_new_block("unkeyed", genesis_block(), 8, 1))
        with self.client(runtime) as sock:
            sock.sendall(wire.frame(sign_envelope(
                wire.NEW_BLOCK, 1, {"block": block_to_json(block)}, PEER).encode()))
            answer = self.request(sock, wire.TX, {"tx": {"kind": "raw", "data": "x"}})
            assert answer.payload["error"] == "mining disabled on this node"
            stats = self.request(sock, wire.QUERY, {"what": "stats"})
        assert answer.counter is None and wire.verify_envelope(answer)
        assert stats.counter is None and wire.verify_envelope(stats)
        assert stats.payload["result"]["count"] == 1
        assert stats.payload["result"]["rejected_invalid_blocks"] == 0

    def test_restart_preserves_tip_over_tcp(self, tmp_path):
        from powdb.cli import client_request

        params = ChainParams(initial_difficulty=6, min_difficulty=4, max_difficulty=10)
        config = NodeConfig(listen_addr="127.0.0.1:0", db_path=str(tmp_path / "n.db"),
                            key_path=str(tmp_path / "n.key"), params=params)
        runtime = NodeRuntime(config)
        node_id = runtime.core.identity.node_id
        runtime.start()
        result = client_request(runtime.listen_addr, "TX",
                                {"tx": {"kind": "raw", "data": "persist-me"}})
        tip = result["result"]["block_hash"]
        runtime.stop()

        again = NodeRuntime(config)
        try:
            assert again.core.store.tip().hash == tip
            assert again.core.identity.node_id == node_id  # key file reused
        finally:
            again.stop()

    def test_busy_listen_addr_raises_network_error(self, tmp_path):
        from powdb.node import NetworkStartupError

        first = NodeRuntime(NodeConfig(listen_addr="127.0.0.1:0",
                                       db_path=str(tmp_path / "x.db")))
        try:
            with pytest.raises(NetworkStartupError):
                NodeRuntime(NodeConfig(listen_addr=first.listen_addr,
                                       db_path=str(tmp_path / "y.db")))
        finally:
            first.stop()

    def test_unusable_db_path_raises_store_error(self, tmp_path):
        from powdb.store import StoreError

        with pytest.raises(StoreError):
            NodeRuntime(NodeConfig(listen_addr="127.0.0.1:0",
                                   db_path=str(tmp_path / "missing" / "nested" / "n.db")))
