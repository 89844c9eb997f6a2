"""Peer management, handshake, block gossip and chain synchronization."""

import gc
import json
import socket
import queue
import sys
import threading
import time
import warnings

import pytest

from powdb import node as node_module
from powdb import wire
from powdb.chain import block_to_json, genesis_block
from powdb.consensus import create_new_block, effective_bits, mine_block, replay_difficulty
from powdb.contracts import contract_id_for
from powdb.net import RecentSet
from powdb.transport import TcpTransport, parse_hostport
from powdb.wire import MessageEnvelope, NodeIdentity, sign_envelope


class TestRecentSet:
    def test_dedup(self):
        seen = RecentSet(capacity=4)
        assert seen.add("a")
        assert not seen.add("a")

    def test_eviction_of_oldest(self):
        seen = RecentSet(capacity=3)
        for key in "abcd":
            seen.add(key)
        assert "a" not in seen
        assert "d" in seen and len(seen) == 3


class TestHandshake:
    def test_two_nodes_record_each_other(self, cluster_factory):
        cluster = cluster_factory(2)
        conn = cluster.connect(0, 1)
        cluster.pump()
        a, b = cluster.nodes
        assert a.connected() == [conn]
        assert b.connected() == [conn.peer]

    def test_bad_signature_hello_adds_no_record(self, cluster_factory):
        cluster = cluster_factory(2)
        target = cluster.nodes[0]
        rogue = NodeIdentity.from_seed(b"\x55" * 32)
        env = sign_envelope(wire.HELLO, 1, {}, rogue)
        tampered = MessageEnvelope(env.sender, env.kind, env.timestamp, {"forged": 1},
                                   env.signature)

        class FakeConn:
            def send_message(self, _raw):
                pass

            def close(self):
                pass

        conn = FakeConn()
        target.on_inbound_connection(conn)
        outcome = target.on_message(conn, tampered.encode())
        assert outcome == "dropped"
        assert target.connected() == []
        assert target.dropped_envelopes == 1

    def test_handshake_timeout_marks_failed(self, cluster_factory):
        cluster = cluster_factory(2)

        class BlackholeConn:
            closed = False

            def send_message(self, _raw):
                pass  # swallow everything: the HELLO never arrives anywhere

            def close(self):
                self.closed = True

        node = cluster.nodes[0]
        conn = BlackholeConn()
        node.connect_peer(conn)
        cluster.queue.now = 10_000
        node.check_timeouts()
        assert id(conn) not in node._links
        assert conn.closed


class TestLinkTeardown:
    """Every way a link ends leaves no per-link state behind."""

    PEER = NodeIdentity.from_seed(b"\x66" * 32)

    class Link:
        def __init__(self):
            self.closed = False
            self.broken = False

        def send_message(self, _raw):
            if self.broken:
                raise ConnectionError("peer went away")

        def close(self):
            self.closed = True

    def hello(self, payload):
        return sign_envelope(wire.HELLO, 1, payload, self.PEER)

    def on_disconnect(self, cluster, node, conn):
        node.on_disconnect(conn)

    def send_failure(self, cluster, node, conn):
        conn.broken = True
        # the node answers with BLOCKS, and that send fails
        locator = {"locator": [[0, genesis_block().hash]]}
        node.on_envelope(conn, sign_envelope(wire.GET_BLOCKS, 1, locator, self.PEER))

    def bad_hello(self, cluster, node, conn):
        node.on_envelope(conn, self.hello({"node_id": self.PEER.node_id}))

    def handshake_timeout(self, cluster, node, conn):
        cluster.queue.now += node_module.HANDSHAKE_TIMEOUT_MS + 1
        node.check_timeouts()

    @pytest.mark.parametrize("teardown", ["on_disconnect", "send_failure", "bad_hello",
                                          "handshake_timeout"])
    def test_no_link_state_survives(self, cluster_factory, teardown):
        cluster = cluster_factory(1)
        node = cluster.nodes[0]
        conn = self.Link()
        node.connect_peer(conn)
        if teardown == "handshake_timeout":
            node.request_sync(conn)  # a sync timer, but no HELLO ever comes back
        else:
            node.on_envelope(conn, self.hello({}))
            assert node.connected() == [conn]
        assert node._links[id(conn)].sync_sent_ms is not None

        getattr(self, teardown)(cluster, node, conn)
        assert id(conn) not in node._links
        assert node.connected() == []
        if teardown in ("bad_hello", "handshake_timeout"):
            assert conn.closed


class TestBroadcast:
    def mesh(self, cluster_factory, n):
        cluster = cluster_factory(n)
        for i in range(n):
            for j in range(i + 1, n):
                cluster.connect(i, j)
        cluster.pump()
        return cluster

    def test_broadcast_reaches_all_connected_peers(self, cluster_factory):
        cluster = self.mesh(cluster_factory, 5)
        node = cluster.nodes[0]
        block = mine_block(create_new_block("x", node.store.tip(), 4, 1))
        assert node.broadcast_block(block) == 4

    def test_second_broadcast_is_noop(self, cluster_factory):
        cluster = self.mesh(cluster_factory, 3)
        node = cluster.nodes[0]
        block = mine_block(create_new_block("x", node.store.tip(), 4, 1))
        assert node.broadcast_block(block) == 2
        assert node.broadcast_block(block) == 0

    def test_one_signature_and_the_same_bytes_for_every_peer(self, cluster_factory,
                                                               monkeypatch):
        cluster = self.mesh(cluster_factory, 5)
        node = cluster.nodes[0]
        signed, delivered = [], []
        real_sign, real_deliver = node_module.sign_envelope, cluster.net.deliver

        def counting_sign(*args):
            signed.append(args[0])
            return real_sign(*args)

        def recording_deliver(src, dst, message):
            delivered.append((dst.local_addr, message))
            real_deliver(src, dst, message)

        monkeypatch.setattr(node_module, "sign_envelope", counting_sign)
        monkeypatch.setattr(cluster.net, "deliver", recording_deliver)
        block = mine_block(create_new_block("x", node.store.tip(), 4, 1))
        assert node.broadcast_block(block) == 4
        assert signed == [wire.NEW_BLOCK]
        assert sorted(addr for addr, _ in delivered) == ["mem:1", "mem:2", "mem:3", "mem:4"]
        assert len({message for _, message in delivered}) == 1
        env = wire.decode_envelope(delivered[0][1])
        assert wire.verify_envelope(env)
        assert env.payload == {"block": block_to_json(block)}

    def test_no_peers_signs_nothing(self, cluster_factory, monkeypatch):
        node = cluster_factory(1).nodes[0]
        monkeypatch.setattr(node_module, "sign_envelope", None)  # any call would fail
        block = mine_block(create_new_block("x", node.store.tip(), 4, 1))
        assert node.broadcast_block(block) == 0

    def test_dead_peer_marked_failed_others_unaffected(self, cluster_factory):
        cluster = self.mesh(cluster_factory, 5)
        node = cluster.nodes[0]
        # break the link to node 3 without telling node 0
        links = {conn.remote_addr: conn for conn in node.connected()}
        links["mem:3"].closed = True
        links["mem:3"].peer.closed = True
        block = mine_block(create_new_block("x", node.store.tip(), 4, 1))
        assert node.broadcast_block(block) == 3
        assert links["mem:3"] not in node.connected()
        assert links["mem:1"] in node.connected()

    def test_block_crosses_the_second_link_after_the_first_closes(self, cluster_factory):
        # both nodes dialed, so two links join the same pair of nodes
        cluster = cluster_factory(2)
        first = cluster.connect(0, 1)
        cluster.connect(1, 0)
        cluster.pump()
        first.close()
        cluster.pump()
        cluster.submit(0, {"kind": "raw", "data": "via the other link"})
        cluster.pump()
        assert cluster.nodes[1].store.get_block_count() == 2


class TestSimFrameCap:
    def test_oversized_send_returns_false_and_keeps_the_link(self, cluster_factory,
                                                              monkeypatch):
        cluster = cluster_factory(2)
        conn = cluster.connect(0, 1)
        cluster.pump()
        node = cluster.nodes[0]
        queued = len(cluster.queue)
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 64)  # every envelope is over it
        with pytest.raises(wire.ProtocolError):
            conn.send_message(b"x" * 65)
        assert node._send(conn, wire.QUERY, {}) is False
        assert len(cluster.queue) == queued  # nothing went on the link
        monkeypatch.undo()
        assert not conn.closed
        assert node.connected() == [conn]
        assert node._send(conn, wire.QUERY, {}) is True


class TestTxSizeLimit:
    """A transaction is refused unless its block, whose data the wire escapes
    once more, fits one frame as NEW_BLOCK and as a BLOCKS page."""

    CAP = 8192

    @staticmethod
    def quotes(n):
        return {"kind": "raw", "data": '"' * n}

    def block_data_bytes(self, n):
        data = node_module.validate_tx_payload(self.quotes(n), lambda _cid: True)
        return len(wire.canonical_json(data))

    def test_tx_whose_block_cannot_leave_is_refused(self, cluster_factory, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", self.CAP)
        cluster = cluster_factory(2)
        a, b = cluster.nodes
        cluster.connect(0, 1)
        cluster.pump()
        tx = self.quotes(3000)
        assert len(sign_envelope(wire.TX, 1, {"tx": tx}, a.identity).encode()) < self.CAP
        results = cluster.submit(0, tx)
        cluster.pump()
        assert results[0]["ok"] is False
        assert "too large" in results[0]["error"]
        assert a.store.get_block_count() == b.store.get_block_count() == 1

    def test_largest_accepted_tx_reaches_peers_by_gossip_and_sync(self, cluster_factory,
                                                                  monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", self.CAP)
        largest = max(n for n in range(self.CAP // 2)  # a quote takes 2+ bytes
                      if self.block_data_bytes(n) <= self.CAP - node_module.BLOCK_ENVELOPE_BYTES)
        cluster = cluster_factory(3)
        a, b, c = cluster.nodes
        cluster.connect(0, 1)
        cluster.pump()
        assert cluster.submit(0, self.quotes(largest + 1))[0]["ok"] is False
        results = cluster.submit(0, self.quotes(largest))
        cluster.pump()
        assert results[0]["ok"] is True
        assert b.store.get_all_blocks() == a.store.get_all_blocks()  # by gossip
        for i in range(3):
            cluster.submit(0, {"kind": "raw", "data": f"after-{i}"})
            cluster.pump()
        cluster.connect(2, 0)  # a fresh node pulls the chain page by page
        cluster.pump()
        assert c.store.get_all_blocks() == a.store.get_all_blocks()
        assert a.store.get_block_count() == 5


class TestHandleNewBlock:
    def envelope_for(self, sender_core, block):
        return sign_envelope(wire.NEW_BLOCK, 1, {"block": block_to_json(block)},
                             sender_core.identity)

    def test_next_index_block_appended_and_relayed(self, cluster_factory):
        # line topology 0-1-2: a block committed at 0 must reach 2 via 1
        cluster = cluster_factory(3)
        cluster.connect(0, 1)
        cluster.connect(1, 2)
        cluster.pump()
        cluster.submit(0, {"kind": "raw", "data": "relayed"})
        cluster.pump()
        heads = cluster.heads()
        assert len(set(heads)) == 1
        assert cluster.nodes[2].store.get_block_count() == 2

    def test_gap_triggers_sync(self, cluster_factory):
        cluster = cluster_factory(2)
        cluster.connect(0, 1)
        cluster.pump()
        a, b = cluster.nodes
        # build a 3-block future privately on a's side and show b only the tip
        tip = a.store.tip()
        blocks = []
        for i in range(3):
            blk = mine_block(create_new_block(f"p{i}", tip, 4, 10 + i))
            blocks.append(blk)
            tip = blk
        [conn] = b.connected()
        outcome = b.handle_new_block(conn, self.envelope_for(a, blocks[-1]))
        assert outcome == "sync_triggered"

    def test_invalid_pow_counted_and_ignored(self, cluster_factory):
        from powdb.chain import block_hash, meets_difficulty
        cluster = cluster_factory(2)
        cluster.connect(0, 1)
        cluster.pump()
        a, b = cluster.nodes
        data = "cheap"
        while True:
            fake = create_new_block(data, b.store.tip(), 8, 9)
            fake = fake.with_hash(block_hash(fake))
            if not meets_difficulty(fake.hash, 8):
                break
            data += "."
        before = b.store.get_block_count()
        [conn] = b.connected()
        outcome = b.handle_new_block(conn, self.envelope_for(a, fake))
        assert outcome == "ignored"
        assert b.rejects_by_reason == {"InsufficientWork": 1}
        assert b.store.get_block_count() == before

    def test_stale_block_ignored(self, cluster_factory):
        cluster = cluster_factory(2)
        cluster.connect(0, 1)
        cluster.pump()
        a, b = cluster.nodes
        env = self.envelope_for(a, genesis_block())
        [conn] = b.connected()
        assert b.handle_new_block(conn, env) == "ignored"
        assert b.rejects_by_reason == {}


class TestSync:
    def grow(self, core, n, prefix):
        """Mine n blocks straight into a node's store (no network)."""
        for i in range(n):
            tip = core.store.tip()
            block = mine_block(create_new_block(
                f"{prefix}-{i}", tip, effective_bits(core.difficulty), 100 + i))
            core._commit(tip, [block])

    def test_shorter_node_adopts_longer_chain(self, cluster_factory):
        cluster = cluster_factory(2)
        a, b = cluster.nodes
        self.grow(a, 2, "a")   # 3 blocks total
        self.grow(b, 4, "b")   # 5 blocks total
        cluster.connect(0, 1)
        cluster.pump()
        assert a.store.get_block_count() == 5
        assert a.store.tip().hash == b.store.tip().hash

    def test_equal_work_keeps_local(self, cluster_factory):
        cluster = cluster_factory(2)
        a, b = cluster.nodes
        self.grow(a, 3, "a")
        self.grow(b, 3, "b")
        a_tip = a.store.tip().hash
        b_tip = b.store.tip().hash
        cluster.connect(0, 1)
        cluster.pump()
        assert a.store.tip().hash == a_tip
        assert b.store.tip().hash == b_tip

    def test_get_blocks_serves_the_suffix_after_the_locator(self, cluster_factory):
        cluster = cluster_factory(2)
        a, b = cluster.nodes
        self.grow(a, 2, "a")
        chain = a.store.get_all_blocks()

        def serve(locator):
            sent = []

            class Capture:
                def send_message(self, raw):
                    sent.append(raw)

            a.on_envelope(Capture(), sign_envelope(wire.GET_BLOCKS, 1,
                                                   {"locator": locator}, b.identity))
            assert len(sent) == 1
            reply = json.loads(sent[0])
            assert reply["kind"] == "BLOCKS"
            return reply["payload"]

        # the highest height whose hash matches picks the fork point
        known = [[2, "f" * 64], [1, chain[1].hash], [0, chain[0].hash]]
        assert serve(known) == {"after": 1, "blocks": [block_to_json(chain[2])],
                                "more": False}
        # a locator of a fresh node gets everything after genesis
        assert serve([[0, chain[0].hash]])["blocks"] == [block_to_json(blk) for blk in chain[1:]]
        # nothing new past a locator that names our tip
        assert serve([[2, chain[2].hash]]) == {"after": 2, "blocks": [], "more": False}

    def test_fresh_node_joins_over_several_pages(self, cluster_factory, monkeypatch):
        # a whole chain over the frame cap reaches a new node one page at a time
        cluster = cluster_factory(2)
        a, b = cluster.nodes
        counter = [["add", "count", 1], ["add", "total", ["arg", 0]]]
        cid = contract_id_for(counter)
        txs = [{"kind": "raw", "data": f"r{i}"} for i in range(30)]
        txs[12] = {"kind": "deploy", "contract": counter}
        txs[20] = {"kind": "call", "contract_id": cid, "args": [7]}
        txs[25] = {"kind": "call", "contract_id": cid, "args": [5]}
        for tx in txs:
            results = cluster.submit(0, tx)
            cluster.pump()
            assert results[0]["ok"]
        assert a.store.get_block_count() == 31

        frames = []
        real_deliver = cluster.net.deliver

        def recording_deliver(src, dst, message):
            frames.append((wire.decode_envelope(message).kind, len(message)))
            real_deliver(src, dst, message)

        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 4096)
        monkeypatch.setattr(cluster.net, "deliver", recording_deliver)
        whole = len(wire.canonical_json([block_to_json(blk) for blk in a.store.get_all_blocks()]))
        assert whole > wire.MAX_FRAME_BYTES
        cluster.connect(1, 0)
        cluster.pump()

        assert b.store.get_all_blocks() == a.store.get_all_blocks()
        assert b.difficulty == a.difficulty == replay_difficulty(b.store.get_all_blocks(),
                                                                 b.params)
        assert b.store.all_state() == a.store.all_state() == {(cid, "count"): 2,
                                                             (cid, "total"): 12}
        pages = [size for kind, size in frames if kind == wire.BLOCKS]
        assert len(pages) >= 5
        assert max(pages) <= wire.MAX_FRAME_BYTES

    def test_ten_node_line_gossip_converges(self, cluster_factory):
        # worst-case connectivity: a 10-node line; a block committed at one
        # end must relay hop by hop to the other, each node forwarding once
        cluster = cluster_factory(10)
        for i in range(9):
            cluster.connect(i, i + 1)
        cluster.pump()
        cluster.submit(0, {"kind": "raw", "data": "end-to-end"})
        cluster.pump()
        heads = cluster.heads()
        assert len(set(heads)) == 1
        assert all(core.store.get_block_count() == 2 for core in cluster.nodes)

    def test_all_nodes_retarget_identically(self, cluster_factory):
        # intervals come from block timestamps, so every node lands on the
        # same difficulty no matter who mined or how blocks arrived
        cluster = cluster_factory(3)
        for i in range(3):
            for j in range(i + 1, 3):
                cluster.connect(i, j)
        cluster.pump()
        for seq in range(6):
            cluster.submit(seq % 3, {"kind": "raw", "data": f"r{seq}"})
            cluster.pump()
        heads = cluster.heads()
        assert len(set(heads)) == 1
        difficulties = {core.difficulty for core in cluster.nodes}
        assert len(difficulties) == 1

    def test_rebroadcast_after_adoption_propagates(self, cluster_factory):
        # line 0-1-2; node 0 has the long chain, 2 must learn it through 1
        cluster = cluster_factory(3)
        a, b, c = cluster.nodes
        self.grow(a, 4, "deep")
        cluster.connect(0, 1)
        cluster.pump()
        assert b.store.get_block_count() == 5
        cluster.connect(1, 2)
        cluster.pump()
        assert c.store.get_block_count() == 5
        assert len(set(cluster.heads())) == 1


class Recorder:
    """A TcpTransport owner that records every event; the loop thread calls it."""

    def __init__(self):
        self.events = queue.Queue()  # (name, conn, raw)

    def on_inbound_connection(self, conn):
        self.events.put(("inbound", conn, None))

    def on_message(self, conn, raw):
        self.events.put(("message", conn, raw))

    def on_disconnect(self, conn):
        self.events.put(("disconnect", conn, None))

    def next(self, name):
        """The next event, which must be `name`."""
        event = self.events.get(timeout=5)
        assert event[0] == name, event
        return event


def started(owner):
    transport = TcpTransport(owner)
    addr = transport.listen("127.0.0.1:0")
    transport.start(tick=lambda: None)
    return transport, addr


class TestTcpTransport:
    def test_connections_start_no_threads(self):
        owner = Recorder()
        transport, addr = started(owner)
        threads = threading.active_count()
        try:
            for i in range(20):
                with socket.create_connection(parse_hostport(addr), timeout=5) as client:
                    client.sendall(wire.frame(b"hello %d" % i))
                    _, conn, _ = owner.next("inbound")
                    assert owner.next("message") == ("message", conn, b"hello %d" % i)
                    assert threading.active_count() == threads
                assert owner.next("disconnect")[1] is conn and conn.closed
            assert [t.name for t in transport._threads] == ["node-loop"]
        finally:
            transport.stop()
        assert not transport._threads[0].is_alive()

    def test_failed_listen_closes_its_socket(self):
        holder, second = TcpTransport(Recorder()), TcpTransport(Recorder())
        addr = holder.listen("127.0.0.1:0")
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    second.listen(addr)
                except OSError:
                    pass
                else:
                    raise AssertionError("listening on a busy address succeeded")
                gc.collect()
        finally:
            second.stop()
            holder.stop()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_dials_from_many_threads_run_on_the_loop(self):
        owner = Recorder()
        transport, addr = started(owner)
        threads = threading.active_count()
        dialed = queue.Queue()

        def dial_and_send():
            conn = transport.dial(addr)
            dialed.put((threading.current_thread().name, conn))
            conn.send_message(b"hello")

        def dial_some():
            for _ in range(5):
                transport.submit(dial_and_send)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            dialers = [threading.Thread(target=dial_some) for _ in range(4)]
            for thread in dialers:
                thread.start()
            for thread in dialers:
                thread.join(timeout=10)
                assert not thread.is_alive()
            events = [owner.events.get(timeout=5)[0] for _ in range(40)]
            assert sorted(events) == ["inbound"] * 20 + ["message"] * 20
            assert {dialed.get(timeout=5)[0] for _ in range(20)} == {"node-loop"}
            assert threading.active_count() == threads
        finally:
            sys.setswitchinterval(interval)
            transport.stop()

    def test_input_that_arrives_first_is_served_before_a_later_call(self):
        # While A's handler runs, it queues a call C and message B arrives.
        # B arrived before the loop polled again, so B comes before C.
        order = []
        done = threading.Event()

        class Owner(Recorder):
            def on_message(self, conn, raw):
                order.append(raw)
                if raw == b"A":
                    transport.submit(lambda: (order.append(b"C"), done.set()))
                    client.sendall(wire.frame(b"B"))
                    time.sleep(0.2)  # B is in the socket's buffer before A's handler ends

        transport, addr = started(Owner())
        try:
            with socket.create_connection(parse_hostport(addr), timeout=5) as client:
                client.sendall(wire.frame(b"A"))
                assert done.wait(timeout=5)
        finally:
            transport.stop()
        assert order == [b"A", b"B", b"C"]
