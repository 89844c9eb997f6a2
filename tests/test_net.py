"""Peer management, handshake, block gossip and chain synchronization."""

import gc
import json
import socket
import sys
import threading
import warnings

import pytest

from powdb import node as node_module
from powdb import wire
from powdb.chain import block_to_json, genesis_block
from powdb.consensus import create_new_block, mine_block
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
        env = sign_envelope(wire.HELLO, 1,
                            {"listen_addr": "mem:9", "node_id": rogue.node_id}, rogue)
        tampered = MessageEnvelope(env.sender, env.kind, env.timestamp,
                                   {"listen_addr": "mem:8", "node_id": rogue.node_id},
                                   env.signature)

        class FakeConn:
            def send_message(self, _raw):
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

    def hello(self, node_id):
        return sign_envelope(wire.HELLO, 1, {"listen_addr": "mem:9", "node_id": node_id},
                             self.PEER)

    def on_disconnect(self, cluster, node, conn):
        node.on_disconnect(conn)

    def send_failure(self, cluster, node, conn):
        conn.broken = True
        # the node answers with BLOCKS, and that send fails
        node.on_envelope(conn, sign_envelope(wire.GET_BLOCKS, 1, {}, self.PEER))

    def bad_hello(self, cluster, node, conn):
        node.on_envelope(conn, self.hello("00" * 32))

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
            node.on_envelope(conn, self.hello(self.PEER.node_id))
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
                f"{prefix}-{i}", tip, core.dstate.effective_bits(), 100 + i))
            core._commit_block(block, tip)

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

    def test_get_blocks_with_empty_payload_serves_full_chain(self, cluster_factory):
        cluster = cluster_factory(2)
        a, b = cluster.nodes
        self.grow(a, 2, "a")

        sent = []

        class Capture:
            def send_message(self, raw):
                sent.append(raw)

        env = sign_envelope(wire.GET_BLOCKS, 1, {}, b.identity)
        a.on_envelope(Capture(), env)
        assert len(sent) == 1
        reply = json.loads(sent[0])
        assert reply["kind"] == "BLOCKS"
        blocks = reply["payload"]["blocks"]
        assert len(blocks) == 3
        assert blocks[0]["index"] == 0

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
        difficulties = {core.dstate.d_current for core in cluster.nodes}
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


class TestTcpTransport:
    def test_finished_reader_threads_are_pruned(self):
        received = threading.Semaphore(0)
        transport = TcpTransport(on_connection=lambda conn: None,
                                 on_message=lambda conn, raw: received.release(),
                                 on_disconnect=lambda conn: None)
        addr = parse_hostport(transport.listen("127.0.0.1:0"))
        try:
            for _ in range(20):
                with socket.create_connection(addr, timeout=5) as client:
                    client.sendall(wire.frame(b"hello"))
                    assert received.acquire(timeout=5)
                    readers = [t for t in transport._threads
                               if t.name.startswith("reader:")]
                    live = sum(t.is_alive() for t in readers)
                    assert len(transport._threads) <= live + 1  # + the accept loop
                for thread in readers:
                    thread.join(timeout=5)
                    assert not thread.is_alive()
        finally:
            transport.stop()

    def test_failed_listen_closes_its_socket(self):
        def quiet():
            return TcpTransport(on_connection=lambda conn: None,
                                on_message=lambda conn, raw: None,
                                on_disconnect=lambda conn: None)

        holder, second = quiet(), quiet()
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

    def test_concurrent_dials_and_accepts_track_every_thread(self):
        received = threading.Semaphore(0)
        transport = TcpTransport(on_connection=lambda conn: None,
                                 on_message=lambda conn, raw: received.release(),
                                 on_disconnect=lambda conn: None)
        addr = transport.listen("127.0.0.1:0")
        conns = []

        def dial_some():
            for _ in range(5):
                conn = transport.dial(addr)
                conn.send_message(b"hello")
                conns.append(conn)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            dialers = [threading.Thread(target=dial_some) for _ in range(4)]
            for thread in dialers:
                thread.start()
            for thread in dialers:
                thread.join(timeout=10)
                assert not thread.is_alive()
            for _ in range(20):
                assert received.acquire(timeout=5)
            # each connection has a reader on both ends, all still running
            assert sum(t.is_alive() for t in transport._threads) == 2 * 20 + 1
        finally:
            sys.setswitchinterval(interval)
            for conn in conns:
                conn.close()
            transport.stop()
