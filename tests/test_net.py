"""Peer management, handshake, block gossip and chain synchronization."""

import dataclasses
import gc
import hashlib
import socket
import queue
import random
import selectors
import sys
import threading
import time
import warnings
from collections import Counter

import pytest

from powdb import chain as chain_module
from powdb import consensus
from powdb import node as node_module
from powdb import wire
from powdb.chain import (
    MAX_BLOCK_INT,
    MAX_DIFFICULTY_BITS,
    Block,
    block_to_json,
    cumulative_work,
    genesis_block,
)
from powdb.consensus import create_new_block, effective_bits, mine_block, replay_difficulty
from powdb.contracts import contract_id_for
from powdb.net import RecentSet
from powdb.node import NodeCore
from powdb.simnet import MemNetwork
from powdb.store import BlockStore
from powdb.transport import TcpConnection, TcpTransport, parse_hostport
from powdb.wire import KeyShare, NodeIdentity, decode_envelope, sign_envelope

from conftest import TEST_PARAMS, Capture, PeerEnd, extend


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
        assert [link.conn for link in a.connected()] == [conn]
        assert [link.conn for link in b.connected()] == [conn.peer]

    def test_bad_signature_request_adds_no_record(self, cluster_factory):
        cluster = cluster_factory(2)
        target = cluster.nodes[0]
        rogue = NodeIdentity.from_seed(b"\x55" * 32)
        env = sign_envelope(wire.GET_BLOCKS, 1, {"locator": [[0, genesis_block().hash]]}, rogue)
        tampered = env.encode().replace(env.body, b'{"forged":1}')

        class FakeConn:
            def send_message(self, _raw):
                pass

            def close(self):
                pass

        conn = FakeConn()
        target.on_inbound_connection(conn)
        outcome = target.on_message(conn, tampered)
        assert outcome == "dropped"
        assert target.connected() == []
        assert target.dropped_envelopes == 1

    def test_handshake_timeout_marks_failed(self, cluster_factory):
        cluster = cluster_factory(2)

        class BlackholeConn:
            closed = False

            def send_message(self, _raw):
                pass  # swallow everything: the request never arrives anywhere

            def close(self):
                self.closed = True

        node = cluster.nodes[0]
        conn = BlackholeConn()
        node.connect_peer(conn)
        cluster.queue.now = 10_000
        node.tick()
        assert id(conn) not in node._links
        assert conn.closed


class TestRedial:
    """A node dials its configured peers from its own tick, through the dial
    its runtime gives it."""

    @pytest.fixture
    def make_node(self):
        made = []

        def make(peers, refused=()):
            dialed = []

            def dial(addr):
                dialed.append(addr)
                return None if addr in refused else Capture()

            core = NodeCore(identity=NodeIdentity.from_seed(b"\x31" * 32),
                            store=BlockStore(":memory:"), params=TEST_PARAMS,
                            clock=lambda: 0, miner=None, peers=peers, dial=dial)
            made.append(core)
            return core, dialed

        yield make
        for core in made:
            core.close()
            core.store.close()

    def test_tick_dials_each_peer_that_is_unset_or_closed(self, make_node):
        node, dialed = make_node(["a:1", "b:2", "c:3"])
        node.tick()
        assert dialed == ["a:1", "b:2", "c:3"]
        for conn in node.peers.values():
            opening = decode_envelope(conn.sent[0])  # each dial opens a link
            assert opening.kind == wire.GET_BLOCKS and "key" in opening.payload
        closed = node.peers["b:2"]
        closed.close()
        node.on_disconnect(closed)
        node.tick()
        assert dialed == ["a:1", "b:2", "c:3", "b:2"]
        assert node.peers["b:2"] is not closed and len(node._links) == 3

    def test_open_link_is_left_alone(self, make_node):
        node, dialed = make_node(["a:1"])
        node.tick()
        conn = node.peers["a:1"]
        node.tick()
        node.tick()
        assert dialed == ["a:1"] and node.peers["a:1"] is conn
        assert len(conn.sent) == 1 and not conn.closed

    def test_peer_whose_dial_failed_is_dialed_at_the_next_tick(self, make_node):
        node, dialed = make_node(["a:1", "b:2"], refused={"a:1"})
        node.tick()
        assert node.peers["a:1"] is None and node.peers["b:2"] is not None
        node.tick()
        assert dialed == ["a:1", "b:2", "a:1"]
        assert len(node._links) == 1

    def test_repeated_address_is_one_peer(self, make_node):
        node, dialed = make_node(["a:1", "b:2", "a:1"])
        node.tick()
        assert dialed == ["a:1", "b:2"] and len(node._links) == 2


class TestLinkTeardown:
    """Every way a link ends leaves no per-link state behind."""

    PEER = NodeIdentity.from_seed(b"\x66" * 32)

    class Link(Capture):
        broken = False

        def send_message(self, raw):
            if self.broken:
                raise ConnectionError("peer went away")
            super().send_message(raw)

    # a locator whose tip the node does not hold, so the request opening
    # the link makes the node pull back
    AHEAD = [[5, "ab" * 32], [0, genesis_block().hash]]
    # an X25519 share of the all-zero point, which yields no shared secret
    LOW_ORDER = "00" * 32
    NONCE = "ab" * 16

    def on_disconnect(self, cluster, node, peer):
        node.on_disconnect(peer.conn)

    def send_failure(self, cluster, node, peer):
        peer.conn.broken = True
        # the node answers with BLOCKS, and that send fails
        peer.send(wire.GET_BLOCKS, {"locator": [[0, genesis_block().hash]]})

    def bad_locator(self, cluster, node, peer):
        node.on_message(peer.conn, peer.opening(locator=[]).encode())

    def bad_share(self, cluster, node, peer):
        node.on_message(peer.conn, peer.opening(key=self.LOW_ORDER).encode())

    def bad_reply_share(self, cluster, node, peer):
        # the BLOCKS reply to the node's link-open request
        reply = {"after": 0, "blocks": [], "more": False, "key": self.LOW_ORDER,
                 "nonce": self.NONCE}
        node.on_message(peer.conn, sign_envelope(wire.BLOCKS, 1, reply, self.PEER).encode())

    def handshake_timeout(self, cluster, node, peer):
        cluster.queue.now += node_module.HANDSHAKE_TIMEOUT_MS
        node.tick()

    @pytest.mark.parametrize("teardown", ["on_disconnect", "send_failure", "bad_locator",
                                          "bad_share", "bad_reply_share",
                                          "handshake_timeout"])
    def test_no_link_state_survives(self, cluster_factory, teardown):
        cluster = cluster_factory(1)
        node = cluster.nodes[0]
        peer = PeerEnd(node, self.PEER, self.Link())
        if teardown in ("bad_locator", "bad_share"):
            node.on_inbound_connection(peer.conn)  # its link-open request is bad
        elif teardown in ("bad_reply_share", "handshake_timeout"):
            node.connect_peer(peer.conn)  # a sync timer, and no BLOCKS reply yet
            assert node._links[id(peer.conn)].sync_sent_ms is not None
        else:
            peer.open(locator=self.AHEAD)  # keyed, and the node pulls back
            link = node._links[id(peer.conn)]
            assert node.connected() == [link]
            assert link.keys is not None and link.sync_sent_ms is not None

        getattr(self, teardown)(cluster, node, peer)
        assert id(peer.conn) not in node._links
        assert node.connected() == []
        if teardown not in ("on_disconnect", "send_failure"):
            assert peer.conn.closed

    BAD_LOCATORS = {
        "empty": {"locator": []},
        "not-a-list": {"locator": "ab" * 32},
        "bad-entry": {"locator": [[5]]},
        "height-bool": {"locator": [[True, "ab" * 32]]},
        "hash-not-a-string": {"locator": [[5, 5]]},
        "too-long": {"locator": [[h, "ab" * 32] for h in range(node_module.MAX_LOCATOR + 1)]},
    }

    @pytest.mark.parametrize("payload", BAD_LOCATORS.values(), ids=BAD_LOCATORS.keys())
    def test_malformed_first_locator_drops_the_link(self, cluster_factory, payload):
        node = cluster_factory(1).nodes[0]
        peer = PeerEnd(node, self.PEER, self.Link())
        node.on_inbound_connection(peer.conn)
        assert node.on_message(peer.conn, peer.opening(**payload).encode()) == "handled"
        assert id(peer.conn) not in node._links
        assert peer.conn.closed and peer.conn.sent == []

    KEY = KeyShare(random.Random(7).randbytes).public
    BAD_SHARES = {
        "missing": {"nonce": NONCE},
        "not-a-string": {"key": 5, "nonce": NONCE},
        "31-bytes": {"key": "ab" * 31, "nonce": NONCE},
        "not-hex": {"key": "zz" * 32, "nonce": NONCE},
        "low-order-point": {"key": LOW_ORDER, "nonce": NONCE},
        "nonce-missing": {"key": KEY},
        "nonce-15-bytes": {"key": KEY, "nonce": "ab" * 15},
    }

    @pytest.mark.parametrize("share", BAD_SHARES.values(), ids=BAD_SHARES.keys())
    def test_malformed_key_share_drops_the_link(self, cluster_factory, share):
        # a link-open request, or the reply to one, whose share and nonce
        # yield no keys
        node = cluster_factory(1).nodes[0]
        listening, dialing = self.Link(), self.Link()
        node.on_inbound_connection(listening)
        node.connect_peer(dialing)
        request = {"locator": [[0, genesis_block().hash]], **share}
        reply = {"after": 0, "blocks": [], "more": False, **share}
        node.on_message(listening, sign_envelope(wire.GET_BLOCKS, 1, request,
                                                 self.PEER).encode())
        node.on_message(dialing, sign_envelope(wire.BLOCKS, 1, reply, self.PEER).encode())
        assert node._links == {}
        assert listening.closed and listening.sent == []
        assert dialing.closed and node.dropped_envelopes == 0


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

    def test_one_payload_encoding_and_one_tag_per_peer(self, cluster_factory, monkeypatch):
        cluster = self.mesh(cluster_factory, 5)
        node = cluster.nodes[0]
        encoded, delivered, ed25519 = [], [], []
        real_canonical, real_deliver = wire.canonical_json, cluster.net.deliver

        def counting_canonical(value):
            encoded.append(value)
            return real_canonical(value)

        def recording_deliver(src, dst, message):
            delivered.append((dst, message))
            real_deliver(src, dst, message)

        for module in (wire, node_module):  # the node encodes, and wire would re-encode
            monkeypatch.setattr(module, "canonical_json", counting_canonical)
        monkeypatch.setattr(cluster.net, "deliver", recording_deliver)
        monkeypatch.setattr(NodeIdentity, "sign", lambda *args: ed25519.append(args))
        block = mine_block(create_new_block("x", node.store.tip(), 4, 1))
        assert node.broadcast_block(block) == 4
        # one holder list for every peer: this node, then each peer sent to
        have = [wire.short_id(core.identity.node_id) for core in cluster.nodes]
        payload = {"block": block_to_json(block), "have": have}
        assert encoded == [payload] and ed25519 == []
        assert sorted(dst.local_addr for dst, _ in delivered) == ["mem:1", "mem:2", "mem:3",
                                                                  "mem:4"]
        for dst, message in delivered:  # each under its own link's key
            env = wire.decode_envelope(message)
            keys = dst.owner._links[id(dst)].keys
            assert wire.verify_envelope(env, keys[1])
            assert env.payload == payload
        assert len({message for _, message in delivered}) == 4

    def test_each_link_counts_its_own_frames(self, cluster_factory, monkeypatch):
        # two broadcasts: every frame decodes and checks under its receiving
        # link's key, and on each link the counter rises by one per frame
        cluster = self.mesh(cluster_factory, 4)
        node = cluster.nodes[0]
        delivered, real_deliver = [], cluster.net.deliver

        def recording_deliver(src, dst, message):
            delivered.append((dst, message))
            real_deliver(src, dst, message)

        monkeypatch.setattr(cluster.net, "deliver", recording_deliver)
        sent = {link.conn.remote_addr: link.sent for link in node._links.values()}
        assert len(sent) == 3
        for data in ("first", "second"):
            block = mine_block(create_new_block(data, node.store.tip(), 4, 1))
            assert node.broadcast_block(block) == 3
        counters = {}
        for dst, message in delivered:
            env = wire.decode_envelope(message)
            assert wire.verify_envelope(env, dst.owner._links[id(dst)].keys[1])
            counters.setdefault(dst.local_addr, []).append(env.counter)
        assert counters == {addr: [sent[addr] + 1, sent[addr] + 2] for addr in sent}
        assert {link.conn.remote_addr: link.sent for link in node._links.values()} \
            == {addr: sent[addr] + 2 for addr in sent}

    def test_no_peers_signs_nothing(self, cluster_factory, monkeypatch):
        node = cluster_factory(1).nodes[0]
        monkeypatch.setattr(node_module, "sign_envelope", None)  # any call would fail
        block = mine_block(create_new_block("x", node.store.tip(), 4, 1))
        assert node.broadcast_block(block) == 0

    def test_dead_peer_marked_failed_others_unaffected(self, cluster_factory):
        cluster = self.mesh(cluster_factory, 5)
        node = cluster.nodes[0]
        # break the link to node 3 without telling node 0
        links = {link.conn.remote_addr: link for link in node.connected()}
        links["mem:3"].conn.closed = True
        links["mem:3"].conn.peer.closed = True
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

    def test_mutual_dials_carry_each_block_once(self, cluster_factory, monkeypatch):
        # both nodes dialed, so two links join the same pair of nodes
        cluster = cluster_factory(2)
        cluster.connect(0, 1)
        cluster.connect(1, 0)
        cluster.pump()
        assert [len(core.connected()) for core in cluster.nodes] == [2, 2]
        kinds, real_deliver = [], cluster.net.deliver

        def recording_deliver(src, dst, message):
            kinds.append(wire.decode_envelope(message).kind)
            real_deliver(src, dst, message)

        monkeypatch.setattr(cluster.net, "deliver", recording_deliver)
        cluster.submit(0, {"kind": "raw", "data": "once"})
        cluster.pump()
        assert cluster.nodes[1].store.get_block_count() == 2
        assert kinds.count(wire.NEW_BLOCK) == 1
        for core in cluster.nodes:
            assert core.handle_query("stats", {})["result"]["peer_count"] == 1

    def test_no_frame_to_the_sender_on_its_other_link(self, cluster_factory):
        # unreliable links, where a known holder is still sent the block
        core = cluster_factory(1).nodes[0]
        identity = NodeIdentity.from_seed(b"\x07" * 32)
        ends = [PeerEnd(core, identity, seed=seed).open() for seed in (1, 2)]
        assert not ends[0].conn.reliable
        block = mine_block(create_new_block("x", core.store.tip(), 4, 1))
        assert core.broadcast_block(block) == 1
        assert [len(end.conn.sent) for end in ends] == [1, 0]
        raw = ends[0].frame(wire.NEW_BLOCK, {"block": block_to_json(block), "have": []})
        gossip = (core._links[id(ends[0].conn)], decode_envelope(raw))
        assert core.broadcast_block(block, gossip=gossip) == 0
        assert [len(end.conn.sent) for end in ends] == [1, 0]


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
        [link] = node.connected()
        assert link.conn is conn
        assert node._send_raw(link, node.frame(link, wire.QUERY, {})) is False
        assert len(cluster.queue) == queued  # nothing went on the link
        monkeypatch.undo()
        assert not conn.closed
        assert node.connected() == [link]
        assert node._send_raw(link, node.frame(link, wire.QUERY, {})) is True


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
                      if self.block_data_bytes(n) <= self.CAP - wire.BLOCK_ENVELOPE_BYTES)
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


class TestBlockSizeRule:
    """A block whose data, JSON-escaped, takes more than MAX_FRAME_BYTES -
    BLOCK_ENVELOPE_BYTES is malformed, so every valid block fits one frame
    as NEW_BLOCK and as a one-block BLOCKS page."""

    CAP = 8192
    BOUND = CAP - wire.BLOCK_ENVELOPE_BYTES

    @pytest.fixture(autouse=True)
    def counters(self, monkeypatch):
        """The cap patched; envelope checks and block verifies counted."""
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", self.CAP)
        self.calls = Counter()

        def counting(name, real):
            def wrapper(*args):
                self.calls[name] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(node_module, "verify_envelope",
                            counting("envelope", node_module.verify_envelope))
        monkeypatch.setattr(consensus, "verify_block",
                            counting("block", consensus.verify_block))

    @staticmethod
    def data(escaped_bytes):
        """Block data that takes `escaped_bytes` JSON-escaped."""
        quotes, plain = divmod(escaped_bytes - 2, 2)  # a quote escapes to 2 bytes
        data = '"' * quotes + "x" * plain
        assert len(wire.canonical_json(data)) == escaped_bytes
        return data

    def block(self, core, escaped_bytes):
        """The next block on `core`'s tip, whose escaped data takes `escaped_bytes`."""
        tip = core.store.tip()
        return mine_block(create_new_block(self.data(escaped_bytes), tip,
                                           effective_bits(core.difficulty), tip.timestamp + 1))

    @pytest.mark.parametrize("kind", [wire.NEW_BLOCK, wire.BLOCKS])
    def test_block_one_byte_over_the_bound_is_malformed(self, cluster_factory, kind):
        cluster = cluster_factory(2)
        a, b = cluster.nodes
        cluster.connect(0, 1)
        cluster.pump()
        [a_link], [b_link] = a.connected(), b.connected()
        self.calls.clear()
        big = block_to_json(self.block(b, self.BOUND + 1))
        payload = ({"block": big} if kind == wire.NEW_BLOCK
                   else {"after": 0, "blocks": [big], "more": False})
        raw = a.frame(a_link, kind, payload)
        assert len(raw) < self.CAP  # the frame itself is allowed
        assert b.on_message(b_link.conn, raw) == "ignored"
        assert b.rejects_by_reason == {"MalformedBlock": 1}
        assert b.store.get_block_count() == 1
        # the tag is checked as the frame arrives; no block is verified
        assert self.calls == Counter(envelope=1)

    def test_new_block_at_the_bound_with_a_full_holder_list_fits_one_frame(
            self, cluster_factory, monkeypatch):
        # every field at its maximum, and a signature's length in place of a
        # tag's, as a signed frame with a tagged frame's counter spliced in:
        # BLOCK_ENVELOPE_BYTES holds the frame around the data
        top = MAX_BLOCK_INT
        block = Block(index=top, timestamp=top, data=self.data(self.BOUND), prev_hash="f" * 64,
                      hash="f" * 64, difficulty=MAX_DIFFICULTY_BITS, nonce=top)
        payload = {"block": block_to_json(block),
                   "have": ["f" * wire.SHORT_ID_HEX] * wire.MAX_HOLDERS}
        signed = sign_envelope(wire.NEW_BLOCK, top, payload, NodeIdentity.from_seed(b"\x07" * 32))
        raw = dataclasses.replace(signed, counter=top).encode()
        assert decode_envelope(raw).counter == top
        assert len(raw) - len(wire.canonical_json(block.data)) == 1015
        assert len(raw) <= self.CAP
        # a relay of such a block, with a full list, leaves B for C
        cluster = cluster_factory(3)
        a, b, c = cluster.nodes
        cluster.connect(0, 1)
        cluster.connect(1, 2)
        cluster.pump()
        sent = TestHolderList.new_block_frames(cluster, monkeypatch)
        largest = self.block(a, self.BOUND)
        [link] = a.connected()
        fillers = ["%08x" % i for i in range(wire.MAX_HOLDERS - 1)]
        payload = {"block": block_to_json(largest),
                   "have": [wire.short_id(a.identity.node_id)] + fillers}
        raw = a.frame(link, wire.NEW_BLOCK, payload)
        assert b.on_message(link.conn.peer, raw) == "appended"
        cluster.pump()
        assert c.store.tip() == largest
        [(_, to, relayed)] = sent
        assert to == "mem:2" and len(relayed["have"]) == wire.MAX_HOLDERS

    def test_block_at_the_bound_reaches_a_node_that_missed_it_by_sync(self, cluster_factory):
        cluster = cluster_factory(2)
        a, b = cluster.nodes
        largest = self.block(a, self.BOUND)
        assert a.adopt_if_heavier(0, [largest]) == "adopted"  # no link: b misses its gossip
        cluster.connect(1, 0)  # b's link-open request gets a one-block page
        cluster.pump()
        assert b.store.get_all_blocks() == [genesis_block(), largest]
        assert a.rejects_by_reason == b.rejects_by_reason == {}


class TestHandleNewBlock:
    def envelope_for(self, sender_core, block):
        """`block` gossiped as the next frame on `sender_core`'s one link."""
        [link] = sender_core.connected()
        return decode_envelope(sender_core.frame(link, wire.NEW_BLOCK,
                                                 {"block": block_to_json(block)}))

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
        [link] = b.connected()
        outcome = b.handle_new_block(link, self.envelope_for(a, blocks[-1]))
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
        [link] = b.connected()
        outcome = b.handle_new_block(link, self.envelope_for(a, fake))
        assert outcome == "ignored"
        assert b.rejects_by_reason == {"InsufficientWork": 1}
        assert b.store.get_block_count() == before

    def test_stale_block_ignored(self, cluster_factory):
        cluster = cluster_factory(2)
        cluster.connect(0, 1)
        cluster.pump()
        a, b = cluster.nodes
        env = self.envelope_for(a, genesis_block())
        [link] = b.connected()
        assert b.handle_new_block(link, env) == "ignored"
        assert b.rejects_by_reason == {}

    def test_delivered_block_reads_the_tip_height_once(self, cluster_factory, monkeypatch):
        # the held check reads the stored hash at the block's own height, so
        # nothing reads the tip before the fork choice; the one read is the
        # store's own, when add_block checks the block follows the tip
        cluster = cluster_factory(2)
        cluster.connect(0, 1)
        cluster.pump()
        a, b = cluster.nodes
        block = mine_block(create_new_block("next", b.store.tip(), 4, 10))
        tip_queries = []
        real_chain_info, real_adopt = b.store.chain_info, b.adopt_if_heavier

        def counting_chain_info():
            tip_queries.append("chain_info")
            return real_chain_info()

        def recording_adopt(*args, **kwargs):
            tip_queries.append("adopt")
            return real_adopt(*args, **kwargs)

        monkeypatch.setattr(b.store, "chain_info", counting_chain_info)
        monkeypatch.setattr(b, "adopt_if_heavier", recording_adopt)
        [link] = b.connected()
        assert b.on_message(link.conn, self.envelope_for(a, block).encode()) == "appended"
        assert tip_queries == ["adopt", "chain_info"]

    def test_joining_block_is_shape_checked_and_hashed_once(self, cluster_factory,
                                                            monkeypatch):
        # block_from_json shape-checks the block and marks it, so verify_block
        # skips the shape gate and hashes it once; the mark is no field
        cluster = cluster_factory(2)
        cluster.connect(0, 1)
        cluster.pump()
        a, b = cluster.nodes
        head = b.store.tip()
        block = mine_block(create_new_block("checked once", head, 4, 10))
        frame = self.envelope_for(a, block).encode()
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        shape = counted("shape", chain_module.validate_block_shape)
        digest = counted("hash", chain_module.block_hash)
        for module in (chain_module, consensus):
            monkeypatch.setattr(module, "validate_block_shape", shape)
            monkeypatch.setattr(module, "block_hash", digest)
        [link] = b.connected()
        assert b.on_message(link.conn, frame) == "appended"
        assert b.store.tip() == block
        assert calls == {"shape": 1, "hash": 1}
        monkeypatch.undo()

        checked = chain_module.block_from_json(block_to_json(block))
        assert checked.shape_checked and not block.shape_checked
        assert consensus.verify_block(checked, head, 4) is None
        # a copy is a new record: its fields are checked again
        err = consensus.verify_block(dataclasses.replace(checked, hash="zz"), head, 4)
        assert err.reason is consensus.VerifyReason.MALFORMED_BLOCK
        assert not dataclasses.replace(checked).shape_checked
        # the mark changes no comparison, hash or text of the record
        assert checked == block and hash(checked) == hash(block)
        assert repr(checked) == repr(block)
        assert {checked: 1}[block] == 1


class TestForkChoiceOnGossip:
    def test_heavier_fork_at_held_heights_wins(self, cluster_factory):
        # a's chain is taller, b's has more work: a relay of b's tip carries
        # a height a holds, and still reaches a's fork choice
        cluster = cluster_factory(2)
        cluster.connect(0, 1)
        cluster.pump()
        a, b = cluster.nodes
        low = cluster.params.min_difficulty
        light = extend([genesis_block()], [f"light-{i}" for i in range(4)], low)
        heavy = extend([genesis_block()], ["heavy-0", "heavy-1"], low + 8)
        assert a.adopt_if_heavier(0, light[1:]) == "adopted"
        assert b.adopt_if_heavier(0, heavy[1:]) == "adopted"
        cluster.pump()
        assert cluster.heads() == [heavy[-1].hash] * 2
        assert a.rejects_by_reason == b.rejects_by_reason == {}


class TestHolderList:
    """A NEW_BLOCK names the nodes its sender knows hold the block, and a
    node relays an adopted block only to the peers it does not know to hold
    it, and only skips a peer over a reliable link."""

    @staticmethod
    def new_block_frames(cluster, monkeypatch):
        """(from, to, payload) of each NEW_BLOCK the cluster's network carries
        from now on, recorded as it is sent."""
        sent, real_deliver = [], cluster.net.deliver

        def recording_deliver(src, dst, message):
            env = wire.decode_envelope(message)
            if env.kind == wire.NEW_BLOCK:
                sent.append((src.local_addr, dst.local_addr, env.payload))
            real_deliver(src, dst, message)

        monkeypatch.setattr(cluster.net, "deliver", recording_deliver)
        return sent

    @staticmethod
    def short(*cores):
        return [wire.short_id(core.identity.node_id) for core in cores]

    @staticmethod
    def next_block(core, data):
        tip = core.store.tip()
        return mine_block(create_new_block(data, tip, effective_bits(core.difficulty),
                                           tip.timestamp + 1))

    def test_handshake_keeps_each_peers_short_id(self, cluster_factory):
        # the relay's holder checks read it from the link
        cluster = cluster_factory(3)
        cluster.connect(0, 1)
        cluster.connect(2, 1)
        cluster.pump()
        ids = [wire.short_id(core.identity.node_id) for core in cluster.nodes]
        for core, peers in zip(cluster.nodes, [[1], [0, 2], [1]]):
            links = list(core._links.values())
            assert links and all(link.keys is not None for link in links)
            assert sorted(link.short for link in links) == sorted(ids[i] for i in peers)

    def test_block_mined_at_one_end_of_a_line_reaches_the_other(self, cluster_factory,
                                                               monkeypatch):
        # A-B-C-D: each hop adds itself and the peer it sends to
        cluster = cluster_factory(4)
        for i in range(3):
            cluster.connect(i, i + 1)
        cluster.pump()
        sent = self.new_block_frames(cluster, monkeypatch)
        results = cluster.submit(0, {"kind": "raw", "data": "down the line"})
        cluster.pump()
        assert results[0]["ok"]
        assert len(set(cluster.heads())) == 1
        assert cluster.nodes[3].store.get_block_count() == 2
        a, b, c, d = cluster.nodes
        assert [(src, dst, payload["have"]) for src, dst, payload in sent] == [
            ("mem:0", "mem:1", self.short(a, b)),
            ("mem:1", "mem:2", self.short(b, a, c)),
            ("mem:2", "mem:3", self.short(c, b, a, d)),
        ]

    def test_false_list_delays_a_block_until_the_periodic_sync(self, cluster_factory,
                                                               monkeypatch):
        # a peer's list names every node, so C relays to no one; D gets the
        # block from the locator sync its tick sends after RESYNC_MS
        cluster = cluster_factory(2)
        c, d = cluster.nodes
        cluster.connect(1, 0)
        cluster.pump()
        sent = self.new_block_frames(cluster, monkeypatch)
        liar = PeerEnd(c, NodeIdentity.from_seed(b"\x05" * 32)).open()
        block = self.next_block(c, "named to no one")
        have = self.short(c, d) + [wire.short_id(liar.identity.node_id)]
        assert liar.send(wire.NEW_BLOCK, {"block": block_to_json(block), "have": have}) \
            == "appended"
        cluster.pump()
        assert sent == [] and liar.conn.sent == []
        d.tick()  # too soon: the link-open sync was just sent
        cluster.pump()
        assert d.store.get_block_count() == 1
        cluster.queue.at(cluster.queue.now + node_module.RESYNC_MS, d.tick)
        cluster.pump()
        assert d.store.tip() == block
        assert c.rejects_by_reason == d.rejects_by_reason == {}

    def test_periodic_sync_waits_until_a_link_carried_none_for_resync_ms(
            self, cluster_factory, monkeypatch):
        cluster = cluster_factory(2)
        cluster.connect(0, 1)
        cluster.pump()
        a, b = cluster.nodes
        requests = []
        real_deliver = cluster.net.deliver

        def recording_deliver(src, dst, message):
            if wire.decode_envelope(message).kind == wire.GET_BLOCKS:
                requests.append((cluster.queue.now, src.local_addr))
            real_deliver(src, dst, message)

        monkeypatch.setattr(cluster.net, "deliver", recording_deliver)
        resync = node_module.RESYNC_MS
        for at in (resync - 1, resync, resync + 1, 2 * resync - 1, 2 * resync):
            cluster.queue.at(at, a.tick)
        cluster.pump()
        # a dialed, so its link-open request at 0 was its last until then
        assert requests == [(resync, "mem:0"), (2 * resync, "mem:0")]

    @pytest.mark.parametrize("kind", [wire.NEW_BLOCK, wire.GET_BLOCKS])
    def test_only_a_new_block_read_restarts_the_quiet_timer(self, cluster_factory,
                                                            monkeypatch, kind):
        # b's frame reaches a at RESYNC_MS - 1. A NEW_BLOCK read leaves a
        # lacking nothing b held, so a's next locator waits RESYNC_MS more; a
        # GET_BLOCKS received does not, or the two ends would keep
        # restarting each other's timers and neither would ever ask
        cluster = cluster_factory(2, latency_ms=0)
        a, b = cluster.nodes
        cluster.connect(0, 1)
        cluster.pump()
        requests = []
        real_deliver = cluster.net.deliver

        def recording_deliver(src, dst, message):
            if src.local_addr == "mem:0" and wire.decode_envelope(message).kind == wire.GET_BLOCKS:
                requests.append(cluster.queue.now)
            real_deliver(src, dst, message)

        monkeypatch.setattr(cluster.net, "deliver", recording_deliver)
        resync = node_module.RESYNC_MS
        if kind == wire.NEW_BLOCK:
            block = self.next_block(b, "read just in time")
            cluster.queue.at(resync - 1, lambda: b.adopt_if_heavier(0, [block]))
        else:
            cluster.queue.at(resync - 1, lambda: b.request_sync(b.connected()[0]))
        for at in (resync, 2 * resync - 2, 2 * resync - 1):
            cluster.queue.at(at, a.tick)
        cluster.pump()
        assert requests == ([2 * resync - 1] if kind == wire.NEW_BLOCK else [resync])
        assert a.store.tip() == b.store.tip()

    @pytest.mark.parametrize("have", ["none", "not-a-list", "over-the-cap", "not-strings",
                                      "not-short-ids"])
    def test_malformed_list_is_ignored(self, cluster_factory, monkeypatch, have):
        # each list names D and E, which a well-formed list would keep from
        # the relay; a malformed one is read as no list at all
        cluster = cluster_factory(3)
        c, d, e = cluster.nodes
        cluster.connect(0, 1)
        cluster.connect(0, 2)
        cluster.pump()
        sent = self.new_block_frames(cluster, monkeypatch)
        peer = PeerEnd(c, NodeIdentity.from_seed(b"\x06" * 32)).open()
        named = self.short(d, e)
        lists = {
            "not-a-list": "".join(named),
            "over-the-cap": named + ["0" * wire.SHORT_ID_HEX] * (wire.MAX_HOLDERS - 1),
            "not-strings": named + [1],
            "not-short-ids": [d.identity.node_id, e.identity.node_id],
        }
        block = self.next_block(c, f"list {have}")
        payload = {"block": block_to_json(block)}
        if have in lists:
            payload["have"] = lists[have]
        assert peer.send(wire.NEW_BLOCK, payload) == "appended"
        cluster.pump()
        assert sorted(dst for _, dst, _ in sent) == ["mem:1", "mem:2"]
        relayed = self.short(c) + [wire.short_id(peer.identity.node_id)] + named
        assert [payload["have"] for _, _, payload in sent] == [relayed, relayed]
        assert d.store.tip() == e.store.tip() == block

    @pytest.mark.parametrize("loss_rate", [0.0, 0.3])
    def test_lossy_links_relay_to_every_peer_but_the_sender(self, cluster_factory,
                                                            monkeypatch, loss_rate):
        # a list that names every node stops the relay only where no frame is lost
        cluster = cluster_factory(4)
        for i in range(4):
            for j in range(i + 1, 4):
                cluster.connect(i, j)
        cluster.pump()
        cluster.net.loss_rate = loss_rate
        a, b, c, d = cluster.nodes
        sent = self.new_block_frames(cluster, monkeypatch)
        [link] = [link for link in a.connected() if link.conn.remote_addr == "mem:2"]
        block = self.next_block(c, "over lossy links")
        payload = {"block": block_to_json(block), "have": self.short(a, b, c, d)}
        assert c.on_message(link.conn.peer, a.frame(link, wire.NEW_BLOCK, payload)) == "appended"
        expected = [] if loss_rate == 0 else [("mem:2", "mem:1"), ("mem:2", "mem:3")]
        assert sorted((src, dst) for src, dst, _ in sent) == expected

    def test_receiver_named_with_every_peer_frames_nothing(self, cluster_factory,
                                                          monkeypatch):
        # a reliable full mesh, and the sender's list names every node: the
        # receiver appends the block and finds no relay target before any frame
        cluster = cluster_factory(4)
        for i in range(4):
            for j in range(i + 1, 4):
                cluster.connect(i, j)
        cluster.pump()
        a, b, c, d = cluster.nodes
        sent = self.new_block_frames(cluster, monkeypatch)
        tagged = []
        real_tag_frames = node_module.tag_frames

        def counting_tag_frames(*args):
            tagged.append(args[0])
            return real_tag_frames(*args)

        [link] = [link for link in a.connected() if link.conn.remote_addr == "mem:2"]
        block = self.next_block(c, "named everywhere")
        raw = a.frame(link, wire.NEW_BLOCK,
                      {"block": block_to_json(block), "have": self.short(a, b, c, d)})
        monkeypatch.setattr(node_module, "tag_frames", counting_tag_frames)
        assert c.on_message(link.conn.peer, raw) == "appended"
        assert c.store.tip() == block
        cluster.pump()
        assert tagged == [] and sent == []
        assert c.broadcast_block(block) == 3 and tagged == [wire.NEW_BLOCK]

    @pytest.mark.parametrize("loss_rate", [0.0, 0.3])
    def test_only_peers_over_reliable_links_are_named(self, cluster_factory, monkeypatch,
                                                      loss_rate):
        cluster = cluster_factory(3)
        cluster.connect(0, 1)
        cluster.connect(0, 2)
        cluster.pump()
        cluster.net.loss_rate = loss_rate
        sent = self.new_block_frames(cluster, monkeypatch)
        a, b, c = cluster.nodes
        assert a.broadcast_block(self.next_block(a, "named or not")) == 2
        have = self.short(a, b, c) if loss_rate == 0 else self.short(a)
        assert [payload["have"] for _, _, payload in sent] == [have, have]


class TestLinkOpenSync:
    """A link opens with the dialer's GET_BLOCKS, whose locator starts at the
    dialer's tip; the listener pulls back only when it lacks that tip."""

    @pytest.fixture(autouse=True)
    def sent(self, monkeypatch):
        """Every envelope sent, as (kind, sender address, receiver address)."""
        self.sent = []
        real_deliver = MemNetwork.deliver

        def recording_deliver(net, src, dst, message):
            self.sent.append((wire.decode_envelope(message).kind, src.local_addr,
                              dst.local_addr))
            real_deliver(net, src, dst, message)

        monkeypatch.setattr(MemNetwork, "deliver", recording_deliver)

    def requests(self):
        """The GET_BLOCKS each node sent, counted by its address."""
        return Counter(src for kind, src, _dst in self.sent if kind == wire.GET_BLOCKS)

    def test_mesh_of_fresh_nodes_sends_one_request_per_link(self, cluster_factory):
        cluster = cluster_factory(10)
        links = [(i, j) for i in range(10) for j in range(i + 1, 10)]
        for i, j in links:
            cluster.connect(i, j)
        cluster.pump()
        assert all(len(core.connected()) == 9 for core in cluster.nodes)
        expected = ([(wire.GET_BLOCKS, f"mem:{i}", f"mem:{j}") for i, j in links]
                    + [(wire.BLOCKS, f"mem:{j}", f"mem:{i}") for i, j in links])
        assert sorted(self.sent) == sorted(expected)
        # nothing else goes out until a block is mined
        self.sent.clear()
        cluster.submit(0, {"kind": "raw", "data": "first"})
        cluster.pump()
        assert {kind for kind, _src, _dst in self.sent} == {wire.NEW_BLOCK}

    @pytest.mark.parametrize("dialer", ["behind", "ahead"])
    def test_only_the_node_behind_syncs(self, cluster_factory, dialer):
        cluster = cluster_factory(2)
        ahead, behind = cluster.nodes
        chain = extend([genesis_block()], ["a0", "a1", "a2"], cluster.params.min_difficulty)
        assert ahead.adopt_if_heavier(0, chain[1:]) == "adopted"
        if dialer == "behind":
            cluster.connect(1, 0)
            expected = Counter({"mem:1": 1})
        else:
            cluster.connect(0, 1)
            # the dialer's request opens the link; the node behind pulls back
            expected = Counter({"mem:0": 1, "mem:1": 1})
        cluster.pump()
        assert behind.store.get_all_blocks() == chain
        assert self.requests() == expected

    def test_dialer_behind_holds_the_tip_after_one_round_trip(self, cluster_factory):
        cluster = cluster_factory(2)
        ahead, behind = cluster.nodes
        chain = extend([genesis_block()], ["a0", "a1", "a2"], cluster.params.min_difficulty)
        assert ahead.adopt_if_heavier(0, chain[1:]) == "adopted"
        adopted_at = []
        behind.on_chain_change = lambda _blocks, _depth: adopted_at.append(
            cluster.queue.now)
        cluster.connect(1, 0)
        cluster.pump()
        assert behind.store.chain_info()[1] == chain[-1].hash
        assert adopted_at == [2 * cluster.net.latency_ms]


def orphan(core, n):
    """A mined block one past `core`'s tip whose parent exists nowhere."""
    tip = core.store.tip()
    return mine_block(Block(index=tip.index + 1, timestamp=tip.timestamp + 1,
                            data=f"orphan-{n}", hash="", difficulty=4, nonce=0,
                            prev_hash=hashlib.sha256(f"orphan-{n}".encode()).hexdigest()))


class TestUnservedParents:
    """A link whose sync replies never reach the gossiped block that set
    them off stops setting off syncs after MAX_UNSERVED of them."""

    LIMIT = node_module.MAX_UNSERVED

    @pytest.fixture(autouse=True)
    def pair(self, cluster_factory, monkeypatch):
        """Nodes a and b on one link; `requests` records the GET_BLOCKS b sends."""
        self.cluster = cluster = cluster_factory(2)
        cluster.connect(0, 1)
        cluster.pump()
        a, b = self.a, self.b = cluster.nodes
        self.requests = []
        real_deliver = cluster.net.deliver

        def recording_deliver(src, dst, message):
            if src.owner is b and wire.decode_envelope(message).kind == wire.GET_BLOCKS:
                self.requests.append(message)
            real_deliver(src, dst, message)

        monkeypatch.setattr(cluster.net, "deliver", recording_deliver)
        [self.a_link], [self.link] = a.connected(), b.connected()

    def gossip(self, block):
        """a relays `block` to b."""
        self.a_link.conn.send_message(self.a.frame(self.a_link, wire.NEW_BLOCK,
                                                   {"block": block_to_json(block)}))
        self.cluster.pump()

    def gap(self, n):
        """Commit n blocks on a at once, so that only the last is gossiped."""
        blocks = extend(self.a.store.get_all_blocks(), [f"gap-{i}" for i in range(n)],
                        effective_bits(self.a.difficulty))
        self.a._commit(blocks[-n - 1], blocks[-n:])
        self.cluster.pump()

    def reply(self, payload):
        """b takes a BLOCKS reply from a."""
        raw = self.a.frame(self.a_link, wire.BLOCKS, payload)
        return self.b.on_envelope(self.link, decode_envelope(raw))

    def test_peer_that_never_serves_the_parent_stops_setting_off_syncs(self):
        b, link = self.b, self.link
        for n in range(self.LIMIT + 2):
            self.gossip(orphan(b, n))
        assert len(self.requests) == self.LIMIT
        # each orphan counted once: by its reply, or at once past the limit
        assert b.rejects_by_reason == {"ParentNotServed": self.LIMIT + 2}
        assert b.handle_query("stats", {})["result"]["rejected_invalid_blocks"] == self.LIMIT + 2
        assert (link.unserved, link.wanted) == (self.LIMIT, None)
        assert b.store.get_block_count() == 1

    def test_honest_gap_syncs_and_counts_nothing(self):
        self.gap(3)
        assert len(self.requests) == 1
        assert self.b.store.get_all_blocks() == self.a.store.get_all_blocks()
        assert self.b.rejects_by_reason == {}
        assert (self.link.unserved, self.link.wanted) == (0, None)

    def test_reached_block_resets_the_count(self):
        a, b, link = self.a, self.b, self.link
        for n in range(self.LIMIT - 1):
            self.gossip(orphan(b, n))
        assert link.unserved == self.LIMIT - 1
        self.gap(2)  # b's sync reply adopts
        assert link.unserved == 0
        # a reply that holds the wanted block resets too, adopted or not
        link.unserved, link.wanted = self.LIMIT - 1, a.store.tip().hash
        served = [block_to_json(blk) for blk in a.store.get_blocks(1)]
        assert self.reply({"after": 0, "blocks": served, "more": False}) == "unchanged"
        assert (link.unserved, link.wanted) == (0, None)
        for n in range(self.LIMIT):
            self.gossip(orphan(b, 10 + n))
        assert len(self.requests) == 2 * self.LIMIT  # each one sets off a sync
        assert b.rejects_by_reason == {"ParentNotServed": 2 * self.LIMIT - 1}

    def test_adopted_gossip_resets_the_count(self):
        b, link = self.b, self.link
        for n in range(self.LIMIT):
            self.gossip(orphan(b, n))
        assert link.unserved == self.LIMIT
        # a block that links to b's tip joins the chain: the link serves again
        linked = extend(b.store.get_all_blocks(), ["linked"], effective_bits(b.difficulty))[-1]
        self.gossip(linked)
        assert b.store.tip() == linked
        assert link.unserved == 0
        self.gossip(orphan(b, self.LIMIT))
        assert len(self.requests) == self.LIMIT + 1  # the next orphan sets off a sync

    def test_new_link_starts_with_no_unserved_syncs(self):
        # the count belongs to one connection: when the link is cut and
        # dialed again, gossip on the new link sets off syncs again
        for n in range(self.LIMIT):
            self.gossip(orphan(self.b, n))
        assert len(self.requests) == self.LIMIT
        self.gossip(orphan(self.b, self.LIMIT))
        assert len(self.requests) == self.LIMIT
        net = self.cluster.net
        net.set_partition([{"mem:0"}, {"mem:1"}])  # cuts the link
        self.cluster.pump()
        assert self.a.connected() == self.b.connected() == []
        net.heal()
        self.cluster.connect(0, 1)
        self.cluster.pump()
        [self.a_link], [link] = self.a.connected(), self.b.connected()
        assert link.unserved == 0
        assert len(self.requests) == self.LIMIT  # both hold genesis only: no link-open sync
        self.gossip(orphan(self.b, self.LIMIT + 1))
        assert len(self.requests) == self.LIMIT + 1
        assert link.unserved == 1

    def test_rate_limited_request_sets_no_wanted(self):
        b, link = self.b, self.link
        assert b.request_sync(link)  # a sync of b's own is pending
        outcome = b.handle_new_block(link, decode_envelope(self.a.frame(
            self.a_link, wire.NEW_BLOCK, {"block": block_to_json(orphan(b, 0))})))
        assert outcome == "sync_triggered"
        assert link.wanted is None
        self.cluster.pump()
        assert len(self.requests) == 1
        assert b.rejects_by_reason == {}
        assert link.unserved == 0

    def test_reply_that_asks_for_the_next_page_is_not_judged(self):
        b, link = self.b, self.link
        wanted = link.wanted = orphan(b, 0).hash
        page = extend(b.store.get_all_blocks(), ["p0", "p1"], effective_bits(b.difficulty))
        adopting = [block_to_json(blk) for blk in page[1:]]
        assert self.reply({"after": 0, "blocks": adopting, "more": True}) == "adopted"
        assert len(self.requests) == 1  # the next page is asked for; the sync goes on
        assert (link.wanted, link.unserved, b.rejects_by_reason) == (wanted, 0, {})
        assert self.reply({"after": 2, "blocks": [], "more": False}) == "unchanged"
        assert (link.wanted, link.unserved) == (None, 1)
        assert b.rejects_by_reason == {"ParentNotServed": 1}
        # a `more` reply that adopts nothing asks for no next page, so it
        # ends the sync and is judged: a peer cannot dodge the count by
        # answering every request with `more` and no block
        link.wanted = orphan(b, 1).hash
        assert self.reply({"after": 0, "blocks": [], "more": True}) == "unchanged"
        assert (link.wanted, link.unserved) == (None, 2)
        assert len(self.requests) == 1


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
        peer = PeerEnd(a, b.identity).open()
        link, sent = a._links[id(peer.conn)], peer.conn.sent

        def serve(locator):
            sent.clear()
            a.on_envelope(link, sign_envelope(wire.GET_BLOCKS, 1,
                                              {"locator": locator}, b.identity))
            assert len(sent) == 1
            reply = decode_envelope(sent[0])
            assert reply.kind == "BLOCKS"
            return reply.payload

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

    @staticmethod
    def run_lossy_mesh(cluster):
        """Dial a 4-node mesh, then make 12 writes, each followed by 2 s of
        ticked run, then run 2 * RESYNC_MS + 5 s more, for the ticks to
        repair every loss."""
        for i in range(4):
            for j in range(i + 1, 4):
                cluster.connect(i, j)
        for seq in range(12):
            cluster.submit(seq % 4, {"kind": "raw", "data": f"lossy-{seq}"})
            cluster.run_until(cluster.queue.now + 2000)
        cluster.run_until(cluster.queue.now + 2 * node_module.RESYNC_MS + 5000)

    @pytest.mark.parametrize("seed", [1, 3, 9, 16, 26, 47, 61, 66, 92])
    def test_lossy_mesh_ends_with_every_block_on_every_node(self, cluster_factory, seed):
        # the ticks redial each link whose link-open message was lost and
        # resync each quiet link, so a NEW_BLOCK lost on every link is still
        # fetched; heads may differ only by an equal-work tie at the tip,
        # which first-seen fork choice keeps until the next block
        cluster = cluster_factory(4, loss_rate=0.2, seed=seed)
        self.run_lossy_mesh(cluster)
        for core in cluster.nodes:
            assert len(core.connected()) == 3
            assert all(link.keys is not None for link in core._links.values())
        assert [core.dropped_envelopes for core in cluster.nodes] == [0, 0, 0, 0]
        chains = [core.store.get_all_blocks() for core in cluster.nodes]
        assert all(chain[:-1] == chains[0][:-1] for chain in chains)
        assert len({len(chain) for chain in chains}) == 1
        assert len({cumulative_work(chain) for chain in chains}) == 1

    def test_lossy_links_refuse_no_frame_after_a_gap(self, cluster_factory, monkeypatch):
        # a lost frame leaves a gap in its link's counters; the frames after
        # it still rise, so none is refused
        cluster = cluster_factory(4, loss_rate=0.2, seed=3)
        net, frames = cluster.net, {}
        real_deliver = net.deliver

        def recording_deliver(src, dst, message):
            lost = net.dropped_by_loss
            real_deliver(src, dst, message)
            counter = wire.decode_envelope(message).counter
            if counter is not None:
                frames.setdefault(id(src), []).append(net.dropped_by_loss > lost)

        monkeypatch.setattr(net, "deliver", recording_deliver)
        self.run_lossy_mesh(cluster)
        gaps = sum(lost and not later for sent in frames.values()
                   for lost, later in zip(sent, sent[1:]))
        assert gaps > 0
        assert [core.dropped_envelopes for core in cluster.nodes] == [0, 0, 0, 0]
        # a link whose link-open request or reply was lost is dialed again,
        # so every link ends keyed at both ends and every node on one chain
        assert all(link.keys is not None for core in cluster.nodes for link in core._links.values())
        assert len(set(cluster.heads())) == 1
        assert len({core.store.get_block_count() for core in cluster.nodes}) == 1

    @pytest.mark.parametrize("lost", [wire.GET_BLOCKS, wire.BLOCKS])
    def test_lost_link_open_message_is_repaired_by_a_redial(self, cluster_factory,
                                                           monkeypatch, lost):
        # the dialer's tick closes a link whose link-open request got no
        # reply for HANDSHAKE_TIMEOUT_MS, as a TCP dial times out, and the
        # link dialed in its place is keyed at both ends
        cluster = cluster_factory(2)
        dialer, listener = cluster.nodes
        real_deliver, dropped = cluster.net.deliver, []

        def lossy_deliver(src, dst, message):
            if not dropped and wire.decode_envelope(message).kind == lost:
                dropped.append(message)
            else:
                real_deliver(src, dst, message)

        monkeypatch.setattr(cluster.net, "deliver", lossy_deliver)
        first = cluster.connect(0, 1)
        cluster.pump()
        assert dropped and dialer.connected() == []
        keys = [link.keys for link in listener._links.values()]
        assert (keys == [None]) == (lost == wire.GET_BLOCKS)
        timeout = node_module.HANDSHAKE_TIMEOUT_MS
        cluster.run_until(timeout - 1000)
        assert not first.closed
        cluster.run_until(timeout)
        redialed = dialer.peers[cluster.addrs[1]]
        assert first.closed and redialed is not first
        assert [link.conn for link in dialer.connected()] == [redialed]
        assert len(listener.connected()) == len(listener._links) == 1
        for i in (0, 1):
            results = cluster.submit(i, {"kind": "raw", "data": f"after the loss {i}"})
            cluster.pump()
            assert results[0]["ok"]
        assert len(set(cluster.heads())) == 1 and dialer.store.get_block_count() == 3
        assert dialer.dropped_envelopes == listener.dropped_envelopes == 0

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
    def test_dialed_and_accepted_sockets_send_without_delay(self):
        # a node writes a frame whole; Nagle's algorithm would hold the
        # next frame on the link until the first is acked
        owner = Recorder()
        transport = TcpTransport(owner)
        addr = transport.listen("127.0.0.1:0")
        try:
            dialed = transport.dial(addr)  # before the loop starts, as dial allows
            transport.start(tick=lambda: None)
            _, accepted, _ = owner.next("inbound")
            for conn in (dialed, accepted):
                assert conn._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
        finally:
            transport.stop()

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

    @staticmethod
    def watched(transport):
        """Record each poll's timeout and the sockets it woke on, and count
        the wake pair's sends; returns (polls, sends)."""
        polls, sends = [], []
        real_select, real_wake = transport._selector.select, transport._wake_w

        def select(timeout):
            events = real_select(timeout)
            polls.append((timeout, [key.fileobj for key, _ in events]))
            return events

        class Wake:
            def send(self, data):
                sends.append(data)
                return real_wake.send(data)

            def close(self):
                real_wake.close()

        transport._selector.select = select
        transport._wake_w = Wake()
        return polls, sends

    def test_a_call_submitted_on_the_loop_sends_no_wake_byte(self):
        # while calls are queued the loop polls without waiting, so a call
        # the loop submits writes nothing to the wake pair and runs next turn
        transport = TcpTransport(Recorder())
        polls, sends = self.watched(transport)
        order, done = [], threading.Event()

        def second():
            order.append((len(polls), len(sends)))
            done.set()

        def first():
            order.append((len(polls), len(sends)))
            transport.submit(second)

        transport.start(tick=lambda: None)
        try:
            transport.submit(first)
            assert done.wait(timeout=5)
        finally:
            transport.stop()
        [(polled_first, sent_first), (polled_second, sent_second)] = order
        assert sent_first == sent_second == 1  # the submit from this thread
        assert polled_second == polled_first + 1 and polls[polled_first][0] == 0

    def test_a_call_from_another_thread_wakes_a_blocked_loop(self):
        transport = TcpTransport(Recorder())
        polls, sends = self.watched(transport)
        ran = threading.Event()
        transport.start(tick=lambda: None)
        try:
            time.sleep(0.1)  # the loop is blocked in its poll, up to a tick away
            polled = len(polls)
            submitter = threading.Thread(target=transport.submit, args=(ran.set,))
            submitter.start()
            submitter.join(timeout=5)
            assert not submitter.is_alive()
            assert ran.wait(timeout=5)
        finally:
            transport.stop()
        assert sends[0] == b"\0"
        timeout, woken = polls[polled]
        assert timeout > 0 and woken == [transport._wake_r]

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

    def test_an_owner_that_raises_on_one_frame_gets_the_next(self, caplog):
        # the loop guards each callback: one that fails is logged, and the
        # next frame on the same conn still reaches the owner
        class Owner(Recorder):
            def on_message(self, conn, raw):
                if raw == b"bad":
                    raise RuntimeError("the handler failed")
                super().on_message(conn, raw)

        owner = Owner()
        transport, addr = started(owner)
        try:
            with socket.create_connection(parse_hostport(addr), timeout=5) as client:
                _, conn, _ = owner.next("inbound")
                client.sendall(wire.frame(b"bad") + wire.frame(b"good"))
                assert owner.next("message") == ("message", conn, b"good")
                assert transport._threads[0].is_alive()
        finally:
            transport.stop()
        assert not transport._threads[0].is_alive()
        assert [r.getMessage() for r in caplog.records] == ["callback failed"]

    def test_a_submitted_call_that_raises_does_not_stop_the_next(self, caplog):
        transport = TcpTransport(Recorder())
        ran = threading.Event()

        def fail():
            raise RuntimeError("the call failed")

        transport.start(tick=lambda: None)
        try:
            transport.submit(fail)
            transport.submit(ran.set)
            assert ran.wait(timeout=5)
            assert transport._threads[0].is_alive()
        finally:
            transport.stop()
        assert not transport._threads[0].is_alive()
        assert [r.getMessage() for r in caplog.records] == ["callback failed"]

    @staticmethod
    def socket_conn():
        """A TcpConnection on one end of a socket pair, registered with its
        own selector as the transport registers it; returns (conn, far end,
        selector)."""
        near, far = socket.socketpair()
        selector = selectors.DefaultSelector()
        selector.register(near, selectors.EVENT_READ)
        return TcpConnection(near, "pair", selector), far, selector

    def test_a_send_on_a_failed_socket_raises_and_closes_the_conn(self):
        conn, far, selector = self.socket_conn()
        far.close()  # the peer's end is gone: the next send breaks the pipe
        try:
            with pytest.raises(ConnectionError, match="send to pair failed"):
                conn.send_message(b"hello")
            assert conn.closed and selector.get_map() == {}
        finally:
            conn.close()
            selector.close()

    def test_a_node_drops_the_link_whose_socket_failed(self):
        conn, far, selector = self.socket_conn()
        core = NodeCore(identity=NodeIdentity.from_seed(b"\x42" * 32),
                        store=BlockStore(":memory:"), params=TEST_PARAMS, clock=lambda: 0,
                        miner=None, mine_enabled=False)
        peer = NodeIdentity.from_seed(b"\x07" * 32)
        try:
            core.on_inbound_connection(conn)
            assert core.on_message(conn, PeerEnd(core, peer, conn).opening().encode()) == "handled"
            [link] = core.connected()
            far.close()
            assert core._send_raw(link, core.frame(link, wire.QUERY, {"what": "stats"})) is False
            assert conn.closed and core.connected() == [] and core._links == {}
        finally:
            core.close()
            core.store.close()
            conn.close()
            far.close()
            selector.close()
