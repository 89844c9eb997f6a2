"""Shared fixtures, chain builders and an in-memory node cluster."""

import hashlib
import os
import random
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import pytest

from powdb.chain import Block, ChainParams, block_hash, genesis_block
from powdb.consensus import create_new_block, mine_block
from powdb.node import NodeCore
from powdb.simnet import EventQueue, MemNetwork, SimMiner
from powdb.sim import sim_hashrate_per_ms
from powdb.store import BlockStore
from powdb.transport import TICK_S
from powdb import wire
from powdb.wire import (KeyShare, MessageEnvelope, NodeIdentity, decode_envelope, sign_envelope,
                        tag_frames)


def pytest_configure(config):
    # `pythonpath` in pyproject.toml reaches only this process; the child
    # interpreters some tests start must import powdb from this checkout too
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if src not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([src, *paths])


@pytest.fixture(autouse=True)
def no_leaked_node_loop():
    """Fail a test that leaves a live node's loop thread running."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 2.0
    for thread in set(threading.enumerate()) - before:
        if thread.name == "node-loop":
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                pytest.fail("a node-loop thread outlived its test; stop() every runtime")


def on_loop(runtime, fn):
    """Run `fn()` on a started runtime's loop thread, the only thread that
    may touch its core and store, and return what it returns or raise what
    it raises."""
    result = Future()

    def call():
        try:
            result.set_result(fn())
        except BaseException as exc:
            result.set_exception(exc)

    runtime.submit(call)
    return result.result(timeout=30)


def linked_chain(difficulties, data_prefix="data", start_ts=1000):
    """A structurally valid chain with honest hashes but no mining.

    Good enough for storage and serialization tests that never run the
    proof-of-work predicate.
    """
    blocks = [genesis_block()]
    for i, d in enumerate(difficulties):
        blk = Block(index=i + 1, timestamp=start_ts + i, data=f"{data_prefix}-{i}",
                    prev_hash=blocks[-1].hash, hash="", difficulty=d, nonce=0)
        blocks.append(blk.with_hash(block_hash(blk)))
    return blocks


def extend(base, datas, bits, spacing=1):
    """`base` plus one mined block per data string, each `spacing` seconds
    after its parent."""
    blocks = list(base)
    for data in datas:
        tip = blocks[-1]
        blocks.append(mine_block(create_new_block(data, tip, bits, tip.timestamp + spacing)))
    return blocks


# The difficulty after each block, for store tests that never retarget.
RETARGET = 4.0


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "node.db"


def state_version(store, contract_id, key):
    """The index of the block that last wrote a state cell, read from the
    `state` table: None when no block wrote it."""
    return store._conn.execute(
        "SELECT MAX(version) FROM state WHERE contract_id = ? AND key = ?",
        (contract_id, key)).fetchone()[0]


def assert_no_log(path) -> None:
    """No write-ahead log or its index is left next to the store file."""
    assert not os.path.exists(f"{path}-wal")
    assert not os.path.exists(f"{path}-shm")


TEST_PARAMS = ChainParams(target_block_interval_ms=2000, initial_difficulty=6,
                          min_difficulty=4, max_difficulty=10)


class Capture:
    """A connection that keeps what the node sends on it."""

    reliable = False

    def __init__(self):
        self.sent = []
        self.closed = False

    def send_message(self, raw):
        self.sent.append(raw)

    def close(self):
        self.closed = True


def flipped(raw):
    """A frame with the low bit of its tag's or signature's first byte
    flipped: the byte right after the header."""
    at = wire.HEADER.size
    return raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1:]


class PeerEnd:
    """A peer's end of one link to `core`, played by hand.

    `open` dials `core` over `conn` and runs the handshake as a node does:
    a signed GET_BLOCKS with this end's key share and nonce opens the link,
    and the node's signed BLOCKS reply, with its own, keys it. After that each
    frame from `frame` or `send` carries this end's next counter and a
    tag. `conn` keeps what the node sends in `conn.sent`, as Capture does.
    """

    def __init__(self, core, identity, conn=None, seed=0):
        self.core, self.identity = core, identity
        self.conn = Capture() if conn is None else conn
        self.share = KeyShare(random.Random(seed).randbytes)
        self.hello = self.share.hello()  # this end's key and nonce
        self.keys = None  # (send, receive), once the node has answered
        self.sent = 0

    def opening(self, **fields):
        """The link-open GET_BLOCKS: a locator of the node's own tip, so the
        node does not pull back, and this end's key and nonce; `fields`
        replace entries of that payload."""
        tip = self.core.store.tip()
        payload = {"locator": [[tip.index, tip.hash]], **self.hello, **fields}
        return sign_envelope(wire.GET_BLOCKS, 1, payload, self.identity)

    def open(self, **fields):
        """Connect, open the link, and key this end from the node's reply,
        which is taken off `conn.sent`."""
        self.core.on_inbound_connection(self.conn)
        assert self.core.on_message(self.conn, self.opening(**fields).encode()) == "handled"
        reply = decode_envelope(self.conn.sent.pop(0))
        assert reply.kind == wire.BLOCKS and wire.verify_envelope(reply)
        self.keys = self.share.link_keys(self.hello, reply.payload, self.identity.node_id,
                                         reply.sender, dialer=True)
        return self

    def frame(self, kind, payload, counter=None, key=None):
        """Wire bytes of `payload` tagged as this end's next frame, or with
        the `counter` and `key` given."""
        if counter is None:
            self.sent += 1
            counter = self.sent
        return tag_frames(kind, 1, payload, self.identity.node_id,
                          [(key or self.keys[0], counter)])[0]

    def body_frame(self, kind, body):
        """Wire bytes of `body`, any bytes at all, as this end's next frame,
        whose tag checks: built around them, as no maker would."""
        self.sent += 1
        tag = self.keys[0].tag(self.sent, b"\x1f".join([kind.encode(), b"1", body]))
        return MessageEnvelope(self.identity.node_id, kind, 1, body, tag, self.sent).encode()

    def send(self, kind, payload):
        """The node's outcome for `payload` sent as this end's next frame."""
        return self.core.on_message(self.conn, self.frame(kind, payload))

    def forged(self, kind, payload):
        """Wire bytes of this end's next frame with its tag changed."""
        return flipped(self.frame(kind, payload))


class Cluster:
    """A handful of NodeCores over the in-memory transport, pumped manually,
    or run with ticks as live nodes run (`run_until`)."""

    def __init__(self, n, params=TEST_PARAMS, seed=1, latency_ms=5, loss_rate=0.0,
                 mine_enabled=True):
        self.queue = EventQueue()
        self.net = MemNetwork(self.queue, random.Random(seed),
                              latency_ms=latency_ms, loss_rate=loss_rate)
        self.params = params
        self.addrs = [f"mem:{i}" for i in range(n)]
        self.nodes = []
        rate = sim_hashrate_per_ms(params)
        for i in range(n):
            identity = NodeIdentity.from_seed(
                hashlib.sha256(f"cluster|{seed}|{i}".encode()).digest())
            core = NodeCore(identity=identity, store=BlockStore(":memory:"),
                            params=params, clock=lambda: self.queue.now,
                            miner=SimMiner(self.queue, rate), mine_enabled=mine_enabled,
                            random_bytes=random.Random(f"cluster|{seed}|{i}").randbytes,
                            dial=lambda addr, i=i: self.net.dial(self.nodes[i], self.addrs[i],
                                                                 addr))
            self.nodes.append(core)
            self.net.listen(self.addrs[i], core)

    def connect(self, i, j):
        """Dial node j from node i now; j becomes one of i's peers, so i's
        tick dials it again whenever their link closes."""
        conn = self.net.dial(self.nodes[i], self.addrs[i], self.addrs[j])
        assert conn is not None
        self.nodes[i].peers[self.addrs[j]] = conn
        self.nodes[i].connect_peer(conn)
        return conn

    def pump(self):
        self.queue.run()

    def run_until(self, end_ms):
        """Run to `end_ms` of virtual time as live nodes run: every TICK_S
        each node ticks, which dials again each of its peers whose link has
        closed. The queue is drained, so the run may end past `end_ms`."""
        step = int(TICK_S * 1000)
        for t in range(self.queue.now // step * step + step, end_ms + 1, step):
            self.queue.at(t, self.tick)
        self.queue.run()

    def tick(self):
        for core in self.nodes:
            core.tick()

    def heads(self):
        return [core.store.chain_info()[1] for core in self.nodes]

    def submit(self, i, tx):
        results = []
        self.nodes[i].submit_tx(tx, results.append)
        return results


@pytest.fixture
def cluster_factory():
    made = []

    def make(n, **kwargs):
        cluster = Cluster(n, **kwargs)
        made.append(cluster)
        return cluster

    yield make
    for cluster in made:
        for core in cluster.nodes:
            core.close()
            core.store.close()
