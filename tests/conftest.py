"""Shared fixtures, chain builders and an in-memory node cluster."""

import hashlib
import os
import threading
import time
from pathlib import Path

import pytest

from powdb.chain import Block, ChainParams, block_hash, genesis_block
from powdb.consensus import create_new_block, mine_block
from powdb.node import NodeCore
from powdb.simnet import EventQueue, MemNetwork, SimMiner
from powdb.sim import sim_hashrate_per_ms
from powdb.store import BlockStore
from powdb.wire import NodeIdentity


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


TEST_PARAMS = ChainParams(target_block_interval_ms=2000, initial_difficulty=6,
                          min_difficulty=4, max_difficulty=10)


class Cluster:
    """A handful of NodeCores over the in-memory transport, pumped manually."""

    def __init__(self, n, params=TEST_PARAMS, seed=1, latency_ms=5, loss_rate=0.0,
                 mine_enabled=True):
        self.queue = EventQueue()
        import random
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
                            miner=SimMiner(self.queue, rate), mine_enabled=mine_enabled)
            self.nodes.append(core)
            self.net.listen(self.addrs[i], core)

    def connect(self, i, j):
        conn = self.net.dial(self.nodes[i], self.addrs[i], self.addrs[j])
        assert conn is not None
        self.nodes[i].connect_peer(conn)
        return conn

    def pump(self):
        self.queue.run()

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
