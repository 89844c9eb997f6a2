"""Durability, atomicity and serialized access of the embedded store."""

import os
import signal
import sqlite3
import subprocess
import sys
import threading

import pytest

from powdb import store as store_module
from powdb.chain import genesis_block
from powdb.store import LAYOUT, BlockStore, NotFoundError, StoreError

from conftest import RETARGET, assert_no_log, linked_chain, state_version


class SimulatedCrash(Exception):
    pass


class TestAppendAndFetch:
    def test_append_genesis_to_empty(self, store_path):
        store = BlockStore(store_path)
        store.add_block(genesis_block(), RETARGET)
        assert store.get_block_count() == 1

    def test_gap_append_rejected(self, store_path):
        store = BlockStore(store_path)
        chain = linked_chain([4, 4, 4, 4, 4])
        for blk in chain[:3]:
            store.add_block(blk, RETARGET)
        with pytest.raises(StoreError):
            store.add_block(chain[5], RETARGET)
        assert store.get_block_count() == 3

    def test_duplicate_index_rejected(self, store_path):
        store = BlockStore(store_path)
        store.add_block(genesis_block(), RETARGET)
        with pytest.raises(StoreError):
            store.add_block(genesis_block(), RETARGET)

    def test_reopen_yields_identical_blocks(self, store_path):
        chain = linked_chain([4, 5, 6])
        store = BlockStore(store_path)
        for blk in chain:
            store.add_block(blk, RETARGET)
        store.close()
        reopened = BlockStore(store_path)
        assert reopened.get_all_blocks() == chain

    def test_count_queries(self, store_path):
        store = BlockStore(store_path)
        assert store.get_block_count() == 0
        for blk in linked_chain([4, 4]):
            store.add_block(blk, RETARGET)
        assert store.get_block_count() == 3
        store.get_all_blocks()
        assert store.get_block_count() == 3  # reads leave count alone

    def test_latest_hash(self, store_path):
        store = BlockStore(store_path)
        with pytest.raises(NotFoundError):
            store.tip()
        assert store.chain_info() == (0, None)
        chain = linked_chain([4])
        store.add_block(chain[0], RETARGET)
        assert store.chain_info()[1] == store.tip().hash == chain[0].hash
        store.add_block(chain[1], RETARGET)
        assert store.chain_info()[1] == store.tip().hash == chain[1].hash

    def test_get_block(self, store_path):
        store = BlockStore(store_path)
        chain = linked_chain([4, 4])
        for blk in chain:
            store.add_block(blk, RETARGET)
        assert store.get_block(0) == genesis_block()
        assert store.get_block(2) == chain[2]
        with pytest.raises(NotFoundError):
            store.get_block(5)

    def test_get_all_blocks_ordering(self, store_path):
        store = BlockStore(store_path)
        assert store.get_all_blocks() == []
        chain = linked_chain([4, 4, 4])
        for blk in chain:
            store.add_block(blk, RETARGET)
        fetched = store.get_all_blocks()
        assert fetched == chain
        assert fetched == [store.get_block(i) for i in range(store.get_block_count())]

    def test_range_and_hash_reads(self, store_path):
        store = BlockStore(store_path)
        chain = linked_chain([4, 4, 4, 4])
        for blk in chain:
            store.add_block(blk, RETARGET)
        assert store.get_blocks(0) == chain
        assert store.get_blocks(2) == chain[2:]
        assert store.get_blocks(1, 3) == chain[1:3]
        assert store.get_blocks(5) == store.get_blocks(3, 3) == []
        assert store.get_hashes([4, 0, 9]) == {4: chain[4].hash, 0: chain[0].hash}
        assert store.get_hashes([]) == {}

    def test_round_trip_across_restart_random_chains(self, store_path, tmp_path):
        import random
        rng = random.Random(5)
        for round_no in range(5):
            path = tmp_path / f"round{round_no}.db"
            chain = linked_chain([rng.randrange(1, 12) for _ in range(rng.randrange(1, 9))],
                                 data_prefix=f"r{round_no}")
            store = BlockStore(path)
            for blk in chain:
                store.add_block(blk, RETARGET)
            store.close()
            assert BlockStore(path).get_all_blocks() == chain


class TestReplaceChain:
    """replace_chain drops a stored tail with the state and contracts it wrote."""

    CID = "c" * 64

    @staticmethod
    def filled(store_path, chain):
        store = BlockStore(store_path)
        for blk in chain:
            store.add_block(blk, RETARGET + blk.index)  # a distinct difficulty per block
        return store

    def test_identical_replacement_is_noop(self, store_path):
        chain = linked_chain([4, 4, 4])
        store = self.filled(store_path, chain)
        assert store.replace_chain(chain[2:]) == RETARGET + 1
        for blk in chain[2:]:
            store.add_block(blk, RETARGET + blk.index)
        assert store.get_all_blocks() == chain
        assert store.chain_info()[1] == store.tip().hash == chain[-1].hash
        assert store.tip_retarget() == RETARGET + 3

    def test_longer_chain_adopted(self, store_path):
        old = linked_chain([4, 4], data_prefix="old")
        store = self.filled(store_path, old)
        newer = linked_chain([4, 4, 4, 4], data_prefix="new")
        assert store.replace_chain(old[1:]) == RETARGET
        for blk in newer[1:]:
            store.add_block(blk, 7.5)
        assert store.get_block_count() == 5
        assert store.get_all_blocks() == newer
        assert store.tip_retarget() == 7.5

    def test_shorter_chain_adopted(self, store_path):
        old = linked_chain([4, 4, 4], data_prefix="old")
        store = self.filled(store_path, old)
        heavier = linked_chain([4, 12], data_prefix="old")  # shares block 1 with old
        assert heavier[1] == old[1]
        assert store.replace_chain(old[2:]) == RETARGET + 1
        store.add_block(heavier[2], 9.25)
        assert store.chain_info() == (3, heavier[-1].hash)
        assert store.tip() == heavier[-1]
        assert store.get_all_blocks() == heavier
        assert store.tip_retarget() == 9.25

    def test_tail_at_genesis_refused(self, store_path):
        from dataclasses import replace
        from powdb.chain import block_hash
        old = linked_chain([4])
        store = self.filled(store_path, old)
        fake_root = replace(genesis_block(), data="OTHER", hash="")
        fake_root = fake_root.with_hash(block_hash(fake_root))
        for tail in (old, [fake_root], []):
            with pytest.raises(StoreError):
                store.replace_chain(tail)
        assert store.get_all_blocks() == old

    def test_tail_not_stored_refused(self, store_path):
        chain = linked_chain([4, 4, 4])
        store = self.filled(store_path, chain)
        store.put_state(self.CID, "x", 1, 3)
        other = linked_chain([4, 4, 4], data_prefix="other")
        not_tails = {
            "short-of-the-tip": chain[1:3],
            "broken-linkage": [chain[1], chain[3]],
            "another-fork": other[2:],
            "past-the-tip": linked_chain([4, 4, 4, 4])[3:],
        }
        for name, tail in not_tails.items():
            with pytest.raises(StoreError):
                store.replace_chain(tail)
            assert store.get_all_blocks() == chain, name
        assert store.get_state(self.CID, "x") == 1

    def test_rebuild_callback_runs_in_same_transaction(self, store_path):
        old = linked_chain([4, 4], data_prefix="old")
        store = self.filled(store_path, old)
        store.put_state(self.CID, "stale", 9, 2)
        newer = linked_chain([4, 4], data_prefix="new")
        audit = BlockStore(store_path)

        with store.transaction():
            store.replace_chain(old[1:])
            store.add_block(newer[1], 6.0)
            store.put_state(self.CID, "fresh", 42, 1)
            # an independent connection sees none of it before the commit
            assert audit.get_all_blocks() == old
            assert audit.all_state() == {(self.CID, "stale"): 9}
        assert audit.get_all_blocks() == newer[:2]
        assert audit.all_state() == {(self.CID, "fresh"): 42}
        audit.close()

    def test_rebuild_failure_rolls_everything_back(self, store_path):
        old = linked_chain([4, 4], data_prefix="old")
        store = self.filled(store_path, old)
        store.put_state(self.CID, "keep", 7, 2)
        store.put_contract(self.CID, "[]", 2)

        with pytest.raises(SimulatedCrash):
            with store.transaction():
                store.replace_chain(old[1:])
                store.add_block(linked_chain([4], data_prefix="new")[1], 6.0)
                store.put_state(self.CID, "keep", 8, 1)
                raise SimulatedCrash()
        assert store.get_all_blocks() == old
        assert store.get_state(self.CID, "keep") == 7
        assert state_version(store, self.CID, "keep") == 2
        assert store.get_contract(self.CID) == "[]"
        assert store.tip_retarget() == RETARGET + 2

    def test_dropped_write_uncovers_the_older_value(self, store_path):
        chain = linked_chain([4, 4, 4])
        store = self.filled(store_path, chain)
        for version, value in ((1, 5), (2, 6), (3, 7)):
            store.put_state(self.CID, "x", value, version)
        store.put_state(self.CID, "y", 1, 3)
        store.replace_chain(chain[2:])
        assert store.get_state(self.CID, "x") == 5
        assert state_version(store, self.CID, "x") == 1
        assert store.get_state(self.CID, "y") is None
        assert store.all_state() == {(self.CID, "x"): 5}

    def test_contract_deployed_in_the_tail_is_gone(self, store_path):
        chain = linked_chain([4, 4, 4])
        store = self.filled(store_path, chain)
        for deployed_at in (1, 2, 3):
            store.put_contract(str(deployed_at) * 64, "[]", deployed_at)
        store.replace_chain(chain[2:])
        assert store.get_contract("1" * 64) == "[]"
        assert store.get_contract("2" * 64) is None
        assert store.get_contract("3" * 64) is None


def traced(store) -> list[str]:
    """Record every SQL statement the store's connection runs from now on."""
    statements = []
    store._conn.set_trace_callback(statements.append)
    return statements


class TestChainRecord:
    """The block table is the only record of the chain."""

    WRITES = ("INSERT", "UPDATE", "DELETE", "REPLACE")

    def test_append_is_one_insert(self, store_path):
        store = BlockStore(store_path)
        chain = linked_chain([4])
        store.add_block(chain[0], RETARGET)
        statements = traced(store)
        store.add_block(chain[1], RETARGET)
        writes = [sql for sql in statements if sql.split()[0].upper() in self.WRITES]
        assert len(writes) == 1
        assert writes[0].startswith("INSERT INTO blocks")

    @pytest.mark.parametrize("read", ["tip", "chain_info"])
    def test_tip_read_is_one_select(self, store_path, read):
        """The first tip read after opening runs one SELECT, of the tip row,
        which the store keeps: later reads run none until a tail drop or a
        rollback clears it, and the first read after one runs one again."""
        chain = linked_chain([4, 4, 4])
        store = BlockStore(store_path)
        for blk in chain[:3]:
            store.add_block(blk, RETARGET)
        store.close()
        store = BlockStore(store_path)

        def statements():
            run = traced(store)
            getattr(store, read)()
            return [sql.split()[0].upper() for sql in run]

        assert statements() == ["SELECT"]
        assert statements() == []
        store.add_block(chain[3], RETARGET)  # an append sets the kept row
        assert statements() == []
        store.replace_chain(chain[3:])
        assert statements() == ["SELECT"]
        assert statements() == []
        with pytest.raises(SimulatedCrash):
            with store.transaction():
                store.add_block(chain[3], RETARGET)
                raise SimulatedCrash()
        assert statements() == ["SELECT"]
        assert statements() == []
        assert store.tip() == chain[2]

    def test_new_file_carries_the_layout(self, store_path):
        BlockStore(store_path).close()
        conn = sqlite3.connect(store_path)
        assert conn.execute("PRAGMA user_version").fetchone()[0] == LAYOUT == 1
        conn.close()

    def test_file_with_meta_table_is_refused_unchanged(self, store_path):
        """A file from a build that kept count and tip in a `meta` table, and
        state cells without their history, is refused and left as it was."""
        chain = linked_chain([4, 4, 4])
        conn = sqlite3.connect(store_path)
        conn.executescript("""
            CREATE TABLE blocks (idx INTEGER PRIMARY KEY, timestamp INTEGER NOT NULL,
                data TEXT NOT NULL, prev_hash TEXT NOT NULL, hash TEXT NOT NULL,
                difficulty INTEGER NOT NULL, nonce INTEGER NOT NULL);
            CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
            CREATE TABLE state (contract_id TEXT NOT NULL, key TEXT NOT NULL,
                value INTEGER NOT NULL, version INTEGER NOT NULL,
                PRIMARY KEY (contract_id, key));
            CREATE TABLE contracts (contract_id TEXT PRIMARY KEY, source TEXT NOT NULL,
                deployed_at INTEGER NOT NULL);
        """)
        conn.executemany("INSERT INTO blocks VALUES (?,?,?,?,?,?,?)",
                         [(b.index, b.timestamp, b.data, b.prev_hash, b.hash,
                           b.difficulty, b.nonce) for b in chain[:3]])
        conn.executemany("INSERT INTO meta VALUES (?,?)",
                         [("count", "3"), ("tip_hash", chain[2].hash), ("state_applied", "1")])
        conn.commit()
        conn.close()
        before = store_path.read_bytes()

        with pytest.raises(StoreError, match="layout"):
            BlockStore(store_path)
        assert store_path.read_bytes() == before
        assert_no_log(store_path)

    def test_file_of_a_newer_layout_is_refused(self, store_path):
        conn = sqlite3.connect(store_path)
        conn.execute(f"PRAGMA user_version = {LAYOUT + 1}")
        conn.close()
        before = store_path.read_bytes()
        with pytest.raises(StoreError, match="layout"):
            BlockStore(store_path)
        assert store_path.read_bytes() == before
        assert_no_log(store_path)


class TestWriteAhead:
    """A file store writes ahead: a commit is one append to `<db>-wal` and
    one fsync, which a clean close folds back into `<db>`."""

    def test_file_store_writes_ahead_and_syncs_every_commit(self, store_path):
        store = BlockStore(store_path)
        assert store._conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert store._conn.execute("PRAGMA synchronous").fetchone()[0] == 2  # FULL
        store.add_block(genesis_block(), RETARGET)
        assert os.path.exists(f"{store_path}-wal")
        store.close()
        assert_no_log(store_path)
        assert BlockStore(store_path).get_all_blocks() == [genesis_block()]

    def test_memory_store_keeps_its_memory_journal(self):
        store = BlockStore(":memory:")
        assert store._conn.execute("PRAGMA journal_mode").fetchone()[0] == "memory"


def layout(store):
    """The schema rows and the layout number a store's database carries."""
    with store._lock:
        return (store._conn.execute("SELECT type, name, tbl_name, sql FROM sqlite_master"
                                    " ORDER BY name").fetchall(),
                store._conn.execute("PRAGMA user_version").fetchone()[0])


class TestMemoryImage:
    """A memory store is a copy of one empty image per process."""

    def test_open_runs_no_create_and_no_select_before_the_first_append(self, store_path,
                                                                       monkeypatch):
        BlockStore(":memory:").close()  # the image exists from here on
        statements, real_connect = [], sqlite3.connect

        def traced_connect(*args, **kwargs):
            conn = real_connect(*args, **kwargs)
            conn.set_trace_callback(statements.append)
            return conn

        monkeypatch.setattr(sqlite3, "connect", traced_connect)
        store = BlockStore(":memory:")
        assert store.get_block_count() == 0
        store.add_block(genesis_block(), RETARGET)
        monkeypatch.undo()
        assert [sql for sql in statements
                if sql.split()[0].upper() in ("CREATE", "SELECT")] == []
        assert store.get_all_blocks() == [genesis_block()]
        file_store = BlockStore(store_path)
        assert layout(store) == layout(file_store)
        file_store.close()
        store.close()

    def test_new_file_store_reads_its_count_with_no_select(self, store_path):
        store = BlockStore(store_path)
        statements = traced(store)
        assert store.get_block_count() == 0
        assert statements == []
        store.close()

    def test_stores_opened_at_once_get_the_schema_and_only_their_own_rows(
            self, store_path, monkeypatch):
        monkeypatch.setattr(store_module, "_image", None)  # the threads race to build it
        count = 8
        start = threading.Barrier(count)
        results = [None] * count

        def open_and_write(i):
            start.wait(timeout=10)
            store = BlockStore(":memory:")
            try:
                chain = linked_chain([4] * (i % 3 + 1), data_prefix=f"store-{i}")
                for block in chain:
                    store.add_block(block, RETARGET)
                store.put_state("1" * 64, "k", i, 1)
                results[i] = (layout(store), store.get_all_blocks() == chain,
                              store.all_state())
            finally:
                store.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=open_and_write, args=(i,))
                       for i in range(count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        file_store = BlockStore(store_path)
        expected = layout(file_store)
        file_store.close()
        assert results == [(expected, True, {("1" * 64, "k"): i}) for i in range(count)]


class TestTipCopy:
    """The tip row the store keeps always equals the block table's last row:
    after each write path, every read it answers equals what a new store on
    the same file reads from the table."""

    @staticmethod
    def reads(store):
        tip = store.tip()
        return (tip, store.chain_info(), store.get_block_count(), store.tip_retarget(),
                store.get_blocks(tip.index), store.get_blocks(tip.index + 1),
                store.get_hashes([tip.index]), store.get_hashes([tip.index + 1]))

    def assert_coherent(self, store, path):
        fresh = BlockStore(path)
        try:
            assert self.reads(store) == self.reads(fresh)
        finally:
            fresh.close()

    def test_every_write_path_keeps_the_copy_equal_to_the_table(self, store_path):
        chain = linked_chain([4, 4, 4])
        fork = linked_chain([4, 4, 4], data_prefix="fork")
        store = BlockStore(store_path)
        for i, blk in enumerate(chain):
            store.add_block(blk, RETARGET + i)
            self.assert_coherent(store, store_path)

        store.replace_chain(chain[2:])  # a tail drop on its own
        self.assert_coherent(store, store_path)
        assert store.tip() == chain[1] and store.tip_retarget() == RETARGET + 1

        with store.transaction():  # a tail drop and the fork's appends
            store.replace_chain(chain[1:2])
            for i, blk in enumerate(fork[1:], start=1):
                store.add_block(blk, RETARGET + 10 + i)
        self.assert_coherent(store, store_path)
        assert store.tip() == fork[3]

        def crash(label):
            if label == "block_inserted":
                raise SimulatedCrash(label)

        store._crash_hook = crash
        with pytest.raises(SimulatedCrash):  # rolled back after its insert
            store.add_block(linked_chain([4] * 4, data_prefix="fork")[4], RETARGET)
        store._crash_hook = None
        self.assert_coherent(store, store_path)
        assert store.tip() == fork[3]

        store.tip()
        with pytest.raises(StoreError):  # an append at a wrong index
            store.add_block(chain[2], RETARGET)
        self.assert_coherent(store, store_path)
        assert store.tip() == fork[3] and store.tip_retarget() == RETARGET + 13


class FailingConnection:
    """A store connection whose `statement` raises, as a failed COMMIT does;
    every other statement runs on the real connection."""

    def __init__(self, conn, statement: str):
        self.conn, self.statement = conn, statement

    def execute(self, sql, *args):
        if sql == self.statement:
            raise sqlite3.OperationalError(f"{sql} failed")
        return self.conn.execute(sql, *args)

    @property
    def in_transaction(self) -> bool:
        return self.conn.in_transaction


def free_for_another_thread(lock) -> bool:
    """Whether a second thread can take `lock` within two seconds."""
    taken = []

    def take():
        if lock.acquire(timeout=2):
            lock.release()
            taken.append(True)

    thread = threading.Thread(target=take)
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    return taken == [True]


class TestTransaction:
    """`transaction()` nests, holds the store's lock from the outermost entry
    to its exit, and any exit but a commit that returns clears the tip copy."""

    CID = "ab" * 32

    @staticmethod
    def tip_statements(store) -> list[str]:
        run = traced(store)
        store.tip()
        store._conn.set_trace_callback(None)
        return [sql.split()[0].upper() for sql in run]

    def test_depth_is_one_in_the_outermost_transaction_and_zero_after(self, store_path):
        store = BlockStore(store_path)
        assert store._txn_depth == 0
        with store.transaction():
            assert store._txn_depth == 1
            with store.transaction():
                assert store._txn_depth == 2
            assert store._txn_depth == 1
        assert store._txn_depth == 0
        with pytest.raises(SimulatedCrash):
            with store.transaction():
                raise SimulatedCrash()
        assert store._txn_depth == 0

    def test_an_exception_in_a_nested_transaction_rolls_back_the_outer_one(self, store_path):
        chain = linked_chain([4, 4])
        store = BlockStore(store_path)
        store.add_block(chain[0], RETARGET)
        assert self.tip_statements(store) == []
        with pytest.raises(SimulatedCrash):
            with store.transaction():
                store.add_block(chain[1], RETARGET)  # sets the tip copy
                store.put_state(self.CID, "k", 1, 1)
                with store.transaction():
                    store.add_block(chain[2], RETARGET)
                    raise SimulatedCrash()
        assert store._txn_depth == 0
        assert self.tip_statements(store) == ["SELECT"]  # the copy was cleared
        assert store.get_all_blocks() == chain[:1]
        assert store.get_state(self.CID, "k") is None
        assert free_for_another_thread(store._lock)
        store.add_block(chain[1], RETARGET)
        assert store.tip() == chain[1]

    @pytest.mark.parametrize("statement", ["BEGIN IMMEDIATE", "COMMIT"])
    def test_a_statement_that_raises_clears_the_tip_copy_and_releases_the_lock(
            self, store_path, statement):
        chain = linked_chain([4])
        store = BlockStore(store_path)
        store.add_block(chain[0], RETARGET)
        real = store._conn
        store._conn = FailingConnection(real, statement)
        with pytest.raises(sqlite3.OperationalError):
            with store.transaction():
                store.add_block(chain[1], RETARGET)
        store._conn = real
        assert store._txn_depth == 0
        assert not real.in_transaction  # a failed COMMIT's transaction is rolled back
        assert free_for_another_thread(store._lock)
        if statement == "COMMIT":
            assert self.tip_statements(store) == ["SELECT"]
        assert store.get_all_blocks() == chain[:1]
        store.add_block(chain[1], RETARGET)
        assert store.tip() == chain[1]

    def test_a_second_thread_waits_for_the_outer_transaction(self, store_path):
        chain = linked_chain([4])
        store = BlockStore(store_path)
        store.add_block(chain[0], RETARGET)
        entered = threading.Event()

        def other():
            with store.transaction():
                entered.set()

        thread = threading.Thread(target=other)
        with store.transaction():
            with store.transaction():
                thread.start()
                assert not entered.wait(0.2)
            assert not entered.wait(0.1)  # a nested exit releases nothing
            store.add_block(chain[1], RETARGET)
        assert entered.wait(5)
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert store.get_all_blocks() == chain


class TestState:
    CID = "ab" * 32

    def test_absent_key(self, store_path):
        store = BlockStore(store_path)
        assert store.get_state(self.CID, "x") is None

    def test_put_then_get(self, store_path):
        store = BlockStore(store_path)
        store.put_state(self.CID, "x", 5, 3)
        assert store.get_state(self.CID, "x") == 5
        assert state_version(store, self.CID, "x") == 3

    def test_overwrite_updates_version(self, store_path):
        store = BlockStore(store_path)
        store.put_state(self.CID, "x", 5, 3)
        store.put_state(self.CID, "x", -9, 8)
        assert store.get_state(self.CID, "x") == -9
        assert state_version(store, self.CID, "x") == 8

    def test_state_survives_reopen(self, store_path):
        store = BlockStore(store_path)
        store.put_state(self.CID, "k", 2**62, 1)
        store.close()
        assert BlockStore(store_path).get_state(self.CID, "k") == 2**62

    def test_contract_sources(self, store_path):
        store = BlockStore(store_path)
        assert store.get_contract(self.CID) is None
        store.put_contract(self.CID, '[["set","x",5]]', 4)
        assert store.get_contract(self.CID) == '[["set","x",5]]'
        # idempotent re-deploy
        store.put_contract(self.CID, '[["set","x",5]]', 9)
        assert store.get_contract(self.CID) == '[["set","x",5]]'


class TestCrashAtomicity:
    STEPS = ("block_inserted",)

    def test_injected_crash_between_substeps_never_corrupts(self, tmp_path):
        """Crash before the commit of every append of a 35-block chain:
        35 injection points, each followed by a reopen-and-audit."""
        chain = linked_chain([4] * 34)
        path = tmp_path / "victim.db"
        store = BlockStore(path)
        injections = 0
        for blk in chain:
            before = store.chain_info()
            for step in self.STEPS:
                def crash(label, _step=step):
                    if label == _step:
                        raise SimulatedCrash(label)

                store._crash_hook = crash
                with pytest.raises(SimulatedCrash):
                    store.add_block(blk, RETARGET)
                store._crash_hook = None
                injections += 1
                # audit through an independent connection on the same file
                audit = BlockStore(path)
                count, tip = audit.chain_info()
                assert (count, tip) == before
                if count > 0:
                    assert audit.get_block(count - 1).hash == tip
                audit.close()
            store.add_block(blk, RETARGET)
        assert injections == 35
        assert store.get_all_blocks() == chain

    @pytest.mark.parametrize("step", STEPS)
    def test_hard_kill_mid_append(self, tmp_path, step):
        """SIGKILL the process between append sub-steps; the journal must
        restore the pre-append state on reopen."""
        path = tmp_path / "killed.db"
        script = f"""
import os, signal, sys
sys.path.insert(0, {str(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))!r})
from powdb.store import BlockStore
from tests.conftest import RETARGET, linked_chain

chain = linked_chain([4] * 4)
store = BlockStore({str(path)!r})
for blk in chain[:3]:
    store.add_block(blk, RETARGET)

def die(label):
    if label == {step!r}:
        os.kill(os.getpid(), signal.SIGKILL)

store._crash_hook = die
store.add_block(chain[3], RETARGET)
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True)
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        store = BlockStore(path)
        count, tip = store.chain_info()
        assert count == 3
        assert store.get_block(2).hash == tip
        assert store.get_all_blocks() == linked_chain([4] * 4)[:3]

    def test_hard_kill_after_commits_keeps_every_block(self, tmp_path):
        """SIGKILL the process right after its appends return, before any
        close: every returned append is in the file on reopen."""
        path = tmp_path / "killed.db"
        script = f"""
import os, signal, sys
sys.path.insert(0, {str(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))!r})
from powdb.store import BlockStore
from tests.conftest import RETARGET, linked_chain

store = BlockStore({str(path)!r})
for blk in linked_chain([4] * 9):
    store.add_block(blk, RETARGET)
os.kill(os.getpid(), signal.SIGKILL)
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True)
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        assert os.path.exists(f"{path}-wal")  # not folded back: the log holds the commits
        chain = linked_chain([4] * 9)
        store = BlockStore(path)
        assert store.chain_info() == (10, chain[-1].hash)
        assert store.get_all_blocks() == chain


class TestSerializedAccess:
    def test_concurrent_appends_and_reads(self, store_path):
        store = BlockStore(store_path)
        chain = linked_chain([4] * 60)
        errors = []
        done = threading.Event()

        def writer():
            try:
                for blk in chain:
                    store.add_block(blk, RETARGET)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                done.set()

        def reader():
            try:
                while not done.is_set():
                    count, tip = store.chain_info()
                    assert (count == 0) == (tip is None)
                    if count > 0:
                        # committed blocks are immutable, so this holds even
                        # if more appends landed since the snapshot
                        assert store.get_block(count - 1).hash == tip
                        assert len(store.get_all_blocks()) >= count
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert store.get_block_count() == 61
