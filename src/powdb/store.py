"""Durable, atomic persistence for the chain and contract state.

One sqlite file per node holds the block table, the contract key-value
state and deployed contract sources. The block table is the only record
of the chain: count and tip are read from it, so an append is one insert.
Every mutation runs inside a transaction guarded by one lock, so a crash
at any point leaves the previous committed state. Transactions nest: a
caller that wraps a block append (or a chain swap) and the contract
effects of its payloads in one `transaction()` commits them together or
not at all.
"""

from __future__ import annotations

import sqlite3
import threading
from contextlib import contextmanager
from pathlib import Path

from powdb.chain import Block, MalformedBlockError, check_linkage

_SCHEMA = """
CREATE TABLE IF NOT EXISTS blocks (
    idx        INTEGER PRIMARY KEY,
    timestamp  INTEGER NOT NULL,
    data       TEXT    NOT NULL,
    prev_hash  TEXT    NOT NULL,
    hash       TEXT    NOT NULL,
    difficulty INTEGER NOT NULL,
    nonce      INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS state (
    contract_id TEXT NOT NULL,
    key         TEXT NOT NULL,
    value       INTEGER NOT NULL,
    version     INTEGER NOT NULL,
    PRIMARY KEY (contract_id, key)
);
CREATE TABLE IF NOT EXISTS contracts (
    contract_id TEXT PRIMARY KEY,
    source      TEXT NOT NULL,
    deployed_at INTEGER NOT NULL
);
"""

_SELECT_BLOCKS = "SELECT idx, timestamp, data, prev_hash, hash, difficulty, nonce FROM blocks"


class StoreError(Exception):
    """Persistence failure; the store is unchanged."""


class NotFoundError(StoreError):
    """The requested block or key does not exist."""


class BlockStore:
    """Single-file embedded store owned by one node process.

    All mutations are serialized behind one reentrant lock; readers see only
    committed state. An append is one insert inside one transaction, with
    an optional crash hook before its commit for fault-injection tests. The
    store never executes payloads: a block and the state its payload writes
    are atomic because the caller runs both in one `transaction()`.
    """

    def __init__(self, path: str | Path = ":memory:"):
        self.path = str(path)
        try:
            self._conn = sqlite3.connect(self.path, check_same_thread=False,
                                         isolation_level=None)
            self._conn.execute("PRAGMA synchronous=FULL")
            self._conn.executescript(_SCHEMA)
        except sqlite3.Error as exc:
            raise StoreError(f"cannot open store at {self.path}: {exc}") from exc
        self._lock = threading.RLock()
        self._txn_depth = 0
        self._crash_hook = None  # test-only: callable(step_label)

    def close(self) -> None:
        self._conn.close()

    @contextmanager
    def transaction(self):
        """Reentrant exclusive transaction; rolls back on any exception."""
        with self._lock:
            if self._txn_depth > 0:
                self._txn_depth += 1
                try:
                    yield
                finally:
                    self._txn_depth -= 1
                return
            self._conn.execute("BEGIN IMMEDIATE")
            self._txn_depth = 1
            try:
                yield
            except BaseException:
                self._txn_depth = 0
                self._conn.execute("ROLLBACK")
                raise
            else:
                self._txn_depth = 0
                self._conn.execute("COMMIT")

    def _hook(self, step: str) -> None:
        if self._crash_hook is not None:
            self._crash_hook(step)

    # -- block chain ------------------------------------------------------

    def add_block(self, block: Block) -> None:
        """Append one block; index must equal the current count."""
        with self._lock:
            count = self.get_block_count()
            if block.index != count:
                raise StoreError(f"append at index {block.index} but store holds {count} blocks")
            try:
                with self.transaction():
                    self._conn.execute(
                        "INSERT INTO blocks VALUES (?,?,?,?,?,?,?)",
                        (block.index, block.timestamp, block.data, block.prev_hash,
                         block.hash, block.difficulty, block.nonce))
                    self._hook("block_inserted")
            except sqlite3.Error as exc:
                raise StoreError(f"append failed: {exc}") from exc

    def get_block_count(self) -> int:
        return self.chain_info()[0]

    def chain_info(self) -> tuple[int, str | None]:
        """Count and tip hash, read from the tip row in one query."""
        with self._lock:
            row = self._conn.execute(
                "SELECT idx, hash FROM blocks ORDER BY idx DESC LIMIT 1").fetchone()
        # indices are dense from 0 (add_block and replace_chain enforce it)
        return (row[0] + 1, row[1]) if row is not None else (0, None)

    def get_block(self, index: int) -> Block:
        with self._lock:
            row = self._conn.execute(_SELECT_BLOCKS + " WHERE idx = ?", (index,)).fetchone()
        if row is None:
            raise NotFoundError(f"no block at index {index}")
        return _row_to_block(row)

    def get_all_blocks(self) -> list[Block]:
        return self.get_blocks(0)

    def get_blocks(self, start: int, stop: int = 2**63 - 1) -> list[Block]:
        """The blocks with start <= index < stop, in order; to the tip by default."""
        with self._lock:
            rows = self._conn.execute(
                _SELECT_BLOCKS + " WHERE idx >= ? AND idx < ? ORDER BY idx",
                (start, stop)).fetchall()
        return [_row_to_block(r) for r in rows]

    def get_hashes(self, indices: list[int]) -> dict[int, str]:
        """The hash of each stored block among `indices`, by index, in one query."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT idx, hash FROM blocks WHERE idx IN (%s)" % ",".join("?" * len(indices)),
                indices).fetchall()
        return dict(rows)

    def tip(self) -> Block:
        with self._lock:
            row = self._conn.execute(_SELECT_BLOCKS + " ORDER BY idx DESC LIMIT 1").fetchone()
        if row is None:
            raise NotFoundError("store holds no blocks")
        return _row_to_block(row)

    def replace_chain(self, new_chain: list[Block]) -> None:
        """Atomically swap the whole chain, wiping contract state and sources.

        A caller that re-executes the new chain's payloads does so inside
        its own enclosing transaction, so a failure rolls everything back.
        The new chain must be structurally linked and keep the stored genesis.
        """
        if not new_chain:
            raise StoreError("replacement chain may not be empty")
        try:
            check_linkage(new_chain)
        except MalformedBlockError as exc:
            raise StoreError(f"replacement chain rejected: {exc}") from exc
        if new_chain[0].index != 0:
            raise StoreError("replacement chain must start at the genesis index")
        with self._lock:
            if self.get_block_count() > 0 and self.get_block(0) != new_chain[0]:
                raise StoreError("replacement chain has a different genesis")
            try:
                with self.transaction():
                    self._conn.execute("DELETE FROM blocks")
                    self._conn.execute("DELETE FROM state")
                    self._conn.execute("DELETE FROM contracts")
                    self._conn.executemany(
                        "INSERT INTO blocks VALUES (?,?,?,?,?,?,?)",
                        [(b.index, b.timestamp, b.data, b.prev_hash, b.hash,
                          b.difficulty, b.nonce) for b in new_chain])
            except sqlite3.Error as exc:
                raise StoreError(f"replace failed: {exc}") from exc

    # -- contract state ---------------------------------------------------

    def get_state(self, contract_id: str, key: str) -> int | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM state WHERE contract_id = ? AND key = ?",
                (contract_id, key)).fetchone()
        return row[0] if row is not None else None

    def put_state(self, contract_id: str, key: str, value: int, version: int) -> None:
        """Write one state cell; `version` is the block index of this write."""
        with self.transaction():
            self._conn.execute(
                "INSERT INTO state VALUES (?,?,?,?)"
                " ON CONFLICT (contract_id, key) DO UPDATE"
                " SET value = excluded.value, version = excluded.version",
                (contract_id, key, value, version))

    def get_state_version(self, contract_id: str, key: str) -> int | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT version FROM state WHERE contract_id = ? AND key = ?",
                (contract_id, key)).fetchone()
        return row[0] if row is not None else None

    def all_state(self) -> dict[tuple[str, str], int]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT contract_id, key, value FROM state").fetchall()
        return {(cid, key): value for cid, key, value in rows}

    # -- contract sources -------------------------------------------------

    def get_contract(self, contract_id: str) -> str | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT source FROM contracts WHERE contract_id = ?",
                (contract_id,)).fetchone()
        return row[0] if row is not None else None

    def put_contract(self, contract_id: str, source_json: str, deployed_at: int) -> None:
        with self.transaction():
            self._conn.execute(
                "INSERT OR IGNORE INTO contracts VALUES (?,?,?)",
                (contract_id, source_json, deployed_at))


def _row_to_block(row) -> Block:
    idx, timestamp, data, prev_hash, hash_hex, difficulty, nonce = row
    return Block(index=idx, timestamp=timestamp, data=data, prev_hash=prev_hash,
                 hash=hash_hex, difficulty=difficulty, nonce=nonce)
