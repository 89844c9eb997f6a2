"""Durable, atomic persistence for the chain and contract state.

One sqlite file per node holds the block table, the contract key-value
state and deployed contract sources. The block table is the only record
of the chain, so an append is one insert. Its last row, the tip block and
the difficulty after it, is read once and kept until a write: reads of
the tip, the count and the tip's height are answered from that copy, which
an append sets and a tail drop or a transaction that does not commit
clears; a store whose tables were just made starts it at "no blocks". A
block row keeps the difficulty after it, and a state or contract
row the index of the block that wrote it, so dropping a tail deletes only
its rows.
A store has one user at a time, so it takes no lock. Every mutation runs
inside a transaction, so a crash at any point leaves the previous committed
state. Transactions nest: a caller that wraps a tail drop, block appends and
the contract effects of their payloads in one `transaction()` commits them
together or not at all.

A file store writes ahead (SQLite WAL mode): a commit is one append to
`<db>-wal` and one fsync, so a write is on disk when its commit returns.
`synchronous=FULL` is kept on purpose, as `NORMAL` could lose acknowledged
writes on power loss. `<db>-wal` and `<db>-shm` belong to the running
store; `close()` folds the log back into `<db>` and removes both, and a
store opened after a crash replays what the log holds. A file store
creates its tables inside its own `BEGIN IMMEDIATE`, so a second process
that opens the same new file waits for them.

A memory store keeps no file and SQLite's memory journal. It is a copy of
one empty image that each process builds from `_SCHEMA` at the first
memory store it opens, so opening one runs no statement of the schema.
"""

from __future__ import annotations

import atexit
import sqlite3
import threading
from pathlib import Path

from powdb.chain import Block

# The layout a store file carries in `PRAGMA user_version`.
LAYOUT = 1
_SCHEMA = f"""
CREATE TABLE blocks (
    idx        INTEGER PRIMARY KEY,
    timestamp  INTEGER NOT NULL,
    data       TEXT    NOT NULL,
    prev_hash  TEXT    NOT NULL,
    hash       TEXT    NOT NULL,
    difficulty INTEGER NOT NULL,
    nonce      INTEGER NOT NULL,
    retarget   REAL    NOT NULL  -- the chain's difficulty after this block
);
CREATE TABLE state (
    contract_id TEXT NOT NULL,
    key         TEXT NOT NULL,
    value       INTEGER NOT NULL,
    version     INTEGER NOT NULL,  -- the index of the block that wrote it
    PRIMARY KEY (contract_id, key, version)
);
CREATE TABLE contracts (
    contract_id TEXT PRIMARY KEY,
    source      TEXT NOT NULL,
    deployed_at INTEGER NOT NULL
);
PRAGMA user_version = {LAYOUT}
"""

_COLUMNS = "idx, timestamp, data, prev_hash, hash, difficulty, nonce"
_SELECT_BLOCKS = f"SELECT {_COLUMNS} FROM blocks"
_SELECT_TIP = f"SELECT {_COLUMNS}, retarget FROM blocks ORDER BY idx DESC LIMIT 1"
# The tip copy before it is read, or after a write path clears it.
_UNREAD = object()
# The empty memory store every memory store copies, built at the first one
# a process opens. Stores are opened on many threads (each node's builder,
# tests), so the lock guards its build and each copy.
_image: sqlite3.Connection | None = None
_image_lock = threading.Lock()


def _create_tables(conn: sqlite3.Connection) -> None:
    for statement in _SCHEMA.split(";"):  # executescript would commit
        conn.execute(statement)


def _copy_empty_image(conn: sqlite3.Connection) -> None:
    """Fill `conn`, a new memory database, with the tables and layout of an empty store."""
    global _image
    with _image_lock:
        if _image is None:
            image = sqlite3.connect(":memory:", check_same_thread=False,
                                    isolation_level=None)
            atexit.register(image.close)
            _create_tables(image)
            _image = image
        _image.backup(conn)


class StoreError(Exception):
    """Persistence failure; the store is unchanged."""


class NotFoundError(StoreError):
    """The requested block or key does not exist."""


class BlockStore:
    """Single-file embedded store owned by one node process.

    One thread uses a store at a time, handed over only where a thread's
    start or join orders it; readers see only committed state. An append is
    one insert inside one transaction, with
    an optional crash hook before its commit for fault-injection tests. The
    store never executes payloads: a block and the state its payload writes
    are atomic because the caller runs both in one `transaction()`. The
    store is its file's only writer, so its copy of the tip row always
    equals the table's last row.
    """

    def __init__(self, path: str | Path = ":memory:"):
        self.path = str(path)
        self._txn_depth = 0
        self._crash_hook = None  # test-only: callable(step_label)
        self._tip = _UNREAD  # (tip block, retarget), or None for an empty store
        self._txn = _Transaction(self)  # keeps no state of its own, so every entry shares it
        try:
            # not tied to one thread: a node writes genesis, then its loop takes the store
            self._conn = sqlite3.connect(self.path, check_same_thread=False,
                                         isolation_level=None)
            try:
                if self.path == ":memory:":
                    _copy_empty_image(self._conn)
                    layout, self._tip = LAYOUT, None
                else:
                    self._conn.execute("PRAGMA synchronous=FULL")
                    with self.transaction():  # an empty file gets the tables
                        layout = self._conn.execute("PRAGMA user_version").fetchone()[0]
                        if not layout and not self._conn.execute(
                                "SELECT * FROM sqlite_master").fetchone():
                            _create_tables(self._conn)
                            layout, self._tip = LAYOUT, None  # the commit keeps the copy
                    if layout == LAYOUT:  # only now, as WAL mode rewrites the file header
                        self._conn.execute("PRAGMA journal_mode=WAL")
                if layout != LAYOUT:  # any other layout is refused, the file unchanged
                    raise StoreError(f"{self.path} does not hold store layout {LAYOUT}")
            except BaseException:
                self._conn.close()  # a store that fails to open keeps no connection
                raise
        except sqlite3.Error as exc:
            raise StoreError(f"cannot open store at {self.path}: {exc}") from exc

    def close(self) -> None:
        self._conn.close()

    def transaction(self) -> _Transaction:
        """Reentrant exclusive transaction; rolls back on any exception. Any
        exit but a commit that returns clears the tip copy. Only the
        outermost entry and exit run SQL."""
        return self._txn

    # -- block chain ------------------------------------------------------

    def add_block(self, block: Block, retarget: float) -> None:
        """Append one block and the chain's difficulty after it at index == count."""
        try:
            with self.transaction():
                count = self.get_block_count()
                if block.index != count:
                    raise StoreError(f"append at index {block.index} but store holds {count} blocks")
                self._conn.execute(
                    "INSERT INTO blocks VALUES (?,?,?,?,?,?,?,?)",
                    (block.index, block.timestamp, block.data, block.prev_hash,
                     block.hash, block.difficulty, block.nonce, retarget))
                self._tip = (block, retarget)
                if self._crash_hook is not None:
                    self._crash_hook("block_inserted")
        except sqlite3.Error as exc:
            raise StoreError(f"append failed: {exc}") from exc

    def _tip_row(self) -> tuple[Block, float] | None:
        """The tip block and the difficulty after it, or None for an empty
        store: read from the table once, then kept until a write clears it."""
        if self._tip is _UNREAD:
            row = self._conn.execute(_SELECT_TIP).fetchone()
            self._tip = None if row is None else (_row_to_block(row[:7]), row[7])
        return self._tip

    def get_block_count(self) -> int:
        return self.chain_info()[0]

    def chain_info(self) -> tuple[int, str | None]:
        """Count and tip hash."""
        tip = self._tip_row()
        # indices are dense from 0 (add_block appends, replace_chain drops a tail)
        return (tip[0].index + 1, tip[0].hash) if tip is not None else (0, None)

    def get_block(self, index: int) -> Block:
        row = self._conn.execute(_SELECT_BLOCKS + " WHERE idx = ?", (index,)).fetchone()
        if row is None:
            raise NotFoundError(f"no block at index {index}")
        return _row_to_block(row)

    def get_all_blocks(self) -> list[Block]:
        return self.get_blocks(0)

    def get_blocks(self, start: int, stop: int = 2**63 - 1) -> list[Block]:
        """The blocks with start <= index < stop, in order; to the tip by default."""
        tip = self._tip_row()
        if tip is None:
            return []
        block = tip[0]
        if start >= block.index:  # at most the tip
            return [block] if start == block.index < stop else []
        rows = self._conn.execute(
            _SELECT_BLOCKS + " WHERE idx >= ? AND idx < ? ORDER BY idx",
            (start, stop)).fetchall()
        return [_row_to_block(r) for r in rows]

    def get_hashes(self, indices: list[int]) -> dict[int, str]:
        """The hash of each stored block among `indices`, by index, in at most one query."""
        tip = self._tip_row()
        if tip is None:
            return {}
        block = tip[0]
        if all(index >= block.index for index in indices):  # at most the tip
            return {block.index: block.hash} if block.index in indices else {}
        rows = self._conn.execute(
            "SELECT idx, hash FROM blocks WHERE idx IN (%s)" % ",".join("?" * len(indices)),
            indices).fetchall()
        return dict(rows)

    def tip(self) -> Block:
        tip = self._tip_row()
        if tip is None:
            raise NotFoundError("store holds no blocks")
        return tip[0]

    def tip_retarget(self) -> float:
        """The chain's difficulty after the tip block; the store holds a block."""
        return self._tip_row()[1]

    def replace_chain(self, tail: list[Block]) -> float:
        """Drop `tail`, the stored blocks from some index >= 1 to the tip, and
        the state and contracts they wrote; return the difficulty after the
        new tip. A caller appends the replacing blocks inside its own
        enclosing transaction, so a failure rolls everything back.
        """
        if not tail or tail[0].index < 1:
            raise StoreError("the dropped tail must start after genesis")
        start = tail[0].index
        if self.get_blocks(start) != tail:
            raise StoreError(f"the blocks from index {start} are not the stored tail")
        try:
            with self.transaction():
                self._tip = _UNREAD
                for table, index in (("blocks", "idx"), ("state", "version"),
                                     ("contracts", "deployed_at")):
                    self._conn.execute(f"DELETE FROM {table} WHERE {index} >= ?", (start,))
                return self._conn.execute("SELECT retarget FROM blocks WHERE idx = ?",
                                          (start - 1,)).fetchone()[0]
        except sqlite3.Error as exc:
            raise StoreError(f"replace failed: {exc}") from exc

    # -- contract state ---------------------------------------------------

    def get_state(self, contract_id: str, key: str) -> int | None:
        row = self._conn.execute(
            "SELECT value FROM state WHERE contract_id = ? AND key = ?"
            " ORDER BY version DESC LIMIT 1", (contract_id, key)).fetchone()
        return row[0] if row is not None else None

    def put_state(self, contract_id: str, key: str, value: int, version: int) -> None:
        """Write one cell as of block `version`; a drop of that block uncovers the older value."""
        with self.transaction():
            self._conn.execute(
                "INSERT INTO state VALUES (?,?,?,?)"
                " ON CONFLICT (contract_id, key, version) DO UPDATE SET value = excluded.value",
                (contract_id, key, value, version))

    def all_state(self) -> dict[tuple[str, str], int]:
        # sqlite takes the bare `value` from the row that holds the MAX
        rows = self._conn.execute(
            "SELECT contract_id, key, value, MAX(version) FROM state"
            " GROUP BY contract_id, key").fetchall()
        return {(cid, key): value for cid, key, value, _version in rows}

    # -- contract sources -------------------------------------------------

    def get_contract(self, contract_id: str) -> str | None:
        row = self._conn.execute(
            "SELECT source FROM contracts WHERE contract_id = ?",
            (contract_id,)).fetchone()
        return row[0] if row is not None else None

    def put_contract(self, contract_id: str, source_json: str, deployed_at: int) -> None:
        with self.transaction():
            self._conn.execute(
                "INSERT OR IGNORE INTO contracts VALUES (?,?,?)",
                (contract_id, source_json, deployed_at))


class _Transaction:
    """What `BlockStore.transaction()` returns: the outermost entry begins,
    and its exit commits, or rolls back on an exception or a failed commit."""

    def __init__(self, store: BlockStore):
        self.store = store

    def __enter__(self) -> None:
        store = self.store
        if store._txn_depth == 0:
            store._conn.execute("BEGIN IMMEDIATE")
        store._txn_depth += 1

    def __exit__(self, exc_type, exc, tb) -> None:
        store = self.store
        store._txn_depth -= 1
        if store._txn_depth == 0:
            tip, store._tip = store._tip, _UNREAD  # kept by a commit that returns
            try:
                store._conn.execute("ROLLBACK" if exc_type else "COMMIT")
            except BaseException:
                # SQLite can keep the transaction of a COMMIT that fails open
                if store._conn.in_transaction:
                    store._conn.execute("ROLLBACK")
                raise
            store._tip = _UNREAD if exc_type else tip


def _row_to_block(row) -> Block:
    idx, timestamp, data, prev_hash, hash_hex, difficulty, nonce = row
    return Block(index=idx, timestamp=timestamp, data=data, prev_hash=prev_hash,
                 hash=hash_hex, difficulty=difficulty, nonce=nonce)
