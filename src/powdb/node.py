"""The node orchestrator: request intake, mining pipeline, gossip, sync, queries.

NodeCore is a single-threaded state machine. Runtimes feed it events
(connections, messages, mining completions) from exactly one execution
context: the TCP runtime from its selector loop, the simulator from its
event queue. Because of that the core itself needs no locks and behaves
identically in both worlds.

Every block joins the chain through `NodeCore.adopt_if_heavier`, whether
gossiped, synced or mined here, and the store is the only record of the
chain: its blocks, and the difficulty after each of them.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from powdb import wire
from powdb.chain import (
    Block,
    ChainParams,
    MalformedBlockError,
    block_from_json,
    block_to_json,
    genesis_block,
    is_hex_hash,
)
from powdb.consensus import (
    VerifyReason,
    choose_chain,
    create_new_block,
    difficulty_after_append,
    effective_bits,
    mine_block,
    shared_prefix,
    # not called here: blocks are verified through choose_chain; the name is
    # bound for perfbench/spans.py, which wraps powdb.node:verify_block
    verify_block,  # noqa: F401
)
from powdb.contracts import (
    ContractCache,
    ContractError,
    ContractNotFound,
    INT64_MAX,
    INT64_MIN,
    cached_lookup,
    compile_contract,
    contract_id_for,
    execute,
)
from powdb.net import RecentSet
from powdb.store import BlockStore, NotFoundError
from powdb.transport import TcpTransport
from powdb.wire import (
    MessageEnvelope,
    NodeIdentity,
    canonical_json,
    decode_envelope,
    sign_envelope,
    verify_envelope,
)

logger = logging.getLogger(__name__)

HANDSHAKE_TIMEOUT_MS = 5000
SYNC_RETRY_MS = 2000

# A GET_BLOCKS locator names the last LOCATOR_DENSE heights of the chain,
# then heights spaced exponentially further back, ending at genesis. No
# chain under 2**63 blocks needs more than 72 entries; a node answers no
# locator longer than MAX_LOCATOR.
LOCATOR_DENSE = 10
MAX_LOCATOR = 128
# What a block's JSON takes on the wire besides its data, rounded up; it
# sizes a BLOCKS page against its byte budget.
BLOCK_JSON_BYTES = 320
# What a frame that carries one block (NEW_BLOCK, a one-block BLOCKS page, a
# block query's RESPONSE) takes besides the block's escaped data: at most
# 600 bytes with every field at its maximum, rounded up.
BLOCK_ENVELOPE_BYTES = 1024


class BadConfigError(Exception):
    """Invalid node configuration (exit code 2)."""


class NetworkStartupError(Exception):
    """Listener could not start (exit code 3)."""


class TxRejected(ValueError):
    """A transaction payload failed validation before mining."""


@dataclass
class NodeConfig:
    listen_addr: str = "127.0.0.1:0"
    peers: list[str] = field(default_factory=list)
    db_path: str = ":memory:"
    key_path: str | None = None
    params: ChainParams = field(default_factory=ChainParams)
    mine_enabled: bool = True

    def validate(self) -> None:
        try:
            self.params.validate()
        except ValueError as exc:
            raise BadConfigError(str(exc)) from exc


@dataclass
class _MiningTask:
    """One accepted transaction, from intake until it commits or fails."""
    tx: dict
    data: str  # the block data string validate_tx_payload returned
    reply: object  # fn(result dict)
    handle: object = None  # the miner's handle while a job runs
    retried: bool = False


@dataclass
class _Link:
    """Everything the node keeps about one connection."""
    conn: object
    outbound: bool
    opened_ms: int
    established: bool = False  # the peer's HELLO arrived
    sync_sent_ms: int | None = None


def locator_heights(tip: int) -> list[int]:
    """The heights a locator names for a chain whose tip is at `tip`."""
    heights, step = [], 1
    while tip > 0:
        heights.append(tip)
        if len(heights) >= LOCATOR_DENSE:
            step *= 2
        tip -= step
    heights.append(0)
    return heights


def _is_height(value) -> bool:
    """An integer (not a bool) that can index a stored block."""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < 2**63


def _is_stale(index, tip_index: int) -> bool:
    """A block height at or below the tip's: such a block cannot change the chain."""
    return _is_height(index) and index <= tip_index


def _parse_locator(payload) -> list[tuple[int, str]] | None:
    """The (height, hash) pairs of a GET_BLOCKS payload, or None if malformed."""
    locator = payload.get("locator") if isinstance(payload, dict) else None
    if not isinstance(locator, list) or len(locator) > MAX_LOCATOR:
        return None
    entries = []
    for entry in locator:
        if not (isinstance(entry, list) and len(entry) == 2
                and _is_height(entry[0]) and isinstance(entry[1], str)):
            return None
        entries.append((entry[0], entry[1]))
    return entries


def parse_tx_data(data: str) -> dict | None:
    """Recover the structured payload from a block's data string.

    Returns None for opaque strings (the genesis payload, foreign data) and
    for any payload that `validate_tx_payload` rejects; those blocks simply
    carry no contract action, on every node alike.
    """
    try:
        obj = json.loads(data)
        validate_tx_payload(obj, lambda _cid: True)
    except (ValueError, RecursionError):  # JSONDecodeError and TxRejected included
        return None
    return obj


def validate_tx_payload(tx, known_contract) -> str:
    """Shape-check a transaction and return the block data string.

    `known_contract(contract_id)` says whether a call target exists or its
    deploy is already queued. Raises TxRejected.
    """
    if not isinstance(tx, dict) or "kind" not in tx:
        raise TxRejected("transaction must be an object with a 'kind'")
    kind = tx["kind"]
    if kind == "raw":
        if set(tx) != {"kind", "data"} or not isinstance(tx["data"], str):
            raise TxRejected("raw transaction takes exactly {kind, data: string}")
        if "\x1f" in tx["data"]:
            raise TxRejected("raw data must not contain the 0x1f separator byte")
    elif kind == "deploy":
        if set(tx) != {"kind", "contract"}:
            raise TxRejected("deploy transaction takes exactly {kind, contract}")
        try:
            compile_contract(tx["contract"])
        except ContractError as exc:
            raise TxRejected(f"contract does not compile: {exc}") from exc
    elif kind == "call":
        if set(tx) != {"kind", "contract_id", "args"}:
            raise TxRejected("call transaction takes exactly {kind, contract_id, args}")
        if not is_hex_hash(tx["contract_id"]):
            raise TxRejected("contract_id must be 64 lowercase hex chars")
        args = tx["args"]
        if not isinstance(args, list) or not all(
                isinstance(a, int) and not isinstance(a, bool)
                and INT64_MIN <= a <= INT64_MAX for a in args):
            raise TxRejected("args must be a list of signed 64-bit integers")
        if not known_contract(tx["contract_id"]):
            raise TxRejected(f"unknown contract {tx['contract_id'][:16]}...")
    else:
        raise TxRejected(f"unknown transaction kind {kind!r}")
    try:
        return canonical_json(tx).decode("utf-8")
    except wire.EncodingError as exc:
        raise TxRejected(str(exc)) from exc


class NodeCore:
    """All node behavior behind transport-, clock- and miner-abstractions."""

    def __init__(self, identity: NodeIdentity, store: BlockStore, params: ChainParams,
                 clock, miner, *, mine_enabled: bool = True):
        params.validate()
        self.identity = identity
        self.store = store
        self.params = params
        self.clock = clock
        self.miner = miner
        self.mine_enabled = mine_enabled

        self.cache = ContractCache()
        # fn(node, new_blocks, reorg_depth), called once per chain change
        self.on_chain_change = None
        self.exec_errors: dict[str, int] = {}
        self.rejects_by_reason: dict[str, int] = {}
        self.dropped_envelopes = 0

        self._links: dict[int, _Link] = {}  # by id(conn), oldest first
        self._dedup = RecentSet(1024)
        # accepted, unmined transactions in arrival order; the head is mining
        self._queue: deque[_MiningTask] = deque()
        self._closed = False

        self._startup()

    # -- lifecycle ---------------------------------------------------------

    def _startup(self) -> None:
        if self.store.get_block_count() == 0:
            self.store.add_block(genesis_block(), float(self.params.initial_difficulty))

    @property
    def difficulty(self) -> float:
        """The chain's difficulty after the tip, as the store records it."""
        return self.store.tip_retarget()

    def close(self) -> None:
        self._closed = True
        self._cancel_mining()
        for link in list(self._links.values()):
            self._drop_conn(link.conn)

    # -- connection events ---------------------------------------------------

    def connect_peer(self, conn) -> None:
        """An outbound connection we dialed: open the handshake."""
        self._links[id(conn)] = _Link(conn, outbound=True, opened_ms=self.clock())
        self._send_hello(conn)

    def on_inbound_connection(self, conn) -> None:
        self._links[id(conn)] = _Link(conn, outbound=False, opened_ms=self.clock())

    def on_disconnect(self, conn) -> None:
        self._forget(conn)

    def check_timeouts(self) -> None:
        """Close outbound handshakes that never produced a HELLO."""
        now = self.clock()
        for link in list(self._links.values()):
            if (link.outbound and not link.established
                    and now - link.opened_ms > HANDSHAKE_TIMEOUT_MS):
                self._drop_conn(link.conn)

    def connected(self) -> list:
        """The conns of established links, oldest first."""
        return [link.conn for link in self._links.values() if link.established]

    # -- message intake ------------------------------------------------------

    def on_message(self, conn, raw: bytes) -> str:
        """Single entry point for wire input: decode, drop a stale NEW_BLOCK by
        its index alone, then check the signature; invalid signatures die here."""
        env = decode_envelope(raw)
        if env is not None and env.kind == wire.NEW_BLOCK:
            block = env.payload.get("block") if isinstance(env.payload, dict) else None
            if (isinstance(block, dict)
                    and _is_stale(block.get("index"), self.store.get_block_count() - 1)):
                return "ignored"  # a relay that cannot change state costs no verify
        if env is None or not verify_envelope(env):
            self.dropped_envelopes += 1
            return "dropped"
        return self.on_envelope(conn, env)

    def on_envelope(self, conn, env: MessageEnvelope) -> str:
        if env.sender == self.identity.node_id:
            return "self"  # our own broadcast reflected back
        kind = env.kind
        if kind == wire.HELLO:
            self._handle_hello(conn, env)
        elif kind == wire.NEW_BLOCK:
            return self.handle_new_block(conn, env)
        elif kind == wire.GET_BLOCKS:
            self._serve_sync(conn, env)
        elif kind == wire.BLOCKS:
            return self._handle_sync_response(conn, env)
        elif kind == wire.TX:
            self._handle_tx(conn, env)
        elif kind == wire.QUERY:
            self._handle_query(conn, env)
        # RESPONSE needs no action on a server
        return "handled"

    # -- handshake -----------------------------------------------------------

    def _send_hello(self, conn) -> None:
        self._send(conn, wire.HELLO, {})

    def _handle_hello(self, conn, env: MessageEnvelope) -> None:
        if env.payload != {}:
            self._drop_conn(conn)
            return
        link = self._links.setdefault(id(conn), _Link(conn, outbound=False,
                                                      opened_ms=self.clock()))
        if not link.outbound and not link.established:
            self._send_hello(conn)  # the dialer sent its HELLO when the link opened
        link.established = True
        # both ends pull the other's chain once, so a fresh link converges
        # without waiting for the next broadcast
        self.request_sync(conn)

    # -- gossip ----------------------------------------------------------------

    def broadcast_block(self, block: Block, exclude_conn=None) -> int:
        """NEW_BLOCK on every established link, once per block hash ever."""
        if not self._dedup.add(block.hash):
            return 0
        conns = [conn for conn in self.connected() if conn is not exclude_conn]
        if not conns:
            return 0
        # one signed envelope, the same bytes for every peer
        raw = self._encode(wire.NEW_BLOCK, {"block": block_to_json(block)})
        return sum(self._send_raw(conn, raw) for conn in conns)

    def handle_new_block(self, conn, env: MessageEnvelope) -> str:
        payload = env.payload if isinstance(env.payload, dict) else {}
        try:
            block = block_from_json(payload.get("block"))
        except MalformedBlockError:
            self._count_reject(VerifyReason.MALFORMED_BLOCK)
            return "ignored"
        if _is_stale(block.index, self.store.get_block_count() - 1):
            return "ignored"
        outcome = self.adopt_if_heavier(block.index - 1, [block], exclude_conn=conn)
        if outcome == "unlinked":
            # a gap, or the sender is on another fork: pull its chain
            self.request_sync(conn)
            return "sync_triggered"
        return "appended" if outcome == "adopted" else "ignored"

    def _count_reject(self, reason: VerifyReason) -> None:
        self.rejects_by_reason[reason.value] = self.rejects_by_reason.get(reason.value, 0) + 1

    # -- sync --------------------------------------------------------------------

    def request_sync(self, conn) -> bool:
        """Send a locator of our chain; the peer answers with what follows it."""
        link = self._links.get(id(conn))
        if link is not None:
            now = self.clock()
            if link.sync_sent_ms is not None and now - link.sync_sent_ms < SYNC_RETRY_MS:
                return False
            link.sync_sent_ms = now
        heights = locator_heights(self.store.get_block_count() - 1)
        hashes = self.store.get_hashes(heights)
        return self._send(conn, wire.GET_BLOCKS,
                          {"locator": [[height, hashes[height]] for height in heights]})

    def request_sync_all(self) -> int:
        """Partition-healing aid: pull chains from every connected peer."""
        for link in self._links.values():
            link.sync_sent_ms = None
        return sum(self.request_sync(conn) for conn in self.connected())

    def _serve_sync(self, conn, env: MessageEnvelope) -> None:
        """Answer a locator with one page of the blocks after the fork point.

        The fork point is the highest locator height whose hash is ours;
        every chain shares genesis, so it is 0 when none matches. The page
        holds at least one block and, past the first, stays within an
        eighth of the frame cap: JSON escaping can make a data character
        take 6 bytes, so even then the page fits in one frame.
        """
        locator = _parse_locator(env.payload)
        if locator is None:
            return  # no reply: a request costs at most MAX_LOCATOR lookups
        ours = self.store.get_hashes([height for height, _ in locator])
        after = max((height for height, hash_hex in locator if ours.get(height) == hash_hex),
                    default=0)
        budget = wire.MAX_FRAME_BYTES // 8
        # one row past the most a page can hold tells whether more follow
        rows = self.store.get_blocks(after + 1, after + 2 + budget // BLOCK_JSON_BYTES)
        page, size = [], 0
        for block in rows:
            size += BLOCK_JSON_BYTES + len(block.data)
            if page and size > budget:
                break
            page.append(block_to_json(block))
        self._send(conn, wire.BLOCKS,
                   {"after": after, "blocks": page, "more": len(page) < len(rows)})

    def _handle_sync_response(self, conn, env: MessageEnvelope) -> str:
        link = self._links.get(id(conn))
        if link is not None:
            link.sync_sent_ms = None
        payload = env.payload if isinstance(env.payload, dict) else {}
        after, raw_blocks, more = payload.get("after"), payload.get("blocks"), payload.get("more")
        if not _is_height(after) or not isinstance(raw_blocks, list) or not isinstance(more, bool):
            return "ignored"
        try:
            blocks = [block_from_json(b) for b in raw_blocks]
        except MalformedBlockError:
            self._count_reject(VerifyReason.MALFORMED_BLOCK)
            return "ignored"
        outcome = self.adopt_if_heavier(after, blocks)
        if more and outcome == "adopted":
            self.request_sync(conn)  # the next page
        # unlinked: since we asked, a reorg took the fork point off our chain
        # or left our tip below it, so the reply no longer fits
        return "ignored" if outcome == "unlinked" else outcome

    def adopt_if_heavier(self, after: int, blocks: list[Block], *, exclude_conn=None) -> str:
        """The one way blocks join the chain, gossiped, synced or mined here.

        "unlinked" when `blocks[0]` does not follow the stored block at
        `after`. Otherwise only the stored blocks after `after` and `blocks`
        are verified and weighed, never the whole chain. A failed check is a
        counted reject ("rejected"); no more work keeps the chain
        ("unchanged"); a heavier suffix is "adopted": mining stops, and one
        transaction drops the stored blocks past the fork point and appends.
        """
        local = self.store.get_blocks(after)
        if not local or (blocks and blocks[0].prev_hash != local[0].hash):
            return "unlinked"
        selected, err = choose_chain(local, local[:1] + blocks, self.params)
        if err is not None:
            self._count_reject(err.reason)
            return "rejected"
        if selected is local:
            return "unchanged"
        common = shared_prefix(local, selected)
        self._cancel_mining()
        # the new tip's broadcast sends neighbors to the usual sync trigger
        self._commit(selected[common - 1], selected[common:], local[common:],
                     exclude_conn=exclude_conn)
        return "adopted"

    # -- transaction pipeline ----------------------------------------------------

    def _known_contract(self, contract_id: str) -> bool:
        if self.store.get_contract(contract_id) is not None:
            return True
        return any(task.tx["kind"] == "deploy"
                   and contract_id_for(task.tx["contract"]) == contract_id
                   for task in self._queue)

    def submit_tx(self, tx, reply) -> None:
        """Validate and queue one transaction; mine it when it reaches the head."""
        try:
            data = validate_tx_payload(tx, self._known_contract)
            # a block carries its data JSON-escaped once more; past this size
            # its NEW_BLOCK or BLOCKS frame would exceed the cap and never leave
            if len(canonical_json(data)) > wire.MAX_FRAME_BYTES - BLOCK_ENVELOPE_BYTES:
                raise TxRejected("transaction too large for a block frame")
        except TxRejected as exc:
            reply({"ok": False, "what": "tx", "error": str(exc)})
            return
        if not self.mine_enabled:
            reply({"ok": False, "what": "tx", "error": "mining disabled on this node"})
            return
        self._queue.append(_MiningTask(tx, data, reply))
        self._mine_head()

    def _mine_head(self) -> None:
        """Mine the head of the queue on the current tip, unless it is mining."""
        if self._closed or not self._queue or self._queue[0].handle is not None:
            return
        task = self._queue[0]
        block = create_new_block(task.data, self.store.tip(),
                                 effective_bits(self.difficulty), self.clock() // 1000)
        task.handle = self.miner.start(block, lambda mined: self.on_mine_result(task, mined))

    def _cancel_mining(self) -> None:
        if self._queue and self._queue[0].handle is not None:
            self._queue[0].handle.cancel()

    def on_mine_result(self, task: _MiningTask, mined: Block | None) -> None:
        if self._closed or not self._queue or self._queue[0] is not task:
            return  # a late completion of a task that is already done
        task.handle = None  # the job is over: adopting its block cancels nothing
        if mined is not None and self.adopt_if_heavier(mined.index - 1, [mined]) == "adopted":
            self._queue.popleft()
            task.reply({"ok": True, "what": "tx",
                        "result": {"block_index": mined.index, "block_hash": mined.hash}})
        elif task.retried:
            # cancelled, or the chain moved and the mined block did not win
            self._queue.popleft()
            task.reply({"ok": False, "what": "tx",
                        "error": "retriable: competing blocks kept winning"})
        else:
            task.retried = True
        self._mine_head()

    # -- the commit path (steps 3..6 of the request flow) -------------------------

    def _commit(self, prev: Block, blocks: list[Block], dropped=(), *, exclude_conn=None):
        """Every chain change: drop the stored tail `dropped` (empty when `blocks`
        extend the tip), then append `blocks` on top of `prev` with their contract
        effects, all in one transaction. Only the last block is broadcast."""
        with self.store.transaction():
            difficulty = self.store.replace_chain(dropped) if dropped else self.difficulty
            for block in blocks:
                difficulty = difficulty_after_append(difficulty, block, prev, self.params)
                self.store.add_block(block, difficulty)
                if block is blocks[-1]:
                    self.broadcast_block(block, exclude_conn=exclude_conn)
                self._apply_block_payload(block)
                prev = block
        if self.on_chain_change:
            self.on_chain_change(self, blocks, len(dropped))

    def _apply_block_payload(self, block: Block) -> None:
        """Steps 5 and 6: execute the contract payload, persist the state.

        Runs inside the caller's store transaction, so the effects commit
        with the block that carries them. A block is applied once, when it
        joins the chain; a reorg drops only the effects of the blocks it drops.
        """
        tx = parse_tx_data(block.data)
        if tx is None or tx["kind"] == "raw":
            return
        if tx["kind"] == "deploy":
            # parse_tx_data has compiled the source, so the deploy cannot fail
            self.store.put_contract(contract_id_for(tx["contract"]),
                                    canonical_json(tx["contract"]).decode("utf-8"),
                                    block.index)
            return
        error = self._execute_call(block, tx)
        if error is not None:
            reason = (error.reason.value if isinstance(error, ContractError)
                      else type(error).__name__)
            self.exec_errors[reason] = self.exec_errors.get(reason, 0) + 1

    def _execute_call(self, block: Block, tx: dict):
        cid = tx["contract_id"]
        # The store decides whether the contract exists on this chain; a
        # cached compile may outlive its deploy across a reorg.
        source = self.store.get_contract(cid)
        if source is None:
            return ContractNotFound(cid)
        try:
            compiled = cached_lookup(self.cache, cid, lambda _cid: json.loads(source))
            execute(compiled, tx["args"],
                    lambda key: self.store.get_state(cid, key),
                    lambda key, value: self.store.put_state(cid, key, value, block.index))
            return None
        except ContractError as exc:
            return exc

    # -- client surface -------------------------------------------------------------

    def _handle_tx(self, conn, env: MessageEnvelope) -> None:
        payload = env.payload if isinstance(env.payload, dict) else {}
        tx = payload.get("tx")

        def reply(result: dict) -> None:
            self._send(conn, wire.RESPONSE, result)

        self.submit_tx(tx if isinstance(tx, dict) else {}, reply)

    def _handle_query(self, conn, env: MessageEnvelope) -> None:
        payload = env.payload if isinstance(env.payload, dict) else {}
        what = payload.get("what")
        params = payload.get("params") or {}
        raw = self._encode(wire.RESPONSE, self.handle_query(what, params))
        try:
            wire.check_frame_size(raw)
        except wire.ProtocolError as exc:
            # e.g. a chain too long for one frame: answer, never leave the client waiting
            raw = self._encode(wire.RESPONSE, {"ok": False, "what": what, "error": str(exc)})
        self._send_raw(conn, raw)

    def handle_query(self, what, params) -> dict:
        if not isinstance(params, dict):
            return {"ok": False, "what": what, "error": "params must be an object"}
        if what == "chain":
            return {"ok": True, "what": what,
                    "result": {"blocks": [block_to_json(b) for b in self.store.get_all_blocks()]}}
        if what == "block":
            index = params.get("index")
            if not isinstance(index, int) or isinstance(index, bool):
                return {"ok": False, "what": what, "error": "params.index must be an integer"}
            if not 0 <= index < 2**63:  # beyond any chain, and beyond SQLite's integers
                return {"ok": False, "what": what, "error": "not-found"}
            try:
                return {"ok": True, "what": what,
                        "result": {"block": block_to_json(self.store.get_block(index))}}
            except NotFoundError:
                return {"ok": False, "what": what, "error": "not-found"}
        if what == "state":
            cid, key = params.get("contract_id"), params.get("key")
            if not isinstance(cid, str) or not isinstance(key, str):
                return {"ok": False, "what": what,
                        "error": "params must carry contract_id and key strings"}
            value = self.store.get_state(cid, key)
            if value is None:
                return {"ok": False, "what": what, "error": "not-found"}
            return {"ok": True, "what": what, "result": {"value": value}}
        if what == "stats":
            count, tip = self.store.chain_info()
            return {"ok": True, "what": what, "result": {
                "count": count,
                "tip_hash": tip,
                "peer_count": len(self.connected()),
                # envelopes carry integers only: milli-bits for the real value
                "difficulty": effective_bits(self.difficulty),
                "difficulty_milli": round(self.difficulty * 1000),
                "cache": self.cache.counters(),
                "pending_txs": len(self._queue),
                "rejected_invalid_blocks": sum(self.rejects_by_reason.values()),
                "dropped_envelopes": self.dropped_envelopes,
                "exec_errors": sum(self.exec_errors.values()),
            }}
        return {"ok": False, "what": what, "error": f"unknown query {what!r}"}

    # -- plumbing ---------------------------------------------------------------------

    def _encode(self, kind: str, payload) -> bytes:
        """Sign `payload` as one envelope and return its wire bytes."""
        return sign_envelope(kind, self.clock(), payload, self.identity).encode()

    def _send(self, conn, kind: str, payload) -> bool:
        return self._send_raw(conn, self._encode(kind, payload))

    def _send_raw(self, conn, raw: bytes) -> bool:
        try:
            conn.send_message(raw)
            return True
        except wire.ProtocolError:
            return False  # the frame is over the size cap; the link itself is fine
        except (ConnectionError, OSError):
            self._forget(conn)
            return False

    def _drop_conn(self, conn) -> None:
        self._forget(conn)
        try:
            conn.close()
        except OSError:
            pass

    def _forget(self, conn) -> None:
        """Drop all per-link state."""
        self._links.pop(id(conn), None)


class _ThreadMinerHandle(threading.Event):
    """The cancel signal of one mining job; the core calls `cancel()`."""
    cancel = threading.Event.set


class ThreadMiner:
    """Background mining thread for the live node; one task at a time."""

    def __init__(self, submit):
        self._submit = submit  # fn(closure) -> runs it on the node's loop

    def start(self, block: Block, done) -> _ThreadMinerHandle:
        handle = _ThreadMinerHandle()

        def work():
            mined = mine_block(block, cancel=handle)
            self._submit(lambda: done(mined))

        threading.Thread(target=work, name=f"miner:{block.index}", daemon=True).start()
        return handle


class NodeRuntime:
    """TCP wiring: one selector loop drives the core; the miner is the only other thread."""

    def __init__(self, config: NodeConfig):
        config.validate()
        self.config = config
        self._stop = threading.Event()

        self.store = BlockStore(config.db_path)
        try:
            if config.key_path:
                identity = NodeIdentity.load_or_create(config.key_path)
            else:
                identity = NodeIdentity.generate()
        except (ValueError, OSError) as exc:
            self.store.close()
            raise BadConfigError(str(exc)) from exc

        self.core = NodeCore(
            identity=identity,
            store=self.store,
            params=config.params,
            clock=lambda: int(time.time() * 1000),
            miner=ThreadMiner(self.submit),
            mine_enabled=config.mine_enabled,
        )
        self.transport = TcpTransport(self.core)
        try:
            self.listen_addr = self.transport.listen(config.listen_addr)
        except (OSError, ValueError) as exc:
            self.transport.stop()
            self.store.close()
            raise NetworkStartupError(f"cannot listen on {config.listen_addr}: {exc}") from exc

    def submit(self, fn) -> None:
        self.transport.submit(fn)

    def start(self) -> None:
        for addr in self.config.peers:
            self.submit(lambda addr=addr: self._dial(addr))
        self.transport.start(tick=self.core.check_timeouts)

    def _dial(self, addr: str) -> None:
        try:
            self.core.connect_peer(self.transport.dial(addr))
        except OSError as exc:
            logger.warning("cannot dial peer %s: %s", addr, exc)

    def run_forever(self) -> None:
        try:
            self._stop.wait()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        if self._stop.is_set():
            return
        self._stop.set()
        self.submit(self.core.close)
        self.transport.stop()
        self.store.close()
