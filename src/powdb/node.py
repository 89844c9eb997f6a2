"""The node orchestrator: request intake, mining pipeline, gossip, sync, queries.

NodeCore is a single-threaded state machine. Runtimes feed it events
(connections, messages, mining completions) from exactly one execution
context: the TCP runtime funnels everything through a command queue, the
simulator calls it from its event loop. Because of that the core itself
needs no locks and behaves identically in both worlds.
"""

from __future__ import annotations

import json
import logging
import queue
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
    mine_block,
    replay_difficulty,
    verify_block,
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
from powdb.net import PeerTable, RecentSet
from powdb.store import BlockStore, NotFoundError, StoreError
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

TX_KINDS = ("raw", "deploy", "call")


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
class NodeHooks:
    """Optional instrumentation points; the simulator fills these in."""

    on_chain_extended: object = None  # fn(node, new_blocks: list[Block], source: str)
    on_reorg: object = None  # fn(node, depth: int)
    trace: object = None  # fn(event: str, **details)


@dataclass
class _MiningTask:
    token: int
    tx: dict
    data: str
    block: Block
    reply: object  # callable | None
    handle: object = None
    retried: bool = False


class _ConnInfo:
    def __init__(self, outbound: bool, dialed_addr: str | None, now_ms: int):
        self.outbound = outbound
        self.dialed_addr = dialed_addr
        self.peer_addr: str | None = None
        self.hello_sent = False
        self.established = False
        self.opened_ms = now_ms


def parse_tx_data(data: str) -> dict | None:
    """Recover the structured payload from a block's data string.

    Returns None for opaque strings (the genesis payload, foreign data);
    those blocks simply carry no contract action.
    """
    try:
        obj = json.loads(data)
    except json.JSONDecodeError:
        return None
    if isinstance(obj, dict) and obj.get("kind") in TX_KINDS:
        return obj
    return None


def validate_tx_payload(tx, known_contract) -> str:
    """Shape-check a transaction and return the block data string.

    `known_contract(contract_id)` says whether a call target exists or is
    already in the pipeline. Raises TxRejected.
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
                 clock, miner, *, listen_addr: str = "", mine_enabled: bool = True,
                 name: str = ""):
        params.validate()
        self.identity = identity
        self.store = store
        self.params = params
        self.clock = clock
        self.miner = miner
        self.mine_enabled = mine_enabled
        self.listen_addr = listen_addr
        self.name = name or identity.node_id[:8]

        self.peers = PeerTable(self_addr=listen_addr)
        self.cache = ContractCache()
        self.hooks = NodeHooks()
        self.exec_log: list[dict] = []
        self.rejected_invalid_blocks = 0
        self.rejects_by_reason: dict[str, int] = {}
        self.dropped_envelopes = 0

        self._conns: dict[int, _ConnInfo] = {}
        self._dedup = RecentSet(1024)
        self._pending: deque[tuple[dict, object]] = deque()
        self._task: _MiningTask | None = None
        self._next_token = 0
        self._sync_sent_ms: dict[int, int] = {}
        self._closed = False

        self._startup()

    # -- lifecycle ---------------------------------------------------------

    def _startup(self) -> None:
        if self.store.get_block_count() == 0:
            self.store.add_block(genesis_block())
        blocks = self.store.get_all_blocks()
        self.dstate = replay_difficulty(blocks, self.params)
        # replay any contract payloads committed but not yet applied
        applied = self.store.get_applied_index()
        for idx in range(applied + 1, len(blocks)):
            self._apply_block_payload(blocks[idx])

    def close(self) -> None:
        self._closed = True
        if self._task is not None and self._task.handle is not None:
            self._task.handle.cancel()

    # -- connection events ---------------------------------------------------

    def connect_peer(self, conn, addr: str) -> None:
        """An outbound connection we dialed: open the handshake."""
        self._conns[id(conn)] = _ConnInfo(outbound=True, dialed_addr=addr,
                                          now_ms=self.clock())
        self.peers.add_peer(addr)
        self._send_hello(conn)

    def on_inbound_connection(self, conn) -> None:
        self._conns[id(conn)] = _ConnInfo(outbound=False, dialed_addr=None,
                                          now_ms=self.clock())

    def on_disconnect(self, conn) -> None:
        self._conns.pop(id(conn), None)
        self._sync_sent_ms.pop(id(conn), None)
        self.peers.drop_conn(conn)

    def check_timeouts(self) -> None:
        """Fail outbound handshakes that never produced a HELLO."""
        now = self.clock()
        for conn_id, info in list(self._conns.items()):
            if (info.outbound and not info.established
                    and now - info.opened_ms > HANDSHAKE_TIMEOUT_MS):
                if info.dialed_addr:
                    self.peers.mark_failed(info.dialed_addr)
                self._conns.pop(conn_id, None)

    # -- message intake ------------------------------------------------------

    def on_message(self, conn, raw: bytes) -> str:
        """Single entry point for wire input; invalid signatures die here."""
        env = decode_envelope(raw)
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
        elif kind == wire.PEERS:
            self._handle_peers(env)
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
        elif kind == wire.PING:
            self._send(conn, wire.PONG, {})
        # PONG and RESPONSE need no action on a server
        return "handled"

    # -- handshake -----------------------------------------------------------

    def _send_hello(self, conn) -> None:
        info = self._conns.get(id(conn))
        payload = {"listen_addr": self.listen_addr, "node_id": self.identity.node_id}
        if self._send(conn, wire.HELLO, payload) and info is not None:
            info.hello_sent = True

    def _handle_hello(self, conn, env: MessageEnvelope) -> None:
        payload = env.payload
        if (not isinstance(payload, dict)
                or not isinstance(payload.get("listen_addr"), str)
                or payload.get("node_id") != env.sender):
            self._drop_conn(conn)
            return
        info = self._conns.get(id(conn))
        if info is None:
            info = _ConnInfo(outbound=False, dialed_addr=None, now_ms=self.clock())
            self._conns[id(conn)] = info
        info.peer_addr = payload["listen_addr"]
        info.established = True
        self.peers.mark_connected(payload["listen_addr"], env.sender, conn, self.clock())
        if not info.hello_sent:
            self._send_hello(conn)
        known = [a for a in self.peers.addrs() if a != payload["listen_addr"]]
        self._send(conn, wire.PEERS, {"addrs": known})
        # both ends pull the other's chain once, so a fresh link converges
        # without waiting for the next broadcast
        self.request_sync(conn)

    def _handle_peers(self, env: MessageEnvelope) -> None:
        payload = env.payload
        if not isinstance(payload, dict) or not isinstance(payload.get("addrs"), list):
            return
        for addr in payload["addrs"]:
            if isinstance(addr, str):
                self.peers.add_peer(addr)

    # -- gossip ----------------------------------------------------------------

    def broadcast_block(self, block: Block, exclude_conn=None) -> int:
        """NEW_BLOCK to every connected peer, once per block hash ever."""
        if not self._dedup.add(block.hash):
            return 0
        if self.hooks.trace:
            self.hooks.trace("broadcast_block", index=block.index)
        payload = {"block": block_to_json(block)}
        sent = 0
        for record in list(self.peers.connected()):
            if record.conn is None or record.conn is exclude_conn:
                continue
            if self._send(record.conn, wire.NEW_BLOCK, payload):
                sent += 1
        return sent

    def handle_new_block(self, conn, env: MessageEnvelope) -> str:
        payload = env.payload if isinstance(env.payload, dict) else {}
        try:
            block = block_from_json(payload.get("block"))
        except MalformedBlockError:
            self._count_reject(VerifyReason.MALFORMED_BLOCK)
            return "ignored"
        tip = self.store.tip()
        if block.index <= tip.index:
            return "ignored"
        if block.index > tip.index + 1:
            self.request_sync(conn)
            return "sync_triggered"
        if self.hooks.trace:
            self.hooks.trace("verify_block", index=block.index, source="gossip")
        err = verify_block(block, tip, self.params.min_difficulty)
        if err is None:
            self._cancel_mining()
            self._commit_block(block, exclude_conn=conn, mined_locally=False)
            return "appended"
        if err.reason is VerifyReason.PREV_HASH_MISMATCH:
            # same height, different parent: the sender is on another fork
            self.request_sync(conn)
            return "sync_triggered"
        self._count_reject(err.reason)
        return "ignored"

    def _count_reject(self, reason: VerifyReason) -> None:
        self.rejected_invalid_blocks += 1
        self.rejects_by_reason[reason.value] = self.rejects_by_reason.get(reason.value, 0) + 1

    # -- sync --------------------------------------------------------------------

    def request_sync(self, conn) -> bool:
        now = self.clock()
        last = self._sync_sent_ms.get(id(conn))
        if last is not None and now - last < SYNC_RETRY_MS:
            return False
        self._sync_sent_ms[id(conn)] = now
        return self._send(conn, wire.GET_BLOCKS, {"from_index": 0})

    def request_sync_all(self) -> int:
        """Partition-healing aid: pull chains from every connected peer."""
        self._sync_sent_ms.clear()
        count = 0
        for record in list(self.peers.connected()):
            if record.conn is not None and self.request_sync(record.conn):
                count += 1
        return count

    def _serve_sync(self, conn, env: MessageEnvelope) -> None:
        payload = env.payload if isinstance(env.payload, dict) else {}
        from_index = payload.get("from_index", 0)
        if not isinstance(from_index, int) or isinstance(from_index, bool) or from_index < 0:
            from_index = 0
        blocks = self.store.get_all_blocks()[from_index:]
        self._send(conn, wire.BLOCKS, {"blocks": [block_to_json(b) for b in blocks]})

    def _handle_sync_response(self, conn, env: MessageEnvelope) -> str:
        self._sync_sent_ms.pop(id(conn), None)
        payload = env.payload if isinstance(env.payload, dict) else {}
        raw_blocks = payload.get("blocks")
        if not isinstance(raw_blocks, list):
            return "ignored"
        try:
            candidate = [block_from_json(b) for b in raw_blocks]
        except MalformedBlockError:
            self._count_reject(VerifyReason.MALFORMED_BLOCK)
            return "ignored"
        return self.adopt_if_heavier(candidate)

    def adopt_if_heavier(self, candidate: list[Block]) -> str:
        local = self.store.get_all_blocks()
        selected, err = choose_chain(local, candidate, self.params)
        if err is not None:
            self._count_reject(err.reason)
            return "rejected"
        if selected is local:
            return "unchanged"
        common = 0
        for ours, theirs in zip(local, selected):
            if ours.hash != theirs.hash:
                break
            common += 1
        depth = len(local) - common
        self._cancel_mining()
        self.store.replace_chain(selected, rebuild_state=self._rebuild_state(selected))
        self.dstate = replay_difficulty(selected, self.params)
        if depth > 0 and self.hooks.on_reorg:
            self.hooks.on_reorg(self, depth)
        if self.hooks.on_chain_extended:
            self.hooks.on_chain_extended(self, selected[common:], "sync")
        # let neighbors discover the better chain through the usual gap rule
        self.broadcast_block(selected[-1])
        return "adopted"

    def _rebuild_state(self, blocks: list[Block]):
        def rebuild(store: BlockStore) -> None:
            for block in blocks[1:]:
                self._apply_block_payload(block)

        return rebuild

    # -- transaction pipeline ----------------------------------------------------

    def _known_contract(self, contract_id: str) -> bool:
        if self.store.get_contract(contract_id) is not None:
            return True
        for tx, _reply in self._pending:
            if tx["kind"] == "deploy" and contract_id_for(tx["contract"]) == contract_id:
                return True
        if self._task is not None and self._task.tx["kind"] == "deploy":
            if contract_id_for(self._task.tx["contract"]) == contract_id:
                return True
        return False

    def submit_tx(self, tx, reply=None) -> None:
        """Validate, queue and (when the miner is free) mine one transaction."""
        if self.hooks.trace:
            self.hooks.trace("client_request", kind=tx.get("kind") if isinstance(tx, dict) else None)
        try:
            validate_tx_payload(tx, self._known_contract)
        except TxRejected as exc:
            if reply is not None:
                reply({"ok": False, "what": "tx", "error": str(exc)})
                return
            raise
        if not self.mine_enabled:
            if reply is not None:
                reply({"ok": False, "what": "tx", "error": "mining disabled on this node"})
                return
            raise TxRejected("mining disabled on this node")
        self._pending.append((tx, reply))
        self._maybe_start_mining()

    def _maybe_start_mining(self) -> None:
        if (self._task is not None or not self._pending or not self.mine_enabled
                or self._closed):
            return
        tx, reply = self._pending.popleft()
        self._start_task(tx, reply, retried=False)

    def _start_task(self, tx, reply, retried: bool) -> None:
        data = validate_tx_payload(tx, lambda _cid: True)
        tip = self.store.tip()
        bits = self.dstate.effective_bits()
        block = create_new_block(data, tip, bits, self.clock() // 1000)
        if self.hooks.trace:
            self.hooks.trace("create_block", index=block.index)
            self.hooks.trace("mine_block", index=block.index, difficulty=bits)
        self._next_token += 1
        task = _MiningTask(token=self._next_token, tx=tx, data=data, block=block,
                           reply=reply, retried=retried)
        self._task = task
        token = task.token
        task.handle = self.miner.start(block, lambda mined: self.on_mine_result(token, mined))

    def _cancel_mining(self) -> None:
        if self._task is not None and self._task.handle is not None:
            self._task.handle.cancel()

    def on_mine_result(self, token: int, mined: Block | None) -> None:
        task = self._task
        if task is None or task.token != token:
            return  # completion of an already-cancelled task
        self._task = None
        if self._closed:
            return
        if mined is not None:
            if self.hooks.trace:
                self.hooks.trace("verify_block", index=mined.index, source="local")
            err = verify_block(mined, self.store.tip(), self.params.min_difficulty)
            if err is None:
                self._commit_block(mined, mined_locally=True, reply=task.reply)
                self._maybe_start_mining()
                return
        # cancelled, or the tip moved while the result was in flight
        if task.retried:
            if task.reply is not None:
                task.reply({"ok": False, "what": "tx",
                            "error": "retriable: competing blocks kept winning"})
            self._maybe_start_mining()
            return
        self._start_task(task.tx, task.reply, retried=True)

    # -- the commit path (steps 3..6 of the request flow) -------------------------

    def _commit_block(self, block: Block, *, mined_locally: bool,
                      exclude_conn=None, reply=None) -> None:
        if self.hooks.trace:
            self.hooks.trace("add_block", index=block.index)
        self.store.add_block(block)
        prev = self.store.get_block(block.index - 1)
        self.dstate = difficulty_after_append(self.dstate, block, prev, self.params)
        self.broadcast_block(block, exclude_conn=exclude_conn)
        self._apply_block_payload(block)
        if self.hooks.on_chain_extended:
            self.hooks.on_chain_extended(self, [block], "mined" if mined_locally else "gossip")
        if reply is not None:
            reply({"ok": True, "what": "tx",
                   "result": {"block_index": block.index, "block_hash": block.hash}})

    def _apply_block_payload(self, block: Block) -> None:
        """Steps 5 and 6: execute the contract payload, persist the state."""
        tx = parse_tx_data(block.data)
        if self.hooks.trace:
            self.hooks.trace("execute_contracts", index=block.index,
                             kind=tx["kind"] if tx else None)
        with self.store.transaction():
            error = None
            if tx is not None and tx["kind"] == "deploy":
                try:
                    compiled = compile_contract(tx["contract"])
                    self.store.put_contract(
                        compiled.contract_id,
                        canonical_json(tx["contract"]).decode("utf-8"),
                        block.index)
                except ContractError as exc:
                    error = exc
            elif tx is not None and tx["kind"] == "call":
                error = self._execute_call(block, tx)
            if self.hooks.trace:
                self.hooks.trace("persist_state", index=block.index)
            self.store.set_applied_index(block.index)
        if error is not None:
            self.exec_log.append({"block_index": block.index, "kind": tx["kind"],
                                  "error": getattr(error, "reason", None).value
                                  if isinstance(error, ContractError) else str(error)})

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
        self._send(conn, wire.RESPONSE, self.handle_query(what, params))

    def handle_query(self, what, params) -> dict:
        if what == "chain":
            return {"ok": True, "what": what,
                    "result": {"blocks": [block_to_json(b) for b in self.store.get_all_blocks()]}}
        if what == "block":
            index = params.get("index")
            if not isinstance(index, int) or isinstance(index, bool):
                return {"ok": False, "what": what, "error": "params.index must be an integer"}
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
                "peer_count": len(self.peers),
                # envelopes carry integers only: milli-bits for the real value
                "difficulty": self.dstate.effective_bits(),
                "difficulty_milli": round(self.dstate.d_current * 1000),
                "cache": self.cache.counters(),
                "pending_txs": len(self._pending) + (1 if self._task else 0),
                "rejected_invalid_blocks": self.rejected_invalid_blocks,
                "dropped_envelopes": self.dropped_envelopes,
                "exec_errors": len(self.exec_log),
            }}
        return {"ok": False, "what": what, "error": f"unknown query {what!r}"}

    def head(self) -> Block:
        return self.store.tip()

    # -- plumbing ---------------------------------------------------------------------

    def _send(self, conn, kind: str, payload) -> bool:
        env = sign_envelope(kind, self.clock(), payload, self.identity)
        try:
            conn.send_message(env.encode())
            return True
        except (ConnectionError, OSError):
            self.peers.drop_conn(conn)
            self._conns.pop(id(conn), None)
            return False

    def _drop_conn(self, conn) -> None:
        self._conns.pop(id(conn), None)
        try:
            conn.close()
        except OSError:
            pass


class _ThreadMinerHandle:
    def __init__(self, cancel_event: threading.Event):
        self._cancel = cancel_event

    def cancel(self) -> None:
        self._cancel.set()


class ThreadMiner:
    """Background mining thread for the live node; one task at a time."""

    def __init__(self, submit):
        self._submit = submit  # fn(closure) -> runs it on the command loop

    def start(self, block: Block, done) -> _ThreadMinerHandle:
        cancel = threading.Event()

        def work():
            mined = mine_block(block, cancel=cancel)
            self._submit(lambda: done(mined))

        threading.Thread(target=work, name=f"miner:{block.index}", daemon=True).start()
        return _ThreadMinerHandle(cancel)


class NodeRuntime:
    """TCP wiring: command queue, transport threads, periodic timeout sweeps."""

    def __init__(self, config: NodeConfig):
        config.validate()
        self.config = config
        self._commands: queue.Queue = queue.Queue()
        self._stop = threading.Event()
        self._loop_thread: threading.Thread | None = None

        self.store = BlockStore(config.db_path)
        try:
            if config.key_path:
                identity = NodeIdentity.load_or_create(config.key_path)
            else:
                identity = NodeIdentity.generate()
        except (ValueError, OSError) as exc:
            self.store.close()
            raise BadConfigError(str(exc)) from exc

        self.transport = TcpTransport(
            on_connection=lambda conn: self.submit(lambda: self.core.on_inbound_connection(conn)),
            on_message=lambda conn, raw: self.submit(lambda: self.core.on_message(conn, raw)),
            on_disconnect=lambda conn: self.submit(lambda: self.core.on_disconnect(conn)),
        )
        try:
            self.listen_addr = self.transport.listen(config.listen_addr)
        except (OSError, ValueError) as exc:
            self.store.close()
            raise NetworkStartupError(f"cannot listen on {config.listen_addr}: {exc}") from exc

        self.core = NodeCore(
            identity=identity,
            store=self.store,
            params=config.params,
            clock=lambda: int(time.time() * 1000),
            miner=ThreadMiner(self.submit),
            listen_addr=self.listen_addr,
            mine_enabled=config.mine_enabled,
        )

    def submit(self, fn) -> None:
        self._commands.put(fn)

    def start(self) -> None:
        self._loop_thread = threading.Thread(target=self._command_loop,
                                             name="node-loop", daemon=True)
        self._loop_thread.start()
        for addr in self.config.peers:
            self._dial(addr)

    def _dial(self, addr: str) -> None:
        try:
            conn = self.transport.dial(addr)
        except OSError:
            self.submit(lambda: self.core.peers.add_peer(addr))
            self.submit(lambda: self.core.peers.mark_failed(addr))
            return
        self.submit(lambda: self.core.connect_peer(conn, addr))

    def _command_loop(self) -> None:
        last_sweep = time.monotonic()
        while not self._stop.is_set():
            try:
                fn = self._commands.get(timeout=0.2)
            except queue.Empty:
                fn = None
            if fn is not None:
                try:
                    fn()
                except Exception:  # one bad command must not kill the node
                    logger.exception("command failed")
            if time.monotonic() - last_sweep > 1.0:
                last_sweep = time.monotonic()
                try:
                    self.core.check_timeouts()
                except Exception:
                    logger.exception("timeout sweep failed")

    def run_forever(self) -> None:
        try:
            while not self._stop.is_set():
                time.sleep(0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        if self._stop.is_set():
            return
        done = threading.Event()
        self._commands.put(lambda: (self.core.close(), done.set()))
        if self._loop_thread is not None and self._loop_thread.is_alive():
            done.wait(timeout=2.0)
        else:
            self.core.close()
        self._stop.set()
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=2.0)
        self.transport.stop()
        self.store.close()
