"""The node orchestrator: request intake, mining pipeline, gossip, sync, queries.

NodeCore is a single-threaded state machine. Runtimes feed it events
(connections, messages, mining completions) from exactly one execution
context: the TCP runtime from its selector loop, the simulator from its
event queue. Because of that the core itself needs no locks and behaves
identically in both worlds.

Every block joins the chain through `NodeCore.adopt_if_heavier`, whether
gossiped, synced or mined here, and the store is the only record of the
chain: its blocks, and the difficulty after each of them.

A link between nodes is authenticated once: its first GET_BLOCKS and the
BLOCKS reply are Ed25519-signed and carry each node's key share and a fresh
nonce, and every later frame on it carries a rising counter and an HMAC tag
under the direction's link key (see wire). A dialed link whose request or
reply is lost is closed by the tick and dialed again. A client's link never
runs the handshake, so its requests and replies stay signed, and it carries
no blocks.

Each core keeps its own links: its runtime gives it the peers it is
configured with and a `dial(addr)`, and `NodeCore.tick` dials each of them
whose link is unset or closed, so the simulator runs the live node's redial.

Every frame is checked as it arrives, before any handler reads it: its tag
on a keyed link, its Ed25519 signature on any other, and one that fails is
dropped and counted. Only then are a gossiped block's own checks run,
cheapest first: the held check, its shape, its parent lookup, then the fork
choice's checks or, for an unlinked block, the limited-link cut and the
pending-sync check.

A block goes to each peer once, as in Plumtree's eager push (Leitão et al.,
SRDS 2007): its NEW_BLOCK names, in "have", the nodes its sender knows hold
it, and a node relays an adopted block only to the established links whose
peer it does not know to hold it. Only a reliable link's peer is named or
skipped (a connection's `reliable`); over any other link a block is relayed
as if no list came with it, to every peer but its sender. A false list or a
lost frame only delays a block: `NodeCore.tick`, which both runtimes call
every TICK_S, sends a locator on each link quiet for RESYNC_MS, with no
GET_BLOCKS sent and no NEW_BLOCK read on it, and the sync repairs what the
push missed (anti-entropy, Demers et al., PODC 1987).
"""

from __future__ import annotations

import json
import logging
import os
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
    is_block_int,
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
from powdb.store import BlockStore, NotFoundError
from powdb.transport import TICK_S, TcpTransport, parse_hostport
from powdb.wire import (
    MAX_HOLDERS,
    KeyShare,
    LinkKey,
    MessageEnvelope,
    NodeIdentity,
    canonical_json,
    decode_envelope,
    parse_holders,
    short_id,
    sign_envelope,
    verify_envelope,
)

logger = logging.getLogger(__name__)

HANDSHAKE_TIMEOUT_MS = 5000
SYNC_RETRY_MS = 2000
# After this many syncs in a row whose replies did not reach the block that
# set them off, a link's unlinked blocks are counted rejects, not syncs.
MAX_UNSERVED = 3

# A GET_BLOCKS locator names the last LOCATOR_DENSE heights of the chain,
# then heights spaced exponentially further back, ending at genesis. No
# chain under 2**63 blocks needs more than 72 entries; a node answers no
# locator longer than MAX_LOCATOR.
LOCATOR_DENSE = 10
MAX_LOCATOR = 128
# What a block's JSON takes on the wire besides its data, rounded up; it
# sizes a BLOCKS page against its byte budget.
BLOCK_JSON_BYTES = 320
# A live node's dial of a configured peer waits after each failed dial; the
# wait doubles, from one tick (TICK_S) up to this many seconds, and a dial
# that connects resets it.
REDIAL_MAX_S = 30.0
# The tick sends a GET_BLOCKS on each established link quiet this long (see
# tick), so a block the push missed arrives at most this late.
RESYNC_MS = 30_000


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
            for peer in self.peers:
                parse_hostport(peer)
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
    hello: dict | None = None  # a dialer's handshake fields: the node's key and a nonce
    keys: tuple[LinkKey, LinkKey] | None = None  # (send, receive) once the handshake is done
    peer: str | None = None  # the peer's node id, from its signed link-open message
    sent: int = 0  # the counter of the last frame tagged for this link
    received: int = 0  # the counter of the last frame on it whose tag checked
    sync_sent_ms: int | None = None
    wanted: str | None = None  # hash of the gossiped block that set off the pending sync
    unserved: int = 0  # syncs in a row whose reply did not reach their `wanted`
    quiet_since_ms: int = field(init=False)  # last GET_BLOCKS sent or NEW_BLOCK read, or opened

    def __post_init__(self):
        self.quiet_since_ms = self.opened_ms

    @property
    def established(self) -> bool:
        """The handshake is done: the link carries blocks."""
        return self.keys is not None


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


def _parse_locator(payload) -> list[tuple[int, str]] | None:
    """The (height, hash) pairs of a GET_BLOCKS payload, or None if malformed."""
    locator = payload.get("locator") if isinstance(payload, dict) else None
    if not isinstance(locator, list) or len(locator) > MAX_LOCATOR:
        return None
    entries = []
    for entry in locator:
        if not (isinstance(entry, list) and len(entry) == 2
                and is_block_int(entry[0]) and isinstance(entry[1], str)):
            return None
        entries.append((entry[0], entry[1]))
    return entries


def _reliable(conn) -> bool:
    """Whether every frame sent on `conn` arrives, or the link closes and
    opens again with a sync: a connection without `reliable` is not."""
    return getattr(conn, "reliable", False)


def _unkeyed_may_carry(link: _Link | None, env: MessageEnvelope) -> bool:
    """Whether a link the handshake has not keyed may carry `env`: no
    NEW_BLOCK, and a sync message only at link open, the dialer's GET_BLOCKS
    on an inbound link or the BLOCKS reply on an outbound one."""
    if env.kind == wire.GET_BLOCKS:
        return link is not None and not link.outbound
    if env.kind == wire.BLOCKS:
        return link is not None and link.outbound
    return env.kind != wire.NEW_BLOCK


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
                 clock, miner, *, mine_enabled: bool = True, random_bytes=os.urandom,
                 peers=(), dial=None):
        params.validate()
        self.identity = identity
        self.random_bytes = random_bytes  # fn(n) -> n bytes, for link keys and nonces
        self._share: KeyShare | None = None  # made at the first link open
        self.store = store
        self.params = params
        self.clock = clock
        self.miner = miner
        self.mine_enabled = mine_enabled
        # each configured peer's address, with the conn its last dial returned;
        # dial(addr) -> a conn, or None when the peer cannot be dialed now
        self.peers: dict[str, object] = dict.fromkeys(peers)
        self.dial = dial

        self.cache = ContractCache()
        # fn(node, new_blocks, reorg_depth), called once per chain change
        self.on_chain_change = None
        self.exec_errors: dict[str, int] = {}
        self.rejects_by_reason: dict[str, int] = {}
        self.dropped_envelopes = 0

        self._links: dict[int, _Link] = {}  # by id(conn), oldest first
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
        """An outbound connection we dialed: its first GET_BLOCKS opens the link."""
        self._links[id(conn)] = _Link(conn, outbound=True, opened_ms=self.clock(),
                                      hello=self._hello())
        self.request_sync(conn)

    def on_inbound_connection(self, conn) -> None:
        self._links[id(conn)] = _Link(conn, outbound=False, opened_ms=self.clock())

    def on_disconnect(self, conn) -> None:
        self._forget(conn)

    def tick(self) -> None:
        """The one repair path, which both runtimes call every TICK_S: close a
        dialed link with no link-open reply for HANDSHAKE_TIMEOUT_MS, and send
        a GET_BLOCKS on each established link that is quiet: no GET_BLOCKS
        sent and no NEW_BLOCK read on it for RESYNC_MS. A GET_BLOCKS received
        does not count, or the two ends of a quiet link would keep restarting
        each other's timers and the end that lacks a block would never ask. A
        peer at MAX_UNSERVED that keeps pushing blocks also keeps its link
        from being resynced. Last, each configured peer whose conn is unset
        or closed is dialed, and a conn the dial returns opens a link."""
        now = self.clock()
        for link in list(self._links.values()):
            if link.established:
                if now - link.quiet_since_ms >= RESYNC_MS:
                    self.request_sync(link.conn)
            elif link.outbound and now - link.opened_ms >= HANDSHAKE_TIMEOUT_MS:
                self._drop_conn(link.conn)
        for addr, conn in self.peers.items():
            if conn is None or conn.closed:
                conn = self.peers[addr] = self.dial(addr)
                if conn is not None:
                    self.connect_peer(conn)

    def connected(self) -> list:
        """The conns of established links, oldest first."""
        return [link.conn for link in self._links.values() if link.established]

    # -- message intake ------------------------------------------------------

    def on_message(self, conn, raw: bytes) -> str:
        """Single entry point for wire input, and the one place an envelope
        is checked: every kind is checked here, before any handler reads it
        (see _authentic). A frame that does not decode is dropped and
        counted. A link without keys carries no block, and a sync message
        only to open the link; any other block or sync frame on it cannot be
        checked and is ignored. Reading a NEW_BLOCK restarts the link's quiet
        timer (see tick) whether its tag checks or not: a peer that keeps
        pushing blocks, forged or not, is not resynced."""
        env = decode_envelope(raw)
        if env is None:
            self.dropped_envelopes += 1
            return "dropped"
        link = self._links.get(id(conn))
        if (link is None or link.keys is None) and not _unkeyed_may_carry(link, env):
            return "ignored"
        if env.kind == wire.NEW_BLOCK:  # only a keyed link gets this far with one
            link.quiet_since_ms = self.clock()
        if not self._authentic(link, env):
            return "dropped"
        return self.on_envelope(conn, env)

    def on_envelope(self, conn, env: MessageEnvelope) -> str:
        """Act on an envelope that on_message has checked."""
        if env.sender == self.identity.node_id and env.counter is None:
            return "self"  # our own link-open request: we dialed ourselves
        kind = env.kind
        if kind == wire.NEW_BLOCK:
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

    # -- gossip ----------------------------------------------------------------

    def broadcast_block(self, block: Block,
                        gossip: tuple[_Link | None, MessageEnvelope] | None = None) -> int:
        """NEW_BLOCK on every established link whose peer is not known to hold
        the block. `gossip` is the link and the envelope a gossiped block
        came in: its peer and the ones its holder list names are known
        holders. The link it came in is skipped, and so is a reliable link
        to a known holder. The list sent names this node, the known holders
        and the peers it goes to over reliable links, in that order, up to
        MAX_HOLDERS. A peer the push misses, through a false list or a lost
        frame, gets the block from the locator the tick sends once its link
        has been quiet for RESYNC_MS."""
        source, env = gossip or (None, None)
        known = [short_id(self.identity.node_id)]
        if source is not None:
            known += [short_id(source.peer), *parse_holders(env.payload)]
        skip = set(known)
        targets = [link for link in self._links.values()
                   if link.established and link is not source
                   and not (_reliable(link.conn) and short_id(link.peer) in skip)]
        known += [short_id(link.peer) for link in targets if _reliable(link.conn)]
        have = list(dict.fromkeys(known))[:MAX_HOLDERS]
        frames = self.frames(wire.NEW_BLOCK, {"block": block_to_json(block), "have": have},
                             [link.conn for link in targets])
        return sum(self._send_raw(conn, raw) for conn, raw in frames)

    def handle_new_block(self, conn, env: MessageEnvelope) -> str:
        """A gossiped block whose envelope has checked, cheapest check first:
        the held check, the shape, the parent lookup and, for a linked block,
        the fork choice's checks, or, for an unlinked one, the limited-link
        cut and the pending-sync check (in request_sync). A block that fails
        one is counted under its reason."""
        link = self._links.get(id(conn))
        payload = env.payload if isinstance(env.payload, dict) else {}
        raw = payload.get("block")
        if isinstance(raw, dict) and self._is_held(raw.get("index"), raw.get("hash")):
            return "ignored"  # a relay that cannot change the chain
        try:
            block = block_from_json(raw)
        except MalformedBlockError:
            self._count_reject(VerifyReason.MALFORMED_BLOCK)
            return "ignored"
        outcome = self.adopt_if_heavier(block.index - 1, [block], gossip=(link, env))
        if outcome == "unlinked":
            # a gap, or the sender is on another fork: pull its chain, unless
            # its last MAX_UNSERVED syncs never reached the block behind them
            if link is not None and link.unserved >= MAX_UNSERVED:
                self._count_reject(VerifyReason.PARENT_NOT_SERVED)
                return "ignored"
            # request_sync sends none while the link's last sync is pending,
            # which may reach it
            if self.request_sync(conn) and link is not None:
                link.wanted = block.hash
            return "sync_triggered"
        if outcome == "adopted":
            if link is not None:
                link.unserved = 0  # the link serves linked blocks again
            return "appended"
        return "ignored"

    def _is_held(self, index, hash_hex) -> bool:
        """Whether a block, read before its shape is checked, cannot change the
        chain: it is at index 0, where every chain holds genesis, or the store
        holds a block at its index and its hash is that block's or malformed.
        It reads at most one stored hash, so a relay of an old block loads no
        stored suffix. Any other block at a held height may start a heavier
        fork."""
        if not is_block_int(index):
            return False
        if index == 0:
            return True
        stored = self.store.get_hashes([index]).get(index)
        return stored is not None and (stored == hash_hex or not is_hex_hash(hash_hex))

    def _authentic(self, link: _Link | None, env: MessageEnvelope) -> bool:
        """Check an envelope as it arrives: on a keyed link, its counter rises
        past the last one whose tag checked and its tag checks under the
        link's receive key, and the counter is kept; on any other, its Ed25519
        signature checks. A frame whose counter does not rise, such as a
        replayed or reflected one or a link-open request sent again, fails
        before any tag is computed. A failed envelope is counted; a lost
        link-open reply is repaired by a new link (see tick)."""
        if link is None or link.keys is None:
            ok = verify_envelope(env)
        else:
            ok = (type(env.counter) is int and env.counter > link.received
                  and verify_envelope(env, link.keys[1]))
            if ok:
                link.received = env.counter
        if not ok:
            self.dropped_envelopes += 1
        return ok

    def _count_reject(self, reason: VerifyReason) -> None:
        self.rejects_by_reason[reason.value] = self.rejects_by_reason.get(reason.value, 0) + 1

    # -- sync --------------------------------------------------------------------

    def request_sync(self, conn) -> bool:
        """Send a locator of our chain, tip first; the peer answers with what follows it."""
        link = self._links.get(id(conn))
        if link is not None:
            if self._sync_pending(link):
                return False
            link.sync_sent_ms = link.quiet_since_ms = self.clock()
        heights = locator_heights(self.store.get_block_count() - 1)
        hashes = self.store.get_hashes(heights)
        payload = {"locator": [[height, hashes[height]] for height in heights]}
        if link is not None and link.outbound and not link.established:
            payload.update(link.hello)  # the link-open request
        return self._send(conn, wire.GET_BLOCKS, payload)

    def _sync_pending(self, link: _Link) -> bool:
        """Whether the link's last GET_BLOCKS is unanswered and not yet due a retry."""
        return (link.sync_sent_ms is not None
                and self.clock() - link.sync_sent_ms < SYNC_RETRY_MS)

    def _serve_sync(self, conn, env: MessageEnvelope) -> None:
        """Answer a locator with one page of the blocks after the fork point.

        The fork point is the highest locator height whose hash is ours;
        every chain shares genesis, so it is 0 when none matches. The page
        holds at least one block and, past the first, stays within an
        eighth of the frame cap: JSON escaping can make a data character
        take 6 bytes, so even then the page fits in one frame.
        A link's first request opens it: an empty or malformed locator, or a
        key share and nonce that yield no link keys, drop the link. The reply
        is signed and carries our share and nonce, and we pull back when we
        lack the locator's first entry, the peer's tip. Serving a request
        restarts no quiet timer (see tick).
        """
        link = self._links.get(id(conn))
        opening = link is not None and not link.established
        locator = _parse_locator(env.payload)
        if opening:
            hello = self._hello()
            keys = locator and self._share.link_keys(hello, env.payload,
                                                     self.identity.node_id, env.sender,
                                                     dialer=False)
            if not keys:  # no locator, or no keys
                self._drop_conn(conn)
                return
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
        reply = {"after": after, "blocks": page, "more": len(page) < len(rows)}
        if opening:
            reply.update(hello)
            # signed: the dialer's end of the link has no keys before it reads this
            raw = sign_envelope(wire.BLOCKS, self.clock(), reply, self.identity).encode()
        else:
            raw = self.envelope(conn, wire.BLOCKS, reply).encode()
        self._send_raw(conn, raw)
        if opening:
            link.keys, link.peer = keys, env.sender
            height, tip_hash = locator[0]
            if ours.get(height) != tip_hash:
                self.request_sync(conn)

    def _handle_sync_response(self, conn, env: MessageEnvelope) -> str:
        link = self._links.get(id(conn))
        payload = env.payload if isinstance(env.payload, dict) else {}
        if link is not None and not link.established:
            # the reply to our link-open request: its share and nonce key the link
            link.keys = link.hello and self._share.link_keys(
                link.hello, payload, self.identity.node_id, env.sender, dialer=True)
            if link.keys is None:
                self._drop_conn(conn)
                return "ignored"
            link.peer = env.sender
        if link is not None:
            link.sync_sent_ms = None
        after, raw_blocks, more = payload.get("after"), payload.get("blocks"), payload.get("more")
        blocks, outcome = [], "ignored"
        if is_block_int(after) and isinstance(raw_blocks, list) and isinstance(more, bool):
            try:
                blocks = [block_from_json(b) for b in raw_blocks]
            except MalformedBlockError:
                self._count_reject(VerifyReason.MALFORMED_BLOCK)
            else:
                outcome = self.adopt_if_heavier(after, blocks)
        if more and outcome == "adopted":
            self.request_sync(conn)  # the next page: the sync goes on
        elif link is not None and link.wanted is not None:
            # this reply ends a sync a gossiped block set off: it either
            # reached that block or the block's parent was not served
            if outcome == "adopted" or any(b.hash == link.wanted for b in blocks):
                link.unserved = 0
            else:
                link.unserved += 1
                self._count_reject(VerifyReason.PARENT_NOT_SERVED)
            link.wanted = None
        # unlinked: since we asked, a reorg took the fork point off our chain
        # or left our tip below it, so the reply no longer fits
        return "ignored" if outcome == "unlinked" else outcome

    def adopt_if_heavier(self, after: int, blocks: list[Block], *,
                         gossip: tuple[_Link | None, MessageEnvelope] | None = None) -> str:
        """The one way blocks join the chain, gossiped, synced or mined here.

        "unlinked" when `blocks[0]` does not follow the stored block at
        `after`. Otherwise only the stored blocks after `after` and `blocks`
        are verified and weighed, never the whole chain. A failed check is a
        counted reject ("rejected"). Then no more work keeps the chain
        ("unchanged"); a heavier suffix is "adopted": mining stops, and one
        transaction drops the stored blocks past the fork point and appends.
        `gossip` is the link and the envelope a gossiped block came in: the
        adopted block's relay skips its known holders (see broadcast_block).
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
                     gossip=gossip)
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
            if not wire.fits_block_frame(data):
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

    def _commit(self, prev: Block, blocks: list[Block], dropped=(), *, gossip=None):
        """Every chain change: drop the stored tail `dropped` (empty when `blocks`
        extend the tip), then append `blocks` on top of `prev` with their contract
        effects, all in one transaction. Only the last block is broadcast, past
        the holders `gossip` shows (see broadcast_block)."""
        with self.store.transaction():
            difficulty = self.store.replace_chain(dropped) if dropped else self.difficulty
            for block in blocks:
                difficulty = difficulty_after_append(difficulty, block, prev, self.params)
                self.store.add_block(block, difficulty)
                if block is blocks[-1]:
                    self.broadcast_block(block, gossip)
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
        raw = self.envelope(conn, wire.RESPONSE, self.handle_query(what, params)).encode()
        try:
            wire.check_frame_size(raw)
        except wire.ProtocolError as exc:
            # e.g. a chain too long for one frame: answer, never leave the client waiting
            raw = self.envelope(conn, wire.RESPONSE,
                                {"ok": False, "what": what, "error": str(exc)}).encode()
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

    def envelope(self, conn, kind: str, payload, body: bytes | None = None) -> MessageEnvelope:
        """`payload` as it leaves on `conn`: tagged as the link's next frame
        once the link is keyed, signed otherwise. `body` is the payload's
        canonical JSON, if the caller has it."""
        link = self._links.get(id(conn))
        if link is None or link.keys is None:
            return sign_envelope(kind, self.clock(), payload, self.identity, body=body)
        link.sent += 1
        return sign_envelope(kind, self.clock(), payload, self.identity, link.keys[0],
                             link.sent, body)

    def frames(self, kind: str, payload, conns: list) -> list[tuple[object, bytes]]:
        """`payload` for each of `conns`, established links' conns, as (conn,
        wire bytes): encoded once, and tagged as each link's next frame."""
        if not conns:
            return []
        body = canonical_json(payload)
        return [(conn, self.envelope(conn, kind, payload, body).encode()) for conn in conns]

    def _hello(self) -> dict:
        """A new link end's handshake fields, from the node's one key share."""
        if self._share is None:
            self._share = KeyShare(self.random_bytes)
        return self._share.hello()

    def _send(self, conn, kind: str, payload) -> bool:
        return self._send_raw(conn, self.envelope(conn, kind, payload).encode())

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
        # a peer's (wait, time.monotonic() before which it is not dialed) after
        # a failed dial; a dial that connects removes its entry
        self._backoff: dict[str, tuple[float, float]] = {}

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
            peers=config.peers,
            dial=self._dial,
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
        self.submit(self.core.tick)  # the first dials
        self.transport.start(tick=self.core.tick)

    def _dial(self, addr: str):
        """The core's dial of a configured peer: a connection, or None while
        the node stops, while the wait after a failed dial runs, or when the
        dial fails."""
        wait, due = self._backoff.get(addr, (0.0, 0.0))
        if self._stop.is_set() or time.monotonic() < due:
            return None
        try:
            conn = self.transport.dial(addr)
        except OSError as exc:
            wait = min(2 * wait or TICK_S, REDIAL_MAX_S)
            self._backoff[addr] = (wait, time.monotonic() + wait)
            logger.warning("cannot dial peer %s: %s; next try in %.0f s", addr, exc, wait)
            return None
        self._backoff.pop(addr, None)
        return conn

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
