"""The node orchestrator: request intake, mining pipeline, gossip, sync, queries.

NodeCore is a single-threaded state machine. Runtimes feed it events
(connections, messages, mining completions) from exactly one execution
context: the TCP runtime from its selector loop, which also runs
LoopMiner's nonce search one window per turn, and the simulator from its
event queue. Because of that the core, its store and its contract cache
need no locks, and the core behaves identically in both worlds.

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

Every frame is checked as it arrives, on the link the runtime opened for
its conn, before any handler reads it: its tag once the link is keyed, its
Ed25519 signature before, and one that fails is dropped and counted. Only
the frame's fixed header is read before that check, never its payload, so a
forged frame costs its tag; a payload that is not one JSON value is dropped
and counted once its frame has checked. Both runtimes hand the core each
conn (connect_peer, on_inbound_connection) before its first frame, so a
frame on any other conn is ignored. Handlers, replies and relays take that
`_Link` and never look it up again. Only then are a gossiped block's own
checks run, cheapest first: the held check, its shape, its parent lookup,
then the fork choice's checks or, for an unlinked block, the limited-link
cut and the pending-sync check.

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
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial

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
from powdb.mining import CANCEL_CHECK_INTERVAL
from powdb.store import BlockStore, NotFoundError
from powdb.transport import TICK_S, TcpTransport, parse_hostport
from powdb.wire import (
    MAX_HOLDERS,
    EncodingError,
    KeyShare,
    LinkKey,
    MessageEnvelope,
    NodeIdentity,
    canonical_json,
    decode_envelope,
    parse_holders,
    short_id,
    sign_envelope,
    tag_frames,
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
            for addr in [self.listen_addr, *self.peers]:
                parse_hostport(addr)
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
    quiet_since_ms: int  # last GET_BLOCKS sent or NEW_BLOCK read, or when the link opened
    hello: dict | None = None  # a dialer's handshake fields: the node's key and a nonce
    keys: tuple[LinkKey, LinkKey] | None = None  # (send, receive) once the handshake is done
    short: str | None = None  # the peer's short id, read by the relay's holder checks
    sent: int = 0  # the counter of the last frame tagged for this link
    received: int = 0  # the counter of the last frame on it whose tag checked
    sync_sent_ms: int | None = None
    wanted: str | None = None  # hash of the gossiped block that set off the pending sync
    unserved: int = 0  # syncs in a row whose reply did not reach their `wanted`

    def establish(self, keys: tuple[LinkKey, LinkKey], peer: str) -> None:
        """The handshake is done: key the link to `peer`."""
        self.keys, self.short = keys, short_id(peer)


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


def _unkeyed_may_carry(link: _Link, env: MessageEnvelope) -> bool:
    """Whether a link the handshake has not keyed may carry `env`: no
    NEW_BLOCK, and a sync message only at link open, the dialer's GET_BLOCKS
    on an inbound link or the BLOCKS reply on an outbound one."""
    if env.kind == wire.GET_BLOCKS:
        return not link.outbound
    if env.kind == wire.BLOCKS:
        return link.outbound
    return env.kind != wire.NEW_BLOCK


def parse_tx_data(data: str) -> dict | None:
    """Recover the structured payload from a block's data string.

    Returns None for opaque strings (the genesis payload, foreign data) and
    for any payload that `check_tx_payload` rejects; those blocks simply
    carry no contract action, on every node alike.
    """
    try:
        obj = json.loads(data)
        check_tx_payload(obj, lambda _cid: True)
    except (ValueError, RecursionError):  # JSONDecodeError and TxRejected included
        return None
    return obj


def validate_tx_payload(tx, known_contract) -> str:
    """Shape-check a transaction and return the block data string. A checked
    transaction always encodes, so parse_tx_data only checks: raw data and
    call args are checked for type, and compile_contract takes integer
    literals only."""
    check_tx_payload(tx, known_contract)
    return canonical_json(tx).decode("utf-8")


def check_tx_payload(tx, known_contract) -> None:
    """Shape-check a transaction; raises TxRejected. `known_contract(cid)`
    says whether a call target exists or its deploy is already queued."""
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


class NodeCore:
    """All node behavior behind transport-, clock- and miner-abstractions."""

    def __init__(self, identity: NodeIdentity, store: BlockStore, params: ChainParams,
                 clock, miner, *, mine_enabled: bool = True, random_bytes=os.urandom,
                 peers=(), dial=None):
        params.validate()
        self.identity = identity
        self.short = short_id(identity.node_id)  # what holder lists name this node by
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
        # fn(new_blocks, reorg_depth), called once per chain change; a caller
        # that watches several cores binds which core it is into each callback
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
        link = self._links[id(conn)] = _Link(conn, outbound=True, quiet_since_ms=self.clock(),
                                             hello=self._hello())
        self.request_sync(link)

    def on_inbound_connection(self, conn) -> None:
        self._links[id(conn)] = _Link(conn, outbound=False, quiet_since_ms=self.clock())

    def on_disconnect(self, conn) -> None:
        self._links.pop(id(conn), None)

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
            if link.keys is not None:
                if now - link.quiet_since_ms >= RESYNC_MS:
                    self.request_sync(link)
            elif link.outbound and now - link.quiet_since_ms >= HANDSHAKE_TIMEOUT_MS:
                self._drop_conn(link.conn)
        for addr, conn in self.peers.items():
            if conn is None or conn.closed:
                conn = self.peers[addr] = self.dial(addr)
                if conn is not None:
                    self.connect_peer(conn)

    def connected(self) -> list[_Link]:
        """The established links, oldest first."""
        return [link for link in self._links.values() if link.keys is not None]

    # -- message intake ------------------------------------------------------

    def on_message(self, conn, raw: bytes) -> str:
        """Single entry point for wire input, and the one place an envelope
        is checked: every kind is checked here, on its conn's link, before
        any handler reads it (see _authentic). A frame whose header does not
        decode is dropped and counted, and one on a conn with no link is
        ignored, as is a RESPONSE, which no node reads. A link without keys
        carries no block, and a sync message only to open the link; any
        other block or sync frame on it cannot be checked and is ignored.
        The payload is read only once the frame has checked, and one that is
        not one JSON value is dropped and counted. Reading a NEW_BLOCK
        restarts the link's quiet timer (see tick) whether its tag checks or
        not: a peer that keeps pushing blocks, forged or not, is not
        resynced."""
        env = decode_envelope(raw)
        if env is None:
            self.dropped_envelopes += 1
            return "dropped"
        link = self._links.get(id(conn))
        if (link is None or env.kind == wire.RESPONSE
                or (link.keys is None and not _unkeyed_may_carry(link, env))):
            return "ignored"
        if env.kind == wire.NEW_BLOCK:  # only a keyed link gets this far with one
            link.quiet_since_ms = self.clock()
        if not self._authentic(link, env):
            return "dropped"
        try:
            env.payload  # the first read of the payload: the frame has checked
        except EncodingError:
            self.dropped_envelopes += 1
            return "dropped"
        return self.on_envelope(link, env)

    def on_envelope(self, link: _Link, env: MessageEnvelope) -> str:
        """Act on an envelope that on_message has checked on `link`."""
        if env.sender == self.identity.node_id and env.counter is None:
            return "self"  # our own link-open request: we dialed ourselves
        kind = env.kind
        if kind == wire.NEW_BLOCK:
            return self.handle_new_block(link, env)
        elif kind == wire.GET_BLOCKS:
            self._serve_sync(link, env)
        elif kind == wire.BLOCKS:
            return self._handle_sync_response(link, env)
        elif kind == wire.TX:
            self._handle_tx(link, env)
        elif kind == wire.QUERY:
            self._handle_query(link, env)
        return "handled"

    # -- gossip ----------------------------------------------------------------

    def broadcast_block(self, block: Block,
                        gossip: tuple[_Link, MessageEnvelope] | None = None) -> int:
        """NEW_BLOCK to every established peer not known to hold the block,
        once, on its oldest link whose send does not fail. `gossip` is the
        link and the envelope a gossiped block came in: its peer and the ones
        its holder list names are known holders. The peer it came from is
        skipped on every link, and so is a reliable link to a known holder.
        The list sent names this node, the known holders and the peers it
        goes to over reliable links, in that order, up to MAX_HOLDERS, and
        only when the block goes to some link. A peer the push misses,
        through a false list or a lost frame, gets the block from the
        locator the tick sends once its link is quiet for RESYNC_MS."""
        source, env = gossip or (None, None)
        known = [self.short]
        if source is not None:
            known += [source.short, *parse_holders(env.payload)]
        skip = set(known)
        sender = known[:2]  # this node, and the peer the block came from
        targets: dict[str, _Link] = {}  # by peer, its oldest link the block may take
        spares = []  # any other such links, each tried once its peer's send fails
        for link in self._links.values():
            if (link.keys is not None and (link.short not in skip or not link.conn.reliable)
                    and link.short not in sender):
                if link.short in targets:
                    spares.append(link)
                else:
                    targets[link.short] = link
        if not targets:
            return 0
        known += [short for short, link in targets.items() if link.conn.reliable]
        payload = {"block": block_to_json(block), "have": list(dict.fromkeys(known))[:MAX_HOLDERS]}
        sent = 0
        for link, raw in self.frames(wire.NEW_BLOCK, payload, list(targets.values())):
            sent += self._send_raw(link, raw) or any(
                self._send_raw(spare, self.frame(spare, wire.NEW_BLOCK, payload))
                for spare in spares if spare.short == link.short)
        return sent

    def handle_new_block(self, link: _Link, env: MessageEnvelope) -> str:
        """A gossiped block whose envelope has checked, cheapest check first:
        the held check, the shape, the parent lookup and, for a linked block,
        the fork choice's checks, or, for an unlinked one, the limited-link
        cut and the pending-sync check (in request_sync). A block that fails
        one is counted under its reason."""
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
            if link.unserved >= MAX_UNSERVED:
                self._count_reject(VerifyReason.PARENT_NOT_SERVED)
                return "ignored"
            # request_sync sends none while the link's last sync is pending,
            # which may reach it
            if self.request_sync(link):
                link.wanted = block.hash
            return "sync_triggered"
        if outcome == "adopted":
            link.unserved = 0  # the link serves linked blocks again
            return "appended"
        return "ignored"

    def _is_held(self, index, hash_hex) -> bool:
        """Whether a block, read before its shape is checked, cannot change the
        chain: it is at index 0, where every chain holds genesis, or the store
        holds a block at its index and its hash is that block's or malformed.
        A block above the tip is answered from the tip; any other reads at
        most one stored hash, so a relay of an old block loads no stored
        suffix. Any other block at a held height may start a heavier fork."""
        if not is_block_int(index) or index > self.store.tip().index:
            return False
        # the store holds a block at every index up to the tip
        return (index == 0 or self.store.get_hashes([index])[index] == hash_hex
                or not is_hex_hash(hash_hex))

    def _authentic(self, link: _Link, env: MessageEnvelope) -> bool:
        """Check an envelope as it arrives: on a keyed link, its counter rises
        past the last one whose tag checked and its tag checks under the
        link's receive key, and the counter is kept; on any other, its Ed25519
        signature checks. A frame whose counter does not rise, such as a
        replayed or reflected one or a link-open request sent again, fails
        before any tag is computed. A failed envelope is counted; a lost
        link-open reply is repaired by a new link (see tick)."""
        if link.keys is None:
            ok = verify_envelope(env)
        else:
            ok = (env.counter is not None and env.counter > link.received
                  and verify_envelope(env, link.keys[1]))
            if ok:
                link.received = env.counter
        if not ok:
            self.dropped_envelopes += 1
        return ok

    def _count_reject(self, reason: VerifyReason) -> None:
        self.rejects_by_reason[reason.value] = self.rejects_by_reason.get(reason.value, 0) + 1

    # -- sync --------------------------------------------------------------------

    def request_sync(self, link: _Link) -> bool:
        """Send a locator of our chain, tip first; the peer answers with what follows it."""
        if self._sync_pending(link):
            return False
        link.sync_sent_ms = link.quiet_since_ms = self.clock()
        heights = locator_heights(self.store.get_block_count() - 1)
        hashes = self.store.get_hashes(heights)
        payload = {"locator": [[height, hashes[height]] for height in heights]}
        if link.outbound and link.keys is None:
            payload.update(link.hello)  # the link-open request
        return self._send_raw(link, self.frame(link, wire.GET_BLOCKS, payload))

    def _sync_pending(self, link: _Link) -> bool:
        """Whether the link's last GET_BLOCKS is unanswered and not yet due a retry."""
        return (link.sync_sent_ms is not None
                and self.clock() - link.sync_sent_ms < SYNC_RETRY_MS)

    def _serve_sync(self, link: _Link, env: MessageEnvelope) -> None:
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
        opening = link.keys is None
        locator = _parse_locator(env.payload)
        if opening:
            hello = self._hello()
            keys = locator and self._share.link_keys(hello, env.payload,
                                                     self.identity.node_id, env.sender,
                                                     dialer=False)
            if not keys:  # no locator, or no keys
                self._drop_conn(link.conn)
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
        # signed at link open, as the keys are set only after the send: the
        # dialer's end of the link has none before it reads this
        self._send_raw(link, self.frame(link, wire.BLOCKS, reply))
        if opening:
            link.establish(keys, env.sender)
            height, tip_hash = locator[0]
            if ours.get(height) != tip_hash:
                self.request_sync(link)

    def _handle_sync_response(self, link: _Link, env: MessageEnvelope) -> str:
        payload = env.payload if isinstance(env.payload, dict) else {}
        if link.keys is None:
            # the reply to our link-open request: its share and nonce key the link
            keys = self._share.link_keys(link.hello, payload, self.identity.node_id,
                                         env.sender, dialer=True)
            if keys is None:
                self._drop_conn(link.conn)
                return "ignored"
            link.establish(keys, env.sender)
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
            self.request_sync(link)  # the next page: the sync goes on
        elif link.wanted is not None:
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
                         gossip: tuple[_Link, MessageEnvelope] | None = None) -> str:
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
        candidate = local[:1] + blocks
        common = shared_prefix(local, candidate)
        selected, err = choose_chain(local, candidate, self.params, common)
        if err is not None:
            self._count_reject(err.reason)
            return "rejected"
        if selected is local:
            return "unchanged"
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
            self.on_chain_change(blocks, len(dropped))

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
        cid = tx["contract_id"]
        try:
            # The store decides whether the contract exists on this chain; a
            # cached compile may outlive its deploy across a reorg.
            source = self.store.get_contract(cid)
            if source is None:
                raise ContractNotFound(cid)
            compiled = cached_lookup(self.cache, cid, lambda _cid: json.loads(source))
            execute(compiled, tx["args"],
                    lambda key: self.store.get_state(cid, key),
                    lambda key, value: self.store.put_state(cid, key, value, block.index))
        except (ContractError, ContractNotFound) as exc:
            reason = (exc.reason.value if isinstance(exc, ContractError)
                      else type(exc).__name__)
            self.exec_errors[reason] = self.exec_errors.get(reason, 0) + 1

    # -- client surface -------------------------------------------------------------

    def _handle_tx(self, link: _Link, env: MessageEnvelope) -> None:
        tx = env.payload.get("tx") if isinstance(env.payload, dict) else None
        self.submit_tx(tx if isinstance(tx, dict) else {}, partial(self._reply, link))

    def _handle_query(self, link: _Link, env: MessageEnvelope) -> None:
        payload = env.payload if isinstance(env.payload, dict) else {}
        self._reply(link, self.handle_query(payload.get("what"), payload.get("params") or {}))

    def _reply(self, link: _Link, result: dict) -> None:
        """Answer a client's TX or QUERY with one RESPONSE; one over the frame cap,
        say a whole chain or an echoed huge tx, becomes a small error in its place,
        which echoes `what` only when it is a short string, so that it fits too."""
        raw = self.frame(link, wire.RESPONSE, result)
        try:
            wire.check_frame_size(raw)
        except wire.ProtocolError as exc:
            what = result["what"]
            if not isinstance(what, str) or len(what) > 64:
                what = None
            raw = self.frame(link, wire.RESPONSE, {"ok": False, "what": what, "error": str(exc)})
        self._send_raw(link, raw)

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
            try:
                value = self.store.get_state(cid, key)
            except UnicodeEncodeError:  # a lone surrogate names no stored cell
                value = None
            if value is None:
                return {"ok": False, "what": what, "error": "not-found"}
            return {"ok": True, "what": what, "result": {"value": value}}
        if what == "stats":
            count, tip = self.store.chain_info()
            return {"ok": True, "what": what, "result": {
                "count": count,
                "tip_hash": tip,
                "peer_count": len({link.short for link in self.connected()}),
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

    def frame(self, link: _Link, kind: str, payload) -> bytes:
        """`payload` as it leaves on `link`, as wire bytes: tagged as the
        link's next frame once the link is keyed, signed otherwise."""
        if link.keys is None:
            return sign_envelope(kind, self.clock(), payload, self.identity).encode()
        return self.frames(kind, payload, [link])[0][1]

    def frames(self, kind: str, payload, links: list[_Link]) -> list[tuple[_Link, bytes]]:
        """`payload` for each of `links`, established ones, as (link, wire
        bytes): encoded once, and tagged as each link's next frame."""
        for link in links:
            link.sent += 1
        return list(zip(links, tag_frames(kind, self.clock(), payload, self.identity.node_id,
                                          [(link.keys[0], link.sent) for link in links])))

    def _hello(self) -> dict:
        """A new link end's handshake fields, from the node's one key share."""
        if self._share is None:
            self._share = KeyShare(self.random_bytes)
        return self._share.hello()

    def _send_raw(self, link: _Link, raw: bytes) -> bool:
        try:
            link.conn.send_message(raw)
            return True
        except wire.ProtocolError:
            return False  # the frame is over the size cap; the link itself is fine
        except (ConnectionError, OSError):
            self._links.pop(id(link.conn), None)
            return False

    def _drop_conn(self, conn) -> None:
        self._links.pop(id(conn), None)
        try:
            conn.close()
        except OSError:
            pass


class _LoopJob:
    """One mining job of a LoopMiner; the core calls `cancel()`."""
    cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class LoopMiner:
    """The live node's miner: one loop call per window of CANCEL_CHECK_INTERVAL
    nonces, as SimMiner runs in the simulator's event queue. A miss submits
    the next window and a hit submits `done(mined)`, each behind the input
    that arrived meanwhile; the first window after `cancel()` calls
    `done(None)` and searches nothing."""

    def __init__(self, submit):
        self._submit = submit  # fn(closure) -> runs it on the node's loop

    def start(self, block: Block, done) -> _LoopJob:
        job = _LoopJob()

        def window(start: int) -> None:
            if job.cancelled:
                return done(None)
            mined = mine_block(block, start, CANCEL_CHECK_INTERVAL)
            if mined is None:
                self._submit(lambda: window(start + CANCEL_CHECK_INTERVAL))
            else:
                self._submit(lambda: done(mined))

        self._submit(lambda: window(0))
        return job


class NodeRuntime:
    """TCP wiring: one selector loop thread drives the core and runs its
    miner's windows; the node starts no other thread. The thread that builds
    a runtime owns its core, store and sockets until `start()`, and the loop
    until `stop()` has waited for it to end; other threads only `submit`."""

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
            miner=LoopMiner(self.submit),
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
        """Run on the main thread, the only one that sets signal handlers, until
        SIGINT, SIGTERM (both raise KeyboardInterrupt, even if SIGINT started
        ignored, as in an `&` job) or `stop()`. From the handlers on, the node
        is stopped and its store closed however this returns."""
        try:
            signal.signal(signal.SIGINT, signal.default_int_handler)
            signal.signal(signal.SIGTERM, signal.default_int_handler)
            print(f"listening on {self.listen_addr}, node id {self.core.identity.node_id}",
                  flush=True)
            self.start()
            self._stop.wait()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Close the core on the loop, wait for the loop to end after its current
        call, however long it runs, then close the store; a second call does nothing."""
        if self._stop.is_set():
            return
        self._stop.set()
        self.submit(self.core.close)
        self.transport.stop()
        self.store.close()
