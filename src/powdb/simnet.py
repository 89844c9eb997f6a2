"""Deterministic simulation substrate: virtual clock, event queue, in-memory
transport with seeded latency/loss and partition windows, virtual-time miner.

Everything runs single-threaded over one event queue, in (time, seq)
order: ties in time are broken by the order events were scheduled, so a run
is a pure function of its inputs. The network schedules each of its events
(a delivery, an inbound connection, a disconnect) one fixed latency ahead,
so it appends them to a FIFO rather than a heap, as a bound method and its
arguments, with no closure built per frame.
"""

from __future__ import annotations

import heapq
import random
from collections import deque

from powdb import wire
from powdb.consensus import mine_block


class EventQueue:
    """Events run in (time, seq) order, and `now` only moves forward.

    `at` and `after` push an event onto a heap. `later(delay, fn, *args)`
    appends one to the FIFO kept for that delay: as `now` never falls and
    every event in a FIFO is the same delay ahead, each FIFO is already in
    (time, seq) order, and appending to it costs no sift. One sequence
    counter numbers every event, and `run` always takes the earliest head
    of the heap and the FIFOs, so events run in the order one heap of them
    all would give. `len` counts the events waiting, and `processed` the
    events run.
    """

    def __init__(self):
        self.now = 0
        self._heap: list = []  # (time, seq, fn, args)
        self._fifos: dict[int, deque] = {}  # by delay, each in (time, seq) order
        self._seq = 0
        self.processed = 0

    def at(self, t_ms: int, fn) -> None:
        heapq.heappush(self._heap, (max(t_ms, self.now), self._seq, fn, ()))
        self._seq += 1

    def after(self, delay_ms: int, fn) -> None:
        self.at(self.now + max(0, delay_ms), fn)

    def later(self, delay_ms: int, fn, *args) -> None:
        """Run `fn(*args)` `delay_ms` from now, from the FIFO of that delay."""
        delay = max(0, delay_ms)
        fifo = self._fifos.get(delay)
        if fifo is None:
            fifo = self._fifos[delay] = deque()
        fifo.append((self.now + delay, self._seq, fn, args))
        self._seq += 1

    def __len__(self) -> int:
        return len(self._heap) + sum(map(len, self._fifos.values()))

    def run(self, max_events: int = 5_000_000) -> None:
        """Drain the queue completely."""
        heap, fifos = self._heap, self._fifos.values()  # a view: it sees new delays
        while True:
            head = heap[0] if heap else None
            lane = None
            for fifo in fifos:
                # seq is unique, so a comparison never reaches fn
                if fifo and (head is None or fifo[0] < head):
                    head, lane = fifo[0], fifo
            if lane is not None:
                lane.popleft()
            elif head is not None:
                heapq.heappop(heap)
            else:
                return
            self.now, _seq, fn, args = head
            fn(*args)
            self.processed += 1
            if self.processed > max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events")


class MemConnection:
    """One direction-pair endpoint of an in-memory link."""

    def __init__(self, network: "MemNetwork", local_addr: str, remote_addr: str, owner):
        self.network = network
        self.local_addr = local_addr
        self.remote_addr = remote_addr
        self.owner = owner  # receives on_message / on_disconnect for this side
        self.peer: "MemConnection | None" = None
        self.closed = False
        self.label = f"{local_addr}->{remote_addr}"

    @property
    def reliable(self) -> bool:
        """Whether every message sent arrives, unless a partition cuts the
        link: only on a network that loses none."""
        return self.network.loss_rate == 0

    def send_message(self, message: bytes) -> None:
        wire.check_frame_size(message)  # the cap a TCP frame has, checked first as there
        if self.closed or self.peer is None or self.peer.closed:
            raise ConnectionError(f"connection {self.label} is closed")
        self.network.deliver(self, self.peer, message)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        peer = self.peer
        if peer is not None and not peer.closed:
            peer.closed = True
            self.network.queue.later(self.network.latency_ms, peer.owner.on_disconnect, peer)

    def __repr__(self) -> str:
        return f"<MemConnection {self.label}>"


class MemNetwork:
    """Address-routed message transport with partitions, latency and loss.

    Partition semantics: a partition closes every open link that crosses
    its groups, and both ends' owners get `on_disconnect`, as when a TCP
    link breaks. A message in flight on such a link is dropped and counted
    in `dropped_by_partition`, and a dial across the partition fails. In-group
    links are untouched. `heal` reopens nothing: the owners dial again.
    """

    def __init__(self, queue: EventQueue, rng: random.Random, latency_ms: int,
                 loss_rate: float):
        self.queue = queue
        self.rng = rng
        self.latency_ms = latency_ms
        self.loss_rate = loss_rate
        self._listeners: dict[str, object] = {}
        self._groups: list[set[str]] | None = None
        self._dialed: list[MemConnection] = []  # the dialer's end of every link
        self.dropped_by_partition = 0
        self.dropped_by_loss = 0

    def listen(self, addr: str, owner) -> None:
        if addr in self._listeners:
            raise ValueError(f"address {addr} already bound")
        self._listeners[addr] = owner

    def dial(self, src_owner, src_addr: str, dst_addr: str) -> MemConnection | None:
        dst_owner = self._listeners.get(dst_addr)
        if dst_owner is None or not self.reachable(src_addr, dst_addr):
            return None
        near = MemConnection(self, src_addr, dst_addr, src_owner)
        far = MemConnection(self, dst_addr, src_addr, dst_owner)
        near.peer, far.peer = far, near
        self._dialed.append(near)
        self.queue.later(self.latency_ms, dst_owner.on_inbound_connection, far)
        return near

    def reachable(self, addr_a: str, addr_b: str) -> bool:
        if self._groups is None:
            return True
        for group in self._groups:
            if addr_a in group:
                return addr_b in group
        return False

    def deliver(self, src: MemConnection, dst: MemConnection, message: bytes) -> None:
        if self.loss_rate > 0 and self.rng.random() < self.loss_rate:
            self.dropped_by_loss += 1
            return
        self.queue.later(self.latency_ms, self._arrive, src, dst, message)

    def _arrive(self, src: MemConnection, dst: MemConnection, message: bytes) -> None:
        if not self.reachable(src.local_addr, dst.local_addr):
            self.dropped_by_partition += 1  # the partition cut the link meanwhile
        elif not dst.closed:
            dst.owner.on_message(dst, message)

    def set_partition(self, groups: list[set[str]]) -> None:
        """Cut every link between groups; ScenarioConfig.validate checked them disjoint."""
        self._groups = [set(g) for g in groups]
        self._dialed = [conn for conn in self._dialed if not conn.closed]
        for conn in self._dialed:
            if not self.reachable(conn.local_addr, conn.remote_addr):
                conn.close()  # the far end's owner hears of it one latency later
                self.queue.later(self.latency_ms, conn.owner.on_disconnect, conn)

    def heal(self) -> None:
        self._groups = None


class _SimMiningHandle:
    def __init__(self):
        self.finished = False
        self._on_cancel = None

    def cancel(self) -> None:
        if not self.finished:
            self.finished = True
            if self._on_cancel is not None:
                self._on_cancel()


class SimMiner:
    """Mines the real nonce immediately, completes after a virtual delay.

    The delay is the attempt count of the actual search divided by the
    configured hash rate, so inter-block times follow the same distribution
    a live miner of that speed would produce.
    """

    def __init__(self, queue: EventQueue, attempts_per_ms: float):
        if attempts_per_ms <= 0:
            raise ValueError("hash rate must be positive")
        self.queue = queue
        self.attempts_per_ms = attempts_per_ms

    def start(self, block, done) -> _SimMiningHandle:
        mined = mine_block(block)
        delay = max(1, round((mined.nonce + 1) / self.attempts_per_ms))
        handle = _SimMiningHandle()

        def complete():
            if not handle.finished:
                handle.finished = True
                done(mined)

        handle._on_cancel = lambda: self.queue.after(0, lambda: done(None))
        self.queue.after(delay, complete)
        return handle
