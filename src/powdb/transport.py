"""Transport abstraction: message-oriented connections over TCP sockets.

The node core only ever sees objects with `send_message` / `close`; the
in-memory transport used by the simulator lives in `powdb.simnet` and obeys
the same contract. TCP connections frame each message with a 4-byte length.
One selector loop on one thread owns the listening socket, every connection
and a socket pair by which other threads wake it, and calls the owner as
`MemNetwork` does. It runs the calls given to `submit`, such as the node's
mining windows, between polls, and never waits while calls are queued, so
input is served before a call that a call submitted. `stop()` waits for the
loop to end, however long its current call runs, before it closes what the
loop owned.
"""

from __future__ import annotations

import logging
import selectors
import socket
import threading
import time
from collections import deque

from powdb.wire import ProtocolError, frame, split_frames

logger = logging.getLogger(__name__)

TICK_S = 1.0  # seconds between two calls of the loop's tick
DIAL_TIMEOUT_S = 5.0  # how long a dial waits for the peer to accept


def parse_hostport(addr: str) -> tuple[str, int]:
    host, sep, port = addr.rpartition(":")
    if not sep or not host or not port.isdigit() or int(port) > 65535:
        raise ValueError(f"address must be host:port with a port in 0..65535, got {addr!r}")
    return host, int(port)


def _guarded(fn, *args) -> None:
    try:
        fn(*args)
    except Exception:  # one failing callback must not end the loop
        logger.exception("callback failed")


class TcpConnection:
    """One framed, bidirectional message stream."""

    # a frame sent either arrives or the link closes, and the dial that
    # opens it again starts with a sync
    reliable = True

    def __init__(self, sock: socket.socket, label: str, selector: selectors.BaseSelector):
        self._sock = sock
        self._selector = selector
        self._received = bytearray()  # the start of a frame not yet whole
        self.label = label
        self.closed = False

    def send_message(self, message: bytes) -> None:
        data = frame(message)
        try:
            self._sock.sendall(data)
        except OSError as exc:
            self.close()
            raise ConnectionError(f"send to {self.label} failed: {exc}") from exc

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            # leave the selector first: the next accept may reuse the fd number
            self._selector.unregister(self._sock)
            self._sock.close()

    def __repr__(self) -> str:
        return f"<TcpConnection {self.label}>"


class TcpTransport:
    """Listener plus dialer; every call to `owner` comes from the loop thread."""

    def __init__(self, owner):
        self._owner = owner
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ,
                                lambda: self._wake_r.recv(4096))
        self._calls: deque = deque()
        self._running = True
        self._threads: list[threading.Thread] = []  # the loop, once started

    def listen(self, addr: str) -> str:
        """Bind and start accepting; returns the bound host:port."""
        host, port = parse_hostport(addr)
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            server.bind((host, port))
            server.listen(32)
        except BaseException:
            server.close()  # not yet registered, so stop() would never close it
            raise
        server.setblocking(False)
        self._selector.register(server, selectors.EVENT_READ, lambda: self._accept(server))
        return f"{host}:{server.getsockname()[1]}"

    def dial(self, addr: str) -> TcpConnection:
        """Connect to `addr`; call it on the loop thread or before `start`."""
        sock = socket.create_connection(parse_hostport(addr), timeout=DIAL_TIMEOUT_S)
        sock.settimeout(None)
        return self._register(sock, addr)

    def submit(self, fn) -> None:
        """Run `fn()` on the loop thread; safe from any thread."""
        self._calls.append(fn)
        if threading.current_thread() not in self._threads:  # the loop needs no wake
            try:
                self._wake_w.send(b"\0")
            except OSError:
                pass  # the pair is full, so the loop wakes anyway, or it is closed

    def start(self, tick) -> None:
        """Start the loop; it calls `tick()` every TICK_S seconds."""
        thread = threading.Thread(target=self._loop, args=(tick,), name="node-loop",
                                  daemon=True)
        self._threads.append(thread)
        thread.start()

    def stop(self) -> None:
        """End the loop after the calls submitted so far, wait for it, close every socket."""
        self.submit(self._halt)
        for thread in self._threads:
            thread.join()  # the loop owns the sockets until it returns
        for key in list(self._selector.get_map().values()):
            key.fileobj.close()
        self._wake_w.close()
        self._selector.close()

    def _halt(self) -> None:
        self._running = False

    def _loop(self, tick) -> None:
        next_tick = time.monotonic() + TICK_S
        while self._running:
            # Only the calls queued before this poll run after it; input that
            # arrives while they wait is served first, in arrival order.
            due = len(self._calls)
            timeout = 0 if due else max(0.0, next_tick - time.monotonic())
            for key, _events in self._selector.select(timeout):
                key.data()
            for _ in range(due):
                _guarded(self._calls.popleft())
            if time.monotonic() >= next_tick:
                next_tick = time.monotonic() + TICK_S
                _guarded(tick)

    def _register(self, sock: socket.socket, label: str) -> TcpConnection:
        # each frame goes out whole; Nagle's algorithm would hold the next until an ack
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = TcpConnection(sock, label, self._selector)
        self._selector.register(sock, selectors.EVENT_READ, lambda: self._read(conn))
        return conn

    def _accept(self, server: socket.socket) -> None:
        try:
            sock, peer = server.accept()
        except OSError:
            return  # the peer gave up before we got to it
        _guarded(self._owner.on_inbound_connection,
                 self._register(sock, f"{peer[0]}:{peer[1]}"))

    def _read(self, conn: TcpConnection) -> None:
        if conn.closed:
            return  # a callback earlier in this pass closed it
        try:
            chunk = conn._sock.recv(64 * 1024)
            if not chunk:
                raise ConnectionError("closed by the peer")
            conn._received += chunk
            messages = split_frames(conn._received)
        except (ProtocolError, OSError) as exc:
            logger.debug("dropping %s: %s", conn.label, exc)
            conn.close()
            _guarded(self._owner.on_disconnect, conn)
            return
        for message in messages:
            if conn.closed:
                return
            _guarded(self._owner.on_message, conn, message)
