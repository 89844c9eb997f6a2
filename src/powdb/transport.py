"""Transport abstraction: message-oriented connections over TCP sockets.

The node core only ever sees objects with `send_message` / `close`; the
in-memory transport used by the simulator lives in `powdb.simnet` and obeys
the same contract. TCP connections frame each message with a 4-byte length
and run one reader thread per connection that feeds whole messages to the
owner's callbacks.
"""

from __future__ import annotations

import logging
import socket
import threading

from powdb.wire import ProtocolError, deframe, frame, socket_read_exact

logger = logging.getLogger(__name__)


def parse_hostport(addr: str) -> tuple[str, int]:
    host, sep, port = addr.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be host:port, got {addr!r}")
    return host, int(port)


class TcpConnection:
    """One framed, bidirectional message stream."""

    def __init__(self, sock: socket.socket, label: str):
        self._sock = sock
        self._write_lock = threading.Lock()
        self.label = label
        self.closed = False

    def send_message(self, message: bytes) -> None:
        data = frame(message)
        try:
            with self._write_lock:
                self._sock.sendall(data)
        except OSError as exc:
            self.close()
            raise ConnectionError(f"send to {self.label} failed: {exc}") from exc

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()

    def __repr__(self) -> str:
        return f"<TcpConnection {self.label}>"


class TcpTransport:
    """Listener plus dialer; all events are delivered via owner callbacks.

    The callbacks (`on_connection`, `on_message`, `on_disconnect`) are invoked
    from transport threads; the node runtime marshals them onto its command
    queue so the core stays single-threaded.
    """

    def __init__(self, on_connection, on_message, on_disconnect):
        self._on_connection = on_connection
        self._on_message = on_message
        self._on_disconnect = on_disconnect
        self._server: socket.socket | None = None
        # live threads, plus any that finished since the last one started
        self._threads: list[threading.Thread] = []
        self._threads_lock = threading.Lock()
        self._stopping = threading.Event()

    def listen(self, addr: str) -> str:
        """Bind and start accepting; returns the bound host:port."""
        host, port = parse_hostport(addr)
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            server.bind((host, port))
            server.listen(32)
        except BaseException:
            server.close()  # not yet in self._server, so stop() would never close it
            raise
        self._server = server
        bound = f"{host}:{server.getsockname()[1]}"
        thread = threading.Thread(target=self._accept_loop, name=f"accept:{bound}",
                                  daemon=True)
        self._start(thread)
        return bound

    def dial(self, addr: str, timeout: float = 5.0) -> TcpConnection:
        host, port = parse_hostport(addr)
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.settimeout(None)
        conn = TcpConnection(sock, label=addr)
        self._spawn_reader(conn, sock)
        return conn

    def stop(self) -> None:
        self._stopping.set()
        if self._server is not None:
            try:
                # close() alone does not wake a thread blocked in accept()
                self._server.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._server.close()
            except OSError:
                pass

    def _accept_loop(self) -> None:
        assert self._server is not None
        while not self._stopping.is_set():
            try:
                sock, peer = self._server.accept()
            except OSError:
                return
            conn = TcpConnection(sock, label=f"{peer[0]}:{peer[1]}")
            self._on_connection(conn)
            self._spawn_reader(conn, sock)

    def _spawn_reader(self, conn: TcpConnection, sock: socket.socket) -> None:
        self._start(threading.Thread(target=self._reader_loop, args=(conn, sock),
                                     name=f"reader:{conn.label}", daemon=True))

    def _start(self, thread: threading.Thread) -> None:
        # dial() and the accept loop spawn readers from different threads
        with self._threads_lock:
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)
            thread.start()

    def _reader_loop(self, conn: TcpConnection, sock: socket.socket) -> None:
        read_exact = socket_read_exact(sock)
        while True:
            try:
                message = deframe(read_exact)
            except (ProtocolError, OSError) as exc:
                if not conn.closed and not self._stopping.is_set():
                    logger.debug("dropping %s: %s", conn.label, exc)
                conn.close()
                self._on_disconnect(conn)
                return
            if message is None:
                conn.close()
                self._on_disconnect(conn)
                return
            self._on_message(conn, message)
