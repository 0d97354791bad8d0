"""TCP shard workers: the socket placement of the process shard pool.

:class:`TcpTransport` puts shard workers **outside the coordinator's process
tree**, on the same host or another one.  The trip protocol and the delta
encoding are those of :mod:`repro.cluster.process_pool` and
:mod:`repro.cluster.transport`; this module adds only what a socket needs:

* **Framing** — every message is one length-prefixed frame (magic +
  ``uint32`` length + pickled payload), written as **one buffer** so header
  and payload never leave as two segments (with Nagle's algorithm and the
  peer's delayed ACK that costs ~40 ms per message; both ends also set
  ``TCP_NODELAY``).  A frame that does not start with the magic word means
  the byte stream desynced (or was corrupted); both sides refuse to
  resynchronize and raise :class:`SnapshotError`.
* **Endpoint** — the coordinator runs an asyncio ``start_server`` loop on a
  background thread; the pool keeps its synchronous trip protocol and talks
  to each worker through a thin channel facade
  (``run_coroutine_threadsafe``).  Workers handshake with a per-pool token
  and receive the coordinator's :class:`~repro.config.EngineConfig` record
  itself (plus the metrics flag) in the reply — a remote ``chimera-events
  worker`` needs the address and token, nothing else.  The hello is a
  fixed-size struct, never a pickle: the endpoint reads exactly one
  hello-sized frame (any other length closes the connection unread) and
  compares the token in constant time before it looks at anything else, so
  bytes from a peer that does not hold the token are never unpickled.
* **Reconnects** — a new hello for an already-registered worker id replaces
  the channel and is reported through ``poll_refreshed()``: the pool resets
  that worker's shipping bookkeeping, so its next message re-ships every
  definition and the log from position 0 (the row log never evicts).  A
  worker that dies *mid-trip* cannot be replaced retroactively — the failed
  send/receive poisons the pool, exactly like a dead pipe.

By default the transport binds ``127.0.0.1`` on an ephemeral port and forks
its own localhost workers — single-host testing needs no setup.  Multi-host
deployments set the record's ``tcp_host`` / ``tcp_port``, disable spawning
with ``tcp_spawn=False``, and start workers on other machines with
``chimera-events worker --host ... --port ... --worker-id K --token T``.
"""

from __future__ import annotations

import asyncio
import hmac
import multiprocessing
import pickle
import secrets
import socket
import struct
import sys
import threading
import time

from repro.cluster.transport import ShardTransport
from repro.config import EngineConfig
from repro.errors import ShardWorkerError, SnapshotError

__all__ = [
    "TCP_TIMEOUT",
    "SocketFrameConnection",
    "TcpCoordinatorEndpoint",
    "TcpTransport",
    "run_worker",
]

_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Frame header: magic word + payload length.  The magic is re-validated on
#: every frame, so a desynced or corrupted stream fails loudly instead of
#: feeding pickle garbage.
_FRAME_HEADER = struct.Struct("<4sI")
_FRAME_MAGIC = b"CHF1"

#: Refuse absurd frame lengths outright — a length field this large is a
#: corrupt header, not a real message.
_MAX_FRAME_BYTES = 1 << 31

#: The worker's hello, the one frame read before authentication: magic,
#: worker id, token length, token bytes zero-padded to the fixed width.  The
#: token field is everything after the ``_HELLO_ID`` prefix.
_HELLO = struct.Struct("<4sIH64s")
_HELLO_ID = struct.Struct("<4sI")
_HELLO_MAGIC = b"CHH1"
_MAX_TOKEN_BYTES = 64

#: Per-operation socket timeout (seconds) before the pool declares a worker
#: unreachable and poisons itself; also how long a no-spawn launch waits for
#: external workers.
TCP_TIMEOUT = 120.0
_HANDSHAKE_TIMEOUT = 30.0


def _frame(payload: bytes) -> bytes:
    """``payload`` behind its header, as the one buffer a send writes."""
    return _FRAME_HEADER.pack(_FRAME_MAGIC, len(payload)) + payload


def _hello(worker_id: int, token: str) -> bytes:
    """The hello payload a worker opens with."""
    secret = token.encode()
    if len(secret) > _MAX_TOKEN_BYTES:
        raise ShardWorkerError(
            f"a worker token is at most {_MAX_TOKEN_BYTES} bytes (got {len(secret)})"
        )
    return _HELLO.pack(_HELLO_MAGIC, worker_id, len(secret), secret)


def _set_nodelay(sock: socket.socket) -> None:
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass  # non-TCP stream socket (tests run the codec over AF_UNIX)


def _corrupt_frame_error(magic: bytes, length: int) -> SnapshotError:
    return SnapshotError(
        f"socket frame header is corrupt (magic={magic!r} length={length}); "
        "the byte stream desynced — refusing to resynchronize, close the "
        "pool and let the coordinator spawn a fresh one"
    )


async def _read_frame(reader: asyncio.StreamReader) -> bytes:
    """One length-prefixed frame off an asyncio stream (coordinator side)."""
    header = await reader.readexactly(_FRAME_HEADER.size)
    magic, length = _FRAME_HEADER.unpack(header)
    if magic != _FRAME_MAGIC or length > _MAX_FRAME_BYTES:
        raise _corrupt_frame_error(magic, length)
    return await reader.readexactly(length)


class SocketFrameConnection:
    """Blocking frame codec over one socket (the worker side of a channel).

    Implements the same ``send_bytes`` / ``recv_bytes`` surface as a
    ``multiprocessing.Connection``, with the same failure idiom: ``EOFError``
    when the peer is gone, ``OSError`` for transport faults — so the shard
    worker loop runs on it unchanged.
    """

    __slots__ = ("_sock",)

    def __init__(self, sock: socket.socket) -> None:
        _set_nodelay(sock)
        self._sock = sock

    def send_bytes(self, payload: bytes) -> None:
        self._sock.sendall(_frame(payload))

    def recv_bytes(self) -> bytes:
        header = self._recv_exact(_FRAME_HEADER.size)
        magic, length = _FRAME_HEADER.unpack(header)
        if magic != _FRAME_MAGIC or length > _MAX_FRAME_BYTES:
            raise _corrupt_frame_error(magic, length)
        return self._recv_exact(length)

    def _recv_exact(self, count: int) -> bytes:
        buffer = bytearray(count)
        view = memoryview(buffer)
        received = 0
        while received < count:
            chunk = self._sock.recv_into(view[received:])
            if chunk == 0:
                raise EOFError("socket closed by peer")
            received += chunk
        return bytes(buffer)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class _TcpChannel:
    """Coordinator side of one worker channel: a sync facade over the loop.

    ``send_bytes`` / ``recv_bytes`` submit coroutines to the endpoint's
    event loop and block on the result with the transport timeout.  Failure
    types line up with the pipe transports — ``EOFError`` (via asyncio's
    ``IncompleteReadError``) for a vanished peer, ``OSError`` (including the
    built-in ``TimeoutError``) for transport faults — so the pool's
    poisoning logic needs no per-transport cases.
    """

    __slots__ = ("_loop", "_reader", "_writer")

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._loop = loop
        self._reader = reader
        self._writer = writer

    def send_bytes(self, payload: bytes) -> None:
        self._call(self._send(payload), "send")

    def recv_bytes(self) -> bytes:
        return self._call(_read_frame(self._reader), "receive")

    async def _send(self, payload: bytes) -> None:
        self._writer.write(_frame(payload))
        await self._writer.drain()

    def _call(self, coroutine, verb: str):
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        try:
            return future.result(TCP_TIMEOUT)
        except TimeoutError:
            future.cancel()
            raise TimeoutError(
                f"tcp worker did not {verb} within {TCP_TIMEOUT:.0f}s"
            ) from None

    def close(self) -> None:
        writer = self._writer

        def _close() -> None:
            try:
                writer.close()
            except Exception:
                pass

        try:
            self._loop.call_soon_threadsafe(_close)
        except RuntimeError:
            pass  # loop already stopped: the writer died with it


class TcpCoordinatorEndpoint:
    """The coordinator's asyncio server, on a dedicated background thread.

    Accepts worker connections, validates the handshake, replies with the
    engine config, and registers one channel per worker id.  A second hello
    for a registered id *replaces* the channel (the reconnect path) and the
    id is queued for :meth:`take_refreshed`.
    """

    def __init__(
        self,
        num_workers: int,
        token: str,
        config: EngineConfig,
        metrics_enabled: bool,
        sock: socket.socket,
    ) -> None:
        self._num_workers = num_workers
        #: The token as a hello carries it (length + padded bytes), compared
        #: whole so a prefix or a trailing byte is just as wrong.
        self._token_field = _hello(0, token)[_HELLO_ID.size :]
        self._config_reply = pickle.dumps(
            ("config", config, metrics_enabled), _PROTOCOL
        )
        self._sock = sock
        self._channels: dict[int, _TcpChannel] = {}
        self._refreshed: set[int] = set()
        self._registry = threading.Condition()
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._closed = False
        self._stop_requested = False
        self._stopped: asyncio.Event | None = None
        self._thread = threading.Thread(
            target=self._run, name="tcp-coordinator-endpoint", daemon=True
        )

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        self._thread.start()
        self._ready.wait(_HANDSHAKE_TIMEOUT)
        if self._startup_error is not None:
            raise ShardWorkerError(
                f"tcp coordinator endpoint failed to start: {self._startup_error}"
            ) from self._startup_error
        if not self._ready.is_set():
            raise ShardWorkerError("tcp coordinator endpoint failed to start")

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._serve())
        finally:
            self._loop.close()

    async def _serve(self) -> None:
        self._stopped = asyncio.Event()
        try:
            server = await asyncio.start_server(self._handle, sock=self._sock)
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        if self._stop_requested:
            self._stopped.set()
        await self._stopped.wait()
        server.close()
        await server.wait_closed()
        with self._registry:
            channels = list(self._channels.values())
        for channel in channels:
            try:
                channel._writer.close()
            except Exception:
                pass

    def close(self) -> None:
        with self._registry:
            # Wake a launch still waiting for workers instead of letting it
            # sit out its timeout on an endpoint that will never accept.
            self._closed = True
            self._registry.notify_all()
        if self._thread.ident is None:
            # Never started (launch failed first): nothing to stop or join.
            self._loop.close()
            return

        def _request_stop() -> None:
            self._stop_requested = True
            if self._stopped is not None:
                self._stopped.set()

        try:
            self._loop.call_soon_threadsafe(_request_stop)
        except RuntimeError:
            return  # loop already gone
        self._thread.join(timeout=5.0)

    # -- handshake ----------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # asyncio only disables Nagle itself when the socket's proto says
        # TCP; one accepted from ``socket.create_server`` reports proto 0.
        _set_nodelay(writer.get_extra_info("socket"))
        try:
            hello = await asyncio.wait_for(self._read_hello(reader), _HANDSHAKE_TIMEOUT)
            if hello is None:
                writer.close()
                return
            # Constant time, and first: a prefix-correct guess learns nothing,
            # and no other field of a stranger's hello is looked at.
            accepted = hmac.compare_digest(hello[_HELLO_ID.size :], self._token_field)
            magic, worker_id = _HELLO_ID.unpack_from(hello)
            accepted = (
                accepted and magic == _HELLO_MAGIC and worker_id < self._num_workers
            )
            if not accepted:
                reject = pickle.dumps(
                    ("reject", "bad hello (unknown worker id or token)"), _PROTOCOL
                )
                writer.write(_frame(reject))
                await writer.drain()
                writer.close()
                return
            writer.write(_frame(self._config_reply))
            await writer.drain()
        except Exception:
            try:
                writer.close()
            except Exception:
                pass
            return
        channel = _TcpChannel(self._loop, reader, writer)
        with self._registry:
            previous = self._channels.get(worker_id)
            self._channels[worker_id] = channel
            if previous is not None:
                # A replaced channel is a reconnect: the pool must re-ship
                # defs + a fresh mirror before consulting this worker again.
                self._refreshed.add(worker_id)
            self._registry.notify_all()
        if previous is not None:
            previous.close()

    @staticmethod
    async def _read_hello(reader: asyncio.StreamReader) -> bytes | None:
        """The hello payload, or None for a frame that cannot be one.

        Reads the frame header, then exactly a hello's worth of bytes — a
        header announcing any other length is refused without reading its
        body, so a stranger can neither make the endpoint allocate nor get
        a byte of theirs decoded.
        """
        magic, length = _FRAME_HEADER.unpack(
            await reader.readexactly(_FRAME_HEADER.size)
        )
        if magic != _FRAME_MAGIC or length != _HELLO.size:
            return None
        return await reader.readexactly(_HELLO.size)

    # -- registry -----------------------------------------------------------
    def wait_for_workers(self, count: int, timeout: float) -> None:
        with self._registry:
            self._registry.wait_for(
                lambda: len(self._channels) >= count or self._closed, timeout
            )
            if len(self._channels) < count:
                limit = "the endpoint closed" if self._closed else f"{timeout:.0f}s"
                raise ShardWorkerError(
                    f"only {len(self._channels)} of {count} tcp shard workers "
                    f"connected before {limit}"
                )

    def channel(self, worker_id: int) -> _TcpChannel:
        channel = self.registered(worker_id)
        if channel is None:
            raise ShardWorkerError(
                f"tcp shard worker {worker_id} has no registered channel"
            )
        return channel

    def wait_for_replacement(
        self, worker_id: int, previous: _TcpChannel | None, timeout: float
    ) -> None:
        """Block until ``worker_id``'s registered channel is not ``previous``.

        Keyed on the channel identity, not on ``_refreshed`` membership: an
        earlier, not yet absorbed reconnect of the same worker leaves the id
        in that set, which would end the wait before the replacement exists.
        """
        with self._registry:
            if not self._registry.wait_for(
                lambda: self._channels.get(worker_id) is not previous, timeout
            ):
                raise ShardWorkerError(
                    f"respawned tcp worker {worker_id} did not reconnect "
                    f"within {timeout:.0f}s"
                )

    def registered(self, worker_id: int) -> _TcpChannel | None:
        with self._registry:
            return self._channels.get(worker_id)

    def take_refreshed(self) -> tuple[int, ...]:
        with self._registry:
            refreshed = tuple(sorted(self._refreshed))
            self._refreshed.clear()
        return refreshed


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def run_worker(
    host: str,
    port: int,
    worker_id: int,
    token: str,
    retry_seconds: float = 10.0,
) -> None:
    """Connect to a coordinator endpoint and serve trips until stopped.

    The remote entrypoint behind ``chimera-events worker``: the coordinator's
    :class:`EngineConfig` record arrives in the handshake reply, so the worker
    command needs no engine flags — the coordinator is the single source of
    configuration truth.
    """
    deadline = time.monotonic() + max(0.0, retry_seconds)
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=_HANDSHAKE_TIMEOUT)
            break
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)
    sock.settimeout(None)
    connection = SocketFrameConnection(sock)
    try:
        connection.send_bytes(_hello(int(worker_id), token))
        reply = pickle.loads(connection.recv_bytes())
        if not isinstance(reply, tuple) or not reply:
            raise ShardWorkerError(f"malformed handshake reply: {reply!r}")
        if reply[0] == "reject":
            raise ShardWorkerError(
                f"coordinator rejected worker {worker_id}: {reply[1]}"
            )
        if (
            reply[0] != "config"
            or len(reply) != 3
            or not isinstance(reply[1], EngineConfig)
        ):
            raise ShardWorkerError(f"unexpected handshake reply: {reply!r}")
        from repro.cluster.process_pool import _worker_main

        _worker_main(connection, reply[1], bool(reply[2]))
    finally:
        connection.close()


# ---------------------------------------------------------------------------
# The transport
# ---------------------------------------------------------------------------


class TcpTransport(ShardTransport):
    """Socket-framed shard workers behind an asyncio coordinator endpoint."""

    name = "tcp"

    def __init__(self, config: EngineConfig) -> None:
        super().__init__(config)
        #: ``(host, port, token)`` — what a worker needs to join.  Published
        #: as one value, only once the socket is listening: a reader that
        #: sees it can connect (``wait_rendezvous`` is how to wait for it).
        self.rendezvous: tuple[str, int, str] | None = None
        self._listening = threading.Event()
        self._endpoint: TcpCoordinatorEndpoint | None = None
        self._sock: socket.socket | None = None
        self._processes: dict[int, multiprocessing.process.BaseProcess] = {}
        self._num_workers = 0
        self._closed = False

    # -- lifecycle ----------------------------------------------------------
    def launch(self, num_workers: int, metrics_enabled: bool) -> None:
        self._num_workers = num_workers
        token = secrets.token_hex(16)
        # Bind and listen before anything else: spawned workers connect
        # immediately (the kernel parks them in the backlog) and the server
        # thread — with its event loop — starts only after every fork, so no
        # worker is ever forked from a threaded parent at launch.
        self._sock = socket.create_server(
            (self.config.tcp_host, self.config.tcp_port),
            backlog=max(8, num_workers * 2),
        )
        host, port = self.config.tcp_host, self._sock.getsockname()[1]
        self.rendezvous = (host, port, token)
        self._listening.set()
        self._endpoint = TcpCoordinatorEndpoint(
            num_workers, token, self.config, metrics_enabled, self._sock
        )
        if self.config.tcp_spawn:
            for worker_id in range(num_workers):
                self.spawn_worker(worker_id)
        else:
            # Remote deployment: the operator starts workers by hand and
            # needs the rendezvous coordinates.
            print(
                f"tcp shard coordinator listening on {host}:{port} "
                f"(token {token}); start workers 0..{num_workers - 1} with: "
                f"chimera-events worker --host {host} --port {port} "
                f"--worker-id K --token {token}",
                file=sys.stderr,
                flush=True,
            )
        self._endpoint.start()
        self._endpoint.wait_for_workers(
            num_workers, _HANDSHAKE_TIMEOUT if self.config.tcp_spawn else TCP_TIMEOUT
        )
        # Launch-time registrations are first contacts, not reconnects.
        self._endpoint.take_refreshed()

    def wait_rendezvous(self, timeout: float) -> tuple[str, int, str]:
        """The ``(host, port, token)`` to join with, once the socket listens."""
        if not self._listening.wait(timeout):
            raise ShardWorkerError(
                f"tcp coordinator was not listening within {timeout:.0f}s"
            )
        assert self.rendezvous is not None
        return self.rendezvous

    def spawn_worker(self, worker_id: int):
        """Fork one localhost worker process for ``worker_id``."""
        host, port, token = self.rendezvous
        context = multiprocessing.get_context(self.start_method)
        process = context.Process(
            target=run_worker,
            args=(host, port, worker_id, token),
            name=f"tcp-shard-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        self._processes[worker_id] = process
        return process

    def respawn_worker(self, worker_id: int, timeout: float = _HANDSHAKE_TIMEOUT):
        """Kill a localhost worker and bring up a replacement (test hook).

        Waits until the replacement's channel is registered, so the next
        trip is guaranteed to see the reconnect via :meth:`poll_refreshed`.
        """
        endpoint = self._endpoint
        if endpoint is None:
            raise ShardWorkerError("tcp transport was never launched")
        replaced = endpoint.registered(worker_id)
        previous = self._processes.get(worker_id)
        if previous is not None and previous.is_alive():
            previous.kill()
            previous.join(timeout=5.0)
        process = self.spawn_worker(worker_id)
        endpoint.wait_for_replacement(worker_id, replaced, timeout)
        return process

    def channel(self, worker_id: int) -> _TcpChannel:
        endpoint = self._endpoint
        if endpoint is None:
            raise ShardWorkerError("tcp transport was never launched")
        return endpoint.channel(worker_id)

    def process(self, worker_id: int):
        return self._processes.get(worker_id)

    def poll_refreshed(self) -> tuple[int, ...]:
        if self._endpoint is None:
            return ()
        return self._endpoint.take_refreshed()

    # -- teardown -----------------------------------------------------------
    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        endpoint = self._endpoint
        if endpoint is not None:
            stop = pickle.dumps(("stop",), _PROTOCOL)
            for worker_id in range(self._num_workers):
                try:
                    endpoint.channel(worker_id).send_bytes(stop)
                except Exception:
                    pass
        for process in self._processes.values():
            try:
                process.join(timeout=2.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=1.0)
            except Exception:
                pass
        if endpoint is not None:
            endpoint.close()
            self._endpoint = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
