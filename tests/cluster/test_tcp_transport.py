"""Failure and reconnect semantics of the TCP shard transport.

Byte-identical happy paths are pinned by the cross-mode differential harness
(``test_mode_equivalence.py`` runs every scenario under ``transport="tcp"``);
these tests pin the distributed-systems edges the socket path adds on top of
the pipe pool's contracts:

* the length-prefixed frame codec fails **loudly** on a corrupted header —
  both connection ends raise ``SnapshotError`` and refuse to resynchronize,
  so a desynced byte stream can never feed a wrong mirror;
* a frame leaves as one segment with Nagle off, so a trip costs a localhost
  round trip and not a delayed-ACK timer;
* a worker killed mid-trip poisons the pool exactly like a dead pipe worker
  (``ShardWorkerError`` with the transport failure chained, every later call
  failing loudly);
* a worker that *reconnects* between trips is re-synced — definitions
  re-shipped at their current ``definition_order`` version, mirror rebuilt
  from position 0 — and the run's triggerings and counters come out
  byte-identical to an uninterrupted run (memo state is decision-invariant
  by design, so a fresh memo changes no outcome);
* externally-started workers (the ``chimera-events worker`` CLI entrypoint,
  ``tcp_spawn=False`` deployment story) handshake into the same pool, and a
  bad token is rejected before any state ships;
* the endpoint never unpickles a stranger's bytes: the hello is a fixed
  struct, a frame of any other length (a pickle, random bytes, a header
  announcing gigabytes) closes the connection unread and promptly.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import pickle
import random
import socket
import statistics
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.cluster.net import (
    _FRAME_HEADER,
    _FRAME_MAGIC,
    _HELLO,
    SocketFrameConnection,
    TcpTransport,
    _frame,
    _read_frame,
)
from repro.config import EngineConfig
from repro.errors import ShardWorkerError, SnapshotError

from tests.cluster.test_process_pool import build_support, feed_block


# ---------------------------------------------------------------------------
# Frame codec: loud corruption, both ends
# ---------------------------------------------------------------------------


def test_socket_frame_connection_round_trip():
    left_sock, right_sock = socket.socketpair()
    left = SocketFrameConnection(left_sock)
    right = SocketFrameConnection(right_sock)
    try:
        left.send_bytes(b"hello frames")
        assert right.recv_bytes() == b"hello frames"
        right.send_bytes(b"")
        assert left.recv_bytes() == b""  # zero-length payloads survive
        payload = bytes(range(256)) * 512
        left.send_bytes(payload)
        assert right.recv_bytes() == payload
    finally:
        left.close()
        right.close()


def test_socket_frame_connection_corrupt_header_is_loud():
    left_sock, right_sock = socket.socketpair()
    right = SocketFrameConnection(right_sock)
    try:
        left_sock.sendall(b"XXXX\x01\x00\x00\x00garbage")
        with pytest.raises(SnapshotError, match="socket frame header is corrupt"):
            right.recv_bytes()
    finally:
        left_sock.close()
        right.close()


def test_socket_frame_connection_peer_close_is_eof():
    left_sock, right_sock = socket.socketpair()
    right = SocketFrameConnection(right_sock)
    try:
        left_sock.close()
        with pytest.raises(EOFError):
            right.recv_bytes()
    finally:
        right.close()


def test_async_read_frame_rejects_corrupt_header():
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(b"NOPE\x04\x00\x00\x00ruin")
        reader.feed_eof()
        await _read_frame(reader)

    with pytest.raises(SnapshotError, match="socket frame header is corrupt"):
        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Pool semantics over sockets: mid-trip death, reconnect re-sync, corruption
# ---------------------------------------------------------------------------


def test_tcp_trip_is_a_round_trip_not_a_delayed_ack():
    """Header and payload written as two segments, with Nagle left on for the
    accepted socket, cost ~40 ms per trip (the peer's delayed-ACK timer); one
    buffer per frame and ``TCP_NODELAY`` on both ends cost about a
    millisecond."""
    table, event_base, handler, support = build_support(transport="tcp")
    try:
        assert feed_block(event_base, handler, support, 1)  # spawn + ship defs
        trips = []
        for stamp in range(2, 42):
            started = time.perf_counter()
            assert feed_block(event_base, handler, support, stamp)
            trips.append(time.perf_counter() - started)
        assert statistics.median(trips) < 0.020, sorted(trips)
        channel = support.process_pool._workers[0].connection
        accepted = channel._writer.get_extra_info("socket")
        assert accepted.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    finally:
        support.close()


def test_killed_tcp_worker_mid_trip_poisons_pool():
    table, event_base, handler, support = build_support(transport="tcp")
    try:
        assert feed_block(event_base, handler, support, 1)
        pool = support.process_pool
        assert pool is not None
        assert pool.transport == "tcp"
        for handle in pool._workers:
            handle.process.kill()
            handle.process.join(timeout=5.0)
        with pytest.raises(ShardWorkerError, match="gone|died") as excinfo:
            feed_block(event_base, handler, support, 2)
        # The transport-level failure rides along as the chained cause.
        assert isinstance(excinfo.value.__cause__, (EOFError, OSError))
        # Poisoned: the pool refuses further work instead of desyncing.
        with pytest.raises(ShardWorkerError, match="broken"):
            feed_block(event_base, handler, support, 3)
    finally:
        support.close()


def _run_tcp_blocks(blocks: int, interrupt_after: int | None = None) -> dict:
    """Feed ``blocks`` alpha blocks over tcp, optionally bouncing a worker."""
    table, event_base, handler, support = build_support(transport="tcp")
    try:
        trace = []
        for stamp in range(1, blocks + 1):
            newly = feed_block(event_base, handler, support, stamp)
            trace.append(tuple(sorted(state.rule.name for state in newly)))
            if interrupt_after is not None and stamp == interrupt_after:
                pool = support.process_pool
                # Bounce the worker the rules actually home to (every
                # watcher is homed on the one worker), so the re-sync is real.
                loaded = next(
                    handle.worker_id
                    for handle in pool._workers
                    if handle.shipped_defs
                )
                pool._transport.respawn_worker(loaded)
        pool = support.process_pool
        return {
            "trace": tuple(trace),
            "counters": {
                state.rule.name: state.times_triggered for state in table.states()
            },
            "reconnects": pool.reconnects,
            "defs_shipped": pool.defs_shipped,
        }
    finally:
        support.close()


def test_reconnect_between_trips_resyncs_defs_and_mirror():
    uninterrupted = _run_tcp_blocks(6)
    assert uninterrupted["reconnects"] == 0
    bounced = _run_tcp_blocks(6, interrupt_after=3)
    assert bounced["reconnects"] == 1
    # The replacement worker starts empty: its rules re-ship at their current
    # definition_order version (and its mirror re-syncs from position 0).
    assert bounced["defs_shipped"] > uninterrupted["defs_shipped"]
    # ...and none of that changes a single outcome: triggering trace and
    # per-rule counters are byte-identical to the uninterrupted run.
    assert bounced["trace"] == uninterrupted["trace"]
    assert bounced["counters"] == uninterrupted["counters"]


def test_corrupt_frame_on_the_wire_poisons_pool_loudly():
    table, event_base, handler, support = build_support(transport="tcp")
    try:
        assert feed_block(event_base, handler, support, 1)
        pool = support.process_pool
        # Target the worker the rules home to, so the next trip consults it.
        handle = next(h for h in pool._workers if h.shipped_defs)
        channel = handle.connection

        async def inject_garbage():
            channel._writer.write(b"JUNKJUNKJUNKJUNK")
            await channel._writer.drain()

        # Desync the worker's inbound byte stream: its next read sees a bad
        # magic, raises SnapshotError and the process dies — the coordinator
        # must surface that as a loud pool failure, never a wrong mirror.
        asyncio.run_coroutine_threadsafe(inject_garbage(), channel._loop).result(5)
        deadline = time.monotonic() + 10.0
        while handle.process.is_alive() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not handle.process.is_alive()
        with pytest.raises(ShardWorkerError, match="gone|died"):
            feed_block(event_base, handler, support, 2)
        with pytest.raises(ShardWorkerError, match="broken"):
            feed_block(event_base, handler, support, 3)
    finally:
        support.close()


# ---------------------------------------------------------------------------
# External workers: the CLI entrypoint and the no-spawn deployment mode
# ---------------------------------------------------------------------------


def cli_worker(host: str, port: int, worker_id: int, token: str) -> int:
    return cli_main(
        [
            "worker",
            "--host",
            host,
            "--port",
            str(port),
            "--worker-id",
            str(worker_id),
            "--token",
            token,
        ]
    )


def launch_in_background(
    num_workers: int,
    config: EngineConfig = EngineConfig(tcp_spawn=False),
    metrics_enabled: bool = False,
):
    """A no-spawn transport launching on a thread: ``(transport, thread, errors)``."""
    transport = TcpTransport(config)
    errors: list[BaseException] = []

    def launch():
        try:
            transport.launch(num_workers, metrics_enabled)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    thread = threading.Thread(target=launch, daemon=True)
    thread.start()
    return transport, thread, errors


def test_external_cli_workers_join_a_no_spawn_pool():
    # Looped: the rendezvous hand-off used to publish the token before the
    # socket was bound (port still 0), which only lost the race under load.
    context = multiprocessing.get_context("fork")
    for _ in range(20):
        transport, thread, errors = launch_in_background(2)
        try:
            # launch() publishes (host, port, token) once it listens, then
            # blocks until both workers handshake.
            host, port, token = transport.wait_rendezvous(10.0)
            assert port != 0
            workers = [
                context.Process(
                    target=cli_worker, args=(host, port, worker_id, token), daemon=True
                )
                for worker_id in range(2)
            ]
            for process in workers:
                process.start()
            thread.join(timeout=30.0)
            assert not thread.is_alive(), "launch never saw both workers"
            assert not errors, errors
            for worker_id in range(2):
                assert transport.channel(worker_id) is not None
        finally:
            transport.shutdown()
            thread.join(timeout=5.0)
        for process in workers:
            process.join(timeout=5.0)
            assert process.exitcode == 0


def test_worker_with_bad_token_is_rejected():
    from repro.cluster.net import run_worker

    transport, thread, errors = launch_in_background(1)
    try:
        host, port, token = transport.wait_rendezvous(10.0)
        flipped = token[:-1] + ("0" if token[-1] != "0" else "1")
        # A wrong token, a correct *prefix* and a one-character miss are all
        # refused alike (the comparison is constant-time, not prefix-wise).
        for wrong in ("not-the-token", token[:16], flipped, token + "0"):
            with pytest.raises(ShardWorkerError, match="rejected"):
                run_worker(host, port, 0, wrong, retry_seconds=10.0)
    finally:
        transport.shutdown()
        thread.join(timeout=5.0)
    # Closing the endpoint wakes the launch that was still waiting.
    assert not thread.is_alive()
    assert errors and isinstance(errors[0], ShardWorkerError)


def test_respawn_waits_for_the_replacement_not_a_stale_reconnect():
    """Two bounces with no trip in between: the second wait must not be
    satisfied by the first bounce's still-unabsorbed refresh mark."""
    table, event_base, handler, support = build_support(transport="tcp")
    try:
        assert feed_block(event_base, handler, support, 1)
        pool = support.process_pool
        transport = pool._transport
        endpoint = transport._endpoint
        transport.respawn_worker(0)
        first = endpoint.registered(0)
        transport.respawn_worker(0)
        assert endpoint.registered(0) is not first
        assert feed_block(event_base, handler, support, 2)
        assert pool.reconnects >= 1
    finally:
        support.close()


# ---------------------------------------------------------------------------
# Hostile bytes on the port: nothing is unpickled before the token matched
# ---------------------------------------------------------------------------


class _CreatesFile:
    """Unpickling this opens (creates) ``path`` — the code-execution probe."""

    def __init__(self, path: str) -> None:
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


def _send_raw(host: str, port: int, payload: bytes) -> bytes:
    """Write ``payload`` to the endpoint; what it sends before hanging up.

    The socket timeout turns an endpoint that keeps waiting into a failure.
    """
    received = bytearray()
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(payload)
        try:
            chunk = sock.recv(65536)
            while chunk:
                received += chunk
                chunk = sock.recv(65536)
        except ConnectionResetError:
            pass  # closed with our bytes unread: a reset, not a FIN
    return bytes(received)


def test_pickled_hello_is_never_unpickled(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the endpoint runs in this process
    transport, thread, errors = launch_in_background(1)
    try:
        host, port, _token = transport.wait_rendezvous(10.0)
        probe = pickle.dumps(("hello", 0, _CreatesFile("pwned")))
        assert len(probe) < _HELLO.size
        # The pickle as the whole frame, and padded to exactly a hello's
        # length (trailing bytes do not stop ``pickle.loads``).
        for payload in (probe, probe.ljust(_HELLO.size, b"\0")):
            reply = _send_raw(host, port, _frame(payload))
            assert b"config" not in reply
        assert not (tmp_path / "pwned").exists()
        assert not transport._endpoint._channels
    finally:
        transport.shutdown()
        thread.join(timeout=5.0)


def test_random_bytes_close_the_connection_without_a_hang():
    transport, thread, errors = launch_in_background(1)
    try:
        host, port, _token = transport.wait_rendezvous(10.0)
        rng = random.Random(23)
        payloads = [rng.randbytes(rng.randint(8, 4096)) for _ in range(8)]
        # A valid header announcing 2 GiB, and one announcing a hello.
        for length in ((1 << 31) - 1, _HELLO.size):
            header = _FRAME_HEADER.pack(_FRAME_MAGIC, length)
            payloads.append(header + rng.randbytes(_HELLO.size))
        for payload in payloads:
            started = time.monotonic()
            reply = _send_raw(host, port, payload)
            elapsed = time.monotonic() - started
            assert b"config" not in reply
            assert elapsed < 5.0
        assert not transport._endpoint._channels
    finally:
        transport.shutdown()
        thread.join(timeout=5.0)
