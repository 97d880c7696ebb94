"""Tests for the asyncio TCP gateway over a ``QueryService``.

The acceptance contract of the network tier: many concurrent network
clients receive *byte-identical* answers to direct in-process calls;
deadlines produce typed ``DeadlineExceeded`` responses (never hangs);
overload produces typed ``ServiceOverloaded`` responses (never an event
loop blocked on a full queue); shutdown drains instead of dropping.

``python -m repro.serve.server`` drains on SIGTERM and exits 0; a client
whose server goes silent raises the builtin ``TimeoutError``.  A request
the gateway holds alone, on an idle service, is answered on the event
loop's thread; one thread at a time is inside the index.

No pytest-asyncio in the environment: each test owns its event loop via
``asyncio.run``.
"""

import asyncio
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import HDIndex, HDIndexParams, save_index
from repro.serve import (
    AsyncServeClient,
    DeadlineExceeded,
    GatewayConfig,
    QueryService,
    ServeGateway,
    ServiceClosed,
    ServiceOverloaded,
)

K = 10
#: Hang tripwire only; no assertion depends on how long.
WAIT = 30.0


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(42)
    centers = rng.uniform(0.0, 100.0, size=(5, 12))
    data = np.vstack([
        center + rng.normal(0.0, 3.0, size=(48, 12)) for center in centers])
    queries = data[rng.choice(len(data), 32, replace=False)] \
        + rng.normal(0.0, 0.5, size=(32, 12))
    return np.clip(data, 0, 100), np.clip(queries, 0, 100)


def build_index(data):
    index = HDIndex(HDIndexParams(num_trees=3, num_references=5, alpha=64,
                                  gamma=24, domain=(0.0, 100.0), seed=0))
    index.build(data)
    return index


@pytest.fixture(scope="module")
def built_index(workload):
    index = build_index(workload[0])
    yield index
    index.close()


@pytest.fixture(scope="module")
def snapshot(workload, tmp_path_factory):
    directory = tmp_path_factory.mktemp("gateway-snap")
    index = build_index(workload[0])
    save_index(index, directory)
    index.close()
    return directory


def start_replica(snapshot):
    """Launch one ``python -m repro.serve.server`` process; returns
    ``(process, port)`` once the READY handshake line arrives."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve.server",
         "--snapshot", str(snapshot), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    line = process.stdout.readline().strip()
    if not line.startswith("REPRO-SERVE READY"):
        process.kill()
        stderr = process.stderr.read()
        raise RuntimeError(f"bad handshake {line!r}; stderr: {stderr}")
    port = int(line.split("port=")[1].split()[0])
    return process, port


def stop_replica(process):
    if process.poll() is None:
        process.kill()
        process.wait(timeout=10)
    process.stdout.close()
    process.stderr.close()


class SlowIndex:
    """Delegating wrapper that stalls every batch — deadline/overload
    tests need an index that is reliably slower than the budget."""

    def __init__(self, inner, delay):
        self._inner = inner
        self._delay = delay

    def query_batch(self, points, k, **overrides):
        time.sleep(self._delay)
        return self._inner.query_batch(points, k, **overrides)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class RecordingIndex:
    """Delegating wrapper that records each batch's rows and thread,
    holds the batch until ``proceed`` is set, and counts the times
    ``query_batch`` was entered while another thread was inside."""

    def __init__(self, inner, delay=0.0, gated=False):
        self._inner = inner
        self._delay = delay
        self._inside = threading.Lock()
        self.rows = []
        self.threads = []
        self.overlaps = 0
        self.entered = threading.Event()
        self.proceed = threading.Event()
        if not gated:
            self.proceed.set()

    def query_batch(self, points, k, **overrides):
        if not self._inside.acquire(blocking=False):
            self.overlaps += 1
            raise AssertionError("query_batch entered twice at once")
        try:
            self.rows.extend(points.tolist())
            self.threads.append(threading.get_ident())
            self.entered.set()
            assert self.proceed.wait(WAIT)
            time.sleep(self._delay)
            return self._inner.query_batch(points, k, **overrides)
        finally:
            self._inside.release()

    def __getattr__(self, name):
        return getattr(self._inner, name)


def gateway_config(**overrides):
    defaults = dict(host="127.0.0.1", port=0, drain_timeout=5.0)
    defaults.update(overrides)
    return GatewayConfig(**defaults)


class TestParity:
    def test_eight_concurrent_async_clients_byte_identical(
            self, built_index, workload):
        """The headline acceptance test: >= 8 concurrent network clients,
        every answer byte-identical to a direct QueryService call."""
        _, queries = workload
        service = QueryService(built_index, max_batch=8)
        with service:
            expected = [service.query(q, K) for q in queries]

        service = QueryService(built_index, max_batch=8)
        num_clients = 8

        async def client(port, client_index, results):
            async with await AsyncServeClient.connect(
                    "127.0.0.1", port) as remote:
                assert await remote.ping()
                for i in range(client_index, len(queries), num_clients):
                    results[i] = await remote.query(queries[i], k=K)

        async def main():
            gateway = ServeGateway(service, gateway_config())
            await gateway.start()
            results = [None] * len(queries)
            try:
                await asyncio.gather(*(
                    client(gateway.port, c, results)
                    for c in range(num_clients)))
            finally:
                await gateway.stop()
            return results

        results = asyncio.run(main())
        for got, want in zip(results, expected):
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()

    def test_validation_error_crosses_typed(self, built_index, workload):
        _, queries = workload
        service = QueryService(built_index)

        async def main():
            gateway = ServeGateway(service, gateway_config())
            await gateway.start()
            try:
                async with await AsyncServeClient.connect(
                        "127.0.0.1", gateway.port) as remote:
                    with pytest.raises(ValueError):
                        await remote.query(queries[0], k=0)
            finally:
                await gateway.stop()

        asyncio.run(main())


class TestDeadlines:
    def test_deadline_exceeded_is_typed_not_a_hang(
            self, built_index, workload):
        _, queries = workload
        slow = SlowIndex(built_index, delay=0.5)
        service = QueryService(slow, max_batch=4)

        async def main():
            gateway = ServeGateway(service, gateway_config())
            await gateway.start()
            started = time.monotonic()
            try:
                async with await AsyncServeClient.connect(
                        "127.0.0.1", gateway.port) as remote:
                    with pytest.raises(DeadlineExceeded):
                        await remote.query(queries[0], k=K,
                                           deadline_ms=50.0)
            finally:
                await gateway.stop()
            return time.monotonic() - started

        elapsed = asyncio.run(main())
        assert elapsed < 5.0  # typed failure, not a hang

    def test_expired_in_queue_never_wastes_batch(self, built_index,
                                                 workload):
        """A request whose deadline lapses while queued is failed by the
        dispatcher, and stats record the expiry.  A thread's submit
        holds the dispatcher, so the gateway's request is queued."""
        _, queries = workload
        slow = RecordingIndex(built_index, delay=0.25)
        service = QueryService(slow, max_batch=1)

        async def main():
            gateway = ServeGateway(service, gateway_config())
            await gateway.start()
            try:
                blocker = service.submit(queries[0], K)
                assert slow.entered.wait(WAIT)  # blocker holds the batch
                async with await AsyncServeClient.connect(
                        "127.0.0.1", gateway.port) as remote:
                    with pytest.raises(DeadlineExceeded):
                        await remote.query(queries[1], k=K,
                                           deadline_ms=20.0)
                blocker.result(WAIT)
                stats = gateway.stats()
            finally:
                await gateway.stop()
            return stats

        stats = asyncio.run(main())
        assert stats["gateway"]["deadline_exceeded"] >= 1
        assert service.stats().deadline_expired >= 1
        assert slow.rows == [queries[0].tolist()]

    def test_default_deadline_applies(self, built_index, workload):
        _, queries = workload
        slow = SlowIndex(built_index, delay=0.5)
        service = QueryService(slow, max_batch=4)

        async def main():
            gateway = ServeGateway(service, gateway_config(
                default_deadline_ms=50.0))
            await gateway.start()
            try:
                async with await AsyncServeClient.connect(
                        "127.0.0.1", gateway.port) as remote:
                    with pytest.raises(DeadlineExceeded):
                        await remote.query(queries[0], k=K)
            finally:
                await gateway.stop()

        asyncio.run(main())


class TestLoneRequest:
    """A request the gateway holds alone, on an idle service, is answered
    on the loop's thread inside ``submit``; anything else is queued for
    the dispatcher."""

    def test_a_lone_request_is_answered_on_the_loop_thread(
            self, built_index, workload):
        _, queries = workload
        index = RecordingIndex(built_index)
        service = QueryService(index)

        async def main():
            gateway = ServeGateway(service, gateway_config())
            await gateway.start()
            try:
                async with await AsyncServeClient.connect(
                        "127.0.0.1", gateway.port) as remote:
                    answer = await remote.query(queries[0], k=K)
                    stats = await remote.stats()
            finally:
                await gateway.stop()
            return threading.get_ident(), answer, stats["service"]

        loop_thread, (ids, dists), stats = asyncio.run(main())
        want_ids, want_dists = built_index.query(queries[0], K)
        assert ids.tobytes() == want_ids.tobytes()
        assert dists.tobytes() == want_dists.tobytes()
        assert index.threads == [loop_thread]
        assert (stats["alone"], stats["queries"]) == (1, 1)
        assert stats["mean_queue_wait_ms"] < 1.0

    def test_a_request_behind_a_running_batch_goes_to_the_dispatcher(
            self, built_index, workload):
        _, queries = workload
        index = RecordingIndex(built_index, gated=True)
        service = QueryService(index)

        async def main():
            gateway = ServeGateway(service, gateway_config())
            await gateway.start()
            try:
                held = service.submit(queries[0], K)
                assert index.entered.wait(WAIT)
                async with await AsyncServeClient.connect(
                        "127.0.0.1", gateway.port) as remote:
                    pending = asyncio.create_task(
                        remote.query(queries[1], k=K))
                    while service.pending() == 0:
                        await asyncio.sleep(0.001)
                    index.proceed.set()
                    ids, _ = await pending
                held.result(WAIT)
            finally:
                await gateway.stop()
            return threading.get_ident(), ids

        loop_thread, ids = asyncio.run(main())
        assert ids.tobytes() == built_index.query(queries[1], K)[0].tobytes()
        assert len(index.threads) == 2
        assert loop_thread not in index.threads
        assert service.stats().alone == 0

    def test_a_lone_request_past_its_deadline_is_never_answered_late(
            self, built_index, workload):
        """The deadline passes while the loop runs the query: the answer
        is dropped for a typed DeadlineExceeded."""
        _, queries = workload
        index = RecordingIndex(built_index, delay=0.2)
        service = QueryService(index)

        async def main():
            gateway = ServeGateway(service, gateway_config())
            await gateway.start()
            try:
                async with await AsyncServeClient.connect(
                        "127.0.0.1", gateway.port) as remote:
                    with pytest.raises(DeadlineExceeded):
                        await remote.query(queries[0], k=K,
                                           deadline_ms=50.0)
                    return await remote.stats()
            finally:
                await gateway.stop()

        stats = asyncio.run(main())
        assert len(index.rows) == 1  # the query ran, past its deadline
        assert stats["service"]["alone"] == 1
        assert stats["gateway"]["deadline_exceeded"] == 1
        assert stats["gateway"]["queries"] == 0

    def test_frames_read_in_one_pass_are_never_alone(self, built_index,
                                                     workload):
        """Six query frames in one write: each finds the others held by
        the gateway, so all six are queued for the dispatcher."""
        from repro.serve import protocol
        _, queries = workload
        index = RecordingIndex(built_index)
        service = QueryService(index)

        async def main():
            gateway = ServeGateway(service, gateway_config())
            await gateway.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", gateway.port)
                writer.write(b"".join(
                    protocol.encode_frame(protocol.query_request(
                        row, queries[row], K, {}, None))
                    for row in range(6)))
                await writer.drain()
                responses = [await protocol.read_frame(reader)
                             for _ in range(6)]
                writer.close()
                await writer.wait_closed()
            finally:
                await gateway.stop()
            return threading.get_ident(), responses

        loop_thread, responses = asyncio.run(main())
        for response in responses:
            ids, _ = protocol.decode_result(response)
            want = built_index.query(queries[response["id"]], K)[0]
            assert ids.tobytes() == want.tobytes()
        assert service.stats().alone == 0
        assert loop_thread not in index.threads

    def test_one_thread_inside_the_index_under_mixed_traffic(
            self, built_index, workload):
        """Gateway requests, alone and pipelined, mixed with client
        threads' submits: the index is never entered twice at once."""
        _, queries = workload
        index = RecordingIndex(built_index, delay=0.002)
        service = QueryService(index, max_batch=4)
        done = threading.Event()

        def submitter(offset):
            row = offset
            while not done.is_set():
                service.submit(queries[row % len(queries)], K).result(WAIT)
                row += 1
                time.sleep(0.003)

        threads = [threading.Thread(target=submitter, args=(offset,))
                   for offset in range(2)]

        async def main():
            gateway = ServeGateway(service, gateway_config())
            await gateway.start()
            try:
                async with await AsyncServeClient.connect(
                        "127.0.0.1", gateway.port) as remote:
                    results = [await remote.query(queries[0], k=K)]
                    for thread in threads:
                        thread.start()
                    results += [await remote.query(q, k=K)
                                for q in queries[1:16]]
                    results += await asyncio.gather(*(
                        remote.query(q, k=K) for q in queries[16:]))
            finally:
                done.set()
                for thread in threads:
                    thread.join(WAIT)
                await gateway.stop()
            return threading.get_ident(), results

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more thread switches per request
        try:
            loop_thread, results = asyncio.run(main())
        finally:
            sys.setswitchinterval(interval)
        assert index.overlaps == 0
        for q, (ids, dists) in zip(queries, results):
            want_ids, want_dists = built_index.query(q, K)
            assert ids.tobytes() == want_ids.tobytes()
            assert dists.tobytes() == want_dists.tobytes()
        assert service.stats().alone >= 1
        assert loop_thread in index.threads
        assert set(index.threads) != {loop_thread}


class TestOverload:
    def test_slow_consumer_sheds_typed_never_blocks(self, built_index,
                                                    workload):
        """A burst past capacity gets typed ServiceOverloaded answers
        while admitted requests complete — the loop never blocks."""
        _, queries = workload
        slow = SlowIndex(built_index, delay=0.2)
        service = QueryService(slow, max_batch=1, max_pending=2)

        async def main():
            gateway = ServeGateway(service, gateway_config(max_inflight=3))
            await gateway.start()
            outcomes = []
            try:
                async with await AsyncServeClient.connect(
                        "127.0.0.1", gateway.port) as remote:
                    async def one(i):
                        try:
                            return await remote.query(queries[i], k=K,
                                                      deadline_ms=5000.0)
                        except (ServiceOverloaded, DeadlineExceeded) as e:
                            return e
                    outcomes = await asyncio.gather(
                        *(one(i) for i in range(12)))
                stats = gateway.stats()
            finally:
                await gateway.stop()
            return outcomes, stats

        outcomes, stats = asyncio.run(main())
        shed = [o for o in outcomes if isinstance(o, ServiceOverloaded)]
        answered = [o for o in outcomes if isinstance(o, tuple)]
        assert len(shed) >= 12 - 3 - 2  # beyond inflight+queue capacity
        assert answered, "admitted requests must still complete"
        assert stats["gateway"]["shed"] == len(shed)


class TestStatsAndLifecycle:
    def test_stats_rpc_reports_percentiles_and_service(
            self, built_index, workload):
        _, queries = workload
        service = QueryService(built_index, max_batch=4)

        async def main():
            gateway = ServeGateway(service, gateway_config())
            await gateway.start()
            try:
                async with await AsyncServeClient.connect(
                        "127.0.0.1", gateway.port) as remote:
                    for q in queries[:6]:
                        await remote.query(q, k=K)
                    return await remote.stats()
            finally:
                await gateway.stop()

        stats = asyncio.run(main())
        gw, service_stats = stats["gateway"], stats["service"]
        assert gw["queries"] == 6
        assert gw["inflight"] == 0
        assert gw["p50_ms"] > 0 and gw["p99_ms"] >= gw["p50_ms"]
        assert service_stats["queries"] == 6
        assert service_stats["batches"] >= 1  # batch occupancy visible
        assert service_stats["mean_queue_wait_ms"] >= 0.0
        # Written with their old constant: the service keeps no result
        # cache, and readers of the payload still take both keys.
        assert service_stats["cache_hits"] == 0
        assert service_stats["cache_misses"] == 0

    def test_unknown_op_is_a_typed_protocol_error(self, built_index):
        service = QueryService(built_index)

        async def main():
            gateway = ServeGateway(service, gateway_config())
            await gateway.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", gateway.port)
                from repro.serve import protocol
                writer.write(protocol.encode_frame(
                    {"op": "explode", "id": 1}))
                await writer.drain()
                response = await protocol.read_frame(reader)
                writer.close()
                await writer.wait_closed()
                return response
            finally:
                await gateway.stop()

        response = asyncio.run(main())
        assert response["ok"] is False
        assert response["error"]["type"] == "ProtocolError"

    def test_graceful_stop_drains_and_sheds_new_work(
            self, built_index, workload):
        _, queries = workload
        slow = SlowIndex(built_index, delay=0.15)
        service = QueryService(slow, max_batch=1)

        async def main():
            gateway = ServeGateway(service, gateway_config())
            await gateway.start()
            async with await AsyncServeClient.connect(
                    "127.0.0.1", gateway.port) as remote:
                inflight = asyncio.create_task(
                    remote.query(queries[0], k=K))
                await asyncio.sleep(0.05)
                stopper = asyncio.create_task(gateway.stop())
                # The in-flight request is answered, not dropped.
                ids, dists = await inflight
                assert len(ids) == K
                await stopper
            # Service is stopped underneath: no orphan threads.
            with pytest.raises(ServiceClosed):
                service.submit(queries[0], K)

        asyncio.run(main())

    def test_corrupt_frame_drops_connection_only(self, built_index,
                                                 workload):
        """A client sending garbage loses its connection; the gateway
        keeps serving others."""
        _, queries = workload
        service = QueryService(built_index)

        async def main():
            gateway = ServeGateway(service, gateway_config())
            await gateway.start()
            try:
                import struct
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", gateway.port)
                writer.write(struct.pack("!I", 2 ** 31))  # absurd length
                await writer.drain()
                got = await reader.read(1)  # server closes on us
                assert got == b""
                writer.close()
                await writer.wait_closed()
                async with await AsyncServeClient.connect(
                        "127.0.0.1", gateway.port) as remote:
                    ids, _ = await remote.query(queries[0], k=K)
                    assert len(ids) == K
            finally:
                await gateway.stop()

        asyncio.run(main())


class TestClientTimeouts:
    def test_silent_server_raises_builtin_timeout_error(self, workload):
        """A server that accepts and never writes: ping, stats and query
        each raise the builtin TimeoutError (before 3.11 asyncio's is a
        different class) and leave no pending future behind."""
        _, queries = workload

        async def main():
            connections = []
            server = await asyncio.start_server(
                lambda reader, writer: connections.append(writer),
                "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with await AsyncServeClient.connect(
                        "127.0.0.1", port) as remote:
                    for call in (remote.ping(timeout=0.05),
                                 remote.stats(timeout=0.05),
                                 remote.query(queries[0], k=K,
                                              deadline_ms=1)):
                        with pytest.raises(TimeoutError) as caught:
                            await call
                        assert type(caught.value) is TimeoutError
                        assert remote._pending == {}
            finally:
                for writer in connections:
                    writer.close()
                server.close()
                await server.wait_closed()

        asyncio.run(main())


class TestServerProcess:
    def test_sigterm_drains_gracefully(self, snapshot, workload):
        _, queries = workload
        process, port = start_replica(snapshot)

        async def query():
            async with await AsyncServeClient.connect(
                    "127.0.0.1", port) as remote:
                return await remote.query(queries[0], k=K)

        async def stats():
            async with await AsyncServeClient.connect(
                    "127.0.0.1", port) as remote:
                return await remote.stats()

        try:
            ids, _ = asyncio.run(query())
            assert len(ids) == K
            assert asyncio.run(stats())["service"]["alone"] == 1
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=20) == 0
        finally:
            stop_replica(process)

    @pytest.mark.parametrize("flag, value", [
        ("--max-batch", "0"), ("--max-pending", "0"),
        ("--max-inflight", "0"), ("--default-deadline-ms", "-1"),
        ("--default-deadline-ms", "nan"), ("--port", "-1"),
        ("--port", "65536")])
    def test_bad_flag_is_a_usage_error_before_the_snapshot_opens(
            self, tmp_path, monkeypatch, capsys, flag, value):
        from repro.serve import server

        def refuse(*args, **kwargs):
            raise AssertionError("the snapshot was opened")

        monkeypatch.setattr(server.QueryService, "from_snapshot", refuse)
        with pytest.raises(SystemExit) as raised:
            server.main(["--snapshot", str(tmp_path), flag, value])
        assert raised.value.code == 2
        assert flag in capsys.readouterr().err
