"""Tests for the asyncio TCP gateway over a ``QueryService``.

The acceptance contract of the network tier: many concurrent network
clients receive *byte-identical* answers to direct in-process calls;
deadlines produce typed ``DeadlineExceeded`` responses (never hangs);
overload produces typed ``ServiceOverloaded`` responses (never an event
loop blocked on a full queue); shutdown drains instead of dropping.

No pytest-asyncio in the environment: each test owns its event loop via
``asyncio.run``.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.core import HDIndex, HDIndexParams
from repro.serve import (
    AsyncServeClient,
    DeadlineExceeded,
    GatewayConfig,
    QueryService,
    ServeClient,
    ServeGateway,
    ServiceClosed,
    ServiceConfig,
    ServiceOverloaded,
)

K = 10


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(42)
    centers = rng.uniform(0.0, 100.0, size=(5, 12))
    data = np.vstack([
        center + rng.normal(0.0, 3.0, size=(48, 12)) for center in centers])
    queries = data[rng.choice(len(data), 32, replace=False)] \
        + rng.normal(0.0, 0.5, size=(32, 12))
    return np.clip(data, 0, 100), np.clip(queries, 0, 100)


@pytest.fixture(scope="module")
def built_index(workload):
    data, _ = workload
    index = HDIndex(HDIndexParams(num_trees=3, num_references=5, alpha=64,
                                  gamma=24, domain=(0.0, 100.0), seed=0))
    index.build(data)
    yield index
    index.close()


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
        service = QueryService(built_index, ServiceConfig(max_batch=8))
        with service:
            expected = [service.query(q, K) for q in queries]

        service = QueryService(built_index, ServiceConfig(max_batch=8))
        num_clients = 8

        async def client(port, client_index, results):
            async with await AsyncServeClient.connect(
                    "127.0.0.1", port) as remote:
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

    def test_sync_client_parity_and_pipeline(self, built_index, workload):
        _, queries = workload
        with QueryService(built_index) as service:
            expected = service.query(queries[0], K)

        service = QueryService(built_index)
        gateway = ServeGateway(service, gateway_config())

        async def main():
            await gateway.start()
            return gateway.port

        loop = asyncio.new_event_loop()
        try:
            port = loop.run_until_complete(main())
            # Drive the sync client from outside the loop's thread.
            import threading
            got = {}

            def sync_calls():
                with ServeClient("127.0.0.1", port) as client:
                    assert client.ping()
                    got["answer"] = client.query(queries[0], k=K)

            thread = threading.Thread(target=sync_calls)
            thread.start()
            # Serve the loop while the sync client talks to it.
            deadline = time.monotonic() + 10
            while thread.is_alive() and time.monotonic() < deadline:
                loop.run_until_complete(asyncio.sleep(0.01))
            thread.join(timeout=1)
            assert not thread.is_alive(), "sync client hung"
            loop.run_until_complete(gateway.stop())
        finally:
            loop.close()
        assert got["answer"][0].tobytes() == expected[0].tobytes()
        assert got["answer"][1].tobytes() == expected[1].tobytes()

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
        service = QueryService(slow, ServiceConfig(max_batch=4))

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
        dispatcher, and stats record the expiry."""
        _, queries = workload
        slow = SlowIndex(built_index, delay=0.25)
        service = QueryService(slow, ServiceConfig(max_batch=1))

        async def main():
            gateway = ServeGateway(service, gateway_config())
            await gateway.start()
            try:
                async with await AsyncServeClient.connect(
                        "127.0.0.1", gateway.port) as remote:
                    blocker = asyncio.create_task(
                        remote.query(queries[0], k=K))
                    await asyncio.sleep(0.05)  # blocker holds the batch
                    with pytest.raises(DeadlineExceeded):
                        await remote.query(queries[1], k=K,
                                           deadline_ms=20.0)
                    await blocker
                stats = gateway.stats()
            finally:
                await gateway.stop()
            return stats

        stats = asyncio.run(main())
        assert stats["gateway"]["deadline_exceeded"] >= 1

    def test_default_deadline_applies(self, built_index, workload):
        _, queries = workload
        slow = SlowIndex(built_index, delay=0.5)
        service = QueryService(slow, ServiceConfig(max_batch=4))

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


class TestOverload:
    def test_slow_consumer_sheds_typed_never_blocks(self, built_index,
                                                    workload):
        """A burst past capacity gets typed ServiceOverloaded answers
        while admitted requests complete — the loop never blocks."""
        _, queries = workload
        slow = SlowIndex(built_index, delay=0.2)
        service = QueryService(
            slow, ServiceConfig(max_batch=1, max_pending=2))

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
        service = QueryService(built_index, ServiceConfig(max_batch=4))

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
        service = QueryService(slow, ServiceConfig(max_batch=1))

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
