"""Asyncio TCP gateway: the network front door over a
:class:`~repro.serve.QueryService`.

The service turns many in-process client threads into micro-batches;
the gateway turns many *network* clients into service submissions.  One
event loop owns all connections; per request it

* **admits or sheds without blocking the loop** — admission is layered:
  a gateway-level in-flight bound (``max_inflight``) sheds first, then
  the service's own ``max_pending`` backpressure is probed with a
  zero-timeout submit.  Either way an overloaded gateway answers with a
  typed :class:`~repro.serve.ServiceOverloaded` frame immediately; the
  event loop never sleeps on a full queue, so a flood cannot freeze the
  clients that *are* being served;
* **enforces the request deadline end-to-end** — the budget starts when
  the frame is decoded and covers queue admission, queue wait and
  execution: the deadline rides into
  :meth:`~repro.serve.QueryService.submit` (the dispatcher drops
  requests that expire while queued) and the await on the future is
  bounded by the same remaining budget, so a caller gets a typed
  :class:`~repro.serve.DeadlineExceeded` response, never a hang;
* **keeps live percentiles** — per-request latencies land in a bounded
  ring buffer; the ``stats`` RPC reports p50/p90/p99, shed and expiry
  counters, the in-flight gauge and the service's batch-occupancy
  numbers, so an operator can see batching health over the wire.

Requests on one connection are handled concurrently (task per request,
responses matched by ``id``), so a pipelining client is never
head-of-line blocked behind its own slow query.

Shutdown is graceful by contract: :meth:`ServeGateway.stop` stops the
listener, sheds new work with :class:`~repro.serve.ServiceClosed`,
waits for in-flight requests (bounded by ``drain_timeout``), then stops
the service — draining its queue and closing the worker pool.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
from collections import deque

import numpy as np

from repro.serve import protocol
from repro.serve.service import (
    DeadlineExceeded,
    QueryService,
    ServiceClosed,
    ServiceOverloaded,
)

#: Requests the reported p50/p90/p99 latencies cover (the most recent).
LATENCY_WINDOW = 2048


@dataclasses.dataclass
class GatewayConfig:
    """Tunables of the network front end.

    Attributes
    ----------
    host, port:
        Listen address; port ``0`` binds an ephemeral port (the bound
        port is in :attr:`ServeGateway.port` after ``start``).
    max_inflight:
        Gateway-level admission bound: requests decoded but not yet
        answered.  Past it, new queries shed with ``ServiceOverloaded``.
        Sized above the service's ``max_pending`` it never fires first;
        sized below, it sheds before the service queue saturates.
    default_deadline_ms:
        Deadline applied to requests that carry none; ``None`` means
        such requests may wait indefinitely.
    drain_timeout:
        Seconds :meth:`ServeGateway.stop` waits for in-flight requests
        before abandoning them to the service drain.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 256
    default_deadline_ms: float | None = None
    drain_timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}")
        if (self.default_deadline_ms is not None
                and self.default_deadline_ms <= 0):
            raise ValueError(
                f"default_deadline_ms must be > 0, got "
                f"{self.default_deadline_ms}")


class ServeGateway:
    """One listening socket feeding one :class:`QueryService`.

    Typical embedding (the ``repro.serve.server`` process entry wraps
    exactly this)::

        service = QueryService.from_snapshot(directory, backend="mmap")
        gateway = ServeGateway(service, GatewayConfig(port=7707))
        asyncio.run(gateway.serve_forever())

    The gateway starts (and stops) the service itself when the service
    is not already running.
    """

    def __init__(self, service: QueryService,
                 config: GatewayConfig | None = None) -> None:
        self.service = service
        self.config = config if config is not None else GatewayConfig()
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._draining = False
        self._inflight = 0
        self._inflight_idle: asyncio.Event | None = None
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._counters = {"queries": 0, "shed": 0, "deadline_exceeded": 0,
                          "errors": 0, "connections": 0}

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "ServeGateway":
        """Bind the listener and start the service (idempotent)."""
        if self._server is not None:
            return self
        self._inflight_idle = asyncio.Event()
        self._inflight_idle.set()
        self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        """``start()`` then serve until cancelled; cancellation triggers
        a graceful drain (see :meth:`stop`)."""
        await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

    async def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: stop admission, drain, stop the service.

        1. the listener closes (no new connections);
        2. new requests on live connections shed with ``ServiceClosed``;
        3. in-flight requests get up to ``drain_timeout`` seconds to
           finish and be answered;
        4. the service stops — ``drain=True`` answers everything still
           queued before the dispatcher exits and the worker pool closes.
        """
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._inflight_idle is not None and self._inflight > 0:
            try:
                await asyncio.wait_for(self._inflight_idle.wait(),
                                       self.config.drain_timeout)
            except asyncio.TimeoutError:
                pass
        # run_in_executor: service.stop joins the dispatcher thread,
        # which may still be answering a batch — never block the loop.
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.service.stop(drain=drain))

    # -- connection handling -----------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._counters["connections"] += 1
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    message = await protocol.read_frame(reader)
                except protocol.ProtocolError:
                    break  # corrupt stream: drop the connection
                if message is None:
                    break
                # Task per request: a pipelined connection's slow query
                # must not head-of-line block its later frames.
                task = asyncio.create_task(
                    self._serve_request(message, writer, write_lock))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            for task in tasks:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_request(self, message: dict,
                             writer: asyncio.StreamWriter,
                             write_lock: asyncio.Lock) -> None:
        request_id = message.get("id")
        op = message.get("op")
        try:
            if op == "ping":
                response = {"id": request_id, "ok": True, "pong": True}
            elif op == "stats":
                response = {"id": request_id, "ok": True,
                            "stats": self.stats()}
            elif op == "query":
                response = await self._serve_query(message)
            else:
                response = protocol.error_response(
                    request_id,
                    protocol.ProtocolError(f"unknown op {op!r}"))
        except asyncio.CancelledError:
            raise
        except Exception as error:
            self._counters["errors"] += 1
            response = protocol.error_response(request_id, error)
        try:
            async with write_lock:
                writer.write(protocol.encode_frame(response))
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # client went away; nothing to answer

    async def _serve_query(self, message: dict) -> dict:
        request_id = message.get("id")
        started = asyncio.get_running_loop().time()
        deadline_ms = message.get("deadline_ms")
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        deadline = None if deadline_ms is None else deadline_ms / 1000.0
        if self._draining:
            return protocol.error_response(
                request_id, ServiceClosed("gateway is shutting down"))
        if self._inflight >= self.config.max_inflight:
            self._counters["shed"] += 1
            return protocol.error_response(
                request_id, ServiceOverloaded(
                    f"gateway at max_inflight="
                    f"{self.config.max_inflight}"))
        self._inflight += 1
        assert self._inflight_idle is not None
        self._inflight_idle.clear()
        try:
            return await self._answer_query(
                message, request_id, started, deadline)
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._inflight_idle.set()

    async def _answer_query(self, message: dict, request_id,
                            started: float, deadline: float | None) -> dict:
        loop = asyncio.get_running_loop()
        try:
            point = protocol.decode_array(message["point"])
            k = message.get("k", 10)
            overrides = message.get("overrides") or {}
            # timeout=0: probe the service queue without ever blocking
            # the event loop — a full queue sheds as a typed response.
            future = self.service.submit(point, k, timeout=0,
                                         deadline=deadline, **overrides)
        except ServiceOverloaded as error:
            self._counters["shed"] += 1
            return protocol.error_response(request_id, error)
        except Exception as error:
            self._counters["errors"] += 1
            return protocol.error_response(request_id, error)
        remaining = None
        if deadline is not None:
            remaining = max(0.0, deadline - (loop.time() - started))
        try:
            ids, dists = await asyncio.wait_for(
                asyncio.wrap_future(future), remaining)
        except (asyncio.TimeoutError, DeadlineExceeded):
            self._counters["deadline_exceeded"] += 1
            return protocol.error_response(request_id, DeadlineExceeded(
                f"deadline of {deadline * 1000:.0f} ms exceeded"))
        except asyncio.CancelledError:
            future.cancel()
            raise
        except Exception as error:
            self._counters["errors"] += 1
            return protocol.error_response(request_id, error)
        self._counters["queries"] += 1
        self._latencies.append(loop.time() - started)
        return protocol.query_response(request_id, ids, dists)

    # -- observability -----------------------------------------------------

    def stats(self) -> dict:
        """The ``stats`` RPC payload: gateway counters, latency
        percentiles over the ring buffer, and the service's own
        batching/cache statistics."""
        window = list(self._latencies)
        if window:
            latencies = np.asarray(window) * 1e3
            percentiles = {
                "p50_ms": float(np.percentile(latencies, 50)),
                "p90_ms": float(np.percentile(latencies, 90)),
                "p99_ms": float(np.percentile(latencies, 99)),
            }
        else:
            percentiles = {"p50_ms": math.nan, "p90_ms": math.nan,
                           "p99_ms": math.nan}
        service = self.service.stats()
        return {
            "gateway": {**self._counters, "inflight": self._inflight,
                        "draining": self._draining,
                        "latency_window": len(window), **percentiles},
            "service": service.as_dict(),
        }
