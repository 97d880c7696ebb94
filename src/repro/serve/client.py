"""The serve gateway's client: :class:`AsyncServeClient`.

It speaks the frame protocol of :mod:`repro.serve.protocol` and raises
the *same typed exceptions* the in-process API does — a query rejected
by an overloaded server raises :class:`~repro.serve.ServiceOverloaded`
here, a blown budget raises :class:`~repro.serve.DeadlineExceeded` — so
calling code (the benchmark's load generator, tests asserting parity)
cannot tell a remote service from a local one except by the socket in
between.  A response that does not arrive within the call's timeout
raises the builtin :class:`TimeoutError`.

The client multiplexes: a background reader task matches responses to
callers by ``id``, so any number of coroutines can have queries in
flight on one connection.  Blocking code drives it with
``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any

import numpy as np

from repro.serve import protocol


class AsyncServeClient:
    """Asyncio gateway client multiplexing one connection.

    A background task reads frames and resolves per-request futures by
    ``id``; any number of coroutines may await :meth:`query`
    concurrently.  Construct via :meth:`connect`::

        client = await AsyncServeClient.connect("127.0.0.1", 7707)
        ids, dists = await client.query(point, k=10)
        await client.close()
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: dict[int, asyncio.Future] = {}
        self._ids = itertools.count(1)
        self._write_lock = asyncio.Lock()
        self._closed = False
        self._reader_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int,
                      connect_timeout: float = 10.0) -> "AsyncServeClient":
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), connect_timeout)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        error: BaseException = ConnectionError(
            "server closed the connection")
        try:
            while True:
                frame = await protocol.read_frame(self._reader)
                if frame is None:
                    break
                future = self._pending.pop(frame.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(frame)
        except (protocol.ProtocolError, ConnectionError, OSError) as exc:
            error = exc
        except asyncio.CancelledError:
            error = ConnectionError("client closed")
        finally:
            # Fail every caller still waiting: no hung futures, ever.
            pending, self._pending = self._pending, {}
            for future in pending.values():
                if not future.done():
                    future.set_exception(error)

    async def _roundtrip(self, message: dict[str, Any],
                         timeout: float | None) -> dict[str, Any]:
        if self._closed:
            raise ConnectionError("client is closed")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[message["id"]] = future
        try:
            async with self._write_lock:
                self._writer.write(protocol.encode_frame(message))
                await self._writer.drain()
            # Before 3.11, asyncio.TimeoutError is not the builtin.
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            raise TimeoutError(f"no response within {timeout} s") from None
        finally:
            self._pending.pop(message["id"], None)
            # The reader loop may have failed this future while we were
            # in the write path above; if *that* path raised first, the
            # future's exception would never be retrieved — consume it
            # so no "exception was never retrieved" finalizer fires.
            if future.done() and not future.cancelled():
                future.exception()

    async def query(self, point: np.ndarray, k: int = 10,
                    deadline_ms: float | None = None,
                    **overrides: Any) -> tuple[np.ndarray, np.ndarray]:
        """One kNN query; mirrors ``QueryService.query``.  The wait for
        the answer is bounded by ``deadline_ms`` plus 5 s of slack."""
        request = protocol.query_request(next(self._ids), point, k,
                                         overrides, deadline_ms)
        timeout = None if deadline_ms is None else deadline_ms / 1000.0 + 5.0
        return protocol.decode_result(await self._roundtrip(request, timeout))

    async def stats(self, timeout: float | None = 30.0) -> dict[str, Any]:
        """The gateway's ``stats`` RPC payload."""
        response = await self._roundtrip(
            protocol.stats_request(next(self._ids)), timeout)
        if not response.get("ok"):
            raise protocol.wire_to_error(response.get("error") or {})
        return response["stats"]

    async def ping(self, timeout: float | None = 30.0) -> bool:
        """Liveness probe; True when the server answers."""
        response = await self._roundtrip(
            protocol.ping_request(next(self._ids)), timeout)
        return bool(response.get("ok"))

    async def close(self) -> None:
        """Cancel the reader, fail pending calls, close the socket."""
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "AsyncServeClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()
