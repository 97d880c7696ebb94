"""Wire protocol of the network serving tier: length-prefixed JSON frames.

One frame is a 4-byte big-endian length prefix followed by a UTF-8 JSON
object.  JSON keeps the protocol dependency-free and debuggable with
``nc``/``jq``; the one thing JSON cannot carry losslessly — the float64
query and distance arrays — travels as base64 of the raw array bytes
(``dtype`` + ``shape`` alongside), so a served answer is *byte-identical*
to a direct :meth:`~repro.serve.QueryService.query` call, never a
decimal round-trip approximation.

Message shapes (all carry an ``op`` and a caller-chosen ``id`` echoed in
the response, so clients may pipeline and match out-of-order answers):

* ``{"op": "query", "id": n, "point": <array>, "k": k,
  "overrides": {...}, "deadline_ms": budget-or-null}`` →
  ``{"id": n, "ok": true, "ids": <array>, "dists": <array>}``
* ``{"op": "stats", "id": n}`` → ``{"id": n, "ok": true, "stats": {...}}``
* ``{"op": "ping", "id": n}`` → ``{"id": n, "ok": true, "pong": true}``

Failures come back as ``{"id": n, "ok": false, "error": {"type": ...,
"message": ...}}`` where ``type`` names one of the library's typed
serving errors (:class:`~repro.serve.ServiceOverloaded`,
:class:`DeadlineExceeded`, :class:`~repro.core.procpool.WorkerCrashed`,
…) — :func:`wire_to_error` rebuilds the same exception class client-side
so callers branch on type, not on message text.

:func:`read_frame` is the one frame reader, on both ends of a
connection.  A length prefix past :data:`MAX_FRAME_BYTES`, a stream that
ends inside a frame, or a non-JSON or non-object payload raises
:class:`ProtocolError`: a corrupt or adversarial stream must fail the
connection, never allocate unbounded buffers.
"""

from __future__ import annotations

import asyncio
import base64
import json
import struct
from typing import Any

import numpy as np

from repro.core.procpool import (
    ProcessPoolError,
    WorkerCrashed,
    WorkerTimeout,
)
from repro.meta import Predicate
from repro.serve.service import (
    DeadlineExceeded,
    ServiceClosed,
    ServiceOverloaded,
)

#: Frames larger than this are rejected before allocation — a corrupt
#: length prefix must not become a multi-gigabyte read.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct("!I")


class ProtocolError(RuntimeError):
    """The byte stream is not a valid frame sequence (torn length
    prefix, oversized frame, non-JSON or non-object payload)."""


class RemoteError(RuntimeError):
    """A server-side error whose type has no client-side class; the
    original type name is preserved in :attr:`remote_type`."""

    def __init__(self, remote_type: str, message: str) -> None:
        super().__init__(f"{remote_type}: {message}")
        self.remote_type = remote_type


#: Typed errors that cross the wire by name.  ``BadRequest``-shaped
#: validation failures map onto the builtins the in-process API raises,
#: so ``client.query(q, k=0)`` fails with ValueError either way.
ERROR_TYPES: dict[str, type[BaseException]] = {
    "ServiceOverloaded": ServiceOverloaded,
    "ServiceClosed": ServiceClosed,
    "DeadlineExceeded": DeadlineExceeded,
    "WorkerCrashed": WorkerCrashed,
    "WorkerTimeout": WorkerTimeout,
    "ProcessPoolError": ProcessPoolError,
    "ProtocolError": ProtocolError,
    "ValueError": ValueError,
    "TypeError": TypeError,
}


def encode_array(array: np.ndarray) -> dict[str, Any]:
    """Lossless JSON form of an ndarray: raw bytes + dtype + shape."""
    array = np.ascontiguousarray(array)
    return {"b64": base64.b64encode(array.tobytes()).decode("ascii"),
            "dtype": array.dtype.str,
            "shape": list(array.shape)}


def decode_array(payload: dict[str, Any]) -> np.ndarray:
    """Inverse of :func:`encode_array`; returns a private writable copy."""
    try:
        raw = base64.b64decode(payload["b64"])
        array = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
        return array.reshape(payload["shape"]).copy()
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"malformed array payload: {error}") from None


def error_to_wire(error: BaseException) -> dict[str, str]:
    """The ``error`` object of a failure response."""
    return {"type": type(error).__name__, "message": str(error)}


def wire_to_error(payload: dict[str, Any]) -> BaseException:
    """Rebuild the typed exception a failure response names.

    Unknown types come back as :class:`RemoteError` so a newer server
    cannot crash an older client with a KeyError.
    """
    name = str(payload.get("type", "RemoteError"))
    message = str(payload.get("message", ""))
    cls = ERROR_TYPES.get(name)
    if cls is None:
        return RemoteError(name, message)
    return cls(message)


def encode_frame(message: dict[str, Any]) -> bytes:
    """One wire frame: length prefix + JSON payload."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})")
    return _LENGTH.pack(len(body)) + body


def decode_body(body: bytes) -> dict[str, Any]:
    """Parse one frame body; the payload must be a JSON object."""
    try:
        message = json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame body is not valid JSON: {error}") \
            from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got "
            f"{type(message).__name__}")
    return message


async def read_frame(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read one frame from an asyncio stream; ``None`` on clean EOF
    (connection closed *between* frames)."""
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError(
            "connection closed mid-length-prefix") from None
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-frame") from None
    return decode_body(body)


# -- message builders ------------------------------------------------------

def query_request(request_id: int, point: np.ndarray, k: int,
                  overrides: dict[str, Any] | None = None,
                  deadline_ms: float | None = None) -> dict[str, Any]:
    """The ``op: query`` request frame body.

    A ``predicate`` override (filtered kNN) may be a
    :class:`~repro.meta.Predicate` object; it crosses the wire in its
    JSON dict form and the server coerces it back to the frozen type.
    """
    overrides = dict(overrides or {})
    predicate = overrides.get("predicate")
    if isinstance(predicate, Predicate):
        overrides["predicate"] = predicate.to_dict()
    return {"op": "query", "id": request_id,
            "point": encode_array(np.asarray(point, dtype=np.float64)),
            "k": int(k), "overrides": overrides,
            "deadline_ms": deadline_ms}


def query_response(request_id: Any, ids: np.ndarray,
                   dists: np.ndarray) -> dict[str, Any]:
    return {"id": request_id, "ok": True,
            "ids": encode_array(ids), "dists": encode_array(dists)}


def stats_request(request_id: int) -> dict[str, Any]:
    return {"op": "stats", "id": request_id}


def ping_request(request_id: int) -> dict[str, Any]:
    return {"op": "ping", "id": request_id}


def error_response(request_id: Any,
                   error: BaseException) -> dict[str, Any]:
    return {"id": request_id, "ok": False, "error": error_to_wire(error)}


def decode_result(message: dict[str, Any]) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, dists)`` from an ``ok`` query response; raises the typed
    error carried by a failure response."""
    if not message.get("ok"):
        raise wire_to_error(message.get("error") or {})
    return decode_array(message["ids"]), decode_array(message["dists"])
