"""Online serving: micro-batched concurrent querying over a built index.

``QueryService`` turns the vectorised ``query_batch`` engine path into a
thread-safe service for live traffic: many client threads submit single
queries, the service coalesces them into micro-batches, and each caller
gets its answer through a future, with a backpressure bound on queue
depth.  Combined with whole-family ``save_index``/``load_index`` it gives
the ROADMAP's deployment story: build offline, snapshot, then serve
online without rebuilding.

The network tier layers on top: ``ServeGateway`` exposes a service over
TCP (length-prefixed JSON frames, see :mod:`repro.serve.protocol`), and
``AsyncServeClient`` speaks to it with the same typed errors as the
in-process API.  The ``python -m repro.serve.server`` entry runs one
gateway per process.
"""

from repro.core.procpool import (
    ProcessPoolError,
    WorkerCrashed,
    WorkerTimeout,
)
from repro.serve.client import AsyncServeClient
from repro.serve.gateway import GatewayConfig, ServeGateway
from repro.serve.protocol import ProtocolError, RemoteError
from repro.serve.service import (
    DeadlineExceeded,
    QueryService,
    ServiceClosed,
    ServiceOverloaded,
    ServiceStats,
)

__all__ = [
    "AsyncServeClient",
    "DeadlineExceeded",
    "GatewayConfig",
    "ProcessPoolError",
    "ProtocolError",
    "QueryService",
    "RemoteError",
    "ServeGateway",
    "ServiceClosed",
    "ServiceOverloaded",
    "ServiceStats",
    "WorkerCrashed",
    "WorkerTimeout",
]
