"""Process entry point for one serve gateway: ``python -m
repro.serve.server --snapshot DIR [--port P]``.

Runs exactly one :class:`~repro.serve.gateway.ServeGateway` over a
:class:`~repro.serve.QueryService` opened from a snapshot directory.
This is the unit the :class:`~repro.serve.router.ReplicaRouter` fans
out over — each replica is one of these processes with its own page
store handles (with ``--backend mmap`` the OS shares the physical
pages).

Contract for supervisors (tests, the router's fixtures, init systems):

* once the socket is bound, exactly one line ::

      REPRO-SERVE READY port=<port> pid=<pid>

  is printed to stdout and flushed — with ``--port 0`` this is how the
  ephemeral port is communicated;
* SIGTERM and SIGINT trigger a graceful drain (stop admission, answer
  in-flight and queued requests, close the pool) before exit; a second
  signal is ignored while the first drain runs.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys

from repro.core.params import BACKENDS
from repro.serve.gateway import GatewayConfig, ServeGateway
from repro.serve.service import QueryService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.server",
        description="Serve one index snapshot over TCP.")
    parser.add_argument("--snapshot", required=True,
                        help="snapshot directory written by repro save")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port; 0 binds an ephemeral port "
                             "(reported on the READY line)")
    parser.add_argument("--backend", default="mmap", choices=BACKENDS,
                        help="storage backend for the reopen")
    parser.add_argument("--max-batch", type=int, default=None,
                        help="service micro-batch size override")
    parser.add_argument("--max-pending", type=int, default=None,
                        help="service queue bound override")
    parser.add_argument("--max-inflight", type=int, default=256,
                        help="gateway admission bound")
    parser.add_argument("--default-deadline-ms", type=float, default=None,
                        help="deadline for requests that carry none")
    parser.add_argument("--cache-size", type=int, default=None,
                        help="result-cache entries override")
    return parser


async def run_server(service: QueryService, config: GatewayConfig,
                     ready_stream=None) -> None:
    """Serve until SIGTERM/SIGINT, then drain gracefully."""
    gateway = ServeGateway(service, config)
    await gateway.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            pass  # non-main thread or platform without signal support
    stream = ready_stream if ready_stream is not None else sys.stdout
    print(f"REPRO-SERVE READY port={gateway.port} pid={os.getpid()}",
          file=stream, flush=True)
    try:
        await stop.wait()
    finally:
        await gateway.stop(drain=True)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {}
    if args.max_batch is not None:
        overrides["max_batch"] = args.max_batch
    if args.max_pending is not None:
        overrides["max_pending"] = args.max_pending
    if args.cache_size is not None:
        overrides["cache_size"] = args.cache_size
    service = QueryService.from_snapshot(
        args.snapshot, backend=args.backend, **overrides)
    config = GatewayConfig(host=args.host, port=args.port,
                           max_inflight=args.max_inflight,
                           default_deadline_ms=args.default_deadline_ms)
    try:
        asyncio.run(run_server(service, config))
    except KeyboardInterrupt:
        pass  # drain already ran inside run_server's finally
    return 0


if __name__ == "__main__":
    sys.exit(main())
