"""Process entry point for one serve gateway: ``python -m
repro.serve.server --snapshot DIR [--port P]``.

Runs exactly one :class:`~repro.serve.gateway.ServeGateway` over a
:class:`~repro.serve.QueryService` opened from a snapshot directory.
Several such processes may serve one snapshot, each with its own page
store handles (with ``--backend mmap`` the OS shares the physical
pages); :class:`~repro.serve.AsyncServeClient` talks to one of them.

Contract for supervisors (tests, the benchmark suite, init systems):

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


def _checked(cast, valid, what: str):
    """An argparse type: ``cast`` of the text, refused unless ``valid``."""
    def parse(text: str):
        value = cast(text)
        if not valid(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    parse.__name__ = cast.__name__  # "invalid int value" if it won't cast
    return parse


positive_int = _checked(int, lambda value: value >= 1, "a positive integer")
positive_float = _checked(float, lambda value: 0 < value < float("inf"),
                          "a positive number")
port_number = _checked(int, lambda value: 0 <= value <= 65535,
                       "a port in 0..65535")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.server",
        description="Serve one index snapshot over TCP.")
    parser.add_argument("--snapshot", required=True,
                        help="snapshot directory written by repro save")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=port_number, default=0,
                        help="TCP port; 0 binds an ephemeral port "
                             "(reported on the READY line)")
    parser.add_argument("--backend", default="mmap", choices=BACKENDS,
                        help="storage backend for the reopen")
    parser.add_argument("--max-batch", type=positive_int, default=64,
                        help="most requests one micro-batch takes")
    parser.add_argument("--max-pending", type=positive_int, default=1024,
                        help="backpressure bound on queued requests")
    parser.add_argument("--max-inflight", type=positive_int, default=256,
                        help="gateway admission bound")
    parser.add_argument("--default-deadline-ms", type=positive_float,
                        help="deadline for requests that carry none")
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
    config = GatewayConfig(host=args.host, port=args.port,
                           max_inflight=args.max_inflight,
                           default_deadline_ms=args.default_deadline_ms)
    service = QueryService.from_snapshot(
        args.snapshot, backend=args.backend, max_batch=args.max_batch,
        max_pending=args.max_pending)
    try:
        asyncio.run(run_server(service, config))
    except KeyboardInterrupt:
        pass  # drain already ran inside run_server's finally
    return 0


if __name__ == "__main__":
    sys.exit(main())
