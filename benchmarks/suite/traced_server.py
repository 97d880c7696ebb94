"""The stock serve process with the trace wrappers installed.

``python -m benchmarks.suite.traced_server --trace-out FILE [server
arguments]`` installs :mod:`benchmarks.suite.trace`'s wrappers, runs
``repro.serve.server.main`` unchanged, and writes the spans to FILE once
SIGTERM has drained the gateway.
"""

from __future__ import annotations

import sys

from benchmarks.suite.trace import Tracer


def main(argv: list[str]) -> int:
    from repro.serve import server
    position = argv.index("--trace-out")
    trace_out = argv[position + 1]
    tracer = Tracer().install()
    try:
        return server.main(argv[:position] + argv[position + 2:])
    finally:
        tracer.uninstall()
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
