"""Start ``repro serve`` from this checkout, optionally traced.

Usage::

    python3 perfbench/serve_launcher.py [--trace-out FILE] serve ARGS...

With ``--trace-out`` the benchmark's span wrappers are installed before
the server starts, and every span is written to ``FILE`` when it stops.
SIGTERM stops the server like Ctrl-C does.
"""

from __future__ import annotations

import signal
import sys

from common import use_checkout_source


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv) -> int:
    use_checkout_source()
    from repro.cli import main as repro_main
    from spans import Tracer, install_repro_wrappers

    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    tracer = Tracer(active=trace_out is not None)
    if trace_out:
        install_repro_wrappers(tracer)
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return repro_main(argv)
    finally:
        if trace_out:
            tracer.active = False
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
