"""Traced server launcher: wraps the program's entry points, then serves.

    python perfbench/launcher.py SPANS_OUT serve-args...

Installs :mod:`instrument` on the program, then runs
``repro.cli.serve_main`` with the remaining arguments exactly as
``python -m repro serve`` would. SIGTERM shuts it down like Ctrl-C,
after which the spans and cost-model decision records kept in memory
are written to SPANS_OUT.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))


def main(argv) -> int:
    import instrument
    from tracing import Tracer

    out, serve_args = argv[0], argv[1:]
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    tracer = instrument.install(Tracer())
    from repro.cli import serve_main

    try:
        return serve_main(serve_args)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
