"""The benchmark's tracer must still find every entry point it patches.

``perfbench/instrument.py`` wraps program functions and methods by
name. A renamed or deleted target raises inside ``install`` (or leaves
a span unrecorded), which otherwise only shows up as a failed traced
benchmark run. This installs the tracer on a small pinned graph and
checks that the diameter and query entry points record their spans.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

from repro.generators.road import road_network

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_records_core_and_query_spans():
    saved_path = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        instrument = importlib.import_module("instrument")
        tracing = importlib.import_module("tracing")
        tracer = instrument.install(tracing.Tracer())
        try:
            # Look the entry points up after install: it rebinds them.
            fdiam = importlib.import_module("repro.core.fdiam").fdiam
            QueryEngine = importlib.import_module("repro.query").QueryEngine

            graph = road_network(10, 10, seed=1)
            want = fdiam(graph).diameter
            engine = QueryEngine()
            key = engine.add_graph(graph)
            answers, _stats = engine.run(key, ["diam", "ecc 0"])
        finally:
            tracer.unpatch()
    finally:
        sys.path[:] = saved_path

    assert answers[0] == want
    names = {span.name for span in tracer.spans}
    assert "core.fdiam" in names
    assert "query.run" in names
