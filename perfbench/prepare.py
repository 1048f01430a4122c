"""Build a workload's input files (and, for the diameter workload, the
reference diameters) in a child process, outside any timing.

Usage: ``python perfbench/prepare.py WORKLOAD SEED OUTDIR [REFERENCE]``.
``diameter-paper17-reference`` stores the pinned analogs and their
oracle diameters once; ``diameter-paper17`` relabels them from the
seed, reading the pinned copies from ``REFERENCE``. Output is
written to a temporary directory and renamed into place, so a cached
``OUTDIR`` is always complete.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
from common import reap_children  # noqa: E402


def _reference(args) -> tuple[str, dict]:
    """Store one pinned analog and compute its oracle diameter."""
    name, out = args
    from repro.baselines.sumsweep import sumsweep_diameter
    from repro.generators.registry import build_analog
    from repro.graph.io import save_npz

    graph = build_analog(name)
    save_npz(graph, os.path.join(out, f"{name}.npz"), compressed=False)
    return name, {
        "n": int(graph.num_vertices),
        "regime": inputs.PAPER17[name],
        "diameter": int(sumsweep_diameter(graph).diameter),
    }


def prepare_reference(out: str) -> None:
    """The 17 pinned analogs and their SumSweep diameters (seed-independent)."""
    # Slowest first, so two workers finish together.
    order = sorted(inputs.PAPER17, key=lambda n: n != "delaunay_n24")
    with ProcessPoolExecutor(2, mp_context=get_context("spawn")) as pool:
        results = dict(pool.map(_reference, [(n, out) for n in order]))
    with open(os.path.join(out, "oracle.json"), "w") as fh:
        json.dump({n: results[n] for n in inputs.PAPER17}, fh, indent=1)


def prepare_diameter(seed: int, out: str, reference: str) -> None:
    """The analogs relabeled by ``seed``, as ``.scsr``; the oracle is the
    pinned graphs' (a diameter does not depend on vertex labels)."""
    from repro.graph.io import load_npz
    from repro.store import save_scsr

    for name in inputs.PAPER17:
        graph = load_npz(os.path.join(reference, f"{name}.npz")).with_name(name)
        save_scsr(inputs.relabel(graph, seed), os.path.join(out, f"{name}.scsr"))
    shutil.copy(os.path.join(reference, "oracle.json"), os.path.join(out, "oracle.json"))


def prepare_serve(tenants: dict, out: str) -> None:
    """The pinned tenant graphs of a serve workload."""
    from repro.graph.io import save_npz
    from repro.store import save_scsr

    meta = {}
    for key, (fmt, build) in tenants.items():
        graph = build()
        path = os.path.join(out, f"{key}.{fmt}")
        if fmt == "npz":
            save_npz(graph, path, compressed=False)
        else:
            save_scsr(graph, path)
        meta[key] = {
            "path": os.path.basename(path), "format": fmt, "n": int(graph.num_vertices),
            "decoded_bytes": int(graph.indptr.nbytes + graph.indices.nbytes),
        }
    with open(os.path.join(out, "tenants.json"), "w") as fh:
        json.dump(meta, fh, indent=1)


def main(argv) -> int:
    workload, seed, out = argv[0], int(argv[1]), argv[2]
    tmp = f"{out}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        if workload == "diameter-paper17-reference":
            prepare_reference(tmp)
        elif workload == "diameter-paper17":
            prepare_diameter(seed, tmp, argv[3])
        elif workload == "serve-zipf":
            prepare_serve(inputs.SERVE_TENANTS, tmp)
        elif workload == "serve-churn":
            prepare_serve(inputs.CHURN_TENANTS, tmp)
        else:
            raise SystemExit(f"unknown workload {workload!r}")
        os.replace(tmp, out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        reap_children()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
