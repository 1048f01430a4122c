#!/usr/bin/env python
"""Count-only benchmark regression harness driven by one gate table.

Runs pinned stage benchmarks on deterministic generator graphs (the
paper-analog inputs are the same graph, with the same traversal counts,
on every machine) and checks the records against :data:`GATES`, one
declarative table of ``(name, graphs, stage, check, bound)`` rows:

* a gate row bounds a record field by a constant or by another field of
  the same record; ``--gate NAME`` runs just the stages that gate needs;
* a compare row (bound ``("==", BASELINE)``) requires the field to equal
  the committed snapshot given to ``--compare``: exact results and the
  deterministic work counts, with no tolerance either way.

Records hold counts only — BFS traversals, edges examined, gather
passes, bytes, exact answers. Wall clock and memory are measured by
``perfbench/``.

Usage::

    python benchmarks/regression.py --out BENCH_2026-08-07.json
    python benchmarks/regression.py --smoke --compare BENCH_2026-08-07.json
    python benchmarks/regression.py --gate warm --gate churn
"""

from __future__ import annotations

import argparse
import json
import operator
import platform
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro._version import __version__  # noqa: E402
from repro.baselines.sumsweep import sumsweep_diameter  # noqa: E402
from repro.cache import WarmStartStore, fdiam_cached  # noqa: E402
from repro.core.extremes import eccentricity_spectrum  # noqa: E402
from repro.core.fdiam import fdiam  # noqa: E402
from repro.bfs.kernel import TraversalKernel  # noqa: E402
from repro.graph.io import save_npz  # noqa: E402
from repro.harness.workloads import get_workload  # noqa: E402
from repro.parallel.scaling import ScalingStudy  # noqa: E402
from repro.prep.reorder import ORDER_STRATEGIES, apply_order  # noqa: E402
from repro.query import QueryEngine  # noqa: E402
from repro.store import load_scsr, save_scsr  # noqa: E402

SCHEMA_VERSION = 2

#: One small-diameter power-law analog and one high-diameter road
#: analog — the two topology regimes the paper contrasts throughout §6.
FULL_GRAPHS = ("internet", "USA-road-d.NY")
SMOKE_GRAPHS = ("internet",)
#: The million-vertex road analog the store gate uses.
ROAD_1M = ("road-1M",)

#: The 10^7-edge tier and the pinned chunk size of its streaming encoder.
SCALE_GRAPHS = ("road-10M", "powerlaw-10M")
SCALE_CHUNK_EDGES = 1 << 20

#: The command that rewrites the committed baseline after an intended
#: change to a result or count.
REFRESH_COMMAND = "python benchmarks/regression.py --out BENCH_2026-08-07.json"


def _mixed_queries(graph) -> list[str]:
    """256 mixed dist/ecc/diam queries from a pinned 48-source pool."""
    rng = np.random.default_rng(42)
    pool = rng.integers(0, graph.num_vertices, size=48)
    queries = ["diam"]
    for _ in range(255):
        u, v = (int(x) for x in rng.choice(pool, size=2))
        queries.append(f"dist {u} {v}" if rng.random() < 0.6 else f"ecc {u}")
    return queries


def _stage_bfs_hybrid(graph):
    res = TraversalKernel(graph).bfs(graph.max_degree_vertex(), record_trace=True)
    return {
        "bfs_count": 1,
        "edges_examined": res.trace.total_edges_examined,
        "eccentricity": res.eccentricity,
    }


def _stage_fdiam(graph):
    res = fdiam(graph)
    return {
        "bfs_count": res.stats.bfs_traversals,
        "edges_examined": res.stats.edges_examined,
        "sweeps": res.stats.ecc_sweeps,
        "diameter": res.diameter,
    }


def _stage_spectrum(graph, lanes):
    spec = eccentricity_spectrum(graph, batch_lanes=lanes)
    return {
        "bfs_count": spec.bfs_traversals,
        "sweeps": spec.sweeps,
        "edges_examined": spec.edges_examined,
        "lane_occupancy": round(spec.lane_occupancy, 4),
        "diameter": spec.diameter,
    }


def _stage_fdiam_warm(graph):
    """A cold run writes the sidecar; the record is the warm rerun's.

    The cold counters ride along so the ``warm`` gate can bound the warm
    run against them.
    """
    with tempfile.TemporaryDirectory() as tmp:
        store = WarmStartStore(Path(tmp))
        cold, _ = fdiam_cached(graph, store=store)
        res, info = fdiam_cached(graph, store=store)
    return {
        "bfs_count": res.stats.bfs_traversals,
        "edges_examined": res.stats.edges_examined,
        "diameter": res.diameter,
        "verified": bool(info.verified),
        "cold_bfs_count": cold.stats.bfs_traversals,
        "cold_diameter": cold.diameter,
        "bfs_ratio_vs_cold": round(
            cold.stats.bfs_traversals / max(res.stats.bfs_traversals, 1), 2
        ),
    }


def _stage_query_batch(graph):
    """256 mixed queries in the steady state the engine exists for.

    A first batch pays the one cold ``diam`` resolution into a temporary
    store; the record is the second batch's — sidecar-preloaded
    diameter, all fresh sources packed into 64-lane sweep chunks.
    """
    queries = _mixed_queries(graph)
    with tempfile.TemporaryDirectory() as tmp:
        store = WarmStartStore(Path(tmp))
        for _ in range(2):
            engine = QueryEngine(store=store, batch_lanes=256)
            _, stats = engine.run(engine.add_graph(graph), queries)
    return {
        "queries": stats.queries,
        "scalar_traversals": stats.scalar_traversals,
        "sweeps": stats.sweeps,
        "bfs_sources": stats.bfs_sources,
        "edges_examined": stats.edges_examined,
        "gather_pass_ratio": round(stats.gather_pass_ratio, 2),
        "lane_occupancy": round(stats.lane_occupancy, 4),
    }


def _stage_query_service_load(graph):
    """Coalescing query service under 64 concurrent clients.

    Boots an in-process :class:`repro.service.QueryService`, replays a
    200-request zipf-skewed trace through 64 keep-alive HTTP clients,
    and audits every served answer against a cold serial engine. How
    arrivals coalesce into batches varies per run, so none of these
    counters is a compare row; the ``service`` gate bounds them.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from load_service import run_load

    record = run_load(
        {graph.name or "primary": graph},
        n_requests=200,
        concurrency=64,
        verify=True,
    )
    for timing in ("wall_s", "qps", "p50_ms", "p95_ms", "p99_ms"):
        del record[timing]
    return record


def _stage_scaling_curve(graph):
    """Eccentricity checksums of one hub battery at 1, 2 and 4 workers.

    A fixed 64-source battery runs through
    :meth:`ScalingStudy.measure_sweep`: worker count 1 is the in-process
    bitparallel backend, higher counts the multiprocess backend over
    shared CSR segments. The ``scaling`` gate requires every count's
    checksum to equal the 1-worker one and the multi-worker points to
    run on the multiprocess backend. Wall-clock speedup is not recorded:
    perfbench owns time.
    """
    points = ScalingStudy().measure_sweep(graph, workers=(1, 2, 4), num_sources=64)
    out = {"sources": points[0].sources, "ecc_checksum": points[0].ecc_checksum}
    for p in points:
        out[f"workers_{p.workers}_backend"] = p.backend
        if p.workers > 1:
            out[f"workers_{p.workers}_ecc_checksum"] = p.ecc_checksum
    return out


def _stage_store_compress(graph):
    """Bytes/edge of the ``.scsr`` store, in input and BFS order.

    Compression is a property of graph × order, so the graph is saved
    both in input order and after a BFS locality reorder, next to an
    uncompressed ``.npz`` of the same arrays (whose size does not depend
    on the order). Every size is deterministic.
    """
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        npz = root / "g.npz"
        save_npz(graph, npz, compressed=False)
        npz_bytes = npz.stat().st_size
        info_raw = save_scsr(graph, root / "raw.scsr")
        ordered = apply_order(
            graph, ORDER_STRATEGIES["bfs"](graph), name=graph.name
        ).graph
        info_bfs = save_scsr(
            ordered, root / "bfs.scsr", provenance="reorder=bfs"
        )
    return {
        "npz_bytes": npz_bytes,
        "scsr_bytes": info_raw.nbytes,
        "scsr_bytes_reordered": info_bfs.nbytes,
        "bytes_per_edge": round(info_raw.bytes_per_edge, 3),
        "bytes_per_edge_reordered": round(info_bfs.bytes_per_edge, 3),
        "ratio_vs_npz": round(npz_bytes / info_raw.nbytes, 3),
        "ratio_vs_npz_reordered": round(npz_bytes / info_bfs.nbytes, 3),
    }


def _stage_fdiam_scsr(graph):
    """fdiam plus a 256-query batch answered straight off a mapped store."""
    queries = _mixed_queries(graph)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.scsr"
        save_scsr(graph, path)
        loaded = load_scsr(path, mmap=True)
        try:
            res = fdiam(loaded)
            engine = QueryEngine(batch_lanes=256)
            _answers, stats = engine.run(engine.add_graph(loaded), queries)
        finally:
            loaded.backing_store.close()
    return {
        "bfs_count": res.stats.bfs_traversals,
        "edges_examined": res.stats.edges_examined + stats.edges_examined,
        "diameter": res.diameter,
        "queries": stats.queries,
    }


def _stage_sumsweep(graph):
    res = sumsweep_diameter(graph)
    return {"bfs_count": res.bfs_traversals, "diameter": res.diameter}


def _churn_batches(graph, *, batches: int = 8, batch_size: int = 4):
    """Deterministic insert-only batches of absent edges for ``graph``."""
    rng = np.random.default_rng(0xC40)
    n = graph.num_vertices
    out, used = [], set()
    for _ in range(batches):
        batch = []
        while len(batch) < batch_size:
            u, v = (int(x) for x in rng.integers(n, size=2))
            if u == v:
                continue
            edge = (min(u, v), max(u, v))
            if edge in used or graph.has_edge(*edge):
                continue
            used.add(edge)
            batch.append(edge)
        out.append(batch)
    return out


def _stage_dynamic_churn(graph):
    """Incremental repair vs per-batch cold recompute under edge churn.

    Eight deterministic 4-edge insert-only batches; ``repair_bfs`` is
    what the maintainer spent, ``recompute_bfs`` what a cold ``fdiam``
    after every batch spent. Every repaired diameter is compared with
    that cold run of the same epoch's view (``mismatches``).
    """
    from repro.dynamic import DynamicDiameter, DynamicGraph

    dgraph = DynamicGraph(graph)
    maintainer = DynamicDiameter(dgraph)
    maintainer.refresh()  # cold initial state, outside the comparison
    batches = _churn_batches(graph)
    repair_bfs = recompute_bfs = mismatches = 0
    strategies = {"repair": 0, "recompute": 0}
    for batch in batches:
        dgraph.apply(inserts=batch)
        stats = maintainer.refresh()
        repair_bfs += stats.bfs_traversals
        strategies[stats.strategy] = strategies.get(stats.strategy, 0) + 1
        cold = fdiam(dgraph.view())
        recompute_bfs += cold.stats.bfs_traversals
        if (maintainer.diameter, maintainer.infinite) != (
            cold.diameter,
            cold.infinite,
        ):
            mismatches += 1
    return {
        "batches": len(batches),
        "bfs_count": repair_bfs,
        "repair_bfs": repair_bfs,
        "recompute_bfs": recompute_bfs,
        "bfs_ratio_vs_recompute": round(recompute_bfs / max(repair_bfs, 1), 3),
        "repairs": strategies.get("repair", 0),
        "recomputes": strategies.get("recompute", 0),
        "mismatches": mismatches,
        "diameter": maintainer.diameter,
    }


def _stage_store_stream_encode(graph):
    """One-shot vs streaming encode of a 10^7-edge analog.

    The two images must be byte-identical (the format pins the
    block-aligned layout), and the streaming encoder's peak scratch
    must stay under 2x the chunk's share of the one-shot peak plus the
    offset-index overhead — the O(chunk) bound the ``stream-encode``
    gate checks, so a scratch regression fails rather than quietly
    re-materializing the graph.
    """
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        one = save_scsr(graph, root / "one.scsr")
        stream = save_scsr(
            graph, root / "stream.scsr", chunk_edges=SCALE_CHUNK_EDGES
        )
        identical = (root / "one.scsr").read_bytes() == (
            root / "stream.scsr"
        ).read_bytes()
    per_arc = one.encoder_peak_bytes / max(one.num_directed_edges, 1)
    peak_bound = int(2 * per_arc * SCALE_CHUNK_EDGES) + 4 * 8 * (
        one.num_blocks + 1
    )
    return {
        "chunk_edges": SCALE_CHUNK_EDGES,
        "scsr_bytes": stream.nbytes,
        "bytes_per_edge": round(stream.bytes_per_edge, 3),
        "encoder_peak_bytes": stream.encoder_peak_bytes,
        "encoder_peak_bytes_oneshot": one.encoder_peak_bytes,
        "encoder_peak_bound_bytes": peak_bound,
        "encoder_peak_ratio_vs_oneshot": round(
            stream.encoder_peak_bytes / max(one.encoder_peak_bytes, 1), 4
        ),
        "byte_identical": identical,
    }


#: Every stage: ``fn(graph) -> record``.
STAGES = {
    "bfs_hybrid": _stage_bfs_hybrid,
    "fdiam": _stage_fdiam,
    "fdiam_warm": _stage_fdiam_warm,
    "query_batch": _stage_query_batch,
    "query_service_load": _stage_query_service_load,
    "spectrum_scalar": lambda g: _stage_spectrum(g, 0),
    "spectrum_lanes64": lambda g: _stage_spectrum(g, 64),
    "sumsweep_scalar": _stage_sumsweep,
    "scaling_curve": _stage_scaling_curve,
    "store_compress": _stage_store_compress,
    "fdiam_scsr": _stage_fdiam_scsr,
    "dynamic_churn": _stage_dynamic_churn,
    "store_stream_encode": _stage_store_stream_encode,
}

#: The stages the suite runs on each of its graphs (``--smoke`` drops the
#: scalar references), and on each 10^7-edge analog of a full run.
SUITE_STAGES = tuple(s for s in STAGES if s != "store_stream_encode")
SMOKE_SKIPS = ("spectrum_scalar", "sumsweep_scalar")
SCALE_PLAN = (
    ("road-10M", "store_stream_encode"),
    ("powerlaw-10M", "store_stream_encode"),
)


class Field(NamedTuple):
    """A bound read from the same record: ``scale`` × ``record[key]``."""

    key: str
    scale: float = 1


#: Bound target meaning "the committed baseline's value of this field".
BASELINE = "baseline"
#: Graphs / stage wildcard of a row.
ALL = None


class Gate(NamedTuple):
    """One row: ``check`` field(s) of ``graph/stage`` records vs ``bound``.

    ``bound`` is ``(op, target)``; the target is a constant, a
    :class:`Field` of the same record, or :data:`BASELINE`.
    """

    name: str
    graphs: tuple[str, ...] | None
    stage: str | None
    check: str | tuple[str, ...]
    bound: tuple


GATES = (
    # Warm start: a verified sidecar answers with the cold diameter and
    # spends at most 0.6x the cold traversals (the verified path: one).
    Gate("warm", FULL_GRAPHS, "fdiam_warm", "verified", ("==", True)),
    Gate("warm", FULL_GRAPHS, "fdiam_warm", "diameter", ("==", Field("cold_diameter"))),
    Gate("warm", FULL_GRAPHS, "fdiam_warm", "bfs_count", ("<=", Field("cold_bfs_count", 0.6))),
    # Shared-memory sweeps: identical checksums at every worker count,
    # and the multi-worker points really ran on the multiprocess backend.
    Gate("scaling", FULL_GRAPHS, "scaling_curve",
         ("workers_2_ecc_checksum", "workers_4_ecc_checksum"), ("==", Field("ecc_checksum"))),
    Gate("scaling", FULL_GRAPHS, "scaling_curve",
         ("workers_2_backend", "workers_4_backend"), ("==", "multiprocess")),
    # Compressed store: the BFS-reordered image of the million-vertex
    # road analog is at least 3x smaller than an uncompressed .npz.
    Gate("bytes-per-edge", ROAD_1M, "store_compress", "ratio_vs_npz_reordered", (">=", 3.0)),
    # Coalescing service: every answer matches the serial oracle on both
    # analogs, and batching replaces >= 4 queries / scalar gather passes
    # per dispatch on the small-diameter one.
    Gate("service", FULL_GRAPHS, "query_service_load", "mismatches", ("==", 0)),
    Gate("service", SMOKE_GRAPHS, "query_service_load",
         ("coalescing_ratio", "gather_pass_ratio"), (">=", 4.0)),
    # Dynamic maintenance: every repaired diameter matches a cold
    # recompute, and repair is cheaper on the small-diameter analog.
    Gate("churn", FULL_GRAPHS, "dynamic_churn", "mismatches", ("==", 0)),
    Gate("churn", ("internet",), "dynamic_churn", "repair_bfs", ("<", Field("recompute_bfs"))),
    # Streaming encoder: byte-identical to one-shot, O(chunk) scratch.
    Gate("stream-encode", SCALE_GRAPHS, "store_stream_encode", "byte_identical", ("==", True)),
    Gate("stream-encode", SCALE_GRAPHS, "store_stream_encode",
         "encoder_peak_bytes", ("<", Field("encoder_peak_bound_bytes"))),
    # --compare: exact results and deterministic counts equal the
    # baseline, in both directions (a drop is a stale baseline).
    Gate("compare", ALL, ALL, ("diameter", "eccentricity", "ecc_checksum"), ("==", BASELINE)),
    Gate("compare", ALL, ALL, ("bfs_count", "edges_examined", "sweeps"), ("==", BASELINE)),
    Gate("compare", ALL, "query_batch", ("bfs_sources", "scalar_traversals"), ("==", BASELINE)),
    Gate("compare", ALL, "dynamic_churn", ("recompute_bfs",), ("==", BASELINE)),
    Gate("compare", ALL, "store_compress",
         ("npz_bytes", "scsr_bytes", "scsr_bytes_reordered"), ("==", BASELINE)),
    Gate("compare", ALL, "store_stream_encode", ("scsr_bytes",), ("==", BASELINE)),
)

GATE_NAMES = tuple(dict.fromkeys(g.name for g in GATES if g.name != "compare"))

_OPS = {
    "==": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
    ">=": operator.ge,
}


def run(plan) -> dict:
    """Run ``(graph, stage)`` pairs, each graph built once; the snapshot."""
    by_graph: dict[str, list[str]] = {}
    for name, stage in plan:
        by_graph.setdefault(name, []).append(stage)
    snapshot = {
        "schema_version": SCHEMA_VERSION,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "repro": __version__,
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "graphs": {},
        "stages": {},
    }
    stages = snapshot["stages"]
    for name, graph_stages in by_graph.items():
        graph = get_workload(name).graph
        snapshot["graphs"][name] = {
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
        }
        for stage in graph_stages:
            key = f"{name}/{stage}"
            print(f"  running {key} ...", flush=True)
            stages[key] = STAGES[stage](graph)
        del graph  # a 10^7-edge graph is freed before the next is built
        scalar = stages.get(f"{name}/spectrum_scalar")
        lanes = stages.get(f"{name}/spectrum_lanes64")
        if scalar and lanes:
            # How many fewer edge-gather passes (level-synchronous
            # sweeps) the lane batching needs.
            lanes["gather_pass_ratio_vs_scalar"] = round(
                scalar["sweeps"] / max(lanes["sweeps"], 1), 2
            )
            lanes["edge_ratio_vs_scalar"] = round(
                scalar["edges_examined"] / max(lanes["edges_examined"], 1), 3
            )
    return snapshot


def run_suite(*, smoke: bool = False, graphs=None) -> dict:
    """The suite's stages on its graphs; a full run adds the 10^7 tier.

    An explicit ``graphs`` list means "just these graphs": no scale tier.
    """
    names = graphs if graphs is not None else (SMOKE_GRAPHS if smoke else FULL_GRAPHS)
    stages = [s for s in SUITE_STAGES if not (smoke and s in SMOKE_SKIPS)]
    plan = [(name, stage) for name in names for stage in stages]
    if not smoke and graphs is None:
        plan += SCALE_PLAN
    return run(plan)


def gate_plan(names) -> list[tuple[str, str]]:
    """The ``(graph, stage)`` pairs the named gates' rows check."""
    return list(dict.fromkeys(
        (graph, row.stage) for row in GATES if row.name in names for graph in row.graphs
    ))


def evaluate(snapshot: dict, rows=GATES, baseline: dict | None = None) -> list[str]:
    """Check ``snapshot`` against every row; return the failure messages.

    A row covers every record of its graphs and stage the run produced.
    A gate row fails when a checked field is missing or out of bounds;
    a compare row (skipped without ``baseline``) checks the fields both
    records have. With a baseline, a row it has for a graph the run
    built must name a stage that still exists (a stage the run selected
    is always produced).
    """
    failures: list[str] = []
    base_stages = (baseline or {}).get("stages", {})
    refresh = f"refresh the baseline with `{REFRESH_COMMAND}` if intended"
    for row in rows:
        op, target = row.bound
        if target == BASELINE and baseline is None:
            continue
        fields = (row.check,) if isinstance(row.check, str) else row.check
        for key, record in snapshot["stages"].items():
            graph, stage = key.split("/", 1)
            if row.graphs is not ALL and graph not in row.graphs:
                continue
            if row.stage is not ALL and stage != row.stage:
                continue
            for field in fields:
                if target == BASELINE:
                    base = base_stages.get(key, {})
                    if field not in base or field not in record:
                        continue
                    if record[field] != base[field]:
                        failures.append(
                            f"{key}: {field} changed {base[field]!r} -> "
                            f"{record[field]!r} (must equal the baseline; {refresh})"
                        )
                    continue
                if field not in record:
                    failures.append(f"{row.name}: {key} has no {field!r}")
                    continue
                if isinstance(target, Field):
                    bound = target.scale * record[target.key]
                    scale = "" if target.scale == 1 else f"{target.scale:g} x "
                    shown = f"{scale}{target.key} = {bound!r}"
                else:
                    bound, shown = target, repr(target)
                line = f"{row.name}: {key} {field} = {record[field]!r}, needs {op} {shown}"
                if _OPS[op](record[field], bound):
                    print(f"ok   {line}")
                else:
                    failures.append(line)
    for key in base_stages:
        graph, stage = key.split("/", 1)
        if graph in snapshot["graphs"] and stage not in STAGES:
            failures.append(
                f"{key}: the baseline has this row but no stage produces "
                f"it any more (stale row; {refresh})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick suite: the internet analog, no scalar reference stages",
    )
    parser.add_argument(
        "--gate",
        action="append",
        choices=GATE_NAMES,
        metavar="NAME",
        help="run only the stages gate NAME checks, then its rows "
        f"(repeatable; one of {', '.join(GATE_NAMES)})",
    )
    parser.add_argument(
        "--compare",
        type=Path,
        default=None,
        metavar="BASELINE.json",
        help="also require exact results and counts equal to this snapshot",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="write the snapshot JSON here"
    )
    args = parser.parse_args(argv)

    if args.gate:
        print(f"benchmark gates {', '.join(args.gate)} ...")
        snapshot = run(gate_plan(args.gate))
        rows = [g for g in GATES if g.name in args.gate or g.name == "compare"]
    else:
        print(f"benchmark regression suite ({'smoke' if args.smoke else 'full'}) ...")
        snapshot = run_suite(smoke=args.smoke)
        rows = GATES
    if args.out is not None:
        args.out.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")

    baseline = json.loads(args.compare.read_text()) if args.compare else None
    failures = evaluate(snapshot, rows, baseline)
    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)
    if failures:
        return 1
    against = f" and equal to {args.compare}" if baseline is not None else ""
    print(f"OK: every gate holds on {len(snapshot['stages'])} records{against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
