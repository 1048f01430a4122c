#!/usr/bin/env python
"""Benchmark regression harness: pinned baselines, ``--compare`` gate.

Runs a fixed set of micro and stage benchmarks on pinned generator
graphs (the paper-analog inputs are deterministic — same seed, same
graph, same traversal counts on every machine) and emits a
``BENCH_<date>.json`` snapshot:

* per-stage wall time (best of ``--repeats``, after a warmup),
* deterministic work counters — edges examined, BFS count, sweep
  count, lane occupancy — which are *exactly* reproducible,
* environment info for provenance.

``--compare OLD.json`` flags regressions against a committed baseline.
Deterministic counters are compared strictly (an increase beyond
``TOLERANCE`` fails the run — the work an algorithm does should never
quietly grow); wall times are noisy across machines and CI runners, so
they only warn unless ``--strict-time`` is given.

Usage::

    python benchmarks/regression.py --out BENCH_2026-08-07.json
    python benchmarks/regression.py --smoke --compare BENCH_2026-08-07.json
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro._version import __version__  # noqa: E402
from repro.baselines.sumsweep import sumsweep_diameter  # noqa: E402
from repro.cache import WarmStartStore, fdiam_cached  # noqa: E402
from repro.core.config import FDiamConfig  # noqa: E402
from repro.core.extremes import eccentricity_spectrum  # noqa: E402
from repro.core.fdiam import fdiam  # noqa: E402
from repro.bfs.kernel import TraversalKernel  # noqa: E402
from repro.graph.io import save_npz  # noqa: E402
from repro.harness.workloads import get_workload  # noqa: E402
from repro.parallel.costmodel import LevelSynchronousCostModel  # noqa: E402
from repro.parallel.scaling import ScalingStudy  # noqa: E402
from repro.prep.reorder import ORDER_STRATEGIES, apply_order  # noqa: E402
from repro.query import QueryEngine  # noqa: E402
from repro.store import load_scsr, save_scsr  # noqa: E402

SCHEMA_VERSION = 1

#: Fractional increase in a deterministic counter (or, with
#: ``--strict-time``, a wall time) that counts as a regression.
TOLERANCE = 0.20

#: One small-diameter power-law analog and one high-diameter road
#: analog — the two topology regimes the paper contrasts throughout §6.
FULL_GRAPHS = ("internet", "USA-road-d.NY")
SMOKE_GRAPHS = ("internet",)

#: Counter keys compared strictly; everything else numeric is wall-ish.
STRICT_KEYS = ("edges_examined", "bfs_count", "sweeps")


def _timed(fn, repeats: int):
    """Best (minimum) wall seconds of ``repeats`` calls, plus the last result.

    One untimed warmup call runs first so lazy imports, pooled-buffer
    allocation, and page faults don't land in any sample; the minimum is
    then the least-contaminated estimate of the stage's intrinsic cost
    (the ``timeit`` rationale) — medians of sequentially-run stages
    drift with CPU frequency, penalizing whichever stage runs later
    even when the work is instruction-identical.
    """
    fn()
    samples = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - t0)
    return min(samples), result


def _stage_bfs_hybrid(graph, repeats):
    kernel = TraversalKernel(graph)
    source = graph.max_degree_vertex()
    wall, res = _timed(
        lambda: kernel.bfs(source, record_trace=True), repeats
    )
    return {
        "wall_s": wall,
        "bfs_count": 1,
        "edges_examined": res.trace.total_edges_examined,
        "eccentricity": res.eccentricity,
    }


def _stage_fdiam(graph, repeats):
    wall, res = _timed(lambda: fdiam(graph), repeats)
    return {
        "wall_s": wall,
        "bfs_count": res.stats.bfs_traversals,
        "edges_examined": res.stats.edges_examined,
        "diameter": res.diameter,
    }


def _stage_fdiam_prep(graph, repeats):
    config = FDiamConfig(prep="auto")
    wall, res = _timed(lambda: fdiam(graph, config), repeats)
    prep = res.stats.prep
    return {
        "wall_s": wall,
        "bfs_count": res.stats.bfs_traversals,
        "edges_examined": res.stats.edges_examined,
        "diameter": res.diameter,
        "prep_vertices_removed": prep.vertices_removed if prep else 0,
        "prep_edges_removed": prep.edges_removed if prep else 0,
        "prep_components_skipped": prep.components_skipped if prep else 0,
        "prep_tip_batch_components": prep.tip_batch_components if prep else 0,
        "prep_edge_span_before": prep.edge_span_before if prep else 0,
        "prep_edge_span_after": prep.edge_span_after if prep else 0,
    }


def _stage_spectrum(graph, repeats, lanes):
    wall, spec = _timed(
        lambda: eccentricity_spectrum(graph, batch_lanes=lanes), repeats
    )
    return {
        "wall_s": wall,
        "bfs_count": spec.bfs_traversals,
        "sweeps": spec.sweeps,
        "edges_examined": spec.edges_examined,
        "lane_occupancy": round(spec.lane_occupancy, 4),
        "diameter": spec.diameter,
    }


def _stage_fdiam_warm(graph, repeats):
    """Cold run writes the sidecar, then the *warm* run is what's timed.

    The cold traversal counters ride along so the snapshot itself
    documents the warm-start payoff (``bfs_ratio_vs_cold``).
    """
    with tempfile.TemporaryDirectory() as tmp:
        store = WarmStartStore(Path(tmp))
        cold, _ = fdiam_cached(graph, FDiamConfig(prep="auto"), store=store)
        wall, (res, info) = _timed(
            lambda: fdiam_cached(graph, FDiamConfig(prep="auto"), store=store),
            repeats,
        )
    return {
        "wall_s": wall,
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


def _stage_query_batch(graph, repeats):
    """256 mixed dist/ecc/diam queries from a 48-source pool.

    The untimed warmup pays the one cold ``diam`` resolution into the
    temporary store; the timed runs then measure the steady state the
    engine exists for — sidecar-preloaded diameter, all fresh sources
    packed into 64-lane sweep chunks.
    """
    rng = np.random.default_rng(42)
    pool = rng.integers(0, graph.num_vertices, size=48)
    queries = ["diam"]
    for _ in range(255):
        u, v = (int(x) for x in rng.choice(pool, size=2))
        queries.append(f"dist {u} {v}" if rng.random() < 0.6 else f"ecc {u}")

    with tempfile.TemporaryDirectory() as tmp:
        store = WarmStartStore(Path(tmp))

        def run():
            engine = QueryEngine(store=store, batch_lanes=256)
            return engine.run(engine.add_graph(graph), queries)

        wall, (_, stats) = _timed(run, repeats)
    return {
        "wall_s": wall,
        "queries": stats.queries,
        "scalar_traversals": stats.scalar_traversals,
        "sweeps": stats.sweeps,
        "bfs_sources": stats.bfs_sources,
        "edges_examined": stats.edges_examined,
        "gather_pass_ratio": round(stats.gather_pass_ratio, 2),
        "lane_occupancy": round(stats.lane_occupancy, 4),
    }


def _stage_query_service_load(graph, repeats):
    """Coalescing query service under 64 concurrent clients.

    Boots an in-process :class:`repro.service.QueryService`, replays a
    200-request zipf-skewed trace through 64 keep-alive HTTP clients,
    and audits every served answer against a cold serial engine (the
    run fails outright on a mismatch). The counters here are
    timing-dependent — how arrivals land in batching windows varies
    per run — so the record deliberately uses ``service_``-prefixed
    key names that stay out of the strict ``--compare`` gate
    (:data:`STRICT_KEYS`); the hard assertions live in
    ``--service-check``.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from load_service import run_load

    record = None
    for _ in range(repeats):
        record = run_load(
            {graph.name or "primary": graph},
            n_requests=200,
            concurrency=64,
            verify=True,
        )
        if record["mismatches"]:
            raise RuntimeError(
                f"{record['mismatches']} served answers diverged from "
                "the serial oracle"
            )
    return record


def _stage_scaling_curve(graph, repeats):
    """Measured workers × wall_s curve of the shared-memory sweep backend.

    A fixed 64-source hub battery is timed at 1, 2, and 4 workers
    through :meth:`ScalingStudy.measure_sweep` (worker count 1 is the
    in-process bitparallel backend, higher counts the multiprocess
    backend over shared CSR segments). The eccentricity checksum is
    identical across worker counts by construction — measure_sweep
    raises otherwise — and is compared exactly against the baseline.
    Wall times sit next to the modeled Figure-7 curve; on a single-core
    runner the measured speedups are flat-to-negative, which is the
    honest reading the stage exists to record.
    """
    study = ScalingStudy()
    points = study.measure_sweep(graph, workers=(1, 2, 4), num_sources=64)
    out = {
        "sources": points[0].sources,
        "ecc_checksum": points[0].ecc_checksum,
    }
    for p in points:
        out[f"workers_{p.workers}_wall_s"] = round(p.wall_s, 6)
        out[f"workers_{p.workers}_backend"] = p.backend
        if p.workers > 1:
            out[f"speedup_{p.workers}"] = round(p.speedup, 3)
    return out


def _stage_store_compress(graph, repeats):
    """Encode wall time and bytes/edge of the ``.scsr`` store.

    Saves the graph both in input order and after a BFS locality
    reorder (compression is a property of graph × order) next to an
    uncompressed ``.npz`` of the same arrays, so the snapshot carries
    the before/after bytes-per-edge and the headline size ratio. The
    timed portion is the in-order encode; sizes are deterministic.
    """
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        npz = root / "g.npz"
        save_npz(graph, npz, compressed=False)
        npz_bytes = npz.stat().st_size
        wall, info_raw = _timed(
            lambda: save_scsr(graph, root / "raw.scsr"), repeats
        )
        ordered = apply_order(
            graph, ORDER_STRATEGIES["bfs"](graph), name=graph.name
        ).graph
        info_bfs = save_scsr(
            ordered, root / "bfs.scsr", provenance="reorder=bfs"
        )
    return {
        "wall_s": wall,
        "npz_bytes": npz_bytes,
        "scsr_bytes": info_raw.nbytes,
        "scsr_bytes_reordered": info_bfs.nbytes,
        "bytes_per_edge": round(info_raw.bytes_per_edge, 3),
        "bytes_per_edge_reordered": round(info_bfs.bytes_per_edge, 3),
        "ratio_vs_npz": round(npz_bytes / info_raw.nbytes, 3),
        "ratio_vs_npz_reordered": round(npz_bytes / info_bfs.nbytes, 3),
    }


def _stage_fdiam_scsr(graph, repeats):
    """fdiam plus a 256-query batch answered straight off the store.

    Each timed run re-opens the ``.scsr`` image (mmap), so the measured
    wall includes the full decode the solver pays when working from
    disk; ``run_suite`` pairs it against the in-memory ``fdiam`` +
    ``query_batch`` stages as ``wall_ratio_vs_memory`` (the ISSUE's
    ≤ 2× acceptance bar).
    """
    rng = np.random.default_rng(42)
    pool = rng.integers(0, graph.num_vertices, size=48)
    queries = ["diam"]
    for _ in range(255):
        u, v = (int(x) for x in rng.choice(pool, size=2))
        queries.append(f"dist {u} {v}" if rng.random() < 0.6 else f"ecc {u}")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.scsr"
        save_scsr(graph, path)

        def run():
            loaded = load_scsr(path, mmap=True)
            try:
                res = fdiam(loaded)
                engine = QueryEngine(batch_lanes=256)
                _answers, stats = engine.run(
                    engine.add_graph(loaded), queries
                )
            finally:
                loaded.backing_store.close()
            return res, stats

        wall, (res, stats) = _timed(run, repeats)
    return {
        "wall_s": wall,
        "bfs_count": res.stats.bfs_traversals,
        "edges_examined": res.stats.edges_examined + stats.edges_examined,
        "diameter": res.diameter,
        "queries": stats.queries,
    }


def _stage_sumsweep(graph, repeats):
    wall, res = _timed(lambda: sumsweep_diameter(graph), repeats)
    return {
        "wall_s": wall,
        "bfs_count": res.bfs_traversals,
        "diameter": res.diameter,
    }


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


def _run_churn(graph, batches):
    """Insert-only churn: incremental repair vs per-batch cold recompute.

    Returns the accumulated counters plus a correctness flag — every
    repaired diameter is compared against a cold ``fdiam`` of the same
    epoch's view, so the bench doubles as an end-to-end check.
    """
    from repro.dynamic import DynamicDiameter, DynamicGraph

    dgraph = DynamicGraph(graph)
    maintainer = DynamicDiameter(dgraph)
    maintainer.refresh()  # cold initial state, outside the comparison
    repair_bfs = recompute_bfs = 0
    strategies = {"repair": 0, "recompute": 0}
    mismatches = 0
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
        "repair_bfs": repair_bfs,
        "recompute_bfs": recompute_bfs,
        "bfs_ratio_vs_recompute": round(recompute_bfs / max(repair_bfs, 1), 3),
        "repairs": strategies.get("repair", 0),
        "recomputes": strategies.get("recompute", 0),
        "mismatches": mismatches,
        "diameter": maintainer.diameter,
    }


def _stage_dynamic_churn(graph, repeats):
    """Repair cost under insert-only edge churn (see ISSUE 10).

    Eight deterministic 4-edge insert-only batches; ``repair_bfs`` is
    what the maintainer actually spent, ``recompute_bfs`` what a cold
    run after every batch would have spent. The headline ratio must
    stay > 1 on the small-diameter analog (gated by ``--churn-check``).
    """
    batches = _churn_batches(graph)
    wall, record = _timed(lambda: _run_churn(graph, batches), repeats)
    record["wall_s"] = wall
    record["bfs_count"] = record["repair_bfs"]  # strict-gated counter
    return record


def _peak_rss_mb() -> float | None:
    """Process high-water RSS in MB (``ru_maxrss`` is KiB on Linux)."""
    if resource is None:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        peak //= 1024
    return round(peak / 1024, 1)


#: The 10^7-edge out-of-core tier: pinned chunk size for the streaming
#: encoder and pinned budget points for the budgeted-execution battery.
SCALE_GRAPHS = ("road-10M", "powerlaw-10M")
SCALE_CHUNK_EDGES = 1 << 20
SCALE_BATTERY_SOURCES = 3


def _scale_store_stream_encode(graph):
    """One-shot vs streaming encode of a 10^7-edge analog.

    Both paths must produce byte-identical images (the format pins the
    block-aligned layout), and the streaming encoder's peak scratch
    must stay under 2x the chunk's share of the one-shot peak plus the
    offset-index overhead — the tentpole's O(chunk) bound, asserted
    here so a scratch regression fails the suite rather than quietly
    re-materializing the graph. Walls are single-shot (no warmup): at
    this scale the encode cost dwarfs warmup noise.
    """
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        t0 = time.perf_counter()
        one = save_scsr(graph, root / "one.scsr")
        wall_oneshot = time.perf_counter() - t0
        t0 = time.perf_counter()
        stream = save_scsr(
            graph, root / "stream.scsr", chunk_edges=SCALE_CHUNK_EDGES
        )
        wall_stream = time.perf_counter() - t0
        identical = (root / "one.scsr").read_bytes() == (
            root / "stream.scsr"
        ).read_bytes()
    if not identical:
        raise AssertionError(
            f"{graph.name}: streaming encode is not byte-identical to "
            "the one-shot encode"
        )
    per_arc = one.encoder_peak_bytes / max(one.num_directed_edges, 1)
    peak_bound = int(2 * per_arc * SCALE_CHUNK_EDGES) + 4 * 8 * (
        one.num_blocks + 1
    )
    if stream.encoder_peak_bytes >= peak_bound:
        raise AssertionError(
            f"{graph.name}: streaming encoder peak "
            f"{stream.encoder_peak_bytes:,} B breaches the O(chunk) "
            f"bound {peak_bound:,} B"
        )
    return {
        "wall_s": wall_stream,
        "wall_s_oneshot": wall_oneshot,
        "chunk_edges": SCALE_CHUNK_EDGES,
        "scsr_bytes": stream.nbytes,
        "bytes_per_edge": round(stream.bytes_per_edge, 3),
        "encoder_peak_bytes": stream.encoder_peak_bytes,
        "encoder_peak_bytes_oneshot": one.encoder_peak_bytes,
        "encoder_peak_bound_bytes": peak_bound,
        "encoder_peak_ratio_vs_oneshot": round(
            stream.encoder_peak_bytes / max(one.encoder_peak_bytes, 1), 4
        ),
        "byte_identical": True,
    }


def _scale_fdiam_budgeted(graph):
    """Memory-budgeted traversal battery on a 10^7-edge analog.

    A full budget-mode ``fdiam`` at this scale is wall-prohibitive
    (hundreds of budgeted sweeps), so the stage measures what the
    budget actually changes — the kernel's gather path — with a pinned
    eccentricity battery (the unit fdiam repeats ~100x): the same
    sources run in-memory and then against the mapped store at three
    budget points spanning the routing regimes. Every run must report
    bit-identical eccentricities; at the extreme budgets the forced
    alternative mode is also timed and the cost model's choice must be
    the fastest measured (15% headroom absorbs timer noise).
    """
    sources = [
        (k * graph.num_vertices) // SCALE_BATTERY_SOURCES
        for k in range(SCALE_BATTERY_SOURCES)
    ]

    def battery(kernel):
        t0 = time.perf_counter()
        eccs = [kernel.bfs(s).eccentricity for s in sources]
        return time.perf_counter() - t0, eccs

    wall_memory, eccs_memory = battery(TraversalKernel(graph))
    out = {
        "battery_sources": sources,
        "eccentricity": max(eccs_memory),
        "wall_memory_s": wall_memory,
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.scsr"
        save_scsr(graph, path, chunk_edges=SCALE_CHUNK_EDGES)
        probe = load_scsr(path, mmap=True)
        decoded = probe.indptr.nbytes + probe.indices.nbytes
        probe.backing_store.close()
        out["decoded_bytes"] = decoded
        out["decoded_bytes_per_edge"] = round(
            decoded / max(graph.num_edges, 1), 3
        )
        points = (
            ("ample", 4 * decoded),
            ("quarter", decoded // 4),
            ("floor", 1 << 16),
        )
        model = LevelSynchronousCostModel()
        for label, budget in points:
            mode, reason = model.choose_memory_mode(
                decoded_bytes=decoded, budget_bytes=budget
            )
            # Fresh mapping per point: no cache or counter carry-over.
            loaded = load_scsr(path, mmap=True)
            try:
                kernel = TraversalKernel(loaded, memory_budget=budget)
                if kernel.memory_mode != mode:
                    raise AssertionError(
                        f"{graph.name}: kernel resolved "
                        f"{kernel.memory_mode!r} at budget {budget:,} B, "
                        f"cost model chose {mode!r}"
                    )
                wall, eccs = battery(kernel)
                stats = loaded.backing_store.stats
                out[f"budget_{label}_bytes"] = budget
                out[f"budget_{label}_mode"] = mode
                out[f"budget_{label}_mode_reason"] = reason
                out[f"budget_{label}_wall_s"] = wall
                out[f"budget_{label}_wall_ratio_vs_memory"] = round(
                    wall / max(wall_memory, 1e-9), 3
                )
                out[f"budget_{label}_thrash_rate"] = round(
                    stats.thrash_rate, 4
                )
                out[f"budget_{label}_decode_mb_s"] = round(
                    stats.decode_bandwidth / 2**20, 1
                )
                if eccs != eccs_memory:
                    raise AssertionError(
                        f"{graph.name}: budget {budget:,} B ({mode}) "
                        f"eccentricities {eccs} != in-memory {eccs_memory}"
                    )
                # Extreme budgets: force the block mode the model did
                # NOT choose, so its pick is checked against a measured
                # alternative (decode's superiority needs no contest).
                if label in ("ample", "floor"):
                    alt = "stream" if mode == "cached" else "cached"
                    forced = load_scsr(path, mmap=True)
                    try:
                        fkernel = TraversalKernel(
                            forced,
                            memory_budget=budget,
                            memory_mode=alt,
                        )
                        fwall, feccs = battery(fkernel)
                    finally:
                        forced.backing_store.close()
                    if feccs != eccs_memory:
                        raise AssertionError(
                            f"{graph.name}: forced {alt} at budget "
                            f"{budget:,} B diverged: {feccs}"
                        )
                    out[f"budget_{label}_forced_{alt}_wall_s"] = fwall
                    if wall > fwall * 1.15:
                        raise AssertionError(
                            f"{graph.name}: cost model chose {mode!r} at "
                            f"budget {budget:,} B but forced {alt} ran "
                            f"{fwall:.2f}s vs {wall:.2f}s"
                        )
            finally:
                loaded.backing_store.close()
    out["wall_s"] = out["budget_quarter_wall_s"]
    return out


STAGES = {
    "bfs_hybrid": (_stage_bfs_hybrid, True),
    "fdiam": (_stage_fdiam, True),
    "fdiam_prep": (_stage_fdiam_prep, True),
    "fdiam_warm": (_stage_fdiam_warm, True),
    "query_batch": (_stage_query_batch, True),
    "query_service_load": (_stage_query_service_load, True),
    "spectrum_scalar": (lambda g, r: _stage_spectrum(g, r, 0), False),
    "spectrum_lanes64": (lambda g, r: _stage_spectrum(g, r, 64), True),
    "sumsweep_scalar": (_stage_sumsweep, False),
    "scaling_curve": (_stage_scaling_curve, True),
    "store_compress": (_stage_store_compress, True),
    "fdiam_scsr": (_stage_fdiam_scsr, True),
    "dynamic_churn": (_stage_dynamic_churn, True),
}


def run_suite(
    *, smoke: bool = False, repeats: int = 1, graphs=None, date: str | None = None
) -> dict:
    """Run all stages on the pinned graphs; return the snapshot dict."""
    names = graphs if graphs is not None else (SMOKE_GRAPHS if smoke else FULL_GRAPHS)
    snapshot = {
        "schema_version": SCHEMA_VERSION,
        "date": date or _dt.date.today().isoformat(),
        "smoke": smoke,
        "repeats": repeats,
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
    for name in names:
        workload = get_workload(name)
        graph = workload.graph
        snapshot["graphs"][name] = {
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
        }
        for stage, (fn, in_smoke) in STAGES.items():
            if smoke and not in_smoke:
                continue
            key = f"{name}/{stage}"
            print(f"  running {key} ...", flush=True)
            record = fn(graph, repeats)
            record["peak_rss_mb"] = _peak_rss_mb()
            snapshot["stages"][key] = record
        plain = snapshot["stages"].get(f"{name}/fdiam")
        prep = snapshot["stages"].get(f"{name}/fdiam_prep")
        if plain and prep:
            # The prep pipeline's headline: how much traversal work the
            # reductions + planner shave off the plain run (> 1 = win).
            prep["bfs_ratio_vs_plain"] = round(
                plain["bfs_count"] / max(prep["bfs_count"], 1), 3
            )
            prep["edge_ratio_vs_plain"] = round(
                plain["edges_examined"] / max(prep["edges_examined"], 1), 3
            )
        mem_fd = snapshot["stages"].get(f"{name}/fdiam")
        mem_q = snapshot["stages"].get(f"{name}/query_batch")
        scsr = snapshot["stages"].get(f"{name}/fdiam_scsr")
        if scsr and mem_fd and mem_q:
            # The store's acceptance headline: working straight off the
            # compressed image must stay within 2x of in-memory.
            scsr["wall_ratio_vs_memory"] = round(
                scsr["wall_s"]
                / max(mem_fd["wall_s"] + mem_q["wall_s"], 1e-9),
                3,
            )
        scalar = snapshot["stages"].get(f"{name}/spectrum_scalar")
        lanes = snapshot["stages"].get(f"{name}/spectrum_lanes64")
        if scalar and lanes:
            # The headline number: how many fewer edge-gather passes
            # (level-synchronous sweeps) the lane batching needs.
            lanes["gather_pass_ratio_vs_scalar"] = round(
                scalar["sweeps"] / max(lanes["sweeps"], 1), 2
            )
            lanes["edge_ratio_vs_scalar"] = round(
                scalar["edges_examined"] / max(lanes["edges_examined"], 1), 3
            )
    if not smoke and graphs is None:
        # The 10^7-edge out-of-core tier: streaming-encode both scale
        # analogs, then the budgeted-execution battery on the
        # small-diameter one (road's ~1300-level sweeps would measure
        # Python level overhead, not the memory modes).  Skipped when an
        # explicit graph list is given — that means "just these graphs".
        for name in SCALE_GRAPHS:
            workload = get_workload(name)
            graph = workload.graph
            snapshot["graphs"][name] = {
                "vertices": graph.num_vertices,
                "edges": graph.num_edges,
            }
            key = f"{name}/store_stream_encode"
            print(f"  running {key} ...", flush=True)
            record = _scale_store_stream_encode(graph)
            record["peak_rss_mb"] = _peak_rss_mb()
            snapshot["stages"][key] = record
            if name == "powerlaw-10M":
                key = f"{name}/fdiam_budgeted"
                print(f"  running {key} ...", flush=True)
                record = _scale_fdiam_budgeted(graph)
                record["peak_rss_mb"] = _peak_rss_mb()
                snapshot["stages"][key] = record
    return snapshot


def compare(baseline: dict, current: dict, *, strict_time: bool = False):
    """Diff two snapshots. Returns (regressions, warnings) message lists.

    Only stages present in *both* snapshots are compared, so a smoke run
    can be gated against a full baseline. Deterministic counters
    (:data:`STRICT_KEYS`) regress when they grow by more than
    ``TOLERANCE``; exact-result keys (``diameter``, ``eccentricity``)
    regress on *any* change; wall times warn unless ``strict_time``.
    """
    regressions: list[str] = []
    warnings: list[str] = []
    for key, cur in current.get("stages", {}).items():
        base = baseline.get("stages", {}).get(key)
        if base is None:
            continue
        for field in ("diameter", "eccentricity", "ecc_checksum"):
            if field in base and field in cur and base[field] != cur[field]:
                regressions.append(
                    f"{key}: {field} changed {base[field]} -> {cur[field]} "
                    f"(exact result must not change)"
                )
        for field in STRICT_KEYS:
            if field not in base or field not in cur:
                continue
            old, new = base[field], cur[field]
            if old > 0 and new > old * (1 + TOLERANCE):
                regressions.append(
                    f"{key}: {field} rose {old:,} -> {new:,} "
                    f"(+{100 * (new - old) / old:.1f}%, limit {100 * TOLERANCE:.0f}%)"
                )
        if "wall_s" in base and "wall_s" in cur:
            old, new = base["wall_s"], cur["wall_s"]
            if old > 0 and new > old * (1 + TOLERANCE):
                msg = (
                    f"{key}: wall time rose {old:.3f}s -> {new:.3f}s "
                    f"(+{100 * (new - old) / old:.1f}%)"
                )
                (regressions if strict_time else warnings).append(msg)
    return regressions, warnings


def warm_check(graphs=SMOKE_GRAPHS) -> int:
    """CI gate for the warm-start cache (``--warm-check``).

    Runs ``fdiam`` cold-then-warm through a throwaway store on each
    graph and fails unless the warm run verifies, returns the identical
    diameter, and spends at least 40% fewer traversals (the ISSUE's
    acceptance bar; the verified path lands at exactly one).
    """
    failures = 0
    for name in graphs:
        graph = get_workload(name).graph
        with tempfile.TemporaryDirectory() as tmp:
            store = WarmStartStore(Path(tmp))
            cold, _ = fdiam_cached(graph, FDiamConfig(prep="auto"), store=store)
            warm, info = fdiam_cached(graph, FDiamConfig(prep="auto"), store=store)
        line = (
            f"{name}: cold {cold.stats.bfs_traversals} BFS -> "
            f"warm {warm.stats.bfs_traversals} BFS, "
            f"diameter {cold.diameter} -> {warm.diameter}, "
            f"verified={info.verified}"
        )
        ok = (
            info.verified
            and warm.diameter == cold.diameter
            and warm.stats.bfs_traversals <= 0.6 * cold.stats.bfs_traversals
        )
        if ok:
            print(f"warm-check OK: {line}")
        else:
            print(f"WARM-CHECK FAIL: {line}", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


def scaling_check(graphs=SMOKE_GRAPHS) -> int:
    """CI gate for the multiprocess sweep backend (``--scaling-check``).

    Runs the measured workers × wall_s battery on each graph and fails
    unless every worker count produced the identical eccentricity
    checksum (measure_sweep raises on divergence) and the multi-worker
    points actually ran on the shared-memory multiprocess backend.
    Wall-clock speedup is deliberately *not* gated — on the single-core
    CI runner the curve is flat by physics, and pretending otherwise
    would gate on noise.
    """
    from repro.errors import AlgorithmError

    failures = 0
    for name in graphs:
        graph = get_workload(name).graph
        study = ScalingStudy()
        try:
            points = study.measure_sweep(graph, workers=(1, 2, 4))
        except AlgorithmError as exc:
            print(f"SCALING-CHECK FAIL: {name}: {exc}", file=sys.stderr)
            failures += 1
            continue
        curve = ", ".join(
            f"{p.workers}w {p.wall_s * 1e3:.1f}ms ({p.backend}, "
            f"{p.speedup:.2f}x)"
            for p in points
        )
        line = f"{name}: checksum {points[0].ecc_checksum}, {curve}"
        wrong = [p for p in points if p.workers > 1 and p.backend != "multiprocess"]
        if wrong:
            print(
                f"SCALING-CHECK FAIL: {line} — worker counts "
                f"{[p.workers for p in wrong]} fell back off the "
                "multiprocess backend",
                file=sys.stderr,
            )
            failures += 1
        else:
            print(f"scaling-check OK: {line}")
    return 1 if failures else 0


def bytes_per_edge_check(
    graph_name: str = "road-1M", min_ratio: float = 3.0
) -> int:
    """CI gate for the compressed store (``--bytes-per-edge-check``).

    Builds the million-vertex road analog, applies the BFS locality
    reorder (the ``--prep`` pipeline's pick for road topologies), and
    fails unless the ``.scsr`` image is at least ``min_ratio``× smaller
    than an uncompressed ``.npz`` of the same reordered arrays — the
    ISSUE's acceptance bar for the format. Both encodings are fully
    deterministic, so this gate never flakes.
    """
    graph = get_workload(graph_name).graph
    ordered = apply_order(
        graph, ORDER_STRATEGIES["bfs"](graph), name=graph.name
    ).graph
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        npz = root / "g.npz"
        save_npz(ordered, npz, compressed=False)
        npz_bytes = npz.stat().st_size
        info = save_scsr(ordered, root / "g.scsr", provenance="reorder=bfs")
    ratio = npz_bytes / info.nbytes
    line = (
        f"{graph_name}: scsr {info.nbytes:,} B vs uncompressed npz "
        f"{npz_bytes:,} B ({ratio:.2f}x smaller, "
        f"{info.bytes_per_edge:.2f} B/edge after bfs reorder)"
    )
    if ratio >= min_ratio:
        print(f"bytes-per-edge-check OK: {line}")
        return 0
    print(
        f"BYTES-PER-EDGE-CHECK FAIL: {line} — need >= {min_ratio}x",
        file=sys.stderr,
    )
    return 1


def out_of_core_check(graph_name: str = "road-1M") -> int:
    """CI gate for budgeted execution (``--out-of-core-check``).

    Solves the million-vertex road analog in memory, BFS-reorders it
    (the locality pass every out-of-core pipeline runs before writing
    a block store), saves the ``.scsr`` image with the streaming
    encoder, and re-solves against the mapped image with the block
    cache capped to 1/8 of the image — far below the decoded size, so
    the kernel runs in a budget mode end to end. The gate fails unless
    the budgeted run lands in a budget mode, its diameter matches the
    in-memory answer exactly, and the cache never grew past its cap.
    """
    graph = get_workload(graph_name).graph
    mem = fdiam(graph, FDiamConfig(prep="auto"))
    ordered = apply_order(
        graph, ORDER_STRATEGIES["bfs"](graph), name=graph.name
    ).graph
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.scsr"
        info = save_scsr(
            ordered, path, chunk_edges=SCALE_CHUNK_EDGES,
            provenance="reorder=bfs",
        )
        budget = info.nbytes // 8
        loaded = load_scsr(path, mmap=True)
        try:
            t0 = time.perf_counter()
            res = fdiam(
                loaded, FDiamConfig(prep="auto", memory_budget=budget)
            )
            wall = time.perf_counter() - t0
            store = loaded.backing_store
            mode, _ = LevelSynchronousCostModel().choose_memory_mode(
                decoded_bytes=loaded.indptr.nbytes + loaded.indices.nbytes,
                budget_bytes=budget,
            )
            resident = store.cache_resident_bytes
            stats = store.stats
            line = (
                f"{graph_name}: budget {budget:,} B (1/8 of "
                f"{info.nbytes:,} B image), mode {mode}, diameter "
                f"{res.diameter} vs in-memory {mem.diameter}, "
                f"{wall:.1f}s, hit rate {stats.hit_rate:.2f}, thrash "
                f"{stats.thrash_rate:.2f}, resident {resident:,} B"
            )
        finally:
            loaded.backing_store.close()
    ok = (
        mode in ("cached", "stream")
        and res.diameter == mem.diameter
        # The decode path may overshoot by the one just-inserted entry
        # (a block bigger than the whole budget must stay servable).
        and resident <= 2 * budget
    )
    if ok:
        print(f"out-of-core-check OK: {line}")
        return 0
    print(f"OUT-OF-CORE-CHECK FAIL: {line}", file=sys.stderr)
    return 1


def service_check(graphs=SMOKE_GRAPHS, *, requests: int = 200) -> int:
    """CI gate for the coalescing service (``--service-check``).

    Boots the service on each pinned analog, fires ``requests``
    queries from 64 concurrent clients, and fails unless every request
    was served, the coalescing batch scheduler replaced at least 4
    scalar gather passes per physical sweep (the ISSUE's acceptance
    bar), and every served answer matched the cold serial oracle
    bit-for-bit. Latency percentiles are printed for the record but
    not gated — CI wall clocks are noise.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from load_service import run_load

    failures = 0
    for name in graphs:
        graph = get_workload(name).graph
        record = run_load(
            {name: graph}, n_requests=requests, concurrency=64, verify=True
        )
        line = (
            f"{name}: {record['requests']} requests, "
            f"{record['qps']} qps, "
            f"coalescing {record['coalescing_ratio']}x, "
            f"gather-pass {record['gather_pass_ratio']}x, "
            f"p50 {record['p50_ms']} ms, p99 {record['p99_ms']} ms, "
            f"{record['mismatches']} mismatches"
        )
        ok = (
            record["mismatches"] == 0
            and record["gather_pass_ratio"] >= 4.0
            and record["coalescing_ratio"] >= 4.0
        )
        if ok:
            print(f"service-check OK: {line}")
        else:
            print(f"SERVICE-CHECK FAIL: {line}", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


def churn_check(graphs=SMOKE_GRAPHS) -> int:
    """CI gate for dynamic maintenance (``--churn-check``).

    Replays the pinned insert-only churn batches on each analog and
    fails unless every repaired diameter matched a cold recompute of
    the same epoch, and — on the small-diameter internet analog, where
    incremental repair is supposed to earn its keep — the maintainer
    spent strictly fewer BFS than recomputing after every batch.
    """
    failures = 0
    for name in graphs:
        graph = get_workload(name).graph
        record = _run_churn(graph, _churn_batches(graph))
        line = (
            f"{name}: {record['batches']} insert-only batches, "
            f"repair {record['repair_bfs']} BFS vs recompute "
            f"{record['recompute_bfs']} BFS "
            f"({record['bfs_ratio_vs_recompute']}x), "
            f"{record['repairs']} repairs / {record['recomputes']} "
            f"recomputes, {record['mismatches']} mismatches"
        )
        ok = record["mismatches"] == 0
        if name == "internet":
            ok = ok and record["repair_bfs"] < record["recompute_bfs"]
        if ok:
            print(f"churn-check OK: {line}")
        else:
            print(f"CHURN-CHECK FAIL: {line}", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick subset: one graph, lane stages only (CI gate)",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="output JSON path"
    )
    parser.add_argument(
        "--date",
        default=None,
        help="date stamp for the snapshot / default filename (YYYY-MM-DD)",
    )
    parser.add_argument(
        "--repeats", type=int, default=1, help="wall-time samples per stage (best-of, after one warmup)"
    )
    parser.add_argument(
        "--compare",
        type=Path,
        default=None,
        metavar="BASELINE.json",
        help="gate against a committed baseline snapshot",
    )
    parser.add_argument(
        "--strict-time",
        action="store_true",
        help="treat wall-time increases as failures, not warnings",
    )
    parser.add_argument(
        "--warm-check",
        action="store_true",
        help="cold-then-warm fdiam assertion only (no snapshot written)",
    )
    parser.add_argument(
        "--scaling-check",
        action="store_true",
        help="measured multiprocess scaling-curve assertion only "
        "(checksum identical across worker counts; no snapshot written)",
    )
    parser.add_argument(
        "--bytes-per-edge-check",
        action="store_true",
        help="compressed-store size assertion on the million-vertex "
        "road analog only (scsr >= 3x smaller than uncompressed npz "
        "after bfs reorder; no snapshot written)",
    )
    parser.add_argument(
        "--out-of-core-check",
        action="store_true",
        help="budgeted-execution assertion on the million-vertex road "
        "analog only (block cache capped to 1/8 of the image; budgeted "
        "diameter must match in-memory; no snapshot written)",
    )
    parser.add_argument(
        "--service-check",
        action="store_true",
        help="coalescing-service assertion only: 200 queries from 64 "
        "concurrent clients must coalesce >= 4x with zero mismatches "
        "against the serial oracle (no snapshot written)",
    )
    parser.add_argument(
        "--churn-check",
        action="store_true",
        help="dynamic-maintenance assertion only: insert-only churn "
        "repair must match a cold recompute at every epoch and beat "
        "it in BFS count on the internet analog (no snapshot written)",
    )
    args = parser.parse_args(argv)

    if args.churn_check:
        return churn_check(SMOKE_GRAPHS if args.smoke else FULL_GRAPHS)
    if args.service_check:
        return service_check(SMOKE_GRAPHS if args.smoke else FULL_GRAPHS)
    if args.warm_check:
        return warm_check(SMOKE_GRAPHS if args.smoke else FULL_GRAPHS)
    if args.scaling_check:
        return scaling_check(SMOKE_GRAPHS if args.smoke else FULL_GRAPHS)
    if args.bytes_per_edge_check:
        return bytes_per_edge_check()
    if args.out_of_core_check:
        return out_of_core_check()

    date = args.date or _dt.date.today().isoformat()
    print(f"benchmark regression suite ({'smoke' if args.smoke else 'full'}) ...")
    snapshot = run_suite(smoke=args.smoke, repeats=args.repeats, date=date)

    out = args.out or Path(f"BENCH_{date}.json")
    out.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")

    if args.compare is not None:
        baseline = json.loads(args.compare.read_text())
        regressions, warnings = compare(
            baseline, snapshot, strict_time=args.strict_time
        )
        for msg in warnings:
            print(f"warning: {msg}")
        if regressions:
            for msg in regressions:
                print(f"REGRESSION: {msg}", file=sys.stderr)
            return 1
        compared = sum(
            1 for k in snapshot["stages"] if k in baseline.get("stages", {})
        )
        print(f"compare OK: {compared} stages within tolerance of {args.compare}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
