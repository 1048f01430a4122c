"""Command-line interface: ``python -m repro <graph-file>``.

A downstream-friendly front door mirroring how the paper's released
binary is used — point it at a graph file, get the exact diameter plus
the run statistics. Supports every format in :mod:`repro.graph.io`,
the serial/parallel engines, the ablation switches, the extended
radius/center/periphery analysis, the cross-run warm-start cache
(``--cache DIR``), and the batched multi-query engine
(``python -m repro query <graph-file> 'dist 0 5' 'ecc 3' diam``), the
differential fuzzer (``python -m repro fuzz --budget 60 --seed 0``),
and the storage converter
(``python -m repro convert graph.npz graph.scsr --reorder bfs``) for
the block-compressed ``.scsr`` store.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import get_args

from repro._version import __version__
from repro.bfs import Engine
from repro.core import FDiamConfig, eccentricity_spectrum, fdiam
from repro.errors import ReproError
from repro.graph import degree_summary, read_graph

__all__ = [
    "main",
    "build_parser",
    "build_convert_parser",
    "build_fuzz_parser",
    "build_query_parser",
    "build_serve_parser",
    "format_bytes",
]


def format_bytes(num_bytes: int) -> str:
    """Human-readable byte count (binary units, one decimal)."""
    size = float(num_bytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if size < 1024.0 or unit == "TiB":
            if unit == "B":
                return f"{int(size)} B"
            return f"{size:.1f} {unit}"
        size /= 1024.0
    raise AssertionError("unreachable")


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "F-Diam: fast exact diameter computation of sparse graphs "
            "(reproduction of Bradley et al., ICPP 2025)"
        ),
    )
    parser.add_argument(
        "graph",
        help="graph file (.el/.txt edge list, .gr DIMACS, .graph METIS, "
        ".npz, .scsr)",
    )
    parser.add_argument(
        "--engine",
        choices=get_args(Engine),
        default="parallel",
        help="BFS engine: vectorized hybrid (default) or scalar reference",
    )
    parser.add_argument(
        "--bfs-batch-lanes",
        type=int,
        default=0,
        metavar="K",
        help="run the --spectrum traversals as bit-parallel lane sweeps, "
        "up to K sources per shared-gather sweep (0 = scalar path; 64 "
        "fills one lane word)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="W",
        help="worker processes for batched source fan-outs (--spectrum): "
        "W >= 2 sweeps through the shared-memory multiprocess backend "
        "when the cost model predicts a payoff (default 1, in-process)",
    )
    parser.add_argument(
        "--no-winnow", action="store_true", help="disable the Winnow stage"
    )
    parser.add_argument(
        "--no-eliminate", action="store_true", help="disable the Eliminate stage"
    )
    parser.add_argument(
        "--no-chain", action="store_true", help="disable Chain Processing"
    )
    parser.add_argument(
        "--start-vertex-zero",
        action="store_true",
        help="start from vertex 0 instead of the max-degree vertex",
    )
    parser.add_argument(
        "--spectrum",
        action="store_true",
        help="also compute the exact radius, center, and periphery",
    )
    parser.add_argument(
        "--stats", action="store_true", help="print per-stage statistics"
    )
    parser.add_argument(
        "--workspace-stats",
        action="store_true",
        help="print traversal-workspace statistics (peak scratch bytes, "
        "buffer-reuse hit rate)",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="warm-start store directory: reuse a previous run's cached "
        "certificates on the byte-identical graph (one verifying BFS "
        "instead of the full pipeline) and write a sidecar after cold runs",
    )
    parser.add_argument(
        "--mmap",
        action="store_true",
        help="memory-map the graph file instead of reading it into memory: "
        ".npz maps the raw arrays (uncompressed archives only), .scsr "
        "decodes in full and keeps the compressed image mapped for "
        "sharing with worker processes",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    return parser


def build_convert_parser() -> argparse.ArgumentParser:
    """The ``python -m repro convert`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro convert",
        description=(
            "convert graphs between storage formats, including the "
            "block-compressed .scsr store (round-trips are bit-exact)"
        ),
    )
    parser.add_argument(
        "input",
        help="input graph (.el/.txt edge list, .gr DIMACS, .graph METIS, "
        ".npz, .scsr)",
    )
    parser.add_argument(
        "output",
        help="output file; format chosen by extension (.scsr or .npz)",
    )
    parser.add_argument(
        "--reorder",
        choices=("none", "degree", "bfs", "rcm"),
        default="none",
        help="relabel vertices with this locality order before writing "
        "(compression ratio is a property of graph x order; recorded in "
        "the .scsr header provenance). Default: keep the input order",
    )
    parser.add_argument(
        "--block-size",
        type=int,
        default=None,
        metavar="B",
        help="vertices per .scsr block (default 64); smaller blocks decode "
        "less per partial traversal, larger ones shrink the offset index",
    )
    parser.add_argument(
        "--uncompressed",
        action="store_true",
        help="write .npz output without zlib (required for --mmap loading)",
    )
    parser.add_argument(
        "--chunk-edges",
        type=int,
        default=None,
        metavar="E",
        help=".scsr streaming-encoder chunk cap: encode at most ~E arcs "
        "(and ~E vertices) of block-aligned sections at a time, bounding "
        "the encoder's transient memory at O(E) instead of O(edges); the "
        "output is byte-identical to the one-shot encode (default: "
        "one-shot)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print size accounting (bytes/edge, ratio vs the input file, "
        "and for .scsr the per-section byte breakdown)",
    )
    return parser


def convert_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``convert`` subcommand; returns the exit code."""
    import os

    args = build_convert_parser().parse_args(argv)
    from repro.graph.io import save_npz
    from repro.store import DEFAULT_BLOCK_SIZE, save_scsr

    out_ext = os.path.splitext(args.output)[1].lower()
    if out_ext not in (".scsr", ".npz"):
        print(
            f"error: unsupported output format {out_ext!r} "
            "(expected .scsr or .npz)",
            file=sys.stderr,
        )
        return 2
    if args.block_size is not None and args.block_size < 1:
        print("error: --block-size must be >= 1", file=sys.stderr)
        return 2
    if args.chunk_edges is not None and args.chunk_edges < 1:
        print("error: --chunk-edges must be >= 1", file=sys.stderr)
        return 2
    if args.chunk_edges is not None and out_ext != ".scsr":
        print("error: --chunk-edges only applies to .scsr output",
              file=sys.stderr)
        return 2
    try:
        graph = read_graph(args.input)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    provenance = f"reorder={args.reorder}"
    if args.reorder != "none":
        from repro.prep.reorder import ORDER_STRATEGIES, apply_order

        order = ORDER_STRATEGIES[args.reorder](graph)
        graph = apply_order(graph, order, name=graph.name).graph

    info = None
    try:
        if out_ext == ".scsr":
            info = save_scsr(
                graph,
                args.output,
                block_size=args.block_size or DEFAULT_BLOCK_SIZE,
                provenance=provenance,
                chunk_edges=args.chunk_edges,
            )
            out_bytes = info.nbytes
        else:
            save_npz(graph, args.output, compressed=not args.uncompressed)
            out_bytes = os.path.getsize(args.output)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"wrote {args.output} ({format_bytes(out_bytes)})")
    if args.stats:
        in_bytes = os.path.getsize(args.input)
        print(f"input          : {format_bytes(in_bytes)} ({args.input})")
        print(f"vertices       : {graph.num_vertices:,}")
        print(f"edges          : {graph.num_edges:,}")
        print(f"reorder        : {args.reorder}")
        print(f"bytes/edge     : {out_bytes / max(graph.num_edges, 1):.2f}")
        print(f"bytes/arc      : "
              f"{out_bytes / max(graph.num_directed_edges, 1):.2f}")
        if in_bytes:
            print(f"size ratio     : {in_bytes / max(out_bytes, 1):.2f}x "
                  "(input / output)")
        if info is not None:
            sections = info.section_nbytes
            file_bytes = os.path.getsize(args.output)
            assert sum(sections.values()) == file_bytes, (
                f"section accounting {sections} does not sum to the "
                f"{file_bytes}-byte file"
            )
            print("sections       :")
            for section, nbytes in sections.items():
                share = nbytes / max(file_bytes, 1)
                print(f"  {section:<16s}: {format_bytes(nbytes)} "
                      f"({share:6.2%})")
            if info.chunk_edges is not None:
                print(f"encoder chunk  : {info.chunk_edges:,} edges")
            print(f"encoder peak   : {format_bytes(info.encoder_peak_bytes)} "
                  "(accounted transient)")
    return 0


def build_query_parser() -> argparse.ArgumentParser:
    """The ``python -m repro query`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro query",
        description=(
            "batched graph queries: distances, eccentricities, and the "
            "diameter, packed into shared bit-parallel sweeps"
        ),
    )
    parser.add_argument(
        "graph",
        help="graph file (.el/.txt edge list, .gr DIMACS, .graph METIS, "
        ".npz, .scsr)",
    )
    parser.add_argument(
        "queries",
        nargs="*",
        help="queries: 'dist U V', 'ecc V', 'diam' (one per argument; "
        "read from stdin, one per line, when omitted)",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="warm-start store directory: preload memoized distance rows "
        "from the graph's sidecar, answer 'diam' warm, and persist the "
        "hottest rows back on exit",
    )
    parser.add_argument(
        "--batch-lanes",
        type=int,
        default=256,
        metavar="K",
        help="maximum sources per physical sweep chunk (default 256)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="W",
        help="worker processes for the sweep dispatch: W >= 2 runs fresh "
        "source batches through the shared-memory multiprocess backend "
        "when the cost model predicts a payoff (default 1, in-process)",
    )
    parser.add_argument(
        "--mmap",
        action="store_true",
        help="memory-map .npz graph files (uncompressed archives only)",
    )
    parser.add_argument(
        "--stats", action="store_true", help="print batch accounting"
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    """The ``python -m repro serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "always-on graph-query server: coalesces concurrent "
            "dist/ecc/diam queries into shared 64-lane sweeps "
            "(POST /query, GET /stats, GET /graphs, GET /healthz)"
        ),
    )
    parser.add_argument(
        "graphs",
        nargs="+",
        metavar="[KEY=]PATH",
        help="graph files to serve (.el/.txt, .gr, .graph, .npz, .scsr), "
        "optionally prefixed with the key clients query it under "
        "(default: the file stem); graphs open lazily on first query",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8080, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--batch-limit",
        type=int,
        default=256,
        metavar="K",
        help="dispatch a graph's pending queries at once when K pile "
        "up behind a running batch (default 256)",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        metavar="K",
        help="admission control: shed queries (429) beyond K pending "
        "across all graphs (default 1024)",
    )
    parser.add_argument(
        "--resident-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help="byte budget for resident graphs: least-recently-queried "
        "graphs are evicted (and reopened on demand) to stay under it "
        "(default: unbounded)",
    )
    parser.add_argument(
        "--memory-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help="no effect: serving always reads the decoded CSR arrays; "
        "removed once perfbench's serve-zipf stops passing it",
    )
    parser.add_argument(
        "--batch-lanes",
        type=int,
        default=256,
        metavar="K",
        help="maximum sources per physical sweep chunk (default 256)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="W",
        help="worker processes for each graph's sweep dispatch "
        "(default 1, in-process)",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="warm-start store directory: preload memos/diameters from "
        "sidecars and persist the hottest rows on shutdown",
    )
    parser.add_argument(
        "--no-mmap",
        action="store_true",
        help="read graphs fully into memory instead of memory-mapping "
        "binary containers",
    )
    parser.add_argument(
        "--mutable",
        action="store_true",
        help="serve every graph as a dynamic graph so clients can "
        "apply batched edge insertions/deletions via POST /mutate",
    )
    return parser


def serve_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``serve`` subcommand; returns the exit code."""
    import asyncio
    import os

    args = build_serve_parser().parse_args(argv)
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    # Call-time imports: the service stack is only paid for when serving.
    from repro.service import QueryService, SchedulerConfig

    try:
        config = SchedulerConfig(
            batch_limit=args.batch_limit,
            max_pending=args.max_pending,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    store = None
    if args.cache is not None:
        from repro.cache import WarmStartStore

        store = WarmStartStore(args.cache)
    service = QueryService(
        store=store,
        config=config,
        byte_budget=args.resident_budget,
        batch_lanes=args.batch_lanes,
        workers=args.workers,
    )
    for spec in args.graphs:
        key, sep, path = spec.partition("=")
        if not sep:
            key, path = None, spec
        if not os.path.exists(path):
            print(f"error: graph file {path!r} not found", file=sys.stderr)
            return 2
        key = key or os.path.splitext(os.path.basename(path))[0]
        service.add_graph(
            key, path=path, mmap=not args.no_mmap, dynamic=args.mutable
        )
        suffix = " (mutable)" if args.mutable else ""
        print(f"serving {key!r} <- {path}{suffix}")

    async def run() -> None:
        host, port = await service.start(args.host, args.port)
        print(
            f"listening on http://{host}:{port} "
            f"(batch limit {args.batch_limit}, "
            f"max pending {args.max_pending})",
            flush=True,
        )
        try:
            await service.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await service.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nshutting down")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def build_fuzz_parser() -> argparse.ArgumentParser:
    """The ``python -m repro fuzz`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description=(
            "differential fuzzing with the invariant oracle: sample seeded "
            "graphs, run the full config lattice plus baselines, cache, and "
            "query engine, and shrink any disagreement into a replayable "
            "artifact"
        ),
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="wall-clock budget for the campaign (default 60)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="campaign seed; trial seeds derive from it deterministically "
        "(default 0)",
    )
    parser.add_argument(
        "--max-vertices",
        type=int,
        default=64,
        metavar="N",
        help="upper bound on sampled graph size (default 64)",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=None,
        metavar="K",
        help="also stop after K trials (default: budget only)",
    )
    parser.add_argument(
        "--artifacts",
        metavar="DIR",
        default="fuzz-artifacts",
        help="directory for minimized .npz/.json failure artifacts "
        "(default fuzz-artifacts/)",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failures without ddmin minimization",
    )
    parser.add_argument(
        "--replay",
        metavar="NPZ",
        default=None,
        help="re-run the full battery on a saved failure artifact instead "
        "of fuzzing",
    )
    parser.add_argument(
        "--inject",
        metavar="FAULT",
        default=None,
        help="activate a deliberate fault for the campaign (oracle "
        "self-test); see repro.verify.faults",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="W",
        help="worker processes for the campaign: W >= 2 fans rounds of "
        "independent trials out over a process pool; the trial-seed "
        "sequence matches the serial campaign (default 1; static "
        "campaigns only)",
    )
    parser.add_argument(
        "--mutate",
        action="store_true",
        help="fuzz the dynamic-graph stack instead: random insert/delete/"
        "query interleavings replayed against recompute-from-scratch "
        "after every batch, failing traces ddmin-shrunk into replayable "
        "artifacts",
    )
    parser.add_argument(
        "--steps",
        type=int,
        default=8,
        metavar="K",
        help="mutation batches per trace with --mutate (default 8)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-trial progress"
    )
    return parser


def fuzz_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``fuzz`` subcommand; returns the exit code."""
    args = build_fuzz_parser().parse_args(argv)
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    from contextlib import nullcontext

    from repro.verify import available_faults, fuzz, inject_fault, replay

    if args.inject is not None and args.inject not in available_faults():
        print(
            f"error: unknown fault {args.inject!r}; available: "
            f"{', '.join(available_faults())}",
            file=sys.stderr,
        )
        return 2
    fault = inject_fault(args.inject) if args.inject else nullcontext()

    if args.replay is not None:
        try:
            with fault:
                disagreements = replay(args.replay)
        except (ReproError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if disagreements:
            print(f"replay: {len(disagreements)} disagreement(s)")
            for d in disagreements:
                print(f"  {d}")
            return 1
        print("replay: clean (no disagreements)")
        return 0

    progress = None if args.quiet else lambda line: print(line, flush=True)
    if args.mutate:
        from repro.verify import fuzz_mutation

        with fault:
            result = fuzz_mutation(
                seed=args.seed,
                budget=args.budget,
                max_trials=args.trials,
                max_vertices=args.max_vertices,
                steps=args.steps,
                artifact_dir=args.artifacts,
                shrink=not args.no_shrink,
                progress=progress,
            )
    else:
        with fault:
            result = fuzz(
                seed=args.seed,
                budget=args.budget,
                max_trials=args.trials,
                max_vertices=args.max_vertices,
                artifact_dir=args.artifacts,
                shrink=not args.no_shrink,
                workers=args.workers,
                progress=progress,
            )
    families = ", ".join(
        f"{name}×{count}" for name, count in sorted(result.families.items())
    )
    print(
        f"\nfuzz: {result.trials} trials in {result.elapsed:.1f}s "
        f"(seed {result.seed}), {len(result.failures)} failure(s)"
    )
    if families:
        print(f"families: {families}")
    for failure in result.failures:
        print(f"FAIL {failure}")
    return 0 if result.ok else 1


def query_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``query`` subcommand; returns the exit code."""
    args = build_query_parser().parse_args(argv)
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    # Call-time import: the query/cache layers sit above the CLI's other
    # dependencies and are only paid for when the subcommand runs.
    from repro.query import QueryEngine

    try:
        graph = read_graph(args.graph, mmap=args.mmap)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    queries = list(args.queries)
    if not queries:
        queries = [line.strip() for line in sys.stdin if line.strip()]
    if not queries:
        print("error: no queries given (arguments or stdin)", file=sys.stderr)
        return 2

    store = None
    if args.cache is not None:
        from repro.cache import WarmStartStore

        store = WarmStartStore(args.cache)
    engine = None
    try:
        engine = QueryEngine(
            store=store, batch_lanes=args.batch_lanes, workers=args.workers
        )
        key = engine.add_graph(graph)
        start = time.perf_counter()
        answers, stats = engine.run(key, queries)
        elapsed = time.perf_counter() - start
        engine.flush()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if engine is not None:
            engine.close()
    for query, answer in zip(queries, answers):
        text = query if isinstance(query, str) else " ".join(map(str, query))
        print(f"{text} = {answer}")
    if args.stats:
        print(f"\nqueries        : {stats.queries}")
        print(f"scalar BFS     : {stats.scalar_traversals} (one-per-query "
              "baseline)")
        print(f"gather passes  : {stats.sweeps} "
              f"({stats.bfs_sources} fresh sources, "
              f"{stats.memo_hits} memo hits)")
        if stats.sweeps:
            print(f"pass ratio     : {stats.gather_pass_ratio:.1f}x fewer "
                  "gather passes")
        print(f"edges examined : {stats.edges_examined:,}")
        print(f"time           : {elapsed:.3f}s")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "query":
        return query_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "fuzz":
        return fuzz_main(argv[1:])
    if argv and argv[0] == "convert":
        return convert_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.bfs_batch_lanes < 0:
        print("error: --bfs-batch-lanes must be >= 0", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    try:
        graph = read_graph(args.graph, mmap=args.mmap)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    summary = degree_summary(graph)
    print(f"graph    : {graph.name}")
    print(f"vertices : {summary.num_vertices:,}")
    print(f"edges    : {summary.num_edges:,} "
          f"(avg degree {summary.average_degree:.1f}, max {summary.max_degree})")

    config = FDiamConfig(
        engine=args.engine,
        use_winnow=not args.no_winnow,
        use_eliminate=not args.no_eliminate,
        use_chain=not args.no_chain,
        use_max_degree_start=not args.start_vertex_zero,
    )
    store = None
    cache_info = None
    if args.cache is not None:
        from repro.cache import WarmStartStore

        store = WarmStartStore(args.cache)
    start = time.perf_counter()
    try:
        if store is not None:
            from repro.cache import fdiam_cached

            result, cache_info = fdiam_cached(graph, config, store=store)
        else:
            result = fdiam(graph, config)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - start

    if cache_info is not None:
        if cache_info.hit and cache_info.verified:
            state = "warm hit (verified)"
        elif cache_info.hit:
            state = "hit distrusted, ran cold"
        else:
            state = "miss, ran cold"
        written = ", sidecar written" if cache_info.saved else ""
        print(f"cache    : {state}{written} "
              f"[{cache_info.digest[:12]}]")
    if result.infinite:
        print(f"diameter : infinite (graph is disconnected); "
              f"largest component eccentricity = {result.diameter}")
    else:
        print(f"diameter : {result.diameter}")
    print(f"time     : {elapsed:.3f}s "
          f"({graph.num_vertices / max(elapsed, 1e-9):,.0f} vertices/s)")

    if args.stats:
        stats = result.stats
        print(f"\nBFS traversals : {stats.bfs_traversals} "
              f"({stats.eccentricity_bfs} eccentricity + {stats.winnow_calls} winnow)")
        print(f"edges examined : {stats.edges_examined:,}")
        print(f"initial bound  : {stats.initial_bound} "
              f"({stats.bound_updates} upgrades)")
        print(f"ecc batch      : {stats.ecc_batch} "
              f"({stats.ecc_batch_reason or 'no main loop'})")
        print(f"lane sweeps    : {stats.ecc_sweeps} "
              f"({stats.redundant_evaluations} redundant evaluations)")
        if stats.warm_start:
            verdict = "verified" if stats.warm_verified else "distrusted"
            print(f"warm start     : witness BFS {verdict}")
        print("removed by     :")
        for stage, frac in stats.removal_fractions().items():
            print(f"  {stage:10s} {100 * frac:6.2f}%")
        print("time by stage  :")
        for stage, frac in stats.times.fractions().items():
            print(f"  {stage:10s} {100 * frac:6.2f}%")

    if args.workspace_stats:
        ws = result.stats.workspace
        if ws is None:
            print("\nworkspace stats unavailable for this run")
        else:
            print(f"\npeak scratch   : {format_bytes(ws.peak_scratch_bytes)} "
                  f"({ws.peak_scratch_bytes:,} bytes)")
            print(f"owned memory   : {format_bytes(ws.owned_bytes)} "
                  f"({ws.owned_bytes:,} bytes resident, pooled lane "
                  f"matrices included)")
            print(f"buffer reuse   : {ws.buffer_reuses}/{ws.buffer_requests} "
                  f"requests ({100 * ws.hit_rate:.1f}% hit rate)")
            print(f"mark epochs    : {ws.epochs}")
            if ws.lane_requests:
                print(f"lane buffers   : {ws.lane_reuses}/{ws.lane_requests} "
                      f"requests ({100 * ws.lane_hit_rate:.1f}% hit rate), "
                      f"{ws.lane_words_allocated:,} words allocated "
                      f"({format_bytes(8 * ws.lane_words_allocated)})")
            if ws.shm_segments:
                print(f"shm segments   : {ws.shm_segments} created "
                      f"(peak {format_bytes(ws.shm_bytes)}, "
                      f"{format_bytes(ws.shm_resident)} still attached)")

    if args.spectrum:
        if store is not None:
            from repro.cache import spectrum_cached

            spec, _ = spectrum_cached(
                graph,
                store=store,
                engine=args.engine,
                batch_lanes=args.bfs_batch_lanes,
                workers=args.workers,
            )
        else:
            spec = eccentricity_spectrum(
                graph,
                engine=args.engine,
                batch_lanes=args.bfs_batch_lanes,
                workers=args.workers,
            )
        print(f"\nradius    : {spec.radius} (largest component)")
        print(f"center    : {len(spec.center)} vertices "
              f"(e.g. {spec.center[:5].tolist()})")
        print(f"periphery : {len(spec.periphery)} vertices "
              f"(e.g. {spec.periphery[:5].tolist()})")
        print(f"spectrum BFS traversals: {spec.bfs_traversals} "
              f"in {spec.sweeps} sweeps", end="")
        if spec.lane_fallback:
            why = f": {spec.lane_fallback_reason}" if spec.lane_fallback_reason else ""
            print(f" (lane batch dropped to scalar by the cost model{why})")
        elif args.bfs_batch_lanes > 0 or args.workers > 1:
            backend = f"{spec.backend} backend, {spec.workers} worker(s), "
            print(f" ({backend}lane occupancy {100 * spec.lane_occupancy:.0f}%)")
        else:
            print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
