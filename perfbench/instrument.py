"""Install spans and decision records on the program's public entry points.

Everything here wraps functions from the outside; the program itself
is unchanged. Span names are ``<layer>.<call>`` with the layers named
after the modules of ``src/repro`` on the measured path.
"""

from __future__ import annotations

import importlib
import inspect
import time

from tracing import Tracer

#: Core stage functions as ``repro.core.fdiam`` calls them -> span name.
CORE_STAGES = {
    "two_sweep": "core.init_bfs",
    "witness_sweep": "core.init_bfs",
    "winnow": "core.winnow",
    "restore_winnow": "core.winnow",
    "process_chains": "core.chain",
    "eliminate": "core.eliminate",
    "extend_eliminated": "core.eliminate",
}

#: Cost-model methods whose verdicts are logged.
DECISIONS = (
    "choose_backend",
    "lane_batch_verdict",
    "choose_gather_path",
    "choose_memory_mode",
    "reduction_gates",
)


def _store_snapshot(store) -> tuple:
    st = store.stats
    return (st.block_requests, st.block_hits, st.blocks_decoded,
            st.decoded_bytes, st.redecoded_blocks)


def _store_hook(span, args, kwargs):
    store = args[0]
    before = _store_snapshot(store)

    def after(_result):
        now = _store_snapshot(store)
        keys = ("block_requests", "block_hits", "blocks_decoded",
                "decoded_bytes", "redecoded_blocks")
        span.attrs.update({k: b - a for k, a, b in zip(keys, before, now)})
    return after


def _to_graph_hook(span, args, kwargs):
    def after(graph):
        span.attrs["decoded_bytes"] = int(graph.indptr.nbytes + graph.indices.nbytes)
    return after


def _kernel_hook(kind):
    def hook(span, args, kwargs):
        kernel = args[0]
        edges0 = kernel.workspace.stats.edges_examined

        def after(result):
            span.attrs["edges"] = kernel.workspace.stats.edges_examined - edges0
            if kind == "bfs":
                span.attrs["levels"] = int(result.eccentricity)
            elif kind == "levels":
                span.attrs["levels"] = len(result)
            elif kind == "levels_batched64":
                span.attrs["levels"] = int(result.levels)
            elif kind == "distance_batch":
                _dist, sweeps = result
                span.attrs["lane_sweeps"] = len(sweeps)
                span.attrs["levels"] = int(sum(s.levels for s in sweeps))
                span.attrs["occupancy"] = [float(s.lane_occupancy) for s in sweeps]
        return after
    return hook


def _rows_hook(span, args, kwargs):
    def after(result):
        info = result[1]
        span.attrs.update(traversals=int(info.traversals), sweeps=int(info.sweeps))
    return after


def _fdiam_hook(span, args, kwargs):
    def after(result):
        res = result[0] if isinstance(result, tuple) else result
        st = res.stats
        computed = int(st.removed_by[_computed_reason()])
        span.attrs.update(
            n=int(st.num_vertices), diameter=int(res.diameter),
            bfs_traversals=int(st.bfs_traversals),
            eliminate_calls=int(st.eliminate_calls),
            bound_updates=int(st.bound_updates),
            pruned=int(st.num_vertices) - computed,
        )
    return after


def _computed_reason():
    from repro.core.stats import Reason

    return Reason.COMPUTED


def _run_hook(span, args, kwargs):
    span.attrs["graph"] = args[1]

    def after(result):
        st = result[1]
        span.attrs.update(
            queries=int(st.queries), memo_hits=int(st.memo_hits),
            sweeps=int(st.sweeps), scalar=int(st.scalar_traversals),
            epoch=int(st.epoch),
        )
    return after


def _submit_hook(span, args, kwargs):
    span.attrs["graph"] = args[1]
    span.attrs["query"] = args[2] if isinstance(args[2], str) else " ".join(map(str, args[2]))


def _refresh_hook(span, args, kwargs):
    def after(stats):
        span.attrs.update(strategy=stats.strategy, bfs=int(stats.bfs_traversals))
    return after


def _compact_hook(span, args, kwargs):
    def after(result):
        span.attrs["compacted"] = bool(result)
    return after


def _jsonable(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if callable(value):
        return "<callable>"
    try:
        return int(value)
    except (TypeError, ValueError):
        return repr(value)


def _verdict(decision: str, result) -> tuple[str, str]:
    if decision == "choose_backend":
        return str(result), ""
    if decision == "lane_batch_verdict":
        ok, reason = result
        return ("accept" if ok else "veto"), reason
    if decision == "reduction_gates":
        kept = [s for s in ("peel", "collapse", "reorder") if getattr(result, s)]
        return ("some-kept" if kept else "all-gated"), (
            "kept " + ",".join(kept) if kept else "every stage gated"
        )
    choice, reason = result
    return str(choice), reason


def _patch_decision(tracer: Tracer, cls, name: str) -> None:
    original = cls.__dict__[name]
    signature = inspect.signature(original)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        bound = signature.bind(*args, **kwargs)
        inputs = {k: _jsonable(v) for k, v in bound.arguments.items() if k != "self"}
        choice, reason = _verdict(name, result)
        tracer.decisions.append({
            "decision": name, "inputs": inputs, "choice": choice,
            "reason": reason, "t": time.perf_counter(),
        })
        return result

    tracer._undo.append((cls, name, original))
    setattr(cls, name, wrapper)


def install(tracer: Tracer) -> Tracer:
    """Wrap every measured entry point of the program with ``tracer``."""
    # ``repro.core`` re-exports the ``fdiam`` function under its module's
    # name, so fetch the modules themselves.
    core_fdiam = importlib.import_module("repro.core.fdiam")
    graph_io = importlib.import_module("repro.graph.io")
    prep_pipeline = importlib.import_module("repro.prep.pipeline")
    from repro.bfs.kernel import TraversalKernel
    from repro.core.state import FDiamState
    from repro.dynamic import DynamicDiameter, DynamicGraph
    from repro.parallel import sweep
    from repro.parallel.costmodel import LevelSynchronousCostModel
    from repro.query import QueryEngine
    from repro.service.registry import GraphRegistry
    from repro.service.scheduler import CoalescingScheduler
    from repro.store.scsr import CompressedCSR
    import repro.cache.runner  # noqa: F401  (binds its fdiam alias first)
    import repro.cli  # noqa: F401

    tracer.patch_function(graph_io, "read_graph", "graph.read_graph")
    tracer.patch_method(CompressedCSR, "to_graph", "store.to_graph", hook=_to_graph_hook)
    tracer.patch_method(CompressedCSR, "decode_block", "store.decode_block", hook=_store_hook)
    tracer.patch_method(CompressedCSR, "gather_rows", "store.gather_rows", hook=_store_hook)

    for kind in ("bfs", "levels", "levels_batched64", "distance_batch", "ball",
                 "staggered_wave"):
        tracer.patch_method(TraversalKernel, kind, f"bfs.{kind}", hook=_kernel_hook(kind))

    for cls in (sweep.SerialSweepExecutor, sweep.BitparallelSweepExecutor,
                sweep.MultiprocessSweepExecutor):
        tracer.patch_method(cls, "distance_rows", "parallel.distance_rows", hook=_rows_hook)
    for name in DECISIONS:
        _patch_decision(tracer, LevelSynchronousCostModel, name)

    # Stage functions as repro.core.fdiam calls them (its own namespace).
    for attr, name in CORE_STAGES.items():
        original = getattr(core_fdiam, attr)
        tracer._undo.append((core_fdiam, attr, original))
        setattr(core_fdiam, attr, tracer.wrap(original, name))
    tracer.patch_method(FDiamState, "ecc_bfs", "core.ecc_bfs")
    tracer.patch_function(core_fdiam, "fdiam_with_state", "core.fdiam_with_state",
                          hook=_fdiam_hook)
    tracer.patch_function(core_fdiam, "fdiam", "core.fdiam", hook=_fdiam_hook)
    tracer.patch_function(prep_pipeline, "preprocess", "prep.preprocess")

    tracer.patch_method(QueryEngine, "run", "query.run", hook=_run_hook)

    tracer.patch_method(CoalescingScheduler, "submit", "service.submit",
                        hook=_submit_hook, new_request=True)
    tracer.patch_method(CoalescingScheduler, "submit_mutation", "service.submit_mutation",
                        new_request=True)
    tracer.patch_method(GraphRegistry, "ensure", "service.ensure")

    tracer.patch_method(DynamicGraph, "apply", "dynamic.apply")
    tracer.patch_method(DynamicGraph, "view", "dynamic.view")
    tracer.patch_method(DynamicGraph, "compact", "dynamic.compact", hook=_compact_hook)
    tracer.patch_method(DynamicDiameter, "refresh", "dynamic.refresh", hook=_refresh_hook)
    return tracer
