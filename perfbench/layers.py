"""Per-layer metrics computed from spans, decision records and request logs.

Every traced run reports every name in :data:`PER_LAYER`; a metric
whose layer the workload does not exercise reads 0. Windows: the
``graph``/``store.decode``/``prep`` metrics cover set-up (that is the
end-to-end metric they move); ``store.block_hit_rate``,
``store.thrash_rate`` and the decision counts cover set-up and the
measured window; everything else covers the measured window only.
"""

from __future__ import annotations

import bisect

from common import E2E_UNITS, pct_ms
from tracing import Span, self_times, union_length, unattributed

#: Tenant keys of the serve workloads (per-tenant tail latency).
TENANTS = ("internet", "road", "road-big")

#: Cost-model decisions and the choices counted for each.
DECISION_CHOICES = {
    "choose_backend": ("serial", "bitparallel", "multiprocess"),
    "lane_batch_verdict": ("accept", "veto"),
    "choose_gather_path": ("decoded", "blocks"),
    "choose_memory_mode": ("decode", "cached", "stream"),
    "reduction_gates": ("all-gated", "some-kept"),
}

#: name -> (unit, better). Order is the report order.
PER_LAYER: dict[str, tuple[str, str]] = {
    "graph.load_s": ("s", "lower"),
    "store.decode_s": ("s", "lower"),
    "store.decode_mb_s": ("MB/s", "higher"),
    "store.block_hit_rate": ("share", "higher"),
    "store.thrash_rate": ("share", "lower"),
    "bfs.calls": ("count", "lower"),
    "bfs.self_s": ("s", "lower"),
    "bfs.levels": ("count", "lower"),
    "bfs.edges_examined": ("count", "lower"),
    "bfs.edges_per_s": ("1/s", "higher"),
    "bfs.lane_sweeps": ("count", "lower"),
    "bfs.lane_occupancy": ("share", "higher"),
    "parallel.distance_rows_s": ("s", "lower"),
    "parallel.sources_per_sweep": ("count", "higher"),
    **{
        f"parallel.decisions.{d}.{c}": ("count", "lower")
        for d, choices in DECISION_CHOICES.items() for c in choices
    },
    "core.bfs_traversals": ("count", "lower"),
    "core.eliminate_calls": ("count", "lower"),
    "core.bound_updates": ("count", "lower"),
    "core.pruned_per_bfs": ("count", "higher"),
    "core.init_bfs_s": ("s", "lower"),
    "core.winnow_s": ("s", "lower"),
    "core.chain_s": ("s", "lower"),
    "core.eliminate_s": ("s", "lower"),
    "core.ecc_bfs_s": ("s", "lower"),
    "prep.preprocess_s": ("s", "lower"),
    "query.run_s": ("s", "lower"),
    "query.batch_queries": ("count", "higher"),
    "query.memo_hit_share": ("share", "higher"),
    "query.gather_pass_ratio": ("count", "higher"),
    "query.diam_resolutions": ("count", "lower"),
    "service.window_wait_ms.p50": ("ms", "lower"),
    "service.window_wait_ms.p90": ("ms", "lower"),
    "service.dispatch_busy_share": ("share", "lower"),
    "service.http_ms.p50": ("ms", "lower"),
    "service.http_ms.p90": ("ms", "lower"),
    "service.coalescing_ratio": ("count", "higher"),
    "service.rejected": ("count", "lower"),
    "service.registry_ensure_s": ("s", "lower"),
    **{f"service.tenant_p90_ms.{t}": ("ms", "lower") for t in TENANTS},
    "dynamic.apply_s": ("s", "lower"),
    "dynamic.refresh_s": ("s", "lower"),
    "dynamic.repair_share": ("share", "higher"),
    "dynamic.refresh_bfs": ("count", "lower"),
    "dynamic.view_s": ("s", "lower"),
    "dynamic.compactions": ("count", "lower"),
    "loadgen.late_ms.p99": ("ms", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}

# The traced run also reports how much tracing moved each end-to-end metric.
for _name in E2E_UNITS:
    PER_LAYER[f"trace.overhead_share.{_name}"] = ("share", "lower")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _outermost(spans: list[Span], by_id: dict[int, Span], layer: str) -> list[Span]:
    """Spans of ``layer`` whose parent is not in the same layer."""
    out = []
    for s in spans:
        if s.layer != layer:
            continue
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is None or parent.layer != layer:
            out.append(s)
    return out


def compute(
    spans: list[Span],
    decisions: list[dict],
    *,
    setup: tuple[float, float],
    window: tuple[float, float],
    requests: list[dict] | None = None,
    service_stats: dict | None = None,
) -> dict[str, float]:
    """All :data:`PER_LAYER` metrics except ``trace.overhead_share.*``.

    ``requests`` are client-side records ``{path, ok, graph, queries,
    start, end, latency, late, open_loop}`` of every request (absolute
    ``perf_counter`` times, comparable across processes on one host);
    ``service_stats`` is the server's ``/stats``
    ``service`` section at the end of the window.
    """
    out = {name: 0.0 for name in PER_LAYER}
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    w0, w1 = window
    s0, s1 = setup
    in_window = [s for s in spans if w0 <= s.start <= w1]
    in_setup = [s for s in spans if s0 <= s.start <= s1]

    def self_sum(subset, name_prefix):
        return sum(selfs[s.id] for s in subset if s.name.startswith(name_prefix))

    # graph / store (set-up)
    out["graph.load_s"] = self_sum(in_setup, "graph.")
    decode_s = self_sum(in_setup, "store.")
    decoded = sum(s.attrs.get("decoded_bytes", 0)
                  for s in _outermost(in_setup, by_id, "store"))
    out["store.decode_s"] = decode_s
    out["store.decode_mb_s"] = _ratio(decoded / 1e6, decode_s)
    store_all = _outermost(spans, by_id, "store")
    req = sum(s.attrs.get("block_requests", 0) for s in store_all)
    hits = sum(s.attrs.get("block_hits", 0) for s in store_all)
    dec = sum(s.attrs.get("blocks_decoded", 0) for s in store_all)
    redec = sum(s.attrs.get("redecoded_blocks", 0) for s in store_all)
    out["store.block_hit_rate"] = _ratio(hits, req)
    out["store.thrash_rate"] = _ratio(redec, dec)

    # bfs
    bfs_top = _outermost(in_window, by_id, "bfs")
    bfs_self = self_sum(in_window, "bfs.")
    edges = sum(s.attrs.get("edges", 0) for s in bfs_top)
    out["bfs.calls"] = len(bfs_top)
    out["bfs.self_s"] = bfs_self
    out["bfs.levels"] = sum(s.attrs.get("levels", 0) for s in bfs_top)
    out["bfs.edges_examined"] = edges
    out["bfs.edges_per_s"] = _ratio(edges, bfs_self)
    occ = [o for s in in_window for o in s.attrs.get("occupancy", ())]
    out["bfs.lane_sweeps"] = sum(s.attrs.get("lane_sweeps", 0) for s in in_window)
    out["bfs.lane_occupancy"] = _ratio(sum(occ), len(occ))

    # parallel
    rows = [s for s in in_window if s.name == "parallel.distance_rows"]
    out["parallel.distance_rows_s"] = sum(selfs[s.id] for s in rows)
    out["parallel.sources_per_sweep"] = _ratio(
        sum(s.attrs["traversals"] for s in rows), sum(s.attrs["sweeps"] for s in rows)
    )
    for d in decisions:
        if w0 <= d["t"] <= w1 or s0 <= d["t"] <= s1:
            key = f"parallel.decisions.{d['decision']}.{d['choice']}"
            if key in out:
                out[key] += 1

    # core: counts from the outermost diameter run of each call tree
    fd = [s for s in _outermost(in_window, by_id, "core") if s.name.startswith("core.fdiam")]
    bfs_trav = sum(s.attrs.get("bfs_traversals", 0) for s in fd)
    out["core.bfs_traversals"] = bfs_trav
    out["core.eliminate_calls"] = sum(s.attrs.get("eliminate_calls", 0) for s in fd)
    out["core.bound_updates"] = sum(s.attrs.get("bound_updates", 0) for s in fd)
    out["core.pruned_per_bfs"] = _ratio(sum(s.attrs.get("pruned", 0) for s in fd), bfs_trav)
    for stage in ("init_bfs", "winnow", "chain", "eliminate", "ecc_bfs"):
        out[f"core.{stage}_s"] = self_sum(in_window, f"core.{stage}")
    out["prep.preprocess_s"] = self_sum(in_setup, "prep.")

    # query
    runs = [s for s in in_window if s.name == "query.run"]
    queries = sum(s.attrs.get("queries", 0) for s in runs)
    out["query.run_s"] = sum(selfs[s.id] for s in runs)
    out["query.batch_queries"] = _ratio(queries, len(runs))
    out["query.memo_hit_share"] = _ratio(sum(s.attrs.get("memo_hits", 0) for s in runs), queries)
    out["query.gather_pass_ratio"] = _ratio(
        sum(s.attrs.get("scalar", 0) for s in runs), sum(s.attrs.get("sweeps", 0) for s in runs)
    )
    out["query.diam_resolutions"] = sum(
        1 for s in in_window
        if s.name in ("core.fdiam", "dynamic.refresh")
        and s.parent is not None and by_id.get(s.parent, s).name == "query.run"
        and s.attrs.get("strategy") != "noop"
    )

    # service
    submits = [s for s in in_window if s.name == "service.submit"]
    waits = _window_waits(submits, runs)
    out["service.window_wait_ms.p50"] = pct_ms(waits, 50)
    out["service.window_wait_ms.p90"] = pct_ms(waits, 90)
    dispatch = [s for s in in_window if s.name in ("query.run", "service.ensure")
                or s.name.startswith("dynamic.apply")]
    out["service.dispatch_busy_share"] = _ratio(
        union_length(((s.start, s.end) for s in dispatch), w0, w1), w1 - w0
    )
    out["service.registry_ensure_s"] = self_sum(in_window, "service.ensure")
    if requests:
        reads = [r for r in requests if r["path"] == "/query" and r["ok"]]
        http = _http_overheads(reads, submits)
        out["service.http_ms.p50"] = pct_ms(http, 50)
        out["service.http_ms.p90"] = pct_ms(http, 90)
        # Due-time figures come from the open-loop phases only.
        scheduled = [r for r in requests if r["open_loop"]]
        for t in TENANTS:
            lat = [r["latency"] for r in reads if r["graph"] == t and r["open_loop"]]
            out[f"service.tenant_p90_ms.{t}"] = pct_ms(lat, 90)
        out["loadgen.late_ms.p99"] = pct_ms([r["late"] for r in scheduled], 99)
    if service_stats:
        out["service.coalescing_ratio"] = float(service_stats.get("coalescing_ratio", 0.0))
        out["service.rejected"] = float(service_stats.get("rejected", 0))

    # dynamic
    refresh = [s for s in in_window if s.name == "dynamic.refresh"]
    strategies = [s.attrs.get("strategy") for s in refresh]
    out["dynamic.apply_s"] = self_sum(in_window, "dynamic.apply")
    out["dynamic.refresh_s"] = sum(selfs[s.id] for s in refresh)
    out["dynamic.repair_share"] = _ratio(
        strategies.count("repair"), strategies.count("repair") + strategies.count("recompute")
    )
    out["dynamic.refresh_bfs"] = sum(s.attrs.get("bfs", 0) for s in refresh)
    out["dynamic.view_s"] = self_sum(in_window, "dynamic.view")
    out["dynamic.compactions"] = sum(
        1 for s in in_window if s.name == "dynamic.compact" and s.attrs.get("compacted")
    )

    out["trace.unattributed_s"] = unattributed(in_window, w0, w1)
    return out


def _window_waits(submits: list[Span], runs: list[Span]) -> list[float]:
    """Per query: submit start -> start of the engine run that carried it.

    The carrying run is the last ``query.run`` on the query's graph that
    ended before the submit returned (answers resolve only after their
    batch ends). The wait covers the batching window plus any queueing
    for the single dispatch thread.
    """
    by_graph: dict[str, list[Span]] = {}
    for r in runs:
        by_graph.setdefault(r.attrs.get("graph"), []).append(r)
    ends = {}
    for key, lst in by_graph.items():
        lst.sort(key=lambda r: r.end)
        ends[key] = [r.end for r in lst]
    waits = []
    for s in submits:
        key = s.attrs.get("graph")
        i = bisect.bisect_right(ends.get(key, []), s.end) - 1
        if i >= 0 and by_graph[key][i].start >= s.start:
            waits.append(by_graph[key][i].start - s.start)
    return waits


def _http_overheads(requests: list[dict], submits: list[Span]) -> list[float]:
    """Client latency minus the server's submit-to-answer span, per request."""
    pool: dict[tuple[str, str], list[Span]] = {}
    for s in submits:
        pool.setdefault((s.attrs.get("graph"), s.attrs.get("query")), []).append(s)
    out = []
    for r in requests:
        inside = []
        for q in r["queries"]:
            for s in pool.get((r["graph"], q), ()):
                if r["start"] <= s.start and s.end <= r["end"]:
                    inside.append(s)
                    break
        if len(inside) == len(r["queries"]) and inside:
            served = max(s.end for s in inside) - min(s.start for s in inside)
            out.append((r["end"] - r["start"]) - served)
    return out
