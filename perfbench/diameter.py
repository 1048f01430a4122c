"""Workload ``diameter-paper17``: exact diameters of the 17 paper analogs.

One caller, closed loop. Set-up loads the 17 ``.scsr`` files (a full
decode each); the timed part runs ``fdiam(graph)`` with the default
configuration on every input, pass after pass, and checks every answer
against the SumSweep diameter of the pinned analog, computed once
outside timing (the seed only relabels vertices). Each pass after the
first runs another labeling of the loaded graphs, drawn from the seed
outside timing, and an input's time is its mean over the passes: how
many BFS fdiam needs on a thin-level input depends on the labeling's
tie-breaks (``europe_osm`` took 25--71 across seeds), and one labeling
per run would let that swing the run's figure.
"""

from __future__ import annotations

import json
import statistics
import time

import inputs
from common import (E2E_UNITS, WORK, emit, ensure_inputs, geomean, overhead_shares, report,
                    self_peak_rss_mb)

#: After the first pass, an input is run again only while its last
#: time (labeling included) is expected to end within this share of
#: the run length.
_OVERRUN = 1.05
#: Loads of the 17 files per untraced run; ``setup_s`` is their median.
SETUPS = 5


def load_all(files: dict[str, str]):
    from repro.graph.io import read_graph

    return {name: read_graph(path) for name, path in files.items()}


def measure(files, oracle, seed: int, seconds: float, *, setups: int,
            max_passes: int | None = None) -> dict:
    """Set up ``setups`` times, then run passes for ``seconds``.

    Pass 0 runs every input on the seed's own labeling; pass ``p`` runs
    labeling ``p`` of the seed on each input whose next run is expected
    to end within the run length, so the last seconds go to the inputs
    that fit. ``max_passes`` caps the passes (the traced run makes
    exactly one, so its counts repeat exactly at one seed). The counts
    reported are those of pass 0.
    """
    from repro.core.fdiam import fdiam

    setup_times = []
    setup_window = [time.perf_counter(), 0.0]
    for _ in range(setups):
        graphs = None
        t0 = time.perf_counter()
        graphs = load_all(files)
        setup_times.append(time.perf_counter() - t0)
    setup_window[1] = time.perf_counter()

    walls: dict[str, list[float]] = {name: [] for name in files}
    counts: dict[str, tuple[int, int]] = {}
    attempted = failed = 0
    wrong: list[str] = []
    t_start = time.perf_counter()
    cost: dict[str, float] = {}  # last labeling + fdiam time per input
    done = 0
    while max_passes is None or done < max_passes:
        ran = False
        for name, graph in graphs.items():
            t0 = time.perf_counter()
            if done:
                if t0 - t_start + cost[name] > _OVERRUN * seconds:
                    continue
                graph = inputs.relabel(graph, seed, done)
            t1 = time.perf_counter()
            result = fdiam(graph)
            t2 = time.perf_counter()
            walls[name].append(t2 - t1)
            cost[name] = t2 - t0
            ran = True
            attempted += 1
            if result.diameter != oracle[name]["diameter"]:
                failed += 1
                want = oracle[name]["diameter"]
                wrong.append(f"{name}: fdiam {result.diameter} != oracle {want}")
            if not done:
                counts[name] = (result.stats.bfs_traversals, result.stats.edges_examined)
            del graph
        if not ran:
            break
        done += 1
    t_end = time.perf_counter()

    mean_wall = {name: statistics.fmean(w) for name, w in walls.items()}
    worst_wall = {name: max(w) for name, w in walls.items()}
    regime = {name: oracle[name]["regime"] for name in files}
    small = [n for n in files if regime[n] == "small-world"]
    high = [n for n in files if regime[n] == "high-diameter"]
    return {
        "e2e": {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": self_peak_rss_mb(),
            "rate": geomean([oracle[n]["n"] / mean_wall[n] for n in small]),
            "typical_ms": 1e3 * sum(mean_wall[n] for n in high),
        },
        "detail": {
            "slowest_pass_geomean_ms": 1e3 * geomean(worst_wall.values()),
            "diameter_geomean_vps": geomean([oracle[n]["n"] / mean_wall[n] for n in files]),
            "diameter_small_world_s": sum(mean_wall[n] for n in small),
            "diameter_high_diameter_s": sum(mean_wall[n] for n in high),
            "passes": min(len(w) for w in walls.values()),
            "runs_per_input_mean": attempted / len(files),
            "core.bfs_traversals": sum(c[0] for c in counts.values()),
            "bfs.edges_examined": sum(c[1] for c in counts.values()),
            "failed_share": failed / attempted,
        },
        "per_input": {
            n: {"mean_s": mean_wall[n], "bfs": counts[n][0], "edges": counts[n][1]}
            for n in files
        },
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "setup_window": tuple(setup_window),
        "window": (t_start, t_end),
    }


def run(seed: int, seconds: float, trace: bool) -> None:
    folder = ensure_inputs("diameter-paper17", seed)
    with open(folder / "oracle.json") as fh:
        oracle = json.load(fh)
    files = {name: str(folder / f"{name}.scsr") for name in oracle}
    # A traced run compares one pass of the seed's own labeling each way,
    # so trace.overhead_share does not mix in other labelings' times.
    base = measure(files, oracle, seed, seconds, setups=1 if trace else SETUPS,
                   max_passes=1 if trace else None)
    report("untraced", base)
    if not trace:
        emit(base["failed"] == 0, base["attempted"], base["failed"], base["e2e"], E2E_UNITS)
        return

    import instrument
    import layers
    from tracing import Tracer

    tracer = instrument.install(Tracer())
    try:
        traced = measure(files, oracle, seed, seconds, setups=1, max_passes=1)
    finally:
        tracer.unpatch()
    report("traced", traced)
    tracer.dump(WORK / f"trace-diameter-paper17-seed{seed}.json")
    per = layers.compute(tracer.spans, tracer.decisions,
                         setup=traced["setup_window"], window=traced["window"])
    per.update(overhead_shares(base["e2e"], traced["e2e"]))
    failed = base["failed"] + traced["failed"]
    emit(failed == 0, base["attempted"] + traced["attempted"], failed, per, layers.PER_LAYER)
