"""One differential fuzz trial: the config lattice must agree.

Every independently-toggleable axis the solver has grown — BFS engine
(top-down/bottom-up hybrid, serial, bit-parallel), the ``--prep``
reduction pipeline, lane batching, chain-tip batching, vertex order,
the ablation switches, the warm-start cache, the batched query
engine, and the backing storage format (in-memory CSR vs the
block-compressed ``.scsr`` store) — is run on the same sampled graph,
with the invariant oracle attached, and compared against reference
BFS distances plus two independent baselines (naive APSP and iFUB). Any disagreement on the
diameter, the connectivity/infinity flag, an eccentricity, or a
per-query distance is reported as a :class:`Disagreement`, which the
fuzz runner then shrinks into a replayable artifact.

The reference is :func:`repro.bfs.reference.serial_distances` — a
plain deque BFS that shares no code with the level-synchronous
kernels — so trials are meaningful even for bugs that would infect
every kernel-backed configuration at once.
"""

from __future__ import annotations

import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from repro.baselines.ifub import ifub_diameter
from repro.baselines.naive import naive_diameter
from repro.bfs.reference import serial_distances
from repro.core.config import FDiamConfig
from repro.core.fdiam import fdiam
from repro.errors import ReproError
from repro.graph.csr import CSRGraph

__all__ = [
    "CONFIG_LATTICE",
    "Disagreement",
    "reference_eccentricities",
    "run_trial",
]


#: The full configuration lattice a trial sweeps: engines × prep ×
#: lanes (``ecc_lanes="on"`` forces both chain-tip and main-loop lane
#: sweeps) × ablations × order. Cache warm/cold and the query engine are
#: exercised separately in :func:`run_trial` (they need a store and a
#: query batch, not just a config).
CONFIG_LATTICE: list[tuple[str, FDiamConfig]] = [
    ("fdiam/par", FDiamConfig()),
    ("fdiam/ser", FDiamConfig(engine="serial")),
    ("fdiam/par+prep", FDiamConfig(prep="auto")),
    ("fdiam/ser+prep", FDiamConfig(engine="serial", prep="auto")),
    ("fdiam/ecc-lanes", FDiamConfig(ecc_lanes="on")),
    ("fdiam/random-order", FDiamConfig(order="random", seed=7)),
    ("fdiam/no-winnow", FDiamConfig(use_winnow=False)),
    ("fdiam/no-elim", FDiamConfig(use_eliminate=False)),
    ("fdiam/no-chain", FDiamConfig(use_chain=False)),
    ("fdiam/vertex0-start", FDiamConfig(use_max_degree_start=False)),
]


@dataclass(frozen=True)
class Disagreement:
    """One observed divergence (or invariant violation) in a trial.

    ``label`` names the configuration or check that failed (e.g.
    ``"fdiam/par+prep"``, ``"cache/warm"``, ``"query/dist"``,
    ``"metamorphic/relabel"``); ``message`` carries the specifics.
    """

    label: str
    message: str

    def __str__(self) -> str:
        return f"{self.label}: {self.message}"


def reference_eccentricities(graph: CSRGraph) -> np.ndarray:
    """Per-vertex eccentricities from the independent deque BFS."""
    n = graph.num_vertices
    ecc = np.zeros(n, dtype=np.int64)
    for v in range(n):
        ecc[v] = int(serial_distances(graph, v).max())
    return ecc


def _reference_connected(graph: CSRGraph) -> bool:
    n = graph.num_vertices
    if n <= 1:
        return True
    return bool((serial_distances(graph, 0) >= 0).all())


def _check_result(
    label: str, result, ref_diameter: int, ref_connected: bool
) -> list[Disagreement]:
    found = []
    if result.diameter != ref_diameter:
        found.append(
            Disagreement(
                label,
                f"diameter {result.diameter} != reference {ref_diameter}",
            )
        )
    if result.infinite != (not ref_connected):
        found.append(
            Disagreement(
                label,
                f"infinite flag {result.infinite} but reference "
                f"connected={ref_connected}",
            )
        )
    return found


def run_trial(
    graph: CSRGraph,
    rng: np.random.Generator,
    *,
    verify: bool = True,
    metamorphic: bool = True,
    max_queries: int = 8,
) -> list[Disagreement]:
    """Run the full battery on ``graph``; return every disagreement.

    ``rng`` drives the query sampling and the metamorphic mutations —
    pass a generator derived from the trial seed so the whole trial
    replays exactly. ``verify`` attaches the invariant oracle to every
    lattice run (the fuzzer's default); disable it only for speed
    sanity passes.
    """
    if graph.num_vertices == 0:
        # fdiam's contract excludes the empty graph; nothing to compare.
        return []
    disagreements: list[Disagreement] = []
    ref_ecc = reference_eccentricities(graph)
    ref_diameter = int(ref_ecc.max()) if len(ref_ecc) else 0
    ref_connected = _reference_connected(graph)

    # ------------------------------------------------------------------
    # 1. The config lattice, oracle attached.
    # ------------------------------------------------------------------
    for label, config in CONFIG_LATTICE:
        try:
            result = fdiam(graph, config.ablate(verify=verify))
        except ReproError as exc:
            disagreements.append(Disagreement(label, f"{type(exc).__name__}: {exc}"))
            continue
        disagreements.extend(
            _check_result(label, result, ref_diameter, ref_connected)
        )

    # ------------------------------------------------------------------
    # 2. Two independent baselines.
    # ------------------------------------------------------------------
    for label, runner in (
        ("baseline/naive", naive_diameter),
        ("baseline/ifub", ifub_diameter),
    ):
        try:
            result = runner(graph)
        except ReproError as exc:
            disagreements.append(Disagreement(label, f"{type(exc).__name__}: {exc}"))
            continue
        disagreements.extend(
            _check_result(label, result, ref_diameter, ref_connected)
        )

    # ------------------------------------------------------------------
    # 3. Cache cold → warm: byte-identical graph must warm-verify and
    #    reproduce the cold answer.
    # ------------------------------------------------------------------
    disagreements.extend(_check_cache(graph, ref_diameter, ref_connected))

    # ------------------------------------------------------------------
    # 4. The batched query engine versus the reference rows.
    # ------------------------------------------------------------------
    disagreements.extend(
        _check_queries(graph, rng, ref_ecc, ref_diameter, max_queries)
    )

    # ------------------------------------------------------------------
    # 5. Storage-format axis: the .scsr round trip must be bit-exact
    #    and answer-identical, and must not share a cache key with the
    #    in-memory load.
    # ------------------------------------------------------------------
    disagreements.extend(_check_store(graph, ref_diameter, ref_connected))

    # ------------------------------------------------------------------
    # 6. Metamorphic relations.
    # ------------------------------------------------------------------
    if metamorphic:
        from repro.verify.metamorphic import (
            check_disjoint_union,
            check_edge_addition_monotone,
            check_edge_deletion_monotone,
            check_insert_delete_identity,
            check_relabel_invariance,
        )

        for check in (
            check_relabel_invariance,
            check_edge_addition_monotone,
            check_edge_deletion_monotone,
            check_insert_delete_identity,
            check_disjoint_union,
        ):
            disagreements.extend(check(graph, rng))

    return disagreements


def _check_cache(
    graph: CSRGraph, ref_diameter: int, ref_connected: bool
) -> list[Disagreement]:
    from repro.cache import WarmStartStore, fdiam_cached

    found: list[Disagreement] = []
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-cache-") as root:
        store = WarmStartStore(root)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a distrusted sidecar is a bug here
                cold, cold_info = fdiam_cached(graph, store=store)
                warm, warm_info = fdiam_cached(graph, store=store)
        except ReproError as exc:
            return [Disagreement("cache", f"{type(exc).__name__}: {exc}")]
        except Warning as warn:
            return [
                Disagreement(
                    "cache", f"unexpected warning on a clean sidecar: {warn}"
                )
            ]
        found.extend(_check_result("cache/cold", cold, ref_diameter, ref_connected))
        found.extend(_check_result("cache/warm", warm, ref_diameter, ref_connected))
        if cold_info.hit:
            found.append(Disagreement("cache/cold", "fresh store reported a hit"))
        if not warm_info.hit or not warm_info.verified:
            found.append(
                Disagreement(
                    "cache/warm",
                    f"expected a verified warm hit, got hit={warm_info.hit} "
                    f"verified={warm_info.verified}",
                )
            )
    return found


def _check_store(
    graph: CSRGraph, ref_diameter: int, ref_connected: bool
) -> list[Disagreement]:
    import os

    from repro.graph.io import graph_digest
    from repro.store import load_scsr, save_scsr

    found: list[Disagreement] = []
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-store-") as root:
        path = os.path.join(root, "trial.scsr")
        try:
            # Tiny blocks so even few-vertex fuzz graphs span several
            # blocks and exercise the chained first-neighbour resets.
            save_scsr(graph, path, block_size=4)
            eager = load_scsr(path)
            mapped = load_scsr(path, mmap=True)
        except ReproError as exc:
            return [Disagreement("store", f"{type(exc).__name__}: {exc}")]
        for label, loaded in (("store/eager", eager), ("store/mmap", mapped)):
            if not (
                np.array_equal(loaded.indptr, graph.indptr)
                and np.array_equal(loaded.indices, graph.indices)
            ):
                found.append(
                    Disagreement(label, "decoded CSR arrays differ from source")
                )
                continue
            if graph_digest(loaded) == graph_digest(graph):
                found.append(
                    Disagreement(
                        label,
                        "cache key collides with the in-memory load "
                        "(storage tag missing from graph_digest)",
                    )
                )
            if loaded.num_vertices == 0:
                continue
            try:
                result = fdiam(loaded, FDiamConfig())
            except ReproError as exc:
                found.append(
                    Disagreement(label, f"{type(exc).__name__}: {exc}")
                )
                continue
            found.extend(
                _check_result(label, result, ref_diameter, ref_connected)
            )
        backing = mapped.backing_store
        if backing is not None:
            backing.close()
    return found


def _check_queries(
    graph: CSRGraph,
    rng: np.random.Generator,
    ref_ecc: np.ndarray,
    ref_diameter: int,
    max_queries: int,
) -> list[Disagreement]:
    from repro.query import QueryEngine

    n = graph.num_vertices
    if n == 0 or max_queries <= 0:
        return []
    queries: list[tuple] = [("diam",)]
    expected: list[int] = [ref_diameter]
    rows: dict[int, np.ndarray] = {}

    def row(v: int) -> np.ndarray:
        if v not in rows:
            rows[v] = serial_distances(graph, v)
        return rows[v]

    for _ in range(max_queries - 1):
        u = int(rng.integers(n))
        if rng.random() < 0.5:
            v = int(rng.integers(n))
            queries.append(("dist", u, v))
            expected.append(int(row(u)[v]))
        else:
            queries.append(("ecc", u))
            expected.append(int(ref_ecc[u]))

    # A batch of one source takes the scalar lone-row path, which the
    # mixed batch never reaches: also answer one ``dist`` and one
    # ``ecc`` in batches of their own, with no memo to hit.
    u, v, w = (int(x) for x in rng.integers(n, size=3))
    lone = [("dist", u, v), ("ecc", w)]
    expected += [int(row(u)[v]), int(row(w).max())]

    try:
        engine = QueryEngine(batch_lanes=64)
        key = engine.add_graph(graph)
        answers, _stats = engine.run(key, queries)
        lone_engine = QueryEngine(memo_vectors=0)
        lone_key = lone_engine.add_graph(graph)
        for query in lone:
            answers += lone_engine.run(lone_key, [query])[0]
        queries += lone
    except ReproError as exc:
        return [Disagreement("query", f"{type(exc).__name__}: {exc}")]
    found = []
    for query, got, want in zip(queries, answers, expected):
        if got != want:
            found.append(
                Disagreement(
                    f"query/{query[0]}",
                    f"{' '.join(map(str, query))} = {got}, reference {want}",
                )
            )
    return found
