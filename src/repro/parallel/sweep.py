"""One dispatch layer for every independent-BFS-source fan-out.

Every bound-driven diameter scheme in this package fans out the same
way: a round of *independent* full BFS traversals from a set of chosen
sources, whose distance rows then refine shared bounds (the
eccentricity spectrum, the SumSweep / Takes–Kosters bounding rounds,
the batched query engine, the fuzz campaign's trial battery). Before
this module each caller hand-rolled its own loop; now they all go
through a :class:`SweepExecutor` with three interchangeable backends:

* ``serial`` — one pooled-kernel BFS per source. The reference
  backend, and the right one for tiny rounds and high-diameter
  structures where lane words lose.
* ``bitparallel`` — chunked 64-lane shared-gather sweeps
  (:func:`repro.bfs.bitparallel.lane_distances`); amortizes up to 64
  traversals per edge-gather pass. A chunk of one source runs the
  kernel's scalar hybrid BFS instead, 2–4× cheaper than a 1-lane sweep
  (:meth:`~repro.bfs.kernel.TraversalKernel.distance_batch`); the
  multiprocess workers call the same method and get the same rule.
* ``multiprocess`` — real shared-memory parallelism: the CSR lives in
  a ``multiprocessing.shared_memory`` segment
  (:class:`~repro.parallel.shm.SharedCSR`), a persistent worker pool
  attaches read-only, sources are partitioned with the
  :mod:`repro.parallel.chunking` policies, and each worker writes its
  ``int32`` distance rows straight into a per-call shared output block
  — zero pickling of graph data in either direction. Workers run lane
  sweeps or scalar BFS per chunk, whichever the cost model prefers for
  the structure, so results are bit-identical to the serial backend by
  construction (BFS distances are unique).

Backend selection is the cost model's job:
:meth:`~repro.parallel.costmodel.LevelSynchronousCostModel.choose_backend`
turns the model that previously only *predicted* parallel speedup into
the component that *dispatches*, and :func:`create_executor` applies
its verdict with graceful degradation (no shared memory, pool start
failure, or a single-worker request all fall back toward
``bitparallel``/``serial`` with a warning rather than an error).

Spawn-vs-fork: the worker entry point (:func:`_worker_main`) is a
module-level function and every task payload is a few integers plus a
segment name, so both start methods work; ``REPRO_START_METHOD``
overrides the platform default (``fork`` where available, else
``spawn``). Shared-memory lifecycle rules — create/attach/unlink,
the ``resource_tracker`` caveat, and the atexit guard that makes
KeyboardInterrupt leak-free — live in :mod:`repro.parallel.shm`.
"""

from __future__ import annotations

import os
import queue as _queue
import warnings
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.bfs.kernel import TraversalKernel
from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph
from repro.parallel.chunking import chunk_bounds
from repro.parallel.costmodel import LANE_WIDTH, LevelSynchronousCostModel
from repro.parallel.shm import SharedCSR, attach_segment, create_segment, destroy_segment, shm_available

__all__ = [
    "ExecutorCounters",
    "SweepInfo",
    "SweepExecutor",
    "SerialSweepExecutor",
    "BitparallelSweepExecutor",
    "MultiprocessSweepExecutor",
    "create_executor",
    "process_map",
    "default_start_method",
    "START_METHOD_ENV",
]

#: Environment override for the multiprocessing start method
#: (``fork`` / ``spawn`` / ``forkserver``); the CI multiprocess job
#: pins ``spawn`` to exercise the stricter path.
START_METHOD_ENV = "REPRO_START_METHOD"

#: Seconds between worker-liveness checks while the parent waits on
#: round results.
_POLL_S = 0.2


def default_start_method() -> str:
    """The start method the multiprocess backend uses by default."""
    import multiprocessing as mp

    override = os.environ.get(START_METHOD_ENV)
    methods = mp.get_all_start_methods()
    if override:
        if override not in methods:
            raise AlgorithmError(
                f"unsupported start method {override!r} from "
                f"{START_METHOD_ENV}; available: {', '.join(methods)}"
            )
        return override
    return "fork" if "fork" in methods else "spawn"


@dataclass(frozen=True)
class SweepInfo:
    """Accounting of one :meth:`SweepExecutor.distance_rows` round.

    ``eccentricities[i]`` is the exact eccentricity of ``sources[i]``
    within its component (the row maximum, read out without another
    pass); ``sweeps`` counts physical edge-gather passes, so
    ``traversals / sweeps`` is the gather amortization the round
    achieved. ``lane_occupancy`` is the mean lane-word fill across the
    round's sweeps (1.0 for scalar traversals).
    """

    backend: str
    workers: int
    traversals: int
    sweeps: int
    edges_examined: int
    lane_occupancy: float
    eccentricities: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))


@dataclass
class ExecutorCounters:
    """Lifetime totals of one :class:`SweepExecutor`.

    Every :meth:`SweepExecutor.distance_rows` round accumulates its
    :class:`SweepInfo` here, so a long-lived executor (the query
    engine's per-graph dispatcher, the serving layer's ``/stats``
    endpoint) can report cumulative amortization without the caller
    threading per-round infos around.
    """

    rounds: int = 0
    traversals: int = 0
    sweeps: int = 0
    edges_examined: int = 0

    def account(self, info: SweepInfo) -> None:
        self.rounds += 1
        self.traversals += info.traversals
        self.sweeps += info.sweeps
        self.edges_examined += info.edges_examined

    def snapshot(self) -> dict:
        """JSON-friendly view (the ``/stats`` payload shape)."""
        return {
            "rounds": self.rounds,
            "traversals": self.traversals,
            "sweeps": self.sweeps,
            "edges_examined": self.edges_examined,
        }


class SweepExecutor:
    """Abstract dispatcher for rounds of independent BFS sources.

    Concrete backends implement :meth:`distance_rows`; everything else
    (round sizing, context management, close, the cumulative
    :attr:`counters`) is shared. Executors are
    deterministic: the distance matrix depends only on the graph and
    the source list, never on the backend, worker count, or chunk
    partitioning — which is what lets the verify layer treat backend
    choice as a differential-testing axis.
    """

    backend = "abstract"

    def __init__(self, graph: CSRGraph, *, kernel: TraversalKernel | None = None):
        self.graph = graph
        self.kernel = kernel if kernel is not None else TraversalKernel(graph)
        #: Lifetime round/traversal/sweep totals across distance_rows calls.
        self.counters = ExecutorCounters()
        if self.kernel.graph is not graph:
            raise AlgorithmError("sweep executor kernel is bound to a different graph")

    @property
    def round_size(self) -> int:
        """Preferred number of sources per refinement round."""
        return 1

    @property
    def workers(self) -> int:
        return 1

    def distance_rows(self, sources) -> tuple[np.ndarray, SweepInfo]:
        """Exact distance rows for ``sources``: ``((k, n) int32, SweepInfo)``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (worker pool, shm segments)."""

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_sources(self, sources) -> np.ndarray:
        sources = np.asarray(sources, dtype=np.int64).ravel()
        n = self.graph.num_vertices
        if len(sources) and (sources.min() < 0 or sources.max() >= n):
            raise AlgorithmError(f"sweep source out of range [0, {n})")
        return sources


class SerialSweepExecutor(SweepExecutor):
    """One pooled-kernel BFS per source (the reference backend)."""

    backend = "serial"

    def distance_rows(self, sources) -> tuple[np.ndarray, SweepInfo]:
        sources = self._check_sources(sources)
        k = len(sources)
        n = self.graph.num_vertices
        dist = np.empty((k, n), dtype=np.int32)
        ecc = np.zeros(k, dtype=np.int64)
        ws = self.kernel.workspace
        edges_before = ws.stats.edges_examined
        for i, s in enumerate(sources.tolist()):
            res = self.kernel.bfs(s, record_dist=True)
            dist[i] = res.dist
            ecc[i] = res.eccentricity
            ws.release_dist(res.dist)
        info = SweepInfo(
            backend=self.backend,
            workers=1,
            traversals=k,
            sweeps=k,
            edges_examined=ws.stats.edges_examined - edges_before,
            lane_occupancy=1.0 if k else 0.0,
            eccentricities=ecc,
        )
        self.counters.account(info)
        return dist, info


class BitparallelSweepExecutor(SweepExecutor):
    """Chunked 64-lane shared-gather sweeps in the calling process."""

    backend = "bitparallel"

    def __init__(
        self,
        graph: CSRGraph,
        *,
        kernel: TraversalKernel | None = None,
        max_lanes: int = LANE_WIDTH,
    ):
        super().__init__(graph, kernel=kernel)
        if max_lanes < 1:
            raise AlgorithmError(f"max_lanes must be >= 1, got {max_lanes}")
        self.max_lanes = max_lanes

    @property
    def round_size(self) -> int:
        return self.max_lanes

    def distance_rows(self, sources) -> tuple[np.ndarray, SweepInfo]:
        sources = self._check_sources(sources)
        dist, sweeps = self.kernel.distance_batch(sources, max_lanes=self.max_lanes)
        ecc = (
            np.concatenate([s.eccentricities for s in sweeps])
            if sweeps
            else np.empty(0, np.int64)
        )
        info = SweepInfo(
            backend=self.backend,
            workers=1,
            traversals=len(sources),
            sweeps=len(sweeps),
            edges_examined=sum(s.edges_examined for s in sweeps),
            lane_occupancy=(
                sum(s.lane_occupancy for s in sweeps) / len(sweeps) if sweeps else 0.0
            ),
            eccentricities=ecc,
        )
        self.counters.account(info)
        return dist, info


def _worker_main(spec: dict, use_lanes: bool, task_q, result_q) -> None:
    """Persistent worker loop: attach the shared CSR, serve chunk tasks.

    Module-level (spawn-importable); receives only queues and the shm
    spec. Each task carries the output segment's name, so the worker
    writes its distance rows directly into shared memory and sends back
    just the small per-chunk accounting.
    """
    graph, graph_seg = SharedCSR.attach(spec)
    kernel = TraversalKernel(graph)
    try:
        while True:
            task = task_q.get()
            if task is None:
                break
            task_id, out_name, total_rows, lo, srcs = task
            try:
                n = graph.num_vertices
                out_seg = attach_segment(out_name)
                try:
                    out = np.ndarray((total_rows, n), dtype=np.int32, buffer=out_seg.buf)
                    edges_before = kernel.workspace.stats.edges_examined
                    if use_lanes:
                        dist, sweeps = kernel.distance_batch(srcs, max_lanes=LANE_WIDTH)
                        out[lo : lo + len(srcs)] = dist
                        ecc = np.concatenate([s.eccentricities for s in sweeps])
                        nsweeps = len(sweeps)
                        occ = sum(s.lane_occupancy for s in sweeps)
                    else:
                        ecc = np.zeros(len(srcs), dtype=np.int64)
                        for i, s in enumerate(srcs.tolist()):
                            res = kernel.bfs(s, record_dist=True)
                            out[lo + i] = res.dist
                            ecc[i] = res.eccentricity
                            kernel.workspace.release_dist(res.dist)
                        nsweeps = len(srcs)
                        occ = float(len(srcs))
                    edges = kernel.workspace.stats.edges_examined - edges_before
                finally:
                    del out
                    out_seg.close()
                result_q.put(("ok", task_id, ecc, int(edges), nsweeps, occ))
            except BaseException as exc:  # report, keep serving
                result_q.put(("error", task_id, f"{type(exc).__name__}: {exc}", 0, 0, 0.0))
    finally:
        graph_seg.close()


class MultiprocessSweepExecutor(SweepExecutor):
    """Shared-memory worker pool: real parallelism over BFS sources.

    The CSR is copied once into a shared segment at construction;
    ``workers`` persistent processes attach read-only and stay warm
    (each holds its own pooled :class:`~repro.bfs.kernel.TraversalKernel`)
    across every :meth:`distance_rows` round. Per round, the sources
    are chunked with :func:`repro.parallel.chunking.chunk_bounds`, each
    chunk's rows are written into a per-round shared output block, and
    only the per-chunk eccentricity/edge accounting travels through the
    result queue. A worker dying mid-round is detected by liveness
    polling and raises :class:`~repro.errors.AlgorithmError`; all shm
    segments are unlinked on :meth:`close`, on error, and by the
    :mod:`repro.parallel.shm` atexit guard.
    """

    backend = "multiprocess"

    def __init__(
        self,
        graph: CSRGraph,
        *,
        workers: int,
        kernel: TraversalKernel | None = None,
        max_lanes: int = LANE_WIDTH,
        use_lanes: bool | None = None,
        start_method: str | None = None,
    ):
        super().__init__(graph, kernel=kernel)
        if workers < 2:
            raise AlgorithmError(f"multiprocess backend needs >= 2 workers, got {workers}")
        if max_lanes < 1:
            raise AlgorithmError(f"max_lanes must be >= 1, got {max_lanes}")
        import multiprocessing as mp

        self.max_lanes = max_lanes
        self._workers = workers
        self._failed = False
        if use_lanes is None:
            model = LevelSynchronousCostModel()
            estimate = model.estimate_diameter(
                graph.num_vertices, graph.num_directed_edges, graph.max_degree()
            )
            use_lanes = model.lane_batch_advisable(estimate, min(max_lanes, LANE_WIDTH))
        self.use_lanes = bool(use_lanes)

        method = start_method or default_start_method()
        self._ctx = mp.get_context(method)
        self.start_method = method
        self._shared = SharedCSR(graph)
        self._record_shm(self._shared.nbytes)
        self._task_q = self._ctx.Queue()
        self._result_q = self._ctx.Queue()
        self._procs = []
        try:
            for _ in range(workers):
                proc = self._ctx.Process(
                    target=_worker_main,
                    args=(self._shared.spec, self.use_lanes, self._task_q, self._result_q),
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise
        self._finalizer = weakref.finalize(
            self, MultiprocessSweepExecutor._cleanup, self._shared, self._procs
        )

    # ------------------------------------------------------------------
    @property
    def round_size(self) -> int:
        return self.max_lanes * self._workers if self.use_lanes else self._workers

    @property
    def workers(self) -> int:
        return self._workers

    def _record_shm(self, nbytes: int) -> None:
        stats = self.kernel.workspace.stats
        stats.shm_segments += 1
        stats.shm_bytes = max(stats.shm_bytes, stats.shm_resident + nbytes)
        stats.shm_resident += nbytes

    def _release_shm(self, nbytes: int) -> None:
        stats = self.kernel.workspace.stats
        stats.shm_resident -= nbytes

    def distance_rows(self, sources) -> tuple[np.ndarray, SweepInfo]:
        if self._failed:
            raise AlgorithmError("multiprocess sweep executor is closed")
        sources = self._check_sources(sources)
        k = len(sources)
        n = self.graph.num_vertices
        if k == 0:
            return np.empty((0, n), dtype=np.int32), SweepInfo(
                backend=self.backend,
                workers=self._workers,
                traversals=0,
                sweeps=0,
                edges_examined=0,
                lane_occupancy=0.0,
            )
        per_chunk = self.max_lanes if self.use_lanes else 1
        # Spread the round over the team, but never below one lane
        # sweep's worth of useful batching per task.
        per_chunk = max(1, min(per_chunk, -(-k // self._workers)))
        bounds = chunk_bounds(k, per_chunk)
        out_seg = create_segment(4 * k * n)
        self._record_shm(out_seg.size)
        try:
            for c in range(len(bounds) - 1):
                lo, hi = int(bounds[c]), int(bounds[c + 1])
                self._task_q.put((c, out_seg.name, k, lo, sources[lo:hi]))
            num_tasks = len(bounds) - 1
            ecc = np.zeros(k, dtype=np.int64)
            edges = 0
            nsweeps = 0
            occ_sum = 0.0
            done = 0
            while done < num_tasks:
                try:
                    msg = self._result_q.get(timeout=_POLL_S)
                except _queue.Empty:
                    dead = [p.pid for p in self._procs if not p.is_alive()]
                    if dead:
                        self._failed = True
                        raise AlgorithmError(
                            f"sweep worker(s) {dead} died mid-round; "
                            "results are incomplete"
                        ) from None
                    self.kernel.check_deadline()
                    continue
                status, task_id, payload, task_edges, task_sweeps, task_occ = msg
                if status != "ok":
                    self._failed = True
                    raise AlgorithmError(f"sweep worker failed: {payload}")
                lo = int(bounds[task_id])
                hi = int(bounds[task_id + 1])
                ecc[lo:hi] = payload
                edges += task_edges
                nsweeps += task_sweeps
                occ_sum += task_occ
                done += 1
            view = np.ndarray((k, n), dtype=np.int32, buffer=out_seg.buf)
            dist = view.copy()
            del view
        finally:
            self._release_shm(out_seg.size)
            destroy_segment(out_seg)
            if self._failed:
                self.close()
        info = SweepInfo(
            backend=self.backend,
            workers=self._workers,
            traversals=k,
            sweeps=nsweeps,
            edges_examined=edges,
            lane_occupancy=occ_sum / nsweeps if nsweeps else 0.0,
            eccentricities=ecc,
        )
        self.counters.account(info)
        return dist, info

    def close(self) -> None:
        procs = getattr(self, "_procs", [])
        for _ in procs:
            try:
                self._task_q.put(None)
            except (OSError, ValueError):
                break
        for proc in procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for q in (getattr(self, "_task_q", None), getattr(self, "_result_q", None)):
            if q is not None:
                try:
                    q.close()
                    q.cancel_join_thread()
                except (OSError, ValueError):
                    pass
        shared = getattr(self, "_shared", None)
        if shared is not None and shared._seg is not None:
            self._release_shm(shared.nbytes)
            shared.close()
            shared._seg = None
        finalizer = getattr(self, "_finalizer", None)
        if finalizer is not None:
            finalizer.detach()
        self._failed = True

    @staticmethod
    def _cleanup(shared, procs) -> None:  # pragma: no cover - gc backstop
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        if shared._seg is not None:
            shared.close()


def create_executor(
    graph: CSRGraph,
    *,
    workers: int = 1,
    batch_lanes: int = LANE_WIDTH,
    backend: str = "auto",
    kernel: TraversalKernel | None = None,
    model: LevelSynchronousCostModel | None = None,
    start_method: str | None = None,
) -> SweepExecutor:
    """Build the right :class:`SweepExecutor` for a fan-out workload.

    ``backend="auto"`` delegates to
    :meth:`LevelSynchronousCostModel.choose_backend` with the graph's
    structural estimate and ``batch_lanes * max(workers, 1)`` expected
    sources per round. Degradation is graceful and warned, never
    fatal: a ``multiprocess`` request without usable shared memory (or
    whose pool fails to start) falls back to ``bitparallel``, and a
    single-worker ``multiprocess`` request is served in-process.
    """
    if workers < 1:
        raise AlgorithmError(f"workers must be >= 1, got {workers}")
    if batch_lanes < 1:
        raise AlgorithmError(f"batch_lanes must be >= 1, got {batch_lanes}")
    if backend == "auto":
        model = model or LevelSynchronousCostModel()
        backend = model.choose_backend(
            num_sources=batch_lanes * max(workers, 1),
            num_vertices=graph.num_vertices,
            num_directed_edges=graph.num_directed_edges,
            max_degree=graph.max_degree(),
            workers=workers,
            lanes=min(batch_lanes, LANE_WIDTH),
            shm_ok=shm_available(),
        )
    if backend == "multiprocess":
        if workers < 2:
            backend = "bitparallel"
        elif not shm_available():
            warnings.warn(
                "shared memory unavailable; multiprocess sweep backend "
                "falling back to bitparallel",
                stacklevel=2,
            )
            backend = "bitparallel"
        else:
            try:
                return MultiprocessSweepExecutor(
                    graph,
                    workers=workers,
                    kernel=kernel,
                    max_lanes=batch_lanes,
                    start_method=start_method,
                )
            except (OSError, AlgorithmError) as exc:
                warnings.warn(
                    f"multiprocess sweep pool failed to start ({exc}); "
                    "falling back to bitparallel",
                    stacklevel=2,
                )
                backend = "bitparallel"
    if backend == "bitparallel":
        return BitparallelSweepExecutor(graph, kernel=kernel, max_lanes=batch_lanes)
    if backend == "serial":
        return SerialSweepExecutor(graph, kernel=kernel)
    raise AlgorithmError(
        f"unknown sweep backend {backend!r}; "
        "expected auto, serial, bitparallel, or multiprocess"
    )


def process_map(func, items, *, workers: int = 1, start_method: str | None = None) -> list:
    """Map ``func`` over ``items`` with a throwaway worker pool.

    The fan-out primitive for *non-graph* independent work (the fuzz
    campaign's trial battery): tasks must be picklable and ``func``
    module-level. ``workers <= 1``, a single item, or an unusable
    multiprocessing environment degrade to an in-process map, so the
    result is always exactly ``[func(x) for x in items]`` in order —
    callers never need to care which path ran.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [func(x) for x in items]
    import multiprocessing as mp

    try:
        ctx = mp.get_context(start_method or default_start_method())
        chunk = max(1, -(-len(items) // (workers * 2)))
        with ctx.Pool(processes=min(workers, len(items))) as pool:
            return pool.map(func, items, chunksize=chunk)
    except (OSError, ValueError) as exc:
        warnings.warn(
            f"process pool unavailable ({exc}); running trials in-process",
            stacklevel=2,
        )
        return [func(x) for x in items]
