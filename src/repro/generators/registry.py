"""Registry of the 17 paper-input analogs (paper Table 1).

The paper evaluates on 17 real-world and synthetic graphs up to 50 M
vertices. Those exact files are not available offline, so each input is
replaced by a *synthetic analog of the same topology class* at a size
feasible on this machine (see DESIGN.md §2 for the substitution
rationale). What each analog preserves — diameter regime, degree skew,
hub structure, chain content, isolated-vertex fraction — is what drives
the paper's results.

All analogs are deterministic (fixed seeds) so benchmark runs are
reproducible, and built lazily with a module-level cache so repeated
benchmark phases share one instance.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.generators.chains import add_tendrils
from repro.generators.perturb import (
    add_isolated_vertices,
    disjoint_union,
    permute_vertices,
)
from repro.generators.citation import citation_graph
from repro.generators.delaunay import delaunay_graph
from repro.generators.grid import grid_2d
from repro.generators.kronecker import kronecker
from repro.generators.powerlaw import (
    barabasi_albert,
    copying_model,
    scale_free,
    scale_free_chunked,
)
from repro.generators.primitives import (
    balanced_tree,
    barbell,
    caterpillar,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from repro.generators.rmat import rmat
from repro.generators.road import road_network, road_network_chunked
from repro.graph.build import from_edge_arrays
from repro.graph.csr import CSRGraph
from repro.graph.io import load_npz, save_npz
from repro.graph.subgraph import induced_subgraph

__all__ = [
    "AnalogSpec",
    "PAPER_ANALOGS",
    "SCALE_ANALOGS",
    "FUZZ_FAMILIES",
    "build_analog",
    "build_scale_analog",
    "build_fuzz_graph",
    "clear_cache",
]


@dataclass(frozen=True)
class AnalogSpec:
    """One paper input and the synthetic analog standing in for it.

    Attributes
    ----------
    paper_name:
        The input's name in the paper's Table 1.
    topology:
        The paper's "type" column (topology class being preserved).
    paper_vertices, paper_diameter:
        The original's size and CC diameter, for the EXPERIMENTS.md
        comparison tables.
    factory:
        Zero-argument callable building the analog.
    """

    paper_name: str
    topology: str
    paper_vertices: int
    paper_diameter: int
    factory: Callable[[], CSRGraph]


def _spec(paper_name, topology, paper_vertices, paper_diameter, factory):
    return AnalogSpec(paper_name, topology, paper_vertices, paper_diameter, factory)


# Small-world analogs are built as <dense core> + <thin tendrils>: at
# laptop scale a bare preferential-attachment/copying core has diameter
# ~5, whereas the paper's SNAP/web inputs owe their diameters of 20-45
# to sparse peripheral chains. A few dozen tendrils (< 2 % of the
# vertices) restore the real degree/diameter regime — and with it the
# paper's Winnow/Eliminate behaviour. See add_tendrils() for details.


#: The 17 inputs of the paper's Table 1, in the paper's order.
PAPER_ANALOGS: dict[str, AnalogSpec] = {
    "2d-2e20.sym": _spec(
        "2d-2e20.sym", "grid", 1_048_576, 2_046,
        lambda: grid_2d(181, 181, name="2d-2e20.sym"),
    ),
    "amazon0601": _spec(
        "amazon0601", "product co-purchases", 403_394, 25,
        lambda: permute_vertices(
            add_tendrils(barabasi_albert(20_000, 6, seed=601), 40, 4, 10, seed=601),
            seed=601, name="amazon0601",
        ),
    ),
    "as-skitter": _spec(
        "as-skitter", "Internet topology", 1_696_415, 31,
        lambda: permute_vertices(
            add_tendrils(barabasi_albert(30_000, 7, seed=31), 50, 5, 13, seed=31),
            seed=31, name="as-skitter",
        ),
    ),
    "citationCiteSeer": _spec(
        "citationCiteSeer", "publication citations", 268_495, 36,
        lambda: permute_vertices(
            add_tendrils(citation_graph(15_000, 4.3, seed=36), 30, 6, 14, seed=36),
            seed=36, name="citationCiteSeer",
        ),
    ),
    "cit-Patents": _spec(
        "cit-Patents", "patent citations", 3_774_768, 26,
        lambda: permute_vertices(
            add_tendrils(
                citation_graph(
                    40_000, 4.4, recency_prob=0.65, window=400, seed=26
                ),
                60, 3, 8, seed=26,
            ),
            seed=26, name="cit-Patents",
        ),
    ),
    "coPapersDBLP": _spec(
        "coPapersDBLP", "publication citations", 540_486, 23,
        lambda: permute_vertices(
            add_tendrils(
                copying_model(12_000, 28, copy_prob=0.75, seed=23), 30, 4, 9, seed=23
            ),
            seed=23, name="coPapersDBLP",
        ),
    ),
    "delaunay_n24": _spec(
        "delaunay_n24", "triangulation", 16_777_216, 1_722,
        lambda: delaunay_graph(30_000, seed=24, name="delaunay_n24"),
    ),
    "europe_osm": _spec(
        "europe_osm", "road map", 50_912_018, 30_102,
        lambda: road_network(
            120, 120, edge_keep=0.75, chain_fraction=0.25, chain_length=5,
            seed=302, name="europe_osm",
        ),
    ),
    "in-2004": _spec(
        "in-2004", "web links", 1_382_908, 43,
        lambda: permute_vertices(
            add_tendrils(
                copying_model(20_000, 10, copy_prob=0.7, seed=2004), 25, 6, 20, seed=2004
            ),
            seed=2004, name="in-2004",
        ),
    ),
    "internet": _spec(
        "internet", "Internet topology", 124_651, 30,
        lambda: permute_vertices(
            add_tendrils(barabasi_albert(8_000, 2, seed=124), 30, 4, 11, seed=124),
            seed=124, name="internet",
        ),
    ),
    "kron_g500-logn21": _spec(
        "kron_g500-logn21", "Kronecker", 2_097_152, 7,
        lambda: kronecker(14, 20, seed=21, name="kron_g500-logn21"),
    ),
    "rmat16.sym": _spec(
        "rmat16.sym", "RMAT", 65_536, 14,
        lambda: add_tendrils(
            rmat(13, 8, seed=16), 25, 2, 5, seed=16, name="rmat16.sym"
        ),
    ),
    "rmat22.sym": _spec(
        "rmat22.sym", "RMAT", 4_194_304, 18,
        lambda: add_tendrils(
            rmat(15, 8, seed=22), 40, 2, 7, seed=22, name="rmat22.sym"
        ),
    ),
    "soc-LiveJournal1": _spec(
        "soc-LiveJournal1", "journal community", 4_847_571, 20,
        lambda: permute_vertices(
            add_tendrils(barabasi_albert(40_000, 9, seed=1), 50, 3, 8, seed=1),
            seed=1, name="soc-LiveJournal1",
        ),
    ),
    "uk-2002": _spec(
        "uk-2002", "web links", 18_520_486, 45,
        lambda: permute_vertices(
            add_tendrils(
                copying_model(40_000, 14, copy_prob=0.72, seed=2002), 25, 8, 21, seed=2002
            ),
            seed=2002, name="uk-2002",
        ),
    ),
    "USA-road-d.NY": _spec(
        "USA-road-d.NY", "road map", 264_346, 720,
        lambda: road_network(
            60, 60, edge_keep=0.85, chain_fraction=0.2, chain_length=3,
            seed=720, name="USA-road-d.NY",
        ),
    ),
    "USA-road-d.USA": _spec(
        "USA-road-d.USA", "road map", 23_947_347, 8_440,
        lambda: road_network(
            150, 150, edge_keep=0.8, chain_fraction=0.25, chain_length=4,
            seed=8440, name="USA-road-d.USA",
        ),
    ),
}

#: The million-vertex benchmark tier. These are NOT paper Table 1
#: inputs — they are the compressed-store stress workloads (ISSUE 7):
#: one road/mesh analog and one power-law analog at ~10^6 vertices /
#: >10^6 edges each, the scale where bytes-per-edge and
#: store-vs-in-memory wall time stop being noise. Every generator used
#: here is fully vectorized (``road_network``, :func:`scale_free`);
#: the sequential-attachment processes would take minutes at this
#: size. ``paper_vertices`` records the analog's own nominal scale and
#: ``paper_diameter`` is 0 (there is no paper row to compare against).
SCALE_ANALOGS: dict[str, AnalogSpec] = {
    "road-1M": _spec(
        "road-1M (scale tier)", "road map", 1_000_000, 0,
        lambda: road_network(
            576, 576, edge_keep=0.8, chain_fraction=0.3, chain_length=4,
            seed=1_000_001, name="road-1M",
        ),
    ),
    "powerlaw-1M": _spec(
        "powerlaw-1M (scale tier)", "power law", 1_000_000, 0,
        lambda: scale_free(
            1_000_000, avg_degree=3.2, exponent=2.3,
            seed=1_000_002, name="powerlaw-1M",
        ),
    ),
    # The 10^7-edge out-of-core tier (ISSUE 8): both analogs are grown
    # through the chunked generators + from_edge_chunks, so generation
    # never materializes more than O(chunk) COO edges — the whole point
    # of the tier is exercising the streaming encoder at a scale where
    # the decoded CSR is hundreds of megabytes. ``chunk_edges``/``band_rows`` are part of
    # each graph's definition and must stay pinned with the seed.
    "road-10M": _spec(
        "road-10M (scale tier)", "road map", 8_400_000, 0,
        lambda: road_network_chunked(
            1_700, 1_700, edge_keep=0.8, chain_fraction=0.3, chain_length=4,
            seed=10_000_001, band_rows=128, name="road-10M",
        ),
    ),
    "powerlaw-10M": _spec(
        "powerlaw-10M (scale tier)", "power law", 3_000_000, 0,
        lambda: scale_free_chunked(
            3_000_000, avg_degree=6.6, exponent=2.3,
            seed=10_000_002, chunk_edges=1 << 20, name="powerlaw-10M",
        ),
    ),
}

_CACHE: dict[str, CSRGraph] = {}
_SCALE_CACHE: dict[str, CSRGraph] = {}


def build_analog(name: str) -> CSRGraph:
    """Build (or fetch the cached) analog for a paper input name."""
    if name not in PAPER_ANALOGS:
        raise KeyError(
            f"unknown paper input {name!r}; known: {sorted(PAPER_ANALOGS)}"
        )
    if name not in _CACHE:
        _CACHE[name] = PAPER_ANALOGS[name].factory()
    return _CACHE[name]


def build_scale_analog(name: str) -> CSRGraph:
    """Build (or fetch the cached) million-vertex tier workload.

    Cached separately from the paper analogs: a scale-tier graph is
    tens of megabytes, and :func:`clear_cache` drops both caches so
    tests and bench stages can bound memory the same way either way.

    When the ``REPRO_ANALOG_CACHE`` environment variable names a
    directory, built analogs are additionally persisted there as
    ``<name>.npz`` and reloaded on later calls — the CI jobs share one
    directory (keyed on the generator-source hash, so a generator edit
    invalidates it) to pay each analog's generation cost once per
    cache key instead of once per job. All analogs are deterministic,
    so a reload is bit-identical to a rebuild.
    """
    if name not in SCALE_ANALOGS:
        raise KeyError(
            f"unknown scale-tier input {name!r}; known: {sorted(SCALE_ANALOGS)}"
        )
    if name not in _SCALE_CACHE:
        cache_dir = os.environ.get("REPRO_ANALOG_CACHE")
        cache_path = None
        if cache_dir:
            cache_path = os.path.join(cache_dir, f"{name}.npz")
            if os.path.exists(cache_path):
                _SCALE_CACHE[name] = load_npz(cache_path).with_name(name)
                return _SCALE_CACHE[name]
        graph = SCALE_ANALOGS[name].factory()
        if cache_path is not None:
            os.makedirs(cache_dir, exist_ok=True)
            save_npz(graph, cache_path)
        _SCALE_CACHE[name] = graph
    return _SCALE_CACHE[name]


def clear_cache() -> None:
    """Drop all cached analogs (tests use this to bound memory)."""
    _CACHE.clear()
    _SCALE_CACHE.clear()


# ----------------------------------------------------------------------
# Seeded fuzz families (repro.verify)
# ----------------------------------------------------------------------
# Every family is a pure function of the ``numpy`` Generator it is
# handed, so a fuzz trial is replayed *exactly* by its integer seed —
# the fuzzer records nothing but the seed and the family name. The mix
# deliberately spans the regimes the solver branches on: high-diameter
# paths/grids, hub-and-spoke stars, dense cliques, pendant chains for
# Chain Processing, disconnected unions, and isolated vertices.


def _fuzz_gnp(rng: np.random.Generator, max_n: int) -> CSRGraph:
    """G(n, p) built from numpy alone (no networkx dependency)."""
    n = int(rng.integers(2, max_n + 1))
    # Expected degree between ~1 (shattered) and ~4 (mostly connected).
    p = float(rng.uniform(0.5, 4.0)) / max(n - 1, 1)
    src, dst = np.triu_indices(n, k=1)
    keep = rng.random(len(src)) < p
    return from_edge_arrays(
        src[keep].astype(np.int64), dst[keep].astype(np.int64), n, "fuzz-gnp"
    )


def _fuzz_path(rng, max_n):
    return path_graph(int(rng.integers(1, max_n + 1)), name="fuzz-path")


def _fuzz_cycle(rng, max_n):
    return cycle_graph(int(rng.integers(3, max(4, max_n + 1))), name="fuzz-cycle")


def _fuzz_star(rng, max_n):
    return star_graph(int(rng.integers(2, max_n + 1)), name="fuzz-star")


def _fuzz_complete(rng, max_n):
    return complete_graph(int(rng.integers(1, min(12, max_n) + 1)), name="fuzz-complete")


def _fuzz_tree(rng, max_n):
    branching = int(rng.integers(1, 4))
    height = int(rng.integers(1, 5 if branching > 1 else max(2, max_n // 2)))
    return balanced_tree(branching, height, name="fuzz-tree")


def _fuzz_caterpillar(rng, max_n):
    spine = int(rng.integers(2, max(3, max_n // 3)))
    return caterpillar(spine, int(rng.integers(1, 4)), name="fuzz-caterpillar")


def _fuzz_barbell(rng, max_n):
    clique = int(rng.integers(2, 7))
    return barbell(clique, int(rng.integers(1, max(2, max_n // 3))), name="fuzz-barbell")


def _fuzz_grid(rng, max_n):
    rows = int(rng.integers(1, 9))
    cols = int(rng.integers(1, max(2, max_n // max(rows, 1)) + 1))
    return grid_2d(rows, cols, name="fuzz-grid")


def _fuzz_tendril_ba(rng, max_n):
    """A small hub core with pendant tendrils (chain + winnow exercise)."""
    core = int(rng.integers(4, max(5, max_n // 2)))
    g = barabasi_albert(core, int(rng.integers(1, 3)), seed=int(rng.integers(2**31)))
    return add_tendrils(
        g,
        count=int(rng.integers(1, 6)),
        min_len=1,
        max_len=int(rng.integers(2, 6)),
        seed=int(rng.integers(2**31)),
        name="fuzz-tendril-ba",
    )


def _fuzz_union(rng, max_n):
    """Disjoint union of two smaller family members (disconnected path)."""
    half = max(2, max_n // 2)
    parts = [
        _SMALL_FAMILIES[rng.integers(len(_SMALL_FAMILIES))](rng, half)
        for _ in range(int(rng.integers(2, 4)))
    ]
    return disjoint_union(parts, name="fuzz-union")


def _fuzz_edgeless(rng, max_n):
    """Isolated vertices only — diameter 0, fully disconnected."""
    n = int(rng.integers(1, max_n + 1))
    empty = np.empty(0, dtype=np.int64)
    return from_edge_arrays(empty, empty, n, "fuzz-edgeless")


_SMALL_FAMILIES = [
    _fuzz_gnp,
    _fuzz_path,
    _fuzz_cycle,
    _fuzz_star,
    _fuzz_complete,
    _fuzz_tree,
    _fuzz_caterpillar,
    _fuzz_barbell,
    _fuzz_grid,
    _fuzz_tendril_ba,
]

#: Name → seeded factory ``(rng, max_vertices) -> CSRGraph``.
FUZZ_FAMILIES: dict[str, Callable[[np.random.Generator, int], CSRGraph]] = {
    "gnp": _fuzz_gnp,
    "path": _fuzz_path,
    "cycle": _fuzz_cycle,
    "star": _fuzz_star,
    "complete": _fuzz_complete,
    "tree": _fuzz_tree,
    "caterpillar": _fuzz_caterpillar,
    "barbell": _fuzz_barbell,
    "grid": _fuzz_grid,
    "tendril-ba": _fuzz_tendril_ba,
    "union": _fuzz_union,
    "edgeless": _fuzz_edgeless,
}


def build_fuzz_graph(
    seed: int, *, max_vertices: int = 64
) -> tuple[CSRGraph, str]:
    """Sample one fuzz graph, fully determined by ``seed``.

    Picks a family, builds it from a ``default_rng(seed)`` stream, and
    applies seeded mutations (extra isolated vertices, a random vertex
    relabeling) with small probability. Returns ``(graph, family)``;
    re-calling with the same seed and cap reproduces the graph
    byte-for-byte, which is what makes every fuzz failure replayable
    from its seed alone.
    """
    rng = np.random.default_rng(seed)
    names = list(FUZZ_FAMILIES)
    family = names[int(rng.integers(len(names)))]
    cap = max(2, max_vertices)
    graph = FUZZ_FAMILIES[family](rng, cap)
    if graph.num_vertices > cap:
        # Families treat the cap as a sizing hint; enforce it exactly so
        # callers (and the shrinker's budget) can rely on it.
        graph = induced_subgraph(
            graph, np.arange(cap, dtype=np.int64)
        ).graph.with_name(graph.name)
    if rng.random() < 0.25:
        graph = add_isolated_vertices(graph, int(rng.integers(1, 4)))
    if rng.random() < 0.5 and graph.num_vertices > 1:
        graph = permute_vertices(graph, seed=int(rng.integers(2**31)))
    return graph.with_name(f"fuzz-{family}-{seed}"), family
