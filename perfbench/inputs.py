"""Benchmark inputs: the 17 paper analogs and the serve tenants.

The paper inputs are the pinned analogs of ``repro.generators.registry``
(paper Table 1). The benchmark seed relabels their vertices with a
seeded random permutation: every seed runs the same 17 graphs up to
isomorphism, so the diameters stay fixed while vertex order, tie-breaks
and memory layout change. (Drawing fresh graphs from the recipes'
generator seeds instead moved the high-diameter inputs' BFS counts by
up to a third between seeds: ``delaunay_n24`` took 214--321 BFS.)
"""

from __future__ import annotations

from repro.generators.perturb import permute_vertices
from repro.generators.registry import PAPER_ANALOGS, build_analog
from repro.generators.road import road_network

#: The five inputs in the high-diameter regime (hundreds of thin BFS
#: levels); the other twelve are small-world (few, wide levels).
HIGH_DIAMETER = ("2d-2e20.sym", "delaunay_n24", "europe_osm", "USA-road-d.NY",
                 "USA-road-d.USA")

#: name -> regime, in the paper's order.
PAPER17 = {name: "high-diameter" if name in HIGH_DIAMETER else "small-world"
           for name in PAPER_ANALOGS}


def relabel(graph, seed: int, variant: int = 0):
    """``graph`` with its vertices relabeled by the benchmark seed.

    ``variant`` numbers further labelings drawn from the same seed.
    """
    key = [0xD1A, seed % (1 << 63)] + ([variant] if variant else [])
    return permute_vertices(graph, seed=key, name=graph.name)


def _road(rows, cols, keep, frac, length, seed, name):
    return road_network(
        rows, cols, edge_keep=keep, chain_fraction=frac, chain_length=length,
        seed=seed, name=name,
    )


#: Serve tenants: key -> (file format, builder). The internet-like and
#: small road tenants are stored as uncompressed ``.npz``; the larger
#: road tenant as ``.scsr`` so a decoded-block budget applies to it.
SERVE_TENANTS = {
    "internet": ("npz", lambda: build_analog("internet")),
    "road": ("npz", lambda: _road(40, 40, 0.85, 0.2, 3, 720, "road")),
    "road-big": ("scsr", lambda: _road(55, 55, 0.8, 0.25, 4, 8440, "road-big")),
}

#: Churn tenants (``repro serve --mutable``, no resident budget). The
#: road tenant is smaller than serve-zipf's: every write there forces a
#: cold recompute on the server and in the audit.
CHURN_TENANTS = {
    "internet": SERVE_TENANTS["internet"],
    "road": ("npz", lambda: _road(30, 30, 0.85, 0.2, 3, 720, "road")),
}
