"""Exactness-preserving graph reductions and vertex reorderings (DESIGN.md §9).

* :mod:`repro.prep.peel` — pendant-tree peeling: replace every tree
  hanging off the 2-core by a single spine path and fold purely-internal
  tree distances into a correction term.
* :mod:`repro.prep.mirror` — mirror-vertex collapsing: vertices with
  identical open/closed neighborhoods keep one representative with a
  recorded multiplicity.
* :mod:`repro.prep.pipeline` — :func:`preprocess`, peel then collapse
  under one :class:`PrepSpec` (:mod:`repro.prep.plan`).
* :mod:`repro.prep.reorder` — degree-descending / BFS / RCM vertex
  permutations as an explicit layer over ``CSRGraph``, used by
  ``repro convert --reorder``.

F-Diam itself calls none of them: its Chain Processing already handles
the pendant chains, and the reductions cost more than they saved on
every measured input (DESIGN.md §9).
"""

from repro.prep.mirror import MirrorResult, collapse_mirrors
from repro.prep.peel import PeelResult, peel_pendant_trees
from repro.prep.pipeline import Prepared, preprocess
from repro.prep.plan import PrepSpec
from repro.prep.reorder import (
    ORDER_STRATEGIES,
    Reordering,
    apply_order,
    bfs_order,
    degree_order,
    edge_span,
    rcm_order,
)

__all__ = [
    "MirrorResult",
    "ORDER_STRATEGIES",
    "PeelResult",
    "Prepared",
    "PrepSpec",
    "Reordering",
    "apply_order",
    "bfs_order",
    "collapse_mirrors",
    "degree_order",
    "edge_span",
    "peel_pendant_trees",
    "preprocess",
    "rcm_order",
]
