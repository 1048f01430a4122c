"""Exactness-preserving preprocessing before :func:`repro.core.fdiam.fdiam`.

The structure-aware reduction & reordering pipeline (DESIGN.md §9):

* :mod:`repro.prep.peel` — pendant-tree peeling (generalized Chain
  Processing): replace every tree hanging off the 2-core by a single
  spine path and fold purely-internal tree distances into a correction
  term.
* :mod:`repro.prep.mirror` — mirror-vertex collapsing: vertices with
  identical open/closed neighborhoods keep one representative with a
  recorded multiplicity.
* :mod:`repro.prep.reorder` — degree-descending / BFS / RCM vertex
  permutations as an explicit layer over ``CSRGraph``, with results
  mapped back to original ids.
* :mod:`repro.prep.plan` — the ``--prep`` grammar and the
  per-component planner (reorder strategy, chain-tip lane batching)
  backed by the parallel cost model.
* :mod:`repro.prep.pipeline` — the driver gluing it all together and
  merging per-component results under the disconnected-input
  "infinity + largest component eccentricity" convention.

Every stage is exact: ``fdiam(graph, FDiamConfig(prep="auto"))``
returns the identical diameter (and infinity flag) as the plain run.
"""

from repro.prep.mirror import MirrorResult, collapse_mirrors
from repro.prep.peel import PeelResult, peel_pendant_trees
from repro.prep.pipeline import Prepared, fdiam_prepped, preprocess
from repro.prep.plan import ComponentPlan, PrepSpec, plan_component
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
    "ComponentPlan",
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
    "fdiam_prepped",
    "peel_pendant_trees",
    "plan_component",
    "preprocess",
    "rcm_order",
]
