"""Incremental extension of eliminated regions (paper §4.5).

When the main loop discovers a new, larger diameter bound, every
previously computed eccentricity and recorded upper bound is now
strictly below the bound, so the regions around those vertices can be
pruned deeper. Re-running Eliminate from every prior vertex would cost
a traversal per vertex; F-Diam instead exploits the recorded upper
bounds: all vertices whose recorded bound equals the *old* bound value
become the seed set of **one** partial, multi-source, level-synchronous
BFS that expands ``new_bound - old_bound`` levels, assigning level ``k``
the upper bound ``old_bound + k``. The cost is thus "independent of the
number of prior evaluated vertices".

Seeds with recorded bounds *below* the old bound need no special
handling: the regions around them were already expanded to depth
``old_bound - recorded`` when they were recorded, and the vertices on
that expansion's last level carry bound ``old_bound`` — so they are in
the seed set and continue the wave exactly where it stopped.

The wave is the kernel's scalar top-down :meth:`levels` loop, the same
primitive Winnow and Eliminate use (see DESIGN.md §8 for why it is not
run on the 64-lane machinery).
"""

from __future__ import annotations

import numpy as np

from repro.core.state import FDiamState
from repro.core.stats import Reason

__all__ = ["extend_eliminated"]


def extend_eliminated(state: FDiamState, old_bound: int, new_bound: int) -> int:
    """Extend all eliminated regions after a bound upgrade.

    Returns the number of vertices written by the extension sweep.
    """
    depth = new_bound - old_bound
    if depth <= 0:
        return 0
    seeds = np.flatnonzero(state.status == old_bound)
    if len(seeds) == 0:
        return 0
    state.stats.eliminate_calls += 1
    levels = state.kernel.levels(seeds, depth)
    state.remove_levels(levels, base=old_bound, reason=Reason.ELIMINATE)
    if state.oracle is not None:
        state.oracle.check_stage(state, "extend")
    return sum(len(level) for level in levels)
