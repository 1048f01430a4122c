"""The Eliminate operation (paper §4.4, Algorithm 5).

Classic triangle-inequality pruning (Theorem 1): once ``ecc(x)`` is
known and ``s = bound - ecc(x) > 0``, every vertex within ``s`` steps of
``x`` has eccentricity at most ``bound`` and can never raise the bound,
so its eccentricity need not be computed. Each discovered level ``k``
records the upper bound ``ecc + k`` in the vertex's status slot — that
recorded value is what the incremental extension of §4.5 keys on.

The paper runs Eliminate serially even in the parallel code ("Since
this code tends to only execute a couple of iterations with just a few
elements on the worklist, F-Diam runs it serially"); this reproduction
uses the shared scalar partial-BFS level expansion
(:meth:`~repro.bfs.kernel.TraversalKernel.levels`) for both engines,
which is the same level-synchronous computation.
"""

from __future__ import annotations

from repro.core.state import FDiamState
from repro.core.stats import Reason

__all__ = ["eliminate"]


def eliminate(
    state: FDiamState,
    source: int,
    ecc: int,
    bound: int,
    *,
    reason: Reason = Reason.ELIMINATE,
    mark_source: bool = False,
) -> int:
    """Remove every vertex within ``bound - ecc`` steps of ``source``.

    Parameters
    ----------
    state:
        The run state (status slots, visit counter, stats).
    source:
        Starting vertex. Its own status is written only when
        ``mark_source`` is set (Chain Processing needs that; the main
        loop has already recorded the source's true eccentricity).
    ecc:
        Eccentricity (or pseudo-eccentricity, for chains) of ``source``.
    bound:
        Current diameter bound; the traversal expands ``bound - ecc``
        levels, assigning level ``k`` the upper bound ``ecc + k``.
    reason:
        Attribution for Table 4 (Chain Processing passes
        ``Reason.CHAIN`` for its internal Eliminate calls, matching how
        the paper credits those removals to the Chain stage).
    mark_source:
        Also write ``ecc`` into the source's own status slot.

    Returns
    -------
    int
        Number of vertices whose status was written (the "number of BFS
        calls eliminated" if they were still active).
    """
    if mark_source:
        state.remove(source, ecc, reason)
    depth = bound - ecc
    if depth <= 0:
        return 1 if mark_source else 0
    state.stats.eliminate_calls += 1
    levels = state.kernel.levels([source], depth)
    state.remove_levels(levels, base=ecc, reason=reason)
    if state.oracle is not None:
        state.oracle.check_eliminate(state, source, ecc, levels)
        state.oracle.check_stage(state, "eliminate")
    removed = sum(len(level) for level in levels)
    return removed + (1 if mark_source else 0)
