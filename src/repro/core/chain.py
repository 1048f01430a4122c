"""Chain Processing (paper §4.3, Algorithm 4) — F-Diam's second novelty.

A degree-1 vertex ``x`` routes every shortest path through its single
neighbour, so ``ecc(x) = ecc(y) + 1`` for its neighbour ``y`` (in any
component with more than one edge). Following a run of degree-2
vertices ("the chain, which looks like a linked list") from ``x`` to the
first vertex ``w`` of degree ≠ 2 generalizes this: with chain length
``s``, either some other vertex sits at distance ``s`` from ``w`` and
``ecc(w) = ecc(x) - s``, or the subtree hanging off ``w`` is shallower
than ``s`` and ``x`` has the globally maximal eccentricity. In **both**
cases every vertex within ``s`` steps of ``w`` — except ``x`` itself —
is dominated by ``x`` and can be removed without computing a single
eccentricity.

Algorithm 4 realizes the removal as one Eliminate call per chain with
the pseudo-eccentricity ``MAX - s`` and pseudo-bound ``MAX`` (expanding
exactly ``s`` levels around the anchor) and re-activates the tip
afterwards. This implementation batches all chains into a **single
staggered multi-source partial BFS**: the anchor of a length-``s``
chain enters the frontier at offset ``max_len - s``, so a vertex first
discovered at wave step ``k`` receives the bound
``MAX - max_len + k = min_i (MAX - s_i + d(anchor_i, v))`` — exactly
the element-wise minimum of the per-chain Eliminate writes that the
sequential Algorithm 4 produces under this library's tightest-bound
write rule. The removed set (the union of the per-chain balls) is
identical; the only divergence is that *every* chain tip stays active,
whereas sequential processing lets a later chain's ball swallow an
earlier tip — keeping strictly more witnesses is always safe, and it
turns up to ``#chains`` near-full traversals into one.
"""

from __future__ import annotations

import numpy as np

from repro.bfs.bitparallel import LANE_WIDTH
from repro.core.state import MAX_BOUND, FDiamState, ecc_batch_size
from repro.core.stats import Reason
from repro.graph.degrees import degree_one_vertices

__all__ = ["process_chains", "walk_chains", "follow_chain", "batch_tip_eccentricities"]


def walk_chains(state: FDiamState, tips: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walk the degree-2 chains of all degree-1 ``tips`` in lockstep.

    Returns ``(anchors, lengths)``: per tip, the first vertex of degree
    ≠ 2 reached and the number of edges walked. Each step advances
    every tip still on a degree-2 vertex by one edge with array
    operations, so the walk costs one NumPy pass per step of the
    longest chain instead of a Python loop per tip. Termination is
    guaranteed because a degree-2 run starting at a degree-1 vertex
    cannot close a cycle (a cycle entry vertex would need degree ≥ 3).
    """
    graph = state.graph
    indptr, indices, degrees = graph.indptr, graph.indices, graph.degrees
    prev = np.asarray(tips, dtype=np.int64).copy()
    node = indices[indptr[prev]].astype(np.int64)
    lengths = np.ones(len(prev), dtype=np.int64)
    walking = np.flatnonzero(degrees[node] == 2)
    while len(walking):
        here = node[walking]
        first = indices[indptr[here]]
        # Step to the neighbour we did not come from.
        nxt = np.where(first == prev[walking], indices[indptr[here] + 1], first)
        prev[walking] = here
        node[walking] = nxt
        lengths[walking] += 1
        walking = walking[degrees[nxt] == 2]
    return node, lengths


def follow_chain(state: FDiamState, tip: int) -> tuple[int, int]:
    """``(anchor, length)`` of the chain at degree-1 vertex ``tip``.

    The one-tip form of :func:`walk_chains`.
    """
    anchors, lengths = walk_chains(state, np.array([tip]))
    return int(anchors[0]), int(lengths[0])


def process_chains(state: FDiamState) -> int:
    """Run Chain Processing over every degree-1 vertex.

    Returns the number of chains processed. All removals are attributed
    to the Chain stage (paper Table 4 credits them there even though
    they flow through the Eliminate machinery).
    """
    tips = degree_one_vertices(state.graph)
    if len(tips) == 0:
        return 0

    anchors, lengths = walk_chains(state, tips)
    max_len = int(lengths.max())

    n = state.graph.num_vertices
    is_tip = np.zeros(n, dtype=bool)
    is_tip[tips] = True
    is_anchor = np.zeros(n, dtype=bool)
    is_anchor[anchors] = True
    tip_step = np.full(n, -1, dtype=np.int64)

    # Staggered multi-source wave: a chain of length s injects its
    # anchor at offset max_len - s; wave step k writes MAX - max_len + k.
    # The wave itself is the kernel's staggered multi-source primitive;
    # the callback applies Algorithm 4's writes. Injected anchors are
    # removed with their own pseudo-ecc (the mark_source write); anchors
    # already swallowed by an earlier chain's wave never reach the
    # callback — the running wave continues past them with bounds at
    # least as tight, covering their ball (see module docstring).
    by_offset: dict[int, list[int]] = {}
    for anchor, length in zip(anchors.tolist(), lengths.tolist()):
        by_offset.setdefault(max_len - length, []).append(anchor)

    state.stats.eliminate_calls += 1
    base = int(MAX_BOUND) - max_len

    def record(depth: int, vertices: np.ndarray) -> None:
        state.remove(vertices, np.int64(base + depth), Reason.CHAIN)
        hit = vertices[is_tip[vertices]]
        tip_step[hit] = depth

    state.kernel.staggered_wave(by_offset, max_len, on_discover=record)

    # Rescue the surviving tips (Algorithm 4 line 9), applying the two
    # domination rules the sequential order applies implicitly:
    #
    # 1. Tips sharing an (anchor, length) pair have identical
    #    eccentricity (every path out runs through the same anchor at
    #    the same offset), so one representative per group suffices —
    #    sequential processing keeps exactly the last one.
    # 2. A tip first reached strictly before step max_len is *strictly*
    #    inside a longer chain's removal ball (a pendant tip is only
    #    reachable through its own chain, so early discovery implies
    #    d(anchor_j, anchor_i) < s_j - s_i for some chain j) — it is
    #    dominated by that longer chain's tip, and strict domination
    #    cannot cycle because it forces s_j > s_i.
    #
    # Tips that double as anchors (2-vertex path components) are kept
    # unconditionally.
    representative: dict[tuple[int, int], int] = {}
    for tip, anchor, length in zip(tips.tolist(), anchors.tolist(), lengths.tolist()):
        representative[(anchor, length)] = tip
    batchable: list[tuple[int, int, int]] = []
    kept: list[int] = []
    for (anchor, length), tip in representative.items():
        if tip_step[tip] == max_len or tip_step[tip] == -1 or is_anchor[tip]:
            state.reactivate(tip)
            kept.append(tip)
            if not is_anchor[tip]:
                batchable.append((tip, anchor, length))
    # One rule for every lane-swept eccentricity: the tips follow
    # ecc_lanes exactly as the main loop does. A lone batchable tip
    # stays active, as a lone main-loop vertex runs one scalar BFS.
    # Only the 64 longest chains are swept up front: their tips most
    # likely carry the diameter (the tendrils of PAPER.md §2), and the
    # rest stay active for the main loop, whose Eliminates may prune
    # them before they cost an evaluation.
    if len(batchable) > 1 and ecc_batch_size(state, len(batchable))[0] > 1:
        batchable.sort(key=lambda t: -t[2])
        batch_tip_eccentricities(state, batchable[:LANE_WIDTH])
    if state.oracle is not None:
        state.oracle.check_chain(state, kept)
        state.oracle.check_stage(state, "chain")
    return len(tips)


def batch_tip_eccentricities(
    state: FDiamState, tips: list[tuple[int, int, int]]
) -> int:
    """Resolve surviving chain tips with one lane sweep from their anchors.

    ``tips`` holds ``(tip, anchor, length)`` triples of pendant tips (a
    pendant tip is reachable only through its chain, so
    ``d(tip, x) = length + d(anchor, x)`` for every ``x`` outside it).
    One bit-parallel sweep yields all their anchor eccentricities at
    once; a tip whose anchor eccentricity exceeds its chain length —
    the eccentricity is then realized *outside* the tip's own chain —
    gets the exact value ``length + ecc(anchor)`` and is removed.
    Tips whose anchor eccentricity equals the chain length (the anchor's
    farthest vertex may be the tip itself, e.g. a pure path component)
    stay active for the main loop; fewer than that is impossible
    because the tip sits at exactly ``length`` hops.

    The sweep runs through :meth:`FDiamState.ecc_lanes`, so it counts
    as the main loop's do: one logical eccentricity BFS per lane, one
    ``ecc_sweeps``. The oracle, when attached, checks every anchor
    lane. Returns the number of tips resolved.
    """
    old_bound = state.bound
    resolved = 0
    sources = np.array([anchor for _, anchor, _ in tips], dtype=np.int64)
    eccs = state.ecc_lanes(sources).tolist()
    for (tip, anchor, length), anchor_ecc in zip(tips, eccs):
        if state.oracle is not None:
            state.oracle.check_computed(state, anchor, anchor_ecc)
        if anchor_ecc > length:
            tip_ecc = length + anchor_ecc
            state.remove(tip, np.int64(tip_ecc), Reason.CHAIN)
            resolved += 1
            if tip_ecc > state.bound:
                state.bound = tip_ecc
    if state.bound > old_bound:
        state.stats.bound_updates += 1
    return resolved
