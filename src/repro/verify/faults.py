"""Deliberate fault injection for oracle and fuzzer self-tests.

A verification subsystem is only trustworthy if it demonstrably fires:
each fault here is a realistic bug in one of the solver's pruning or
repair stages, injected by rebinding the stage entry point for the
duration of a ``with`` block. The test suite (and the ``repro fuzz
--inject`` flag) use them to prove that the invariant oracle / the
mutation fuzzer catches the bug class and that the shrinker reduces
the triggering input to a small replayable artifact.

Each fault builder returns a list of ``(target, attr, faulty)`` patch
specs. Static-solver stage faults patch the *name bindings* in the
consuming driver modules (``repro.core.fdiam`` /
``repro.core.concurrent``), not the defining module, because the
drivers import the stage functions by name; the lane fault patches
:meth:`~repro.core.state.FDiamState.ecc_lanes` on the class, the one
funnel of every lane-swept eccentricity, and the row fault patches
``TraversalKernel._lone_row``, the one funnel of every lone-source
distance row. Dynamic-maintenance faults
patch class attributes on :class:`~repro.dynamic.diameter.DynamicDiameter`
(wrapped in ``staticmethod`` so the rebinding preserves the call
convention).
"""

from __future__ import annotations

import importlib
import inspect
from contextlib import contextmanager

import numpy as np

from repro.errors import AlgorithmError

__all__ = ["available_faults", "inject_fault"]


def _stage_specs(attr: str, faulty) -> list[tuple]:
    """Patch ``attr`` in every driver module that imported it by name."""
    specs = []
    for modname in ("repro.core.fdiam", "repro.core.concurrent"):
        mod = importlib.import_module(modname)
        if hasattr(mod, attr):
            specs.append((mod, attr, faulty))
    return specs


def _eliminate_off_by_one() -> list[tuple]:
    """Eliminate expands ``bound - ecc + 1`` levels instead of ``bound - ecc``.

    The classic unsound variant of Theorem 1: the extra level removes
    vertices whose certified upper bound is ``bound + 1``, i.e. above
    the current bound — exactly the discharge condition violation the
    oracle's radius check exists for.
    """
    # importlib, not ``import a.b as m``: repro.core re-exports the
    # stage *functions*, which shadow the submodule attributes.
    elim_mod = importlib.import_module("repro.core.eliminate")

    orig = elim_mod.eliminate

    def faulty(state, source, ecc, bound, **kwargs):
        return orig(state, source, ecc, bound + 1, **kwargs)

    return _stage_specs("eliminate", faulty)


def _winnow_overgrow() -> list[tuple]:
    """Winnow grows the ball to radius ``⌊bound/2⌋ + 1``.

    Breaks the Theorem 2/3 pairing argument: two vertices of the
    oversized ball can be ``bound + 2`` apart, so discarding the ball
    may discard both witnesses of a larger-than-bound distance.
    """
    winnow_mod = importlib.import_module("repro.core.winnow")

    orig = winnow_mod.winnow

    def faulty(state, center, bound):
        return orig(state, center, bound + 2)

    return _stage_specs("winnow", faulty)


def _lane_off_by_one() -> list[tuple]:
    """The last lane of every eccentricity lane sweep reads one too high.

    A lane-indexing slip in the bit-parallel sweep: one lane's deepest
    level is credited one level late. Chain-tip anchors and main-loop
    vertices both take their eccentricities from this funnel, so the
    oracle's per-lane eccentricity check must fire on either.
    """
    from repro.core.state import FDiamState

    orig = FDiamState.ecc_lanes

    def faulty(self, vertices):
        eccs = orig(self, vertices).copy()
        eccs[-1] += 1
        return eccs

    return [(FDiamState, "ecc_lanes", faulty)]


def _row_off_by_one() -> list[tuple]:
    """One entry of every lone-source distance row reads one too high.

    A read-out slip in the scalar path that answers a chunk of one
    source (:meth:`~repro.bfs.kernel.TraversalKernel._lone_row`): the
    row's farthest vertex is credited one level late, so both a
    ``dist`` to it and the source's ``ecc`` (the row maximum) come out
    wrong. fdiam never asks for distance rows; the differential
    fuzzer's lone ``dist``/``ecc`` queries must catch it.
    """
    from repro.bfs.kernel import TraversalKernel

    orig = TraversalKernel._lone_row

    def faulty(self, source):
        row, sweep = orig(self, source)
        row[0, np.argmax(row[0])] += 1
        return row, sweep

    return [(TraversalKernel, "_lone_row", faulty)]


def _dynamic_witness_only() -> list[tuple]:
    """Repair trusts the witness BFS alone, skipping the candidate sweep.

    A plausible over-optimization of the insert-only repair rule: one
    BFS from the stored witness re-validates the lower bound, but no
    stale upper bound above it is ever re-checked — so an insertion
    that shrinks the old witness's eccentricity while another vertex
    still realizes a larger one yields an under-reported diameter. The
    mutation fuzzer's per-step recompute comparison is what catches it.
    """
    from repro.dynamic.diameter import DynamicDiameter

    def faulty(ecc_ub, lb):
        return np.empty(0, dtype=np.int64)

    return [(DynamicDiameter, "_candidates", staticmethod(faulty))]


def _dynamic_deletes_keep_bounds() -> list[tuple]:
    """Deletions are treated like insertions: cached bounds survive.

    Breaks the deletion repair rule outright — removing an edge can
    *grow* distances (or disconnect the graph), so the cached
    eccentricity upper bounds are invalid, yet the faulty maintainer
    repairs from them anyway and under-reports the diameter (or misses
    a disconnection).
    """
    from repro.dynamic.diameter import DynamicDiameter

    def faulty(deleted):
        return False

    return [(DynamicDiameter, "_deletes_invalidate", staticmethod(faulty))]


_FAULTS = {
    "eliminate-off-by-one": _eliminate_off_by_one,
    "winnow-overgrow": _winnow_overgrow,
    "lane-off-by-one": _lane_off_by_one,
    "row-off-by-one": _row_off_by_one,
    "dynamic-witness-only": _dynamic_witness_only,
    "dynamic-deletes-keep-bounds": _dynamic_deletes_keep_bounds,
}

#: Which verification harness is expected to catch each fault:
#: ``static`` faults break fdiam's pruning stages and trip the
#: invariant oracle; ``query`` faults break the distance rows behind
#: ``dist``/``ecc`` queries, which fdiam never reads, so only the
#: static fuzz campaign's query checks see them; ``dynamic`` faults
#: break the maintainer's repair rules and only the mutation fuzzer's
#: recompute comparison sees them.
_DOMAINS = {
    "eliminate-off-by-one": "static",
    "winnow-overgrow": "static",
    "lane-off-by-one": "static",
    "row-off-by-one": "query",
    "dynamic-witness-only": "dynamic",
    "dynamic-deletes-keep-bounds": "dynamic",
}


def available_faults(domain: str | None = None) -> tuple[str, ...]:
    """Names accepted by :func:`inject_fault`.

    ``domain`` filters to ``"static"`` (solver-stage faults the
    invariant oracle catches), ``"query"`` (distance-row faults the
    static fuzz campaign's query checks catch) or ``"dynamic"``
    (repair-rule faults the mutation fuzzer catches); ``None`` returns
    everything.
    """
    if domain is None:
        return tuple(_FAULTS)
    return tuple(name for name in _FAULTS if _DOMAINS[name] == domain)


@contextmanager
def inject_fault(name: str):
    """Activate the named fault inside the ``with`` block.

    Applies every patch spec the fault builder returns; always restores
    the originals on exit, even when the block raises (which is the
    expected outcome). Originals are captured with
    :func:`inspect.getattr_static` so class-level ``staticmethod``
    descriptors round-trip unbound.
    """
    if name not in _FAULTS:
        raise AlgorithmError(
            f"unknown fault {name!r}; available: {sorted(_FAULTS)}"
        )
    specs = _FAULTS[name]()
    patched = []
    for target, attr, faulty in specs:
        patched.append((target, attr, inspect.getattr_static(target, attr)))
        setattr(target, attr, faulty)
    try:
        yield
    finally:
        for target, attr, orig in reversed(patched):
            setattr(target, attr, orig)
