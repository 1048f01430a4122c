"""Delta-overlay dynamic graph over an immutable CSR base.

Every structure in the package below this layer —
:class:`~repro.graph.csr.CSRGraph`, the traversal kernel, the stores —
is deliberately immutable; an evolving graph therefore cannot be an
in-place mutation. Instead :class:`DynamicGraph` keeps a frozen CSR
*base* plus a small **delta overlay**: per-vertex sets of edges added
on top of the base and edges removed from it. Batched mutations
(:meth:`apply`) update the overlay in O(batch); reads merge base rows
with the overlay on the fly. When the overlay grows past a configurable
fraction of the base, it is **compacted**: the merged edge set is
rebuilt into a fresh canonical CSR via
:func:`~repro.graph.build.from_edge_arrays` and the overlay empties.
Compaction never changes the observable graph — the rebuilt arrays are
the same canonical (sorted, deduplicated, symmetrized) CSR the overlay
view produces, a property the mutation fuzzer checks after every batch.

Epochs
------
Every batch that changes the edge set bumps ``epoch`` by one. The epoch
is the unit of invalidation for everything stacked on top: the
:class:`~repro.dynamic.diameter.DynamicDiameter` maintainer records the
epoch its bounds are valid for, the query engine drops memoized
distance rows on an epoch change, and :meth:`digest` folds the epoch
into the warm-start cache key (see
:func:`repro.graph.io.graph_digest`) so a sidecar written at epoch
``k`` can never be served at epoch ``k' != k`` — even if an
insert-then-delete sequence restores the exact same byte content.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AlgorithmError
from repro.graph.build import from_edge_arrays
from repro.graph.csr import CSRGraph
from repro.graph.io import graph_digest
from repro.graph.validate import as_vertex_id

__all__ = ["DynamicGraph", "MutationBatch"]


@dataclass(frozen=True)
class MutationBatch:
    """Outcome of one :meth:`DynamicGraph.apply` batch.

    ``inserted``/``deleted`` count edges that actually changed the
    graph; the ``noop_*`` fields count requests that were already
    satisfied (inserting a present edge, deleting an absent one) —
    they are accepted, counted, and change nothing, so replayed or
    overlapping batches stay idempotent. ``epoch`` is the graph epoch
    *after* the batch (unchanged when nothing was applied).
    """

    epoch: int
    inserted: int = 0
    deleted: int = 0
    noop_inserts: int = 0
    noop_deletes: int = 0

    @property
    def mutated(self) -> bool:
        """Whether the batch changed the edge set at all."""
        return (self.inserted + self.deleted) > 0


def _pairs(edges) -> list[tuple[int, int]]:
    """Normalize an iterable of edge pairs into ``(u, v)`` int tuples.

    Endpoints go through :func:`~repro.graph.validate.as_vertex_id`, so
    a ``0.9`` or ``True`` rejects the batch instead of becoming vertex 0
    or 1.
    """
    out = []
    for pair in edges:
        try:
            u, v = pair
        except (TypeError, ValueError) as exc:
            raise AlgorithmError(
                f"edge {pair!r} is not a (u, v) pair"
            ) from exc
        out.append((as_vertex_id(u), as_vertex_id(v)))
    return out


class DynamicGraph:
    """A mutable edge set presented as epoch-tagged immutable CSR views.

    Parameters
    ----------
    base:
        The starting graph. Never mutated; compaction replaces the
        internal reference with a rebuilt CSR.
    compaction_ratio:
        Compact once the overlay holds more than this fraction of the
        base's undirected edges (and at least ``min_compaction_edges``).
        ``0`` compacts after every mutating batch, which makes every
        :meth:`view` O(1) at the cost of O(m log m) per batch.
    min_compaction_edges:
        Absolute overlay-size floor below which compaction is skipped —
        rebuilding a million-edge CSR to fold in three edges is the
        exact pathology the overlay exists to avoid.
    """

    def __init__(
        self,
        base: CSRGraph,
        *,
        compaction_ratio: float = 0.25,
        min_compaction_edges: int = 4096,
    ):
        if compaction_ratio < 0:
            raise AlgorithmError("compaction_ratio must be >= 0")
        if min_compaction_edges < 0:
            raise AlgorithmError("min_compaction_edges must be >= 0")
        self._base = base
        self.name = base.name
        self.compaction_ratio = float(compaction_ratio)
        self.min_compaction_edges = int(min_compaction_edges)
        self.epoch = 0
        self.compactions = 0
        #: Undirected overlay pairs, stored with u < v.
        self._added: set[tuple[int, int]] = set()
        self._removed: set[tuple[int, int]] = set()
        self._num_edges = base.num_edges
        #: Per-epoch batch records (index k = the batch that produced
        #: epoch k+... — see mutations_since). Epoch 0 has no record.
        self._log: list[MutationBatch] = []
        self._view: CSRGraph | None = None
        self._view_epoch = -1

    # ------------------------------------------------------------------
    # Read surface
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._base.num_vertices

    @property
    def num_edges(self) -> int:
        """Current undirected edge count (tracked, not recounted)."""
        return self._num_edges

    @property
    def base(self) -> CSRGraph:
        """The current compacted base (reference only; never mutated)."""
        return self._base

    def memory_bytes(self) -> int:
        """Bytes held by the base CSR arrays plus the cached view's own.

        A view with an overlay merged in is a second CSR of about the
        base's size; one without shares the base's arrays and adds
        nothing.
        """
        total = self._base.memory_bytes()
        view = self._view
        if view is not None and view.indices is not self._base.indices:
            total += view.memory_bytes()
        return total

    @property
    def overlay_edges(self) -> int:
        """Undirected edges currently carried by the overlay."""
        return len(self._added) + len(self._removed)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` is currently present."""
        key = (u, v) if u < v else (v, u)
        if key in self._added:
            return True
        if key in self._removed:
            return False
        return self._base.has_edge(u, v)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted current neighbours of ``v`` (base merged with overlay)."""
        row = np.asarray(self._base.neighbors(v), dtype=np.int64)
        extra = [b if a == v else a for a, b in self._added if v in (a, b)]
        gone = {b if a == v else a for a, b in self._removed if v in (a, b)}
        if gone:
            row = row[~np.isin(row, np.fromiter(gone, dtype=np.int64))]
        if extra:
            row = np.unique(np.concatenate([row, np.asarray(extra, dtype=np.int64)]))
        return row

    # ------------------------------------------------------------------
    # Mutation surface
    # ------------------------------------------------------------------
    def apply(self, inserts=(), deletes=()) -> MutationBatch:
        """Apply one batched mutation; returns its :class:`MutationBatch`.

        Inserts are applied before deletes, so a batch carrying both
        for the same pair nets out to the delete. Self-loops and
        out-of-range endpoints are rejected with
        :class:`~repro.errors.AlgorithmError` before anything is
        applied — a batch is all-or-nothing with respect to
        validation. The epoch advances only when the edge set actually
        changed.
        """
        n = self._base.num_vertices
        ins = _pairs(inserts)
        dels = _pairs(deletes)
        for u, v in ins + dels:
            if not (0 <= u < n and 0 <= v < n):
                raise AlgorithmError(
                    f"edge ({u}, {v}) out of range for n={n}"
                )
            if u == v:
                raise AlgorithmError(f"self-loop ({u}, {v}) not allowed")

        inserted = deleted = noop_ins = noop_del = 0
        for u, v in ins:
            key = (u, v) if u < v else (v, u)
            if key in self._added or (
                key not in self._removed and self._base.has_edge(u, v)
            ):
                noop_ins += 1
                continue
            if key in self._removed:
                self._removed.discard(key)
            else:
                self._added.add(key)
            self._num_edges += 1
            inserted += 1
        for u, v in dels:
            key = (u, v) if u < v else (v, u)
            if key in self._added:
                self._added.discard(key)
            elif key not in self._removed and self._base.has_edge(u, v):
                self._removed.add(key)
            else:
                noop_del += 1
                continue
            self._num_edges -= 1
            deleted += 1

        if inserted or deleted:
            self.epoch += 1
        batch = MutationBatch(
            epoch=self.epoch,
            inserted=inserted,
            deleted=deleted,
            noop_inserts=noop_ins,
            noop_deletes=noop_del,
        )
        if batch.mutated:
            self._log.append(batch)
            self.compact()
        return batch

    def mutations_since(self, epoch: int) -> tuple[int, int]:
        """Total ``(inserted, deleted)`` across batches after ``epoch``."""
        inserted = deleted = 0
        for batch in self._log:
            if batch.epoch > epoch:
                inserted += batch.inserted
                deleted += batch.deleted
        return inserted, deleted

    # ------------------------------------------------------------------
    # Views, compaction, digest
    # ------------------------------------------------------------------
    def view(self) -> CSRGraph:
        """The current graph as a canonical immutable CSR.

        Cached per epoch; the overlay (if any) is merged into a rebuilt
        CSR, byte-identical to what compaction would install as the new
        base. The view's ``storage`` tag embeds the epoch, so two views
        of different epochs never alias in any digest-keyed cache even
        if their byte content coincides.
        """
        if self._view is not None and self._view_epoch == self.epoch:
            return self._view
        storage = f"dynamic:e{self.epoch}"
        if not self._added and not self._removed:
            merged = self._base
        else:
            src, dst = self._merged_edge_arrays()
            merged = from_edge_arrays(
                src, dst, self._base.num_vertices, name=self.name
            )
        view = CSRGraph(
            merged.indptr, merged.indices, name=self.name, storage=storage
        )
        self._view = view
        self._view_epoch = self.epoch
        return view

    def _merged_edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Current undirected edge list (u < v) as two int64 arrays."""
        base = self._base
        n = base.num_vertices
        row_of = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(base.indptr)
        )
        cols = base.indices.astype(np.int64)
        keep = row_of < cols
        src, dst = row_of[keep], cols[keep]
        if self._removed:
            gone = np.fromiter(
                (u * n + v for u, v in self._removed),
                dtype=np.int64,
                count=len(self._removed),
            )
            mask = ~np.isin(src * n + dst, gone)
            src, dst = src[mask], dst[mask]
        if self._added:
            add = np.asarray(sorted(self._added), dtype=np.int64)
            src = np.concatenate([src, add[:, 0]])
            dst = np.concatenate([dst, add[:, 1]])
        return src, dst

    def compact(self, *, force: bool = False) -> bool:
        """Fold the overlay into a rebuilt base CSR; True if it ran.

        Triggered automatically by :meth:`apply` once the overlay
        exceeds ``compaction_ratio`` of the base's edges (and the
        ``min_compaction_edges`` floor); ``force=True`` compacts any
        non-empty overlay immediately.
        """
        overlay = self.overlay_edges
        if overlay == 0:
            return False
        if not force:
            threshold = max(
                self.min_compaction_edges,
                int(self.compaction_ratio * max(self._base.num_edges, 1)),
            )
            if overlay < threshold:
                return False
        view = self.view()
        # Re-wrap with the plain storage tag: the base is an ordinary
        # CSR; only views carry the epoch tag.
        self._base = CSRGraph(view.indptr, view.indices, name=self.name)
        self._added.clear()
        self._removed.clear()
        self.compactions += 1
        return True

    def digest(self) -> str:
        """Epoch-aware cache digest of the current graph.

        Folds :attr:`epoch` into :func:`~repro.graph.io.graph_digest`
        so warm-start sidecars and memo keys written against one epoch
        are unreachable from any other — including a later epoch whose
        byte content happens to match (insert-then-delete identity).
        """
        return graph_digest(self.view(), epoch=self.epoch)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicGraph({self.name!r}, n={self.num_vertices}, "
            f"m={self.num_edges}, epoch={self.epoch}, "
            f"overlay={self.overlay_edges})"
        )
