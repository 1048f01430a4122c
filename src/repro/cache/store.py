"""Content-addressed sidecar store for warm-start artifacts.

One ``.npz`` sidecar per graph digest, holding everything a later run
can reuse (DESIGN.md §10 documents the schema and the correctness
argument):

* the headline result: diameter, connectivity, and the witness vertex
  that realized the diameter in the cold run;
* the final per-vertex status/reason arrays — each numeric status is a
  proven eccentricity upper bound for the byte-identical graph;
* the winnow ball (centre, radius, visited mask, saved frontier) so a
  warm run can resume incremental extension without re-growing it;
* landmark distance vectors (a handful of full BFS rows from central
  and peripheral vertices) for spectrum seeding and query memoization;
* optional exact eccentricity bounds from a spectrum run.

Load is defensive: a truncated, corrupted, or digest-mismatched file
degrades to ``None`` (cold run) with a warning — never an exception.
"""

from __future__ import annotations

import os
import warnings
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.io import graph_digest

__all__ = ["SCHEMA_VERSION", "WarmArtifacts", "WarmStartStore"]

#: Bumped whenever the sidecar layout changes; loaders reject other
#: versions (cold run) instead of guessing at field meanings.
SCHEMA_VERSION = 1

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_DIST = np.empty((0, 0), dtype=np.int32)


@dataclass
class WarmArtifacts:
    """Everything one run persists for the next run on the same graph.

    ``status``/``reason`` follow the :mod:`repro.core.state` encoding.
    ``winnow_center == -1`` means no ball was recorded. The landmark
    block holds ``k`` full distance rows (``int32``, shape ``(k, n)``)
    with their sources and eccentricities; ``ecc_lower``/``ecc_upper``
    are empty unless a spectrum run filled them (in which case they are
    exact and equal).
    """

    digest: str
    num_vertices: int
    diameter: int
    connected: bool
    witness: int
    status: np.ndarray
    reason: np.ndarray
    winnow_center: int = -1
    winnow_radius: int = 0
    winnow_visited: np.ndarray | None = None
    winnow_frontier: np.ndarray = field(default_factory=lambda: _EMPTY_I64)
    landmark_sources: np.ndarray = field(default_factory=lambda: _EMPTY_I64)
    landmark_dists: np.ndarray = field(default_factory=lambda: _EMPTY_DIST)
    landmark_eccs: np.ndarray = field(default_factory=lambda: _EMPTY_I64)
    ecc_lower: np.ndarray = field(default_factory=lambda: _EMPTY_I64)
    ecc_upper: np.ndarray = field(default_factory=lambda: _EMPTY_I64)

    @property
    def infinite(self) -> bool:
        """Convention mirror of :class:`DiameterResult`."""
        return not self.connected

    def to_npz_dict(self) -> dict[str, np.ndarray]:
        """Flatten into the ``np.savez`` payload."""
        visited = (
            self.winnow_visited
            if self.winnow_visited is not None
            else np.zeros(0, dtype=bool)
        )
        return {
            "schema": np.int64(SCHEMA_VERSION),
            "digest": np.array(self.digest),
            "num_vertices": np.int64(self.num_vertices),
            "diameter": np.int64(self.diameter),
            "connected": np.bool_(self.connected),
            "witness": np.int64(self.witness),
            "status": np.asarray(self.status, dtype=np.int64),
            "reason": np.asarray(self.reason, dtype=np.uint8),
            "winnow_center": np.int64(self.winnow_center),
            "winnow_radius": np.int64(self.winnow_radius),
            "winnow_visited": np.asarray(visited, dtype=bool),
            "winnow_frontier": np.asarray(self.winnow_frontier, dtype=np.int64),
            "landmark_sources": np.asarray(
                self.landmark_sources, dtype=np.int64
            ),
            "landmark_dists": np.asarray(self.landmark_dists, dtype=np.int32),
            "landmark_eccs": np.asarray(self.landmark_eccs, dtype=np.int64),
            "ecc_lower": np.asarray(self.ecc_lower, dtype=np.int64),
            "ecc_upper": np.asarray(self.ecc_upper, dtype=np.int64),
        }

    @classmethod
    def from_npz(cls, data) -> WarmArtifacts:
        """Rehydrate from an ``np.load`` mapping; raises on bad layout."""
        schema = int(np.asarray(data["schema"])[()])
        if schema != SCHEMA_VERSION:
            raise ValueError(
                f"sidecar schema {schema} != supported {SCHEMA_VERSION}"
            )
        n = int(np.asarray(data["num_vertices"])[()])
        status = np.asarray(data["status"], dtype=np.int64)
        reason = np.asarray(data["reason"], dtype=np.uint8)
        if status.shape != (n,) or reason.shape != (n,):
            raise ValueError("sidecar status/reason shape mismatch")
        visited = np.asarray(data["winnow_visited"], dtype=bool)
        return cls(
            digest=str(np.asarray(data["digest"])[()]),
            num_vertices=n,
            diameter=int(np.asarray(data["diameter"])[()]),
            connected=bool(np.asarray(data["connected"])[()]),
            witness=int(np.asarray(data["witness"])[()]),
            status=status,
            reason=reason,
            winnow_center=int(np.asarray(data["winnow_center"])[()]),
            winnow_radius=int(np.asarray(data["winnow_radius"])[()]),
            winnow_visited=visited if len(visited) == n else None,
            winnow_frontier=np.asarray(
                data["winnow_frontier"], dtype=np.int64
            ),
            landmark_sources=np.asarray(
                data["landmark_sources"], dtype=np.int64
            ),
            landmark_dists=np.asarray(data["landmark_dists"], dtype=np.int32),
            landmark_eccs=np.asarray(data["landmark_eccs"], dtype=np.int64),
            ecc_lower=np.asarray(data["ecc_lower"], dtype=np.int64),
            ecc_upper=np.asarray(data["ecc_upper"], dtype=np.int64),
        )


class WarmStartStore:
    """Directory of digest-keyed warm-start sidecars.

    The filename embeds a digest prefix, so a store directory can hold
    sidecars for any number of graphs; the full digest is re-checked on
    load so a prefix collision (or a renamed file) degrades to a cold
    run rather than cross-graph contamination.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        #: Lifetime counters (surfaced by the serving layer's /stats):
        #: ``loads`` attempts, ``hits`` usable artifacts, ``saves``,
        #: and ``stale_rejects`` — artifacts a consumer loaded but then
        #: refused to reuse because they no longer match the graph
        #: (e.g. landmark rows whose shape or sources went stale after
        #: a mutation). Incremented by the rejecting consumer (the
        #: query engine), not by :meth:`load`, which cannot see what a
        #: caller will accept.
        self.loads = 0
        self.hits = 0
        self.saves = 0
        self.stale_rejects = 0

    def counters(self) -> dict:
        """JSON-friendly load/hit/save/stale-reject totals."""
        return {
            "loads": self.loads,
            "hits": self.hits,
            "saves": self.saves,
            "stale_rejects": self.stale_rejects,
        }

    def path_for(self, digest: str) -> Path:
        """Sidecar path for a graph digest."""
        return self.root / f"fdiam-{digest[:40]}.npz"

    def load(
        self, graph: CSRGraph, *, digest: str | None = None
    ) -> WarmArtifacts | None:
        """Artifacts for ``graph``, or ``None`` (cold) if unusable.

        Every failure mode — missing file, truncated/corrupted zip,
        wrong schema, digest mismatch — returns ``None``; all but the
        missing-file case also warn, so a damaged cache is visible
        without ever being fatal.
        """
        digest = digest or graph_digest(graph)
        self.loads += 1
        path = self.path_for(digest)
        if not path.exists():
            return None
        try:
            # The file handle is opened here (not by np.load) so a
            # truncated zip that fails mid-parse is still closed.
            with open(path, "rb") as fh, np.load(
                fh, allow_pickle=False
            ) as data:
                art = WarmArtifacts.from_npz(data)
        except (
            OSError,
            ValueError,
            KeyError,
            EOFError,
            zipfile.BadZipFile,
        ) as exc:
            warnings.warn(
                f"warm-start sidecar {path} is unreadable ({exc}); "
                "running cold",
                stacklevel=2,
            )
            return None
        if art.digest != digest or art.num_vertices != graph.num_vertices:
            warnings.warn(
                f"warm-start sidecar {path} does not match the graph "
                "digest; running cold",
                stacklevel=2,
            )
            return None
        self.hits += 1
        return art

    def save(self, artifacts: WarmArtifacts) -> Path:
        """Write (atomically: tmp + rename) and return the sidecar path."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(artifacts.digest)
        tmp = path.with_suffix(".npz.tmp")
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **artifacts.to_npz_dict())
        os.replace(tmp, path)
        self.saves += 1
        return path
