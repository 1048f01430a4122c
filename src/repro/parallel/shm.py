"""Shared-memory CSR segments for the multiprocess sweep backend.

The multiprocess :class:`~repro.parallel.sweep.SweepExecutor` backend
must hand the graph to its worker processes without pickling it — the
CSR of a 10^5-vertex analog is megabytes, and a fuzz campaign or query
batch dispatches hundreds of rounds. This module owns the
``multiprocessing.shared_memory`` lifecycle:

* the parent *creates* named segments (``repro-sweep-<hex>``), copies
  ``indptr``/``indices`` (and per-call distance-row outputs) into them,
  and records every creation in a process-local registry;
* workers *attach* read-only by name, immediately unregistering the
  mapping from their ``resource_tracker`` so a worker exit cannot
  unlink a segment the parent still owns (attaching registers the
  segment for destruction on Python < 3.13, which is exactly wrong for
  a create-in-parent / attach-in-child protocol);
* the parent *unlinks* deterministically (context manager /
  ``destroy_segment``), with an ``atexit`` guard sweeping anything the
  registry still holds — so a KeyboardInterrupt mid-sweep cannot leak
  ``/dev/shm`` entries.

Everything here is numpy-agnostic plumbing; the array views live in
:class:`SharedCSR` and the executor's per-call output blocks.
"""

from __future__ import annotations

import atexit
import os
import secrets

import numpy as np

from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph

__all__ = [
    "SHM_PREFIX",
    "shm_available",
    "create_segment",
    "attach_segment",
    "destroy_segment",
    "SharedCSR",
]

#: Name prefix of every segment this package creates; the leak
#: regression tests scan ``/dev/shm`` for leftovers carrying it.
SHM_PREFIX = "repro-sweep-"

#: Process-local registry of segments *created* (not attached) here,
#: keyed by name — the atexit guard unlinks whatever is left.
_CREATED: dict[str, object] = {}

_AVAILABLE: bool | None = None


def shm_available() -> bool:
    """Whether POSIX shared memory works in this environment.

    Probed once per process (containers without ``/dev/shm`` or with a
    locked-down tmpfs raise on create); the multiprocess backend falls
    back gracefully when this is ``False``.
    """
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            from multiprocessing import shared_memory

            probe = shared_memory.SharedMemory(create=True, size=8)
            probe.close()
            probe.unlink()
            _AVAILABLE = True
        except (ImportError, OSError, PermissionError, ValueError):
            _AVAILABLE = False
    return _AVAILABLE


def create_segment(nbytes: int):
    """Create a registered shared-memory segment of at least ``nbytes``."""
    from multiprocessing import shared_memory

    name = f"{SHM_PREFIX}{os.getpid():x}-{secrets.token_hex(6)}"
    try:
        seg = shared_memory.SharedMemory(
            name=name, create=True, size=max(int(nbytes), 1)
        )
    except OSError as exc:
        raise AlgorithmError(f"cannot create shared-memory segment: {exc}") from exc
    _CREATED[seg.name] = seg
    return seg


def attach_segment(name: str):
    """Attach to an existing segment without adopting its ownership.

    Used by worker processes. On Python < 3.13 attaching *registers*
    the segment with the ``resource_tracker`` for destruction, which is
    exactly wrong for a create-in-parent / attach-in-child protocol —
    and under ``fork`` the tracker process is shared, so a worker
    unregistering after the fact would clobber the parent's own
    registration (KeyError noise at unlink). Suppressing the
    registration during the attach sends the tracker nothing at all.
    """
    from multiprocessing import resource_tracker, shared_memory

    original = resource_tracker.register

    def _skip_shared_memory(res_name, rtype):
        if rtype != "shared_memory":
            original(res_name, rtype)

    resource_tracker.register = _skip_shared_memory
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def destroy_segment(seg) -> None:
    """Close and unlink one segment; idempotent and exception-safe."""
    if seg is None:
        return
    _CREATED.pop(getattr(seg, "name", None), None)
    try:
        seg.close()
    except (OSError, BufferError):
        pass
    try:
        seg.unlink()
    except (FileNotFoundError, OSError):
        pass


@atexit.register
def _unlink_leftovers() -> None:  # pragma: no cover - interpreter teardown
    for seg in list(_CREATED.values()):
        destroy_segment(seg)


class SharedCSR:
    """A CSR graph placed in one shared-memory segment.

    Layout: ``indptr`` (``int64``, ``n + 1`` entries) followed by
    ``indices`` (``int32`` or ``int64``, ``m`` entries) — the offset of
    ``indices`` is ``8 * (n + 1)``, which keeps both arrays aligned.
    The parent constructs this once per executor; workers rebuild a
    read-only :class:`~repro.graph.csr.CSRGraph` view over the same
    physical pages via :meth:`attach`, so the graph is shared with
    zero pickling and zero per-worker copies (only the ``O(n)`` degree
    array is worker-local).

    When the parent's graph carries an open compressed store (a
    ``.scsr`` loaded with ``mmap=True`` — see
    :attr:`~repro.graph.csr.CSRGraph.backing_store`) and the compressed
    image is smaller than the decoded arrays, the segment ships the
    *image* instead (``spec["kind"] == "scsr"``): each worker
    varint-decodes its own private CSR from the shared pages on
    attach. The segment shrinks by the store's compression ratio at
    the cost of one full decode per worker — paid once per pool, not
    per round — and the decoded answers are bit-identical either way
    (the differential tests cross-check spawned backends over both
    segment kinds).
    """

    def __init__(self, graph: CSRGraph):
        store = graph.backing_store
        decoded_nbytes = graph.indptr.nbytes + graph.indices.nbytes
        if store is not None and store.image_nbytes < decoded_nbytes:
            self._init_scsr(graph, store)
            return
        n = graph.num_vertices
        m = len(graph.indices)
        indptr_bytes = 8 * (n + 1)
        self._seg = create_segment(indptr_bytes + graph.indices.dtype.itemsize * m)
        buf = self._seg.buf
        indptr_view = np.ndarray(n + 1, dtype=np.int64, buffer=buf)
        indices_view = np.ndarray(
            m, dtype=graph.indices.dtype, buffer=buf, offset=indptr_bytes
        )
        indptr_view[:] = graph.indptr
        indices_view[:] = graph.indices
        self.nbytes = self._seg.size
        self.spec = {
            "segment": self._seg.name,
            "num_vertices": n,
            "num_indices": m,
            "indices_dtype": graph.indices.dtype.str,
            "name": graph.name,
        }

    def _init_scsr(self, graph: CSRGraph, store) -> None:
        """Place the compressed ``.scsr`` image in the segment."""
        image = store.image
        self._seg = create_segment(len(image))
        view = np.ndarray(len(image), dtype=np.uint8, buffer=self._seg.buf)
        view[:] = image
        self.nbytes = self._seg.size
        self.spec = {
            "segment": self._seg.name,
            "kind": "scsr",
            "image_nbytes": len(image),
            "name": graph.name,
        }

    @staticmethod
    def attach(spec: dict) -> tuple[CSRGraph, object]:
        """Rebuild the graph from a worker process; returns ``(graph, seg)``.

        The returned segment handle must be kept alive as long as the
        graph is used (the arrays view its buffer) and ``close()``\\d —
        never unlinked — when the worker shuts down. For ``"scsr"``
        segments the worker decodes a private copy, so the handle only
        needs to outlive the attach itself; it is still returned for a
        uniform lifecycle.
        """
        seg = attach_segment(spec["segment"])
        if spec.get("kind") == "scsr":
            from repro.store import CompressedCSR

            image = np.ndarray(
                int(spec["image_nbytes"]), dtype=np.uint8, buffer=seg.buf
            )
            store = CompressedCSR.from_buffer(
                image, source=f"<shm:{spec['segment']}>"
            )
            graph = store.to_graph().with_name(spec["name"])
            return graph, seg
        n = int(spec["num_vertices"])
        m = int(spec["num_indices"])
        indptr = np.ndarray(n + 1, dtype=np.int64, buffer=seg.buf)
        indices = np.ndarray(
            m, dtype=np.dtype(spec["indices_dtype"]), buffer=seg.buf, offset=8 * (n + 1)
        )
        graph = CSRGraph(indptr=indptr, indices=indices, name=spec["name"])
        return graph, seg

    def close(self) -> None:
        """Unlink the segment; safe to call more than once."""
        destroy_segment(self._seg)

    def __enter__(self) -> "SharedCSR":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
