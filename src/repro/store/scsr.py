"""The ``.scsr`` succinct block-compressed CSR container.

WebGraph-style compression specialized to this package's CSR graphs
(sorted, deduplicated, symmetric adjacency): every row stores the
zigzag delta of its first neighbour against the row's own vertex id,
then ``gap - 1`` for each following neighbour, all varint-packed
(:mod:`repro.store.varint`). Rows are grouped into fixed-size vertex
*blocks* with a fixed-width ``uint64`` offset index, so any block
decodes independently of the rest of the image — partial traversals
touch only the file regions their frontier actually visits.

Locality-aware vertex orders (``repro convert --reorder``, from
:mod:`repro.prep.reorder`) are what make the gaps small: after a
BFS/RCM reorder neighbours carry nearby ids, first deltas and gaps fit
in one byte, and a road-network CSR drops from ~12 bytes/arc
(``int32`` ``.npz``) to ~1.5 bytes/arc. The reorder strategy travels
in the header's provenance string.

Three entry points:

* :func:`save_scsr` — encode a :class:`~repro.graph.csr.CSRGraph`
  (fully vectorized; returns the size accounting the benchmarks
  report).
* :func:`open_scsr` / :class:`CompressedCSR` — mmap the image
  zero-copy and decode per block through an LRU block cache
  (:meth:`CompressedCSR.gather_rows` is the format's random-access
  reader; traversals never use it).
* :func:`load_scsr` — full decode back to a ``CSRGraph`` (storage tag
  ``"scsr:v1"``), digest-verified; with ``mmap=True`` the compressed
  image stays attached as the graph's ``backing_store`` so the
  multiprocess pool can ship it instead of the decoded arrays.

Every corruption mode raises :class:`~repro.errors.StoreFormatError`
with the file and failing region named.
"""

from __future__ import annotations

import os
import secrets
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.errors import StoreFormatError
from repro.graph.csr import CSRGraph
from repro.graph.io import content_digest
from repro.store.format import (
    FORMAT_VERSION,
    STORAGE_TAG,
    StoreHeader,
    pack_header,
    unpack_header,
)
from repro.store.varint import (
    decode_varints,
    encode_varints,
    varint_offsets,
    zigzag_decode,
    zigzag_encode,
)

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_CACHE_BLOCKS",
    "BlockCacheStats",
    "StoreInfo",
    "CompressedCSR",
    "save_scsr",
    "open_scsr",
    "load_scsr",
]

#: Vertices per block. 64 keeps a block's decoded rows around one
#: cache line of ids per vertex on the pinned analogs while the
#: fixed-width index stays < 0.4 bytes/vertex.
DEFAULT_BLOCK_SIZE = 64

#: Blocks the decode cache retains (LRU); at the default block size
#: this bounds resident decoded scratch to a few MiB even on hub rows.
DEFAULT_CACHE_BLOCKS = 512

#: Cap on one bulk-decode pass (in decoded arcs): a gather missing more
#: splits into passes of this size; the scratch is freed when it ends.
_RUN_DECODE_ARCS = 1 << 22


@dataclass
class BlockCacheStats:
    """Decode accounting of one :class:`CompressedCSR`.

    Mirrors the :class:`~repro.bfs.kernel.WorkspaceStats` style:
    ``block_requests`` counts every block the gather path asked for,
    ``block_hits`` the ones served from the LRU cache without
    decoding, ``blocks_decoded`` / ``decoded_bytes`` the actual varint
    work, and ``evictions`` the cache pressure. ``redecoded_blocks``
    counts decodes of a block decoded before (thrash: work a larger
    cache would have saved) and ``decode_seconds`` the
    wall time inside block decodes, so ``decode_bandwidth`` reads out
    the varint path's effective decoded bytes per second.
    """

    block_requests: int = 0
    block_hits: int = 0
    blocks_decoded: int = 0
    decoded_bytes: int = 0
    evictions: int = 0
    redecoded_blocks: int = 0
    decode_seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of block requests served without a decode."""
        if self.block_requests == 0:
            return 0.0
        return self.block_hits / self.block_requests

    @property
    def thrash_rate(self) -> float:
        """Fraction of decodes that re-did previously decoded work."""
        if self.blocks_decoded == 0:
            return 0.0
        return self.redecoded_blocks / self.blocks_decoded

    @property
    def decode_bandwidth(self) -> float:
        """Decoded bytes per second of decode wall time (0 if untimed)."""
        if self.decode_seconds <= 0.0:
            return 0.0
        return self.decoded_bytes / self.decode_seconds


@dataclass(frozen=True)
class StoreInfo:
    """Size accounting returned by :func:`save_scsr`.

    The per-section byte counts always satisfy ``header_nbytes +
    index_nbytes + deg_stream_nbytes + adj_stream_nbytes == nbytes``
    (asserted by ``repro convert --stats``); ``encoder_peak_bytes`` is
    the encoder's accounted transient high-water mark — every array the
    chunked writer allocates beyond its persistent block index — which
    is what the streaming encoder bounds to ``O(chunk_edges)``.
    """

    path: str
    nbytes: int
    num_vertices: int
    num_edges: int
    num_directed_edges: int
    block_size: int
    num_blocks: int
    provenance: str
    header_nbytes: int = 0
    deg_stream_nbytes: int = 0
    adj_stream_nbytes: int = 0
    encoder_peak_bytes: int = 0
    chunk_edges: int | None = None

    @property
    def bytes_per_edge(self) -> float:
        """File bytes per undirected edge (the bench-JSON headline)."""
        return self.nbytes / max(self.num_edges, 1)

    @property
    def bytes_per_arc(self) -> float:
        """File bytes per stored directed arc."""
        return self.nbytes / max(self.num_directed_edges, 1)

    @property
    def index_nbytes(self) -> int:
        """Bytes of the three ``uint64`` block-index tables."""
        return 3 * 8 * (self.num_blocks + 1)

    @property
    def section_nbytes(self) -> dict[str, int]:
        """Per-section byte breakdown in file order."""
        return {
            "header": self.header_nbytes,
            "index": self.index_nbytes,
            "degree_stream": self.deg_stream_nbytes,
            "adjacency_stream": self.adj_stream_nbytes,
        }


def _block_boundaries(num_vertices: int, block_size: int) -> np.ndarray:
    """Vertex id at each block boundary (length ``num_blocks + 1``)."""
    num_blocks = -(-num_vertices // block_size) if num_vertices else 0
    bounds = np.arange(num_blocks + 1, dtype=np.int64) * block_size
    return np.minimum(bounds, num_vertices)


def _decode_rows(
    vals: np.ndarray,
    degrees: np.ndarray,
    first_vertex: int,
    num_vertices: int,
    block_size: int,
    *,
    source: str,
    region: str,
    row_ids: np.ndarray | None = None,
) -> np.ndarray:
    """Rebuild absolute neighbour ids from decoded delta values.

    ``vals`` holds the varint-decoded codes of consecutive rows whose
    degrees are ``degrees`` and whose first row is vertex
    ``first_vertex`` — or, when ``row_ids`` is given, of the explicit
    (ascending, possibly non-contiguous) vertices it names: the
    first-delta chains reset at block boundaries, so rows from any
    sorted set of whole blocks decode in one pass. Two layered
    carry-corrected ``cumsum`` passes do all the work with no per-row
    loop:

    1. the zigzag codes at the row starts chain first-neighbour
       deltas row-to-row *within each block* (the block's first
       non-empty row is anchored to its own vertex id), so one cumsum
       per block segment realizes every row's first neighbour;
    2. the remaining codes are ``gap - 1`` values, so one global
       cumsum — minus each row's carried-in prefix (``np.repeat``) —
       realizes the absolute ids.
    """
    local_indptr = np.concatenate(
        ([0], np.cumsum(degrees.astype(np.int64)))
    )
    if len(vals) == 0:
        return np.empty(0, dtype=np.int64)
    nz = degrees > 0
    row_starts = local_indptr[:-1][nz]
    if row_ids is None:
        row_ids = first_vertex + np.flatnonzero(nz)
    else:
        row_ids = np.asarray(row_ids, dtype=np.int64)[nz]

    # Pass 1: first neighbours, chained per block segment.
    z = zigzag_decode(vals[row_starts])
    blocks = row_ids // block_size
    seg_first = np.empty(len(row_ids), dtype=bool)
    seg_first[0] = True
    seg_first[1:] = blocks[1:] != blocks[:-1]
    z[seg_first] += row_ids[seg_first]
    seg_pos = np.flatnonzero(seg_first)
    seg_lens = np.diff(np.append(seg_pos, len(row_ids)))
    chained = np.cumsum(z)
    firsts = chained - np.repeat((chained - z)[seg_pos], seg_lens)

    # Pass 2: within-row gaps, carry-corrected global cumsum.
    d = vals.astype(np.int64) + 1
    d[row_starts] = firsts
    running = np.cumsum(d)
    carry = (running - d)[row_starts]
    adj = running - np.repeat(carry, degrees[nz])
    if len(adj) and (int(adj.min()) < 0 or int(adj.max()) >= num_vertices):
        raise StoreFormatError(
            f"{source}: {region}: decoded neighbour id out of range "
            f"[0, {num_vertices}) — corrupt adjacency stream"
        )
    return adj


class CompressedCSR:
    """A parsed ``.scsr`` image with per-block decoding.

    The image (mmap or in-memory buffer) is never copied: the header
    and the three ``uint64`` index tables are zero-copy views, and
    only the blocks a caller touches are varint-decoded — into fresh
    arrays held by an LRU cache whose footprint :class:`BlockCacheStats`
    tracks. All parsing errors raise
    :class:`~repro.errors.StoreFormatError` naming ``source``.
    """

    def __init__(
        self,
        image: np.ndarray,
        *,
        source: str = "<buffer>",
        cache_blocks: int = DEFAULT_CACHE_BLOCKS,
    ):
        self._image = np.ascontiguousarray(image, dtype=np.uint8).reshape(-1)
        self._source = source
        self.stats = BlockCacheStats()
        self._cache: OrderedDict[int, tuple[np.ndarray, np.ndarray]] = (
            OrderedDict()
        )
        self._cache_blocks = max(int(cache_blocks), 1)
        self._resident_bytes = 0
        self._degrees: np.ndarray | None = None
        self._indptr: np.ndarray | None = None

        self.header, index_offset = unpack_header(self._image, source=source)
        self._index_offset = index_offset
        entries = self.header.index_entries
        table = 8 * entries
        streams_start = index_offset + 3 * table
        if streams_start > len(self._image):
            raise StoreFormatError(
                f"{source}: file too short for the block index (truncated)"
            )

        def _table(k: int) -> np.ndarray:
            lo = index_offset + k * table
            return self._image[lo : lo + table].view(np.uint64)

        self._first_edge = _table(0).astype(np.int64)
        self._deg_offsets = _table(1).astype(np.int64)
        self._adj_offsets = _table(2).astype(np.int64)
        for label, offs, last in (
            ("first_edge", self._first_edge, self.header.num_directed_edges),
            ("deg_offsets", self._deg_offsets, None),
            ("adj_offsets", self._adj_offsets, None),
        ):
            if offs[0] != 0 or (np.diff(offs) < 0).any():
                raise StoreFormatError(
                    f"{source}: {label} index is not monotone (corrupt)"
                )
            if last is not None and offs[-1] != last:
                raise StoreFormatError(
                    f"{source}: {label} index ends at {int(offs[-1])}, "
                    f"header claims {last} arcs"
                )
        deg_len = int(self._deg_offsets[-1])
        adj_len = int(self._adj_offsets[-1])
        self._deg_stream = self._image[streams_start : streams_start + deg_len]
        adj_start = streams_start + deg_len
        self._adj_stream = self._image[adj_start : adj_start + adj_len]
        if adj_start + adj_len > len(self._image):
            raise StoreFormatError(
                f"{source}: adjacency stream runs past end of file "
                f"(truncated: need {adj_start + adj_len} bytes, "
                f"have {len(self._image)})"
            )
        self._bounds = _block_boundaries(
            self.header.num_vertices, self.header.block_size
        )
        self._decoded_once = np.zeros(self.header.num_blocks, dtype=bool)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls, path: str | os.PathLike, *, cache_blocks: int = DEFAULT_CACHE_BLOCKS
    ) -> "CompressedCSR":
        """Memory-map ``path`` read-only and parse it (zero-copy)."""
        try:
            image = np.memmap(path, dtype=np.uint8, mode="r")
        except (OSError, ValueError) as exc:
            raise StoreFormatError(f"{path}: cannot map .scsr file ({exc})") from exc
        return cls(image, source=str(path), cache_blocks=cache_blocks)

    @classmethod
    def from_buffer(
        cls,
        buf,
        *,
        source: str = "<shared>",
        cache_blocks: int = DEFAULT_CACHE_BLOCKS,
    ) -> "CompressedCSR":
        """Parse an in-memory image (e.g. a shared-memory segment)."""
        return cls(
            np.frombuffer(buf, dtype=np.uint8),
            source=source,
            cache_blocks=cache_blocks,
        )

    # ------------------------------------------------------------------
    # Size accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.header.num_vertices

    @property
    def num_directed_edges(self) -> int:
        return self.header.num_directed_edges

    @property
    def num_blocks(self) -> int:
        return self.header.num_blocks

    @property
    def block_size(self) -> int:
        return self.header.block_size

    @property
    def name(self) -> str:
        return self.header.name

    @property
    def provenance(self) -> str:
        return self.header.provenance

    @property
    def digest(self) -> str:
        """Content digest of the decoded arrays (from the header)."""
        return self.header.digest

    @property
    def image_nbytes(self) -> int:
        """Bytes of the compressed image (what shm sharing ships)."""
        return len(self._image)

    @property
    def image(self) -> np.ndarray:
        """The raw ``uint8`` image (read-only view)."""
        return self._image

    @property
    def section_nbytes(self) -> dict[str, int]:
        """Per-section byte breakdown of the image, in file order.

        The sections tile the file exactly: their sum equals
        :attr:`image_nbytes` (the ``convert --stats`` assertion).
        """
        return {
            "header": self._index_offset,
            "index": self.header.index_nbytes,
            "degree_stream": len(self._deg_stream),
            "adjacency_stream": len(self._adj_stream),
        }

    # ------------------------------------------------------------------
    # Block cache
    # ------------------------------------------------------------------
    @property
    def cache_resident_bytes(self) -> int:
        """Decoded bytes currently held by the block cache."""
        return self._resident_bytes

    def _trim_cache(self) -> None:
        """Evict LRU entries until the cache holds ``cache_blocks``."""
        while len(self._cache) > self._cache_blocks:
            _, (li, adj) = self._cache.popitem(last=False)
            self._resident_bytes -= li.nbytes + adj.nbytes
            self.stats.evictions += 1

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def degrees(self) -> np.ndarray:
        """All vertex degrees (decoded once from the degree stream)."""
        if self._degrees is None:
            n = self.header.num_vertices
            degs = decode_varints(self._deg_stream, expected=n).astype(np.int64)
            if int(degs.sum()) != self.header.num_directed_edges:
                raise StoreFormatError(
                    f"{self._source}: degree stream sums to {int(degs.sum())}, "
                    f"header claims {self.header.num_directed_edges} arcs"
                )
            indptr = np.concatenate(([0], np.cumsum(degs)))
            if (indptr[self._bounds] != self._first_edge).any():
                raise StoreFormatError(
                    f"{self._source}: first_edge index disagrees with "
                    "the degree stream (corrupt)"
                )
            self._indptr = indptr
            degs.setflags(write=False)
            self._degrees = degs
        return self._degrees

    def indptr(self) -> np.ndarray:
        """The full ``int64`` row-pointer array (cached)."""
        if self._indptr is None:
            self.degrees()
        return self._indptr

    def decode_block(self, block: int) -> tuple[np.ndarray, np.ndarray]:
        """Decode (or fetch cached) one block's rows.

        Returns ``(local_indptr, neighbors)``: ``local_indptr`` has one
        entry per block vertex plus one, relative to the block's first
        arc, and ``neighbors`` is the block's concatenated adjacency
        (``int64`` absolute ids). Vertex ``v`` of block ``b`` (global
        id ``b * block_size + i``) owns
        ``neighbors[local_indptr[i]:local_indptr[i + 1]]``.
        """
        if not 0 <= block < self.header.num_blocks:
            raise StoreFormatError(
                f"{self._source}: block {block} out of range "
                f"[0, {self.header.num_blocks})"
            )
        self.stats.block_requests += 1
        cached = self._cache.get(block)
        if cached is not None:
            self.stats.block_hits += 1
            self._cache.move_to_end(block)
            return cached
        return self._decode_blocks(np.array([block], dtype=np.int64))[0]

    def _decode_blocks(
        self, ids: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Decode an ascending set of blocks in one varint pass each.

        ``ids`` need not be contiguous: the byte slices of each maximal
        contiguous run are concatenated (cheap memcpy of the encoded
        bytes) and both streams decode in a single
        :func:`decode_varints` call — the fixed per-call cost that
        dominates scattered single-block decodes is paid once per
        *gather*, not once per block. The first-delta chains reset at
        block boundaries, so :func:`_decode_rows` rebuilds absolute ids
        across the whole concatenation given the explicit row ids.

        Returns one ``(local_indptr, neighbors)`` entry per block in
        ``ids`` order, each also inserted (as a copy) into the LRU cache.
        """
        ids = np.asarray(ids, dtype=np.int64)
        region = (
            f"block {int(ids[0])}"
            if len(ids) == 1
            else f"blocks {int(ids[0])}..{int(ids[-1])} ({len(ids)} of them)"
        )
        t0 = time.perf_counter()
        # Maximal contiguous runs of ids: one byte-slice pair per run.
        cuts = np.flatnonzero(np.diff(ids) > 1) + 1
        run_lo = ids[np.concatenate(([0], cuts))]
        run_hi = ids[np.concatenate((cuts - 1, [len(ids) - 1]))] + 1
        def _splice(stream: np.ndarray, offsets: np.ndarray) -> np.ndarray:
            parts = [
                stream[offsets[lo] : offsets[hi]]
                for lo, hi in zip(run_lo, run_hi)
            ]
            return parts[0] if len(parts) == 1 else np.concatenate(parts)
        counts = self._bounds[ids + 1] - self._bounds[ids]
        degs = decode_varints(
            _splice(self._deg_stream, self._deg_offsets),
            expected=int(counts.sum()),
        ).astype(np.int64)
        exp_arcs = self._first_edge[ids + 1] - self._first_edge[ids]
        local = np.concatenate(([0], np.cumsum(degs)))
        vtx_bounds = np.concatenate(([0], np.cumsum(counts)))
        arc_bounds = np.concatenate(([0], np.cumsum(exp_arcs)))
        if (local[vtx_bounds] != arc_bounds).any():
            raise StoreFormatError(
                f"{self._source}: {region}: degrees sum to "
                f"{int(degs.sum())}, block index claims "
                f"{int(exp_arcs.sum())} arcs (corrupt)"
            )
        vals = decode_varints(
            _splice(self._adj_stream, self._adj_offsets),
            expected=int(exp_arcs.sum()),
        )
        total_rows = int(counts.sum())
        ramp = np.arange(total_rows, dtype=np.int64)
        row_ids = ramp + np.repeat(
            self._bounds[ids] - vtx_bounds[:-1], counts
        )
        adj = _decode_rows(
            vals,
            degs,
            0,
            self.header.num_vertices,
            self.header.block_size,
            source=self._source,
            region=region,
            row_ids=row_ids,
        )
        self.stats.decode_seconds += time.perf_counter() - t0
        entries: list[tuple[np.ndarray, np.ndarray]] = []
        redecoded = int(self._decoded_once[ids].sum())
        self.stats.blocks_decoded += len(ids)
        self.stats.redecoded_blocks += redecoded
        self._decoded_once[ids] = True
        for k, b in enumerate(ids.tolist()):
            rlo = int(vtx_bounds[k])
            rhi = int(vtx_bounds[k + 1])
            alo = int(local[rlo])
            li = local[rlo : rhi + 1] - alo
            a = adj[alo : int(local[rhi])].copy()
            entry = (li, a)
            self.stats.decoded_bytes += li.nbytes + a.nbytes
            old = self._cache.pop(b, None)
            if old is not None:
                self._resident_bytes -= old[0].nbytes + old[1].nbytes
            self._cache[b] = entry
            self._resident_bytes += li.nbytes + a.nbytes
            entries.append(entry)
        self._trim_cache()
        return entries

    def gather_rows(
        self, vertices: np.ndarray, *, pool=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated neighbour lists of ``vertices`` via block decode.

        The block-path twin of
        :func:`repro.bfs.frontier.gather_neighbors`: vertices are
        grouped by block, each needed block is decoded once (LRU-cached
        across calls), and the rows are scattered back into request
        order with the same ``repeat``/``cumsum`` arithmetic the
        in-memory gather uses. Returns ``(values, lengths)``.

        ``pool`` (a duck-typed :class:`~repro.bfs.kernel.Workspace`)
        supplies the cached ``arange`` ramp.

        Cache misses are decoded in bulk: all missing blocks (however
        scattered) share one varint pass per stream via
        :meth:`_decode_blocks` — split only when a pass would outgrow
        its scratch cap — and the request scatters in a single
        fancy-index over the assembled blocks instead of a per-block
        loop.
        """
        v = np.asarray(vertices, dtype=np.int64).ravel()
        if len(v) and (int(v.min()) < 0 or int(v.max()) >= self.num_vertices):
            raise StoreFormatError(
                f"{self._source}: gather vertex out of range "
                f"[0, {self.num_vertices})"
            )
        lengths = self.degrees()[v] if len(v) else np.empty(0, dtype=np.int64)
        total = int(lengths.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64), lengths
        blocks = v // self.header.block_size
        uniq = np.unique(blocks)
        self.stats.block_requests += len(uniq)
        entries: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        missing: list[int] = []
        for b in uniq.tolist():
            entry = self._cache.get(b)
            if entry is not None:
                self.stats.block_hits += 1
                self._cache.move_to_end(b)
                entries[b] = entry
            else:
                missing.append(b)
        if missing:
            miss = np.array(missing, dtype=np.int64)
            arcs = (
                self._first_edge[miss + 1] - self._first_edge[miss]
            )
            group = np.cumsum(arcs) // _RUN_DECODE_ARCS
            for g in np.unique(group):
                chunk = miss[group == g]
                for b, entry in zip(chunk.tolist(), self._decode_blocks(chunk)):
                    entries[b] = entry
        adj_list = [entries[b][1] for b in uniq.tolist()]
        sizes = np.fromiter(
            (len(a) for a in adj_list), dtype=np.int64, count=len(adj_list)
        )
        base = np.concatenate(([0], np.cumsum(sizes)))
        big = adj_list[0] if len(adj_list) == 1 else np.concatenate(adj_list)
        bidx = np.searchsorted(uniq, blocks)
        # A row's arcs sit at its global indptr offset minus the arc
        # base of its block — the entry holds the full block.
        pos = base[bidx] + (self.indptr()[v] - self._first_edge[blocks])
        ramp = (
            pool.arange(total)
            if pool is not None
            else np.arange(total, dtype=np.int64)
        )
        prefix = np.cumsum(lengths) - lengths
        flat = ramp[:total] + np.repeat(pos - prefix, lengths)
        return big[flat], lengths

    def to_graph(self, *, verify: bool = True) -> CSRGraph:
        """Full vectorized decode into a :class:`CSRGraph`.

        The one-shot path behind :func:`load_scsr`: both streams decode
        in single passes (no per-block loop), and with ``verify`` the
        result is hashed and compared against the header's content
        digest — any bit damage the structural checks missed fails
        here instead of producing silently wrong distances.
        """
        degs = self.degrees()
        indptr = self.indptr()
        vals = decode_varints(
            self._adj_stream, expected=self.header.num_directed_edges
        )
        adj = _decode_rows(
            vals,
            degs,
            0,
            self.header.num_vertices,
            self.header.block_size,
            source=self._source,
            region="adjacency stream",
        )
        indices = adj.astype(self.header.indices_dtype)
        if verify:
            actual = content_digest(indptr, indices)
            if actual != self.header.digest:
                raise StoreFormatError(
                    f"{self._source}: content digest mismatch after decode "
                    f"(header {self.header.digest[:12]}…, decoded "
                    f"{actual[:12]}…) — corrupt store"
                )
        return CSRGraph(
            indptr, indices, name=self.header.name, storage=STORAGE_TAG
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the image reference and decoded caches (idempotent).

        For mmap-backed stores this releases the mapping once no
        decoded graph view references it (decoded arrays are copies,
        never views, so closing is always safe).
        """
        self._cache.clear()
        self._resident_bytes = 0
        image = self._image
        self._image = np.empty(0, dtype=np.uint8)
        self._deg_stream = self._adj_stream = self._image
        if isinstance(image, np.memmap):
            try:
                image._mmap.close()  # type: ignore[attr-defined]
            except (AttributeError, BufferError, OSError):
                pass

    def __enter__(self) -> "CompressedCSR":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompressedCSR(name={self.name!r}, n={self.num_vertices}, "
            f"arcs={self.num_directed_edges}, blocks={self.num_blocks}, "
            f"{self.image_nbytes} bytes)"
        )


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def _chunk_block_ranges(
    bounds: np.ndarray, first_edge: np.ndarray, chunk_cap: int
) -> list[tuple[int, int]]:
    """Partition the block sequence into encoder chunks.

    Greedy block-aligned ranges ``[block_lo, block_hi)`` covering every
    block in order, each capped at ``chunk_cap`` arcs **and**
    ``chunk_cap`` vertices (the vertex cap keeps sparse regions — or
    all-isolated graphs — from pulling the whole file into one chunk),
    always at least one block so oversized single blocks still encode.
    """
    num_blocks = len(bounds) - 1
    ranges: list[tuple[int, int]] = []
    b = 0
    while b < num_blocks:
        arc_hi = int(
            np.searchsorted(first_edge, first_edge[b] + chunk_cap, side="right")
        ) - 1
        vert_hi = int(
            np.searchsorted(bounds, bounds[b] + chunk_cap, side="right")
        ) - 1
        hi = min(min(arc_hi, vert_hi), num_blocks)
        hi = max(hi, b + 1)
        ranges.append((b, hi))
        b = hi
    return ranges


def _encode_adjacency_chunk(
    idx: np.ndarray,
    degrees: np.ndarray,
    local_offsets: np.ndarray,
    first_vertex: int,
    block_size: int,
) -> np.ndarray:
    """Delta/zigzag codes for a block-aligned run of rows.

    ``idx`` holds the chunk's neighbour ids (``int64``), ``degrees``
    its per-row counts, and ``local_offsets`` the row starts relative
    to the chunk (``len(degrees) + 1`` entries starting at 0);
    ``first_vertex`` is the chunk's first vertex id and must sit on a
    block boundary — then the first-delta chain, which resets at block
    boundaries, never reaches outside the chunk and the codes are
    byte-for-byte what a whole-graph encode would produce.
    """
    d = np.empty(len(idx), dtype=np.int64)
    if len(idx):
        d[0] = 0
        d[1:] = idx[1:] - idx[:-1] - 1
    nz = degrees > 0
    row_starts = local_offsets[:-1][nz]
    row_ids = first_vertex + np.flatnonzero(nz)
    # Row-start slots hold cross-row garbage (possibly negative) until
    # this overwrite; every other slot is a within-row gap - 1 >= 0.
    d[row_starts] = 0
    codes = d.astype(np.uint64)
    if len(row_ids):
        # First-neighbour codes chain row-to-row within a block: each
        # block's first non-empty row anchors to its own vertex id,
        # later rows encode against the previous non-empty row's first
        # neighbour (consecutive rows of a locality-reordered CSR have
        # near-identical firsts, so the chained delta is ~1 byte where
        # the absolute one needs 2-3). Blocks stay self-contained.
        firsts = idx[row_starts]
        row_blocks = row_ids // block_size
        seg_first = np.empty(len(row_ids), dtype=bool)
        seg_first[0] = True
        seg_first[1:] = row_blocks[1:] != row_blocks[:-1]
        prev = np.empty(len(row_ids), dtype=np.int64)
        prev[0] = 0
        prev[1:] = firsts[:-1]
        base = np.where(seg_first, row_ids, prev)
        codes[row_starts] = zigzag_encode(firsts - base)
    return codes


def save_scsr(
    graph: CSRGraph,
    path: str | os.PathLike,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    provenance: str = "",
    chunk_edges: int | None = None,
) -> StoreInfo:
    """Encode ``graph`` into a ``.scsr`` image at ``path``.

    The encoder streams: it walks the blocks in chunk-sized runs
    (``chunk_edges`` caps each run's arcs and vertices), writes the
    degree and adjacency streams sequentially behind a zeroed index
    placeholder, and seeks back once at the end to patch the three
    block-index tables. Peak transient memory is ``O(chunk_edges)``
    regardless of graph size — ``chunk_edges=None`` uses a single
    chunk, which is the fastest path when the whole graph fits — and
    the output is byte-identical for every chunk size because the
    first-delta chain resets at block boundaries, so block-aligned
    chunks encode exactly what a whole-graph pass would.

    ``provenance`` records how the vertex order was produced (e.g.
    ``"reorder=bfs"``) — the compression ratio is a property of graph ×
    order, and the header keeps the pairing honest. The write is atomic
    (temp file + rename, with a random suffix so concurrent saves in
    one process cannot collide) so a crash cannot leave a half-written
    store behind.
    """
    if block_size < 1:
        raise StoreFormatError(f"block size must be >= 1, got {block_size}")
    if chunk_edges is not None and chunk_edges < 1:
        raise StoreFormatError(f"chunk_edges must be >= 1, got {chunk_edges}")
    n = graph.num_vertices
    m = graph.num_directed_edges
    indptr = graph.indptr
    degrees = np.diff(indptr)

    bounds = _block_boundaries(n, block_size)
    num_blocks = len(bounds) - 1
    entries = num_blocks + 1
    first_edge = indptr[bounds].astype(np.int64)
    chunk_cap = int(chunk_edges) if chunk_edges is not None else max(n, m, 1)
    ranges = _chunk_block_ranges(bounds, first_edge, chunk_cap)

    header = StoreHeader(
        num_vertices=n,
        num_directed_edges=m,
        block_size=block_size,
        num_blocks=num_blocks,
        indices_dtype=graph.indices.dtype,
        digest=content_digest(graph.indptr, graph.indices),
        name=graph.name,
        provenance=provenance,
    )
    header_bytes = pack_header(header)
    index_nbytes = 3 * 8 * entries

    deg_offsets = np.zeros(entries, dtype=np.int64)
    adj_offsets = np.zeros(entries, dtype=np.int64)
    persistent = (
        bounds.nbytes + first_edge.nbytes + deg_offsets.nbytes + adj_offsets.nbytes
    )
    peak_bytes = persistent
    deg_total = 0
    adj_total = 0

    path = os.fspath(path)
    tmp = f"{path}.tmp-{os.getpid()}-{secrets.token_hex(4)}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header_bytes)
            fh.write(b"\0" * index_nbytes)

            # Degree stream, chunk by chunk.
            for bl, bh in ranges:
                lo_v, hi_v = int(bounds[bl]), int(bounds[bh])
                chunk_degs = degrees[lo_v:hi_v].astype(np.uint64)
                stream, lengths = encode_varints(chunk_degs)
                offs = varint_offsets(lengths)
                deg_offsets[bl:bh] = deg_total + offs[bounds[bl:bh] - lo_v]
                fh.write(stream.data)
                deg_total += len(stream)
                # uint64 copy + encode-internal copies (lengths, starts,
                # remaining) + boundary offsets + the stream itself.
                transient = (
                    2 * chunk_degs.nbytes
                    + 2 * lengths.nbytes
                    + offs.nbytes
                    + stream.nbytes
                )
                peak_bytes = max(peak_bytes, persistent + transient)
            deg_offsets[num_blocks] = deg_total

            # Adjacency stream, chunk by chunk.
            for bl, bh in ranges:
                lo_v, hi_v = int(bounds[bl]), int(bounds[bh])
                e0, e1 = int(first_edge[bl]), int(first_edge[bh])
                idx = graph.indices[e0:e1].astype(np.int64)
                local_offsets = indptr[lo_v : hi_v + 1] - e0
                codes = _encode_adjacency_chunk(
                    idx, degrees[lo_v:hi_v], local_offsets, lo_v, block_size
                )
                stream, lengths = encode_varints(codes)
                offs = varint_offsets(lengths)
                adj_offsets[bl:bh] = adj_total + offs[first_edge[bl:bh] - e0]
                fh.write(stream.data)
                adj_total += len(stream)
                # idx copy + delta/code pair + encode-internal copies
                # (lengths, starts, remaining) + offsets + stream.
                transient = (
                    3 * idx.nbytes
                    + 2 * lengths.nbytes
                    + codes.nbytes
                    + local_offsets.nbytes
                    + offs.nbytes
                    + stream.nbytes
                )
                peak_bytes = max(peak_bytes, persistent + transient)
            adj_offsets[num_blocks] = adj_total

            # Back-patch the three fixed-width index tables.
            fh.seek(len(header_bytes))
            fh.write(np.ascontiguousarray(first_edge, dtype="<u8").data)
            fh.write(np.ascontiguousarray(deg_offsets, dtype="<u8").data)
            fh.write(np.ascontiguousarray(adj_offsets, dtype="<u8").data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # pragma: no cover - crash cleanup
            os.unlink(tmp)
    return StoreInfo(
        path=path,
        nbytes=len(header_bytes) + index_nbytes + deg_total + adj_total,
        num_vertices=n,
        num_edges=graph.num_edges,
        num_directed_edges=m,
        block_size=block_size,
        num_blocks=num_blocks,
        provenance=provenance,
        header_nbytes=len(header_bytes),
        deg_stream_nbytes=deg_total,
        adj_stream_nbytes=adj_total,
        encoder_peak_bytes=peak_bytes,
        chunk_edges=chunk_edges,
    )


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def open_scsr(
    path: str | os.PathLike, *, cache_blocks: int = DEFAULT_CACHE_BLOCKS
) -> CompressedCSR:
    """Open a ``.scsr`` file as a block-decodable handle (mmap, zero-copy)."""
    return CompressedCSR.open(path, cache_blocks=cache_blocks)


def load_scsr(
    path: str | os.PathLike, *, mmap: bool = False, verify: bool = True
) -> CSRGraph:
    """Load a ``.scsr`` file into a :class:`CSRGraph`.

    The decoded graph carries ``storage="{tag}"`` so its
    :func:`~repro.graph.io.graph_digest` — and with it every warm-start
    sidecar — is distinct from an ``.npz`` load of the same arrays.

    With ``mmap=True`` the compressed image stays memory-mapped and
    attached as the graph's :attr:`~repro.graph.csr.CSRGraph.backing_store`,
    and :class:`~repro.parallel.shm.SharedCSR` ships the compressed
    image (not the decoded arrays) to worker processes. Traversals
    read the decoded arrays either way. With ``mmap=False`` the store
    is closed after the decode and the graph is indistinguishable from
    any in-memory CSR apart from its storage tag.
    """
    store = open_scsr(path)
    try:
        graph = store.to_graph(verify=verify)
    except Exception:
        store.close()
        raise
    if mmap:
        object.__setattr__(graph, "_backing", store)
    else:
        store.close()
    return graph


load_scsr.__doc__ = load_scsr.__doc__.format(tag=STORAGE_TAG)

# Re-exported for introspection parity with the format module.
SCHEMA_VERSION = FORMAT_VERSION
