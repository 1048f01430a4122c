"""``repro.store`` — the succinct block-compressed CSR container.

Gap/delta-encoded, varint-packed adjacency grouped into fixed-size
vertex blocks behind a fixed-width offset index; blocks decode
independently off an ``mmap``'d image (see DESIGN.md §13 and
:mod:`repro.store.format` for the exact layout). Loading decodes the
whole CSR (:func:`load_scsr`), and every traversal reads those decoded
arrays; per-block decoding (:meth:`CompressedCSR.gather_rows`) is the
format's random-access reader, not a traversal path (DESIGN.md §14).
"""

from repro.store.format import (
    FORMAT_VERSION,
    HEADER_STRUCT,
    MAGIC,
    STORAGE_TAG,
    StoreHeader,
    pack_header,
    unpack_header,
)
from repro.store.scsr import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_CACHE_BLOCKS,
    BlockCacheStats,
    CompressedCSR,
    StoreInfo,
    load_scsr,
    open_scsr,
    save_scsr,
)
from repro.store.varint import (
    MAX_VARINT_BYTES,
    decode_varints,
    encode_varints,
    varint_lengths,
    varint_offsets,
    zigzag_decode,
    zigzag_encode,
)
