"""Payload encoding for inter-worker activation transfers.

Workers exchange *rows of the activation matrix* (``x^{k-1}`` in the paper).
A payload is a set of global row indices plus the corresponding sparse rows,
serialised compactly and ZLIB-compressed (Section IV-B notes that both
channels compress with ZLIB to reduce communication volume).

For the pub-sub/queueing channel the payload must additionally be chunked to
respect the provider's 256 KB message limit.  The chunking follows the
paper's heuristic: the number of nonzeros per row estimates how many rows fit
into one message, rows are grouped greedily to maximise utilisation of the
allowed message size, and each group is compressed exactly once.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from scipy import sparse

from ..sparse import as_csr, unsafe_csr

__all__ = [
    "encode_row_payload",
    "decode_row_payload",
    "chunk_rows",
    "estimate_payload_bytes",
    "EncodedChunk",
]

_INT32_MAX = np.iinfo(np.int32).max
_MAGIC = b"FSDP"
_HEADER = struct.Struct("<4sIIQ")  # magic, n_rows, n_cols, nnz
#: Bytes of value+index storage per stored nonzero (float32 + int32).
_BYTES_PER_NNZ = 8
#: Fixed per-row overhead (row id + indptr entry).
_BYTES_PER_ROW = 16
#: Conservative compression ratio assumed by the chunking heuristic.
_ASSUMED_COMPRESSION = 0.6


class _ZlibMemo:
    """Bounded content-addressed cache of deterministic zlib transforms.

    ``zlib.compress(raw, 6)`` is a pure function of its input, and the
    simulator deflates identical content over and over: model partitions are
    re-staged on every engine run, repeated queries re-ship the same
    activation rows, and the chunking heuristic re-encodes a group when it
    has to split it.  Caching by content digest turns those repeats into a
    hash instead of a deflate while returning *byte-identical* payloads, so
    every simulated byte count, virtual-time latency and cost stays exactly
    the same.  Entries are evicted LRU once the cached payload bytes exceed
    the budget.
    """

    def __init__(self, max_bytes: int = 128 * 1024 * 1024):
        self._max_bytes = max_bytes
        self._bytes = 0
        self._store: "OrderedDict[bytes, bytes]" = OrderedDict()

    @staticmethod
    def digest(payload: bytes) -> bytes:
        return hashlib.blake2b(payload, digest_size=16).digest()

    def get(self, key: bytes) -> bytes | None:
        value = self._store.get(key)
        if value is not None:
            self._store.move_to_end(key)
        return value

    def put(self, key: bytes, value: bytes) -> None:
        if key in self._store:
            self._store.move_to_end(key)
            return
        self._store[key] = value
        self._bytes += len(value)
        while self._bytes > self._max_bytes and self._store:
            _, evicted = self._store.popitem(last=False)
            self._bytes -= len(evicted)


#: One store, one budget, both directions: ``digest(raw) -> deflated`` and
#: ``digest(deflated) -> raw``.  The two key sets cannot meet -- a raw block
#: starts with ``_MAGIC``, which is not a zlib stream header -- and sharing
#: the budget keeps a run of never-repeated payloads from retaining it twice.
_ZLIB_MEMO = _ZlibMemo()


def _compress(raw: bytes) -> bytes:
    key = _ZlibMemo.digest(raw)
    compressed = _ZLIB_MEMO.get(key)
    if compressed is None:
        compressed = zlib.compress(raw, level=6)
        _ZLIB_MEMO.put(key, compressed)
        # Prime the inverse transform: the receiver will inflate this exact
        # payload right back.
        _ZLIB_MEMO.put(_ZlibMemo.digest(compressed), raw)
    return compressed


def _decompress(payload: bytes) -> bytes:
    key = _ZlibMemo.digest(payload)
    raw = _ZLIB_MEMO.get(key)
    if raw is None:
        try:
            raw = zlib.decompress(payload)
        except zlib.error as error:
            raise ValueError(f"payload body is not a zlib stream: {error}") from error
        _ZLIB_MEMO.put(key, raw)
    return raw


@dataclass(frozen=True)
class EncodedChunk:
    """One encoded (and possibly compressed) group of activation rows."""

    payload: bytes
    row_count: int
    nnz: int

    @property
    def size_bytes(self) -> int:
        return len(self.payload)


def _as_bytes(array: np.ndarray, dtype: type) -> bytes:
    """``array.astype(dtype).tobytes()`` without the copy when dtypes match."""
    if array.dtype == dtype:
        return array.tobytes()
    return array.astype(dtype).tobytes()


def encode_row_payload(
    global_rows: Sequence[int],
    rows: sparse.spmatrix,
    compress: bool = True,
) -> bytes:
    """Serialise ``rows`` (CSR, one row per entry of ``global_rows``)."""
    rows = as_csr(rows)
    global_rows = np.asarray(global_rows, dtype=np.int64)
    if rows.shape[0] != len(global_rows):
        raise ValueError(
            f"payload has {rows.shape[0]} matrix rows but {len(global_rows)} row indices"
        )
    raw = b"".join(
        (
            _HEADER.pack(_MAGIC, rows.shape[0], rows.shape[1], rows.nnz),
            global_rows.tobytes(),
            _as_bytes(rows.indptr, np.int64),
            _as_bytes(rows.indices, np.int32),
            _as_bytes(rows.data, np.float64),
        )
    )
    if compress:
        return b"Z" + _compress(raw)
    return b"R" + raw


def decode_row_payload(payload: bytes) -> Tuple[np.ndarray, sparse.csr_matrix]:
    """Inverse of :func:`encode_row_payload`."""
    if not payload:
        raise ValueError("cannot decode an empty payload")
    marker, body = payload[:1], payload[1:]
    if marker == b"Z":
        raw = _decompress(body)
    elif marker == b"R":
        raw = body
    else:
        raise ValueError(f"unknown payload marker {marker!r}")
    if len(raw) < _HEADER.size:
        raise ValueError(f"payload body of {len(raw)} bytes is too short for a header")
    magic, n_rows, n_cols, nnz = _HEADER.unpack_from(raw, 0)
    if magic != _MAGIC:
        raise ValueError(f"payload magic {magic!r} is not an encoded row block's")
    needed = _HEADER.size + 8 * n_rows + 8 * (n_rows + 1) + (4 + 8) * nnz
    if len(raw) < needed:
        raise ValueError(
            f"payload body of {len(raw)} bytes is too short for its header's "
            f"n_rows={n_rows}, nnz={nnz} ({needed} bytes)"
        )
    offset = _HEADER.size
    global_rows = np.frombuffer(raw, dtype=np.int64, count=n_rows, offset=offset).copy()
    offset += global_rows.nbytes
    indptr = np.frombuffer(raw, dtype=np.int64, count=n_rows + 1, offset=offset)
    offset += indptr.nbytes
    indices = np.frombuffer(raw, dtype=np.int32, count=nnz, offset=offset)
    offset += indices.nbytes
    data = np.frombuffer(raw, dtype=np.float64, count=nnz, offset=offset)
    shape = (n_rows, n_cols)
    if nnz > _INT32_MAX or max(shape) > _INT32_MAX:
        return global_rows, sparse.csr_matrix((data, indices, indptr), shape=shape)
    # The O(1) checks of scipy's validating constructor, which is skipped:
    # it costs more than the rest of the decode at hot-path block sizes.
    if indptr[0] != 0:
        raise ValueError(f"payload indptr starts at {indptr[0]}, not 0")
    if indptr[-1] != nnz:
        raise ValueError(f"payload indptr ends at {indptr[-1]} but the header's nnz is {nnz}")
    # ``indices`` and ``data`` stay read-only views of the payload bytes (as
    # the constructor left them); ``indptr`` is narrowed to the index dtype.
    return global_rows, unsafe_csr(data, indices, indptr.astype(np.int32), shape)


def estimate_payload_bytes(row_nnz: np.ndarray, num_rows: int) -> float:
    """Heuristic encoded size of a group of rows with the given nonzero counts."""
    raw = _HEADER.size + num_rows * _BYTES_PER_ROW + float(row_nnz.sum()) * _BYTES_PER_NNZ
    return raw * _ASSUMED_COMPRESSION


def chunk_rows(
    global_rows: Sequence[int],
    rows: sparse.spmatrix,
    max_chunk_bytes: int,
    compress: bool = True,
) -> List[EncodedChunk]:
    """Split a row block into encoded chunks no larger than ``max_chunk_bytes``.

    Rows are grouped greedily using the NNZ-based size heuristic (grouping and
    compressing each group exactly once, as in Section III-C1); if a compressed
    group still exceeds the limit it is split recursively.  Always returns at
    least one chunk, even for an empty row set, so receivers can account for
    senders that had nothing to transmit.
    """
    rows = as_csr(rows)
    global_rows = np.asarray(global_rows, dtype=np.int64)
    if max_chunk_bytes <= _HEADER.size + _BYTES_PER_ROW:
        raise ValueError(f"max_chunk_bytes of {max_chunk_bytes} is too small to hold any row")
    count = len(global_rows)
    if rows.shape[0] != count:
        raise ValueError(f"block has {rows.shape[0]} matrix rows but {count} row indices")

    if count == 0:
        empty = sparse.csr_matrix((0, rows.shape[1]), dtype=np.float64)
        payload = encode_row_payload(global_rows, empty, compress)
        return [EncodedChunk(payload=payload, row_count=0, nnz=0)]

    #: ``cum_nnz[e]`` stored entries precede row ``e`` (CSR's own prefix sum).
    cum_nnz = rows.indptr
    chunks: List[EncodedChunk] = []

    def encode_group(start: int, stop: int) -> None:
        """Encode rows [start, stop); split recursively if too large."""
        if start == 0 and stop == count:
            # Whole block (the common case): skip both slices.
            group_rows, group_matrix = global_rows, rows
        else:
            group_rows, group_matrix = global_rows[start:stop], rows[start:stop, :]
        payload = encode_row_payload(group_rows, group_matrix, compress)
        if len(payload) > max_chunk_bytes and stop - start > 1:
            middle = (start + stop) // 2
            encode_group(start, middle)
            encode_group(middle, stop)
            return
        chunks.append(
            EncodedChunk(
                payload=payload,
                row_count=stop - start,
                nnz=int(cum_nnz[stop]) - int(cum_nnz[start]),
            )
        )

    # The greedy per-row loop this replaces admitted rows one at a time until
    # the NNZ-based size estimate overflowed the limit.  The same split points
    # fall out of a prefix-sum formulation: with
    # ``g[e] = BYTES_PER_ROW * e + BYTES_PER_NNZ * cum_nnz[e]`` (strictly
    # increasing), a group [s, e) fits exactly when the estimate
    # ``(HEADER + g[e] - g[s]) * compression`` stays within the limit, i.e.
    # when ``g[e] - g[s] <= budget`` for the largest integer ``budget`` whose
    # estimate still fits.  Every group is therefore a searchsorted call
    # instead of a per-row Python iteration, and the boundaries (including
    # the at-least-one-row rule for oversized rows) are bit-identical.
    def fits(extra_bytes: int) -> bool:
        return (_HEADER.size + float(extra_bytes)) * _ASSUMED_COMPRESSION <= max_chunk_bytes

    budget = int(max_chunk_bytes / _ASSUMED_COMPRESSION) - _HEADER.size
    while budget >= 0 and not fits(budget):
        budget -= 1
    while fits(budget + 1):
        budget += 1

    if _BYTES_PER_ROW * count + _BYTES_PER_NNZ * int(cum_nnz[count]) <= budget:
        # g[count] - g[0] fits: the search below would return one group.
        encode_group(0, count)
        return chunks
    g = _BYTES_PER_ROW * np.arange(count + 1, dtype=np.int64)
    g += _BYTES_PER_NNZ * cum_nnz.astype(np.int64)
    start = 0
    while start < count:
        stop = int(np.searchsorted(g, g[start] + budget, side="right")) - 1
        stop = min(max(stop, start + 1), count)
        encode_group(start, stop)
        start = stop
    return chunks
