"""Row-block sparse matrix helpers.

FSD-Inference parallelises inference through *row-wise* partitioning of the
(sparse) weight matrices and activation vectors/matrices (Section III-C).
This module provides the small set of structural operations the engine and
the partitioners need on top of ``scipy.sparse``:

* building CSR matrices with validated shapes;
* slicing a matrix into row blocks given an ownership assignment;
* extracting a subset of *global* rows from a block that stores them locally;
* measuring the memory footprint of sparse structures (for the FaaS memory
  accounting).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse._sparsetools import csr_row_index

__all__ = [
    "RowBlock",
    "as_csr",
    "split_rows",
    "csr_nbytes",
    "csr_digest",
    "rows_with_nonzeros",
    "empty_csr",
    "expand_rows",
    "gather_rows",
    "positions_in_sorted",
    "unsafe_csr",
]


#: scipy's default ``maxprint`` (``scipy.sparse._base.MAXPRINT``).
_MAXPRINT = 50


def positions_in_sorted(sorted_values: np.ndarray, queries: Sequence[int]) -> np.ndarray:
    """Positions of ``queries`` within ascending ``sorted_values``.

    Vectorized membership lookup for the hot path (replaces per-row dict
    probes).  Raises ``KeyError`` naming the first query that is absent; an
    empty query set always succeeds with an empty result.
    """
    queries = np.asarray(queries, dtype=np.int64).ravel()
    if queries.size == 0:
        return np.empty(0, dtype=np.int64)
    if sorted_values.size == 0:
        raise KeyError(int(queries[0]))
    found = np.searchsorted(sorted_values, queries)
    clipped = np.minimum(found, sorted_values.size - 1)
    matched = (found < sorted_values.size) & (sorted_values[clipped] == queries)
    if not matched.all():
        raise KeyError(int(queries[np.argmin(matched)]))
    return clipped


def as_csr(matrix: sparse.spmatrix | np.ndarray) -> sparse.csr_matrix:
    """Return ``matrix`` as a CSR matrix without copying when already CSR."""
    if sparse.isspmatrix_csr(matrix):
        return matrix
    return sparse.csr_matrix(matrix)


def empty_csr(shape: tuple) -> sparse.csr_matrix:
    """An all-zero CSR matrix of ``shape``."""
    return sparse.csr_matrix(shape, dtype=np.float64)


def csr_nbytes(matrix: sparse.spmatrix) -> int:
    """Approximate resident bytes of a CSR/CSC matrix (data + indices + indptr)."""
    matrix = as_csr(matrix)
    return int(matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)


def csr_digest(matrix: sparse.spmatrix) -> bytes:
    """Content digest of a sparse matrix (shape + CSR structure + data).

    Equal stored content gives equal digests whether or not it is the same
    object, and a matrix mutated in place digests differently -- which is why
    content-addressed caches (replay outcomes, forward-work profiles) key on
    it rather than on ``id()``.  The arrays are hashed through the buffer
    protocol, without a ``tobytes()`` copy each.
    """
    csr = matrix.tocsr()
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr(csr.shape).encode())
    digest.update(np.ascontiguousarray(csr.indptr))
    digest.update(np.ascontiguousarray(csr.indices))
    digest.update(np.ascontiguousarray(csr.data))
    return digest.digest()


def rows_with_nonzeros(matrix: sparse.csr_matrix) -> np.ndarray:
    """Indices of rows that contain at least one nonzero."""
    matrix = as_csr(matrix)
    counts = np.diff(matrix.indptr)
    return np.flatnonzero(counts > 0)


def unsafe_csr(
    data: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    shape: tuple,
) -> sparse.csr_matrix:
    """Build a CSR matrix from pre-validated arrays, skipping scipy's checks.

    The hot path constructs thousands of small CSR matrices per query from
    arrays that are correct by construction; scipy's constructor spends more
    time validating and canonicalising them than the kernels spend computing.
    Falls back to the validating constructor if the internal layout of scipy
    ever changes.  Callers must guarantee consistency (``len(indptr) ==
    shape[0] + 1``, ``indptr[-1] == len(data) == len(indices)``) and pass the
    index dtype scipy would have chosen (``int32`` whenever contents fit):
    nothing is cast here.
    """
    try:
        matrix = sparse.csr_matrix.__new__(sparse.csr_matrix)
        matrix.data = data
        matrix.indices = indices
        matrix.indptr = indptr
        matrix._shape = shape
        matrix.maxprint = _MAXPRINT  # read by ``str()``; set by the constructor
        return matrix
    except AttributeError:
        return sparse.csr_matrix((data, indices, indptr), shape=shape)


def gather_rows(
    matrix: sparse.csr_matrix,
    positions: np.ndarray,
    row_nnz: Optional[np.ndarray] = None,
) -> sparse.csr_matrix:
    """Extract ``matrix[positions, :]`` through scipy's ``csr_row_index`` kernel.

    Equivalent to scipy's fancy row indexing (row order preserved, values
    bit-identical, the source's index dtype) but without the index-validation
    and canonicalisation overhead, which dominates for the small extractions
    of the send phase.  ``row_nnz`` is ``np.diff(matrix.indptr)`` for callers
    that gather from the same matrix more than once.
    """
    matrix = as_csr(matrix)
    index_dtype = matrix.indices.dtype
    positions = np.asarray(positions, dtype=index_dtype)
    source_indptr = np.asarray(matrix.indptr, dtype=index_dtype)
    if row_nnz is None:
        counts = source_indptr[positions + 1] - source_indptr[positions]
    else:
        counts = row_nnz[positions]
    indptr = np.zeros(len(positions) + 1, dtype=index_dtype)
    np.cumsum(counts, out=indptr[1:])
    total = int(indptr[-1])
    indices = np.empty(total, dtype=index_dtype)
    data = np.empty(total, dtype=matrix.data.dtype)
    csr_row_index(
        len(positions), positions, source_indptr, matrix.indices, matrix.data, indices, data
    )
    return unsafe_csr(data, indices, indptr, (len(positions), matrix.shape[1]))


@dataclass
class RowBlock:
    """A block of rows of a larger (virtual) matrix.

    ``global_rows`` holds the global row indices, in the order in which they
    are stored in ``local``; ``local`` has ``len(global_rows)`` rows and the
    full global column dimension, so products against other blocks need no
    column re-indexing.
    """

    global_rows: np.ndarray
    local: sparse.csr_matrix

    def __post_init__(self) -> None:
        self.global_rows = np.asarray(self.global_rows, dtype=np.int64)
        self.local = as_csr(self.local)
        if self.local.shape[0] != len(self.global_rows):
            raise ValueError(
                f"row block stores {self.local.shape[0]} rows but was given "
                f"{len(self.global_rows)} global row indices"
            )
        # Sorted view of the global rows for vectorized (searchsorted) lookup;
        # ``_sorted_to_local`` maps a position in the sorted view back to the
        # storage order of ``local``.
        self._sorted_to_local = np.argsort(self.global_rows, kind="stable")
        self._sorted_rows = self.global_rows[self._sorted_to_local]
        # Lazily-built mask of local rows that carry nonzeros (blocks are
        # immutable in practice, so this never needs invalidation).
        self._nonzero_mask: Optional[np.ndarray] = None

    @property
    def num_rows(self) -> int:
        return len(self.global_rows)

    @property
    def num_cols(self) -> int:
        return self.local.shape[1]

    @property
    def nnz(self) -> int:
        return int(self.local.nnz)

    def nbytes(self) -> int:
        return csr_nbytes(self.local) + self.global_rows.nbytes

    def local_positions(self, global_rows: Sequence[int]) -> np.ndarray:
        """Local storage positions of ``global_rows`` (vectorized lookup).

        Raises ``KeyError`` on the first row the block does not own, matching
        the historical dict-based lookup.
        """
        return self._sorted_to_local[
            positions_in_sorted(self._sorted_rows, global_rows)
        ]

    def owns(self, global_row: int) -> bool:
        position = np.searchsorted(self._sorted_rows, int(global_row))
        return bool(
            position < self._sorted_rows.size
            and self._sorted_rows[position] == int(global_row)
        )

    def local_index(self, global_row: int) -> int:
        """Local position of ``global_row``; raises ``KeyError`` if not owned."""
        return int(self.local_positions(np.asarray([global_row]))[0])

    def extract_rows(self, global_rows: Sequence[int]) -> sparse.csr_matrix:
        """Extract the given global rows as a CSR matrix (rows in given order)."""
        return self.local[self.local_positions(global_rows), :]

    def extract_nonempty_rows(self, global_rows: Sequence[int]) -> tuple:
        """Split ``global_rows`` into (rows with data, rows without data).

        FSD-Inf-Object uses this to decide between writing a ``.dat`` object
        (some rows carry nonzeros) and a ``.nul`` marker (nothing to send).
        """
        if self._nonzero_mask is None:
            self._nonzero_mask = np.diff(self.local.indptr) > 0
        has_data = self._nonzero_mask[self.local_positions(global_rows)]
        with_data = [g for g, flag in zip(global_rows, has_data) if flag]
        without_data = [g for g, flag in zip(global_rows, has_data) if not flag]
        return with_data, without_data

    def to_dense(self) -> np.ndarray:
        return np.asarray(self.local.todense())


def expand_rows(
    global_rows: Sequence[int],
    rows: sparse.spmatrix,
    total_rows: int,
) -> sparse.csr_matrix:
    """Scatter a row block back into a ``(total_rows, cols)`` CSR matrix.

    ``rows`` holds ``len(global_rows)`` rows; the result places row ``i`` of
    ``rows`` at global position ``global_rows[i]`` and leaves every other row
    empty.  This is how a worker combines its own activation rows with rows
    received from peers before multiplying against its weight block.
    """
    rows = as_csr(rows)
    global_rows = np.asarray(global_rows, dtype=np.int64)
    if rows.shape[0] != len(global_rows):
        raise ValueError(
            f"row block stores {rows.shape[0]} rows but was given "
            f"{len(global_rows)} global row indices"
        )
    if len(global_rows) and (global_rows.min() < 0 or global_rows.max() >= total_rows):
        raise ValueError("a global row index falls outside the expanded matrix")

    indptr = np.zeros(total_rows + 1, dtype=np.int64)
    local_counts = np.diff(rows.indptr)
    indptr[global_rows + 1] = local_counts
    np.cumsum(indptr, out=indptr)

    # The rows of the expanded matrix must appear in ascending global order.
    if len(global_rows) == 0 or np.all(np.diff(global_rows) > 0):
        # Already sorted (the common case): the nonzeros keep their layout.
        data = rows.data.copy()
        indices = rows.indices.copy()
    else:
        order = np.argsort(global_rows, kind="stable")
        lengths = local_counts[order]
        destination_ends = np.cumsum(lengths)
        # For every output nonzero, its source position in ``rows``: the
        # start of its (reordered) source row plus its offset inside it.
        source = (
            np.arange(rows.nnz, dtype=np.int64)
            - np.repeat(destination_ends - lengths, lengths)
            + np.repeat(rows.indptr[order].astype(np.int64), lengths)
        )
        data = rows.data[source]
        indices = rows.indices[source]
    return sparse.csr_matrix((data, indices, indptr), shape=(total_rows, rows.shape[1]))


def split_rows(matrix: sparse.spmatrix, owner: np.ndarray, num_parts: int) -> List[RowBlock]:
    """Split ``matrix`` into ``num_parts`` row blocks according to ``owner``.

    ``owner[i]`` gives the part that owns global row ``i``.  Every part
    receives a :class:`RowBlock`, possibly with zero rows.
    """
    matrix = as_csr(matrix)
    owner = np.asarray(owner)
    if owner.shape[0] != matrix.shape[0]:
        raise ValueError(
            f"ownership vector has {owner.shape[0]} entries but the matrix has "
            f"{matrix.shape[0]} rows"
        )
    if owner.size and (owner.min() < 0 or owner.max() >= num_parts):
        raise ValueError("ownership vector references a part outside [0, num_parts)")
    blocks = []
    for part in range(num_parts):
        rows = np.flatnonzero(owner == part)
        blocks.append(RowBlock(global_rows=rows, local=matrix[rows, :]))
    return blocks
