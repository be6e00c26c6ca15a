"""Sparse numerical kernels used by the inference engine.

The Graph Challenge inference recurrence for one layer is

    Y_k = h(W_k @ Y_{k-1} + b_k)

where ``h`` clamps negative values to zero (ReLU) and saturates activations
at a cap (32 in the Graph Challenge), and the activations are kept sparse
throughout.  These kernels operate on ``scipy.sparse`` CSR matrices whose
rows are neurons and whose columns are samples, matching the paper's
matrix-matrix product (MMP) formulation for batch inference; a single sample
is simply a one-column matrix (MVP).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse._sparsetools import (
    csr_eliminate_zeros,
    csr_matmat,
    csr_matmat_maxnnz,
    csr_plus_csr,
)

from .matrix import as_csr, unsafe_csr

__all__ = [
    "spmm",
    "accumulate_spmm",
    "add_bias_to_nonzero_structure",
    "relu_threshold",
    "bias_relu_threshold",
    "sparsify",
    "flop_count_spmm",
    "activation_nnz",
]


_INT32_MAX = np.iinfo(np.int32).max


def spmm(weights: sparse.csr_matrix, activations: sparse.csr_matrix) -> sparse.csr_matrix:
    """Sparse matrix-matrix product ``weights @ activations`` (both CSR).

    Deliberately the scipy operator: this is what ``Network.forward`` -- the
    independent reference every distributed result is compared against --
    multiplies with, so it must not share code with :func:`accumulate_spmm`.
    """
    return as_csr(weights) @ as_csr(activations)


def _raw_operand(matrix: sparse.csr_matrix) -> bool:
    """Whether the raw kernels cover ``matrix``: ``float64`` data, ``int32``-sized."""
    return (
        matrix.data.dtype == np.float64
        and max(matrix.shape) <= _INT32_MAX
        and matrix.indptr[-1] <= _INT32_MAX
    )


def _index32(array: np.ndarray) -> np.ndarray:
    """``array`` as ``int32`` without a copy when it already is."""
    return array if array.dtype == np.int32 else array.astype(np.int32)


def _pruned_csr(
    data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape: tuple
) -> sparse.csr_matrix:
    """Wrap a kernel's over-allocated output, trimmed to ``indptr[-1]`` entries.

    Same retention rule as scipy's ``prune``: a view of each buffer, unless
    that would pin one more than twice the size of what is kept.
    """
    nnz = int(indptr[-1])
    if nnz != data.size:
        if nnz < data.size // 2:
            data, indices = data[:nnz].copy(), indices[:nnz].copy()
        else:
            data, indices = data[:nnz], indices[:nnz]
    return unsafe_csr(data, indices, indptr, shape)


def _matmat(a: sparse.csr_matrix, b: sparse.csr_matrix) -> sparse.csr_matrix:
    """``a @ b`` through ``csr_matmat`` directly, laid out as scipy returns it."""
    rows, cols = a.shape[0], b.shape[1]
    if not (a.shape[1] == b.shape[0] and _raw_operand(a) and _raw_operand(b)):
        return a @ b
    a_indptr, a_indices = _index32(a.indptr), _index32(a.indices)
    b_indptr, b_indices = _index32(b.indptr), _index32(b.indices)
    maxnnz = csr_matmat_maxnnz(rows, cols, a_indptr, a_indices, b_indptr, b_indices)
    if maxnnz > _INT32_MAX:
        return a @ b
    indptr = np.empty(rows + 1, np.int32)
    indices = np.empty(maxnnz, np.int32)
    data = np.empty(maxnnz, np.float64)
    csr_matmat(
        rows, cols, a_indptr, a_indices, a.data, b_indptr, b_indices, b.data,
        indptr, indices, data,
    )
    # The kernel drops sums that come out exactly zero, so it may fill less
    # than the structural bound.
    return _pruned_csr(data, indices, indptr, (rows, cols))


def _plus(a: sparse.csr_matrix, b: sparse.csr_matrix) -> sparse.csr_matrix:
    """``a + b`` through ``csr_plus_csr`` directly, trimmed as scipy prunes it."""
    maxnnz = int(a.indptr[-1]) + int(b.indptr[-1])
    if not (
        a.shape == b.shape and maxnnz <= _INT32_MAX and _raw_operand(a) and _raw_operand(b)
    ):
        return a + b
    rows, cols = a.shape
    indptr = np.empty(rows + 1, np.int32)
    indices = np.empty(maxnnz, np.int32)
    data = np.empty(maxnnz, np.float64)
    csr_plus_csr(
        rows, cols,
        _index32(a.indptr), _index32(a.indices), a.data,
        _index32(b.indptr), _index32(b.indices), b.data,
        indptr, indices, data,
    )
    return _pruned_csr(data, indices, indptr, (rows, cols))


def accumulate_spmm(
    accumulator: Optional[sparse.csr_matrix],
    weights: sparse.csr_matrix,
    activations: sparse.csr_matrix,
) -> sparse.csr_matrix:
    """``accumulator + weights @ activations`` (or just the product if ``None``).

    The inference hot path folds each received activation block into the
    running pre-activation ``z`` in arrival order.  Keeping one product and
    one addition per block preserves the exact floating-point accumulation
    order of the reference implementation (stacking blocks into a single
    product would round differently), which is what makes the local-dimension
    compute core bit-for-bit reproducible against the seed semantics.

    Product and sum call scipy's own C kernels without building a validated
    matrix in between: the arrays are correct by construction, and scipy's
    constructor costs several times what the kernels do at hot-path sizes.
    The result carries exactly what the operator formulation returns
    (``int32`` index arrays, ``float64`` data trimmed to ``nnz``); operands
    the kernels do not cover go through the scipy operators.
    """
    product = _matmat(as_csr(weights), as_csr(activations))
    if accumulator is None:
        return product
    return _plus(as_csr(accumulator), product)


def add_bias_to_nonzero_structure(
    accumulator: sparse.csr_matrix, bias: float
) -> sparse.csr_matrix:
    """Add a scalar bias to every *stored* entry of ``accumulator``.

    The Graph Challenge reference implementation adds the (negative) bias
    only where the pre-activation is nonzero -- adding it densely would turn
    the entire matrix dense and defeat the sparse formulation.  Explicit
    zeros are eliminated afterwards.
    """
    result = as_csr(accumulator).copy()
    result.data = result.data + bias
    result.eliminate_zeros()
    return result


def relu_threshold(
    activations: sparse.csr_matrix, cap: Optional[float] = 32.0
) -> sparse.csr_matrix:
    """Apply ReLU and (optionally) saturate activations at ``cap``.

    Entries that become zero are removed from the sparse structure so that
    downstream communication volumes reflect true data sparsity.
    """
    result = as_csr(activations).copy()
    np.maximum(result.data, 0.0, out=result.data)
    if cap is not None:
        np.minimum(result.data, cap, out=result.data)
    result.eliminate_zeros()
    return result


def bias_relu_threshold(
    accumulator: sparse.csr_matrix, bias: float, cap: Optional[float] = 32.0
) -> sparse.csr_matrix:
    """``relu_threshold(add_bias_to_nonzero_structure(accumulator, bias), cap)`` in one pass.

    The worker's per-layer activation.  An entry that is zero after the bias
    is still zero after the clamp, so eliminating zeros once, after both,
    leaves exactly the entries (values, order, index dtypes) the two-step
    formulation leaves.  ``accumulator`` is not modified.
    """
    accumulator = as_csr(accumulator)
    if not _raw_operand(accumulator):
        return relu_threshold(add_bias_to_nonzero_structure(accumulator, bias), cap)
    rows, cols = accumulator.shape
    nnz = int(accumulator.indptr[-1])
    data = accumulator.data[:nnz] + bias
    np.maximum(data, 0.0, out=data)
    if cap is not None:
        np.minimum(data, cap, out=data)
    indices = accumulator.indices[:nnz].astype(np.int32)
    indptr = accumulator.indptr.astype(np.int32)
    csr_eliminate_zeros(rows, cols, indptr, indices, data)
    return _pruned_csr(data, indices, indptr, (rows, cols))


def sparsify(dense: np.ndarray, threshold: float = 0.0) -> sparse.csr_matrix:
    """Convert a dense array to CSR, dropping entries ``<= threshold``."""
    dense = np.asarray(dense, dtype=np.float64)
    mask = dense > threshold
    return sparse.csr_matrix(np.where(mask, dense, 0.0))


def flop_count_spmm(
    weights: sparse.spmatrix,
    activations: sparse.spmatrix,
    activation_row_nnz: Optional[np.ndarray] = None,
) -> float:
    """Estimated floating point operations of ``weights @ activations``.

    For CSR x CSR the work is proportional to, for each stored weight
    ``W[i, j]``, the number of stored entries in row ``j`` of the
    activations: two flops (multiply + add) per pairing.  This estimate is
    what the virtual-time model charges the FaaS/VM/HPC compute with, so it
    must depend only on sparsity structure (deterministic and cheap), not on
    wall-clock measurements.  A caller that already holds the activations'
    per-row stored counts passes them as ``activation_row_nnz``.
    """
    if activation_row_nnz is None:
        indptr = as_csr(activations).indptr
        activation_row_nnz = indptr[1:] - indptr[:-1]
    return float(2.0 * activation_row_nnz[as_csr(weights).indices].sum())


def activation_nnz(activations: sparse.spmatrix) -> int:
    """Stored nonzero count of an activation matrix."""
    return int(as_csr(activations).nnz)
