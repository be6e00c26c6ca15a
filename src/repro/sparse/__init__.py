"""Sparse linear-algebra substrate (row blocks and CSR kernels)."""

from .matrix import (
    RowBlock,
    as_csr,
    csr_digest,
    csr_nbytes,
    empty_csr,
    expand_rows,
    gather_rows,
    positions_in_sorted,
    rows_with_nonzeros,
    split_rows,
    unsafe_csr,
)
from .ops import (
    accumulate_spmm,
    activation_nnz,
    add_bias_to_nonzero_structure,
    bias_relu_threshold,
    flop_count_spmm,
    relu_threshold,
    sparsify,
    spmm,
)

__all__ = [
    "RowBlock",
    "as_csr",
    "csr_digest",
    "csr_nbytes",
    "empty_csr",
    "expand_rows",
    "gather_rows",
    "positions_in_sorted",
    "rows_with_nonzeros",
    "split_rows",
    "unsafe_csr",
    "accumulate_spmm",
    "activation_nnz",
    "add_bias_to_nonzero_structure",
    "bias_relu_threshold",
    "flop_count_spmm",
    "relu_threshold",
    "sparsify",
    "spmm",
]
