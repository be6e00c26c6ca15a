"""Tests (including property-based tests) for the sparse substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.sparse import (
    RowBlock,
    accumulate_spmm,
    as_csr,
    bias_relu_threshold,
    csr_digest,
    csr_nbytes,
    empty_csr,
    expand_rows,
    flop_count_spmm,
    gather_rows,
    relu_threshold,
    rows_with_nonzeros,
    add_bias_to_nonzero_structure,
    sparsify,
    split_rows,
    spmm,
    unsafe_csr,
)


def random_csr(rows, cols, density, seed):
    rng = np.random.default_rng(seed)
    return sparse.random(rows, cols, density=density, format="csr", random_state=rng, dtype=np.float32)


class TestBasics:
    def test_as_csr_passthrough(self):
        matrix = random_csr(4, 4, 0.5, 0)
        assert as_csr(matrix) is matrix

    def test_as_csr_from_dense(self):
        dense = np.eye(3)
        converted = as_csr(dense)
        assert sparse.isspmatrix_csr(converted)
        assert converted.nnz == 3

    def test_empty_csr(self):
        empty = empty_csr((5, 7))
        assert empty.shape == (5, 7)
        assert empty.nnz == 0

    def test_csr_nbytes_positive_and_grows(self):
        small = random_csr(10, 10, 0.1, 1)
        large = random_csr(100, 100, 0.3, 1)
        assert 0 < csr_nbytes(small) < csr_nbytes(large)

    def test_rows_with_nonzeros(self):
        matrix = sparse.csr_matrix(np.array([[0, 0], [1, 0], [0, 0], [2, 3]]))
        assert rows_with_nonzeros(matrix).tolist() == [1, 3]


class TestOps:
    def test_spmm_matches_dense(self):
        a = random_csr(8, 8, 0.4, 2)
        b = random_csr(8, 3, 0.5, 3)
        product = spmm(a, b)
        np.testing.assert_allclose(product.todense(), a.todense() @ b.todense(), rtol=1e-5)

    def test_bias_applied_only_to_stored_entries(self):
        matrix = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
        biased = add_bias_to_nonzero_structure(matrix, -0.5)
        dense = np.asarray(biased.todense())
        assert dense[0, 0] == pytest.approx(0.5)
        assert dense[0, 1] == 0.0  # untouched structural zero

    def test_bias_eliminates_entries_that_become_zero(self):
        matrix = sparse.csr_matrix(np.array([[0.5, 0.0], [0.0, 2.0]]))
        biased = add_bias_to_nonzero_structure(matrix, -0.5)
        assert biased.nnz == 1

    def test_relu_threshold_clamps_and_caps(self):
        matrix = sparse.csr_matrix(np.array([[-1.0, 50.0], [0.5, 0.0]]))
        result = relu_threshold(matrix, cap=32.0)
        dense = np.asarray(result.todense())
        assert dense[0, 0] == 0.0
        assert dense[0, 1] == 32.0
        assert dense[1, 0] == 0.5
        assert result.nnz == 2  # the negative entry was removed from the structure

    def test_relu_without_cap(self):
        matrix = sparse.csr_matrix(np.array([[100.0, -3.0]]))
        result = relu_threshold(matrix, cap=None)
        assert np.asarray(result.todense())[0, 0] == 100.0

    def test_sparsify_drops_below_threshold(self):
        dense = np.array([[0.0, 0.2], [0.05, 1.0]])
        result = sparsify(dense, threshold=0.1)
        assert result.nnz == 2

    def test_flop_count_zero_cases(self):
        a = empty_csr((4, 4))
        b = random_csr(4, 2, 0.5, 1)
        assert flop_count_spmm(a, b) == 0.0
        assert flop_count_spmm(b, empty_csr((2, 3))) == 0.0

    def test_flop_count_counts_pairings(self):
        weights = sparse.csr_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
        activations = sparse.csr_matrix(np.array([[1.0, 0.0], [1.0, 1.0]]))
        # W row 0 pairs with act rows {0:1nnz, 1:2nnz}; W row 1 pairs with act row 1 (2nnz)
        assert flop_count_spmm(weights, activations) == pytest.approx(2.0 * (1 + 2 + 2))


class TestRowBlock:
    def test_row_block_extraction(self):
        matrix = random_csr(10, 6, 0.4, 4)
        block = RowBlock(global_rows=np.array([2, 5, 7]), local=matrix[[2, 5, 7], :])
        assert block.num_rows == 3
        assert block.owns(5)
        assert not block.owns(3)
        extracted = block.extract_rows([7, 2])
        np.testing.assert_allclose(extracted.todense(), matrix[[7, 2], :].todense())

    def test_mismatched_row_count_rejected(self):
        with pytest.raises(ValueError):
            RowBlock(global_rows=np.array([1, 2]), local=random_csr(3, 3, 0.5, 0))

    def test_extract_nonempty_rows(self):
        local = sparse.csr_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
        block = RowBlock(global_rows=np.array([4, 9]), local=local)
        with_data, without_data = block.extract_nonempty_rows([4, 9])
        assert with_data == [9]
        assert without_data == [4]

    def test_split_rows_partitions_everything(self):
        matrix = random_csr(20, 5, 0.3, 5)
        owner = np.array([i % 3 for i in range(20)])
        blocks = split_rows(matrix, owner, 3)
        assert sum(b.num_rows for b in blocks) == 20
        total_nnz = sum(b.nnz for b in blocks)
        assert total_nnz == matrix.nnz

    def test_split_rows_validates_owner(self):
        matrix = random_csr(4, 4, 0.5, 0)
        with pytest.raises(ValueError):
            split_rows(matrix, np.array([0, 1]), 2)
        with pytest.raises(ValueError):
            split_rows(matrix, np.array([0, 1, 2, 5]), 3)


class TestExpandRows:
    def test_expand_round_trip(self):
        matrix = random_csr(12, 4, 0.4, 6)
        rows = np.array([1, 4, 9])
        expanded = expand_rows(rows, matrix[rows, :], 12)
        np.testing.assert_allclose(
            expanded[rows, :].todense(), matrix[rows, :].todense()
        )
        untouched = [i for i in range(12) if i not in rows.tolist()]
        assert expanded[untouched, :].nnz == 0

    def test_expand_validates_inputs(self):
        matrix = random_csr(3, 3, 0.5, 0)
        with pytest.raises(ValueError):
            expand_rows([0, 1], matrix, 10)
        with pytest.raises(ValueError):
            expand_rows([0, 1, 20], matrix, 10)

    def test_expand_unsorted_rows(self):
        matrix = random_csr(8, 3, 0.6, 7)
        rows = np.array([6, 0, 3])
        expanded = expand_rows(rows, matrix[rows, :], 8)
        np.testing.assert_allclose(expanded[6, :].todense(), matrix[6, :].todense())
        np.testing.assert_allclose(expanded[0, :].todense(), matrix[0, :].todense())


# ----------------------------- property-based tests -----------------------------


@st.composite
def csr_and_subset(draw):
    rows = draw(st.integers(min_value=1, max_value=30))
    cols = draw(st.integers(min_value=1, max_value=10))
    density = draw(st.floats(min_value=0.0, max_value=0.8))
    seed = draw(st.integers(min_value=0, max_value=1000))
    matrix = random_csr(rows, cols, density, seed)
    subset_size = draw(st.integers(min_value=0, max_value=rows))
    rng = np.random.default_rng(seed + 1)
    subset = rng.choice(rows, size=subset_size, replace=False)
    return matrix, subset


@given(csr_and_subset())
@settings(max_examples=40, deadline=None)
def test_expand_rows_preserves_every_value(data):
    """expand_rows never loses, duplicates or relocates values."""
    matrix, subset = data
    expanded = expand_rows(subset, matrix[subset, :], matrix.shape[0])
    assert expanded.shape == matrix.shape
    assert expanded.nnz == matrix[subset, :].nnz
    if len(subset):
        np.testing.assert_allclose(
            np.asarray(expanded[subset, :].todense()),
            np.asarray(matrix[subset, :].todense()),
            rtol=1e-6,
        )


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=999),
)
@settings(max_examples=40, deadline=None)
def test_split_rows_is_a_partition(rows, cols, parts, seed):
    """Every row/nonzero lands in exactly one block regardless of ownership."""
    matrix = random_csr(rows, cols, 0.4, seed)
    rng = np.random.default_rng(seed)
    owner = rng.integers(0, parts, size=rows)
    blocks = split_rows(matrix, owner, parts)
    assert len(blocks) == parts
    assert sum(b.num_rows for b in blocks) == rows
    assert sum(b.nnz for b in blocks) == matrix.nnz
    seen = np.concatenate([b.global_rows for b in blocks])
    assert sorted(seen.tolist()) == list(range(rows))


@given(
    st.integers(min_value=1, max_value=25),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=-2.0, max_value=2.0),
    st.integers(min_value=0, max_value=999),
)
@settings(max_examples=40, deadline=None)
def test_relu_threshold_invariants(rows, cols, bias, seed):
    """After bias + ReLU + cap, stored values are always within (0, cap]."""
    matrix = random_csr(rows, cols, 0.5, seed)
    biased = add_bias_to_nonzero_structure(matrix, bias)
    result = relu_threshold(biased, cap=32.0)
    if result.nnz:
        assert result.data.min() > 0.0
        assert result.data.max() <= 32.0


# ----------------------------- raw-CSR kernels vs the scipy operators -----------------------------

# Few distinct values, so sums cancel exactly and biases land on exact zeros.
_VALUES = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


def _small_valued_csr(rows, cols, density, rng):
    """Random CSR over ``_VALUES``, explicit zeros included."""
    matrix = sparse.random(rows, cols, density=density, format="csr", random_state=rng)
    matrix.data = rng.choice(_VALUES, size=matrix.nnz)
    return matrix


def _int64_indexed(matrix):
    """The same matrix carrying ``int64`` index arrays (what ``gather_rows`` callers may hold)."""
    return unsafe_csr(
        matrix.data, matrix.indices.astype(np.int64), matrix.indptr.astype(np.int64), matrix.shape
    )


@st.composite
def accumulation_cases(draw):
    """(weights, blocks, which of them reach the raw kernels ``int64``-indexed)."""
    rows = draw(st.integers(min_value=0, max_value=12))
    inner = draw(st.integers(min_value=1, max_value=10))
    cols = draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10_000)))
    density = st.sampled_from([0.0, 0.1, 0.4, 0.9])
    weights = _small_valued_csr(rows, inner, draw(density), rng)
    blocks = [
        _small_valued_csr(inner, cols, draw(density), rng)
        for _ in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    if draw(st.booleans()):
        # Fold the first block in twice with opposite signs: the running sum
        # passes through exact cancellation (an all-zero accumulator).
        blocks.insert(1, -blocks[0])
    wide = [draw(st.booleans()) for _ in range(len(blocks) + 1)]
    return weights, blocks, wide


def assert_csr_bitwise(actual, expected):
    """Same layout as well as the same values: dtypes, order, -0.0 vs 0.0, bytes."""
    assert actual.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        left, right = getattr(actual, name), getattr(expected, name)
        assert left.dtype == right.dtype, name
        assert left.tobytes() == right.tobytes(), name
    assert csr_nbytes(actual) == csr_nbytes(expected)
    assert actual.nnz == expected.nnz


@given(accumulation_cases(), st.sampled_from([-1.0, -0.5, 0.0, 0.5]), st.sampled_from([1.5, 32.0, None]))
@settings(max_examples=150, deadline=None)
def test_raw_kernels_match_scipy_operators_bitwise(case, bias, cap):
    """accumulate_spmm / bias_relu_threshold == ``z + W @ x`` / bias, ReLU, cap.

    The reference runs the scipy operators on ``int32``-indexed operands (what
    the validating constructor hands the hot path); the raw kernels get some
    of them ``int64``-indexed and must still return the ``int32`` layout.
    (On ``int64`` operands the operators themselves are not a usable oracle:
    the dtype they return then depends on uninitialised buffer tails.)
    """
    weights, blocks, wide = case
    raw_weights = _int64_indexed(weights) if wide[0] else weights
    raw, reference = None, None
    for block, widen in zip(blocks, wide[1:]):
        raw = accumulate_spmm(raw, raw_weights, _int64_indexed(block) if widen else block)
        product = weights @ block
        reference = product if reference is None else reference + product
        assert_csr_bitwise(raw, reference)
    before = raw.data.tobytes(), raw.indices.tobytes(), raw.indptr.tobytes()
    expected = relu_threshold(add_bias_to_nonzero_structure(reference, bias), cap)
    assert_csr_bitwise(bias_relu_threshold(raw, bias, cap), expected)
    assert_csr_bitwise(bias_relu_threshold(_int64_indexed(raw), bias, cap), expected)
    assert (raw.data.tobytes(), raw.indices.tobytes(), raw.indptr.tobytes()) == before


def test_raw_kernels_all_zero_product_is_an_int32_empty_matrix():
    product = accumulate_spmm(None, empty_csr((5, 4)), random_csr(4, 3, 0.5, 1).astype(np.float64))
    assert_csr_bitwise(product, empty_csr((5, 4)) @ empty_csr((4, 3)))
    assert product.indptr.dtype == np.int32 and product.indptr.tolist() == [0] * 6


def test_raw_kernels_defer_uncovered_operands_to_scipy():
    weights = random_csr(6, 5, 0.5, 2)  # float32 data: not covered
    block = random_csr(5, 3, 0.5, 3)
    assert_csr_bitwise(accumulate_spmm(None, weights, block), weights @ block)
    accumulator = (weights @ block).astype(np.float64)
    assert_csr_bitwise(
        accumulate_spmm(accumulator, weights, block), accumulator + weights @ block
    )
    assert_csr_bitwise(
        bias_relu_threshold(weights, -0.25, 32.0),
        relu_threshold(add_bias_to_nonzero_structure(weights, -0.25), 32.0),
    )
    with pytest.raises(ValueError):
        accumulate_spmm(None, weights.astype(np.float64), weights.astype(np.float64))


def test_raw_kernels_never_write_to_read_only_operands():
    """Decoded blocks are views of the payload bytes; kernels must only read them."""
    source = random_csr(6, 6, 0.6, 4).astype(np.float64)
    frozen = unsafe_csr(
        np.frombuffer(source.data.tobytes(), dtype=np.float64),
        np.frombuffer(source.indices.tobytes(), dtype=np.int32),
        np.frombuffer(source.indptr.tobytes(), dtype=np.int32),
        source.shape,
    )
    assert not frozen.data.flags.writeable
    assert_csr_bitwise(accumulate_spmm(frozen, frozen, frozen), source + source @ source)
    assert_csr_bitwise(
        bias_relu_threshold(frozen, -0.5, 32.0),
        relu_threshold(add_bias_to_nonzero_structure(source, -0.5), 32.0),
    )
    assert_csr_bitwise(frozen, source)


def test_scipy_private_layout_canary():
    """The one place a scipy upgrade that moves the private API should fail.

    The raw kernels import ``scipy.sparse._sparsetools`` entry points and wrap
    their outputs with ``unsafe_csr`` (attributes set on a bare instance).
    If either stops working, this named test says so before a fingerprint does.
    """
    from scipy.sparse._sparsetools import (  # noqa: F401
        csr_eliminate_zeros,
        csr_matmat,
        csr_matmat_maxnnz,
        csr_plus_csr,
        csr_row_index,
    )

    left = random_csr(5, 4, 0.6, 5).astype(np.float64)
    right = random_csr(4, 3, 0.6, 6).astype(np.float64)
    wrapped = accumulate_spmm(None, left, right)
    assert type(wrapped) is sparse.csr_matrix
    dense = left.toarray() @ right.toarray()
    np.testing.assert_allclose(wrapped.toarray(), dense)
    np.testing.assert_allclose((wrapped @ right.T.tocsr()).toarray(), dense @ right.toarray().T)
    np.testing.assert_array_equal((wrapped + wrapped).toarray(), 2.0 * wrapped.toarray())
    copied = wrapped.copy()
    assert copied.nnz == wrapped.nnz == np.count_nonzero(dense)
    assert copied.data is not wrapped.data
    assert "stored elements" in repr(wrapped) and str(wrapped)
    rows = gather_rows(wrapped, np.array([4, 0]))
    np.testing.assert_array_equal(rows.toarray(), wrapped.toarray()[[4, 0]])


def test_gather_rows_and_flop_count_accept_precomputed_row_nnz():
    matrix = random_csr(12, 5, 0.5, 7).astype(np.float64)
    weights = random_csr(4, 12, 0.4, 8).astype(np.float64)
    row_nnz = np.diff(matrix.indptr)
    positions = np.array([7, 0, 3, 3], dtype=np.int32)
    assert_csr_bitwise(gather_rows(matrix, positions, row_nnz), matrix[positions, :])
    assert_csr_bitwise(gather_rows(matrix, positions), matrix[positions, :])
    assert flop_count_spmm(weights, matrix, row_nnz) == flop_count_spmm(weights, matrix)


def _digest_with_copies(batch):
    """``serving.replaycore.batch_fingerprint`` as it stood before ``csr_digest``."""
    import hashlib

    csr = batch.tocsr()
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr(csr.shape).encode())
    digest.update(np.ascontiguousarray(csr.indptr).tobytes())
    digest.update(np.ascontiguousarray(csr.indices).tobytes())
    digest.update(np.ascontiguousarray(csr.data).tobytes())
    return digest.digest()


def test_csr_digest_bytes_are_the_historical_batch_fingerprint():
    from repro.serving import batch_fingerprint
    from repro.serving import replaycore

    assert batch_fingerprint is csr_digest is replaycore.batch_fingerprint
    read_only = random_csr(9, 7, 0.4, seed=5)
    for array in (read_only.data, read_only.indices, read_only.indptr):
        array.flags.writeable = False
    strided = random_csr(12, 10, 0.5, seed=6)
    strided = unsafe_csr(
        np.repeat(strided.data, 2)[::2], strided.indices, strided.indptr, strided.shape
    )
    assert not strided.data.flags.c_contiguous
    cases = [
        random_csr(16, 5, 0.3, seed=1),
        random_csr(16, 5, 0.3, seed=1).tocsc(),
        random_csr(8, 3, 0.5, seed=2).astype(np.float32),
        sparse.csr_matrix((6, 0), dtype=np.float64),
        sparse.csr_matrix((6, 4), dtype=np.float64),
        sparse.hstack([random_csr(8, 2, 0.5, seed=3)] * 2, format="csr"),
        read_only,
        strided,
    ]
    for matrix in cases:
        assert csr_digest(matrix) == _digest_with_copies(matrix)
    # Content, not identity: an equal copy agrees, an in-place edit does not.
    batch = random_csr(16, 5, 0.3, seed=1)
    before = csr_digest(batch)
    assert csr_digest(batch.copy()) == before
    batch.data[0] += 1.0
    assert csr_digest(batch) != before
