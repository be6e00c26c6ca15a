"""Tests for payload encoding, compression and message chunking."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.comm import chunk_rows, decode_row_payload, encode_row_payload, estimate_payload_bytes
from repro.comm import payload as payload_module


def random_rows(num_rows, cols, density, seed):
    rng = np.random.default_rng(seed)
    matrix = sparse.random(num_rows, cols, density=density, format="csr", random_state=rng, dtype=np.float32)
    global_rows = rng.choice(10_000, size=num_rows, replace=False)
    return global_rows, matrix


class TestEncodeDecode:
    def test_round_trip(self):
        rows, matrix = random_rows(8, 16, 0.4, 0)
        payload = encode_row_payload(rows, matrix)
        decoded_rows, decoded = decode_row_payload(payload)
        np.testing.assert_array_equal(decoded_rows, rows)
        assert (decoded != matrix).nnz == 0

    def test_round_trip_uncompressed(self):
        rows, matrix = random_rows(3, 4, 0.5, 1)
        payload = encode_row_payload(rows, matrix, compress=False)
        decoded_rows, decoded = decode_row_payload(payload)
        np.testing.assert_array_equal(decoded_rows, rows)
        assert (decoded != matrix).nnz == 0

    def test_empty_row_set(self):
        empty = sparse.csr_matrix((0, 10), dtype=np.float32)
        payload = encode_row_payload(np.array([], dtype=np.int64), empty)
        decoded_rows, decoded = decode_row_payload(payload)
        assert len(decoded_rows) == 0
        assert decoded.shape == (0, 10)

    def test_mismatched_lengths_rejected(self):
        _, matrix = random_rows(4, 4, 0.5, 2)
        with pytest.raises(ValueError):
            encode_row_payload([1, 2], matrix)

    def test_corrupt_payloads_rejected(self):
        with pytest.raises(ValueError):
            decode_row_payload(b"")
        with pytest.raises(ValueError):
            decode_row_payload(b"Qnonsense")

    def test_hostile_payloads_fail_typed(self):
        """No validating constructor behind the decoder: its own checks must hold."""
        rows, matrix = random_rows(6, 9, 0.5, 7)
        raw = encode_row_payload(rows, matrix, compress=False)[1:]
        compressed = encode_row_payload(rows, matrix, compress=True)
        header = struct.Struct("<4sIIQ")
        magic, n_rows, n_cols, nnz = header.unpack_from(raw, 0)
        assert (magic, n_rows, n_cols, nnz) == (b"FSDP", 6, 9, matrix.nnz) and nnz > 0
        indptr_at = header.size + 8 * n_rows

        def with_indptr(position, value):
            at = indptr_at + 8 * position
            return b"R" + raw[:at] + struct.pack("<q", value) + raw[at + 8 :]

        hostile = {
            "marker": b"X" + raw,
            "magic": b"R" + b"NOPE" + raw[4:],
            "header": b"R" + raw[: header.size - 1],
            "too short": b"R" + raw[:-1],
            "too short for its header's n_rows": b"R" + header.pack(magic, n_rows + 1, n_cols, nnz)
            + raw[header.size :],
            "too short for its header's n_rows=6, nnz": b"R"
            + header.pack(magic, n_rows, n_cols, nnz + 1)
            + raw[header.size :],
            "zlib": compressed[: len(compressed) // 2],
            "nnz": b"R" + header.pack(magic, n_rows, n_cols, nnz - 1) + raw[header.size :],
            "indptr ends": with_indptr(n_rows, nnz - 1),
            "indptr starts": with_indptr(0, 1),
        }
        for field, payload in hostile.items():
            with pytest.raises(ValueError, match=field):
                decode_row_payload(payload)

    def test_decoded_block_layout(self):
        """What scipy's constructor used to hand the hot path: int32 indices, views of the bytes."""
        rows, matrix = random_rows(8, 16, 0.4, 8)
        for compress in (True, False):
            _, decoded = decode_row_payload(encode_row_payload(rows, matrix, compress))
            reference = sparse.csr_matrix(
                (matrix.data.astype(np.float64), matrix.indices, matrix.indptr.astype(np.int64)),
                shape=matrix.shape,
            )
            for name in ("data", "indices", "indptr"):
                assert getattr(decoded, name).dtype == getattr(reference, name).dtype
                assert getattr(decoded, name).tobytes() == getattr(reference, name).tobytes()
            assert not decoded.data.flags.writeable and not decoded.indices.flags.writeable
            assert (decoded @ decoded.T).shape == (8, 8)

    def test_both_zlib_directions_share_one_budget(self):
        memo = payload_module._ZlibMemo(max_bytes=64)
        memo.put(b"a", b"x" * 40)
        memo.put(b"b", b"y" * 40)  # over budget: the older entry goes
        assert memo.get(b"a") is None and memo.get(b"b") == b"y" * 40
        rows, matrix = random_rows(5, 7, 0.5, 9)
        body = encode_row_payload(rows, matrix)[1:]
        digest = payload_module._ZlibMemo.digest
        # Deflating primes the inverse transform in the same store.
        raw = payload_module._ZLIB_MEMO.get(digest(body))
        assert raw is not None and payload_module._ZLIB_MEMO.get(digest(raw)) == body

    def test_compression_helps_on_redundant_data(self):
        rows = np.arange(50)
        matrix = sparse.csr_matrix(np.ones((50, 200), dtype=np.float32))
        compressed = encode_row_payload(rows, matrix, compress=True)
        raw = encode_row_payload(rows, matrix, compress=False)
        assert len(compressed) < len(raw)


class TestChunking:
    def test_single_chunk_when_small(self):
        rows, matrix = random_rows(5, 10, 0.5, 3)
        chunks = chunk_rows(rows, matrix, max_chunk_bytes=256 * 1024)
        assert len(chunks) == 1
        assert chunks[0].row_count == 5

    def test_multiple_chunks_respect_size_limit(self):
        rng = np.random.default_rng(4)
        matrix = sparse.random(200, 400, density=0.5, format="csr", random_state=rng, dtype=np.float32)
        rows = np.arange(200)
        limit = 8 * 1024
        chunks = chunk_rows(rows, matrix, max_chunk_bytes=limit)
        assert len(chunks) > 1
        assert all(chunk.size_bytes <= limit for chunk in chunks)

    def test_chunks_reassemble_to_original(self):
        rng = np.random.default_rng(5)
        matrix = sparse.random(60, 80, density=0.4, format="csr", random_state=rng, dtype=np.float32)
        rows = np.arange(1000, 1060)
        chunks = chunk_rows(rows, matrix, max_chunk_bytes=4 * 1024)
        seen_rows = []
        blocks = []
        for chunk in chunks:
            chunk_rows_ids, chunk_matrix = decode_row_payload(chunk.payload)
            seen_rows.extend(chunk_rows_ids.tolist())
            blocks.append(chunk_matrix)
        assert seen_rows == rows.tolist()
        reassembled = sparse.vstack(blocks, format="csr")
        assert (reassembled != matrix).nnz == 0

    def test_empty_rows_still_produce_one_chunk(self):
        empty = sparse.csr_matrix((0, 12), dtype=np.float32)
        chunks = chunk_rows([], empty, max_chunk_bytes=1024)
        assert len(chunks) == 1
        assert chunks[0].row_count == 0

    def test_tiny_limit_rejected(self):
        rows, matrix = random_rows(2, 4, 0.5, 6)
        with pytest.raises(ValueError):
            chunk_rows(rows, matrix, max_chunk_bytes=8)

    def test_estimate_grows_with_nnz(self):
        small = estimate_payload_bytes(np.array([10]), 1)
        large = estimate_payload_bytes(np.array([10_000]), 1)
        assert large > small


@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=40),
    st.floats(min_value=0.0, max_value=0.7),
    st.integers(min_value=0, max_value=500),
    st.sampled_from([2 * 1024, 8 * 1024, 64 * 1024]),
)
@settings(max_examples=30, deadline=None)
def test_chunking_never_loses_rows_or_values(num_rows, cols, density, seed, limit):
    """Property: chunk_rows partitions the rows exactly and respects the limit."""
    rng = np.random.default_rng(seed)
    matrix = sparse.random(num_rows, cols, density=density, format="csr", random_state=rng, dtype=np.float32)
    rows = np.arange(num_rows)
    chunks = chunk_rows(rows, matrix, max_chunk_bytes=limit)
    assert all(chunk.size_bytes <= limit or chunk.row_count == 1 for chunk in chunks)
    decoded_rows = []
    total_nnz = 0
    for chunk in chunks:
        ids, block = decode_row_payload(chunk.payload)
        decoded_rows.extend(ids.tolist())
        total_nnz += block.nnz
    assert decoded_rows == rows.tolist()
    assert total_nnz == matrix.nnz
