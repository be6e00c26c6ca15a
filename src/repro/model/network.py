"""Sparse deep neural network model.

A :class:`SparseDNN` is the model object FSD-Inference performs inference
over: ``L`` fully-connected layers of equal width ``N`` with sparse weight
matrices, a per-layer scalar bias, ReLU activation and an activation cap
(the Graph Challenge recurrence).  The single-process :meth:`forward` pass is
the reproduction's ground truth -- every distributed variant and baseline is
checked against it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from ..sparse import (
    add_bias_to_nonzero_structure,
    as_csr,
    csr_digest,
    csr_nbytes,
    flop_count_spmm,
    relu_threshold,
    spmm,
)

__all__ = ["SparseDNN", "LayerStats", "ForwardProfile"]

#: profiles a model keeps (least recently used dropped first).  A profile is
#: ``3 x L`` scalars; a serving trace replays a handful of canonical batches
#: plus the coalesced stacks of them.
_PROFILE_CACHE_ENTRIES = 128


@dataclass(frozen=True)
class LayerStats:
    """Structural statistics of one layer (used by partitioners and reports)."""

    index: int
    shape: tuple
    nnz: int
    bytes: int


@dataclass(frozen=True)
class ForwardProfile:
    """Per-layer work of one forward pass over one batch.

    Everything the comparison baselines charge compute and traffic for,
    without the activations themselves.  For layer ``k`` with input ``x_k``:
    ``spmm_flops[k]`` is ``flop_count_spmm(W_k, x_k)``, ``pre_nnz[k]`` the
    stored entries of ``W_k @ x_k`` before the bias, ``input_nnz[k]`` the
    stored entries of ``x_k``.
    """

    spmm_flops: Tuple[float, ...]
    pre_nnz: Tuple[int, ...]
    input_nnz: Tuple[int, ...]


class _ProfileMemo:
    """Bounded LRU of :class:`ForwardProfile` by batch content digest.

    Cells of a threaded campaign share a model, so the LRU bookkeeping sits
    under a lock; profiles are computed outside it (values are pure functions
    of content, a racing recompute stores an identical one).
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[bytes, ForwardProfile]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, key: bytes) -> Optional[ForwardProfile]:
        with self._lock:
            profile = self._entries.get(key)
            if profile is None:
                self._misses += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
            return profile

    def put(self, key: bytes, profile: ForwardProfile) -> None:
        with self._lock:
            self._entries[key] = profile
            while len(self._entries) > _PROFILE_CACHE_ENTRIES:
                self._entries.popitem(last=False)

    def info(self) -> Dict[str, int]:
        with self._lock:
            return {"hits": self._hits, "misses": self._misses, "entries": len(self._entries)}


class SparseDNN:
    """An ``L``-layer sparse feed-forward network of uniform width ``N``.

    Args:
        weights: per-layer CSR weight matrices, each of shape ``(N, N)``.
        biases: per-layer scalar bias added to stored pre-activation entries.
        activation_cap: saturation value applied after ReLU (Graph Challenge
            uses 32); ``None`` disables the cap.
        name: human-readable model identifier (used in object-store keys).
    """

    def __init__(
        self,
        weights: Sequence[sparse.spmatrix],
        biases: Sequence[float],
        activation_cap: Optional[float] = 32.0,
        name: str = "sparse-dnn",
    ):
        if not weights:
            raise ValueError("a SparseDNN needs at least one layer")
        if len(weights) != len(biases):
            raise ValueError(
                f"got {len(weights)} weight matrices but {len(biases)} biases"
            )
        self.weights: List[sparse.csr_matrix] = [as_csr(w).astype(np.float64) for w in weights]
        width = self.weights[0].shape[1]
        for k, w in enumerate(self.weights):
            if w.shape != (width, width):
                raise ValueError(
                    f"layer {k} has shape {w.shape}; expected ({width}, {width}) -- "
                    "FSD-Inference assumes uniform layer width"
                )
        self.biases: List[float] = [float(b) for b in biases]
        self.activation_cap = activation_cap
        self.name = name
        #: encoded staging payloads keyed by the staging scheme, mirroring
        #: ``PartitionPlan.staged_payload_cache``: the payload bytes are a pure
        #: function of this object's contents, so caching them here lets
        #: repeated runs (benchmark sweeps, serving replays) skip re-encoding
        #: while distinct models can never collide.
        self.staged_payload_cache: dict = {}
        self._init_derived_caches()

    def _init_derived_caches(self) -> None:
        """Empty caches of values derived from the weights.

        They live and die with the model and do not ride along when it is
        pickled (``staged_payload_cache`` does, as before), so a model shipped
        to a worker process carries none of them.
        """
        #: partition plans keyed by ``Partitioner.plan_key(num_workers)``,
        #: filled by the callers that partition (the HPC serving backend):
        #: cells of a campaign that share this model partition it once.
        self.partition_plan_cache: Dict[tuple, object] = {}
        self._profiles = _ProfileMemo()
        self._nbytes: Optional[int] = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in ("partition_plan_cache", "_profiles", "_nbytes"):
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._init_derived_caches()

    # -- structural properties ----------------------------------------------------

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def num_neurons(self) -> int:
        return self.weights[0].shape[0]

    @property
    def total_nnz(self) -> int:
        return int(sum(w.nnz for w in self.weights))

    def layer_stats(self) -> List[LayerStats]:
        return [
            LayerStats(index=k, shape=w.shape, nnz=int(w.nnz), bytes=csr_nbytes(w))
            for k, w in enumerate(self.weights)
        ]

    def nbytes(self) -> int:
        """Approximate in-memory footprint of the full model (computed once)."""
        if self._nbytes is None:
            self._nbytes = int(sum(csr_nbytes(w) for w in self.weights))
        return self._nbytes

    # -- inference -------------------------------------------------------------------

    def forward(
        self, inputs: sparse.spmatrix, return_all_layers: bool = False
    ) -> sparse.csr_matrix | List[sparse.csr_matrix]:
        """Single-process forward pass (the correctness ground truth).

        ``inputs`` has shape ``(N, B)``: neurons in rows, samples in columns.
        """
        activations = as_csr(inputs).astype(np.float64)
        if activations.shape[0] != self.num_neurons:
            raise ValueError(
                f"inputs have {activations.shape[0]} rows but the model has "
                f"{self.num_neurons} neurons"
            )
        per_layer = []
        for weight, bias in zip(self.weights, self.biases):
            pre = spmm(weight, activations)
            pre = add_bias_to_nonzero_structure(pre, bias)
            activations = relu_threshold(pre, self.activation_cap)
            if return_all_layers:
                per_layer.append(activations)
        return per_layer if return_all_layers else activations

    def forward_profile(self, inputs: sparse.spmatrix) -> ForwardProfile:
        """The :class:`ForwardProfile` of ``inputs``, memoised by content.

        Counting the work of a forward pass means running it (the stored
        entries after ReLU/thresholding depend on the data), and a serving
        trace replays the same few batches thousands of times.  The memo is
        keyed by :func:`~repro.sparse.csr_digest`, so an equal-content batch
        hits whether or not it is the same object -- coalesced stacks are
        rebuilt per dispatch -- and a batch mutated in place misses.
        """
        activations = as_csr(inputs)
        key = csr_digest(activations)
        profile = self._profiles.get(key)
        if profile is not None:
            return profile
        spmm_flops, pre_nnz, input_nnz = [], [], []
        for weight, bias in zip(self.weights, self.biases):
            spmm_flops.append(flop_count_spmm(weight, activations))
            input_nnz.append(int(activations.nnz))
            pre = spmm(weight, activations)
            pre_nnz.append(int(pre.nnz))
            activations = relu_threshold(
                add_bias_to_nonzero_structure(pre, bias), self.activation_cap
            )
        profile = ForwardProfile(tuple(spmm_flops), tuple(pre_nnz), tuple(input_nnz))
        self._profiles.put(key, profile)
        return profile

    def forward_profile_info(self) -> Dict[str, int]:
        """``{"hits", "misses", "entries"}`` of the profile memo.

        Diagnostics only: host-side cache behaviour, never part of a
        ``summary()``, ``to_dict()`` or fingerprint.
        """
        return self._profiles.info()

    def predict_categories(self, inputs: sparse.spmatrix) -> np.ndarray:
        """Graph Challenge style 'category' output: argmax over neurons per sample."""
        final = self.forward(inputs)
        dense = np.asarray(final.todense())
        return dense.argmax(axis=0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SparseDNN(name={self.name!r}, neurons={self.num_neurons}, "
            f"layers={self.num_layers}, nnz={self.total_nnz})"
        )
