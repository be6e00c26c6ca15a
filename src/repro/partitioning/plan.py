"""Partition plans: who owns which neuron rows, and who talks to whom.

FSD-Inference parallelises a model through row-wise partitioning of the
weight matrices and activation vectors (Section III-C).  A
:class:`PartitionPlan` captures the offline output of that step:

* an *ownership vector* assigning every neuron row to a worker (the same
  neuron partition is applied at every layer, as in the paper's
  row-block formulation);
* per-layer, per-worker weight row blocks ``W^k_m``;
* per-layer send maps ``Xsend^k_m`` (target worker -> global activation rows
  this worker must ship to it) and receive maps ``Xrecv^k_m`` (source worker
  -> global activation rows expected from it).

The send/receive maps are derived purely from the sparsity structure of the
weights, exactly as the hypergraph-partitioning pre-processing in the paper
provides them to each worker before inference starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy import sparse

from ..model import SparseDNN
from ..sparse import RowBlock, as_csr, csr_nbytes, positions_in_sorted

__all__ = ["LayerCommMaps", "LayerKernels", "PartitionPlan", "build_partition_plan"]


@dataclass
class LayerCommMaps:
    """Send and receive maps of one layer.

    ``send[m][n]`` is the array of global activation-row indices worker ``m``
    must send to worker ``n`` before layer ``k`` can complete;
    ``recv[m][n]`` is the mirror image.
    """

    send: List[Dict[int, np.ndarray]]
    recv: List[Dict[int, np.ndarray]]
    #: aggregates of the (static) send maps, computed on first use.
    _total_rows: Optional[int] = field(default=None, init=False, repr=False, compare=False)
    _message_pairs: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def total_rows_transferred(self) -> int:
        if self._total_rows is None:
            self._total_rows = int(
                sum(len(rows) for worker in self.send for rows in worker.values())
            )
        return self._total_rows

    def message_pairs(self) -> int:
        """Number of (source, target) pairs that exchange data in this layer."""
        if self._message_pairs is None:
            self._message_pairs = sum(len(worker) for worker in self.send)
        return self._message_pairs


@dataclass(frozen=True)
class LayerKernels:
    """Compacted-column compute kernels of one (layer, worker) pair.

    The simulator's hot path operates in *local* dimensions: ``local`` is the
    worker's weight block with columns restricted (in ascending global order)
    to the rows the worker itself owns, so it multiplies directly against the
    worker's own activation block; ``by_source[s]`` restricts the columns to
    the rows received from source ``s`` (in the receive-map order the channel
    delivers them), so a received block multiplies without ever being
    scattered back into the global neuron dimension.  Because the column
    subsets preserve the weight's ascending column order, every product is
    bit-for-bit identical to the seed's global-dimension formulation.
    """

    local: sparse.csr_matrix
    by_source: Dict[int, sparse.csr_matrix]
    recv_rows: Dict[int, np.ndarray]


@dataclass
class PartitionPlan:
    """The complete offline partitioning artefact for one (model, P) pair."""

    model_name: str
    num_workers: int
    owner: np.ndarray
    weight_blocks: List[List[RowBlock]]
    comm_maps: List[LayerCommMaps]
    partitioner_name: str = "unknown"
    #: lazily-built caches; not part of the plan's identity.
    _rows_cache: Dict[int, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _kernel_cache: Dict[tuple, LayerKernels] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _send_positions_cache: Dict[tuple, Dict[int, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: encoded staging payloads, filled by the engine; keyed by
    #: (staged model name, compress).  Tied to the plan object so distinct
    #: plans can never serve each other's payloads.
    staged_payload_cache: Dict[tuple, list] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- structural properties ------------------------------------------------------

    @property
    def num_layers(self) -> int:
        return len(self.weight_blocks)

    @property
    def num_neurons(self) -> int:
        return len(self.owner)

    def worker_rows(self, worker: int) -> np.ndarray:
        """Global neuron rows owned by ``worker`` (cached; do not mutate)."""
        rows = self._rows_cache.get(worker)
        if rows is None:
            rows = np.flatnonzero(self.owner == worker)
            self._rows_cache[worker] = rows
        return rows

    def layer_kernels(self, layer: int, worker: int) -> LayerKernels:
        """Compacted compute kernels for ``(layer, worker)`` (cached).

        Slicing the weight block down to the columns it can ever pair with is
        done once per plan and amortised across runs; the slices keep the
        ascending column order of the original block, which preserves the
        floating-point accumulation order of every SpMM (see
        :class:`LayerKernels`).
        """
        key = (layer, worker)
        kernels = self._kernel_cache.get(key)
        if kernels is None:
            weight = self.weight_blocks[layer][worker].local
            recv = self.recv_map(layer, worker)
            kernels = LayerKernels(
                local=weight[:, self.worker_rows(worker)],
                by_source={source: weight[:, rows] for source, rows in recv.items()},
                recv_rows={source: rows for source, rows in recv.items()},
            )
            self._kernel_cache[key] = kernels
        return kernels

    def send_positions(self, layer: int, worker: int) -> Dict[int, np.ndarray]:
        """Where each target's send-map rows sit among ``worker``'s own rows (cached).

        ``send_positions(k, m)[n][i]`` is the position of global row
        ``send_map(k, m)[n][i]`` in ``worker_rows(m)``, i.e. its storage row
        in the worker's activation block.  Static per plan, so the send phase
        gathers by position instead of searching the owned rows per query.
        """
        key = (layer, worker)
        positions = self._send_positions_cache.get(key)
        if positions is None:
            owned = self.worker_rows(worker)
            positions = {
                target: positions_in_sorted(owned, rows).astype(np.int32)
                for target, rows in self.send_map(layer, worker).items()
            }
            self._send_positions_cache[key] = positions
        return positions

    def worker_weight_nnz(self, worker: int) -> int:
        return int(sum(self.weight_blocks[k][worker].nnz for k in range(self.num_layers)))

    def worker_weight_bytes(self, worker: int) -> int:
        return int(sum(self.weight_blocks[k][worker].nbytes() for k in range(self.num_layers)))

    def load_imbalance(self) -> float:
        """max(worker nnz) / mean(worker nnz); 1.0 means perfect balance."""
        loads = np.array([self.worker_weight_nnz(m) for m in range(self.num_workers)], dtype=float)
        mean = loads.mean()
        if mean == 0:
            return 1.0
        return float(loads.max() / mean)

    def total_rows_transferred(self) -> int:
        """Total activation-row transfers implied by the send maps (all layers)."""
        return sum(maps.total_rows_transferred() for maps in self.comm_maps)

    def rows_transferred_per_layer(self) -> List[int]:
        return [maps.total_rows_transferred() for maps in self.comm_maps]

    def send_map(self, layer: int, worker: int) -> Dict[int, np.ndarray]:
        return self.comm_maps[layer].send[worker]

    def recv_map(self, layer: int, worker: int) -> Dict[int, np.ndarray]:
        return self.comm_maps[layer].recv[worker]

    def summary(self) -> Dict[str, float]:
        """Headline statistics (useful in reports and tests)."""
        return {
            "num_workers": self.num_workers,
            "num_layers": self.num_layers,
            "num_neurons": self.num_neurons,
            "total_rows_transferred": self.total_rows_transferred(),
            "load_imbalance": self.load_imbalance(),
            "partitioner": self.partitioner_name,
        }


def build_partition_plan(
    model: SparseDNN,
    owner: Sequence[int],
    num_workers: int,
    partitioner_name: str = "unknown",
) -> PartitionPlan:
    """Derive the full :class:`PartitionPlan` from an ownership vector.

    For every layer ``k`` and worker ``m`` the plan contains the weight row
    block ``W^k_m`` and the send/receive maps: worker ``n`` needs activation
    row ``j`` of ``x^{k-1}`` whenever any of its weight rows has a stored
    entry in column ``j``; if ``j`` is owned by a different worker ``m``,
    then ``m`` must send it and ``n`` must receive it.
    """
    owner = np.asarray(owner, dtype=np.int64)
    if owner.shape[0] != model.num_neurons:
        raise ValueError(
            f"ownership vector covers {owner.shape[0]} neurons but the model has "
            f"{model.num_neurons}"
        )
    if owner.size and (owner.min() < 0 or owner.max() >= num_workers):
        raise ValueError("ownership vector references a worker outside [0, num_workers)")

    weight_blocks: List[List[RowBlock]] = []
    comm_maps: List[LayerCommMaps] = []

    for k, weight in enumerate(model.weights):
        weight = as_csr(weight)
        blocks: List[RowBlock] = []
        send: List[Dict[int, np.ndarray]] = [dict() for _ in range(num_workers)]
        recv: List[Dict[int, np.ndarray]] = [dict() for _ in range(num_workers)]

        for m in range(num_workers):
            rows = np.flatnonzero(owner == m)
            block = RowBlock(global_rows=rows, local=weight[rows, :])
            blocks.append(block)

            # Columns this worker needs for layer k = union of stored column
            # indices across its weight rows.
            needed_cols = np.unique(block.local.indices) if block.nnz else np.empty(0, dtype=np.int64)
            if needed_cols.size == 0:
                continue
            col_owners = owner[needed_cols]
            remote_mask = col_owners != m
            remote_cols = needed_cols[remote_mask]
            remote_owners = col_owners[remote_mask]
            for source in np.unique(remote_owners):
                rows_from_source = remote_cols[remote_owners == source]
                recv[m][int(source)] = rows_from_source.astype(np.int64)

        # Mirror the receive maps into send maps.
        for target in range(num_workers):
            for source, rows in recv[target].items():
                send[source][target] = rows

        weight_blocks.append(blocks)
        comm_maps.append(LayerCommMaps(send=send, recv=recv))

    return PartitionPlan(
        model_name=model.name,
        num_workers=num_workers,
        owner=owner,
        weight_blocks=weight_blocks,
        comm_maps=comm_maps,
        partitioner_name=partitioner_name,
    )
