"""H-SpFF baseline: hypergraph-partitioned sparse inference on an HPC cluster.

The paper compares against H-SpFF [12] (Demirci & Ferhatosmanoglu, ICS'21),
which runs the same hypergraph-partitioned sparse feed-forward inference on
an on-premise HPC platform with MPI over a fast interconnect.  That hardware
is not available here, so the baseline is modelled on the same virtual-time
substrate: per-layer compute is spread over MPI ranks with an HPC-grade
per-core throughput and parallel efficiency, and the partition plan's
communication volume crosses a microsecond-latency, tens-of-GB/s
interconnect.  The per-layer flop counts and activation sizes come from the
model's memoised :class:`~repro.model.ForwardProfile` of the batch, the
transferred rows from the partition plan -- no forward pass runs per query.
No cost is reported, matching the paper ("cost information is not available
for H-SpFF").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from scipy import sparse

from ..cloud import LatencyModel
from ..model import SparseDNN
from ..partitioning import HypergraphPartitioner, PartitionPlan
from ..sparse import as_csr

__all__ = ["HPCQueryResult", "run_hpc_query"]

#: assumed bytes per transferred activation value on the wire (float32 + index).
_BYTES_PER_TRANSFERRED_VALUE = 8.0


@dataclass(frozen=True)
class HPCQueryResult:
    """Latency breakdown of one H-SpFF style query."""

    ranks: int
    latency_seconds: float
    compute_seconds: float
    communication_seconds: float
    batch_size: int

    @property
    def per_sample_ms(self) -> float:
        if self.batch_size == 0:
            return 0.0
        return self.latency_seconds / self.batch_size * 1000.0


def run_hpc_query(
    model: SparseDNN,
    batch: sparse.spmatrix,
    ranks: int,
    latency: Optional[LatencyModel] = None,
    plan: Optional[PartitionPlan] = None,
) -> HPCQueryResult:
    """Simulate one batch of H-SpFF inference with ``ranks`` MPI ranks.

    ``plan`` must have been built for this model and ``ranks`` workers;
    without one (and ``ranks > 1``) the model is partitioned here.
    """
    if ranks < 1:
        raise ValueError("ranks must be at least 1")
    latency = latency or LatencyModel()
    batch = as_csr(batch)
    if plan is None and ranks > 1:
        plan = HypergraphPartitioner().partition(model, ranks)
    if plan is not None:
        if plan.num_workers != ranks:
            raise ValueError(
                f"plan.num_workers is {plan.num_workers} but ranks is {ranks}: "
                "the plan was built for a different rank count"
            )
        if len(plan.comm_maps) != model.num_layers:
            raise ValueError(
                f"plan covers {len(plan.comm_maps)} layers but model '{model.name}' "
                f"has {model.num_layers}: the plan was built for a different model"
            )

    profile = model.forward_profile(batch)
    compute_seconds = 0.0
    communication_seconds = 0.0
    for layer, weight in enumerate(model.weights):
        flops = profile.spmm_flops[layer] + 2.0 * weight.nnz
        compute_seconds += latency.hpc_compute(flops, ranks)

        if plan is not None and ranks > 1:
            avg_row_nnz = profile.input_nnz[layer] / max(model.num_neurons, 1)
            rows_exchanged = plan.comm_maps[layer].total_rows_transferred()
            bytes_exchanged = rows_exchanged * avg_row_nnz * _BYTES_PER_TRANSFERRED_VALUE
            # Transfers are spread over the ranks; each rank also pays a
            # per-layer message latency for its point-to-point exchanges.
            pairs = plan.comm_maps[layer].message_pairs()
            communication_seconds += latency.hpc_transfer(bytes_exchanged / ranks)
            communication_seconds += latency.hpc_interconnect_latency_seconds * (pairs / ranks)

    total = compute_seconds + communication_seconds
    return HPCQueryResult(
        ranks=ranks,
        latency_seconds=total,
        compute_seconds=compute_seconds,
        communication_seconds=communication_seconds,
        batch_size=batch.shape[1],
    )
