"""Partitioner interface and shared helpers."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np
from scipy import sparse

from ..model import SparseDNN
from ..sparse import as_csr
from .plan import PartitionPlan, build_partition_plan

__all__ = ["Partitioner", "aggregate_connectivity", "balanced_capacities"]


class Partitioner(ABC):
    """Produces a neuron-ownership vector for a model and worker count."""

    #: human-readable scheme name (appears in plans, reports and Table III).
    name: str = "base"

    @abstractmethod
    def assign(self, model: SparseDNN, num_workers: int) -> np.ndarray:
        """Return ``owner``: an int array of length ``model.num_neurons``."""

    def plan_key(self, num_workers: int) -> tuple:
        """Hashable identity of the plan ``partition(model, num_workers)`` builds.

        Two partitioners of one type with equal parameters build the same
        plan for a model, so a plan cache carried by the model (see
        ``SparseDNN.partition_plan_cache``) keys on this, not on the
        partitioner object.  The parameters are the instance attributes; a
        subclass that also keeps run-time state on the instance overrides
        this to leave it out.
        """
        return (type(self), tuple(sorted(vars(self).items())), num_workers)

    def partition(self, model: SparseDNN, num_workers: int) -> PartitionPlan:
        """Assign ownership and derive the full :class:`PartitionPlan`."""
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if num_workers > model.num_neurons:
            raise ValueError(
                f"cannot split {model.num_neurons} neurons over {num_workers} workers"
            )
        owner = self.assign(model, num_workers)
        return build_partition_plan(model, owner, num_workers, partitioner_name=self.name)


def aggregate_connectivity(model: SparseDNN) -> sparse.csr_matrix:
    """Symmetric aggregated neuron-connectivity graph of a model.

    Entry ``(i, j)`` counts, over all layers, how often neuron ``i``'s weight
    row references column ``j`` (plus the transpose).  This is the graph
    approximation of the paper's column-net hypergraph: an edge crossing the
    partition corresponds to an activation row that must be communicated.
    """
    n = model.num_neurons
    pattern = sparse.csr_matrix((n, n), dtype=np.float64)
    for weight in model.weights:
        weight = as_csr(weight)
        binary = weight.copy()
        binary.data = np.ones_like(binary.data, dtype=np.float64)
        pattern = pattern + binary
    symmetric = pattern + pattern.T
    symmetric.setdiag(0)
    symmetric.eliminate_zeros()
    return symmetric.tocsr()


def balanced_capacities(total_weight: float, num_parts: int, epsilon: float = 0.05) -> float:
    """Maximum part weight under an ``epsilon`` imbalance tolerance."""
    if num_parts < 1:
        raise ValueError("num_parts must be at least 1")
    return (total_weight / num_parts) * (1.0 + epsilon)
