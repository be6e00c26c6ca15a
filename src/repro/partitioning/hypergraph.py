"""HGP-DNN: connectivity-minimising hypergraph partitioning of sparse DNNs.

The paper partitions models offline with PaToH [12, 70]; PaToH is a
closed-source binary, so this module implements an equivalent multilevel-style
partitioner in pure numpy/scipy.  The goal function is the same as the
paper's: minimise the volume of activation rows that must cross worker
boundaries at inference time, while keeping the per-worker weight nonzeros
balanced.

Algorithm (all deterministic given the seed):

1. **Aggregate** the model's layer patterns into a symmetric neuron
   connectivity graph (the graph approximation of the column-net hypergraph;
   an edge whose endpoints live on different workers corresponds to an
   activation row that must be shipped every time that layer runs).
2. **Cluster**: grow connectivity-dense clusters of bounded size around seed
   vertices (greedy agglomeration), which plays the role of the coarsening
   phase of a multilevel partitioner.
3. **Map clusters to parts**: clusters are assigned greedily to the part they
   are most connected to, subject to a balance constraint on total vertex
   weight (weight = row nonzeros summed over layers).
4. **Refine**: several balanced label-propagation passes move individual
   neurons to the part they are most connected to whenever the move reduces
   the connectivity cut and keeps the balance within tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from ..model import SparseDNN
from ..sparse import as_csr
from .base import Partitioner, aggregate_connectivity, balanced_capacities

__all__ = ["HypergraphPartitioner", "PartitionQuality", "cut_weight"]


@dataclass(frozen=True)
class PartitionQuality:
    """Diagnostics of a finished partitioning run."""

    cut_weight: float
    total_edge_weight: float
    load_imbalance: float
    refinement_passes: int
    moves_applied: int

    @property
    def cut_fraction(self) -> float:
        if self.total_edge_weight == 0:
            return 0.0
        return self.cut_weight / self.total_edge_weight


def cut_weight(adjacency: sparse.csr_matrix, owner: np.ndarray) -> float:
    """Total weight of edges whose endpoints are on different parts."""
    adjacency = as_csr(adjacency)
    coo = adjacency.tocoo()
    crossing = owner[coo.row] != owner[coo.col]
    # The adjacency is symmetric, so each undirected edge is counted twice.
    return float(coo.data[crossing].sum() / 2.0)


class HypergraphPartitioner(Partitioner):
    """HGP-DNN partitioner (the paper's hypergraph partitioning scheme)."""

    name = "HGP-DNN"

    def __init__(
        self,
        epsilon: float = 0.05,
        clusters_per_part: int = 4,
        refinement_passes: int = 6,
        max_moves_fraction: float = 0.25,
        seed: int = 0,
    ):
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if clusters_per_part < 1:
            raise ValueError("clusters_per_part must be at least 1")
        self.epsilon = epsilon
        self.clusters_per_part = clusters_per_part
        self.refinement_passes = refinement_passes
        self.max_moves_fraction = max_moves_fraction
        self.seed = seed
        self.last_quality: Optional[PartitionQuality] = None

    # -- public API ------------------------------------------------------------------

    def plan_key(self, num_workers: int) -> tuple:
        # ``last_quality`` is a diagnostic of the latest run, not an input.
        parameters = (
            self.epsilon,
            self.clusters_per_part,
            self.refinement_passes,
            self.max_moves_fraction,
            self.seed,
        )
        return (type(self), parameters, num_workers)

    def assign(self, model: SparseDNN, num_workers: int) -> np.ndarray:
        adjacency = aggregate_connectivity(model)
        vertex_weights = self._vertex_weights(model)
        if num_workers == 1:
            owner = np.zeros(model.num_neurons, dtype=np.int64)
            self.last_quality = PartitionQuality(0.0, float(adjacency.sum() / 2.0), 1.0, 0, 0)
            return owner

        clusters = self._grow_clusters(adjacency, vertex_weights, num_workers)
        owner = self._map_clusters_to_parts(adjacency, vertex_weights, clusters, num_workers)
        owner, passes, moves = self._refine(adjacency, vertex_weights, owner, num_workers)

        loads = np.bincount(owner, weights=vertex_weights, minlength=num_workers)
        mean_load = loads.mean() if loads.mean() > 0 else 1.0
        self.last_quality = PartitionQuality(
            cut_weight=cut_weight(adjacency, owner),
            total_edge_weight=float(adjacency.sum() / 2.0),
            load_imbalance=float(loads.max() / mean_load),
            refinement_passes=passes,
            moves_applied=moves,
        )
        return owner

    # -- phase 1: vertex weights -----------------------------------------------------

    @staticmethod
    def _vertex_weights(model: SparseDNN) -> np.ndarray:
        """Per-neuron computational weight: stored nonzeros across all layers."""
        weights = np.zeros(model.num_neurons, dtype=np.float64)
        for weight in model.weights:
            weights += np.diff(as_csr(weight).indptr)
        # Avoid zero-weight vertices so balance constraints remain meaningful.
        weights[weights == 0] = 1.0
        return weights

    # -- phase 2: cluster growing (coarsening) ------------------------------------------

    def _grow_clusters(
        self,
        adjacency: sparse.csr_matrix,
        vertex_weights: np.ndarray,
        num_workers: int,
    ) -> np.ndarray:
        n = adjacency.shape[0]
        num_clusters = min(n, num_workers * self.clusters_per_part)
        target_size = balanced_capacities(vertex_weights.sum(), num_clusters, self.epsilon)

        cluster_of = np.full(n, -1, dtype=np.int64)
        degree_order = np.argsort(-np.asarray(adjacency.sum(axis=1)).ravel())
        indptr, neighbours, weights = adjacency.indptr, adjacency.indices, adjacency.data
        in_frontier = np.zeros(n, dtype=bool)
        next_cluster = 0

        for seed_vertex in degree_order:
            if cluster_of[seed_vertex] != -1:
                continue
            if next_cluster >= num_clusters:
                break
            cluster_id = next_cluster
            next_cluster += 1
            cluster_of[seed_vertex] = cluster_id
            cluster_weight = vertex_weights[seed_vertex]

            # Connectivity of every vertex to the growing cluster, plus an
            # explicit frontier of candidate vertices.  The previous
            # implementation ran an argmax over all n vertices per absorbed
            # vertex (O(n) each, O(n^2) per cluster); only vertices adjacent
            # to the cluster can ever have positive connectivity, so the
            # argmax needs to scan just the frontier.  Ties pick the lowest
            # vertex index, exactly like np.argmax's first-maximum rule, and
            # the floating-point accumulation into ``connectivity`` happens in
            # the same per-absorption order, so the grown clusters (and the
            # final ownership vector) are bit-for-bit identical.
            connectivity = np.zeros(n, dtype=np.float64)

            def absorb_neighbours(vertex: int) -> None:
                """Fold ``vertex``'s edges into the frontier connectivity.

                Only unassigned neighbours accumulate (and can enter the
                frontier): the seed implementation added to every neighbour
                but masked assigned vertices to 0.0 before its argmax, so
                their connectivity values were never read -- skipping the
                writes leaves every *read* value bit-identical.
                """
                nonlocal frontier
                start, stop = indptr[vertex], indptr[vertex + 1]
                adjacent = neighbours[start:stop]
                unassigned_mask = cluster_of[adjacent] == -1
                targets = adjacent[unassigned_mask]
                connectivity[targets] += weights[start:stop][unassigned_mask]
                fresh = targets[~in_frontier[targets]]
                if fresh.size:
                    in_frontier[fresh] = True
                    frontier = np.concatenate([frontier, fresh])

            frontier = np.empty(0, dtype=neighbours.dtype)
            absorb_neighbours(seed_vertex)

            while cluster_weight < target_size and frontier.size:
                values = connectivity[frontier]
                best = values.max()
                if best <= 0.0:
                    # Absorbed vertices stay in the frontier with their
                    # connectivity zeroed (the seed masked them to 0.0 the
                    # same way), so a non-positive maximum means no unassigned
                    # neighbour is left -- identical break condition.
                    break
                candidate = int(frontier[values == best].min())
                cluster_of[candidate] = cluster_id
                connectivity[candidate] = 0.0
                cluster_weight += vertex_weights[candidate]
                absorb_neighbours(candidate)
            in_frontier[frontier] = False

        # Any vertices left unassigned (isolated or overflow) join the lightest cluster
        # they are connected to, or round-robin if they have no connections.
        unassigned = np.flatnonzero(cluster_of == -1)
        if unassigned.size:
            cluster_weights = np.bincount(
                cluster_of[cluster_of >= 0], weights=vertex_weights[cluster_of >= 0],
                minlength=max(next_cluster, 1),
            )
            for vertex in unassigned:
                row = adjacency.getrow(vertex)
                neighbour_clusters = cluster_of[row.indices]
                neighbour_clusters = neighbour_clusters[neighbour_clusters >= 0]
                if neighbour_clusters.size:
                    counts = np.bincount(neighbour_clusters, minlength=max(next_cluster, 1))
                    cluster_id = int(counts.argmax())
                else:
                    cluster_id = int(cluster_weights.argmin())
                cluster_of[vertex] = cluster_id
                cluster_weights[cluster_id] += vertex_weights[vertex]
        return cluster_of

    # -- phase 3: cluster -> part mapping ------------------------------------------------

    def _map_clusters_to_parts(
        self,
        adjacency: sparse.csr_matrix,
        vertex_weights: np.ndarray,
        cluster_of: np.ndarray,
        num_workers: int,
    ) -> np.ndarray:
        num_clusters = int(cluster_of.max()) + 1
        n = adjacency.shape[0]

        # Cluster-level aggregated graph: indicator^T @ A @ indicator.
        indicator = sparse.csr_matrix(
            (np.ones(n), (np.arange(n), cluster_of)), shape=(n, num_clusters)
        )
        cluster_adjacency = (indicator.T @ adjacency @ indicator).toarray()
        np.fill_diagonal(cluster_adjacency, 0.0)
        cluster_weights = np.asarray(
            indicator.T @ vertex_weights.reshape(-1, 1)
        ).ravel()

        # Greedy part growing over the cluster graph: each part is grown from a
        # heavy seed cluster by repeatedly absorbing the unassigned cluster with
        # the strongest connectivity to the part, until the balance capacity is
        # reached.  This keeps strongly-connected cluster neighbourhoods on the
        # same worker (the property Table III depends on).
        target = vertex_weights.sum() / num_workers
        capacity = balanced_capacities(vertex_weights.sum(), num_workers, self.epsilon)
        part_of_cluster = np.full(num_clusters, -1, dtype=np.int64)
        part_loads = np.zeros(num_workers, dtype=np.float64)

        for part in range(num_workers):
            unassigned = np.flatnonzero(part_of_cluster < 0)
            if unassigned.size == 0:
                break
            seed = unassigned[int(np.argmax(cluster_weights[unassigned]))]
            part_of_cluster[seed] = part
            part_loads[part] = cluster_weights[seed]
            connectivity = cluster_adjacency[seed].copy()
            while part_loads[part] < target:
                unassigned = np.flatnonzero(part_of_cluster < 0)
                if unassigned.size == 0:
                    break
                best = unassigned[int(np.argmax(connectivity[unassigned]))]
                if part_loads[part] + cluster_weights[best] > capacity:
                    break
                part_of_cluster[best] = part
                part_loads[part] += cluster_weights[best]
                connectivity += cluster_adjacency[best]

        # Any clusters left over (capacity rounding) go to the least-loaded part.
        for cluster in np.flatnonzero(part_of_cluster < 0):
            part = int(part_loads.argmin())
            part_of_cluster[cluster] = part
            part_loads[part] += cluster_weights[cluster]

        return part_of_cluster[cluster_of]

    # -- phase 4: refinement ----------------------------------------------------------------

    def _refine(
        self,
        adjacency: sparse.csr_matrix,
        vertex_weights: np.ndarray,
        owner: np.ndarray,
        num_workers: int,
    ) -> tuple:
        n = adjacency.shape[0]
        owner = owner.copy()
        capacity = balanced_capacities(vertex_weights.sum(), num_workers, self.epsilon)
        loads = np.bincount(owner, weights=vertex_weights, minlength=num_workers).astype(float)
        max_moves = max(1, int(self.max_moves_fraction * n))
        total_moves = 0
        passes_run = 0

        for _ in range(self.refinement_passes):
            passes_run += 1
            indicator = sparse.csr_matrix(
                (np.ones(n), (np.arange(n), owner)), shape=(n, num_workers)
            )
            # connectivity[v, p] = total edge weight between v and part p.
            connectivity = np.asarray((adjacency @ indicator).todense())
            current = connectivity[np.arange(n), owner]
            best_part = connectivity.argmax(axis=1)
            best_value = connectivity[np.arange(n), best_part]
            gains = best_value - current
            candidates = np.flatnonzero((gains > 0) & (best_part != owner))
            if candidates.size == 0:
                break
            # Apply the highest-gain moves first, respecting the balance constraint.
            candidates = candidates[np.argsort(-gains[candidates])][:max_moves]
            moves_this_pass = 0
            for vertex in candidates:
                source = owner[vertex]
                target = int(best_part[vertex])
                weight = vertex_weights[vertex]
                if loads[target] + weight > capacity:
                    continue
                # Never empty a part completely.
                if loads[source] - weight <= 0:
                    continue
                owner[vertex] = target
                loads[source] -= weight
                loads[target] += weight
                moves_this_pass += 1
            total_moves += moves_this_pass
            if moves_this_pass == 0:
                break

        return owner, passes_run, total_moves
