"""Tests for partition plans, the partitioners and their quality metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partitioning import (
    ContiguousPartitioner,
    HypergraphPartitioner,
    RandomPartitioner,
    aggregate_connectivity,
    balanced_capacities,
    build_partition_plan,
    compare_plans,
    cut_weight,
    evaluate_plan,
)
from repro.workloads import GraphChallengeConfig, build_graph_challenge_model


@pytest.fixture(scope="module")
def structured_model():
    """A model with planted community structure (what HGP-DNN exploits)."""
    config = GraphChallengeConfig(
        neurons=512,
        layers=4,
        nnz_per_row=12,
        num_communities=32,
        community_link_fraction=0.95,
        seed=11,
    )
    return build_graph_challenge_model(config)


class TestSimplePartitioners:
    def test_random_partitioner_balances_row_counts(self, small_model):
        owner = RandomPartitioner(seed=1).assign(small_model, 4)
        counts = np.bincount(owner, minlength=4)
        assert counts.max() - counts.min() <= 1
        assert owner.shape[0] == small_model.num_neurons

    def test_contiguous_partitioner_assigns_ranges(self, small_model):
        owner = ContiguousPartitioner().assign(small_model, 4)
        # contiguous: owner values are non-decreasing
        assert all(owner[i] <= owner[i + 1] for i in range(len(owner) - 1))

    def test_random_partitioner_deterministic_in_seed(self, small_model):
        a = RandomPartitioner(seed=5).assign(small_model, 3)
        b = RandomPartitioner(seed=5).assign(small_model, 3)
        np.testing.assert_array_equal(a, b)

    def test_partition_validates_worker_count(self, small_model):
        with pytest.raises(ValueError):
            RandomPartitioner().partition(small_model, 0)
        with pytest.raises(ValueError):
            RandomPartitioner().partition(small_model, small_model.num_neurons + 1)


class TestPartitionPlan:
    def test_plan_structure(self, small_model, small_plan):
        assert small_plan.num_workers == 4
        assert small_plan.num_layers == small_model.num_layers
        assert small_plan.num_neurons == small_model.num_neurons
        # every neuron is owned by exactly one worker
        all_rows = np.concatenate([small_plan.worker_rows(m) for m in range(4)])
        assert sorted(all_rows.tolist()) == list(range(small_model.num_neurons))

    def test_weight_blocks_cover_model(self, small_model, small_plan):
        for layer in range(small_model.num_layers):
            total = sum(small_plan.weight_blocks[layer][m].nnz for m in range(4))
            assert total == small_model.weights[layer].nnz

    def test_send_recv_maps_are_mirrors(self, small_plan):
        for layer in range(small_plan.num_layers):
            maps = small_plan.comm_maps[layer]
            for source in range(small_plan.num_workers):
                for target, rows in maps.send[source].items():
                    np.testing.assert_array_equal(rows, maps.recv[target][source])

    def test_send_rows_are_owned_by_sender(self, small_plan):
        for layer in range(small_plan.num_layers):
            for source in range(small_plan.num_workers):
                owned = set(small_plan.worker_rows(source).tolist())
                for rows in small_plan.send_map(layer, source).values():
                    assert set(rows.tolist()) <= owned

    def test_send_positions_index_the_senders_own_rows(self, small_plan):
        for layer in range(small_plan.num_layers):
            for source in range(small_plan.num_workers):
                owned = small_plan.worker_rows(source)
                send_map = small_plan.send_map(layer, source)
                positions = small_plan.send_positions(layer, source)
                assert positions is small_plan.send_positions(layer, source)  # cached
                assert sorted(positions) == sorted(send_map)
                for target, rows in send_map.items():
                    assert positions[target].dtype == np.int32
                    np.testing.assert_array_equal(owned[positions[target]], rows)

    def test_recv_rows_cover_required_columns(self, small_model, small_plan):
        """A worker receives exactly the remote columns its weight rows reference."""
        layer = 0
        for worker in range(small_plan.num_workers):
            block = small_plan.weight_blocks[layer][worker]
            needed = set(np.unique(block.local.indices).tolist()) if block.nnz else set()
            owned = set(small_plan.worker_rows(worker).tolist())
            remote_needed = needed - owned
            received = set()
            for rows in small_plan.recv_map(layer, worker).values():
                received.update(rows.tolist())
            assert received == remote_needed

    def test_build_plan_validates_owner(self, small_model):
        with pytest.raises(ValueError):
            build_partition_plan(small_model, np.zeros(10), 2)
        bad_owner = np.zeros(small_model.num_neurons, dtype=int)
        bad_owner[0] = 7
        with pytest.raises(ValueError):
            build_partition_plan(small_model, bad_owner, 2)

    def test_single_worker_plan_has_no_communication(self, small_model):
        plan = RandomPartitioner().partition(small_model, 1)
        assert plan.total_rows_transferred() == 0

    def test_summary_keys(self, small_plan):
        summary = small_plan.summary()
        assert summary["num_workers"] == 4
        assert summary["total_rows_transferred"] == small_plan.total_rows_transferred()


class TestHypergraphPartitioner:
    def test_reduces_communication_vs_random(self, structured_model):
        hgp = HypergraphPartitioner(seed=2).partition(structured_model, 8)
        rp = RandomPartitioner(seed=2).partition(structured_model, 8)
        assert hgp.total_rows_transferred() < 0.5 * rp.total_rows_transferred()

    def test_respects_balance_constraint(self, structured_model):
        partitioner = HypergraphPartitioner(epsilon=0.05, seed=2)
        plan = partitioner.partition(structured_model, 8)
        assert plan.load_imbalance() <= 1.15  # epsilon plus discretisation slack

    def test_single_worker_short_circuit(self, structured_model):
        partitioner = HypergraphPartitioner()
        owner = partitioner.assign(structured_model, 1)
        assert set(owner.tolist()) == {0}
        assert partitioner.last_quality.cut_weight == 0.0

    def test_quality_diagnostics_populated(self, structured_model):
        partitioner = HypergraphPartitioner(seed=4)
        partitioner.partition(structured_model, 4)
        quality = partitioner.last_quality
        assert quality is not None
        assert 0.0 <= quality.cut_fraction <= 1.0
        assert quality.load_imbalance >= 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HypergraphPartitioner(epsilon=-0.1)
        with pytest.raises(ValueError):
            HypergraphPartitioner(clusters_per_part=0)

    def test_deterministic_in_seed(self, structured_model):
        a = HypergraphPartitioner(seed=7).assign(structured_model, 4)
        b = HypergraphPartitioner(seed=7).assign(structured_model, 4)
        np.testing.assert_array_equal(a, b)


class TestHelpers:
    def test_aggregate_connectivity_symmetric_no_diagonal(self, small_model):
        adjacency = aggregate_connectivity(small_model)
        assert (adjacency != adjacency.T).nnz == 0
        assert adjacency.diagonal().sum() == 0

    def test_cut_weight_zero_for_single_part(self, small_model):
        adjacency = aggregate_connectivity(small_model)
        owner = np.zeros(small_model.num_neurons, dtype=int)
        assert cut_weight(adjacency, owner) == 0.0

    def test_cut_weight_positive_for_split(self, small_model):
        adjacency = aggregate_connectivity(small_model)
        owner = np.arange(small_model.num_neurons) % 2
        assert cut_weight(adjacency, owner) > 0.0

    def test_balanced_capacities(self):
        assert balanced_capacities(100, 4, epsilon=0.0) == 25
        assert balanced_capacities(100, 4, epsilon=0.1) == pytest.approx(27.5)
        with pytest.raises(ValueError):
            balanced_capacities(100, 0)


class TestMetrics:
    def test_evaluate_plan_consistency(self, small_plan):
        metrics = evaluate_plan(small_plan)
        assert metrics.total_rows_transferred == small_plan.total_rows_transferred()
        assert metrics.num_workers == small_plan.num_workers
        assert metrics.load_imbalance == pytest.approx(small_plan.load_imbalance())
        assert len(metrics.rows_transferred_per_layer) == small_plan.num_layers

    def test_compare_plans_keys_by_partitioner(self, structured_model):
        plans = [
            HypergraphPartitioner(seed=1).partition(structured_model, 4),
            RandomPartitioner(seed=1).partition(structured_model, 4),
        ]
        comparison = compare_plans(plans)
        assert set(comparison) == {"HGP-DNN", "RP"}

    def test_as_dict_round_trip(self, small_plan):
        data = evaluate_plan(small_plan).as_dict()
        assert data["num_workers"] == 4
        assert "load_imbalance" in data


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=99),
)
@settings(max_examples=20, deadline=None)
def test_plan_send_recv_symmetry_property(workers, seed):
    """Property: send/recv maps mirror each other for any partition."""
    config = GraphChallengeConfig(
        neurons=64, layers=2, nnz_per_row=4, num_communities=8, seed=seed
    )
    model = build_graph_challenge_model(config)
    plan = RandomPartitioner(seed=seed).partition(model, workers)
    for layer in range(plan.num_layers):
        maps = plan.comm_maps[layer]
        sent_pairs = {
            (source, target, tuple(rows.tolist()))
            for source in range(workers)
            for target, rows in maps.send[source].items()
        }
        recv_pairs = {
            (source, target, tuple(rows.tolist()))
            for target in range(workers)
            for source, rows in maps.recv[target].items()
        }
        assert sent_pairs == recv_pairs
