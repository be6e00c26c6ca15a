"""Tests for the server, HPC and managed-endpoint baselines."""

import pytest
from scipy.sparse import csr_matrix

from repro import (
    CloudEnvironment,
    EndpointInfeasibleError,
    EndpointLimits,
    GraphChallengeConfig,
    ServerMode,
    always_on_daily_cost,
    build_graph_challenge_model,
    generate_input_batch,
    run_endpoint_query,
    run_hpc_query,
    run_server_query,
)
from repro.baselines import model_load_bytes, paper_server_instance
from repro.cloud import SERVICE_ENDPOINT, SERVICE_VM
from repro.cloud.pricing import EC2_HOURLY_PRICES


@pytest.fixture(scope="module")
def baseline_model():
    config = GraphChallengeConfig(neurons=256, layers=4, nnz_per_row=8, num_communities=16, seed=2)
    return build_graph_challenge_model(config)


@pytest.fixture(scope="module")
def baseline_batch(baseline_model):
    return generate_input_batch(baseline_model.num_neurons, samples=16, seed=4)


class TestServerBaselines:
    def test_paper_instance_mapping(self):
        assert paper_server_instance(1024, ServerMode.JOB_SCOPED) == "c5.2xlarge"
        assert paper_server_instance(16384, ServerMode.JOB_SCOPED) == "c5.9xlarge"
        assert paper_server_instance(65536, ServerMode.JOB_SCOPED) == "c5.12xlarge"
        assert paper_server_instance(1024, ServerMode.ALWAYS_ON_HOT) == "c5.12xlarge"
        # Non-paper sizes fall back to a memory-based choice.
        assert paper_server_instance(2048, ServerMode.JOB_SCOPED) in EC2_HOURLY_PRICES

    def test_job_scoped_pays_startup_latency(self, cloud, baseline_model, baseline_batch):
        result = run_server_query(cloud, baseline_model, baseline_batch, ServerMode.JOB_SCOPED)
        assert result.startup_seconds >= 100.0
        assert result.latency_seconds > result.compute_seconds

    def test_always_on_hot_skips_model_load(self, cloud, baseline_model, baseline_batch):
        hot = run_server_query(cloud, baseline_model, baseline_batch, ServerMode.ALWAYS_ON_HOT)
        cold = run_server_query(cloud, baseline_model, baseline_batch, ServerMode.ALWAYS_ON_COLD)
        assert hot.model_load_seconds == pytest.approx(0.0)
        assert cold.model_load_seconds > 0.0
        assert hot.latency_seconds < cold.latency_seconds

    def test_latency_ordering_matches_figure5(self, cloud, baseline_model, baseline_batch):
        """AO-Hot < AO-Cold < Job-Scoped for the same model and batch."""
        hot = run_server_query(cloud, baseline_model, baseline_batch, ServerMode.ALWAYS_ON_HOT)
        cold = run_server_query(cloud, baseline_model, baseline_batch, ServerMode.ALWAYS_ON_COLD)
        job = run_server_query(cloud, baseline_model, baseline_batch, ServerMode.JOB_SCOPED)
        assert hot.latency_seconds < cold.latency_seconds < job.latency_seconds

    def test_job_scoped_billed_for_duration_only(self, cloud, baseline_model, baseline_batch):
        result = run_server_query(cloud, baseline_model, baseline_batch, ServerMode.JOB_SCOPED)
        expected = result.latency_seconds / 3600 * EC2_HOURLY_PRICES[result.instance_type]
        assert result.cost == pytest.approx(expected)
        assert cloud.ledger.filter(service=SERVICE_VM)

    def test_always_on_has_zero_marginal_query_cost(self, cloud, baseline_model, baseline_batch):
        result = run_server_query(cloud, baseline_model, baseline_batch, ServerMode.ALWAYS_ON_HOT)
        assert result.cost == 0.0

    def test_always_on_daily_cost_is_standing(self, cloud):
        cost = always_on_daily_cost(cloud, instances=2, hours=24.0)
        assert cost == pytest.approx(2 * 24 * EC2_HOURLY_PRICES["c5.12xlarge"])

    def test_model_too_large_for_instance_rejected(self, cloud, baseline_model, baseline_batch, monkeypatch):
        # Pretend the model needs more memory than a c5.large offers.
        monkeypatch.setattr(type(baseline_model), "nbytes", lambda self: 8 * 1024 ** 3)
        with pytest.raises(MemoryError):
            run_server_query(
                cloud, baseline_model, baseline_batch, ServerMode.JOB_SCOPED, instance_type="c5.large"
            )

    def test_model_load_bytes_matches_model(self, baseline_model):
        assert model_load_bytes(baseline_model) == baseline_model.nbytes()

    def test_per_sample_ms(self, cloud, baseline_model, baseline_batch):
        result = run_server_query(cloud, baseline_model, baseline_batch, ServerMode.ALWAYS_ON_HOT)
        assert result.per_sample_ms == pytest.approx(
            result.latency_seconds / baseline_batch.shape[1] * 1000
        )


class TestHPCBaseline:
    def test_latency_positive_and_decomposed(self, baseline_model, baseline_batch):
        result = run_hpc_query(baseline_model, baseline_batch, ranks=8)
        assert result.latency_seconds > 0
        assert result.latency_seconds == pytest.approx(
            result.compute_seconds + result.communication_seconds
        )

    def test_more_ranks_reduce_compute_time(self, baseline_model, baseline_batch):
        few = run_hpc_query(baseline_model, baseline_batch, ranks=2)
        many = run_hpc_query(baseline_model, baseline_batch, ranks=16)
        assert many.compute_seconds < few.compute_seconds

    def test_single_rank_has_no_communication(self, baseline_model, baseline_batch):
        result = run_hpc_query(baseline_model, baseline_batch, ranks=1)
        assert result.communication_seconds == 0.0

    def test_invalid_ranks_rejected(self, baseline_model, baseline_batch):
        with pytest.raises(ValueError):
            run_hpc_query(baseline_model, baseline_batch, ranks=0)

    def test_hpc_faster_than_job_scoped_server(self, cloud, baseline_model, baseline_batch):
        """The optimised HPC platform outperforms job-scoped VMs (Figure 5)."""
        hpc = run_hpc_query(baseline_model, baseline_batch, ranks=16)
        job = run_server_query(cloud, baseline_model, baseline_batch, ServerMode.JOB_SCOPED)
        assert hpc.latency_seconds < job.latency_seconds


class TestEndpointBaseline:
    def test_small_model_runs_and_is_billed(self, cloud, baseline_model, baseline_batch):
        result = run_endpoint_query(cloud, baseline_model, baseline_batch)
        assert result.completed
        assert result.requests >= 1
        assert result.cost > 0
        assert cloud.ledger.filter(service=SERVICE_ENDPOINT)

    def test_payload_limit_forces_multiple_requests(self, cloud, baseline_model):
        big_batch = generate_input_batch(baseline_model.num_neurons, samples=64, seed=6)
        tight = EndpointLimits(max_payload_bytes=16 * 1024)
        result = run_endpoint_query(cloud, baseline_model, big_batch, limits=tight)
        assert result.requests > 1

    def test_oversized_model_rejected(self, cloud, baseline_model, baseline_batch, monkeypatch):
        # Pretend the model is far larger than the endpoint's 6 GB memory.
        monkeypatch.setattr(type(baseline_model), "nbytes", lambda self: 10 * 1024 ** 3)
        with pytest.raises(EndpointInfeasibleError):
            run_endpoint_query(cloud, baseline_model, baseline_batch)

    def test_runtime_limit_truncates_processing(self, cloud, baseline_model, baseline_batch):
        """With an unreasonably small runtime cap, no samples can be processed."""
        impossible = EndpointLimits(max_runtime_seconds=1e-6)
        with pytest.raises(EndpointInfeasibleError):
            run_endpoint_query(cloud, baseline_model, baseline_batch, limits=impossible)

    def test_per_sample_ms_positive(self, cloud, baseline_model, baseline_batch):
        result = run_endpoint_query(cloud, baseline_model, baseline_batch)
        assert result.per_sample_ms > 0


class TestZeroSampleBatch:
    """A zero-sample batch is zero work on every baseline, not a crash."""

    @pytest.mark.parametrize("baseline", ["server", "endpoint", "hpc"])
    def test_zero_sample_batch_is_zero_work(self, baseline_model, baseline):
        empty = csr_matrix((baseline_model.num_neurons, 0))
        cloud = CloudEnvironment()
        if baseline == "server":
            result = run_server_query(cloud, baseline_model, empty, ServerMode.ALWAYS_ON_HOT)
            assert result.batch_size == 0 and result.compute_seconds == 0.0
        elif baseline == "endpoint":
            result = run_endpoint_query(cloud, baseline_model, empty)
            assert result.processed_samples == result.requested_samples == 0
            assert result.requests == 0 and result.cost == 0.0
            assert len(cloud.ledger) == 0  # no request billed
        else:
            result = run_hpc_query(baseline_model, empty, ranks=2)
            assert result.batch_size == 0
        assert result.per_sample_ms == 0.0
