"""Sage-SL-Inf baseline: a managed serverless inference endpoint.

AWS SageMaker Serverless Inference runs each request on a single
resource-constrained FaaS-backed endpoint.  The paper evaluates it with the
maximum allowed memory (6 GB) and finds that it cannot load the larger
models, that its 6 MB request payload and 60 s runtime limits cap how many
samples can be processed per request, and that it is outperformed by
FSD-Inf-Serial even where it does run (Table II).

The baseline reproduces those resource envelopes on the simulated substrate:
requests are sized to the payload cap, executed sequentially, billed per
invocation and per GB-second, and rejected when the model exceeds the
endpoint memory or a request exceeds the runtime limit.  A request's flop
count is read off the model's memoised :class:`~repro.model.ForwardProfile`
of its column slice; no forward pass runs per request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from scipy import sparse

from ..cloud import CloudEnvironment, CloudError, SERVICE_ENDPOINT
from ..cloud.faas import MEMORY_MB_PER_VCPU
from ..model import SparseDNN
from ..sparse import as_csr, csr_nbytes

__all__ = [
    "EndpointLimits",
    "EndpointInfeasibleError",
    "EndpointQueryResult",
    "run_endpoint_query",
]


class EndpointInfeasibleError(CloudError, RuntimeError):
    """The workload cannot run on the managed endpoint at all.

    A cloud-shaped failure (it is the endpoint service rejecting the query),
    so it descends from :class:`~repro.cloud.CloudError` for uniform retry
    classification -- infeasibility is deterministic, hence not retryable --
    while keeping ``RuntimeError`` in the MRO for pre-existing callers.
    """


@dataclass(frozen=True)
class EndpointLimits:
    """Service limits of the managed serverless endpoint."""

    memory_mb: int = 6144
    max_runtime_seconds: float = 60.0
    max_payload_bytes: int = 6 * 1024 * 1024


@dataclass(frozen=True)
class EndpointQueryResult:
    """Outcome of running (part of) a batch on the managed endpoint."""

    requested_samples: int
    processed_samples: int
    requests: int
    latency_seconds: float
    cost: float

    @property
    def per_sample_ms(self) -> float:
        if self.processed_samples == 0:
            return 0.0
        return self.latency_seconds / self.processed_samples * 1000.0

    @property
    def completed(self) -> bool:
        return self.processed_samples == self.requested_samples


def _per_sample_payload_bytes(batch: sparse.csr_matrix) -> float:
    """Approximate request payload bytes per input sample (uncompressed)."""
    if batch.shape[1] == 0:
        return 0.0
    return max(1.0, csr_nbytes(batch) / batch.shape[1])


def run_endpoint_query(
    cloud: CloudEnvironment,
    model: SparseDNN,
    batch: sparse.spmatrix,
    limits: Optional[EndpointLimits] = None,
    at_time: float = 0.0,
) -> EndpointQueryResult:
    """Run a batch through the managed serverless endpoint, as far as it allows.

    Returns a result recording how many samples could actually be processed;
    ``EndpointInfeasibleError`` is raised when not even a single sample fits
    (e.g. the model exceeds the endpoint memory), matching the paper's
    treatment of Sage-SL-Inf for the largest networks.  ``at_time`` offsets
    the billing timestamps onto the shared serving timeline; latency is
    relative, so the default changes nothing.
    """
    limits = limits or EndpointLimits()
    batch = as_csr(batch)
    samples = batch.shape[1]

    model_bytes = model.nbytes()
    if model_bytes * 1.2 > limits.memory_mb * 1024 * 1024:
        raise EndpointInfeasibleError(
            f"model '{model.name}' ({model_bytes / 1e9:.2f} GB) exceeds the endpoint "
            f"memory of {limits.memory_mb} MB"
        )

    payload_per_sample = _per_sample_payload_bytes(batch)
    samples_per_request = max(1, int(limits.max_payload_bytes // payload_per_sample))
    vcpus = limits.memory_mb / MEMORY_MB_PER_VCPU
    latency_model = cloud.latency
    prices = cloud.prices

    processed = 0
    requests = 0
    total_latency = 0.0
    total_cost = 0.0
    cursor = 0
    while cursor < samples:
        stop = min(samples, cursor + samples_per_request)
        whole = cursor == 0 and stop == samples
        profile = model.forward_profile(batch if whole else batch[:, cursor:stop])
        flops = 0.0
        for spmm_flops, weight in zip(profile.spmm_flops, model.weights):
            flops += spmm_flops + 2.0 * weight.nnz
        runtime = limits.max_runtime_seconds + 1 if vcpus <= 0 else (
            latency_model.endpoint_overhead_seconds + latency_model.endpoint_compute(flops, vcpus)
        )
        if runtime > limits.max_runtime_seconds:
            # This request would exceed the runtime cap; the endpoint cannot
            # process any further samples (the paper reports the reduced
            # sample counts Sage-SL-Inf achieved per model size).
            break
        requests += 1
        processed = stop
        total_latency += runtime
        gb_seconds = (limits.memory_mb / 1024.0) * runtime
        request_cost = (
            prices.endpoint_price_per_invocation
            + gb_seconds * prices.endpoint_price_per_gb_second
        )
        total_cost += request_cost
        cloud.ledger.record(
            service=SERVICE_ENDPOINT,
            operation="request",
            resource=f"endpoint-{model.name}",
            quantity=1,
            cost=request_cost,
            timestamp=at_time + total_latency,
        )
        cursor = stop

    if processed == 0:
        raise EndpointInfeasibleError(
            f"no request of model '{model.name}' completes within the "
            f"{limits.max_runtime_seconds:.0f}s endpoint runtime limit"
        )

    return EndpointQueryResult(
        requested_samples=samples,
        processed_samples=processed,
        requests=requests,
        latency_seconds=total_latency,
        cost=total_cost,
    )
