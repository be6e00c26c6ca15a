"""Frozen reference baselines: the differential-test oracle.

``run_server_query``, ``run_hpc_query`` and ``run_endpoint_query`` exactly as
they stood before the baselines started reading a memoised
:class:`~repro.model.ForwardProfile` (commit 03f2367): each re-runs the whole
sparse forward pass per query (per request, for the endpoint) with the scipy
operators, only to read per-layer flop counts and stored-entry counts off it.
Slow and obviously right, which is what an oracle should be.  The server
baseline's identity-keyed flop memo is the one thing left out -- it served a
stale count for a batch mutated in place, which is the bug the content key
fixed.  ``tests/test_forward_profile.py`` runs these and the production
functions over the same inputs and demands ``float.hex()``-identical results
and identical ledgers.

Do not edit to track ``src/`` -- a semantic change to what a baseline charges
must change this file *deliberately*, in the same PR, with the reason stated.
Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import sparse

from repro.baselines.hpc import _BYTES_PER_TRANSFERRED_VALUE, HPCQueryResult
from repro.baselines.sagemaker import (
    EndpointInfeasibleError,
    EndpointLimits,
    EndpointQueryResult,
    _per_sample_payload_bytes,
)
from repro.baselines.server import (
    ServerMode,
    ServerQueryResult,
    model_load_bytes,
    paper_server_instance,
)
from repro.cloud import SERVICE_ENDPOINT, CloudEnvironment, InstanceSpec, LatencyModel
from repro.cloud.faas import MEMORY_MB_PER_VCPU
from repro.model import SparseDNN
from repro.partitioning import HypergraphPartitioner, PartitionPlan
from repro.sparse import as_csr, flop_count_spmm

__all__ = ["run_server_query", "run_hpc_query", "run_endpoint_query"]


def _forward_flops(model: SparseDNN, batch: sparse.spmatrix) -> float:
    """Total floating point work of a full forward pass over ``batch``."""
    activations = as_csr(batch)
    total = 0.0
    for weight, bias in zip(model.weights, model.biases):
        total += flop_count_spmm(weight, activations)
        pre = weight @ activations
        total += 2.0 * pre.nnz
        pre.data = pre.data + bias
        pre.eliminate_zeros()
        np.maximum(pre.data, 0.0, out=pre.data)
        if model.activation_cap is not None:
            np.minimum(pre.data, model.activation_cap, out=pre.data)
        pre.eliminate_zeros()
        activations = pre
    return total


def run_server_query(
    cloud: CloudEnvironment,
    model: SparseDNN,
    batch: sparse.spmatrix,
    mode: ServerMode,
    instance_type: Optional[str] = None,
    at_time: float = 0.0,
) -> ServerQueryResult:
    batch = as_csr(batch)
    if instance_type is None:
        instance_type = paper_server_instance(model.num_neurons, mode)
    spec = InstanceSpec.for_type(instance_type)

    required_bytes = model_load_bytes(model) * 1.5  # model + activations headroom
    if not required_bytes <= spec.memory_bytes:
        raise MemoryError(
            f"model '{model.name}' needs ~{required_bytes / 1e9:.1f} GB but "
            f"{instance_type} offers {spec.memory_gib} GiB"
        )

    always_on = mode is not ServerMode.JOB_SCOPED
    vm = cloud.vms.launch(instance_type, always_on=always_on)
    ready_at = vm.start(at_time=at_time)
    startup_seconds = ready_at - at_time

    load_start = vm.clock.now
    if mode is ServerMode.ALWAYS_ON_HOT:
        pass  # model already resident in memory
    elif mode is ServerMode.ALWAYS_ON_COLD:
        vm.load_from_object_storage(model_load_bytes(model))
    else:
        vm.load_from_object_storage(model_load_bytes(model))
    model_load_seconds = vm.clock.now - load_start

    compute_start = vm.clock.now
    vm.run_compute(_forward_flops(model, batch))
    compute_seconds = vm.clock.now - compute_start

    latency = vm.clock.now - at_time
    if mode is ServerMode.JOB_SCOPED:
        elapsed = vm.stop()
        cost = (elapsed / 3600.0) * vm.hourly_price()
    else:
        cost = 0.0

    return ServerQueryResult(
        mode=mode,
        instance_type=instance_type,
        latency_seconds=latency,
        startup_seconds=startup_seconds,
        model_load_seconds=model_load_seconds,
        compute_seconds=compute_seconds,
        cost=cost,
        batch_size=batch.shape[1],
        provisioned=not vm.always_on,
    )


def run_hpc_query(
    model: SparseDNN,
    batch: sparse.spmatrix,
    ranks: int,
    latency: Optional[LatencyModel] = None,
    plan: Optional[PartitionPlan] = None,
) -> HPCQueryResult:
    if ranks < 1:
        raise ValueError("ranks must be at least 1")
    latency = latency or LatencyModel()
    batch = as_csr(batch)
    if plan is None and ranks > 1:
        plan = HypergraphPartitioner().partition(model, ranks)

    compute_seconds = 0.0
    communication_seconds = 0.0
    activations = batch
    for layer, (weight, bias) in enumerate(zip(model.weights, model.biases)):
        flops = flop_count_spmm(weight, activations) + 2.0 * weight.nnz
        compute_seconds += latency.hpc_compute(flops, ranks)

        pre = weight @ activations
        pre.data = pre.data + bias
        pre.eliminate_zeros()
        np.maximum(pre.data, 0.0, out=pre.data)
        if model.activation_cap is not None:
            np.minimum(pre.data, model.activation_cap, out=pre.data)
        pre.eliminate_zeros()

        if plan is not None and ranks > 1:
            avg_row_nnz = activations.nnz / max(activations.shape[0], 1)
            rows_exchanged = plan.comm_maps[layer].total_rows_transferred()
            bytes_exchanged = rows_exchanged * avg_row_nnz * _BYTES_PER_TRANSFERRED_VALUE
            pairs = plan.comm_maps[layer].message_pairs()
            communication_seconds += latency.hpc_transfer(bytes_exchanged / ranks)
            communication_seconds += latency.hpc_interconnect_latency_seconds * (pairs / ranks)

        activations = pre

    total = compute_seconds + communication_seconds
    return HPCQueryResult(
        ranks=ranks,
        latency_seconds=total,
        compute_seconds=compute_seconds,
        communication_seconds=communication_seconds,
        batch_size=batch.shape[1],
    )


def run_endpoint_query(
    cloud: CloudEnvironment,
    model: SparseDNN,
    batch: sparse.spmatrix,
    limits: Optional[EndpointLimits] = None,
    at_time: float = 0.0,
) -> EndpointQueryResult:
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
    # Deliberate semantic change: a zero-sample batch used to divide by its
    # zero per-sample payload (ZeroDivisionError); it now sends no request
    # and returns a zero-work result, like the server and HPC baselines.
    samples_per_request = (
        max(1, int(limits.max_payload_bytes // payload_per_sample)) if samples else 0
    )
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
        sub_batch = batch[:, cursor:stop]
        flops = 0.0
        activations = sub_batch
        for weight, bias in zip(model.weights, model.biases):
            flops += flop_count_spmm(weight, activations) + 2.0 * weight.nnz
            pre = weight @ activations
            pre.data = pre.data + bias
            pre.eliminate_zeros()
            np.maximum(pre.data, 0.0, out=pre.data)
            if model.activation_cap is not None:
                np.minimum(pre.data, model.activation_cap, out=pre.data)
            pre.eliminate_zeros()
            activations = pre
        runtime = limits.max_runtime_seconds + 1 if vcpus <= 0 else (
            latency_model.endpoint_overhead_seconds + latency_model.endpoint_compute(flops, vcpus)
        )
        if runtime > limits.max_runtime_seconds:
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

    if processed == 0 and samples:
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
