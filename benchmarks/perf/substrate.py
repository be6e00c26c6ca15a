"""The benchmark's own copy of the scaled-cloud substrate.

``benchmarks/common.py`` holds the calibration the six ``BENCH_*.json``
suites share (scaled compute throughputs, the per-size worker-memory table,
the serving grid, the FSD/baseline backend builders).  Later PRs may edit
that file; a benchmark whose inputs drift with it could not compare two
commits.  So the pieces the perf benchmark needs are copied here and depend
only on the public ``repro`` API.  ``test_perf_harness.py`` replays the
12-query quick grid through this copy and asserts it reproduces the latest
quick ``replay.simulated`` block of ``BENCH_serving.json``, so the copy
cannot drift silently either.

Seeds in this module (model 7, canonical batch 11, partitioner 1) are fixed:
``--seed`` drives generated inputs only (see ``workloads.py``).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, Tuple

from repro import (
    CloudEnvironment,
    EndpointServingBackend,
    EngineConfig,
    FSDServingBackend,
    GraphChallengeConfig,
    HPCServingBackend,
    HypergraphPartitioner,
    PartitionPlan,
    QueryWorkloadFactory,
    ServerMode,
    ServerServingBackend,
    SparseDNN,
    Variant,
    build_graph_challenge_model,
    generate_input_batch,
)
from repro.serving.factories import compute_scaled_latency

#: every platform's modelled per-core arithmetic throughput is scaled by this
#: factor so the scaled-down workloads keep the paper's compute-to-
#: communication ratio (same value as ``benchmarks/common.py``).
COMPUTE_SCALE = 0.0005
#: per-worker memory (MB) per scaled neuron count.
SCALED_WORKER_MEMORY = {256: 512, 512: 768, 1024: 1024, 2048: 2048}
#: FaaS runtime overhead assumed for the memory story (Python + numpy/scipy).
MEMORY_OVERHEAD_MB = 118.0

MODEL_SEED = 7
BATCH_SEED = 11
BATCH_DENSITY = 0.25
PARTITIONER_SEED = 1

#: the serving grid: mixed model sizes over a 24 h horizon, queue variant.
SERVING_NEURONS = (256, 512)
SERVING_BATCH = 16
SERVING_LAYERS = 6
SERVING_WORKERS = 4
#: arrival seed of the historical serving trace (the default ``--seed`` maps
#: onto it, see ``workloads.py``).
SERVING_SEED = 29
#: the 12-query quick grid ``BENCH_serving.json`` records on every CI smoke.
QUICK_NEURONS = (256,)
QUICK_BATCH = 8
QUICK_QUERIES = 12


def scaled_latency():
    return compute_scaled_latency(COMPUTE_SCALE)


def scaled_cloud() -> CloudEnvironment:
    """A fresh cloud environment using the scaled compute calibration."""
    return CloudEnvironment(latency=scaled_latency())


def build_model(neurons: int, layers: int) -> SparseDNN:
    return build_graph_challenge_model(
        GraphChallengeConfig(
            neurons=neurons,
            layers=layers,
            nnz_per_row=min(64, max(8, neurons // 32)),
            num_communities=max(16, neurons // 32),
            community_link_fraction=0.93,
            seed=MODEL_SEED,
        )
    )


def build_batch(neurons: int, samples: int, seed: int = BATCH_SEED):
    return generate_input_batch(neurons, samples=samples, density=BATCH_DENSITY, seed=seed)


def engine_config(variant: Variant, workers: int, neurons: int) -> EngineConfig:
    return EngineConfig(
        variant=variant,
        workers=workers,
        worker_memory_mb=SCALED_WORKER_MEMORY.get(neurons),
        memory_overhead_mb=MEMORY_OVERHEAD_MB,
    )


@dataclass
class Prepared:
    """One model size, ready to serve: model, canonical batch and plan."""

    model: SparseDNN
    batch: object
    plan: PartitionPlan


def partition(model: SparseDNN, workers: int) -> PartitionPlan:
    return HypergraphPartitioner(seed=PARTITIONER_SEED).partition(model, workers)


def build_kernels(plan: PartitionPlan) -> None:
    """Force the plan's lazily built per-(layer, worker) compacted kernels."""
    for layer in range(plan.num_layers):
        for worker in range(plan.num_workers):
            plan.layer_kernels(layer, worker)


def prepare_serving(
    neurons: Tuple[int, ...] = SERVING_NEURONS, samples: int = SERVING_BATCH, stage=nullcontext
) -> Dict[int, Prepared]:
    """Models, canonical batches, plans and plan kernels of the serving grid.

    ``stage(name)`` is a context manager the caller may pass to time the
    set-up stages (``Workload.stage``).
    """
    prepared = {}
    for n in neurons:
        with stage("model_build"):
            model = build_model(n, SERVING_LAYERS)
        with stage("batch_gen"):
            batch = build_batch(n, samples)
        with stage("partition"):
            plan = partition(model, SERVING_WORKERS)
        with stage("kernels"):
            build_kernels(plan)
        prepared[n] = Prepared(model=model, batch=batch, plan=plan)
    return prepared


@dataclass(frozen=True)
class _Factory:
    """``QueryWorkloadFactory`` builders over prepared sizes (no closures, so
    campaign backend factories built from it stay named callables)."""

    prepared: Dict[int, Prepared]

    def model_for(self, neurons: int) -> SparseDNN:
        return self.prepared[neurons].model

    def batch_for(self, neurons: int, samples: int):
        batch = self.prepared[neurons].batch
        if samples == batch.shape[1]:
            return batch
        if samples < batch.shape[1]:
            return batch[:, :samples]
        # Tail-absorbing or coalesced queries can exceed the prepared width.
        return build_batch(neurons, samples)

    def config_for(self, neurons: int) -> EngineConfig:
        return engine_config(Variant.QUEUE, SERVING_WORKERS, neurons)

    def plan_for(self, neurons: int, model: SparseDNN) -> PartitionPlan:
        return self.prepared[neurons].plan

    def build(self) -> QueryWorkloadFactory:
        return QueryWorkloadFactory(model_builder=self.model_for, batch_builder=self.batch_for)


@dataclass(frozen=True)
class BackendFactory:
    """Named zero-argument backend factory (the campaign contract: a fresh
    backend owning a private scaled cloud per call)."""

    kind: str
    prepared: Dict[int, Prepared]

    def __call__(self):
        source = _Factory(self.prepared)
        if self.kind == "fsd":
            return FSDServingBackend(
                scaled_cloud(),
                source.build(),
                config_for=source.config_for,
                plan_for=source.plan_for,
            )
        if self.kind == "server-job":
            return ServerServingBackend(scaled_cloud(), ServerMode.JOB_SCOPED, source.build())
        if self.kind == "endpoint":
            return EndpointServingBackend(scaled_cloud(), source.build())
        if self.kind == "hpc-4":
            return HPCServingBackend(4, source.build(), latency=scaled_latency())
        raise ValueError(f"unknown backend kind {self.kind!r}")


def fsd_backend(prepared: Dict[int, Prepared]):
    """The serving benchmarks' FSD backend (fresh scaled cloud per call)."""
    return BackendFactory("fsd", prepared)()
