"""Serving backends: one scheduler, interchangeable execution substrates.

The :class:`~repro.serving.server.InferenceServer` owns the shared timeline
(arrival replay, admission, concurrency bounds); a *backend* owns how a
single admitted query actually executes and what it costs.  Implementations
exist for every system the paper compares in its sporadic-workload analysis
(Section VI-C / Figure 4):

* :class:`FSDServingBackend` -- the FSD-Inference engine on the simulated
  serverless cloud, with per-model engine/plan/staging caches and warm
  execution-environment reuse across queries;
* :class:`ServerServingBackend` -- the Always-On and Job-Scoped EC2
  baselines;
* :class:`EndpointServingBackend` -- the managed serverless endpoint
  (Sage-SL-Inf);
* :class:`HPCServingBackend` -- the on-premise H-SpFF comparison point
  (latency only; the paper reports no cost for it).

Because every backend is driven by the identical scheduler, Figure-4-style
comparisons differ *only* in the execution substrate, never in arrival
handling.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Any, Callable, ContextManager, Dict, List, Optional, Sequence, Tuple

from scipy import sparse

from ..baselines import (
    EndpointLimits,
    ServerMode,
    always_on_daily_cost,
    run_endpoint_query,
    run_hpc_query,
    run_server_query,
)
from ..cloud import CloudEnvironment, CostReport, LatencyModel
from ..comm import ChannelStats
from ..core import EngineConfig, FSDInference
from ..model import SparseDNN
from ..partitioning import HypergraphPartitioner, PartitionPlan, Partitioner
from ..workloads import (
    GraphChallengeConfig,
    InferenceQuery,
    SporadicWorkload,
    build_graph_challenge_model,
    generate_input_batch,
    merge_queries,
)
from .replaycore import OutcomeCacheMixin

__all__ = [
    "QueryWorkloadFactory",
    "QueryOutcome",
    "ServingBackend",
    "FSDServingBackend",
    "ServerServingBackend",
    "EndpointServingBackend",
    "HPCServingBackend",
    "split_batch_outcome",
]


class QueryWorkloadFactory:
    """Resolves an :class:`InferenceQuery` to the model and batch it runs over.

    A sporadic trace only names a neuron count and a sample count per query;
    the factory materialises (and caches) the concrete :class:`SparseDNN` per
    neuron count and the input batch per ``(neurons, samples)`` pair, so a
    day-long replay builds each model exactly once.  Custom builders let the
    benchmarks plug in their pre-built scaled workloads.
    """

    def __init__(
        self,
        model_builder: Optional[Callable[[int], SparseDNN]] = None,
        batch_builder: Optional[Callable[[int, int], sparse.csr_matrix]] = None,
        layers: int = 12,
        nnz_per_row: Optional[int] = None,
        model_seed: int = 7,
        batch_seed: int = 11,
        batch_density: float = 0.25,
    ):
        self._model_builder = model_builder or self._default_model
        self._batch_builder = batch_builder or self._default_batch
        self._layers = layers
        self._nnz_per_row = nnz_per_row
        self._model_seed = model_seed
        self._batch_seed = batch_seed
        self._batch_density = batch_density
        self._models: Dict[int, SparseDNN] = {}
        self._batches: Dict[Tuple[int, int], sparse.csr_matrix] = {}

    def _default_model(self, neurons: int) -> SparseDNN:
        nnz = self._nnz_per_row or min(32, max(8, neurons // 32))
        config = GraphChallengeConfig(
            neurons=neurons,
            layers=self._layers,
            nnz_per_row=nnz,
            num_communities=max(16, neurons // 32),
            seed=self._model_seed,
        )
        return build_graph_challenge_model(config)

    def _default_batch(self, neurons: int, samples: int) -> sparse.csr_matrix:
        return generate_input_batch(
            neurons, samples=samples, density=self._batch_density, seed=self._batch_seed
        )

    def model_for(self, neurons: int) -> SparseDNN:
        if neurons not in self._models:
            self._models[neurons] = self._model_builder(neurons)
        return self._models[neurons]

    def batch_for(self, query: InferenceQuery) -> sparse.csr_matrix:
        key = (query.neurons, query.samples)
        if key not in self._batches:
            self._batches[key] = self._batch_builder(query.neurons, query.samples)
        return self._batches[key]


@dataclass(frozen=True)
class QueryOutcome:
    """What one admitted query produced on a backend."""

    latency_seconds: float
    cost: float
    cold_starts: int = 0
    warm_starts: int = 0
    channel_stats: Optional[ChannelStats] = None
    #: backend-native result object (e.g. :class:`InferenceResult`).
    result: Any = None


def split_cost_by_samples(total: float, queries: Sequence[InferenceQuery]) -> List[float]:
    """Split one unit's cost over its queries, proportionally to sample count.

    The last query absorbs the floating-point remainder, so the shares sum
    exactly to ``total``.
    """
    if total == 0.0:
        return [0.0] * len(queries)
    total_samples = sum(query.samples for query in queries)
    shares: List[float] = []
    remaining = total
    for index, query in enumerate(queries):
        if index == len(queries) - 1:
            share = remaining
        elif total_samples > 0:
            share = total * query.samples / total_samples
        else:
            # Degenerate all-empty batch: split the fixed charges evenly.
            share = total / len(queries)
        remaining -= share
        shares.append(share)
    return shares


def split_batch_outcome(
    outcome: QueryOutcome, queries: Sequence[InferenceQuery]
) -> List[QueryOutcome]:
    """Attribute a merged-batch outcome back onto its constituent queries.

    Every query observes the merged latency (the batch finishes as one
    inference); the cost is split by :func:`split_cost_by_samples`, so the
    per-query costs sum exactly to the batch cost.  Cold/warm starts, channel
    stats and the backend-native result describe the single merged execution,
    so they are attributed once -- to the first query -- to keep report
    aggregates equal to what actually happened on the platform.
    """
    return [
        replace(
            outcome,
            cost=share,
            cold_starts=outcome.cold_starts if index == 0 else 0,
            warm_starts=outcome.warm_starts if index == 0 else 0,
            channel_stats=outcome.channel_stats if index == 0 else None,
            result=outcome.result if index == 0 else None,
        )
        for index, share in enumerate(split_cost_by_samples(outcome.cost, queries))
    ]


class ServingBackend(ABC):
    """Execution substrate driven by the :class:`InferenceServer` scheduler."""

    name: str = "backend"
    factory: QueryWorkloadFactory
    #: True on backends mixing in Tier-A outcome memoisation
    #: (:class:`~repro.serving.replaycore.OutcomeCacheMixin`).
    supports_outcome_cache: bool = False

    def begin(self, workload: SporadicWorkload) -> None:
        """Called once before replay starts (checkpoints, standing bills)."""

    def set_outcome_caching(self, enabled: bool) -> None:
        """Toggle Tier-A outcome memoisation (no-op without the mixin)."""

    def mounted(self, **hooks: Any) -> ContextManager[Any]:
        """Mount ``hooks`` on the backend's cloud environment for a block.

        See :class:`~repro.cloud.ServiceHooks` for the hook names.  A
        substrate-free backend (HPC) has no cloud to mount on; the block
        runs unhooked, and telemetry still traces at the server level.
        """
        cloud = getattr(self, "cloud", None)
        if cloud is None:
            return nullcontext()
        return cloud.hooks.mounted(**hooks)

    def attempt_begin(self) -> Any:
        """Snapshot backend state before a dispatch that may fail mid-flight."""
        cloud = getattr(self, "cloud", None)
        return cloud.billing_checkpoint() if cloud is not None else None

    def attempt_abort(self, token: Any) -> float:
        """Recover after a failed dispatch; returns the cost it billed.

        The aborted attempt's charges stay in the ledger (a preempted
        invocation is still billed up to its kill time); the return value
        lets the scheduler surface that partial billing on the query record.
        """
        cloud = getattr(self, "cloud", None)
        if cloud is None or token is None:
            return 0.0
        return cloud.report_since(token).total

    @abstractmethod
    def _execute(
        self,
        query: InferenceQuery,
        model: SparseDNN,
        batch: sparse.csr_matrix,
        at_time: float,
    ) -> QueryOutcome:
        """Run the resolved ``(model, batch)`` starting at ``at_time``."""

    def execute(self, query: InferenceQuery, at_time: float) -> QueryOutcome:
        """Run ``query`` starting at ``at_time`` on the shared timeline."""
        model = self.factory.model_for(query.neurons)
        batch = self.factory.batch_for(query)
        return self._execute(query, model, batch, at_time)

    def execute_batch(
        self, queries: Sequence[InferenceQuery], at_time: float
    ) -> List[QueryOutcome]:
        """Run several same-model queries as one merged inference.

        The per-query factory batches are stacked along the sample axis
        (batches are ``(neurons, samples)``, so samples concatenate as
        columns), one inference runs over the merged batch, and the outcome
        is split back per query via :func:`split_batch_outcome`.  A
        single-query batch is exactly :meth:`execute`.
        """
        if not queries:
            raise ValueError("execute_batch needs at least one query")
        if len(queries) == 1:
            return [self.execute(queries[0], at_time)]
        merged = merge_queries(queries)
        model = self.factory.model_for(merged.neurons)
        batch = sparse.hstack(
            [self.factory.batch_for(query) for query in queries], format="csr"
        )
        outcome = self._execute(merged, model, batch, at_time)
        return split_batch_outcome(outcome, queries)

    def finish(self) -> CostReport:
        """Called once after replay; returns the cost scoped to this serve."""
        return CostReport()

    def worker_intervals(self) -> List[Tuple[float, float]]:
        """(start, end) spans of backend compute units active during the serve."""
        return []


class FSDServingBackend(OutcomeCacheMixin, ServingBackend):
    """FSD-Inference on the shared simulated cloud.

    Engines, partition plans and staged payloads are cached per neuron
    count, so only the first query of each model size pays planning; the
    FaaS warm pool (time-gated via ``warm_keepalive_seconds``) decides
    cold/warm starts from the actual gaps between invocations.  With the
    outcome cache enabled, whole executions replay from recorded deltas
    when their cold/warm claim pattern reproduces on the live pool
    (``cache_claims``).
    """

    cache_claims = True

    def __init__(
        self,
        cloud: CloudEnvironment,
        factory: Optional[QueryWorkloadFactory] = None,
        config_for: Optional[Callable[[int], EngineConfig]] = None,
        partitioner: Optional[Partitioner] = None,
        plan_for: Optional[Callable[[int, SparseDNN], PartitionPlan]] = None,
        warm_keepalive_seconds: Optional[float] = 900.0,
    ):
        self.cloud = cloud
        self.warm_keepalive_seconds = warm_keepalive_seconds
        self.factory = factory or QueryWorkloadFactory()
        self._config_for = config_for or (lambda neurons: EngineConfig())
        self._partitioner = partitioner or HypergraphPartitioner(seed=1)
        self._plan_for = plan_for
        self._engines: Dict[int, FSDInference] = {}
        self._plans: Dict[int, PartitionPlan] = {}
        self._ledger_checkpoint = 0
        self._records_checkpoint = 0
        self._saved_keepalive: Optional[float] = None
        self.name = "fsd"

    def _engine_for(self, neurons: int) -> FSDInference:
        if neurons not in self._engines:
            self._engines[neurons] = FSDInference(self.cloud, self._config_for(neurons))
        return self._engines[neurons]

    def _plan(self, neurons: int, model: SparseDNN, engine: FSDInference) -> PartitionPlan:
        if neurons not in self._plans:
            if self._plan_for is not None:
                self._plans[neurons] = self._plan_for(neurons, model)
            else:
                self._plans[neurons] = engine.partition(model, self._partitioner)
        return self._plans[neurons]

    def begin(self, workload: SporadicWorkload) -> None:
        self._ledger_checkpoint = self.cloud.billing_checkpoint()
        self._records_checkpoint = len(self.cloud.faas.invocation_records)
        # Opt the platform into time-gated warm reuse for the duration of the
        # serve: on a shared timeline a "warm" start only makes sense if an
        # environment actually sat idle for less than the keepalive.  A
        # keepalive the caller configured on the platform itself wins; the
        # previous setting is restored by :meth:`finish`, so direct
        # single-query ``infer`` calls outside a serve keep the legacy rule.
        self._saved_keepalive = self.cloud.faas.warm_keepalive_seconds
        if self.warm_keepalive_seconds is not None and self._saved_keepalive is None:
            self.cloud.faas.warm_keepalive_seconds = self.warm_keepalive_seconds

    def _execute_real(
        self,
        query: InferenceQuery,
        model: SparseDNN,
        batch: sparse.csr_matrix,
        at_time: float,
    ) -> QueryOutcome:
        engine = self._engine_for(query.neurons)
        if engine.config.variant.is_distributed:
            plan = self._plan(query.neurons, model, engine)
            result = engine.infer(model, batch, plan, at_time=at_time)
        else:
            result = engine.infer(model, batch, at_time=at_time)
        cold = sum(1 for worker in result.metrics.per_worker if worker.cold_start)
        warm = len(result.metrics.per_worker) - cold
        return QueryOutcome(
            latency_seconds=result.latency_seconds,
            cost=result.cost.total,
            cold_starts=cold,
            warm_starts=warm,
            channel_stats=result.channel_stats,
            result=result,
        )

    def attempt_begin(self) -> Any:
        return (self.cloud.billing_checkpoint(), self.cloud.faas.active_invocations)

    def attempt_abort(self, token: Any) -> float:
        """Release resources a crashed dispatch left behind on the engine.

        A dispatch failing mid-query (e.g. a worker invocation preempted
        before its siblings finished) leaves invocations counted as active
        and undelivered messages in the per-worker queues; both would corrupt
        every subsequent dispatch.  Clamp the concurrency count back to the
        pre-dispatch snapshot and purge the queues, then report what the
        attempt billed.
        """
        checkpoint, active_before = token
        self.cloud.faas.abandon_active_invocations(active_before)
        for name in self.cloud.queues.list_queues():
            self.cloud.queues.get_queue(name).purge()
        return self.cloud.report_since(checkpoint).total

    def finish(self) -> CostReport:
        self.cloud.faas.warm_keepalive_seconds = self._saved_keepalive
        return self.cloud.report_since(self._ledger_checkpoint)

    def worker_intervals(self) -> List[Tuple[float, float]]:
        records = self.cloud.faas.invocation_records[self._records_checkpoint:]
        return [(record.started_at, record.finished_at) for record in records]


class ServerServingBackend(OutcomeCacheMixin, ServingBackend):
    """The server baselines behind the shared scheduler.

    Job-scoped mode provisions (and bills) an instance per query; the
    always-on modes bill the standing fleet for the workload horizon once in
    :meth:`begin`, exactly like the paper's flat Figure-4 line.
    """

    def __init__(
        self,
        cloud: CloudEnvironment,
        mode: ServerMode,
        factory: Optional[QueryWorkloadFactory] = None,
        instance_type: Optional[str] = None,
        always_on_instances: int = 2,
    ):
        self.cloud = cloud
        self.mode = mode
        self.factory = factory or QueryWorkloadFactory()
        self.instance_type = instance_type
        self.always_on_instances = always_on_instances
        self._ledger_checkpoint = 0
        self._intervals: List[Tuple[float, float]] = []
        self.name = f"server-{mode.value}"

    def begin(self, workload: SporadicWorkload) -> None:
        self._ledger_checkpoint = self.cloud.billing_checkpoint()
        self._intervals = []
        if self.mode is not ServerMode.JOB_SCOPED:
            fleet_kwargs = {}
            if self.instance_type is not None:
                fleet_kwargs["instance_type"] = self.instance_type
            always_on_daily_cost(
                self.cloud,
                instances=self.always_on_instances,
                hours=workload.horizon_seconds / 3600.0,
                **fleet_kwargs,
            )

    def _on_cached_outcome(self, outcome: QueryOutcome, at_time: float) -> None:
        self._intervals.append((at_time, at_time + outcome.latency_seconds))

    def _execute_real(
        self,
        query: InferenceQuery,
        model: SparseDNN,
        batch: sparse.csr_matrix,
        at_time: float,
    ) -> QueryOutcome:
        result = run_server_query(
            self.cloud, model, batch, self.mode, self.instance_type, at_time=at_time
        )
        self._intervals.append((at_time, at_time + result.latency_seconds))
        # Cold means a fresh instance was actually booted for this query
        # (what run_server_query did), not merely that the model was not hot:
        # always-on-cold fleets reload the model but the instance was already
        # provisioned, so their queries are warm starts.
        cold = 1 if result.provisioned else 0
        return QueryOutcome(
            latency_seconds=result.latency_seconds,
            cost=result.cost,
            cold_starts=cold,
            warm_starts=1 - cold,
            result=result,
        )

    def finish(self) -> CostReport:
        return self.cloud.report_since(self._ledger_checkpoint)

    def worker_intervals(self) -> List[Tuple[float, float]]:
        return list(self._intervals)


class EndpointServingBackend(OutcomeCacheMixin, ServingBackend):
    """The managed serverless endpoint behind the shared scheduler."""

    def __init__(
        self,
        cloud: CloudEnvironment,
        factory: Optional[QueryWorkloadFactory] = None,
        limits: Optional[EndpointLimits] = None,
    ):
        self.cloud = cloud
        self.factory = factory or QueryWorkloadFactory()
        self.limits = limits
        self._ledger_checkpoint = 0
        self._intervals: List[Tuple[float, float]] = []
        self.name = "endpoint"

    def begin(self, workload: SporadicWorkload) -> None:
        self._ledger_checkpoint = self.cloud.billing_checkpoint()
        self._intervals = []

    def _on_cached_outcome(self, outcome: QueryOutcome, at_time: float) -> None:
        self._intervals.append((at_time, at_time + outcome.latency_seconds))

    def _execute_real(
        self,
        query: InferenceQuery,
        model: SparseDNN,
        batch: sparse.csr_matrix,
        at_time: float,
    ) -> QueryOutcome:
        result = run_endpoint_query(self.cloud, model, batch, self.limits, at_time=at_time)
        self._intervals.append((at_time, at_time + result.latency_seconds))
        return QueryOutcome(
            latency_seconds=result.latency_seconds,
            cost=result.cost,
            cold_starts=result.requests,
            result=result,
        )

    def finish(self) -> CostReport:
        return self.cloud.report_since(self._ledger_checkpoint)

    def worker_intervals(self) -> List[Tuple[float, float]]:
        return list(self._intervals)


class HPCServingBackend(OutcomeCacheMixin, ServingBackend):
    """H-SpFF on the shared scheduler (latency only; the paper has no cost).

    The partition plan is looked up on the model (``partition_plan_cache``,
    keyed by the partitioner's type, parameters and the rank count), so
    backends that share a model object -- the cells of a campaign over
    prepared workloads -- partition it once between them.
    """

    def __init__(
        self,
        ranks: int,
        factory: Optional[QueryWorkloadFactory] = None,
        latency: Optional[LatencyModel] = None,
        partitioner: Optional[Partitioner] = None,
    ):
        self.ranks = ranks
        self.factory = factory or QueryWorkloadFactory()
        self.latency = latency
        self._partitioner = partitioner or HypergraphPartitioner(seed=1)
        self._plan_key = self._partitioner.plan_key(ranks)
        self._intervals: List[Tuple[float, float]] = []
        self.name = f"hpc-{ranks}"

    def begin(self, workload: SporadicWorkload) -> None:
        self._intervals = []

    def _on_cached_outcome(self, outcome: QueryOutcome, at_time: float) -> None:
        self._intervals.append((at_time, at_time + outcome.latency_seconds))

    def _execute_real(
        self,
        query: InferenceQuery,
        model: SparseDNN,
        batch: sparse.csr_matrix,
        at_time: float,
    ) -> QueryOutcome:
        plan = None
        if self.ranks > 1:
            plan = model.partition_plan_cache.get(self._plan_key)
            if plan is None:
                # Racing threads build equal plans; either may win the slot.
                plan = self._partitioner.partition(model, self.ranks)
                model.partition_plan_cache[self._plan_key] = plan
        result = run_hpc_query(model, batch, self.ranks, latency=self.latency, plan=plan)
        self._intervals.append((at_time, at_time + result.latency_seconds))
        return QueryOutcome(latency_seconds=result.latency_seconds, cost=0.0, result=result)

    def worker_intervals(self) -> List[Tuple[float, float]]:
        return list(self._intervals)
