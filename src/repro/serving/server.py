"""The event-driven inference server: one cloud, one timeline, a whole day.

The paper's sporadic-workload argument (Section VI-C, Figure 4) is about
*populations* of queries -- hundreds of mixed-size requests arriving over 24
hours -- yet a single ``FSDInference.infer`` call simulates one query on a
private timeline that starts at ``t=0``.  :class:`InferenceServer` closes
that gap: it replays a :class:`~repro.workloads.SporadicWorkload` arrival
trace through **one shared** :class:`~repro.cloud.CloudEnvironment`, so

* every invocation, message and billing record lands at its true absolute
  time,
* FaaS execution environments stay warm (or expire) according to the real
  gaps between queries,
* admission can bound how many queries run concurrently, delaying excess
  arrivals until a slot frees, and
* the output is both per-query (latency decomposition, cost, cold starts)
  and aggregate (daily :class:`CostReport`, p50/p95/p99 latency, peak
  concurrency).

The scheduler is one event-loop kernel (:meth:`InferenceServer.run_event_loop`)
over one heap carrying three event kinds -- **completion**, **policy tick**,
**arrival**, processed in that order at equal times -- so scheduling policies
(:mod:`repro.serving.policies`) can hold arrivals (batch coalescing) or
adjust the admission limit (queue-depth autoscaling) without touching the
replay mechanics.  Serialized, chaos-resilient and interleaved serving all
run this loop; they differ in two small stages (*dispatch* and
*completion*).  With no policies configured the loop reproduces the original
inline admission loop bit-for-bit.

Invariant: replaying a single query arriving at ``t=0`` on a cold pool is
*exactly* ``FSDInference.infer`` -- same output bytes, latency, cost and
metrics -- so everything validated against the single-query engine transfers
to the serving layer unchanged.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..chaos import ChaosConfig
from ..concurrency import ConcurrencyConfig
from ..cloud import CloudError, CostReport
from ..comm import ChannelStats
from ..telemetry import TelemetryConfig, Tracer
from ..telemetry.export import critical_path as _trace_critical_path
from ..workloads import InferenceQuery, SporadicWorkload
from .backends import QueryOutcome, ServingBackend, split_cost_by_samples
from .policies import SchedulingPolicy

__all__ = [
    "REPLAY_MODES",
    "check_replay_mode",
    "ServingConfig",
    "QueryRecord",
    "ServingReport",
    "InferenceServer",
    "peak_overlap",
]

#: event-kind priorities: at equal virtual times, completions release their
#: slots first, policy ticks (e.g. coalescing-window deadlines) flush next,
#: and only then are new arrivals processed.  This is what makes touching
#: intervals non-overlapping and a zero-second coalescing window equal to no
#: batching.
_COMPLETION, _POLICY_TICK, _ARRIVAL = 0, 1, 2

#: every value ``replay_mode`` accepts (``ServingConfig`` and ``Campaign``).
REPLAY_MODES = ("exact", "auto", "columnar")


def check_replay_mode(replay_mode: str) -> None:
    """Raise the typed error naming the field for an unknown ``replay_mode``."""
    if replay_mode not in REPLAY_MODES:
        raise ValueError(
            f"replay_mode must be one of {', '.join(map(repr, REPLAY_MODES))}; "
            f"got {replay_mode!r}"
        )


def peak_overlap(intervals: Iterable[Tuple[float, float]]) -> int:
    """Maximum number of simultaneously active ``(start, end)`` intervals.

    Touching endpoints do not overlap: an interval ending exactly when
    another starts releases its slot first.  Zero-length intervals are
    momentarily active at their instant: they overlap intervals strictly
    containing that instant (and each other when they coincide), but -- by
    the touching rule -- not intervals starting or ending exactly there.
    """
    events: List[Tuple[float, int]] = []
    for start, end in intervals:
        if end > start:
            events.append((start, 1))
            events.append((end, -1))
        else:
            # Zero-length: a marker evaluated between the ends and starts at
            # its timestamp, so it counts as momentarily active.
            events.append((start, 0))
    events.sort(key=lambda event: (event[0], event[1]))
    active = peak = 0
    index = 0
    total = len(events)
    while index < total:
        time = events[index][0]
        while index < total and events[index][0] == time and events[index][1] == -1:
            active -= 1
            index += 1
        momentary = 0
        while index < total and events[index][0] == time and events[index][1] == 0:
            momentary += 1
            index += 1
        if momentary:
            peak = max(peak, active + momentary)
        while index < total and events[index][0] == time and events[index][1] == 1:
            active += 1
            peak = max(peak, active)
            index += 1
    return peak


@dataclass(frozen=True)
class ServingConfig:
    """Admission/scheduling knobs of the serving layer."""

    #: maximum *executions* in flight at once; arrivals beyond it queue until
    #: a running execution completes.  ``None`` admits every arrival
    #: immediately.  A coalesced batch counts as one execution, so
    #: ``peak_concurrent_queries`` (which counts the client-visible queries
    #: inside merged batches individually) may legitimately exceed this
    #: bound when a batching policy is active.  A
    #: :class:`~repro.serving.policies.QueueDepthAutoscaler` policy
    #: supersedes this static bound.
    max_concurrent_queries: Optional[int] = None
    #: scheduling policies consulted by the event loop, in order.  The first
    #: policy to claim an arrival holds it; ``admission_limit`` hooks chain.
    policies: Tuple[SchedulingPolicy, ...] = ()
    #: deterministic fault injection plus the resilience mechanisms answering
    #: it (:class:`~repro.chaos.ChaosConfig`).  ``None`` -- the default --
    #: replays the exact fault-free loop; no injector is ever installed.
    chaos: Optional[ChaosConfig] = None
    #: opt into Tier-A whole-execution outcome memoisation
    #: (:mod:`repro.serving.replaycore`).  Off by default: replayed deltas
    #: are time-translated, which is exact only to ~1e-12 relative, so every
    #: historical fingerprint is produced with the cache off.  Chaos serves
    #: always bypass the cache regardless of this flag.
    outcome_cache: bool = False
    #: replay strategy (:data:`REPLAY_MODES`): ``"exact"`` (the event-loop
    #: kernel, default), ``"auto"`` or ``"columnar"`` (Tier-B numpy fast path
    #: when no policies/chaos/bound are configured, the kernel otherwise).
    replay_mode: str = "exact"
    #: opt-in virtual-timeline tracing (:class:`~repro.telemetry.TelemetryConfig`).
    #: ``None`` -- the default -- installs nothing: every instrumentation
    #: point is a single ``if tracer is not None`` gate, so telemetry-off
    #: replays are byte-identical to the pre-telemetry serving layer.  The
    #: kernel and the columnar fast path emit the same span set.
    telemetry: Optional[TelemetryConfig] = None
    #: opt-in interleaved execution with channel contention modelling
    #: (:class:`~repro.concurrency.ConcurrencyConfig`).  ``None`` -- the
    #: default -- completes every unit at ``admit + latency``; set, it routes
    #: the serve through :func:`repro.concurrency.interleave.interleaved_serve`,
    #: which hands the kernel a fair-share completion stage (byte-identical
    #: to the serialized serve while the contention config stays unbounded).
    #: Mutually exclusive with ``chaos`` and with non-exact ``replay_mode``.
    concurrency: Optional[ConcurrencyConfig] = None

    def __post_init__(self) -> None:
        if self.max_concurrent_queries is not None and self.max_concurrent_queries < 1:
            raise ValueError("max_concurrent_queries must be at least 1 (or None)")
        check_replay_mode(self.replay_mode)
        if self.concurrency is not None:
            if not isinstance(self.concurrency, ConcurrencyConfig):
                raise ValueError(
                    f"concurrency must be a ConcurrencyConfig or None; "
                    f"got {type(self.concurrency).__name__}"
                )
            if self.chaos is not None:
                raise ValueError(
                    "concurrency and chaos are mutually exclusive: the contended "
                    "timeline has no retry/degradation semantics yet (see ROADMAP)"
                )
            if self.replay_mode != "exact":
                raise ValueError(
                    f"concurrency requires replay_mode='exact'; got "
                    f"{self.replay_mode!r} (the vectorized tiers have no "
                    f"contention model)"
                )


@dataclass(frozen=True)
class QueryRecord:
    """Timeline placement and outcome of one replayed query."""

    query_id: int
    neurons: int
    samples: int
    arrival_time: float
    started_at: float
    finished_at: float
    cost: float
    cold_starts: int
    warm_starts: int
    #: all query ids executed in the same merged batch (including this one),
    #: in arrival order; empty when the query executed alone.
    coalesced_group: Tuple[int, ...] = ()
    #: tenant provenance carried over from :class:`InferenceQuery` -- queries
    #: from a :class:`~repro.scenarios.MixtureScenario` keep their tenant tag
    #: through the replay so reports can pivot per tenant.  ``None`` for
    #: untagged (single-tenant) workloads.
    tenant: Optional[str] = None
    #: ``"completed"``, ``"failed"`` (dispatch exhausted its retries) or
    #: ``"shed"`` (dropped before dispatch, e.g. past its deadline).  Always
    #: ``"completed"`` on a chaos-off replay.
    outcome: str = "completed"
    #: dispatch attempts made (1 = first try succeeded; 0 = shed undispatched).
    attempts: int = 1
    #: structured reason for a non-success outcome (error class name or
    #: ``"deadline_exceeded"``); ``None`` when completed.
    failure_reason: Optional[str] = None
    #: extra latency this query absorbed from channel/FaaS contention with
    #: concurrently in-flight queries (interleaved serves only).  Exactly
    #: ``0.0`` on serialized serves and on interleaved serves with an
    #: unbounded contention config, preserving record-level byte-identity.
    interference_seconds: float = 0.0

    @property
    def was_coalesced(self) -> bool:
        return len(self.coalesced_group) > 1

    @property
    def queue_delay_seconds(self) -> float:
        """Time spent waiting for admission before execution began."""
        return self.started_at - self.arrival_time

    @property
    def service_seconds(self) -> float:
        """Execution latency once admitted (the backend's query latency)."""
        return self.finished_at - self.started_at

    @property
    def latency_seconds(self) -> float:
        """End-to-end latency the client observes (queueing + service)."""
        return self.finished_at - self.arrival_time


@dataclass
class ServingReport:
    """Per-query and aggregate results of replaying one workload."""

    backend: str
    config: ServingConfig
    horizon_seconds: float
    records: List[QueryRecord]
    cost: CostReport
    peak_concurrent_queries: int
    peak_concurrent_workers: int
    channel_stats: ChannelStats = field(default_factory=ChannelStats)
    #: per-fault-class injection counts from the chaos injector (empty on a
    #: chaos-off replay).
    fault_counts: Dict[str, int] = field(default_factory=dict)
    #: structured per-query columns when the report came off a fast-path
    #: serve (:class:`~repro.serving.replaycore.ReportColumns`); aggregates
    #: below read the arrays directly instead of materialising records.
    columns: Optional[object] = field(default=None, repr=False, compare=False)
    #: which replay tier produced this report: ``None`` for the event-loop
    #: kernel, ``"columnar"`` for the fast path (never fingerprinted).
    replay_mode: Optional[str] = field(default=None, compare=False)
    #: the :class:`~repro.telemetry.Tracer` that recorded this serve, when
    #: ``ServingConfig(telemetry=...)`` was set; ``None`` otherwise.
    telemetry: Optional[Tracer] = field(default=None, repr=False, compare=False)
    #: contention aggregates from an interleaved serve with a *bounded*
    #: :class:`~repro.concurrency.ContentionConfig` (interference totals plus
    #: per-resource-class utilization/backlog peaks); ``None`` on serialized
    #: serves and on unbounded interleaved serves, so those keep their
    #: historical summary fingerprints byte-for-byte.
    concurrency_stats: Optional[Dict[str, object]] = field(default=None, compare=False)
    #: the fair-share arbiter's host-side work counters
    #: (:meth:`~repro.concurrency.FairShareArbiter.work_counts`) from any
    #: interleaved serve; diagnostics only -- in no summary or fingerprint.
    concurrency_diagnostics: Optional[Dict[str, int]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # sorted-latency memo: (record count, ascending latency array); the
        # count keys invalidation, since records only ever change by length.
        self._latency_memo: Optional[Tuple[int, np.ndarray]] = None

    # -- aggregates -----------------------------------------------------------

    @property
    def num_queries(self) -> int:
        return len(self.records)

    @property
    def total_samples(self) -> int:
        if self.columns is not None:
            return int(self.columns.samples.sum())
        return sum(record.samples for record in self.records)

    @property
    def cold_start_count(self) -> int:
        if self.columns is not None:
            return int(self.columns.cold.sum())
        return sum(record.cold_starts for record in self.records)

    @property
    def warm_start_count(self) -> int:
        if self.columns is not None:
            return int(self.columns.warm.sum())
        return sum(record.warm_starts for record in self.records)

    @property
    def coalesced_query_count(self) -> int:
        """Queries that executed inside a merged batch."""
        if self.columns is not None:
            return 0  # the fast path never runs under a coalescing policy
        return sum(1 for record in self.records if record.was_coalesced)

    @property
    def execution_count(self) -> int:
        """Backend executions performed (merged batches count once)."""
        if self.columns is not None:
            return len(self.records)
        groups = {record.coalesced_group for record in self.records if record.was_coalesced}
        solo = sum(1 for record in self.records if not record.was_coalesced)
        return solo + len(groups)

    @property
    def makespan_seconds(self) -> float:
        """From the first arrival to the last completion."""
        if not self.records:
            return 0.0
        if self.columns is not None:
            return float(self.columns.finished.max() - self.columns.arrival.min())
        first = min(record.arrival_time for record in self.records)
        last = max(record.finished_at for record in self.records)
        return last - first

    def _latency_values(self) -> np.ndarray:
        if self.columns is not None:
            return self.columns.latencies
        return np.asarray([record.latency_seconds for record in self.records])

    def sorted_latencies(self) -> np.ndarray:
        """Ascending end-to-end latencies, memoised across percentile calls.

        The memo is keyed on the record count -- records are append-only
        value objects, so a length match means the distribution is unchanged
        and re-sorting (the old per-call cost) can be skipped safely.
        """
        count = len(self.records)
        memo = self._latency_memo
        if memo is not None and memo[0] == count:
            return memo[1]
        values = np.sort(self._latency_values())
        self._latency_memo = (count, values)
        return values

    def latency_percentile(self, percentile: float) -> float:
        """Latency percentile over all records; ``nan`` for an empty report.

        An empty replay has no latency distribution -- returning ``0.0``
        would be indistinguishable from a real zero-latency fingerprint, so
        callers that may serve empty workloads must handle the ``nan``
        (:meth:`summary` maps it to ``None``).
        """
        if not self.records:
            return float("nan")
        return float(np.percentile(self.sorted_latencies(), percentile))

    @property
    def p50_latency_seconds(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p95_latency_seconds(self) -> float:
        return self.latency_percentile(95.0)

    @property
    def p99_latency_seconds(self) -> float:
        return self.latency_percentile(99.0)

    # -- reliability ----------------------------------------------------------

    @property
    def completed_count(self) -> int:
        if self.columns is not None:
            return len(self.records)  # the fast path only runs chaos-free
        return sum(1 for record in self.records if record.outcome == "completed")

    @property
    def failed_count(self) -> int:
        if self.columns is not None:
            return 0
        return sum(1 for record in self.records if record.outcome == "failed")

    @property
    def shed_count(self) -> int:
        if self.columns is not None:
            return 0
        return sum(1 for record in self.records if record.outcome == "shed")

    def outcome_counts(self) -> Dict[str, int]:
        """Stable completed/shed/failed breakdown (all keys always present)."""
        return {
            "completed": self.completed_count,
            "shed": self.shed_count,
            "failed": self.failed_count,
        }

    @property
    def availability(self) -> Optional[float]:
        """Fraction of queries that completed; ``None`` for an empty replay."""
        if not self.records:
            return None
        return self.completed_count / len(self.records)

    @property
    def goodput_queries_per_hour(self) -> Optional[float]:
        """Completed queries per hour of makespan; ``None`` when degenerate."""
        span = self.makespan_seconds
        if span <= 0:
            return None
        return self.completed_count / (span / 3600.0)

    @property
    def retry_count(self) -> int:
        """Serving-level re-dispatches performed across all queries."""
        if self.columns is not None:
            return 0
        return sum(max(0, record.attempts - 1) for record in self.records)

    def failure_reasons(self) -> Dict[str, int]:
        """Structured reasons of every non-success outcome, with counts."""
        reasons: Dict[str, int] = {}
        for record in self.records:
            if record.failure_reason is not None:
                reasons[record.failure_reason] = reasons.get(record.failure_reason, 0) + 1
        return dict(sorted(reasons.items()))

    def deadline_violation_count(self, deadline_seconds: float) -> int:
        """Queries shed or finishing later than ``deadline_seconds`` after arrival."""
        return sum(
            1
            for record in self.records
            if record.outcome == "shed" or record.latency_seconds > deadline_seconds
        )

    def records_by_neurons(self) -> Dict[int, List[QueryRecord]]:
        grouped: Dict[int, List[QueryRecord]] = {}
        for record in self.records:
            grouped.setdefault(record.neurons, []).append(record)
        return grouped

    def mean_cost_per_query_by_neurons(self) -> Dict[int, float]:
        """Average measured per-query cost per model size (Figure-4 input)."""
        return {
            neurons: sum(record.cost for record in records) / len(records)
            for neurons, records in self.records_by_neurons().items()
        }

    def records_by_tenant(self) -> Dict[Optional[str], List[QueryRecord]]:
        """Records grouped by tenant provenance (``None`` = untagged)."""
        grouped: Dict[Optional[str], List[QueryRecord]] = {}
        for record in self.records:
            grouped.setdefault(record.tenant, []).append(record)
        return grouped

    def by_tenant(self) -> Dict[Optional[str], Dict[str, object]]:
        """Per-tenant pivot: cost, p50/p95 latency and cold-start fraction.

        Mixture scenarios interleave several tenants' arrivals on one
        timeline; this recovers each tenant's aggregate view so per-tenant
        SLOs can be checked against one shared replay.  Untagged queries are
        grouped under ``None``.  Latency percentiles are ``None`` (not a fake
        ``0.0``) when a tenant somehow has no records, mirroring
        :meth:`latency_percentile`.
        """
        pivot: Dict[Optional[str], Dict[str, object]] = {}
        for tenant, records in self.records_by_tenant().items():
            latencies = np.asarray([record.latency_seconds for record in records])
            cold = sum(record.cold_starts for record in records)
            warm = sum(record.warm_starts for record in records)
            starts = cold + warm
            pivot[tenant] = {
                "num_queries": len(records),
                "total_samples": sum(record.samples for record in records),
                "cost_total": sum(record.cost for record in records),
                "p50_latency_seconds": float(np.percentile(latencies, 50.0)) if records else None,
                "p95_latency_seconds": float(np.percentile(latencies, 95.0)) if records else None,
                "cold_start_count": cold,
                "warm_start_count": warm,
                "cold_start_fraction": (cold / starts) if starts else None,
            }
        return pivot

    def summary(self) -> Dict[str, object]:
        """Flat, JSON-friendly aggregate view (benchmark fingerprints).

        With no policies configured the keys and values are identical to the
        pre-policy serving layer; policy runs add a ``"policies"`` tag (and
        coalescing counters) so their fingerprints are never mistaken for
        policy-free ones.
        """

        def percentile_or_none(percentile: float) -> Optional[float]:
            value = self.latency_percentile(percentile)
            return None if math.isnan(value) else value

        summary: Dict[str, object] = {
            "backend": self.backend,
            "num_queries": self.num_queries,
            "total_samples": self.total_samples,
            "cost_total": self.cost.total,
            "p50_latency_seconds": percentile_or_none(50.0),
            "p95_latency_seconds": percentile_or_none(95.0),
            "p99_latency_seconds": percentile_or_none(99.0),
            "makespan_seconds": self.makespan_seconds,
            "cold_start_count": self.cold_start_count,
            "warm_start_count": self.warm_start_count,
            "peak_concurrent_queries": self.peak_concurrent_queries,
            "peak_concurrent_workers": self.peak_concurrent_workers,
        }
        if self.config.policies:
            summary["policies"] = [policy.describe() for policy in self.config.policies]
            summary["coalesced_query_count"] = self.coalesced_query_count
            summary["execution_count"] = self.execution_count
        # Tenant pivot only when the workload actually carries tenant tags, so
        # untagged workloads keep their historical fingerprints bit-for-bit.
        if self.columns is not None:
            has_tenants = self.columns.tenants is not None
        else:
            has_tenants = any(record.tenant is not None for record in self.records)
        if has_tenants:
            summary["tenants"] = {
                tenant if tenant is not None else "untagged": view
                for tenant, view in sorted(
                    self.by_tenant().items(), key=lambda item: (item[0] is None, item[0] or "")
                )
            }
        # Outcome breakdown only when some query did not complete (mirrors the
        # tenants-key rule: all-success replays keep historical fingerprints).
        if self.columns is None and any(
            record.outcome != "completed" for record in self.records
        ):
            summary["outcome_counts"] = self.outcome_counts()
        # Reliability block only on chaos-enabled serves.
        if self.config.chaos is not None:
            chaos_summary: Dict[str, object] = {
                "config": self.config.chaos.describe(),
                "availability": self.availability,
                "goodput_queries_per_hour": self.goodput_queries_per_hour,
                "retry_count": self.retry_count,
                "channel_retries": self.channel_stats.retries,
                "outcome_counts": self.outcome_counts(),
                "failure_reasons": self.failure_reasons(),
                "fault_counts": dict(sorted(self.fault_counts.items())),
            }
            deadline = self.config.chaos.deadline_seconds
            if deadline is not None:
                violations = self.deadline_violation_count(deadline)
                chaos_summary["deadline_violation_count"] = violations
                chaos_summary["deadline_violation_rate"] = (
                    violations / len(self.records) if self.records else None
                )
            summary["chaos"] = chaos_summary
        # Contention block only when an interleaved serve actually ran with a
        # bounded contention config -- unbounded interleaved serves add
        # nothing, by the byte-identity contract.
        if self.concurrency_stats is not None:
            summary["concurrency"] = self.concurrency_stats
        # Telemetry digest only on traced serves, so telemetry-off replays
        # keep every historical fingerprint byte-for-byte.
        if self.telemetry is not None:
            summary["telemetry"] = self.telemetry.summary()
        return summary

    def critical_path(self, query_id: int) -> List[Dict[str, object]]:
        """Per-query latency breakdown (queue/attempt/backoff/tail segments).

        Requires the serve to have been traced
        (``ServingConfig(telemetry=...)``); raises :class:`ValueError` when
        no trace was recorded.  Returns ``[]`` for an unknown query id.
        """
        if self.telemetry is None:
            raise ValueError(
                "no trace recorded: serve with ServingConfig(telemetry=TelemetryConfig())"
            )
        return _trace_critical_path(self.telemetry, query_id)


#: what a query that never ran to completion (shed or failed) contributes to
#: its record: no latency, no cost of its own, no starts.
_NO_OUTCOME = QueryOutcome(latency_seconds=0.0, cost=0.0)


@contextmanager
def serve_mounts(
    backend: ServingBackend, config: ServingConfig, horizon_seconds: float, use_cache: bool
) -> Iterator[tuple]:
    """Mount one serve's hooks on ``backend``; unmount them however it ends.

    Yields ``(injector, tracer, serve_span)``, each ``None`` when its feature
    is off.  The tracer is installed before the caller's ``begin()`` so
    setup-phase channel ops are captured too.  Every serve path mounts
    through here, so a serve that raises never leaves a stale injector,
    tracer or cache toggle behind for the backend's next serve.
    """
    injector = tracer = serve_span = None
    try:
        if config.chaos is not None:
            injector = config.chaos.build_injector(horizon_seconds)
            backend.install_chaos(injector, config.chaos.channel_retry)
        if config.telemetry is not None:
            tracer = config.telemetry.build_tracer()
            backend.install_telemetry(tracer)
            serve_span = tracer.begin_span(
                "serve", track="server", start=0.0, backend=backend.name
            )
        if use_cache:
            backend.set_outcome_caching(True)
        yield injector, tracer, serve_span
    finally:
        if use_cache:
            backend.set_outcome_caching(False)
        if injector is not None:
            backend.clear_chaos()
        if tracer is not None:
            backend.clear_telemetry()


def record_query_spans(
    tracer: Tracer,
    serve_span,
    query: InferenceQuery,
    dispatch_at: float,
    solo_end: float,
    result: QueryOutcome,
    outcome: str = "completed",
    attempts: int = 1,
    failure_reason: Optional[str] = None,
    delay: float = 0.0,
) -> None:
    """The one emission site of a query's spans, for every outcome and path.

    A ``query`` span from arrival to ``solo_end + delay``; for a completed
    query an ``attempt`` child over its final dispatch, plus a
    ``contended_wait`` child over the stretch the arbiter added, if any.
    """
    end = solo_end + delay
    extra = {"failure_reason": failure_reason} if outcome == "failed" else {}
    query_span = tracer.record_span(
        "query",
        track="queries",
        start=query.arrival_time,
        end=end,
        parent=serve_span,
        query_id=query.query_id,
        neurons=query.neurons,
        samples=query.samples,
        outcome=outcome,
        attempts=attempts,
        **extra,
    )
    if outcome != "completed":
        return
    tracer.record_span(
        "attempt",
        track="queries",
        start=dispatch_at,
        end=end,
        parent=query_span,
        attempt=attempts,
        cold_starts=result.cold_starts,
        warm_starts=result.warm_starts,
    )
    if delay > 0.0:
        tracer.record_span(
            "contended_wait",
            track="queries",
            start=solo_end,
            end=end,
            parent=query_span,
            interference_seconds=delay,
        )


class InferenceServer:
    """Replays a sporadic workload through a backend on one shared timeline."""

    def __init__(self, backend: ServingBackend, config: Optional[ServingConfig] = None):
        self.backend = backend
        self.config = config or ServingConfig()

    def serve(self, workload: SporadicWorkload) -> ServingReport:
        """Replay every query of ``workload``.

        Two paths: the event-loop kernel, and its columnar specialisation
        (:func:`repro.serving.replaycore.columnar_serve`) when the
        configuration opts in (``replay_mode`` other than ``"exact"``) *and*
        the loop would degenerate to immediate admission -- no policies, no
        chaos, no concurrency bound.  A ``concurrency`` config runs the
        kernel with the interleaver's completion stage.
        """
        config = self.config
        if config.concurrency is not None:
            # Imported lazily so a serialized serve never loads the package
            # (and repro.concurrency stays importable without this module).
            from ..concurrency.interleave import interleaved_serve

            return interleaved_serve(self, workload)
        if (
            config.replay_mode != "exact"
            and config.chaos is None
            and not config.policies
            and config.max_concurrent_queries is None
        ):
            from .replaycore import columnar_serve

            report = columnar_serve(self, workload)
            if report is not None:
                return report
        return self.run_event_loop(workload)

    def run_event_loop(self, workload: SporadicWorkload, completion=None) -> ServingReport:
        """The event-loop kernel: replay ``workload`` off one heap.

        Events (completions, policy ticks, arrivals -- in that order at
        equal times) are drained from one heap.  Arrivals are either claimed
        by a policy (held for a coalescing window) or appended to the
        admission queue; after every event, as many queued units as the
        admission limit allows are dispatched at the current virtual time.
        Admission times are non-decreasing, so the FaaS warm pool observes a
        causally consistent request sequence.  Two stages vary:

        * **dispatch** -- one ``execute_batch`` call, or under
          ``config.chaos`` the shed -> retry -> abort-rollback sequence.
          Whatever faults fire, a unit always ends as records with a
          structured outcome; the loop itself never crashes.
        * **completion** -- with ``completion=None`` a unit releases its
          slot at ``dispatch + latency``, and its records and spans are
          emitted at admit time (the columnar path's span ids depend on it).
          A completion stage (:mod:`repro.concurrency.interleave`) decides
          instead: the kernel runs units through its ``execute(unit,
          at_time)``, pushes the ``(time, payload)`` completion events its
          ``admitted(at, latency)`` returns, hands each payload back to
          ``on_event(payload, now) -> (slot_released, more_events)``, and
          after the loop materialises the records -- still in admission
          order -- with ``finished_at = (dispatch + latency) + delay`` from
          its ``delays()``, one per admitted unit.
        """
        config = self.config
        backend = self.backend
        chaos = config.chaos
        policies = config.policies
        deadline = chaos.deadline_seconds if chaos is not None else None
        # Tier-A outcome memoisation is opt-in, and chaos and contention are
        # its hard boundary: fault injection is time-positional and peers
        # stretch executions mid-flight, so both re-simulate every execution.
        use_cache = config.outcome_cache and chaos is None and completion is None
        execute = backend.execute_batch if completion is None else completion.execute

        events = [
            (query.arrival_time, _ARRIVAL, seq, query)
            for seq, query in enumerate(workload.iter_trace())
        ]
        heapq.heapify(events)
        seq = len(events)
        pending: Deque[Tuple[InferenceQuery, ...]] = deque()
        records: List[QueryRecord] = []
        deferred: List[tuple] = []  # emit() arguments awaiting their unit's delay
        channel_total = ChannelStats()
        in_flight = 0

        def push(when: float, kind: int, payload) -> None:
            nonlocal seq
            heapq.heappush(events, (when, kind, seq, payload))
            seq += 1

        def emit(
            unit, group, started, dispatch_at, outcomes, attempts, aborted_cost, reason, delay
        ) -> None:
            """Materialise one unit's records and spans: every outcome, every path."""
            if outcomes is not None:
                outcome = "completed"
            else:
                outcome = "failed" if attempts else "shed"  # shed: never dispatched
                outcomes = [_NO_OUTCOME] * len(unit)
            # An aborted attempt's bills stay in the ledger; surface them on
            # the records too (partial billing).  ``+ 0.0`` changes no bit.
            shares = split_cost_by_samples(aborted_cost, unit)
            for query, result, share in zip(unit, outcomes, shares):
                solo_end = dispatch_at + result.latency_seconds
                records.append(
                    QueryRecord(
                        query_id=query.query_id,
                        neurons=query.neurons,
                        samples=query.samples,
                        arrival_time=query.arrival_time,
                        started_at=started,
                        finished_at=solo_end + delay,
                        cost=result.cost + share,
                        cold_starts=result.cold_starts,
                        warm_starts=result.warm_starts,
                        coalesced_group=group,
                        tenant=query.tenant,
                        outcome=outcome,
                        attempts=attempts,
                        failure_reason=reason,
                        interference_seconds=delay,
                    )
                )
                if tracer is not None:
                    record_query_spans(
                        tracer,
                        serve_span,
                        query,
                        dispatch_at,
                        solo_end,
                        result,
                        outcome,
                        attempts,
                        reason,
                        delay,
                    )

        def dispatch(unit: Tuple[InferenceQuery, ...], now: float):
            """Run ``unit``: ``(outcomes, dispatched_at, attempts, aborted_cost, reason)``.

            ``outcomes`` is ``None`` (and ``reason`` the error class name)
            when the retries ran out.
            """
            if chaos is None:
                return execute(list(unit), at_time=now), now, 1, 0.0, None
            leader = unit[0]
            retry = chaos.retry
            attempt = 1
            dispatch_at = now
            aborted_cost = 0.0
            while True:
                token = backend.attempt_begin()
                try:
                    outcomes = execute(list(unit), at_time=dispatch_at)
                    return outcomes, dispatch_at, attempt, aborted_cost, None
                except CloudError as caught:
                    aborted_cost += backend.attempt_abort(token)
                    if tracer is not None:
                        tracer.event(
                            "fault",
                            track="server",
                            t=dispatch_at,
                            query_id=leader.query_id,
                            error=type(caught).__name__,
                            attempt=attempt,
                        )
                    retry_at = None
                    if retry is not None and retry.should_retry(caught, attempt):
                        retry_at = dispatch_at + retry.backoff_seconds(
                            attempt, token=leader.query_id
                        )
                    # Don't re-dispatch past the deadline: the retried query
                    # could never finish in time anyway.
                    if retry_at is None or (
                        deadline is not None and retry_at - leader.arrival_time > deadline
                    ):
                        return None, dispatch_at, attempt, aborted_cost, type(caught).__name__
                    attempt += 1
                    if tracer is not None:
                        tracer.event(
                            "retry",
                            track="server",
                            t=retry_at,
                            query_id=leader.query_id,
                            attempt=attempt,
                        )
                    dispatch_at = retry_at

        def admit(now: float) -> None:
            nonlocal in_flight
            while pending:
                limit = config.max_concurrent_queries
                for policy in policies:
                    limit = policy.admission_limit(
                        limit, queue_depth=len(pending), in_flight=in_flight
                    )
                if limit is not None and in_flight >= limit:
                    break
                unit = pending.popleft()
                group = tuple(query.query_id for query in unit) if len(unit) > 1 else ()
                if deadline is not None and now - unit[0].arrival_time > deadline:
                    # Load shedding: already past its deadline before
                    # dispatch, so drop the unit instead of burning backend
                    # capacity.  A shed unit never takes a slot.
                    if tracer is not None:
                        tracer.event(
                            "shed",
                            track="server",
                            t=now,
                            query_id=unit[0].query_id,
                            reason="deadline_exceeded",
                        )
                    emit(unit, group, now, now, None, 0, 0.0, "deadline_exceeded", 0.0)
                    continue
                outcomes, dispatch_at, attempts, aborted_cost, reason = dispatch(unit, now)
                if tracer is not None and group:
                    tracer.event("coalesced", track="server", t=now, group=list(group))
                # A permanent failure (no outcomes) is recorded with its
                # partial billing and still releases its slot through a
                # completion event, at the time of its last attempt.
                latency = 0.0
                if outcomes is not None:
                    latency = outcomes[0].latency_seconds
                    for outcome in outcomes:
                        if outcome.channel_stats is not None:
                            channel_total.accumulate(outcome.channel_stats)
                args = (unit, group, now, dispatch_at, outcomes, attempts, aborted_cost, reason)
                if completion is None:
                    emit(*args, 0.0)
                    push(dispatch_at + latency, _COMPLETION, None)
                else:
                    deferred.append(args)
                    for when, payload in completion.admitted(dispatch_at, latency):
                        push(when, _COMPLETION, payload)
                in_flight += 1

        mounts = serve_mounts(backend, config, workload.horizon_seconds, use_cache)
        with mounts as (injector, tracer, serve_span):
            backend.begin(workload)
            for policy in policies:
                policy.begin(workload)
            while events:
                now, kind, _, payload = heapq.heappop(events)
                if kind == _ARRIVAL:
                    decision = None
                    for policy in policies:
                        decision = policy.on_arrival(payload, now)
                        if decision is not None:
                            break
                    if decision is None:
                        pending.append((payload,))
                    elif decision.tick_at is not None:
                        push(decision.tick_at, _POLICY_TICK, None)
                elif kind == _COMPLETION:
                    if payload is not None:
                        released, more = completion.on_event(payload, now)
                        for when, item in more:
                            push(when, _COMPLETION, item)
                        if not released:
                            continue  # stale or internal to a unit: no admission change
                    in_flight -= 1
                    for policy in policies:
                        policy.on_completion(
                            now, in_flight=in_flight, queue_depth=len(pending)
                        )
                else:  # policy tick
                    for policy in policies:
                        for unit in policy.on_tick(now):
                            if unit:
                                pending.append(tuple(unit))
                admit(now)
                if tracer is not None:
                    tracer.gauge_sample("server.queue_depth", float(len(pending)), now)
                    tracer.gauge_sample("server.in_flight", float(in_flight), now)
            cost = backend.finish()

        if deferred:
            for args, delay in zip(deferred, completion.delays()):
                emit(*args, delay)
        if tracer is not None:
            tracer.end_span(
                serve_span, max((record.finished_at for record in records), default=0.0)
            )
        return ServingReport(
            backend=backend.name,
            config=config,
            horizon_seconds=workload.horizon_seconds,
            records=records,
            cost=cost,
            peak_concurrent_queries=peak_overlap(
                (record.started_at, record.finished_at) for record in records
            ),
            peak_concurrent_workers=peak_overlap(backend.worker_intervals()),
            channel_stats=channel_total,
            fault_counts=dict(injector.injected_counts) if injector is not None else {},
            telemetry=tracer,
        )
