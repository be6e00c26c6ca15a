"""The six workloads of the host-performance benchmark.

Each workload stresses a different layer of the simulator (the traced shares
are recorded in README.md), so that for every optimisation one workload
exercises its mechanism and another bypasses it.  A workload is a sequence
of *operations* -- one ``infer`` call, one ``serve()`` of a day, one
campaign -- that the runner times one by one in a closed loop (one client,
zero think time) until the run's time budget is spent.

Seed discipline: ``--seed`` drives generated *inputs* only (per-query batch
seeds, arrival/scenario seeds).  Model, canonical-batch and partitioner
seeds are fixed in ``substrate.py``, so two seeds run the same program over
different inputs.  ``DEFAULT_SEED`` reproduces the historical serving trace
seed; ``expected_digests.json`` pins each workload's simulated digest at
that seed.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

import substrate
from repro import (
    BatchCoalescingPolicy,
    BurstyProcess,
    Campaign,
    ConcurrencyConfig,
    ContentionConfig,
    DiurnalProcess,
    FSDInference,
    FlashCrowdProcess,
    InferenceQuery,
    InferenceServer,
    PoissonProcess,
    QueueDepthAutoscaler,
    Scenario,
    ServingConfig,
    SporadicWorkload,
    Variant,
    generate_sporadic_workload,
)

DEFAULT_SEED = substrate.SERVING_SEED


def digest(payload: object) -> str:
    """sha256 of the canonical JSON of simulated results (never host time)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def derive_seed(seed: int, *stream: int) -> int:
    """An independent 32-bit input seed for ``(seed, stream...)``."""
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


@dataclass
class OpOutput:
    """What one timed operation produced; everything here is simulated."""

    queries: int
    #: JSON-able simulated results hashed into the workload's ``sim_digest``.
    sim: object
    #: per-query simulated latencies (seconds) and total simulated cost.
    sim_latencies: List[float] = field(default_factory=list)
    sim_cost: float = 0.0
    coalesced_queries: int = 0
    interfered_queries: int = 0
    #: set by ``check``: why the operation counts as failed, or None.
    failure: Optional[str] = None
    #: kept only until ``check`` ran (engine outputs, serve reports).
    artefact: object = None


class Workload:
    """Base class: set-up stages are timed into ``stage_seconds``."""

    name = ""
    why = ""
    #: ``None``: every operation replays the same inputs, so every
    #: operation's ``sim`` must hash to the workload digest.  ``k``: inputs
    #: are distinct per operation and the digest covers the first ``k``.
    digest_ops: Optional[int] = None

    def __init__(self, seed: int):
        self.seed = seed
        self.stage_seconds: Dict[str, float] = {}

    @contextmanager
    def stage(self, stage: str) -> Iterator[None]:
        """Charge the host time of the ``with`` body to set-up stage ``stage``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + elapsed

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        """One untimed operation that fills lazy caches (part of set-up)."""
        raise NotImplementedError

    def prepare_input(self, index: int) -> object:
        """Generate operation ``index``'s input (outside the timed interval)."""
        return None

    def input_digest(self) -> str:
        """Digest of the seed-generated inputs (needs no ``setup``)."""
        raise NotImplementedError

    def operation(self, index: int, prepared: object) -> OpOutput:
        raise NotImplementedError

    def check(self, index: int, output: OpOutput) -> None:
        """Verify ``output`` (outside the timed interval); sets ``failure``."""
        raise NotImplementedError

    def final_checks(self) -> List[str]:
        """Workload-level checks after the timed phase; returns failure reasons."""
        return []


# -- engine workloads -------------------------------------------------------------


class _EngineWorkload(Workload):
    """``FSDInference.infer`` over a distinct seeded batch per query."""

    NEURONS = 1024
    LAYERS = 8
    SAMPLES = 32
    WORKERS = 8
    variant = Variant.QUEUE
    digest_ops = 4

    def setup(self) -> None:
        with self.stage("model_build"):
            self.model = substrate.build_model(self.NEURONS, self.LAYERS)
        with self.stage("partition"):
            self.plan = substrate.partition(self.model, self.WORKERS)
        with self.stage("kernels"):
            substrate.build_kernels(self.plan)

    def warmup(self) -> None:
        # Stream 1 is reserved for warm-up inputs; operations use stream 0.
        for index in range(2):
            self._infer(self._batch(1, index))

    def _batch(self, stream: int, index: int):
        with self.stage("batch_gen"):
            return substrate.build_batch(
                self.NEURONS, self.SAMPLES, seed=derive_seed(self.seed, stream, index)
            )

    def prepare_input(self, index: int):
        return self._batch(0, index)

    def input_digest(self) -> str:
        batches = [self.prepare_input(index) for index in range(self.digest_ops)]
        return digest(
            [
                hashlib.sha256(
                    batch.indptr.tobytes() + batch.indices.tobytes() + batch.data.tobytes()
                ).hexdigest()
                for batch in batches
            ]
        )

    def _infer(self, batch):
        # Fresh engine + cloud per query: nothing carries over between
        # queries except the process-global memos the workload is about.
        engine = FSDInference(
            substrate.scaled_cloud(),
            substrate.engine_config(self.variant, self.WORKERS, self.NEURONS),
        )
        return engine.infer(self.model, batch, self.plan)

    def operation(self, index: int, prepared) -> OpOutput:
        result = self._infer(prepared)
        return OpOutput(
            queries=1,
            sim=[
                float(result.latency_seconds).hex(),
                float(result.cost.total).hex(),
                int(result.output.nnz),
            ],
            sim_latencies=[result.latency_seconds],
            sim_cost=result.cost.total,
            artefact=(prepared, result),
        )

    def check(self, index: int, output: OpOutput) -> None:
        batch, result = output.artefact
        if not result.matches(self.model.forward(batch)):
            output.failure = "distributed output differs from model.forward"


class EngineQueue(_EngineWorkload):
    name = "engine_queue"
    why = (
        "distinct batch per infer misses the zlib memo, so payload encode/deflate "
        "really runs: the workload where comm.payload dominates (queue channel)"
    )
    variant = Variant.QUEUE


class EngineObject(_EngineWorkload):
    name = "engine_object"
    why = (
        "same batches, model and plan through the object channel: a channel or payload "
        "change that helps one scheme and costs the other splits these two rows"
    )
    variant = Variant.OBJECT


# -- serving workloads ------------------------------------------------------------


def _report_costs(report) -> Tuple[float, float]:
    """(sum of per-query record costs, serve-scoped ledger total)."""
    if report.columns is not None:
        records_total = float(report.columns.cost.sum())
    else:
        records_total = float(sum(record.cost for record in report.records))
    return records_total, float(report.cost.total)


def _report_latencies(report) -> List[float]:
    if report.columns is not None:
        return report.columns.latencies.tolist()
    return [record.latency_seconds for record in report.records]


def _trace_payload(trace: SporadicWorkload) -> list:
    return [
        [query.query_id, float(query.arrival_time).hex(), query.neurons, query.samples]
        for query in trace.queries
    ]


class _ServeWorkload(Workload):
    """One ``InferenceServer.serve`` of the same trace per operation."""

    QUERIES = 0
    WARMUP_QUERIES = 8

    def setup(self) -> None:
        self.prepared = substrate.prepare_serving(stage=self.stage)
        with self.stage("trace_gen"):
            self.trace = self.build_trace()

    def build_trace(self) -> SporadicWorkload:
        return self.poisson_day(self.seed)

    def poisson_day(self, seed: int) -> SporadicWorkload:
        return generate_sporadic_workload(
            daily_samples=self.QUERIES * substrate.SERVING_BATCH,
            batch_size=substrate.SERVING_BATCH,
            neuron_counts=substrate.SERVING_NEURONS,
            seed=seed,
        )

    def input_digest(self) -> str:
        return digest(_trace_payload(self.build_trace()))

    def serving_config(self) -> ServingConfig:
        return ServingConfig()

    def _serve(self, trace: SporadicWorkload, config: Optional[ServingConfig] = None):
        # Fresh backend + private cloud per serve (the campaign contract).
        server = InferenceServer(
            substrate.fsd_backend(self.prepared), config or self.serving_config()
        )
        return server.serve(trace)

    def warmup(self) -> None:
        self._serve(self.trace.head(self.WARMUP_QUERIES))

    def prepare_input(self, index: int) -> SporadicWorkload:
        return self.trace

    def operation(self, index: int, prepared: SporadicWorkload) -> OpOutput:
        report = self._serve(prepared)
        summary = report.summary()
        concurrency = summary.get("concurrency") or {}
        return OpOutput(
            queries=prepared.num_queries,
            sim=summary,
            sim_latencies=_report_latencies(report),
            sim_cost=float(summary["cost_total"]),
            interfered_queries=int(concurrency.get("interfered_query_count", 0)),
            artefact=report,
        )

    def check(self, index: int, output: OpOutput) -> None:
        report = output.artefact
        if report.num_queries != output.queries:
            output.failure = f"completed {report.num_queries} of {output.queries} queries"
            return
        records_total, ledger_total = _report_costs(report)
        if abs(records_total - ledger_total) > 1e-9 * max(abs(ledger_total), 1e-300):
            output.failure = (
                f"record-cost sum {records_total!r} differs from ledger total {ledger_total!r}"
            )


class ServeExact(_ServeWorkload):
    name = "serve_exact"
    why = (
        "a Poisson day through the exact event loop, cache off: canonical batches repeat, "
        "the zlib memo is hot and sparse kernels dominate (the ~30 q/s path)"
    )
    QUERIES = 52


class ServeFast(_ServeWorkload):
    name = "serve_fast"
    why = (
        "a 50k-query day, columnar replay with the outcome cache: replaycore owns the time, "
        "the engine runs only seen-once/claim-pattern executions; engine changes bypass it"
    )
    QUERIES = 50_000
    HEAD_QUERIES = 32
    #: share of the day (its end) whose arrivals ``--seed`` re-draws.
    TAIL_SHARE = 0.05

    def build_trace(self) -> SporadicWorkload:
        # How many executions miss the outcome cache is a chaotic function
        # of the arrival pattern (claim patterns thrash the 8-entry MRU):
        # 28-47 real executions per 50k-query day, each worth ~1300 replayed
        # queries, i.e. +-10 % host time from one seeded day to the next --
        # far above any bound.  A change cascades only forward in time, so
        # the day is the historical seed-29 trace and ``--seed`` re-draws
        # just its last 5 %: inputs differ per seed, host time does not.
        base = self.poisson_day(substrate.SERVING_SEED)
        cut = base.horizon_seconds * (1.0 - self.TAIL_SHARE)
        first_tail = next(i for i, q in enumerate(base.queries) if q.arrival_time >= cut)
        tail = base.queries[first_tail:]
        rng = np.random.default_rng(derive_seed(self.seed, 3))
        arrivals = np.sort(rng.uniform(cut, base.horizon_seconds, size=len(tail)))
        return SporadicWorkload.from_queries(
            base.queries[:first_tail]
            + [replace(q, arrival_time=float(t)) for q, t in zip(tail, arrivals)],
            horizon_seconds=base.horizon_seconds,
        )

    def serving_config(self) -> ServingConfig:
        return ServingConfig(replay_mode="columnar", outcome_cache=True)

    def warmup(self) -> None:
        self._serve(self.trace.head(self.HEAD_QUERIES))

    def final_checks(self) -> List[str]:
        head = self.trace.head(self.HEAD_QUERIES)
        fast = self._serve(head).summary()
        exact = self._serve(head, ServingConfig(replay_mode="exact", outcome_cache=True)).summary()
        if fast != exact:
            keys = sorted(k for k in set(fast) | set(exact) if fast.get(k) != exact.get(k))
            return [f"columnar and exact summaries differ on the head: {keys}"]
        return []


class ServeContended(_ServeWorkload):
    name = "serve_contended"
    why = (
        "a flash crowd under a bounded contention config: the interleaver and the "
        "fair-share arbiter are superlinear in crowd size, so concurrency does the work"
    )
    QUERIES = 156
    SPACING_SECONDS = 0.25
    JITTER_SECONDS = 0.05
    CONTENTION = ContentionConfig(faas_invocations=4.0, queue_capacity=2.0)

    def build_trace(self) -> SporadicWorkload:
        # Fixed spacing, alternating sizes; the seed only jitters arrivals
        # (far below the spacing, so arrival order never changes).
        rng = np.random.default_rng(derive_seed(self.seed, 2))
        jitter = rng.uniform(0.0, self.JITTER_SECONDS, size=self.QUERIES)
        sizes = substrate.SERVING_NEURONS
        return SporadicWorkload(
            queries=[
                InferenceQuery(
                    query_id=i,
                    arrival_time=self.SPACING_SECONDS * i + float(jitter[i]),
                    neurons=sizes[i % len(sizes)],
                    samples=substrate.SERVING_BATCH,
                )
                for i in range(self.QUERIES)
            ]
        )

    def serving_config(self) -> ServingConfig:
        return ServingConfig(concurrency=ConcurrencyConfig(contention=self.CONTENTION))


# -- campaign workload --------------------------------------------------------------


def slo_coalesce_policies():
    """Fresh policy instances per cell (policies are stateful per serve)."""
    return (
        BatchCoalescingPolicy(window_seconds=1800.0, max_hold_seconds=900.0),
        QueueDepthAutoscaler(min_limit=1, max_limit=4, queries_per_slot=2, scale_down_lag_ticks=2),
    )


class CampaignBaselines(Workload):
    name = "campaign_baselines"
    why = (
        "4 scenarios x 3 baseline backends x 2 policy sets, serial: baselines, scenarios, "
        "policies and the event-loop heap at volume; core/comm idle, so engine changes bypass it"
    )
    QUERIES_PER_CELL = 52
    BACKENDS = ("server-job", "endpoint", "hpc-4")

    def build_scenarios(self) -> List[Scenario]:
        shared = dict(
            daily_samples=self.QUERIES_PER_CELL * substrate.SERVING_BATCH,
            batch_size=substrate.SERVING_BATCH,
            neuron_counts=substrate.SERVING_NEURONS,
        )
        # Seed offsets reproduce the historical campaign seeds (29/37/31/41)
        # at the default seed.
        return [
            Scenario("poisson", PoissonProcess(), seed=self.seed, **shared),
            Scenario(
                "bursty",
                BurstyProcess(
                    burst_factor=12.0, mean_quiet_seconds=7200.0, mean_burst_seconds=1200.0
                ),
                seed=self.seed + 8,
                **shared,
            ),
            Scenario("diurnal", DiurnalProcess(night_level=0.05), seed=self.seed + 2, **shared),
            Scenario(
                "flash-crowd",
                FlashCrowdProcess(
                    spike_start_fraction=0.55, spike_duration_fraction=0.02, spike_factor=25.0
                ),
                seed=self.seed + 12,
                **shared,
            ),
        ]

    def input_digest(self) -> str:
        return digest([_trace_payload(scenario.build()) for scenario in self.build_scenarios()])

    def setup(self) -> None:
        self.prepared = substrate.prepare_serving(stage=self.stage)
        with self.stage("trace_gen"):
            self.campaign = Campaign(
                self.build_scenarios(),
                {kind: substrate.BackendFactory(kind, self.prepared) for kind in self.BACKENDS},
                policy_sets={"none": tuple, "slo-coalesce": slo_coalesce_policies},
            )
            self.cells = self.campaign.cells()

    def warmup(self) -> None:
        # One cell per backend fills the per-model flop memos.
        seen = set()
        cells = [
            cell for cell in self.cells if not (cell.backend in seen or seen.add(cell.backend))
        ]
        self.campaign.run(max_workers=1, cells=cells)

    def operation(self, index: int, prepared) -> OpOutput:
        report = self.campaign.run(max_workers=1)
        return OpOutput(
            queries=sum(cell.num_queries for cell in report.cells),
            sim=[[cell.cell.label, cell.fingerprint] for cell in report.cells],
            sim_latencies=[
                cell.p95_latency_seconds
                for cell in report.cells
                if cell.p95_latency_seconds is not None
            ],
            sim_cost=float(sum(cell.summary["cost_total"] for cell in report.cells)),
            coalesced_queries=sum(
                int(cell.summary.get("coalesced_query_count", 0)) for cell in report.cells
            ),
            artefact=report,
        )

    def check(self, index: int, output: OpOutput) -> None:
        report = output.artefact
        if len(report.cells) != len(self.cells):
            output.failure = f"ran {len(report.cells)} of {len(self.cells)} cells"
            return
        for cell in report.cells:
            if cell.num_queries != self.QUERIES_PER_CELL:
                output.failure = (
                    f"cell {cell.cell.label} completed {cell.num_queries} of "
                    f"{self.QUERIES_PER_CELL} queries"
                )
                return


WORKLOADS = {
    cls.name: cls
    for cls in (EngineQueue, EngineObject, ServeExact, ServeFast, ServeContended, CampaignBaselines)
}
