"""Tests for the concurrent-execution engine (interleaved timelines).

Locks the subsystem's four contracts:

1. *Fair-share exactness*: the arbiter implements textbook processor
   sharing -- an op overlapping ``k`` peers on a capacity-``c`` resource
   takes ``k/c`` times its solo latency -- verified against a hand-computed
   two-chain overlap.
2. *Byte-identity*: ``ServingConfig(concurrency=None)`` (the default) and an
   interleaved serve with an unbounded :class:`ContentionConfig` produce
   bit-for-bit identical records, summaries, costs and channel stats.
3. *Determinism*: a bounded interleaved serve is reproducible across runs
   and across campaign thread/process executors.
4. *Loud collisions*: two concurrently in-flight queries sharing a resource
   namespace (duplicate query ids) fail admission with a clear error.
"""

import heapq
import importlib.util
import json
from pathlib import Path

import pytest

from repro import (
    BatchCoalescingPolicy,
    Campaign,
    CloudEnvironment,
    ConcurrencyConfig,
    ContentionConfig,
    EngineConfig,
    FairShareArbiter,
    FSDServingBackend,
    GraphChallengeConfig,
    InferenceQuery,
    InferenceServer,
    PoissonProcess,
    QueryWorkloadFactory,
    QueueDepthAutoscaler,
    Scenario,
    ServingConfig,
    SporadicWorkload,
    Variant,
    build_graph_challenge_model,
    generate_sporadic_workload,
)
from repro.chaos import ChaosConfig


@pytest.fixture(scope="module")
def tiny_model():
    config = GraphChallengeConfig(
        neurons=64, layers=2, nnz_per_row=4, num_communities=4, seed=7
    )
    return build_graph_challenge_model(config)


def _queue_backend(model, workers=2):
    factory = QueryWorkloadFactory(model_builder=lambda neurons: model)
    return FSDServingBackend(
        CloudEnvironment(),
        factory,
        config_for=lambda neurons: EngineConfig(variant=Variant.QUEUE, workers=workers),
        warm_keepalive_seconds=900.0,
    )


def _flash_crowd(count=8, spacing=0.01):
    """Near-simultaneous arrivals: the canonical contention workload."""
    return SporadicWorkload(
        queries=[
            InferenceQuery(query_id=i, arrival_time=spacing * i, neurons=64, samples=4)
            for i in range(count)
        ]
    )


def _pump(arbiter, admissions):
    """Drive the arbiter standalone: admissions -> {label: (finish, delay)}.

    ``admissions`` is a list of ``(time, label, ops, latency)``; boundary
    events and admissions share one heap exactly like the serve loop
    (boundary events first at equal times).
    """
    events = []
    seq = 0
    for when, label, ops, latency in admissions:
        heapq.heappush(events, (when, 1, seq, ("admit", label, ops, latency)))
        seq += 1
    labels = {}
    finishes = {}
    while events:
        now, _, _, payload = heapq.heappop(events)
        if payload[0] == "admit":
            _, label, ops, latency = payload
            chain, reschedules = arbiter.admit(ops, now, latency)
            labels[chain.key] = label
        else:
            _, chain, generation = payload
            result = arbiter.on_event(chain, generation, now)
            if result is None:
                continue
            finished, reschedules = result
            if finished:
                finishes[labels[chain.key]] = (chain.finish, chain.delay)
        for when, generation, rechain in reschedules:
            heapq.heappush(events, (when, 0, seq, ("event", rechain, generation)))
            seq += 1
    return finishes


class TestFairShareArbiter:
    def test_two_chain_overlap_hand_computed(self):
        """Capacity 1, two full-span 10 s ops admitted at t=0 and t=5.

        Both share the queue at rate 1/2 from t=5 until the first chain
        finishes: chain A does 5 s solo + 10 s shared (5 s of work) -> 15;
        chain B does 10 s shared (5 s of work) + 5 s solo -> 20.  Each
        absorbs exactly 5 s of interference.
        """
        arbiter = FairShareArbiter(ContentionConfig(queue_capacity=1.0))
        # One shared key: distinct per-query namespaces would not contend.
        ops_a = [("queue:shared", 0.0, 10.0)]
        ops_b = [("queue:shared", 5.0, 15.0)]
        finishes = _pump(
            arbiter,
            [(0.0, "A", ops_a, 10.0), (5.0, "B", ops_b, 10.0)],
        )
        finish_a, delay_a = finishes["A"]
        finish_b, delay_b = finishes["B"]
        assert finish_a == pytest.approx(15.0)
        assert delay_a == pytest.approx(5.0)
        assert finish_b == pytest.approx(20.0)
        assert delay_b == pytest.approx(5.0)

    def test_unbounded_arbiter_is_bitwise_solo(self):
        """No capacity -> every chain finishes at exactly admit + latency."""
        arbiter = FairShareArbiter(ContentionConfig())
        admissions = [
            (0.125, "A", [("queue:shared", 0.125, 3.5), ("faas", 1.0, 7.0)], 7.25),
            (0.375, "B", [("queue:shared", 0.5, 5.0), ("faas", 0.375, 6.0)], 6.125),
            (2.5, "C", [("faas", 2.5, 4.75)], 2.25),
        ]
        finishes = _pump(arbiter, admissions)
        for when, label, _, latency in admissions:
            finish, delay = finishes[label]
            assert finish == when + latency  # bitwise, not approx
            assert delay == 0.0

    def test_capacity_at_load_never_stretches(self):
        """k == c overlapping transfers still run at full rate."""
        arbiter = FairShareArbiter(ContentionConfig(queue_capacity=2.0))
        finishes = _pump(
            arbiter,
            [
                (0.0, "A", [("queue:shared", 0.0, 10.0)], 10.0),
                (5.0, "B", [("queue:shared", 5.0, 15.0)], 10.0),
            ],
        )
        assert finishes["A"] == (10.0, 0.0)
        assert finishes["B"] == (15.0, 0.0)

    def test_faas_quota_binds_across_namespaces(self):
        """'faas' is global: two chains contend even from different queries."""
        arbiter = FairShareArbiter(ContentionConfig(faas_invocations=1.0))
        finishes = _pump(
            arbiter,
            [
                (0.0, "A", [("faas", 0.0, 10.0)], 10.0),
                (0.0, "B", [("faas", 0.0, 10.0)], 10.0),
            ],
        )
        # Perfect overlap at capacity 1: both run at rate 1/2 for 10 s, then
        # the survivor (B) finishes its remaining 5 s of work solo.
        assert finishes["A"][0] == pytest.approx(20.0)
        assert finishes["B"][0] == pytest.approx(20.0)

    def test_admit_rejects_nonpositive_latency(self):
        arbiter = FairShareArbiter(ContentionConfig())
        with pytest.raises(ValueError, match="latency"):
            arbiter.admit([], 0.0, 0.0)


class TestArbiterEconomy:
    """Per-event work follows the shares that moved, not the chains in flight."""

    def test_peer_rerated_only_when_its_share_moves(self):
        """B is advanced at every boundary of A that touches "faas" but
        re-rated only when A's "faas" weight actually changes.

        B holds "faas" for 1000 s.  A (admitted at t=10) starts one
        invocation 10 s in, runs 50 private-queue ops inside it, ends it and
        idles 10 s.  Each of the 100 queue boundaries makes A leave and
        re-enter "faas" at weight 1: B must be advanced there (the float
        sequence is contractual) but its share has not moved.
        """
        arbiter = FairShareArbiter(ContentionConfig(faas_invocations=1.0))
        ops_a = [("faas", 20.0, 130.0)]
        ops_a += [("queue:qA:work", 21.0 + 2 * i, 22.0 + 2 * i) for i in range(50)]
        finishes = _pump(
            arbiter,
            [(0.0, "B", [("faas", 0.0, 1000.0)], 1000.0), (10.0, "A", ops_a, 140.0)],
        )
        # A shares "faas" for its whole 110 s invocation: it takes 220 s.
        assert finishes["A"] == pytest.approx((260.0, 110.0))
        assert arbiter.work_counts() == {
            # A: 102 internal crossings + its finish; B: its finish.
            "events": 104,
            # B's boundary event was superseded when A took and released "faas".
            "stale_events": 2,
            # "faas" start, 100 queue boundaries, "faas" end.
            "peer_advances": 102,
            "peer_rerates": 2,
            "reschedules": 106,
        }

    def test_diagnostics_ride_on_the_report_unfingerprinted(self, tiny_model):
        report = InferenceServer(
            _queue_backend(tiny_model),
            ServingConfig(concurrency=ConcurrencyConfig(contention=BOUNDED)),
        ).serve(_flash_crowd())
        counts = report.concurrency_diagnostics
        assert counts["peer_rerates"] > 0
        assert counts["reschedules"] == counts["events"] + counts["stale_events"]
        assert "events" not in report.summary()["concurrency"]
        assert "concurrency_diagnostics" not in report.summary()
        serialized = InferenceServer(_queue_backend(tiny_model)).serve(_flash_crowd())
        assert serialized.concurrency_diagnostics is None


class TestConfigValidation:
    def test_contention_capacities_must_be_positive(self):
        with pytest.raises(ValueError, match="queue_capacity"):
            ContentionConfig(queue_capacity=0.0)
        with pytest.raises(ValueError, match="faas_invocations"):
            ContentionConfig(faas_invocations=-1.0)
        # Infinite capacity is spelled None: inf would report is_bounded and
        # put "Infinity" into summaries; a str used to die in the comparison.
        for bad in (float("inf"), float("nan"), "4", [4.0]):
            with pytest.raises(ValueError, match="faas_invocations.*None for infinite"):
                ContentionConfig(faas_invocations=bad)
        with pytest.raises(ValueError, match="bucket_capacity"):
            ContentionConfig(bucket_capacity=float("inf"))

    def test_is_bounded(self):
        assert not ContentionConfig().is_bounded
        assert ContentionConfig(bucket_capacity=4.0).is_bounded

    def test_concurrency_excludes_chaos(self):
        from repro import FaultPlan

        with pytest.raises(ValueError, match="mutually exclusive"):
            ServingConfig(
                concurrency=ConcurrencyConfig(), chaos=ChaosConfig(plan=FaultPlan())
            )

    def test_concurrency_requires_exact_replay(self):
        with pytest.raises(ValueError, match="replay_mode"):
            ServingConfig(concurrency=ConcurrencyConfig(), replay_mode="columnar")

    def test_concurrency_must_be_config(self):
        with pytest.raises(ValueError, match="ConcurrencyConfig"):
            ServingConfig(concurrency=ContentionConfig())  # type: ignore[arg-type]


class TestByteIdentity:
    """The gating contract: concurrency off OR unbounded == serialized loop."""

    def test_unbounded_interleave_matches_serialized(self, tiny_model):
        workload = generate_sporadic_workload(
            daily_samples=25 * 4, batch_size=4, neuron_counts=(64,), seed=3
        )
        serialized = InferenceServer(_queue_backend(tiny_model)).serve(workload)
        interleaved = InferenceServer(
            _queue_backend(tiny_model),
            ServingConfig(concurrency=ConcurrencyConfig()),
        ).serve(workload)
        assert interleaved.records == serialized.records
        assert interleaved.summary() == serialized.summary()
        assert interleaved.cost.total == serialized.cost.total
        assert interleaved.cost.by_service == serialized.cost.by_service
        assert interleaved.channel_stats == serialized.channel_stats
        assert interleaved.peak_concurrent_queries == serialized.peak_concurrent_queries
        assert interleaved.peak_concurrent_workers == serialized.peak_concurrent_workers

    def test_unbounded_interleave_with_admission_bound(self, tiny_model):
        """The admission queue drains identically when completions coincide."""
        workload = _flash_crowd(count=6)
        config_serial = ServingConfig(max_concurrent_queries=2)
        config_inter = ServingConfig(
            max_concurrent_queries=2, concurrency=ConcurrencyConfig()
        )
        serialized = InferenceServer(_queue_backend(tiny_model), config_serial).serve(workload)
        interleaved = InferenceServer(_queue_backend(tiny_model), config_inter).serve(workload)
        assert interleaved.records == serialized.records
        assert interleaved.summary() == serialized.summary()

    def test_unbounded_interleave_with_policies(self, tiny_model):
        """Held batches and a moving admission limit drain identically too."""

        def serve(**extra):
            config = ServingConfig(
                policies=(
                    BatchCoalescingPolicy(window_seconds=0.025),
                    QueueDepthAutoscaler(min_limit=1, max_limit=3, queries_per_slot=1),
                ),
                **extra,
            )
            return InferenceServer(_queue_backend(tiny_model), config).serve(
                _flash_crowd(count=12)
            )

        serialized = serve()
        interleaved = serve(concurrency=ConcurrencyConfig())
        assert serialized.coalesced_query_count > 0
        assert serialized.execution_count > 3  # the autoscaler bound queued some units
        assert interleaved.records == serialized.records
        assert interleaved.summary() == serialized.summary()
        assert interleaved.channel_stats == serialized.channel_stats

    def test_unbounded_summary_has_no_concurrency_key(self, tiny_model):
        report = InferenceServer(
            _queue_backend(tiny_model),
            ServingConfig(concurrency=ConcurrencyConfig()),
        ).serve(_flash_crowd(count=3))
        assert "concurrency" not in report.summary()
        assert report.concurrency_stats is None
        assert all(record.interference_seconds == 0.0 for record in report.records)


BOUNDED = ContentionConfig(faas_invocations=2.0, queue_capacity=1.0)


class TestContendedServe:
    def test_flash_crowd_p99_strictly_inflated(self, tiny_model):
        workload = _flash_crowd()
        serialized = InferenceServer(_queue_backend(tiny_model)).serve(workload)
        contended = InferenceServer(
            _queue_backend(tiny_model),
            ServingConfig(concurrency=ConcurrencyConfig(contention=BOUNDED)),
        ).serve(workload)
        assert contended.latency_percentile(99.0) > serialized.latency_percentile(99.0)
        assert all(record.interference_seconds > 0.0 for record in contended.records)

    def test_contended_summary_carries_concurrency_block(self, tiny_model):
        report = InferenceServer(
            _queue_backend(tiny_model),
            ServingConfig(concurrency=ConcurrencyConfig(contention=BOUNDED)),
        ).serve(_flash_crowd())
        block = report.summary()["concurrency"]
        assert block["config"] == {"contention": BOUNDED.describe()}
        assert block["interfered_query_count"] == report.num_queries
        assert block["interference_total_seconds"] > 0.0
        assert block["interference_max_seconds"] >= block["interference_mean_seconds"]
        faas = block["resources"]["faas"]
        assert faas["capacity"] == 2.0
        assert faas["peak_utilization"] > 1.0
        assert faas["peak_backlog"] == faas["peak_weight"] - faas["capacity"]

    def test_contention_costs_and_substrate_untouched(self, tiny_model):
        """Contention stretches the serving timeline, never the bills."""
        workload = _flash_crowd()
        serialized = InferenceServer(_queue_backend(tiny_model)).serve(workload)
        contended = InferenceServer(
            _queue_backend(tiny_model),
            ServingConfig(concurrency=ConcurrencyConfig(contention=BOUNDED)),
        ).serve(workload)
        assert contended.cost.total == serialized.cost.total
        assert contended.cost.by_service == serialized.cost.by_service
        assert contended.channel_stats == serialized.channel_stats
        for before, after in zip(serialized.records, contended.records):
            assert after.cost == before.cost
            assert after.started_at == before.started_at
            assert after.finished_at == before.finished_at + after.interference_seconds

    def test_contended_serve_is_deterministic(self, tiny_model):
        workload = _flash_crowd()
        config = ServingConfig(concurrency=ConcurrencyConfig(contention=BOUNDED))
        first = InferenceServer(_queue_backend(tiny_model), config).serve(workload)
        second = InferenceServer(_queue_backend(tiny_model), config).serve(workload)
        assert first.records == second.records
        assert first.summary() == second.summary()

    def test_contended_telemetry_records_wait_spans(self, tiny_model):
        from repro import TelemetryConfig

        report = InferenceServer(
            _queue_backend(tiny_model),
            ServingConfig(
                concurrency=ConcurrencyConfig(contention=BOUNDED),
                telemetry=TelemetryConfig(),
            ),
        ).serve(_flash_crowd(count=3))
        waits = [
            span for span in report.telemetry.spans if span.name == "contended_wait"
        ]
        assert len(waits) == 3
        for span in waits:
            assert span.end - span.start == pytest.approx(
                span.attrs["interference_seconds"]
            )


class TestNamespaceCollision:
    def test_duplicate_inflight_query_id_raises(self, tiny_model):
        workload = SporadicWorkload(
            queries=[
                InferenceQuery(query_id=7, arrival_time=0.0, neurons=64, samples=4),
                InferenceQuery(query_id=7, arrival_time=0.001, neurons=64, samples=4),
            ]
        )
        server = InferenceServer(
            _queue_backend(tiny_model), ServingConfig(concurrency=ConcurrencyConfig())
        )
        with pytest.raises(ValueError, match="namespace collision"):
            server.serve(workload)

    def test_duplicate_ids_fine_when_not_overlapping(self, tiny_model):
        """Sequential reuse of an id is legal: the namespace was released."""
        workload = SporadicWorkload(
            queries=[
                InferenceQuery(query_id=7, arrival_time=0.0, neurons=64, samples=4),
                InferenceQuery(query_id=7, arrival_time=500.0, neurons=64, samples=4),
            ]
        )
        config = ServingConfig(concurrency=ConcurrencyConfig())
        report = InferenceServer(_queue_backend(tiny_model), config).serve(workload)
        assert report.num_queries == 2


def _campaign(concurrency_sets):
    from repro import FSDBackendSpec

    scenario = Scenario(
        "poisson",
        PoissonProcess(),
        seed=3,
        daily_samples=24,
        batch_size=4,
        neuron_counts=(64,),
        horizon_seconds=600.0,
    )
    return Campaign(
        [scenario],
        backends={"fsd": FSDBackendSpec(variant="queue", workers=2, layers=2, nnz_per_row=4)},
        concurrency_sets=concurrency_sets,
    )


CONTENDED_SETS = {
    "none": None,
    "contended": ConcurrencyConfig(contention=BOUNDED),
}


class TestCampaignAxis:
    def test_axis_crosses_grid_and_tags_identity(self):
        campaign = _campaign(CONTENDED_SETS)
        report = campaign.run(max_workers=1)
        assert [cell.cell.concurrency for cell in report.cells] == ["none", "contended"]
        baseline = report.cell("poisson", "fsd")
        contended = report.cell("poisson", "fsd", concurrency="contended")
        assert contended.cell.label == "poisson/fsd/none/contended"
        assert baseline.fingerprint != contended.fingerprint
        assert "concurrency" in contended.summary
        assert "concurrency" not in baseline.summary
        exported = report.to_dict()
        assert exported["concurrency_sets"] == ["none", "contended"]
        assert "concurrency" in exported["cells"][1]
        assert "concurrency" not in exported["cells"][0]

    def test_thread_and_process_executors_identical(self):
        campaign = _campaign(CONTENDED_SETS)
        serial = campaign.run(max_workers=1)
        threaded = campaign.run(max_workers=2, executor="thread")
        processed = campaign.run(max_workers=2, executor="process")
        fingerprints = [cell.fingerprint for cell in serial.cells]
        assert [cell.fingerprint for cell in threaded.cells] == fingerprints
        assert [cell.fingerprint for cell in processed.cells] == fingerprints

    def test_chaos_and_concurrency_axes_exclusive(self):
        from repro import FaultPlan, FSDBackendSpec

        scenario = Scenario(
            "poisson",
            PoissonProcess(),
            seed=3,
            daily_samples=24,
            batch_size=4,
            neuron_counts=(64,),
            horizon_seconds=600.0,
        )
        with pytest.raises(ValueError, match="unservable"):
            Campaign(
                [scenario],
                backends={"fsd": FSDBackendSpec(variant="serial", layers=2, nnz_per_row=4)},
                chaos_sets={"faulty": ChaosConfig(plan=FaultPlan())},
                concurrency_sets=CONTENDED_SETS,
            )


class TestBenchFingerprintGate:
    """``bench_concurrency.py`` refuses to record a fingerprint that moved."""

    @pytest.fixture(scope="class")
    def bench(self):
        path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_concurrency.py"
        spec = importlib.util.spec_from_file_location("bench_concurrency", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_moved_fingerprint_is_refused_naming_both_hashes(self, bench, tmp_path):
        history = tmp_path / "BENCH_concurrency.json"
        bench.check_fingerprint(history, {"quick": True, "fingerprint": "aaaa"})  # no history yet
        records = [
            {"label": "seed", "quick": True, "fingerprint": "aaaa"},
            {"label": "seed-full", "quick": False, "fingerprint": "bbbb"},
        ]
        history.write_text(json.dumps({"records": records}))
        bench.check_fingerprint(history, {"quick": True, "fingerprint": "aaaa"})
        bench.check_fingerprint(history, {"quick": False, "fingerprint": "bbbb"})
        with pytest.raises(RuntimeError, match="hashes to bbbb .*'seed'.* pinned aaaa"):
            bench.check_fingerprint(history, {"quick": True, "fingerprint": "bbbb"})
