"""Tests for the deterministic chaos layer.

Locks the chaos contracts:

1. Fault plans are deterministic: the same seed and process list materialise
   the identical event sequence, and ``describe()`` is a stable identity.
2. Retry policies are pure functions of (policy, attempt, token): backoff
   schedules replay bit-for-bit and retryability follows the error taxonomy
   in :mod:`repro.cloud.errors`.
3. Chaos-off is byte-identical: a serve with ``chaos=None`` and a serve under
   an *empty* fault plan produce equal per-query records, and the chaos-off
   summary carries no chaos or outcome keys.
4. Chaos serves degrade gracefully and deterministically: a fault storm
   yields failed/shed outcomes and reliability metrics (never a crashed
   loop), and two serves under the same config produce identical summaries --
   across campaign thread and process executors too.
5. The campaign chaos axis composes: chaos-free cells keep their historical
   fingerprint payload, chaos cells are tagged, and ``ChaosScenario`` carries
   a config through an unmodified grid.
"""

from __future__ import annotations

import json

import pytest

from repro import (
    BatchCoalescingPolicy,
    Campaign,
    ChaosConfig,
    ChaosScenario,
    CloudEnvironment,
    ColdStartStorm,
    EngineConfig,
    FaultInjector,
    FaultPlan,
    FSDServingBackend,
    FunctionPreemptedError,
    FunctionTimeoutError,
    InferenceServer,
    PoissonFaultProcess,
    PoissonProcess,
    PreemptionWindows,
    QueryWorkloadFactory,
    RetryPolicy,
    Scenario,
    ScheduledFaults,
    ServingConfig,
    TransientServiceError,
    Variant,
    generate_sporadic_workload,
)

HORIZON = 24 * 3600.0


@pytest.fixture(scope="module")
def tiny_model_chaos():
    from repro import GraphChallengeConfig, build_graph_challenge_model

    config = GraphChallengeConfig(
        neurons=64, layers=2, nnz_per_row=4, num_communities=4, seed=7
    )
    return build_graph_challenge_model(config)


def _fsd_backend(tiny_model, variant=Variant.SERIAL, workers=1):
    return FSDServingBackend(
        CloudEnvironment(),
        QueryWorkloadFactory(model_builder=lambda neurons: tiny_model),
        config_for=lambda neurons: EngineConfig(variant=variant, workers=workers),
    )


def _workload(daily_samples=48, seed=17):
    return generate_sporadic_workload(
        daily_samples=daily_samples, batch_size=4, neuron_counts=(64,), seed=seed
    )


def _storm_config(**overrides):
    """A fault storm aggressive enough to produce non-success outcomes."""
    defaults = dict(
        plan=FaultPlan(
            processes=(
                PoissonFaultProcess("queue", rate_per_hour=30.0),
                PreemptionWindows(windows=((4 * 3600.0, 8 * 3600.0),)),
                ColdStartStorm(deploy_times=(12 * 3600.0,)),
            ),
            seed=5,
        ),
        retry=RetryPolicy(max_attempts=3, initial_backoff_seconds=1.0, seed=9),
        channel_retry=RetryPolicy(max_attempts=4, initial_backoff_seconds=0.05, seed=11),
        deadline_seconds=3600.0,
    )
    defaults.update(overrides)
    return ChaosConfig(**defaults)


class TestFaultPlan:
    def test_materialise_is_deterministic(self):
        plan = FaultPlan(
            processes=(
                PoissonFaultProcess("queue", rate_per_hour=50.0),
                PoissonFaultProcess("object", rate_per_hour=10.0, resource="fsd-bucket-0"),
                PreemptionWindows(windows=((100.0, 200.0), (900.0, 1000.0))),
            ),
            seed=21,
        )
        first = plan.materialise(HORIZON)
        second = plan.materialise(HORIZON)
        assert first == second
        assert list(first) == sorted(first, key=lambda e: (e.time, e.kind, e.service or "", e.resource or ""))
        assert all(0.0 <= event.time <= HORIZON for event in first if event.kind == "transient")

    def test_seed_changes_the_draw(self):
        processes = (PoissonFaultProcess("queue", rate_per_hour=50.0),)
        a = FaultPlan(processes=processes, seed=1).materialise(HORIZON)
        b = FaultPlan(processes=processes, seed=2).materialise(HORIZON)
        assert a != b

    def test_scheduled_faults_are_verbatim(self):
        plan = FaultPlan(processes=(ScheduledFaults("pubsub", times=(30.0, 10.0)),))
        events = plan.materialise(HORIZON)
        assert [event.time for event in events] == [10.0, 30.0]
        assert all(event.service == "pubsub" for event in events)

    def test_describe_is_json_stable(self):
        plan = FaultPlan(
            processes=(PreemptionWindows(windows=((1.0, 2.0),)),), seed=3
        )
        assert json.dumps(plan.describe(), sort_keys=True) == json.dumps(
            plan.describe(), sort_keys=True
        )

    def test_bad_windows_rejected(self):
        with pytest.raises(ValueError):
            PreemptionWindows(windows=((5.0, 5.0),))
        with pytest.raises(ValueError):
            PreemptionWindows(windows=((-1.0, 5.0),))


class TestRetryPolicy:
    def test_backoff_schedule_replays(self):
        policy = RetryPolicy(max_attempts=5, initial_backoff_seconds=0.5, seed=3)
        schedule = [policy.backoff_seconds(attempt, token=7) for attempt in (1, 2, 3)]
        assert schedule == [policy.backoff_seconds(a, token=7) for a in (1, 2, 3)]
        # jitter varies by token, but the base geometric shape is preserved
        other = [policy.backoff_seconds(attempt, token=8) for attempt in (1, 2, 3)]
        assert schedule != other

    def test_backoff_is_capped(self):
        policy = RetryPolicy(
            max_attempts=10,
            initial_backoff_seconds=1.0,
            backoff_multiplier=10.0,
            max_backoff_seconds=5.0,
            jitter=0.0,
        )
        assert policy.backoff_seconds(1) == 1.0
        assert policy.backoff_seconds(4) == 5.0

    def test_retryability_follows_error_taxonomy(self):
        policy = RetryPolicy(max_attempts=3)
        transient = TransientServiceError("queue")
        preempted = FunctionPreemptedError("f", 1.0)
        timeout = FunctionTimeoutError("f", 900.0, 1000.0)
        assert policy.should_retry(transient, 1)
        assert policy.should_retry(preempted, 2)
        assert not policy.should_retry(transient, 3)  # attempts exhausted
        assert not policy.should_retry(timeout, 1)  # not retryable
        assert not policy.should_retry(ValueError("nope"), 1)


class TestFaultInjector:
    def test_transient_faults_fire_once_in_order(self):
        plan = FaultPlan(processes=(ScheduledFaults("queue", times=(10.0, 20.0)),))
        injector = FaultInjector(plan, HORIZON)
        injector.check("queue", "send", "q-0", now=5.0)  # nothing due yet
        with pytest.raises(TransientServiceError):
            injector.check("queue", "send", "q-0", now=12.0)
        with pytest.raises(TransientServiceError):
            injector.check("queue", "receive", "q-1", now=25.0)
        injector.check("queue", "send", "q-0", now=30.0)  # both consumed
        assert injector.injected_counts == {"transient_queue": 2}
        assert injector.total_injected == 2

    def test_resource_scoped_faults_skip_other_resources(self):
        plan = FaultPlan(
            processes=(ScheduledFaults("object", times=(10.0,), resource="bucket-3"),)
        )
        injector = FaultInjector(plan, HORIZON)
        injector.check("object", "put", "bucket-0", now=20.0)  # not a match
        with pytest.raises(TransientServiceError):
            injector.check("object", "put", "bucket-3", now=20.0)

    def test_preemption_kill_time_clamps_to_window(self):
        plan = FaultPlan(processes=(PreemptionWindows(windows=((100.0, 200.0),)),))
        injector = FaultInjector(plan, HORIZON)
        # invocation spanning the window start is killed at the start
        assert injector.preemption_kill_time("f", 50.0, 300.0) == 100.0
        # invocation starting inside the window is killed where it started
        assert injector.preemption_kill_time("f", 150.0, 300.0) == 150.0
        # invocation entirely outside survives
        assert injector.preemption_kill_time("f", 250.0, 300.0) is None


class TestChaosOffByteIdentity:
    def test_empty_plan_matches_chaos_off_records(self, tiny_model_chaos):
        workload = _workload()
        base = InferenceServer(_fsd_backend(tiny_model_chaos)).serve(workload)
        empty = InferenceServer(
            _fsd_backend(tiny_model_chaos),
            ServingConfig(chaos=ChaosConfig(plan=FaultPlan())),
        ).serve(workload)
        assert base.records == empty.records
        assert base.cost.total == empty.cost.total
        # the empty-plan summary differs only by its (gated) chaos block
        base_summary = base.summary()
        empty_summary = empty.summary()
        assert "chaos" not in base_summary
        assert "outcome_counts" not in base_summary
        chaos_block = empty_summary.pop("chaos")
        assert chaos_block["availability"] == 1.0
        assert chaos_block["fault_counts"] == {}
        assert base_summary == empty_summary

    def test_inert_chaos_config_degenerates_to_plain_dispatch(self, tiny_model_chaos):
        """No faults, no retry, no deadline: the resilient stage IS the plain one.

        Field for field and bit for bit (``==`` would let ``-0.0`` pass for
        ``0.0``), with merged units and a bounded admission queue in play.
        """

        def serve(chaos):
            config = ServingConfig(
                chaos=chaos,
                max_concurrent_queries=1,
                policies=(BatchCoalescingPolicy(window_seconds=1800.0),),
            )
            return InferenceServer(_fsd_backend(tiny_model_chaos), config).serve(_workload())

        def fields(record):
            return {
                name: value.hex() if isinstance(value, float) else value
                for name, value in vars(record).items()
            }

        base = serve(None)
        inert = serve(
            ChaosConfig(plan=FaultPlan(), retry=None, channel_retry=None, deadline_seconds=None)
        )
        assert base.coalesced_query_count > 0
        assert [fields(r) for r in inert.records] == [fields(r) for r in base.records]
        assert inert.cost.total.hex() == base.cost.total.hex()
        assert inert.channel_stats == base.channel_stats

    def test_chaos_off_summary_has_no_reliability_keys(self, tiny_model_chaos):
        report = InferenceServer(_fsd_backend(tiny_model_chaos)).serve(_workload())
        summary = report.summary()
        assert "chaos" not in summary
        assert "outcome_counts" not in summary
        assert all(record.outcome == "completed" for record in report.records)
        assert report.availability == 1.0
        assert report.retry_count == 0


class TestChaosServe:
    @pytest.fixture(scope="class")
    def storm_reports(self, tiny_model_chaos):
        config = ServingConfig(chaos=_storm_config())
        workload = _workload()
        return [
            InferenceServer(_fsd_backend(tiny_model_chaos), config).serve(workload)
            for _ in range(2)
        ]

    def test_storm_degrades_gracefully(self, storm_reports):
        report = storm_reports[0]
        counts = report.outcome_counts()
        assert sum(counts.values()) == len(report.records)
        assert counts["completed"] > 0  # the loop kept serving
        assert counts["failed"] + counts["shed"] > 0  # the storm bit
        assert report.availability is not None and report.availability < 1.0
        assert report.fault_counts  # injections were recorded
        summary = report.summary()
        assert summary["outcome_counts"] == counts
        assert summary["chaos"]["availability"] == report.availability
        assert summary["chaos"]["retry_count"] == report.retry_count

    def test_storm_record_invariants(self, storm_reports):
        for record in storm_reports[0].records:
            assert record.outcome in ("completed", "failed", "shed")
            assert record.cost >= 0.0
            if record.outcome == "shed":
                assert record.attempts == 0
                assert record.failure_reason == "deadline_exceeded"
                assert record.cost == 0.0
            elif record.outcome == "failed":
                assert record.failure_reason is not None
            else:
                assert record.attempts >= 1
                assert record.failure_reason is None

    def test_storm_is_deterministic(self, storm_reports):
        first, second = storm_reports
        assert json.dumps(first.summary(), sort_keys=True, default=str) == json.dumps(
            second.summary(), sort_keys=True, default=str
        )
        assert first.records == second.records

    def test_channel_retries_survive_queue_faults(self, tiny_model_chaos):
        # QUEUE variant actually exercises the pub/sub + queue channel; the
        # channel-level retry policy absorbs a small burst of transient
        # faults (pending faults fire consecutively, so the burst must stay
        # below max_attempts) and every query still completes.
        config = ServingConfig(
            chaos=ChaosConfig(
                plan=FaultPlan(
                    processes=(ScheduledFaults("queue", times=(10.0, 20.0, 30.0)),)
                ),
                channel_retry=RetryPolicy(
                    max_attempts=6, initial_backoff_seconds=0.05, seed=2
                ),
            )
        )
        backend = _fsd_backend(tiny_model_chaos, variant=Variant.QUEUE, workers=2)
        report = InferenceServer(backend, config).serve(_workload(daily_samples=16))
        assert report.availability == 1.0
        assert report.channel_stats.retries == 3
        assert report.fault_counts == {"transient_queue": 3}
        assert report.summary()["chaos"]["channel_retries"] == report.channel_stats.retries


class TestCampaignChaosAxis:
    @pytest.fixture
    def scenario(self):
        return Scenario(
            "poisson",
            PoissonProcess(),
            daily_samples=24,
            batch_size=4,
            neuron_counts=(64,),
            seed=3,
        )

    @pytest.fixture
    def backends(self, tiny_model_chaos):
        def fsd():
            return _fsd_backend(tiny_model_chaos)

        return {"fsd": fsd}

    def test_grid_gains_a_chaos_axis(self, scenario, backends):
        campaign = Campaign(
            [scenario], backends, chaos_sets={"none": None, "storm": _storm_config()}
        )
        labels = [cell.label for cell in campaign.cells()]
        assert labels == ["poisson/fsd/none", "poisson/fsd/none/storm"]
        report = campaign.run(max_workers=1)
        clean = report.cell("poisson", "fsd")
        storm = report.cell("poisson", "fsd", chaos="storm")
        assert "chaos" not in clean.summary
        assert "chaos" in storm.summary
        assert report.chaos_sets == ["none", "storm"]
        assert "chaos_sets" in report.to_dict()

    def test_chaos_free_fingerprint_payload_unchanged(self, scenario, backends):
        # a chaos-free campaign's cells must hash exactly as before the axis
        with_axis = Campaign(
            [scenario], backends, chaos_sets={"none": None, "storm": _storm_config()}
        ).run(max_workers=1)
        without_axis = Campaign([scenario], backends).run(max_workers=1)
        assert (
            with_axis.cell("poisson", "fsd").fingerprint
            == without_axis.cell("poisson", "fsd").fingerprint
        )
        assert "chaos" not in without_axis.cells[0].to_dict()
        assert "chaos_sets" not in without_axis.to_dict()

    def test_chaos_scenario_carries_the_config(self, scenario, backends):
        config = _storm_config()
        wrapped = ChaosScenario(base=scenario, chaos=config)
        assert wrapped.name == "poisson+chaos"
        assert wrapped.describe()["chaos"] == config.describe()
        report = Campaign([wrapped], backends).run(max_workers=1)
        direct = Campaign(
            [scenario], backends, chaos_sets={"storm": config}
        ).run(max_workers=1)
        assert (
            report.cells[0].summary["chaos"]
            == direct.cell("poisson", "fsd", chaos="storm").summary["chaos"]
        )

    def test_executors_agree_under_chaos(self, scenario):
        # picklable spec factories so the same grid ships to worker processes
        from repro.serving.factories import FSDBackendSpec

        campaign = Campaign(
            [scenario],
            {"fsd": FSDBackendSpec(workers=2, layers=2)},
            chaos_sets={"none": None, "storm": _storm_config()},
        )
        thread = campaign.run(max_workers=2, executor="thread")
        process = campaign.run(max_workers=2, executor="process")
        assert [c.fingerprint for c in thread.cells] == [
            c.fingerprint for c in process.cells
        ]

    def test_unknown_chaos_set_rejected(self, scenario, backends):
        campaign = Campaign([scenario], backends)
        from repro import CampaignCell

        with pytest.raises(KeyError):
            campaign.run(cells=[CampaignCell("poisson", "fsd", chaos="storm")])
