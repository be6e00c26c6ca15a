"""Tests for the virtual-timeline telemetry layer (``repro/telemetry``).

Pins the four contracts the tracer is built on:

1. *Telemetry-off is byte-identical*: ``ServingConfig(telemetry=None)`` (the
   default) produces the exact same records and summary as before the
   telemetry package existed -- no summary key, no fingerprint drift.
2. *Span-tree well-formedness*: serve -> query -> attempt nesting, children
   inside their parent's interval, unique sequential span ids.
3. *Exact/columnar parity*: the columnar fast path records the identical
   span set (ids, names, tracks, intervals, parents) as the exact event
   loop for the workloads where both are valid.
4. *Exports*: the Chrome trace is structurally valid (metadata + complete
   events, microsecond scaling), the critical path decomposes a query's
   latency, and the ``repro-trace`` CLI round-trips a recorded trace.
"""

import json
from dataclasses import replace

import pytest

from repro import (
    BatchCoalescingPolicy,
    ChaosConfig,
    CloudEnvironment,
    ConcurrencyConfig,
    EngineConfig,
    FaultPlan,
    FSDServingBackend,
    GraphChallengeConfig,
    InferenceQuery,
    InferenceServer,
    QueryWorkloadFactory,
    ServingConfig,
    SporadicWorkload,
    TelemetryConfig,
    Variant,
    build_graph_challenge_model,
    chrome_trace,
    generate_sporadic_workload,
    write_chrome_trace,
)
from repro.telemetry.cli import main as cli_main


@pytest.fixture(scope="module")
def tiny_model():
    config = GraphChallengeConfig(
        neurons=64, layers=2, nnz_per_row=4, num_communities=4, seed=7
    )
    return build_graph_challenge_model(config)


def _serial_backend(tiny_model):
    return FSDServingBackend(
        CloudEnvironment(),
        QueryWorkloadFactory(model_builder=lambda neurons: tiny_model),
        config_for=lambda neurons: EngineConfig(variant=Variant.SERIAL, workers=1),
        warm_keepalive_seconds=900.0,
    )


def _workload(daily_samples=10, seed=9):
    return generate_sporadic_workload(
        daily_samples=daily_samples, batch_size=4, neuron_counts=(64,), seed=seed
    )


def _serve(tiny_model, config=None, workload=None):
    workload = workload if workload is not None else _workload()
    server = InferenceServer(_serial_backend(tiny_model), config or ServingConfig())
    return server.serve(workload)


def _span_tuples(tracer):
    """The identity-relevant projection of every span, in emission order."""
    return [
        (s.span_id, s.parent_id, s.name, s.track, s.start, s.end)
        for s in tracer.spans
    ]


class TestTelemetryOff:
    def test_default_config_records_nothing(self, tiny_model):
        report = _serve(tiny_model)
        assert report.telemetry is None
        assert "telemetry" not in report.summary()

    def test_off_and_on_are_byte_identical_apart_from_digest(self, tiny_model):
        off = _serve(tiny_model)
        on = _serve(tiny_model, ServingConfig(telemetry=TelemetryConfig()))

        assert on.telemetry is not None
        off_summary = off.summary()
        on_summary = on.summary()
        digest = on_summary.pop("telemetry")
        assert on_summary == off_summary
        assert digest == on.telemetry.summary()

        # Per-record simulated outcomes are untouched by tracing.
        assert on.records == off.records

    def test_explicit_none_is_the_default(self):
        assert ServingConfig(telemetry=None) == ServingConfig()


class TestSpanTree:
    @pytest.fixture(scope="class")
    def traced(self, tiny_model):
        return _serve(tiny_model, ServingConfig(telemetry=TelemetryConfig()))

    def test_serve_root_span(self, traced):
        tracer = traced.telemetry
        roots = [s for s in tracer.spans if s.parent_id is None]
        serves = [s for s in roots if s.name == "serve"]
        assert len(serves) == 1
        (serve,) = serves
        assert serve.track == "server"
        assert serve.start == 0.0
        assert serve.end == max(r.finished_at for r in traced.records)
        # The only other roots are cloud-side FaaS invocation spans, which
        # live on their function's own track rather than under the server.
        assert all(s.name == "invocation" for s in roots if s is not serve)

    def test_every_query_has_a_span_with_attempt_children(self, traced):
        tracer = traced.telemetry
        by_id = {s.span_id: s for s in tracer.spans}
        queries = [s for s in tracer.spans if s.name == "query"]
        assert len(queries) == len(traced.records)
        assert {s.attrs["query_id"] for s in queries} == {
            r.query_id for r in traced.records
        }
        for query in queries:
            assert by_id[query.parent_id].name == "serve"
            attempts = [
                s
                for s in tracer.spans
                if s.name == "attempt" and s.parent_id == query.span_id
            ]
            assert len(attempts) == query.attrs["attempts"] == 1

    def test_span_ids_sequential_and_intervals_nested(self, traced):
        tracer = traced.telemetry
        assert [s.span_id for s in tracer.spans] == list(
            range(1, len(tracer.spans) + 1)
        )
        by_id = {s.span_id: s for s in tracer.spans}
        for span in tracer.spans:
            assert span.end is not None and span.end >= span.start
            if span.parent_id is not None:
                parent = by_id[span.parent_id]
                assert parent.start <= span.start
                assert span.end <= parent.end

    def test_faas_invocations_traced(self, traced):
        tracer = traced.telemetry
        invocations = [s for s in tracer.spans if s.name == "invocation"]
        assert invocations, "cloud-side FaaS spans should be recorded"
        assert all(s.track.startswith("faas:") for s in invocations)
        counters = traced.telemetry.summary()["counters"]
        assert counters["cloud.faas.invoke"] == len(invocations)


class TestColumnarParity:
    def test_exact_and_columnar_record_the_same_trace(self, tiny_model):
        workload = _workload()
        exact = _serve(
            tiny_model, ServingConfig(telemetry=TelemetryConfig()), workload
        )
        columnar = _serve(
            tiny_model,
            ServingConfig(telemetry=TelemetryConfig(), replay_mode="columnar"),
            workload,
        )
        assert columnar.replay_mode == "columnar" and exact.replay_mode is None
        assert _span_tuples(columnar.telemetry) == _span_tuples(exact.telemetry)
        assert columnar.telemetry.summary() == exact.telemetry.summary()

        exact_dict = exact.telemetry.to_dict()
        columnar_dict = columnar.telemetry.to_dict()
        assert columnar_dict["spans"] == exact_dict["spans"]
        assert columnar_dict["events"] == exact_dict["events"]
        assert (
            columnar_dict["metrics"]["counters"] == exact_dict["metrics"]["counters"]
        )
        # The exact event loop additionally samples its own scheduling gauges
        # (queue depth, in-flight); the columnar path has no loop to observe.
        # Every gauge the cloud services record must still agree.
        exact_cloud_gauges = {
            name: series
            for name, series in exact_dict["metrics"]["gauges"].items()
            if not name.startswith("server.")
        }
        assert columnar_dict["metrics"]["gauges"] == exact_cloud_gauges


class _SecondExecutionRaises(FSDServingBackend):
    def _execute_real(self, query, model, batch, at_time):
        self.executions = getattr(self, "executions", 0) + 1
        if self.executions == 2:
            raise RuntimeError("backend bug on the second execution")
        return super()._execute_real(query, model, batch, at_time)


class TestHooksUnmountWhenAServeRaises:
    """A serve that raises must not leave its hooks mounted on the backend."""

    @pytest.mark.parametrize(
        "config",
        [
            ServingConfig(chaos=ChaosConfig(plan=FaultPlan()), outcome_cache=True),
            ServingConfig(replay_mode="columnar", outcome_cache=True),
            ServingConfig(concurrency=ConcurrencyConfig()),
        ],
        ids=["kernel", "columnar", "interleaved"],
    )
    def test_all_mounts_cleared(self, tiny_model, config):
        backend = _SecondExecutionRaises(
            CloudEnvironment(),
            QueryWorkloadFactory(model_builder=lambda neurons: tiny_model),
            config_for=lambda neurons: EngineConfig(variant=Variant.SERIAL, workers=1),
        )
        server = InferenceServer(backend, replace(config, telemetry=TelemetryConfig()))
        with pytest.raises(RuntimeError, match="second execution"):
            server.serve(_workload())
        hooks = backend.cloud.hooks
        assert (hooks.injector, hooks.channel_retry, hooks.tracer, hooks.arbiter) == (None,) * 4
        assert backend._cache_active is False and backend._cache_sink is None


class TestServiceHooksMount:
    """``ServiceHooks.mounted`` sets named hooks and restores them on exit."""

    def test_mount_restores_previous_values_even_on_error(self):
        hooks = CloudEnvironment().hooks
        with hooks.mounted(tracer="outer"):
            with pytest.raises(RuntimeError):
                with hooks.mounted(tracer="inner", arbiter="collector"):
                    assert (hooks.tracer, hooks.arbiter) == ("inner", "collector")
                    raise RuntimeError("block failed")
            assert (hooks.tracer, hooks.arbiter) == ("outer", None)
        assert hooks.tracer is None

    def test_unknown_hook_name_is_rejected_before_mounting(self):
        hooks = CloudEnvironment().hooks
        with pytest.raises(TypeError, match="tracr"):
            with hooks.mounted(injector="fault", tracr="typo"):
                pass
        assert hooks.injector is None

    def test_every_service_shares_the_environment_mount(self):
        cloud = CloudEnvironment()
        queue = cloud.queues.create_queue("q")
        bucket = cloud.object_storage.create_bucket("b")
        assert queue._hooks is bucket._hooks is cloud.ledger._hooks is cloud.hooks


class TestCoalescedEvent:
    """One ``coalesced`` event per merged unit dispatched, on every loop flavour."""

    @pytest.mark.parametrize(
        "extra",
        [
            {},
            {"chaos": ChaosConfig(plan=FaultPlan())},
            {"concurrency": ConcurrencyConfig()},
        ],
        ids=["plain", "chaos", "interleaved"],
    )
    def test_one_event_per_merged_unit(self, tiny_model, extra):
        workload = SporadicWorkload(
            queries=[
                InferenceQuery(query_id=i, arrival_time=t, neurons=64, samples=4)
                for i, t in enumerate([0.0, 1.0, 2.0, 500.0, 900.0, 901.0])
            ]
        )
        config = ServingConfig(
            policies=(BatchCoalescingPolicy(window_seconds=5.0),),
            telemetry=TelemetryConfig(),
            **extra,
        )
        report = _serve(tiny_model, config, workload)
        events = [e for e in report.telemetry.events if e.name == "coalesced"]
        assert [e.attrs["group"] for e in events] == [[0, 1, 2], [4, 5]]
        for event in events:
            merged = [r for r in report.records if r.query_id in event.attrs["group"]]
            assert {r.coalesced_group for r in merged} == {tuple(event.attrs["group"])}
            assert {r.started_at for r in merged} == {event.t}


class TestExports:
    @pytest.fixture(scope="class")
    def traced(self, tiny_model):
        return _serve(tiny_model, ServingConfig(telemetry=TelemetryConfig()))

    def test_chrome_trace_structure(self, traced):
        trace = traced.telemetry.to_dict()
        chrome = chrome_trace(trace)
        events = chrome["traceEvents"]
        phases = {e["ph"] for e in events}
        assert "M" in phases  # track-name metadata
        assert "X" in phases  # complete spans
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(trace["spans"])
        # Microsecond scaling: match the serve root span exactly.
        serve = next(s for s in trace["spans"] if s["name"] == "serve")
        root = next(e for e in complete if e["name"] == "serve")
        assert root["ts"] == serve["start"] * 1e6
        assert root["dur"] == (serve["end"] - serve["start"]) * 1e6

    def test_write_chrome_trace_round_trips(self, traced, tmp_path):
        path = tmp_path / "serve.trace.json"
        write_chrome_trace(traced.telemetry.to_dict(), path)
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"]

    def test_critical_path_decomposes_latency(self, traced):
        record = traced.records[0]
        segments = traced.critical_path(record.query_id)
        assert segments
        assert segments[0]["start"] == record.arrival_time
        assert segments[-1]["end"] == pytest.approx(record.finished_at)
        for earlier, later in zip(segments, segments[1:]):
            assert later["start"] == pytest.approx(earlier["end"])
        assert all(seg["duration"] >= 0.0 for seg in segments)

    def test_critical_path_unknown_query_is_empty(self, traced):
        assert traced.critical_path(10_000) == []

    def test_critical_path_requires_a_trace(self, tiny_model):
        report = _serve(tiny_model)
        with pytest.raises(ValueError):
            report.critical_path(0)


class TestChaosTrace:
    def test_faults_and_retries_become_events(self, tiny_model):
        from repro import (
            ChaosConfig,
            ColdStartStorm,
            FaultPlan,
            PoissonFaultProcess,
            PreemptionWindows,
            RetryPolicy,
        )

        config = ServingConfig(
            telemetry=TelemetryConfig(),
            chaos=ChaosConfig(
                plan=FaultPlan(
                    processes=(
                        PoissonFaultProcess("queue", rate_per_hour=30.0),
                        PreemptionWindows(windows=((4 * 3600.0, 8 * 3600.0),)),
                        ColdStartStorm(deploy_times=(12 * 3600.0,)),
                    ),
                    seed=5,
                ),
                retry=RetryPolicy(max_attempts=3, initial_backoff_seconds=1.0, seed=9),
                channel_retry=RetryPolicy(
                    max_attempts=4, initial_backoff_seconds=0.05, seed=11
                ),
                deadline_seconds=3600.0,
            ),
        )
        report = _serve(tiny_model, config, _workload(daily_samples=24, seed=17))
        tracer = report.telemetry
        names = {event.name for event in tracer.events}
        assert "fault" in names
        assert "retry" in names
        # Every query span reports its outcome and attempt count.
        for span in tracer.spans:
            if span.name == "query":
                assert span.attrs["outcome"] in ("completed", "failed", "shed")
                assert span.attrs["attempts"] >= 0


class TestCli:
    @pytest.fixture()
    def trace_path(self, tiny_model, tmp_path):
        report = _serve(tiny_model, ServingConfig(telemetry=TelemetryConfig()))
        path = tmp_path / "serve.json"
        path.write_text(json.dumps(report.telemetry.to_dict()))
        return path

    def test_text_summary(self, trace_path, capsys):
        assert cli_main([str(trace_path), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "serve" in out

    def test_chrome_export(self, trace_path, tmp_path, capsys):
        out_path = tmp_path / "out.trace.json"
        assert cli_main([str(trace_path), "--chrome", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["traceEvents"]

    def test_query_critical_path(self, trace_path, capsys):
        trace = json.loads(trace_path.read_text())
        query_id = next(
            s["attrs"]["query_id"] for s in trace["spans"] if s["name"] == "query"
        )
        assert cli_main([str(trace_path), "--query", str(query_id)]) == 0
        assert "critical path" in capsys.readouterr().out

    def test_unknown_query_exits_1(self, trace_path, capsys):
        assert cli_main([str(trace_path), "--query", "10000"]) == 1

    def test_unreadable_trace_exits_2(self, tmp_path, capsys):
        assert cli_main([str(tmp_path / "missing.json")]) == 2
