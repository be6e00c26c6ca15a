"""Pins the bytes of recorded telemetry traces.

``TestTelemetryOff`` proves tracing changes no simulated outcome, and the
span-tree tests check the trace's shape; neither pins the trace *content*.
Here three small serves -- telemetry on; chaos plus telemetry; bounded
contention plus telemetry -- each hash their full ``tracer.to_dict()``
(canonical JSON) against a sha256 digest, so a change in where or how the
tracer is mounted on the cloud services cannot silently add, drop or
reorder a span, event or metric sample.
"""

import hashlib
import json

import pytest

from repro import (
    CloudEnvironment,
    ConcurrencyConfig,
    ContentionConfig,
    EngineConfig,
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
    generate_sporadic_workload,
)
from repro.chaos import (
    ChaosConfig,
    ColdStartStorm,
    FaultPlan,
    PoissonFaultProcess,
    PreemptionWindows,
    RetryPolicy,
    ScheduledFaults,
)

#: sha256 of the canonical-JSON trace of each serve below, as recorded
#: before the three per-feature hook holders became one ``ServiceHooks``.
EXPECTED = {
    "telemetry": "3d2b27fc4dfe95f1a4031806507c80223fd3411a69239116a32c115d817bb7bd",
    "chaos": "6d0cab0788bdd5801936b248f13dfec222876da531f1155a6c73feff557bf915",
    "contention": "cf82d8d950c2f8ca87f2d40fdb9e12af14af12a100f00dc139bec4ea58b39613",
}


@pytest.fixture(scope="module")
def tiny_model():
    config = GraphChallengeConfig(
        neurons=64, layers=2, nnz_per_row=4, num_communities=4, seed=7
    )
    return build_graph_challenge_model(config)


def _backend(model, variant):
    return FSDServingBackend(
        CloudEnvironment(),
        QueryWorkloadFactory(model_builder=lambda neurons: model),
        config_for=lambda neurons: EngineConfig(variant=variant, workers=2),
        warm_keepalive_seconds=900.0,
    )


def _day():
    return generate_sporadic_workload(
        daily_samples=12, batch_size=4, neuron_counts=(64,), seed=9
    )


def _flash_crowd(count=6, spacing=0.01):
    return SporadicWorkload(
        queries=[
            InferenceQuery(query_id=i, arrival_time=spacing * i, neurons=64, samples=4)
            for i in range(count)
        ]
    )


def _serves():
    # Transient queue and pub/sub faults, a preemption window over the second
    # query and a deploy storm: channel retries, serve retries, a rejected
    # invocation, a flushed warm pool and one failed query all land in the trace.
    chaos = ChaosConfig(
        plan=FaultPlan(
            processes=(
                ScheduledFaults("queue", times=(10.0, 20.0)),
                PoissonFaultProcess("pubsub", rate_per_hour=2.0),
                PreemptionWindows(windows=((52000.0, 52112.5),)),
                ColdStartStorm(deploy_times=(60000.0,)),
            ),
            seed=3,
        ),
        retry=RetryPolicy(max_attempts=3, initial_backoff_seconds=1.0, seed=9),
        channel_retry=RetryPolicy(max_attempts=6, initial_backoff_seconds=0.05, seed=2),
    )
    contention = ConcurrencyConfig(
        contention=ContentionConfig(faas_invocations=2.0, queue_capacity=1.0)
    )
    traced = TelemetryConfig()
    # The telemetry-only serve runs the object channel, the others the queue
    # channel, so every traced cloud service op appears in at least one trace.
    return {
        "telemetry": (Variant.OBJECT, ServingConfig(telemetry=traced), _day),
        "chaos": (Variant.QUEUE, ServingConfig(telemetry=traced, chaos=chaos), _day),
        "contention": (
            Variant.QUEUE,
            ServingConfig(telemetry=traced, concurrency=contention),
            _flash_crowd,
        ),
    }


def trace_digest(model, name: str) -> str:
    variant, config, workload = _serves()[name]
    report = InferenceServer(_backend(model, variant), config).serve(workload())
    blob = json.dumps(report.telemetry.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_trace_bytes_are_pinned(tiny_model, name):
    assert trace_digest(tiny_model, name) == EXPECTED[name]
