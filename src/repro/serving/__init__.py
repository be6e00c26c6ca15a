"""Request-level serving layer: replay sporadic workloads on one shared cloud.

``InferenceServer`` + a ``ServingBackend`` turn the single-query simulator
into a day-scale serving system: arrival traces from
:mod:`repro.workloads.sporadic` replay through one
:class:`~repro.cloud.CloudEnvironment` timeline with warm-environment reuse,
admission control and per-query + aggregate reporting.
"""

from .backends import (
    EndpointServingBackend,
    FSDServingBackend,
    HPCServingBackend,
    QueryOutcome,
    QueryWorkloadFactory,
    ServerServingBackend,
    ServingBackend,
    split_batch_outcome,
)
from .factories import (
    KNOWN_POLICY_KNOBS,
    EndpointBackendSpec,
    FSDBackendSpec,
    HPCBackendSpec,
    PolicySetSpec,
    ServerBackendSpec,
    policies_from_knobs,
)
from .policies import (
    BatchCoalescingPolicy,
    HoldDecision,
    QueueDepthAutoscaler,
    SchedulingPolicy,
)
from .replaycore import (
    LazyRecordList,
    OutcomeCacheMixin,
    ReplayOutcomeCache,
    ReportColumns,
    batch_fingerprint,
    peak_overlap_arrays,
)
from ..concurrency import ConcurrencyConfig, ContentionConfig
from .server import (
    REPLAY_MODES,
    InferenceServer,
    QueryRecord,
    ServingConfig,
    ServingReport,
    peak_overlap,
)

__all__ = [
    "EndpointServingBackend",
    "FSDServingBackend",
    "HPCServingBackend",
    "QueryOutcome",
    "QueryWorkloadFactory",
    "ServerServingBackend",
    "ServingBackend",
    "split_batch_outcome",
    "KNOWN_POLICY_KNOBS",
    "EndpointBackendSpec",
    "FSDBackendSpec",
    "HPCBackendSpec",
    "PolicySetSpec",
    "ServerBackendSpec",
    "policies_from_knobs",
    "BatchCoalescingPolicy",
    "HoldDecision",
    "QueueDepthAutoscaler",
    "SchedulingPolicy",
    "LazyRecordList",
    "OutcomeCacheMixin",
    "ReplayOutcomeCache",
    "ReportColumns",
    "batch_fingerprint",
    "peak_overlap_arrays",
    "ConcurrencyConfig",
    "ContentionConfig",
    "REPLAY_MODES",
    "InferenceServer",
    "QueryRecord",
    "ServingConfig",
    "ServingReport",
    "peak_overlap",
]
