"""Contention and concurrency configuration for the interleaved engine.

Both configs are frozen and picklable so they can ride through campaign
cells into process-pool executors, exactly like
:class:`~repro.chaos.ChaosConfig`.

Capacities are expressed in *concurrent full-rate transfers*: a resource
with capacity ``c`` serves up to ``c`` overlapping ops at their solo
latency; ``k > c`` overlapping ops each progress at rate ``c/k``
(processor sharing).  ``None`` means infinite capacity -- the arbiter
never stretches anything and the interleaved replay is byte-identical to
the serialized loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Dict, Optional

__all__ = ["ContentionConfig", "ConcurrencyConfig"]

#: resource-key class prefixes understood by :meth:`ContentionConfig.capacity_for`.
#: Channel resources are namespaced per in-flight query
#: (``"queue:q7:fsd-...-q3"``), so channel capacities bind *within* a query's
#: worker tree (logical isolation across queries is preserved); the ``"faas"``
#: resource is platform-global, so the invocation quota binds *across* queries.
RESOURCE_CLASSES = ("queue", "pubsub", "object", "faas")


@dataclass(frozen=True)
class ContentionConfig:
    """Per-class channel capacities plus the platform FaaS invocation quota.

    The default -- every capacity ``None`` -- is the *unbounded* arbiter:
    observationally identical to the serialized loop, adding nothing to any
    summary or fingerprint.
    """

    #: concurrent full-rate transfers per queue (send/receive round-trips).
    queue_capacity: Optional[float] = None
    #: concurrent full-rate publishes per pub/sub topic.
    topic_capacity: Optional[float] = None
    #: concurrent full-rate object transfers per bucket (put/get/list).
    bucket_capacity: Optional[float] = None
    #: platform-wide concurrent-invocation quota shared by *all* in-flight
    #: queries; the one resource that is never namespaced per query.
    faas_invocations: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("queue_capacity", "topic_capacity", "bucket_capacity", "faas_invocations"):
            value = getattr(self, name)
            if value is not None and not (
                isinstance(value, Real) and math.isfinite(value) and value > 0
            ):
                raise ValueError(
                    f"{name} must be a positive finite number (use None for infinite); "
                    f"got {value!r}"
                )

    @property
    def is_bounded(self) -> bool:
        """Whether any capacity is finite (only then can timelines stretch)."""
        return any(
            getattr(self, name) is not None
            for name in ("queue_capacity", "topic_capacity", "bucket_capacity", "faas_invocations")
        )

    def class_capacity(self, resource_class: str) -> Optional[float]:
        """Capacity for a resource class (``"queue"``/``"pubsub"``/``"object"``/``"faas"``)."""
        if resource_class == "queue":
            return self.queue_capacity
        if resource_class == "pubsub":
            return self.topic_capacity
        if resource_class == "object":
            return self.bucket_capacity
        if resource_class == "faas":
            return self.faas_invocations
        return None

    def capacity_for(self, resource: str) -> Optional[float]:
        """Capacity for a namespaced resource key (``"queue:q7:<name>"``)."""
        return self.class_capacity(resource.partition(":")[0])

    def describe(self) -> Dict[str, Optional[float]]:
        """Stable JSON-friendly form (sorted keys, used in summaries)."""
        return {
            "bucket_capacity": self.bucket_capacity,
            "faas_invocations": self.faas_invocations,
            "queue_capacity": self.queue_capacity,
            "topic_capacity": self.topic_capacity,
        }


@dataclass(frozen=True)
class ConcurrencyConfig:
    """Opt into the interleaved execution engine (``ServingConfig.concurrency``).

    Holding the engine's knobs in their own config (rather than flattening
    them into :class:`~repro.serving.ServingConfig`) keeps the gating contract
    one attribute: ``concurrency is None`` selects the serialized loop,
    anything else the interleaver.
    """

    #: the contention model applied to collected channel/FaaS ops.  The
    #: default unbounded config interleaves timelines without ever
    #: stretching one -- byte-identical to the serialized loop.
    contention: ContentionConfig = field(default_factory=ContentionConfig)

    def __post_init__(self) -> None:
        if not isinstance(self.contention, ContentionConfig):
            raise TypeError("contention must be a ContentionConfig")

    def describe(self) -> Dict[str, object]:
        return {"contention": self.contention.describe()}
