"""Virtual-timeline tracer and metrics registry.

Every timestamp recorded here is *simulated* time -- seconds on the
:class:`~repro.cloud.VirtualClock` timeline threaded through the serving
layer as ``at_time`` -- never host wall-clock.  A trace is therefore as
deterministic as the replay that produced it: the same workload, seed and
configuration yield the same span set, byte for byte, whether it was
recorded by the exact event loop or the columnar fast path.

The tracer is mounted behind the same gating pattern the chaos injector
proved out: the serving layer builds one :class:`Tracer` per serve when
``ServingConfig(telemetry=...)`` is set and mounts it as the ``tracer``
hook of the backend's cloud environment (:class:`repro.cloud.ServiceHooks`);
every instrumentation point in the services is a single ``if tracer is not
None`` check, so telemetry-off runs execute the exact same code -- and
produce the exact same clocks, bills and fingerprints -- as before this
package existed.

Vocabulary:

* :class:`Span` -- a named interval ``[start, end]`` on a *track* (one
  track per worker/function/channel in the Chrome export), optionally
  nested under a parent span.  Span ids are sequential, so two replays
  that emit the same spans in the same order agree on every id.
* event -- a zero-duration annotation on a track (retry, fault, channel
  op, coalescing decision).
* :class:`Counter` / :class:`Gauge` -- cumulative and instantaneous
  time-series in the :class:`MetricsRegistry` (queue depth, in-flight
  queries, warm-pool size, cumulative cost).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "TelemetryConfig",
    "Tracer",
    "Span",
    "TraceEvent",
    "Counter",
    "Gauge",
    "MetricsRegistry",
]


@dataclass(frozen=True)
class TelemetryConfig:
    """Opt-in telemetry switch carried by ``ServingConfig(telemetry=...)``.

    Frozen and picklable so campaign cells can carry it across process
    pools, mirroring :class:`repro.chaos.ChaosConfig`.

    ``capture_metrics``
        record counter/gauge time-series (queue depth, warm pool,
        cumulative cost) in addition to spans.
    ``capture_channel_events``
        record one instant event per cloud channel operation (queue
        send/receive, pubsub publish, object put/get, block read/write)
        on the channel's own track.  Counters are kept either way.
    """

    capture_metrics: bool = True
    capture_channel_events: bool = True

    def build_tracer(self) -> "Tracer":
        """A fresh tracer for one serve (never shared between replays)."""
        return Tracer(config=self)

    def describe(self) -> Dict[str, bool]:
        """Stable, JSON-able description (campaign axis provenance)."""
        return {
            "capture_metrics": self.capture_metrics,
            "capture_channel_events": self.capture_channel_events,
        }


@dataclass
class Span:
    """A named simulated-time interval on a track, nested under a parent."""

    span_id: int
    parent_id: Optional[int]
    name: str
    track: str
    start: float
    end: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return 0.0 if self.end is None else self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "track": self.track,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
        }


@dataclass
class TraceEvent:
    """A zero-duration annotation (retry, fault, channel op) on a track."""

    name: str
    track: str
    t: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "track": self.track, "t": self.t, "attrs": dict(self.attrs)}


class Counter:
    """Cumulative metric: ``add`` appends ``(t, running_total)`` samples."""

    __slots__ = ("name", "total", "series")

    def __init__(self, name: str) -> None:
        self.name = name
        self.total = 0.0
        self.series: List[Tuple[float, float]] = []

    def add(self, value: float, t: float) -> None:
        self.total += value
        self.series.append((t, self.total))

    def to_dict(self) -> Dict[str, Any]:
        return {"total": self.total, "series": [list(sample) for sample in self.series]}


class Gauge:
    """Instantaneous metric: ``set`` appends ``(t, value)`` samples."""

    __slots__ = ("name", "value", "series")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.series: List[Tuple[float, float]] = []

    def set(self, value: float, t: float) -> None:
        self.value = value
        self.series.append((t, value))

    def to_dict(self) -> Dict[str, Any]:
        return {"value": self.value, "series": [list(sample) for sample in self.series]}


class MetricsRegistry:
    """Get-or-create registry of counters and gauges.

    When disabled (``TelemetryConfig(capture_metrics=False)``) the running
    totals are still maintained -- they feed ``Tracer.summary()`` -- but no
    per-sample series are kept, bounding memory on million-query replays.
    """

    __slots__ = ("capture_series", "_counters", "_gauges")

    def __init__(self, capture_series: bool = True) -> None:
        self.capture_series = capture_series
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def add(self, name: str, value: float, t: float) -> None:
        counter = self.counter(name)
        if self.capture_series:
            counter.add(value, t)
        else:
            counter.total += value

    def sample(self, name: str, value: float, t: float) -> None:
        gauge = self.gauge(name)
        if self.capture_series:
            gauge.set(value, t)
        else:
            gauge.value = value

    def counters(self) -> List[Counter]:
        return [self._counters[name] for name in sorted(self._counters)]

    def gauges(self) -> List[Gauge]:
        return [self._gauges[name] for name in sorted(self._gauges)]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "counters": {c.name: c.to_dict() for c in self.counters()},
            "gauges": {g.name: g.to_dict() for g in self.gauges()},
        }


class Tracer:
    """Records simulated-time spans, events and metrics for one serve.

    Span ids are assigned sequentially in emission order; because every
    emission site runs on the deterministic replay path, two serves of the
    same workload produce identical traces -- the property
    ``tests/test_telemetry.py`` pins for the exact loop vs the columnar
    fast path.
    """

    __slots__ = ("config", "spans", "events", "metrics", "_next_span_id")

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config if config is not None else TelemetryConfig()
        self.spans: List[Span] = []
        self.events: List[TraceEvent] = []
        self.metrics = MetricsRegistry(capture_series=self.config.capture_metrics)
        self._next_span_id = 1

    # -- spans ----------------------------------------------------------------

    def begin_span(
        self,
        name: str,
        track: str,
        start: float,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span whose end is not yet known (close with ``end_span``)."""
        span = Span(
            span_id=self._next_span_id,
            parent_id=None if parent is None else parent.span_id,
            name=name,
            track=track,
            start=start,
            attrs=attrs,
        )
        self._next_span_id += 1
        self.spans.append(span)
        return span

    def end_span(self, span: Span, end: float, **attrs: Any) -> Span:
        span.end = end
        if attrs:
            span.attrs.update(attrs)
        return span

    def record_span(
        self,
        name: str,
        track: str,
        start: float,
        end: float,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """Record a span whose full interval is already known."""
        span = self.begin_span(name, track, start, parent=parent, **attrs)
        span.end = end
        return span

    # -- events and metrics ---------------------------------------------------

    def event(self, name: str, track: str, t: float, **attrs: Any) -> TraceEvent:
        evt = TraceEvent(name=name, track=track, t=t, attrs=attrs)
        self.events.append(evt)
        return evt

    def channel_op(
        self, service: str, operation: str, resource: str, t: float, **attrs: Any
    ) -> None:
        """One cloud channel operation: a counter bump + an instant event.

        This is the single call every ``if tracer is not None`` gate in the
        cloud services makes, so the per-service instrumentation stays a
        one-liner.
        """
        self.metrics.add(f"cloud.{service}.{operation}", 1.0, t)
        if self.config.capture_channel_events:
            self.events.append(
                TraceEvent(name=operation, track=f"{service}:{resource}", t=t, attrs=attrs)
            )

    def counter_add(self, name: str, value: float, t: float) -> None:
        self.metrics.add(name, value, t)

    def gauge_sample(self, name: str, value: float, t: float) -> None:
        self.metrics.sample(name, value, t)

    # -- views ----------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Compact, deterministic digest for ``ServingReport.summary()``.

        Counter totals are listed in sorted name order so the summary is a
        stable fingerprint payload when telemetry is enabled.
        """
        return {
            "span_count": len(self.spans),
            "event_count": len(self.events),
            "counters": {c.name: c.total for c in self.metrics.counters()},
        }

    def to_dict(self) -> Dict[str, Any]:
        """Full JSON-able trace (the ``repro-trace`` CLI's input format)."""
        return {
            "format": "repro-trace-v1",
            "config": self.config.describe(),
            "spans": [span.to_dict() for span in self.spans],
            "events": [event.to_dict() for event in self.events],
            "metrics": self.metrics.to_dict(),
        }
