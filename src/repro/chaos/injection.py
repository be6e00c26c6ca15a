"""The runtime half of the chaos layer: consuming a materialised fault plan.

A :class:`FaultInjector` is built once per serve from a
:class:`~repro.chaos.FaultPlan` and mounted as the ``injector`` hook of a
:class:`~repro.cloud.CloudEnvironment` (:class:`~repro.cloud.ServiceHooks`).
The cloud services then consult it from their interception points:

* ``check(service, operation, resource, now)`` -- queues, topics, buckets
  and volumes call this after advancing the wire-latency clock; if a
  transient fault for that service is due it is consumed and a retryable
  :class:`~repro.cloud.TransientServiceError` is raised.
* ``on_faas_request(platform, function_name, request_time)`` -- the FaaS
  platform calls this at the top of every invocation request; it flushes
  warm pools for due deploy events, rejects requests landing inside a
  preemption window, and fires due transient FaaS faults.
* ``preemption_kill_time(function_name, started_at, end_time)`` -- asked
  when an invocation finishes; returns the start of the first preemption
  window the invocation ran into (the kill time), or ``None``.

The injector is deliberately *passive*: it never advances clocks or bills
anything itself, so with an empty plan every hook is a no-op and the serve
is identical to a chaos-off run.  Consumption order is driven entirely by
the (deterministic) order of service calls, which makes the injected fault
sequence reproducible across runs and executor kinds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..cloud.errors import FunctionPreemptedError, TransientServiceError
from .faults import FaultEvent, FaultPlan

__all__ = ["FaultInjector"]


class FaultInjector:
    """Consumes a materialised :class:`FaultPlan` as the replay drives time."""

    def __init__(self, plan: FaultPlan, horizon_seconds: float):
        self.plan = plan
        self.horizon_seconds = float(horizon_seconds)
        events = plan.materialise(self.horizon_seconds)
        #: per-service transient events, each paired with a consumed flag.
        self._transient: Dict[str, List[List[object]]] = {}
        #: preemption windows as (start, end, resource-filter event).
        self._windows: List[Tuple[float, float, FaultEvent]] = []
        #: pending deploy (warm-pool flush) times, ascending.
        self._deploys: List[float] = []
        for event in events:
            if event.kind == "transient":
                self._transient.setdefault(event.service or "", []).append([event, False])
            elif event.kind == "preemption":
                self._windows.append((event.time, event.time + event.duration, event))
            elif event.kind == "deploy":
                self._deploys.append(event.time)
            else:
                raise ValueError(f"unknown fault kind {event.kind!r}")
        self._deploy_cursor = 0
        #: how many faults of each class actually fired, for the report.
        self.injected_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # generic transient faults

    def _take_transient(
        self, service: str, resource: Optional[str], now: float
    ) -> Optional[FaultEvent]:
        """Consume the earliest due, unconsumed transient fault, if any."""
        pending = self._transient.get(service)
        if not pending:
            return None
        for entry in pending:
            event, consumed = entry[0], entry[1]
            if consumed:
                continue
            if event.time > now:
                # Events are time-sorted; nothing later can be due either.
                break
            if event.matches_resource(resource):
                entry[1] = True
                return event
        return None

    def check(
        self,
        service: str,
        operation: str,
        resource: Optional[str],
        now: float,
    ) -> None:
        """Raise a :class:`TransientServiceError` if a fault is due for this call."""
        event = self._take_transient(service, resource, now)
        if event is not None:
            self._count(f"transient_{service}")
            raise TransientServiceError(service, operation=operation, resource=resource)

    # ------------------------------------------------------------------
    # FaaS-specific hooks

    def _window_covering(
        self, function_name: str, time: float
    ) -> Optional[Tuple[float, float]]:
        for start, end, event in self._windows:
            if start <= time < end and event.matches_resource(function_name):
                return start, end
        return None

    def on_faas_request(self, platform, function_name: str, request_time: float) -> None:
        """Entry hook for every FaaS invocation request.

        Flushes warm pools for deploys due by ``request_time``, then rejects
        the request if it lands inside a preemption window, then fires any
        due transient FaaS fault.
        """
        while self._deploy_cursor < len(self._deploys) and self._deploys[self._deploy_cursor] <= request_time:
            platform.flush_warm_pools()
            self._deploy_cursor += 1
            self._count("deploy_flush")
        window = self._window_covering(function_name, request_time)
        if window is not None:
            self._count("preemption_reject")
            raise FunctionPreemptedError(function_name, request_time)
        event = self._take_transient("faas", function_name, request_time)
        if event is not None:
            self._count("transient_faas")
            raise TransientServiceError("faas", operation="invoke", resource=function_name)

    def preemption_kill_time(
        self, function_name: str, started_at: float, end_time: float
    ) -> Optional[float]:
        """Kill time if an invocation over ``[started_at, end_time)`` is preempted."""
        kill: Optional[float] = None
        for start, end, event in self._windows:
            if not event.matches_resource(function_name):
                continue
            # A window starting within the run (or already covering its start)
            # kills the invocation at the window start (clamped to the start
            # of the run for invocations admitted exactly at a window edge).
            if start < end_time and end > started_at:
                candidate = max(start, started_at)
                if kill is None or candidate < kill:
                    kill = candidate
        if kill is not None:
            self._count("preemption_kill")
        return kill

    # ------------------------------------------------------------------

    def _count(self, fault_class: str) -> None:
        self.injected_counts[fault_class] = self.injected_counts.get(fault_class, 0) + 1

    @property
    def total_injected(self) -> int:
        return sum(self.injected_counts.values())
