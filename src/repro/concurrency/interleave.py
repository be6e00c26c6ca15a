"""Interleaved serving: overlapping queries on one contended timeline.

This is the concurrency engine's integration point with the serving layer.
It owns no event loop: :func:`interleaved_serve` hands the serving kernel
(:meth:`repro.serving.InferenceServer.run_event_loop`) a *completion stage*,
so heap, event kinds, policy hooks and admission semantics are the
serialized serve's.  Instead of finishing each admitted unit at ``now +
latency`` unconditionally, the stage

1. lets the kernel run the unit's *solo* simulation at admission time
   (billing, warm pools and invocation records are exactly the serialized
   serve's -- contention stretches the serving-layer timeline, not the
   substrate's bills; see ROADMAP for this documented approximation),
2. collects every channel op and FaaS invocation span the execution touched
   (via the ``arbiter`` slot of the cloud's :class:`~repro.cloud.ServiceHooks`),
3. hands the op log to the :class:`~repro.concurrency.FairShareArbiter`,
   which interleaves it with every other in-flight unit's log and emits
   boundary events back onto the *same* server heap, and
4. releases the admission slot only when the unit's contended chain
   finishes -- later than its solo finish exactly when finite capacities
   bound.

Channel resources are namespaced per in-flight query (``"queue:q{id}:..."``),
which both preserves logical isolation across queries and surfaces the
latent collision risk of the shared engine prefix: two concurrently in-flight
queries with the same id would silently share queue/topic/bucket resources,
so admission validates namespace uniqueness and fails loudly.

Byte-identity contract: with an unbounded :class:`ContentionConfig` every
chain finishes at bit-for-bit ``admit + latency`` and all interference is
exactly ``0.0``, so the records, channel stats, cost report and summary are
identical to the serialized serve's -- the arbiter's extra heap events change
nothing observable.  Tier-A outcome memoisation is bypassed (like chaos):
interleaved serves must re-simulate every execution so the op log reflects
the true warm-pool state.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from ..workloads import InferenceQuery, SporadicWorkload
from .arbiter import FairShareArbiter
from .config import ContentionConfig

__all__ = ["interleaved_serve"]


class _OpCollector:
    """Collects one unit's channel/FaaS op spans during its solo execution.

    Mounted as the ``arbiter`` hook of the backend's cloud around
    ``execute_batch``; the duck-typed counterpart of the arbiter hooks
    in the cloud services.  Channel resources are namespaced per query;
    ``"faas"`` stays platform-global so the invocation quota binds across
    queries.
    """

    __slots__ = ("namespace", "ops")

    def __init__(self, namespace: str):
        self.namespace = namespace
        self.ops: List[Tuple[str, float, float]] = []

    def channel_op(
        self, service: str, op: str, resource: str, end: float, duration: float
    ) -> None:
        if duration > 0.0:
            self.ops.append((f"{service}:{self.namespace}:{resource}", end - duration, end))

    def invocation(self, name: str, start: float, end: float) -> None:
        if end > start:
            self.ops.append(("faas", start, end))


#: a completion event for the kernel's heap: ``(time, payload)``.  A payload
#: is the arbiter's own ``(time, generation, chain)`` event for a chain
#: boundary (re-used, not re-packed: a moved share hands back one event per
#: peer), or ``(time, namespace, None)`` for a unit with nothing to contend for.
_Event = Tuple[float, tuple]


class _ContendedCompletion:
    """The kernel's completion stage: slots release when contended chains end."""

    def __init__(self, backend, contention: ContentionConfig):
        self.backend = backend
        self.arbiter = FairShareArbiter(contention)
        #: per admitted unit, in admission order: its chain, or ``None``.
        self._chains: List[object] = []
        #: resource namespaces of the units still in flight.
        self._inflight: Set[str] = set()
        self._namespace_of: Dict[int, str] = {}  # by chain key
        #: the op log of the unit executed last, until ``admitted`` claims it.
        self._collector = _OpCollector("")

    def execute(self, unit: List[InferenceQuery], at_time: float):
        """Solo-execute ``unit`` on the backend with an op collector mounted."""
        query_id = unit[0].query_id
        namespace = f"q{query_id}"
        if namespace in self._inflight:
            raise ValueError(
                f"resource namespace collision: query id {query_id} admitted "
                f"at t={at_time:.6f} while a query with the same id is "
                f"still in flight under namespace '{namespace}'; interleaved "
                f"execution requires unique query ids among concurrently running "
                f"queries (duplicates would silently share per-query "
                f"queue/topic/bucket resources)"
            )
        self._collector = _OpCollector(namespace)
        with self.backend.mounted(arbiter=self._collector):
            return self.backend.execute_batch(unit, at_time=at_time)

    def admitted(self, at: float, latency: float) -> List[_Event]:
        """Start the just-executed unit's chain; returns its heap events."""
        namespace = self._collector.namespace
        self._inflight.add(namespace)
        if not latency > 0.0:
            # Degenerate zero-latency unit: nothing to contend for.
            self._chains.append(None)
            when = at + latency
            return [(when, (when, namespace, None))]
        chain, reschedules = self.arbiter.admit(self._collector.ops, at, latency)
        self._chains.append(chain)
        self._namespace_of[chain.key] = namespace
        return [(event[0], event) for event in reschedules]

    def on_event(self, payload: tuple, now: float) -> Tuple[bool, Sequence[_Event]]:
        """Process one completion event: ``(slot released, further events)``."""
        _, tag, chain = payload
        more: Sequence[_Event] = ()
        if chain is None:
            namespace = tag
        else:
            result = self.arbiter.on_event(chain, tag, now)
            if result is None:
                return False, more  # stale: the chain was rescheduled meanwhile
            finished, reschedules = result
            more = [(event[0], event) for event in reschedules]
            if not finished:
                return False, more  # internal boundary crossing: no admission change
            namespace = self._namespace_of.pop(chain.key)
        self._inflight.remove(namespace)
        return True, more

    def delays(self) -> List[float]:
        """Final contention delay of every admitted unit, in admission order.

        With all delays exactly ``0.0`` (unbounded contention) the kernel's
        ``(admitted_at + latency) + delay`` equals the solo finish bit-for-bit.
        """
        return [chain.delay if chain is not None else 0.0 for chain in self._chains]


def interleaved_serve(server, workload: SporadicWorkload):
    """Replay ``workload`` with in-flight queries sharing the timeline."""
    concurrency = server.config.concurrency
    assert concurrency is not None
    stage = _ContendedCompletion(server.backend, concurrency.contention)
    report = server.run_event_loop(workload, completion=stage)
    report.concurrency_diagnostics = stage.arbiter.work_counts()
    # The "concurrency" summary key is opt-in twice over: only a *bounded*
    # contention config can stretch a timeline, so only a bounded config adds
    # it -- an unbounded interleaved serve is observationally identical to
    # the serialized serve and must keep its fingerprints byte-for-byte.
    if concurrency.contention.is_bounded:
        delays = [record.interference_seconds for record in report.records]
        report.concurrency_stats = {
            "config": concurrency.describe(),
            "interfered_query_count": sum(1 for delay in delays if delay > 0.0),
            "interference_total_seconds": float(sum(delays)),
            "interference_max_seconds": float(max(delays)) if delays else 0.0,
            "interference_mean_seconds": (
                float(sum(delays) / len(delays)) if delays else None
            ),
            "resources": stage.arbiter.resource_summary(),
        }
    return report
