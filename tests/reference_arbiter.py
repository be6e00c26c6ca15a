"""Frozen reference arbiter: the differential-test oracle.

``FairShareArbiter`` exactly as it stood before the arbiter stopped re-rating
every in-flight peer at every boundary (commit f57d6af): each live event
advances and re-rates *all* chains active on any touched resource, resolving
the capacity once per peer visit.  Slow and obviously right, which is what an
oracle should be.  ``tests/test_arbiter_differential.py`` drives it and the
production arbiter through the same op logs and demands bit-identical event
streams, delays, finishes and resource summaries.

Do not edit to track ``src/`` -- a semantic change to processor sharing must
change this file *deliberately*, in the same PR, with the reason stated.
Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

from repro.concurrency.config import ContentionConfig

__all__ = ["FairShareArbiter"]

#: an op span collected during one unit's solo execution: (resource key,
#: absolute start, absolute end).  Channel resources arrive already
#: namespaced per query (``"queue:q7:<name>"``); ``"faas"`` is global.
OpSpan = Tuple[str, float, float]


class _Chain:
    """One in-flight unit's contended timeline."""

    __slots__ = (
        "key",
        "admit",
        "latency",
        "boundaries",
        "usages",
        "index",
        "s",
        "t_last",
        "rate",
        "delay",
        "generation",
        "done",
        "finish",
    )

    def __init__(
        self,
        key: int,
        admit: float,
        latency: float,
        boundaries: List[float],
        usages: List[Dict[str, float]],
    ):
        self.key = key
        self.admit = admit
        self.latency = latency
        #: ascending solo-progress offsets; boundaries[0] == 0.0,
        #: boundaries[-1] == latency; segment i covers
        #: (boundaries[i], boundaries[i+1]).
        self.boundaries = boundaries
        self.usages = usages
        self.index = 0
        #: solo progress in [0, latency]; snapped to the exact boundary value
        #: at every crossing so float drift never crosses an event.
        self.s = 0.0
        self.t_last = admit
        self.rate = 1.0
        #: contention-added wall time; exactly 0.0 until a rate < 1.0 bites.
        self.delay = 0.0
        #: bumped on every reschedule; heap events carrying a stale
        #: generation are ignored.
        self.generation = 0
        self.done = False
        self.finish = admit + latency

    @property
    def interference_seconds(self) -> float:
        return self.delay


def _build_segments(
    ops: Iterable[OpSpan], admit: float, latency: float
) -> Tuple[List[float], List[Dict[str, float]]]:
    """Cut ``[0, latency]`` at every (clamped) op boundary; weight segments."""
    cuts = {0.0, latency}
    spans: List[Tuple[str, float, float]] = []
    for resource, abs_start, abs_end in ops:
        start = abs_start - admit
        end = abs_end - admit
        if start < 0.0:
            start = 0.0
        if end > latency:
            end = latency
        if end <= start:
            continue
        spans.append((resource, start, end))
        cuts.add(start)
        cuts.add(end)
    boundaries = sorted(cuts)
    usages: List[Dict[str, float]] = [{} for _ in range(len(boundaries) - 1)]
    for resource, start, end in spans:
        index = bisect_left(boundaries, start)
        while index < len(usages) and boundaries[index] < end:
            usage = usages[index]
            usage[resource] = usage.get(resource, 0.0) + 1.0
            index += 1
    return boundaries, usages


class FairShareArbiter:
    """Deterministic processor-sharing arbiter over namespaced resources.

    The serve loop drives it with three calls: :meth:`admit` when a unit is
    dispatched, :meth:`on_event` when a previously scheduled boundary event
    pops off the server heap, and :meth:`resource_summary` at the end.  Both
    scheduling calls return ``(time, generation, chain)`` tuples the caller
    must push onto its heap; events whose generation no longer matches the
    chain are stale and must be ignored (the chain was rescheduled when a
    peer entered or left one of its resources).
    """

    def __init__(self, contention: ContentionConfig):
        self.contention = contention
        self._next_key = 0
        #: resource -> total active weight across all chains' current segments.
        self._weights: Dict[str, float] = {}
        #: resource -> peak active weight ever observed (utilization stats).
        self._peak_weight: Dict[str, float] = {}
        #: resource -> chains whose *current* segment uses it, in admission
        #: order (dict, not set: set iteration order is id-dependent and
        #: would break replay determinism).
        self._active_on: Dict[str, Dict[int, _Chain]] = {}

    # -- rate model -----------------------------------------------------------

    def _share(self, resource: str, total_weight: float) -> float:
        capacity = self.contention.capacity_for(resource)
        if capacity is None or total_weight <= capacity:
            return 1.0
        return capacity / total_weight

    def _chain_rate(self, chain: _Chain) -> float:
        rate = 1.0
        for resource in chain.usages[chain.index]:
            share = self._share(resource, self._weights[resource])
            if share < rate:
                rate = share
        return rate

    # -- state bookkeeping ----------------------------------------------------

    def _advance(self, chain: _Chain, t: float) -> None:
        elapsed = t - chain.t_last
        if elapsed > 0.0:
            chain.s += chain.rate * elapsed
            if chain.rate < 1.0:
                chain.delay += (1.0 - chain.rate) * elapsed
            chain.t_last = t

    def _schedule(self, chain: _Chain, t: float) -> Tuple[float, int, _Chain]:
        boundary = chain.boundaries[chain.index + 1]
        if chain.rate == 1.0:
            # Non-incremental: exact whenever the chain has never been
            # contended (delay == 0.0 and t == admit + s + delay).
            when = (chain.admit + boundary) + chain.delay
            if when < t:
                when = t
        else:
            when = t + (boundary - chain.s) / chain.rate
        chain.generation += 1
        return (when, chain.generation, chain)

    def _enter_segment(self, chain: _Chain, changed: Dict[str, None]) -> None:
        for resource, weight in chain.usages[chain.index].items():
            total = self._weights.get(resource, 0.0) + weight
            self._weights[resource] = total
            if total > self._peak_weight.get(resource, 0.0):
                self._peak_weight[resource] = total
            self._active_on.setdefault(resource, {})[chain.key] = chain
            changed[resource] = None

    def _exit_segment(self, chain: _Chain, changed: Dict[str, None]) -> None:
        for resource, weight in chain.usages[chain.index].items():
            self._weights[resource] -= weight
            active = self._active_on[resource]
            del active[chain.key]
            changed[resource] = None

    def _reschedule_peers(
        self, chain: _Chain, changed: Dict[str, None], t: float
    ) -> List[Tuple[float, int, _Chain]]:
        affected: Dict[int, _Chain] = {}
        for resource in changed:
            for key, other in self._active_on.get(resource, {}).items():
                if other is not chain:
                    affected[key] = other
        reschedules: List[Tuple[float, int, _Chain]] = []
        for key in sorted(affected):
            other = affected[key]
            self._advance(other, t)
            new_rate = self._chain_rate(other)
            if new_rate != other.rate:
                other.rate = new_rate
                reschedules.append(self._schedule(other, t))
        return reschedules

    # -- serve-loop API -------------------------------------------------------

    def admit(
        self, ops: Iterable[OpSpan], admit_time: float, latency: float
    ) -> Tuple[_Chain, List[Tuple[float, int, _Chain]]]:
        """Register a dispatched unit; returns its chain plus heap events."""
        if not latency > 0.0:
            raise ValueError(f"chain latency must be positive; got {latency!r}")
        boundaries, usages = _build_segments(ops, admit_time, latency)
        chain = _Chain(self._next_key, admit_time, latency, boundaries, usages)
        self._next_key += 1
        changed: Dict[str, None] = {}
        self._enter_segment(chain, changed)
        reschedules = self._reschedule_peers(chain, changed, admit_time)
        chain.rate = self._chain_rate(chain)
        reschedules.append(self._schedule(chain, admit_time))
        return chain, reschedules

    def on_event(
        self, chain: _Chain, generation: int, t: float
    ) -> Optional[Tuple[bool, List[Tuple[float, int, _Chain]]]]:
        """Process one boundary event; ``None`` when stale.

        Returns ``(finished, reschedules)``: ``finished`` is True when this
        crossing completed the chain (its ``finish`` and ``delay`` are now
        final and the serve loop should release the admission slot).
        """
        if chain.done or generation != chain.generation:
            return None
        self._advance(chain, t)
        changed: Dict[str, None] = {}
        self._exit_segment(chain, changed)
        chain.index += 1
        if chain.index >= len(chain.usages):
            chain.done = True
            chain.finish = t
            reschedules = self._reschedule_peers(chain, changed, t)
            return (True, reschedules)
        chain.s = chain.boundaries[chain.index]
        self._enter_segment(chain, changed)
        reschedules = self._reschedule_peers(chain, changed, t)
        chain.rate = self._chain_rate(chain)
        reschedules.append(self._schedule(chain, t))
        return (False, reschedules)

    # -- reporting ------------------------------------------------------------

    def resource_summary(self) -> Dict[str, Dict[str, Optional[float]]]:
        """Peak weight / utilization / backlog per resource class."""
        per_class: Dict[str, float] = {}
        for resource, peak in self._peak_weight.items():
            resource_class = resource.partition(":")[0]
            if peak > per_class.get(resource_class, 0.0):
                per_class[resource_class] = peak
        summary: Dict[str, Dict[str, Optional[float]]] = {}
        for resource_class in sorted(per_class):
            capacity = self.contention.class_capacity(resource_class)
            entry: Dict[str, Optional[float]] = {
                "peak_weight": per_class[resource_class],
                "capacity": capacity,
            }
            if capacity is not None:
                entry["peak_utilization"] = per_class[resource_class] / capacity
                entry["peak_backlog"] = max(0.0, per_class[resource_class] - capacity)
            summary[resource_class] = entry
        return summary
