"""Deterministic fair-share arbiter: processor sharing over collected op logs.

Each admitted unit becomes a *chain*: the solo execution's ``[0, latency]``
span cut into segments at every collected op boundary, each segment weighted
by the resources its overlapping ops occupy.  Chains progress through their
segments at a rate set by the most contended resource they currently touch
(``min_r min(1, cap_r / K_r)`` where ``K_r`` sums the active weight of every
in-flight chain on ``r``) -- textbook processor sharing: an op overlapping
``k`` peers on a capacity-``c`` resource takes ``k/c`` times its solo latency
while the overlap lasts.

Event economy: when a chain crosses a segment boundary, every peer active on
a resource the crossing *touched* (exited or entered) is advanced to the event
time, but a peer's rate is recomputed only when the share of a resource it
holds *moved* -- the resource's total weight after the crossing differs from
the total before it and that changed ``min(1, cap_r / K_r)``.  A chain that
leaves and re-enters ``"faas"`` at the same weight (every channel-op boundary
inside one invocation) therefore costs its peers one float advance each and
nothing else.  The advance itself cannot be skipped or merged: ``delay`` is a
running float sum, so each peer must see the same ``+=`` at the same times.

Exactness contract (load-bearing for the byte-identity gate): a chain's
finish time is always computed as ``(admit + latency) + delay`` where
``delay`` starts at exactly ``0.0`` and only ever grows while a rate is
strictly below ``1.0``.  Segment-boundary times at rate ``1.0`` are likewise
computed non-incrementally (``(admit + boundary) + delay``), never by
decrementing a remaining-work float.  An unbounded arbiter therefore finishes
every chain at bit-for-bit ``admit + latency`` -- the serialized loop's
``now + outcomes[0].latency_seconds`` -- no matter how many chains interleave.

Determinism: chains are keyed by admission sequence; whenever a moved share
fans out to the peer chains holding it, the peers are re-rated in ascending
key order and the crossing chain is rescheduled last, so two replays of the
same seed produce identical event streams regardless of hash seeds or executor
threading.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

from .config import ContentionConfig

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
        "segments",
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
        segments: List[List[Tuple["_Resource", float]]],
    ):
        self.key = key
        self.admit = admit
        self.latency = latency
        #: ascending solo-progress offsets; boundaries[0] == 0.0,
        #: boundaries[-1] == latency; segment i covers
        #: (boundaries[i], boundaries[i+1]).
        self.boundaries = boundaries
        #: per segment, the ``(resource, weight)`` pairs it occupies.
        self.segments = segments
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


class _Resource:
    """One namespaced resource: its load, its share and who is on it."""

    __slots__ = ("capacity", "weight", "share", "peak", "active")

    def __init__(self, capacity: Optional[float]):
        #: resolved once from the contention config; ``None`` is infinite.
        self.capacity = capacity
        #: total active weight across all chains' current segments.
        self.weight = 0.0
        #: ``min(1, capacity / weight)``, kept current as ``weight`` moves.
        self.share = 1.0
        #: peak active weight ever observed (utilization stats).
        self.peak = 0.0
        #: chains whose *current* segment uses the resource, by key (dict,
        #: not set: set iteration order is id-dependent and would break
        #: replay determinism).
        self.active: Dict[int, _Chain] = {}


def _advance(chains: Iterable[_Chain], t: float) -> None:
    """Bring ``chains`` up to time ``t`` at their current rates.

    The one place chain progress accrues.  The float sequence is part of the
    digest contract: one ``+=`` per chain per event time, never merged.
    """
    for chain in chains:
        elapsed = t - chain.t_last
        if elapsed > 0.0:
            rate = chain.rate
            chain.s += rate * elapsed
            if rate < 1.0:
                chain.delay += (1.0 - rate) * elapsed
            chain.t_last = t


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
    peer moved the share of one of its resources).
    """

    def __init__(self, contention: ContentionConfig):
        self.contention = contention
        self._next_key = 0
        self._resources: Dict[str, _Resource] = {}
        # Host-side work counters (see :meth:`work_counts`).
        self._events = 0
        self._stale_events = 0
        self._peer_advances = 0
        self._peer_rerates = 0
        self._reschedules = 0

    # -- rate model -----------------------------------------------------------

    def _chain_rate(self, chain: _Chain) -> float:
        rate = 1.0
        for resource, _ in chain.segments[chain.index]:
            if resource.share < rate:
                rate = resource.share
        return rate

    # -- state bookkeeping ----------------------------------------------------

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

    def _resource(self, name: str) -> _Resource:
        resource = self._resources.get(name)
        if resource is None:
            # The one capacity lookup a resource ever costs.
            resource = self._resources[name] = _Resource(self.contention.capacity_for(name))
        return resource

    def _cross(
        self,
        chain: _Chain,
        leaving: List[Tuple[_Resource, float]],
        entering: List[Tuple[_Resource, float]],
        t: float,
    ) -> List[Tuple[float, int, _Chain]]:
        """Move ``chain`` off ``leaving`` onto ``entering`` at time ``t``.

        Every peer on a touched resource is advanced to ``t``; only peers
        holding a share that moved are re-rated, in ascending key order, and
        those whose rate changed are returned as reschedules.
        """
        key = chain.key
        #: touched resource -> its total weight before the crossing.
        before: Dict[_Resource, float] = {}
        for resource, weight in leaving:
            before[resource] = resource.weight
            resource.weight -= weight
            peers = resource.active
            del peers[key]
            if peers:
                self._peer_advances += len(peers)
                _advance(peers.values(), t)
        for resource, weight in entering:
            peers = resource.active
            if resource not in before:
                before[resource] = resource.weight
                if peers:
                    self._peer_advances += len(peers)
                    _advance(peers.values(), t)
            total = resource.weight + weight
            resource.weight = total
            if total > resource.peak:
                resource.peak = total
            peers[key] = chain
        affected: Dict[int, _Chain] = {}
        for resource, total_before in before.items():
            total = resource.weight
            if total != total_before:
                capacity = resource.capacity
                share = 1.0 if capacity is None or total <= capacity else capacity / total
                if share != resource.share:
                    resource.share = share
                    affected.update(resource.active)
        affected.pop(key, None)
        self._peer_rerates += len(affected)
        reschedules: List[Tuple[float, int, _Chain]] = []
        for peer_key in sorted(affected):
            peer = affected[peer_key]
            rate = self._chain_rate(peer)
            if rate != peer.rate:
                peer.rate = rate
                reschedules.append(self._schedule(peer, t))
        return reschedules

    # -- serve-loop API -------------------------------------------------------

    def admit(
        self, ops: Iterable[OpSpan], admit_time: float, latency: float
    ) -> Tuple[_Chain, List[Tuple[float, int, _Chain]]]:
        """Register a dispatched unit; returns its chain plus heap events."""
        if not latency > 0.0:
            raise ValueError(f"chain latency must be positive; got {latency!r}")
        boundaries, usages = _build_segments(ops, admit_time, latency)
        segments = [
            [(self._resource(name), weight) for name, weight in usage.items()]
            for usage in usages
        ]
        chain = _Chain(self._next_key, admit_time, latency, boundaries, segments)
        self._next_key += 1
        reschedules = self._cross(chain, [], segments[0], admit_time)
        chain.rate = self._chain_rate(chain)
        reschedules.append(self._schedule(chain, admit_time))
        self._reschedules += len(reschedules)
        return chain, reschedules

    def on_event(
        self, chain: _Chain, generation: int, t: float
    ) -> Optional[Tuple[bool, List[Tuple[float, int, _Chain]]]]:
        """Process one boundary event; ``None`` when stale.

        Returns ``(finished, reschedules)``: ``finished`` is True when this
        crossing completed the chain (its ``finish`` and ``delay`` are now
        final and the serve loop should release the admission slot).
        Reschedules list the peers whose rate changed, in ascending admission
        key, then the crossing chain last.
        """
        if chain.done or generation != chain.generation:
            self._stale_events += 1
            return None
        self._events += 1
        _advance((chain,), t)
        segments = chain.segments
        leaving = segments[chain.index]
        chain.index += 1
        finished = chain.index >= len(segments)
        if finished:
            chain.done = True
            chain.finish = t
            reschedules = self._cross(chain, leaving, [], t)
        else:
            chain.s = chain.boundaries[chain.index]
            reschedules = self._cross(chain, leaving, segments[chain.index], t)
            chain.rate = self._chain_rate(chain)
            reschedules.append(self._schedule(chain, t))
        self._reschedules += len(reschedules)
        return (finished, reschedules)

    # -- reporting ------------------------------------------------------------

    def resource_summary(self) -> Dict[str, Dict[str, Optional[float]]]:
        """Peak weight / utilization / backlog per resource class."""
        per_class: Dict[str, float] = {}
        for name, resource in self._resources.items():
            resource_class = name.partition(":")[0]
            if resource.peak > per_class.get(resource_class, 0.0):
                per_class[resource_class] = resource.peak
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

    def work_counts(self) -> Dict[str, int]:
        """Host-side work done so far; diagnostics only, never fingerprinted.

        ``events`` are live boundary crossings and ``stale_events`` the heap
        events skipped for a stale generation; ``peer_advances`` counts peer
        visits by the advance loop, ``peer_rerates`` the rate recomputations
        a moved share forced, and ``reschedules`` the heap events handed back
        (after a full serve, ``events + stale_events``).
        """
        return {
            "events": self._events,
            "stale_events": self._stale_events,
            "peer_advances": self._peer_advances,
            "peer_rerates": self._peer_rerates,
            "reschedules": self._reschedules,
        }
