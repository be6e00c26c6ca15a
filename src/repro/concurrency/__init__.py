"""Concurrent-execution engine: interleaved query timelines with contention.

A serialized serve (:meth:`repro.serving.InferenceServer.run_event_loop` with
no completion stage) executes each admitted unit to completion before the
next admission touches the shared timeline, so overlapping queries never
contend for queues, topics, buckets, or FaaS capacity.  This package closes
that gap:

* :mod:`repro.concurrency.config` -- :class:`ContentionConfig` (per-class
  channel capacities plus the platform-wide FaaS invocation quota) and
  :class:`ConcurrencyConfig`, the opt-in knob on
  :class:`~repro.serving.ServingConfig`.
* :mod:`repro.concurrency.arbiter` -- the deterministic processor-sharing
  :class:`FairShareArbiter`: an op overlapping ``k`` peers on a resource of
  capacity ``c < k`` progresses at rate ``c/k``, recomputed whenever a
  share the op holds moves.
* :mod:`repro.concurrency.interleave` -- the discrete-event interleaver: a
  completion stage for the serving kernel that decomposes each admitted
  unit's replay into timed sub-events and merges all in-flight queries'
  sub-event streams onto the server heap.

Gating contract (the same rule every opt-in subsystem follows):
``ServingConfig(concurrency=None)`` -- the default -- and an enabled engine
with an unbounded :class:`ContentionConfig` are **byte-identical** to the
serialized serve: identical records, identical summaries, every historical
``BENCH_*.json`` fingerprint unchanged.  Only finite capacities can stretch
timelines, and only then does the report grow a ``"concurrency"`` key.

:mod:`~repro.concurrency.interleave` is imported lazily by the server, so a
``concurrency=None`` serve never loads it; importing this package pulls in
configs and the arbiter only.
"""

from .arbiter import FairShareArbiter
from .config import ConcurrencyConfig, ContentionConfig

__all__ = [
    "ConcurrencyConfig",
    "ContentionConfig",
    "FairShareArbiter",
]
