"""Per-environment mount point for the optional service hooks.

The cloud services know nothing about fault plans, traces or fair sharing --
those live in :mod:`repro.chaos`, :mod:`repro.telemetry` and
:mod:`repro.concurrency`.  What they share is one :class:`ServiceHooks` per
:class:`~repro.cloud.CloudEnvironment`: a tiny mutable holder every service
(and every queue/topic/bucket/volume it creates, and the billing ledger)
keeps a reference to.  Mounting a hook on it arms every interception point
of that environment at once:

* ``injector`` -- the chaos layer's fault injector (duck-typed: ``check``,
  ``on_faas_request``, ``preemption_kill_time``; canonically
  :class:`repro.chaos.FaultInjector`);
* ``channel_retry`` -- the communication layer's transient-retry policy
  (:class:`repro.chaos.RetryPolicy`), read by the channels;
* ``tracer`` -- the telemetry tracer (``channel_op``, ``counter_add``,
  ``gauge_sample``, ``record_span``; canonically :class:`repro.telemetry.Tracer`);
* ``arbiter`` -- the concurrency engine's op collector (``channel_op``,
  ``invocation``), mounted around each unit's solo execution.

With nothing mounted (the default) every hook point is a single attribute
read that takes the ``is not None`` no-op branch, so a chaos-, telemetry- or
contention-off run executes the exact same service code -- and produces the
exact same clocks, bills and fingerprints -- as one without the features.
detlint's DET005 enforces that gate shape for all three hooks.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

__all__ = ["ServiceHooks"]


class ServiceHooks:
    """Mutable hook mount shared by every service of one environment."""

    __slots__ = ("injector", "channel_retry", "tracer", "arbiter")

    def __init__(self) -> None:
        self.injector: Optional[Any] = None
        self.channel_retry: Optional[Any] = None
        self.tracer: Optional[Any] = None
        self.arbiter: Optional[Any] = None

    @contextmanager
    def mounted(self, **hooks: Any) -> Iterator[None]:
        """Set the named hooks for the block; restore them however it ends."""
        unknown = sorted(set(hooks) - set(self.__slots__))
        if unknown:
            raise TypeError(f"unknown service hook(s): {', '.join(unknown)}")
        previous = {name: getattr(self, name) for name in hooks}
        for name, hook in hooks.items():
            setattr(self, name, hook)
        try:
            yield
        finally:
            for name, hook in previous.items():
                setattr(self, name, hook)
