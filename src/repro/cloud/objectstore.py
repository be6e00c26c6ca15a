"""Simulated object storage service (AWS S3 analogue).

FSD-Inf-Object uses object storage as its inter-worker communication channel
(Algorithm 2): a sender PUTs one ``.dat`` (or empty ``.nul``) object per
target per layer, and receivers repeatedly LIST their own prefix and GET the
objects addressed to them.  Object storage is also where model partitions and
inference inputs live, for every variant.

The simulation reproduces the behaviours the algorithm and the cost model
rely on:

* PUT, GET and LIST requests are billed per request, independent of object
  size (Section IV-A2 of the paper);
* data transfer between object storage and FaaS functions is free;
* objects become visible to LIST/GET only after the writer's PUT completed
  (plus its transfer time), which is how the receiver's polling loop observes
  sender progress;
* per-bucket and per-prefix organisation, so the engine's multi-bucket layout
  (``bucket-{n % B}``) can spread API load exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .billing import SERVICE_OBJECT, BillingLedger
from .errors import (
    InvalidRequestError,
    ResourceAlreadyExistsError,
    ResourceNotFoundError,
)
from .hooks import ServiceHooks
from .pricing import PriceBook
from .timing import LatencyModel, VirtualClock

__all__ = ["StoredObject", "ObjectHandle", "Bucket", "ObjectStorageService"]


@dataclass
class StoredObject:
    """An immutable object plus the virtual time from which it is visible."""

    key: str
    data: bytes
    visible_at: float

    @property
    def size_bytes(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class ObjectHandle:
    """A lightweight listing entry (what a LIST call returns)."""

    bucket: str
    key: str
    size_bytes: int


class Bucket:
    """A single object storage bucket."""

    def __init__(
        self,
        name: str,
        ledger: BillingLedger,
        latency: LatencyModel,
        prices: PriceBook,
        hooks: Optional[ServiceHooks] = None,
    ):
        self.name = name
        self._ledger = ledger
        self._latency = latency
        self._prices = prices
        self._hooks = hooks or ServiceHooks()
        self._objects: Dict[str, StoredObject] = {}
        self.total_put_requests = 0
        self.total_get_requests = 0
        self.total_list_requests = 0
        self.total_bytes_written = 0
        self.total_bytes_read = 0

    # -- billing helpers -----------------------------------------------------

    def _bill(self, operation: str, cost: float, timestamp: float, quantity: float = 1.0) -> None:
        self._ledger.record(
            service=SERVICE_OBJECT,
            operation=operation,
            resource=self.name,
            quantity=quantity,
            cost=cost,
            timestamp=timestamp,
        )

    # -- data plane --------------------------------------------------------------

    def put_object(self, key: str, data: bytes, clock: VirtualClock) -> ObjectHandle:
        """Write (or overwrite) an object; bills one PUT request."""
        if not key:
            raise InvalidRequestError("object key cannot be empty")
        duration = self._latency.object_put(len(data))
        clock.advance(duration)
        injector = self._hooks.injector
        if injector is not None:
            injector.check("object", "put", self.name, clock.now)
        tracer = self._hooks.tracer
        if tracer is not None:
            tracer.channel_op("object", "put", self.name, clock.now, bytes=len(data))
        arbiter = self._hooks.arbiter
        if arbiter is not None:
            arbiter.channel_op("object", "put", self.name, clock.now, duration)
        self._objects[key] = StoredObject(key=key, data=bytes(data), visible_at=clock.now)
        self.total_put_requests += 1
        self.total_bytes_written += len(data)
        self._bill("put", self._prices.object_price_per_put, clock.now)
        return ObjectHandle(bucket=self.name, key=key, size_bytes=len(data))

    def preload_object(self, key: str, data: bytes) -> ObjectHandle:
        """Stage an object that existed *before* the simulated run started.

        Used for offline artefacts (trained models, pre-computed partitions,
        buffered inference inputs): the object is immediately visible at
        virtual time zero and its upload is neither timed nor billed, exactly
        like data that was placed in object storage ahead of the experiment.
        Reads of the object are still timed and billed normally.
        """
        if not key:
            raise InvalidRequestError("object key cannot be empty")
        self._objects[key] = StoredObject(key=key, data=bytes(data), visible_at=0.0)
        return ObjectHandle(bucket=self.name, key=key, size_bytes=len(data))

    def get_object(self, key: str, clock: VirtualClock) -> bytes:
        """Read an object; bills one GET request.

        Raises :class:`ResourceNotFoundError` when the key does not exist or
        is not yet visible at the caller's current virtual time.
        """
        # The tracer gate sits before the injector block: the fault branches
        # below mutate request counters, and DET005 requires every instance
        # mutation to happen after each hook's gate (the telemetry decision
        # included).  The op is stamped at request-issue time (pre-advance)
        # accordingly.
        tracer = self._hooks.tracer
        if tracer is not None:
            tracer.channel_op("object", "get", self.name, clock.now)
        # Same discipline for the arbiter: its gate precedes the mutating
        # branches below, so the transfer span is computed from a pure probe
        # of the store (visibility uses the same pre-advance clock as the
        # 404 check).  Chaos and concurrency are mutually exclusive, so the
        # injector's fault path never runs while the arbiter is armed.
        arbiter = self._hooks.arbiter
        if arbiter is not None:
            probe = self._objects.get(key)
            visible = probe is not None and probe.visible_at <= clock.now
            duration = self._latency.object_get(probe.size_bytes if visible else 0)
            arbiter.channel_op("object", "get", self.name, clock.now + duration, duration)
        injector = self._hooks.injector
        if injector is not None:
            try:
                injector.check("object", "get", self.name, clock.now)
            except Exception:
                # Like a 404, a transiently failed GET still takes the round
                # trip and is billed as one request.
                clock.advance(self._latency.object_get(0))
                self.total_get_requests += 1
                self._bill("get", self._prices.object_price_per_get, clock.now)
                raise
        obj = self._objects.get(key)
        if obj is None or obj.visible_at > clock.now:
            # The failed request still costs a GET, exactly as S3 bills 404s.
            clock.advance(self._latency.object_get(0))
            self.total_get_requests += 1
            self._bill("get", self._prices.object_price_per_get, clock.now)
            raise ResourceNotFoundError(f"object '{key}' not found in bucket '{self.name}'")
        clock.advance(self._latency.object_get(obj.size_bytes))
        self.total_get_requests += 1
        self.total_bytes_read += obj.size_bytes
        self._bill("get", self._prices.object_price_per_get, clock.now)
        return obj.data

    def list_objects(self, prefix: str, clock: VirtualClock) -> List[ObjectHandle]:
        """List visible objects under ``prefix``; bills one LIST request."""
        duration = self._latency.object_list()
        clock.advance(duration)
        tracer = self._hooks.tracer
        if tracer is not None:
            tracer.channel_op("object", "list", self.name, clock.now)
        arbiter = self._hooks.arbiter
        if arbiter is not None:
            arbiter.channel_op("object", "list", self.name, clock.now, duration)
        self.total_list_requests += 1
        self._bill("list", self._prices.object_price_per_list, clock.now)
        handles = [
            ObjectHandle(bucket=self.name, key=obj.key, size_bytes=obj.size_bytes)
            for obj in self._objects.values()
            if obj.key.startswith(prefix) and obj.visible_at <= clock.now
        ]
        return sorted(handles, key=lambda h: h.key)

    def delete_object(self, key: str, clock: VirtualClock) -> None:
        """Delete an object (DELETE requests are free on S3, so no billing)."""
        if key in self._objects:
            del self._objects[key]

    def delete_prefix(self, prefix: str) -> int:
        """Administratively remove every object under ``prefix`` (cleanup helper)."""
        doomed = [key for key in self._objects if key.startswith(prefix)]
        for key in doomed:
            del self._objects[key]
        return len(doomed)

    # -- inspection ----------------------------------------------------------------

    def object_exists(self, key: str) -> bool:
        return key in self._objects

    def object_size(self, key: str) -> int:
        obj = self._objects.get(key)
        if obj is None:
            raise ResourceNotFoundError(f"object '{key}' not found in bucket '{self.name}'")
        return obj.size_bytes

    @property
    def object_count(self) -> int:
        return len(self._objects)

    @property
    def total_stored_bytes(self) -> int:
        return sum(obj.size_bytes for obj in self._objects.values())


class ObjectStorageService:
    """Account-level bucket registry (the S3 control plane)."""

    def __init__(
        self,
        ledger: BillingLedger,
        latency: LatencyModel,
        prices: PriceBook,
        hooks: Optional[ServiceHooks] = None,
    ):
        self._ledger = ledger
        self._latency = latency
        self._prices = prices
        self._hooks = hooks or ServiceHooks()
        self._buckets: Dict[str, Bucket] = {}

    def create_bucket(self, name: str) -> Bucket:
        if name in self._buckets:
            raise ResourceAlreadyExistsError(f"bucket '{name}' already exists")
        bucket = Bucket(
            name,
            self._ledger,
            self._latency,
            self._prices,
            hooks=self._hooks,
        )
        self._buckets[name] = bucket
        return bucket

    def get_bucket(self, name: str) -> Bucket:
        try:
            return self._buckets[name]
        except KeyError:
            raise ResourceNotFoundError(f"bucket '{name}' does not exist") from None

    def get_or_create_bucket(self, name: str) -> Bucket:
        if name in self._buckets:
            return self._buckets[name]
        return self.create_bucket(name)

    def delete_bucket(self, name: str) -> None:
        if name not in self._buckets:
            raise ResourceNotFoundError(f"bucket '{name}' does not exist")
        del self._buckets[name]

    def list_buckets(self) -> List[str]:
        return sorted(self._buckets)

    def __contains__(self, name: str) -> bool:
        return name in self._buckets
