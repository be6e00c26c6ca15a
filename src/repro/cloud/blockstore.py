"""Simulated block storage service (AWS EBS analogue).

Only the server-based baselines use block storage: the Server-Always-On
"hot"/"cold" model-residency experiment (Section VI-C2) assumes that
recently used models are staged on a block volume attached to the instance,
while colder models must be fetched from object storage.  The block volume
therefore only needs to model sequential read bandwidth and a monthly
capacity charge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .billing import SERVICE_BLOCK, BillingLedger
from .errors import InvalidRequestError, ResourceAlreadyExistsError, ResourceNotFoundError
from .hooks import ServiceHooks
from .pricing import PriceBook
from .timing import LatencyModel, VirtualClock

__all__ = ["BlockVolume", "BlockStorageService"]

_SECONDS_PER_MONTH = 30 * 24 * 3600.0


class BlockVolume:
    """A provisioned block volume with a fixed capacity."""

    def __init__(
        self,
        name: str,
        size_gb: float,
        ledger: BillingLedger,
        latency: LatencyModel,
        prices: PriceBook,
        hooks: Optional[ServiceHooks] = None,
    ):
        if size_gb <= 0:
            raise InvalidRequestError("volume size must be positive")
        self.name = name
        self.size_gb = float(size_gb)
        self._ledger = ledger
        self._latency = latency
        self._prices = prices
        self._hooks = hooks or ServiceHooks()
        self.total_bytes_read = 0

    def read(self, size_bytes: int, clock: VirtualClock) -> float:
        """Advance the caller's clock by the time to read ``size_bytes``."""
        if size_bytes < 0:
            raise InvalidRequestError("cannot read a negative number of bytes")
        duration = self._latency.block_read(size_bytes)
        clock.advance(duration)
        injector = self._hooks.injector
        if injector is not None:
            injector.check("block", "read", self.name, clock.now)
        tracer = self._hooks.tracer
        if tracer is not None:
            tracer.channel_op("block", "read", self.name, clock.now, bytes=size_bytes)
        self.total_bytes_read += size_bytes
        return duration

    def monthly_cost(self) -> float:
        """Monthly capacity charge for this volume."""
        return self.size_gb * self._prices.block_price_per_gb_month

    def charge_for_duration(self, seconds: float, timestamp: float) -> float:
        """Record the prorated capacity charge for keeping the volume for ``seconds``."""
        if seconds < 0:
            raise InvalidRequestError("cannot charge for a negative duration")
        cost = self.monthly_cost() * (seconds / _SECONDS_PER_MONTH)
        self._ledger.record(
            service=SERVICE_BLOCK,
            operation="gb_month",
            resource=self.name,
            quantity=self.size_gb * (seconds / _SECONDS_PER_MONTH),
            cost=cost,
            timestamp=timestamp,
        )
        return cost


class BlockStorageService:
    """Account-level volume registry."""

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
        self._volumes: Dict[str, BlockVolume] = {}

    def create_volume(self, name: str, size_gb: float) -> BlockVolume:
        if name in self._volumes:
            raise ResourceAlreadyExistsError(f"volume '{name}' already exists")
        volume = BlockVolume(
            name,
            size_gb,
            self._ledger,
            self._latency,
            self._prices,
            hooks=self._hooks,
        )
        self._volumes[name] = volume
        return volume

    def get_volume(self, name: str) -> BlockVolume:
        try:
            return self._volumes[name]
        except KeyError:
            raise ResourceNotFoundError(f"volume '{name}' does not exist") from None

    def list_volumes(self) -> List[str]:
        return sorted(self._volumes)

    def __contains__(self, name: str) -> bool:
        return name in self._volumes
