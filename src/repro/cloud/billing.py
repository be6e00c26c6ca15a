"""Metering and billing for the simulated cloud.

Every simulated service records its billable activity in a
:class:`BillingLedger`.  The ledger plays the role of the AWS *Cost and Usage
report* that the paper uses to validate its analytical cost model
(Section VI-F): the cost model predicts charges from workload parameters,
and the ledger reports what was "actually" charged by the simulated services.

Records are intentionally fine grained (one per API call family per resource)
so reports can be filtered by service, by resource, or by time window.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from .hooks import ServiceHooks
from .pricing import PriceBook

__all__ = [
    "UsageRecord",
    "CostReport",
    "BillingLedger",
    "SERVICE_FAAS",
    "SERVICE_PUBSUB",
    "SERVICE_QUEUE",
    "SERVICE_OBJECT",
    "SERVICE_VM",
    "SERVICE_BLOCK",
    "SERVICE_ENDPOINT",
]

SERVICE_FAAS = "faas"
SERVICE_PUBSUB = "pubsub"
SERVICE_QUEUE = "queue"
SERVICE_OBJECT = "object_storage"
SERVICE_VM = "vm"
SERVICE_BLOCK = "block_storage"
SERVICE_ENDPOINT = "endpoint"


@dataclass(frozen=True)
class UsageRecord:
    """One line item of billable usage.

    Attributes:
        service:   one of the ``SERVICE_*`` constants.
        operation: API operation family, e.g. ``"publish"``, ``"get"``,
                   ``"gb_seconds"``.
        resource:  the resource the charge is attached to (queue name, bucket
                   name, function name, instance id).
        quantity:  billed units (requests, GB-seconds, bytes, instance-hours).
        cost:      charge in USD.
        timestamp: virtual time at which the usage occurred.
    """

    service: str
    operation: str
    resource: str
    quantity: float
    cost: float
    timestamp: float


@dataclass
class CostReport:
    """Aggregated view over a set of usage records."""

    total: float = 0.0
    by_service: Dict[str, float] = field(default_factory=dict)
    by_operation: Dict[str, float] = field(default_factory=dict)
    record_count: int = 0

    @property
    def compute_cost(self) -> float:
        """Cost of compute services (FaaS, VMs, managed endpoints)."""
        return sum(
            self.by_service.get(svc, 0.0)
            for svc in (SERVICE_FAAS, SERVICE_VM, SERVICE_ENDPOINT)
        )

    @property
    def communication_cost(self) -> float:
        """Cost of communication/storage services used as IPC channels."""
        return sum(
            self.by_service.get(svc, 0.0)
            for svc in (SERVICE_PUBSUB, SERVICE_QUEUE, SERVICE_OBJECT)
        )

    def service_total(self, service: str) -> float:
        return self.by_service.get(service, 0.0)


class BillingLedger:
    """Accumulates :class:`UsageRecord` entries and produces cost reports."""

    def __init__(
        self, price_book: Optional[PriceBook] = None, hooks: Optional[ServiceHooks] = None
    ):
        self.price_book = price_book or PriceBook()
        self._records: List[UsageRecord] = []
        self._hooks = hooks or ServiceHooks()

    # -- recording -----------------------------------------------------------

    def record(
        self,
        service: str,
        operation: str,
        resource: str,
        quantity: float,
        cost: float,
        timestamp: float,
    ) -> UsageRecord:
        """Append one usage record and return it."""
        if quantity < 0:
            raise ValueError("billable quantity cannot be negative")
        if cost < 0:
            raise ValueError("billable cost cannot be negative")
        record = UsageRecord(
            service=service,
            operation=operation,
            resource=resource,
            quantity=quantity,
            cost=cost,
            timestamp=timestamp,
        )
        tracer = self._hooks.tracer
        if tracer is not None:
            tracer.counter_add("cloud.cost_usd", cost, timestamp)
        self._records.append(record)
        return record

    # -- querying -----------------------------------------------------------

    @property
    def records(self) -> List[UsageRecord]:
        """All records, in insertion order (a copy; the ledger stays immutable)."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def filter(
        self,
        service: Optional[str] = None,
        operation: Optional[str] = None,
        resource_prefix: Optional[str] = None,
        start_time: Optional[float] = None,
        end_time: Optional[float] = None,
        predicate: Optional[Callable[[UsageRecord], bool]] = None,
    ) -> List[UsageRecord]:
        """Select records matching every provided criterion."""
        selected = []
        for record in self._records:
            if service is not None and record.service != service:
                continue
            if operation is not None and record.operation != operation:
                continue
            if resource_prefix is not None and not record.resource.startswith(resource_prefix):
                continue
            if start_time is not None and record.timestamp < start_time:
                continue
            if end_time is not None and record.timestamp > end_time:
                continue
            if predicate is not None and not predicate(record):
                continue
            selected.append(record)
        return selected

    def report(self, records: Optional[Iterable[UsageRecord]] = None) -> CostReport:
        """Aggregate ``records`` (default: every record) into a cost report."""
        if records is None:
            records = self._records
        by_service: Dict[str, float] = defaultdict(float)
        by_operation: Dict[str, float] = defaultdict(float)
        total = 0.0
        count = 0
        for record in records:
            by_service[record.service] += record.cost
            by_operation[f"{record.service}:{record.operation}"] += record.cost
            total += record.cost
            count += 1
        return CostReport(
            total=total,
            by_service=dict(by_service),
            by_operation=dict(by_operation),
            record_count=count,
        )

    def total_cost(self, service: Optional[str] = None) -> float:
        """Total cost, optionally restricted to one service."""
        return sum(r.cost for r in self._records if service is None or r.service == service)

    def total_quantity(self, service: str, operation: str) -> float:
        """Total billed quantity for one (service, operation) pair."""
        return sum(
            r.quantity
            for r in self._records
            if r.service == service and r.operation == operation
        )

    def reset(self) -> None:
        """Discard all recorded usage (used between benchmark repetitions)."""
        self._records.clear()

    def checkpoint(self) -> int:
        """Return a marker identifying the current end of the ledger."""
        return len(self._records)

    def records_since(self, checkpoint: int) -> List[UsageRecord]:
        """Records appended after ``checkpoint`` (from :meth:`checkpoint`)."""
        if checkpoint < 0:
            raise ValueError("checkpoint cannot be negative")
        return list(self._records[checkpoint:])

    def report_since(self, checkpoint: int) -> CostReport:
        """Aggregate only the records appended after ``checkpoint``."""
        return self.report(self.records_since(checkpoint))
