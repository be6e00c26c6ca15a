"""The :class:`CloudEnvironment` -- one object bundling every simulated service.

A ``CloudEnvironment`` is the reproduction's stand-in for "an AWS account in
one region".  It owns a single billing ledger, a latency model and a price
book, and exposes the individual services (FaaS, pub/sub, queues, object
storage, block storage, VMs) wired to them.  Everything in the library --
the FSD-Inference engine, the baselines, the cost-model validator -- receives
a ``CloudEnvironment`` rather than constructing services itself, which keeps
experiments hermetic and lets tests assert on exactly the usage one run
generated.
"""

from __future__ import annotations

from typing import Optional

from .billing import BillingLedger, CostReport
from .blockstore import BlockStorageService
from .faas import FaaSPlatform
from .hooks import ServiceHooks
from .objectstore import ObjectStorageService
from .pricing import PriceBook
from .pubsub import PubSubService
from .queues import QueueService
from .timing import LatencyModel
from .vm import VMService

__all__ = ["CloudEnvironment"]


class CloudEnvironment:
    """A self-contained simulated cloud region.

    Args:
        latency: latency/throughput model shared by every service.  Defaults
            to :class:`LatencyModel` with AWS-like constants.
        prices: price book shared by every service.  Defaults to AWS-like
            prices (us-east-1, late 2023).
        faas_concurrency_limit: account-wide concurrent FaaS execution limit.
        faas_warm_keepalive_seconds: how long an idle FaaS execution
            environment stays reusable on a shared timeline.  ``None`` keeps
            the legacy timeless reuse rule (single-query experiments); the
            serving layer sets a finite keepalive so cold/warm starts depend
            on the wall-clock gaps between invocations.
    """

    def __init__(
        self,
        latency: Optional[LatencyModel] = None,
        prices: Optional[PriceBook] = None,
        faas_concurrency_limit: int = 1000,
        faas_warm_keepalive_seconds: Optional[float] = None,
    ):
        self.latency = latency or LatencyModel()
        self.prices = prices or PriceBook()
        #: the environment's one hook mount, shared by every service: mounting
        #: a fault injector, tracer or contention op collector here arms all
        #: interception points of this environment (see :mod:`.hooks`).
        self.hooks = ServiceHooks()
        self.ledger = BillingLedger(self.prices, hooks=self.hooks)
        self.faas = FaaSPlatform(
            self.ledger,
            self.latency,
            self.prices,
            concurrency_limit=faas_concurrency_limit,
            warm_keepalive_seconds=faas_warm_keepalive_seconds,
            hooks=self.hooks,
        )
        self.pubsub = PubSubService(self.ledger, self.latency, self.prices, hooks=self.hooks)
        self.queues = QueueService(self.ledger, self.latency, self.prices, hooks=self.hooks)
        self.object_storage = ObjectStorageService(
            self.ledger, self.latency, self.prices, hooks=self.hooks
        )
        self.block_storage = BlockStorageService(
            self.ledger, self.latency, self.prices, hooks=self.hooks
        )
        self.vms = VMService(self.ledger, self.latency, self.prices)

    # -- convenience ---------------------------------------------------------------

    def cost_report(self) -> CostReport:
        """Aggregate cost report over everything billed in this environment."""
        return self.ledger.report()

    def reset_billing(self) -> None:
        """Clear the ledger (between benchmark repetitions)."""
        self.ledger.reset()

    def billing_checkpoint(self) -> int:
        """Marker usable with :meth:`report_since` to scope one experiment's cost."""
        return self.ledger.checkpoint()

    def report_since(self, checkpoint: int) -> CostReport:
        return self.ledger.report_since(checkpoint)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CloudEnvironment(functions={len(self.faas.list_functions())}, "
            f"topics={len(self.pubsub.list_topics())}, "
            f"queues={len(self.queues.list_queues())}, "
            f"buckets={len(self.object_storage.list_buckets())}, "
            f"billed_records={len(self.ledger)})"
        )
