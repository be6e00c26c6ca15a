"""Simulated publish/subscribe service (AWS SNS analogue).

FSD-Inf-Queue publishes intermediate-result messages to a small pool of
topics; each topic fans the messages out to per-worker queues according to
*filter policies* on message attributes, so the resource-constrained FaaS
workers never see messages that are not addressed to them (Section III-A).

The simulation reproduces the SNS behaviours the algorithm and cost model
depend on:

* a publish batch carries at most :data:`MAX_PUBLISH_BATCH` messages and at
  most :data:`MAX_PUBLISH_BYTES` of payload in total;
* publishes are billed in 64 KB increments (a full 256 KB batch costs four
  billed requests);
* bytes delivered from the topic to queues are billed per byte;
* delivery is asynchronous: delivered messages become visible in the target
  queue only after the fan-out delivery latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from .billing import SERVICE_PUBSUB, BillingLedger
from .errors import (
    BatchTooLargeError,
    InvalidRequestError,
    PayloadTooLargeError,
    ResourceAlreadyExistsError,
    ResourceNotFoundError,
)
from .hooks import ServiceHooks
from .pricing import PriceBook
from .queues import AttributeValue, Queue, QueueMessage
from .timing import LatencyModel, VirtualClock

__all__ = [
    "FilterPolicy",
    "Subscription",
    "Topic",
    "PubSubService",
    "MAX_PUBLISH_BATCH",
    "MAX_PUBLISH_BYTES",
]

#: SNS PublishBatch accepts at most 10 messages per call.
MAX_PUBLISH_BATCH = 10
#: Total payload limit of one publish batch (256 KB).
MAX_PUBLISH_BYTES = 256 * 1024


@dataclass(frozen=True)
class FilterPolicy:
    """An attribute-equality filter policy.

    A message matches when, for every key in ``conditions``, the message has
    that attribute and its value is one of the allowed values.  This captures
    the subset of SNS filter-policy semantics FSD-Inference needs (exact
    matching on the target-worker attribute).
    """

    conditions: Mapping[str, Sequence[AttributeValue]]

    def matches(self, attributes: Mapping[str, AttributeValue]) -> bool:
        for key, allowed in self.conditions.items():
            if key not in attributes:
                return False
            if attributes[key] not in allowed:
                return False
        return True


@dataclass
class Subscription:
    """A queue subscribed to a topic, optionally guarded by a filter policy."""

    queue: Queue
    filter_policy: Optional[FilterPolicy] = None

    def accepts(self, attributes: Mapping[str, AttributeValue]) -> bool:
        if self.filter_policy is None:
            return True
        return self.filter_policy.matches(attributes)


class Topic:
    """A pub/sub topic with filtered fan-out to subscribed queues."""

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
        self._subscriptions: List[Subscription] = []
        self.total_publish_calls = 0
        self.total_messages_published = 0
        self.total_bytes_delivered = 0

    # -- subscription management -------------------------------------------------

    def subscribe(self, queue: Queue, filter_policy: Optional[FilterPolicy] = None) -> Subscription:
        subscription = Subscription(queue=queue, filter_policy=filter_policy)
        self._subscriptions.append(subscription)
        return subscription

    @property
    def subscriptions(self) -> List[Subscription]:
        return list(self._subscriptions)

    # -- publishing ----------------------------------------------------------------

    def publish_batch(self, messages: Sequence[QueueMessage], clock: VirtualClock) -> int:
        """Publish up to 10 messages in one API call.

        Advances the caller's clock by the publish latency, bills the publish
        (in 64 KB increments) and the delivered bytes, and delivers matching
        messages to subscribed queues with the fan-out delivery latency.

        Returns the number of queue deliveries performed.
        """
        if not messages:
            raise InvalidRequestError("publish batch cannot be empty")
        if len(messages) > MAX_PUBLISH_BATCH:
            raise BatchTooLargeError(len(messages), MAX_PUBLISH_BATCH, "pubsub")
        payload_bytes = sum(m.size_bytes for m in messages)
        if payload_bytes > MAX_PUBLISH_BYTES:
            raise PayloadTooLargeError(payload_bytes, MAX_PUBLISH_BYTES, "pubsub")

        duration = self._latency.pubsub_publish(payload_bytes)
        clock.advance(duration)
        injector = self._hooks.injector
        if injector is not None:
            injector.check("pubsub", "publish", self.name, clock.now)
        tracer = self._hooks.tracer
        if tracer is not None:
            tracer.channel_op(
                "pubsub", "publish", self.name, clock.now,
                messages=len(messages), bytes=payload_bytes,
            )
        arbiter = self._hooks.arbiter
        if arbiter is not None:
            arbiter.channel_op("pubsub", "publish", self.name, clock.now, duration)
        self.total_publish_calls += 1
        self.total_messages_published += len(messages)

        billed_requests = self._prices.pubsub_billed_requests(payload_bytes)
        self._ledger.record(
            service=SERVICE_PUBSUB,
            operation="publish",
            resource=self.name,
            quantity=billed_requests,
            cost=billed_requests * self._prices.pubsub_price_per_publish,
            timestamp=clock.now,
        )

        deliveries = 0
        delivered_bytes = 0
        delivery_time = clock.now + self._latency.pubsub_delivery()
        for message in messages:
            for subscription in self._subscriptions:
                if not subscription.accepts(message.attributes):
                    continue
                delivered = QueueMessage(
                    body=message.body,
                    attributes=dict(message.attributes),
                    available_at=delivery_time,
                )
                subscription.queue.deliver(delivered)
                deliveries += 1
                delivered_bytes += message.size_bytes

        if delivered_bytes:
            self.total_bytes_delivered += delivered_bytes
            self._ledger.record(
                service=SERVICE_PUBSUB,
                operation="delivery_bytes",
                resource=self.name,
                quantity=delivered_bytes,
                cost=delivered_bytes * self._prices.pubsub_price_per_byte_delivered,
                timestamp=delivery_time,
            )
        return deliveries

    def publish(self, message: QueueMessage, clock: VirtualClock) -> int:
        """Publish a single message (convenience wrapper over publish_batch)."""
        return self.publish_batch([message], clock)


class PubSubService:
    """Account-level topic registry (the SNS control plane)."""

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
        self._topics: Dict[str, Topic] = {}

    def create_topic(self, name: str) -> Topic:
        if name in self._topics:
            raise ResourceAlreadyExistsError(f"topic '{name}' already exists")
        topic = Topic(
            name,
            self._ledger,
            self._latency,
            self._prices,
            hooks=self._hooks,
        )
        self._topics[name] = topic
        return topic

    def get_topic(self, name: str) -> Topic:
        try:
            return self._topics[name]
        except KeyError:
            raise ResourceNotFoundError(f"topic '{name}' does not exist") from None

    def get_or_create_topic(self, name: str) -> Topic:
        if name in self._topics:
            return self._topics[name]
        return self.create_topic(name)

    def delete_topic(self, name: str) -> None:
        if name not in self._topics:
            raise ResourceNotFoundError(f"topic '{name}' does not exist")
        del self._topics[name]

    def list_topics(self) -> List[str]:
        return sorted(self._topics)

    def __contains__(self, name: str) -> bool:
        return name in self._topics
