"""Simulated message queue service (AWS SQS analogue).

FSD-Inf-Queue gives every FaaS worker a dedicated queue which it polls for
intermediate results (Algorithm 1 in the paper).  The simulation reproduces
the SQS behaviours the algorithm and cost model rely on:

* at most :data:`MAX_RECEIVE_BATCH` messages are returned per receive call;
* the maximum message payload is :data:`MAX_MESSAGE_BYTES` (256 KB);
* *short polling* (wait time 0) returns immediately, and may legitimately
  return nothing even when a message is in flight;
* *long polling* waits up to ``wait_seconds`` for a message to become
  available before returning empty-handed;
* every API call (send, receive, delete) is billed per request.

Messages become visible to consumers only after their ``available_at``
timestamp, which is how delivery latency from the pub/sub fan-out is
propagated into the receiver's virtual clock.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Union

from .billing import SERVICE_QUEUE, BillingLedger
from .errors import (
    BatchTooLargeError,
    InvalidRequestError,
    PayloadTooLargeError,
    ResourceAlreadyExistsError,
    ResourceNotFoundError,
)
from .hooks import ServiceHooks
from .pricing import PriceBook
from .timing import LatencyModel, VirtualClock

__all__ = ["QueueMessage", "Queue", "QueueService", "MAX_RECEIVE_BATCH", "MAX_MESSAGE_BYTES"]

#: SQS returns at most 10 messages per ReceiveMessage call.
MAX_RECEIVE_BATCH = 10
#: Maximum SQS message payload (256 KB).
MAX_MESSAGE_BYTES = 256 * 1024
#: Maximum long-poll wait time supported by SQS.
MAX_WAIT_SECONDS = 20.0

_message_ids = itertools.count()

AttributeValue = Union[str, int, float]


@dataclass
class QueueMessage:
    """A message stored in a queue.

    ``available_at`` is the virtual time at which the message becomes visible
    to consumers; ``attributes`` carries the metadata FSD-Inference uses for
    routing and reassembly (source worker, layer index, chunk counts).
    """

    body: bytes
    attributes: Dict[str, AttributeValue] = field(default_factory=dict)
    available_at: float = 0.0
    message_id: str = field(default_factory=lambda: f"msg-{next(_message_ids)}")

    @property
    def size_bytes(self) -> int:
        return len(self.body)


class Queue:
    """A single FIFO-ish queue with visibility timestamps."""

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
        self._messages: List[QueueMessage] = []
        self.total_messages_received = 0
        self.total_api_calls = 0

    # -- internals -------------------------------------------------------------

    def _bill(self, operation: str, payload_bytes: int, timestamp: float) -> None:
        requests = self._prices.queue_billed_requests(payload_bytes)
        cost = requests * self._prices.queue_price_per_request
        self.total_api_calls += requests
        self._ledger.record(
            service=SERVICE_QUEUE,
            operation=operation,
            resource=self.name,
            quantity=requests,
            cost=cost,
            timestamp=timestamp,
        )

    def _validate_message(self, message: QueueMessage) -> None:
        if message.size_bytes > MAX_MESSAGE_BYTES:
            raise PayloadTooLargeError(message.size_bytes, MAX_MESSAGE_BYTES, "queue")

    # -- producer API ------------------------------------------------------------

    def send(self, message: QueueMessage, clock: VirtualClock) -> None:
        """Send one message directly to the queue (bypassing any pub/sub topic)."""
        self._validate_message(message)
        duration = self._latency.queue_send(message.size_bytes)
        clock.advance(duration)
        injector = self._hooks.injector
        if injector is not None:
            injector.check("queue", "send", self.name, clock.now)
        tracer = self._hooks.tracer
        if tracer is not None:
            tracer.channel_op("queue", "send", self.name, clock.now, bytes=message.size_bytes)
            # +1: the message is appended just below, on the same timestamp.
            tracer.gauge_sample(f"queue.depth.{self.name}", len(self._messages) + 1, clock.now)
        arbiter = self._hooks.arbiter
        if arbiter is not None:
            arbiter.channel_op("queue", "send", self.name, clock.now, duration)
        message.available_at = max(message.available_at, clock.now)
        self._messages.append(message)
        self._bill("send", message.size_bytes, clock.now)

    def deliver(self, message: QueueMessage) -> None:
        """Deliver a message on behalf of the pub/sub service (no queue billing).

        The caller (the topic) is responsible for setting ``available_at`` and
        for recording its own delivery charges; SQS does not bill the
        SNS-to-SQS hop.
        """
        self._validate_message(message)
        self._messages.append(message)

    # -- consumer API ------------------------------------------------------------

    def receive(
        self,
        clock: VirtualClock,
        max_messages: int = MAX_RECEIVE_BATCH,
        wait_seconds: float = 0.0,
    ) -> List[QueueMessage]:
        """Poll the queue, advancing the caller's clock.

        ``wait_seconds == 0`` is *short polling*: the call returns after the
        receive round trip regardless of whether messages were visible.
        ``wait_seconds > 0`` is *long polling*: if nothing is visible, the
        clock advances until either a message becomes visible or the wait
        expires.
        """
        if not 1 <= max_messages <= MAX_RECEIVE_BATCH:
            raise InvalidRequestError(
                f"max_messages must be between 1 and {MAX_RECEIVE_BATCH}, got {max_messages}"
            )
        if wait_seconds < 0 or wait_seconds > MAX_WAIT_SECONDS:
            raise InvalidRequestError(
                f"wait_seconds must be between 0 and {MAX_WAIT_SECONDS}, got {wait_seconds}"
            )

        duration = self._latency.queue_receive()
        clock.advance(duration)
        injector = self._hooks.injector
        if injector is not None:
            injector.check("queue", "receive", self.name, clock.now)
        tracer = self._hooks.tracer
        if tracer is not None:
            tracer.channel_op("queue", "receive", self.name, clock.now)
        arbiter = self._hooks.arbiter
        if arbiter is not None:
            arbiter.channel_op("queue", "receive", self.name, clock.now, duration)
        visible = self._visible_messages(clock.now)

        if not visible and wait_seconds > 0:
            next_available = self._next_available_time()
            if next_available is not None and next_available <= clock.now + wait_seconds:
                clock.advance_to(next_available)
                visible = self._visible_messages(clock.now)
            else:
                clock.advance(wait_seconds)
                visible = self._visible_messages(clock.now)

        batch = visible[:max_messages]
        payload_bytes = sum(m.size_bytes for m in batch)
        self._bill("receive", payload_bytes, clock.now)
        self.total_messages_received += len(batch)
        for message in batch:
            self._messages.remove(message)
        if tracer is not None:
            tracer.gauge_sample(f"queue.depth.{self.name}", len(self._messages), clock.now)
        return batch

    def delete_batch(self, messages: Iterable[QueueMessage], clock: VirtualClock) -> None:
        """Acknowledge a batch of received messages (one billed API call)."""
        messages = list(messages)
        if not messages:
            return
        if len(messages) > MAX_RECEIVE_BATCH:
            raise BatchTooLargeError(len(messages), MAX_RECEIVE_BATCH, "queue")
        clock.advance(self._latency.queue_delete())
        tracer = self._hooks.tracer
        if tracer is not None:
            tracer.channel_op("queue", "delete", self.name, clock.now, count=len(messages))
        self._bill("delete", 0, clock.now)

    # -- inspection ---------------------------------------------------------------

    def _visible_messages(self, now: float) -> List[QueueMessage]:
        return sorted(
            (m for m in self._messages if m.available_at <= now),
            key=lambda m: (m.available_at, m.message_id),
        )

    def _next_available_time(self) -> Optional[float]:
        if not self._messages:
            return None
        return min(m.available_at for m in self._messages)

    @property
    def depth(self) -> int:
        """Number of messages currently stored (visible or in flight)."""
        return len(self._messages)

    def purge(self) -> None:
        self._messages.clear()


class QueueService:
    """Account-level queue registry (the SQS control plane)."""

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
        self._queues: Dict[str, Queue] = {}

    def create_queue(self, name: str) -> Queue:
        if name in self._queues:
            raise ResourceAlreadyExistsError(f"queue '{name}' already exists")
        queue = Queue(
            name,
            self._ledger,
            self._latency,
            self._prices,
            hooks=self._hooks,
        )
        self._queues[name] = queue
        return queue

    def get_queue(self, name: str) -> Queue:
        try:
            return self._queues[name]
        except KeyError:
            raise ResourceNotFoundError(f"queue '{name}' does not exist") from None

    def get_or_create_queue(self, name: str) -> Queue:
        if name in self._queues:
            return self._queues[name]
        return self.create_queue(name)

    def delete_queue(self, name: str) -> None:
        if name not in self._queues:
            raise ResourceNotFoundError(f"queue '{name}' does not exist")
        del self._queues[name]

    def list_queues(self) -> List[str]:
        return sorted(self._queues)

    def __contains__(self, name: str) -> bool:
        return name in self._queues
