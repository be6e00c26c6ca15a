"""FSD-Inf-Queue: the publish-subscribe + queueing communication channel.

Implements the communication scheme of Figure 2 / Algorithm 1:

* a small pool of pub/sub topics shared by all workers (worker ``m``
  publishes to ``topic-{m % T}``), which spreads publish traffic and raises
  the aggregate API ceiling;
* one dedicated queue per worker; every queue is subscribed to every topic
  with a filter policy on the ``target`` message attribute, so the pub/sub
  service -- not the resource-constrained worker -- performs message routing
  and filtering;
* activation rows are chunked to the 256 KB message limit using the NNZ
  heuristic, grouped into publish batches of up to 10 messages to minimise
  billed publish requests, and published from a worker-side thread pool;
* receivers long-poll their queue, reassemble multi-chunk transfers using the
  ``chunk_count`` message attribute, and delete consumed messages in batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy import sparse

from ..cloud import (
    CloudEnvironment,
    FilterPolicy,
    MAX_PUBLISH_BATCH,
    MAX_PUBLISH_BYTES,
    MAX_MESSAGE_BYTES,
    QueueMessage,
    VirtualClock,
)
from .base import (
    ChannelCapabilities,
    CommChannel,
    PollResult,
    ReceivedBlock,
    SendResult,
    ThreadPool,
)
from .payload import chunk_rows, decode_row_payload

__all__ = ["QueueChannelConfig", "QueueChannel"]

#: Safety margin below the 256 KB limit for attribute/framing overhead.
_MESSAGE_MARGIN_BYTES = 2048


@dataclass(frozen=True)
class QueueChannelConfig:
    """Tunables of the pub-sub/queueing channel."""

    num_topics: int = 10
    long_poll_wait_seconds: float = 5.0
    use_long_polling: bool = True
    compress: bool = True
    max_message_bytes: int = MAX_MESSAGE_BYTES
    resource_prefix: str = "fsd"

    def __post_init__(self) -> None:
        if self.num_topics < 1:
            raise ValueError("at least one topic is required")
        if self.long_poll_wait_seconds < 0:
            raise ValueError("long_poll_wait_seconds cannot be negative")
        if self.max_message_bytes <= _MESSAGE_MARGIN_BYTES:
            raise ValueError("max_message_bytes is too small for the framing margin")


class QueueChannel(CommChannel):
    """Pub-sub + queue based point-to-point channel (FSD-Inf-Queue)."""

    capabilities = ChannelCapabilities(
        name="pubsub+queues",
        serverless=True,
        low_latency_high_throughput=True,
        cost_effective=True,
        flexible_payloads=False,
        many_producers_consumers=True,
        service_side_filtering=True,
        direct_consumer_access=True,
    )

    def __init__(self, cloud: CloudEnvironment, config: Optional[QueueChannelConfig] = None):
        super().__init__()
        self.cloud = cloud
        self.config = config or QueueChannelConfig()
        self._topics = []
        self._queues = []
        self._num_workers = 0
        # Reassembly buffers: (worker, layer, source) -> list of decoded chunks.
        self._partial: Dict[Tuple[int, int, int], List[Tuple[np.ndarray, sparse.csr_matrix]]] = {}
        self._expected_chunks: Dict[Tuple[int, int, int], int] = {}

    # -- lifecycle --------------------------------------------------------------------

    def prepare(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be positive")
        self._num_workers = num_workers
        prefix = self.config.resource_prefix
        self._topics = [
            self.cloud.pubsub.get_or_create_topic(f"{prefix}-topic-{t}")
            for t in range(self.config.num_topics)
        ]
        self._queues = []
        for worker in range(num_workers):
            queue = self.cloud.queues.get_or_create_queue(f"{prefix}-queue-{worker}")
            self._queues.append(queue)
        # Subscribe every queue to every topic, filtered on the target attribute,
        # so routing happens inside the pub/sub service (fan-out design).
        for topic in self._topics:
            already = {id(sub.queue) for sub in topic.subscriptions}
            for worker, queue in enumerate(self._queues):
                if id(queue) in already:
                    continue
                topic.subscribe(queue, FilterPolicy(conditions={"target": [worker]}))

    # -- helpers ------------------------------------------------------------------------

    def _topic_for(self, source: int):
        return self._topics[source % len(self._topics)]

    def _queue_for(self, worker: int):
        return self._queues[worker]

    # -- data plane -----------------------------------------------------------------------

    def send(
        self,
        layer: int,
        source: int,
        target: int,
        global_rows: Sequence[int],
        rows: sparse.spmatrix,
        pool: ThreadPool,
    ) -> SendResult:
        effective_limit = self.config.max_message_bytes - _MESSAGE_MARGIN_BYTES
        chunks = chunk_rows(global_rows, rows, effective_limit, compress=self.config.compress)
        chunk_count = len(chunks)
        messages = [
            QueueMessage(
                body=chunk.payload,
                attributes={
                    "source": source,
                    "target": target,
                    "layer": layer,
                    "chunk_index": index,
                    "chunk_count": chunk_count,
                },
            )
            for index, chunk in enumerate(chunks)
        ]

        topic = self._topic_for(source)
        bytes_sent = 0
        api_calls = 0
        batch: List[QueueMessage] = []
        batch_bytes = 0

        retry = self.cloud.hooks.channel_retry

        def flush(batch_to_send: List[QueueMessage]) -> None:
            nonlocal api_calls
            if not batch_to_send:
                return
            pool.run(
                lambda clock: self._with_transient_retry(
                    retry, clock, lambda: topic.publish_batch(batch_to_send, clock)
                )
            )
            api_calls += 1

        for message in messages:
            exceeds_count = len(batch) >= MAX_PUBLISH_BATCH
            exceeds_bytes = batch_bytes + message.size_bytes > MAX_PUBLISH_BYTES
            if batch and (exceeds_count or exceeds_bytes):
                flush(batch)
                batch = []
                batch_bytes = 0
            batch.append(message)
            batch_bytes += message.size_bytes
            bytes_sent += message.size_bytes
        flush(batch)

        self.stats.bytes_sent += bytes_sent
        self.stats.messages_sent += len(messages)
        self.stats.publish_calls += api_calls
        self.stats.payload_nnz_sent += int(sum(chunk.nnz for chunk in chunks))
        return SendResult(bytes_sent=bytes_sent, chunks=chunk_count, api_calls=api_calls)

    def poll(
        self,
        layer: int,
        worker: int,
        pending_sources: Set[int],
        clock: VirtualClock,
        pool: Optional[ThreadPool] = None,
    ) -> PollResult:
        queue = self._queue_for(worker)
        wait = self.config.long_poll_wait_seconds if self.config.use_long_polling else 0.0
        messages = self._with_transient_retry(
            self.cloud.hooks.channel_retry,
            clock,
            lambda: queue.receive(clock, max_messages=10, wait_seconds=wait),
        )
        self.stats.poll_calls += 1
        if not messages:
            self.stats.empty_polls += 1
            return PollResult()

        result = PollResult()
        for message in messages:
            attributes = message.attributes
            source = int(attributes["source"])
            message_layer = int(attributes["layer"])
            key = (worker, message_layer, source)
            rows_ids, rows_matrix = decode_row_payload(message.body)
            self.stats.bytes_received += message.size_bytes
            self._partial.setdefault(key, []).append((rows_ids, rows_matrix))
            self._expected_chunks[key] = int(attributes["chunk_count"])

            received = len(self._partial[key])
            if received == self._expected_chunks[key] and message_layer == layer:
                parts = self._partial.pop(key)
                self._expected_chunks.pop(key, None)
                all_rows = np.concatenate([ids for ids, _ in parts]) if parts else np.empty(0, dtype=np.int64)
                matrices = [m for _, m in parts if m.shape[0] > 0]
                if len(matrices) == 1:
                    stacked = matrices[0]  # single-chunk transfer (common case)
                elif matrices:
                    stacked = sparse.vstack(matrices, format="csr")
                else:
                    stacked = sparse.csr_matrix((0, rows_matrix.shape[1]), dtype=np.float64)
                result.blocks.append(
                    ReceivedBlock(
                        source=source,
                        global_rows=all_rows,
                        rows=stacked,
                        bytes_received=sum(p[1].nnz for p in parts),
                    )
                )
                result.completed_sources.add(source)

        queue.delete_batch(messages, clock)
        self.stats.delete_calls += 1
        return result
