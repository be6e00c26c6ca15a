"""FSD-Inf-Object: the object-storage communication channel.

Implements the communication scheme of Figure 3 / Algorithm 2:

* a pool of buckets; the object for a transfer to worker ``n`` lives in
  ``bucket-{n % B}``, which multiplies the per-prefix API request ceiling and
  lets every worker read from exactly one bucket/prefix;
* worker ``m`` sending rows to worker ``n`` in layer ``k`` writes a single
  object ``{k}/{n}/{m}_{n}.dat``; when it has nothing to send it writes a
  zero-byte ``{k}/{n}/{m}_{n}.nul`` marker instead, which receivers never GET;
* receivers repeatedly LIST their own prefix, GET only the ``.dat`` objects
  from sources they are still waiting for (redundant reads are skipped), and
  decode/decompress the payloads;
* writes and reads go through the worker's thread pool so that object I/O
  overlaps, as the paper does with ``ThreadPoolExecutor``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

import numpy as np
from scipy import sparse

from ..cloud import CloudEnvironment, ResourceNotFoundError, VirtualClock
from ..sparse import as_csr
from .base import (
    ChannelCapabilities,
    CommChannel,
    PollResult,
    ReceivedBlock,
    SendResult,
    ThreadPool,
)
from .payload import decode_row_payload, encode_row_payload

__all__ = ["ObjectChannelConfig", "ObjectChannel"]


@dataclass(frozen=True)
class ObjectChannelConfig:
    """Tunables of the object-storage channel."""

    num_buckets: int = 10
    compress: bool = True
    scan_backoff_seconds: float = 0.02
    resource_prefix: str = "fsd"

    def __post_init__(self) -> None:
        if self.num_buckets < 1:
            raise ValueError("at least one bucket is required")
        if self.scan_backoff_seconds < 0:
            raise ValueError("scan_backoff_seconds cannot be negative")


class ObjectChannel(CommChannel):
    """Object-storage based point-to-point channel (FSD-Inf-Object)."""

    capabilities = ChannelCapabilities(
        name="object-storage",
        serverless=True,
        low_latency_high_throughput=True,
        cost_effective=False,
        flexible_payloads=True,
        many_producers_consumers=True,
        service_side_filtering=False,
        direct_consumer_access=True,
    )

    def __init__(self, cloud: CloudEnvironment, config: Optional[ObjectChannelConfig] = None):
        super().__init__()
        self.cloud = cloud
        self.config = config or ObjectChannelConfig()
        self._buckets = []
        self._num_workers = 0

    # -- lifecycle ---------------------------------------------------------------------

    def prepare(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be positive")
        self._num_workers = num_workers
        prefix = self.config.resource_prefix
        self._buckets = [
            self.cloud.object_storage.get_or_create_bucket(f"{prefix}-bucket-{b}")
            for b in range(self.config.num_buckets)
        ]

    # -- key layout ----------------------------------------------------------------------

    def _bucket_for(self, target: int):
        return self._buckets[target % len(self._buckets)]

    @staticmethod
    def _prefix(layer: int, target: int) -> str:
        return f"{layer}/{target}/"

    @staticmethod
    def _key(layer: int, source: int, target: int, empty: bool) -> str:
        suffix = "nul" if empty else "dat"
        return f"{layer}/{target}/{source}_{target}.{suffix}"

    @staticmethod
    def _parse_source(key: str) -> int:
        filename = key.rsplit("/", 1)[-1]
        return int(filename.split("_", 1)[0])

    # -- data plane ---------------------------------------------------------------------------

    def send(
        self,
        layer: int,
        source: int,
        target: int,
        global_rows: Sequence[int],
        rows: sparse.spmatrix,
        pool: ThreadPool,
    ) -> SendResult:
        rows = as_csr(rows)
        bucket = self._bucket_for(target)
        has_data = len(global_rows) > 0 and rows.nnz > 0

        retry = self.cloud.hooks.channel_retry

        if not has_data:
            key = self._key(layer, source, target, empty=True)
            pool.run(
                lambda clock: self._with_transient_retry(
                    retry, clock, lambda: bucket.put_object(key, b"", clock)
                )
            )
            self.stats.put_calls += 1
            return SendResult(bytes_sent=0, chunks=0, api_calls=1)

        payload = encode_row_payload(global_rows, rows, compress=self.config.compress)
        key = self._key(layer, source, target, empty=False)
        pool.run(
            lambda clock: self._with_transient_retry(
                retry, clock, lambda: bucket.put_object(key, payload, clock)
            )
        )
        self.stats.put_calls += 1
        self.stats.bytes_sent += len(payload)
        self.stats.messages_sent += 1
        self.stats.payload_nnz_sent += int(rows.nnz)
        return SendResult(bytes_sent=len(payload), chunks=1, api_calls=1)

    def poll(
        self,
        layer: int,
        worker: int,
        pending_sources: Set[int],
        clock: VirtualClock,
        pool: Optional[ThreadPool] = None,
    ) -> PollResult:
        bucket = self._bucket_for(worker)
        prefix = self._prefix(layer, worker)
        retry = self.cloud.hooks.channel_retry
        handles = self._with_transient_retry(
            retry, clock, lambda: bucket.list_objects(prefix, clock)
        )
        self.stats.list_calls += 1

        result = PollResult()
        to_fetch = []
        for handle in handles:
            source = self._parse_source(handle.key)
            if source not in pending_sources or source in result.completed_sources:
                continue
            if handle.key.endswith(".nul"):
                # Nothing to receive from this source for this layer.
                result.completed_sources.add(source)
                continue
            if handle.key.endswith(".dat"):
                to_fetch.append((source, handle.key))

        if not to_fetch:
            if not result.completed_sources:
                self.stats.empty_polls += 1
                clock.advance(self.config.scan_backoff_seconds)
            return result

        fetch_pool = pool or ThreadPool(clock, 1)
        fetched = []
        for source, key in to_fetch:
            payload = fetch_pool.run(
                lambda c, _key=key: self._with_transient_retry(
                    retry, c, lambda: bucket.get_object(_key, c)
                )
            )
            fetched.append((source, payload))
            self.stats.get_calls += 1
        if pool is None:
            fetch_pool.join()

        for source, payload in fetched:
            global_rows, rows = decode_row_payload(payload)
            self.stats.bytes_received += len(payload)
            result.blocks.append(
                ReceivedBlock(
                    source=source,
                    global_rows=global_rows,
                    rows=rows,
                    bytes_received=len(payload),
                )
            )
            result.completed_sources.add(source)
        return result
