"""The vectorized replay core: two tiers of fast path behind ``serve()``.

Replaying a day of sporadic traffic is dominated by re-simulating the same
handful of ``(model size, batch)`` combinations thousands of times.  This
module collapses that cost in two tiers, both behind the unchanged
:meth:`~repro.serving.server.InferenceServer.serve` surface:

**Tier A -- whole-execution outcome memoisation** (:class:`ReplayOutcomeCache`,
:class:`OutcomeCacheMixin`).  A backend execution is keyed on ``(model size,
batch fingerprint)`` plus -- for the FaaS backend -- the *cold/warm claim
pattern* the execution observed on the warm pool.  A hit replays the
recorded latency, cost, billing and channel-stats deltas translated to the
new ``at_time`` instead of re-simulating the engine.  Two rules keep the
cache honest:

* **seen-once rule**: nothing is recorded from the *first* real execution of
  a key, so one-time setup (engine build, partition planning, function
  creation) never leaks into a replayed delta;
* **claim replay**: before a cached FaaS outcome is accepted, its recorded
  claim/free events are replayed against a *copy* of the live warm pools at
  the translated times.  If any claim would resolve cold where the recording
  was warm (or vice versa) the entry is rejected -- cold and warm executions
  can never shadow each other -- and the pool copies are only committed on a
  full match.

Time translation is *not* bit-exact (absolute-time float arithmetic drifts
in the last bits, ~1e-12 relative), so the cache is **opt-in**
(``ServingConfig(outcome_cache=True)``) and every historical fingerprint is
produced with it off.  What *is* bit-exact -- and locked by tests -- is the
equivalence of the tiers below against the exact event loop **under the same
cache setting**.

**Tier B -- columnar event core** (:func:`columnar_serve`), a specialisation
of the event-loop kernel for immediate admission that shares its hook mounts
and its span emitter.  When no policies, no chaos and no admission bound are
configured, the heap/deque event loop degenerates to "execute in arrival
order"; this tier replaces it with numpy arrival columns, a flat execution
loop and array aggregation (:func:`peak_overlap_arrays`, chunked exact cost
folds), producing a
:class:`~repro.serving.server.ServingReport` whose ``summary()`` is
bit-identical to the exact loop's.  Per-query :class:`QueryRecord` objects
materialise lazily (:class:`LazyRecordList`) so million-query replays never
build a million dataclasses unless someone iterates them.

Chaos is the hard boundary: fault injection is time-positional, so a
chaos-configured serve never activates the cache and always runs the exact
event loop.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from ..cloud.billing import CostReport, UsageRecord
from ..cloud.faas import InvocationRecord, claim_from_pool
from ..comm import ChannelStats
from ..sparse.matrix import csr_digest as batch_fingerprint

__all__ = [
    "CHANNEL_FIELDS",
    "batch_fingerprint",
    "OutcomeEntry",
    "ReplayOutcomeCache",
    "OutcomeCacheMixin",
    "ColumnarSink",
    "ReportColumns",
    "LazyRecordList",
    "peak_overlap_arrays",
    "columnar_serve",
]

#: stable field order of :class:`ChannelStats` (all-integer counters), used
#: to vectorize accumulation: ``sum of vecs`` is exactly ``accumulate`` folds.
# detlint: allow[DET004] dataclass field order is declaration order, deterministic across runs
CHANNEL_FIELDS: Tuple[str, ...] = tuple(vars(ChannelStats()).keys())


def _channel_vec(stats: Optional[ChannelStats]) -> Optional[np.ndarray]:
    if stats is None:
        return None
    return np.asarray([getattr(stats, name) for name in CHANNEL_FIELDS], dtype=np.int64)


def _stats_from_vec(vec: np.ndarray) -> ChannelStats:
    stats = ChannelStats()
    for name, value in zip(CHANNEL_FIELDS, vec.tolist()):
        setattr(stats, name, int(value))
    return stats


class _CostBlock:
    """One contiguous run of billing records, pre-split per aggregation key.

    ``cost`` is the record costs in ledger order; ``svc_split``/``op_split``
    map each service / ``"service:operation"`` key to that key's cost
    *subsequence* (order preserved), so the sequential per-key folds of
    :meth:`BillingLedger.report` can be reproduced exactly from blocks.
    """

    __slots__ = ("cost", "svc_split", "op_split")

    def __init__(self, records: Sequence[UsageRecord]):
        self.cost = np.fromiter(
            (record.cost for record in records), np.float64, count=len(records)
        )
        svc_idx: Dict[str, List[int]] = {}
        op_idx: Dict[str, List[int]] = {}
        for index, record in enumerate(records):
            svc_idx.setdefault(record.service, []).append(index)
            op_idx.setdefault(f"{record.service}:{record.operation}", []).append(index)
        self.svc_split = {
            key: self.cost[np.asarray(indices, dtype=np.intp)]
            for key, indices in svc_idx.items()
        }
        self.op_split = {
            key: self.cost[np.asarray(indices, dtype=np.intp)]
            for key, indices in op_idx.items()
        }


def _fold_flush(acc: float, arrays: List[np.ndarray]) -> float:
    """Exact sequential left fold of ``arrays`` seeded with carry ``acc``.

    The carry is *prepended* into the buffer before ``np.add.accumulate``
    (which scans strictly left-to-right); ``acc + cumsum`` would reassociate
    the first addition and break bit-parity with the pure-Python fold.
    """
    cat = np.concatenate(arrays) if len(arrays) > 1 else arrays[0]
    buf = np.empty(cat.size + 1, dtype=np.float64)
    buf[0] = acc
    buf[1:] = cat
    np.add.accumulate(buf, out=buf)
    return float(buf[-1])


def _fold_sequence(chunks: List[np.ndarray], chunk_limit: int = 1 << 20) -> float:
    """Fold many arrays as one sequence, bit-identical to ``sum`` in a loop."""
    acc = 0.0
    pending: List[np.ndarray] = []
    size = 0
    for array in chunks:
        if not array.size:
            continue
        pending.append(array)
        size += array.size
        if size >= chunk_limit:
            acc = _fold_flush(acc, pending)
            pending = []
            size = 0
    if pending:
        acc = _fold_flush(acc, pending)
    return acc


class OutcomeEntry:
    """One recorded backend execution, re-playable at any ``at_time``.

    Everything time-like is stored relative to the recording's ``at_time``;
    a replay adds the new ``at_time`` back (the same float operation the
    simulator itself performs, so replays agree with each other bit-for-bit).
    """

    __slots__ = (
        "latency_seconds",
        "cost",
        "cold_starts",
        "warm_starts",
        "channel_stats",
        "channel_vec",
        "result",
        "usage_records",
        "usage_ts_rel",
        "pool_events",
        "pool_fns",
        "inv_records",
        "inv_rel_started",
        "inv_rel_finished",
        "inv_id_offsets",
        "inv_count",
        "_cost_block",
    )

    @classmethod
    def capture(
        cls,
        cloud: Any,
        faas: Any,
        ledger_start: int,
        records_start: int,
        id_start: int,
        events: Optional[List[Tuple]],
        at_time: float,
        outcome: Any,
    ) -> "OutcomeEntry":
        entry = cls()
        entry.latency_seconds = outcome.latency_seconds
        entry.cost = outcome.cost
        entry.cold_starts = outcome.cold_starts
        entry.warm_starts = outcome.warm_starts
        entry.channel_stats = outcome.channel_stats
        entry.channel_vec = _channel_vec(outcome.channel_stats)
        entry.result = outcome.result
        entry._cost_block = None

        if cloud is not None:
            usage = cloud.ledger._records[ledger_start:]
        else:
            usage = []
        entry.usage_records = usage
        entry.usage_ts_rel = np.fromiter(
            (record.timestamp - at_time for record in usage), np.float64, count=len(usage)
        )

        if faas is not None:
            invocations = faas.invocation_records[records_start:]
            entry.inv_records = invocations
            entry.inv_count = len(invocations)
            entry.inv_rel_started = np.fromiter(
                (record.started_at - at_time for record in invocations),
                np.float64,
                count=len(invocations),
            )
            entry.inv_rel_finished = np.fromiter(
                (record.finished_at - at_time for record in invocations),
                np.float64,
                count=len(invocations),
            )
            entry.inv_id_offsets = [
                record.invocation_id - id_start for record in invocations
            ]
            pool_events: List[Tuple] = []
            fns = set()
            for event in events or ():
                if event[0] == "claim":
                    _, name, request_time, cold = event
                    pool_events.append(("claim", name, request_time - at_time, cold))
                else:
                    _, name, freed_at = event
                    pool_events.append(("free", name, freed_at - at_time))
                fns.add(event[1])
            entry.pool_events = pool_events
            entry.pool_fns = tuple(fns)
        else:
            entry.inv_records = []
            entry.inv_count = 0
            entry.inv_rel_started = np.empty(0)
            entry.inv_rel_finished = np.empty(0)
            entry.inv_id_offsets = []
            entry.pool_events = []
            entry.pool_fns = ()
        return entry

    def cost_block(self) -> _CostBlock:
        if self._cost_block is None:
            self._cost_block = _CostBlock(self.usage_records)
        return self._cost_block

    def outcome(self) -> Any:
        """The replayed :class:`QueryOutcome` (shares the recorded result
        and channel-stats objects; both are only ever read downstream)."""
        from .backends import QueryOutcome

        return QueryOutcome(
            latency_seconds=self.latency_seconds,
            cost=self.cost,
            cold_starts=self.cold_starts,
            warm_starts=self.warm_starts,
            channel_stats=self.channel_stats,
            result=self.result,
        )

    def materialise(self, cloud: Any, faas: Any, at_time: float) -> None:
        """Append the translated billing/invocation records for one replay.

        This is the exact-loop hit path: the ledger and invocation history
        must look as if the execution really ran at ``at_time``, so scoped
        ``report_since`` folds and ``worker_intervals`` stay exact.
        """
        if cloud is not None and self.usage_records:
            records = cloud.ledger._records
            for record, rel in zip(self.usage_records, self.usage_ts_rel.tolist()):
                records.append(
                    UsageRecord(
                        service=record.service,
                        operation=record.operation,
                        resource=record.resource,
                        quantity=record.quantity,
                        cost=record.cost,
                        timestamp=at_time + rel,
                    )
                )
        if faas is not None and self.inv_count:
            base = faas._next_invocation_id
            started = self.inv_rel_started.tolist()
            finished = self.inv_rel_finished.tolist()
            for index, record in enumerate(self.inv_records):
                faas.invocation_records.append(
                    InvocationRecord(
                        function_name=record.function_name,
                        invocation_id=base + self.inv_id_offsets[index],
                        started_at=at_time + started[index],
                        finished_at=at_time + finished[index],
                        runtime_seconds=record.runtime_seconds,
                        memory_mb=record.memory_mb,
                        cold=record.cold,
                        gb_seconds=record.gb_seconds,
                        cost=record.cost,
                        failed_reason=record.failed_reason,
                    )
                )
            faas._next_invocation_id = base + self.inv_count


class ReplayOutcomeCache:
    """Keyed store of :class:`OutcomeEntry` with claim-pattern matching.

    Keys are ``(neurons, samples, batch digest)``.  Several entries can live
    under one key -- one per observed cold/warm claim pattern -- in MRU
    order.  ``claims=True`` (the FaaS backend) validates each entry against
    the live warm pools before accepting it; claims-free backends replay the
    most recent entry unconditionally (their outcomes are deterministic per
    key up to time translation).
    """

    def __init__(self, claims: bool = False, max_entries_per_key: int = 8):
        self.claims = claims
        self._max_entries = max_entries_per_key
        self._entries: Dict[Tuple, List[OutcomeEntry]] = {}
        self._seen: Dict[Tuple, int] = {}
        self._digests: Dict[Tuple[int, int], bytes] = {}

    # -- keying ---------------------------------------------------------------

    def canonical_digest(self, neurons: int, samples: int, batch: sparse.spmatrix) -> bytes:
        """Digest of the factory-canonical batch for ``(neurons, samples)``.

        The factory caches one batch object per pair, so the digest can be
        memoised on the pair; ad-hoc batches (coalesced merges) must be
        hashed fresh by the caller instead.
        """
        key = (neurons, samples)
        digest = self._digests.get(key)
        if digest is None:
            digest = batch_fingerprint(batch)
            self._digests[key] = digest
        return digest

    # -- replay ---------------------------------------------------------------

    def lookup(
        self, key: Tuple, at_time: float, faas: Any
    ) -> Optional[Tuple[OutcomeEntry, Optional[Dict[str, List[float]]]]]:
        """Find an entry whose recorded claim pattern reproduces at ``at_time``.

        Claims are replayed on *copies* of the warm pools; the caller commits
        them via :meth:`commit_pools` only after accepting the hit, so a
        rejected entry's evictions never leak into the live platform.
        """
        bucket = self._entries.get(key)
        if not bucket:
            return None
        if faas is None or not self.claims:
            return bucket[0], None
        keepalive = faas.warm_keepalive_seconds
        live = faas._warm_environments
        for index, entry in enumerate(bucket):
            pools = {name: list(live.get(name, ())) for name in entry.pool_fns}
            matched = True
            for event in entry.pool_events:
                if event[0] == "claim":
                    _, name, rel, expected_cold = event
                    claimed_warm = claim_from_pool(pools[name], at_time + rel, keepalive)
                    if claimed_warm != (not expected_cold):
                        matched = False
                        break
                else:
                    pools[event[1]].append(at_time + event[2])
            if matched:
                if index:
                    bucket.insert(0, bucket.pop(index))
                return entry, pools
        return None

    @staticmethod
    def commit_pools(faas: Any, pools: Dict[str, List[float]]) -> None:
        for name, pool in pools.items():
            faas._warm_environments[name] = pool

    # -- recording ------------------------------------------------------------

    def begin_capture(self, cloud: Any, faas: Any) -> Tuple:
        ledger_start = len(cloud.ledger._records) if cloud is not None else 0
        if faas is not None:
            previous_log = faas.replay_log
            faas.replay_log = []
            records_start = len(faas.invocation_records)
            id_start = faas._next_invocation_id
        else:
            previous_log = None
            records_start = 0
            id_start = 0
        return (cloud, faas, ledger_start, records_start, id_start, previous_log)

    @staticmethod
    def abort_capture(token: Tuple) -> None:
        _, faas, _, _, _, previous_log = token
        if faas is not None:
            faas.replay_log = previous_log

    def end_capture(
        self,
        token: Tuple,
        key: Tuple,
        at_time: float,
        outcome: Any,
        sink: Optional["ColumnarSink"],
    ) -> None:
        cloud, faas, ledger_start, records_start, id_start, previous_log = token
        events = None
        if faas is not None:
            events = faas.replay_log
            faas.replay_log = previous_log
        if sink is not None:
            if cloud is not None:
                sink.add_ledger_slice(cloud.ledger._records, ledger_start)
            if outcome.channel_stats is not None:
                sink.miss_channel.accumulate(outcome.channel_stats)
        seen = self._seen.get(key, 0)
        self._seen[key] = seen + 1
        if seen < 1:
            # Seen-once rule: the first real execution of a key pays one-time
            # setup (engine build, planning, function creation) whose deltas
            # must never be replayed as marginal per-query cost.
            return
        entry = OutcomeEntry.capture(
            cloud, faas, ledger_start, records_start, id_start, events, at_time, outcome
        )
        bucket = self._entries.setdefault(key, [])
        bucket.insert(0, entry)
        del bucket[self._max_entries :]


class OutcomeCacheMixin:
    """Grafts Tier-A outcome memoisation onto a :class:`ServingBackend`.

    Concrete backends rename their substrate call to ``_execute_real``; the
    mixin's ``_execute`` consults the cache first.  ``cache_claims`` marks
    backends whose cold/warm behaviour depends on live platform state (the
    FaaS warm pool); claims-free backends replay unconditionally.
    """

    supports_outcome_cache = True
    cache_claims = False

    outcome_cache: Optional[ReplayOutcomeCache] = None
    _cache_active = False
    _cache_sink: Optional["ColumnarSink"] = None

    def set_outcome_caching(self, enabled: bool) -> None:
        if enabled and self.outcome_cache is None:
            self.outcome_cache = ReplayOutcomeCache(claims=self.cache_claims)
        self._cache_active = bool(enabled)
        if not enabled:
            self._cache_sink = None

    # -- wiring helpers -------------------------------------------------------

    def _cache_cloud(self) -> Any:
        return getattr(self, "cloud", None)

    def _cache_faas(self) -> Any:
        if not self.cache_claims:
            return None
        cloud = self._cache_cloud()
        return cloud.faas if cloud is not None else None

    def _cache_key(self, query: Any, batch: sparse.spmatrix) -> Tuple:
        samples = batch.shape[1]
        cache = self.outcome_cache
        canonical = self.factory._batches.get((query.neurons, samples))
        if canonical is batch:
            digest = cache.canonical_digest(query.neurons, samples, batch)
        else:
            digest = batch_fingerprint(batch)
        return (query.neurons, samples, digest)

    def _on_cached_outcome(self, outcome: Any, at_time: float) -> None:
        """Hook for per-hit backend bookkeeping (e.g. interval tracking)."""

    # -- the cached execution path -------------------------------------------

    def _execute(self, query, model, batch, at_time):
        if not self._cache_active:
            return self._execute_real(query, model, batch, at_time)
        cache = self.outcome_cache
        faas = self._cache_faas()
        key = self._cache_key(query, batch)
        hit = cache.lookup(key, at_time, faas)
        if hit is not None:
            entry, pools = hit
            if pools is not None:
                cache.commit_pools(faas, pools)
            sink = self._cache_sink
            if sink is not None:
                # Columnar mode: stream the delta; skip materialising
                # per-record ledger objects (1M queries would mean ~3e8 of
                # them).  Invocation ids still advance for consistency.
                sink.on_hit(entry, at_time)
                if faas is not None and entry.inv_count:
                    faas._next_invocation_id += entry.inv_count
            else:
                entry.materialise(self._cache_cloud(), faas, at_time)
            outcome = entry.outcome()
            self._on_cached_outcome(outcome, at_time)
            return outcome
        token = cache.begin_capture(self._cache_cloud(), faas)
        try:
            outcome = self._execute_real(query, model, batch, at_time)
        except BaseException:
            cache.abort_capture(token)
            raise
        cache.end_capture(token, key, at_time, outcome, self._cache_sink)
        return outcome


class ColumnarSink:
    """Collects cost/channel/interval deltas during a columnar serve.

    Hits contribute their entry's shared arrays (no per-record objects);
    misses contribute the ledger slice they really appended.  The stream is
    folded into a :class:`CostReport` bit-identical to the exact loop's
    scoped ``report_since`` fold over the same record sequence.
    """

    def __init__(self) -> None:
        self.blocks: List[_CostBlock] = []
        self.record_count = 0
        #: id(entry) -> [entry, hit count, at_times of hits]
        self.hits: Dict[int, List] = {}
        self.miss_channel = ChannelStats()

    def add_ledger_slice(self, records: List[UsageRecord], start: int) -> None:
        tail = records[start:]
        if tail:
            block = _CostBlock(tail)
            self.blocks.append(block)
            self.record_count += len(tail)

    def on_hit(self, entry: OutcomeEntry, at_time: float) -> None:
        block = entry.cost_block()
        if block.cost.size:
            self.blocks.append(block)
            self.record_count += block.cost.size
        slot = self.hits.get(id(entry))
        if slot is None:
            self.hits[id(entry)] = slot = [entry, 0, []]
        slot[1] += 1
        slot[2].append(at_time)

    def cost_report(self) -> CostReport:
        total_chunks: List[np.ndarray] = []
        svc_chunks: Dict[str, List[np.ndarray]] = {}
        op_chunks: Dict[str, List[np.ndarray]] = {}
        for block in self.blocks:
            total_chunks.append(block.cost)
            for key, values in block.svc_split.items():
                svc_chunks.setdefault(key, []).append(values)
            for key, values in block.op_split.items():
                op_chunks.setdefault(key, []).append(values)
        return CostReport(
            total=_fold_sequence(total_chunks),
            by_service={key: _fold_sequence(v) for key, v in svc_chunks.items()},
            by_operation={key: _fold_sequence(v) for key, v in op_chunks.items()},
            record_count=self.record_count,
        )

    def channel_stats(self) -> ChannelStats:
        vec = _channel_vec(self.miss_channel)
        for entry, count, _ in self.hits.values():
            if entry.channel_vec is not None:
                vec = vec + entry.channel_vec * count
        return _stats_from_vec(vec)

    def hit_interval_arrays(self) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Worker intervals of replayed hits, translated per hit time."""
        starts: List[np.ndarray] = []
        ends: List[np.ndarray] = []
        for entry, _, times in self.hits.values():
            if entry.inv_count and times:
                at = np.asarray(times, dtype=np.float64)
                starts.append((at[:, None] + entry.inv_rel_started).ravel())
                ends.append((at[:, None] + entry.inv_rel_finished).ravel())
        return starts, ends


def peak_overlap_arrays(starts: np.ndarray, ends: np.ndarray) -> int:
    """Array form of :func:`~repro.serving.server.peak_overlap`, integer-exact.

    Same semantics: touching endpoints do not overlap (ends release before
    starts at equal times), zero-length intervals are momentarily active
    between the ends and starts at their instant.
    """
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    if starts.size == 0:
        return 0
    positive = ends > starts
    zero = ~positive
    n_pos = int(positive.sum())
    n_zero = int(zero.sum())
    times = np.concatenate([starts[positive], ends[positive], starts[zero]])
    kinds = np.concatenate(
        [
            np.ones(n_pos, dtype=np.int8),
            np.full(n_pos, -1, dtype=np.int8),
            np.zeros(n_zero, dtype=np.int8),
        ]
    )
    order = np.lexsort((kinds, times))
    kinds = kinds[order]
    running = np.cumsum(kinds, dtype=np.int64)
    peak = 0
    plus = kinds == 1
    if plus.any():
        peak = int(running[plus].max())
    if n_zero:
        times = times[order]
        zero_mask = kinds == 0
        zero_times = times[zero_mask]
        zero_running = running[zero_mask]
        _, first_index, counts = np.unique(
            zero_times, return_index=True, return_counts=True
        )
        candidates = zero_running[first_index] + counts
        peak = max(peak, int(candidates.max()))
    return peak


class ReportColumns:
    """Structured per-query columns of a fast-path serve, in record order."""

    __slots__ = (
        "query_id",
        "neurons",
        "samples",
        "arrival",
        "started",
        "finished",
        "cost",
        "cold",
        "warm",
        "tenants",
        "_latencies",
    )

    def __init__(
        self,
        query_id: np.ndarray,
        neurons: np.ndarray,
        samples: np.ndarray,
        arrival: np.ndarray,
        started: np.ndarray,
        finished: np.ndarray,
        cost: np.ndarray,
        cold: np.ndarray,
        warm: np.ndarray,
        tenants: Optional[List[Optional[str]]],
    ):
        self.query_id = query_id
        self.neurons = neurons
        self.samples = samples
        self.arrival = arrival
        self.started = started
        self.finished = finished
        self.cost = cost
        self.cold = cold
        self.warm = warm
        self.tenants = tenants
        self._latencies = None

    def __len__(self) -> int:
        return int(self.query_id.size)

    @property
    def latencies(self) -> np.ndarray:
        # finished - arrival elementwise: the same float op as the record
        # property ``latency_seconds``, so values match the exact loop's.
        if self._latencies is None:
            self._latencies = self.finished - self.arrival
        return self._latencies

    def record_at(self, index: int):
        from .server import QueryRecord

        return QueryRecord(
            query_id=int(self.query_id[index]),
            neurons=int(self.neurons[index]),
            samples=int(self.samples[index]),
            arrival_time=float(self.arrival[index]),
            started_at=float(self.started[index]),
            finished_at=float(self.finished[index]),
            cost=float(self.cost[index]),
            cold_starts=int(self.cold[index]),
            warm_starts=int(self.warm[index]),
            tenant=self.tenants[index] if self.tenants is not None else None,
        )


class LazyRecordList(Sequence):
    """Sequence of :class:`QueryRecord` materialised on first real access.

    ``len()`` (and truthiness) never materialise, so columnar aggregates can
    size themselves for free; iteration or indexing builds the record list
    once and caches it.
    """

    def __init__(self, columns: ReportColumns):
        self._columns = columns
        self._records: Optional[List] = None

    def _materialise(self) -> List:
        if self._records is None:
            columns = self._columns
            self._records = [columns.record_at(i) for i in range(len(columns))]
        return self._records

    def __len__(self) -> int:
        return len(self._columns)

    def __getitem__(self, index):
        return self._materialise()[index]

    def __iter__(self):
        return iter(self._materialise())


def _trace_columns(queries: Sequence) -> Tuple[np.ndarray, ...]:
    """Vectorized ``iter_trace`` ordering: sort by (arrival_time, query_id)."""
    n = len(queries)
    query_id = np.fromiter((q.query_id for q in queries), np.int64, count=n)
    arrival = np.fromiter((q.arrival_time for q in queries), np.float64, count=n)
    order = np.lexsort((query_id, arrival))
    neurons = np.fromiter((q.neurons for q in queries), np.int64, count=n)[order]
    samples = np.fromiter((q.samples for q in queries), np.int64, count=n)[order]
    return order, query_id[order], arrival[order], neurons, samples


def _worker_peak(
    backend, sink: Optional[ColumnarSink]
) -> int:
    starts: List[np.ndarray] = []
    ends: List[np.ndarray] = []
    intervals = backend.worker_intervals()
    if intervals:
        pairs = np.asarray(intervals, dtype=np.float64)
        starts.append(pairs[:, 0])
        ends.append(pairs[:, 1])
    if sink is not None:
        hit_starts, hit_ends = sink.hit_interval_arrays()
        starts.extend(hit_starts)
        ends.extend(hit_ends)
    if not starts:
        return 0
    return peak_overlap_arrays(np.concatenate(starts), np.concatenate(ends))


def columnar_serve(server, workload):
    """Tier-B fast path: flat arrival-order execution over numpy columns.

    Only valid when the event loop degenerates to immediate admission (no
    policies, no chaos, unbounded concurrency) -- the caller checks that.
    Returns ``None`` to signal "use the event-loop kernel" for degenerate
    inputs.
    """
    from .server import ServingReport, record_query_spans, serve_mounts

    backend = server.backend
    config = server.config
    queries = list(workload.queries)
    n = len(queries)
    if n == 0:
        return None

    use_cache = bool(config.outcome_cache) and getattr(
        backend, "supports_outcome_cache", False
    )
    order, query_id, arrival, neurons, samples = _trace_columns(queries)
    order_list = order.tolist()
    tenants: Optional[List[Optional[str]]] = [queries[i].tenant for i in order_list]
    if not any(tenant is not None for tenant in tenants):
        tenants = None

    arrival_list = arrival.tolist()
    costs: List[float] = []
    finishes: List[float] = []
    colds: List[int] = []
    warms: List[int] = []
    channel_total = ChannelStats()
    cloud = getattr(backend, "cloud", None)
    # The kernel's mounts and the kernel's span emitter, called at the same
    # point of each query's execution: both paths record the same span set
    # with the same sequential ids (pinned by tests/test_telemetry.py).
    mounts = serve_mounts(backend, config, workload.horizon_seconds, use_cache)
    with mounts as (_, tracer, serve_span):
        pre_begin = cloud.billing_checkpoint() if cloud is not None else None
        backend.begin(workload)
        sink: Optional[ColumnarSink] = None
        if use_cache:
            sink = ColumnarSink()
            backend._cache_sink = sink
            if cloud is not None:
                # Standing bills placed by begin() (e.g. an always-on fleet)
                # are part of the serve-scoped cost fold.
                sink.add_ledger_slice(cloud.ledger._records, pre_begin)
        for i in range(n):
            query = queries[order_list[i]]
            at_time = arrival_list[i]
            outcome = backend.execute(query, at_time=at_time)
            finish = at_time + outcome.latency_seconds
            costs.append(outcome.cost)
            finishes.append(finish)
            colds.append(outcome.cold_starts)
            warms.append(outcome.warm_starts)
            if sink is None and outcome.channel_stats is not None:
                channel_total.accumulate(outcome.channel_stats)
            if tracer is not None:
                record_query_spans(tracer, serve_span, query, at_time, finish, outcome)
        finish_report = backend.finish()
        cost_report = sink.cost_report() if sink is not None else finish_report
        peak_workers = _worker_peak(backend, sink)
        stats = sink.channel_stats() if sink is not None else channel_total

    finished = np.asarray(finishes, dtype=np.float64)
    if tracer is not None:
        # Same float op as the kernel's serve end: max over finished_at.
        tracer.end_span(serve_span, float(finished.max()))
    columns = ReportColumns(
        query_id=query_id,
        neurons=neurons,
        samples=samples,
        arrival=arrival,
        started=arrival,
        finished=finished,
        cost=np.asarray(costs, dtype=np.float64),
        cold=np.asarray(colds, dtype=np.int64),
        warm=np.asarray(warms, dtype=np.int64),
        tenants=tenants,
    )
    return ServingReport(
        backend=backend.name,
        config=config,
        horizon_seconds=workload.horizon_seconds,
        records=LazyRecordList(columns),
        cost=cost_report,
        peak_concurrent_queries=peak_overlap_arrays(arrival, finished),
        peak_concurrent_workers=peak_workers,
        channel_stats=stats,
        fault_counts={},
        columns=columns,
        replay_mode="columnar",
        telemetry=tracer,
    )
