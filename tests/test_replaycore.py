"""Tests for the vectorized replay core (Tier A/B/C fast paths).

Locks the replay-performance contracts:

1. *Bit-identity under the same cache setting*: the columnar event core
   produces a ``summary()`` bit-identical to the exact event loop's, with the
   outcome cache off AND with it on (property-style over several seeds).
2. *Cold and warm entries never shadow each other*: the FaaS claim-replay
   check rejects a cached warm execution when the live pool would resolve
   cold (and vice versa), so cached replays preserve exact cold/warm counts.
3. *Chaos bypasses the cache entirely*: a chaos-configured serve never
   activates (or even constructs) the outcome cache and always runs the
   exact event loop, byte-identical to a cache-free chaos serve.
4. ``peak_overlap_arrays`` is the array twin of ``peak_overlap`` (random
   interval sets including zero-length and touching intervals).
5. Fluid mode is tagged and approximately exact; the sorted-latency memo
   invalidates on record-count changes; ``from_queries`` vectorized
   validation keeps the scalar walk's messages and precedence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Campaign,
    ChaosConfig,
    CloudEnvironment,
    EngineConfig,
    FaultPlan,
    FSDServingBackend,
    GraphChallengeConfig,
    InferenceQuery,
    InferenceServer,
    QueryWorkloadFactory,
    ServingConfig,
    SporadicWorkload,
    Variant,
    build_graph_challenge_model,
    generate_sporadic_workload,
)
from repro.experiments.campaign import CampaignCell, CellResult
from repro.serving import peak_overlap, peak_overlap_arrays
from repro.serving.replaycore import LazyRecordList


@pytest.fixture(scope="module")
def tiny_model():
    config = GraphChallengeConfig(
        neurons=64, layers=2, nnz_per_row=4, num_communities=4, seed=7
    )
    return build_graph_challenge_model(config)


def _serial_backend(model, warm_keepalive_seconds=900.0):
    factory = QueryWorkloadFactory(model_builder=lambda neurons: model)
    return FSDServingBackend(
        CloudEnvironment(),
        factory,
        config_for=lambda neurons: EngineConfig(variant=Variant.SERIAL, workers=1),
        warm_keepalive_seconds=warm_keepalive_seconds,
    )


def _serve(model, workload, keepalive=900.0, **config_kwargs):
    backend = _serial_backend(model, warm_keepalive_seconds=keepalive)
    server = InferenceServer(backend, ServingConfig(**config_kwargs))
    return backend, server.serve(workload)


def _workload(seed):
    return generate_sporadic_workload(
        daily_samples=30 * 4, batch_size=4, neuron_counts=(64,), seed=seed
    )


class TestColumnarExactParity:
    """Tier B: the columnar core is a replay *implementation*, not a change."""

    @pytest.mark.parametrize("seed", [3, 9, 17])
    def test_summary_bit_identical_cache_off(self, tiny_model, seed):
        workload = _workload(seed)
        _, exact = _serve(tiny_model, workload)
        _, fast = _serve(tiny_model, workload, replay_mode="columnar")
        assert fast.replay_mode == "columnar"
        assert exact.replay_mode is None
        assert fast.summary() == exact.summary()

    @pytest.mark.parametrize("seed", [3, 9, 17])
    def test_summary_bit_identical_cache_on(self, tiny_model, seed):
        workload = _workload(seed)
        _, exact = _serve(tiny_model, workload, outcome_cache=True)
        _, fast = _serve(
            tiny_model, workload, replay_mode="columnar", outcome_cache=True
        )
        assert fast.summary() == exact.summary()

    def test_records_materialise_identically(self, tiny_model):
        workload = _workload(5)
        _, exact = _serve(tiny_model, workload)
        _, fast = _serve(tiny_model, workload, replay_mode="columnar")
        assert isinstance(fast.records, LazyRecordList)
        assert len(fast.records) == len(exact.records)
        for fast_record, exact_record in zip(fast.records, exact.records):
            assert fast_record == exact_record

    def test_auto_mode_falls_back_for_policies_or_bound(self, tiny_model):
        # A bounded-admission serve cannot use the flat loop; "auto" must
        # quietly take the exact path and report no fast-path mode.
        workload = _workload(5)
        backend = _serial_backend(tiny_model)
        report = InferenceServer(
            backend, ServingConfig(replay_mode="auto", max_concurrent_queries=1)
        ).serve(workload)
        assert report.replay_mode is None

    def test_empty_workload_falls_back(self, tiny_model):
        backend = _serial_backend(tiny_model)
        report = InferenceServer(backend, ServingConfig(replay_mode="auto")).serve(
            SporadicWorkload(queries=[])
        )
        assert report.replay_mode is None
        assert report.num_queries == 0


class TestOutcomeCacheSemantics:
    """Tier A: memoised replays preserve cold/warm truth; chaos opts out."""

    def _gapped_workload(self):
        # 0/5/10 warm cluster, then a gap far past the keepalive: the cache
        # must hold distinct cold and warm entries and pick by claim replay.
        arrivals = [0.0, 5.0, 10.0, 2000.0, 2005.0, 2010.0, 4000.0]
        queries = [
            InferenceQuery(query_id=i, arrival_time=t, neurons=64, samples=4)
            for i, t in enumerate(arrivals)
        ]
        return SporadicWorkload.from_queries(queries, horizon_seconds=5000.0)

    def test_cold_and_warm_entries_miss_each_other(self, tiny_model):
        workload = self._gapped_workload()
        _, plain = _serve(tiny_model, workload, keepalive=60.0)
        backend, cached = _serve(
            tiny_model, workload, keepalive=60.0, outcome_cache=True
        )
        # Cold/warm classification is integer-exact under the cache: a cached
        # warm outcome replayed where the pool is empty (or stale) would flip
        # these counts.
        assert cached.cold_start_count == plain.cold_start_count
        assert cached.warm_start_count == plain.warm_start_count
        assert [r.cold_starts for r in cached.records] == [
            r.cold_starts for r in plain.records
        ]
        # The key's bucket really holds both flavours of entry.
        (bucket,) = backend.outcome_cache._entries.values()
        kinds = {entry.cold_starts > 0 for entry in bucket}
        assert kinds == {True, False}

    def test_cached_replay_matches_exact_closely(self, tiny_model):
        workload = self._gapped_workload()
        _, plain = _serve(tiny_model, workload, keepalive=60.0)
        _, cached = _serve(tiny_model, workload, keepalive=60.0, outcome_cache=True)
        # Time translation drifts floats in the last bits only.
        assert cached.cost.total == pytest.approx(plain.cost.total, rel=1e-9)
        for fast, exact in zip(cached.sorted_latencies(), plain.sorted_latencies()):
            assert fast == pytest.approx(exact, rel=1e-9)

    def test_chaos_bypasses_cache_entirely(self, tiny_model):
        workload = _workload(5)
        chaos = ChaosConfig(plan=FaultPlan())
        backend_plain, plain = _serve(tiny_model, workload, chaos=chaos)
        backend_cached, cached = _serve(
            tiny_model,
            workload,
            chaos=chaos,
            outcome_cache=True,
            replay_mode="auto",
        )
        # The chaos serve must run the exact loop and never even construct
        # the cache, let alone leave it active.
        assert cached.replay_mode is None
        assert backend_cached.outcome_cache is None
        assert backend_cached._cache_active is False
        assert cached.summary() == plain.summary()


class TestPeakOverlapArrays:
    """The array peak is the scalar peak, on every interval shape."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_scalar_peak_on_random_intervals(self, seed):
        rng = np.random.default_rng(seed)
        n = 200
        starts = rng.uniform(0.0, 100.0, size=n)
        lengths = rng.uniform(0.0, 10.0, size=n)
        # Force zero-length, touching and duplicated intervals into the mix.
        lengths[rng.random(n) < 0.25] = 0.0
        starts[10] = starts[11]  # coinciding zero-length candidates
        ends = starts + lengths
        ends[20] = starts[21]  # touching endpoints
        intervals = list(zip(starts.tolist(), ends.tolist()))
        assert peak_overlap_arrays(starts, ends) == peak_overlap(intervals)

    def test_empty(self):
        assert peak_overlap_arrays(np.empty(0), np.empty(0)) == 0


class TestSortedLatencyMemo:
    def test_percentiles_use_memo_and_invalidate_on_append(self, tiny_model):
        workload = _workload(5)
        _, report = _serve(tiny_model, workload)
        first = report.sorted_latencies()
        assert report.sorted_latencies() is first  # memo hit, same array
        p95 = report.latency_percentile(95)
        assert p95 == float(np.percentile(first, 95))
        # Appending a record (retry bookkeeping does this) must invalidate.
        report.records.append(report.records[0])
        second = report.sorted_latencies()
        assert second is not first
        assert len(second) == len(first) + 1


class TestFromQueriesValidation:
    """The vectorized checks keep the scalar walk's messages and precedence."""

    def _q(self, i, t):
        return InferenceQuery(query_id=i, arrival_time=t, neurons=64, samples=4)

    def test_invalid_arrival_message(self):
        with pytest.raises(ValueError, match=r"query #1 \(id 1\) has invalid arrival"):
            SporadicWorkload.from_queries([self._q(0, 1.0), self._q(1, float("nan"))])
        with pytest.raises(ValueError, match=r"query #0 \(id 0\) has invalid arrival"):
            SporadicWorkload.from_queries([self._q(0, -2.0)])

    def test_out_of_order_message(self):
        with pytest.raises(
            ValueError, match=r"query #1 \(id 1\) arrives at 1.0 before its predecessor at 5.0"
        ):
            SporadicWorkload.from_queries([self._q(0, 5.0), self._q(1, 1.0)])

    def test_past_horizon_message(self):
        with pytest.raises(ValueError, match=r"past the workload horizon of 10.0 seconds"):
            SporadicWorkload.from_queries([self._q(0, 11.0)], horizon_seconds=10.0)

    def test_invalid_wins_over_order_and_horizon(self):
        # A NaN arrival is both "invalid" and "out of order" to the masks;
        # the scalar walk reported invalid first, so the vector path must too.
        with pytest.raises(ValueError, match="invalid arrival time"):
            SporadicWorkload.from_queries(
                [self._q(0, 5.0), self._q(1, float("nan")), self._q(2, 1.0)]
            )

    def test_valid_trace_accepted(self):
        workload = SporadicWorkload.from_queries(
            [self._q(0, 0.0), self._q(1, 0.0), self._q(2, 3.5)]
        )
        assert workload.num_queries == 3


class TestCampaignReplayKnobs:
    def test_cache_off_fingerprint_payload_unchanged(self):
        cell = CampaignCell("s", "b")
        summary = {"num_queries": 1, "cost_total": 1.0, "cold_start_count": 1, "warm_start_count": 0}
        default = CellResult(cell=cell, summary=summary, wall_seconds=0.0)
        explicit = CellResult(
            cell=cell, summary=summary, wall_seconds=9.9, outcome_cache=False
        )
        assert default.fingerprint == explicit.fingerprint
        assert "outcome_cache" not in default.to_dict()

    def test_cache_on_changes_fingerprint_and_is_exported(self):
        cell = CampaignCell("s", "b")
        summary = {"num_queries": 1, "cost_total": 1.0, "cold_start_count": 1, "warm_start_count": 0}
        plain = CellResult(cell=cell, summary=summary, wall_seconds=0.0)
        cached = CellResult(
            cell=cell, summary=summary, wall_seconds=0.0, outcome_cache=True
        )
        assert cached.fingerprint != plain.fingerprint
        assert cached.to_dict()["outcome_cache"] is True

    def test_campaign_rejects_unknown_replay_mode(self):
        scenario = type(
            "S", (), {"name": "s", "build": lambda self: SporadicWorkload(queries=[])}
        )()
        for mode in ("warp", "fluid"):  # "fluid" was a mode until PR 13 deleted it
            with pytest.raises(ValueError, match="replay_mode.*'columnar'; got"):
                # detlint: allow[DET006] constructor-rejection fixture; the campaign never runs
                Campaign([scenario], {"b": lambda: None}, replay_mode=mode)
            with pytest.raises(ValueError, match="replay_mode.*'columnar'; got"):
                ServingConfig(replay_mode=mode)
