"""The memoised forward-work profile and the baselines that read it.

Three contracts:

1. **Bit identity.**  ``run_server_query`` / ``run_hpc_query`` /
   ``run_endpoint_query`` return ``float.hex()``-identical fields and write
   identical ledgers to the frozen per-query forward loops in
   ``tests/reference_baselines.py``, over Hypothesis-generated models and
   batches (cold cache and warm).
2. **Content key.**  The profile memo hits on equal content (not identity),
   misses on a batch mutated in place, computes once per distinct content in
   a serve, survives racing threads, and does not ride along in a pickle.
3. **Shared plans.**  HPC backends over one model object partition it once
   per (partitioner parameters, ranks), and a plan that does not fit the
   query is a ``ValueError``, not a plausible number.
"""

import dataclasses
import functools
import pickle
import sys
import threading

import numpy as np
import pytest
import reference_baselines as reference
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro import (
    BatchCoalescingPolicy,
    Campaign,
    CloudEnvironment,
    EndpointLimits,
    EndpointServingBackend,
    GraphChallengeConfig,
    HPCServingBackend,
    HypergraphPartitioner,
    InferenceServer,
    PoissonProcess,
    QueryWorkloadFactory,
    RandomPartitioner,
    Scenario,
    ServerMode,
    ServerServingBackend,
    ServingConfig,
    SparseDNN,
    build_graph_challenge_model,
    generate_input_batch,
    run_endpoint_query,
    run_hpc_query,
    run_server_query,
)
from repro.model import ForwardProfile
from repro.sparse import as_csr, csr_digest, csr_nbytes


# -- helpers ---------------------------------------------------------------------


def hexed(value):
    """``value`` with every float replaced by its ``hex()`` (bitwise equality)."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return {f.name: hexed(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [hexed(item) for item in value]
    return value


def outcome(call):
    """``("ok", hexed result)`` or ``("raised", type, message)`` of ``call()``."""
    try:
        return ("ok", hexed(call()))
    except Exception as error:  # compared, not swallowed: both sides must agree
        return ("raised", type(error), str(error))


def small_model(neurons=64, layers=3, seed=7):
    config = GraphChallengeConfig(
        neurons=neurons, layers=layers, nnz_per_row=4, num_communities=4, seed=seed
    )
    return build_graph_challenge_model(config)


# -- generated models and batches ------------------------------------------------

_WEIGHT_VALUES = np.array([-1.0, -0.5, 0.5, 1.0, 2.0])
_INPUT_VALUES = np.array([0.5, 1.0, 3.0])
#: per-layer biases that keep every stored pre-activation (> 0), leave it to
#: the data (0), thin the activations out, or kill every one of them.
_BIASES = (0.25, 0.0, -0.3, -0.75, -1000.0)
BATCH_KINDS = ("random", "empty-columns", "all-zero", "zero-samples", "csc", "hstack")


def _random_matrix(rng, rows, cols, density, values):
    return sparse.random(
        rows,
        cols,
        density=density,
        format="csr",
        random_state=rng,
        data_rvs=lambda count: rng.choice(values, size=count),
    )


@st.composite
def cases(draw):
    """``(model, batch)``: 1-4 layers of width 8-48, cap ``None`` / 32."""
    width = draw(st.integers(min_value=8, max_value=48))
    layers = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    weights = [
        _random_matrix(
            rng, width, width, draw(st.sampled_from([0.05, 0.2, 0.5])), _WEIGHT_VALUES
        )
        for _ in range(layers)
    ]
    biases = [draw(st.sampled_from(_BIASES)) for _ in range(layers)]
    model = SparseDNN(
        weights, biases, activation_cap=draw(st.sampled_from([None, 32.0])), name="generated"
    )

    kind = draw(st.sampled_from(BATCH_KINDS))
    samples = draw(st.integers(min_value=1, max_value=10))
    density = draw(st.sampled_from([0.1, 0.4, 0.9]))
    batch = _random_matrix(rng, width, samples, density, _INPUT_VALUES)
    if kind == "empty-columns":
        dense = batch.toarray()
        dense[:, rng.random(samples) < 0.5] = 0.0
        batch = sparse.csr_matrix(dense)
    elif kind == "all-zero":
        batch = sparse.csr_matrix((width, samples), dtype=np.float64)
    elif kind == "zero-samples":
        batch = sparse.csr_matrix((width, 0), dtype=np.float64)
    elif kind == "csc":
        batch = batch.tocsc()
    elif kind == "hstack":
        other = _random_matrix(rng, width, draw(st.integers(1, 6)), density, _INPUT_VALUES)
        batch = sparse.hstack([batch, other, batch], format="csr")
    return model, batch


# -- 1. bit identity against the frozen loops ------------------------------------


@given(cases())
@settings(max_examples=120, deadline=None)
def test_profile_counts_match_the_forward_pass(case):
    model, batch = case
    profile = model.forward_profile(batch)
    outputs = model.forward(batch, return_all_layers=True)
    inputs = [as_csr(batch)] + outputs[:-1]
    assert isinstance(profile, ForwardProfile)
    assert profile.input_nnz == tuple(x.nnz for x in inputs)
    assert profile.pre_nnz == tuple((w @ x).nnz for w, x in zip(model.weights, inputs))
    assert len(profile.spmm_flops) == model.num_layers
    assert all(type(flops) is float for flops in profile.spmm_flops)


@given(cases(), st.sampled_from(list(ServerMode)), st.sampled_from([0.0, 1234.5]))
@settings(max_examples=120, deadline=None)
def test_server_baseline_matches_frozen_loop_bitwise(case, mode, at_time):
    model, batch = case
    reference_cloud = CloudEnvironment()
    expected = outcome(
        lambda: reference.run_server_query(reference_cloud, model, batch, mode, at_time=at_time)
    )
    for _ in range(2):  # cold profile cache, then warm
        cloud = CloudEnvironment()
        actual = outcome(lambda: run_server_query(cloud, model, batch, mode, at_time=at_time))
        assert actual == expected
        assert hexed(cloud.ledger.records) == hexed(reference_cloud.ledger.records)


@given(cases())
@settings(max_examples=80, deadline=None)
def test_hpc_baseline_matches_frozen_loop_bitwise(case):
    model, batch = case
    plan = HypergraphPartitioner(seed=1).partition(model, 3)
    for ranks, query_plan in ((1, None), (2, None), (3, plan)):
        expected = outcome(lambda: reference.run_hpc_query(model, batch, ranks, plan=query_plan))
        actual = outcome(lambda: run_hpc_query(model, batch, ranks, plan=query_plan))
        assert actual == expected


def _endpoint_both(model, batch, limits, at_time=0.0):
    reference_cloud, cloud = CloudEnvironment(), CloudEnvironment()
    expected = outcome(
        lambda: reference.run_endpoint_query(reference_cloud, model, batch, limits, at_time)
    )
    actual = outcome(lambda: run_endpoint_query(cloud, model, batch, limits, at_time))
    assert actual == expected
    assert hexed(cloud.ledger.records) == hexed(reference_cloud.ledger.records)
    return expected


@given(cases(), st.integers(min_value=1, max_value=3), st.sampled_from([0.0, 77.25]))
@settings(max_examples=120, deadline=None)
def test_endpoint_baseline_matches_frozen_loop_bitwise(case, samples_per_request, at_time):
    model, batch = case
    samples = batch.shape[1]

    # One request covering the whole batch (the default payload cap).
    _endpoint_both(model, batch, None, at_time)

    # Several requests: a payload cap worth ``samples_per_request`` samples.
    per_sample = max(1.0, csr_nbytes(batch) / max(samples, 1))
    split = EndpointLimits(max_payload_bytes=int(per_sample * samples_per_request) + 1)
    result = _endpoint_both(model, batch, split, at_time)
    if result[0] == "ok" and samples > samples_per_request:
        assert result[1]["requests"] > 1

    # Truncated by the runtime cap: the limit is the median single-request
    # runtime, so every costlier request stops the query (or, when the first
    # one already is costlier, makes it infeasible on both sides).
    if samples:
        step = max(1, int(split.max_payload_bytes // per_sample))
        runtimes = [
            reference.run_endpoint_query(
                CloudEnvironment(), model, as_csr(batch)[:, start : start + step]
            ).latency_seconds
            for start in range(0, samples, step)
        ]
        truncated = EndpointLimits(
            max_payload_bytes=split.max_payload_bytes,
            max_runtime_seconds=sorted(runtimes)[len(runtimes) // 2],
        )
        _endpoint_both(model, batch, truncated, at_time)


# -- 2. the content-keyed memo ----------------------------------------------------


class TestProfileMemo:
    def test_equal_content_distinct_object_hits(self):
        model = small_model()
        batch = generate_input_batch(64, samples=4, seed=3)
        first = model.forward_profile(batch)
        assert model.forward_profile_info() == {"hits": 0, "misses": 1, "entries": 1}
        assert model.forward_profile(batch.copy()) is first
        assert model.forward_profile(batch.tocsc()) is first
        assert model.forward_profile_info() == {"hits": 2, "misses": 1, "entries": 1}

    def test_batch_mutated_in_place_is_billed_for_its_new_content(self):
        """Regression: the identity-keyed flop memo served the stale count."""
        model = small_model()
        batch = generate_input_batch(64, samples=4, seed=3)
        mode = ServerMode.ALWAYS_ON_HOT
        busy = run_server_query(CloudEnvironment(), model, batch, mode)
        batch.data[:] = 0.0
        batch.eliminate_zeros()
        mutated = run_server_query(CloudEnvironment(), model, batch, mode)
        fresh = run_server_query(CloudEnvironment(), model, batch.copy(), mode)
        assert busy.compute_seconds > 0.0
        assert mutated.compute_seconds.hex() == fresh.compute_seconds.hex()
        assert mutated.compute_seconds < busy.compute_seconds
        assert model.forward_profile(batch).spmm_flops == (0.0,) * model.num_layers

    def test_memo_is_bounded_and_evicts_least_recently_used(self):
        from repro.model.network import _PROFILE_CACHE_ENTRIES as bound

        model = small_model(neurons=16, layers=1)
        batches = [
            sparse.csr_matrix(([float(i + 1)], ([0], [0])), shape=(16, 1))
            for i in range(bound + 1)
        ]
        for batch in batches[:bound]:
            model.forward_profile(batch)
        model.forward_profile(batches[0])  # a hit: now the most recently used
        model.forward_profile(batches[bound])  # one over: drops batches[1], not [0]
        assert model.forward_profile_info() == {"hits": 1, "misses": bound + 1, "entries": bound}
        model.forward_profile(batches[0])
        assert model.forward_profile_info()["hits"] == 2
        model.forward_profile(batches[1])
        assert model.forward_profile_info() == {"hits": 2, "misses": bound + 2, "entries": bound}

    def test_pickled_model_carries_no_caches_and_gives_equal_results(self):
        model = small_model()
        batch = generate_input_batch(64, samples=4, seed=3)
        profile = model.forward_profile(batch)
        expected = run_hpc_query(model, batch, 2)
        partitioner = HypergraphPartitioner(seed=1)
        model.partition_plan_cache[partitioner.plan_key(2)] = partitioner.partition(model, 2)
        model.nbytes()

        clone = pickle.loads(pickle.dumps(model))
        assert clone.forward_profile_info() == {"hits": 0, "misses": 0, "entries": 0}
        assert clone.partition_plan_cache == {}
        assert clone.nbytes() == model.nbytes()
        assert clone.forward_profile(batch) == profile
        assert hexed(run_hpc_query(clone, batch, 2)) == hexed(expected)
        # The pickle does not grow with the caches.
        assert len(pickle.dumps(model)) == len(pickle.dumps(clone))

    def test_racing_threads_neither_raise_nor_disagree(self):
        model = small_model(neurons=32, layers=2)
        # More distinct contents than the memo holds, so lookups race evictions.
        batches = [
            sparse.csr_matrix(([1.0 + i], ([i % 32], [0])), shape=(32, 1)) for i in range(160)
        ]
        expected = [small_model(neurons=32, layers=2).forward_profile(b) for b in batches]
        failures = []

        def worker(offset):
            try:
                for step in range(400):
                    index = (offset * 37 + step * 7) % len(batches)
                    if model.forward_profile(batches[index]) != expected[index]:
                        failures.append(("mismatch", index))
            except Exception as error:  # surfaced below
                failures.append(error)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        info = model.forward_profile_info()
        assert info["hits"] + info["misses"] == 8 * 400
        assert info["entries"] <= 128


def _scenario(queries=52, batch_size=4):
    return Scenario(
        "poisson",
        PoissonProcess(),
        daily_samples=queries * batch_size,
        batch_size=batch_size,
        neuron_counts=(32, 64),
        seed=5,
        horizon_seconds=3600.0,
    )


def _shared_factory(models=None):
    models = models if models is not None else {n: small_model(neurons=n) for n in (32, 64)}
    return QueryWorkloadFactory(model_builder=models.__getitem__), models


def _server_backend(factory):
    return ServerServingBackend(CloudEnvironment(), ServerMode.JOB_SCOPED, factory)


def _endpoint_backend(factory):
    return EndpointServingBackend(CloudEnvironment(), factory)


def _hpc_backend(factory):
    return HPCServingBackend(4, factory)


BASELINE_BACKENDS = {
    "server": _server_backend,
    "endpoint": _endpoint_backend,
    "hpc": _hpc_backend,
}


@pytest.mark.parametrize("kind", sorted(BASELINE_BACKENDS))
def test_serve_computes_one_profile_per_distinct_batch_content(kind):
    """52 queries over two model sizes, with coalescing building fresh stacks."""
    factory, models = _shared_factory()
    backend = BASELINE_BACKENDS[kind](factory)
    seen = {neurons: [] for neurons in models}
    execute_real = backend._execute_real

    def recording(query, model, batch, at_time):
        seen[query.neurons].append(csr_digest(batch))
        return execute_real(query, model, batch, at_time)

    backend._execute_real = recording
    config = ServingConfig(policies=(BatchCoalescingPolicy(window_seconds=240.0),))
    report = InferenceServer(backend, config).serve(_scenario().build())

    assert report.summary()["num_queries"] == 52
    assert sum(len(digests) for digests in seen.values()) == report.execution_count
    assert report.execution_count < 52  # some units are coalesced stacks
    for neurons, model in models.items():
        distinct = len(set(seen[neurons]))
        assert distinct > 1  # the canonical batch plus at least one stack
        assert model.forward_profile_info() == {
            "hits": len(seen[neurons]) - distinct,
            "misses": distinct,
            "entries": distinct,
        }
    assert "forward_profile" not in repr(sorted(report.summary()))


# -- 3. shared plans ---------------------------------------------------------------


class TestSharedPlans:
    def _serve(self, backend):
        return InferenceServer(backend).serve(_scenario(queries=6).build()).summary()

    def test_backends_sharing_a_model_partition_it_once(self, monkeypatch):
        calls = []
        assign = HypergraphPartitioner.assign

        def counting(self, model, num_workers):
            calls.append((model.num_neurons, num_workers))
            return assign(self, model, num_workers)

        monkeypatch.setattr(HypergraphPartitioner, "assign", counting)
        factory, models = _shared_factory()
        first = self._serve(HPCServingBackend(4, factory))
        second = self._serve(HPCServingBackend(4, factory))
        assert first == second
        assert sorted(calls) == [(32, 4), (64, 4)]
        # Other ranks, other parameters and another partitioner type are
        # other plans.
        self._serve(HPCServingBackend(2, factory))
        self._serve(HPCServingBackend(4, factory, partitioner=HypergraphPartitioner(seed=9)))
        self._serve(HPCServingBackend(4, factory, partitioner=RandomPartitioner(seed=1)))
        assert sorted(calls) == [(32, 2), (32, 4), (32, 4), (64, 2), (64, 4), (64, 4)]
        for model in models.values():
            assert len(model.partition_plan_cache) == 4

    def test_cached_plan_equals_a_private_one(self):
        factory, models = _shared_factory()
        self._serve(HPCServingBackend(4, factory))  # fills the caches
        shared = self._serve(HPCServingBackend(4, factory))
        private_factory, _ = _shared_factory()
        assert shared == self._serve(HPCServingBackend(4, private_factory))

    def test_plan_key_ignores_run_state(self):
        partitioner = HypergraphPartitioner(seed=3)
        before = partitioner.plan_key(4)
        partitioner.partition(small_model(), 4)
        assert partitioner.last_quality is not None
        assert partitioner.plan_key(4) == before == HypergraphPartitioner(seed=3).plan_key(4)
        assert partitioner.plan_key(4) != partitioner.plan_key(2)
        assert partitioner.plan_key(4) != HypergraphPartitioner(seed=4).plan_key(4)
        assert RandomPartitioner(seed=3).plan_key(4) != RandomPartitioner(seed=4).plan_key(4)

    def test_thread_campaign_over_shared_models_equals_serial(self):
        factory, models = _shared_factory()
        backends = {
            kind: functools.partial(build, factory)
            for kind, build in sorted(BASELINE_BACKENDS.items())
        }
        campaign = Campaign(
            [_scenario(queries=12), dataclasses.replace(_scenario(queries=12), name="again", seed=6)],
            backends,
            policy_sets={
                "none": tuple,
                # detlint: allow[DET006] thread-executor test; nothing here is pickled
                "coalesce": lambda: (BatchCoalescingPolicy(window_seconds=240.0),),
            },
        )
        threaded = campaign.run(max_workers=4, executor="thread")
        serial = campaign.run(max_workers=1)
        assert [c.fingerprint for c in threaded.cells] == [c.fingerprint for c in serial.cells]
        for model in models.values():
            assert len(model.partition_plan_cache) == 1

    def test_plan_for_other_rank_count_is_rejected(self):
        model = small_model()
        batch = generate_input_batch(64, samples=4, seed=3)
        plan = HypergraphPartitioner(seed=1).partition(model, 8)
        with pytest.raises(ValueError, match=r"plan\.num_workers is 8 but ranks is 4"):
            run_hpc_query(model, batch, ranks=4, plan=plan)

    def test_plan_for_other_model_is_rejected(self):
        model = small_model(layers=3)
        batch = generate_input_batch(64, samples=4, seed=3)
        for other_layers in (2, 5):
            plan = HypergraphPartitioner(seed=1).partition(small_model(layers=other_layers), 4)
            with pytest.raises(ValueError, match=rf"plan covers {other_layers} layers .* has 3"):
                run_hpc_query(model, batch, ranks=4, plan=plan)
