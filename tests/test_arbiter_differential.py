"""Differential tests of the fair-share arbiter against its frozen reference.

The production arbiter re-rates a peer only when a share it holds moved; the
reference (``tests/reference_arbiter.py``, the pre-optimisation arbiter kept
verbatim) re-rates every peer on every touched resource.  Both must emit the
same heap events in the same order and leave every chain with the same bits,
because each of those is an input to a pinned ``sim_digest``.
"""

import heapq

from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_arbiter import FairShareArbiter as ReferenceArbiter

from repro import ContentionConfig, FairShareArbiter

#: resource class -> the ContentionConfig field that bounds it.
CAPACITY_FIELDS = {
    "queue": "queue_capacity",
    "pubsub": "topic_capacity",
    "object": "bucket_capacity",
    "faas": "faas_invocations",
}


def drive(arbiter, admissions):
    """Run ``admissions`` through ``arbiter`` on a kernel-shaped heap.

    ``admissions`` is a list of ``(time, ops, latency)``.  Events are ordered
    ``(when, kind, seq)`` with boundary events ahead of admissions at equal
    times, exactly like the serving kernel.  Returns the pushed event stream
    (hex time, generation, chain key -- in push order), each chain's final
    ``(admit, latency, delay, finish)`` and the resource summary.
    """
    heap = []
    seq = 0
    for when, ops, latency in admissions:
        heapq.heappush(heap, (when, 1, seq, (ops, latency)))
        seq += 1
    stream = []
    chains = []
    while heap:
        now, kind, _, item = heapq.heappop(heap)
        if kind == 1:
            ops, latency = item
            chain, events = arbiter.admit(ops, now, latency)
            chains.append(chain)
        else:
            chain, generation = item
            result = arbiter.on_event(chain, generation, now)
            if result is None:
                continue  # stale generation
            _, events = result
        for when, generation, peer in events:
            stream.append((when.hex(), generation, peer.key))
            heapq.heappush(heap, (when, 0, seq, (peer, generation)))
            seq += 1
    assert all(chain.done for chain in chains)
    finals = [(chain.admit, chain.latency, chain.delay, chain.finish) for chain in chains]
    return stream, finals, arbiter.resource_summary()


#: times on a 1/8 s grid collide often (equal-time events exercise the seq
#: tie-break); arbitrary floats exercise rounding in the delay accumulator.
_grid = st.integers(min_value=0, max_value=96).map(lambda k: k / 8.0)
_time = st.one_of(_grid, st.floats(min_value=0.0, max_value=12.0, allow_nan=False))
_duration = st.one_of(
    st.integers(min_value=0, max_value=48).map(lambda k: k / 8.0),
    st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
)
_capacity = st.sampled_from([None, 0.5, 1.0, 1.5, 2.0, 4.0])


#: one op before namespacing: (resource slot, start offset from the admit,
#: duration).  Offsets may start before the admit or run past the latency:
#: the arbiter clamps both.
_op = st.tuples(st.integers(min_value=0, max_value=4), _time.map(lambda t: t - 1.0), _duration)
#: one chain: (gap since the previous admit, latency, ops).
_chain = st.tuples(
    _time.map(lambda t: t / 4.0),
    _duration.filter(lambda value: value > 0.0),
    st.lists(_op, max_size=40),
)


@st.composite
def op_logs(draw):
    """1-12 staggered chains of 0-40 ops over ``faas``, per-chain channel keys
    and one cross-chain queue (a second shared resource beside ``faas``)."""
    admissions = []
    admit = 0.0
    for index, (gap, latency, ops) in enumerate(draw(st.lists(_chain, min_size=1, max_size=12))):
        admit += gap
        resources = (
            "faas",
            "queue:shared",
            f"queue:q{index}:a",
            f"pubsub:q{index}:t",
            f"object:q{index}:b",
        )
        admissions.append(
            (
                admit,
                [
                    (resources[slot], admit + offset, (admit + offset) + duration)
                    for slot, offset, duration in ops
                ],
                latency,
            )
        )
    return admissions


contentions = st.builds(ContentionConfig, **{name: _capacity for name in CAPACITY_FIELDS.values()})


# A hand-written seed case: B and C both sit on two shared resources that A's
# crossings touch together, so the advance loop meets each peer twice per event.
_TWO_SHARED = [
    (0.0, [("faas", 0.0, 9.0), ("queue:shared", 1.0, 2.0), ("queue:shared", 3.0, 7.5)], 9.0),
    (0.5, [("faas", 0.5, 6.0), ("queue:shared", 0.5, 8.0)], 8.0),
    (0.5, [("faas", 1.0, 3.0), ("queue:shared", 2.0, 4.0), ("object:q2:b", 2.5, 3.5)], 4.0),
]


@given(op_logs(), contentions)
@example(_TWO_SHARED, ContentionConfig(faas_invocations=1.0, queue_capacity=1.5))
@example(_TWO_SHARED, ContentionConfig(faas_invocations=4.0, queue_capacity=0.5))
@settings(max_examples=150, deadline=None)
def test_matches_frozen_reference_bit_for_bit(admissions, contention):
    stream, finals, summary = drive(FairShareArbiter(contention), admissions)
    ref_stream, ref_finals, ref_summary = drive(ReferenceArbiter(contention), admissions)
    assert stream == ref_stream
    assert [(delay.hex(), finish.hex()) for _, _, delay, finish in finals] == [
        (delay.hex(), finish.hex()) for _, _, delay, finish in ref_finals
    ]
    assert summary == ref_summary


@given(op_logs())
@example(_TWO_SHARED)
@settings(max_examples=100, deadline=None)
def test_capacity_at_observed_peak_is_unbounded(admissions):
    """Capacities equal to each class's unbounded peak never bind anything."""
    _, _, unbounded = drive(FairShareArbiter(ContentionConfig()), admissions)
    at_peak = ContentionConfig(
        **{CAPACITY_FIELDS[name]: entry["peak_weight"] for name, entry in unbounded.items()}
    )
    _, finals, summary = drive(FairShareArbiter(at_peak), admissions)
    for admit, latency, delay, finish in finals:
        assert delay == 0.0
        assert finish == admit + latency  # bitwise, not approx
    for name, entry in summary.items():
        assert entry["peak_weight"] == unbounded[name]["peak_weight"]
        assert entry["peak_backlog"] == 0.0
