"""Host-performance benchmark of the FSD-Inference simulator: one command.

Every result of this repo is *simulated*, so "performance" here is host time
at bit-identical simulated statistics: how fast the simulator replays a
workload, and which layer the time goes to, while each workload's
``sim_digest`` stays pinned.

Usage (from the repo root; ``src/`` is put on ``sys.path`` automatically)::

    python benchmarks/perf/run.py                       # all six workloads
    python benchmarks/perf/run.py --traced              # + per-layer runs
    python benchmarks/perf/run.py --runs 10 --out A.json
    python benchmarks/perf/run.py --compare A.json B.json
    python benchmarks/perf/run.py --workload serve_exact --seed 3 \
        --seconds 10 --trace 0                          # one contract run

Each (workload, run) executes in its own fresh single-threaded subprocess so
process-global memos (the ``comm.payload`` zlib memo, the serial-input memo,
plan payload caches) start cold.  With ``--workload`` the last stdout line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
DIGEST_PATH = HERE / "expected_digests.json"
RESULTS_DIR = HERE / "results"

#: full set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: operations per traced run whose full spans are kept.
SPAN_OPS = 3
#: share of a traced run's budget spent untraced (the overhead reference).
UNTRACED_SHARE = 0.4
#: operation indices of the untraced reference phase of a traced run start
#: here, so distinct-input workloads never replay a traced input memo-hot.
REFERENCE_INDEX = 1_000_000
#: observer-effect gates of the traced run.
MAX_OVERHEAD_RATIO = 1.25
MIN_ATTRIBUTED_RATIO = 0.98
CHILD_TIMEOUT_SECONDS = 170
#: same as ``workloads.DEFAULT_SEED`` (the parent never imports the simulator).
DEFAULT_SEED = 29

#: a child must be single-threaded and hash-stable before numpy is imported.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of ``values``."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# =============================================================================
# Child: measure one workload in this (fresh) process.
# =============================================================================


def calibrate() -> float:
    """Seconds of a fixed numpy spin loop: a host-speed reading recorded
    beside the results, so runs on differently loaded hosts can be told apart."""
    import numpy as np

    values = np.arange(200_000, dtype=np.float64)
    started = time.perf_counter()
    total = 0.0
    for _ in range(200):
        total += float(np.sqrt(values * 1.0000001 + 1.0).sum())
    elapsed = time.perf_counter() - started
    return elapsed if total > 0.0 else 0.0


class _Timed:
    """One timed operation: its interval, its output and the output's digest."""

    __slots__ = ("index", "seconds", "output", "sim_digest")

    def __init__(self, index, seconds, output, sim_digest):
        self.index = index
        self.seconds = seconds
        self.output = output
        self.sim_digest = sim_digest

    @property
    def queries(self) -> int:
        return self.output.queries


def _run_phase(workload, budget: float, first_index: int, min_ops: int, tracer=None, on_op=None):
    """Closed loop: time operations one by one until ``budget`` is spent.

    Inputs are generated and outputs checked *between* the timed intervals;
    the phase's timed wall is the sum of its operations' intervals.  The
    phase runs the whole number of operations nearest to the budget (at
    least ``min_ops``), so a 9.9 s operation does not turn a 10 s run into
    a 20 s one.
    """
    from workloads import digest

    timed: List[_Timed] = []
    spent = 0.0
    while len(timed) < min_ops or spent + 0.5 * spent / len(timed) < budget:
        index = first_index + len(timed)
        prepared = workload.prepare_input(index)
        if tracer is not None:
            tracer.operation = index
            tracer.recording = len(timed) < SPAN_OPS
            tracer.resume()
        started = time.perf_counter()
        output = workload.operation(index, prepared)
        seconds = time.perf_counter() - started
        if tracer is not None:
            # Input generation and checks run on the originals: spans and
            # counts cover the timed intervals only.
            tracer.suspend()
        workload.check(index, output)
        output.artefact = None
        timed.append(_Timed(index, seconds, output, digest(output.sim)))
        spent += seconds
        if on_op is not None:
            on_op(len(timed))
    return timed


def _sim_digest(workload, timed: List[_Timed], failures: List[str]) -> str:
    """The workload's simulated digest over ``timed`` (see ``Workload.digest_ops``)."""
    from workloads import digest

    if workload.digest_ops is None:
        digests = sorted({op.sim_digest for op in timed})
        if len(digests) > 1:
            failures.append(f"operations over identical inputs disagree: {digests}")
        return timed[0].sim_digest
    return digest([op.output.sim for op in timed[: workload.digest_ops]])


def _replay_digest(workload) -> str:
    """Run the digest operations once more, untimed (two-run agreement)."""
    from workloads import digest

    return digest(
        [
            workload.operation(index, workload.prepare_input(index)).sim
            for index in range(workload.digest_ops)
        ]
    )


def _environment(calib_s: float) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "calib_s": calib_s,
    }


def run_child(name: str, seed: int, seconds: float, traced: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    started = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - started
    import workloads as workloads_module

    calib_s = calibrate()
    cls = workloads_module.WORKLOADS[name]

    setup_seconds = []
    workload = None
    for _ in range(SETUP_REPEATS):
        workload = None
        gc.collect()
        started = time.perf_counter()
        workload = cls(seed)
        workload.setup()
        workload.warmup()
        setup_seconds.append(time.perf_counter() - started)
    stage_seconds = dict(workload.stage_seconds)
    gc.collect()

    failures: List[str] = []
    min_ops = workload.digest_ops or 1
    tracer = None
    counters: Dict[str, float] = {}
    snapshot: Dict[str, object] = {}
    if not traced:
        timed = _run_phase(workload, seconds, 0, min_ops)
        sim_digest = _sim_digest(workload, timed, failures)
        all_ops = timed
    else:
        from tracing import HostTracer

        reference = _run_phase(workload, seconds * UNTRACED_SHARE, REFERENCE_INDEX, 1)
        tracer = HostTracer()
        _install_hooks(tracer, counters)

        def on_op(done: int) -> None:
            # Exact counters are read over a fixed prefix of operations, so
            # runs of different length report identical counts.
            if done == workload.digest_ops:
                snapshot["ops"] = done
                snapshot["counters"] = dict(counters)
                snapshot["calls"] = {n: s.calls for n, s in tracer.stats.items()}

        gc.collect()
        tracer.install()
        tracer.suspend()
        try:
            timed = _run_phase(
                workload, seconds * (1.0 - UNTRACED_SHARE), 0, min_ops, tracer, on_op
            )
        finally:
            tracer.uninstall()
        sim_digest = _sim_digest(workload, timed, failures)
        all_ops = reference + timed
        if workload.digest_ops is None and reference[0].sim_digest != sim_digest:
            failures.append("observer effect: traced sim_digest differs from untraced")

    if workload.digest_ops is not None:
        replayed = _replay_digest(workload)
        if replayed != sim_digest:
            failures.append(f"two runs of the digest operations disagree: {replayed}")
    failures.extend(workload.final_checks())

    pinned = None
    if seed == workloads_module.DEFAULT_SEED:
        pinned = json.loads(DIGEST_PATH.read_text()).get(name) if DIGEST_PATH.exists() else None
        if pinned != sim_digest:
            failures.append(f"sim_digest {sim_digest} differs from expected_sim_digest {pinned}")

    result = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "sim_digest": sim_digest,
        "expected_sim_digest": pinned,
        "ops": len(timed),
        "environment": _environment(calib_s),
    }
    if traced:
        metrics, spans_path = _layer_metrics(
            workload, tracer, counters, snapshot, reference, timed, stage_seconds, import_s, seed
        )
        result["spans_path"] = spans_path
        if metrics["trace.overhead_ratio"][0] > MAX_OVERHEAD_RATIO:
            failures.append(f"trace.overhead_ratio above {MAX_OVERHEAD_RATIO}")
        if metrics["trace.attributed_ratio"][0] < MIN_ATTRIBUTED_RATIO:
            failures.append(f"trace.attributed_ratio below {MIN_ATTRIBUTED_RATIO}")
    else:
        op_ms = [op.seconds * 1000.0 for op in timed]
        metrics = {
            "host_qps": (sum(op.queries for op in timed) / sum(op.seconds for op in timed), "1/s"),
            "host_ms_p50": (percentile(op_ms, 50.0), "ms"),
            "host_ms_p75": (percentile(op_ms, 75.0), "ms"),
            "setup_s": (statistics.median(setup_seconds), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MiB",
            ),
        }

    attempted = sum(op.queries for op in all_ops)
    op_failures = [f"op {op.index}: {op.output.failure}" for op in all_ops if op.output.failure]
    failed = attempted if failures else sum(op.queries for op in all_ops if op.output.failure)
    result.update(
        {
            "attempted": attempted,
            "failed": failed,
            "failures": failures + op_failures,
            "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
        }
    )
    return result


def _install_hooks(tracer, counters: Dict[str, float]) -> None:
    """Counts taken at the layer boundaries, where the work happens."""

    def add(key: str, amount) -> None:
        counters[key] = counters.get(key, 0) + amount

    def on_infer(args, result) -> None:
        stats = result.channel_stats
        if stats is not None:
            add("empty_polls", stats.empty_polls)
            add("bytes_sent", stats.bytes_sent)

    def on_invocation(args, invocation) -> None:
        add("cold_starts" if invocation.cold else "warm_starts", 1)

    tracer.hooks.update(
        {
            "flop_count_spmm": lambda args, flops: add("flops", flops),
            "encode_row_payload": lambda args, payload: add("bytes_encoded", len(payload)),
            "decode_row_payload": lambda args, decoded: add("bytes_decoded", len(args[0])),
            "FSDInference.infer": on_infer,
            "FaaSPlatform.start_invocation": on_invocation,
            "ReplayOutcomeCache.lookup": lambda args, hit: add("cache_hits", hit is not None),
        }
    )


def _layer_metrics(
    workload, tracer, counters, snapshot, reference, timed, stage_seconds, import_s, seed
):
    """Per-layer metrics of a traced phase, normalised per 1000 queries."""
    queries = sum(op.queries for op in timed)
    traced_seconds = sum(op.seconds for op in timed)
    # Exact counters: over the digest operations for distinct-input
    # workloads (a fixed set of inputs), over the whole phase otherwise
    # (every operation is the same, so the ratio is exact either way).
    if snapshot:
        count_queries = sum(op.queries for op in timed[: snapshot["ops"]])
        count_values = snapshot["counters"]
        count_calls = snapshot["calls"]
    else:
        count_queries = queries
        count_values = counters
        count_calls = {name: stat.calls for name, stat in tracer.stats.items()}

    def per_kq_seconds(value: float) -> float:
        return value * 1000.0 / queries

    def per_kq_count(value) -> float:
        if float(value).is_integer():
            return (1000 * int(value)) / count_queries
        return value * 1000.0 / count_queries

    def calls(layer: str, tag: Optional[str] = None) -> int:
        return sum(
            count_calls.get(name, 0)
            for name, stat in tracer.stats.items()
            if stat.layer == layer and (tag is None or stat.tag == tag)
        )

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    layer_self = tracer.layer_self_seconds()
    metrics: Dict[str, tuple] = {}

    def self_s(layer: str) -> None:
        metrics[f"{layer}.self_s"] = (per_kq_seconds(layer_self.get(layer, 0.0)), "s/kq")

    def tag_self(metric: str, layer: str, tag: str) -> None:
        metrics[metric] = (per_kq_seconds(tracer.tagged(layer, tag).self_seconds), "s/kq")

    def tag_inclusive(metric: str, layer: str, tag: str) -> None:
        metrics[metric] = (per_kq_seconds(tracer.tagged(layer, tag).inclusive), "s/kq")

    def count(metric: str, value) -> None:
        metrics[metric] = (per_kq_count(value), "1/kq")

    self_s("sparse")
    count("sparse.calls", calls("sparse"))
    tag_self("sparse.spmm_self_s", "sparse", "spmm")
    count("sparse.spmm_calls", calls("sparse", "spmm"))
    tag_self("sparse.flopcount_self_s", "sparse", "flopcount")
    tag_self("sparse.gather_self_s", "sparse", "gather")
    tag_self("sparse.activation_self_s", "sparse", "activation")
    count("sparse.flops", count_values.get("flops", 0))

    self_s("comm.payload")
    count("comm.payload.encode_calls", calls("comm.payload", "encode"))
    tag_self("comm.payload.encode_self_s", "comm.payload", "encode")
    count("comm.payload.decode_calls", calls("comm.payload", "decode"))
    tag_self("comm.payload.decode_self_s", "comm.payload", "decode")
    tag_self("comm.payload.chunk_self_s", "comm.payload", "chunk")
    count("comm.payload.bytes_encoded", count_values.get("bytes_encoded", 0))
    count("comm.payload.bytes_decoded", count_values.get("bytes_decoded", 0))

    polls = calls("comm.channel", "poll")
    empty_polls = count_values.get("empty_polls", 0)
    self_s("comm.channel")
    count("comm.channel.send_calls", calls("comm.channel", "send"))
    count("comm.channel.poll_calls", polls)
    count("comm.channel.empty_polls", empty_polls)
    metrics["comm.channel.useful_poll_ratio"] = (
        1.0 - ratio(empty_polls, polls) if polls else 0.0,
        "ratio",
    )
    count("comm.channel.bytes_sent", count_values.get("bytes_sent", 0))

    cloud_ops_all = sum(
        stat.calls for stat in tracer.stats.values() if stat.layer == "cloud" and stat.tag == "op"
    )
    latencies = [value for op in timed for value in op.output.sim_latencies]
    self_s("cloud")
    count("cloud.ops", calls("cloud", "op"))
    count("cloud.billing_records", calls("cloud", "billing"))
    count("cloud.invocations", calls("cloud", "invocation"))
    count("cloud.cold_starts", count_values.get("cold_starts", 0))
    count("cloud.warm_starts", count_values.get("warm_starts", 0))
    metrics["cloud.host_us_per_op"] = (
        ratio(layer_self.get("cloud", 0.0), cloud_ops_all) * 1e6,
        "us",
    )
    metrics["cloud.sim_cost_usd"] = (
        sum(op.output.sim_cost for op in timed) * 1000.0 / queries,
        "usd/kq",
    )
    metrics["cloud.sim_p95_s"] = (percentile(latencies, 95.0) if latencies else 0.0, "s")

    self_s("core")
    count("core.infer_calls", calls("core", "infer"))
    tag_inclusive("core.stage_s", "core", "stage")
    tag_inclusive("core.load_s", "core", "load")
    tag_inclusive("core.send_phase_s", "core", "send_phase")
    tag_inclusive("core.local_compute_s", "core", "local_compute")
    tag_inclusive("core.receive_phase_s", "core", "receive_phase")
    tag_inclusive("core.finalize_s", "core", "finalize")
    tag_inclusive("core.reduce_s", "comm.channel", "reduce")

    self_s("partitioning")
    metrics["partitioning.partition_s"] = (stage_seconds.get("partition", 0.0), "s")
    metrics["partitioning.kernels_s"] = (stage_seconds.get("kernels", 0.0), "s")
    metrics["workloads.model_build_s"] = (stage_seconds.get("model_build", 0.0), "s")
    metrics["workloads.batch_gen_s"] = (stage_seconds.get("batch_gen", 0.0), "s")
    metrics["workloads.trace_gen_s"] = (stage_seconds.get("trace_gen", 0.0), "s")
    metrics["import_s"] = (import_s, "s")

    self_s("serving")
    count("serving.serve_calls", calls("serving", "serve"))
    count("serving.execute_calls", calls("serving", "execute"))
    tag_self("serving.summary_self_s", "serving", "summary")

    lookups = calls("serving.replaycore", "lookup")
    self_s("serving.replaycore")
    count("serving.replaycore.lookup_calls", lookups)
    tag_self("serving.replaycore.lookup_self_s", "serving.replaycore", "lookup")
    tag_self("serving.replaycore.columnar_self_s", "serving.replaycore", "columnar")
    count(
        "serving.replaycore.real_executions",
        count_calls.get("ReplayOutcomeCache.end_capture", 0),
    )
    metrics["serving.replaycore.cache_hit_ratio"] = (
        ratio(count_values.get("cache_hits", 0), lookups),
        "ratio",
    )

    self_s("serving.policies")
    count("serving.policies.calls", calls("serving.policies"))
    metrics["serving.policies.coalesced_queries"] = (
        (1000 * sum(op.output.coalesced_queries for op in timed)) / queries,
        "1/kq",
    )

    self_s("concurrency")
    count("concurrency.arbiter_events", calls("concurrency", "arbiter"))
    tag_self("concurrency.arbiter_self_s", "concurrency", "arbiter")
    metrics["concurrency.interfered_queries"] = (
        (1000 * sum(op.output.interfered_queries for op in timed)) / queries,
        "1/kq",
    )

    self_s("baselines")
    count("baselines.calls", calls("baselines"))
    self_s("scenarios")
    self_s("experiments")
    count("experiments.cells", calls("experiments", "cell"))

    def seconds_per_query(ops) -> float:
        return statistics.median(op.seconds / op.queries for op in ops)

    metrics["trace.overhead_ratio"] = (
        seconds_per_query(timed) / seconds_per_query(reference),
        "ratio",
    )
    metrics["trace.attributed_ratio"] = (sum(layer_self.values()) / traced_seconds, "ratio")
    metrics["trace.unresolved_targets"] = (len(tracer.unresolved), "count")
    metrics["trace.queries"] = (queries, "count")

    RESULTS_DIR.mkdir(exist_ok=True)
    spans_path = RESULTS_DIR / f"spans-{workload.name}.json"
    origin = min((span["start"] for span in tracer.spans if "start" in span), default=0.0)
    spans_path.write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": seed,
                "span_operations": SPAN_OPS,
                "unresolved_targets": tracer.unresolved,
                "spans": [
                    {
                        **span,
                        "start": span["start"] - origin,
                        "end": span["end"] - origin,
                    }
                    for span in tracer.spans
                    if "start" in span
                ],
                "aggregates": {
                    name: {
                        "layer": stat.layer,
                        "calls": stat.calls,
                        "inclusive_s": stat.inclusive,
                        "self_s": stat.self_seconds,
                    }
                    for name, stat in sorted(tracer.stats.items())
                    if stat.calls
                },
            }
        )
        + "\n"
    )
    return metrics, str(spans_path.relative_to(ROOT))


# =============================================================================
# Parent: spawn children, print, compare.
# =============================================================================


def spawn(spec: dict, name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one (workload, run) in a fresh single-threaded subprocess."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        "--workload",
        name,
        "--seed",
        str(seed),
        "--seconds",
        repr(seconds),
        "--trace",
        "1" if traced else "0",
    ]
    completed = subprocess.run(
        command,
        env={**os.environ, **CHILD_ENV},
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_SECONDS,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"workload {name} exited with code {completed.returncode}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    declared = spec["per_layer" if traced else "end_to_end"]
    measured = {key: metric["unit"] for key, metric in result["metrics"].items()}
    if measured != {metric["name"]: metric["unit"] for metric in declared}:
        raise RuntimeError(f"workload {name} reported other metrics than BENCHMARK.json declares")
    return result


def print_result(result: dict) -> None:
    mode = "traced" if result["traced"] else "untraced"
    env = result["environment"]
    print(
        f"== {result['workload']} ({mode}, seed {result['seed']}): "
        f"{result['ops']} operations, {result['attempted']} queries attempted, "
        f"{result['failed']} failed ({result['failed'] / result['attempted']:.1%})"
    )
    print(
        f"   sim_digest {result['sim_digest'][:16]}  nproc={env['nproc']} "
        f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
        f"calib_s={env['calib_s']:.4f}"
    )
    for name, metric in result["metrics"].items():
        print(f"   {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")


def contract_line(result: dict) -> str:
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }
    )


def run_suite(args, spec: dict) -> int:
    if args.pin and (args.seed != DEFAULT_SEED or args.runs != 1):
        print("--pin re-pins the default-seed digests: drop --seed/--runs", file=sys.stderr)
        return 2
    names = [workload["name"] for workload in spec["workloads"]]
    runs: List[dict] = []
    for run in range(args.runs):
        for name in names:
            for traced in (False, True) if args.traced else (False,):
                result = spawn(spec, name, args.seed + run, args.seconds, traced)
                print_result(result)
                runs.append(result)
    failed = sum(result["failed"] for result in runs)
    if args.pin:
        pinned = {r["workload"]: r["sim_digest"] for r in runs if not r["traced"]}
        DIGEST_PATH.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
        print(f"pinned {len(pinned)} digests in {DIGEST_PATH.relative_to(ROOT)}")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        lines = ",\n".join(json.dumps(run) for run in runs)
        out.write_text('{"claim": null, "runs": [\n' + lines + "\n]}\n")
        print(f"wrote {len(runs)} runs to {out}")
    print(f"{len(runs)} runs, {failed} failed operations")
    return 1 if failed and not args.pin else 0


def _quartile_spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Per (metric, workload): medians, delta, bound and a verdict."""
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}

    def series(path: str) -> Dict[tuple, List[float]]:
        values: Dict[tuple, List[float]] = {}
        for run in json.loads(Path(path).read_text())["runs"]:
            if run["traced"]:
                continue
            for name, metric in run["metrics"].items():
                values.setdefault((run["workload"], name), []).append(metric["value"])
        return values

    before, after = series(path_a), series(path_b)
    regressions = 0
    print(
        f"{'workload':<20}{'metric':<13}{'A median':>11}{'A iqr':>7}{'B median':>11}{'B iqr':>7}"
        f"{'gain':>8}{'bound':>7}  verdict"
    )
    for key in sorted(set(before) & set(after)):
        workload, name = key
        spec_metric = bounds[name]
        a, b = before[key], after[key]
        median_a, median_b = statistics.median(a), statistics.median(b)
        sign = 1.0 if spec_metric["better"] == "higher" else -1.0
        gain = sign * (median_b - median_a) / median_a
        b_always_better = all(sign * (y - x) > 0 for x in a for y in b)
        spread_a, spread_b = _quartile_spread(a), _quartile_spread(b)
        if gain < -spec_metric["bound"]:
            verdict = "regressed"
            regressions += 1
        elif b_always_better and gain > spread_a:
            verdict = "improved"
        elif max(spread_a, spread_b) > spec_metric["bound"] and not b_always_better:
            verdict = "unresolved"
        else:
            verdict = "unchanged"
        print(
            f"{workload:<20}{name:<13}{median_a:>11.5g}{spread_a:>7.1%}{median_b:>11.5g}"
            f"{spread_b:>7.1%}{gain:>+8.1%}{spec_metric['bound']:>7.0%}  {verdict}"
        )
    return 1 if regressions else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload and end with the contract JSON line")
    parser.add_argument("--seed", type=int, default=None, help="input seed (default 29)")
    parser.add_argument("--seconds", type=float, default=None, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer run")
    parser.add_argument("--traced", action="store_true", help="suite: add a traced run each")
    parser.add_argument("--runs", type=int, default=1, help="suite: runs per workload (seed+i)")
    parser.add_argument("--out", help="suite: write all runs to this JSON file")
    parser.add_argument("--pin", action="store_true", help="suite: re-pin expected_digests.json")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"cannot find the simulator under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.seed is None:
        args.seed = DEFAULT_SEED
    if args.child:
        print(json.dumps(run_child(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    if args.workload:
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            print(f"unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        result = spawn(spec, args.workload, args.seed, args.seconds, bool(args.trace))
        print_result(result)
        print(contract_line(result))
        return 0
    return run_suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
