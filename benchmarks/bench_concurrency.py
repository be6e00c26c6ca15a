"""Wall-clock + simulated-fingerprint benchmark of the concurrency engine.

Replays one *flash crowd* -- a burst of near-simultaneous queries on the
shared serving substrate (``common.py``'s scaled cloud and prepared FSD
workloads) -- twice over:

* **serialized**: the default ``ServingConfig`` event loop, where in-flight
  executions never contend (each query observes its solo latency), and
* **interleaved + contended**: ``ServingConfig(concurrency=...)`` with a
  bounded :class:`repro.ContentionConfig` (a platform FaaS invocation quota
  plus a per-queue transfer capacity), where the fair-share arbiter
  stretches overlapping timelines.

One record per invocation is appended to ``BENCH_concurrency.json`` at the
repo root, carrying both summaries, the p99 inflation factor and the
per-resource peak utilization/backlog -- all *simulated* quantities that
depend only on the workload seed and the contention config, so they must
stay bit-for-bit identical across PRs unless the contention semantics
intentionally change.  That is enforced: a record whose fingerprint differs
from the latest recorded one for the same crowd size (``--quick`` or full) is
refused and the history left untouched; an intentional change re-pins by
editing the history file in the same PR.

Both serves are replayed **twice** and the record is only written when the
two passes agree exactly -- the benchmark doubles as a determinism check.
The harness also asserts the contended p99 strictly exceeds the serialized
p99: a flash crowd that nothing contends over means the config is
miscalibrated, not that the engine is fast.

Usage::

    PYTHONPATH=src python benchmarks/bench_concurrency.py [--quick] [--label NAME]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))
sys.path.insert(0, str(_HERE.parent / "src"))

from common import (  # noqa: E402
    append_record,
    git_rev,
    serving_bench_workloads,
    serving_fsd_backend,
    serving_grid,
)

from repro import (  # noqa: E402
    ConcurrencyConfig,
    ContentionConfig,
    InferenceQuery,
    InferenceServer,
    ServingConfig,
    SporadicWorkload,
)

RESULT_PATH = _HERE.parent / "BENCH_concurrency.json"

#: the benchmark's canonical bounded contention model: a platform-wide
#: concurrent-invocation quota plus a per-queue transfer capacity.
BENCH_CONTENTION = ContentionConfig(faas_invocations=4.0, queue_capacity=2.0)

#: flash-crowd arrival spacing (seconds): far below a query's service time,
#: so the whole crowd is genuinely in flight together.
CROWD_SPACING_SECONDS = 0.25


def flash_crowd(quick: bool) -> SporadicWorkload:
    """A burst of near-simultaneous queries on the benchmark's model sizes."""
    neurons, batch_size, num_queries = serving_grid(quick)
    queries = [
        InferenceQuery(
            query_id=i,
            arrival_time=CROWD_SPACING_SECONDS * i,
            neurons=neurons[i % len(neurons)],
            samples=batch_size,
        )
        for i in range(num_queries)
    ]
    return SporadicWorkload(queries=queries)


def _serve_pair(quick: bool) -> dict:
    workload = flash_crowd(quick)
    workloads = serving_bench_workloads(quick)

    serialized_server = InferenceServer(serving_fsd_backend(workloads))
    start = time.perf_counter()
    serialized = serialized_server.serve(workload)
    serialized_wall = time.perf_counter() - start

    contended_server = InferenceServer(
        serving_fsd_backend(workloads),
        ServingConfig(concurrency=ConcurrencyConfig(contention=BENCH_CONTENTION)),
    )
    start = time.perf_counter()
    contended = contended_server.serve(workload)
    contended_wall = time.perf_counter() - start

    serialized_p99 = serialized.latency_percentile(99.0)
    contended_p99 = contended.latency_percentile(99.0)
    neurons, batch_size, _ = serving_grid(quick)
    return {
        "neurons": list(neurons),
        "batch_size": batch_size,
        "num_queries": workload.num_queries,
        "wall_seconds_serialized": serialized_wall,
        "wall_seconds_contended": contended_wall,
        "simulated": {
            "serialized": serialized.summary(),
            "contended": contended.summary(),
            "p99_inflation": contended_p99 / serialized_p99,
        },
    }


def _fingerprint(simulated: dict) -> str:
    canonical = json.dumps(simulated, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def check_fingerprint(path: Path, record: dict) -> None:
    """Refuse ``record`` unless it reproduces the latest same-size fingerprint.

    A missing or unreadable history pins nothing here, so the first record
    of either size always lands (``append_record`` starts a missing history
    afresh and refuses an unreadable one).
    """
    try:
        history = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return
    pinned = [
        previous
        for previous in history.get("records", [])
        if previous.get("quick") == record["quick"]
    ]
    if pinned and pinned[-1]["fingerprint"] != record["fingerprint"]:
        size = "quick" if record["quick"] else "full"
        raise RuntimeError(
            f"simulated fingerprint moved: this {size} flash crowd hashes to "
            f"{record['fingerprint']} but the latest {size} record in {path.name} "
            f"('{pinned[-1].get('label')}') pinned {pinned[-1]['fingerprint']}; "
            "nothing was recorded"
        )


def run(quick: bool = False, label: str | None = None) -> dict:
    first = _serve_pair(quick)
    second = _serve_pair(quick)
    if first["simulated"] != second["simulated"]:
        raise AssertionError(
            "interleaved replay is non-deterministic: two serves under the "
            "same contention config produced different summaries"
        )

    serialized_p99 = first["simulated"]["serialized"]["p99_latency_seconds"]
    contended_p99 = first["simulated"]["contended"]["p99_latency_seconds"]
    if not contended_p99 > serialized_p99:
        raise AssertionError(
            f"contention did not inflate the flash crowd's tail "
            f"(serialized p99 {serialized_p99!r}, contended p99 "
            f"{contended_p99!r}); the contention config is miscalibrated"
        )

    record = {
        "label": label or git_rev(),
        "git_rev": git_rev(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "quick": quick,
        "fingerprint": _fingerprint(first["simulated"]),
        "replay": first,
    }

    append_record(
        RESULT_PATH, record, reference_check=lambda: check_fingerprint(RESULT_PATH, record)
    )

    replay = record["replay"]
    concurrency = replay["simulated"]["contended"]["concurrency"]
    print(f"concurrency benchmark -- label={record['label']} rev={record['git_rev']}")
    print(
        f"  flash crowd of {replay['num_queries']} queries over sizes "
        f"{replay['neurons']}: serialized {replay['wall_seconds_serialized']:.3f}s, "
        f"contended {replay['wall_seconds_contended']:.3f}s wall-clock "
        f"(fingerprint {record['fingerprint']}, identical across 2 replays)"
    )
    print(
        f"  p99 {serialized_p99:.3f}s -> {contended_p99:.3f}s "
        f"({replay['simulated']['p99_inflation']:.2f}x inflation), "
        f"{concurrency['interfered_query_count']} queries interfered, "
        f"{concurrency['interference_total_seconds']:.1f}s total interference"
    )
    for resource, stats in concurrency["resources"].items():
        if stats.get("capacity") is None:
            continue
        print(
            f"  {resource}: peak weight {stats['peak_weight']:.0f} over capacity "
            f"{stats['capacity']:.0f} (utilization {stats['peak_utilization']:.2f}, "
            f"backlog {stats['peak_backlog']:.0f})"
        )
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small crowd only (CI smoke)")
    parser.add_argument("--label", default=None, help="trajectory label for this record")
    args = parser.parse_args()
    run(quick=args.quick, label=args.label)


if __name__ == "__main__":
    main()
