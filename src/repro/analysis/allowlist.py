"""Curated allowlist: the audited, legitimate exceptions to detlint rules.

Every entry carries a written rationale -- this table IS the audit trail for
the handful of sites where a rule's invariant is deliberately not violated
in spirit (read-only tables, content-addressed caches, wall-clock that only
*reports*).  An entry matches a finding by (rule id, path suffix, symbol),
so it survives line-number churn; prefer inline pragmas for one-off or
test-local exceptions and this table for stable, repo-wide ones.

Policy: an entry may only be added when the rationale explains WHY the
determinism contract still holds (never "too noisy to fix").
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Tuple

from .engine import Finding

__all__ = ["AllowlistEntry", "ALLOWLIST", "allowlisted"]


@dataclass(frozen=True)
class AllowlistEntry:
    rule: str
    path_suffix: str
    symbol: str
    rationale: str


ALLOWLIST: Tuple[AllowlistEntry, ...] = (
    AllowlistEntry(
        rule="DET001",
        path_suffix="repro/experiments/campaign.py",
        symbol="perf_counter",
        rationale=(
            "Wall-clock *reporting* only: CellResult.wall_seconds measures how "
            "long a cell took to replay and never enters ServingReport.summary() "
            "or any fingerprint payload (the fingerprint policy hashes simulated "
            "values only)."
        ),
    ),
    AllowlistEntry(
        rule="DET007",
        path_suffix="repro/workloads/graph_challenge.py",
        symbol="PAPER_BIASES",
        rationale=(
            "Read-only table of the paper's published per-width bias constants; "
            "written once at import, never mutated."
        ),
    ),
    AllowlistEntry(
        rule="DET007",
        path_suffix="repro/workloads/graph_challenge.py",
        symbol="PAPER_WORKER_MEMORY_MB",
        rationale=(
            "Read-only table of the paper's published worker memory sizes; "
            "written once at import, never mutated."
        ),
    ),
    AllowlistEntry(
        rule="DET007",
        path_suffix="repro/baselines/server.py",
        symbol="_PAPER_JOB_SCOPED_INSTANCES",
        rationale=(
            "Read-only mapping of the paper's per-width EC2 instance choices; "
            "written once at import, never mutated."
        ),
    ),
    AllowlistEntry(
        rule="DET007",
        path_suffix="repro/cloud/pricing.py",
        symbol="EC2_HOURLY_PRICES",
        rationale="Read-only price book; written once at import, never mutated.",
    ),
    AllowlistEntry(
        rule="DET007",
        path_suffix="repro/cloud/pricing.py",
        symbol="EC2_INSTANCE_SPECS",
        rationale="Read-only instance-spec table; written once at import, never mutated.",
    ),
    AllowlistEntry(
        rule="DET007",
        path_suffix="repro/core/engine.py",
        symbol="_SERIAL_INPUT_PAYLOADS",
        rationale=(
            "Content-addressed staging-payload cache: keys are payload digests "
            "and values the deterministic serialized bytes, so concurrent "
            "writers can only store identical entries; a race wastes work, "
            "never changes simulated bytes."
        ),
    ),
    AllowlistEntry(
        rule="DET007",
        path_suffix="repro/comm/payload.py",
        symbol="_ZLIB_MEMO",
        rationale=(
            "Content-addressed zlib memo (ROADMAP performance invariant), both "
            "directions under one budget: the cached bytes are identical to a "
            "fresh deflate / inflate, only wall-clock is skipped; races store "
            "identical values."
        ),
    ),
)


def allowlisted(finding: Finding) -> bool:
    path = finding.path.replace(os.sep, "/")
    for entry in ALLOWLIST:
        if (
            entry.rule == finding.rule
            and entry.symbol == finding.symbol
            and path.endswith(entry.path_suffix)
        ):
            return True
    return False
