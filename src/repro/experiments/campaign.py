"""Declarative experiment campaigns: scenario x backend x policy grids.

A :class:`Campaign` takes

* **scenarios** -- anything with a ``name`` and a ``build()`` returning a
  :class:`~repro.workloads.SporadicWorkload` (the scenario library's
  :class:`~repro.scenarios.Scenario` / :class:`~repro.scenarios.MixtureScenario`),
* **backend factories** -- zero-argument callables returning a fresh
  :class:`~repro.serving.ServingBackend`; each call must own a *private*
  :class:`~repro.cloud.CloudEnvironment` (cells never share a billing ledger
  or warm pool, so they are independent and safe to run concurrently), and
* **policy sets** -- zero-argument callables returning fresh
  :class:`~repro.serving.SchedulingPolicy` instances (policies are stateful
  across one serve, so every cell gets its own).

and replays the full grid through the serving layer -- each cell is one
:class:`~repro.serving.InferenceServer` serve on its own timeline.  Because
cells are independent, the runner parallelises them across a
:class:`concurrent.futures.ThreadPoolExecutor`; results land by grid index,
so the report is deterministic regardless of completion order.

The outcome is a :class:`CampaignReport`: per-cell
:meth:`~repro.serving.ServingReport.summary` dicts (the exact fingerprint
payload the serving benchmark records -- a policy-free Poisson/FSD cell
reproduces ``BENCH_serving.json`` fingerprints bit-for-bit), a stable
per-cell content hash, cross-cell pivots (cost per query, p95 latency,
cold-start fraction by scenario x backend), JSON export and a markdown table
renderer.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..chaos import ChaosConfig
from ..concurrency import ConcurrencyConfig
from ..serving import InferenceServer, SchedulingPolicy, ServingBackend, ServingConfig
from ..serving.server import check_replay_mode
from ..telemetry import TelemetryConfig
from ..telemetry.export import write_chrome_trace
from ..workloads import SporadicWorkload

__all__ = [
    "CampaignCell",
    "CellResult",
    "CampaignReport",
    "Campaign",
    "PIVOT_METRICS",
]

#: headline pivot metrics exported with every report.
PIVOT_METRICS = ("cost_per_query", "p95_latency_seconds", "cold_start_fraction")


@dataclass(frozen=True)
class CampaignCell:
    """One grid coordinate: a scenario replayed on a backend under policies."""

    scenario: str
    backend: str
    policy_set: str = "none"
    #: name of the chaos set this cell ran under; ``"none"`` (the default)
    #: keeps pre-chaos cell identities -- and their fingerprints -- unchanged.
    chaos: str = "none"
    #: name of the concurrency set this cell ran under; ``"none"`` (the
    #: default) keeps pre-concurrency cell identities unchanged, exactly
    #: like the chaos axis.
    concurrency: str = "none"

    @property
    def label(self) -> str:
        base = f"{self.scenario}/{self.backend}/{self.policy_set}"
        if self.chaos != "none":
            base = f"{base}/{self.chaos}"
        if self.concurrency != "none":
            base = f"{base}/{self.concurrency}"
        return base


@dataclass
class CellResult:
    """Outcome of replaying one cell through the serving layer."""

    cell: CampaignCell
    #: the cell's :meth:`~repro.serving.ServingReport.summary` -- the same
    #: simulated-fingerprint payload ``bench_serving.py`` records, untouched.
    summary: Dict[str, object]
    wall_seconds: float
    #: whether the campaign replayed this cell with outcome memoisation on.
    #: Cached replays time-translate recorded outcomes, which drifts floats
    #: at the ~1e-12 level, so the flag joins the fingerprint payload -- but
    #: only when ``True``, keeping every historical fingerprint byte-stable.
    #: The *columnar* fast path is bit-identical to the exact loop and is
    #: deliberately NOT part of the cell identity: a columnar replay of an
    #: uncached cell must reproduce the exact loop's fingerprint.
    outcome_cache: bool = False
    #: the recorded ``repro-trace-v1`` dict when the campaign ran with a
    #: telemetry axis (:class:`~repro.telemetry.TelemetryConfig`); ``None``
    #: otherwise.  Kept out of :attr:`fingerprint` and :meth:`to_dict` --
    #: traces are exported as standalone artifacts via
    #: :meth:`CampaignReport.export_traces`.
    trace: Optional[Dict[str, object]] = field(default=None, repr=False, compare=False)

    # -- derived metrics -------------------------------------------------------

    @property
    def num_queries(self) -> int:
        return int(self.summary["num_queries"])  # type: ignore[arg-type]

    @property
    def cost_per_query(self) -> Optional[float]:
        if self.num_queries == 0:
            return None
        return float(self.summary["cost_total"]) / self.num_queries  # type: ignore[arg-type]

    @property
    def p95_latency_seconds(self) -> Optional[float]:
        value = self.summary["p95_latency_seconds"]
        return None if value is None else float(value)  # type: ignore[arg-type]

    @property
    def cold_start_fraction(self) -> Optional[float]:
        cold = int(self.summary["cold_start_count"])  # type: ignore[arg-type]
        warm = int(self.summary["warm_start_count"])  # type: ignore[arg-type]
        total = cold + warm
        if total == 0:
            return None
        return cold / total

    def metric(self, name: str) -> object:
        """A derived metric by name, falling back to raw summary keys."""
        if name in ("cost_per_query", "p95_latency_seconds", "cold_start_fraction"):
            return getattr(self, name)
        if name in self.summary:
            return self.summary[name]
        raise KeyError(f"unknown campaign metric {name!r}")

    @property
    def fingerprint(self) -> str:
        """Stable content hash of the cell identity + simulated summary.

        Depends only on simulated quantities (never wall-clock), so a fixed
        scenario seed reproduces it bit-for-bit across runs and machines.
        """
        payload = {
            "scenario": self.cell.scenario,
            "backend": self.cell.backend,
            "policy_set": self.cell.policy_set,
            "summary": self.summary,
        }
        # Chaos-free cells keep their historical hash input byte-for-byte.
        if self.cell.chaos != "none":
            payload["chaos"] = self.cell.chaos
        # Same rule for the concurrency axis: serialized cells (the default)
        # keep their historical hash input untouched.
        if self.cell.concurrency != "none":
            payload["concurrency"] = self.cell.concurrency
        # Same pattern for memoised replays: cache-off cells (the default)
        # keep their historical hash input untouched.
        if self.outcome_cache:
            payload["outcome_cache"] = True
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def to_dict(self) -> Dict[str, object]:
        exported: Dict[str, object] = {
            "scenario": self.cell.scenario,
            "backend": self.cell.backend,
            "policy_set": self.cell.policy_set,
            "fingerprint": self.fingerprint,
            "wall_seconds": self.wall_seconds,
            "summary": self.summary,
            "cost_per_query": self.cost_per_query,
            "cold_start_fraction": self.cold_start_fraction,
        }
        if self.cell.chaos != "none":
            exported["chaos"] = self.cell.chaos
        if self.cell.concurrency != "none":
            exported["concurrency"] = self.cell.concurrency
        if self.outcome_cache:
            exported["outcome_cache"] = True
        return exported


def _format_metric(value: object) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        if math.isnan(value):
            return "n/a"
        return f"{value:.6g}"
    return str(value)


@dataclass
class CampaignReport:
    """Every cell's outcome plus cross-cell pivot views."""

    cells: List[CellResult] = field(default_factory=list)

    # -- lookup ----------------------------------------------------------------

    @property
    def scenarios(self) -> List[str]:
        return self._ordered_unique(result.cell.scenario for result in self.cells)

    @property
    def backends(self) -> List[str]:
        return self._ordered_unique(result.cell.backend for result in self.cells)

    @property
    def policy_sets(self) -> List[str]:
        return self._ordered_unique(result.cell.policy_set for result in self.cells)

    @property
    def chaos_sets(self) -> List[str]:
        return self._ordered_unique(result.cell.chaos for result in self.cells)

    @property
    def concurrency_sets(self) -> List[str]:
        return self._ordered_unique(result.cell.concurrency for result in self.cells)

    @staticmethod
    def _ordered_unique(values) -> List[str]:
        seen: Dict[str, None] = {}
        for value in values:
            seen.setdefault(value)
        return list(seen)

    def cell(
        self,
        scenario: str,
        backend: str,
        policy_set: str = "none",
        chaos: str = "none",
        concurrency: str = "none",
    ) -> CellResult:
        """The result at one grid coordinate (``KeyError`` if absent)."""
        for result in self.cells:
            if result.cell == CampaignCell(scenario, backend, policy_set, chaos, concurrency):
                return result
        raise KeyError(
            f"no campaign cell {scenario}/{backend}/{policy_set}/{chaos}/{concurrency}"
        )

    # -- pivots ----------------------------------------------------------------

    def pivot(
        self, metric: str = "cost_per_query", policy_set: Optional[str] = None
    ) -> Dict[str, Dict[str, object]]:
        """``{scenario: {backend: value}}`` for one metric and policy set.

        ``policy_set`` defaults to the first configured set, so single-set
        campaigns need not name it.
        """
        if policy_set is None:
            sets = self.policy_sets
            if not sets:
                return {}
            policy_set = sets[0]
        table: Dict[str, Dict[str, object]] = {}
        for result in self.cells:
            if result.cell.policy_set != policy_set:
                continue
            table.setdefault(result.cell.scenario, {})[result.cell.backend] = result.metric(metric)
        return table

    def pivots(self, policy_set: Optional[str] = None) -> Dict[str, Dict[str, Dict[str, object]]]:
        """The headline pivots (:data:`PIVOT_METRICS`) for one policy set."""
        return {metric: self.pivot(metric, policy_set) for metric in PIVOT_METRICS}

    # -- export ----------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        exported: Dict[str, object] = {
            "scenarios": self.scenarios,
            "backends": self.backends,
            "policy_sets": self.policy_sets,
            "cells": [result.to_dict() for result in self.cells],
            "pivots": {policy_set: self.pivots(policy_set) for policy_set in self.policy_sets},
        }
        chaos_sets = self.chaos_sets
        if chaos_sets != ["none"]:
            exported["chaos_sets"] = chaos_sets
        concurrency_sets = self.concurrency_sets
        if concurrency_sets != ["none"]:
            exported["concurrency_sets"] = concurrency_sets
        return exported

    def to_json(self, path: Optional[Union[str, "os.PathLike[str]"]] = None, indent: int = 2) -> str:
        """Serialise the report; also writes it to ``path`` when given."""
        text = json.dumps(self.to_dict(), indent=indent, sort_keys=False) + "\n"
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text)
        return text

    def export_traces(
        self, directory: Union[str, "os.PathLike[str]"]
    ) -> List[str]:
        """Write each traced cell's Chrome trace JSON into ``directory``.

        One ``<scenario>_<backend>_<policy_set>[_<chaos>].trace.json`` per
        cell that carries a recorded trace (campaigns run with a
        ``telemetry=`` axis); cells without traces are skipped.  Returns the
        written paths in cell order.
        """
        written: List[str] = []
        for result in self.cells:
            if result.trace is None:
                continue
            filename = result.cell.label.replace("/", "_") + ".trace.json"
            path = os.path.join(os.fspath(directory), filename)
            write_chrome_trace(result.trace, path)
            written.append(path)
        return written

    def render_markdown(
        self, metric: str = "cost_per_query", policy_set: Optional[str] = None
    ) -> str:
        """A GitHub-flavoured markdown pivot table (scenarios x backends)."""
        table = self.pivot(metric, policy_set)
        backends = self.backends
        header = f"| scenario | {' | '.join(backends)} |"
        separator = "|" + " --- |" * (len(backends) + 1)
        rows = []
        for scenario in self.scenarios:
            values = table.get(scenario, {})
            cells = " | ".join(_format_metric(values.get(backend)) for backend in backends)
            rows.append(f"| {scenario} | {cells} |")
        title = metric if policy_set is None else f"{metric} (policies: {policy_set})"
        return "\n".join([f"**{title}**", "", header, separator, *rows])


#: scenarios are duck-typed: a ``name`` attribute (or mapping key) plus a
#: ``build() -> SporadicWorkload`` method, checked at construction time.
ScenarioSpec = Union[Sequence[object], Mapping[str, object]]
BackendFactory = Callable[[], ServingBackend]
PolicyFactory = Callable[[], Sequence[SchedulingPolicy]]


class Campaign:
    """A declarative grid of (scenario x backend factory x policy set)."""

    def __init__(
        self,
        scenarios: ScenarioSpec,
        backends: Mapping[str, BackendFactory],
        policy_sets: Optional[Mapping[str, PolicyFactory]] = None,
        max_concurrent_queries: Optional[int] = None,
        chaos_sets: Optional[Mapping[str, Optional[ChaosConfig]]] = None,
        replay_mode: str = "exact",
        outcome_cache: bool = False,
        telemetry: Optional[TelemetryConfig] = None,
        concurrency_sets: Optional[Mapping[str, Optional[ConcurrencyConfig]]] = None,
    ):
        if isinstance(scenarios, Mapping):
            self.scenarios: Dict[str, object] = dict(scenarios)
        else:
            self.scenarios = {}
            for scenario in scenarios:
                name = getattr(scenario, "name", None)
                if not name:
                    raise ValueError(f"scenario {scenario!r} has no usable name")
                if name in self.scenarios:
                    raise ValueError(f"duplicate scenario name {name!r}")
                self.scenarios[name] = scenario
        if not self.scenarios:
            raise ValueError("a campaign needs at least one scenario")
        for name, scenario in self.scenarios.items():
            if not callable(getattr(scenario, "build", None)):
                raise TypeError(f"scenario {name!r} has no build() method")
        if not backends:
            raise ValueError("a campaign needs at least one backend factory")
        self.backends: Dict[str, BackendFactory] = dict(backends)
        self.policy_sets: Dict[str, PolicyFactory] = dict(
            policy_sets if policy_sets is not None else {"none": tuple}
        )
        if not self.policy_sets:
            raise ValueError("a campaign needs at least one policy set")
        self.max_concurrent_queries = max_concurrent_queries
        self.chaos_sets: Dict[str, Optional[ChaosConfig]] = dict(
            chaos_sets if chaos_sets is not None else {"none": None}
        )
        if not self.chaos_sets:
            raise ValueError("a campaign needs at least one chaos set")
        # Concurrency axis, mirroring the chaos axis: named
        # ConcurrencyConfigs crossed with every other coordinate.  The two
        # axes are mutually exclusive grid-wide because their cross cells
        # could never serve (ServingConfig rejects chaos + concurrency).
        self.concurrency_sets: Dict[str, Optional[ConcurrencyConfig]] = dict(
            concurrency_sets if concurrency_sets is not None else {"none": None}
        )
        if not self.concurrency_sets:
            raise ValueError("a campaign needs at least one concurrency set")
        if any(config is not None for config in self.chaos_sets.values()) and any(
            config is not None for config in self.concurrency_sets.values()
        ):
            raise ValueError(
                "chaos_sets and concurrency_sets cannot both carry non-None "
                "configs: their cross cells would be unservable (ServingConfig "
                "rejects chaos together with concurrency)"
            )
        # Replay-speed knobs, threaded into every cell's ServingConfig.
        # ``replay_mode`` picks the event core ("exact", or the
        # "auto"/"columnar" fast path); ``outcome_cache``
        # memoises whole executions across a cell's repeated (model, batch)
        # fingerprints.  Both default off so historical campaign fingerprints
        # replay unchanged; chaos cells always fall back to the exact loop.
        self.replay_mode = str(replay_mode)
        check_replay_mode(self.replay_mode)
        self.outcome_cache = bool(outcome_cache)
        # Opt-in telemetry axis: every cell serves with this TelemetryConfig
        # and carries its recorded trace on the CellResult.  ``None`` (the
        # default) keeps cells untraced and their fingerprints byte-stable.
        self.telemetry = telemetry

    def cells(self) -> List[CampaignCell]:
        """The grid in deterministic scenario-major order."""
        return [
            CampaignCell(
                scenario=scenario,
                backend=backend,
                policy_set=policy_set,
                chaos=chaos,
                concurrency=concurrency,
            )
            for scenario in self.scenarios
            for backend in self.backends
            for policy_set in self.policy_sets
            for chaos in self.chaos_sets
            for concurrency in self.concurrency_sets
        ]

    def _validate_cells(self, cells: Sequence[CampaignCell]) -> List[CampaignCell]:
        for cell in cells:
            if cell.scenario not in self.scenarios:
                raise KeyError(f"cell names unknown scenario {cell.scenario!r}")
            if cell.backend not in self.backends:
                raise KeyError(f"cell names unknown backend {cell.backend!r}")
            if cell.policy_set not in self.policy_sets:
                raise KeyError(f"cell names unknown policy set {cell.policy_set!r}")
            if cell.chaos not in self.chaos_sets:
                raise KeyError(f"cell names unknown chaos set {cell.chaos!r}")
            if cell.concurrency not in self.concurrency_sets:
                raise KeyError(f"cell names unknown concurrency set {cell.concurrency!r}")
        return list(cells)

    def run_cell(self, cell: CampaignCell) -> CellResult:
        """Replay one cell: fresh workload, fresh backend, fresh policies."""
        scenario = self.scenarios[cell.scenario]
        workload: SporadicWorkload = scenario.build()  # type: ignore[attr-defined]
        backend = self.backends[cell.backend]()
        policies = tuple(self.policy_sets[cell.policy_set]())
        # Precedence: an explicit chaos-set entry wins; otherwise a scenario
        # may carry its own ChaosConfig (the ChaosScenario wrapper).
        chaos = self.chaos_sets[cell.chaos]
        if chaos is None:
            chaos = getattr(scenario, "chaos", None)
        concurrency = self.concurrency_sets[cell.concurrency]
        server = InferenceServer(
            backend,
            ServingConfig(
                max_concurrent_queries=self.max_concurrent_queries,
                policies=policies,
                chaos=chaos,
                replay_mode=self.replay_mode,
                outcome_cache=self.outcome_cache,
                telemetry=self.telemetry,
                concurrency=concurrency,
            ),
        )
        start = time.perf_counter()
        report = server.serve(workload)
        wall_seconds = time.perf_counter() - start
        return CellResult(
            cell=cell,
            summary=report.summary(),
            wall_seconds=wall_seconds,
            outcome_cache=self.outcome_cache,
            trace=None if report.telemetry is None else report.telemetry.to_dict(),
        )

    def run(
        self,
        max_workers: Optional[int] = None,
        executor: str = "thread",
        cells: Optional[Sequence[CampaignCell]] = None,
    ) -> CampaignReport:
        """Replay the grid; cells run concurrently when possible.

        Each cell owns a private cloud environment (the backend-factory
        contract), so cells are embarrassingly parallel: they are dispatched
        to an executor pool and collected by grid index, making the report
        deterministic regardless of scheduling.  ``max_workers=1`` forces a
        serial replay (useful for profiling); the default sizes the pool to
        the grid and the machine.

        ``executor`` picks the pool kind: ``"thread"`` (default; cells spend
        much of their time in numpy/scipy, which release the GIL) or
        ``"process"`` for true multi-core replay.  The process pool pickles
        the cell dispatch, so every scenario, backend factory and policy-set
        factory must be picklable -- use named top-level factories (e.g. the
        :mod:`repro.serving.factories` specs) rather than lambdas or
        closures.  Reports are identical across executors.

        ``cells`` restricts the replay to an explicit cell list (each cell
        must name configured scenario/backend/policy-set entries) -- the
        deployment planner uses this to evaluate one (backend, policy) pair
        per candidate instead of the full cross product.
        """
        if executor not in ("thread", "process"):
            raise ValueError(f"unknown executor {executor!r}; use 'thread' or 'process'")
        cells = self.cells() if cells is None else self._validate_cells(cells)
        if max_workers is None:
            max_workers = min(len(cells), os.cpu_count() or 1)
        if max_workers <= 1 or len(cells) == 1:
            return CampaignReport(cells=[self.run_cell(cell) for cell in cells])
        pool_cls = ThreadPoolExecutor if executor == "thread" else ProcessPoolExecutor
        with pool_cls(max_workers=max_workers) as pool:
            results = list(pool.map(self.run_cell, cells))
        return CampaignReport(cells=results)
