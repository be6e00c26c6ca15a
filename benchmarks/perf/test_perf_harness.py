"""Self-tests of the perf benchmark harness (collected by the tier-1 suite).

They check the harness, not the simulator: the tracer's self-time
arithmetic, that every substituted callable is put back, the seed
discipline of the generated inputs, the ``BENCHMARK.json`` schema limits,
that the ``substrate.py`` copy of the scaled-cloud calibration still
reproduces the recorded serving fingerprint, and the ``--compare`` verdicts.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import repro  # noqa: E402
import run  # noqa: E402
import substrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestTracer:
    def test_self_time_is_duration_minus_children(self):
        clock = FakeClock()
        tracer = tracing.HostTracer(clock=clock)

        def leaf():
            clock.now += 2.0

        traced_leaf = tracer.wrap("leaf", "inner", leaf)

        def middle():
            clock.now += 1.0
            traced_leaf()
            traced_leaf()
            clock.now += 0.5

        traced_middle = tracer.wrap("middle", "inner", middle)

        def root():
            clock.now += 0.25
            traced_middle()
            clock.now += 0.25

        tracer.recording = True
        tracer.wrap("root", "outer", root)()

        assert tracer.named("leaf").calls == 2
        assert tracer.named("leaf").self_seconds == pytest.approx(4.0)
        assert tracer.named("middle").inclusive == pytest.approx(5.5)
        assert tracer.named("middle").self_seconds == pytest.approx(1.5)
        assert tracer.named("root").self_seconds == pytest.approx(0.5)
        # Self times over all layers sum to the root's wall time.
        assert tracer.layer_self_seconds() == pytest.approx({"inner": 5.5, "outer": 0.5})
        assert sum(tracer.layer_self_seconds().values()) == pytest.approx(6.0)
        # Spans carry name, layer, start, end and the span that caused them.
        by_name = {span["name"]: span for span in tracer.spans}
        assert [span["name"] for span in tracer.spans] == ["root", "middle", "leaf", "leaf"]
        assert by_name["root"]["parent"] == -1
        assert tracer.spans[2]["parent"] == tracer.spans.index(by_name["middle"])
        assert (by_name["middle"]["start"], by_name["middle"]["end"]) == (0.25, 5.75)

    def test_self_time_survives_exceptions_and_hooks_see_results(self):
        clock = FakeClock()
        tracer = tracing.HostTracer(clock=clock)
        seen = []

        def remember(args, result):
            seen.append((args, result))

        tracer.hooks["double"] = remember

        def boom():
            clock.now += 1.0
            raise ValueError("x")

        traced_boom = tracer.wrap("boom", "l", boom)
        with pytest.raises(ValueError):
            traced_boom()
        assert tracer.named("boom").self_seconds == pytest.approx(1.0)
        assert tracer.wrap("double", "l", lambda x: 2 * x)(21) == 42
        assert seen == [((21,), 42)]

    def test_every_wrapped_callable_is_restored(self):
        import repro.core.worker
        import repro.sparse.ops

        original_function = repro.sparse.ops.accumulate_spmm
        original_method = repro.FSDInference.__dict__["infer"]
        tracer = tracing.HostTracer()
        tracer.install()
        try:
            assert repro.core.worker.accumulate_spmm is repro.sparse.ops.accumulate_spmm
            assert repro.core.worker.accumulate_spmm.__wrapped__ is original_function
            assert repro.FSDInference.__dict__["infer"] is not original_method
            tracer.suspend()
            assert repro.FSDInference.__dict__["infer"] is original_method
            tracer.resume()
            assert repro.FSDInference.__dict__["infer"] is not original_method
        finally:
            tracer.uninstall()
        assert tracer.unresolved == []
        assert repro.core.worker.accumulate_spmm is repro.sparse.ops.accumulate_spmm
        assert repro.sparse.ops.accumulate_spmm is original_function
        assert repro.FSDInference.__dict__["infer"] is original_method
        for layer, spec, _ in tracing.TARGETS:
            module_name, _, path = spec.partition(":")
            owner = sys.modules[module_name]
            for part in path.split("."):
                owner = owner.__dict__[part] if isinstance(owner, type) else getattr(owner, part)
            assert not hasattr(owner, "__wrapped__"), spec


class TestSeedDiscipline:
    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_same_seed_same_inputs_other_seed_other_inputs(self, name):
        cls = workloads.WORKLOADS[name]
        reference = cls(29).input_digest()
        assert cls(29).input_digest() == reference
        assert cls(30).input_digest() != reference

    def test_default_seed_digests_are_pinned_for_every_workload(self):
        pinned = json.loads(run.DIGEST_PATH.read_text())
        assert sorted(pinned) == sorted(workloads.WORKLOADS)
        assert all(re.fullmatch(r"[0-9a-f]{64}", value) for value in pinned.values())


class TestBenchmarkSpec:
    NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

    def test_names_and_limits(self):
        assert set(SPEC) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
        }
        assert 2 <= len(SPEC["workloads"]) <= 8
        assert 1 <= len(SPEC["end_to_end"]) <= 16
        assert 1 <= len(SPEC["per_layer"]) <= 128
        names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
        assert len(names) == len(set(names))
        assert all(self.NAME.fullmatch(name) for name in names)
        assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
        assert all(0 < metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])
        assert any(
            metric["name"] == "setup_s" and metric["unit"] == "s" and metric["better"] == "lower"
            for metric in SPEC["end_to_end"]
        )
        assert SPEC["paths"] == ["benchmarks/perf"]

    def test_workloads_match_the_registry(self):
        assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
        assert run.DEFAULT_SEED == workloads.DEFAULT_SEED
        assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
            name: cls.why for name, cls in workloads.WORKLOADS.items()
        }


class TestSubstrate:
    def test_quick_grid_reproduces_recorded_serving_fingerprint(self):
        """The copied calibration must equal ``benchmarks/common.py``'s."""
        history = json.loads((ROOT / "BENCH_serving.json").read_text())
        quick = [
            record["replay"]
            for record in history["records"]
            if record.get("quick")
            and "replay" in record
            and "coalesce_window_seconds" not in record["replay"]
        ]
        assert quick, "BENCH_serving.json holds no quick replay record"
        prepared = substrate.prepare_serving(substrate.QUICK_NEURONS, substrate.QUICK_BATCH)
        trace = repro.generate_sporadic_workload(
            daily_samples=substrate.QUICK_QUERIES * substrate.QUICK_BATCH,
            batch_size=substrate.QUICK_BATCH,
            neuron_counts=substrate.QUICK_NEURONS,
            seed=substrate.SERVING_SEED,
        )
        report = repro.InferenceServer(substrate.fsd_backend(prepared)).serve(trace)
        assert report.summary() == quick[-1]["simulated"]


class TestCompare:
    @staticmethod
    def _write(path, workload, values):
        runs = [
            {
                "workload": workload,
                "traced": False,
                "metrics": {"host_qps": {"value": value, "unit": "1/s"}},
            }
            for value in values
        ]
        path.write_text(json.dumps({"runs": runs}))
        return str(path)

    def test_verdicts(self, tmp_path, capsys):
        base = self._write(tmp_path / "a.json", "w", [100.0, 101.0, 99.0, 100.5])
        same = self._write(tmp_path / "b.json", "w", [100.2, 99.5, 100.9, 100.0])
        slower = self._write(tmp_path / "c.json", "w", [80.0, 81.0, 79.0, 80.5])
        faster = self._write(tmp_path / "d.json", "w", [120.0, 121.0, 119.0, 120.5])
        noisy = self._write(tmp_path / "e.json", "w", [70.0, 130.0, 95.0, 105.0])
        verdicts = {}
        for label, other in (("same", same), ("slower", slower), ("faster", faster), ("noisy", noisy)):
            code = run.compare(base, other, SPEC)
            verdicts[label] = (code, capsys.readouterr().out.strip().splitlines()[-1].split()[-1])
        assert verdicts == {
            "same": (0, "unchanged"),
            "slower": (1, "regressed"),
            "faster": (0, "improved"),
            "noisy": (0, "unresolved"),
        }
