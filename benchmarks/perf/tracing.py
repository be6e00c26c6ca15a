"""Host-time tracing of the simulator's layers, from outside ``src/repro``.

The traced run answers "where does a query's host time go" without a single
timer inside the simulated paths (DET001 stays honest, tracing-off is
zero-cost because nothing is installed).  :class:`HostTracer` substitutes
timing wrappers for the layers' callables at run time -- every ``repro.*``
module global bound to a wrapped function object, and the class attribute
for methods -- and restores the originals on exit.

A span is one wrapped call: name, layer, start, end, parent span and the
operation/query it belongs to.  A layer's *self time* is its spans' duration
minus the part covered by child spans, so self times over all layers sum to
the traced wall time and a layer change can save at most its self-time
share.  Aggregates are kept for every call; full spans only while
``recording`` is on (the first operations of a workload), capped at
``MAX_SPANS``.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: full spans kept per traced run (aggregates are unbounded).
MAX_SPANS = 20_000

#: (layer, "module:attr" or "module:Class.method", metric tag or None).
#: The tag groups callables whose self time / call count a per-layer metric
#: reports on its own (``sparse.spmm_self_s`` = self time of tag ``spmm``).
TARGETS: Tuple[Tuple[str, str, Optional[str]], ...] = (
    # -- sparse kernels ---------------------------------------------------
    ("sparse", "repro.sparse.ops:spmm", "spmm"),
    ("sparse", "repro.sparse.ops:accumulate_spmm", "spmm"),
    ("sparse", "repro.sparse.ops:flop_count_spmm", "flopcount"),
    ("sparse", "repro.sparse.ops:add_bias_to_nonzero_structure", "activation"),
    ("sparse", "repro.sparse.ops:relu_threshold", "activation"),
    ("sparse", "repro.sparse.ops:sparsify", None),
    ("sparse", "repro.sparse.ops:activation_nnz", None),
    ("sparse", "repro.sparse.matrix:gather_rows", "gather"),
    ("sparse", "repro.sparse.matrix:positions_in_sorted", "gather"),
    ("sparse", "repro.sparse.matrix:expand_rows", "gather"),
    ("sparse", "repro.sparse.matrix:unsafe_csr", None),
    ("sparse", "repro.sparse.matrix:empty_csr", None),
    ("sparse", "repro.sparse.matrix:csr_nbytes", None),
    ("sparse", "repro.sparse.matrix:rows_with_nonzeros", None),
    ("sparse", "repro.sparse.matrix:split_rows", None),
    # -- payload encode / zlib --------------------------------------------
    ("comm.payload", "repro.comm.payload:encode_row_payload", "encode"),
    ("comm.payload", "repro.comm.payload:decode_row_payload", "decode"),
    ("comm.payload", "repro.comm.payload:chunk_rows", "chunk"),
    # -- channels and collectives -----------------------------------------
    ("comm.channel", "repro.comm.queue_channel:QueueChannel.prepare", None),
    ("comm.channel", "repro.comm.queue_channel:QueueChannel.send", "send"),
    ("comm.channel", "repro.comm.queue_channel:QueueChannel.poll", "poll"),
    ("comm.channel", "repro.comm.object_channel:ObjectChannel.prepare", None),
    ("comm.channel", "repro.comm.object_channel:ObjectChannel.send", "send"),
    ("comm.channel", "repro.comm.object_channel:ObjectChannel.poll", "poll"),
    ("comm.channel", "repro.comm.base:ThreadPool.run", None),
    ("comm.channel", "repro.comm.base:ThreadPool.join", None),
    ("comm.channel", "repro.comm.collectives:reduce_to_root", "reduce"),
    ("comm.channel", "repro.comm.collectives:barrier", None),
    # -- cloud services + billing -----------------------------------------
    ("cloud", "repro.cloud.environment:CloudEnvironment.__init__", None),
    ("cloud", "repro.cloud.environment:CloudEnvironment.report_since", None),
    ("cloud", "repro.cloud.queues:Queue.send", "op"),
    ("cloud", "repro.cloud.queues:Queue.deliver", None),
    ("cloud", "repro.cloud.queues:Queue.receive", "op"),
    ("cloud", "repro.cloud.queues:Queue.delete_batch", None),
    ("cloud", "repro.cloud.queues:QueueService.get_or_create_queue", None),
    ("cloud", "repro.cloud.pubsub:Topic.publish_batch", "op"),
    ("cloud", "repro.cloud.pubsub:Topic.subscribe", None),
    ("cloud", "repro.cloud.pubsub:PubSubService.get_or_create_topic", None),
    ("cloud", "repro.cloud.objectstore:Bucket.put_object", "op"),
    ("cloud", "repro.cloud.objectstore:Bucket.get_object", "op"),
    ("cloud", "repro.cloud.objectstore:Bucket.list_objects", "op"),
    ("cloud", "repro.cloud.objectstore:Bucket.preload_object", None),
    ("cloud", "repro.cloud.objectstore:ObjectStorageService.get_or_create_bucket", None),
    ("cloud", "repro.cloud.faas:FaaSPlatform.create_function", None),
    ("cloud", "repro.cloud.faas:FaaSPlatform.start_invocation", "invocation"),
    ("cloud", "repro.cloud.faas:FunctionInvocation.charge_compute", None),
    ("cloud", "repro.cloud.faas:FunctionInvocation.charge_duration", None),
    ("cloud", "repro.cloud.faas:FunctionInvocation.account_memory", None),
    ("cloud", "repro.cloud.faas:FunctionInvocation.check_timeout", None),
    ("cloud", "repro.cloud.faas:FunctionInvocation.finish", None),
    ("cloud", "repro.cloud.billing:BillingLedger.record", "billing"),
    ("cloud", "repro.cloud.billing:BillingLedger.report", None),
    ("cloud", "repro.cloud.billing:BillingLedger.report_since", None),
    # -- engine / worker orchestration ------------------------------------
    ("core", "repro.core.engine:FSDInference.infer", "infer"),
    ("core", "repro.core.engine:FSDInference._stage_distributed", "stage"),
    ("core", "repro.core.launch:launch_worker_tree", None),
    ("core", "repro.core.worker:FSIWorker.load_partition", "load"),
    ("core", "repro.core.worker:FSIWorker.load_input", "load"),
    ("core", "repro.core.worker:FSIWorker.send_phase", "send_phase"),
    ("core", "repro.core.worker:FSIWorker.local_compute", "local_compute"),
    ("core", "repro.core.worker:FSIWorker.receive_phase", "receive_phase"),
    ("core", "repro.core.worker:FSIWorker.finalize_layer", "finalize"),
    ("core", "repro.core.worker:FSIWorker.finish", None),
    # -- partitioning ------------------------------------------------------
    ("partitioning", "repro.partitioning.plan:PartitionPlan.layer_kernels", None),
    # -- serving loop + report aggregation ---------------------------------
    ("serving", "repro.serving.server:InferenceServer.serve", "serve"),
    ("serving", "repro.serving.backends:ServingBackend.execute_batch", "execute"),
    ("serving", "repro.serving.backends:FSDServingBackend.begin", None),
    ("serving", "repro.serving.backends:FSDServingBackend.finish", None),
    ("serving", "repro.serving.backends:ServerServingBackend.begin", None),
    ("serving", "repro.serving.backends:ServerServingBackend.finish", None),
    ("serving", "repro.serving.backends:FSDServingBackend._execute_real", None),
    ("serving", "repro.serving.backends:ServerServingBackend._execute_real", None),
    ("serving", "repro.serving.backends:EndpointServingBackend._execute_real", None),
    ("serving", "repro.serving.backends:HPCServingBackend._execute_real", None),
    ("serving", "repro.serving.backends:split_batch_outcome", None),
    ("serving", "repro.serving.server:ServingReport.summary", "summary"),
    ("serving", "repro.serving.server:peak_overlap", "summary"),
    # -- replay fast path ----------------------------------------------------
    ("serving.replaycore", "repro.serving.replaycore:columnar_serve", "columnar"),
    ("serving.replaycore", "repro.serving.replaycore:OutcomeCacheMixin._execute", "columnar"),
    ("serving.replaycore", "repro.serving.replaycore:ReplayOutcomeCache.lookup", "lookup"),
    ("serving.replaycore", "repro.serving.replaycore:ReplayOutcomeCache.end_capture", None),
    ("serving.replaycore", "repro.serving.replaycore:ColumnarSink.cost_report", "columnar"),
    ("serving.replaycore", "repro.serving.replaycore:peak_overlap_arrays", "columnar"),
    ("serving.replaycore", "repro.serving.replaycore:batch_fingerprint", None),
    # -- scheduling policies --------------------------------------------------
    ("serving.policies", "repro.serving.policies:BatchCoalescingPolicy.on_arrival", None),
    ("serving.policies", "repro.serving.policies:BatchCoalescingPolicy.on_tick", None),
    ("serving.policies", "repro.serving.policies:QueueDepthAutoscaler.admission_limit", None),
    # -- contention engine -----------------------------------------------------
    ("concurrency", "repro.concurrency.interleave:interleaved_serve", None),
    ("concurrency", "repro.concurrency.interleave:_OpCollector.channel_op", None),
    ("concurrency", "repro.concurrency.interleave:_OpCollector.invocation", None),
    ("concurrency", "repro.concurrency.arbiter:FairShareArbiter.admit", "arbiter"),
    ("concurrency", "repro.concurrency.arbiter:FairShareArbiter.on_event", "arbiter"),
    ("concurrency", "repro.concurrency.arbiter:FairShareArbiter.resource_summary", None),
    # -- baselines, scenarios, campaign runner ---------------------------------
    ("baselines", "repro.baselines.server:run_server_query", None),
    ("baselines", "repro.baselines.sagemaker:run_endpoint_query", None),
    ("baselines", "repro.baselines.hpc:run_hpc_query", None),
    ("scenarios", "repro.scenarios.scenario:Scenario.build", None),
    ("experiments", "repro.experiments.campaign:Campaign.run", None),
    ("experiments", "repro.experiments.campaign:Campaign.run_cell", "cell"),
)


def _function_bindings() -> Dict[int, List[Tuple[object, str]]]:
    """``id(function)`` -> every ``repro.*`` module global bound to it."""
    bindings: Dict[int, List[Tuple[object, str]]] = {}
    for module_name in sorted(sys.modules):
        if module_name != "repro" and not module_name.startswith("repro."):
            continue
        module = sys.modules[module_name]
        for attr, value in list(vars(module).items()):
            if callable(value):
                bindings.setdefault(id(value), []).append((module, attr))
    return bindings


class _Stat:
    """Aggregate of one wrapped callable: calls, inclusive and self seconds."""

    __slots__ = ("layer", "tag", "calls", "inclusive", "self_seconds")

    def __init__(self, layer: str, tag: Optional[str]):
        self.layer = layer
        self.tag = tag
        self.calls = 0
        self.inclusive = 0.0
        self.self_seconds = 0.0


class HostTracer:
    """Timing wrappers over named callables, with self-time aggregation.

    ``wrap`` is usable on its own (the self-tests time synthetic nested
    calls); ``install``/``uninstall`` substitute wrappers for ``TARGETS``,
    ``suspend``/``resume`` switch them off and on in between.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.stats: Dict[str, _Stat] = {}
        #: open frames, innermost last: [child seconds, span index or -1].
        self._stack: List[List[float]] = []
        self.spans: List[dict] = []
        self.recording = False
        #: operation / query the benchmark is currently driving.
        self.operation = -1
        #: (owner, attribute, original, wrapper) of every substitution.
        self._patches: List[Tuple[object, str, object, object]] = []
        self.unresolved: List[str] = []
        #: name -> callback(args, result) run after the call, outside its span.
        self.hooks: Dict[str, Callable] = {}

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, layer: str, fn: Callable, tag: Optional[str] = None) -> Callable:
        stat = self.stats.setdefault(name, _Stat(layer, tag))
        stack = self._stack
        clock = self._clock
        spans = self.spans
        tracer = self
        hook = self.hooks.get(name)

        def traced(*args, **kwargs):
            frame = [0.0, -1]
            if tracer.recording and len(spans) < MAX_SPANS:
                frame[1] = len(spans)
                spans.append(
                    {
                        "name": name,
                        "layer": layer,
                        "parent": int(stack[-1][1]) if stack else -1,
                        "operation": tracer.operation,
                    }
                )
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.inclusive += duration
                stat.self_seconds += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if frame[1] >= 0:
                    span = spans[int(frame[1])]
                    span["start"] = start
                    span["end"] = end
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ---------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Resolve ``targets`` and substitute their wrappers."""
        resolved = []
        for layer, spec, tag in targets:
            module_name, _, path = spec.partition(":")
            try:
                module = importlib.import_module(module_name)
                if "." in path:
                    class_name, attr = path.split(".")
                    owner = getattr(module, class_name)
                    original = owner.__dict__[attr]
                else:
                    owner, attr = None, path
                    original = getattr(module, attr)
            except (ImportError, AttributeError, KeyError):
                # A later PR may rename a callable; its metrics then read 0
                # and ``trace.unresolved_targets`` says why.
                self.unresolved.append(spec)
                continue
            if not callable(original) or isinstance(original, (staticmethod, classmethod)):
                self.unresolved.append(spec)
                continue
            resolved.append((owner, attr, original, self.wrap(path, layer, original, tag)))
        # Modules are imported by now, so one scan finds every alias.
        bindings = _function_bindings()
        for owner, attr, original, wrapper in resolved:
            if owner is not None:
                self._patches.append((owner, attr, original, wrapper))
            else:
                self._patches.extend(
                    (module, name, original, wrapper)
                    for module, name in bindings.get(id(original), ())
                )
        self.resume()

    def resume(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def suspend(self) -> None:
        """Put the originals back but keep the wrappers for ``resume``."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def uninstall(self) -> None:
        self.suspend()
        self._patches.clear()

    # -- aggregation ----------------------------------------------------------

    def layer_self_seconds(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for name in sorted(self.stats):
            stat = self.stats[name]
            totals[stat.layer] = totals.get(stat.layer, 0.0) + stat.self_seconds
        return totals

    def tagged(self, layer: str, tag: str) -> _Stat:
        """Sum of the stats of ``layer``'s callables carrying ``tag``."""
        total = _Stat(layer, tag)
        for name in sorted(self.stats):
            stat = self.stats[name]
            if stat.layer == layer and stat.tag == tag:
                total.calls += stat.calls
                total.inclusive += stat.inclusive
                total.self_seconds += stat.self_seconds
        return total

    def named(self, name: str) -> _Stat:
        return self.stats.get(name) or _Stat("", None)
