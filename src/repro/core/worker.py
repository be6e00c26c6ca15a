"""FSI worker: the per-FaaS-instance inference routine (Algorithms 1 and 2).

Each worker owns a row block of every layer's weight matrix and of the
activation matrix.  For every layer it

1. extracts the activation rows each peer needs and ships them through the
   communication channel (multi-threaded sends, overlapping I/O),
2. performs its local partial product ``z_m = W^k_m x^{k-1}_m`` to overlap
   computation with communication,
3. polls the channel until it has received every activation row it is
   waiting for, folding each received block into ``z_m`` as it arrives,
4. applies the bias and ReLU/threshold activation to produce its rows of
   ``x^k``.

The engine drives these phases in lock step across workers so that message
causality in virtual time is preserved; the per-phase code below follows the
structure of Algorithms 1 and 2 directly (the channel object encapsulates
which of the two communication schemes is in use).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from scipy import sparse

from ..cloud import Bucket, FunctionInvocation
from ..comm import CommChannel, ThreadPool, decode_row_payload
from ..partitioning import PartitionPlan
from ..sparse import (
    accumulate_spmm,
    bias_relu_threshold,
    csr_nbytes,
    expand_rows,
    flop_count_spmm,
    gather_rows,
)
from .metrics import LayerMetrics, WorkerMetrics

__all__ = ["StagedDataLayout", "FSIWorker"]


@dataclass(frozen=True)
class StagedDataLayout:
    """Object-store layout of staged model partitions and input blocks."""

    bucket_name: str
    model_name: str
    num_workers: int
    partitioner_name: str

    def weight_key(self, worker: int, layer: int) -> str:
        return (
            f"staged/{self.model_name}/p{self.num_workers}/{self.partitioner_name}/"
            f"worker-{worker:04d}/layer-{layer:04d}.blk"
        )

    def input_key(self, worker: int) -> str:
        return (
            f"staged/{self.model_name}/p{self.num_workers}/{self.partitioner_name}/"
            f"worker-{worker:04d}/input.blk"
        )

    def full_model_key(self, layer: int) -> str:
        return f"staged/{self.model_name}/full/layer-{layer:04d}.blk"

    def full_input_key(self) -> str:
        return f"staged/{self.model_name}/full/input.blk"


class FSIWorker:
    """One FaaS worker executing the Fully Serverless Inference routine."""

    def __init__(
        self,
        worker_id: int,
        invocation: FunctionInvocation,
        plan: PartitionPlan,
        channel: CommChannel,
        data_bucket: Bucket,
        layout: StagedDataLayout,
        biases: Sequence[float],
        activation_cap: Optional[float],
        batch_size: int,
        io_threads: int = 4,
        memory_overhead_bytes: float = 0.0,
    ):
        self.worker_id = worker_id
        self.invocation = invocation
        self.plan = plan
        self.channel = channel
        self.data_bucket = data_bucket
        self.layout = layout
        self.biases = list(biases)
        self.activation_cap = activation_cap
        self.batch_size = batch_size
        self.io_threads = io_threads

        self.num_neurons = plan.num_neurons
        self.num_layers = plan.num_layers
        #: ascending global rows owned by this worker; ``x_local`` stores its
        #: activation rows in exactly this order, so row lookups are a
        #: ``searchsorted`` rather than a per-row dict probe.
        self.owned_rows = plan.worker_rows(worker_id)

        # Runtime state.  The static footprint starts at the language-runtime
        # overhead (Python + numeric libraries) configured for the deployment.
        self.weight_blocks: List[sparse.csr_matrix] = []
        self.x_local: Optional[sparse.csr_matrix] = None
        #: ``np.diff(x_local.indptr)``: one vector per layer serves the send
        #: phase's gathers and the local product's flop count.
        self._x_row_nnz: Optional[np.ndarray] = None
        self._z: Optional[sparse.csr_matrix] = None
        self._static_memory_bytes = float(memory_overhead_bytes)

        self.metrics = WorkerMetrics(
            worker=worker_id,
            cold_start=invocation.cold,
            owned_rows=len(self.owned_rows),
        )

    # -- loading ------------------------------------------------------------------------

    def load_partition(self) -> None:
        """Read this worker's weight partition from object storage (Figure 1)."""
        clock = self.invocation.clock
        start = clock.now
        total_bytes = 0.0
        self.weight_blocks = []
        for layer in range(self.num_layers):
            payload = self.data_bucket.get_object(self.layout.weight_key(self.worker_id, layer), clock)
            rows_ids, block = decode_row_payload(payload)
            if not np.array_equal(rows_ids, self.owned_rows):
                raise ValueError(
                    f"staged weight block for worker {self.worker_id}, layer {layer} "
                    "does not match the partition plan"
                )
            self.weight_blocks.append(block)
            total_bytes += csr_nbytes(block)
            self.metrics.weight_nnz += int(block.nnz)
        self._static_memory_bytes += total_bytes
        self.invocation.account_memory(self._static_memory_bytes)
        self.metrics.weight_load_seconds = clock.now - start

    def load_input(self) -> None:
        """Read this worker's rows of the inference input batch."""
        clock = self.invocation.clock
        start = clock.now
        payload = self.data_bucket.get_object(self.layout.input_key(self.worker_id), clock)
        rows_ids, block = decode_row_payload(payload)
        if not np.array_equal(rows_ids, self.owned_rows):
            raise ValueError(
                f"staged input block for worker {self.worker_id} does not match the plan"
            )
        self._set_activations(block)
        self.metrics.input_load_seconds = clock.now - start

    # -- per-layer phases ------------------------------------------------------------------

    def send_phase(self, layer: int, layer_metrics: LayerMetrics) -> None:
        """Lines 3-7 of Algorithm 1 / lines 3-8 of Algorithm 2."""
        if self.x_local is None:
            raise RuntimeError("worker input was never loaded")
        clock = self.invocation.clock
        start = clock.now
        pool = ThreadPool(clock, self.io_threads)
        send_map = self.plan.send_map(layer, self.worker_id)
        positions = self.plan.send_positions(layer, self.worker_id)
        publish_calls_before = self.channel.stats.publish_calls
        put_calls_before = self.channel.stats.put_calls

        for target in sorted(send_map):
            rows = send_map[target]
            # x_local stores the owned rows in ascending order, which is the
            # order the plan's positions index.
            extracted = gather_rows(self.x_local, positions[target], self._x_row_nnz)
            result = self.channel.send(layer, self.worker_id, target, rows, extracted, pool)
            layer_metrics.merge_counts(
                rows_sent=len(rows),
                bytes_sent=result.bytes_sent,
                messages_sent=result.chunks,
                nnz_sent=int(extracted.nnz),
            )
            self.metrics.bytes_sent += result.bytes_sent
        pool.join()

        layer_metrics.merge_counts(
            publish_calls=self.channel.stats.publish_calls - publish_calls_before,
            put_calls=self.channel.stats.put_calls - put_calls_before,
        )
        elapsed = clock.now - start
        self.metrics.send_seconds += elapsed
        layer_metrics.send_seconds += elapsed

    def local_compute(self, layer: int, layer_metrics: LayerMetrics) -> None:
        """Line 8 of Algorithm 1 / line 9 of Algorithm 2: overlap compute with comms.

        The product runs entirely in compacted local dimensions: the plan's
        pre-sliced weight kernel pairs column ``i`` directly with row ``i`` of
        ``x_local``, so the activation block is never scattered back into the
        global ``(num_neurons, batch)`` dimension.  The flop charge depends
        only on sparsity structure and is identical to the global formulation
        (weight columns outside the owned set pair with empty rows there).
        """
        if self.x_local is None:
            raise RuntimeError("worker input was never loaded")
        kernels = self.plan.layer_kernels(layer, self.worker_id)
        flops = flop_count_spmm(kernels.local, self.x_local, self._x_row_nnz)
        self._z = accumulate_spmm(None, kernels.local, self.x_local)
        duration = self.invocation.charge_compute(flops)
        self.metrics.compute_seconds += duration
        layer_metrics.compute_seconds += duration
        self._account_dynamic_memory()

    def receive_phase(self, layer: int, layer_metrics: LayerMetrics) -> None:
        """Lines 9-17 of Algorithm 1 / lines 10-23 of Algorithm 2."""
        clock = self.invocation.clock
        start = clock.now
        compute_during_receive = 0.0
        pending = set(self.plan.recv_map(layer, self.worker_id).keys())
        kernels = self.plan.layer_kernels(layer, self.worker_id)

        while pending:
            before_calls = (
                self.channel.stats.poll_calls,
                self.channel.stats.list_calls,
                self.channel.stats.get_calls,
                self.channel.stats.empty_polls,
                self.channel.stats.delete_calls,
            )
            result = self.channel.poll(layer, self.worker_id, pending, clock)
            after_calls = (
                self.channel.stats.poll_calls,
                self.channel.stats.list_calls,
                self.channel.stats.get_calls,
                self.channel.stats.empty_polls,
                self.channel.stats.delete_calls,
            )
            layer_metrics.merge_counts(
                poll_calls=after_calls[0] - before_calls[0],
                list_calls=after_calls[1] - before_calls[1],
                get_calls=after_calls[2] - before_calls[2],
                empty_polls=after_calls[3] - before_calls[3],
                delete_calls=after_calls[4] - before_calls[4],
            )
            for block in result.blocks:
                # Fold the block into z in arrival order.  The fast path
                # multiplies the pre-sliced source kernel directly against the
                # received rows (no global-dimension scatter, no full-size
                # intermediate); it applies whenever the block carries exactly
                # the rows the plan promised from that source, which is how
                # both channels deliver them.  Anything else (defensive: an
                # out-of-plan sender) falls back to the global formulation.
                w_source = kernels.by_source.get(block.source)
                if w_source is not None and np.array_equal(
                    block.global_rows, kernels.recv_rows[block.source]
                ):
                    flops = flop_count_spmm(w_source, block.rows)
                    self._z = accumulate_spmm(self._z, w_source, block.rows)
                else:
                    weight = self.weight_blocks[layer]
                    received = expand_rows(block.global_rows, block.rows, self.num_neurons)
                    flops = flop_count_spmm(weight, received)
                    self._z = accumulate_spmm(self._z, weight, received)
                duration = self.invocation.charge_compute(flops)
                compute_during_receive += duration
                self.metrics.bytes_received += block.bytes_received
                layer_metrics.bytes_received += block.bytes_received
            pending -= result.completed_sources

        elapsed = clock.now - start
        wait = max(0.0, elapsed - compute_during_receive)
        self.metrics.receive_wait_seconds += wait
        self.metrics.compute_seconds += compute_during_receive
        layer_metrics.receive_wait_seconds += wait
        layer_metrics.compute_seconds += compute_during_receive

    def finalize_layer(self, layer: int, layer_metrics: LayerMetrics) -> None:
        """Line 18 of Algorithm 1 / line 24 of Algorithm 2: bias + activation."""
        if self._z is None:
            raise RuntimeError("finalize_layer called before local_compute")
        activated = bias_relu_threshold(self._z, self.biases[layer], self.activation_cap)
        # The activation pass touches each stored entry twice (bias add, clamp).
        duration = self.invocation.charge_compute(2.0 * self._z.nnz)
        self.metrics.compute_seconds += duration
        layer_metrics.compute_seconds += duration
        layer_metrics.activation_nnz += int(activated.nnz)
        self._z = None
        self._set_activations(activated)
        self.invocation.check_timeout()

    # -- end of batch ------------------------------------------------------------------------

    def final_contribution(self) -> tuple:
        """This worker's rows of the final layer output (for the Reduce)."""
        if self.x_local is None:
            raise RuntimeError("worker has not produced any output")
        return self.owned_rows, self.x_local

    def finish(self, enforce_timeout: bool = True) -> float:
        runtime = self.invocation.finish(enforce_timeout=enforce_timeout)
        self.metrics.runtime_seconds = runtime
        self.metrics.peak_memory_mb = self.invocation.peak_memory_mb
        return runtime

    # -- helpers ---------------------------------------------------------------------------------

    def _set_activations(self, block: sparse.csr_matrix) -> None:
        """Install ``block`` as ``x_local`` with its per-row stored counts."""
        self.x_local = block
        self._x_row_nnz = np.diff(block.indptr)
        self._account_dynamic_memory()

    def _account_dynamic_memory(self) -> None:
        dynamic = 0.0
        if self.x_local is not None:
            dynamic += csr_nbytes(self.x_local)
        if self._z is not None:
            dynamic += csr_nbytes(self._z)
        self.invocation.account_memory(self._static_memory_bytes + dynamic)
