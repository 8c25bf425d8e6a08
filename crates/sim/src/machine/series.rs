//! The machine's metric series.
//!
//! The per-CU and per-queue series (`krisp_cu_allocated_ns{cu}`,
//! `krisp_kernel_busy_ns{queue}`, the last `krisp_queue_depth{queue}`)
//! are only read after a run, so the machine accumulates them in plain
//! slots indexed by CU id and queue id and publishes them into the
//! registry once, when the run ends ([`Machine::publish_metrics`]). The
//! dispatch counters record through handles registered at construction.
//! The slots exist only while metrics record.

use krisp_obs::{CounterHandle, Metrics};

use super::Machine;
use crate::mask::CuMask;
use crate::topology::GpuTopology;

/// Slots and handles of one recording machine.
#[derive(Debug)]
pub(super) struct MachineSeries {
    metrics: Metrics,
    /// Nanoseconds each CU spent allocated to a completed kernel, by
    /// global CU id (the Resource Monitor's view, accumulated).
    cu_allocated_ns: Vec<u64>,
    /// CUs that were in a completed kernel's mask: each has a series,
    /// even if every such kernel ran for 0 ns.
    cu_seen: CuMask,
    /// Per-queue slots, by queue id.
    queues: Vec<QueueSeries>,
    /// `krisp_kernel_dispatches_total{mode="kernel_scoped"}`.
    kernel_scoped: CounterHandle,
    /// `krisp_kernel_dispatches_total{mode="queue_mask"}`.
    queue_mask: CounterHandle,
}

/// One queue's slots; `None` until the queue first records.
#[derive(Debug, Default)]
struct QueueSeries {
    busy_ns: Option<u64>,
    depth: Option<usize>,
}

impl MachineSeries {
    /// The series of a machine on `topology`, or `None` when `metrics`
    /// is disabled.
    pub(super) fn new(metrics: &Metrics, topology: &GpuTopology) -> Option<MachineSeries> {
        if !metrics.enabled() {
            return None;
        }
        let dispatches =
            |mode| metrics.register_counter("krisp_kernel_dispatches_total", &[("mode", mode)]);
        Some(MachineSeries {
            metrics: metrics.clone(),
            cu_allocated_ns: vec![0; usize::from(topology.total_cus())],
            cu_seen: CuMask::EMPTY,
            queues: Vec::new(),
            kernel_scoped: dispatches("kernel_scoped"),
            queue_mask: dispatches("queue_mask"),
        })
    }

    /// A queue was created (queue ids are dense, in creation order).
    pub(super) fn add_queue(&mut self) {
        self.queues.push(QueueSeries::default());
    }

    /// A packet was pushed, leaving `depth` packets on queue `queue`.
    pub(super) fn pushed(&mut self, queue: usize, depth: usize) {
        self.queues[queue].depth = Some(depth);
    }

    /// A kernel was dispatched, with a kernel-scoped mask or on its
    /// queue's mask.
    pub(super) fn dispatched(&self, kernel_scoped: bool) {
        if kernel_scoped {
            self.kernel_scoped.inc(1);
        } else {
            self.queue_mask.inc(1);
        }
    }

    /// A kernel on queue `queue` completed after `dur_ns` on `mask`.
    pub(super) fn completed(&mut self, queue: usize, mask: &CuMask, dur_ns: u64) {
        *self.queues[queue].busy_ns.get_or_insert(0) += dur_ns;
        for cu in mask {
            self.cu_allocated_ns[usize::from(cu)] += dur_ns;
        }
        self.cu_seen = self.cu_seen | *mask;
    }

    /// Adds the accumulated slots to the registry and empties them, so
    /// publishing again adds only what was recorded since.
    fn publish(&mut self) {
        for cu in &self.cu_seen {
            let cu = usize::from(cu);
            let ns = std::mem::take(&mut self.cu_allocated_ns[cu]);
            self.metrics
                .inc("krisp_cu_allocated_ns", &[("cu", &cu.to_string())], ns);
        }
        self.cu_seen = CuMask::EMPTY;
        for (queue, slots) in self.queues.iter_mut().enumerate() {
            let queue = queue.to_string();
            let label = [("queue", queue.as_str())];
            if let Some(ns) = slots.busy_ns.take() {
                self.metrics.inc("krisp_kernel_busy_ns", &label, ns);
            }
            if let Some(depth) = slots.depth.take() {
                self.metrics
                    .set_gauge("krisp_queue_depth", &label, depth as f64);
            }
        }
    }
}

impl Machine {
    /// Publishes the per-CU and per-queue metric series accumulated
    /// since the last call (`krisp_cu_allocated_ns`,
    /// `krisp_kernel_busy_ns`, `krisp_queue_depth`) into the registry.
    /// Call it when the run ends: until then those series are missing
    /// from a snapshot. A no-op when metrics are disabled.
    pub fn publish_metrics(&mut self) {
        if let Some(series) = &mut self.series {
            series.publish();
        }
    }
}
