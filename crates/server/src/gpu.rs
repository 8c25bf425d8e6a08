//! GPU bring-up, shared by the single-GPU server and every GPU of the
//! cluster.
//!
//! A [`GpuPlan`] holds what a deployment's GPUs have in common, computed
//! once from the partitioning policy: the partition mode, the overlap
//! limit, the kernel traces, the queue shape, and the policy's pinned
//! stream masks. [`GpuPlan::bring_up`] then builds one GPU from it: the
//! runtime with the policy's allocator (metrics-instrumented when the
//! runtime records metrics), one stream plus one [`Worker`]
//! per model, and the pinned masks.

use std::collections::HashMap;
use std::sync::Arc;

use krisp::{
    prior_work_partitions, static_equal_masks, DistributionPolicy, InstrumentedAllocator,
    KrispAllocator, Policy,
};
use krisp_models::{generate_trace, ModelKind, TraceConfig};
use krisp_obs::EventBus;
use krisp_runtime::{PartitionMode, Runtime, RuntimeConfig};
use krisp_sim::{CuMask, GpuTopology, KernelDesc, MachineError, MaskAllocator, SimDuration};

use crate::experiment::model_right_size;
use crate::queue::RequestQueue;
use crate::worker::Worker;

/// The deployment-wide half of a GPU bring-up.
pub(crate) struct GpuPlan {
    mode: PartitionMode,
    limit: u16,
    distribution: DistributionPolicy,
    /// Model and shared trace per worker, in worker order.
    workers: Vec<(ModelKind, Arc<Vec<KernelDesc>>)>,
    launch_overhead: SimDuration,
    /// An empty queue every worker starts from.
    queue: RequestQueue,
    /// The stream mask pinned per worker (`None` for kernel-scoped and
    /// MPS-default policies).
    masks: Option<Vec<CuMask>>,
}

impl GpuPlan {
    /// Plans GPUs serving one worker per entry of `models` under
    /// `policy`. `overlap_limit` overrides the policy's own limit.
    pub(crate) fn new(
        policy: Policy,
        models: &[ModelKind],
        trace_cfg: &TraceConfig,
        topology: &GpuTopology,
        overlap_limit: Option<u16>,
        distribution: DistributionPolicy,
        queue: RequestQueue,
    ) -> GpuPlan {
        let mode = if policy.is_kernel_scoped() {
            PartitionMode::KernelScopedNative
        } else {
            PartitionMode::StreamMasking
        };
        let limit = overlap_limit
            .or_else(|| policy.overlap_limit(topology))
            .unwrap_or(topology.total_cus());
        // Same-model workers share one trace.
        let mut traces: HashMap<ModelKind, Arc<Vec<KernelDesc>>> = HashMap::new();
        let workers = models
            .iter()
            .map(|&m| {
                let trace = traces
                    .entry(m)
                    .or_insert_with(|| Arc::new(generate_trace(m, trace_cfg)));
                (m, Arc::clone(trace))
            })
            .collect();
        let masks = match policy {
            Policy::MpsDefault | Policy::KrispO | Policy::KrispI => None,
            Policy::StaticEqual => Some(static_equal_masks(models.len(), topology)),
            Policy::ModelRightSize => {
                let sizes: Vec<u16> = models
                    .iter()
                    .map(|&m| model_right_size(m, trace_cfg.batch, topology))
                    .collect();
                Some(prior_work_partitions(&sizes, topology))
            }
        };
        GpuPlan {
            mode,
            limit,
            distribution,
            workers,
            launch_overhead: trace_cfg.launch_overhead,
            queue,
            masks,
        }
    }

    /// Brings up one GPU. `rt` carries everything that differs per GPU
    /// (seed, faults, perfdb, obs, …); its `mode` and `allocator` are
    /// replaced by the plan's. Worker `i` emits on `bus(i)`. A rejected
    /// mask leaves that worker on the full device; the errors are
    /// returned for the caller's books.
    pub(crate) fn bring_up(
        &self,
        rt: RuntimeConfig,
        bus: impl Fn(usize) -> EventBus,
    ) -> (Runtime, Vec<Worker>, Vec<MachineError>) {
        let alloc = KrispAllocator::new(self.limit).with_distribution(self.distribution);
        let allocator: Box<dyn MaskAllocator> = if rt.obs.metrics.enabled() {
            Box::new(InstrumentedAllocator::new(alloc, rt.obs.metrics.clone()))
        } else {
            Box::new(alloc)
        };
        let mut rt = Runtime::new(RuntimeConfig {
            mode: self.mode,
            allocator,
            ..rt
        });
        let workers: Vec<Worker> = self
            .workers
            .iter()
            .enumerate()
            .map(|(i, (model, trace))| {
                Worker::new(
                    rt.create_stream(),
                    *model,
                    Arc::clone(trace),
                    self.launch_overhead,
                    self.queue.clone(),
                    bus(i),
                )
            })
            .collect();
        let errors = self.pin_masks(&mut rt, &workers);
        (rt, workers, errors)
    }

    /// (Re-)applies the policy's pinned stream masks, returning the
    /// rejections.
    pub(crate) fn pin_masks(&self, rt: &mut Runtime, workers: &[Worker]) -> Vec<MachineError> {
        pin(rt, workers, self.masks.iter().flatten().copied())
    }
}

/// Sets worker `i`'s stream mask to the `i`-th of `masks`, returning the
/// rejections.
pub(crate) fn pin(
    rt: &mut Runtime,
    workers: &[Worker],
    masks: impl IntoIterator<Item = CuMask>,
) -> Vec<MachineError> {
    workers
        .iter()
        .zip(masks)
        .filter_map(|(w, mask)| rt.set_stream_mask(w.stream, mask).err())
        .collect()
}
