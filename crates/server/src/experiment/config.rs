//! Configuration for one single-GPU server experiment.

use krisp::{DistributionPolicy, Policy};
use krisp_models::{paper_profile, ModelKind};
use krisp_runtime::WatchdogConfig;
use krisp_sim::{DispatchCosts, FaultPlan, GpuTopology, SimDuration};

use krisp_serve_core::SentinelConfig;

pub use krisp_serve_core::arrival::Arrival;

/// Where the KRISP policies' per-kernel partition sizes come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RightSizeSource {
    /// The profiled per-kernel minimum CUs (the paper's contribution).
    #[default]
    KernelWise,
    /// Every kernel of a model requests the *model's* kneepoint — the
    /// §II-D idea of running prior works' model-wise right-sizing on top
    /// of kernel-scoped partition instances (re-sized per request instead
    /// of per epoch). Ablating against [`RightSizeSource::KernelWise`]
    /// isolates the contribution of kernel granularity itself.
    ModelWise,
}

/// Full description of one server experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Spatial-partitioning policy.
    pub policy: Policy,
    /// One model per worker (same model co-location or mixed pairs).
    pub models: Vec<ModelKind>,
    /// Batch size per request.
    pub batch: u32,
    /// Arrival process.
    pub arrival: Arrival,
    /// Where KRISP kernels' partition sizes come from (ignored for
    /// non-KRISP policies).
    pub right_size_source: RightSizeSource,
    /// Dispatch-path latencies (launch overhead, mask generation).
    pub costs: DispatchCosts,
    /// Overrides the KRISP policies' overlap limit (Fig 16 sweep).
    pub overlap_limit: Option<u16>,
    /// Distribution rule used inside Algorithm 1 (ablation knob;
    /// the paper's choice is Conserved).
    pub allocator_distribution: DistributionPolicy,
    /// Device shape.
    pub topology: GpuTopology,
    /// Seed for duration jitter and arrival sampling.
    pub seed: u64,
    /// Lognormal sigma for kernel-duration jitter.
    pub jitter_sigma: f64,
    /// Co-residency interference factor (ablation knob; defaults to the
    /// simulator's calibrated value).
    pub sharing_penalty: f64,
    /// Scales the workloads' memory-bandwidth floors (ablation knob;
    /// 1.0 = calibrated, 0.0 = linear below-knee scaling).
    pub floor_scale: f64,
    /// Restricts every worker's stream mask to a Conserved selection of
    /// this many CUs, overriding the policy's masks — the Fig 3
    /// active-CU sweep knob.
    pub cu_restriction: Option<u16>,
    /// Warmup span before measurement starts (auto-sized if `None`).
    pub warmup: Option<SimDuration>,
    /// Measurement-window length (auto-sized if `None`).
    pub duration: Option<SimDuration>,
    /// Deterministic fault schedule (empty = no faults, zero cost).
    pub faults: FaultPlan,
    /// Kernel watchdog for straggler detection (`None` disables it).
    pub watchdog: Option<WatchdogConfig>,
    /// Bounds each worker's request queue; pushes beyond the capacity
    /// are shed. `None` keeps the pre-robustness unbounded behavior.
    pub queue_capacity: Option<usize>,
    /// Per-request deadline: queued requests that waited longer are
    /// dropped instead of served. `None` disables deadlines.
    pub deadline: Option<SimDuration>,
    /// Overload guardrails (admission control, CoDel shedding, brownout
    /// right-sizing, retry budgets). `None` keeps the pre-sentinel
    /// behavior bit-for-bit. Admission and brownout act on
    /// [`Arrival::Poisson`] traffic; the brownout controller additionally
    /// needs [`ServerConfig::deadline`] set to normalize latencies.
    pub sentinel: Option<SentinelConfig>,
}

impl ServerConfig {
    /// A closed-loop (max load) experiment with default knobs — the
    /// configuration behind Fig 13.
    pub fn closed_loop(policy: Policy, models: Vec<ModelKind>, batch: u32) -> ServerConfig {
        ServerConfig {
            policy,
            models,
            batch,
            arrival: Arrival::ClosedLoop,
            right_size_source: RightSizeSource::KernelWise,
            costs: DispatchCosts::default(),
            overlap_limit: None,
            allocator_distribution: DistributionPolicy::Conserved,
            topology: GpuTopology::MI50,
            seed: 0xC0FFEE,
            jitter_sigma: 0.03,
            sharing_penalty: krisp_sim::contention::DEFAULT_SHARING_PENALTY,
            floor_scale: 1.0,
            cu_restriction: None,
            warmup: None,
            duration: None,
            faults: FaultPlan::new(),
            watchdog: None,
            queue_capacity: None,
            deadline: None,
            sentinel: None,
        }
    }

    /// The warmup and measurement spans, auto-sized from the slowest
    /// co-located model's isolated latency when not set explicitly.
    pub fn windows(&self) -> (SimDuration, SimDuration) {
        let batch_scale = (self.batch as f64 / 32.0).powf(0.9);
        let iso_ms = self
            .models
            .iter()
            .map(|&m| paper_profile(m).p95_ms * batch_scale)
            .fold(1.0f64, f64::max);
        let warmup = self
            .warmup
            .unwrap_or_else(|| SimDuration::from_secs_f64((iso_ms * 5.0 / 1e3).max(0.05)));
        let duration = self
            .duration
            .unwrap_or_else(|| SimDuration::from_secs_f64((iso_ms * 80.0 / 1e3).clamp(2.5, 15.0)));
        (warmup, duration)
    }
}
