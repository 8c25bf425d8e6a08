//! The runtime's configuration and client-facing types: stream ids,
//! partitioning modes, emulation and watchdog costs, mask widening, and
//! the events a [`Runtime`](crate::Runtime) reports.

use std::fmt;
use std::sync::Arc;

use krisp_obs::Obs;
use krisp_sim::{
    CuMask, DispatchCosts, FaultPlan, FullMaskAllocator, GpuTopology, MaskAllocator, PowerModel,
    QueueId, SimDuration, SimTime,
};

use crate::budget::RetryBudgetConfig;
use crate::error::KrispError;
use crate::perfdb::RequiredCusTable;

/// Identifier of a runtime stream (maps 1:1 onto an HSA queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(pub u32);

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream{}", self.0)
    }
}

impl From<StreamId> for QueueId {
    fn from(s: StreamId) -> QueueId {
        QueueId(s.0)
    }
}

impl From<QueueId> for StreamId {
    fn from(q: QueueId) -> StreamId {
        StreamId(q.0)
    }
}

/// Latencies of the emulation path's host-side steps (§V-A, Fig 11b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmulationCosts {
    /// Barrier-consumption callback into the runtime (right-sizing lookup
    /// plus the software resource-allocation algorithm).
    pub callback: SimDuration,
    /// The HSA API / IOCTL syscall that rewrites the hardware queue's CU
    /// mask.
    pub ioctl: SimDuration,
}

impl Default for EmulationCosts {
    fn default() -> EmulationCosts {
        EmulationCosts {
            callback: SimDuration::from_micros(5),
            ioctl: SimDuration::from_micros(25),
        }
    }
}

impl EmulationCosts {
    /// Total added host latency per emulated kernel launch.
    pub fn per_kernel(&self) -> SimDuration {
        self.callback + self.ioctl
    }
}

/// The kernel watchdog: detects kernels running far past their expected
/// duration (stragglers, hung dispatches), aborts them, and retries with
/// bounded backoff before abandoning the launch.
///
/// The expected duration is the kernel's isolated latency on the mask it
/// was granted ([`KernelDesc::isolated_latency`]); co-located kernels run
/// slower than isolated, so `multiplier` must absorb legitimate sharing
/// slowdown as well as jitter — keep it generous.
///
/// [`KernelDesc::isolated_latency`]: krisp_sim::KernelDesc::isolated_latency
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// A kernel is declared hung once it has run `multiplier ×` its
    /// expected isolated latency.
    pub multiplier: f64,
    /// Deadline floor, so short kernels are not aborted on scheduling
    /// noise.
    pub min_timeout: SimDuration,
    /// Retries after the first abort before the kernel is abandoned.
    /// Also bounds CU-mask apply retries on the emulation path.
    pub max_retries: u32,
    /// Base backoff before a retry; attempt `n` waits `n × backoff`.
    pub backoff: SimDuration,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            multiplier: 8.0,
            min_timeout: SimDuration::from_micros(50),
            max_retries: 3,
            backoff: SimDuration::from_micros(20),
        }
    }
}

impl WatchdogConfig {
    /// The abort deadline for a kernel with the given expected duration.
    pub fn deadline(&self, expected: SimDuration) -> SimDuration {
        let scaled = (expected.as_nanos() as f64 * self.multiplier).round() as u64;
        SimDuration::from_nanos(scaled).max(self.min_timeout)
    }
}

/// How the runtime realizes spatial partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionMode {
    /// Baseline: partitions are stream-scoped CU masks set explicitly by
    /// the client through [`Runtime::set_stream_mask`](crate::Runtime::set_stream_mask) (AMD CU-Masking
    /// API / MPS-style policies).
    #[default]
    StreamMasking,
    /// KRISP with native hardware support: launches are right-sized from
    /// the Required-CUs table and the partition size travels in the AQL
    /// packet; the packet processor allocates the mask (1 µs).
    KernelScopedNative,
    /// KRISP emulated on stream-scoped masking, as the paper evaluates
    /// it: barrier packets + callback + IOCTL around every kernel, with
    /// the given costs.
    KernelScopedEmulated(EmulationCosts),
}

/// Configuration for [`Runtime::new`](crate::Runtime::new).
pub struct RuntimeConfig {
    /// Device shape.
    pub topology: GpuTopology,
    /// Power model.
    pub power: PowerModel,
    /// Dispatch-path latencies.
    pub costs: DispatchCosts,
    /// Partitioning mode.
    pub mode: PartitionMode,
    /// Mask allocator for the kernel-scoped modes (Algorithm 1 from the
    /// `krisp` crate in real use). Defaults to [`FullMaskAllocator`],
    /// which models KRISP hardware with a trivial policy — exactly the
    /// "emulated kernel-scoped partitions with an all-CU mask"
    /// configuration the paper uses to measure `L_emu_base`.
    pub allocator: Box<dyn MaskAllocator>,
    /// Profiled per-kernel minimum CUs, shared read-only (hosts driving
    /// many runtimes hand each one the same [`Arc`] instead of cloning
    /// the table per device).
    pub perfdb: Arc<RequiredCusTable>,
    /// RNG seed for kernel-duration jitter.
    pub seed: u64,
    /// Lognormal sigma of kernel-duration jitter (0 disables).
    pub jitter_sigma: f64,
    /// Co-residency interference factor (see `krisp_sim::contention`).
    pub sharing_penalty: f64,
    /// Observability handles (event bus + metrics), shared with the
    /// machine. Disabled by default.
    pub obs: Obs,
    /// Deterministic fault schedule passed to the machine, shared
    /// read-only. Empty by default (and an empty plan is zero-cost).
    pub faults: Arc<FaultPlan>,
    /// Kernel watchdog; `None` (the default) disables timeout detection
    /// entirely. Mask-apply faults are always retried (with
    /// [`WatchdogConfig::default`]'s budget when no watchdog is set),
    /// since the alternative was a panic.
    pub watchdog: Option<WatchdogConfig>,
    /// Global retry budget gating watchdog retries; `None` (the default)
    /// leaves retries bounded only by [`WatchdogConfig::max_retries`].
    pub retry_budget: Option<RetryBudgetConfig>,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            topology: GpuTopology::MI50,
            power: PowerModel::MI50,
            costs: DispatchCosts::default(),
            mode: PartitionMode::StreamMasking,
            allocator: Box::new(FullMaskAllocator),
            perfdb: Arc::new(RequiredCusTable::new()),
            seed: 42,
            jitter_sigma: 0.0,
            sharing_penalty: krisp_sim::contention::DEFAULT_SHARING_PENALTY,
            obs: Obs::disabled(),
            faults: Arc::new(FaultPlan::new()),
            watchdog: None,
            retry_budget: None,
        }
    }
}

impl fmt::Debug for RuntimeConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RuntimeConfig")
            .field("topology", &self.topology)
            .field("mode", &self.mode)
            .field("perfdb_len", &self.perfdb.len())
            .field("seed", &self.seed)
            .field("jitter_sigma", &self.jitter_sigma)
            .field("faults", &self.faults.events().len())
            .field("watchdog", &self.watchdog)
            .field("retry_budget", &self.retry_budget)
            .finish_non_exhaustive()
    }
}

/// Events reported to the runtime's client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtEvent {
    /// A kernel began executing in the given spatial partition.
    KernelStarted {
        /// Stream it was launched on.
        stream: StreamId,
        /// Client's correlation tag.
        tag: u64,
        /// Start instant.
        at: SimTime,
        /// Enforced CU mask.
        mask: CuMask,
    },
    /// A kernel finished.
    KernelCompleted {
        /// Stream it was launched on.
        stream: StreamId,
        /// Client's correlation tag.
        tag: u64,
        /// Completion instant.
        at: SimTime,
    },
    /// A client timer fired.
    TimerFired {
        /// Client's token.
        token: u64,
        /// Fire instant.
        at: SimTime,
    },
    /// CUs permanently failed (injected device fault). Clients should
    /// re-plan placement; the machine has already shrunk in-flight masks
    /// and poisoned the resource-monitor counters.
    CusFailed {
        /// The CUs that just died.
        mask: CuMask,
        /// Injection instant.
        at: SimTime,
    },
    /// A kernel was given up on: the watchdog aborted it and every retry
    /// also timed out. The stream continues with its next packet.
    KernelFailed {
        /// Stream it was launched on.
        stream: StreamId,
        /// Client's correlation tag.
        tag: u64,
        /// Abandonment instant.
        at: SimTime,
        /// Why it was abandoned.
        error: KrispError,
    },
}

/// How much slack the runtime adds on top of the perfdb right-size —
/// the sentinel's brownout lever. Under overload the server deliberately
/// *widens* kernel partitions toward stream-scoped/full-device masks,
/// trading KRISP's packing efficiency for latency headroom, then narrows
/// back to [`MaskWidening::None`] once headroom recovers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaskWidening {
    /// Exact right-sizing (KRISP's normal operating point).
    #[default]
    None,
    /// Scale the right-size by a percentage ≥ 100, capped at the full
    /// device (150 = grant 1.5× the profiled minimum).
    Factor(u32),
    /// Grant every kernel the full device (equivalent to the MPS-default
    /// partition while it lasts).
    FullDevice,
}

impl MaskWidening {
    /// Applies the widening to a right-sized CU count.
    pub fn apply(&self, required: u16, total: u16) -> u16 {
        match self {
            MaskWidening::None => required,
            MaskWidening::Factor(pct) => {
                let widened = (u32::from(required) * pct) / 100;
                (widened.min(u32::from(total))) as u16
            }
            MaskWidening::FullDevice => total,
        }
    }
}
