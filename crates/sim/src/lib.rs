//! # krisp-sim — a discrete-event GPU simulator substrate
//!
//! This crate models just enough of an AMD MI50-class GPU to evaluate
//! **KRISP** (kernel-wise right-sizing of spatial partitions, HPCA 2023)
//! without real hardware:
//!
//! * a [`GpuTopology`] of shader engines (SEs) and compute units (CUs)
//!   — the MI50 has 4 SEs × 15 CUs = 60 CUs ([`GpuTopology::MI50`]);
//! * [`CuMask`] spatial-partition bitmasks, the unit of enforcement for
//!   AMD's CU-Masking API and for KRISP's kernel-scoped partitions;
//! * an execution model ([`contention`]) in which workgroups are split
//!   equally across the shader engines covered by a kernel's mask and each
//!   CU is processor-shared among the kernels resident on it;
//! * a progress-based discrete-event [`Engine`] that advances co-running
//!   kernels at their current rates and finds completion times;
//! * HSA software [`queue`]s carrying AQL packets (kernel dispatches with an
//!   optional *partition size* field — KRISP's packet extension — and
//!   barrier packets with dependency signals);
//! * a [`Machine`] that plays the role of the GPU command processor /
//!   packet processor, enforcing either the baseline *per-queue* CU mask or
//!   KRISP's *kernel-scoped* partition instances via a pluggable
//!   [`MaskAllocator`];
//! * per-CU kernel counters ([`CuKernelCounters`]) — the paper's Resource
//!   Monitor (§IV-D3, 300 bits on an MI50);
//! * an activity-proportional [`PowerModel`] with an [`EnergyMeter`].
//!
//! Everything is deterministic: the only randomness is a seeded lognormal
//! jitter on kernel durations, so experiments reproduce bit-for-bit.
//!
//! ## Quick example
//!
//! ```rust
//! use krisp_sim::{Machine, MachineConfig, KernelDesc, CuMask, SimEvent};
//!
//! let mut m = Machine::new(MachineConfig::default());
//! let q = m.create_queue();
//! // Launch one kernel restricted to the first shader engine.
//! let mask = CuMask::first_n(15, &m.topology());
//! m.set_queue_mask(q, mask).unwrap();
//! m.push_dispatch(q, KernelDesc::new("vector_mul", 1.0e6, 30), 7);
//! while let Some(ev) = m.step() {
//!     if let SimEvent::KernelCompleted { tag, .. } = ev {
//!         assert_eq!(tag, 7);
//!     }
//! }
//! assert!(m.now().as_nanos() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocator;
pub mod codel;
pub mod contention;
pub mod counters;
pub mod engine;
pub mod fault;
pub mod machine;
pub mod machine_config;
pub mod mask;
pub mod power;
pub mod queue;
pub mod stats;
pub mod time;
pub mod topology;
pub mod tracelog;
pub mod wg_engine;

mod kernel;

pub use allocator::{FullMaskAllocator, MaskAllocator};
pub use codel::{CoDel, CoDelConfig};
pub use counters::CuKernelCounters;
pub use engine::{Engine, KernelId};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use kernel::KernelDesc;
pub use machine::{DispatchCosts, EnforcementMode, Machine, MachineConfig, MachineError, SimEvent};
pub use mask::CuMask;
pub use power::{EnergyMeter, PowerModel};
pub use queue::{AqlPacket, BarrierPacket, DispatchPacket, QueueId, SignalId};
pub use stats::Summary;
pub use time::{SimDuration, SimTime};
pub use topology::{CuId, GpuTopology, SeId};
pub use tracelog::{KernelSpan, TraceLog};
pub use wg_engine::{WgEngine, WgKernelId};
