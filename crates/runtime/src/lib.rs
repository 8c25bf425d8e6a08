//! # krisp-runtime — a ROCm-like GPU runtime layer
//!
//! Sits between clients (the inference server, the profiler) and the
//! simulated GPU [`krisp_sim::Machine`], mirroring the software stack of
//! Fig 9:
//!
//! * **streams** mapping 1:1 onto HSA queues, with the stream-scoped
//!   CU-Masking API ([`Runtime::set_stream_mask`]) — the baseline
//!   spatial-partitioning facility;
//! * the **Required-CUs table** ([`RequiredCusTable`]): the profiled
//!   per-kernel minimum-CU database KRISP consults at launch time,
//!   amortized into library installation in the paper (§IV-B);
//! * **KRISP interception** ([`PartitionMode::KernelScopedNative`]):
//!   every kernel launch is right-sized from the table and its AQL packet
//!   tagged with the partition size, enforced by the machine's packet
//!   processor (Fig 5);
//! * the paper's **emulation methodology**
//!   ([`PartitionMode::KernelScopedEmulated`], §V-A, Fig 11): two barrier
//!   packets injected around every kernel, a host callback triggered by
//!   the first barrier, an IOCTL that reconfigures the queue's CU mask,
//!   and a signal releasing the second barrier — with each step's latency
//!   modelled, so the emulation-overhead accounting
//!   (`L_over = L_emu_base − L_real_base`, §V-B) can be reproduced.
//!
//! ```rust
//! use krisp_runtime::{PartitionMode, Runtime, RuntimeConfig, RtEvent};
//! use krisp_sim::KernelDesc;
//!
//! let mut rt = Runtime::new(RuntimeConfig::default());
//! let s = rt.create_stream();
//! rt.launch(s, KernelDesc::new("gemm", 6.0e6, 60), 0);
//! let mut done = 0;
//! while let Some(ev) = rt.step() {
//!     if matches!(ev, RtEvent::KernelCompleted { .. }) {
//!         done += 1;
//!     }
//! }
//! assert_eq!(done, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod error;
pub mod perfdb;
pub mod runtime;
pub mod runtime_config;

pub use budget::{RetryBudget, RetryBudgetConfig};
pub use error::KrispError;
pub use perfdb::RequiredCusTable;
pub use runtime::Runtime;
pub use runtime_config::{
    EmulationCosts, MaskWidening, PartitionMode, RtEvent, RuntimeConfig, StreamId, WatchdogConfig,
};
