//! Kernel descriptors: the observable properties of a GPU kernel launch.
//!
//! The paper's mechanism never inspects kernel *code* — only each kernel's
//! name, launch geometry ("kernel size"), input size, and its profiled
//! minimum-CU requirement. [`KernelDesc`] carries exactly those
//! observables plus the two parameters of the analytical execution model
//! (total work and parallelism knee, see [`crate::contention`]).

use std::sync::Arc;

use crate::time::SimDuration;

/// Description of one kernel launch.
///
/// The execution model is `t(n) = work / min(n_effective, parallelism)`:
/// `work` is the kernel's total compute demand in **CU·nanoseconds** and
/// `parallelism` is the number of CUs beyond which the kernel cannot speed
/// up (its *minimum required CUs* in the paper's terminology — the
/// profiled right-size, §IV-B).
///
/// # Examples
///
/// ```
/// use krisp_sim::KernelDesc;
///
/// let k = KernelDesc::new("miopen_gemm_NT", 6.0e5, 24)
///     .with_grid_threads(98_304)
///     .with_input_bytes(1 << 20);
/// // On >= 24 CUs this kernel takes 600_000 / 24 = 25_000 ns.
/// assert_eq!(k.isolated_latency(60).as_nanos(), 25_000);
/// // Restricting below the knee slows it down proportionally.
/// assert_eq!(k.isolated_latency(12).as_nanos(), 50_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    /// Library kernel symbol (e.g. `MIOpenConvFFT_fwd_in`). Shared, so
    /// cloning a descriptor on the launch path does not allocate.
    pub name: Arc<str>,
    /// Total compute demand in CU·nanoseconds.
    pub work: f64,
    /// Parallelism knee: the least CU count at which the kernel runs at
    /// full speed. Equals the kernel's minimum required CUs.
    pub parallelism: u16,
    /// Total threads in the launch grid — the paper's "kernel size"
    /// (Fig 6a x-axis).
    pub grid_threads: u64,
    /// Bytes of input data (Fig 6b x-axis).
    pub input_bytes: u64,
    /// Memory-bandwidth floor in `0.0..=1.0`: the fraction of the
    /// kernel's full-speed rate it retains no matter how few CUs it
    /// gets. Memory-bound kernels (convolutions, GEMMs) degrade
    /// sublinearly under deep CU restriction because DRAM bandwidth, not
    /// CU count, bounds them; occupancy-bound elementwise kernels scale
    /// linearly (floor 0). The effective execution rate is
    /// `min(parallelism, max(raw_capacity, floor * parallelism))`.
    pub bandwidth_floor: f64,
}

impl KernelDesc {
    /// Creates a kernel descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `work` is not finite/positive or `parallelism` is zero.
    pub fn new(name: impl Into<Arc<str>>, work: f64, parallelism: u16) -> KernelDesc {
        assert!(
            work.is_finite() && work > 0.0,
            "kernel work must be finite and positive, got {work}"
        );
        assert!(parallelism > 0, "kernel parallelism must be at least 1");
        KernelDesc {
            name: name.into(),
            work,
            parallelism,
            grid_threads: 0,
            input_bytes: 0,
            bandwidth_floor: 0.0,
        }
    }

    /// Sets the launch-grid thread count (the "kernel size").
    pub fn with_grid_threads(mut self, grid_threads: u64) -> KernelDesc {
        self.grid_threads = grid_threads;
        self
    }

    /// Sets the input data size in bytes.
    pub fn with_input_bytes(mut self, input_bytes: u64) -> KernelDesc {
        self.input_bytes = input_bytes;
        self
    }

    /// Sets the memory-bandwidth floor (see the field docs).
    ///
    /// # Panics
    ///
    /// Panics if `floor` is outside `0.0..=1.0`.
    pub fn with_bandwidth_floor(mut self, floor: f64) -> KernelDesc {
        assert!(
            (0.0..=1.0).contains(&floor),
            "bandwidth floor must be in 0..=1, got {floor}"
        );
        self.bandwidth_floor = floor;
        self
    }

    /// Analytic latency of this kernel running *alone* on `cus` perfectly
    /// balanced CUs, excluding launch overhead and jitter.
    ///
    /// # Panics
    ///
    /// Panics if `cus` is zero.
    pub fn isolated_latency(&self, cus: u16) -> SimDuration {
        assert!(cus > 0, "a kernel cannot run on zero CUs");
        let raw = cus.min(self.parallelism) as f64;
        let eff = raw
            .max(self.bandwidth_floor * self.parallelism as f64)
            .min(self.parallelism as f64);
        SimDuration::from_nanos((self.work / eff).round() as u64)
    }

    /// The profile-database key for this kernel: (name, kernel size,
    /// input size). The paper found neither size alone predicts the
    /// minimum-CU requirement, so all three are needed (§IV-B1).
    pub fn profile_key(&self) -> (Arc<str>, u64, u64) {
        (self.name.clone(), self.grid_threads, self.input_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_latency_flat_above_knee() {
        let k = KernelDesc::new("k", 1.2e6, 20);
        assert_eq!(k.isolated_latency(20), k.isolated_latency(60));
        assert!(k.isolated_latency(10) > k.isolated_latency(20));
    }

    #[test]
    fn isolated_latency_scales_inversely_below_knee() {
        let k = KernelDesc::new("k", 1.0e6, 60);
        let t10 = k.isolated_latency(10).as_nanos() as f64;
        let t20 = k.isolated_latency(20).as_nanos() as f64;
        assert!((t10 / t20 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn builder_sets_sizes() {
        let k = KernelDesc::new("k", 1.0, 1)
            .with_grid_threads(256)
            .with_input_bytes(1024);
        assert_eq!(k.grid_threads, 256);
        assert_eq!(k.input_bytes, 1024);
        assert_eq!(k.profile_key(), (Arc::from("k"), 256, 1024));
    }

    #[test]
    #[should_panic(expected = "parallelism")]
    fn zero_parallelism_rejected() {
        KernelDesc::new("k", 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn non_positive_work_rejected() {
        KernelDesc::new("k", 0.0, 1);
    }

    #[test]
    fn bandwidth_floor_caps_restriction_slowdown() {
        let k = KernelDesc::new("conv", 6.0e6, 60).with_bandwidth_floor(0.5);
        // Above the floor: linear scaling.
        assert_eq!(k.isolated_latency(40).as_nanos(), 150_000);
        // Below the floor (30 CUs): the memory-bound floor holds.
        assert_eq!(k.isolated_latency(10), k.isolated_latency(30));
        assert_eq!(k.isolated_latency(1).as_nanos(), 200_000); // 2x cap
    }

    #[test]
    #[should_panic(expected = "bandwidth floor")]
    fn out_of_range_floor_rejected() {
        KernelDesc::new("k", 1.0, 1).with_bandwidth_floor(1.5);
    }
}
