//! Per-CU kernel counters — the paper's **Resource Monitor** (§IV-C2,
//! §IV-D3).
//!
//! KRISP's partition-resource-mask generation (Algorithm 1) needs to know
//! how many kernels are currently assigned to every CU so it can pick the
//! least-loaded shader engines and CUs. Real hardware would extend the
//! existing per-CU thread-block tracking; since at most 32 streams run
//! concurrently, 5 bits per CU suffice (60 CUs × 5 bits = 300 bits on an
//! MI50 — see [`CuKernelCounters::storage_bits`]).

use serde::{Deserialize, Serialize};

use crate::mask::CuMask;
use crate::topology::{CuId, GpuTopology, SeId};

/// Maximum number of concurrently tracked kernels per CU (the GPU's
/// concurrent-stream limit, which bounds the counter width to 5 bits).
pub const MAX_KERNELS_PER_CU: u16 = 32;

/// The number of kernels currently assigned to each CU.
///
/// # Examples
///
/// ```
/// use krisp_sim::{CuKernelCounters, CuMask, GpuTopology, CuId, SeId};
///
/// let topo = GpuTopology::MI50;
/// let mut c = CuKernelCounters::new(topo);
/// let mask: CuMask = [CuId(0), CuId(1)].into_iter().collect();
/// c.assign(&mask);
/// assert_eq!(c.get(CuId(0)), 1);
/// assert_eq!(c.se_total(SeId(0)), 2);
/// c.release(&mask);
/// assert_eq!(c.total(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CuKernelCounters {
    topology: GpuTopology,
    counts: Vec<u16>,
}

impl CuKernelCounters {
    /// Creates zeroed counters for a device.
    pub fn new(topology: GpuTopology) -> CuKernelCounters {
        CuKernelCounters {
            topology,
            counts: vec![0; topology.total_cus() as usize],
        }
    }

    /// The topology the counters were built for.
    pub fn topology(&self) -> GpuTopology {
        self.topology
    }

    /// Records a kernel being dispatched onto every CU of `mask`.
    ///
    /// # Panics
    ///
    /// Panics if any counter would exceed [`MAX_KERNELS_PER_CU`] (the
    /// hardware's concurrent-stream bound) or if the mask addresses CUs
    /// outside the device.
    pub fn assign(&mut self, mask: &CuMask) {
        for cu in mask {
            let slot = self.slot_mut(cu);
            assert!(
                *slot < MAX_KERNELS_PER_CU,
                "{cu} already tracks {MAX_KERNELS_PER_CU} kernels"
            );
            *slot += 1;
        }
    }

    /// Records a kernel leaving every CU of `mask`.
    ///
    /// # Panics
    ///
    /// Panics if a counter would underflow (releasing a kernel that was
    /// never assigned) or if the mask addresses CUs outside the device.
    pub fn release(&mut self, mask: &CuMask) {
        for cu in mask {
            let slot = self.slot_mut(cu);
            assert!(*slot > 0, "release of unassigned kernel on {cu}");
            *slot -= 1;
        }
    }

    /// Pins every CU of `mask` at [`MAX_KERNELS_PER_CU`], marking it
    /// permanently saturated. Used when a CU *fails*: allocators that
    /// prefer lightly-loaded CUs (and KRISP-I, which only grants idle
    /// ones) will route around saturated CUs without any special-casing.
    /// Saturated CUs must never be assigned or released again — the
    /// machine guarantees this by removing failed CUs from every
    /// dispatch mask.
    pub fn saturate(&mut self, mask: &CuMask) {
        for cu in mask {
            *self.slot_mut(cu) = MAX_KERNELS_PER_CU;
        }
    }

    /// The number of kernels assigned to one CU.
    ///
    /// # Panics
    ///
    /// Panics if `cu` is out of range.
    pub fn get(&self, cu: CuId) -> u16 {
        self.counts[self.index(cu)]
    }

    /// Sum of kernel counts over a whole shader engine — `se_count` in
    /// Algorithm 1 (lines 4–7).
    pub fn se_total(&self, se: SeId) -> u32 {
        self.topology
            .cus_in_se(se)
            .map(|cu| self.get(cu) as u32)
            .sum()
    }

    /// Sum of kernel counts over the whole device.
    pub fn total(&self) -> u32 {
        self.counts.iter().map(|&c| c as u32).sum()
    }

    /// The CUs that currently have at least one assigned kernel.
    pub fn busy_mask(&self) -> CuMask {
        self.topology.cus().filter(|&cu| self.get(cu) > 0).collect()
    }

    /// Hardware storage cost of the counters in bits: 5 bits per CU
    /// (enough for the 32-stream bound). 300 bits on an MI50, matching
    /// the paper's overhead claim (§IV-D3).
    pub fn storage_bits(&self) -> u32 {
        let bits_per_cu = u16::BITS - (MAX_KERNELS_PER_CU - 1).leading_zeros();
        self.topology.total_cus() as u32 * bits_per_cu
    }

    fn index(&self, cu: CuId) -> usize {
        assert!(cu.0 < self.topology.total_cus(), "{cu} out of range");
        cu.0 as usize
    }

    fn slot_mut(&mut self, cu: CuId) -> &mut u16 {
        let i = self.index(cu);
        &mut self.counts[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> CuKernelCounters {
        CuKernelCounters::new(GpuTopology::MI50)
    }

    #[test]
    fn assign_release_round_trip() {
        let mut c = counters();
        let m: CuMask = [CuId(0), CuId(16), CuId(59)].into_iter().collect();
        c.assign(&m);
        c.assign(&m);
        assert_eq!(c.get(CuId(16)), 2);
        assert_eq!(c.total(), 6);
        c.release(&m);
        assert_eq!(c.get(CuId(16)), 1);
        c.release(&m);
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn se_totals_track_per_engine_load() {
        let mut c = counters();
        let m: CuMask = [CuId(0), CuId(1), CuId(15)].into_iter().collect();
        c.assign(&m);
        assert_eq!(c.se_total(SeId(0)), 2);
        assert_eq!(c.se_total(SeId(1)), 1);
        assert_eq!(c.se_total(SeId(2)), 0);
    }

    #[test]
    fn busy_mask_reflects_assignments() {
        let mut c = counters();
        let m: CuMask = [CuId(3)].into_iter().collect();
        c.assign(&m);
        assert_eq!(c.busy_mask(), m);
    }

    #[test]
    fn storage_matches_paper_overhead_claim() {
        // 60 CUs x 5 bits = 300 bits (§IV-D3).
        assert_eq!(counters().storage_bits(), 300);
    }

    #[test]
    #[should_panic(expected = "unassigned")]
    fn release_underflow_panics() {
        let mut c = counters();
        let m: CuMask = [CuId(0)].into_iter().collect();
        c.release(&m);
    }

    #[test]
    #[should_panic(expected = "already tracks")]
    fn assign_overflow_panics() {
        let mut c = counters();
        let m: CuMask = [CuId(0)].into_iter().collect();
        for _ in 0..=MAX_KERNELS_PER_CU {
            c.assign(&m);
        }
    }
}
