//! Per-CU kernel counters — the paper's **Resource Monitor** (§IV-C2,
//! §IV-D3).
//!
//! KRISP's partition-resource-mask generation (Algorithm 1) needs to know
//! how many kernels are currently assigned to every CU so it can pick the
//! least-loaded shader engines and CUs. Real hardware would extend the
//! existing per-CU thread-block tracking with a small counter per CU.
//!
//! The counters are stored **bit-sliced**, the layout such hardware
//! would use: plane *b* is a [`CuMask`] holding bit *b* of every CU's
//! count. Assigning or releasing a kernel is then a ripple-carry add or
//! ripple-borrow subtract of its mask across the planes (a few 128-bit
//! operations, independent of the CU count), and "the CUs at load
//! exactly *k*" ([`CuKernelCounters::at_level`]) is one mask expression —
//! which lets Algorithm 1 walk load levels instead of sorting CUs.
//!
//! A count runs from 0 to [`MAX_KERNELS_PER_CU`] inclusive (32: the
//! 32nd concurrent kernel is admitted, and failed CUs are pinned at 32),
//! so there are six planes: 60 CUs × 6 bits = 360 bits on an MI50 (see
//! [`CuKernelCounters::storage_bits`]). The paper's 300-bit figure counts
//! five bits per CU, which covers loads 0..=31.

use crate::mask::{low_bits, CuMask};
use crate::topology::{CuId, GpuTopology, SeId};

/// Maximum number of concurrently tracked kernels per CU (the GPU's
/// concurrent-stream limit). A counter holds `0..=MAX_KERNELS_PER_CU`.
pub const MAX_KERNELS_PER_CU: u16 = 32;

/// Bit-planes per counter: enough for `0..=MAX_KERNELS_PER_CU`.
const PLANES: usize = (u16::BITS - MAX_KERNELS_PER_CU.leading_zeros()) as usize;

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
/// assert_eq!(c.at_level(1), mask);
/// c.release(&mask);
/// assert_eq!(c.total(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CuKernelCounters {
    topology: GpuTopology,
    /// The device's CUs as bits, so plane arithmetic never strays
    /// outside them.
    device: u128,
    /// `planes[b]` holds bit `b` of every CU's count.
    planes: [u128; PLANES],
}

impl CuKernelCounters {
    /// Creates zeroed counters for a device.
    pub fn new(topology: GpuTopology) -> CuKernelCounters {
        CuKernelCounters {
            topology,
            device: low_bits(topology.total_cus().into()),
            planes: [0; PLANES],
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
        let m = self.in_range(mask);
        let full = m & self.planes[PLANES - 1];
        assert!(
            full == 0,
            "{} already tracks {MAX_KERNELS_PER_CU} kernels",
            lowest_cu(full)
        );
        // Ripple-carry add of 1 on every CU of the mask. A set top plane
        // means exactly 32, which was just ruled out, so nothing carries
        // out of it.
        let mut carry = m;
        for plane in &mut self.planes {
            if carry == 0 {
                break;
            }
            let next = *plane & carry;
            *plane ^= carry;
            carry = next;
        }
    }

    /// Records a kernel leaving every CU of `mask`.
    ///
    /// # Panics
    ///
    /// Panics if a counter would underflow (releasing a kernel that was
    /// never assigned) or if the mask addresses CUs outside the device.
    pub fn release(&mut self, mask: &CuMask) {
        let m = self.in_range(mask);
        let idle = m & !self.busy_bits();
        assert!(
            idle == 0,
            "release of unassigned kernel on {}",
            lowest_cu(idle)
        );
        // Ripple-borrow subtract of 1 on every CU of the mask.
        let mut borrow = m;
        for plane in &mut self.planes {
            if borrow == 0 {
                break;
            }
            let next = !*plane & borrow;
            *plane ^= borrow;
            borrow = next;
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
        let m = self.in_range(mask);
        let (top, low) = self.planes.split_last_mut().expect("planes");
        for plane in low {
            *plane &= !m;
        }
        *top |= m;
    }

    /// The number of kernels assigned to one CU.
    ///
    /// # Panics
    ///
    /// Panics if `cu` is out of range.
    pub fn get(&self, cu: CuId) -> u16 {
        assert!(cu.0 < self.topology.total_cus(), "{cu} out of range");
        self.planes
            .iter()
            .enumerate()
            .map(|(b, plane)| ((plane >> cu.0) as u16 & 1) << b)
            .sum()
    }

    /// Sum of kernel counts over a whole shader engine — `se_count` in
    /// Algorithm 1 (lines 4–7): Σ_b popcount(plane_b ∩ SE) << b.
    ///
    /// # Panics
    ///
    /// Panics if `se` is out of range.
    pub fn se_total(&self, se: SeId) -> u32 {
        weighted_popcount(&self.planes, self.topology.se_mask(se).bits())
    }

    /// Sum of kernel counts over the whole device.
    pub fn total(&self) -> u32 {
        weighted_popcount(&self.planes, self.device)
    }

    /// The CUs that currently have at least one assigned kernel.
    pub fn busy_mask(&self) -> CuMask {
        CuMask::from_bits(self.busy_bits())
    }

    /// The CUs whose count is exactly `level` (empty above
    /// [`MAX_KERNELS_PER_CU`]). Walking levels 0, 1, 2, … and each
    /// level's CUs in ascending id order visits CUs in `(count, id)`
    /// order — Algorithm 1's "least-loaded first" — without a sort.
    pub fn at_level(&self, level: u16) -> CuMask {
        if level > MAX_KERNELS_PER_CU {
            return CuMask::EMPTY;
        }
        let bits = self
            .planes
            .iter()
            .enumerate()
            .fold(self.device, |acc, (b, &plane)| {
                if level >> b & 1 == 1 {
                    acc & plane
                } else {
                    acc & !plane
                }
            });
        CuMask::from_bits(bits)
    }

    /// Hardware storage cost of the counters in bits: one bit per plane
    /// per CU. 360 bits on an MI50 — the paper's 300 bits (§IV-D3) cover
    /// five bits per CU, loads 0..=31; this model also admits a 32nd
    /// kernel and pins failed CUs at 32, which needs a sixth bit.
    pub fn storage_bits(&self) -> u32 {
        PLANES as u32 * u32::from(self.topology.total_cus())
    }

    fn busy_bits(&self) -> u128 {
        self.planes.iter().fold(0, |acc, plane| acc | plane)
    }

    /// The mask's bits, after checking that they lie on the device.
    fn in_range(&self, mask: &CuMask) -> u128 {
        let m = mask.bits();
        let outside = m & !self.device;
        assert!(outside == 0, "{} out of range", lowest_cu(outside));
        m
    }
}

/// Σ_b popcount(plane_b ∩ `within`) << b: the summed counts of a CU set.
fn weighted_popcount(planes: &[u128; PLANES], within: u128) -> u32 {
    planes
        .iter()
        .enumerate()
        .map(|(b, plane)| popcount(plane & within) << b)
        .sum()
}

/// `bits.count_ones()`, skipping empty 64-bit halves: at light load most
/// planes are empty, and a device of up to 64 CUs never sets the high
/// half.
fn popcount(bits: u128) -> u32 {
    let (lo, hi) = (bits as u64, (bits >> 64) as u64);
    let half = |w: u64| if w == 0 { 0 } else { w.count_ones() };
    half(lo) + half(hi)
}

/// The lowest CU of a non-empty bit set (for panic messages).
fn lowest_cu(bits: u128) -> CuId {
    CuId(bits.trailing_zeros() as u16)
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
        // 60 CUs x 6 bits = 360 bits. The paper's 300 bits (§IV-D3) are
        // 5 bits per CU, enough for loads 0..=31; this model admits a
        // 32nd kernel and pins failed CUs at 32, so it needs a sixth.
        assert_eq!(counters().storage_bits(), 360);
    }

    #[test]
    fn levels_partition_the_device() {
        let mut c = counters();
        let a: CuMask = [CuId(1), CuId(2)].into_iter().collect();
        let b: CuMask = [CuId(2)].into_iter().collect();
        c.assign(&a);
        c.assign(&b);
        c.saturate(&[CuId(59)].into_iter().collect());
        assert_eq!(c.at_level(1), [CuId(1)].into_iter().collect());
        assert_eq!(c.at_level(2), b);
        assert_eq!(
            c.at_level(MAX_KERNELS_PER_CU),
            [CuId(59)].into_iter().collect()
        );
        assert_eq!(c.at_level(0).count(), 57);
        assert!(c.at_level(MAX_KERNELS_PER_CU + 1).is_empty());
        assert_eq!(c.get(CuId(59)), MAX_KERNELS_PER_CU);
        assert_eq!(c.total(), 3 + 32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn assign_outside_device_panics() {
        let mut c = counters();
        c.assign(&[CuId(60)].into_iter().collect());
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
