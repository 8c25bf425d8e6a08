//! GPU topology: shader engines (SEs) and compute units (CUs).
//!
//! The reproduction targets the AMD MI50 used throughout the paper:
//! 60 CUs organized as 4 shader engines of 15 CUs each
//! ([`GpuTopology::MI50`]). Other layouts (e.g. an A100-like 7×16 grid for
//! generalizability experiments) are expressible with
//! [`GpuTopology::new`].

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::mask::{low_bits, CuMask};

/// Maximum number of CUs a [`crate::CuMask`] can represent (two 64-bit words).
pub const MAX_CUS: u16 = 128;

/// Identifier of a single compute unit, numbered globally `0..total_cus`.
///
/// CU `i` belongs to shader engine `i / cus_per_se` at index `i % cus_per_se`
/// — the same flat layout the ROCm CU-Masking API exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CuId(pub u16);

/// Identifier of a shader engine (AMD terminology; "GPC" on Nvidia parts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SeId(pub u8);

impl fmt::Display for CuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CU{}", self.0)
    }
}

impl fmt::Display for SeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SE{}", self.0)
    }
}

impl From<CuId> for usize {
    fn from(cu: CuId) -> usize {
        cu.0 as usize
    }
}

impl From<SeId> for usize {
    fn from(se: SeId) -> usize {
        se.0 as usize
    }
}

/// Shape of the GPU's compute array: how many shader engines and how many
/// CUs each shader engine contains.
///
/// # Examples
///
/// ```
/// use krisp_sim::GpuTopology;
///
/// let topo = GpuTopology::MI50;
/// assert_eq!(topo.total_cus(), 60);
/// assert_eq!(topo.num_ses(), 4);
/// assert_eq!(topo.cus_per_se(), 15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GpuTopology {
    num_ses: u8,
    cus_per_se: u8,
}

impl GpuTopology {
    /// AMD MI50: 4 shader engines × 15 CUs = 60 CUs, the GPU evaluated in
    /// the paper.
    pub const MI50: GpuTopology = GpuTopology {
        num_ses: 4,
        cus_per_se: 15,
    };

    /// An A100-like layout (7 GPCs × 16 SMs = 112 SMs) used to sanity-check
    /// that nothing in the stack hard-codes the MI50 shape.
    pub const A100_LIKE: GpuTopology = GpuTopology {
        num_ses: 7,
        cus_per_se: 16,
    };

    /// Creates a topology with `num_ses` shader engines of `cus_per_se` CUs.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the total CU count exceeds
    /// [`MAX_CUS`].
    pub fn new(num_ses: u8, cus_per_se: u8) -> GpuTopology {
        assert!(num_ses > 0, "topology needs at least one shader engine");
        assert!(cus_per_se > 0, "topology needs at least one CU per SE");
        let total = num_ses as u16 * cus_per_se as u16;
        assert!(
            total <= MAX_CUS,
            "topology of {total} CUs exceeds the {MAX_CUS}-CU mask limit"
        );
        GpuTopology {
            num_ses,
            cus_per_se,
        }
    }

    /// Number of shader engines.
    pub fn num_ses(&self) -> u8 {
        self.num_ses
    }

    /// Number of CUs in each shader engine.
    pub fn cus_per_se(&self) -> u8 {
        self.cus_per_se
    }

    /// Total number of CUs on the device.
    pub fn total_cus(&self) -> u16 {
        self.num_ses as u16 * self.cus_per_se as u16
    }

    /// The shader engine that owns a CU.
    ///
    /// # Panics
    ///
    /// Panics if `cu` is out of range for this topology.
    pub fn se_of(&self, cu: CuId) -> SeId {
        assert!(cu.0 < self.total_cus(), "{cu} out of range");
        SeId((cu.0 / self.cus_per_se as u16) as u8)
    }

    /// The CU's index within its shader engine (`0..cus_per_se`).
    ///
    /// # Panics
    ///
    /// Panics if `cu` is out of range for this topology.
    pub fn index_in_se(&self, cu: CuId) -> u8 {
        assert!(cu.0 < self.total_cus(), "{cu} out of range");
        (cu.0 % self.cus_per_se as u16) as u8
    }

    /// The global CU id for a (shader engine, index-in-SE) pair.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is out of range.
    pub fn cu_at(&self, se: SeId, index: u8) -> CuId {
        assert!(se.0 < self.num_ses, "{se} out of range");
        assert!(index < self.cus_per_se, "CU index {index} out of range");
        CuId(se.0 as u16 * self.cus_per_se as u16 + index as u16)
    }

    /// Iterator over all CU ids, in global order.
    pub fn cus(&self) -> impl Iterator<Item = CuId> {
        (0..self.total_cus()).map(CuId)
    }

    /// Iterator over all shader engine ids.
    pub fn ses(&self) -> impl Iterator<Item = SeId> {
        (0..self.num_ses).map(SeId)
    }

    /// Iterator over the CU ids belonging to one shader engine.
    ///
    /// # Panics
    ///
    /// Panics if `se` is out of range.
    pub fn cus_in_se(&self, se: SeId) -> impl Iterator<Item = CuId> {
        assert!(se.0 < self.num_ses, "{se} out of range");
        let base = se.0 as u16 * self.cus_per_se as u16;
        (base..base + self.cus_per_se as u16).map(CuId)
    }

    /// The CUs of one shader engine as a mask. CUs are contiguous per
    /// SE, so this is a shifted run of `cus_per_se` ones.
    ///
    /// # Panics
    ///
    /// Panics if `se` is out of range.
    pub fn se_mask(&self, se: SeId) -> CuMask {
        assert!(se.0 < self.num_ses, "{se} out of range");
        let base = u32::from(se.0) * u32::from(self.cus_per_se);
        CuMask::from_bits(low_bits(self.cus_per_se.into()) << base)
    }
}

impl Default for GpuTopology {
    /// Defaults to the paper's evaluation GPU, the [`GpuTopology::MI50`].
    fn default() -> GpuTopology {
        GpuTopology::MI50
    }
}

impl fmt::Display for GpuTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} SEs x {} CUs ({} CUs total)",
            self.num_ses,
            self.cus_per_se,
            self.total_cus()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mi50_shape_matches_paper() {
        let t = GpuTopology::MI50;
        assert_eq!(t.total_cus(), 60);
        assert_eq!(t.num_ses(), 4);
        assert_eq!(t.cus_per_se(), 15);
    }

    #[test]
    fn se_of_and_index_round_trip() {
        let t = GpuTopology::MI50;
        for cu in t.cus() {
            let se = t.se_of(cu);
            let idx = t.index_in_se(cu);
            assert_eq!(t.cu_at(se, idx), cu);
        }
    }

    #[test]
    fn cus_in_se_partition_the_device() {
        let t = GpuTopology::new(3, 7);
        let mut seen = vec![false; t.total_cus() as usize];
        for se in t.ses() {
            for cu in t.cus_in_se(se) {
                assert!(!seen[usize::from(cu)], "{cu} listed twice");
                seen[usize::from(cu)] = true;
                assert_eq!(t.se_of(cu), se);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn default_is_mi50() {
        assert_eq!(GpuTopology::default(), GpuTopology::MI50);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn se_of_rejects_out_of_range() {
        GpuTopology::MI50.se_of(CuId(60));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn new_rejects_oversized_topologies() {
        GpuTopology::new(16, 16); // 256 CUs > 128-bit mask
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(
            GpuTopology::MI50.to_string(),
            "4 SEs x 15 CUs (60 CUs total)"
        );
        assert_eq!(CuId(3).to_string(), "CU3");
        assert_eq!(SeId(1).to_string(), "SE1");
    }
}
