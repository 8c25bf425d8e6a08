//! CU resource masks — the unit of spatial-partition enforcement.
//!
//! A [`CuMask`] is a 128-bit set of compute units. It is the value the AMD
//! CU-Masking API attaches to an HSA queue, and the value KRISP's packet
//! processor generates per kernel (Algorithm 1). The mask itself is
//! topology-agnostic; shader-engine-aware views take a
//! [`GpuTopology`] argument.

use std::fmt;
use std::ops::{BitAnd, BitOr, Sub};

use serde::{Deserialize, Serialize};

use crate::topology::{CuId, GpuTopology, SeId, MAX_CUS};

/// A set of compute units, stored as a 128-bit bitmask.
///
/// # Examples
///
/// ```
/// use krisp_sim::{CuMask, GpuTopology, CuId};
///
/// let topo = GpuTopology::MI50;
/// let mask: CuMask = [CuId(0), CuId(15), CuId(30)].into_iter().collect();
/// assert_eq!(mask.count(), 3);
/// assert_eq!(mask.used_ses(&topo).len(), 3);
/// assert!(mask.contains(CuId(15)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct CuMask {
    words: [u64; 2],
}

impl CuMask {
    /// The empty mask.
    pub const EMPTY: CuMask = CuMask { words: [0, 0] };

    /// Creates an empty mask.
    pub fn new() -> CuMask {
        CuMask::EMPTY
    }

    /// A mask covering every CU of `topo`.
    pub fn full(topo: &GpuTopology) -> CuMask {
        CuMask::first_n(topo.total_cus(), topo)
    }

    /// A mask of the first `n` CUs in global order (clamped to the device
    /// size). Useful for quick tests; policy code should prefer the
    /// distribution strategies in the `krisp` crate.
    pub fn first_n(n: u16, topo: &GpuTopology) -> CuMask {
        CuMask::from_bits(low_bits(n.min(topo.total_cus()).into()))
    }

    /// Reconstructs a mask from its two raw 64-bit words (low word first),
    /// the layout the ROCm `hsa_amd_queue_cu_set_mask` IOCTL uses.
    pub fn from_raw_words(words: [u64; 2]) -> CuMask {
        CuMask { words }
    }

    /// The raw 64-bit words (low word first).
    pub fn raw_words(&self) -> [u64; 2] {
        self.words
    }

    /// Builds a mask from one 128-bit integer: bit `i` is CU `i`.
    pub const fn from_bits(bits: u128) -> CuMask {
        CuMask {
            words: [bits as u64, (bits >> 64) as u64],
        }
    }

    /// The mask as one 128-bit integer: bit `i` is CU `i`.
    pub const fn bits(&self) -> u128 {
        (self.words[1] as u128) << 64 | self.words[0] as u128
    }

    /// Adds a CU to the mask.
    ///
    /// # Panics
    ///
    /// Panics if `cu` is not representable (≥ [`MAX_CUS`]).
    pub fn set(&mut self, cu: CuId) {
        assert!(cu.0 < MAX_CUS, "{cu} exceeds mask capacity");
        self.words[(cu.0 / 64) as usize] |= 1u64 << (cu.0 % 64);
    }

    /// Removes a CU from the mask.
    ///
    /// # Panics
    ///
    /// Panics if `cu` is not representable (≥ [`MAX_CUS`]).
    pub fn clear(&mut self, cu: CuId) {
        assert!(cu.0 < MAX_CUS, "{cu} exceeds mask capacity");
        self.words[(cu.0 / 64) as usize] &= !(1u64 << (cu.0 % 64));
    }

    /// Whether the mask contains a CU.
    pub fn contains(&self, cu: CuId) -> bool {
        if cu.0 >= MAX_CUS {
            return false;
        }
        self.words[(cu.0 / 64) as usize] & (1u64 << (cu.0 % 64)) != 0
    }

    /// Number of CUs in the mask.
    pub fn count(&self) -> u16 {
        (self.words[0].count_ones() + self.words[1].count_ones()) as u16
    }

    /// True if no CU is set.
    pub fn is_empty(&self) -> bool {
        self.words == [0, 0]
    }

    /// Iterator over the CUs in the mask, in ascending id order.
    pub fn iter(&self) -> Iter {
        Iter { words: self.words }
    }

    /// The subset of this mask that falls within one shader engine.
    pub fn se_submask(&self, topo: &GpuTopology, se: SeId) -> CuMask {
        *self & topo.se_mask(se)
    }

    /// Number of mask CUs inside one shader engine.
    pub fn count_in_se(&self, topo: &GpuTopology, se: SeId) -> u16 {
        self.se_submask(topo, se).count()
    }

    /// The shader engines covered by at least one mask CU, ascending.
    ///
    /// Workgroups are split equally across exactly these SEs by the
    /// workload managers (see [`crate::contention`]).
    pub fn used_ses(&self, topo: &GpuTopology) -> Vec<SeId> {
        topo.ses()
            .filter(|&se| self.count_in_se(topo, se) > 0)
            .collect()
    }

    /// Whether the two masks share any CU.
    pub fn intersects(&self, other: &CuMask) -> bool {
        (self.words[0] & other.words[0]) | (self.words[1] & other.words[1]) != 0
    }

    /// True if every CU of `self` is also in `other`.
    pub fn is_subset_of(&self, other: &CuMask) -> bool {
        (self.words[0] & !other.words[0]) | (self.words[1] & !other.words[1]) == 0
    }
}

/// The lowest `n` bits set; all 128 when `n >= 128`.
pub(crate) const fn low_bits(n: u32) -> u128 {
    if n >= u128::BITS {
        u128::MAX
    } else {
        (1u128 << n) - 1
    }
}

/// Iterator over the CUs of a [`CuMask`], produced by [`CuMask::iter`].
///
/// Walks set bits directly (`trailing_zeros` + clear-lowest-bit) rather
/// than probing all [`MAX_CUS`] positions; ascending id order is
/// preserved because the low word is drained before the high word.
#[derive(Debug, Clone)]
pub struct Iter {
    words: [u64; 2],
}

impl Iterator for Iter {
    type Item = CuId;

    fn next(&mut self) -> Option<CuId> {
        if self.words[0] != 0 {
            let bit = self.words[0].trailing_zeros() as u16;
            self.words[0] &= self.words[0] - 1;
            Some(CuId(bit))
        } else if self.words[1] != 0 {
            let bit = self.words[1].trailing_zeros() as u16;
            self.words[1] &= self.words[1] - 1;
            Some(CuId(64 + bit))
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.words[0].count_ones() + self.words[1].count_ones()) as usize;
        (n, Some(n))
    }
}

impl FromIterator<CuId> for CuMask {
    fn from_iter<I: IntoIterator<Item = CuId>>(iter: I) -> CuMask {
        let mut m = CuMask::new();
        for cu in iter {
            m.set(cu);
        }
        m
    }
}

impl Extend<CuId> for CuMask {
    fn extend<I: IntoIterator<Item = CuId>>(&mut self, iter: I) {
        for cu in iter {
            self.set(cu);
        }
    }
}

impl IntoIterator for CuMask {
    type Item = CuId;
    type IntoIter = Iter;
    fn into_iter(self) -> Iter {
        self.iter()
    }
}

impl IntoIterator for &CuMask {
    type Item = CuId;
    type IntoIter = Iter;
    fn into_iter(self) -> Iter {
        self.iter()
    }
}

impl BitOr for CuMask {
    type Output = CuMask;
    /// Set union.
    fn bitor(self, rhs: CuMask) -> CuMask {
        CuMask {
            words: [self.words[0] | rhs.words[0], self.words[1] | rhs.words[1]],
        }
    }
}

impl BitAnd for CuMask {
    type Output = CuMask;
    /// Set intersection.
    fn bitand(self, rhs: CuMask) -> CuMask {
        CuMask {
            words: [self.words[0] & rhs.words[0], self.words[1] & rhs.words[1]],
        }
    }
}

impl Sub for CuMask {
    type Output = CuMask;
    /// Set difference: the CUs of `self` not in `rhs`.
    fn sub(self, rhs: CuMask) -> CuMask {
        CuMask {
            words: [self.words[0] & !rhs.words[0], self.words[1] & !rhs.words[1]],
        }
    }
}

impl fmt::Display for CuMask {
    /// Hex rendering matching the ROCm CU-mask convention
    /// (high word first), e.g. `0x0000000000000000_0fffffffffffffff`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:016x}_{:016x}", self.words[1], self.words[0])
    }
}

impl fmt::LowerHex for CuMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.words[1], self.words[0])
    }
}

impl fmt::Binary for CuMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:064b}{:064b}", self.words[1], self.words[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> GpuTopology {
        GpuTopology::MI50
    }

    #[test]
    fn set_clear_contains() {
        let mut m = CuMask::new();
        assert!(m.is_empty());
        m.set(CuId(0));
        m.set(CuId(63));
        m.set(CuId(64));
        assert!(m.contains(CuId(0)) && m.contains(CuId(63)) && m.contains(CuId(64)));
        assert_eq!(m.count(), 3);
        m.clear(CuId(63));
        assert!(!m.contains(CuId(63)));
        assert_eq!(m.count(), 2);
    }

    #[test]
    fn full_covers_device() {
        let m = CuMask::full(&topo());
        assert_eq!(m.count(), 60);
        assert!(topo().cus().all(|cu| m.contains(cu)));
        assert!(!m.contains(CuId(60)));
    }

    #[test]
    fn iter_visits_in_ascending_order() {
        let m: CuMask = [CuId(5), CuId(2), CuId(70)].into_iter().collect();
        let cus: Vec<u16> = m.iter().map(|c| c.0).collect();
        assert_eq!(cus, vec![2, 5, 70]);
    }

    #[test]
    fn se_views() {
        let t = topo();
        // 2 CUs in SE0, 1 in SE2.
        let m: CuMask = [CuId(0), CuId(14), CuId(31)].into_iter().collect();
        assert_eq!(m.count_in_se(&t, SeId(0)), 2);
        assert_eq!(m.count_in_se(&t, SeId(1)), 0);
        assert_eq!(m.count_in_se(&t, SeId(2)), 1);
        assert_eq!(m.used_ses(&t), vec![SeId(0), SeId(2)]);
        assert_eq!(m.se_submask(&t, SeId(0)).count(), 2);
    }

    #[test]
    fn set_algebra() {
        let a: CuMask = [CuId(1), CuId(2)].into_iter().collect();
        let b: CuMask = [CuId(2), CuId(3)].into_iter().collect();
        assert_eq!((a | b).count(), 3);
        assert_eq!((a & b).count(), 1);
        assert_eq!((a - b).count(), 1);
        assert!((a - b).contains(CuId(1)));
        assert!(a.intersects(&b));
        assert!((a & b).is_subset_of(&a));
        assert!(!a.is_subset_of(&b));
    }

    #[test]
    fn raw_words_round_trip() {
        let m: CuMask = [CuId(0), CuId(64), CuId(127)].into_iter().collect();
        assert_eq!(CuMask::from_raw_words(m.raw_words()), m);
    }

    #[test]
    fn bits_round_trip_and_match_cu_order() {
        let m: CuMask = [CuId(0), CuId(63), CuId(64), CuId(127)]
            .into_iter()
            .collect();
        assert_eq!(m.bits(), 1 | 1 << 63 | 1 << 64 | 1 << 127);
        assert_eq!(CuMask::from_bits(m.bits()), m);
        assert_eq!(
            CuMask::first_n(128, &GpuTopology::new(8, 16)).bits(),
            u128::MAX
        );
        assert_eq!(CuMask::first_n(3, &topo()).bits(), 0b111);
    }

    #[test]
    fn display_formats() {
        let mut m = CuMask::new();
        m.set(CuId(0));
        assert_eq!(m.to_string(), "0x0000000000000000_0000000000000001");
    }

    #[test]
    #[should_panic(expected = "exceeds mask capacity")]
    fn set_rejects_out_of_range() {
        CuMask::new().set(CuId(128));
    }

    #[test]
    fn first_n_clamps() {
        let m = CuMask::first_n(200, &topo());
        assert_eq!(m.count(), 60);
    }
}
