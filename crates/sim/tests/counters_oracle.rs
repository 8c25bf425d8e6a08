//! Differential property test for the bit-sliced Resource Monitor.
//!
//! [`CuKernelCounters`] stores each CU's kernel count across bit-planes
//! and updates them with ripple-carry and ripple-borrow mask arithmetic.
//! The naive model here keeps one `u16` per CU. Random
//! assign/release/saturate programs must leave every query — `get`,
//! `se_total`, `total`, `busy_mask` and every `at_level` — equal.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use krisp_sim::counters::MAX_KERNELS_PER_CU;
use krisp_sim::{CuKernelCounters, CuMask, GpuTopology};

/// MI50, the A100-like grid, and two odd shapes (the last fills all 128
/// mask bits).
const TOPOLOGIES: [(u8, u8); 4] = [(4, 15), (7, 16), (3, 5), (8, 16)];

fn check(c: &CuKernelCounters, naive: &[u16], topo: GpuTopology) -> Result<(), TestCaseError> {
    for cu in topo.cus() {
        prop_assert_eq!(c.get(cu), naive[usize::from(cu)]);
    }
    for se in topo.ses() {
        let want: u32 = topo
            .cus_in_se(se)
            .map(|cu| u32::from(naive[usize::from(cu)]))
            .sum();
        prop_assert_eq!(c.se_total(se), want);
    }
    prop_assert_eq!(c.total(), naive.iter().map(|&n| u32::from(n)).sum::<u32>());
    let busy: CuMask = topo
        .cus()
        .filter(|&cu| naive[usize::from(cu)] > 0)
        .collect();
    prop_assert_eq!(c.busy_mask(), busy);
    for level in 0..=MAX_KERNELS_PER_CU + 1 {
        let want: CuMask = topo
            .cus()
            .filter(|&cu| naive[usize::from(cu)] == level)
            .collect();
        prop_assert_eq!(c.at_level(level), want);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn bit_planes_match_per_cu_counts(
        topo_idx in 0usize..4,
        ops in vec((0u8..10, 0u64..=u64::MAX, 0u64..=u64::MAX), 1..120),
    ) {
        let (ses, per_se) = TOPOLOGIES[topo_idx];
        let topo = GpuTopology::new(ses, per_se);
        let mut c = CuKernelCounters::new(topo);
        let mut naive = vec![0u16; usize::from(topo.total_cus())];
        for (op, lo, hi) in ops {
            let raw = CuMask::from_raw_words([lo, hi]) & CuMask::full(&topo);
            // Only legal updates: assign skips CUs at the cap, release
            // skips idle ones. Saturation is rare, as CU failures are.
            let legal = |ok: fn(u16) -> bool, naive: &[u16]| -> CuMask {
                raw.iter().filter(|&cu| ok(naive[usize::from(cu)])).collect()
            };
            match op {
                0..=5 => {
                    let m = legal(|n| n < MAX_KERNELS_PER_CU, &naive);
                    c.assign(&m);
                    m.iter().for_each(|cu| naive[usize::from(cu)] += 1);
                }
                6..=8 => {
                    let m = legal(|n| n > 0, &naive);
                    c.release(&m);
                    m.iter().for_each(|cu| naive[usize::from(cu)] -= 1);
                }
                _ => {
                    let m: CuMask = raw.iter().filter(|cu| cu.0 % 7 == 0).collect();
                    c.saturate(&m);
                    m.iter().for_each(|cu| naive[usize::from(cu)] = MAX_KERNELS_PER_CU);
                }
            }
            check(&c, &naive, topo)?;
        }
    }
}
