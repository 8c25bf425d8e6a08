//! Differential oracle for the level-walk Algorithm 1.
//!
//! [`reference_allocate`] is the direct transcription of the published
//! pseudocode that [`KrispAllocator`] used to run: sort the SEs by
//! `(se_total, id)`, sort each chosen SE's CUs by `(count, id)`, and walk
//! them with the running allocated/overlapped counters. The production
//! allocator reaches the same masks in closed form from the counters'
//! bit-planes; random counter states must give bit-identical masks for
//! every request size, distribution policy and overlap limit.

use proptest::collection::vec;
use proptest::prelude::*;

use krisp_sim::CuId;

use super::*;

/// The sort-based Algorithm 1, kept as the reference.
fn reference_allocate(
    overlap_limit: u16,
    distribution: DistributionPolicy,
    requested_cus: u16,
    counters: &CuKernelCounters,
    topo: &GpuTopology,
) -> CuMask {
    let total = topo.total_cus();
    let num_cus = requested_cus.clamp(1, total);
    let per_se = topo.cus_per_se() as u16;
    let (num_se, cu_per_se) = match distribution {
        DistributionPolicy::Conserved => {
            let n = num_cus.div_ceil(per_se);
            (n, num_cus.div_ceil(n))
        }
        DistributionPolicy::Packed => (num_cus.div_ceil(per_se), per_se),
        DistributionPolicy::Distributed => {
            let n = topo.num_ses() as u16;
            (n, num_cus.div_ceil(n))
        }
    };
    let mut se_order: Vec<SeId> = topo.ses().collect();
    se_order.sort_by_key(|&se| (counters.se_total(se), se.0));
    let mut mask = CuMask::new();
    let mut allocated: u16 = 0;
    let mut overlapped: u16 = 0;
    for &se in se_order.iter().take(num_se as usize) {
        let mut cu_order: Vec<_> = topo.cus_in_se(se).collect();
        cu_order.sort_by_key(|&cu| (counters.get(cu), cu.0));
        for &cu in cu_order.iter().take(cu_per_se as usize) {
            if allocated >= num_cus {
                break;
            }
            if counters.get(cu) > 0 {
                overlapped += 1;
            }
            if overlapped <= overlap_limit || counters.get(cu) == 0 {
                mask.set(cu);
            }
            allocated += 1;
        }
    }
    if mask.is_empty() {
        let cu = topo
            .cus()
            .min_by_key(|&cu| (counters.get(cu), cu.0))
            .expect("device has CUs");
        mask.set(cu);
    }
    mask
}

/// MI50, the A100-like grid, and two odd shapes (the last fills all 128
/// mask bits).
const TOPOLOGIES: [(u8, u8); 4] = [(4, 15), (7, 16), (3, 5), (8, 16)];

const POLICIES: [DistributionPolicy; 3] = [
    DistributionPolicy::Conserved,
    DistributionPolicy::Packed,
    DistributionPolicy::Distributed,
];

/// Counters with `loads[cu] % (max_load + 1)` kernels on each CU, then
/// every CU whose `saturate` draw is 0 pinned at 32 (as a failed CU).
fn counters_with(
    topo: GpuTopology,
    loads: &[u16],
    max_load: u16,
    saturate: &[u8],
) -> CuKernelCounters {
    let mut c = CuKernelCounters::new(topo);
    let load = |cu: CuId| loads[usize::from(cu)] % (max_load + 1);
    for level in 1..=max_load {
        let at_least: CuMask = topo.cus().filter(|&cu| load(cu) >= level).collect();
        c.assign(&at_least);
    }
    let failed: CuMask = topo
        .cus()
        .filter(|&cu| saturate[usize::from(cu)] == 0)
        .collect();
    c.saturate(&failed);
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn level_walk_matches_sorted_reference(
        loads in vec(0u16..=32, 128),
        max_load in 0u16..=32,
        saturate in vec(0u8..12, 128),
        request in 0u16..=130,
        policy in 0usize..3,
        limit in (0u16..3, 0u16..=128),
    ) {
        for (ses, per_se) in TOPOLOGIES {
            let topo = GpuTopology::new(ses, per_se);
            let total = topo.total_cus();
            let counters = counters_with(topo, &loads, max_load, &saturate);
            let requested = request % (total + 3);
            let overlap_limit = match limit.0 {
                0 => 0,
                1 => total,
                _ => limit.1 % (total + 1),
            };
            let distribution = POLICIES[policy];
            let mut alloc = KrispAllocator::new(overlap_limit).with_distribution(distribution);
            let got = alloc.allocate(requested, &counters, &topo);
            let want = reference_allocate(overlap_limit, distribution, requested, &counters, &topo);
            prop_assert!(
                got == want,
                "{}x{} request {} limit {} {}: got {} want {}",
                ses,
                per_se,
                requested,
                overlap_limit,
                distribution,
                got,
                want
            );
        }
    }
}
