//! Algorithm 1 — partition resource-mask generation.
//!
//! This is the firmware extension at the heart of KRISP's kernel-scoped
//! partition instances (§IV-C2): given a requested partition size and the
//! per-CU kernel counters, produce a CU mask that
//!
//! 1. uses the **fewest shader engines** that fit the request
//!    (*Conserved* distribution), splitting it evenly across them;
//! 2. prefers the **least-loaded** SEs, and within each SE the
//!    least-loaded CUs;
//! 3. enforces an **overlap limit**: at most `overlap_limit` of the
//!    considered CUs may already have kernels on them. CUs beyond the
//!    limit are *skipped without replacement* (the pseudocode's
//!    `allocated_cus` advances regardless), so under contention the
//!    returned mask may hold fewer CUs than requested — this is exactly
//!    how **KRISP-I** "allocates only what is available" instead of
//!    oversubscribing.
//!
//! `overlap_limit = 0` gives KRISP-I (full isolation);
//! `overlap_limit = total CUs` gives KRISP-O (unbounded
//! oversubscription); intermediate values are the Fig 16 sensitivity
//! sweep.
//!
//! One deliberate fix to the published pseudocode: Algorithm 1 gates the
//! `setBitInMask` on the *running* overlap count, which would also refuse
//! **idle** CUs encountered after the limit has been exhausted in an
//! earlier shader engine. We grant idle CUs unconditionally — the limit
//! only bounds how many *busy* CUs an allocation may share — which is
//! the evident intent and keeps the allocation monotone.
//!
//! The pseudocode sorts SEs by load and each chosen SE's CUs by
//! `(count, id)`. This implementation reaches the same masks without a
//! sort or a heap allocation: SEs are picked by repeated minimum over
//! their totals, and within an SE the CUs in `(count, id)` order are the
//! idle CUs in ascending id, then load level 1, 2, … each in ascending id
//! — read straight off the bit-sliced counters with
//! [`CuKernelCounters::at_level`]. A differential test checks it against
//! the sort-based transcription.

use std::fmt;

use krisp_sim::counters::MAX_KERNELS_PER_CU;
use krisp_sim::topology::MAX_CUS;
use krisp_sim::{CuKernelCounters, CuMask, GpuTopology, MaskAllocator, SeId};

use crate::distribution::DistributionPolicy;

/// The paper's Algorithm 1, as a [`MaskAllocator`] pluggable into the
/// simulated packet processor (native mode) or the emulation callback.
///
/// # Examples
///
/// ```
/// use krisp::KrispAllocator;
/// use krisp_sim::{CuKernelCounters, GpuTopology, MaskAllocator};
///
/// let topo = GpuTopology::MI50;
/// let mut counters = CuKernelCounters::new(topo);
/// let mut krisp_i = KrispAllocator::isolated();
///
/// // First kernel gets its 20 CUs on the two least-loaded SEs.
/// let a = krisp_i.allocate(20, &counters, &topo);
/// assert_eq!(a.count(), 20);
/// counters.assign(&a);
///
/// // A second isolated kernel avoids every CU of the first.
/// let b = krisp_i.allocate(20, &counters, &topo);
/// assert_eq!(b.count(), 20);
/// assert!(!a.intersects(&b));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KrispAllocator {
    overlap_limit: u16,
    distribution: DistributionPolicy,
}

impl KrispAllocator {
    /// Creates an allocator with an explicit overlap limit (number of
    /// already-busy CUs a single allocation may claim) and the paper's
    /// *Conserved* distribution.
    pub fn new(overlap_limit: u16) -> KrispAllocator {
        KrispAllocator {
            overlap_limit,
            distribution: DistributionPolicy::Conserved,
        }
    }

    /// Replaces the SE-sizing rule with another distribution policy —
    /// the Fig 8 ablation applied *inside* Algorithm 1. *Packed* fills
    /// whole SEs before spilling; *Distributed* always spreads over
    /// every SE.
    pub fn with_distribution(mut self, distribution: DistributionPolicy) -> KrispAllocator {
        self.distribution = distribution;
        self
    }

    /// The configured distribution policy.
    pub fn distribution(&self) -> DistributionPolicy {
        self.distribution
    }

    /// KRISP-I: no oversubscription — concurrent kernels are isolated,
    /// and a kernel may receive fewer CUs than its right-size when the
    /// device is crowded.
    pub fn isolated() -> KrispAllocator {
        KrispAllocator::new(0)
    }

    /// KRISP-O: unbounded oversubscription — the request is always
    /// granted in full, sharing CUs freely.
    pub fn oversubscribed(topo: &GpuTopology) -> KrispAllocator {
        KrispAllocator::new(topo.total_cus())
    }

    /// The configured overlap limit.
    pub fn overlap_limit(&self) -> u16 {
        self.overlap_limit
    }
}

impl fmt::Display for KrispAllocator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "krisp(overlap_limit={}, {})",
            self.overlap_limit, self.distribution
        )
    }
}

impl MaskAllocator for KrispAllocator {
    fn allocate(
        &mut self,
        requested_cus: u16,
        counters: &CuKernelCounters,
        topo: &GpuTopology,
    ) -> CuMask {
        let total = topo.total_cus();
        let num_cus = requested_cus.clamp(1, total);
        let per_se = topo.cus_per_se() as u16;

        // Lines 2-3: SE sizing. Conserved (the paper's choice) uses the
        // fewest SEs with an even split; the other policies exist for the
        // distribution ablation.
        let (num_se, cu_per_se) = match self.distribution {
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

        // Lines 4-8: visit SEs in (total assigned kernels, id) order, by
        // repeated minimum over the totals — no sort, no allocation.
        let num_ses = usize::from(topo.num_ses());
        let mut se_totals = [0u32; MAX_CUS as usize];
        for se in topo.ses() {
            se_totals[usize::from(se)] = counters.se_total(se);
        }
        let se_totals = &se_totals[..num_ses];
        let mut chosen: u128 = 0;

        // Lines 9-23: allocate least-loaded CUs within the chosen SEs. In
        // an SE the pseudocode considers its first `take` CUs in
        // (count, id) order: the idle ones (all granted), then busy ones
        // by ascending load level, each counted as overlapped and
        // granted only while the running overlap stays within the limit.
        let idle = counters.at_level(0).bits();
        let mut mask: u128 = 0;
        let mut allocated: u16 = 0;
        let mut overlapped: u16 = 0;
        for _ in 0..usize::from(num_se).min(num_ses) {
            if allocated >= num_cus {
                break;
            }
            let se = least_loaded_unchosen(se_totals, chosen);
            chosen |= 1 << se;
            let in_se = topo.se_mask(SeId(se as u8)).bits();
            let take = cu_per_se.min(num_cus - allocated);
            let idle_taken = take.min((idle & in_se).count_ones() as u16);
            mask |= lowest_n(idle & in_se, idle_taken);
            let busy_taken = take - idle_taken;
            let mut grant = busy_taken.min(self.overlap_limit.saturating_sub(overlapped));
            for level in 1..=MAX_KERNELS_PER_CU {
                if grant == 0 {
                    break;
                }
                let at = counters.at_level(level).bits() & in_se;
                let n = grant.min(at.count_ones() as u16);
                mask |= lowest_n(at, n);
                grant -= n;
            }
            overlapped += busy_taken;
            allocated += take;
        }

        // Fallback beyond the pseudocode: a kernel must land somewhere.
        // If every considered CU was busy and the limit forbade them all,
        // grant the single least-loaded CU on the device: the lowest CU
        // of the lowest non-empty load level.
        if mask == 0 {
            let level = (0..=MAX_KERNELS_PER_CU)
                .map(|k| counters.at_level(k).bits())
                .find(|&l| l != 0)
                .expect("device has CUs");
            mask = lowest_n(level, 1);
        }
        CuMask::from_bits(mask)
    }
}

/// The unchosen SE with the least total load, lower id on ties.
fn least_loaded_unchosen(se_totals: &[u32], chosen: u128) -> usize {
    (0..se_totals.len())
        .filter(|&se| chosen >> se & 1 == 0)
        .min_by_key(|&se| se_totals[se])
        .expect("an unchosen SE remains")
}

/// The lowest `n` set bits of `bits` (all of them when it has fewer).
fn lowest_n(bits: u128, n: u16) -> u128 {
    if bits.count_ones() <= u32::from(n) {
        return bits;
    }
    let mut rest = bits;
    for _ in 0..n {
        rest &= rest - 1;
    }
    bits & !rest
}

/// A [`MaskAllocator`] wrapper that wall-clock-times every `allocate`
/// call and feeds the latency into the `krisp_mask_generation_ns`
/// histogram. This is the in-situ check of the paper's §IV-D3 claim that
/// Algorithm 1 completes in about a microsecond: wrap the production
/// allocator with it and read the histogram off the metrics snapshot.
///
/// The wrapper sits *outside* the simulated machine, so the measured
/// cost is the real host-side cost of running the algorithm, not a
/// simulated latency — and since it wraps whichever allocator the mode
/// uses (native packet processor or emulation callback), the histogram
/// count equals the number of KRISP-tagged allocations in both modes.
#[derive(Debug)]
pub struct InstrumentedAllocator<A> {
    inner: A,
    /// `krisp_mask_generation_ns`, registered once.
    latency_ns: krisp_obs::HistogramHandle,
}

impl<A: MaskAllocator> InstrumentedAllocator<A> {
    /// Wraps `inner`, reporting latencies into `metrics`.
    pub fn new(inner: A, metrics: krisp_obs::Metrics) -> InstrumentedAllocator<A> {
        InstrumentedAllocator {
            inner,
            latency_ns: metrics.register_histogram("krisp_mask_generation_ns", &[]),
        }
    }

    /// The wrapped allocator.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A: MaskAllocator> MaskAllocator for InstrumentedAllocator<A> {
    fn allocate(
        &mut self,
        requested_cus: u16,
        counters: &CuKernelCounters,
        topo: &GpuTopology,
    ) -> CuMask {
        if !self.latency_ns.enabled() {
            return self.inner.allocate(requested_cus, counters, topo);
        }
        let start = std::time::Instant::now();
        let mask = self.inner.allocate(requested_cus, counters, topo);
        self.latency_ns.observe(start.elapsed().as_nanos() as f64);
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> GpuTopology {
        GpuTopology::MI50
    }

    fn alloc_and_assign(
        a: &mut KrispAllocator,
        n: u16,
        counters: &mut CuKernelCounters,
        topo: &GpuTopology,
    ) -> CuMask {
        let m = a.allocate(n, counters, topo);
        counters.assign(&m);
        m
    }

    #[test]
    fn idle_device_request_granted_conserved() {
        let t = topo();
        let counters = CuKernelCounters::new(t);
        let mut a = KrispAllocator::isolated();
        let m = a.allocate(19, &counters, &t);
        assert_eq!(m.count(), 19);
        // Conserved: 2 SEs, 10 + 9.
        let layout = crate::distribution::se_layout(&m, &t);
        let used: Vec<u16> = layout.into_iter().filter(|&c| c > 0).collect();
        assert_eq!(used, vec![10, 9]);
    }

    #[test]
    fn least_loaded_ses_preferred() {
        let t = topo();
        let mut counters = CuKernelCounters::new(t);
        let mut a = KrispAllocator::isolated();
        // Load SE0 and SE1 with a 30-CU kernel.
        let first = alloc_and_assign(&mut a, 30, &mut counters, &t);
        assert_eq!(
            crate::distribution::se_layout(&first, &t),
            vec![15, 15, 0, 0]
        );
        // The next 30-CU request lands on SE2+SE3.
        let second = a.allocate(30, &counters, &t);
        assert_eq!(
            crate::distribution::se_layout(&second, &t),
            vec![0, 0, 15, 15]
        );
    }

    #[test]
    fn isolated_mode_shrinks_instead_of_overlapping() {
        let t = topo();
        let mut counters = CuKernelCounters::new(t);
        let mut a = KrispAllocator::isolated();
        // Occupy 50 CUs.
        alloc_and_assign(&mut a, 50, &mut counters, &t);
        // A 20-CU isolated request can only get the 10 free CUs (and of
        // the CUs Algorithm 1 considers, only the free ones are granted).
        let m = a.allocate(20, &counters, &t);
        assert!(m.count() <= 10, "got {} CUs", m.count());
        assert!(m.count() >= 1);
        for cu in &m {
            assert_eq!(counters.get(cu), 0, "{cu} was already busy");
        }
    }

    #[test]
    fn oversubscribed_mode_always_grants_in_full() {
        let t = topo();
        let mut counters = CuKernelCounters::new(t);
        let mut a = KrispAllocator::oversubscribed(&t);
        for _ in 0..4 {
            let m = alloc_and_assign(&mut a, 55, &mut counters, &t);
            assert_eq!(m.count(), 55);
        }
    }

    #[test]
    fn overlap_limit_bounds_shared_cus() {
        let t = topo();
        let mut counters = CuKernelCounters::new(t);
        // Fill the whole device with one kernel.
        counters.assign(&CuMask::full(&t));
        for limit in [0u16, 5, 15, 30] {
            let mut a = KrispAllocator::new(limit);
            let m = a.allocate(30, &counters, &t);
            let shared = m.iter().filter(|&cu| counters.get(cu) > 0).count() as u16;
            assert!(shared <= limit.max(1), "limit {limit}: shared {shared}");
        }
    }

    #[test]
    fn fully_busy_device_still_yields_one_cu() {
        let t = topo();
        let mut counters = CuKernelCounters::new(t);
        counters.assign(&CuMask::full(&t));
        let mut a = KrispAllocator::isolated();
        let m = a.allocate(20, &counters, &t);
        assert_eq!(m.count(), 1, "fallback grants a single CU");
    }

    #[test]
    fn requests_clamp_to_device_size() {
        let t = topo();
        let counters = CuKernelCounters::new(t);
        let mut a = KrispAllocator::oversubscribed(&t);
        assert_eq!(a.allocate(200, &counters, &t).count(), 60);
        assert_eq!(a.allocate(0, &counters, &t).count(), 1);
    }

    #[test]
    fn within_se_least_loaded_cus_chosen() {
        let t = topo();
        let mut counters = CuKernelCounters::new(t);
        // Busy the first 5 CUs of every SE.
        let busy: CuMask = t
            .ses()
            .flat_map(|se| (0..5).map(move |i| (se, i)))
            .map(|(se, i)| t.cu_at(se, i))
            .collect();
        counters.assign(&busy);
        let mut a = KrispAllocator::isolated();
        let m = a.allocate(10, &counters, &t);
        assert_eq!(m.count(), 10);
        for cu in &m {
            assert_eq!(counters.get(cu), 0);
        }
    }

    #[test]
    fn four_isolated_15cu_kernels_tile_the_device() {
        let t = topo();
        let mut counters = CuKernelCounters::new(t);
        let mut a = KrispAllocator::isolated();
        let mut union = CuMask::new();
        for _ in 0..4 {
            let m = alloc_and_assign(&mut a, 15, &mut counters, &t);
            assert_eq!(m.count(), 15);
            assert!(!union.intersects(&m));
            union = union | m;
        }
        assert_eq!(union.count(), 60);
    }

    #[test]
    fn saturated_failed_cus_are_routed_around() {
        // When CUs die, the machine saturates their counters; Algorithm 1
        // then sees them as maximally loaded and, in isolated mode, never
        // grants them — kernel-scoped allocation degrades gracefully to
        // the healthy CUs with no special-casing.
        let t = topo();
        let mut counters = CuKernelCounters::new(t);
        let failed = CuMask::first_n(15, &t);
        counters.saturate(&failed);
        let mut a = KrispAllocator::isolated();
        let m = a.allocate(30, &counters, &t);
        assert_eq!(m.count(), 30);
        assert!(!m.intersects(&failed), "allocated a failed CU");
        // Even when the request wants the whole device, only healthy CUs
        // are granted.
        let m = a.allocate(60, &counters, &t);
        assert!(m.count() <= 45);
        assert!(!m.intersects(&failed));
    }

    #[test]
    fn display_shows_limit() {
        assert_eq!(
            KrispAllocator::isolated().to_string(),
            "krisp(overlap_limit=0, conserved)"
        );
    }

    #[test]
    fn packed_variant_fills_whole_ses() {
        let t = topo();
        let counters = CuKernelCounters::new(t);
        let mut a = KrispAllocator::isolated().with_distribution(DistributionPolicy::Packed);
        let m = a.allocate(19, &counters, &t);
        assert_eq!(m.count(), 19);
        let layout = crate::distribution::se_layout(&m, &t);
        let used: Vec<u16> = layout.into_iter().filter(|&c| c > 0).collect();
        assert_eq!(used, vec![15, 4]);
    }

    #[test]
    fn instrumented_allocator_times_every_call() {
        let t = topo();
        let counters = CuKernelCounters::new(t);
        let metrics = krisp_obs::Metrics::recording();
        let mut a = InstrumentedAllocator::new(KrispAllocator::isolated(), metrics.clone());
        for _ in 0..5 {
            let m = a.allocate(15, &counters, &t);
            assert_eq!(m.count(), 15);
        }
        let snap = metrics.snapshot().unwrap();
        let hist = snap.histogram("krisp_mask_generation_ns", &[]).unwrap();
        assert_eq!(hist.count(), 5);
    }

    #[test]
    fn instrumented_allocator_disabled_records_nothing() {
        let t = topo();
        let counters = CuKernelCounters::new(t);
        let metrics = krisp_obs::Metrics::disabled();
        let mut a = InstrumentedAllocator::new(KrispAllocator::isolated(), metrics.clone());
        let m = a.allocate(15, &counters, &t);
        assert_eq!(m.count(), 15);
        assert!(metrics.snapshot().is_none());
    }

    #[test]
    fn distributed_variant_spreads_over_all_ses() {
        let t = topo();
        let counters = CuKernelCounters::new(t);
        let mut a = KrispAllocator::isolated().with_distribution(DistributionPolicy::Distributed);
        let m = a.allocate(19, &counters, &t);
        assert_eq!(m.count(), 19);
        assert_eq!(m.used_ses(&t).len(), 4);
    }
}

#[cfg(test)]
mod oracle;
