//! The progress-based discrete-event execution engine.
//!
//! Co-running kernels each have a *remaining work* (CU·ns) and a *rate*
//! (CU-equivalents of service, from [`crate::contention`]). The engine
//! advances all kernels' work by `rate × dt`, recomputes rates whenever
//! the resident set changes, and reports the next completion instant.
//! This is the standard processor-sharing fluid model; it is exact for
//! piecewise-constant rates, which is what CU masks give us.
//!
//! # Hot-path design
//!
//! Rates are maintained *incrementally*: each kernel caches its per-SE
//! effective-capacity aggregates, and a dispatch/complete only re-rates
//! the kernels whose masks intersect the changed CUs (a two-word bitset
//! AND), recomputing only the SEs that actually overlap the change. This
//! is bit-identical to a from-scratch [`contention::kernel_rate`] because
//! a kernel's rate depends solely on the resident counts at its own mask
//! CUs, and each affected SE aggregate is re-summed from scratch in
//! ascending CU order (never adjusted by ± deltas, which would perturb
//! f64 summation order). Occupancy queries ([`Engine::busy_cus`],
//! [`Engine::busy_ses`]) are O(1) integer counters, and
//! [`Engine::next_completion`] memoizes its scan behind an epoch counter
//! bumped on every mutation, so repeated host queries between events are
//! O(1).
//!
//! The engine knows nothing about queues, packets, or policies — the
//! [`crate::Machine`] layers those on top.

use std::cell::Cell;
use std::fmt;

use crate::contention;
use crate::mask::CuMask;
use crate::time::{SimDuration, SimTime};
use crate::topology::GpuTopology;

/// Unique id of one dispatched kernel instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelId(pub u64);

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k#{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct ActiveKernel {
    id: KernelId,
    mask: CuMask,
    parallelism: u16,
    bandwidth_floor: f64,
    remaining: f64,
    rate: f64,
    /// Cached effective capacity per SE (ascending-order `cu_share` sum
    /// over the mask's CUs in that SE); `f64::INFINITY` for SEs the mask
    /// does not touch, so an unused entry can never win the min.
    se_eff: Vec<f64>,
}

/// [`se_eff_sum`] memoized per distinct `mask ∩ SE` within one re-rate
/// pass. The sum only reads the intersection's CUs, so equal
/// intersections give equal bits and the memoized value *is* the
/// from-scratch value. A linear scan beats hashing here: a pass sees a
/// handful of distinct masks (one per co-resident policy partition).
fn memo_se_eff(
    scratch: &mut Vec<([u64; 2], f64)>,
    mask_words: [u64; 2],
    se_words: [u64; 2],
    residents: &[u16],
    gamma: f64,
) -> f64 {
    let key = [mask_words[0] & se_words[0], mask_words[1] & se_words[1]];
    if let Some(&(_, sum)) = scratch.iter().find(|(k, _)| *k == key) {
        return sum;
    }
    let sum = se_eff_sum(mask_words, se_words, residents, gamma);
    scratch.push((key, sum));
    sum
}

/// Sum of per-CU shares for the mask CUs inside one SE, walking set bits
/// of `mask_words ∩ se_words` in ascending order — the exact summation
/// order of the reference [`contention::kernel_rate`] path.
fn se_eff_sum(mask_words: [u64; 2], se_words: [u64; 2], residents: &[u16], gamma: f64) -> f64 {
    let mut sum = 0.0;
    let mut w0 = mask_words[0] & se_words[0];
    while w0 != 0 {
        let cu = w0.trailing_zeros() as usize;
        w0 &= w0 - 1;
        sum += contention::cu_share(residents[cu], gamma);
    }
    let mut w1 = mask_words[1] & se_words[1];
    while w1 != 0 {
        let cu = 64 + w1.trailing_zeros() as usize;
        w1 &= w1 - 1;
        sum += contention::cu_share(residents[cu], gamma);
    }
    sum
}

/// The rate formula of [`contention::kernel_rate`] evaluated from a
/// kernel's cached per-SE aggregates: `used` and the running min visit
/// SEs in the same ascending order as the reference loop.
fn cached_rate(k: &ActiveKernel, se_words: &[[u64; 2]]) -> f64 {
    let w = k.mask.raw_words();
    let mut used = 0u32;
    let mut min_eff = f64::INFINITY;
    for (se, sw) in se_words.iter().enumerate() {
        if (w[0] & sw[0]) | (w[1] & sw[1]) == 0 {
            continue;
        }
        used += 1;
        let eff = k.se_eff[se];
        if eff < min_eff {
            min_eff = eff;
        }
    }
    if used == 0 {
        return 0.0;
    }
    let raw = used as f64 * min_eff;
    raw.max(k.bandwidth_floor * k.parallelism as f64)
        .min(k.parallelism as f64)
}

/// Execution state of all currently co-running kernels.
///
/// # Examples
///
/// ```
/// use krisp_sim::{Engine, CuMask, GpuTopology, SimTime};
///
/// let topo = GpuTopology::MI50;
/// let mut e = Engine::new(topo);
/// let mask = CuMask::first_n(15, &topo);
/// let k = e.dispatch(1.5e6, 60, 0.0, mask).unwrap();
/// // 1.5e6 CU*ns on 15 CUs -> 100_000 ns.
/// let (t, id) = e.next_completion(SimTime::ZERO).unwrap();
/// assert_eq!(id, k);
/// assert_eq!(t.as_nanos(), 100_000);
/// ```
#[derive(Debug)]
pub struct Engine {
    topology: GpuTopology,
    sharing_penalty: f64,
    actives: Vec<ActiveKernel>,
    residents: Vec<u16>,
    next_id: u64,
    /// Per-SE mask words (ascending SE order), precomputed once.
    se_words: Vec<[u64; 2]>,
    /// Number of busy CUs per SE, maintained on resident transitions.
    se_busy: Vec<u16>,
    busy_cus_count: u32,
    busy_ses_count: u32,
    /// Bumped on every mutation that can move a completion instant;
    /// invalidates the memoized [`Engine::next_completion`] scan.
    epoch: u64,
    /// Number of kernel re-ratings performed since construction
    /// (instrumentation for the incremental-core tests and benches).
    rerates: u64,
    /// `(epoch, now) -> next_completion` memo; `next_completion` takes
    /// `&self`, hence the [`Cell`].
    completion_memo: Cell<Option<CompletionMemo>>,
    /// Per-SE memo of the distinct `mask ∩ SE` word pairs summed in the
    /// current re-rate pass. Residents are fixed for the whole pass, so
    /// kernels whose masks select the same CUs inside an SE have
    /// *bitwise-identical* share sums — computed once, reused. Cleared
    /// at the start of every pass ([`Engine::rerate_intersecting`]);
    /// capacity persists so the hot path never allocates.
    share_scratch: Vec<Vec<([u64; 2], f64)>>,
    /// `se_eff` buffers of finished kernels, reused by the next
    /// dispatches so a dispatch does not allocate.
    spare_se_eff: Vec<Vec<f64>>,
}

/// One memoized [`Engine::next_completion`] answer: the mutation epoch
/// and query instant it was computed at, plus the result.
type CompletionMemo = (u64, SimTime, Option<(SimTime, KernelId)>);

/// Error returned by [`Engine::dispatch`] when a kernel cannot be started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DispatchError {
    /// The CU mask selects no CUs — the kernel could never progress.
    EmptyMask,
}

impl fmt::Display for DispatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchError::EmptyMask => write!(f, "kernel dispatched with an empty CU mask"),
        }
    }
}

impl std::error::Error for DispatchError {}

impl Engine {
    /// Creates an idle engine for a device with the default co-residency
    /// interference factor
    /// ([`contention::DEFAULT_SHARING_PENALTY`]).
    pub fn new(topology: GpuTopology) -> Engine {
        Engine::with_sharing_penalty(topology, contention::DEFAULT_SHARING_PENALTY)
    }

    /// Creates an engine with an explicit interference factor (`0.0` =
    /// ideal processor sharing).
    ///
    /// # Panics
    ///
    /// Panics if `sharing_penalty` is negative or not finite.
    pub fn with_sharing_penalty(topology: GpuTopology, sharing_penalty: f64) -> Engine {
        assert!(
            sharing_penalty.is_finite() && sharing_penalty >= 0.0,
            "interference factor must be finite and non-negative"
        );
        Engine {
            topology,
            sharing_penalty,
            actives: Vec::new(),
            residents: vec![0; topology.total_cus() as usize],
            next_id: 0,
            se_words: topology
                .ses()
                .map(|se| topology.se_mask(se).raw_words())
                .collect(),
            se_busy: vec![0; topology.num_ses() as usize],
            busy_cus_count: 0,
            busy_ses_count: 0,
            epoch: 0,
            rerates: 0,
            completion_memo: Cell::new(None),
            share_scratch: vec![Vec::new(); topology.num_ses() as usize],
            spare_se_eff: Vec::new(),
        }
    }

    /// Adds one resident to a CU, maintaining the busy counters.
    fn add_resident(&mut self, cu: usize) {
        let r = &mut self.residents[cu];
        *r += 1;
        if *r == 1 {
            self.busy_cus_count += 1;
            let se = cu / self.topology.cus_per_se() as usize;
            self.se_busy[se] += 1;
            if self.se_busy[se] == 1 {
                self.busy_ses_count += 1;
            }
        }
    }

    /// Removes one resident from a CU, maintaining the busy counters.
    fn remove_resident(&mut self, cu: usize) {
        let r = &mut self.residents[cu];
        debug_assert!(*r > 0);
        *r -= 1;
        if *r == 0 {
            self.busy_cus_count -= 1;
            let se = cu / self.topology.cus_per_se() as usize;
            self.se_busy[se] -= 1;
            if self.se_busy[se] == 0 {
                self.busy_ses_count -= 1;
            }
        }
    }

    /// Re-rates every in-flight kernel whose mask intersects `changed`,
    /// refreshing only the per-SE aggregates that overlap the change.
    fn rerate_intersecting(&mut self, changed: &CuMask) {
        let Engine {
            actives,
            residents,
            se_words,
            sharing_penalty,
            rerates,
            share_scratch,
            ..
        } = self;
        for memo in share_scratch.iter_mut() {
            memo.clear();
        }
        let cw = changed.raw_words();
        for k in actives.iter_mut() {
            let kw = k.mask.raw_words();
            if (kw[0] & cw[0]) | (kw[1] & cw[1]) == 0 {
                continue;
            }
            for (se, sw) in se_words.iter().enumerate() {
                if (kw[0] & cw[0] & sw[0]) | (kw[1] & cw[1] & sw[1]) == 0 {
                    continue;
                }
                k.se_eff[se] =
                    memo_se_eff(&mut share_scratch[se], kw, *sw, residents, *sharing_penalty);
            }
            k.rate = cached_rate(k, se_words);
            debug_assert!(k.rate > 0.0, "in-flight kernel with zero rate");
            *rerates += 1;
        }
    }

    /// The device topology.
    pub fn topology(&self) -> GpuTopology {
        self.topology
    }

    /// The co-residency interference factor.
    pub fn sharing_penalty(&self) -> f64 {
        self.sharing_penalty
    }

    /// Starts a kernel with `work` CU·ns of demand and the given
    /// parallelism knee on the CUs of `mask`.
    ///
    /// Callers must have already advanced every in-flight kernel to the
    /// current instant (see [`Engine::advance`]); dispatching implicitly
    /// re-rates everything.
    ///
    /// # Errors
    ///
    /// Returns [`DispatchError::EmptyMask`] if `mask` selects no CUs.
    ///
    /// # Panics
    ///
    /// Panics if `work` is not finite/positive or `parallelism` is zero.
    pub fn dispatch(
        &mut self,
        work: f64,
        parallelism: u16,
        bandwidth_floor: f64,
        mask: CuMask,
    ) -> Result<KernelId, DispatchError> {
        assert!(
            work.is_finite() && work > 0.0,
            "kernel work must be finite and positive, got {work}"
        );
        assert!(parallelism > 0, "kernel parallelism must be at least 1");
        assert!(
            (0.0..=1.0).contains(&bandwidth_floor),
            "bandwidth floor must be in 0..=1, got {bandwidth_floor}"
        );
        if mask.is_empty() {
            return Err(DispatchError::EmptyMask);
        }
        let id = KernelId(self.next_id);
        self.next_id += 1;
        for cu in &mask {
            self.add_resident(usize::from(cu));
        }
        self.rerate_intersecting(&mask);
        let mut se_eff = self.spare_se_eff.pop().unwrap_or_default();
        se_eff.clear();
        se_eff.resize(self.se_words.len(), f64::INFINITY);
        let mut k = ActiveKernel {
            id,
            mask,
            parallelism,
            bandwidth_floor,
            remaining: work,
            rate: 0.0,
            se_eff,
        };
        // The pass memo is still warm from `rerate_intersecting` above
        // (same residents), so SEs the new kernel shares with a
        // co-resident cost one lookup instead of a re-sum.
        let kw = mask.raw_words();
        let Engine {
            share_scratch,
            se_words,
            residents,
            sharing_penalty,
            ..
        } = self;
        for (se, sw) in se_words.iter().enumerate() {
            if (kw[0] & sw[0]) | (kw[1] & sw[1]) != 0 {
                k.se_eff[se] =
                    memo_se_eff(&mut share_scratch[se], kw, *sw, residents, *sharing_penalty);
            }
        }
        k.rate = cached_rate(&k, &self.se_words);
        debug_assert!(k.rate > 0.0, "in-flight kernel with zero rate");
        self.actives.push(k);
        self.rerates += 1;
        self.epoch += 1;
        Ok(id)
    }

    /// Advances every in-flight kernel by `dt` at its current rate.
    pub fn advance(&mut self, dt: SimDuration) {
        if dt.is_zero() {
            return;
        }
        let ns = dt.as_nanos() as f64;
        for k in &mut self.actives {
            k.remaining = (k.remaining - k.rate * ns).max(0.0);
        }
        self.epoch += 1;
    }

    /// The instant and id of the next kernel to finish, given the current
    /// time, or `None` when the engine is idle. Deterministic tie-break:
    /// the lowest kernel id wins.
    ///
    /// The scan is memoized per `(mutation epoch, now)`: hosts query this
    /// several times between events (once per `next_event_at` probe, once
    /// per step), and repeat queries are O(1).
    pub fn next_completion(&self, now: SimTime) -> Option<(SimTime, KernelId)> {
        if let Some((epoch, at, memo)) = self.completion_memo.get() {
            if epoch == self.epoch && at == now {
                return memo;
            }
        }
        let next = self
            .actives
            .iter()
            .map(|k| {
                let ns = if k.remaining <= 0.0 {
                    0
                } else {
                    (k.remaining / k.rate).ceil() as u64
                };
                (now + SimDuration::from_nanos(ns), k.id)
            })
            .min();
        self.completion_memo.set(Some((self.epoch, now, next)));
        next
    }

    /// Removes a finished kernel, returning its mask (for counter
    /// release). The caller must have advanced the engine to the kernel's
    /// completion instant first.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in flight.
    pub fn complete(&mut self, id: KernelId) -> CuMask {
        let idx = self
            .actives
            .iter()
            .position(|k| k.id == id)
            .unwrap_or_else(|| panic!("{id} is not in flight"));
        let ActiveKernel { mask, se_eff, .. } = self.actives.swap_remove(idx);
        self.spare_se_eff.push(se_eff);
        for cu in &mask {
            self.remove_resident(usize::from(cu));
        }
        self.rerate_intersecting(&mask);
        self.epoch += 1;
        mask
    }

    /// Removes an in-flight kernel *without* completing it (watchdog
    /// abort path), returning its mask for counter release.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in flight.
    pub fn abort(&mut self, id: KernelId) -> CuMask {
        self.complete(id)
    }

    /// Permanently removes `failed` CUs from every in-flight kernel's
    /// mask and from future capacity accounting.
    ///
    /// Each affected kernel keeps running on its surviving CUs; a kernel
    /// whose *entire* mask failed migrates to `fallback` (the caller's
    /// healthy-CU mask) so it can still finish — the fluid model cannot
    /// represent a stranded kernel with zero rate. Returns, for each
    /// affected kernel, its id, the CUs it lost, and the replacement mask
    /// it migrated to (if any), so the caller can fix up its
    /// resource-monitor counters.
    ///
    /// # Panics
    ///
    /// Panics if a kernel must migrate and `fallback` is empty or
    /// intersects `failed`.
    pub fn fail_cus(
        &mut self,
        failed: CuMask,
        fallback: CuMask,
    ) -> Vec<(KernelId, CuMask, Option<CuMask>)> {
        let mut changed = Vec::new();
        for i in 0..self.actives.len() {
            let lost = self.actives[i].mask & failed;
            if lost.is_empty() {
                continue;
            }
            for cu in &lost {
                self.remove_resident(usize::from(cu));
            }
            let survived = self.actives[i].mask - failed;
            if survived.is_empty() {
                assert!(
                    !fallback.is_empty() && !fallback.intersects(&failed),
                    "fallback mask for a fully-failed kernel must be healthy and non-empty"
                );
                for cu in &fallback {
                    self.add_resident(usize::from(cu));
                }
                self.actives[i].mask = fallback;
                changed.push((self.actives[i].id, lost, Some(fallback)));
            } else {
                self.actives[i].mask = survived;
                changed.push((self.actives[i].id, lost, None));
            }
        }
        if !changed.is_empty() {
            // Masks changed arbitrarily (shrink + migrate); the rare
            // fault path just rebuilds every cache from scratch.
            self.recompute_rates();
            self.epoch += 1;
        }
        changed
    }

    /// Number of in-flight kernels.
    pub fn active_count(&self) -> usize {
        self.actives.len()
    }

    /// True when no kernel is in flight.
    pub fn is_idle(&self) -> bool {
        self.actives.is_empty()
    }

    /// The current rate of an in-flight kernel, if any.
    pub fn rate_of(&self, id: KernelId) -> Option<f64> {
        self.actives.iter().find(|k| k.id == id).map(|k| k.rate)
    }

    /// Number of CUs with at least one resident kernel (power gating input).
    pub fn busy_cus(&self) -> u32 {
        self.busy_cus_count
    }

    /// Number of shader engines with at least one busy CU.
    pub fn busy_ses(&self) -> u32 {
        self.busy_ses_count
    }

    /// Number of kernel re-ratings performed since construction. A
    /// dispatch or completion only re-rates the kernels whose masks
    /// intersect the changed CUs (plus the dispatched kernel itself), so
    /// disjoint-mask churn leaves residents untouched — the property the
    /// differential oracle tests pin.
    pub fn rerate_count(&self) -> u64 {
        self.rerates
    }

    /// Total CU-equivalents of service being delivered right now.
    pub fn total_service(&self) -> f64 {
        contention::total_service(self.actives.iter().map(|k| k.rate))
    }

    /// Per-CU resident counts, indexed by global CU id.
    pub fn residents(&self) -> &[u16] {
        &self.residents
    }

    /// Rebuilds every kernel's per-SE aggregates and rate from scratch.
    fn recompute_rates(&mut self) {
        let Engine {
            actives,
            residents,
            se_words,
            sharing_penalty,
            rerates,
            ..
        } = self;
        for k in actives.iter_mut() {
            let kw = k.mask.raw_words();
            for (se, sw) in se_words.iter().enumerate() {
                k.se_eff[se] = if (kw[0] & sw[0]) | (kw[1] & sw[1]) != 0 {
                    se_eff_sum(kw, *sw, residents, *sharing_penalty)
                } else {
                    f64::INFINITY
                };
            }
            k.rate = cached_rate(k, se_words);
            debug_assert!(k.rate > 0.0, "in-flight kernel with zero rate");
            *rerates += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> GpuTopology {
        GpuTopology::MI50
    }

    #[test]
    fn single_kernel_runs_at_mask_capacity() {
        let mut e = Engine::new(topo());
        let k = e
            .dispatch(6.0e6, 60, 0.0, CuMask::full(&topo()))
            .expect("dispatch");
        let (t, id) = e.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(id, k);
        assert_eq!(t.as_nanos(), 100_000); // 6e6 / 60
        e.advance(t - SimTime::ZERO);
        assert_eq!(e.complete(k).count(), 60);
        assert!(e.is_idle());
    }

    #[test]
    fn empty_mask_is_an_error() {
        let mut e = Engine::new(topo());
        assert_eq!(
            e.dispatch(1.0, 1, 0.0, CuMask::EMPTY).unwrap_err(),
            DispatchError::EmptyMask
        );
    }

    #[test]
    fn two_sharing_kernels_slow_beyond_half_speed() {
        let t = topo();
        let mut e = Engine::with_sharing_penalty(t, 0.25);
        let mask = CuMask::first_n(15, &t);
        let a = e.dispatch(1.5e6, 60, 0.0, mask).unwrap();
        let b = e.dispatch(1.5e6, 60, 0.0, mask).unwrap();
        // Each gets 6 CUs (0.4 share under gamma = 0.25) -> 250_000 ns.
        let (ta, first) = e.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(ta.as_nanos(), 250_000);
        assert_eq!(first, a); // tie-break on id
        e.advance(ta - SimTime::ZERO);
        e.complete(a);
        // b finished the same instant (identical work and rate).
        let (tb, id_b) = e.next_completion(ta).unwrap();
        assert_eq!(id_b, b);
        assert_eq!(tb, ta);
    }

    #[test]
    fn ideal_sharing_engine_matches_processor_sharing() {
        let t = topo();
        let mut e = Engine::with_sharing_penalty(t, 0.0);
        let mask = CuMask::first_n(15, &t);
        e.dispatch(1.5e6, 60, 0.0, mask).unwrap();
        e.dispatch(1.5e6, 60, 0.0, mask).unwrap();
        let (ta, _) = e.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(ta.as_nanos(), 200_000); // 7.5 CUs each
    }

    #[test]
    fn survivor_speeds_up_after_completion() {
        let t = topo();
        let mut e = Engine::with_sharing_penalty(t, 0.25);
        let mask = CuMask::first_n(15, &t);
        let a = e.dispatch(0.75e6, 60, 0.0, mask).unwrap(); // finishes first
        let b = e.dispatch(1.5e6, 60, 0.0, mask).unwrap();
        let (ta, id) = e.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(id, a);
        assert_eq!(ta.as_nanos(), 125_000); // 0.75e6 at 6 CUs
        e.advance(ta - SimTime::ZERO);
        e.complete(a);
        // b has 1.5e6 - 6*125_000 = 0.75e6 left, now alone at 15 CUs.
        assert_eq!(e.rate_of(b), Some(15.0));
        let (tb, _) = e.next_completion(ta).unwrap();
        assert_eq!(tb.as_nanos(), 175_000);
    }

    #[test]
    fn occupancy_accounting() {
        let t = topo();
        let mut e = Engine::new(t);
        assert_eq!(e.busy_cus(), 0);
        assert_eq!(e.busy_ses(), 0);
        let k = e.dispatch(1.0e6, 60, 0.0, CuMask::first_n(20, &t)).unwrap();
        assert_eq!(e.busy_cus(), 20);
        assert_eq!(e.busy_ses(), 2);
        // 15 + 5 across two SEs: rate = 2 * min(15,5) = 10.
        assert_eq!(e.total_service(), 10.0);
        e.complete(k);
        assert_eq!(e.busy_cus(), 0);
    }

    #[test]
    #[should_panic(expected = "not in flight")]
    fn completing_unknown_kernel_panics() {
        Engine::new(topo()).complete(KernelId(7));
    }

    #[test]
    fn fail_cus_shrinks_masks_and_slows_kernels() {
        let t = topo();
        let mut e = Engine::new(t);
        let k = e.dispatch(3.0e6, 60, 0.0, CuMask::first_n(30, &t)).unwrap();
        // Fail the first 15 CUs: the kernel keeps its other 15.
        let failed = CuMask::first_n(15, &t);
        let fallback = CuMask::full(&t) - failed;
        let changed = e.fail_cus(failed, fallback);
        assert_eq!(changed.len(), 1);
        assert_eq!(changed[0].0, k);
        assert_eq!(changed[0].1.count(), 15);
        assert!(changed[0].2.is_none());
        assert_eq!(e.busy_cus(), 15);
        // 3e6 work on 15 CUs now -> 200us from scratch.
        let (tc, _) = e.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(tc.as_nanos(), 200_000);
    }

    #[test]
    fn fully_failed_kernel_migrates_to_fallback() {
        let t = topo();
        let mut e = Engine::new(t);
        let failed = CuMask::first_n(15, &t);
        let k = e.dispatch(1.5e6, 60, 0.0, failed).unwrap();
        let fallback = CuMask::full(&t) - failed;
        let changed = e.fail_cus(failed, fallback);
        assert_eq!(changed, vec![(k, failed, Some(fallback))]);
        assert_eq!(e.busy_cus(), 45);
        assert!(e.rate_of(k).unwrap() > 0.0);
    }

    #[test]
    fn fail_cus_without_overlap_is_a_no_op() {
        let t = topo();
        let mut e = Engine::new(t);
        e.dispatch(1.0e6, 60, 0.0, CuMask::first_n(15, &t)).unwrap();
        let failed: CuMask = [crate::topology::CuId(59)].into_iter().collect();
        assert!(e.fail_cus(failed, CuMask::first_n(15, &t)).is_empty());
    }

    #[test]
    fn disjoint_dispatch_reuses_resident_rates() {
        let t = topo();
        let mut e = Engine::new(t);
        let se1: CuMask = t.cus_in_se(crate::topology::SeId(1)).collect();
        e.dispatch(1.0e6, 60, 0.0, CuMask::first_n(15, &t)).unwrap();
        let before = e.rerate_count();
        // A kernel on a disjoint SE rates only itself, in and out.
        let k = e.dispatch(1.0e6, 60, 0.0, se1).unwrap();
        assert_eq!(e.rerate_count(), before + 1);
        e.complete(k);
        assert_eq!(e.rerate_count(), before + 1);
    }

    #[test]
    fn overlapping_dispatch_rerates_sharers() {
        let t = topo();
        let mut e = Engine::new(t);
        let mask = CuMask::first_n(15, &t);
        e.dispatch(1.0e6, 60, 0.0, mask).unwrap();
        let before = e.rerate_count();
        e.dispatch(1.0e6, 60, 0.0, mask).unwrap();
        // The resident sharer plus the new kernel.
        assert_eq!(e.rerate_count(), before + 2);
    }

    #[test]
    fn busy_counters_match_resident_scan() {
        let t = topo();
        let mut e = Engine::new(t);
        let a = e.dispatch(1.0e6, 60, 0.0, CuMask::first_n(20, &t)).unwrap();
        let b = e.dispatch(1.0e6, 60, 0.0, CuMask::first_n(5, &t)).unwrap();
        let scan_cus = e.residents().iter().filter(|&&r| r > 0).count() as u32;
        assert_eq!(e.busy_cus(), scan_cus);
        assert_eq!(e.busy_ses(), 2);
        e.complete(a);
        assert_eq!(e.busy_cus(), 5);
        assert_eq!(e.busy_ses(), 1);
        e.complete(b);
        assert_eq!((e.busy_cus(), e.busy_ses()), (0, 0));
    }

    #[test]
    fn advance_never_goes_negative() {
        let t = topo();
        let mut e = Engine::new(t);
        e.dispatch(1.0e3, 60, 0.0, CuMask::full(&t)).unwrap();
        e.advance(SimDuration::from_secs(1));
        let (tc, _) = e.next_completion(SimTime::from_nanos(5)).unwrap();
        assert_eq!(tc.as_nanos(), 5); // already done; completes "now"
    }
}
