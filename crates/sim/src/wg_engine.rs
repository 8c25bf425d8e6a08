//! A discrete, workgroup-level execution engine — the validation backend
//! for the fluid model in [`crate::contention`].
//!
//! Where the fluid [`crate::Engine`] advances kernels at continuous
//! rates, this engine actually schedules **individual workgroups** the
//! way §II-A describes the hardware: a kernel's workgroups are split
//! equally across the shader engines covered by its CU mask, and each
//! SE's workload manager assigns pending workgroups to free CUs in its
//! cluster. A kernel with parallelism knee `P` is modelled as `P`
//! workgroups of `work / P` nanoseconds each, so on `n ≥ P` balanced CUs
//! it takes `work / P` (one wave), and under restriction it exhibits the
//! staircase `ceil(share/cus) * work / P` that discretization implies —
//! which brackets the fluid model's `work / n` from above.
//!
//! The cross-validation tests (and `krisp-bench validation`)
//! check that both backends agree exactly at wave boundaries and within
//! one wave everywhere else, including on the Fig 8 spike structure.
//! The discrete engine has no co-residency sharing (one workgroup owns a
//! CU at a time), so validation scenarios use disjoint masks.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::mask::CuMask;
use crate::time::{SimDuration, SimTime};
use crate::topology::{GpuTopology, SeId};

/// Identifier of a kernel dispatched to the [`WgEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WgKernelId(pub u64);

#[derive(Debug, Clone)]
struct SePool {
    /// Workgroups of this kernel still waiting in this SE.
    pending: u32,
    /// CUs of the kernel's mask inside this SE.
    mask: CuMask,
}

#[derive(Debug, Clone)]
struct WgKernel {
    id: WgKernelId,
    wg_duration: SimDuration,
    /// Per-SE pending pools (index = SE id).
    pools: Vec<SePool>,
    /// Workgroups not yet completed (pending + running).
    outstanding: u32,
}

/// Discrete workgroup-level engine. See the [module docs](self).
///
/// # Examples
///
/// ```
/// use krisp_sim::wg_engine::WgEngine;
/// use krisp_sim::{CuMask, GpuTopology};
///
/// let topo = GpuTopology::MI50;
/// let mut e = WgEngine::new(topo);
/// // 60 workgroups of 0.1 ms across the full device: one wave.
/// e.dispatch(6.0e6, 60, CuMask::full(&topo)).unwrap();
/// let (t, _) = e.run_to_idle().pop().unwrap();
/// assert_eq!(t.as_nanos(), 100_000);
/// ```
#[derive(Debug)]
pub struct WgEngine {
    topology: GpuTopology,
    now: SimTime,
    /// Busy-until per CU (`None` = free).
    cu_busy: Vec<Option<(SimTime, WgKernelId)>>,
    kernels: Vec<WgKernel>,
    /// (finish time, cu) workgroup completions.
    events: BinaryHeap<Reverse<(SimTime, u16)>>,
    next_id: u64,
    completions: Vec<(SimTime, WgKernelId)>,
}

impl WgEngine {
    /// Creates an idle engine.
    pub fn new(topology: GpuTopology) -> WgEngine {
        WgEngine {
            topology,
            now: SimTime::ZERO,
            cu_busy: vec![None; topology.total_cus() as usize],
            kernels: Vec::new(),
            events: BinaryHeap::new(),
            next_id: 0,
            completions: Vec::new(),
        }
    }

    /// Current simulated time (the latest processed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Dispatches a kernel of `work` CU·ns with parallelism knee
    /// `parallelism` (= workgroup count) onto the CUs of `mask`.
    ///
    /// # Errors
    ///
    /// Returns `Err` if the mask is empty.
    ///
    /// # Panics
    ///
    /// Panics if `work` is not finite/positive or `parallelism` is zero.
    pub fn dispatch(
        &mut self,
        work: f64,
        parallelism: u16,
        mask: CuMask,
    ) -> Result<WgKernelId, crate::engine::DispatchError> {
        assert!(work.is_finite() && work > 0.0, "work must be positive");
        assert!(parallelism > 0, "parallelism must be at least 1");
        if mask.is_empty() {
            return Err(crate::engine::DispatchError::EmptyMask);
        }
        let id = WgKernelId(self.next_id);
        self.next_id += 1;
        let wg_duration = SimDuration::from_nanos((work / parallelism as f64).ceil() as u64);

        // Split workgroups equally across the used SEs (§II-A / §IV-C1).
        let used: Vec<SeId> = mask.used_ses(&self.topology);
        let per_se = (parallelism as u32).div_ceil(used.len() as u32);
        let mut pools = vec![
            SePool {
                pending: 0,
                mask: CuMask::EMPTY,
            };
            self.topology.num_ses() as usize
        ];
        let mut remaining = parallelism as u32;
        for se in used {
            let take = per_se.min(remaining);
            pools[usize::from(se)] = SePool {
                pending: take,
                mask: mask.se_submask(&self.topology, se),
            };
            remaining -= take;
        }
        self.kernels.push(WgKernel {
            id,
            wg_duration,
            pools,
            outstanding: parallelism as u32,
        });
        self.fill_free_cus();
        Ok(id)
    }

    /// Advances until everything dispatched so far has finished,
    /// returning kernel completions in completion order.
    pub fn run_to_idle(&mut self) -> Vec<(SimTime, WgKernelId)> {
        while self.step() {}
        std::mem::take(&mut self.completions)
    }

    /// Processes the next workgroup completion; `false` when idle.
    fn step(&mut self) -> bool {
        let Some(Reverse((t, cu))) = self.events.pop() else {
            return false;
        };
        self.now = t;
        let (_, kid) = self.cu_busy[cu as usize]
            .take()
            .expect("event for a busy CU");
        let k = self
            .kernels
            .iter_mut()
            .find(|k| k.id == kid)
            .expect("kernel of a running workgroup");
        k.outstanding -= 1;
        if k.outstanding == 0 {
            self.completions.push((t, kid));
            self.kernels.retain(|k| k.id != kid);
        }
        self.fill_free_cus();
        true
    }

    /// Workload managers: give every free CU the oldest pending
    /// workgroup whose SE pool covers it.
    fn fill_free_cus(&mut self) {
        for cu in self.topology.cus() {
            let i = usize::from(cu);
            if self.cu_busy[i].is_some() {
                continue;
            }
            let se = usize::from(self.topology.se_of(cu));
            // FIFO across kernels: the earliest-dispatched kernel with
            // pending work in this SE that may use this CU wins.
            if let Some(k) = self
                .kernels
                .iter_mut()
                .find(|k| k.pools[se].pending > 0 && k.pools[se].mask.contains(cu))
            {
                k.pools[se].pending -= 1;
                let finish = self.now + k.wg_duration;
                self.cu_busy[i] = Some((finish, k.id));
                self.events.push(Reverse((finish, cu.0)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contention;
    use crate::topology::CuId;

    fn topo() -> GpuTopology {
        GpuTopology::MI50
    }

    /// The fluid model's isolated latency for the same scenario.
    fn fluid_ns(work: f64, parallelism: u16, mask: &CuMask) -> f64 {
        let t = topo();
        let mut residents = vec![0u16; 60];
        for cu in mask {
            residents[usize::from(cu)] = 1;
        }
        let rate = contention::kernel_rate(mask, parallelism, 0.0, &residents, &t, 0.0);
        work / rate
    }

    fn discrete_ns(work: f64, parallelism: u16, mask: CuMask) -> f64 {
        let mut e = WgEngine::new(topo());
        e.dispatch(work, parallelism, mask).unwrap();
        e.run_to_idle()[0].0.as_nanos() as f64
    }

    #[test]
    fn one_wave_on_enough_cus() {
        let t = topo();
        // 30 WGs on 30 CUs (2 full SEs): exactly one wave.
        let mask = CuMask::first_n(30, &t);
        assert_eq!(discrete_ns(3.0e6, 30, mask), 100_000.0);
    }

    #[test]
    fn restriction_staircase_brackets_fluid() {
        let t = topo();
        for n in [5u16, 10, 15, 20, 30, 45, 60] {
            let mask = crate_select_conserved(n, &t);
            let d = discrete_ns(6.0e6, 60, mask);
            let f = fluid_ns(6.0e6, 60, &mask);
            assert!(d >= f - 1.0, "discrete faster than fluid at {n}");
            // Within one extra wave of the fluid time.
            let wave = 6.0e6 / 60.0;
            assert!(d <= f + wave + 1.0, "discrete {d} vs fluid {f} at {n}");
        }
    }

    /// Conserved selection without depending on the `krisp` crate.
    fn crate_select_conserved(n: u16, t: &GpuTopology) -> CuMask {
        let per = t.cus_per_se() as u16;
        let num_se = n.div_ceil(per);
        let base = n / num_se;
        let extra = n % num_se;
        let mut mask = CuMask::new();
        for s in 0..num_se {
            let take = base + u16::from(s < extra);
            for idx in 0..take {
                mask.set(t.cu_at(SeId(s as u8), idx as u8));
            }
        }
        mask
    }

    #[test]
    fn agreement_at_wave_boundaries() {
        let t = topo();
        // 60 WGs on 30 balanced CUs: exactly two waves = fluid time.
        let mask = CuMask::first_n(30, &t);
        let d = discrete_ns(6.0e6, 60, mask);
        let f = fluid_ns(6.0e6, 60, &mask);
        assert!((d - f).abs() <= 1.0, "discrete {d} vs fluid {f}");
    }

    #[test]
    fn packed_straggler_spike_reproduces_discretely() {
        let t = topo();
        // Packed 16 = 15 + 1: the straggler CU carries half the WGs.
        let packed = CuMask::first_n(16, &t);
        let conserved = crate_select_conserved(16, &t);
        let spike = discrete_ns(6.0e6, 60, packed);
        let balanced = discrete_ns(6.0e6, 60, conserved);
        assert!(
            spike > 5.0 * balanced,
            "spike {spike} vs balanced {balanced}"
        );
        // And the fluid model sees the same structure.
        assert!(fluid_ns(6.0e6, 60, &packed) > 5.0 * fluid_ns(6.0e6, 60, &conserved));
    }

    #[test]
    fn two_disjoint_kernels_do_not_interfere() {
        let t = topo();
        let a: CuMask = t.cus_in_se(SeId(0)).collect();
        let b: CuMask = t.cus_in_se(SeId(1)).collect();
        let mut e = WgEngine::new(t);
        e.dispatch(1.5e6, 15, a).unwrap();
        e.dispatch(1.5e6, 15, b).unwrap();
        let done = e.run_to_idle();
        assert_eq!(done.len(), 2);
        for (at, _) in done {
            assert_eq!(at.as_nanos(), 100_000);
        }
    }

    #[test]
    fn same_mask_kernels_serialize_fifo() {
        let t = topo();
        let mask: CuMask = t.cus_in_se(SeId(0)).collect();
        let mut e = WgEngine::new(t);
        let a = e.dispatch(1.5e6, 15, mask).unwrap();
        let b = e.dispatch(1.5e6, 15, mask).unwrap();
        let done = e.run_to_idle();
        // One slot per CU: kernel a's wave runs first, b's second.
        assert_eq!(done[0], (SimTime::from_nanos(100_000), a));
        assert_eq!(done[1], (SimTime::from_nanos(200_000), b));
    }

    #[test]
    fn empty_mask_rejected() {
        let mut e = WgEngine::new(topo());
        assert!(e.dispatch(1.0, 1, CuMask::EMPTY).is_err());
    }

    #[test]
    fn single_cu_serializes_all_workgroups() {
        let _t = topo();
        let mask: CuMask = [CuId(0)].into_iter().collect();
        // 10 WGs of 0.1 ms on one CU: 1 ms.
        assert_eq!(discrete_ns(1.0e6, 10, mask), 1_000_000.0);
    }
}
