//! The offline profiler: builds the Required-CUs table and the
//! resource-latency curves.
//!
//! The paper amortizes kernel profiling into GPU-library installation
//! time (§IV-B): every library kernel is swept across CU restrictions to
//! find its minimum required CUs. Here the sweep runs each kernel on the
//! simulated machine through the real runtime path (launch overhead
//! included), restricted to a *Conserved* selection of `n` CUs — the same
//! measurement prior works' model-wise profiling performs, applied per
//! kernel.
//!
//! The per-kernel minimum is found by a linear least-`n` scan (a binary
//! search would be unsound: the Conserved layout's effective rate dips
//! slightly at SE-count boundaries, so the fit predicate is not
//! monotone); full curves are swept over every CU count for Fig 3.

use std::collections::HashSet;

use krisp_models::{generate_trace, ModelKind, TraceConfig};
use krisp_runtime::{PartitionMode, RequiredCusTable, Runtime, RuntimeConfig, StreamId};
use krisp_sim::{DispatchCosts, GpuTopology, KernelDesc, SimDuration};

use crate::distribution::{select_cus, DistributionPolicy};
use crate::rightsize::{knee_from_curve, KNEE_TOLERANCE};

/// Offline profiling driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profiler {
    /// Device to profile on.
    pub topology: GpuTopology,
    /// Dispatch-path latencies, included in measurements.
    pub costs: DispatchCosts,
    /// Knee tolerance (defaults to [`KNEE_TOLERANCE`]).
    pub tolerance: f64,
}

impl Default for Profiler {
    fn default() -> Profiler {
        Profiler {
            topology: GpuTopology::MI50,
            costs: DispatchCosts::default(),
            tolerance: KNEE_TOLERANCE,
        }
    }
}

/// Result of profiling one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// The profiled kernel.
    pub kernel: KernelDesc,
    /// Its minimum required CUs.
    pub min_cus: u16,
}

/// Resource-latency curve of a whole model (one Fig 3 panel).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelCurve {
    /// The model.
    pub kind: ModelKind,
    /// Batch size.
    pub batch: u32,
    /// (active CUs, end-to-end latency) samples, ascending CUs.
    pub points: Vec<(u16, SimDuration)>,
    /// Model-wise right-size (knee of `points`).
    pub knee: u16,
}

/// One profiling runtime with one stream, re-masked per measurement.
/// Jitter is off and launch delays and completions are relative to the
/// current instant, so a measurement does not depend on what ran before.
struct Rig {
    rt: Runtime,
    stream: StreamId,
}

impl Rig {
    fn measure(&mut self, trace: &[KernelDesc], cus: u16) -> SimDuration {
        let mask = select_cus(DistributionPolicy::Conserved, cus, &self.rt.topology());
        self.rt
            .set_stream_mask(self.stream, mask)
            .expect("valid profiling mask");
        let start = self.rt.now();
        for (i, k) in trace.iter().enumerate() {
            self.rt.launch(self.stream, k.clone(), i as u64);
        }
        self.rt.run_to_idle();
        self.rt.now().saturating_since(start)
    }
}

impl Profiler {
    fn rig(&self) -> Rig {
        let mut rt = Runtime::new(RuntimeConfig {
            topology: self.topology,
            costs: self.costs,
            mode: PartitionMode::StreamMasking,
            jitter_sigma: 0.0,
            ..RuntimeConfig::default()
        });
        let stream = rt.create_stream();
        Rig { rt, stream }
    }

    /// Measures the end-to-end latency of running `trace` serially under
    /// a Conserved restriction to `cus` CUs (deterministic: jitter off).
    ///
    /// # Panics
    ///
    /// Panics if `cus` is zero or exceeds the device.
    pub fn measure_trace(&self, trace: &[KernelDesc], cus: u16) -> SimDuration {
        self.rig().measure(trace, cus)
    }

    /// Profiles a single kernel: finds its minimum required CUs against
    /// the full-GPU latency.
    pub fn profile_kernel(&self, kernel: &KernelDesc) -> KernelProfile {
        self.profile_kernel_on(&mut self.rig(), kernel)
    }

    fn profile_kernel_on(&self, rig: &mut Rig, kernel: &KernelDesc) -> KernelProfile {
        let total = self.topology.total_cus();
        let trace = [kernel.clone()];
        let full = rig.measure(&trace, total).as_nanos() as f64;
        let limit = full * (1.0 + self.tolerance);
        // Least n within tolerance, scanned from below. A binary search
        // would be unsound: the Conserved rate function dips slightly at
        // SE-count boundaries (e.g. 46 CUs = 4x11 effective on the MI50
        // vs 45 = 3x15), so the fit predicate is not monotone.
        let min_cus = (1..=total)
            .find(|&n| (rig.measure(&trace, n).as_nanos() as f64) <= limit)
            .expect("the full device always fits");
        KernelProfile {
            kernel: kernel.clone(),
            min_cus,
        }
    }

    /// Sweeps a model's resource-latency curve over every CU count and
    /// reports its knee (one panel of Fig 3).
    pub fn profile_model(&self, kind: ModelKind, batch: u32) -> ModelCurve {
        let trace = generate_trace(
            kind,
            &TraceConfig {
                batch,
                launch_overhead: self.costs.kernel_launch,
                ..TraceConfig::default()
            },
        );
        let mut rig = self.rig();
        let points: Vec<(u16, SimDuration)> = (1..=self.topology.total_cus())
            .map(|n| (n, rig.measure(&trace, n)))
            .collect();
        let knee = knee_from_curve(&points, self.tolerance);
        ModelCurve {
            kind,
            batch,
            points,
            knee,
        }
    }

    /// Profiles every distinct kernel of the given models and batch sizes
    /// into a Required-CUs table — the "library installation time"
    /// profiling pass.
    pub fn build_perfdb(&self, kinds: &[ModelKind], batches: &[u32]) -> RequiredCusTable {
        let mut table = RequiredCusTable::new();
        let mut seen = HashSet::new();
        let mut rig = self.rig();
        for &kind in kinds {
            for &batch in batches {
                let trace = generate_trace(
                    kind,
                    &TraceConfig {
                        batch,
                        launch_overhead: self.costs.kernel_launch,
                        ..TraceConfig::default()
                    },
                );
                for kernel in trace {
                    if seen.insert(kernel.profile_key()) {
                        let p = self.profile_kernel_on(&mut rig, &kernel);
                        table.insert(&p.kernel, p.min_cus);
                    }
                }
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krisp_models::paper_profile;

    #[test]
    fn kernel_profile_recovers_the_parallelism_knee() {
        let p = Profiler::default();
        // Long kernel so launch overhead doesn't dilute the knee:
        // 6e7 CU*ns at knee 30 -> 2 ms on >= 30 CUs.
        let k = KernelDesc::new("probe", 6.0e7, 30);
        let prof = p.profile_kernel(&k);
        // Conserved steps mean the measured knee may sit a step above
        // the true parallelism (30 CUs = 2 full SEs is exactly granted).
        assert_eq!(prof.min_cus, 30);
    }

    #[test]
    fn tiny_kernel_knee_diluted_by_overhead() {
        let p = Profiler::default();
        // 50 us of work vs 5 us launch overhead: restriction hurts, knee
        // should still be near the parallelism.
        let k = KernelDesc::new("probe", 3.0e6, 60);
        let prof = p.profile_kernel(&k);
        assert!(prof.min_cus >= 45, "got {}", prof.min_cus);
    }

    #[test]
    fn measured_latency_is_nearly_monotone_with_se_boundary_dips() {
        let p = Profiler::default();
        let k = KernelDesc::new("probe", 1.0e7, 45);
        let mut prev = SimDuration::from_secs(1_000_000);
        for n in 1..=60 {
            let t = p.measure_trace(std::slice::from_ref(&k), n);
            // Small regressions are allowed only where the Conserved
            // layout crosses an SE-count boundary (46 CUs = 4x11
            // effective < 45 = 3x15) — the same effect real hardware
            // shows in Fig 8.
            let limit_ns = (prev.as_nanos() as f64 * 1.05) as u64;
            assert!(t.as_nanos() <= limit_ns, "latency rose too much at {n} CUs");
            prev = t;
        }
        // The dip itself is real: 46 CUs is slightly slower than 45 for
        // a 45-wide kernel.
        let t45 = p.measure_trace(std::slice::from_ref(&k), 45);
        let t46 = p.measure_trace(std::slice::from_ref(&k), 46);
        assert!(t46 > t45);
    }

    #[test]
    fn model_curve_knee_matches_table3() {
        // Squeezenet is the cheapest model to sweep (90 kernels).
        let p = Profiler::default();
        let curve = p.profile_model(ModelKind::Squeezenet, 32);
        let expected = paper_profile(ModelKind::Squeezenet).right_size_cus;
        assert!(
            (curve.knee as i32 - expected as i32).abs() <= 2,
            "knee {} vs table {expected}",
            curve.knee
        );
        // And the full-GPU point matches the Table III latency.
        let full_ms = curve.points.last().unwrap().1.as_millis_f64();
        let expected_ms = paper_profile(ModelKind::Squeezenet).p95_ms;
        assert!((full_ms - expected_ms).abs() / expected_ms < 0.02);
    }

    #[test]
    fn reused_runtime_matches_one_shot_measurements() {
        // One runtime per pass must give exactly the curves and tables
        // of a fresh runtime per measurement, at every CU count.
        let p = Profiler::default();
        let total = p.topology.total_cus();
        for kind in [ModelKind::Squeezenet, ModelKind::Alexnet] {
            let trace = generate_trace(kind, &TraceConfig::default());
            let curve = p.profile_model(kind, 32);
            let one_shot: Vec<_> = (1..=total)
                .map(|n| (n, p.measure_trace(&trace, n)))
                .collect();
            assert_eq!(curve.points, one_shot, "{kind} curve");
            let db = p.build_perfdb(&[kind], &[32]);
            for k in &trace {
                let single = std::slice::from_ref(k);
                let limit = p.measure_trace(single, total).as_nanos() as f64 * (1.0 + p.tolerance);
                let min = (1..=total)
                    .find(|&n| p.measure_trace(single, n).as_nanos() as f64 <= limit)
                    .expect("the full device always fits");
                assert_eq!(db.lookup(k), Some(min), "{kind} {}", k.name);
            }
        }
    }

    #[test]
    fn perfdb_covers_every_distinct_kernel() {
        let p = Profiler::default();
        let db = p.build_perfdb(&[ModelKind::Alexnet], &[32]);
        let trace = generate_trace(ModelKind::Alexnet, &TraceConfig::default());
        let distinct: HashSet<_> = trace.iter().map(|k| k.profile_key()).collect();
        assert_eq!(db.len(), distinct.len());
        for k in &trace {
            let min = db.lookup(k).expect("profiled");
            assert!((1..=60).contains(&min));
        }
    }

    #[test]
    fn perfdb_min_cus_tracks_kernel_parallelism() {
        let p = Profiler::default();
        let db = p.build_perfdb(&[ModelKind::Vgg19], &[32]);
        let trace = generate_trace(ModelKind::Vgg19, &TraceConfig::default());
        for k in &trace {
            let min = db.lookup(k).expect("profiled");
            // The profiled minimum is never below the true knee, and not
            // wildly above it (launch-overhead dilution can lower it for
            // short kernels; Conserved steps can raise it slightly).
            assert!(
                min as i32 >= k.parallelism as i32 / 2 - 2 && min <= 60,
                "{}: profiled {min} vs knee {}",
                k.name,
                k.parallelism
            );
        }
    }
}
