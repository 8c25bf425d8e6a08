//! Deterministic kernel-trace generation.
//!
//! [`generate_trace`] expands a model's [`crate::spec::ModelSpec`] into
//! the concrete sequence of [`KernelDesc`]s one inference pass launches.
//! The expansion is fully deterministic (no RNG): per-kernel work varies
//! sinusoidally within each class, and classes are interleaved with a
//! largest-remainder schedule, which yields the periodic low/high
//! minimum-CU phase patterns of Fig 4.
//!
//! Calibration invariants (checked by tests):
//!
//! * trace length = Table III kernel count, for every batch size;
//! * analytic full-GPU latency (including launch overhead) = Table III
//!   95 % latency at batch 32;
//! * the model-wise knee of the analytic latency curve (1 % tolerance) =
//!   Table III right-size.

use std::sync::Arc;

use krisp_sim::{KernelDesc, SimDuration};

use crate::profile::paper_profile;
use crate::spec::{model_spec, KernelClass};
use crate::zoo::ModelKind;

/// Knee tolerance used throughout the reproduction: a CU count is
/// "latency-equivalent to the full GPU" if it is within 1 % of the
/// full-GPU latency.
pub const KNEE_TOLERANCE: f64 = 0.01;

/// Reference batch size: Table III numbers are measured at batch 32.
pub const REFERENCE_BATCH: u32 = 32;

/// Parameters of trace generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Inference batch size (the paper sweeps 32, 16, 8).
    pub batch: u32,
    /// Per-kernel launch overhead assumed when calibrating total compute
    /// to the Table III latencies. Must match the simulator's
    /// `DispatchCosts::kernel_launch` for the calibration to hold.
    pub launch_overhead: SimDuration,
    /// Scales every kernel's role-derived memory-bandwidth floor
    /// (ablation knob; 1.0 = the calibrated floors, 0.0 = purely linear
    /// below-knee scaling). Clamped into `0..=1` per kernel.
    pub floor_scale: f64,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            batch: REFERENCE_BATCH,
            launch_overhead: SimDuration::from_micros(5),
            floor_scale: 1.0,
        }
    }
}

impl TraceConfig {
    /// A config for a given batch size with the default launch overhead.
    pub fn with_batch(batch: u32) -> TraceConfig {
        TraceConfig {
            batch,
            ..TraceConfig::default()
        }
    }
}

/// Work scaling exponent with batch size (slightly sublinear: larger
/// batches amortize fixed per-kernel costs).
const BATCH_WORK_EXPONENT: f64 = 0.9;

/// How a class's parallelism knee scales with batch size: workgroup
/// counts shrink roughly with the square root of the per-kernel data.
fn scaled_parallelism(p32: u16, batch: u32) -> u16 {
    let scale = (batch as f64 / REFERENCE_BATCH as f64).sqrt();
    ((p32 as f64 * scale).round() as u16).clamp(1, 60)
}

/// Largest-remainder apportionment of `total` kernels over class count
/// shares (every class gets at least one kernel).
fn apportion_counts(classes: &[KernelClass], total: usize) -> Vec<usize> {
    assert!(total >= classes.len(), "fewer kernels than classes");
    let mut counts: Vec<usize> = classes
        .iter()
        .map(|c| ((c.count_share * total as f64).floor() as usize).max(1))
        .collect();
    let mut assigned: usize = counts.iter().sum();
    // Distribute remaining slots by largest fractional remainder.
    let mut order: Vec<usize> = (0..classes.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = classes[a].count_share * total as f64 - counts[a] as f64;
        let fb = classes[b].count_share * total as f64 - counts[b] as f64;
        fb.partial_cmp(&fa).expect("finite shares").then(a.cmp(&b))
    });
    let mut i = 0;
    while assigned < total {
        counts[order[i % order.len()]] += 1;
        assigned += 1;
        i += 1;
    }
    while assigned > total {
        // Can only happen when the `.max(1)` floor overshot; shrink the
        // largest class.
        let (imax, _) = counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .expect("non-empty");
        assert!(counts[imax] > 1, "cannot shrink a single-kernel class");
        counts[imax] -= 1;
        assigned -= 1;
    }
    counts
}

/// Deterministic per-kernel work-variation factor (mean ≈ 1, ±25 %).
fn variation(class_index: usize, i: usize) -> f64 {
    1.0 + 0.25 * ((i as f64) * 2.399 + class_index as f64 * 1.618).sin()
}

/// Generates the kernel trace of one inference pass.
///
/// The result is identical for identical `(kind, config)` — traces are
/// the workload's ground truth, not a random sample.
///
/// # Examples
///
/// ```
/// use krisp_models::{generate_trace, ModelKind, TraceConfig};
///
/// let t32 = generate_trace(ModelKind::Vgg19, &TraceConfig::default());
/// let t8 = generate_trace(ModelKind::Vgg19, &TraceConfig::with_batch(8));
/// assert_eq!(t32.len(), t8.len()); // same kernels, smaller work
/// let w32: f64 = t32.iter().map(|k| k.work).sum();
/// let w8: f64 = t8.iter().map(|k| k.work).sum();
/// assert!(w8 < w32);
/// ```
///
/// # Panics
///
/// Panics if `config.batch` is zero.
pub fn generate_trace(kind: ModelKind, config: &TraceConfig) -> Vec<KernelDesc> {
    assert!(config.batch > 0, "batch size must be positive");
    let profile = paper_profile(kind);
    let spec = model_spec(kind);
    let total = profile.kernel_count;

    // Total compute (CU-equivalent busy time at full GPU) calibrated so
    // that compute + launch overheads hits the Table III latency at the
    // reference batch.
    let overhead_ns = config.launch_overhead.as_nanos() as f64 * total as f64;
    let compute32_ns = profile.p95_ms * 1e6 - overhead_ns;
    assert!(
        compute32_ns > 0.0,
        "{kind}: launch overhead exceeds the model's total latency"
    );
    let batch_scale = (config.batch as f64 / REFERENCE_BATCH as f64).powf(BATCH_WORK_EXPONENT);
    let compute_ns = compute32_ns * batch_scale;

    let counts = apportion_counts(&spec.classes, total);

    // Build each class's kernel list.
    let mut per_class: Vec<Vec<KernelDesc>> = Vec::with_capacity(spec.classes.len());
    for (ci, (class, &count)) in spec.classes.iter().zip(&counts).enumerate() {
        let parallelism = scaled_parallelism(class.parallelism, config.batch);
        let class_time_ns = class.time_share * compute_ns;
        let weights: Vec<f64> = (0..count).map(|i| variation(ci, i)).collect();
        let weight_sum: f64 = weights.iter().sum();
        // One name allocation per class, shared by all its kernels.
        let name: Arc<str> = class.role.library_name(ci).into();
        let kernels = weights
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let exec_time_ns = class_time_ns * w / weight_sum;
                let work = exec_time_ns * parallelism as f64;
                let grid = grid_threads(class, parallelism, config.batch, i);
                let input = input_bytes(class, config.batch, i);
                KernelDesc::new(name.clone(), work.max(1.0), parallelism)
                    .with_grid_threads(grid)
                    .with_input_bytes(input)
                    .with_bandwidth_floor(
                        (class.role.bandwidth_floor() * config.floor_scale).clamp(0.0, 1.0),
                    )
            })
            .collect();
        per_class.push(kernels);
    }

    interleave(per_class, total)
}

/// Launch-grid size heuristic: compute-heavy roles launch roughly
/// `parallelism × 2560 threads × O(1)`; elementwise kernels launch huge
/// grids regardless of their knee (the Fig 6a observation that thread
/// count does not bound the minimum CU requirement).
fn grid_threads(class: &KernelClass, parallelism: u16, batch: u32, i: usize) -> u64 {
    use crate::spec::KernelRole::*;
    let wiggle = 1.0 + 0.5 * ((i as f64 * 1.71).sin().abs());
    let base = match class.role {
        Conv | Gemm | Attention => parallelism as f64 * 2_560.0 * wiggle,
        Elementwise | Norm | Pool | Reduce => 120_000.0 * wiggle + parallelism as f64 * 1_000.0,
    };
    (base * batch as f64 / REFERENCE_BATCH as f64).round() as u64
}

/// Input-size heuristic in bytes.
fn input_bytes(class: &KernelClass, batch: u32, i: usize) -> u64 {
    let wiggle = 1.0 + ((i as f64 * 0.77).cos().abs());
    let per_sample = 16_384.0 * (1.0 + class.time_share * 8.0);
    (per_sample * wiggle * batch as f64).round() as u64
}

/// Largest-remainder interleave: emits kernels so every class is spread
/// evenly across the pass (periodic spikes, Fig 4).
fn interleave(mut per_class: Vec<Vec<KernelDesc>>, total: usize) -> Vec<KernelDesc> {
    let counts: Vec<usize> = per_class.iter().map(Vec::len).collect();
    let mut emitted = vec![0usize; per_class.len()];
    // Reverse each class list so we can pop from the back in order.
    for list in &mut per_class {
        list.reverse();
    }
    let mut out = Vec::with_capacity(total);
    for pos in 0..total {
        let progress = (pos + 1) as f64 / total as f64;
        let next = (0..per_class.len())
            .filter(|&c| emitted[c] < counts[c])
            .max_by(|&a, &b| {
                let da = counts[a] as f64 * progress - emitted[a] as f64;
                let db = counts[b] as f64 * progress - emitted[b] as f64;
                da.partial_cmp(&db).expect("finite").then(b.cmp(&a))
            })
            .expect("kernels remain while pos < total");
        out.push(per_class[next].pop().expect("non-empty class"));
        emitted[next] += 1;
    }
    out
}

/// Analytic end-to-end latency of a trace run serially on `cus`
/// perfectly balanced CUs with a fixed per-kernel overhead — the
/// noise-free model used for calibration and offline profiling.
///
/// # Panics
///
/// Panics if `cus` is zero.
pub fn analytic_latency(trace: &[KernelDesc], cus: u16, overhead: SimDuration) -> SimDuration {
    trace
        .iter()
        .map(|k| k.isolated_latency(cus) + overhead)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::PAPER_TABLE3;

    fn default_trace(kind: ModelKind) -> Vec<KernelDesc> {
        generate_trace(kind, &TraceConfig::default())
    }

    /// Local knee finder mirroring the profiler's definition.
    fn analytic_knee(trace: &[KernelDesc], overhead: SimDuration) -> u16 {
        let full = analytic_latency(trace, 60, overhead).as_nanos() as f64;
        let limit = full * (1.0 + KNEE_TOLERANCE);
        (1..=60)
            .find(|&n| (analytic_latency(trace, n, overhead).as_nanos() as f64) <= limit)
            .expect("60 CUs always qualifies")
    }

    #[test]
    fn kernel_counts_match_table3() {
        for p in PAPER_TABLE3 {
            assert_eq!(default_trace(p.kind).len(), p.kernel_count, "{}", p.kind);
            // Kernel count does not change with batch size.
            let t8 = generate_trace(p.kind, &TraceConfig::with_batch(8));
            assert_eq!(t8.len(), p.kernel_count, "{} b8", p.kind);
        }
    }

    #[test]
    fn full_gpu_latency_matches_table3() {
        let cfg = TraceConfig::default();
        for p in PAPER_TABLE3 {
            let t = generate_trace(p.kind, &cfg);
            let lat_ms = analytic_latency(&t, 60, cfg.launch_overhead).as_millis_f64();
            let err = (lat_ms - p.p95_ms).abs() / p.p95_ms;
            assert!(
                err < 0.01,
                "{}: analytic {lat_ms:.2} ms vs table {} ms",
                p.kind,
                p.p95_ms
            );
        }
    }

    #[test]
    fn model_knee_matches_table3_right_size() {
        let cfg = TraceConfig::default();
        for p in PAPER_TABLE3 {
            let t = generate_trace(p.kind, &cfg);
            let knee = analytic_knee(&t, cfg.launch_overhead);
            assert!(
                (knee as i32 - p.right_size_cus as i32).abs() <= 2,
                "{}: knee {knee} vs table {}",
                p.kind,
                p.right_size_cus
            );
        }
    }

    #[test]
    fn traces_are_deterministic() {
        let a = default_trace(ModelKind::Resnet152);
        let b = default_trace(ModelKind::Resnet152);
        assert_eq!(a, b);
    }

    #[test]
    fn kernels_of_one_class_share_one_name_allocation() {
        for p in PAPER_TABLE3 {
            let trace = default_trace(p.kind);
            let mut names: Vec<&Arc<str>> = Vec::new();
            for k in &trace {
                if !names.iter().any(|n| Arc::ptr_eq(n, &k.name)) {
                    names.push(&k.name);
                }
            }
            // Every class emits at least one kernel, so one allocation
            // per class means exactly this many distinct names.
            assert_eq!(names.len(), model_spec(p.kind).classes.len(), "{}", p.kind);
        }
    }

    #[test]
    fn batch_scaling_shrinks_work_and_knees() {
        for kind in [ModelKind::Vgg19, ModelKind::Resnext101] {
            let t32 = default_trace(kind);
            let t8 = generate_trace(kind, &TraceConfig::with_batch(8));
            let w32: f64 = t32.iter().map(|k| k.work).sum();
            let w8: f64 = t8.iter().map(|k| k.work).sum();
            assert!(w8 < w32 * 0.5);
            let p32 = t32.iter().map(|k| k.parallelism).max().unwrap();
            let p8 = t8.iter().map(|k| k.parallelism).max().unwrap();
            assert!(p8 < p32);
        }
    }

    #[test]
    fn albert_trace_has_periodic_tall_spikes() {
        let t = default_trace(ModelKind::Albert);
        let spikes: Vec<usize> = t
            .iter()
            .enumerate()
            .filter(|(_, k)| k.parallelism >= 50)
            .map(|(i, _)| i)
            .collect();
        assert!(
            spikes.len() >= 8,
            "expected periodic spikes, got {spikes:?}"
        );
        // Spikes spread across the pass, not bunched at one end.
        assert!(*spikes.first().unwrap() < t.len() / 4);
        assert!(*spikes.last().unwrap() > 3 * t.len() / 4);
        // But the bulk of kernels are small (Fig 4 top).
        let small = t.iter().filter(|k| k.parallelism <= 12).count();
        assert!(small as f64 / t.len() as f64 > 0.9);
    }

    #[test]
    fn resnext_trace_is_mostly_tall() {
        let t = default_trace(ModelKind::Resnext101);
        let tall_time: f64 = t
            .iter()
            .filter(|k| k.parallelism >= 40)
            .map(|k| k.work / k.parallelism as f64)
            .sum();
        let total_time: f64 = t.iter().map(|k| k.work / k.parallelism as f64).sum();
        assert!(tall_time / total_time > 0.7);
    }

    #[test]
    fn grid_sizes_do_not_bound_knees() {
        // Fig 6a: some kernels exceed the MI50's 153 600-thread capacity
        // yet still have small minimum-CU requirements.
        let t = default_trace(ModelKind::Albert);
        assert!(t
            .iter()
            .any(|k| k.grid_threads > 153_600 && k.parallelism <= 12));
    }

    #[test]
    fn apportion_counts_exact_and_positive() {
        let spec = model_spec(ModelKind::Albert);
        let counts = apportion_counts(&spec.classes, 304);
        assert_eq!(counts.iter().sum::<usize>(), 304);
        assert!(counts.iter().all(|&c| c >= 1));
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_rejected() {
        generate_trace(
            ModelKind::Albert,
            &TraceConfig {
                batch: 0,
                ..TraceConfig::default()
            },
        );
    }
}
