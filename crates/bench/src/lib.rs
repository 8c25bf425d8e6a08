//! # krisp-bench — harness regenerating every table and figure of the
//! KRISP paper
//!
//! One `krisp-bench <experiment>|all` binary (`src/main.rs`), plus shared
//! plumbing: result caching under `results/`, the measured Required-CUs
//! table, the isolated baselines every figure normalizes against, and the
//! Fig 13 policy sweep that Tables III/IV and Figs 13/14 all draw from.
//!
//! | Experiment | Reproduces |
//! |---|---|
//! | `tables_1_2` | Tables I & II (mechanism/server taxonomies) |
//! | `fig01_utilization` | Fig 1 (motivation: utilization ladder) |
//! | `fig02_reconfiguration` | Fig 2 (resize responsiveness: reload / shadow / KRISP) |
//! | `fig03_sensitivity` | Fig 3 (model latency/throughput vs active CUs) |
//! | `table3_models` | Table III (kernels, right-size, isolated p95) |
//! | `fig04_traces` | Fig 4 (per-kernel min-CU traces) |
//! | `fig06_kernel_scatter` | Fig 6a/6b (min CU vs kernel/input size) |
//! | `fig07_distribution` | Fig 7 (distribution-policy layouts) |
//! | `fig08_policies` | Fig 8 (latency/energy vs CUs per policy) |
//! | `fig12_emulation` | §V-B emulation-overhead accounting |
//! | `fig13_main` | Fig 13a/b/c (throughput, tail latency, energy) |
//! | `table4_concurrency` | Table IV (max workers without SLO violation) |
//! | `fig14_batch` | Fig 14 (batch 16/8 geomeans) |
//! | `fig15_mixed` | Fig 15 (mixed-model pair throughput) |
//! | `fig16_overlap` | Fig 16 (overlap-limit sensitivity) |
//! | `ablations` | design-choice ablations (granularity, distribution, costs, γ) |
//! | `validation` | fluid-vs-discrete execution-model cross-check |
//! | `robustness_faults` | fault-injection scenarios (stragglers / CU loss / crash) |
//! | `overload_brownout` | overload guardrails: goodput sweeps, sentinel on/off |
//! | `cluster_scaling` | multi-GPU scale-out per policy |
//! | `robustness` | headline comparisons across seeds |
//! | `summary` | headline claims recomputed from `results/*.json` |
//! | `all` | everything above, in order |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod cluster_scaling;
pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod overload_brownout;
pub mod robustness;
pub mod robustness_faults;
pub mod summary;
pub mod table3;
pub mod table4;
pub mod tables12;
pub mod validation;

use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use krisp::{Policy, Profiler};
use krisp_models::ModelKind;
use krisp_runtime::RequiredCusTable;
use krisp_server::{run_server, ServerConfig};

/// Index-preserving parallel map over independent jobs, using one thread
/// per available core. Every experiment in this harness is a
/// self-contained deterministic simulation, so results are identical to
/// a sequential run — only the wall clock changes.
pub fn parallel_map<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(items.len().max(1));
    let jobs: Vec<(usize, I)> = items.into_iter().enumerate().collect();
    let queue = std::sync::Mutex::new(jobs);
    let results = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let job = queue.lock().expect("queue lock").pop();
                match job {
                    Some((i, item)) => {
                        let out = f(item);
                        results.lock().expect("results lock").push((i, out));
                    }
                    None => break,
                }
            });
        }
    });
    let mut collected = results.into_inner().expect("threads joined");
    collected.sort_by_key(|&(i, _)| i);
    collected.into_iter().map(|(_, t)| t).collect()
}

/// Directory where experiment outputs (JSON + text) are written.
///
/// Defaults to `<workspace root>/results` regardless of the process
/// working directory (a bare relative `results` once littered
/// the crate directory when the harness ran from the wrong cwd);
/// `KRISP_RESULTS` overrides it.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var_os("KRISP_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            // crates/bench/../.. == the workspace root.
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .ancestors()
                .nth(2)
                .expect("bench crate lives two levels below the workspace root")
                .join("results")
        });
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Whether multi-megabyte `*_trace.json` Perfetto artifacts should be
/// written. Off by default — traces are debugging aids, not results —
/// and opt-in via `KRISP_SAVE_TRACES=1`. The small summary JSONs are
/// always written.
pub fn save_traces() -> bool {
    std::env::var_os("KRISP_SAVE_TRACES").is_some_and(|v| v == "1")
}

/// Saves a serializable value as pretty JSON under `results/`.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(name);
    fs::write(
        &path,
        serde_json::to_string_pretty(value).expect("serialize"),
    )
    .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("[saved {}]", path.display());
}

/// Loads a previously saved JSON result, if present.
pub fn load_json<T: for<'de> Deserialize<'de>>(name: &str) -> Option<T> {
    let path = results_dir().join(name);
    let text = fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

/// The measured Required-CUs table for all eight models at the given
/// batch sizes, built by the real profiling sweep and cached on disk
/// (it is an installation-time artifact in the paper's deployment).
pub fn measured_perfdb(batches: &[u32]) -> RequiredCusTable {
    let tag: Vec<String> = batches.iter().map(u32::to_string).collect();
    let name = format!("perfdb_b{}.json", tag.join("_"));
    let path = results_dir().join(&name);
    if let Ok(table) = RequiredCusTable::load(&path) {
        if !table.is_empty() {
            return table;
        }
    }
    eprintln!("[profiling kernels for batches {batches:?} — cached to {name}]");
    // Same result as Profiler::build_perfdb, parallelized over kernels.
    let profiler = Profiler::default();
    let mut seen = std::collections::HashSet::new();
    let mut kernels = Vec::new();
    for &kind in &ModelKind::ALL {
        for &batch in batches {
            for k in
                krisp_models::generate_trace(kind, &krisp_models::TraceConfig::with_batch(batch))
            {
                if seen.insert(k.profile_key()) {
                    kernels.push(k);
                }
            }
        }
    }
    let profiles = parallel_map(kernels, |k| profiler.profile_kernel(&k));
    let table: RequiredCusTable = profiles
        .into_iter()
        .map(|p| (p.kernel, p.min_cus))
        .collect();
    table.save(&path).expect("cache perfdb");
    table
}

/// Isolated-baseline metrics for one model: a single worker with the
/// whole GPU (MPS Default, 1 worker) — the normalization reference of
/// Figs 13/14/15 and the SLO anchor (2x this p95).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Baseline {
    /// Requests per second.
    pub rps: f64,
    /// 95th-percentile latency, ms.
    pub p95_ms: f64,
    /// Energy per inference, joules.
    pub energy_per_inference_j: f64,
}

/// One (model, policy, workers) cell of the main evaluation sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// The co-located model.
    pub model: ModelKind,
    /// Partitioning policy.
    pub policy: Policy,
    /// Number of concurrent workers.
    pub workers: usize,
    /// Batch size.
    pub batch: u32,
    /// Absolute system throughput (requests/s).
    pub rps: f64,
    /// Throughput normalized to the isolated baseline.
    pub normalized_rps: f64,
    /// Worst per-worker p95 latency, ms.
    pub max_p95_ms: f64,
    /// Whether every worker met the 2x-isolated SLO.
    pub slo_ok: bool,
    /// Energy per inference, joules.
    pub energy_per_inference_j: f64,
    /// Energy per inference normalized to the isolated baseline.
    pub normalized_energy: f64,
}

/// The complete homogeneous-co-location sweep at one batch size:
/// 8 models x 5 policies x {1, 2, 4} workers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sweep {
    /// Batch size the sweep ran at.
    pub batch: u32,
    /// Per-model isolated baselines.
    pub baselines: Vec<(ModelKind, Baseline)>,
    /// All run records.
    pub records: Vec<RunRecord>,
}

impl Sweep {
    /// The baseline for a model.
    ///
    /// # Panics
    ///
    /// Panics if the model is not in the sweep.
    pub fn baseline(&self, model: ModelKind) -> Baseline {
        self.baselines
            .iter()
            .find(|(m, _)| *m == model)
            .map(|&(_, b)| b)
            .expect("model present in sweep")
    }

    /// The record for one cell.
    pub fn record(&self, model: ModelKind, policy: Policy, workers: usize) -> Option<&RunRecord> {
        self.records
            .iter()
            .find(|r| r.model == model && r.policy == policy && r.workers == workers)
    }
}

/// Runs (or loads from cache) the isolated baseline of a model.
pub fn isolated_baseline(model: ModelKind, batch: u32, perfdb: &RequiredCusTable) -> Baseline {
    let cfg = ServerConfig::closed_loop(Policy::MpsDefault, vec![model], batch);
    let r = run_server(&cfg, perfdb);
    Baseline {
        rps: r.total_rps(),
        p95_ms: r.max_p95_ms().expect("isolated run completes inferences"),
        energy_per_inference_j: r.energy_per_inference().expect("non-empty"),
    }
}

/// Runs the full Fig 13-style sweep at one batch size, caching to
/// `results/sweep_b{batch}.json`. Tables III/IV and Figs 13/14 read
/// from this.
pub fn policy_sweep(batch: u32, perfdb: &RequiredCusTable) -> Sweep {
    let cache = format!("sweep_b{batch}.json");
    if let Some(sweep) = load_json::<Sweep>(&cache) {
        if !sweep.records.is_empty() {
            return sweep;
        }
    }
    eprintln!("[running policy sweep at batch {batch} — parallel over host cores]");
    let baselines: Vec<(ModelKind, Baseline)> = parallel_map(ModelKind::ALL.to_vec(), |model| {
        let b = isolated_baseline(model, batch, perfdb);
        eprintln!(
            "  baseline {model}: {:.1} rps, p95 {:.2} ms, {:.2} J/inf",
            b.rps, b.p95_ms, b.energy_per_inference_j
        );
        (model, b)
    });
    let cells: Vec<(ModelKind, Policy, usize)> = ModelKind::ALL
        .iter()
        .flat_map(|&m| {
            Policy::ALL
                .iter()
                .flat_map(move |&p| [1usize, 2, 4].into_iter().map(move |w| (m, p, w)))
        })
        .collect();
    let records: Vec<RunRecord> = parallel_map(cells, |(model, policy, workers)| {
        let base = baselines
            .iter()
            .find(|(m, _)| *m == model)
            .map(|&(_, b)| b)
            .expect("just computed");
        let cfg = ServerConfig::closed_loop(policy, vec![model; workers], batch);
        let r = run_server(&cfg, perfdb);
        let record = RunRecord {
            model,
            policy,
            workers,
            batch,
            rps: r.total_rps(),
            normalized_rps: r.total_rps() / base.rps,
            max_p95_ms: r.max_p95_ms().unwrap_or(f64::INFINITY),
            slo_ok: r.meets_slo(&|m| {
                baselines
                    .iter()
                    .find(|(bm, _)| *bm == m)
                    .map(|&(_, b)| b.p95_ms)
                    .expect("baseline present")
            }),
            energy_per_inference_j: r.energy_per_inference().unwrap_or(f64::INFINITY),
            normalized_energy: r.energy_per_inference().unwrap_or(f64::INFINITY)
                / base.energy_per_inference_j,
        };
        eprintln!(
            "  {model} {policy} w{workers}: {:.2}x rps, p95 {:.1} ms, slo {}",
            record.normalized_rps, record.max_p95_ms, record.slo_ok
        );
        record
    });
    let sweep = Sweep {
        batch,
        baselines,
        records,
    };
    save_json(&cache, &sweep);
    sweep
}

/// Pretty separator line for the textual reports.
pub fn header(title: &str) {
    print!("{}", header_text(title));
}

/// [`header`] as a string — seed for reports assembled off the main
/// thread (the `report()` functions `krisp-bench all` computes in parallel and
/// prints in original order).
pub fn header_text(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

/// Per-model maximum worker count without SLO violation under one policy
/// (a Table IV cell), from the sweep records.
pub fn max_concurrency(sweep: &Sweep, model: ModelKind, policy: Policy) -> usize {
    [1usize, 2, 4]
        .into_iter()
        .filter(|&w| sweep.record(model, policy, w).map(|r| r.slo_ok) == Some(true))
        .max()
        .unwrap_or(0)
}

/// Geometric mean over the sweep's normalized RPS for one policy and
/// worker count (the Fig 14 aggregation).
pub fn geomean_normalized_rps(sweep: &Sweep, policy: Policy, workers: usize) -> f64 {
    let vals: Vec<f64> = ModelKind::ALL
        .iter()
        .filter_map(|&m| sweep.record(m, policy, workers).map(|r| r.normalized_rps))
        .collect();
    krisp_sim::stats::geomean(&vals).expect("sweep covers all models")
}

/// Convenience map of isolated p95 per model for SLO lambdas.
pub fn baseline_p95_map(sweep: &Sweep) -> HashMap<ModelKind, f64> {
    sweep
        .baselines
        .iter()
        .map(|&(m, b)| (m, b.p95_ms))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_creatable() {
        let d = results_dir();
        assert!(d.is_dir());
    }

    #[test]
    fn parallel_map_preserves_order_and_results() {
        let out = parallel_map((0..100).collect::<Vec<i64>>(), |x| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<i64>>());
        // Degenerate cases.
        assert_eq!(parallel_map(Vec::<i64>::new(), |x| x), Vec::<i64>::new());
        assert_eq!(parallel_map(vec![7], |x| x + 1), vec![8]);
    }

    fn synthetic_sweep() -> Sweep {
        let mut records = Vec::new();
        for model in ModelKind::ALL {
            for policy in Policy::ALL {
                for workers in [1usize, 2, 4] {
                    records.push(RunRecord {
                        model,
                        policy,
                        workers,
                        batch: 32,
                        rps: workers as f64,
                        normalized_rps: workers as f64,
                        max_p95_ms: 10.0,
                        slo_ok: workers < 4 || policy == Policy::KrispI,
                        energy_per_inference_j: 1.0,
                        normalized_energy: 1.0,
                    });
                }
            }
        }
        Sweep {
            batch: 32,
            baselines: ModelKind::ALL
                .iter()
                .map(|&m| {
                    (
                        m,
                        Baseline {
                            rps: 1.0,
                            p95_ms: 10.0,
                            energy_per_inference_j: 1.0,
                        },
                    )
                })
                .collect(),
            records,
        }
    }

    #[test]
    fn max_concurrency_reads_slo_flags() {
        let sweep = synthetic_sweep();
        assert_eq!(
            max_concurrency(&sweep, ModelKind::Albert, Policy::KrispI),
            4
        );
        assert_eq!(
            max_concurrency(&sweep, ModelKind::Albert, Policy::MpsDefault),
            2
        );
    }

    #[test]
    fn geomean_helper_matches_uniform_data() {
        let sweep = synthetic_sweep();
        let g = geomean_normalized_rps(&sweep, Policy::KrispI, 2);
        assert!((g - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_lookup_accessors() {
        let sweep = synthetic_sweep();
        assert!(sweep.record(ModelKind::Vgg19, Policy::KrispO, 4).is_some());
        assert!(sweep.record(ModelKind::Vgg19, Policy::KrispO, 3).is_none());
        assert_eq!(sweep.baseline(ModelKind::Albert).rps, 1.0);
        assert_eq!(baseline_p95_map(&sweep)[&ModelKind::Vgg19], 10.0);
    }

    #[test]
    fn json_round_trip() {
        let rec = Baseline {
            rps: 1.0,
            p95_ms: 2.0,
            energy_per_inference_j: 3.0,
        };
        save_json("test_baseline.json", &rec);
        let back: Baseline = load_json("test_baseline.json").unwrap();
        assert_eq!(back, rec);
        let _ = std::fs::remove_file(results_dir().join("test_baseline.json"));
    }
}
