//! The standing perf-regression harness: micro-benches for the simulator
//! hot path (rate recompute, event-loop stepping) plus wall-clock macro
//! numbers for two end-to-end scenarios (the Fig 13 4-worker sweep shape
//! and an 8-GPU cluster drive).
//!
//! Every run writes `results/perf_smoke.json` (or into `KRISP_RESULTS`)
//! and nothing else; the committed `BENCH_*.json` trajectory points are
//! frozen records and are never rewritten here. `KRISP_SMOKE=1` shrinks
//! the macro scenarios for CI; micro numbers are unaffected.

use std::path::PathBuf;
use std::time::Instant;

use criterion::{black_box, Bencher};
use serde::Serialize;

use krisp::{KrispAllocator, Policy};
use krisp_models::ModelKind;
use krisp_runtime::{PartitionMode, Runtime, RuntimeConfig};
use krisp_server::{oracle_perfdb, run_cluster, run_server, ClusterConfig, Routing, ServerConfig};
use krisp_sim::{CuMask, Engine, GpuTopology, KernelDesc, SimDuration, SimTime};

#[derive(Debug, Serialize)]
struct PerfSmoke {
    /// True when the macro scenarios ran in shortened CI form.
    smoke: bool,
    /// Median nanoseconds per iteration, per micro-bench.
    micro_ns: Vec<(String, f64)>,
    /// Wall-clock milliseconds, per macro scenario.
    macro_ms: Vec<(String, f64)>,
}

fn smoke() -> bool {
    std::env::var_os("KRISP_SMOKE").is_some()
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels below the workspace root")
        .to_path_buf()
}

fn human(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

fn micro<O>(out: &mut Vec<(String, f64)>, name: &str, mut f: impl FnMut() -> O) {
    let mut b = Bencher::standalone();
    b.iter(&mut f);
    println!("{name:<50} time: [{}]", human(b.median_ns()));
    out.push((name.to_string(), b.median_ns()));
}

/// An engine with `n` long-running kernels, each on the given mask
/// builder's output, left mid-flight so dispatch/complete churn re-rates
/// against a realistic resident set.
fn loaded_engine(n: usize, mask_of: impl Fn(usize, &GpuTopology) -> CuMask) -> Engine {
    let topo = GpuTopology::MI50;
    let mut e = Engine::new(topo);
    for i in 0..n {
        e.dispatch(1.0e12, 60, 0.0, mask_of(i, &topo))
            .expect("mask");
    }
    e
}

/// Rate-recompute micro-benches: a dispatch/complete pair against four
/// co-resident kernels. `overlapped` shares CUs with all of them (every
/// dispatch re-rates the whole set); `disjoint` touches its own SE only,
/// the case the incremental core skips.
fn micro_rate_recompute(out: &mut Vec<(String, f64)>) {
    let topo = GpuTopology::MI50;
    let shared = CuMask::first_n(30, &topo);
    let mut e = loaded_engine(4, |_, t| CuMask::first_n(30, t));
    micro(out, "rate_recompute/overlapped", || {
        let id = e.dispatch(1.0e6, 60, 0.0, shared).expect("mask");
        e.complete(id)
    });

    // One kernel per SE, churn on SE0 only: masks of the churned kernel
    // and the three other residents never intersect.
    let se_mask =
        |se: usize, t: &GpuTopology| -> CuMask { t.cus_in_se(krisp_sim::SeId(se as u8)).collect() };
    let mut e = loaded_engine(4, se_mask);
    let churn = se_mask(0, &topo);
    micro(out, "rate_recompute/disjoint", || {
        let id = e.dispatch(1.0e6, 60, 0.0, churn).expect("mask");
        e.complete(id)
    });
}

/// Event-loop micro-benches: a 4-stream dispatch chain through the full
/// runtime (queue pump + completion scan per event), and the host-facing
/// `next_event_at` query with a kernel in flight.
fn micro_step_throughput(out: &mut Vec<(String, f64)>) {
    micro(out, "step_throughput/machine_4q_chain", || {
        let mut rt = Runtime::new(RuntimeConfig {
            mode: PartitionMode::StreamMasking,
            allocator: Box::new(KrispAllocator::isolated()),
            ..RuntimeConfig::default()
        });
        let streams: Vec<_> = (0..4).map(|_| rt.create_stream()).collect();
        let kernel = KernelDesc::new("bench", 1.0e6, 20);
        for &s in &streams {
            for i in 0..50 {
                rt.launch(s, kernel.clone(), i);
            }
        }
        rt.run_to_idle();
        rt.now().as_nanos()
    });

    let mut rt = Runtime::new(RuntimeConfig::default());
    let s = rt.create_stream();
    rt.launch(s, KernelDesc::new("bench", 1.0e12, 60), 0);
    // Step until the kernel is executing, then query like a cluster host.
    while rt.now() == SimTime::ZERO {
        if rt.step().is_none() {
            break;
        }
    }
    micro(out, "step_throughput/next_event_at", || {
        black_box(rt.next_event_at())
    });
}

fn macro_scenarios(out: &mut Vec<(String, f64)>, smoke: bool) {
    // Fig 13 shape at 4 workers: homogeneous co-location across models
    // and the three headline policies, sequential (single-thread cost).
    let models: &[ModelKind] = if smoke {
        &[ModelKind::Albert, ModelKind::Resnet152]
    } else {
        &ModelKind::ALL
    };
    let policies = [Policy::MpsDefault, Policy::StaticEqual, Policy::KrispI];
    let db = oracle_perfdb(&ModelKind::ALL, &[32]);
    let start = Instant::now();
    for &m in models {
        for &p in &policies {
            let cfg = ServerConfig::closed_loop(p, vec![m; 4], 32);
            black_box(run_server(&cfg, &db));
        }
    }
    let fig13_ms = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "{:<50} wall: [{:.0} ms]",
        format!(
            "macro/fig13_w4_sweep ({} runs)",
            models.len() * policies.len()
        ),
        fig13_ms
    );
    out.push(("fig13_w4_sweep".to_string(), fig13_ms));

    // 8-GPU cluster drive: mixed load, least-outstanding routing.
    let mut cfg = ClusterConfig::new(
        8,
        vec![
            ModelKind::Albert,
            ModelKind::Squeezenet,
            ModelKind::Resnet152,
        ],
        120.0,
    );
    cfg.policy = Policy::KrispI;
    cfg.routing = Routing::LeastOutstanding;
    cfg.horizon = if smoke {
        SimDuration::from_secs(1)
    } else {
        SimDuration::from_secs(4)
    };
    let start = Instant::now();
    black_box(run_cluster(&cfg, &db));
    let cluster_ms = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "{:<50} wall: [{cluster_ms:.0} ms]",
        "macro/cluster_8gpu_drive"
    );
    out.push(("cluster_8gpu_drive".to_string(), cluster_ms));
}

fn main() {
    let smoke = smoke();
    let mut micro_ns = Vec::new();
    let mut macro_ms = Vec::new();
    println!("== perf_smoke: simulator hot-path regression harness ==");
    micro_rate_recompute(&mut micro_ns);
    micro_step_throughput(&mut micro_ns);
    macro_scenarios(&mut macro_ms, smoke);

    let record = PerfSmoke {
        smoke,
        micro_ns,
        macro_ms,
    };
    let json = serde_json::to_string_pretty(&record).expect("serialize");
    let results = std::env::var_os("KRISP_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| workspace_root().join("results"));
    std::fs::create_dir_all(&results).expect("create results dir");
    let path = results.join("perf_smoke.json");
    std::fs::write(&path, &json).expect("write perf_smoke.json");
    eprintln!("[saved {}]", path.display());
}
