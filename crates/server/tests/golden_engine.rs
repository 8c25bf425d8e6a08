//! Golden bit-identity tests for the serving engine.
//!
//! The fixtures under `tests/goldens/` were captured from the monolithic
//! pre-refactor drive loops (`experiment.rs` / `cluster.rs` before the
//! `krisp_serve_core` extraction). The refactored engine must reproduce
//! them **byte for byte**: the vendored `serde_json` prints `f64`s with
//! Rust's shortest-round-trip formatting, so string equality of the
//! serialized results is bit-identity of every float in them.
//!
//! Re-blessing (only legitimate when a PR *intentionally* changes
//! serving behavior): `KRISP_BLESS=1 cargo test -p krisp-server --test
//! golden_engine`.

use std::path::PathBuf;

use krisp::Policy;
use krisp_models::ModelKind;
use krisp_runtime::WatchdogConfig;
use krisp_server::{
    run_cluster, run_server, Arrival, ClusterConfig, CrashScript, SentinelConfig, ServerConfig,
};
use krisp_sim::{CuMask, FaultPlan, GpuTopology, SimDuration, SimTime};
use serde::Serialize;

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

/// Compares `value`'s JSON form against the named fixture, or rewrites
/// the fixture when `KRISP_BLESS` is set.
fn check_golden<T: Serialize>(name: &str, value: &T) {
    let path = goldens_dir().join(name);
    let got = serde_json::to_string_pretty(value).expect("serialize result");
    if std::env::var_os("KRISP_BLESS").is_some() {
        std::fs::create_dir_all(goldens_dir()).expect("create goldens dir");
        std::fs::write(&path, &got).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("[blessed {}]", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {}: {e} (run with KRISP_BLESS=1)",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "{name}: serving engine diverged from the pre-refactor golden"
    );
}

fn oracle(models: &[ModelKind]) -> krisp_runtime::RequiredCusTable {
    krisp_server::oracle_perfdb(models, &[32])
}

/// Config 1: KRISP-I with native enforcement, closed loop — the paper's
/// headline serving configuration (Fig 13's engine path).
#[test]
fn golden_krisp_i_native_closed_loop() {
    let mut cfg = ServerConfig::closed_loop(Policy::KrispI, vec![ModelKind::Squeezenet; 4], 32);
    cfg.warmup = Some(SimDuration::from_millis(40));
    cfg.duration = Some(SimDuration::from_millis(400));
    let db = oracle(&cfg.models);
    check_golden("server_krisp_i_native.json", &run_server(&cfg, &db));
}

/// Config 2: static-equal partitions under a mid-run CU-loss fault with
/// the watchdog armed — the robustness path (fault plan, poisoning,
/// degraded books).
#[test]
fn golden_static_equal_with_faults() {
    let topo = GpuTopology::MI50;
    let mut cfg = ServerConfig::closed_loop(
        Policy::StaticEqual,
        vec![ModelKind::Squeezenet, ModelKind::Albert],
        32,
    );
    cfg.warmup = Some(SimDuration::from_millis(40));
    cfg.duration = Some(SimDuration::from_millis(400));
    cfg.watchdog = Some(WatchdogConfig::default());
    cfg.faults = FaultPlan::new()
        .fail_cus(
            SimTime::ZERO + SimDuration::from_millis(120),
            CuMask::first_n(12, &topo),
        )
        .straggle_all(
            SimTime::ZERO + SimDuration::from_millis(200),
            8.0,
            SimDuration::from_millis(80),
        );
    let db = oracle(&cfg.models);
    check_golden("server_static_equal_faults.json", &run_server(&cfg, &db));
}

/// Config 3: sentinel-armed Poisson overload — admission, CoDel,
/// brownout and retry budget all active, with deadlines (the guardrail
/// path and its flow books).
#[test]
fn golden_sentinel_armed_overload() {
    let mut cfg = ServerConfig::closed_loop(Policy::KrispI, vec![ModelKind::Squeezenet; 2], 32);
    cfg.arrival = Arrival::Poisson {
        rps_per_worker: 400.0,
    };
    cfg.deadline = Some(SimDuration::from_millis(25));
    cfg.queue_capacity = Some(16);
    cfg.sentinel = Some(SentinelConfig::standard(150.0));
    cfg.warmup = Some(SimDuration::from_millis(40));
    cfg.duration = Some(SimDuration::from_secs(1));
    let db = oracle(&cfg.models);
    check_golden("server_sentinel_overload.json", &run_server(&cfg, &db));
}

/// Config 4 (cluster): clean two-GPU least-outstanding serving.
#[test]
fn golden_cluster_clean_least_outstanding() {
    let models = vec![ModelKind::Squeezenet, ModelKind::Albert];
    let db = oracle(&models);
    let mut cfg = ClusterConfig::new(2, models, 60.0);
    cfg.horizon = SimDuration::from_secs(2);
    check_golden("cluster_clean.json", &run_cluster(&cfg, &db));
}

/// Config 5 (cluster): bounded queues, deadlines, a scripted crash and
/// hedged dispatch — every cluster-side robustness mechanism at once.
#[test]
fn golden_cluster_crash_hedge_deadline() {
    let models = vec![ModelKind::Squeezenet];
    let db = oracle(&models);
    let mut cfg = ClusterConfig::new(2, models, 300.0);
    cfg.horizon = SimDuration::from_secs(2);
    cfg.queue_capacity = Some(8);
    cfg.deadline = Some(SimDuration::from_millis(40));
    cfg.watchdog = Some(WatchdogConfig::default());
    cfg.crash = Some(CrashScript {
        gpu: 1,
        at: SimTime::ZERO + SimDuration::from_millis(500),
        down_for: SimDuration::from_millis(400),
    });
    cfg.hedge = Some(krisp_server::HedgeConfig {
        delay: SimDuration::from_millis(30),
    });
    check_golden("cluster_crash_hedge.json", &run_cluster(&cfg, &db));
}

/// Config 6: KRISP-I dynamic batching (open-loop samples formed into
/// batches) through a straggler window with the watchdog armed — the
/// batch-formation timers, per-batch traces, and the failed-final-kernel
/// re-dispatch path.
#[test]
fn golden_open_batched_stragglers() {
    let mut cfg = ServerConfig::closed_loop(Policy::KrispI, vec![ModelKind::Squeezenet; 2], 32);
    cfg.arrival = Arrival::OpenBatched {
        samples_per_s: 3000.0,
        max_batch: 16,
        batch_timeout: SimDuration::from_millis(4),
    };
    cfg.warmup = Some(SimDuration::from_millis(40));
    cfg.duration = Some(SimDuration::from_millis(400));
    cfg.watchdog = Some(WatchdogConfig::default());
    cfg.faults = FaultPlan::new().straggle_all(
        SimTime::ZERO + SimDuration::from_millis(150),
        20.0,
        SimDuration::from_millis(100),
    );
    let db = oracle(&cfg.models);
    check_golden(
        "server_open_batched_stragglers.json",
        &run_server(&cfg, &db),
    );
}
