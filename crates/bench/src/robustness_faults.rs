//! Robustness under injected faults: MPS-default, static-equal and
//! KRISP-I driven through three scripted failure scenarios —
//! **stragglers** (a thermal/ interference window elongates kernels),
//! **CU loss** (a shader engine dies mid-run), and a **worker crash**
//! (one GPU of a two-GPU cluster dies and restarts). Each policy's
//! throughput under the fault is normalized to its own fault-free run,
//! so the figure isolates *retention* from raw speed.
//!
//! Also exports a Perfetto trace of the KRISP-I straggler scenario
//! (`results/robustness_faults_trace.json`) where the watchdog's
//! timeout/retry spans and the fault windows are visible on the fault
//! track.

use serde::{Deserialize, Serialize};

use krisp::Policy;
use krisp_models::ModelKind;
use krisp_obs::Obs;
use krisp_runtime::{RequiredCusTable, WatchdogConfig};
use krisp_server::{
    run_cluster, run_server, run_server_observed, ClusterConfig, CrashScript, ServerConfig,
};
use krisp_sim::{CuMask, FaultPlan, GpuTopology, SimDuration, SimTime};

use crate::{header, save_json};

/// One cell of the robustness figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Scenario name (`stragglers`, `cu_loss`, `worker_crash`).
    pub scenario: String,
    /// The policy measured.
    pub policy: Policy,
    /// Throughput of the fault-free run, requests/s.
    pub clean_rps: f64,
    /// Throughput under the fault, requests/s.
    pub faulted_rps: f64,
    /// `faulted_rps / clean_rps` — the figure's y-axis.
    pub retained: f64,
    /// p95 latency under the fault, ms.
    pub p95_ms: f64,
    /// Kernels the watchdog abandoned.
    pub failed_kernels: u64,
    /// Requests lost (final-kernel failures, crash losses).
    pub failed_requests: u64,
    /// Requests moved to another GPU (crash scenario).
    pub retried: u64,
}

const POLICIES: [Policy; 3] = [Policy::MpsDefault, Policy::StaticEqual, Policy::KrispI];

fn server_cfg(policy: Policy, duration: SimDuration) -> ServerConfig {
    let mut cfg = ServerConfig::closed_loop(policy, vec![ModelKind::Squeezenet; 4], 32);
    cfg.warmup = Some(SimDuration::from_millis(40));
    cfg.duration = Some(duration);
    cfg.watchdog = Some(WatchdogConfig::default());
    cfg
}

/// The straggler window: mid-run, every kernel dispatched for 25% of the
/// window runs 30x long — the watchdog must abort and retry them.
fn straggler_plan(duration: SimDuration) -> FaultPlan {
    let at = SimTime::ZERO + SimDuration::from_millis(40) + duration / 4;
    FaultPlan::new().straggle_all(at, 30.0, duration / 4)
}

/// The CU-loss fault: four CUs die in *every* shader engine (16 of 60)
/// mid-run — the pattern that punishes pinned partitions. Every
/// static-equal worker keeps limping on the surviving CUs of its fixed
/// mask, while kernel-scoped allocation simply routes each kernel around
/// the dead CUs.
fn cu_loss_plan(duration: SimDuration, topo: &GpuTopology) -> FaultPlan {
    let at = SimTime::ZERO + SimDuration::from_millis(40) + duration / 4;
    let mut dead = CuMask::new();
    for se in 0..topo.num_ses() as u16 {
        for i in 0..4 {
            dead.set(krisp_sim::CuId(se * topo.cus_per_se() as u16 + i));
        }
    }
    FaultPlan::new().fail_cus(at, dead)
}

fn server_row(
    scenario: &str,
    policy: Policy,
    plan: FaultPlan,
    duration: SimDuration,
    perfdb: &RequiredCusTable,
) -> Row {
    let clean = run_server(&server_cfg(policy, duration), perfdb);
    let mut cfg = server_cfg(policy, duration);
    cfg.faults = plan;
    let faulted = run_server(&cfg, perfdb);
    let flow = faulted.flow.as_ref().expect("server runs track flow");
    assert!(
        flow.conserved(),
        "{scenario}/{policy:?}: request books out of balance: {flow:?}"
    );
    let rb = faulted.robustness();
    Row {
        scenario: scenario.to_string(),
        policy,
        clean_rps: clean.total_rps(),
        faulted_rps: faulted.total_rps(),
        retained: faulted.total_rps() / clean.total_rps(),
        p95_ms: faulted.max_p95_ms().unwrap_or(f64::NAN),
        failed_kernels: rb.failed_kernels,
        failed_requests: rb.failed_requests,
        retried: 0,
    }
}

fn cluster_cfg(policy: Policy, horizon: SimDuration) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(2, vec![ModelKind::Squeezenet], 220.0);
    cfg.policy = policy;
    cfg.horizon = horizon;
    cfg.watchdog = Some(WatchdogConfig::default());
    cfg
}

fn crash_row(policy: Policy, horizon: SimDuration, perfdb: &RequiredCusTable) -> Row {
    let clean = run_cluster(&cluster_cfg(policy, horizon), perfdb);
    let mut cfg = cluster_cfg(policy, horizon);
    cfg.crash = Some(CrashScript {
        gpu: 1,
        at: SimTime::ZERO + horizon / 4,
        down_for: horizon / 4,
    });
    let faulted = run_cluster(&cfg, perfdb);
    assert!(
        faulted.conserved(),
        "worker_crash/{policy:?}: request books out of balance: {faulted:?}"
    );
    Row {
        scenario: "worker_crash".to_string(),
        policy,
        clean_rps: clean.rps,
        faulted_rps: faulted.rps,
        retained: faulted.rps / clean.rps,
        p95_ms: faulted.p95_ms,
        failed_kernels: faulted.robustness.failed_kernels,
        failed_requests: faulted.robustness.failed_requests,
        retried: faulted.robustness.retried,
    }
}

/// Saves a Perfetto trace of the KRISP-I straggler scenario: fault
/// windows, kernel timeouts, retries and abandonments are spans/markers
/// on the per-queue fault track.
fn save_fault_trace(duration: SimDuration, perfdb: &RequiredCusTable) {
    let (obs, sink) = Obs::recording(1 << 20);
    let mut cfg = server_cfg(Policy::KrispI, duration);
    cfg.faults = straggler_plan(duration);
    run_server_observed(&cfg, perfdb, obs);
    let events = sink.lock().expect("event sink").drain();
    let json = krisp_obs::perfetto::chrome_trace(&events, GpuTopology::MI50.cus_per_se() as u16);
    let path = crate::results_dir().join("robustness_faults_trace.json");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("[saved {} — open at ui.perfetto.dev]", path.display());
}

/// Runs the three scenarios for the three policies.
pub fn run(perfdb: &RequiredCusTable) -> Vec<Row> {
    let (duration, horizon) = if crate::smoke() {
        (SimDuration::from_millis(300), SimDuration::from_millis(800))
    } else {
        (SimDuration::from_millis(1500), SimDuration::from_secs(2))
    };
    header("Robustness under faults: retained throughput per scenario");
    let topo = GpuTopology::MI50;
    let jobs: Vec<(usize, Policy)> = POLICIES
        .iter()
        .flat_map(|&p| (0..3).map(move |s| (s, p)))
        .collect();
    let rows = crate::parallel_map(jobs, |(scenario, policy)| match scenario {
        0 => server_row(
            "stragglers",
            policy,
            straggler_plan(duration),
            duration,
            perfdb,
        ),
        1 => server_row(
            "cu_loss",
            policy,
            cu_loss_plan(duration, &topo),
            duration,
            perfdb,
        ),
        _ => crash_row(policy, horizon, perfdb),
    });
    println!(
        "{:<14} {:<14} {:>10} {:>10} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "scenario",
        "policy",
        "clean",
        "faulted",
        "retained",
        "p95 ms",
        "k.fail",
        "r.fail",
        "retried"
    );
    for r in &rows {
        println!(
            "{:<14} {:<14} {:>10.1} {:>10.1} {:>8.0}% {:>9.1} {:>8} {:>8} {:>8}",
            r.scenario,
            r.policy.name(),
            r.clean_rps,
            r.faulted_rps,
            r.retained * 100.0,
            r.p95_ms,
            r.failed_kernels,
            r.failed_requests,
            r.retried
        );
    }
    save_json("robustness_faults.json", &rows);
    if crate::save_traces() {
        save_fault_trace(duration, perfdb);
    }

    let retained = |scenario: &str, policy: Policy| {
        rows.iter()
            .find(|r| r.scenario == scenario && r.policy == policy)
            .expect("ran")
            .retained
    };
    let krisp = retained("cu_loss", Policy::KrispI);
    let stat = retained("cu_loss", Policy::StaticEqual);
    println!(
        "\nshape check: KRISP-I retains more than static-equal under CU loss: \
         {} ({:.0}% vs {:.0}%)",
        krisp > stat,
        krisp * 100.0,
        stat * 100.0
    );
    assert!(
        krisp > stat,
        "KRISP-I retained {krisp:.3} <= static-equal {stat:.3} under CU loss"
    );
    rows
}
