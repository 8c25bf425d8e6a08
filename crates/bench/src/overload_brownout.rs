//! Overload guardrails: goodput under load sweeps with the sentinel on
//! and off.
//!
//! Four co-located Squeezenet workers are driven open-loop at 0.5x, 1x,
//! 2x and 3x of each policy's measured closed-loop capacity, with a
//! 25 ms per-request deadline. **Goodput** is the rate of completions
//! that land *inside* the deadline — the metric an SLO-bound operator
//! actually sells. Each cell runs twice: guardrails off (deadline
//! drops only) and the full sentinel stack on (token-bucket admission,
//! CoDel queue shedding, brownout right-sizing, retry budgets).
//!
//! The shape this figure exists to show: without admission control an
//! overloaded open-loop server convoys — every request queues for about
//! the deadline before being served or dropped, so almost nothing
//! finishes in time and goodput collapses; with the sentinel shedding
//! at the door, queues stay short and goodput holds near capacity with
//! p95 under the deadline.

use serde::{Deserialize, Serialize};

use krisp::Policy;
use krisp_models::ModelKind;
use krisp_runtime::RequiredCusTable;
use krisp_server::{run_server, Arrival, SentinelConfig, ServerConfig};
use krisp_sim::SimDuration;

use crate::{header, save_json};

/// Per-request deadline the whole figure is scored against, ms. Sized
/// ~1.5x the four-worker co-located p95 so the SLO is feasible at low
/// load yet tight enough that convoying under overload blows it.
pub const DEADLINE_MS: f64 = 40.0;

const WORKERS: usize = 4;
const POLICIES: [Policy; 3] = [Policy::MpsDefault, Policy::StaticEqual, Policy::KrispI];
const LOAD_MULTS: [f64; 4] = [0.5, 1.0, 2.0, 3.0];

/// One (policy, load, sentinel) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// The policy measured.
    pub policy: Policy,
    /// Offered load as a multiple of the policy's closed-loop capacity.
    pub load_mult: f64,
    /// Whether the sentinel guardrails were armed.
    pub sentinel: bool,
    /// Offered arrival rate across all workers, requests/s.
    pub offered_rps: f64,
    /// Raw completion rate, requests/s.
    pub throughput_rps: f64,
    /// Completions within the deadline, requests/s — the y-axis.
    pub goodput_rps: f64,
    /// p95 latency of completed requests, ms.
    pub p95_ms: f64,
    /// Requests shed at admission (token bucket / Shed state).
    pub shed_admission: u64,
    /// Requests shed by CoDel on queue sojourn.
    pub shed_codel: u64,
    /// Requests dropped on deadline expiry at dequeue.
    pub timed_out: u64,
    /// Brownout state transitions taken during the run.
    pub transitions: u64,
}

fn base_cfg(policy: Policy, duration: SimDuration) -> ServerConfig {
    let mut cfg = ServerConfig::closed_loop(policy, vec![ModelKind::Squeezenet; WORKERS], 32);
    cfg.warmup = Some(SimDuration::from_millis(40));
    cfg.duration = Some(duration);
    cfg.deadline = Some(SimDuration::from_secs_f64(DEADLINE_MS / 1e3));
    cfg
}

/// The policy's closed-loop capacity (requests/s) at this worker count —
/// the 1.0x anchor of the load sweep.
fn capacity_rps(policy: Policy, duration: SimDuration, perfdb: &RequiredCusTable) -> f64 {
    let mut cfg = base_cfg(policy, duration);
    cfg.deadline = None;
    run_server(&cfg, perfdb).total_rps()
}

fn cell(
    policy: Policy,
    load_mult: f64,
    sentinel: bool,
    capacity: f64,
    duration: SimDuration,
    perfdb: &RequiredCusTable,
) -> Row {
    let offered = capacity * load_mult;
    let mut cfg = base_cfg(policy, duration);
    cfg.arrival = Arrival::Poisson {
        rps_per_worker: offered / WORKERS as f64,
    };
    if sentinel {
        // Admit at most ~60% of measured per-worker capacity: queueing
        // tails grow fast with utilization, and admitting near
        // saturation trades goodput for deadline violations. Burst is
        // kept tight — the default 10-token burst per worker floods a
        // short measurement window with a backlog the deadline then
        // bleeds off for hundreds of milliseconds.
        let mut sentinel = SentinelConfig::standard(0.6 * capacity / WORKERS as f64);
        if let Some(bucket) = sentinel.admission.as_mut() {
            bucket.burst = 2.0;
        }
        cfg.sentinel = Some(sentinel);
    }
    let r = run_server(&cfg, perfdb);
    let window_s = r.window.as_secs_f64();
    let good: usize = r
        .workers
        .iter()
        .flat_map(|w| &w.latencies_ms)
        .filter(|&&l| l <= DEADLINE_MS)
        .count();
    let flow = r.flow.as_ref().expect("open-loop runs track flow");
    assert!(flow.conserved(), "{policy:?} x{load_mult}: {flow:?}");
    Row {
        policy,
        load_mult,
        sentinel,
        offered_rps: offered,
        throughput_rps: r.total_rps(),
        goodput_rps: good as f64 / window_s,
        p95_ms: r.max_p95_ms().unwrap_or(f64::NAN),
        shed_admission: flow.shed_admission,
        shed_codel: flow.shed_codel,
        timed_out: flow.timed_out,
        transitions: r.sentinel.as_ref().map_or(0, |s| s.transitions),
    }
}

/// Runs the sweep and checks the headline property: at >= 2x capacity,
/// sentinel-on KRISP-I delivers strictly more goodput than sentinel-off
/// while holding p95 under the deadline.
pub fn run(perfdb: &RequiredCusTable) -> Vec<Row> {
    let duration = if crate::smoke() {
        SimDuration::from_millis(800)
    } else {
        SimDuration::from_secs(2)
    };
    header("Overload guardrails: goodput vs offered load, sentinel on/off");
    let caps: Vec<(Policy, f64)> = crate::parallel_map(POLICIES.to_vec(), |p| {
        (p, capacity_rps(p, duration, perfdb))
    });
    let jobs: Vec<(Policy, f64, f64, bool)> = caps
        .iter()
        .flat_map(|&(p, cap)| {
            LOAD_MULTS
                .iter()
                .flat_map(move |&m| [false, true].map(|s| (p, cap, m, s)))
        })
        .collect();
    let rows = crate::parallel_map(jobs, |(policy, cap, mult, sentinel)| {
        cell(policy, mult, sentinel, cap, duration, perfdb)
    });

    println!(
        "{:<14} {:>5} {:>9} {:>10} {:>9} {:>9} {:>8} {:>7} {:>7} {:>7} {:>6}",
        "policy",
        "load",
        "sentinel",
        "offered",
        "thruput",
        "goodput",
        "p95 ms",
        "a.shed",
        "codel",
        "t.out",
        "trans"
    );
    for r in &rows {
        println!(
            "{:<14} {:>4.1}x {:>9} {:>10.1} {:>9.1} {:>9.1} {:>8.1} {:>7} {:>7} {:>7} {:>6}",
            r.policy.name(),
            r.load_mult,
            if r.sentinel { "on" } else { "off" },
            r.offered_rps,
            r.throughput_rps,
            r.goodput_rps,
            r.p95_ms,
            r.shed_admission,
            r.shed_codel,
            r.timed_out,
            r.transitions
        );
    }
    save_json("overload_brownout.json", &rows);

    let goodput = |policy, mult: f64, sentinel| {
        rows.iter()
            .find(|r| r.policy == policy && r.load_mult == mult && r.sentinel == sentinel)
            .expect("ran")
    };
    for mult in [2.0, 3.0] {
        let on = goodput(Policy::KrispI, mult, true);
        let off = goodput(Policy::KrispI, mult, false);
        println!(
            "\nshape check {mult}x: sentinel-on KRISP-I goodput {:.1} rps (p95 {:.1} ms) \
             vs off {:.1} rps",
            on.goodput_rps, on.p95_ms, off.goodput_rps
        );
        assert!(
            on.goodput_rps > off.goodput_rps,
            "{mult}x: sentinel-on goodput {:.1} <= off {:.1}",
            on.goodput_rps,
            off.goodput_rps
        );
        assert!(
            on.p95_ms < DEADLINE_MS,
            "{mult}x: sentinel-on p95 {:.1} ms over the {DEADLINE_MS} ms deadline",
            on.p95_ms
        );
    }
    rows
}
