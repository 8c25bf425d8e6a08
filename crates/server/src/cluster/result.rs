//! Result assembly: degradation counters, conservation books, and the
//! final [`ClusterResult`].

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use krisp_sim::stats::percentile;

use super::drive::ClusterEngine;

/// Cluster-level degradation counters.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ClusterRobustness {
    /// Requests rejected because a worker queue was full.
    pub shed: u64,
    /// Requests dropped after their (possibly retried) deadline expired.
    pub timed_out: u64,
    /// Requests moved to another GPU (deadline, drain, or crash).
    pub retried: u64,
    /// Requests lost to kernel abandonment or a crash.
    pub failed_requests: u64,
    /// Kernels abandoned by per-GPU watchdogs.
    pub failed_kernels: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u32,
    /// Scripted crashes that fired.
    pub crashes: u32,
    /// Straggling requests that got a hedge copy dispatched.
    pub hedged: u64,
    /// Hedged requests whose winning copy was one of the two (always
    /// `<= hedged`; the difference died on both legs).
    pub hedge_wins: u64,
    /// Runtime degradations across GPUs, stringified.
    pub errors: Vec<String>,
}

impl ClusterRobustness {
    /// True when the run saw no degradation at all.
    pub fn is_clean(&self) -> bool {
        self == &ClusterRobustness::default()
    }
}

/// Outcome of a cluster run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterResult {
    /// Requests completed, cluster-wide.
    pub completed: usize,
    /// Requests per second, cluster-wide.
    pub rps: f64,
    /// p95 end-to-end latency (arrival → completion), ms.
    pub p95_ms: f64,
    /// Requests completed per GPU (routing-balance indicator).
    pub per_gpu: Vec<usize>,
    /// Total energy across GPUs, joules.
    pub energy_j: f64,
    /// Requests that arrived at the front-end over the horizon.
    pub arrivals: u64,
    /// Requests that completed *after* the horizon while the backlog
    /// drained (excluded from `completed`/`rps` to keep throughput
    /// honest).
    pub drained: u64,
    /// Distinct unresolved requests still queued or in flight when the
    /// run ended.
    pub leftover: u64,
    /// Degradation counters.
    pub robustness: ClusterRobustness,
}

impl ClusterResult {
    /// Conservation check: every arrival is accounted for exactly once —
    /// completed (in-window or drained), shed, timed out, failed, or
    /// still unresolved at the end. Hedge copies never create or destroy
    /// a request, so this holds with hedging on or off.
    pub fn conserved(&self) -> bool {
        self.arrivals
            == self.completed as u64
                + self.drained
                + self.leftover
                + self.robustness.shed
                + self.robustness.timed_out
                + self.robustness.failed_requests
    }
}

/// Consumes the driven engine and balances its books into a
/// [`ClusterResult`].
pub(super) fn finish(mut engine: ClusterEngine<'_>) -> ClusterResult {
    let mut rob = engine.rob;
    for gpu in &mut engine.gpus {
        rob.errors
            .extend(gpu.rt.take_errors().iter().map(ToString::to_string));
    }
    // S1: capacity sheds live in the queues themselves; aggregate them
    // once here instead of counting at scattered call sites.
    rob.shed = engine
        .gpus
        .iter()
        .flat_map(|g| &g.workers)
        .map(|w| w.queue.shed())
        .sum();
    // Distinct unresolved requests at the end of the run (hedge copies
    // of settled requests are not unresolved, and two live copies of one
    // request count once).
    let mut seen = HashSet::new();
    let mut leftover = 0u64;
    for w in engine.gpus.iter().flat_map(|g| &g.workers) {
        for req in w.queue.iter().chain(w.inflight().iter()) {
            if !engine.hedge.done.contains(&req.id) && seen.insert(req.id) {
                leftover += 1;
            }
        }
    }
    let completed = engine.latencies_ms.len();
    ClusterResult {
        completed,
        rps: completed as f64 / engine.config.horizon.as_secs_f64(),
        p95_ms: percentile(&engine.latencies_ms, 95.0).unwrap_or(f64::NAN),
        per_gpu: engine.per_gpu,
        energy_j: engine.gpus.iter().map(|g| g.rt.energy_joules()).sum(),
        arrivals: engine.total_arrivals,
        drained: engine.drained,
        leftover,
        robustness: rob,
    }
}
