//! Experiment metrics: throughput, tail latency, SLO checks, energy per
//! inference.
//!
//! This module owns the single-GPU result types, built on the
//! conservation books ([`FlowCounters`], [`RobustnessCounters`],
//! [`SentinelCounters`]); the cluster keeps its own
//! [`ClusterRobustness`](crate::ClusterRobustness).

use serde::{Deserialize, Serialize};

use krisp::Policy;
use krisp_models::ModelKind;
use krisp_sim::stats::{percentile, Summary};
use krisp_sim::SimDuration;

use crate::books::{FlowCounters, RobustnessCounters, SentinelCounters};

/// Per-worker outcome of a measurement window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerResult {
    /// The worker's model.
    pub model: ModelKind,
    /// Inference latencies (ms) completed within the window, in
    /// completion order. Latency = completion − request start (includes
    /// queueing for open-loop arrivals).
    pub latencies_ms: Vec<f64>,
}

impl WorkerResult {
    /// Inferences completed within the window.
    pub fn inferences(&self) -> usize {
        self.latencies_ms.len()
    }

    /// 95th-percentile latency in ms (`None` with no completions).
    pub fn p95_ms(&self) -> Option<f64> {
        percentile(&self.latencies_ms, 95.0)
    }

    /// Full latency summary (`None` with no completions).
    pub fn summary(&self) -> Option<Summary> {
        Summary::from_samples(&self.latencies_ms)
    }
}

/// Outcome of one server experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Partitioning policy evaluated.
    pub policy: Policy,
    /// Batch size.
    pub batch: u32,
    /// Measurement-window length.
    pub window: SimDuration,
    /// Energy drawn during the window, joules.
    pub energy_j: f64,
    /// CU·seconds of compute array *allocated* during the window.
    pub busy_cu_seconds: f64,
    /// CU·seconds of execution service *delivered* during the window.
    pub service_cu_seconds: f64,
    /// Total CUs on the device.
    pub total_cus: u16,
    /// Per-worker results.
    pub workers: Vec<WorkerResult>,
    /// Degradation counters. `run_server` always fills them; `None`,
    /// as in JSON without the key, reads as a clean run.
    pub robustness: Option<RobustnessCounters>,
    /// Whole-run request-flow accounting. `run_server` always fills it.
    pub flow: Option<FlowCounters>,
    /// Sentinel guardrail activity (`None` when no sentinel was
    /// configured).
    pub sentinel: Option<SentinelCounters>,
}

impl ExperimentResult {
    /// Total inferences completed within the window.
    pub fn total_inferences(&self) -> usize {
        self.workers.iter().map(WorkerResult::inferences).sum()
    }

    /// System throughput: inferences per second across all workers
    /// (requests/s in the paper's terms — one request is one batch).
    pub fn total_rps(&self) -> f64 {
        self.total_inferences() as f64 / self.window.as_secs_f64()
    }

    /// Energy per inference in joules (`None` when nothing completed).
    pub fn energy_per_inference(&self) -> Option<f64> {
        let n = self.total_inferences();
        (n > 0).then(|| self.energy_j / n as f64)
    }

    /// The worst per-worker p95 latency in ms (`None` when nothing
    /// completed).
    pub fn max_p95_ms(&self) -> Option<f64> {
        self.workers
            .iter()
            .filter_map(WorkerResult::p95_ms)
            .max_by(|a, b| a.partial_cmp(b).expect("finite latencies"))
    }

    /// Fraction of the compute array allocated to some kernel over the
    /// window — the coarse utilization of Fig 1.
    pub fn allocation_utilization(&self) -> f64 {
        self.busy_cu_seconds / (self.total_cus as f64 * self.window.as_secs_f64())
    }

    /// Fraction of the compute array doing useful work over the window —
    /// what remains after fine-grain under-utilization.
    pub fn service_utilization(&self) -> f64 {
        self.service_cu_seconds / (self.total_cus as f64 * self.window.as_secs_f64())
    }

    /// The run's degradation counters (clean defaults when
    /// [`ExperimentResult::robustness`] is `None`).
    pub fn robustness(&self) -> RobustnessCounters {
        self.robustness.clone().unwrap_or_default()
    }

    /// SLO check with the paper's definition (§VI-B): every worker's p95
    /// must stay within 2× its model's isolated p95.
    ///
    /// `isolated_p95_ms` maps each model to its isolated tail latency.
    /// A worker with zero completions counts as a violation (it starved).
    pub fn meets_slo(&self, isolated_p95_ms: &dyn Fn(ModelKind) -> f64) -> bool {
        self.workers.iter().all(|w| match w.p95_ms() {
            Some(p95) => p95 <= 2.0 * isolated_p95_ms(w.model),
            None => false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(latencies: Vec<Vec<f64>>) -> ExperimentResult {
        ExperimentResult {
            policy: Policy::MpsDefault,
            batch: 32,
            window: SimDuration::from_secs(2),
            energy_j: 100.0,
            busy_cu_seconds: 60.0,
            service_cu_seconds: 30.0,
            total_cus: 60,
            workers: latencies
                .into_iter()
                .map(|l| WorkerResult {
                    model: ModelKind::Albert,
                    latencies_ms: l,
                })
                .collect(),
            robustness: None,
            flow: None,
            sentinel: None,
        }
    }

    #[test]
    fn throughput_and_energy() {
        let r = result(vec![vec![10.0; 30], vec![12.0; 20]]);
        assert_eq!(r.total_inferences(), 50);
        assert!((r.total_rps() - 25.0).abs() < 1e-9);
        assert!((r.energy_per_inference().unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn slo_uses_two_times_isolated_p95() {
        let r = result(vec![vec![19.0; 100], vec![21.0; 100]]);
        assert!(r.meets_slo(&|_| 10.5)); // limit 21
        assert!(!r.meets_slo(&|_| 10.0)); // limit 20 < 21
    }

    #[test]
    fn starved_worker_violates_slo() {
        let r = result(vec![vec![5.0; 10], vec![]]);
        assert!(!r.meets_slo(&|_| 1000.0));
        assert_eq!(r.energy_per_inference(), Some(10.0));
    }

    #[test]
    fn empty_experiment_has_no_energy_metric() {
        let r = result(vec![vec![], vec![]]);
        assert_eq!(r.energy_per_inference(), None);
        assert_eq!(r.max_p95_ms(), None);
    }

    #[test]
    fn utilization_fractions() {
        let r = result(vec![vec![1.0]]);
        assert!((r.allocation_utilization() - 0.5).abs() < 1e-12);
        assert!((r.service_utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn max_p95_takes_worst_worker() {
        let r = result(vec![vec![5.0; 100], vec![50.0; 100]]);
        assert_eq!(r.max_p95_ms(), Some(50.0));
    }

    #[test]
    fn missing_robustness_reads_as_clean() {
        let r = result(vec![vec![1.0]]);
        assert!(r.robustness().is_clean());
        // Round-trip through the serialized form: JSON without a
        // `robustness` key must deserialize as None.
        let v = r.to_value();
        let back = <ExperimentResult as Deserialize>::from_value(&v).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn robustness_counters_round_trip() {
        let mut r = result(vec![vec![1.0]]);
        r.robustness = Some(RobustnessCounters {
            shed: 3,
            timed_out: 1,
            failed_requests: 2,
            failed_kernels: 2,
            failed_cus: 15,
            stream_fallbacks: 1,
            errors: vec!["kernel tag 9 abandoned".to_string()],
        });
        let v = r.to_value();
        let back = <ExperimentResult as Deserialize>::from_value(&v).unwrap();
        assert_eq!(back, r);
        assert!(!back.robustness().is_clean());
    }

    #[test]
    fn flow_and_sentinel_counters_round_trip() {
        let mut r = result(vec![vec![1.0]]);
        r.flow = Some(FlowCounters {
            arrivals: 10,
            admitted: 7,
            completed: 5,
            shed_admission: 2,
            shed_capacity: 1,
            shed_codel: 1,
            timed_out: 0,
            failed: 0,
            in_flight_at_end: 1,
        });
        r.sentinel = Some(SentinelCounters {
            transitions: 4,
            retry_budget_granted: 2,
            retry_budget_denied: 1,
            final_state: 0,
        });
        assert!(r.flow.as_ref().unwrap().conserved());
        let v = r.to_value();
        let back = <ExperimentResult as Deserialize>::from_value(&v).unwrap();
        assert_eq!(back, r);
    }
}
