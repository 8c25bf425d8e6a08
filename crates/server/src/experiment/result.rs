//! Result assembly: robustness and flow books, sentinel counters, and
//! the warmup-delimited window filter.

use krisp_sim::{SimDuration, SimTime};

use super::config::Arrival;
use super::drive::ServerEngine;
use crate::metrics::{
    ExperimentResult, FlowCounters, RobustnessCounters, SentinelCounters, WorkerResult,
};
use krisp_serve_core::BrownoutController;

/// Consumes the driven engine and balances its books into an
/// [`ExperimentResult`].
pub(super) fn finish(
    mut engine: ServerEngine<'_>,
    warmup: SimDuration,
    duration: SimDuration,
    setup_errors: Vec<String>,
) -> ExperimentResult {
    let config = engine.config;
    let end = engine.end;
    if engine.energy_at_end.is_nan() {
        // The system drained before the window closed (open loop at low
        // rate): charge idle energy up to the window end.
        engine
            .rt
            .advance_idle(end.saturating_since(engine.rt.now()));
        engine.energy_at_end = engine.rt.energy_joules();
        engine.busy_at_end = engine.rt.busy_cu_seconds();
        engine.service_at_end = engine.rt.service_cu_seconds();
    }
    let rt = &mut engine.rt;
    let workers = &engine.workers;

    // --- Window filtering ---------------------------------------------
    let robustness = RobustnessCounters {
        shed: workers.iter().map(|w| w.queue.shed()).sum(),
        timed_out: workers.iter().map(|w| w.timed_out).sum(),
        failed_requests: workers.iter().map(|w| w.failed_requests).sum(),
        failed_kernels: workers.iter().map(|w| w.failed_kernels).sum(),
        failed_cus: rt.failed_cus().count(),
        stream_fallbacks: rt.stream_fallbacks().len() as u32,
        errors: setup_errors
            .into_iter()
            .chain(rt.take_errors().iter().map(ToString::to_string))
            .collect(),
    };
    // --- Conservation books -------------------------------------------
    let completed: u64 = workers.iter().map(|w| w.records.len() as u64).sum();
    let in_flight_at_end: u64 = workers
        .iter()
        .map(|w| (w.queue.len() + w.sample_queue.len() + w.inflight().len()) as u64)
        .sum();
    let flow = match config.arrival {
        // The closed loop synthesizes a request exactly when it starts
        // one, so its books are derived rather than sampled.
        Arrival::ClosedLoop => FlowCounters {
            arrivals: completed + robustness.failed_requests + in_flight_at_end,
            admitted: completed + robustness.failed_requests + in_flight_at_end,
            completed,
            failed: robustness.failed_requests,
            in_flight_at_end,
            ..FlowCounters::default()
        },
        Arrival::Poisson { .. } | Arrival::OpenBatched { .. } => FlowCounters {
            arrivals: engine.flow_arrivals,
            admitted: engine.flow_admitted,
            completed,
            shed_admission: engine.flow_shed_admission,
            shed_capacity: robustness.shed,
            shed_codel: workers.iter().map(|w| w.queue.shed_sojourn()).sum(),
            timed_out: robustness.timed_out,
            failed: robustness.failed_requests,
            in_flight_at_end,
        },
    };
    let brownout = engine.chain.brownout.as_ref();
    let sentinel_counters = config.sentinel.as_ref().map(|_| {
        let (retry_budget_granted, retry_budget_denied) = rt.retry_budget_counters();
        SentinelCounters {
            transitions: brownout.map_or(0, BrownoutController::transitions),
            retry_budget_granted,
            retry_budget_denied,
            final_state: brownout.map_or(0, |c| c.state().code()),
        }
    });
    let warm_at = SimTime::ZERO + warmup;
    let results = engine
        .workers
        .into_iter()
        .map(|w| WorkerResult {
            model: w.model,
            latencies_ms: w
                .records
                .into_iter()
                .filter(|&(t, _)| t > warm_at && t <= end)
                .map(|(_, l)| l)
                .collect(),
        })
        .collect();
    ExperimentResult {
        policy: config.policy,
        batch: config.batch,
        window: duration,
        energy_j: engine.energy_at_end - engine.energy_at_warm,
        busy_cu_seconds: engine.busy_at_end - engine.busy_at_warm,
        service_cu_seconds: engine.service_at_end - engine.service_at_warm,
        total_cus: config.topology.total_cus(),
        workers: results,
        robustness: Some(robustness),
        flow: Some(flow),
        sentinel: sentinel_counters,
    }
}
