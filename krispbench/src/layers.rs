//! The traced run: one job through the stack's `*_observed` entry point
//! with a benchmark-owned event sink and a live metrics registry, read
//! back into per-layer counts and host timings.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use krisp_obs::{perfetto, prometheus, Event, EventBus, EventKind, Metrics, Obs, Sink};
use krisp_runtime::RequiredCusTable;
use krisp_server::{run_cluster_observed, run_server_observed, ClusterResult, ExperimentResult};
use krisp_sim::GpuTopology;

use crate::workload::{Job, Outcome, Raw};

/// Keeps every event and stamps the host time of the first and last one,
/// which splits a run into set-up, event loop and finish.
#[derive(Default)]
struct TimedSink {
    first: Option<Instant>,
    last: Option<Instant>,
    events: Vec<Event>,
}

impl Sink for TimedSink {
    fn record(&mut self, event: Event) {
        let now = Instant::now();
        self.first.get_or_insert(now);
        self.last = Some(now);
        self.events.push(event);
    }
}

/// Deterministic per-layer counts of one traced job. Two runs of the
/// same job must produce equal values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Algorithm 1 calls (`krisp_mask_generation_ns` samples).
    pub alloc_calls: u64,
    /// Σ granted CUs over `MaskApplied` events that carried a size.
    pub granted_cus: u64,
    /// Σ required CUs over the same events.
    pub required_cus: u64,
    /// `krisp_kernel_dispatches_total`, summed over modes.
    pub launches: u64,
    /// `KernelRetry` events.
    pub retries: u64,
    /// `KernelAbandoned` events.
    pub abandoned: u64,
    /// `FallbackStreamScoped` events.
    pub fallbacks: u64,
    /// Watchdog retries the retry budget denied.
    pub retry_denied: u64,
    /// `KernelComplete` events.
    pub kernels: u64,
    /// Injected-fault events.
    pub fault_events: u64,
    /// Requests that arrived at the front-end.
    pub arrivals: u64,
    /// Arrivals admitted past every guardrail.
    pub admitted: u64,
    /// Requests shed (admission, capacity or CoDel).
    pub shed: u64,
    /// Requests dropped at their deadline.
    pub timed_out: u64,
    /// Brownout state-machine transitions.
    pub transitions: u64,
    /// Cluster requests that got a hedge copy.
    pub hedged: u64,
    /// Hedged requests a copy completed.
    pub hedge_wins: u64,
    /// Cluster requests moved to another GPU.
    pub retried: u64,
    /// Scripted crashes that fired.
    pub crashes: u64,
    /// Cluster completions after the horizon.
    pub drained: u64,
    /// Max ÷ mean of the cluster's per-GPU completions (0 elsewhere).
    pub gpu_skew: f64,
    /// Events the sink received.
    pub events: u64,
    /// Simulated requests completed.
    pub requests: u64,
}

impl Counts {
    /// Adds `other` into `self` (`gpu_skew` is summed too; divide by the
    /// job count for a mean).
    pub fn add(&mut self, other: &Counts) {
        self.alloc_calls += other.alloc_calls;
        self.granted_cus += other.granted_cus;
        self.required_cus += other.required_cus;
        self.launches += other.launches;
        self.retries += other.retries;
        self.abandoned += other.abandoned;
        self.fallbacks += other.fallbacks;
        self.retry_denied += other.retry_denied;
        self.kernels += other.kernels;
        self.fault_events += other.fault_events;
        self.arrivals += other.arrivals;
        self.admitted += other.admitted;
        self.shed += other.shed;
        self.timed_out += other.timed_out;
        self.transitions += other.transitions;
        self.hedged += other.hedged;
        self.hedge_wins += other.hedge_wins;
        self.retried += other.retried;
        self.crashes += other.crashes;
        self.drained += other.drained;
        self.gpu_skew += other.gpu_skew;
        self.events += other.events;
        self.requests += other.requests;
    }

    fn from_server(r: &ExperimentResult) -> Counts {
        let flow = r.flow.clone().unwrap_or_default();
        let sentinel = r.sentinel.clone().unwrap_or_default();
        Counts {
            arrivals: flow.arrivals,
            admitted: flow.admitted,
            shed: flow.shed_admission + flow.shed_capacity + flow.shed_codel,
            timed_out: flow.timed_out,
            transitions: sentinel.transitions,
            retry_denied: sentinel.retry_budget_denied,
            ..Counts::default()
        }
    }

    fn from_cluster(r: &ClusterResult) -> Counts {
        let rob = &r.robustness;
        let mean = r.per_gpu.iter().sum::<usize>() as f64 / r.per_gpu.len() as f64;
        let max = r.per_gpu.iter().copied().max().unwrap_or(0) as f64;
        Counts {
            arrivals: r.arrivals,
            admitted: r.arrivals - rob.shed,
            shed: rob.shed,
            timed_out: rob.timed_out,
            hedged: rob.hedged,
            hedge_wins: rob.hedge_wins,
            retried: rob.retried,
            crashes: u64::from(rob.crashes),
            drained: r.drained,
            gpu_skew: if mean > 0.0 { max / mean } else { 0.0 },
            ..Counts::default()
        }
    }

    fn count_events(&mut self, events: &[Event]) {
        self.events = events.len() as u64;
        for e in events {
            match e.kind {
                EventKind::MaskApplied {
                    granted_cus,
                    required_cus,
                    ..
                } if required_cus > 0 => {
                    self.granted_cus += u64::from(granted_cus);
                    self.required_cus += u64::from(required_cus);
                }
                EventKind::KernelComplete { .. } => self.kernels += 1,
                EventKind::KernelRetry { .. } => self.retries += 1,
                EventKind::KernelAbandoned { .. } => self.abandoned += 1,
                EventKind::FallbackStreamScoped { .. } => self.fallbacks += 1,
                EventKind::CusFailed { .. }
                | EventKind::QueueStalled { .. }
                | EventKind::StragglerWindow { .. }
                | EventKind::MaskApplyFault { .. } => self.fault_events += 1,
                _ => {}
            }
        }
    }
}

/// Host timings of one traced job, milliseconds unless named otherwise.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timings {
    /// Entry-point call to the first event.
    pub setup_ms: f64,
    /// First event to the last.
    pub loop_ms: f64,
    /// Last event to the call's return.
    pub finish_ms: f64,
    /// The whole traced call.
    pub traced_ms: f64,
    /// Σ nanoseconds inside Algorithm 1.
    pub alloc_ns: f64,
    /// Chrome-trace plus Prometheus-text export of the job's recording.
    pub export_ms: f64,
}

/// One traced job: its checked outcome, counts and timings.
pub struct Traced {
    /// Digest and books; must equal the untraced run's.
    pub outcome: Outcome,
    /// Per-layer counts.
    pub counts: Counts,
    /// Per-layer host timings.
    pub timings: Timings,
}

/// Runs `job` with tracing on and reads back every layer.
pub fn run_traced(job: &Job, db: &RequiredCusTable) -> Traced {
    let sink = Arc::new(Mutex::new(TimedSink::default()));
    let obs = Obs {
        bus: EventBus::to_sink(sink.clone()),
        metrics: Metrics::recording(),
    };
    let registry_handle = obs.metrics.clone();
    let start = Instant::now();
    let raw = match job {
        Job::Server(cfg) => Raw::Server(run_server_observed(cfg, db, obs)),
        Job::Chaos(case) => Raw::Server(run_server_observed(&case.to_server_config(), db, obs)),
        Job::Cluster(cfg) => Raw::Cluster(run_cluster_observed(cfg, db, obs)),
    };
    let end = Instant::now();
    let mut counts = match &raw {
        Raw::Server(r) => Counts::from_server(r),
        Raw::Cluster(r) => Counts::from_cluster(r),
        Raw::Verdict(_) => unreachable!("a traced job runs a simulation"),
    };
    let outcome = raw.outcome().expect("a simulation result");
    let sink = std::mem::take(&mut *sink.lock().expect("sink poisoned"));
    let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
    let (first, last) = match (sink.first, sink.last) {
        (Some(f), Some(l)) => (f, l),
        _ => (end, end),
    };
    let registry = registry_handle.snapshot().expect("metrics were recording");
    counts.count_events(&sink.events);
    counts.requests = outcome.requests;
    counts.launches = registry
        .counters()
        .filter(|(k, _)| k.name == "krisp_kernel_dispatches_total")
        .map(|(_, v)| v)
        .sum();
    let alloc = registry.histogram("krisp_mask_generation_ns", &[]);
    counts.alloc_calls = alloc.map_or(0, |h| h.count());

    let t = Instant::now();
    let trace = perfetto::chrome_trace(&sink.events, u16::from(GpuTopology::MI50.cus_per_se()));
    let text = prometheus::render_text(&registry);
    std::hint::black_box((trace.len(), text.len()));
    let export_ms = t.elapsed().as_secs_f64() * 1e3;

    Traced {
        outcome,
        counts,
        timings: Timings {
            setup_ms: ms(start, first),
            loop_ms: ms(first, last),
            finish_ms: ms(last, end),
            traced_ms: ms(start, end),
            alloc_ns: alloc.map_or(0.0, |h| h.sum()),
            export_ms,
        },
    }
}
