//! The single-GPU server: one runtime, its workers, and the handler for
//! every runtime event.
//!
//! The server schedules its open-loop arrivals as runtime timers, so
//! they interleave with kernel completions under the machine's own
//! deterministic tie-breaks, and the event loop is just stepping that
//! runtime until it drains. Arrivals stay timers on purpose: the
//! machine integrates energy, busy and service time over each event
//! interval, and every arrival timer splits an interval, so moving
//! arrivals off the machine's timeline would change the bits of
//! `energy_j` and of completion times.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use krisp_models::{generate_trace, TraceConfig};
use krisp_obs::{EventKind, Obs};
use krisp_runtime::{RequiredCusTable, RtEvent, Runtime, RuntimeConfig};
use krisp_serve_core::{exp_sample, worker_on, AdmissionChain, RequestQueue, Worker};
use krisp_sim::SimTime;

use super::config::{Arrival, RightSizeSource, ServerConfig};
use super::perfdb::model_right_size;
use super::result;
use crate::gpu::{pin, GpuPlan};
use crate::metrics::ExperimentResult;

pub(super) const TOKEN_WARM: u64 = 0x7000_0000_0000_0001;
pub(super) const TOKEN_END: u64 = 0x7000_0000_0000_0002;
const TOKEN_ARRIVAL_BASE: u64 = 0x7000_0000_0001_0000;
const TOKEN_START_BASE: u64 = 0x7000_0000_0002_0000;
const TOKEN_BATCH_BASE: u64 = 0x7000_0000_0003_0000;

/// All per-run state of the single-GPU server: the runtime machine, its
/// workers, the sentinel admission chain, and the measurement snapshots
/// taken at the warmup and window-end timers.
pub(super) struct ServerEngine<'a> {
    pub(super) config: &'a ServerConfig,
    pub(super) obs: Obs,
    pub(super) rt: Runtime,
    pub(super) workers: Vec<Worker>,
    pub(super) chain: AdmissionChain,
    pub(super) deadline_ms: Option<f64>,
    pub(super) arrivals: StdRng,
    pub(super) end: SimTime,
    pub(super) energy_at_warm: f64,
    pub(super) energy_at_end: f64,
    pub(super) busy_at_warm: f64,
    pub(super) busy_at_end: f64,
    pub(super) service_at_warm: f64,
    pub(super) service_at_end: f64,
    pub(super) flow_arrivals: u64,
    pub(super) flow_admitted: u64,
    pub(super) flow_shed_admission: u64,
}

impl ServerEngine<'_> {
    /// Handles one runtime event: measurement snapshots, arrival and
    /// batch timers, and kernel completions/failures.
    fn handle(&mut self, ev: RtEvent) {
        let end = self.end;
        let deadline_ms = self.deadline_ms;
        let ServerEngine {
            config,
            obs,
            rt,
            workers,
            chain,
            arrivals,
            energy_at_warm,
            energy_at_end,
            busy_at_warm,
            busy_at_end,
            service_at_warm,
            service_at_end,
            flow_arrivals,
            flow_admitted,
            flow_shed_admission,
            ..
        } = self;
        match ev {
            RtEvent::TimerFired {
                token: TOKEN_WARM, ..
            } => {
                *energy_at_warm = rt.energy_joules();
                *busy_at_warm = rt.busy_cu_seconds();
                *service_at_warm = rt.service_cu_seconds();
            }
            RtEvent::TimerFired {
                token: TOKEN_END, ..
            } => {
                *energy_at_end = rt.energy_joules();
                *busy_at_end = rt.busy_cu_seconds();
                *service_at_end = rt.service_cu_seconds();
            }
            RtEvent::TimerFired { token, at } if token >= TOKEN_BATCH_BASE => {
                let wi = (token - TOKEN_BATCH_BASE) as usize;
                if let Arrival::OpenBatched {
                    max_batch,
                    batch_timeout,
                    ..
                } = config.arrival
                {
                    workers[wi].try_form_batch(rt, at, max_batch, batch_timeout);
                }
            }
            RtEvent::TimerFired { token, at } if token >= TOKEN_START_BASE => {
                let w = &mut workers[(token - TOKEN_START_BASE) as usize];
                let req = w.new_request(config.batch, at);
                w.start_inference(rt, req);
            }
            RtEvent::TimerFired { token, at } if token >= TOKEN_ARRIVAL_BASE => {
                let wi = (token - TOKEN_ARRIVAL_BASE) as usize;
                match config.arrival {
                    Arrival::ClosedLoop => unreachable!("no arrival timers in closed loop"),
                    Arrival::Poisson { rps_per_worker } => {
                        let req = workers[wi].new_request(config.batch, at);
                        *flow_arrivals += 1;
                        // Guardrails 1+2 compose in the admission chain:
                        // Shed-state policy (no token burned on a Shed
                        // rejection), then the token-bucket rate cap.
                        let depth = workers[wi].queue.len();
                        if !chain.admit(wi, at, depth, workers[wi].busy()) {
                            *flow_shed_admission += 1;
                            let depth = workers[wi].queue.len() as u32;
                            workers[wi]
                                .bus
                                .emit(at.as_nanos(), || EventKind::RequestShed {
                                    request_id: req.id,
                                    depth,
                                });
                            if obs.metrics.enabled() {
                                obs.metrics.inc(
                                    "krisp_sentinel_admission_shed_total",
                                    &[("worker", &wi.to_string())],
                                    1,
                                );
                            }
                            if at < end {
                                let gap = exp_sample(arrivals, rps_per_worker);
                                rt.add_timer(gap, token);
                            }
                            return;
                        }
                        let accepted = workers[wi].queue.push(req).is_ok();
                        if accepted {
                            *flow_admitted += 1;
                            workers[wi]
                                .bus
                                .emit(at.as_nanos(), || EventKind::RequestEnqueued {
                                    request_id: req.id,
                                });
                            if !workers[wi].busy() {
                                if let Some(req) = workers[wi].pop_runnable(at, config.deadline) {
                                    workers[wi].start_inference(rt, req);
                                }
                            }
                        } else {
                            let depth = workers[wi].queue.len() as u32;
                            workers[wi]
                                .bus
                                .emit(at.as_nanos(), || EventKind::RequestShed {
                                    request_id: req.id,
                                    depth,
                                });
                            if obs.metrics.enabled() {
                                obs.metrics.inc(
                                    "krisp_requests_shed_total",
                                    &[("worker", &wi.to_string())],
                                    1,
                                );
                            }
                        }
                        if obs.metrics.enabled() {
                            obs.metrics.set_gauge(
                                "krisp_request_queue_depth",
                                &[("worker", &wi.to_string())],
                                workers[wi].queue.len() as f64,
                            );
                        }
                        if at < end {
                            let gap = exp_sample(arrivals, rps_per_worker);
                            rt.add_timer(gap, token);
                        }
                    }
                    Arrival::OpenBatched {
                        samples_per_s,
                        max_batch,
                        batch_timeout,
                    } => {
                        let w = &mut workers[wi];
                        let sample = w.new_request(1, at);
                        *flow_arrivals += 1;
                        *flow_admitted += 1;
                        w.sample_queue.push_back(sample);
                        w.bus.emit(at.as_nanos(), || EventKind::RequestEnqueued {
                            request_id: sample.id,
                        });
                        w.try_form_batch(rt, at, max_batch, batch_timeout);
                        if !w.sample_queue.is_empty() {
                            // Guarantee eventual formation even if no more
                            // samples arrive (stale timers are harmless).
                            rt.add_timer(batch_timeout, TOKEN_BATCH_BASE + wi as u64);
                        }
                        if at < end {
                            let gap = exp_sample(arrivals, samples_per_s);
                            rt.add_timer(gap, token);
                        }
                    }
                }
            }
            RtEvent::KernelCompleted { stream, tag, at } => {
                let wi = worker_on(workers, stream);
                let w = &mut workers[wi];
                let Some(done) = w.end_run(tag) else {
                    return;
                };
                let model_name = w.model.name();
                for req in done {
                    let latency_ms = at.saturating_since(req.arrival).as_millis_f64();
                    let request_id = w.records.len() as u64;
                    w.bus.emit(at.as_nanos(), || EventKind::RequestDone {
                        request_id,
                        start_ns: req.arrival.as_nanos(),
                    });
                    if obs.metrics.enabled() {
                        let worker_label = wi.to_string();
                        let labels = [("model", model_name), ("worker", &worker_label)];
                        obs.metrics.inc("krisp_requests_total", &labels, 1);
                        obs.metrics
                            .observe("krisp_request_latency_ms", &labels, latency_ms);
                    }
                    w.records.push((at, latency_ms));
                    // Feed the brownout controller one headroom sample
                    // per completion; a transition re-sizes the whole
                    // runtime's masks (Normal → exact right-sizing,
                    // Brownout → widened, Shed → full device).
                    if let (Some(ctl), Some(dl)) = (chain.brownout.as_mut(), deadline_ms) {
                        if let Some((from, to)) = ctl.observe(latency_ms / dl) {
                            let p95_pct = (ctl.p95_ratio() * 100.0) as u32;
                            rt.set_mask_widening(ctl.widening());
                            w.bus.emit(at.as_nanos(), || EventKind::SentinelTransition {
                                from: from.code(),
                                to: to.code(),
                                p95_pct,
                            });
                            if obs.metrics.enabled() {
                                obs.metrics.inc("krisp_sentinel_transitions_total", &[], 1);
                                obs.metrics.set_gauge(
                                    "krisp_sentinel_state",
                                    &[],
                                    f64::from(to.code()),
                                );
                            }
                        }
                    }
                }
                start_next(w, rt, config, at, end);
            }
            RtEvent::KernelFailed {
                stream, tag, at, ..
            } => {
                // The watchdog abandoned this kernel after exhausting its
                // retries. Later kernels of the request still drain (the
                // queue was released), so only a *final* kernel's failure
                // loses the request — the worker then moves on instead of
                // waiting forever for a completion that cannot come.
                let wi = worker_on(workers, stream);
                let w = &mut workers[wi];
                w.failed_kernels += 1;
                if let Some(lost) = w.end_run(tag) {
                    w.failed_requests += lost.len() as u64;
                    start_next(w, rt, config, at, end);
                }
            }
            _ => {}
        }
    }
}

/// Starts `w`'s next run once its previous one ended at `at`: the closed
/// loop issues a fresh request until the window ends, Poisson serves
/// the next runnable queued request, and dynamic batching forms a batch
/// if one is due.
fn start_next(w: &mut Worker, rt: &mut Runtime, config: &ServerConfig, at: SimTime, end: SimTime) {
    match config.arrival {
        Arrival::ClosedLoop => {
            if at < end {
                let req = w.new_request(config.batch, at);
                w.start_inference(rt, req);
            }
        }
        Arrival::Poisson { .. } => {
            if let Some(req) = w.pop_runnable(at, config.deadline) {
                w.start_inference(rt, req);
            }
        }
        Arrival::OpenBatched {
            max_batch,
            batch_timeout,
            ..
        } => w.try_form_batch(rt, at, max_batch, batch_timeout),
    }
}

/// Runs one experiment and reports window-filtered metrics.
///
/// `perfdb` supplies the kernel right-sizes for the KRISP policies
/// (either a measured table from [`krisp::Profiler::build_perfdb`] or
/// [`super::oracle_perfdb`]).
///
/// # Panics
///
/// Panics if `config.models` is empty or `config.batch` is zero.
pub fn run_server(config: &ServerConfig, perfdb: &RequiredCusTable) -> ExperimentResult {
    run_server_observed(config, perfdb, Obs::disabled())
}

/// [`run_server`] with observability: request/batch lifecycle events land
/// on `obs.bus` (one logical track per worker), the machine's kernel and
/// mask events ride the same bus, and the metrics registry accumulates
/// request-latency histograms, queue-depth gauges and the
/// `krisp_mask_generation_ns` histogram (via [`krisp::InstrumentedAllocator`]
/// around the policy's allocator).
///
/// Passing [`Obs::disabled`] makes this identical to [`run_server`].
///
/// # Panics
///
/// Panics if `config.models` is empty or `config.batch` is zero.
pub fn run_server_observed(
    config: &ServerConfig,
    perfdb: &RequiredCusTable,
    obs: Obs,
) -> ExperimentResult {
    assert!(!config.models.is_empty(), "need at least one worker");
    assert!(config.batch > 0, "batch size must be positive");
    let topo = config.topology;
    let (warmup, duration) = config.windows();
    let end = SimTime::ZERO + warmup + duration;

    // --- The GPU under the requested policy ---------------------------
    // The ModelWise ablation rewrites the table so every kernel requests
    // its model's kneepoint (prior works' metric on KRISP's mechanism).
    let trace_cfg = TraceConfig {
        floor_scale: config.floor_scale,
        ..TraceConfig::with_batch(config.batch)
    };
    let effective_db: Arc<RequiredCusTable> = match config.right_size_source {
        RightSizeSource::KernelWise => Arc::new(perfdb.clone()),
        RightSizeSource::ModelWise => {
            let mut db = RequiredCusTable::new();
            let mut sorted_models = config.models.clone();
            sorted_models.sort();
            sorted_models.dedup();
            for &m in &sorted_models {
                let rs = model_right_size(m, config.batch, &topo);
                for k in generate_trace(m, &trace_cfg) {
                    db.insert(&k, rs);
                }
            }
            Arc::new(db)
        }
    };
    let queue = config
        .queue_capacity
        .map_or_else(RequestQueue::new, RequestQueue::bounded);
    let queue = match config.sentinel.as_ref().and_then(|s| s.codel) {
        Some(c) => queue.with_codel(c),
        None => queue,
    };
    let plan = GpuPlan::new(
        config.policy,
        &config.models,
        &trace_cfg,
        &topo,
        config.overlap_limit,
        config.allocator_distribution,
        queue,
    );
    let (mut rt, mut workers, mut mask_errors) = plan.bring_up(
        RuntimeConfig {
            topology: topo,
            costs: config.costs,
            perfdb: effective_db,
            seed: config.seed,
            jitter_sigma: config.jitter_sigma,
            sharing_penalty: config.sharing_penalty,
            obs: obs.clone(),
            faults: Arc::new(config.faults.clone()),
            watchdog: config.watchdog,
            retry_budget: config.sentinel.as_ref().and_then(|s| s.retry_budget),
            ..RuntimeConfig::default()
        },
        |i| obs.bus.for_worker(i as u32),
    );
    if let Some(n) = config.cu_restriction {
        let mask = krisp::select_cus(krisp::DistributionPolicy::Conserved, n, &topo);
        mask_errors.extend(pin(&mut rt, &workers, std::iter::repeat(mask)));
    }
    // A rejected mask degrades that worker to the full device instead of
    // killing the run; the error is recorded in the result's books.
    let setup_errors = mask_errors.iter().map(ToString::to_string).collect();

    // --- Arrival process ----------------------------------------------
    let mut arrivals = StdRng::seed_from_u64(config.seed ^ 0xA77A_1BAD);
    match config.arrival {
        Arrival::ClosedLoop => {
            // Stagger worker start times across roughly one isolated
            // latency: co-located request streams are not phase-locked in
            // a real server, and synchronized identical traces would make
            // every worker hit its CU-hungry phases simultaneously,
            // hiding the fine-grain slack kernel-wise right-sizing
            // exploits. The warmup window absorbs the transient.
            for (i, w) in workers.iter_mut().enumerate() {
                if i == 0 {
                    let req = w.new_request(config.batch, SimTime::ZERO);
                    w.start_inference(&mut rt, req);
                } else {
                    let offset = warmup * i as u64 / (2 * config.models.len() as u64);
                    rt.add_timer(offset, TOKEN_START_BASE + i as u64);
                }
            }
        }
        Arrival::Poisson { rps_per_worker } => {
            assert!(
                rps_per_worker > 0.0,
                "Poisson arrivals need a positive rate"
            );
            for (i, _) in workers.iter().enumerate() {
                let gap = exp_sample(&mut arrivals, rps_per_worker);
                rt.add_timer(gap, TOKEN_ARRIVAL_BASE + i as u64);
            }
        }
        Arrival::OpenBatched {
            samples_per_s,
            max_batch,
            ..
        } => {
            assert!(samples_per_s > 0.0, "need a positive sample rate");
            assert!(max_batch >= 1, "need a positive max batch");
            for (i, _) in workers.iter().enumerate() {
                let gap = exp_sample(&mut arrivals, samples_per_s);
                rt.add_timer(gap, TOKEN_ARRIVAL_BASE + i as u64);
            }
        }
    }

    rt.add_timer(warmup, TOKEN_WARM);
    rt.add_timer(warmup + duration, TOKEN_END);

    // --- Event loop ----------------------------------------------------
    // Arrivals are timers on the one runtime, so stepping it until it
    // drains is the whole loop.
    let mut engine = ServerEngine {
        config,
        obs,
        rt,
        workers,
        chain: AdmissionChain::new(config.sentinel.as_ref(), config.models.len()),
        deadline_ms: config.deadline.map(|d| d.as_millis_f64()),
        arrivals,
        end,
        energy_at_warm: 0.0,
        energy_at_end: f64::NAN,
        busy_at_warm: 0.0,
        busy_at_end: f64::NAN,
        service_at_warm: 0.0,
        service_at_end: f64::NAN,
        flow_arrivals: 0,
        flow_admitted: 0,
        flow_shed_admission: 0,
    };
    while let Some(ev) = engine.rt.step() {
        engine.handle(ev);
    }

    result::finish(engine, warmup, duration, setup_errors)
}
