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
use krisp_obs::{CounterHandle, EventKind, GaugeHandle, HistogramHandle, Obs};
use krisp_runtime::{RequiredCusTable, RtEvent, Runtime, RuntimeConfig, StreamId};
use krisp_sim::SimTime;

use super::config::{RightSizeSource, ServerConfig};
use super::perfdb::model_right_size;
use super::result;
use crate::arrival::{exp_sample, Arrival};
use crate::gpu::{pin, GpuPlan};
use crate::metrics::ExperimentResult;
use crate::queue::RequestQueue;
use crate::sentinel::AdmissionChain;
use crate::worker::{worker_on, Worker};

pub(super) const TOKEN_WARM: u64 = 0x7000_0000_0000_0001;
pub(super) const TOKEN_END: u64 = 0x7000_0000_0000_0002;
const TOKEN_ARRIVAL_BASE: u64 = 0x7000_0000_0001_0000;
const TOKEN_START_BASE: u64 = 0x7000_0000_0002_0000;
const TOKEN_BATCH_BASE: u64 = 0x7000_0000_0003_0000;

/// The runtime's cumulative meters, read at an instant; the window's
/// figures are the difference of two readings.
#[derive(Default)]
pub(super) struct Meter {
    pub(super) energy_j: f64,
    pub(super) busy_cu_seconds: f64,
    pub(super) service_cu_seconds: f64,
}

impl Meter {
    fn read(rt: &Runtime) -> Meter {
        Meter {
            energy_j: rt.energy_joules(),
            busy_cu_seconds: rt.busy_cu_seconds(),
            service_cu_seconds: rt.service_cu_seconds(),
        }
    }
}

/// One worker's metric series, registered once at bring-up.
pub(super) struct WorkerSeries {
    /// `krisp_requests_total{model, worker}`.
    requests: CounterHandle,
    /// `krisp_request_latency_ms{model, worker}`.
    latency_ms: HistogramHandle,
    /// `krisp_request_queue_depth{worker}`.
    queue_depth: GaugeHandle,
    /// `krisp_sentinel_admission_shed_total{worker}`.
    admission_shed: CounterHandle,
    /// `krisp_requests_shed_total{worker}`.
    capacity_shed: CounterHandle,
}

impl WorkerSeries {
    /// The series of every worker, or none when metrics are disabled.
    fn register(obs: &Obs, workers: &[Worker]) -> Vec<WorkerSeries> {
        if !obs.metrics.enabled() {
            return Vec::new();
        }
        let m = &obs.metrics;
        workers
            .iter()
            .enumerate()
            .map(|(wi, w)| {
                let worker = wi.to_string();
                let by_worker = [("worker", worker.as_str())];
                let by_model = [("model", w.model.name()), by_worker[0]];
                WorkerSeries {
                    requests: m.register_counter("krisp_requests_total", &by_model),
                    latency_ms: m.register_histogram("krisp_request_latency_ms", &by_model),
                    queue_depth: m.register_gauge("krisp_request_queue_depth", &by_worker),
                    admission_shed: m
                        .register_counter("krisp_sentinel_admission_shed_total", &by_worker),
                    capacity_shed: m.register_counter("krisp_requests_shed_total", &by_worker),
                }
            })
            .collect()
    }
}

/// All per-run state of the single-GPU server: the runtime machine, its
/// workers, the sentinel admission chain, and the meter readings taken
/// at the warmup and window-end timers.
pub(super) struct ServerEngine<'a> {
    pub(super) config: &'a ServerConfig,
    pub(super) obs: Obs,
    pub(super) rt: Runtime,
    pub(super) workers: Vec<Worker>,
    /// Per-worker metric series (empty when metrics are disabled).
    pub(super) series: Vec<WorkerSeries>,
    pub(super) chain: AdmissionChain,
    pub(super) deadline_ms: Option<f64>,
    pub(super) arrivals: StdRng,
    pub(super) end: SimTime,
    pub(super) at_warm: Meter,
    pub(super) at_end: Meter,
    pub(super) flow_arrivals: u64,
    pub(super) flow_admitted: u64,
    pub(super) flow_shed_admission: u64,
}

impl ServerEngine<'_> {
    /// Handles one runtime event: meter readings, start, arrival and
    /// batch timers, and kernel completions/failures.
    fn handle(&mut self, ev: RtEvent) {
        match ev {
            RtEvent::TimerFired {
                token: TOKEN_WARM, ..
            } => self.at_warm = Meter::read(&self.rt),
            RtEvent::TimerFired {
                token: TOKEN_END, ..
            } => self.at_end = Meter::read(&self.rt),
            // Only dynamic batching sets batch timers, and for it
            // `start_next` forms a batch if one is due.
            RtEvent::TimerFired { token, at } if token >= TOKEN_BATCH_BASE => {
                self.start_next((token - TOKEN_BATCH_BASE) as usize, at);
            }
            RtEvent::TimerFired { token, at } if token >= TOKEN_START_BASE => {
                let w = &mut self.workers[(token - TOKEN_START_BASE) as usize];
                let req = w.new_request(self.config.batch, at);
                w.start_inference(&mut self.rt, req);
            }
            RtEvent::TimerFired { token, at } if token >= TOKEN_ARRIVAL_BASE => {
                self.on_arrival((token - TOKEN_ARRIVAL_BASE) as usize, at);
            }
            RtEvent::KernelCompleted { stream, tag, at } => self.on_completion(stream, tag, at),
            RtEvent::KernelFailed {
                stream, tag, at, ..
            } => {
                // The watchdog abandoned this kernel after exhausting its
                // retries. Later kernels of the request still drain (the
                // queue was released), so only a *final* kernel's failure
                // loses the request — the worker then moves on instead of
                // waiting forever for a completion that cannot come.
                let wi = worker_on(&self.workers, stream);
                let w = &mut self.workers[wi];
                w.failed_kernels += 1;
                if let Some(lost) = w.end_run(tag) {
                    w.failed_requests += lost.len() as u64;
                    self.start_next(wi, at);
                }
            }
            _ => {}
        }
    }

    /// An open-loop arrival at worker `wi`: a Poisson request goes
    /// through admission, a sample joins the batching queue; then the
    /// worker's next arrival is drawn and scheduled until the window
    /// ends.
    fn on_arrival(&mut self, wi: usize, at: SimTime) {
        self.flow_arrivals += 1;
        let rate = match self.config.arrival {
            Arrival::ClosedLoop => unreachable!("no arrival timers in closed loop"),
            Arrival::Poisson { rps_per_worker } => {
                self.admit(wi, at);
                rps_per_worker
            }
            Arrival::OpenBatched {
                samples_per_s,
                max_batch,
                batch_timeout,
            } => {
                self.flow_admitted += 1;
                let w = &mut self.workers[wi];
                let sample = w.new_request(1, at);
                w.sample_queue.push_back(sample);
                w.bus.emit(at.as_nanos(), || EventKind::RequestEnqueued {
                    request_id: sample.id,
                });
                w.try_form_batch(&mut self.rt, at, max_batch, batch_timeout);
                if !w.sample_queue.is_empty() {
                    // Guarantee eventual formation even if no more
                    // samples arrive (stale timers are harmless).
                    self.rt
                        .add_timer(batch_timeout, TOKEN_BATCH_BASE + wi as u64);
                }
                samples_per_s
            }
        };
        if at < self.end {
            let gap = exp_sample(&mut self.arrivals, rate);
            self.rt.add_timer(gap, TOKEN_ARRIVAL_BASE + wi as u64);
        }
    }

    /// Poisson admission at worker `wi`: the sentinel chain, then the
    /// bounded queue; an admitted request starts at once on an idle
    /// worker.
    fn admit(&mut self, wi: usize, at: SimTime) {
        let w = &mut self.workers[wi];
        let req = w.new_request(self.config.batch, at);
        // Guardrails 1+2 compose in the admission chain: Shed-state
        // policy (no token burned on a Shed rejection), then the
        // token-bucket rate cap.
        if !self.chain.admit(wi, at, w.queue.len(), w.busy()) {
            self.flow_shed_admission += 1;
            self.shed(wi, req.id, at, |s| &s.admission_shed);
            return;
        }
        if w.queue.push(req).is_ok() {
            self.flow_admitted += 1;
            w.bus.emit(at.as_nanos(), || EventKind::RequestEnqueued {
                request_id: req.id,
            });
            if !w.busy() {
                if let Some(req) = w.pop_runnable(at, self.config.deadline) {
                    w.start_inference(&mut self.rt, req);
                }
            }
        } else {
            self.shed(wi, req.id, at, |s| &s.capacity_shed);
        }
        if let Some(s) = self.series.get(wi) {
            s.queue_depth.set(self.workers[wi].queue.len() as f64);
        }
    }

    /// Sheds request `id` at worker `wi`: emits `RequestShed` and bumps
    /// the worker's shed counter that `counter` picks.
    fn shed(&self, wi: usize, id: u64, at: SimTime, counter: fn(&WorkerSeries) -> &CounterHandle) {
        let depth = self.workers[wi].queue.len() as u32;
        self.workers[wi]
            .bus
            .emit(at.as_nanos(), || EventKind::RequestShed {
                request_id: id,
                depth,
            });
        if let Some(s) = self.series.get(wi) {
            counter(s).inc(1);
        }
    }

    /// A kernel completed: if it ends a run, record each request (and
    /// feed the brownout controller), then start the worker's next run.
    fn on_completion(&mut self, stream: StreamId, tag: u64, at: SimTime) {
        let wi = worker_on(&self.workers, stream);
        let w = &mut self.workers[wi];
        let Some(done) = w.end_run(tag) else {
            return;
        };
        for req in done {
            let latency_ms = at.saturating_since(req.arrival).as_millis_f64();
            let request_id = w.records.len() as u64;
            w.bus.emit(at.as_nanos(), || EventKind::RequestDone {
                request_id,
                start_ns: req.arrival.as_nanos(),
            });
            if let Some(s) = self.series.get(wi) {
                s.requests.inc(1);
                s.latency_ms.observe(latency_ms);
            }
            w.records.push((at, latency_ms));
            // Feed the brownout controller one headroom sample per
            // completion; a transition re-sizes the whole runtime's masks
            // (Normal → exact right-sizing, Brownout → widened, Shed →
            // full device).
            if let (Some(ctl), Some(dl)) = (self.chain.brownout.as_mut(), self.deadline_ms) {
                if let Some((from, to)) = ctl.observe(latency_ms / dl) {
                    let p95_pct = (ctl.p95_ratio() * 100.0) as u32;
                    self.rt.set_mask_widening(ctl.widening());
                    w.bus.emit(at.as_nanos(), || EventKind::SentinelTransition {
                        from: from.code(),
                        to: to.code(),
                        p95_pct,
                    });
                    if self.obs.metrics.enabled() {
                        self.obs
                            .metrics
                            .inc("krisp_sentinel_transitions_total", &[], 1);
                        self.obs.metrics.set_gauge(
                            "krisp_sentinel_state",
                            &[],
                            f64::from(to.code()),
                        );
                    }
                }
            }
        }
        self.start_next(wi, at);
    }

    /// Starts worker `wi`'s next run once its previous one ended at `at`:
    /// the closed loop issues a fresh request until the window ends,
    /// Poisson serves the next runnable queued request, and dynamic
    /// batching forms a batch if one is due.
    fn start_next(&mut self, wi: usize, at: SimTime) {
        let w = &mut self.workers[wi];
        match self.config.arrival {
            Arrival::ClosedLoop => {
                if at < self.end {
                    let req = w.new_request(self.config.batch, at);
                    w.start_inference(&mut self.rt, req);
                }
            }
            Arrival::Poisson { .. } => {
                if let Some(req) = w.pop_runnable(at, self.config.deadline) {
                    w.start_inference(&mut self.rt, req);
                }
            }
            Arrival::OpenBatched {
                max_batch,
                batch_timeout,
                ..
            } => w.try_form_batch(&mut self.rt, at, max_batch, batch_timeout),
        }
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
/// around the policy's allocator). Per-request series are registered
/// once here and recorded by handle; the machine's per-CU and per-queue
/// series are published when the event loop drains, so they are in the
/// registry when this returns.
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
        series: WorkerSeries::register(&obs, &workers),
        obs,
        rt,
        workers,
        chain: AdmissionChain::new(config.sentinel.as_ref(), config.models.len()),
        deadline_ms: config.deadline.map(|d| d.as_millis_f64()),
        arrivals,
        end,
        at_warm: Meter::default(),
        at_end: Meter::default(),
        flow_arrivals: 0,
        flow_admitted: 0,
        flow_shed_admission: 0,
    };
    while let Some(ev) = engine.rt.step() {
        engine.handle(ev);
    }
    engine.rt.publish_metrics();

    result::finish(engine, warmup, duration, setup_errors)
}
