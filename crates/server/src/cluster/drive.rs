//! The cluster dispatcher: routing and the per-event logic behind the
//! shared serving engine's conservative event loop.
//!
//! [`run_cluster_observed`] brings every GPU up from one shared plan
//! (the same bring-up as the single-GPU server), builds one
//! `ClusterEngine`, and hands it to
//! [`krisp_serve_core::engine::drive`]; the engine's
//! [`Dispatcher`] implementation encodes the cluster's tie-breaks
//! (crash ≥ hedge ≥ arrival ≥ GPU event at equal instants) so same-seed
//! runs replay bit-identically.

use std::cmp::Reverse;
use std::sync::Arc;

use krisp::DistributionPolicy;
use krisp_models::TraceConfig;
use krisp_obs::{EventBus, EventKind, Obs};
use krisp_runtime::{KrispError, RequiredCusTable, RtEvent, Runtime, RuntimeConfig};
use krisp_serve_core::engine::{drive, Dispatcher, ExternalArrival};
use krisp_serve_core::{
    poisson_arrivals, worker_on, EventCalendar, InferenceRequest, RequestQueue, Worker,
};
use krisp_sim::{MachineError, SimTime};

use super::config::{ClusterConfig, CrashScript, Routing};
use super::health::{apply_crash, finish_restart, maybe_begin_restart, note_failure, GpuHealth};
use super::hedge::{fire_hedge, HedgeState};
use super::result::{self, ClusterResult, ClusterRobustness};
use crate::gpu::GpuPlan;

pub(super) struct Gpu {
    pub(super) rt: Runtime,
    /// Worker per model (same index as `ClusterConfig::models`).
    pub(super) workers: Vec<Worker>,
    pub(super) health: GpuHealth,
    /// Failures counted toward the breaker threshold.
    pub(super) failures: u32,
    /// True while the breaker holds the GPU out (cleared on reset).
    pub(super) tripped: bool,
    pub(super) bus: EventBus,
}

impl Gpu {
    pub(super) fn routable(&self) -> bool {
        matches!(self.health, GpuHealth::Healthy | GpuHealth::Degraded)
    }

    pub(super) fn set_health(&mut self, health: GpuHealth, gi: usize, now: SimTime) {
        if self.health != health {
            self.health = health;
            self.bus.emit(now.as_nanos(), || EventKind::WorkerHealth {
                gpu: gi as u32,
                state: health.code(),
            });
        }
    }
}

pub(super) const TOKEN_RESTART: u64 = 0x7000_0000_0000_0000;

/// All per-run state of the multi-GPU cluster: the GPUs, the router's
/// round-robin cursor, the crash/hedge control plane, and the running
/// books. Implements [`Dispatcher`] so the shared engine can drive it.
pub(super) struct ClusterEngine<'a> {
    pub(super) config: &'a ClusterConfig,
    pub(super) gpus: Vec<Gpu>,
    pub(super) plan: GpuPlan,
    pub(super) rob: ClusterRobustness,
    pub(super) rr_next: usize,
    pub(super) latencies_ms: Vec<f64>,
    pub(super) per_gpu: Vec<usize>,
    pub(super) pending_crash: Option<CrashScript>,
    pub(super) hedge: HedgeState,
    pub(super) drained: u64,
    pub(super) horizon_end: SimTime,
    pub(super) total_arrivals: u64,
    /// Cached per-GPU next-event instants. `next_device_at` must be a
    /// pure query, so every `&mut self` dispatcher method refreshes the
    /// calendar before returning (see [`ClusterEngine::refresh_calendar`]).
    pub(super) calendar: EventCalendar,
}

impl Dispatcher for ClusterEngine<'_> {
    /// The control plane merges the crash script and the hedge timers;
    /// on a tie the crash fires first (see [`Dispatcher::step_control`]).
    fn next_control_at(&self) -> Option<SimTime> {
        let crash = self.pending_crash.map(|c| c.at);
        let hedge = self.hedge.pending.peek().map(|Reverse((t, ..))| *t);
        match (crash, hedge) {
            (None, None) => None,
            (Some(t), None) | (None, Some(t)) => Some(t),
            (Some(tc), Some(th)) => Some(tc.min(th)),
        }
    }

    fn step_control(&mut self) {
        // The crash is applied before any same-instant hedge (and the
        // engine already orders control before same-instant arrivals and
        // GPU events), so routing at that instant avoids the dead GPU.
        let crash_at = self.pending_crash.map(|c| c.at);
        let hedge_at = self.hedge.pending.peek().map(|Reverse((t, ..))| *t);
        let crash_first = match (crash_at, hedge_at) {
            (Some(tc), Some(th)) => tc <= th,
            (Some(_), None) => true,
            _ => false,
        };
        if crash_first {
            let crash = self.pending_crash.take().expect("checked above");
            apply_crash(&mut self.gpus, &crash, &mut self.rob, &mut self.hedge);
        } else if let Some(Reverse((at, id, mi, primary, arrival))) = self.hedge.pending.pop() {
            let req = InferenceRequest::new(id, self.config.models[mi], self.config.batch, arrival);
            fire_hedge(
                &mut self.gpus,
                req,
                mi,
                primary,
                at,
                &mut self.rob,
                &mut self.hedge,
            );
        }
        // Crashes and hedges may touch any GPU's runtime.
        self.calendar.invalidate_all();
        self.refresh_calendar();
    }

    fn next_device_at(&self) -> Option<SimTime> {
        self.calendar.earliest().map(|(t, _)| t)
    }

    /// Steps the GPU with the globally earliest pending event (lowest
    /// index on ties, so same-seed runs replay identically — the
    /// calendar resolves ties by lowest slot index, matching the
    /// `(time, gpu)` min-scan it replaced).
    fn step_device(&mut self) {
        let (_, gi) = self.calendar.earliest().expect("a device event is pending");
        self.handle_gpu_event(gi);
        // Completions can retry requests onto other GPUs and restarts
        // touch health fleet-wide, so conservatively re-query everyone.
        self.calendar.invalidate_all();
        self.refresh_calendar();
    }

    /// Routes an arrival to a GPU — all GPUs are quiesced up to the
    /// arrival instant, so worker states are current — and arms its
    /// hedge timer if hedging is configured.
    fn on_arrival(&mut self, arrival: ExternalArrival) {
        let ExternalArrival {
            at: ta,
            model: mi,
            id,
        } = arrival;
        let config = self.config;
        let gpus = &mut self.gpus;
        let rr_next = &mut self.rr_next;
        let gi = match config.routing {
            Routing::RoundRobin => {
                let mut pick = None;
                for _ in 0..config.gpus {
                    *rr_next = (*rr_next + 1) % config.gpus;
                    if gpus[*rr_next].routable() {
                        pick = Some(*rr_next);
                        break;
                    }
                }
                pick
            }
            Routing::LeastOutstanding => route_least_outstanding(gpus, mi, None),
        }
        // With every GPU down, fall back to the least-loaded one:
        // the request waits out the restart instead of vanishing.
        .unwrap_or_else(|| {
            (0..config.gpus)
                .min_by_key(|&g| gpus[g].workers[mi].outstanding())
                .expect("at least one GPU")
        });
        let req = InferenceRequest::new(id, config.models[mi], config.batch, ta);
        let admitted = enqueue(&mut gpus[gi], mi, req, ta);
        if admitted {
            if let Some(h) = config.hedge {
                self.hedge
                    .pending
                    .push(Reverse((ta + h.delay, id, mi, gi, ta)));
            }
        }
        // Only the routed GPU's timeline changed (the hedge arm is
        // control-plane state).
        self.calendar.invalidate(gi);
        self.refresh_calendar();
    }
}

impl ClusterEngine<'_> {
    /// Re-queries every invalidated calendar slot. Cheap: the machine
    /// answers `next_event_at` from its own memoized state, so even an
    /// `invalidate_all` refresh is a handful of O(1) probes.
    fn refresh_calendar(&mut self) {
        let ClusterEngine { calendar, gpus, .. } = self;
        calendar.refresh(|i| gpus[i].rt.next_event_at());
    }

    /// Steps one GPU's runtime and reacts to what it produced: deferred
    /// starts, completions (with hedge settlement and horizon
    /// accounting), kernel/CU failures, and restart timers.
    fn handle_gpu_event(&mut self, gi: usize) {
        let horizon_end = self.horizon_end;
        let ClusterEngine {
            config,
            gpus,
            plan,
            rob,
            latencies_ms,
            per_gpu,
            hedge,
            drained,
            ..
        } = self;
        match gpus[gi].rt.step() {
            Some(RtEvent::TimerFired { token, at }) if token == TOKEN_RESTART => {
                finish_restart(gpus, gi, at, config, plan, rob, hedge);
            }
            Some(RtEvent::TimerFired { token, at }) => {
                let mi = token as usize;
                try_start(gpus, gi, mi, at, config, rob, hedge);
            }
            Some(RtEvent::KernelCompleted { stream, tag, at }) => {
                let mi = worker_on(&gpus[gi].workers, stream);
                let Some(done) = gpus[gi].workers[mi].end_run(tag) else {
                    return;
                };
                for req in done {
                    match hedge.settle_completion(req.id) {
                        // A copy that lost the hedge race: discard.
                        None => {}
                        Some(was_hedged) => {
                            if was_hedged {
                                rob.hedge_wins += 1;
                                gpus[gi].bus.emit(at.as_nanos(), || EventKind::HedgeWon {
                                    request_id: req.id,
                                    gpu: gi as u32,
                                });
                            }
                            // Only completions inside the horizon count:
                            // the post-horizon backlog drain would
                            // inflate throughput beyond capacity.
                            if at <= horizon_end {
                                latencies_ms.push(at.saturating_since(req.arrival).as_millis_f64());
                                per_gpu[gi] += 1;
                            } else {
                                *drained += 1;
                            }
                        }
                    }
                }
                if at <= horizon_end {
                    try_start(gpus, gi, mi, at, config, rob, hedge);
                }
                maybe_begin_restart(&mut gpus[gi], gi, at, config);
            }
            Some(RtEvent::KernelFailed {
                stream, tag, at, ..
            }) => {
                rob.failed_kernels += 1;
                let mi = worker_on(&gpus[gi].workers, stream);
                // The run's final kernel died: its copies are lost and
                // the worker moves on. A request itself is lost only if
                // no hedge copy is still racing.
                let lost = gpus[gi].workers[mi].end_run(tag);
                for req in lost.iter().flatten() {
                    if hedge.settle_negative(req.id) {
                        rob.failed_requests += 1;
                    }
                }
                note_failure(gpus, gi, at, config, rob, hedge);
                if lost.is_some() {
                    if gpus[gi].routable() && at <= horizon_end {
                        try_start(gpus, gi, mi, at, config, rob, hedge);
                    }
                    maybe_begin_restart(&mut gpus[gi], gi, at, config);
                }
            }
            Some(RtEvent::CusFailed { at, .. }) => {
                note_failure(gpus, gi, at, config, rob, hedge);
            }
            _ => {}
        }
    }
}

/// Runs a multi-GPU serving experiment.
///
/// # Panics
///
/// Panics if the configuration is degenerate (no GPUs, no models, a
/// non-positive rate, or a crash script naming a GPU that does not
/// exist).
pub fn run_cluster(config: &ClusterConfig, perfdb: &RequiredCusTable) -> ClusterResult {
    run_cluster_observed(config, perfdb, Obs::disabled())
}

/// [`run_cluster`] with observability: request retries, sheds, health
/// transitions and breaker trips land on `obs.bus`, one logical track
/// per GPU.
///
/// # Panics
///
/// Same conditions as [`run_cluster`].
pub fn run_cluster_observed(
    config: &ClusterConfig,
    perfdb: &RequiredCusTable,
    obs: Obs,
) -> ClusterResult {
    assert!(config.gpus > 0, "need at least one GPU");
    assert!(!config.models.is_empty(), "need at least one model");
    assert!(config.rps_per_model > 0.0, "need a positive arrival rate");
    if let Some(c) = config.crash {
        assert!(
            c.gpu < config.gpus,
            "crash names GPU {} of {}",
            c.gpu,
            config.gpus
        );
    }

    let plan = GpuPlan::new(
        config.policy,
        &config.models,
        &TraceConfig::with_batch(config.batch),
        &config.topology,
        None,
        DistributionPolicy::Conserved,
        config
            .queue_capacity
            .map_or_else(RequestQueue::new, RequestQueue::bounded),
    );
    let mut rob = ClusterRobustness::default();

    // --- Bring up the GPUs --------------------------------------------
    // Every GPU reads the same perfdb; share one copy instead of cloning
    // the table per device.
    let shared_db = Arc::new(perfdb.clone());
    let gpus: Vec<Gpu> = (0..config.gpus)
        .map(|gi| {
            let faults = config
                .faults
                .iter()
                .find(|(g, _)| *g == gi)
                .map(|(_, p)| p.clone())
                .unwrap_or_default();
            let bus = obs.bus.for_worker(gi as u32);
            let (rt, workers, errors) = plan.bring_up(
                RuntimeConfig {
                    topology: config.topology,
                    perfdb: Arc::clone(&shared_db),
                    seed: config.seed ^ (gi as u64) << 32,
                    jitter_sigma: 0.03,
                    faults: Arc::new(faults),
                    watchdog: config.watchdog,
                    ..RuntimeConfig::default()
                },
                |_| bus.clone(),
            );
            rob.errors.extend(error_texts(errors));
            Gpu {
                rt,
                workers,
                health: GpuHealth::Healthy,
                failures: 0,
                tripped: false,
                bus,
            }
        })
        .collect();

    // --- Global arrival stream ----------------------------------------
    let arrivals = poisson_arrivals(
        config.seed ^ 0xA11A,
        config.models.len(),
        config.rps_per_model,
        config.horizon,
    );

    // --- Conservative multi-machine event loop -------------------------
    let mut engine = ClusterEngine {
        config,
        per_gpu: vec![0usize; config.gpus],
        gpus,
        plan,
        rob,
        rr_next: 0,
        latencies_ms: Vec::new(),
        pending_crash: config.crash,
        hedge: HedgeState::default(),
        drained: 0,
        horizon_end: SimTime::ZERO + config.horizon,
        total_arrivals: arrivals.len() as u64,
        calendar: EventCalendar::new(config.gpus),
    };
    engine.refresh_calendar();
    drive(&mut engine, arrivals);
    result::finish(engine)
}

/// The cluster's text for mask rejections.
pub(super) fn error_texts(errors: Vec<MachineError>) -> impl Iterator<Item = String> {
    errors.into_iter().map(|e| KrispError::from(e).to_string())
}

/// Least-outstanding routing over the routable GPUs; ties resolve to
/// the lowest GPU index (deterministic for same-seed runs).
pub(super) fn route_least_outstanding(
    gpus: &[Gpu],
    mi: usize,
    exclude: Option<usize>,
) -> Option<usize> {
    (0..gpus.len())
        .filter(|&g| Some(g) != exclude && gpus[g].routable())
        .min_by_key(|&g| gpus[g].workers[mi].outstanding())
}

/// Enqueues at a specific GPU and schedules the deferred start on the
/// GPU's own timeline. Returns false when the bounded queue shed the
/// request (the queue's own shed counter is aggregated at the end of
/// the run — the single source of truth for capacity sheds).
pub(super) fn enqueue(gpu: &mut Gpu, mi: usize, req: InferenceRequest, now: SimTime) -> bool {
    let w = &mut gpu.workers[mi];
    let id = req.id;
    if w.queue.push(req).is_err() {
        let depth = w.queue.len() as u32;
        gpu.bus.emit(now.as_nanos(), || EventKind::RequestShed {
            request_id: id,
            depth,
        });
        return false;
    }
    if !w.busy() && gpu.health != GpuHealth::Restarting {
        // Defer the actual launch into the GPU's own timeline.
        let delay = now.saturating_since(gpu.rt.now());
        gpu.rt.add_timer(delay, mi as u64);
    }
    true
}

/// Starts the worker's next viable request: copies that already lost a
/// hedge race are cancelled, expired ones are retried on another GPU
/// (once) or dropped; `Restarting` GPUs never start.
pub(super) fn try_start(
    gpus: &mut [Gpu],
    gi: usize,
    mi: usize,
    now: SimTime,
    config: &ClusterConfig,
    rob: &mut ClusterRobustness,
    hedge: &mut HedgeState,
) {
    if gpus[gi].workers[mi].busy() || gpus[gi].health == GpuHealth::Restarting {
        return;
    }
    loop {
        let Some(req) = gpus[gi].workers[mi].queue.pop() else {
            return;
        };
        if hedge.done.contains(&req.id) {
            // A copy whose request was already settled elsewhere:
            // first-wins cancel, no counter moves.
            continue;
        }
        let waited = now.saturating_since(req.enqueued_at);
        if config.deadline.is_some_and(|d| waited > d) {
            retry_or_drop(gpus, gi, mi, req, now, rob, hedge);
            continue;
        }
        let gpu = &mut gpus[gi];
        gpu.workers[mi].start_inference(&mut gpu.rt, req);
        return;
    }
}

/// Moves a request whose deadline (or GPU) expired to another GPU; a
/// request only gets one move before it is dropped. The retry target
/// must have queue room — a retry never sheds, so the capacity-shed
/// counter stays a pure arrival count.
pub(super) fn retry_or_drop(
    gpus: &mut [Gpu],
    from: usize,
    mi: usize,
    mut req: InferenceRequest,
    now: SimTime,
    rob: &mut ClusterRobustness,
    hedge: &mut HedgeState,
) {
    let target = route_least_outstanding(gpus, mi, Some(from)).filter(|&g| {
        gpus[g].workers[mi]
            .queue
            .capacity()
            .is_none_or(|cap| gpus[g].workers[mi].queue.len() < cap)
    });
    if req.retried || target.is_none() {
        if hedge.settle_negative(req.id) {
            rob.timed_out += 1;
            let waited = now.saturating_since(req.arrival);
            gpus[from]
                .bus
                .emit(now.as_nanos(), || EventKind::RequestTimedOut {
                    request_id: req.id,
                    waited_ns: waited.as_nanos(),
                });
        }
        return;
    }
    let Some(to) = target else {
        return;
    };
    rob.retried += 1;
    gpus[from]
        .bus
        .emit(now.as_nanos(), || EventKind::RequestRetried {
            request_id: req.id,
            to_gpu: to as u32,
        });
    req.retried = true;
    req.enqueued_at = now; // fresh deadline budget on the new GPU
    enqueue(&mut gpus[to], mi, req, now);
}
