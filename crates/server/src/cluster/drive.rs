//! The cluster's event loop: one front-end event queue, the fleet of
//! GPU runtimes, routing, and the per-event logic.
//!
//! [`run_cluster_observed`] brings every GPU up from one shared plan
//! (the same bring-up as the single-GPU server), queues the pre-generated
//! arrivals and the scripted crash as `Front` events, and runs a
//! `ClusterEngine` to completion. Each step takes whichever is earlier:
//! the front-end queue's head, or the GPU with the earliest pending event
//! (lowest index on ties). At an equal instant the front-end goes first,
//! so a routing decision at *t* sees every GPU quiesced up to *t*; the
//! ordering of `Front` breaks ties inside the queue. Same-seed runs
//! therefore replay bit-identically.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use krisp::DistributionPolicy;
use krisp_models::TraceConfig;
use krisp_obs::{EventBus, EventKind, Obs};
use krisp_runtime::{KrispError, RequiredCusTable, RtEvent, Runtime, RuntimeConfig, StreamId};
use krisp_sim::{MachineError, SimTime};

use super::config::{ClusterConfig, Routing};
use super::health::GpuHealth;
use super::hedge::HedgeState;
use super::result::{self, ClusterResult, ClusterRobustness};
use crate::arrival::poisson_arrivals;
use crate::gpu::GpuPlan;
use crate::queue::{InferenceRequest, RequestQueue};
use crate::worker::{worker_on, Worker};

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

    /// Enqueues on this GPU and schedules the deferred start on its own
    /// timeline. Returns false when the bounded queue shed the request
    /// (the queue's own shed counter is aggregated at the end of the run
    /// — the single source of truth for capacity sheds).
    pub(super) fn enqueue(&mut self, mi: usize, req: InferenceRequest, now: SimTime) -> bool {
        let w = &mut self.workers[mi];
        let id = req.id;
        if w.queue.push(req).is_err() {
            let depth = w.queue.len() as u32;
            self.bus.emit(now.as_nanos(), || EventKind::RequestShed {
                request_id: id,
                depth,
            });
            return false;
        }
        if !w.busy() && self.health != GpuHealth::Restarting {
            // Defer the actual launch into the GPU's own timeline.
            let delay = now.saturating_since(self.rt.now());
            self.rt.add_timer(delay, mi as u64);
        }
        true
    }
}

pub(super) const TOKEN_RESTART: u64 = 0x7000_0000_0000_0000;

/// A front-end event: the router's and control plane's timeline, kept
/// apart from the GPUs' own.
///
/// Queued as `(instant, Front)` and popped smallest first. The derived
/// order breaks same-instant ties by variant order, so a crash lands
/// before a hedge check and a hedge check before an arrival (routing at
/// that instant then avoids the dead GPU). Within a variant the fields
/// compare in declaration order: hedges on `(id, mi, primary,
/// arrival)`, arrivals on `(model, id)` — the order
/// [`poisson_arrivals`] produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum Front {
    /// The scripted crash ([`ClusterConfig::crash`]) fires.
    Crash,
    /// A hedge check for request `id` of model `mi`, first routed to
    /// GPU `primary`, that arrived at `arrival`.
    Hedge {
        id: u64,
        mi: usize,
        primary: usize,
        arrival: SimTime,
    },
    /// Request `id` for model `model` reaches the router.
    Arrival { model: usize, id: u64 },
}

/// All per-run state of the multi-GPU cluster: the GPUs, the router's
/// round-robin cursor, the front-end event queue, hedge settlement, and
/// the running books.
pub(super) struct ClusterEngine<'a> {
    pub(super) config: &'a ClusterConfig,
    pub(super) gpus: Vec<Gpu>,
    pub(super) plan: GpuPlan,
    pub(super) rob: ClusterRobustness,
    pub(super) rr_next: usize,
    pub(super) latencies_ms: Vec<f64>,
    pub(super) per_gpu: Vec<usize>,
    /// Pending front-end events, earliest first.
    front: BinaryHeap<Reverse<(SimTime, Front)>>,
    pub(super) hedge: HedgeState,
    pub(super) drained: u64,
    pub(super) horizon_end: SimTime,
    pub(super) total_arrivals: u64,
}

impl ClusterEngine<'_> {
    /// Steps front-end and GPU events in time order until both are
    /// exhausted. Scanning every GPU per step is cheap: each runtime
    /// answers `next_event_at` from its memoized state.
    fn run(&mut self) {
        loop {
            let device = self
                .gpus
                .iter()
                .enumerate()
                .filter_map(|(gi, gpu)| gpu.rt.next_event_at().map(|t| (t, gi)))
                .min();
            match (self.front.peek().copied(), device) {
                (Some(Reverse((at, ev))), device) if device.is_none_or(|(t, _)| at <= t) => {
                    self.front.pop();
                    self.on_front(at, ev);
                }
                (_, Some((_, gi))) => self.handle_gpu_event(gi),
                _ => break,
            }
        }
    }

    fn on_front(&mut self, at: SimTime, ev: Front) {
        match ev {
            Front::Crash => self.apply_crash(),
            Front::Hedge {
                id,
                mi,
                primary,
                arrival,
            } => {
                let req =
                    InferenceRequest::new(id, self.config.models[mi], self.config.batch, arrival);
                self.fire_hedge(req, mi, primary, at);
            }
            Front::Arrival { model, id } => self.on_arrival(at, model, id),
        }
    }

    /// Routes an arrival to a GPU — all GPUs are quiesced up to the
    /// arrival instant, so worker states are current — and queues its
    /// hedge check if hedging is configured.
    fn on_arrival(&mut self, ta: SimTime, mi: usize, id: u64) {
        let config = self.config;
        let gi = match config.routing {
            Routing::RoundRobin => (0..config.gpus).find_map(|_| {
                self.rr_next = (self.rr_next + 1) % config.gpus;
                self.gpus[self.rr_next].routable().then_some(self.rr_next)
            }),
            Routing::LeastOutstanding => self.route_least_outstanding(mi, None),
        }
        // With every GPU down, fall back to the least-loaded one:
        // the request waits out the restart instead of vanishing.
        .unwrap_or_else(|| {
            (0..config.gpus)
                .min_by_key(|&g| self.gpus[g].workers[mi].outstanding())
                .expect("at least one GPU")
        });
        let req = InferenceRequest::new(id, config.models[mi], config.batch, ta);
        let admitted = self.gpus[gi].enqueue(mi, req, ta);
        if let Some(h) = config.hedge.filter(|_| admitted) {
            let check = Front::Hedge {
                id,
                mi,
                primary: gi,
                arrival: ta,
            };
            self.front.push(Reverse((ta + h.delay, check)));
        }
    }

    /// Steps one GPU's runtime and reacts to what it produced: deferred
    /// starts, completions (with hedge settlement and horizon
    /// accounting), kernel/CU failures, and restart timers.
    fn handle_gpu_event(&mut self, gi: usize) {
        match self.gpus[gi].rt.step() {
            Some(RtEvent::TimerFired { token, at }) if token == TOKEN_RESTART => {
                self.finish_restart(gi, at);
            }
            Some(RtEvent::TimerFired { token, at }) => self.try_start(gi, token as usize, at),
            Some(RtEvent::KernelCompleted { stream, tag, at }) => {
                self.on_completion(gi, stream, tag, at);
            }
            Some(RtEvent::KernelFailed {
                stream, tag, at, ..
            }) => {
                self.rob.failed_kernels += 1;
                let mi = worker_on(&self.gpus[gi].workers, stream);
                // The run's final kernel died: its copies are lost and
                // the worker moves on. A request itself is lost only if
                // no hedge copy is still racing.
                let lost = self.gpus[gi].workers[mi].end_run(tag);
                for req in lost.iter().flatten() {
                    if self.hedge.settle_negative(req.id) {
                        self.rob.failed_requests += 1;
                    }
                }
                self.note_failure(gi, at);
                if lost.is_some() {
                    if self.gpus[gi].routable() && at <= self.horizon_end {
                        self.try_start(gi, mi, at);
                    }
                    self.maybe_begin_restart(gi, at);
                }
            }
            Some(RtEvent::CusFailed { at, .. }) => self.note_failure(gi, at),
            _ => {}
        }
    }

    /// A kernel completed on GPU `gi`: if it ends a run, settle each
    /// request's hedge race, book the winners inside the horizon, and
    /// start the worker's next request.
    fn on_completion(&mut self, gi: usize, stream: StreamId, tag: u64, at: SimTime) {
        let mi = worker_on(&self.gpus[gi].workers, stream);
        let Some(done) = self.gpus[gi].workers[mi].end_run(tag) else {
            return;
        };
        for req in done {
            // `None`: a copy that lost the hedge race; discard it.
            let Some(was_hedged) = self.hedge.settle_completion(req.id) else {
                continue;
            };
            if was_hedged {
                self.rob.hedge_wins += 1;
                self.gpus[gi]
                    .bus
                    .emit(at.as_nanos(), || EventKind::HedgeWon {
                        request_id: req.id,
                        gpu: gi as u32,
                    });
            }
            // Only completions inside the horizon count: the
            // post-horizon backlog drain would inflate throughput beyond
            // capacity.
            if at <= self.horizon_end {
                self.latencies_ms
                    .push(at.saturating_since(req.arrival).as_millis_f64());
                self.per_gpu[gi] += 1;
            } else {
                self.drained += 1;
            }
        }
        if at <= self.horizon_end {
            self.try_start(gi, mi, at);
        }
        self.maybe_begin_restart(gi, at);
    }

    /// Least-outstanding routing over the routable GPUs; ties resolve to
    /// the lowest GPU index (deterministic for same-seed runs).
    pub(super) fn route_least_outstanding(
        &self,
        mi: usize,
        exclude: Option<usize>,
    ) -> Option<usize> {
        (0..self.gpus.len())
            .filter(|&g| Some(g) != exclude && self.gpus[g].routable())
            .min_by_key(|&g| self.gpus[g].workers[mi].outstanding())
    }

    /// Starts the worker's next viable request: copies that already lost
    /// a hedge race are cancelled, expired ones are retried on another
    /// GPU (once) or dropped; `Restarting` GPUs never start.
    pub(super) fn try_start(&mut self, gi: usize, mi: usize, now: SimTime) {
        if self.gpus[gi].workers[mi].busy() || self.gpus[gi].health == GpuHealth::Restarting {
            return;
        }
        while let Some(req) = self.gpus[gi].workers[mi].queue.pop() {
            if self.hedge.done.contains(&req.id) {
                // A copy whose request was already settled elsewhere:
                // first-wins cancel, no counter moves.
                continue;
            }
            let waited = now.saturating_since(req.enqueued_at);
            if self.config.deadline.is_some_and(|d| waited > d) {
                self.retry_or_drop(gi, mi, req, now);
                continue;
            }
            let gpu = &mut self.gpus[gi];
            gpu.workers[mi].start_inference(&mut gpu.rt, req);
            return;
        }
    }

    /// Moves a request whose deadline (or GPU) expired to another GPU; a
    /// request only gets one move before it is dropped. The retry target
    /// must have queue room — a retry never sheds, so the capacity-shed
    /// counter stays a pure arrival count.
    pub(super) fn retry_or_drop(
        &mut self,
        from: usize,
        mi: usize,
        mut req: InferenceRequest,
        now: SimTime,
    ) {
        let target = self
            .route_least_outstanding(mi, Some(from))
            .filter(|&g| !req.retried && self.gpus[g].workers[mi].queue.has_room());
        let Some(to) = target else {
            if self.hedge.settle_negative(req.id) {
                self.rob.timed_out += 1;
                let waited = now.saturating_since(req.arrival);
                self.gpus[from]
                    .bus
                    .emit(now.as_nanos(), || EventKind::RequestTimedOut {
                        request_id: req.id,
                        waited_ns: waited.as_nanos(),
                    });
            }
            return;
        };
        self.rob.retried += 1;
        self.gpus[from]
            .bus
            .emit(now.as_nanos(), || EventKind::RequestRetried {
                request_id: req.id,
                to_gpu: to as u32,
            });
        req.retried = true;
        req.enqueued_at = now; // fresh deadline budget on the new GPU
        self.gpus[to].enqueue(mi, req, now);
    }
}

/// Runs a multi-GPU serving experiment.
///
/// # Panics
///
/// Panics if the configuration is degenerate: no GPUs, no models, a
/// non-positive rate, a crash script or fault plan naming a GPU that
/// does not exist, or two fault plans for the same GPU.
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
    for (i, (g, _)) in config.faults.iter().enumerate() {
        assert!(
            *g < config.gpus,
            "fault plan names GPU {g} of {}",
            config.gpus
        );
        assert!(
            config.faults[..i].iter().all(|(h, _)| h != g),
            "two fault plans for GPU {g}"
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

    // --- Front-end events and the event loop ---------------------------
    let mut front: BinaryHeap<_> = arrivals
        .iter()
        .map(|a| {
            let ev = Front::Arrival {
                model: a.model,
                id: a.id,
            };
            Reverse((a.at, ev))
        })
        .collect();
    front.extend(config.crash.map(|c| Reverse((c.at, Front::Crash))));
    let mut engine = ClusterEngine {
        config,
        per_gpu: vec![0usize; config.gpus],
        gpus,
        plan,
        rob,
        rr_next: 0,
        latencies_ms: Vec::new(),
        front,
        hedge: HedgeState::default(),
        drained: 0,
        horizon_end: SimTime::ZERO + config.horizon,
        total_arrivals: arrivals.len() as u64,
    };
    engine.run();
    result::finish(engine)
}

/// The cluster's text for mask rejections.
pub(super) fn error_texts(errors: Vec<MachineError>) -> impl Iterator<Item = String> {
    errors.into_iter().map(|e| KrispError::from(e).to_string())
}
