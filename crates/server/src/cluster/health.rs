//! Per-GPU health: degradation counting, circuit breaking, drain /
//! restart, and scripted crashes.

use krisp_obs::EventKind;
use krisp_serve_core::Worker;
use krisp_sim::{SimDuration, SimTime};

use super::config::{ClusterConfig, CrashScript};
use super::drive::{error_texts, retry_or_drop, try_start, Gpu, TOKEN_RESTART};
use super::hedge::HedgeState;
use super::result::ClusterRobustness;
use crate::gpu::GpuPlan;

/// Per-GPU serving health, from the router's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuHealth {
    /// Serving normally.
    Healthy,
    /// Has seen failures (abandoned kernels, dead CUs) but still serves.
    Degraded,
    /// Breaker tripped: no new requests, in-flight work finishes.
    Draining,
    /// Down (restart or crash recovery): excluded from routing until its
    /// stream masks are re-warmed.
    Restarting,
}

impl GpuHealth {
    /// Stable numeric code used in [`EventKind::WorkerHealth`] events.
    pub fn code(self) -> u32 {
        match self {
            GpuHealth::Healthy => 0,
            GpuHealth::Degraded => 1,
            GpuHealth::Draining => 2,
            GpuHealth::Restarting => 3,
        }
    }
}

/// Circuit breaker ejecting a repeatedly failing GPU from routing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Kernel/CU failures before the breaker trips.
    pub trip_after: u32,
    /// Downtime once drained, before masks re-warm and routing resumes.
    pub restart: SimDuration,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            trip_after: 3,
            restart: SimDuration::from_millis(5),
        }
    }
}

/// Counts a failure toward the breaker, degrading and eventually
/// ejecting the GPU.
pub(super) fn note_failure(
    gpus: &mut [Gpu],
    gi: usize,
    now: SimTime,
    config: &ClusterConfig,
    rob: &mut ClusterRobustness,
    hedge: &mut HedgeState,
) {
    gpus[gi].failures += 1;
    if gpus[gi].health == GpuHealth::Healthy {
        gpus[gi].set_health(GpuHealth::Degraded, gi, now);
    }
    let Some(breaker) = config.breaker else {
        return;
    };
    if gpus[gi].failures < breaker.trip_after || !gpus[gi].routable() {
        return;
    }
    // Trip: stop routing to this GPU and move its backlog elsewhere.
    rob.breaker_trips += 1;
    gpus[gi].tripped = true;
    gpus[gi]
        .bus
        .emit(now.as_nanos(), || EventKind::BreakerTripped {
            gpu: gi as u32,
        });
    gpus[gi].set_health(GpuHealth::Draining, gi, now);
    redistribute_backlog(gpus, gi, now, rob, hedge);
    maybe_begin_restart(&mut gpus[gi], gi, now, config);
}

/// Moves every queued request off a draining or crashed GPU.
pub(super) fn redistribute_backlog(
    gpus: &mut [Gpu],
    gi: usize,
    now: SimTime,
    rob: &mut ClusterRobustness,
    hedge: &mut HedgeState,
) {
    for mi in 0..gpus[gi].workers.len() {
        while let Some(req) = gpus[gi].workers[mi].queue.pop() {
            if hedge.done.contains(&req.id) {
                continue; // a copy that already lost its race
            }
            retry_or_drop(gpus, gi, mi, req, now, rob, hedge);
        }
    }
}

/// A draining GPU whose last in-flight request finished goes down for
/// the breaker's restart period.
pub(super) fn maybe_begin_restart(gpu: &mut Gpu, gi: usize, now: SimTime, config: &ClusterConfig) {
    if gpu.health != GpuHealth::Draining || gpu.workers.iter().any(Worker::busy) {
        return;
    }
    let restart = config.breaker.map(|b| b.restart).unwrap_or_default();
    gpu.set_health(GpuHealth::Restarting, gi, now);
    let delay = now.saturating_since(gpu.rt.now()) + restart;
    gpu.rt.add_timer(delay, TOKEN_RESTART);
}

/// The scripted crash: in-flight requests are lost, the backlog moves to
/// surviving GPUs, and the GPU re-warms after its downtime.
pub(super) fn apply_crash(
    gpus: &mut [Gpu],
    crash: &CrashScript,
    rob: &mut ClusterRobustness,
    hedge: &mut HedgeState,
) {
    let gi = crash.gpu;
    rob.crashes += 1;
    gpus[gi].set_health(GpuHealth::Restarting, gi, crash.at);
    for w in &mut gpus[gi].workers {
        // The kernels keep draining in the dead GPU's simulation, but the
        // run is discarded: its completion must not be counted.
        for req in w.discard_run() {
            if hedge.settle_negative(req.id) {
                rob.failed_requests += 1;
            }
        }
    }
    redistribute_backlog(gpus, gi, crash.at, rob, hedge);
    let delay = crash.at.saturating_since(gpus[gi].rt.now()) + crash.down_for;
    gpus[gi].rt.add_timer(delay, TOKEN_RESTART);
}

/// Restart complete: re-warm the pinned stream masks, reset the breaker,
/// and resume serving anything that queued up during the fallback.
pub(super) fn finish_restart(
    gpus: &mut [Gpu],
    gi: usize,
    now: SimTime,
    config: &ClusterConfig,
    plan: &GpuPlan,
    rob: &mut ClusterRobustness,
    hedge: &mut HedgeState,
) {
    let gpu = &mut gpus[gi];
    rob.errors
        .extend(error_texts(plan.pin_masks(&mut gpu.rt, &gpu.workers)));
    gpus[gi].failures = 0;
    if gpus[gi].tripped {
        gpus[gi].tripped = false;
        gpus[gi]
            .bus
            .emit(now.as_nanos(), || EventKind::BreakerReset {
                gpu: gi as u32,
            });
    }
    gpus[gi].set_health(GpuHealth::Healthy, gi, now);
    for mi in 0..gpus[gi].workers.len() {
        try_start(gpus, gi, mi, now, config, rob, hedge);
    }
}
