//! Per-GPU health: degradation counting, circuit breaking, drain /
//! restart, and scripted crashes.

use krisp_obs::EventKind;
use krisp_sim::{SimDuration, SimTime};

use super::drive::{error_texts, ClusterEngine, TOKEN_RESTART};
use crate::worker::Worker;

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

impl ClusterEngine<'_> {
    /// Counts a failure toward the breaker, degrading and eventually
    /// ejecting the GPU.
    pub(super) fn note_failure(&mut self, gi: usize, now: SimTime) {
        let gpu = &mut self.gpus[gi];
        gpu.failures += 1;
        if gpu.health == GpuHealth::Healthy {
            gpu.set_health(GpuHealth::Degraded, gi, now);
        }
        let Some(breaker) = self.config.breaker else {
            return;
        };
        if gpu.failures < breaker.trip_after || !gpu.routable() {
            return;
        }
        // Trip: stop routing to this GPU and move its backlog elsewhere.
        self.rob.breaker_trips += 1;
        gpu.tripped = true;
        gpu.bus.emit(now.as_nanos(), || EventKind::BreakerTripped {
            gpu: gi as u32,
        });
        gpu.set_health(GpuHealth::Draining, gi, now);
        self.redistribute_backlog(gi, now);
        self.maybe_begin_restart(gi, now);
    }

    /// Moves every queued request off a draining or crashed GPU.
    fn redistribute_backlog(&mut self, gi: usize, now: SimTime) {
        for mi in 0..self.gpus[gi].workers.len() {
            while let Some(req) = self.gpus[gi].workers[mi].queue.pop() {
                if self.hedge.done.contains(&req.id) {
                    continue; // a copy that already lost its race
                }
                self.retry_or_drop(gi, mi, req, now);
            }
        }
    }

    /// A draining GPU whose last in-flight request finished goes down for
    /// the breaker's restart period.
    pub(super) fn maybe_begin_restart(&mut self, gi: usize, now: SimTime) {
        let gpu = &mut self.gpus[gi];
        if gpu.health != GpuHealth::Draining || gpu.workers.iter().any(Worker::busy) {
            return;
        }
        let restart = self.config.breaker.map(|b| b.restart).unwrap_or_default();
        gpu.set_health(GpuHealth::Restarting, gi, now);
        let delay = now.saturating_since(gpu.rt.now()) + restart;
        gpu.rt.add_timer(delay, TOKEN_RESTART);
    }

    /// The scripted crash: in-flight requests are lost, the backlog moves
    /// to surviving GPUs, and the GPU re-warms after its downtime.
    pub(super) fn apply_crash(&mut self) {
        let crash = self
            .config
            .crash
            .expect("a crash event needs a crash script");
        let gi = crash.gpu;
        self.rob.crashes += 1;
        self.gpus[gi].set_health(GpuHealth::Restarting, gi, crash.at);
        for w in &mut self.gpus[gi].workers {
            // The kernels keep draining in the dead GPU's simulation, but
            // the run is discarded: its completion must not be counted.
            for req in w.discard_run() {
                if self.hedge.settle_negative(req.id) {
                    self.rob.failed_requests += 1;
                }
            }
        }
        self.redistribute_backlog(gi, crash.at);
        let gpu = &mut self.gpus[gi];
        let delay = crash.at.saturating_since(gpu.rt.now()) + crash.down_for;
        gpu.rt.add_timer(delay, TOKEN_RESTART);
    }

    /// Restart complete: re-warm the pinned stream masks, reset the
    /// breaker, and resume serving anything that queued up during the
    /// fallback.
    pub(super) fn finish_restart(&mut self, gi: usize, now: SimTime) {
        let gpu = &mut self.gpus[gi];
        self.rob
            .errors
            .extend(error_texts(self.plan.pin_masks(&mut gpu.rt, &gpu.workers)));
        gpu.failures = 0;
        if gpu.tripped {
            gpu.tripped = false;
            gpu.bus.emit(now.as_nanos(), || EventKind::BreakerReset {
                gpu: gi as u32,
            });
        }
        gpu.set_health(GpuHealth::Healthy, gi, now);
        for mi in 0..self.gpus[gi].workers.len() {
            self.try_start(gi, mi, now);
        }
    }
}
