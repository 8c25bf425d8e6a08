//! Fault injection on the [`Machine`]: applying fault-plan entries at
//! their scheduled instants, expiring queue stalls, and the straggler
//! windows' work multipliers.

use krisp_obs::EventKind;

use super::{Machine, TimerKind};
use crate::fault::FaultKind;
use crate::machine_config::SimEvent;
use crate::queue::QueueId;
use crate::time::SimTime;

/// An open straggler window: kernels dispatched on `queue` (every queue
/// when `None`) before `until` have their work multiplied by `factor`.
#[derive(Debug, Clone, Copy)]
pub(super) struct StraggleWindow {
    queue: Option<QueueId>,
    factor: f64,
    until: SimTime,
}

impl Machine {
    /// Removes stall windows that have ended and re-indexes their queues.
    /// Runs when a `StallEnd` timer fires — the heap guarantees time
    /// cannot pass a window's end without popping its timer, so the
    /// runnable index never goes stale across an expiry.
    pub(super) fn expire_stalls(&mut self) {
        let now = self.now;
        self.stalled_until.retain(|_, &mut until| until > now);
        // Membership is exact, so refreshing every queue only adds the
        // ones whose window just closed.
        for qi in 0..self.queues.len() {
            self.refresh_runnable(qi);
        }
    }

    /// Product of the work multipliers of every straggler window active
    /// on `queue` right now; exactly 1.0 (no float op at all) when no
    /// window was ever injected.
    pub(super) fn straggle_factor(&mut self, queue: QueueId) -> f64 {
        if self.straggles.is_empty() {
            return 1.0;
        }
        let now = self.now;
        self.straggles.retain(|w| w.until > now);
        self.straggles
            .iter()
            .filter(|w| w.queue.is_none() || w.queue == Some(queue))
            .map(|w| w.factor)
            .product()
    }

    /// Applies the `idx`-th fault-plan entry at its scheduled instant.
    pub(super) fn inject_fault(&mut self, idx: usize) {
        let fault = self.faults.events()[idx].clone();
        match fault.kind {
            FaultKind::FailCus { mask } => {
                let newly = mask - self.failed_cus;
                if newly.is_empty() {
                    return;
                }
                self.failed_cus = self.failed_cus | newly;
                let fallback = self.healthy_mask();
                assert!(
                    !fallback.is_empty(),
                    "fault plan failed every CU of the device"
                );
                // Shrink in-flight kernels and fix up the resource
                // monitor: lost CUs are released, migrated kernels are
                // re-assigned, then the dead CUs are pinned saturated so
                // allocators route around them.
                let changed = self.engine.fail_cus(newly, fallback);
                for (_, lost, migrated) in &changed {
                    self.counters.release(lost);
                    if let Some(m) = migrated {
                        self.counters.assign(m);
                    }
                }
                self.counters.saturate(&newly);
                let total_failed = self.failed_cus.count();
                self.obs
                    .bus
                    .emit(self.now.as_nanos(), || EventKind::CusFailed {
                        mask: newly.raw_words(),
                        total_failed,
                    });
                if self.obs.metrics.enabled() {
                    self.obs
                        .metrics
                        .inc("krisp_cus_failed_total", &[], u64::from(newly.count()));
                }
                self.out.push_back(SimEvent::CusFailed {
                    mask: newly,
                    at: self.now,
                });
            }
            FaultKind::StallQueue { queue, duration } => {
                let until = self.now + duration;
                let entry = self.stalled_until.entry(queue).or_insert(until);
                *entry = (*entry).max(until);
                self.push_timer(until, TimerKind::StallEnd);
                if (queue.0 as usize) < self.queues.len() {
                    self.refresh_runnable(queue.0 as usize);
                }
                self.obs
                    .bus
                    .emit(self.now.as_nanos(), || EventKind::QueueStalled {
                        queue: queue.0,
                        dur_ns: duration.as_nanos(),
                    });
            }
            FaultKind::Straggle {
                queue,
                factor,
                window,
            } => {
                self.straggles.push(StraggleWindow {
                    queue,
                    factor,
                    until: self.now + window,
                });
                self.obs
                    .bus
                    .emit(self.now.as_nanos(), || EventKind::StragglerWindow {
                        queue: queue.map_or(u32::MAX, |q| q.0),
                        factor_pct: (factor * 100.0).round() as u32,
                        dur_ns: window.as_nanos(),
                    });
            }
            FaultKind::RejectMaskApply { queue, window } => {
                self.mask_rejects.push((queue, self.now + window));
            }
        }
    }
}
