//! CoDel-style sojourn-time queue control law (Nichols & Jacobson,
//! "Controlling Queue Delay", CACM 2012), adapted to simulation time.
//!
//! Depth-bounded shedding (PR 2's bounded request queues) only reacts
//! once the backlog is deep; by then every queued request has already
//! accumulated sojourn time and the server is serving stale work. CoDel
//! instead watches the **sojourn time of the head of the queue at
//! dequeue**: once the head has stayed above `target` for a full
//! `interval`, the law starts dropping heads at an increasing rate
//! (`interval / sqrt(drop_count)`) until sojourn falls back below the
//! target. The state machine is pure integer/simulation-time bookkeeping
//! driven entirely by caller-supplied instants, so it is deterministic
//! and bit-identical under replay.
//!
//! The law never drops the last queued item (`backlog <= 1` is always
//! "ok"): an overloaded queue still makes progress, which is what keeps
//! the sentinel's `Shed` state deadlock-free.
//!
//! # Examples
//!
//! ```
//! use krisp_server::{CoDel, CoDelConfig};
//! use krisp_sim::{SimDuration, SimTime};
//!
//! let mut codel = CoDel::new(CoDelConfig {
//!     target: SimDuration::from_millis(5),
//!     interval: SimDuration::from_millis(100),
//! });
//! // Heads dequeued faster than the target never trip the law.
//! let now = SimTime::from_nanos(1_000_000);
//! assert!(!codel.on_dequeue(SimDuration::from_millis(1), now, 4));
//! ```

use krisp_sim::{SimDuration, SimTime};

/// Tuning knobs of the CoDel control law.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoDelConfig {
    /// Acceptable head-of-queue sojourn time. Sojourns below the target
    /// reset the law.
    pub target: SimDuration,
    /// How long the sojourn must stay above the target before the first
    /// drop; also the base of the drop-rate control law.
    pub interval: SimDuration,
}

impl Default for CoDelConfig {
    /// The paper's classic 5 ms / 100 ms operating point.
    fn default() -> CoDelConfig {
        CoDelConfig {
            target: SimDuration::from_millis(5),
            interval: SimDuration::from_millis(100),
        }
    }
}

/// The CoDel dropper state machine. Feed it one [`CoDel::on_dequeue`]
/// call per head-of-queue inspection; it answers "drop this one?".
#[derive(Debug, Clone, PartialEq)]
pub struct CoDel {
    cfg: CoDelConfig,
    /// When the sojourn first exceeded the target plus one interval
    /// (`None` while below target).
    first_above: Option<SimTime>,
    /// True while inside a dropping episode.
    dropping: bool,
    /// Drops in the current episode (sets the drop rate).
    count: u64,
    /// Next scheduled drop instant within an episode.
    drop_next: SimTime,
    /// Total heads dropped over the dropper's lifetime.
    dropped: u64,
}

impl CoDel {
    /// A fresh dropper in the "below target" state.
    pub fn new(cfg: CoDelConfig) -> CoDel {
        CoDel {
            cfg,
            first_above: None,
            dropping: false,
            count: 0,
            drop_next: SimTime::ZERO,
            dropped: 0,
        }
    }

    /// Total heads the law has asked to drop.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// `interval / sqrt(count)` — the control law's inter-drop spacing.
    /// IEEE-754 `sqrt` is correctly rounded, so this is deterministic.
    fn spacing(&self) -> SimDuration {
        let ns = self.cfg.interval.as_nanos() as f64 / (self.count.max(1) as f64).sqrt();
        SimDuration::from_nanos(ns as u64)
    }

    /// Inspects the head of the queue at dequeue time. `sojourn` is how
    /// long the head waited, `now` the dequeue instant, and `backlog`
    /// the queue length *including* the head. Returns `true` when the
    /// control law says to drop (shed) this head instead of serving it.
    pub fn on_dequeue(&mut self, sojourn: SimDuration, now: SimTime, backlog: usize) -> bool {
        // Below target — or the last item, which is always served so the
        // queue keeps making progress.
        if sojourn < self.cfg.target || backlog <= 1 {
            self.first_above = None;
            self.dropping = false;
            return false;
        }
        let first_above = match self.first_above {
            Some(t) => t,
            None => {
                // The sojourn just crossed the target: give the queue one
                // interval of grace before the first drop.
                let t = now + self.cfg.interval;
                self.first_above = Some(t);
                return false;
            }
        };
        if !self.dropping {
            if now < first_above {
                return false;
            }
            // Entering a dropping episode. Re-entering soon after the
            // last one resumes at a higher rate (classic CoDel memory).
            self.dropping = true;
            let recently = now.saturating_since(self.drop_next) < self.cfg.interval;
            self.count = if self.count > 2 && recently {
                self.count - 2
            } else {
                1
            };
            self.drop_next = now + self.spacing();
            self.dropped += 1;
            return true;
        }
        if now >= self.drop_next {
            self.count += 1;
            self.drop_next += self.spacing();
            self.dropped += 1;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    fn cfg(target_us: u64, interval_us: u64) -> CoDelConfig {
        CoDelConfig {
            target: SimDuration::from_micros(target_us),
            interval: SimDuration::from_micros(interval_us),
        }
    }

    #[test]
    fn below_target_never_drops() {
        let mut c = CoDel::new(cfg(100, 1_000));
        for i in 0..1_000u64 {
            let now = at(i);
            assert!(!c.on_dequeue(SimDuration::from_micros(50), now, 10));
        }
        assert_eq!(c.dropped(), 0);
    }

    #[test]
    fn sustained_overshoot_drops_after_one_interval() {
        let mut c = CoDel::new(cfg(100, 1_000));
        let soj = SimDuration::from_micros(500);
        // First overshoot arms the law, no drop yet.
        assert!(!c.on_dequeue(soj, at(0), 10));
        // Still inside the grace interval.
        assert!(!c.on_dequeue(soj, at(500), 10));
        // One full interval above target: the episode starts.
        assert!(c.on_dequeue(soj, at(1_000), 10));
        assert_eq!(c.dropped(), 1);
    }

    #[test]
    fn drop_rate_accelerates_with_sqrt_law() {
        let mut c = CoDel::new(cfg(100, 1_000));
        let soj = SimDuration::from_micros(500);
        let mut drops = Vec::new();
        for i in 0..4_000u64 {
            let now = at(i);
            if c.on_dequeue(soj, now, 10) {
                drops.push(i);
            }
        }
        assert!(drops.len() >= 3, "expected several drops, got {drops:?}");
        // Inter-drop gaps shrink as count grows (interval / sqrt(count)).
        let gaps: Vec<u64> = drops.windows(2).map(|w| w[1] - w[0]).collect();
        for pair in gaps.windows(2) {
            assert!(pair[1] <= pair[0], "gaps must not grow: {gaps:?}");
        }
    }

    #[test]
    fn recovery_resets_the_law() {
        let mut c = CoDel::new(cfg(100, 1_000));
        let high = SimDuration::from_micros(500);
        let low = SimDuration::from_micros(10);
        assert!(!c.on_dequeue(high, at(0), 10));
        assert!(c.on_dequeue(high, at(1_000), 10));
        // Sojourn back under target: dropping stops immediately.
        assert!(!c.on_dequeue(low, at(1_001), 10));
        // And the grace interval starts over on the next overshoot.
        assert!(!c.on_dequeue(high, at(1_002), 10));
        assert!(!c.on_dequeue(high, at(1_500), 10));
    }

    #[test]
    fn last_item_is_always_served() {
        let mut c = CoDel::new(cfg(100, 1_000));
        let soj = SimDuration::from_micros(10_000);
        for i in 0..100u64 {
            let now = at(i * 1_000);
            assert!(!c.on_dequeue(soj, now, 1));
        }
        assert_eq!(c.dropped(), 0);
    }
}
