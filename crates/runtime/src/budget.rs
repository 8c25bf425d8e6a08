//! The global retry budget: caps watchdog retries at a fraction of
//! recent successes so retries cannot amplify load exactly when the
//! system is saturated (a retry storm).
//!
//! The budget is a sliding-window counter pair: every successful kernel
//! completion deposits into the window, every granted retry withdraws
//! from it, and entries older than `window` expire. A retry is granted
//! while `retries < ratio × successes + min_retries` over the live
//! window; `min_retries` keeps a cold system (no successes yet) able to
//! retry at all.
//!
//! ## Tie-break: expiry vs. watchdog fire on the same tick
//!
//! When a success's expiry instant and a watchdog deadline land on the
//! **same simulation tick**, the expiry deterministically wins: entries
//! with `recorded_at + window <= now` are removed *before* the allowance
//! is evaluated. The rule is "a success exactly `window` old no longer
//! funds a retry", it makes the budget a pure function of
//! `(history, now)` regardless of event-processing interleavings, and it
//! is pinned by a unit test plus the same-seed bit-identity regression
//! in the runtime tests.
//!
//! # Examples
//!
//! ```
//! use krisp_runtime::{RetryBudget, RetryBudgetConfig};
//! use krisp_sim::{SimDuration, SimTime};
//!
//! let mut b = RetryBudget::new(RetryBudgetConfig {
//!     ratio: 0.5,
//!     window: SimDuration::from_millis(10),
//!     min_retries: 1,
//! });
//! let t = SimTime::from_nanos(1_000);
//! b.record_success(t);
//! b.record_success(t);
//! assert!(b.try_spend(t)); // 0 < 0.5 × 2 + 1
//! assert!(b.try_spend(t)); // 1 < 2
//! assert!(!b.try_spend(t)); // 2 ≮ 2 — denied
//! assert_eq!(b.denied(), 1);
//! ```

use std::collections::VecDeque;

use krisp_sim::{SimDuration, SimTime};

/// Tuning knobs of the [`RetryBudget`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryBudgetConfig {
    /// Retries allowed per success inside the window (0.1 = one retry
    /// per ten successes).
    pub ratio: f64,
    /// Sliding-window length over which successes and retries are
    /// counted.
    pub window: SimDuration,
    /// Flat allowance added to the ratio term, so a system with no
    /// recent successes can still retry (bootstrapping / cold start).
    pub min_retries: u32,
}

impl Default for RetryBudgetConfig {
    /// 10% of successes over a 100 ms window, floor of 3 retries.
    fn default() -> RetryBudgetConfig {
        RetryBudgetConfig {
            ratio: 0.1,
            window: SimDuration::from_millis(100),
            min_retries: 3,
        }
    }
}

/// Sliding-window retry-budget state. See the module docs for the
/// policy and the same-tick tie-break.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryBudget {
    cfg: RetryBudgetConfig,
    successes: VecDeque<SimTime>,
    retries: VecDeque<SimTime>,
    granted: u64,
    denied: u64,
}

impl RetryBudget {
    /// A fresh budget with an empty window.
    pub fn new(cfg: RetryBudgetConfig) -> RetryBudget {
        RetryBudget {
            cfg,
            successes: VecDeque::new(),
            retries: VecDeque::new(),
            granted: 0,
            denied: 0,
        }
    }

    /// Retries granted so far.
    pub fn granted(&self) -> u64 {
        self.granted
    }

    /// Retries denied so far.
    pub fn denied(&self) -> u64 {
        self.denied
    }

    /// Deposits one success at `now`, first expiring entries that are
    /// `window` old, so the window holds only live entries however long
    /// the run. Time only moves forward, so a later [`try_spend`] would
    /// have expired them anyway: the allowances are unchanged.
    ///
    /// [`try_spend`]: RetryBudget::try_spend
    pub fn record_success(&mut self, now: SimTime) {
        self.expire(now);
        self.successes.push_back(now);
    }

    /// Drops window entries that are `window` old or older. Expiry at
    /// exactly `window` is intentional — see the module-level tie-break
    /// documentation.
    fn expire(&mut self, now: SimTime) {
        let dead = |t: &SimTime| *t + self.cfg.window <= now;
        while self.successes.front().is_some_and(dead) {
            self.successes.pop_front();
        }
        while self.retries.front().is_some_and(dead) {
            self.retries.pop_front();
        }
    }

    /// Asks for one retry at `now`. Expires stale entries first (the
    /// tie-break), then grants while
    /// `retries < ratio × successes + min_retries`.
    pub fn try_spend(&mut self, now: SimTime) -> bool {
        self.expire(now);
        let allowance =
            self.cfg.ratio * self.successes.len() as f64 + f64::from(self.cfg.min_retries);
        if (self.retries.len() as f64) < allowance {
            self.retries.push_back(now);
            self.granted += 1;
            true
        } else {
            self.denied += 1;
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The budget as it was before `record_success` expired entries:
    /// only `try_spend` trims the window. The oracle for the eager
    /// version's decisions.
    struct Lazy {
        cfg: RetryBudgetConfig,
        successes: Vec<SimTime>,
        retries: Vec<SimTime>,
    }

    impl Lazy {
        fn try_spend(&mut self, now: SimTime) -> bool {
            let window = self.cfg.window;
            self.successes.retain(|&t| t + window > now);
            self.retries.retain(|&t| t + window > now);
            let allowance =
                self.cfg.ratio * self.successes.len() as f64 + f64::from(self.cfg.min_retries);
            let granted = (self.retries.len() as f64) < allowance;
            if granted {
                self.retries.push(now);
            }
            granted
        }
    }

    fn cfg(ratio: f64, window_ns: u64, min: u32) -> RetryBudgetConfig {
        RetryBudgetConfig {
            ratio,
            window: SimDuration::from_nanos(window_ns),
            min_retries: min,
        }
    }

    #[test]
    fn cold_start_uses_the_floor() {
        let mut b = RetryBudget::new(cfg(0.5, 1_000, 2));
        let t = SimTime::from_nanos(0);
        assert!(b.try_spend(t));
        assert!(b.try_spend(t));
        assert!(!b.try_spend(t));
        assert_eq!((b.granted(), b.denied()), (2, 1));
    }

    #[test]
    fn successes_fund_retries_proportionally() {
        let mut b = RetryBudget::new(cfg(0.5, 1_000_000, 0));
        let t = SimTime::from_nanos(10);
        for _ in 0..10 {
            b.record_success(t);
        }
        // ratio 0.5 × 10 successes = 5 retries.
        for _ in 0..5 {
            assert!(b.try_spend(t));
        }
        assert!(!b.try_spend(t));
    }

    #[test]
    fn expiry_wins_same_tick_tie() {
        // A success recorded at t=0 with a 100ns window expires at
        // exactly t=100 — *before* the allowance check of a watchdog
        // fire on the same tick.
        let mut b = RetryBudget::new(cfg(1.0, 100, 0));
        b.record_success(SimTime::from_nanos(0));
        // One tick earlier the success still funds a retry...
        let mut probe = b.clone();
        assert!(probe.try_spend(SimTime::from_nanos(99)));
        // ...but at the expiry tick it no longer does.
        assert!(!b.try_spend(SimTime::from_nanos(100)));
        assert_eq!(b.denied(), 1);
    }

    #[test]
    fn spent_retries_also_expire() {
        let mut b = RetryBudget::new(cfg(0.0, 100, 1));
        assert!(b.try_spend(SimTime::from_nanos(0)));
        assert!(!b.try_spend(SimTime::from_nanos(50)));
        // The granted retry ages out of the window: the floor refills.
        assert!(b.try_spend(SimTime::from_nanos(100)));
        assert_eq!((b.granted(), b.denied()), (2, 1));
    }

    #[test]
    fn successes_expire_as_they_are_recorded() {
        let mut b = RetryBudget::new(RetryBudgetConfig::default());
        for i in 0..100_000u64 {
            b.record_success(SimTime::from_nanos(i * 1_000_000));
        }
        // A 100 ms window over successes 1 ms apart: 100 are live.
        assert!(b.successes.len() <= 100, "{} entries", b.successes.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Expiring on `record_success` grants exactly the retries the
        /// lazy budget grants, for any forward-moving history. Short
        /// gaps and windows make expiry ticks coincide with records and
        /// spends, where an off-by-one would show.
        #[test]
        fn eager_expiry_matches_the_lazy_budget(
            steps in proptest::collection::vec((0u64..6, 0u8..3), 1..200),
            ratio in 0.0f64..2.0,
            window_ns in 1u64..24,
            min_retries in 0u32..4,
        ) {
            let cfg = cfg(ratio, window_ns, min_retries);
            let mut eager = RetryBudget::new(cfg);
            let mut lazy = Lazy { cfg, successes: Vec::new(), retries: Vec::new() };
            let mut now = 0;
            for (gap, op) in steps {
                now += gap;
                let t = SimTime::from_nanos(now);
                // One step in three asks for a retry.
                if op == 0 {
                    prop_assert_eq!(eager.try_spend(t), lazy.try_spend(t));
                } else {
                    eager.record_success(t);
                    lazy.successes.push(t);
                }
            }
        }
    }

    #[test]
    fn budget_is_a_pure_function_of_history_and_now() {
        // Same deposits + same probe instant => same verdicts, no matter
        // how many (non-mutating) reads happened in between.
        let build = || {
            let mut b = RetryBudget::new(cfg(0.3, 500, 1));
            for i in 0..7u64 {
                b.record_success(SimTime::from_nanos(i * 40));
            }
            b
        };
        let mut a = build();
        let mut c = build();
        let _ = c.granted();
        for probe in [300u64, 400, 520, 700] {
            assert_eq!(
                a.try_spend(SimTime::from_nanos(probe)),
                c.try_spend(SimTime::from_nanos(probe))
            );
        }
    }
}
