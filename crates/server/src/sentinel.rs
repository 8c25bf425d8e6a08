//! Overload guardrails for the serving stack.
//!
//! KRISP's value proposition is SLO-preserving co-location, but a server
//! that admits everything degrades *everyone* once offered load exceeds
//! capacity. The sentinel layers four deterministic guardrails over the
//! robustness stack:
//!
//! 1. **Token-bucket admission** ([`TokenBucket`]) — per-worker arrival
//!    caps with bounded burst, refilled from simulation time, so open-loop
//!    overload is rejected at the door instead of queued into staleness.
//! 2. **CoDel queue management** — sojourn-time shedding on the
//!    [`crate::RequestQueue`] (see [`crate::CoDel`]), configured here.
//! 3. **Brownout right-sizing** ([`BrownoutController`]) — a hysteresis
//!    state machine Normal→Brownout→Shed driven by p95-vs-deadline
//!    headroom; under pressure it deliberately *widens* per-kernel masks
//!    toward full-device partitions (trading KRISP's packing efficiency
//!    for latency headroom) and narrows back when headroom recovers.
//! 4. **Retry budgets** — the runtime-level
//!    [`krisp_runtime::RetryBudget`], plumbed through
//!    [`SentinelConfig::retry_budget`], so watchdog retries cannot storm
//!    a saturated device.
//!
//! Guardrails 1 and 3 compose into the per-arrival [`AdmissionChain`];
//! guardrails 2 and 4 are enforced downstream (at dequeue and in the
//! runtime respectively).
//!
//! Everything is driven by simulation time and observed latencies only:
//! same seed, same trace, same transitions — which is what lets the
//! chaos fuzzer (`crates/chaos`) replay sentinel behavior bit-for-bit.
//!
//! # Examples
//!
//! ```
//! use krisp_server::{BrownoutConfig, BrownoutController, SentinelState};
//!
//! let mut ctl = BrownoutController::new(BrownoutConfig {
//!     window: 8,
//!     min_samples: 4,
//!     ..BrownoutConfig::default()
//! });
//! for _ in 0..4 {
//!     assert_eq!(ctl.observe(0.2), None); // plenty of headroom
//! }
//! // Sustained latencies beyond the deadline walk the machine to Shed.
//! assert_eq!(
//!     ctl.observe(1.5),
//!     Some((SentinelState::Normal, SentinelState::Brownout))
//! );
//! assert_eq!(
//!     ctl.observe(1.5),
//!     Some((SentinelState::Brownout, SentinelState::Shed))
//! );
//! ```

use std::collections::VecDeque;

use krisp_runtime::{MaskWidening, RetryBudgetConfig};
use krisp_sim::stats::percentile;
use krisp_sim::SimTime;

use crate::codel::CoDelConfig;

/// Token-bucket admission knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenBucketConfig {
    /// Sustained admission rate, requests per simulated second.
    pub rate_per_s: f64,
    /// Bucket depth: how many requests may be admitted in a burst.
    pub burst: f64,
}

impl Default for TokenBucketConfig {
    /// 200 req/s with a burst of 10.
    fn default() -> TokenBucketConfig {
        TokenBucketConfig {
            rate_per_s: 200.0,
            burst: 10.0,
        }
    }
}

/// A deterministic token bucket refilled from simulation time.
///
/// # Examples
///
/// ```
/// use krisp_server::{TokenBucket, TokenBucketConfig};
/// use krisp_sim::SimTime;
///
/// let mut b = TokenBucket::new(TokenBucketConfig { rate_per_s: 1_000.0, burst: 1.0 });
/// assert!(b.try_admit(SimTime::ZERO)); // the bucket starts full
/// assert!(!b.try_admit(SimTime::ZERO)); // burst of one: empty now
/// // One millisecond refills one token at 1000 req/s.
/// assert!(b.try_admit(SimTime::from_nanos(1_000_000)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TokenBucket {
    cfg: TokenBucketConfig,
    tokens: f64,
    last: SimTime,
    admitted: u64,
    rejected: u64,
}

impl TokenBucket {
    /// A full bucket at simulation time zero.
    pub fn new(cfg: TokenBucketConfig) -> TokenBucket {
        TokenBucket {
            tokens: cfg.burst,
            cfg,
            last: SimTime::ZERO,
            admitted: 0,
            rejected: 0,
        }
    }

    /// Requests admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Requests rejected so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Admits or rejects one arrival at `now` (monotone per bucket).
    pub fn try_admit(&mut self, now: SimTime) -> bool {
        let elapsed = now.saturating_since(self.last).as_secs_f64();
        self.tokens = (self.tokens + elapsed * self.cfg.rate_per_s).min(self.cfg.burst);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            self.admitted += 1;
            true
        } else {
            self.rejected += 1;
            false
        }
    }
}

/// The brownout hysteresis states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SentinelState {
    /// Plenty of headroom: exact KRISP right-sizing, full admission.
    #[default]
    Normal,
    /// Headroom eroding: masks are widened ([`MaskWidening::Factor`]) to
    /// buy latency at the cost of packing efficiency.
    Brownout,
    /// Past the deadline at p95: masks go full-device and new arrivals
    /// are shed unless the worker is completely idle. Queued work keeps
    /// draining, so the controller keeps observing and can leave Shed —
    /// the state never deadlocks.
    Shed,
}

impl SentinelState {
    /// Stable integer code for events/metrics (0 normal, 1 brownout,
    /// 2 shed).
    pub fn code(&self) -> u32 {
        match self {
            SentinelState::Normal => 0,
            SentinelState::Brownout => 1,
            SentinelState::Shed => 2,
        }
    }
}

/// Brownout state-machine knobs. All thresholds are ratios of the
/// observed p95 latency to the deadline (1.0 = p95 exactly at the
/// deadline); exits sit below their entries, so the machine has
/// hysteresis and cannot flap on a single sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutConfig {
    /// Sliding-window length in latency samples.
    pub window: usize,
    /// Samples required before any transition is considered.
    pub min_samples: usize,
    /// Normal→Brownout when `p95/deadline >=` this.
    pub enter_brownout: f64,
    /// Brownout→Shed when `p95/deadline >=` this.
    pub enter_shed: f64,
    /// Brownout→Normal when `p95/deadline <=` this.
    pub exit_brownout: f64,
    /// Shed→Brownout when `p95/deadline <=` this.
    pub exit_shed: f64,
    /// [`MaskWidening::Factor`] percentage applied in Brownout (≥ 100).
    pub widen_pct: u32,
}

impl Default for BrownoutConfig {
    fn default() -> BrownoutConfig {
        BrownoutConfig {
            window: 64,
            min_samples: 16,
            enter_brownout: 0.7,
            enter_shed: 1.0,
            exit_brownout: 0.45,
            exit_shed: 0.85,
            widen_pct: 150,
        }
    }
}

/// The hysteresis state machine. Feed it one latency/deadline ratio per
/// completed request; it reports at most one transition per observation
/// (Normal→Shed always passes through Brownout, one step per sample).
#[derive(Debug, Clone, PartialEq)]
pub struct BrownoutController {
    cfg: BrownoutConfig,
    window: VecDeque<f64>,
    state: SentinelState,
    transitions: u64,
}

impl BrownoutController {
    /// A controller in [`SentinelState::Normal`] with an empty window.
    ///
    /// # Panics
    ///
    /// Panics unless `window >= min_samples >= 1` and the exit
    /// thresholds sit strictly below their entries (no hysteresis band
    /// means flapping).
    pub fn new(cfg: BrownoutConfig) -> BrownoutController {
        assert!(
            cfg.window >= cfg.min_samples && cfg.min_samples >= 1,
            "window must hold at least min_samples >= 1"
        );
        assert!(
            cfg.exit_brownout < cfg.enter_brownout && cfg.exit_shed < cfg.enter_shed,
            "exit thresholds must sit below entries (hysteresis)"
        );
        BrownoutController {
            cfg,
            window: VecDeque::with_capacity(cfg.window),
            state: SentinelState::Normal,
            transitions: 0,
        }
    }

    /// The current state.
    pub fn state(&self) -> SentinelState {
        self.state
    }

    /// Total transitions taken.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// The widening the runtime should apply in the current state.
    pub fn widening(&self) -> MaskWidening {
        match self.state {
            SentinelState::Normal => MaskWidening::None,
            SentinelState::Brownout => MaskWidening::Factor(self.cfg.widen_pct.max(100)),
            SentinelState::Shed => MaskWidening::FullDevice,
        }
    }

    /// In [`SentinelState::Shed`], should an arrival to a worker with
    /// `queue_depth` waiting requests (and `busy` inference in flight)
    /// be admitted? Only a completely idle worker accepts work, so a
    /// drained system keeps generating observations and can leave Shed.
    pub fn admit_in_shed(&self, queue_depth: usize, busy: bool) -> bool {
        self.state != SentinelState::Shed || (queue_depth == 0 && !busy)
    }

    /// The p95 of the sliding window, as a ratio to the deadline.
    /// Deterministic: the nearest-rank p95, 0 on an empty window.
    pub fn p95_ratio(&self) -> f64 {
        let window: Vec<f64> = self.window.iter().copied().collect();
        percentile(&window, 95.0).unwrap_or(0.0)
    }

    /// Records one completed request's `latency / deadline` ratio and
    /// steps the state machine, returning `Some((from, to))` on a
    /// transition.
    pub fn observe(&mut self, ratio: f64) -> Option<(SentinelState, SentinelState)> {
        if self.window.len() == self.cfg.window {
            self.window.pop_front();
        }
        self.window.push_back(ratio);
        if self.window.len() < self.cfg.min_samples {
            return None;
        }
        let p95 = self.p95_ratio();
        let next = match self.state {
            SentinelState::Normal if p95 >= self.cfg.enter_brownout => SentinelState::Brownout,
            SentinelState::Brownout if p95 >= self.cfg.enter_shed => SentinelState::Shed,
            SentinelState::Brownout if p95 <= self.cfg.exit_brownout => SentinelState::Normal,
            SentinelState::Shed if p95 <= self.cfg.exit_shed => SentinelState::Brownout,
            current => current,
        };
        if next == self.state {
            return None;
        }
        let from = self.state;
        self.state = next;
        self.transitions += 1;
        Some((from, next))
    }
}

/// The sentinel's composite configuration: every guardrail is optional
/// and independently wired, so experiments can ablate them one by one.
/// The default is fully inert (equivalent to no sentinel at all).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SentinelConfig {
    /// Per-worker token-bucket admission.
    pub admission: Option<TokenBucketConfig>,
    /// CoDel sojourn-time shedding on the request queues.
    pub codel: Option<CoDelConfig>,
    /// Brownout right-sizing state machine.
    pub brownout: Option<BrownoutConfig>,
    /// Runtime-level watchdog retry budget.
    pub retry_budget: Option<RetryBudgetConfig>,
}

impl SentinelConfig {
    /// All four guardrails at their defaults, with admission sized to
    /// `rate_per_s` per worker.
    pub fn standard(rate_per_s: f64) -> SentinelConfig {
        SentinelConfig {
            admission: Some(TokenBucketConfig {
                rate_per_s,
                ..TokenBucketConfig::default()
            }),
            codel: Some(CoDelConfig::default()),
            brownout: Some(BrownoutConfig::default()),
            retry_budget: Some(RetryBudgetConfig::default()),
        }
    }

    /// True when every guardrail is disabled.
    pub fn is_inert(&self) -> bool {
        self.admission.is_none()
            && self.codel.is_none()
            && self.brownout.is_none()
            && self.retry_budget.is_none()
    }
}

/// The per-arrival admission chain, composing the sentinel's front-door
/// guardrails in their canonical order:
///
/// 1. **Shed-state policy** — in [`SentinelState::Shed`] only a
///    completely idle worker accepts work. A Shed rejection burns **no**
///    admission token (the bucket is not even consulted), so recovery
///    credit is preserved for the drain.
/// 2. **Token bucket** — the per-worker rate cap.
///
/// CoDel (at dequeue) and the retry budget (in the runtime) sit behind
/// the chain; the brownout controller is carried here so the drive loop
/// has one place to feed completions and read the mask widening.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct AdmissionChain {
    /// Brownout hysteresis controller (`None` when not configured).
    pub brownout: Option<BrownoutController>,
    /// Per-worker admission buckets (`None` when not configured).
    pub buckets: Option<Vec<TokenBucket>>,
}

impl AdmissionChain {
    /// Builds the chain for `workers` workers from an optional sentinel
    /// config (a `None` config yields a fully transparent chain).
    pub fn new(cfg: Option<&SentinelConfig>, workers: usize) -> AdmissionChain {
        AdmissionChain {
            brownout: cfg.and_then(|s| s.brownout).map(BrownoutController::new),
            buckets: cfg.and_then(|s| {
                s.admission
                    .map(|tb| (0..workers).map(|_| TokenBucket::new(tb)).collect())
            }),
        }
    }

    /// Decides one arrival at worker `wi` (whose queue currently holds
    /// `queue_depth` requests, with `busy` inference in flight). Returns
    /// true to admit. Exactly one token is consumed per admitted or
    /// rate-rejected arrival; Shed-state rejections consume none.
    pub fn admit(&mut self, wi: usize, now: SimTime, queue_depth: usize, busy: bool) -> bool {
        let shed_state = self
            .brownout
            .as_ref()
            .is_some_and(|c| !c.admit_in_shed(queue_depth, busy));
        let rate_reject =
            !shed_state && !self.buckets.as_mut().is_none_or(|b| b[wi].try_admit(now));
        !(shed_state || rate_reject)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_enforces_rate_and_burst() {
        let mut b = TokenBucket::new(TokenBucketConfig {
            rate_per_s: 100.0,
            burst: 2.0,
        });
        assert!(b.try_admit(SimTime::ZERO));
        assert!(b.try_admit(SimTime::ZERO));
        assert!(!b.try_admit(SimTime::ZERO));
        // 10 ms at 100/s refills exactly one token.
        let t = SimTime::from_nanos(10_000_000);
        assert!(b.try_admit(t));
        assert!(!b.try_admit(t));
        assert_eq!((b.admitted(), b.rejected()), (3, 2));
    }

    #[test]
    fn token_bucket_burst_caps_refill() {
        let mut b = TokenBucket::new(TokenBucketConfig {
            rate_per_s: 1_000.0,
            burst: 3.0,
        });
        // A long idle period cannot bank more than `burst` tokens.
        let t = SimTime::from_nanos(10_000_000_000);
        for _ in 0..3 {
            assert!(b.try_admit(t));
        }
        assert!(!b.try_admit(t));
    }

    fn test_cfg() -> BrownoutConfig {
        BrownoutConfig {
            window: 8,
            min_samples: 4,
            ..BrownoutConfig::default()
        }
    }

    #[test]
    fn golden_full_cycle_normal_brownout_shed_normal() {
        // S3: the canonical overload-then-recovery trajectory, pinned
        // transition by transition.
        let mut ctl = BrownoutController::new(test_cfg());
        let mut transitions = Vec::new();
        // Healthy traffic: no transitions.
        for _ in 0..6 {
            assert_eq!(ctl.observe(0.2), None);
        }
        // Overload: latencies blow through the deadline.
        for _ in 0..4 {
            if let Some(t) = ctl.observe(1.4) {
                transitions.push(t);
            }
        }
        // Recovery: the system drains and latencies collapse.
        for _ in 0..12 {
            if let Some(t) = ctl.observe(0.1) {
                transitions.push(t);
            }
        }
        use SentinelState::{Brownout, Normal, Shed};
        assert_eq!(
            transitions,
            vec![
                (Normal, Brownout),
                (Brownout, Shed),
                (Shed, Brownout),
                (Brownout, Normal),
            ]
        );
        assert_eq!(ctl.transitions(), 4);
        assert_eq!(ctl.state(), Normal);
    }

    #[test]
    fn one_step_per_observation() {
        // Even an instant catastrophe walks Normal→Brownout→Shed over
        // two observations, never jumping.
        let mut ctl = BrownoutController::new(test_cfg());
        for _ in 0..3 {
            ctl.observe(0.1);
        }
        assert_eq!(
            ctl.observe(5.0),
            Some((SentinelState::Normal, SentinelState::Brownout))
        );
        assert_eq!(
            ctl.observe(5.0),
            Some((SentinelState::Brownout, SentinelState::Shed))
        );
    }

    #[test]
    fn widening_tracks_state() {
        let mut ctl = BrownoutController::new(test_cfg());
        assert_eq!(ctl.widening(), MaskWidening::None);
        for _ in 0..4 {
            ctl.observe(1.4);
        }
        assert_eq!(ctl.state(), SentinelState::Brownout);
        assert_eq!(ctl.widening(), MaskWidening::Factor(150));
        ctl.observe(1.4);
        assert_eq!(ctl.state(), SentinelState::Shed);
        assert_eq!(ctl.widening(), MaskWidening::FullDevice);
    }

    #[test]
    fn shed_admits_only_idle_workers() {
        let mut ctl = BrownoutController::new(test_cfg());
        assert!(ctl.admit_in_shed(10, true)); // Normal: anything goes
        for _ in 0..5 {
            ctl.observe(2.0);
        }
        assert_eq!(ctl.state(), SentinelState::Shed);
        assert!(!ctl.admit_in_shed(1, false));
        assert!(!ctl.admit_in_shed(0, true));
        assert!(ctl.admit_in_shed(0, false));
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn flapping_thresholds_are_rejected() {
        BrownoutController::new(BrownoutConfig {
            exit_brownout: 0.9,
            enter_brownout: 0.7,
            ..BrownoutConfig::default()
        });
    }

    #[test]
    fn standard_config_is_fully_armed() {
        let c = SentinelConfig::standard(125.0);
        assert!(!c.is_inert());
        assert!(SentinelConfig::default().is_inert());
        assert_eq!(c.admission.unwrap().rate_per_s, 125.0);
    }

    #[test]
    fn empty_chain_admits_everything() {
        let mut chain = AdmissionChain::new(None, 4);
        for wi in 0..4 {
            assert!(chain.admit(wi, SimTime::ZERO, 100, true));
        }
    }

    #[test]
    fn shed_state_rejection_burns_no_token() {
        // A chain in Shed with a busy worker must reject without
        // touching the bucket; an idle worker then still has the token.
        let mut chain = AdmissionChain::new(
            Some(&SentinelConfig {
                admission: Some(TokenBucketConfig {
                    rate_per_s: 1.0,
                    burst: 1.0,
                }),
                brownout: Some(BrownoutConfig {
                    window: 4,
                    min_samples: 2,
                    ..BrownoutConfig::default()
                }),
                ..SentinelConfig::default()
            }),
            1,
        );
        let ctl = chain.brownout.as_mut().expect("brownout configured");
        while ctl.state() != SentinelState::Shed {
            ctl.observe(5.0);
        }
        assert!(!chain.admit(0, SimTime::ZERO, 1, true), "Shed must reject");
        let bucket = &chain.buckets.as_ref().expect("bucket")[0];
        assert_eq!(
            (bucket.admitted(), bucket.rejected()),
            (0, 0),
            "Shed rejection consulted the bucket"
        );
        assert!(
            chain.admit(0, SimTime::ZERO, 0, false),
            "idle worker admits"
        );
    }

    #[test]
    fn rate_rejection_counts_on_the_bucket() {
        let mut chain = AdmissionChain::new(
            Some(&SentinelConfig {
                admission: Some(TokenBucketConfig {
                    rate_per_s: 1.0,
                    burst: 1.0,
                }),
                ..SentinelConfig::default()
            }),
            1,
        );
        assert!(chain.admit(0, SimTime::ZERO, 0, false));
        assert!(!chain.admit(0, SimTime::ZERO, 0, false));
        let bucket = &chain.buckets.as_ref().expect("bucket")[0];
        assert_eq!((bucket.admitted(), bucket.rejected()), (1, 1));
    }
}
