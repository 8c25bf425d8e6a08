//! The conservation books every serving result carries.
//!
//! Three ledger types, shared verbatim by the single-GPU server and the
//! multi-GPU cluster: [`RobustnessCounters`] (what degraded instead of
//! crashing), [`FlowCounters`] (where every request ended up), and
//! [`SentinelCounters`] (what the guardrail control loops did). The
//! flow books are the invariant the chaos fuzzer audits after every
//! run: no request may be lost or double-counted, whatever faults,
//! sheds, or retries occurred along the way.

use serde::{Deserialize, Serialize};

/// Degradation counters from one experiment: what the server shed,
/// timed out, failed, or worked around instead of crashing.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RobustnessCounters {
    /// Requests rejected because a bounded queue was full.
    pub shed: u64,
    /// Queued requests dropped for exceeding their deadline.
    pub timed_out: u64,
    /// Requests whose final kernel was abandoned by the watchdog.
    pub failed_requests: u64,
    /// Kernels abandoned after exhausting watchdog retries.
    pub failed_kernels: u64,
    /// CUs that had permanently failed by the end of the run.
    pub failed_cus: u16,
    /// Streams that fell back from kernel-scoped to stream-scoped
    /// masking.
    pub stream_fallbacks: u32,
    /// Runtime degradations, stringified in occurrence order.
    pub errors: Vec<String>,
}

impl RobustnessCounters {
    /// True when the run saw no degradation at all.
    pub fn is_clean(&self) -> bool {
        self == &RobustnessCounters::default()
    }
}

/// Whole-run request-flow accounting, counting **every** request from
/// arrival to its final disposition regardless of the measurement
/// window. These are the conservation books the chaos fuzzer audits:
/// no request may be lost or double-counted.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FlowCounters {
    /// Requests that arrived at the front-end.
    pub arrivals: u64,
    /// Requests admitted past the guardrails into a queue or worker.
    pub admitted: u64,
    /// Admitted requests that completed (inside the window or not).
    pub completed: u64,
    /// Arrivals rejected by token-bucket admission or Shed-state policy.
    pub shed_admission: u64,
    /// Arrivals rejected because a bounded queue was at capacity.
    pub shed_capacity: u64,
    /// Admitted requests shed by CoDel for excessive sojourn time.
    pub shed_codel: u64,
    /// Admitted requests dropped for exceeding their deadline in queue.
    pub timed_out: u64,
    /// Admitted requests whose final kernel was abandoned.
    pub failed: u64,
    /// Admitted requests still queued or executing when the run ended.
    pub in_flight_at_end: u64,
}

impl FlowCounters {
    /// True when the books balance: every arrival is accounted for
    /// exactly once.
    ///
    /// ```
    /// use krisp_server::FlowCounters;
    ///
    /// let f = FlowCounters { arrivals: 5, admitted: 4, completed: 3,
    ///     shed_admission: 1, in_flight_at_end: 1, ..FlowCounters::default() };
    /// assert!(f.conserved());
    /// ```
    pub fn conserved(&self) -> bool {
        self.arrivals == self.admitted + self.shed_admission + self.shed_capacity
            && self.admitted
                == self.completed
                    + self.shed_codel
                    + self.timed_out
                    + self.failed
                    + self.in_flight_at_end
    }
}

/// Sentinel guardrail activity over one run (shed counts live in
/// [`FlowCounters`]; these are the control-loop internals).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SentinelCounters {
    /// Brownout state-machine transitions taken.
    pub transitions: u64,
    /// Watchdog retries granted by the retry budget.
    pub retry_budget_granted: u64,
    /// Watchdog retries denied by the retry budget.
    pub retry_budget_denied: u64,
    /// Final brownout state code (0 normal, 1 brownout, 2 shed).
    pub final_state: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_conservation_detects_lost_requests() {
        let f = FlowCounters {
            arrivals: 10,
            admitted: 9, // one arrival vanished without a shed count
            completed: 9,
            ..FlowCounters::default()
        };
        assert!(!f.conserved());
        assert!(FlowCounters::default().conserved());
    }

    #[test]
    fn default_counters_read_clean() {
        assert!(RobustnessCounters::default().is_clean());
        let r = RobustnessCounters {
            failed_kernels: 1,
            ..RobustnessCounters::default()
        };
        assert!(!r.is_clean());
    }
}
