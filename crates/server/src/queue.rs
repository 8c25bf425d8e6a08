//! Inference requests and the bounded request queues of the serving
//! front-end.

use std::collections::VecDeque;

use krisp_models::ModelKind;
use krisp_sim::SimTime;

use crate::codel::{CoDel, CoDelConfig};

/// One client inference request (a batch of inputs for one model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InferenceRequest {
    /// Monotonic request id.
    pub id: u64,
    /// The model to run.
    pub model: ModelKind,
    /// Batch size.
    pub batch: u32,
    /// When the request first reached the front-end (the latency
    /// reference).
    pub arrival: SimTime,
    /// When the request entered its current queue (the deadline and
    /// sojourn reference; a retry re-enqueues with a fresh instant).
    pub enqueued_at: SimTime,
    /// Whether this copy was already moved to another device (a retry or
    /// a hedge copy), so it is never moved again.
    pub retried: bool,
}

impl InferenceRequest {
    /// A fresh request arriving (and enqueued) at `at`.
    pub fn new(id: u64, model: ModelKind, batch: u32, at: SimTime) -> InferenceRequest {
        InferenceRequest {
            id,
            model,
            batch,
            arrival: at,
            enqueued_at: at,
            retried: false,
        }
    }
}

/// A FIFO request queue, one per worker (the paper's shared-memory
/// request queues, simplified to in-process FIFOs since the simulation
/// is single-threaded).
///
/// The queue can be **bounded**: pushes beyond the capacity are rejected
/// (load shedding) and counted, so an overloaded worker degrades by
/// refusing work instead of growing its backlog without limit.
///
/// Independently, the queue can run a **CoDel** sojourn-time control law
/// ([`RequestQueue::with_codel`]): heads whose waiting time stays above
/// the target for a full interval are shed at dequeue, which reacts to
/// *staleness* long before a depth bound trips. Depth sheds and sojourn
/// sheds are counted separately ([`RequestQueue::shed`] vs
/// [`RequestQueue::shed_sojourn`]).
///
/// # Examples
///
/// ```
/// use krisp_models::ModelKind;
/// use krisp_server::{InferenceRequest, RequestQueue};
/// use krisp_sim::SimTime;
///
/// let mut q = RequestQueue::bounded(1);
/// let req = |id| InferenceRequest::new(id, ModelKind::Albert, 32, SimTime::ZERO);
/// assert!(q.push(req(0)).is_ok());
/// assert!(q.push(req(1)).is_err()); // full: shed
/// assert_eq!(q.shed(), 1);
/// assert_eq!(q.pop().unwrap().id, 0);
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct RequestQueue {
    queue: VecDeque<InferenceRequest>,
    max_depth: usize,
    /// `None` = unbounded (the pre-robustness behavior).
    capacity: Option<usize>,
    shed: u64,
    codel: Option<CoDel>,
    shed_sojourn: u64,
}

impl RequestQueue {
    /// Creates an empty unbounded queue.
    pub fn new() -> RequestQueue {
        RequestQueue::default()
    }

    /// Creates an empty queue that sheds pushes beyond `capacity`
    /// waiting requests.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (such a queue could never serve).
    pub fn bounded(capacity: usize) -> RequestQueue {
        assert!(
            capacity > 0,
            "a queue needs capacity for at least one request"
        );
        RequestQueue {
            capacity: Some(capacity),
            ..RequestQueue::default()
        }
    }

    /// Attaches a CoDel sojourn-time dropper, enabled on every
    /// [`RequestQueue::pop_at`] call.
    pub fn with_codel(mut self, cfg: CoDelConfig) -> RequestQueue {
        self.codel = Some(CoDel::new(cfg));
        self
    }

    /// Enqueues a request; a full bounded queue rejects it, returning it
    /// to the caller and counting the shed.
    ///
    /// # Errors
    ///
    /// Returns the request itself when the queue is at capacity.
    pub fn push(&mut self, request: InferenceRequest) -> Result<(), InferenceRequest> {
        if !self.has_room() {
            self.shed += 1;
            return Err(request);
        }
        self.queue.push_back(request);
        self.max_depth = self.max_depth.max(self.queue.len());
        Ok(())
    }

    /// Dequeues the oldest request, bypassing the CoDel law (closed-loop
    /// paths and drains that must not shed).
    pub fn pop(&mut self) -> Option<InferenceRequest> {
        self.queue.pop_front()
    }

    /// Requests currently waiting.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if no request is waiting.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Iterates the waiting requests, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &InferenceRequest> {
        self.queue.iter()
    }

    /// High-water mark of the queue depth (back-pressure indicator).
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// The configured capacity (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Whether a push would be accepted: the queue is unbounded or below
    /// its capacity.
    pub fn has_room(&self) -> bool {
        self.capacity.is_none_or(|cap| self.queue.len() < cap)
    }

    /// Requests rejected because the queue was full.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Requests shed by the CoDel sojourn-time law at dequeue.
    pub fn shed_sojourn(&self) -> u64 {
        self.shed_sojourn
    }

    /// Dequeues the oldest request at instant `now`, applying the CoDel
    /// sojourn law when one is attached: heads the law rejects are
    /// returned in the first tuple slot (for the caller to account/emit
    /// events for) and the served head — if any survives — in the
    /// second. Without CoDel this is exactly [`RequestQueue::pop`] with
    /// an empty drop list. CoDel never drops the last waiting item, so a
    /// non-empty queue always serves something.
    pub fn pop_at(&mut self, now: SimTime) -> (Vec<InferenceRequest>, Option<InferenceRequest>) {
        let mut dropped = Vec::new();
        while let Some(head) = self.queue.pop_front() {
            let Some(codel) = self.codel.as_mut() else {
                return (dropped, Some(head));
            };
            let sojourn = now.saturating_since(head.enqueued_at);
            if codel.on_dequeue(sojourn, now, self.queue.len() + 1) {
                self.shed_sojourn += 1;
                dropped.push(head);
            } else {
                return (dropped, Some(head));
            }
        }
        (dropped, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    use krisp_sim::SimDuration;

    fn req(id: u64) -> InferenceRequest {
        req_at(id, 0)
    }

    fn req_at(id: u64, at_ns: u64) -> InferenceRequest {
        InferenceRequest::new(id, ModelKind::Albert, 32, SimTime::from_nanos(at_ns))
    }

    #[test]
    fn fifo_order() {
        let mut q = RequestQueue::new();
        q.push(req(1)).unwrap();
        q.push(req(2)).unwrap();
        assert_eq!(q.pop().unwrap().id, 1);
        assert_eq!(q.pop().unwrap().id, 2);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn high_water_mark() {
        let mut q = RequestQueue::new();
        q.push(req(1)).unwrap();
        q.push(req(2)).unwrap();
        q.pop();
        q.push(req(3)).unwrap();
        assert_eq!(q.max_depth(), 2);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn unbounded_queue_never_sheds() {
        let mut q = RequestQueue::new();
        for i in 0..10_000 {
            q.push(req(i)).unwrap();
        }
        assert_eq!(q.shed(), 0);
        assert_eq!(q.capacity(), None);
    }

    #[test]
    fn bounded_queue_sheds_at_capacity() {
        let mut q = RequestQueue::bounded(2);
        q.push(req(1)).unwrap();
        assert!(q.has_room());
        q.push(req(2)).unwrap();
        assert!(!q.has_room());
        let rejected = q.push(req(3)).unwrap_err();
        assert_eq!(rejected.id, 3);
        assert_eq!(q.shed(), 1);
        // Draining frees capacity again.
        q.pop();
        assert!(q.has_room());
        q.push(req(4)).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.max_depth(), 2);
        assert_eq!(q.shed(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        RequestQueue::bounded(0);
    }

    #[test]
    fn pop_at_without_codel_is_plain_pop() {
        let mut q = RequestQueue::new();
        q.push(req_at(1, 0)).unwrap();
        let (dropped, served) = q.pop_at(SimTime::from_nanos(u64::MAX / 2));
        assert!(dropped.is_empty());
        assert_eq!(served.unwrap().id, 1);
        assert_eq!(q.shed_sojourn(), 0);
    }

    #[test]
    fn codel_sheds_stale_heads_but_serves_the_last() {
        let cfg = CoDelConfig {
            target: SimDuration::from_micros(10),
            interval: SimDuration::from_micros(100),
        };
        let mut q = RequestQueue::new().with_codel(cfg);
        for i in 0..8 {
            q.push(req_at(i, 0)).unwrap();
        }
        // Every head is wildly stale; still the queue keeps serving one
        // per pop until only sheds remain, and never drops the last.
        let mut served = 0u64;
        let mut now = 1_000_000u64; // 1 ms: far beyond target + interval
        let mut total_dropped = 0u64;
        while !q.is_empty() {
            let (dropped, head) = q.pop_at(SimTime::from_nanos(now));
            total_dropped += dropped.len() as u64;
            if head.is_some() {
                served += 1;
            }
            now += 200_000; // deep in the dropping episode
        }
        assert!(served >= 1, "progress guarantee violated");
        assert!(total_dropped >= 1, "the law never engaged");
        assert_eq!(q.shed_sojourn(), total_dropped);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// S3: CoDel never sheds when the queue is drained faster than
        /// the target — arbitrary arrival gaps, every head popped within
        /// the target sojourn.
        #[test]
        fn codel_never_sheds_fast_drains(
            gaps in proptest::collection::vec(0u64..5_000, 1..40),
            target_us in 10u64..1_000,
        ) {
            let cfg = CoDelConfig {
                target: SimDuration::from_micros(target_us),
                interval: SimDuration::from_micros(target_us * 10),
            };
            let mut q = RequestQueue::new().with_codel(cfg);
            let mut now = 0u64;
            for (i, gap) in gaps.iter().enumerate() {
                now += gap;
                q.push(req_at(i as u64, now)).unwrap();
                // Drain immediately: sojourn is 0 < target.
                let (dropped, served) = q.pop_at(SimTime::from_nanos(now));
                prop_assert!(dropped.is_empty());
                prop_assert_eq!(served.unwrap().id, i as u64);
            }
            prop_assert_eq!(q.shed_sojourn(), 0);
            prop_assert_eq!(q.shed(), 0);
        }

        /// Popping just under the target, even with backlog, never sheds.
        #[test]
        fn codel_never_sheds_below_target_with_backlog(
            n in 2usize..30,
            target_us in 50u64..500,
        ) {
            let cfg = CoDelConfig {
                target: SimDuration::from_micros(target_us),
                interval: SimDuration::from_micros(target_us * 4),
            };
            let mut q = RequestQueue::new().with_codel(cfg);
            for i in 0..n {
                q.push(req_at(i as u64, (i as u64) * 10)).unwrap();
            }
            let mut served = 0usize;
            while let (dropped, Some(head)) = {
                // Serve each head one nanosecond under the target.
                let head_at = q.iter().next().map(|r| r.enqueued_at.as_nanos());
                match head_at {
                    Some(at) => q.pop_at(SimTime::from_nanos(
                        at + target_us * 1_000 - 1,
                    )),
                    None => (Vec::new(), None),
                }
            } {
                prop_assert!(dropped.is_empty());
                let _ = head;
                served += 1;
            }
            prop_assert_eq!(served, n);
            prop_assert_eq!(q.shed_sojourn(), 0);
        }
    }
}
