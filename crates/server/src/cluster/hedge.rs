//! Hedged dispatch of straggling requests with first-wins settlement.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

use krisp_obs::EventKind;
use krisp_serve_core::InferenceRequest;
use krisp_sim::{SimDuration, SimTime};

use super::drive::{enqueue, route_least_outstanding, Gpu};
use super::result::ClusterRobustness;

/// Hedged dispatch of straggling requests.
///
/// A request that has neither completed nor been dropped `delay` after
/// its arrival gets a second copy dispatched to another healthy GPU.
/// The first copy to complete wins; the loser is cancelled on sight
/// (dropped from its queue, or its completion discarded) and never
/// double-counted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// How long a request may straggle before it is hedged. Pick this
    /// near the deadline minus one service time, so only
    /// deadline-critical requests pay the duplicate work.
    pub delay: SimDuration,
}

/// A scheduled hedge check, min-ordered by fire time: (fire time,
/// request id, model index, primary GPU, original arrival).
pub(super) type HedgeEntry = Reverse<(SimTime, u64, usize, usize, SimTime)>;

/// First-wins bookkeeping for hedged requests.
#[derive(Default)]
pub(super) struct HedgeState {
    /// Pending hedge checks, earliest fire time first.
    pub(super) pending: BinaryHeap<HedgeEntry>,
    /// Requests already settled (first copy completed, or last live copy
    /// dropped). Later copies of these ids are cancelled on sight.
    pub(super) done: HashSet<u64>,
    /// Live copy count per *hedged* request id (unhedged ids are absent
    /// and implicitly have one copy).
    pub(super) live: HashMap<u64, u32>,
}

impl HedgeState {
    /// Settles a copy's completion: `None` if this copy already lost the
    /// race (discard it), `Some(was_hedged)` if it wins the request.
    pub(super) fn settle_completion(&mut self, id: u64) -> Option<bool> {
        if !self.done.insert(id) {
            return None;
        }
        Some(self.live.remove(&id).is_some())
    }

    /// Settles a copy's drop/failure: true when this was the request's
    /// last live copy, i.e. the negative outcome should be counted.
    pub(super) fn settle_negative(&mut self, id: u64) -> bool {
        if self.done.contains(&id) {
            return false;
        }
        match self.live.get_mut(&id) {
            Some(n) if *n > 1 => {
                *n -= 1;
                false
            }
            _ => {
                self.live.remove(&id);
                self.done.insert(id);
                true
            }
        }
    }
}

/// A hedge timer fired for `req` (model index `mi`, first routed to
/// `primary`): if the request is still unresolved, dispatch a second copy
/// to the best other healthy GPU with queue room. The copy carries
/// `retried: true` so it can never fan out further.
pub(super) fn fire_hedge(
    gpus: &mut [Gpu],
    req: InferenceRequest,
    mi: usize,
    primary: usize,
    now: SimTime,
    rob: &mut ClusterRobustness,
    hedge: &mut HedgeState,
) {
    let id = req.id;
    if hedge.done.contains(&id) {
        return; // already settled: nothing to protect
    }
    let Some(to) = route_least_outstanding(gpus, mi, Some(primary)) else {
        return; // no second healthy GPU
    };
    if gpus[to].workers[mi]
        .queue
        .capacity()
        .is_some_and(|cap| gpus[to].workers[mi].queue.len() >= cap)
    {
        return; // a hedge must not shed admitted work
    }
    hedge.live.insert(id, 2);
    rob.hedged += 1;
    gpus[primary]
        .bus
        .emit(now.as_nanos(), || EventKind::RequestHedged {
            request_id: id,
            to_gpu: to as u32,
        });
    let copy = InferenceRequest {
        enqueued_at: now,
        retried: true,
        ..req
    };
    enqueue(&mut gpus[to], mi, copy, now);
}
