//! Hedged dispatch of straggling requests with first-wins settlement.

use std::collections::{HashMap, HashSet};

use krisp_obs::EventKind;
use krisp_sim::{SimDuration, SimTime};

use super::drive::ClusterEngine;
use crate::queue::InferenceRequest;

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

/// First-wins bookkeeping for hedged requests. The hedge checks
/// themselves wait in the cluster's front-end event queue.
#[derive(Default)]
pub(super) struct HedgeState {
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

impl ClusterEngine<'_> {
    /// A hedge timer fired for `req` (model index `mi`, first routed to
    /// `primary`): if the request is still unresolved, dispatch a second
    /// copy to the best other healthy GPU with queue room. The copy
    /// carries `retried: true` so it can never fan out further.
    pub(super) fn fire_hedge(
        &mut self,
        req: InferenceRequest,
        mi: usize,
        primary: usize,
        now: SimTime,
    ) {
        let id = req.id;
        if self.hedge.done.contains(&id) {
            return; // already settled: nothing to protect
        }
        let Some(to) = self.route_least_outstanding(mi, Some(primary)) else {
            return; // no second healthy GPU
        };
        if !self.gpus[to].workers[mi].queue.has_room() {
            return; // a hedge must not shed admitted work
        }
        self.hedge.live.insert(id, 2);
        self.rob.hedged += 1;
        self.gpus[primary]
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
        self.gpus[to].enqueue(mi, copy, now);
    }
}
