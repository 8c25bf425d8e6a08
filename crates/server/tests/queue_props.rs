//! Property tests for the request queue: whatever the push/pop schedule
//! and capacity, the accounting invariants must hold.

use proptest::prelude::*;

use krisp_models::ModelKind;
use krisp_server::{InferenceRequest, RequestQueue};
use krisp_sim::SimTime;

/// A randomized front-end action.
#[derive(Debug, Clone, Copy)]
enum Action {
    Push,
    Pop,
}

fn req(id: u64) -> InferenceRequest {
    InferenceRequest::new(id, ModelKind::Albert, 32, SimTime::from_nanos(id))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn queue_accounting_holds_for_any_schedule(
        actions in proptest::collection::vec(
            prop_oneof![Just(Action::Push), Just(Action::Push), Just(Action::Pop)],
            1..200,
        ),
        bounded in proptest::bool::ANY,
        cap in 1usize..8,
    ) {
        let capacity = bounded.then_some(cap);
        let mut q = match capacity {
            Some(cap) => RequestQueue::bounded(cap),
            None => RequestQueue::new(),
        };
        let mut arrivals = 0u64;
        let mut popped: Vec<u64> = Vec::new();
        let mut last_max_depth = 0;
        for action in actions {
            match action {
                Action::Push => {
                    let accepted = q.push(req(arrivals)).is_ok();
                    arrivals += 1;
                    // A bounded queue rejects exactly at capacity; an
                    // unbounded one never rejects.
                    match capacity {
                        Some(cap) => prop_assert!(q.len() <= cap),
                        None => prop_assert!(accepted),
                    }
                }
                Action::Pop => {
                    if let Some(r) = q.pop() {
                        popped.push(r.id);
                    }
                }
            }
            // The high-water mark is monotone and never below the level.
            prop_assert!(q.max_depth() >= last_max_depth);
            prop_assert!(q.max_depth() >= q.len());
            last_max_depth = q.max_depth();
            // Conservation: every arrival was shed, served, or is waiting.
            prop_assert_eq!(
                q.shed() + popped.len() as u64 + q.len() as u64,
                arrivals
            );
        }
        // FIFO: ids come out strictly increasing (sheds only drop from
        // the tail, never reorder the line).
        prop_assert!(popped.windows(2).all(|w| w[0] < w[1]));
        // Draining yields the still-queued requests, also in order.
        let mut rest: Vec<u64> = Vec::new();
        while let Some(r) = q.pop() {
            rest.push(r.id);
        }
        prop_assert!(rest.windows(2).all(|w| w[0] < w[1]));
        if let (Some(&last), Some(&first)) = (popped.last(), rest.first()) {
            prop_assert!(last < first);
        }
    }
}
