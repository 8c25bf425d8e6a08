//! The conservative event loop shared by every serving front-end.
//!
//! [`drive`] interleaves three event sources in deterministic priority
//! order — dispatcher **control** events (crash scripts, hedge checks),
//! pre-generated **external arrivals**, and **device** events — against
//! a [`Dispatcher`] implementation that owns all deployment-specific
//! policy (routing, health, hedging, batching). The loop itself contains
//! no policy: it only decides *whose turn it is*, with fixed tie-breaks
//! so same-seed runs replay bit-identically.
//!
//! Per step, earliest timestamp wins, with ties resolved as:
//!
//! 1. **Control** fires when its time is `<=` both the next arrival and
//!    the next device event (a dispatcher with several control sources
//!    merges them in [`Dispatcher::next_control_at`] and applies its own
//!    internal tie-break in [`Dispatcher::step_control`]).
//! 2. **Arrival** fires when its time is `<=` the next device event, so
//!    routing at instant *t* sees every device quiesced up to *t*.
//! 3. Otherwise one **device** event is stepped.
//!
//! The multi-GPU cluster implements [`Dispatcher`]. The single-GPU
//! server does not use [`drive`]: its arrivals are timers on its one
//! runtime (they interleave with kernel completions under the machine's
//! own tie-breaks), so it steps that runtime directly.
//!
//! [`drive`] queries `next_device_at` once per loop iteration, so a
//! multi-device dispatcher should not rescan its whole fleet on every
//! call; [`crate::calendar::EventCalendar`] caches per-device next-event
//! instants and re-queries only the devices a step actually touched,
//! while keeping `next_device_at` the pure query this trait requires.

use krisp_sim::SimTime;

/// One pre-generated open-loop arrival, as produced by
/// [`crate::arrival::poisson_arrivals`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ExternalArrival {
    /// When the request reaches the front-end.
    pub at: SimTime,
    /// Index of the model the request targets.
    pub model: usize,
    /// Request id, assigned in global arrival order.
    pub id: u64,
}

/// Deployment-specific policy behind the shared event loop.
///
/// Implementations own their devices (one runtime machine, or a fleet),
/// their routing and health state, and any control-plane schedules. The
/// contract with [`drive`]:
///
/// - `next_*_at` methods are **pure queries**: calling them must not
///   advance any state.
/// - After `step_control` or `step_device`, the corresponding `next_*`
///   query must reflect the consumed event (no infinite loops on a
///   stuck timestamp).
/// - `on_arrival` is called with arrivals in nondecreasing time order,
///   and only when every device is quiesced up to the arrival instant.
pub trait Dispatcher {
    /// Earliest pending control event (crash, hedge check, …), if any.
    /// A dispatcher with several control sources returns their minimum
    /// and remembers its own preference for same-instant ordering.
    fn next_control_at(&self) -> Option<SimTime>;

    /// Consumes exactly one control event — the one whose time
    /// [`Dispatcher::next_control_at`] just reported.
    fn step_control(&mut self);

    /// Earliest pending device event across all devices, if any.
    fn next_device_at(&self) -> Option<SimTime>;

    /// Steps exactly one device event — the one whose time
    /// [`Dispatcher::next_device_at`] just reported.
    fn step_device(&mut self);

    /// Accepts one external arrival: admit/shed, route, and enqueue.
    fn on_arrival(&mut self, arrival: ExternalArrival);
}

/// Runs `dispatcher` to completion against a time-sorted arrival
/// stream, with the tie-break order documented at module level. Returns
/// when every source is exhausted.
pub fn drive<D: Dispatcher>(dispatcher: &mut D, mut arrivals: Vec<ExternalArrival>) {
    // Pop from the back in time order.
    arrivals.reverse();
    loop {
        let next_device = dispatcher.next_device_at();
        let next_arrival = arrivals.last().map(|a| a.at);
        if let Some(tc) = dispatcher.next_control_at() {
            if [next_device, next_arrival]
                .iter()
                .flatten()
                .all(|&t| tc <= t)
            {
                dispatcher.step_control();
                continue;
            }
        }
        let take_arrival = match (next_device, next_arrival) {
            (None, None) => break,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some(tg), Some(ta)) => ta <= tg,
        };
        if take_arrival {
            let a = arrivals.pop().expect("checked above");
            dispatcher.on_arrival(a);
        } else {
            dispatcher.step_device();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records the interleaving [`drive`] chooses over scripted event
    /// sources, so the tie-break order is pinned by test.
    struct Script {
        control: Vec<SimTime>,
        device: Vec<SimTime>,
        log: Vec<(char, u64)>,
    }

    impl Script {
        fn new(control: &[u64], device: &[u64]) -> Script {
            // Store reversed so pop() yields time order.
            let mut control: Vec<SimTime> =
                control.iter().map(|&n| SimTime::from_nanos(n)).collect();
            let mut device: Vec<SimTime> = device.iter().map(|&n| SimTime::from_nanos(n)).collect();
            control.reverse();
            device.reverse();
            Script {
                control,
                device,
                log: Vec::new(),
            }
        }
    }

    impl Dispatcher for Script {
        fn next_control_at(&self) -> Option<SimTime> {
            self.control.last().copied()
        }
        fn step_control(&mut self) {
            let t = self.control.pop().expect("control pending");
            self.log.push(('c', t.as_nanos()));
        }
        fn next_device_at(&self) -> Option<SimTime> {
            self.device.last().copied()
        }
        fn step_device(&mut self) {
            let t = self.device.pop().expect("device pending");
            self.log.push(('d', t.as_nanos()));
        }
        fn on_arrival(&mut self, arrival: ExternalArrival) {
            self.log.push(('a', arrival.at.as_nanos()));
        }
    }

    fn arrivals(times: &[u64]) -> Vec<ExternalArrival> {
        times
            .iter()
            .enumerate()
            .map(|(id, &n)| ExternalArrival {
                at: SimTime::from_nanos(n),
                model: 0,
                id: id as u64,
            })
            .collect()
    }

    #[test]
    fn ties_resolve_control_then_arrival_then_device() {
        let mut s = Script::new(&[10], &[10, 20]);
        drive(&mut s, arrivals(&[10, 20]));
        assert_eq!(
            s.log,
            vec![('c', 10), ('a', 10), ('d', 10), ('a', 20), ('d', 20)]
        );
    }

    #[test]
    fn strict_time_order_across_sources() {
        let mut s = Script::new(&[15], &[5, 25]);
        drive(&mut s, arrivals(&[10, 30]));
        assert_eq!(
            s.log,
            vec![('d', 5), ('a', 10), ('c', 15), ('d', 25), ('a', 30)]
        );
    }

    #[test]
    fn empty_sources_return_immediately() {
        let mut s = Script::new(&[], &[]);
        drive(&mut s, Vec::new());
        assert!(s.log.is_empty());
    }

    #[test]
    fn trailing_arrivals_drain_after_devices_exhaust() {
        let mut s = Script::new(&[], &[5]);
        drive(&mut s, arrivals(&[10, 20]));
        assert_eq!(s.log, vec![('d', 5), ('a', 10), ('a', 20)]);
    }
}
