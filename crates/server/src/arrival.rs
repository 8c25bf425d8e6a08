//! Arrival processes: how requests reach the serving front-end.
//!
//! Two deterministic generators share this module. [`exp_sample`] draws
//! one inter-arrival gap for open-loop processes that interleave with
//! the event loop (the single-GPU server schedules each next arrival as
//! a runtime timer). [`poisson_arrivals`] pre-generates a whole merged
//! multi-model stream up front (the cluster's regime, where arrivals are
//! consumed against a conservative multi-machine clock). Both draw from
//! seeded [`StdRng`]s only, so the same seed always yields the same
//! stream — the bit-identity property the golden fixtures pin.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use krisp_sim::{SimDuration, SimTime};

/// One pre-generated open-loop arrival, as produced by
/// [`poisson_arrivals`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ExternalArrival {
    /// When the request reaches the front-end.
    pub at: SimTime,
    /// Index of the model the request targets.
    pub model: usize,
    /// Request id, assigned in global arrival order.
    pub id: u64,
}

/// How requests arrive at the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Maximum load: each worker always has a next request (the paper's
    /// evaluation regime, §VI-A).
    ClosedLoop,
    /// Open loop: requests arrive per worker as a Poisson process.
    Poisson {
        /// Mean arrival rate per worker, requests per second.
        rps_per_worker: f64,
    },
    /// Open loop with **dynamic batching**: individual samples arrive per
    /// worker as a Poisson process and the front-end forms a batch when
    /// either `max_batch` samples are waiting or the oldest sample has
    /// waited `batch_timeout`. Latencies are per *sample* (queueing +
    /// batching + inference), and the kernel trace really changes with
    /// the formed batch size — the dynamic behaviour §V argues static
    /// traces cannot capture.
    OpenBatched {
        /// Mean sample arrival rate per worker, samples per second.
        samples_per_s: f64,
        /// Largest batch the front-end will form.
        max_batch: u32,
        /// Longest a sample may wait before a partial batch is formed.
        batch_timeout: SimDuration,
    },
}

/// One inter-arrival gap of a Poisson process with mean rate
/// `rate_per_s`, via inverse-transform sampling. The draw excludes 0 so
/// the gap is always positive.
pub(crate) fn exp_sample(rng: &mut StdRng, rate_per_s: f64) -> SimDuration {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    SimDuration::from_secs_f64(-u.ln() / rate_per_s)
}

/// Pre-generates the merged arrival stream for `models` independent
/// Poisson processes of `rps_per_model` each, over `horizon`.
///
/// The draw order is fixed — each model's stream is generated to
/// exhaustion before the next, then the merge is sorted by
/// `(time, model)` and request ids are assigned in final arrival
/// order — so a given `seed` always produces the identical stream.
/// Returned ascending in `(time, model, id)` order.
pub fn poisson_arrivals(
    seed: u64,
    models: usize,
    rps_per_model: f64,
    horizon: SimDuration,
) -> Vec<ExternalArrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arrivals: Vec<(SimTime, usize)> = Vec::new();
    for mi in 0..models {
        let mut t = SimTime::ZERO;
        loop {
            t += exp_sample(&mut rng, rps_per_model);
            if t.as_nanos() > horizon.as_nanos() {
                break;
            }
            arrivals.push((t, mi));
        }
    }
    arrivals.sort();
    arrivals
        .into_iter()
        .enumerate()
        .map(|(id, (at, model))| ExternalArrival {
            at,
            model,
            id: id as u64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_sample_is_positive_and_deterministic() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let ga = exp_sample(&mut a, 250.0);
            assert_eq!(ga, exp_sample(&mut b, 250.0));
            assert!(ga.as_nanos() > 0);
        }
    }

    #[test]
    fn poisson_stream_is_sorted_with_sequential_ids() {
        let s = poisson_arrivals(42, 3, 200.0, SimDuration::from_secs(1));
        assert!(!s.is_empty());
        for (i, w) in s.windows(2).enumerate() {
            assert!(w[0].at <= w[1].at, "unsorted at {i}");
        }
        for (i, a) in s.iter().enumerate() {
            assert_eq!(a.id, i as u64);
            assert!(a.model < 3);
            assert!(a.at.as_nanos() <= SimDuration::from_secs(1).as_nanos());
        }
        // Same seed, same stream; different seed, different stream.
        assert_eq!(s, poisson_arrivals(42, 3, 200.0, SimDuration::from_secs(1)));
        assert_ne!(s, poisson_arrivals(43, 3, 200.0, SimDuration::from_secs(1)));
    }

    #[test]
    fn poisson_rate_is_roughly_honored() {
        let s = poisson_arrivals(9, 1, 1_000.0, SimDuration::from_secs(4));
        let n = s.len() as f64; // expect ~4000
        assert!((3_500.0..=4_500.0).contains(&n), "got {n}");
    }
}
