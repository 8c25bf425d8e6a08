use krisp_models::ModelKind;
use krisp_obs::{EventKind, Obs};
use krisp_runtime::WatchdogConfig;
use krisp_sim::{FaultPlan, SimDuration, SimTime};

use super::drive::Front;
use super::*;
use crate::experiment::oracle_perfdb;

fn quick(gpus: usize, rate: f64, routing: Routing) -> ClusterResult {
    let models = vec![ModelKind::Squeezenet, ModelKind::Albert];
    let db = oracle_perfdb(&models, &[32]);
    let mut cfg = ClusterConfig::new(gpus, models, rate);
    cfg.routing = routing;
    cfg.horizon = SimDuration::from_secs(2);
    run_cluster(&cfg, &db)
}

#[test]
fn light_load_completes_everything_with_low_latency() {
    let r = quick(2, 20.0, Routing::LeastOutstanding);
    // ~20 rps x 2 models x 2 s = ~80 requests.
    assert!(r.completed > 50, "{r:?}");
    // No queueing to speak of: p95 near the slower model's isolated
    // latency (albert, 27 ms).
    assert!(r.p95_ms < 40.0, "{r:?}");
    assert!(r.robustness.is_clean(), "{:?}", r.robustness);
}

#[test]
fn more_gpus_raise_saturated_throughput() {
    // Offered load far above one GPU's capacity.
    let one = quick(1, 400.0, Routing::LeastOutstanding);
    let two = quick(2, 400.0, Routing::LeastOutstanding);
    assert!(
        two.rps > 1.6 * one.rps,
        "1 gpu {:.0} rps vs 2 gpus {:.0} rps",
        one.rps,
        two.rps
    );
}

#[test]
fn least_outstanding_beats_round_robin_on_tail_latency() {
    let rr = quick(2, 150.0, Routing::RoundRobin);
    let lo = quick(2, 150.0, Routing::LeastOutstanding);
    assert!(
        lo.p95_ms <= rr.p95_ms * 1.1,
        "least-outstanding p95 {:.1} vs round-robin {:.1}",
        lo.p95_ms,
        rr.p95_ms
    );
}

#[test]
fn routing_balances_across_gpus() {
    // Sustained load: outstanding counts differ at most arrival
    // instants, so least-outstanding spreads work evenly. (At a
    // trickle the deterministic lowest-index tie-break concentrates
    // on GPU 0 by design — see the tie-break test.)
    let r = quick(4, 400.0, Routing::LeastOutstanding);
    let max = *r.per_gpu.iter().max().expect("gpus");
    let min = *r.per_gpu.iter().min().expect("gpus");
    assert!(
        (max - min) as f64 / max as f64 <= 0.3,
        "imbalance {:?}",
        r.per_gpu
    );
}

#[test]
fn cluster_runs_are_deterministic() {
    let a = quick(2, 100.0, Routing::LeastOutstanding);
    let b = quick(2, 100.0, Routing::LeastOutstanding);
    assert_eq!(a, b);
    assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
}

#[test]
fn least_outstanding_ties_resolve_to_lowest_index() {
    // At a trickle (~1 s gaps vs an 8 ms service time), every
    // request completes before the next arrives, so every routing
    // decision is an all-idle tie: with the deterministic
    // lowest-index rule, GPU 0 serves everything.
    let models = vec![ModelKind::Squeezenet];
    let db = oracle_perfdb(&models, &[32]);
    let mut cfg = ClusterConfig::new(3, models, 1.0);
    cfg.horizon = SimDuration::from_secs(8);
    let r = run_cluster(&cfg, &db);
    assert!(r.completed > 3, "{r:?}");
    assert_eq!(r.per_gpu[1], 0, "{:?}", r.per_gpu);
    assert_eq!(r.per_gpu[2], 0, "{:?}", r.per_gpu);
}

#[test]
fn breaker_ejects_failing_gpu_and_recovers() {
    let models = vec![ModelKind::Squeezenet];
    let db = oracle_perfdb(&models, &[32]);
    let mut cfg = ClusterConfig::new(2, models, 60.0);
    cfg.horizon = SimDuration::from_secs(2);
    // GPU 0 turns into a brick for half a second: kernels straggle
    // 1000x, the watchdog abandons them, the breaker trips.
    cfg.faults = vec![(
        0,
        FaultPlan::new().straggle_all(
            SimTime::ZERO + SimDuration::from_millis(200),
            1000.0,
            SimDuration::from_millis(500),
        ),
    )];
    cfg.watchdog = Some(WatchdogConfig {
        max_retries: 1,
        ..WatchdogConfig::default()
    });
    cfg.breaker = Some(BreakerConfig {
        trip_after: 2,
        restart: SimDuration::from_millis(600),
    });
    let r = run_cluster(&cfg, &db);
    assert!(r.robustness.failed_kernels > 0, "{:?}", r.robustness);
    assert_eq!(r.robustness.breaker_trips, 1, "{:?}", r.robustness);
    assert!(r.completed > 50, "{r:?}");
    // GPU 1 carried the load while GPU 0 was out.
    assert!(r.per_gpu[1] > r.per_gpu[0], "{:?}", r.per_gpu);
}

#[test]
fn crashed_gpu_backlog_is_retried_on_survivors() {
    let models = vec![ModelKind::Squeezenet];
    let db = oracle_perfdb(&models, &[32]);
    // Past cluster capacity (~250 rps), so both GPUs carry a backlog
    // when the crash hits.
    let mut cfg = ClusterConfig::new(2, models, 300.0);
    cfg.horizon = SimDuration::from_secs(2);
    cfg.crash = Some(CrashScript {
        gpu: 1,
        at: SimTime::ZERO + SimDuration::from_millis(500),
        down_for: SimDuration::from_millis(500),
    });
    let r = run_cluster(&cfg, &db);
    assert_eq!(r.robustness.crashes, 1);
    assert!(r.robustness.retried > 0, "{:?}", r.robustness);
    assert!(r.robustness.failed_requests >= 1, "{:?}", r.robustness);
    assert!(r.completed > 100, "{r:?}");
    // The survivor out-serves the crashed GPU over the run.
    assert!(r.per_gpu[0] > r.per_gpu[1], "{:?}", r.per_gpu);
}

#[test]
fn worker_crash_event_sequence_is_pinned() {
    // Golden sequence for the crash scenario on the crashed GPU's
    // track: restart-down, then healthy again — with every retry
    // naming the surviving GPU.
    let models = vec![ModelKind::Squeezenet];
    let db = oracle_perfdb(&models, &[32]);
    let mut cfg = ClusterConfig::new(2, models, 300.0);
    cfg.horizon = SimDuration::from_secs(2);
    cfg.crash = Some(CrashScript {
        gpu: 1,
        at: SimTime::ZERO + SimDuration::from_millis(500),
        down_for: SimDuration::from_millis(500),
    });
    let (obs, sink) = Obs::recording(1 << 20);
    run_cluster_observed(&cfg, &db, obs);
    let events = sink.lock().expect("sink").drain();
    let gpu1: Vec<&EventKind> = events
        .iter()
        .filter(|e| e.worker == 1)
        .map(|e| &e.kind)
        .collect();
    let health: Vec<u32> = gpu1
        .iter()
        .filter_map(|k| match k {
            EventKind::WorkerHealth { state, .. } => Some(*state),
            _ => None,
        })
        .collect();
    assert_eq!(
        health,
        vec![GpuHealth::Restarting.code(), GpuHealth::Healthy.code()],
        "health transitions {health:?}"
    );
    let retries: Vec<u32> = gpu1
        .iter()
        .filter_map(|k| match k {
            EventKind::RequestRetried { to_gpu, .. } => Some(*to_gpu),
            _ => None,
        })
        .collect();
    assert!(!retries.is_empty());
    assert!(retries.iter().all(|&g| g == 0), "{retries:?}");
    // No breaker is configured: the crash recovery must not claim one.
    assert!(!gpu1.iter().any(|k| matches!(
        k,
        EventKind::BreakerTripped { .. } | EventKind::BreakerReset { .. }
    )));
}

#[test]
fn deadline_retries_then_drops_under_asymmetric_load() {
    let models = vec![ModelKind::Squeezenet];
    let db = oracle_perfdb(&models, &[32]);
    // Single GPU far over capacity with a tight deadline: retries are
    // impossible (no second GPU), so expired requests drop.
    let mut cfg = ClusterConfig::new(1, models, 400.0);
    cfg.horizon = SimDuration::from_secs(1);
    cfg.deadline = Some(SimDuration::from_millis(30));
    let r = run_cluster(&cfg, &db);
    assert!(r.robustness.timed_out > 0, "{:?}", r.robustness);
    assert_eq!(r.robustness.retried, 0);
    assert!(r.completed > 0);
}

#[test]
fn bounded_queues_shed_cluster_overload() {
    let models = vec![ModelKind::Squeezenet];
    let db = oracle_perfdb(&models, &[32]);
    let mut cfg = ClusterConfig::new(1, models, 400.0);
    cfg.horizon = SimDuration::from_secs(1);
    cfg.queue_capacity = Some(2);
    let r = run_cluster(&cfg, &db);
    assert!(r.robustness.shed > 0, "{:?}", r.robustness);
    assert!(r.completed > 0);
    assert!(r.p95_ms < 50.0, "{r:?}");
    assert!(r.conserved(), "{r:?}");
}

#[test]
fn cluster_books_conserve_across_scenarios() {
    // The same conservation identity the chaos fuzzer audits, over a
    // spread of stressors: clean, overloaded+bounded, crash+retry.
    for r in [
        quick(2, 20.0, Routing::LeastOutstanding),
        quick(1, 400.0, Routing::RoundRobin),
        {
            let models = vec![ModelKind::Squeezenet];
            let db = oracle_perfdb(&models, &[32]);
            let mut cfg = ClusterConfig::new(2, models, 300.0);
            cfg.horizon = SimDuration::from_secs(1);
            cfg.queue_capacity = Some(8);
            cfg.deadline = Some(SimDuration::from_millis(40));
            cfg.crash = Some(CrashScript {
                gpu: 1,
                at: SimTime::ZERO + SimDuration::from_millis(300),
                down_for: SimDuration::from_millis(300),
            });
            run_cluster(&cfg, &db)
        },
    ] {
        assert!(r.conserved(), "books out of balance: {r:?}");
        assert_eq!(
            r.arrivals as usize,
            r.completed
                + r.drained as usize
                + r.leftover as usize
                + r.robustness.shed as usize
                + r.robustness.timed_out as usize
                + r.robustness.failed_requests as usize
        );
    }
}

#[test]
fn hedging_rescues_stragglers_and_first_wins() {
    let models = vec![ModelKind::Squeezenet];
    let db = oracle_perfdb(&models, &[32]);
    let mut cfg = ClusterConfig::new(2, models, 120.0);
    cfg.horizon = SimDuration::from_secs(2);
    // GPU 0 turns into a brick for most of the run: requests stuck
    // behind its wedged in-flight kernel are deadline-critical.
    cfg.faults = vec![(
        0,
        FaultPlan::new().straggle_all(
            SimTime::ZERO + SimDuration::from_millis(200),
            1000.0,
            SimDuration::from_millis(1500),
        ),
    )];
    cfg.hedge = Some(HedgeConfig {
        delay: SimDuration::from_millis(30),
    });
    let r = run_cluster(&cfg, &db);
    assert!(r.robustness.hedged > 0, "{:?}", r.robustness);
    assert!(r.robustness.hedge_wins > 0, "{:?}", r.robustness);
    assert!(
        r.robustness.hedge_wins <= r.robustness.hedged,
        "{:?}",
        r.robustness
    );
    assert!(r.conserved(), "{r:?}");
    // The healthy GPU carried the hedged copies.
    assert!(r.per_gpu[1] > r.per_gpu[0], "{:?}", r.per_gpu);
}

#[test]
fn hedging_without_stragglers_changes_nothing() {
    let models = vec![ModelKind::Squeezenet, ModelKind::Albert];
    let db = oracle_perfdb(&models, &[32]);
    let run = |hedge| {
        let mut cfg = ClusterConfig::new(2, models.clone(), 20.0);
        cfg.horizon = SimDuration::from_secs(2);
        cfg.hedge = hedge;
        run_cluster(&cfg, &db)
    };
    let off = run(None);
    // Requests complete in ~10-30 ms, far under the hedge delay: no
    // hedge ever fires and the run is bit-identical.
    let on = run(Some(HedgeConfig {
        delay: SimDuration::from_millis(500),
    }));
    assert_eq!(off, on);
    assert_eq!(on.robustness.hedged, 0);
}

#[test]
fn front_events_at_one_instant_order_crash_hedge_arrival() {
    let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
    let crash = Front::Crash;
    let hedge = Front::Hedge {
        id: 0,
        mi: 0,
        primary: 0,
        arrival: t(0),
    };
    let arrival = Front::Arrival { model: 0, id: 0 };
    // Equal instant: the crash lands first, then the hedge check, then
    // the arrival (so routing at that instant avoids the dead GPU).
    assert!((t(5), crash) < (t(5), hedge));
    assert!((t(5), hedge) < (t(5), arrival));
    // An earlier instant wins whatever the variants.
    let all = [crash, hedge, arrival];
    for early in all {
        for late in all {
            assert!((t(4), early) < (t(5), late), "{early:?} vs {late:?}");
        }
    }
}

fn faulty(faults: Vec<usize>) -> ClusterResult {
    let models = vec![ModelKind::Squeezenet];
    let db = oracle_perfdb(&models, &[32]);
    let mut cfg = ClusterConfig::new(2, models, 20.0);
    cfg.horizon = SimDuration::from_millis(100);
    cfg.faults = faults.into_iter().map(|g| (g, FaultPlan::new())).collect();
    run_cluster(&cfg, &db)
}

#[test]
#[should_panic(expected = "fault plan names GPU 2 of 2")]
fn fault_plan_for_a_missing_gpu_is_rejected() {
    faulty(vec![2]);
}

#[test]
#[should_panic(expected = "two fault plans for GPU 1")]
fn two_fault_plans_for_one_gpu_are_rejected() {
    faulty(vec![1, 0, 1]);
}
