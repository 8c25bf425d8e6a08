use super::*;

use krisp::Policy;
use krisp_models::ModelKind;
use krisp_obs::{EventKind, Obs};
use krisp_runtime::{RequiredCusTable, WatchdogConfig};
use krisp_sim::{FaultPlan, GpuTopology, PowerModel, SimDuration, SimTime};

use crate::metrics::ExperimentResult;
use crate::{Arrival, BrownoutConfig, CoDelConfig, SentinelConfig, TokenBucketConfig};

fn quick(mut cfg: ServerConfig) -> ExperimentResult {
    cfg.warmup = Some(SimDuration::from_millis(40));
    cfg.duration = Some(SimDuration::from_millis(400));
    let db = oracle_perfdb(&cfg.models, &[cfg.batch]);
    run_server(&cfg, &db)
}

#[test]
fn isolated_squeezenet_matches_table3_latency() {
    let r = quick(ServerConfig::closed_loop(
        Policy::MpsDefault,
        vec![ModelKind::Squeezenet],
        32,
    ));
    let p95 = r.max_p95_ms().expect("completions");
    // Table III: 8 ms isolated p95 (jitter adds a little).
    assert!((p95 - 8.0).abs() < 1.0, "p95 {p95}");
    // Throughput ~ 1000/8 = 125 rps.
    assert!(
        (r.total_rps() - 125.0).abs() < 15.0,
        "rps {}",
        r.total_rps()
    );
}

#[test]
fn static_equal_workers_are_symmetric() {
    let r = quick(ServerConfig::closed_loop(
        Policy::StaticEqual,
        vec![ModelKind::Squeezenet; 2],
        32,
    ));
    let a = r.workers[0].inferences() as f64;
    let b = r.workers[1].inferences() as f64;
    assert!((a - b).abs() / a.max(b) < 0.2, "{a} vs {b}");
}

#[test]
fn krisp_i_beats_mps_default_at_four_workers() {
    let models = vec![ModelKind::Squeezenet; 4];
    let mps = quick(ServerConfig::closed_loop(
        Policy::MpsDefault,
        models.clone(),
        32,
    ));
    let krisp = quick(ServerConfig::closed_loop(Policy::KrispI, models, 32));
    assert!(
        krisp.total_rps() > mps.total_rps(),
        "krisp {} vs mps {}",
        krisp.total_rps(),
        mps.total_rps()
    );
}

#[test]
fn colocation_reduces_energy_per_inference() {
    let one = quick(ServerConfig::closed_loop(
        Policy::MpsDefault,
        vec![ModelKind::Squeezenet],
        32,
    ));
    let four = quick(ServerConfig::closed_loop(
        Policy::KrispI,
        vec![ModelKind::Squeezenet; 4],
        32,
    ));
    assert!(four.energy_per_inference().unwrap() < one.energy_per_inference().unwrap());
}

#[test]
fn poisson_arrivals_track_offered_load() {
    let mut cfg = ServerConfig::closed_loop(Policy::MpsDefault, vec![ModelKind::Squeezenet], 32);
    cfg.arrival = Arrival::Poisson {
        rps_per_worker: 40.0,
    };
    cfg.warmup = Some(SimDuration::from_millis(100));
    cfg.duration = Some(SimDuration::from_secs(2));
    let db = oracle_perfdb(&cfg.models, &[32]);
    let r = run_server(&cfg, &db);
    // Well below saturation (125 rps): throughput ~ offered rate...
    assert!((r.total_rps() - 40.0).abs() < 10.0, "rps {}", r.total_rps());
    // ...and latency near isolated (little queueing).
    assert!(r.max_p95_ms().unwrap() < 30.0);
}

#[test]
fn an_idle_window_charges_idle_power_only() {
    // At this rate no request arrives inside the window: the window-end
    // meter reading still fires and charges idle power for the window.
    let mut cfg = ServerConfig::closed_loop(Policy::MpsDefault, vec![ModelKind::Squeezenet], 32);
    cfg.arrival = Arrival::Poisson {
        rps_per_worker: 1e-6,
    };
    let r = quick(cfg);
    assert_eq!(r.total_inferences(), 0);
    assert_eq!(r.busy_cu_seconds, 0.0);
    assert_eq!(r.service_cu_seconds, 0.0);
    let idle_j = PowerModel::MI50.idle_w() * r.window.as_secs_f64();
    assert!(
        (r.energy_j - idle_j).abs() <= 1e-9 * idle_j,
        "{} J vs {idle_j} J",
        r.energy_j
    );
}

#[test]
fn overlap_limit_override_is_respected() {
    let mut cfg = ServerConfig::closed_loop(Policy::KrispI, vec![ModelKind::Squeezenet; 2], 32);
    cfg.overlap_limit = Some(30);
    let r = quick(cfg);
    assert!(r.total_inferences() > 0);
}

#[test]
fn experiments_are_deterministic() {
    let run = || {
        let r = quick(ServerConfig::closed_loop(
            Policy::KrispO,
            vec![ModelKind::Squeezenet; 2],
            32,
        ));
        (r.total_inferences(), r.energy_j.to_bits())
    };
    assert_eq!(run(), run());
}

#[test]
fn model_right_size_matches_table3() {
    let topo = GpuTopology::MI50;
    let rs = model_right_size(ModelKind::Albert, 32, &topo);
    assert!((rs as i32 - 12).abs() <= 2, "albert right-size {rs}");
}

#[test]
fn cu_restriction_inflates_latency_of_hungry_models() {
    let db = oracle_perfdb(&[ModelKind::Vgg19], &[32]);
    let run_at = |n: Option<u16>| {
        let mut cfg = ServerConfig::closed_loop(Policy::MpsDefault, vec![ModelKind::Vgg19], 32);
        cfg.cu_restriction = n;
        cfg.warmup = Some(SimDuration::from_millis(100));
        cfg.duration = Some(SimDuration::from_millis(800));
        run_server(&cfg, &db).max_p95_ms().expect("completions")
    };
    let full = run_at(None);
    let restricted = run_at(Some(15));
    assert!(restricted > 1.5 * full, "{restricted} vs {full}");
}

#[test]
fn windows_auto_size_with_model_speed() {
    let fast = ServerConfig::closed_loop(Policy::MpsDefault, vec![ModelKind::Squeezenet], 32);
    let slow = ServerConfig::closed_loop(Policy::MpsDefault, vec![ModelKind::Resnext101], 32);
    assert!(fast.windows().1 <= slow.windows().1);
}

#[test]
fn kernel_wise_right_sizing_cuts_occupancy_vs_model_wise() {
    // The SecII-D ablation: model-wise right-sizing on kernel-scoped
    // instances requests the model kneepoint for *every* kernel, so
    // tolerant models keep large masks alive through their small
    // kernels. Kernel granularity frees that occupancy (lower energy
    // and more isolation headroom) at comparable throughput.
    let models = vec![ModelKind::Squeezenet; 4];
    let db = oracle_perfdb(&models, &[32]);
    let mut kernel_wise = ServerConfig::closed_loop(Policy::KrispI, models.clone(), 32);
    kernel_wise.warmup = Some(SimDuration::from_millis(40));
    kernel_wise.duration = Some(SimDuration::from_millis(500));
    let mut model_wise = kernel_wise.clone();
    model_wise.right_size_source = RightSizeSource::ModelWise;
    let rk = run_server(&kernel_wise, &db);
    let rm = run_server(&model_wise, &db);
    assert!(
        rk.allocation_utilization() < rm.allocation_utilization(),
        "kernel-wise occupies {:.2} >= model-wise {:.2}",
        rk.allocation_utilization(),
        rm.allocation_utilization()
    );
    assert!(
        rk.total_rps() > 0.9 * rm.total_rps(),
        "throughput collapsed"
    );
}

#[test]
fn higher_mask_generation_cost_slows_krisp() {
    let models = vec![ModelKind::Squeezenet; 2];
    let db = oracle_perfdb(&models, &[32]);
    let mut cheap = ServerConfig::closed_loop(Policy::KrispI, models, 32);
    cheap.warmup = Some(SimDuration::from_millis(40));
    cheap.duration = Some(SimDuration::from_millis(400));
    let mut dear = cheap.clone();
    dear.costs.mask_generation = SimDuration::from_micros(100);
    let fast = run_server(&cheap, &db);
    let slow = run_server(&dear, &db);
    assert!(fast.total_rps() > slow.total_rps());
}

#[test]
fn utilization_grows_with_colocation() {
    let db = oracle_perfdb(&[ModelKind::Squeezenet], &[32]);
    let run_w = |w: usize| {
        let mut cfg = ServerConfig::closed_loop(Policy::KrispI, vec![ModelKind::Squeezenet; w], 32);
        cfg.warmup = Some(SimDuration::from_millis(40));
        cfg.duration = Some(SimDuration::from_millis(400));
        run_server(&cfg, &db).service_utilization()
    };
    let one = run_w(1);
    let four = run_w(4);
    assert!(four > 2.0 * one, "utilization {one:.2} -> {four:.2}");
}

#[test]
fn dynamic_batching_forms_full_batches_under_load() {
    // High sample rate: batches should mostly reach max_batch, and
    // per-sample latency includes the batching wait.
    let mut cfg = ServerConfig::closed_loop(Policy::MpsDefault, vec![ModelKind::Squeezenet], 32);
    cfg.arrival = Arrival::OpenBatched {
        samples_per_s: 3000.0,
        max_batch: 32,
        batch_timeout: SimDuration::from_millis(5),
    };
    cfg.warmup = Some(SimDuration::from_millis(50));
    cfg.duration = Some(SimDuration::from_secs(1));
    let db = oracle_perfdb(&[ModelKind::Squeezenet], &[32]);
    let r = run_server(&cfg, &db);
    // Samples per second near the offered rate (under capacity:
    // 125 batch/s x 32 = 4000 samples/s).
    assert!(
        (r.total_rps() - 3000.0).abs() < 300.0,
        "sample rate {}",
        r.total_rps()
    );
}

#[test]
fn dynamic_batching_times_out_partial_batches() {
    // Trickle of samples: the timeout must fire so nothing starves,
    // and latency stays near timeout + small-batch inference.
    let mut cfg = ServerConfig::closed_loop(Policy::MpsDefault, vec![ModelKind::Squeezenet], 32);
    cfg.arrival = Arrival::OpenBatched {
        samples_per_s: 50.0,
        max_batch: 32,
        batch_timeout: SimDuration::from_millis(4),
    };
    cfg.warmup = Some(SimDuration::from_millis(50));
    cfg.duration = Some(SimDuration::from_secs(1));
    let db = oracle_perfdb(&[ModelKind::Squeezenet], &[32]);
    let r = run_server(&cfg, &db);
    assert!(r.total_inferences() > 20, "samples starved");
    let p95 = r.max_p95_ms().expect("completions");
    // 4 ms batching wait + a small-batch pass (a few ms).
    assert!(p95 < 15.0, "p95 {p95} ms");
}

#[test]
#[should_panic(expected = "at least one worker")]
fn empty_worker_list_rejected() {
    let cfg = ServerConfig::closed_loop(Policy::MpsDefault, vec![], 32);
    run_server(&cfg, &RequiredCusTable::new());
}

#[test]
fn fault_free_runs_report_clean_robustness() {
    let r = quick(ServerConfig::closed_loop(
        Policy::KrispI,
        vec![ModelKind::Squeezenet; 2],
        32,
    ));
    assert!(r.robustness.is_some());
    assert!(r.robustness().is_clean());
}

#[test]
fn enabling_the_watchdog_without_faults_is_bit_identical() {
    let run = |watchdog| {
        let mut cfg = ServerConfig::closed_loop(Policy::KrispI, vec![ModelKind::Squeezenet; 2], 32);
        cfg.watchdog = watchdog;
        quick(cfg)
    };
    let off = run(None);
    let on = run(Some(WatchdogConfig::default()));
    // The kernel timeline must be untouched: same completions at the
    // same instants. (Energy is only compared approximately — the
    // watchdog's stale timers split the power integration into
    // different float-accumulation intervals.)
    assert_eq!(off.workers, on.workers);
    assert!((off.energy_j - on.energy_j).abs() < 1e-6 * off.energy_j);
    assert!(on.robustness().is_clean());
}

#[test]
fn bounded_queue_sheds_under_overload() {
    let mut cfg = ServerConfig::closed_loop(Policy::MpsDefault, vec![ModelKind::Squeezenet], 32);
    cfg.arrival = Arrival::Poisson {
        rps_per_worker: 400.0, // ~3x the model's ~125 rps capacity
    };
    cfg.queue_capacity = Some(2);
    cfg.warmup = Some(SimDuration::from_millis(40));
    cfg.duration = Some(SimDuration::from_millis(400));
    let db = oracle_perfdb(&cfg.models, &[32]);
    let r = run_server(&cfg, &db);
    let rb = r.robustness();
    assert!(rb.shed > 0, "no shedding at 3x overload");
    assert!(r.total_inferences() > 0, "shed everything");
    // The backlog never exceeds the bound, so latency stays within
    // roughly (capacity + 1) service times instead of growing with
    // the run length.
    assert!(
        r.max_p95_ms().unwrap() < 50.0,
        "p95 {}",
        r.max_p95_ms().unwrap()
    );
}

#[test]
fn deadline_drops_requests_that_waited_too_long() {
    let mut cfg = ServerConfig::closed_loop(Policy::MpsDefault, vec![ModelKind::Squeezenet], 32);
    cfg.arrival = Arrival::Poisson {
        rps_per_worker: 400.0,
    };
    cfg.deadline = Some(SimDuration::from_millis(20));
    cfg.warmup = Some(SimDuration::from_millis(40));
    cfg.duration = Some(SimDuration::from_millis(400));
    let db = oracle_perfdb(&cfg.models, &[32]);
    let r = run_server(&cfg, &db);
    let rb = r.robustness();
    assert!(rb.timed_out > 0, "no deadline drops at 3x overload");
    assert!(rb.shed == 0, "unbounded queue must not shed");
    assert!(r.total_inferences() > 0);
}

#[test]
fn inert_sentinel_is_bit_identical_to_none() {
    let run = |sentinel| {
        let mut cfg = ServerConfig::closed_loop(Policy::KrispI, vec![ModelKind::Squeezenet; 2], 32);
        cfg.arrival = Arrival::Poisson {
            rps_per_worker: 60.0,
        };
        cfg.sentinel = sentinel;
        cfg.warmup = Some(SimDuration::from_millis(40));
        cfg.duration = Some(SimDuration::from_millis(400));
        let db = oracle_perfdb(&cfg.models, &[32]);
        run_server(&cfg, &db)
    };
    let off = run(None);
    let on = run(Some(SentinelConfig::default()));
    assert_eq!(off.workers, on.workers);
    assert_eq!(off.flow, on.flow);
    assert_eq!(off.robustness, on.robustness);
}

#[test]
fn admission_control_caps_overload_and_conserves_flow() {
    let mut cfg = ServerConfig::closed_loop(Policy::MpsDefault, vec![ModelKind::Squeezenet], 32);
    cfg.arrival = Arrival::Poisson {
        rps_per_worker: 400.0, // ~3x the model's ~125 rps capacity
    };
    cfg.sentinel = Some(SentinelConfig {
        admission: Some(TokenBucketConfig {
            rate_per_s: 100.0,
            burst: 5.0,
        }),
        ..SentinelConfig::default()
    });
    cfg.warmup = Some(SimDuration::from_millis(40));
    cfg.duration = Some(SimDuration::from_secs(1));
    let db = oracle_perfdb(&cfg.models, &[32]);
    let r = run_server(&cfg, &db);
    let flow = r.flow.clone().expect("flow books");
    assert!(flow.conserved(), "books out of balance: {flow:?}");
    assert!(flow.shed_admission > 0, "no admission shedding at 4x rate");
    // Admitted load sits near the bucket rate, so the queue stays
    // shallow and latency bounded even though the offered load is 4x.
    assert!(r.total_rps() < 120.0, "rps {}", r.total_rps());
    assert!(
        r.max_p95_ms().expect("completions") < 60.0,
        "p95 {}",
        r.max_p95_ms().unwrap()
    );
}

#[test]
fn codel_sheds_on_sojourn_and_conserves_flow() {
    let mut cfg = ServerConfig::closed_loop(Policy::MpsDefault, vec![ModelKind::Squeezenet], 32);
    cfg.arrival = Arrival::Poisson {
        rps_per_worker: 400.0,
    };
    cfg.sentinel = Some(SentinelConfig {
        codel: Some(CoDelConfig {
            target: SimDuration::from_millis(5),
            interval: SimDuration::from_millis(50),
        }),
        ..SentinelConfig::default()
    });
    cfg.warmup = Some(SimDuration::from_millis(40));
    cfg.duration = Some(SimDuration::from_secs(1));
    let db = oracle_perfdb(&cfg.models, &[32]);
    let r = run_server(&cfg, &db);
    let flow = r.flow.clone().expect("flow books");
    assert!(flow.conserved(), "books out of balance: {flow:?}");
    assert!(flow.shed_codel > 0, "CoDel never shed at 3x overload");
    assert!(r.total_inferences() > 0, "shed everything");
}

#[test]
fn brownout_cycle_emits_golden_transition_sequence() {
    // S3 (server level): sustained overload against a brownout-only
    // sentinel walks the canonical cycle — enter Brownout, collapse
    // to Shed, drain, recover. The first four transitions are pinned.
    let mut cfg = ServerConfig::closed_loop(Policy::MpsDefault, vec![ModelKind::Squeezenet], 32);
    cfg.arrival = Arrival::Poisson {
        rps_per_worker: 400.0,
    };
    cfg.deadline = Some(SimDuration::from_millis(25));
    cfg.sentinel = Some(SentinelConfig {
        brownout: Some(BrownoutConfig {
            window: 16,
            min_samples: 8,
            ..BrownoutConfig::default()
        }),
        ..SentinelConfig::default()
    });
    cfg.warmup = Some(SimDuration::from_millis(40));
    cfg.duration = Some(SimDuration::from_secs(2));
    let db = oracle_perfdb(&cfg.models, &[32]);
    let (obs, sink) = Obs::recording(1 << 16);
    let r = run_server_observed(&cfg, &db, obs);
    let transitions: Vec<(u32, u32)> = sink
        .lock()
        .expect("sink")
        .drain()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::SentinelTransition { from, to, .. } => Some((from, to)),
            _ => None,
        })
        .collect();
    assert!(
        transitions.len() >= 4,
        "expected a full cycle, got {transitions:?}"
    );
    assert_eq!(
        &transitions[..4],
        &[(0, 1), (1, 2), (2, 1), (1, 0)],
        "golden Normal→Brownout→Shed→Brownout→Normal cycle"
    );
    let flow = r.flow.clone().expect("flow books");
    assert!(flow.conserved(), "books out of balance: {flow:?}");
    assert!(flow.shed_admission > 0, "Shed state never rejected work");
    assert_eq!(
        r.sentinel.as_ref().expect("sentinel counters").transitions,
        transitions.len() as u64
    );
}

#[test]
fn cu_loss_mid_run_degrades_but_keeps_serving() {
    let topo = GpuTopology::MI50;
    let mut cfg = ServerConfig::closed_loop(Policy::KrispI, vec![ModelKind::Squeezenet; 2], 32);
    cfg.faults = FaultPlan::new().fail_cus(
        SimTime::ZERO + SimDuration::from_millis(100),
        krisp_sim::CuMask::first_n(15, &topo),
    );
    cfg.warmup = Some(SimDuration::from_millis(40));
    cfg.duration = Some(SimDuration::from_millis(400));
    let db = oracle_perfdb(&cfg.models, &[32]);
    let r = run_server(&cfg, &db);
    assert_eq!(r.robustness().failed_cus, 15);
    assert!(r.total_inferences() > 0, "CU loss halted the server");
}
