//! Fig 2 — resizing a spatial partition: process-scoped reconfiguration
//! (with and without a shadow instance) vs KRISP's kernel-scoped
//! instances, under a workload whose right-size keeps changing.
//!
//! A squeezenet worker's request batch alternates between 32 and 4,
//! moving its model-wise right-size; a CU-hungry resnext101 worker runs
//! alongside, able to profit from any CUs the oscillating worker's
//! partition releases. Four servers handle the drift:
//!
//! * **static-stale** — partition sized once for batch 32, never resized;
//! * **epoch-reload** — Gpulet-style: every epoch, recompute the
//!   right-size; adopting a new size stalls the worker for the
//!   process-restart + model-reload time (Fig 2 top);
//! * **epoch-shadow** — GSLICE-style: the reload happens in a background
//!   shadow instance, so only a ~60 µs hot-swap gap remains, but sizing
//!   still lags by up to an epoch (Fig 2 middle);
//! * **krisp** — kernel-scoped partitions re-size instantly at every
//!   kernel (Fig 2 bottom).

use serde::{Deserialize, Serialize};

use krisp::{KrispAllocator, Profiler};
use krisp_models::{generate_trace, ModelKind, TraceConfig};
use krisp_runtime::{PartitionMode, RequiredCusTable, RtEvent, Runtime, RuntimeConfig};
use krisp_server::model_right_size;
use krisp_sim::{CuMask, GpuTopology, SimDuration, SimTime};

use crate::{header, save_json};

/// Phase length of the batch-size oscillation.
const PHASE: SimDuration = SimDuration::from_millis(1000);
/// Reconfiguration epoch of the process-scoped servers (deliberately
/// incommensurate with the phase, as real epochs are).
const EPOCH: SimDuration = SimDuration::from_millis(1500);
/// Process restart + model reload cost (Fig 2 top; scaled-down Gpulet).
const RELOAD: SimDuration = SimDuration::from_millis(1500);
/// Shadow-instance hot-swap gap (GSLICE reports 50-60 µs).
const SWAP: SimDuration = SimDuration::from_micros(60);
/// Total experiment horizon.
const HORIZON: SimDuration = SimDuration::from_millis(8000);

/// The reconfiguration strategy under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Never resize (sized for the large-batch phase).
    StaticStale,
    /// Epoch-based resize paying the full reload.
    EpochReload,
    /// Epoch-based resize masked by a shadow instance.
    EpochShadow,
    /// Kernel-scoped right-sizing (KRISP-I).
    Krisp,
}

impl Strategy {
    /// All strategies in presentation order.
    pub const ALL: [Strategy; 4] = [
        Strategy::StaticStale,
        Strategy::EpochReload,
        Strategy::EpochShadow,
        Strategy::Krisp,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::StaticStale => "static-stale",
            Strategy::EpochReload => "epoch-reload",
            Strategy::EpochShadow => "epoch-shadow",
            Strategy::Krisp => "krisp",
        }
    }
}

/// One strategy's outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Outcome {
    /// Strategy.
    pub strategy: Strategy,
    /// Samples (not batches) per second completed by the oscillating
    /// worker.
    pub samples_per_s: f64,
    /// Inferences per second completed by the CU-hungry co-runner.
    pub corunner_rps: f64,
    /// Seconds the worker spent stalled in reconfigurations.
    pub downtime_s: f64,
    /// Number of partition reconfigurations performed.
    pub reconfigurations: u32,
    /// Fraction of the compute array allocated over the horizon — stale
    /// oversized partitions keep CUs claimed that nobody can use.
    pub allocation_utilization: f64,
}

/// Which batch the oscillating worker serves at an instant.
fn phase_batch(t: SimTime) -> u32 {
    if (t.as_nanos() / PHASE.as_nanos()).is_multiple_of(2) {
        32
    } else {
        4
    }
}

fn run_strategy(strategy: Strategy, perfdb: &RequiredCusTable) -> Outcome {
    let topo = GpuTopology::MI50;
    let mode = if strategy == Strategy::Krisp {
        PartitionMode::KernelScopedNative
    } else {
        PartitionMode::StreamMasking
    };
    let mut rt = Runtime::new(RuntimeConfig {
        mode,
        allocator: Box::new(KrispAllocator::isolated()),
        perfdb: std::sync::Arc::new(perfdb.clone()),
        jitter_sigma: 0.03,
        ..RuntimeConfig::default()
    });
    let bg = rt.create_stream(); // CU-hungry resnext101 co-runner
    let osc = rt.create_stream(); // the oscillating squeezenet worker

    let corunner = generate_trace(ModelKind::Resnext101, &TraceConfig::default());
    let sq32 = generate_trace(ModelKind::Squeezenet, &TraceConfig::default());
    let sq4 = generate_trace(ModelKind::Squeezenet, &TraceConfig::with_batch(4));
    let rs = |batch: u32| model_right_size(ModelKind::Squeezenet, batch, &topo);
    let bg_rs = model_right_size(ModelKind::Resnext101, 32, &topo);

    // Stream-masking strategies partition the device model-wise: the
    // oscillating worker gets whatever size the strategy believes it
    // needs and the co-runner takes the rest of its own right-size
    // (overlapping where the device is short).
    let set_masks = |rt: &mut Runtime, sq_cus: u16| {
        let masks = krisp::prior_work_partitions(&[sq_cus, bg_rs], &topo);
        rt.set_stream_mask(osc, masks[0]).expect("osc stream");
        rt.set_stream_mask(bg, masks[1]).expect("bg stream");
    };
    if strategy != Strategy::Krisp {
        set_masks(&mut rt, rs(32));
    } else {
        // KRISP needs no pre-partitioning; full default masks.
        let _ = CuMask::full(&topo);
    }

    const T_EPOCH: u64 = 1;
    const T_RESUME: u64 = 2;
    if matches!(strategy, Strategy::EpochReload | Strategy::EpochShadow) {
        rt.add_timer(EPOCH, T_EPOCH);
    }

    let end = SimTime::ZERO + HORIZON;
    let mut believed = rs(32);
    let mut stalled_until = SimTime::ZERO;
    let mut downtime = SimDuration::ZERO;
    let mut reconfigs = 0u32;
    let mut samples = 0u64;
    let mut bg_inferences = 0u64;
    let mut osc_last_tag;
    let bg_last_tag = corunner.len() as u64 - 1;

    // Launch helpers ----------------------------------------------------
    let launch_bg = |rt: &mut Runtime| {
        for (i, k) in corunner.iter().enumerate() {
            rt.launch(bg, k.clone(), i as u64);
        }
    };
    let launch_osc = |rt: &mut Runtime, batch: u32| -> (u64, u32) {
        let trace = if batch == 32 { &sq32 } else { &sq4 };
        for (i, k) in trace.iter().enumerate() {
            rt.launch(osc, k.clone(), i as u64);
        }
        (trace.len() as u64 - 1, batch)
    };

    launch_bg(&mut rt);
    let (mut tag, mut inflight_batch) = launch_osc(&mut rt, phase_batch(SimTime::ZERO));
    osc_last_tag = tag;

    while let Some(ev) = rt.step() {
        match ev {
            RtEvent::KernelCompleted { stream, tag: t, at } if stream == bg
                && t == bg_last_tag => {
                    bg_inferences += 1;
                    if at < end {
                        launch_bg(&mut rt);
                    }
                }
            RtEvent::KernelCompleted { stream, tag: t, at } if stream == osc
                && t == osc_last_tag => {
                    samples += u64::from(inflight_batch);
                    if at < end && at >= stalled_until {
                        (tag, inflight_batch) = launch_osc(&mut rt, phase_batch(at));
                        osc_last_tag = tag;
                    }
                }
            RtEvent::TimerFired { token: T_EPOCH, at } => {
                // Epoch controller: re-profile the current load and adopt
                // the new size if it moved.
                let want = rs(phase_batch(at));
                if want != believed {
                    believed = want;
                    reconfigs += 1;
                    set_masks(&mut rt, want);
                    let stall = match strategy {
                        Strategy::EpochReload => RELOAD,
                        Strategy::EpochShadow => SWAP,
                        _ => SimDuration::ZERO,
                    };
                    downtime += stall;
                    stalled_until = at + stall;
                    rt.add_timer(stall, T_RESUME);
                }
                if at < end {
                    rt.add_timer(EPOCH, T_EPOCH);
                }
            }
            RtEvent::TimerFired { token: T_RESUME, at }
                // Reload finished: resume the worker if it went idle.
                if at < end && at >= stalled_until => {
                    (tag, inflight_batch) = launch_osc(&mut rt, phase_batch(at));
                    osc_last_tag = tag;
                }
            _ => {}
        }
    }
    Outcome {
        strategy,
        samples_per_s: samples as f64 / HORIZON.as_secs_f64(),
        corunner_rps: bg_inferences as f64 / HORIZON.as_secs_f64(),
        downtime_s: downtime.as_secs_f64(),
        reconfigurations: reconfigs,
        allocation_utilization: rt.busy_cu_seconds()
            / (topo.total_cus() as f64 * HORIZON.as_secs_f64()),
    }
}

/// Runs all four strategies and prints the Fig 2 comparison. The
/// Required-CUs table covers both batch sizes the worker alternates
/// between.
pub fn run() -> Vec<Outcome> {
    let perfdb = Profiler::default().build_perfdb(&ModelKind::ALL, &[4, 32]);
    header("Fig 2: partition-resize responsiveness under drifting load");
    println!(
        "(squeezenet batch oscillates 32<->4 every {PHASE}; epoch {EPOCH}, reload {RELOAD})\n"
    );
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "strategy", "samples/s", "corunner/s", "downtime s", "resizes", "alloc%"
    );
    let outcomes: Vec<Outcome> = Strategy::ALL
        .into_iter()
        .map(|s| run_strategy(s, &perfdb))
        .collect();
    for o in &outcomes {
        println!(
            "{:<14} {:>12.0} {:>12.1} {:>12.2} {:>10} {:>9.0}%",
            o.strategy.name(),
            o.samples_per_s,
            o.corunner_rps,
            o.downtime_s,
            o.reconfigurations,
            100.0 * o.allocation_utilization
        );
    }
    save_json("fig02.json", &outcomes);
    println!("\nshape check: reload downtime costs epoch-reload dearly; the shadow");
    println!("instance recovers most of it but still re-sizes only at epochs;");
    println!("KRISP matches the static partition's throughput with zero resizes,");
    println!("zero downtime, and the leanest CU footprint.");
    outcomes
}
