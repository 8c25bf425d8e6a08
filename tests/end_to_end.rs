//! Integration tests spanning the whole stack: profiler → Required-CUs
//! table → runtime interception → packet processor → inference server.

use krisp_suite::core::{KrispAllocator, Policy, Profiler};
use krisp_suite::models::{generate_trace, ModelKind, TraceConfig};
use krisp_suite::obs::{EventKind, Obs};
use krisp_suite::runtime::{
    EmulationCosts, PartitionMode, RequiredCusTable, RtEvent, Runtime, RuntimeConfig,
};
use krisp_suite::server::{oracle_perfdb, run_server, Arrival, ServerConfig};
use krisp_suite::sim::{KernelDesc, SimDuration};

fn quick_cfg(policy: Policy, models: Vec<ModelKind>) -> ServerConfig {
    let mut cfg = ServerConfig::closed_loop(policy, models, 32);
    cfg.warmup = Some(SimDuration::from_millis(40));
    cfg.duration = Some(SimDuration::from_millis(400));
    cfg
}

#[test]
fn profile_persist_load_serve_pipeline() {
    // 1. Profile a small model with the real measurement sweep.
    let profiler = Profiler::default();
    let db = profiler.build_perfdb(&[ModelKind::Squeezenet], &[32]);
    assert!(!db.is_empty());

    // 2. Persist and reload, as a library perf database would be.
    let path = std::env::temp_dir().join("krisp_e2e_perfdb.json");
    db.save(&path).expect("save perfdb");
    let db = RequiredCusTable::load(&path).expect("load perfdb");
    let _ = std::fs::remove_file(&path);

    // 3. Serve with KRISP-I using the measured table.
    let r = run_server(
        &quick_cfg(Policy::KrispI, vec![ModelKind::Squeezenet; 2]),
        &db,
    );
    assert!(r.total_inferences() > 20);
    let p95 = r.max_p95_ms().expect("completions");
    // Two right-sized squeezenets barely interfere: near-isolated p95.
    assert!(p95 < 2.0 * 8.0, "p95 {p95} ms");
}

#[test]
fn measured_profile_tracks_ground_truth_knees() {
    let profiler = Profiler::default();
    let db = profiler.build_perfdb(&[ModelKind::Alexnet], &[32]);
    for k in generate_trace(ModelKind::Alexnet, &TraceConfig::default()) {
        let measured = db.lookup(&k).expect("profiled") as i32;
        let truth = k.parallelism as i32;
        assert!(
            (measured - truth).abs() <= truth / 2 + 3,
            "{}: measured {measured} vs knee {truth}",
            k.name
        );
    }
}

#[test]
fn krisp_i_masks_never_overlap_across_streams() {
    let mut config = RuntimeConfig {
        mode: PartitionMode::KernelScopedNative,
        allocator: Box::new(KrispAllocator::isolated()),
        ..RuntimeConfig::default()
    };
    let ka = KernelDesc::new("a", 5.0e6, 25).with_grid_threads(1);
    let kb = KernelDesc::new("b", 5.0e6, 25).with_grid_threads(2);
    let perfdb = std::sync::Arc::make_mut(&mut config.perfdb);
    perfdb.insert(&ka, 25);
    perfdb.insert(&kb, 25);
    let mut rt = Runtime::new(config);
    let sa = rt.create_stream();
    let sb = rt.create_stream();
    for i in 0..10 {
        rt.launch(sa, ka.clone(), i);
        rt.launch(sb, kb.clone(), i);
    }
    let mut running: Vec<(u32, krisp_suite::sim::CuMask)> = Vec::new();
    while let Some(ev) = rt.step() {
        match ev {
            RtEvent::KernelStarted { stream, mask, .. } => {
                for (other, m) in &running {
                    assert!(
                        *other == stream.0 || !m.intersects(&mask),
                        "isolated kernels share CUs"
                    );
                }
                running.retain(|(s, _)| *s != stream.0);
                running.push((stream.0, mask));
            }
            RtEvent::KernelCompleted { stream, .. } => {
                running.retain(|(s, _)| *s != stream.0);
            }
            _ => {}
        }
    }
}

#[test]
fn emulation_overhead_accounting_identity() {
    // L_over == per-kernel emulation cost x kernel count, measured the
    // way the paper measures it (baseline vs emulated-with-full-masks).
    let costs = EmulationCosts::default();
    let empty = RequiredCusTable::new();
    let one_pass = |mode: PartitionMode| {
        let mut rt = Runtime::new(RuntimeConfig {
            mode,
            jitter_sigma: 0.0,
            ..RuntimeConfig::default()
        });
        let s = rt.create_stream();
        let trace = generate_trace(ModelKind::Squeezenet, &TraceConfig::default());
        for (i, k) in trace.iter().enumerate() {
            rt.launch(s, k.clone(), i as u64);
        }
        rt.run_to_idle();
        (rt.now(), trace.len())
    };
    let _ = &empty;
    let (real, kernels) = one_pass(PartitionMode::StreamMasking);
    let (emu, _) = one_pass(PartitionMode::KernelScopedEmulated(costs));
    assert_eq!(
        emu.saturating_since(real),
        costs.per_kernel() * kernels as u64
    );
}

#[test]
fn native_krisp_is_cheaper_than_emulated_krisp() {
    let db = oracle_perfdb(&[ModelKind::Squeezenet], &[32]);
    let run = |mode: PartitionMode| {
        let mut rt = Runtime::new(RuntimeConfig {
            mode,
            allocator: Box::new(KrispAllocator::isolated()),
            perfdb: std::sync::Arc::new(db.clone()),
            jitter_sigma: 0.0,
            ..RuntimeConfig::default()
        });
        let s = rt.create_stream();
        for (i, k) in generate_trace(ModelKind::Squeezenet, &TraceConfig::default())
            .iter()
            .enumerate()
        {
            rt.launch(s, k.clone(), i as u64);
        }
        rt.run_to_idle();
        rt.now()
    };
    let native = run(PartitionMode::KernelScopedNative);
    let emulated = run(PartitionMode::KernelScopedEmulated(
        EmulationCosts::default(),
    ));
    assert!(native < emulated);
}

#[test]
fn every_policy_serves_a_mixed_pair() {
    let models = vec![ModelKind::Albert, ModelKind::Squeezenet];
    let db = oracle_perfdb(&models, &[32]);
    for policy in Policy::ALL {
        let r = run_server(&quick_cfg(policy, models.clone()), &db);
        assert!(
            r.workers.iter().all(|w| w.inferences() > 0),
            "{policy}: a worker starved"
        );
        assert!(r.energy_per_inference().expect("completions") > 0.0);
    }
}

#[test]
fn open_loop_latency_degrades_towards_saturation() {
    let db = oracle_perfdb(&[ModelKind::Squeezenet], &[32]);
    let run_at = |rate: f64| {
        let mut cfg = quick_cfg(Policy::MpsDefault, vec![ModelKind::Squeezenet]);
        cfg.arrival = Arrival::Poisson {
            rps_per_worker: rate,
        };
        cfg.duration = Some(SimDuration::from_secs(2));
        run_server(&cfg, &db).max_p95_ms().expect("completions")
    };
    let light = run_at(20.0);
    let heavy = run_at(110.0); // capacity is ~125 rps
    assert!(heavy > light, "queueing should inflate tail latency");
}

#[test]
fn fig16_limit_endpoints_match_krisp_variants() {
    // overlap limit 0 == KRISP-I and limit 60 == KRISP-O by construction.
    let models = vec![ModelKind::Squeezenet; 2];
    let db = oracle_perfdb(&models, &[32]);
    let mut as_i = quick_cfg(Policy::KrispI, models.clone());
    as_i.overlap_limit = Some(0);
    let mut as_o = quick_cfg(Policy::KrispO, models.clone());
    as_o.overlap_limit = Some(60);
    let i_ref = run_server(&quick_cfg(Policy::KrispI, models.clone()), &db);
    let o_ref = run_server(&quick_cfg(Policy::KrispO, models), &db);
    assert_eq!(
        run_server(&as_i, &db).total_inferences(),
        i_ref.total_inferences()
    );
    assert_eq!(
        run_server(&as_o, &db).total_inferences(),
        o_ref.total_inferences()
    );
}

/// Runs the `timeline` example's workload — 60 Albert kernels on one
/// stream, 8 Alexnet kernels on another — and counts pairs of kernels
/// from different streams that ran at the same time on a common CU,
/// read off the recorded `KernelComplete` events.
fn cross_stream_cu_sharing(mode: PartitionMode) -> usize {
    let (obs, sink) = Obs::recording(1 << 16);
    let mut rt = Runtime::new(RuntimeConfig {
        mode,
        allocator: Box::new(KrispAllocator::isolated()),
        perfdb: std::sync::Arc::new(oracle_perfdb(
            &[ModelKind::Albert, ModelKind::Alexnet],
            &[32],
        )),
        obs,
        ..RuntimeConfig::default()
    });
    for (model, kernels) in [(ModelKind::Albert, 60), (ModelKind::Alexnet, 8)] {
        let s = rt.create_stream();
        let trace = generate_trace(model, &TraceConfig::default());
        for (i, k) in trace.iter().take(kernels).enumerate() {
            rt.launch(s, k.clone(), i as u64);
        }
    }
    rt.run_to_idle();
    let sink = sink.lock().unwrap();
    assert_eq!(sink.dropped(), 0);
    let spans: Vec<(u32, u64, u64, [u64; 2])> = sink
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::KernelComplete {
                queue,
                start_ns,
                mask,
                ..
            } => Some((queue, start_ns, e.ts_ns, mask)),
            _ => None,
        })
        .collect();
    assert_eq!(spans.len(), 68, "every launched kernel completes");
    let mut shared = 0;
    for (i, &(qa, sa, ea, ma)) in spans.iter().enumerate() {
        for &(qb, sb, eb, mb) in &spans[i + 1..] {
            let overlap_in_time = sa < eb && sb < ea;
            let common_cu = ma[0] & mb[0] != 0 || ma[1] & mb[1] != 0;
            if qa != qb && overlap_in_time && common_cu {
                shared += 1;
            }
        }
    }
    shared
}

#[test]
fn timeline_streams_share_cus_only_under_stream_masking() {
    // The claim the `timeline` example prints: under KRISP-I the two
    // streams never share a CU; under stream masking they overlap.
    assert_eq!(
        cross_stream_cu_sharing(PartitionMode::KernelScopedNative),
        0
    );
    assert!(cross_stream_cu_sharing(PartitionMode::StreamMasking) > 0);
}
