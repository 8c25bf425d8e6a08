use super::*;
use crate::budget::RetryBudgetConfig;
use crate::runtime_config::EmulationCosts;
use krisp_sim::FaultPlan;

fn kernel(work: f64, p: u16) -> KernelDesc {
    KernelDesc::new("test_kernel", work, p)
}

fn completions(evs: &[RtEvent]) -> Vec<(u64, u64)> {
    evs.iter()
        .filter_map(|e| match e {
            RtEvent::KernelCompleted { tag, at, .. } => Some((*tag, at.as_nanos())),
            _ => None,
        })
        .collect()
}

#[test]
fn stream_masking_passthrough() {
    let mut rt = Runtime::new(RuntimeConfig::default());
    let s = rt.create_stream();
    rt.set_stream_mask(s, CuMask::first_n(15, &rt.topology()))
        .unwrap();
    rt.launch(s, kernel(1.5e6, 60), 3);
    let evs = rt.run_to_idle();
    // 5us launch + 1.5e6/15 = 100us.
    assert_eq!(completions(&evs), vec![(3, 105_000)]);
}

#[test]
fn native_mode_right_sizes_from_perfdb() {
    let mut config = RuntimeConfig {
        mode: PartitionMode::KernelScopedNative,
        ..RuntimeConfig::default()
    };
    let k = kernel(1.0e6, 60);
    Arc::make_mut(&mut config.perfdb).insert(&k, 10);
    // FullMaskAllocator ignores the size, so to observe the request we
    // use a capturing allocator.
    #[derive(Debug)]
    struct Capture(std::sync::Arc<std::sync::Mutex<Vec<u16>>>);
    impl MaskAllocator for Capture {
        fn allocate(
            &mut self,
            requested: u16,
            _c: &CuKernelCounters,
            topo: &GpuTopology,
        ) -> CuMask {
            self.0.lock().unwrap().push(requested);
            CuMask::first_n(requested, topo)
        }
    }
    let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    config.allocator = Box::new(Capture(seen.clone()));
    let mut rt = Runtime::new(config);
    let s = rt.create_stream();
    rt.launch(s, k.clone(), 0);
    // Unprofiled kernel falls back to the full device.
    rt.launch(s, kernel(2.0e6, 60).with_grid_threads(777), 1);
    let evs = rt.run_to_idle();
    assert_eq!(&*seen.lock().unwrap(), &[10, 60]);
    let masks: Vec<u16> = evs
        .iter()
        .filter_map(|e| match e {
            RtEvent::KernelStarted { mask, .. } => Some(mask.count()),
            _ => None,
        })
        .collect();
    assert_eq!(masks, vec![10, 60]);
}

#[test]
fn emulated_mode_adds_reconfiguration_latency() {
    let costs = EmulationCosts::default(); // 5 + 25 us
    let mut config = RuntimeConfig {
        mode: PartitionMode::KernelScopedEmulated(costs),
        ..RuntimeConfig::default()
    };
    let k = kernel(6.0e6, 60);
    Arc::make_mut(&mut config.perfdb).insert(&k, 60);
    let mut rt = Runtime::new(config);
    let s = rt.create_stream();
    rt.launch(s, k, 9);
    let evs = rt.run_to_idle();
    // Reconfig (30us) + launch (5us) + exec (100us).
    assert_eq!(completions(&evs), vec![(9, 135_000)]);
    assert_eq!(rt.emulated_launches(), 1);
}

#[test]
fn emulated_mode_rewrites_queue_mask_per_kernel() {
    #[derive(Debug)]
    struct FirstN;
    impl MaskAllocator for FirstN {
        fn allocate(
            &mut self,
            requested: u16,
            _c: &CuKernelCounters,
            topo: &GpuTopology,
        ) -> CuMask {
            CuMask::first_n(requested, topo)
        }
    }
    let mut config = RuntimeConfig {
        mode: PartitionMode::KernelScopedEmulated(EmulationCosts::default()),
        allocator: Box::new(FirstN),
        ..RuntimeConfig::default()
    };
    let ka = kernel(1.0e6, 60).with_grid_threads(1);
    let kb = kernel(1.0e6, 60).with_grid_threads(2);
    Arc::make_mut(&mut config.perfdb).insert(&ka, 10);
    Arc::make_mut(&mut config.perfdb).insert(&kb, 30);
    let mut rt = Runtime::new(config);
    let s = rt.create_stream();
    rt.launch(s, ka, 0);
    rt.launch(s, kb, 1);
    let evs = rt.run_to_idle();
    let masks: Vec<u16> = evs
        .iter()
        .filter_map(|e| match e {
            RtEvent::KernelStarted { mask, .. } => Some(mask.count()),
            _ => None,
        })
        .collect();
    assert_eq!(masks, vec![10, 30]);
    // The stream mask ends at the last kernel's partition — the
    // emulation leaves it behind, exactly like the real API would.
    assert_eq!(rt.stream_mask(s).unwrap().count(), 30);
}

#[test]
fn l_over_accounting_matches_paper_formula() {
    // L_over = L_emu_base - L_real_base with an all-CU allocator, and
    // it should equal per-kernel emulation cost x kernel count.
    let run = |mode: PartitionMode| {
        let mut rt = Runtime::new(RuntimeConfig {
            mode,
            ..RuntimeConfig::default()
        });
        let s = rt.create_stream();
        for i in 0..10 {
            rt.launch(s, kernel(1.0e6, 60), i);
        }
        rt.run_to_idle();
        rt.now()
    };
    let costs = EmulationCosts::default();
    let real = run(PartitionMode::StreamMasking);
    let emu = run(PartitionMode::KernelScopedEmulated(costs));
    let l_over = emu.saturating_since(real);
    assert_eq!(l_over, costs.per_kernel() * 10);
}

#[test]
fn client_timers_pass_through() {
    let mut rt = Runtime::new(RuntimeConfig::default());
    rt.add_timer(SimDuration::from_micros(7), 55);
    let evs = rt.run_to_idle();
    assert_eq!(
        evs,
        vec![RtEvent::TimerFired {
            token: 55,
            at: SimTime::ZERO + SimDuration::from_micros(7)
        }]
    );
}

#[test]
#[should_panic(expected = "reserved")]
fn internal_tag_bit_is_rejected() {
    let mut rt = Runtime::new(RuntimeConfig::default());
    let s = rt.create_stream();
    rt.launch(s, kernel(1.0, 1), 1 << 63);
}

#[test]
fn empty_fault_plan_is_bit_identical() {
    let run = |faults: FaultPlan| {
        let mut rt = Runtime::new(RuntimeConfig {
            jitter_sigma: 0.05,
            faults: Arc::new(faults),
            ..RuntimeConfig::default()
        });
        let s = rt.create_stream();
        for i in 0..5 {
            rt.launch(s, kernel(2.0e6, 30), i);
        }
        let evs = rt.run_to_idle();
        (rt.now(), rt.energy_joules().to_bits(), evs)
    };
    assert_eq!(run(FaultPlan::new()), run(FaultPlan::default()));
}

#[test]
fn cu_failures_surface_as_client_events() {
    let topo = GpuTopology::MI50;
    let mut rt = Runtime::new(RuntimeConfig {
        faults: Arc::new(
            FaultPlan::new().fail_cus(SimTime::from_nanos(50_000), CuMask::first_n(15, &topo)),
        ),
        ..RuntimeConfig::default()
    });
    let s = rt.create_stream();
    rt.launch(s, kernel(6.0e6, 60), 0);
    let evs = rt.run_to_idle();
    assert!(evs
        .iter()
        .any(|e| matches!(e, RtEvent::CusFailed { mask, .. } if mask.count() == 15)));
    assert_eq!(rt.failed_cus().count(), 15);
    assert_eq!(rt.healthy_mask().count(), 45);
    // The kernel still completes, just slower on 45 CUs.
    assert_eq!(completions(&evs).len(), 1);
}

#[test]
fn watchdog_retries_straggler_then_succeeds() {
    // A straggler window elongates the first dispatch 100x; the
    // watchdog aborts it, backs off, and the retry (outside the
    // window) runs clean.
    let mut rt = Runtime::new(RuntimeConfig {
        faults: Arc::new(FaultPlan::new().straggle_all(
            SimTime::ZERO,
            100.0,
            SimDuration::from_micros(20),
        )),
        watchdog: Some(WatchdogConfig {
            multiplier: 2.0,
            min_timeout: SimDuration::from_micros(10),
            max_retries: 3,
            backoff: SimDuration::from_micros(20),
        }),
        ..RuntimeConfig::default()
    });
    let s = rt.create_stream();
    // 1e6 work on 60 CUs ≈ 16.7us expected; straggled = 1.67ms.
    rt.launch(s, kernel(1.0e6, 60), 7);
    let evs = rt.run_to_idle();
    let starts = evs
        .iter()
        .filter(|e| matches!(e, RtEvent::KernelStarted { .. }))
        .count();
    assert!(starts >= 2, "expected a retry start, got {evs:?}");
    assert_eq!(completions(&evs).len(), 1);
    assert!(!evs
        .iter()
        .any(|e| matches!(e, RtEvent::KernelFailed { .. })));
    assert!(rt.errors().is_empty());
}

#[test]
fn watchdog_abandons_permanent_straggler() {
    // The straggle window outlives every retry: the kernel is
    // eventually abandoned and the stream continues.
    let mut rt = Runtime::new(RuntimeConfig {
        faults: Arc::new(FaultPlan::new().straggle_all(
            SimTime::ZERO,
            1000.0,
            SimDuration::from_millis(100),
        )),
        watchdog: Some(WatchdogConfig {
            multiplier: 2.0,
            min_timeout: SimDuration::from_micros(5),
            max_retries: 2,
            backoff: SimDuration::from_micros(5),
        }),
        ..RuntimeConfig::default()
    });
    let s = rt.create_stream();
    rt.launch(s, kernel(1.0e6, 60), 1);
    let evs = rt.run_to_idle();
    let failed: Vec<_> = evs
        .iter()
        .filter_map(|e| match e {
            RtEvent::KernelFailed { tag, error, .. } => Some((*tag, error.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].0, 1);
    assert!(matches!(
        failed[0].1,
        KrispError::KernelTimeout { attempts: 3, .. }
    ));
    assert!(completions(&evs).is_empty());
    assert_eq!(rt.errors().len(), 1);
}

#[test]
fn mask_apply_faults_retry_then_fall_back_to_stream_scoped() {
    // Reject mask IOCTLs on the stream for a long window: the first
    // emulated launch exhausts its retries, the stream downgrades to
    // stream-scoped masking, and both kernels still complete.
    let mut rt = Runtime::new(RuntimeConfig {
        mode: PartitionMode::KernelScopedEmulated(EmulationCosts::default()),
        faults: Arc::new(FaultPlan::new().reject_mask_apply(
            SimTime::ZERO,
            QueueId(0),
            SimDuration::from_millis(500),
        )),
        ..RuntimeConfig::default()
    });
    let s = rt.create_stream();
    rt.launch(s, kernel(1.0e6, 60), 0);
    let evs = rt.run_to_idle();
    assert_eq!(completions(&evs).len(), 1);
    assert_eq!(rt.stream_fallbacks(), vec![s]);
    assert!(rt
        .errors()
        .iter()
        .any(|e| matches!(e, KrispError::MaskApply { stream: 0, .. })));
    assert_eq!(rt.emulated_launches(), 1);
    // The degraded stream now skips the emulation machinery entirely:
    // later launches are plain stream-scoped dispatches.
    rt.launch(s, kernel(1.0e6, 60), 1);
    let evs = rt.run_to_idle();
    assert_eq!(completions(&evs).len(), 1);
    assert_eq!(rt.emulated_launches(), 1);
}

#[test]
fn mask_apply_fault_clears_within_retry_budget() {
    // A short rejection window: the retry succeeds and kernel-scoped
    // emulation keeps working (no fallback, no errors).
    let mut rt = Runtime::new(RuntimeConfig {
        mode: PartitionMode::KernelScopedEmulated(EmulationCosts::default()),
        faults: Arc::new(FaultPlan::new().reject_mask_apply(
            SimTime::ZERO,
            QueueId(0),
            SimDuration::from_micros(40),
        )),
        watchdog: Some(WatchdogConfig {
            backoff: SimDuration::from_micros(30),
            ..WatchdogConfig::default()
        }),
        ..RuntimeConfig::default()
    });
    let s = rt.create_stream();
    rt.launch(s, kernel(1.0e6, 60), 0);
    let evs = rt.run_to_idle();
    assert_eq!(completions(&evs).len(), 1);
    assert!(rt.stream_fallbacks().is_empty());
    assert!(rt.errors().is_empty());
}

#[test]
fn stale_perfdb_entry_degrades_to_full_device() {
    let mut config = RuntimeConfig {
        mode: PartitionMode::KernelScopedNative,
        ..RuntimeConfig::default()
    };
    let k = kernel(1.0e6, 60);
    Arc::make_mut(&mut config.perfdb).insert(&k, 999); // profiled on other hardware
    let mut rt = Runtime::new(config);
    let s = rt.create_stream();
    rt.launch(s, k, 0);
    let evs = rt.run_to_idle();
    assert_eq!(completions(&evs).len(), 1);
    let errors = rt.take_errors();
    assert_eq!(errors.len(), 1);
    assert!(matches!(
        errors[0],
        KrispError::StalePerfDbEntry { profiled: 999, .. }
    ));
    assert!(rt.errors().is_empty());
}

#[test]
fn retry_budget_denial_abandons_with_typed_error() {
    // A permanent straggler with a generous per-kernel retry cap but
    // a tiny global budget: the first retry is granted by the floor,
    // the second is denied, and the kernel is abandoned with the
    // budget-specific error (not a plain timeout).
    let mut rt = Runtime::new(RuntimeConfig {
        faults: Arc::new(FaultPlan::new().straggle_all(
            SimTime::ZERO,
            1000.0,
            SimDuration::from_millis(100),
        )),
        watchdog: Some(WatchdogConfig {
            multiplier: 2.0,
            min_timeout: SimDuration::from_micros(5),
            max_retries: 10,
            backoff: SimDuration::from_micros(5),
        }),
        retry_budget: Some(RetryBudgetConfig {
            ratio: 0.0,
            window: SimDuration::from_secs(1),
            min_retries: 1,
        }),
        ..RuntimeConfig::default()
    });
    let s = rt.create_stream();
    rt.launch(s, kernel(1.0e6, 60), 4);
    let evs = rt.run_to_idle();
    let failed: Vec<_> = evs
        .iter()
        .filter_map(|e| match e {
            RtEvent::KernelFailed { error, .. } => Some(error.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(failed.len(), 1);
    assert!(matches!(
        failed[0],
        KrispError::RetryBudgetExhausted { tag: 4, .. }
    ));
    assert_eq!(rt.retry_budget_counters(), (1, 1));
}

#[test]
fn retry_budget_without_pressure_is_bit_identical() {
    // Same-seed regression for the budget wiring (and the
    // expiry-before-check tie-break): with no faults the budget only
    // records successes, so enabling it must not perturb a single
    // bit of the execution.
    let run = |budget: Option<RetryBudgetConfig>| {
        let mut rt = Runtime::new(RuntimeConfig {
            jitter_sigma: 0.05,
            watchdog: Some(WatchdogConfig::default()),
            retry_budget: budget,
            ..RuntimeConfig::default()
        });
        let s = rt.create_stream();
        for i in 0..8 {
            rt.launch(s, kernel(2.0e6, 30), i);
        }
        let evs = rt.run_to_idle();
        (rt.now(), rt.energy_joules().to_bits(), evs)
    };
    assert_eq!(run(None), run(Some(RetryBudgetConfig::default())));
    // And the budget path itself replays bit-identically.
    assert_eq!(
        run(Some(RetryBudgetConfig::default())),
        run(Some(RetryBudgetConfig::default()))
    );
}

#[test]
fn mask_widening_widens_then_narrows_back() {
    #[derive(Debug)]
    struct FirstN;
    impl MaskAllocator for FirstN {
        fn allocate(
            &mut self,
            requested: u16,
            _c: &CuKernelCounters,
            topo: &GpuTopology,
        ) -> CuMask {
            CuMask::first_n(requested, topo)
        }
    }
    let mut config = RuntimeConfig {
        mode: PartitionMode::KernelScopedNative,
        allocator: Box::new(FirstN),
        ..RuntimeConfig::default()
    };
    let k = kernel(1.0e6, 60);
    Arc::make_mut(&mut config.perfdb).insert(&k, 10);
    let mut rt = Runtime::new(config);
    let s = rt.create_stream();
    rt.launch(s, k.clone(), 0);
    rt.set_mask_widening(MaskWidening::Factor(200));
    rt.launch(s, k.clone(), 1);
    rt.set_mask_widening(MaskWidening::FullDevice);
    rt.launch(s, k.clone(), 2);
    rt.set_mask_widening(MaskWidening::None);
    rt.launch(s, k, 3);
    let evs = rt.run_to_idle();
    let masks: Vec<u16> = evs
        .iter()
        .filter_map(|e| match e {
            RtEvent::KernelStarted { mask, .. } => Some(mask.count()),
            _ => None,
        })
        .collect();
    assert_eq!(masks, vec![10, 20, 60, 10]);
    // Factor widening saturates at the device size.
    assert_eq!(MaskWidening::Factor(900).apply(10, 60), 60);
    assert_eq!(MaskWidening::Factor(100).apply(10, 60), 10);
}

#[test]
fn deterministic_replay() {
    let run = || {
        let mut rt = Runtime::new(RuntimeConfig {
            jitter_sigma: 0.05,
            ..RuntimeConfig::default()
        });
        let s = rt.create_stream();
        for i in 0..5 {
            rt.launch(s, kernel(2.0e6, 30), i);
        }
        rt.run_to_idle();
        (rt.now(), rt.energy_joules().to_bits())
    };
    assert_eq!(run(), run());
}

#[test]
fn stale_deadline_spares_the_next_kernel_on_a_reused_tag() {
    // Kernel A completes well before its deadline. The worker's next
    // run reuses A's (queue, tag) for a longer kernel B, which is still
    // running when A's deadline fires: B must neither be aborted nor
    // reported as timed out.
    let wd = WatchdogConfig {
        multiplier: 2.0,
        min_timeout: SimDuration::from_micros(10),
        max_retries: 3,
        backoff: SimDuration::from_micros(20),
    };
    let (obs, sink) = krisp_obs::Obs::recording(1 << 10);
    let mut rt = Runtime::new(RuntimeConfig {
        watchdog: Some(wd),
        obs,
        ..RuntimeConfig::default()
    });
    let s = rt.create_stream();
    let a = kernel(1.0e6, 60);
    let a_deadline =
        SimTime::ZERO + SimDuration::from_micros(5) + wd.deadline(a.isolated_latency(60));
    rt.launch(s, a, 0);
    let mut evs = Vec::new();
    while !matches!(evs.last(), Some(RtEvent::KernelCompleted { .. })) {
        evs.push(rt.step().expect("kernel A completes"));
    }
    assert!(rt.now() < a_deadline);
    rt.launch(s, kernel(6.0e6, 60), 0);
    evs.extend(rt.run_to_idle());
    let starts: Vec<u64> = evs
        .iter()
        .filter_map(|e| match e {
            RtEvent::KernelStarted { at, .. } => Some(at.as_nanos()),
            _ => None,
        })
        .collect();
    let done = completions(&evs);
    assert_eq!(starts.len(), 2, "B was restarted: {evs:?}");
    assert_eq!(done.len(), 2);
    // A's deadline fell inside B's run.
    assert!(starts[1] < a_deadline.as_nanos() && a_deadline.as_nanos() < done[1].1);
    assert!(!evs
        .iter()
        .any(|e| matches!(e, RtEvent::KernelFailed { .. })));
    assert!(rt.errors().is_empty());
    let sink = sink.lock().unwrap();
    assert!(!sink
        .events()
        .iter()
        .any(|e| matches!(e.kind, EventKind::KernelTimeout { .. })));
}
