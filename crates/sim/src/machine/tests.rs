use super::*;

fn machine() -> Machine {
    Machine::new(MachineConfig::default())
}

fn drain(m: &mut Machine) -> Vec<SimEvent> {
    let mut evs = Vec::new();
    while let Some(ev) = m.step() {
        evs.push(ev);
    }
    evs
}

#[test]
fn single_dispatch_lifecycle() {
    let mut m = machine();
    let q = m.create_queue();
    m.push_dispatch(q, KernelDesc::new("k", 6.0e6, 60), 11);
    let evs = drain(&mut m);
    assert_eq!(evs.len(), 2);
    match (&evs[0], &evs[1]) {
        (
            SimEvent::KernelStarted {
                tag: t0,
                at: a0,
                mask,
                ..
            },
            SimEvent::KernelCompleted {
                tag: t1, at: a1, ..
            },
        ) => {
            assert_eq!((*t0, *t1), (11, 11));
            assert_eq!(a0.as_nanos(), 5_000); // launch overhead
            assert_eq!(a1.as_nanos(), 5_000 + 100_000);
            assert_eq!(mask.count(), 60);
        }
        other => panic!("unexpected events {other:?}"),
    }
    assert_eq!(m.counters().total(), 0);
    assert!(m.energy_joules() > 0.0);
}

#[test]
fn queue_serializes_kernels() {
    let mut m = machine();
    let q = m.create_queue();
    m.push_dispatch(q, KernelDesc::new("a", 6.0e6, 60), 0);
    m.push_dispatch(q, KernelDesc::new("b", 6.0e6, 60), 1);
    let evs = drain(&mut m);
    let tags: Vec<u64> = evs
        .iter()
        .filter_map(|e| match e {
            SimEvent::KernelCompleted { tag, .. } => Some(*tag),
            _ => None,
        })
        .collect();
    assert_eq!(tags, vec![0, 1]);
    // Second kernel started only after the first completed.
    let start_b = evs.iter().find_map(|e| match e {
        SimEvent::KernelStarted { tag: 1, at, .. } => Some(*at),
        _ => None,
    });
    let end_a = evs.iter().find_map(|e| match e {
        SimEvent::KernelCompleted { tag: 0, at, .. } => Some(*at),
        _ => None,
    });
    assert!(start_b.unwrap() > end_a.unwrap());
}

#[test]
fn queue_mask_restricts_kernels() {
    let mut m = machine();
    let q = m.create_queue();
    let mask = CuMask::first_n(15, &m.topology());
    m.set_queue_mask(q, mask).unwrap();
    m.push_dispatch(q, KernelDesc::new("k", 1.5e6, 60), 0);
    let evs = drain(&mut m);
    let started_mask = evs.iter().find_map(|e| match e {
        SimEvent::KernelStarted { mask, .. } => Some(*mask),
        _ => None,
    });
    assert_eq!(started_mask.unwrap(), mask);
    // 1.5e6 CU*ns on 15 CUs = 100us.
    let done = evs.iter().find_map(|e| match e {
        SimEvent::KernelCompleted { at, .. } => Some(*at),
        _ => None,
    });
    assert_eq!(done.unwrap().as_nanos(), 5_000 + 100_000);
}

#[test]
fn two_queues_share_the_device() {
    let mut m = Machine::new(MachineConfig {
        sharing_penalty: 0.25,
        ..MachineConfig::default()
    });
    let qa = m.create_queue();
    let qb = m.create_queue();
    // Same mask: both on SE0's 15 CUs -> processor sharing.
    let mask = CuMask::first_n(15, &m.topology());
    m.set_queue_mask(qa, mask).unwrap();
    m.set_queue_mask(qb, mask).unwrap();
    m.push_dispatch(qa, KernelDesc::new("a", 1.5e6, 60), 0);
    m.push_dispatch(qb, KernelDesc::new("b", 1.5e6, 60), 1);
    let evs = drain(&mut m);
    let done_at: Vec<u64> = evs
        .iter()
        .filter_map(|e| match e {
            SimEvent::KernelCompleted { at, .. } => Some(at.as_nanos()),
            _ => None,
        })
        .collect();
    // Each gets 6 CUs (gamma = 0.25) -> 250us each, finishing together.
    assert_eq!(done_at, vec![5_000 + 250_000, 5_000 + 250_000]);
}

#[test]
fn kernel_scoped_mode_consults_allocator() {
    #[derive(Debug)]
    struct FirstN;
    impl MaskAllocator for FirstN {
        fn allocate(
            &mut self,
            requested: u16,
            _counters: &CuKernelCounters,
            topo: &GpuTopology,
        ) -> CuMask {
            CuMask::first_n(requested, topo)
        }
    }
    let mut m = Machine::new(MachineConfig {
        mode: EnforcementMode::KernelScoped,
        allocator: Box::new(FirstN),
        ..MachineConfig::default()
    });
    let q = m.create_queue();
    m.push_sized_dispatch(q, KernelDesc::new("k", 1.0e6, 60), 10, 0);
    let evs = drain(&mut m);
    let (started_at, mask) = evs
        .iter()
        .find_map(|e| match e {
            SimEvent::KernelStarted { at, mask, .. } => Some((*at, *mask)),
            _ => None,
        })
        .unwrap();
    assert_eq!(mask.count(), 10);
    // launch (5us) + mask generation (1us)
    assert_eq!(started_at.as_nanos(), 6_000);
}

#[test]
fn legacy_packets_ignore_allocator_in_kernel_scoped_mode() {
    let mut m = Machine::new(MachineConfig {
        mode: EnforcementMode::KernelScoped,
        ..MachineConfig::default()
    });
    let q = m.create_queue();
    let mask = CuMask::first_n(20, &m.topology());
    m.set_queue_mask(q, mask).unwrap();
    m.push_dispatch(q, KernelDesc::new("k", 1.0e6, 60), 0);
    let evs = drain(&mut m);
    let started_mask = evs.iter().find_map(|e| match e {
        SimEvent::KernelStarted { mask, .. } => Some(*mask),
        _ => None,
    });
    assert_eq!(started_mask.unwrap(), mask);
}

#[test]
fn barrier_without_dependency_is_consumed_immediately() {
    let mut m = machine();
    let q = m.create_queue();
    m.push_barrier(q, None, 99);
    let evs = drain(&mut m);
    assert_eq!(
        evs,
        vec![SimEvent::BarrierConsumed {
            queue: q,
            tag: 99,
            at: SimTime::ZERO
        }]
    );
}

#[test]
fn barrier_blocks_until_signal() {
    let mut m = machine();
    let q = m.create_queue();
    let sig = m.create_signal();
    m.push_barrier(q, Some(sig), 1);
    m.push_dispatch(q, KernelDesc::new("k", 6.0e6, 60), 2);
    // Nothing can happen yet except... nothing: the barrier blocks.
    assert_eq!(m.step(), None);
    m.complete_signal(sig);
    let evs = drain(&mut m);
    assert!(matches!(evs[0], SimEvent::BarrierConsumed { tag: 1, .. }));
    assert!(matches!(
        evs.last(),
        Some(SimEvent::KernelCompleted { tag: 2, .. })
    ));
}

#[test]
fn pre_completed_signal_does_not_block() {
    let mut m = machine();
    let q = m.create_queue();
    let sig = m.create_signal();
    m.complete_signal(sig);
    m.push_barrier(q, Some(sig), 5);
    let evs = drain(&mut m);
    assert!(matches!(evs[0], SimEvent::BarrierConsumed { tag: 5, .. }));
}

#[test]
fn user_timers_fire_in_order() {
    let mut m = machine();
    m.add_timer(SimDuration::from_micros(10), 1);
    m.add_timer(SimDuration::from_micros(5), 2);
    let evs = drain(&mut m);
    let tokens: Vec<u64> = evs
        .iter()
        .filter_map(|e| match e {
            SimEvent::TimerFired { token, .. } => Some(*token),
            _ => None,
        })
        .collect();
    assert_eq!(tokens, vec![2, 1]);
    assert_eq!(m.now().as_nanos(), 10_000);
}

#[test]
fn set_queue_mask_validates() {
    let mut m = machine();
    let q = m.create_queue();
    assert_eq!(
        m.set_queue_mask(q, CuMask::EMPTY),
        Err(MachineError::EmptyMask)
    );
    assert_eq!(
        m.set_queue_mask(QueueId(99), CuMask::first_n(1, &m.topology())),
        Err(MachineError::UnknownQueue(QueueId(99)))
    );
}

#[test]
fn energy_accumulates_only_while_time_advances() {
    let mut m = machine();
    assert_eq!(m.energy_joules(), 0.0);
    m.advance_idle(SimDuration::from_millis(100));
    // Idle device: static power only = 25 W * 0.1 s = 2.5 J.
    assert!((m.energy_joules() - 2.5).abs() < 1e-9);
}

#[test]
fn failing_cus_slows_inflight_kernels_and_masks_survivors() {
    let mut m = Machine::new(MachineConfig {
        faults: Arc::new(FaultPlan::new().fail_cus(
            SimTime::from_nanos(55_000),
            CuMask::first_n(15, &GpuTopology::MI50),
        )),
        ..MachineConfig::default()
    });
    let q = m.create_queue();
    m.set_queue_mask(q, CuMask::first_n(30, &m.topology()))
        .unwrap();
    m.push_dispatch(q, KernelDesc::new("a", 3.0e6, 60), 0);
    m.push_dispatch(q, KernelDesc::new("b", 1.5e6, 60), 1);
    let evs = drain(&mut m);
    // Kernel a: starts at 5us on 30 CUs (rate 30); at t=55us the
    // first 15 CUs die with 1.5e6 work left -> rate 15 -> +100us.
    let end_a = evs
        .iter()
        .find_map(|e| match e {
            SimEvent::KernelCompleted { tag: 0, at, .. } => Some(at.as_nanos()),
            _ => None,
        })
        .unwrap();
    assert_eq!(end_a, 155_000);
    // The fault surfaced as a host event.
    assert!(evs
        .iter()
        .any(|e| matches!(e, SimEvent::CusFailed { mask, .. } if mask.count() == 15)));
    // Kernel b dispatches on the surviving half of the queue mask.
    let mask_b = evs
        .iter()
        .find_map(|e| match e {
            SimEvent::KernelStarted { tag: 1, mask, .. } => Some(*mask),
            _ => None,
        })
        .unwrap();
    assert_eq!(mask_b.count(), 15);
    assert!(!mask_b.intersects(&CuMask::first_n(15, &m.topology())));
    assert_eq!(m.failed_cus().count(), 15);
    assert_eq!(m.healthy_mask().count(), 45);
    // Resource monitor: failed CUs pinned saturated, the rest clean.
    assert_eq!(m.counters().total(), 15 * 32);
}

#[test]
fn queue_mask_fully_dead_falls_back_to_healthy_cus() {
    let mut m = Machine::new(MachineConfig {
        faults: Arc::new(
            FaultPlan::new().fail_cus(SimTime::ZERO, CuMask::first_n(15, &GpuTopology::MI50)),
        ),
        ..MachineConfig::default()
    });
    let q = m.create_queue();
    m.set_queue_mask(q, CuMask::first_n(15, &m.topology()))
        .unwrap();
    m.push_dispatch(q, KernelDesc::new("k", 4.5e6, 60), 0);
    let evs = drain(&mut m);
    let mask = evs
        .iter()
        .find_map(|e| match e {
            SimEvent::KernelStarted { mask, .. } => Some(*mask),
            _ => None,
        })
        .unwrap();
    // Conservative degradation: every surviving CU.
    assert_eq!(mask.count(), 45);
}

#[test]
fn stalled_queue_defers_the_next_packet() {
    let mut m = Machine::new(MachineConfig {
        faults: Arc::new(FaultPlan::new().stall_queue(
            SimTime::from_nanos(10_000),
            QueueId(0),
            SimDuration::from_nanos(200_000),
        )),
        ..MachineConfig::default()
    });
    let q = m.create_queue();
    m.push_dispatch(q, KernelDesc::new("a", 6.0e6, 60), 0);
    m.push_dispatch(q, KernelDesc::new("b", 6.0e6, 60), 1);
    let evs = drain(&mut m);
    // a runs normally: [5us, 105us]. The stall covers [10us, 210us],
    // so b pops only at 210us and starts at 215us.
    let start_b = evs
        .iter()
        .find_map(|e| match e {
            SimEvent::KernelStarted { tag: 1, at, .. } => Some(at.as_nanos()),
            _ => None,
        })
        .unwrap();
    assert_eq!(start_b, 215_000);
}

#[test]
fn straggler_window_elongates_dispatched_kernels() {
    let mut m = Machine::new(MachineConfig {
        faults: Arc::new(FaultPlan::new().straggle_all(
            SimTime::ZERO,
            2.0,
            SimDuration::from_millis(1),
        )),
        ..MachineConfig::default()
    });
    let q = m.create_queue();
    m.push_dispatch(q, KernelDesc::new("k", 3.0e6, 60), 0);
    let evs = drain(&mut m);
    let end = evs
        .iter()
        .find_map(|e| match e {
            SimEvent::KernelCompleted { at, .. } => Some(at.as_nanos()),
            _ => None,
        })
        .unwrap();
    // 3e6 CU*ns doubled on 60 CUs = 100us, plus 5us launch.
    assert_eq!(end, 105_000);
}

#[test]
fn mask_apply_rejection_window_fails_then_recovers() {
    let mut m = Machine::new(MachineConfig {
        faults: Arc::new(FaultPlan::new().reject_mask_apply(
            SimTime::ZERO,
            QueueId(0),
            SimDuration::from_nanos(10_000),
        )),
        ..MachineConfig::default()
    });
    let q = m.create_queue();
    let mask = CuMask::first_n(15, &m.topology());
    // Advance past the injection instant but inside the window.
    m.add_timer(SimDuration::from_nanos(5_000), 1);
    drain(&mut m);
    assert_eq!(
        m.set_queue_mask(q, mask),
        Err(MachineError::MaskApplyRejected(q))
    );
    // Advance past the window end: applies succeed again.
    m.add_timer(SimDuration::from_nanos(10_000), 2);
    drain(&mut m);
    assert_eq!(m.set_queue_mask(q, mask), Ok(()));
    assert_eq!(m.queue_mask(q).unwrap(), mask);
}

#[test]
fn abort_holds_queue_until_retry() {
    let mut m = machine();
    let q = m.create_queue();
    m.push_dispatch(q, KernelDesc::new("a", 6.0e6, 60), 0);
    m.push_dispatch(q, KernelDesc::new("b", 6.0e6, 60), 1);
    // Step until a is executing.
    loop {
        match m.step() {
            Some(SimEvent::KernelStarted { tag: 0, .. }) => break,
            Some(_) => continue,
            None => panic!("kernel never started"),
        }
    }
    let packet = m.abort_inflight(q).expect("kernel was running");
    assert_eq!(packet.tag, 0);
    assert_eq!(m.counters().total(), 0);
    // Held: b must not start during the backoff window.
    assert_eq!(m.step(), None);
    // Retry: the aborted kernel re-runs before b.
    m.push_packet_front(q, AqlPacket::Dispatch(packet));
    m.release_queue(q);
    let evs = drain(&mut m);
    let completed: Vec<u64> = evs
        .iter()
        .filter_map(|e| match e {
            SimEvent::KernelCompleted { tag, .. } => Some(*tag),
            _ => None,
        })
        .collect();
    assert_eq!(completed, vec![0, 1]);
}

#[test]
fn jitter_is_deterministic_for_a_seed() {
    let run = |seed: u64| {
        let mut m = Machine::new(MachineConfig {
            seed,
            jitter_sigma: 0.05,
            ..MachineConfig::default()
        });
        let q = m.create_queue();
        m.push_dispatch(q, KernelDesc::new("k", 6.0e6, 60), 0);
        drain(&mut m);
        m.now().as_nanos()
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}

#[test]
fn utilization_integrals_accumulate() {
    let mut m = machine();
    let q = m.create_queue();
    m.set_queue_mask(q, CuMask::first_n(30, &m.topology()))
        .unwrap();
    // Kernel with parallelism 15 on a 30-CU mask: 30 CUs busy but
    // only 15 CUs of service — fine-grain under-utilization.
    m.push_dispatch(q, KernelDesc::new("k", 1.5e7, 15), 0);
    drain(&mut m);
    let exec_secs = 1.0e-3; // 1.5e7 / 15 CUs = 1 ms
    assert!((m.busy_cu_seconds() - 30.0 * exec_secs).abs() < 1e-6);
    assert!((m.service_cu_seconds() - 15.0 * exec_secs).abs() < 1e-6);
}

#[test]
fn counters_track_inflight_kernels() {
    let mut m = machine();
    let q = m.create_queue();
    m.set_queue_mask(q, CuMask::first_n(4, &m.topology()))
        .unwrap();
    m.push_dispatch(q, KernelDesc::new("k", 1.0e9, 60), 0);
    // Step until the kernel starts.
    loop {
        match m.step() {
            Some(SimEvent::KernelStarted { .. }) => break,
            Some(_) => continue,
            None => panic!("kernel never started"),
        }
    }
    assert_eq!(m.counters().total(), 4);
    drain(&mut m);
    assert_eq!(m.counters().total(), 0);
}

#[test]
fn per_cu_and_per_queue_series_are_published_when_the_run_ends() {
    let topo = GpuTopology::MI50;
    let metrics = krisp_obs::Metrics::recording();
    let mut m = Machine::new(MachineConfig {
        obs: Obs {
            metrics: metrics.clone(),
            ..Obs::default()
        },
        ..MachineConfig::default()
    });
    let q = m.create_queue();
    m.set_queue_mask(q, CuMask::first_n(4, &topo)).unwrap();
    m.push_dispatch(q, KernelDesc::new("k", 6.0e6, 60), 0);
    m.push_dispatch(q, KernelDesc::new("k", 3.0e6, 60), 1);
    drain(&mut m);

    // The dispatch counter records by handle, at once; the slots wait.
    let r = metrics.snapshot().unwrap();
    assert_eq!(
        r.counter("krisp_kernel_dispatches_total", &[("mode", "queue_mask")]),
        Some(2)
    );
    assert_eq!(r.counter("krisp_kernel_busy_ns", &[("queue", "0")]), None);

    // Publishing twice adds nothing the second time.
    m.publish_metrics();
    m.publish_metrics();
    let r = metrics.snapshot().unwrap();
    let busy = r
        .counter("krisp_kernel_busy_ns", &[("queue", "0")])
        .unwrap();
    assert!(busy > 0);
    for cu in 0..4 {
        let cu = cu.to_string();
        assert_eq!(
            r.counter("krisp_cu_allocated_ns", &[("cu", &cu)]),
            Some(busy)
        );
    }
    assert_eq!(r.counter("krisp_cu_allocated_ns", &[("cu", "4")]), None);
    assert_eq!(r.gauge("krisp_queue_depth", &[("queue", "0")]), Some(2.0));
}
