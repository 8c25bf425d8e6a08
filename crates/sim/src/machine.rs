//! The [`Machine`]: HSA queues + command processor + execution engine +
//! power meter, driven as a single deterministic discrete-event
//! simulation.
//!
//! The machine plays the role of the GPU's **command processor / packet
//! processor** (§IV-D2): it drains AQL packets from the software queues,
//! honors barrier dependencies, applies dispatch latencies, and — in
//! [`EnforcementMode::KernelScoped`] — runs the pluggable
//! [`MaskAllocator`] to turn each packet's partition-size field into a
//! per-kernel CU mask, exactly the firmware extension KRISP proposes.
//! In [`EnforcementMode::QueueMask`] it reproduces the baseline hardware:
//! every kernel inherits the stream-scoped CU mask set through the
//! CU-Masking API.
//!
//! Hosts drive the machine with an event pump:
//!
//! ```rust
//! use krisp_sim::{Machine, MachineConfig, KernelDesc, SimEvent};
//!
//! let mut m = Machine::new(MachineConfig::default());
//! let q = m.create_queue();
//! m.push_dispatch(q, KernelDesc::new("gemm", 3.0e6, 60), 0);
//! let mut finished = 0;
//! while let Some(ev) = m.step() {
//!     if matches!(ev, SimEvent::KernelCompleted { .. }) {
//!         finished += 1;
//!     }
//! }
//! assert_eq!(finished, 1);
//! ```

use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::mem;
use std::sync::Arc;

use krisp_obs::{EventKind, Obs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::allocator::MaskAllocator;
use crate::counters::CuKernelCounters;
use crate::engine::{Engine, KernelId};
use crate::fault::FaultPlan;
use crate::kernel::KernelDesc;
use crate::machine_config::{
    DispatchCosts, EnforcementMode, MachineConfig, MachineError, SimEvent,
};
use crate::mask::CuMask;
use crate::power::{EnergyMeter, PowerModel};
use crate::queue::{
    AqlPacket, BarrierPacket, DispatchPacket, HsaQueue, QueueId, QueueState, SignalId,
};
use crate::time::{SimDuration, SimTime};
use crate::topology::GpuTopology;

use faults::StraggleWindow;
use series::MachineSeries;

mod faults;
mod series;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimerKind {
    User(u64),
    QueueDelay(QueueId),
    /// Inject the `idx`-th entry of the fault plan.
    Fault(usize),
    /// A queue-stall window ended; re-pump the stalled queue.
    StallEnd,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TimerEntry {
    at: SimTime,
    seq: u64,
    kind: TimerKind,
}

impl Ord for TimerEntry {
    fn cmp(&self, other: &TimerEntry) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &TimerEntry) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A complete simulated GPU: queues, command processor, execution engine,
/// resource monitor, and energy meter. See the [module docs](self).
pub struct Machine {
    topology: GpuTopology,
    power: PowerModel,
    costs: DispatchCosts,
    mode: EnforcementMode,
    allocator: Box<dyn MaskAllocator>,
    jitter_sigma: f64,
    rng: StdRng,

    now: SimTime,
    engine: Engine,
    counters: CuKernelCounters,
    energy: EnergyMeter,
    busy_cu_seconds: f64,
    service_cu_seconds: f64,

    obs: Obs,

    queues: Vec<HsaQueue>,
    /// Indices of queues the command processor can make progress on right
    /// now — maintained on every state transition so `pump_queues` and
    /// `next_event_at` never scan all queues. Must stay *exact* (not a
    /// superset): a stale entry would make `next_event_at` report a
    /// spurious event "now" and change multi-machine interleaving.
    runnable: BTreeSet<u32>,
    /// Metric slots and handles; `None` unless metrics record.
    series: Option<MachineSeries>,
    completed_signals: HashSet<SignalId>,
    next_signal: u64,

    // Fault-injection state. All empty/zero for an empty plan, in which
    // case every check below short-circuits on an `is_empty` branch.
    faults: Arc<FaultPlan>,
    failed_cus: CuMask,
    stalled_until: HashMap<QueueId, SimTime>,
    straggles: Vec<StraggleWindow>,
    mask_rejects: Vec<(QueueId, SimTime)>,

    timers: BinaryHeap<TimerEntry>,
    next_timer_seq: u64,
    out: VecDeque<SimEvent>,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("topology", &self.topology)
            .field("now", &self.now)
            .field("queues", &self.queues.len())
            .field("inflight", &self.engine.active_count())
            .field("mode", &self.mode)
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Creates a machine from a configuration.
    pub fn new(config: MachineConfig) -> Machine {
        let mut machine = Machine {
            topology: config.topology,
            power: config.power,
            costs: config.costs,
            mode: config.mode,
            allocator: config.allocator,
            jitter_sigma: config.jitter_sigma,
            rng: StdRng::seed_from_u64(config.seed),
            now: SimTime::ZERO,
            engine: Engine::with_sharing_penalty(config.topology, config.sharing_penalty),
            counters: CuKernelCounters::new(config.topology),
            energy: EnergyMeter::new(),
            busy_cu_seconds: 0.0,
            service_cu_seconds: 0.0,
            queues: Vec::new(),
            runnable: BTreeSet::new(),
            series: MachineSeries::new(&config.obs.metrics, &config.topology),
            obs: config.obs,
            completed_signals: HashSet::new(),
            next_signal: 0,
            faults: config.faults,
            failed_cus: CuMask::EMPTY,
            stalled_until: HashMap::new(),
            straggles: Vec::new(),
            mask_rejects: Vec::new(),
            timers: BinaryHeap::new(),
            next_timer_seq: 0,
            out: VecDeque::new(),
        };
        // One internal timer per scheduled fault. An empty plan schedules
        // nothing, keeping fault-free runs bit-identical.
        for i in 0..machine.faults.events().len() {
            let at = machine.faults.events()[i].at;
            machine.push_timer(at, TimerKind::Fault(i));
        }
        machine
    }

    /// The device topology.
    pub fn topology(&self) -> GpuTopology {
        self.topology
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Energy consumed so far, in joules (integrated over advanced time).
    pub fn energy_joules(&self) -> f64 {
        self.energy.joules()
    }

    /// Integral of occupied CUs over time, in CU·seconds: how much of the
    /// compute array was *allocated* (powered and reserved by some
    /// kernel's mask). `busy_cu_seconds / (total_cus * elapsed)` is the
    /// allocation-level utilization of Fig 1.
    pub fn busy_cu_seconds(&self) -> f64 {
        self.busy_cu_seconds
    }

    /// Integral of delivered execution service over time, in CU·seconds:
    /// how much *useful work* the array performed. Always ≤ the busy
    /// integral when no kernel rides its bandwidth floor; the gap between
    /// the two is the fine-grain under-utilization KRISP reclaims.
    pub fn service_cu_seconds(&self) -> f64 {
        self.service_cu_seconds
    }

    /// The current per-CU kernel counters (the Resource Monitor).
    pub fn counters(&self) -> &CuKernelCounters {
        &self.counters
    }

    /// The mask-enforcement mode this machine was built with.
    pub fn mode(&self) -> EnforcementMode {
        self.mode
    }

    /// The CUs that have permanently failed so far (empty without
    /// injected faults).
    pub fn failed_cus(&self) -> CuMask {
        self.failed_cus
    }

    /// The CUs still alive: the full device minus [`Machine::failed_cus`].
    pub fn healthy_mask(&self) -> CuMask {
        CuMask::full(&self.topology) - self.failed_cus
    }

    /// Aborts the kernel currently executing (or being dispatched) on
    /// `queue`, returning its original dispatch packet so the host can
    /// re-issue it. The queue is left **held**: the command processor
    /// will not start its next packet until [`Machine::release_queue`] —
    /// this is the watchdog's backoff window. Returns `None` when the
    /// queue has no kernel in flight.
    ///
    /// # Panics
    ///
    /// Panics if the queue was never created.
    pub fn abort_inflight(&mut self, queue: QueueId) -> Option<DispatchPacket> {
        let qi = queue.0 as usize;
        assert!(qi < self.queues.len(), "unknown queue {queue}");
        let packet = match mem::replace(&mut self.queues[qi].state, QueueState::Idle) {
            QueueState::Running { id, packet, .. } => {
                let mask = self.engine.abort(id);
                self.counters.release(&mask);
                packet
            }
            // Still in launch latency; the pending QueueDelay timer finds
            // the queue no longer dispatching this packet.
            QueueState::Dispatching(packet) => packet,
            state => {
                self.queues[qi].state = state;
                return None;
            }
        };
        self.queues[qi].held = true;
        self.refresh_runnable(qi);
        Some(packet)
    }

    /// Releases a queue held by [`Machine::abort_inflight`], letting the
    /// command processor resume draining it.
    ///
    /// # Panics
    ///
    /// Panics if the queue was never created.
    pub fn release_queue(&mut self, queue: QueueId) {
        let qi = queue.0 as usize;
        assert!(qi < self.queues.len(), "unknown queue {queue}");
        self.queues[qi].held = false;
        self.refresh_runnable(qi);
    }

    /// Pushes a packet at the *front* of a queue (retry path: an aborted
    /// kernel must re-run before the rest of the queue's work).
    ///
    /// # Panics
    ///
    /// Panics if the queue was never created.
    pub fn push_packet_front(&mut self, queue: QueueId, packet: AqlPacket) {
        let q = self
            .queues
            .get_mut(queue.0 as usize)
            .unwrap_or_else(|| panic!("unknown queue {queue}"));
        q.packets.push_front(packet);
        self.refresh_runnable(queue.0 as usize);
    }

    /// Creates a new HSA queue (stream) with the full-device CU mask.
    pub fn create_queue(&mut self) -> QueueId {
        let id = QueueId(self.queues.len() as u32);
        self.queues.push(HsaQueue::new(&self.topology));
        if let Some(series) = &mut self.series {
            series.add_queue();
        }
        id
    }

    /// Sets a queue's stream-scoped CU mask (the CU-Masking API /
    /// emulated IOCTL). Takes effect for subsequently dispatched kernels.
    ///
    /// # Errors
    ///
    /// [`MachineError::UnknownQueue`] if the queue doesn't exist,
    /// [`MachineError::EmptyMask`] if the mask selects no CUs.
    pub fn set_queue_mask(&mut self, queue: QueueId, mask: CuMask) -> Result<(), MachineError> {
        if mask.is_empty() {
            return Err(MachineError::EmptyMask);
        }
        if !self.mask_rejects.is_empty() {
            let now = self.now;
            self.mask_rejects.retain(|&(_, until)| until > now);
            if self.mask_rejects.iter().any(|&(q, _)| q == queue) {
                self.obs
                    .bus
                    .emit(self.now.as_nanos(), || EventKind::MaskApplyFault {
                        queue: queue.0,
                    });
                return Err(MachineError::MaskApplyRejected(queue));
            }
        }
        let q = self
            .queues
            .get_mut(queue.0 as usize)
            .ok_or(MachineError::UnknownQueue(queue))?;
        q.cu_mask = mask;
        Ok(())
    }

    /// A queue's current CU mask.
    ///
    /// # Errors
    ///
    /// [`MachineError::UnknownQueue`] if the queue doesn't exist.
    pub fn queue_mask(&self, queue: QueueId) -> Result<CuMask, MachineError> {
        self.queues
            .get(queue.0 as usize)
            .map(|q| q.cu_mask)
            .ok_or(MachineError::UnknownQueue(queue))
    }

    /// Pushes any AQL packet onto a queue.
    ///
    /// # Panics
    ///
    /// Panics if the queue was never created (queue ids are only minted
    /// by [`Machine::create_queue`], so this indicates a host bug).
    pub fn push_packet(&mut self, queue: QueueId, packet: AqlPacket) {
        let q = self
            .queues
            .get_mut(queue.0 as usize)
            .unwrap_or_else(|| panic!("unknown queue {queue}"));
        q.packets.push_back(packet);
        if let Some(series) = &mut self.series {
            series.pushed(queue.0 as usize, q.packets.len());
        }
        self.refresh_runnable(queue.0 as usize);
    }

    /// Convenience: pushes a legacy dispatch packet (inherits the queue
    /// mask).
    pub fn push_dispatch(&mut self, queue: QueueId, kernel: KernelDesc, tag: u64) {
        self.push_packet(
            queue,
            AqlPacket::Dispatch(DispatchPacket {
                kernel,
                partition_cus: None,
                tag,
            }),
        );
    }

    /// Convenience: pushes a KRISP dispatch packet carrying a partition
    /// size (honored in [`EnforcementMode::KernelScoped`]).
    pub fn push_sized_dispatch(
        &mut self,
        queue: QueueId,
        kernel: KernelDesc,
        partition_cus: u16,
        tag: u64,
    ) {
        self.push_packet(
            queue,
            AqlPacket::Dispatch(DispatchPacket {
                kernel,
                partition_cus: Some(partition_cus),
                tag,
            }),
        );
    }

    /// Convenience: pushes a barrier packet.
    pub fn push_barrier(&mut self, queue: QueueId, wait_on: Option<SignalId>, tag: u64) {
        self.push_packet(queue, AqlPacket::Barrier(BarrierPacket { wait_on, tag }));
    }

    /// Creates a fresh host-completable signal.
    pub fn create_signal(&mut self) -> SignalId {
        let id = SignalId(self.next_signal);
        self.next_signal += 1;
        id
    }

    /// Completes a signal, unblocking any barrier waiting on it.
    /// Completing a signal twice is a no-op.
    pub fn complete_signal(&mut self, signal: SignalId) {
        if !self.completed_signals.insert(signal) {
            return;
        }
        for qi in 0..self.queues.len() {
            match self.queues[qi].state {
                QueueState::BlockedOnSignal {
                    signal: s,
                    tag,
                    since,
                } if s == signal => {
                    self.queues[qi].state = QueueState::Idle;
                    self.refresh_runnable(qi);
                    self.consume_barrier(QueueId(qi as u32), tag, since);
                    return;
                }
                _ => {}
            }
        }
    }

    /// Reports the consumption of barrier `tag`, which waited since
    /// `since`.
    fn consume_barrier(&mut self, queue: QueueId, tag: u64, since: SimTime) {
        self.obs
            .bus
            .emit(self.now.as_nanos(), || EventKind::BarrierDrain {
                queue: queue.0,
                tag,
                waited_ns: self.now.saturating_since(since).as_nanos(),
            });
        self.out.push_back(SimEvent::BarrierConsumed {
            queue,
            tag,
            at: self.now,
        });
    }

    /// The partition size the packet processor honors for `d`: its AQL
    /// field in [`EnforcementMode::KernelScoped`], else `None`.
    fn sized(&self, d: &DispatchPacket) -> Option<u16> {
        d.partition_cus
            .filter(|_| self.mode == EnforcementMode::KernelScoped)
    }

    /// Registers a host timer that fires `delay` after the current
    /// instant, reporting [`SimEvent::TimerFired`] with `token`.
    pub fn add_timer(&mut self, delay: SimDuration, token: u64) {
        self.push_timer(self.now + delay, TimerKind::User(token));
    }

    /// The instant of the next internal event, or `None` when the machine
    /// is fully drained. Buffered output events and ready queues count as
    /// events at the current instant. Used to synchronize several
    /// machines conservatively (multi-GPU serving): always step the
    /// machine with the earliest next event.
    pub fn next_event_at(&self) -> Option<SimTime> {
        if !self.out.is_empty() || !self.runnable.is_empty() {
            return Some(self.now);
        }
        let completion = self.engine.next_completion(self.now).map(|(t, _)| t);
        let timer = self.timers.peek().map(|t| t.at);
        match (completion, timer) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Advances the simulation to its next event and returns it, or
    /// `None` when no work remains (all queues drained, no timers).
    ///
    /// Events are reported in nondecreasing simulated-time order;
    /// simultaneous events are ordered deterministically (kernel
    /// completions before timers, then by insertion order).
    pub fn step(&mut self) -> Option<SimEvent> {
        loop {
            if let Some(ev) = self.out.pop_front() {
                return Some(ev);
            }
            self.pump_queues();
            if let Some(ev) = self.out.pop_front() {
                return Some(ev);
            }
            let completion = self.engine.next_completion(self.now);
            let timer_at = self.timers.peek().map(|t| t.at);
            let completion_first = match (completion, timer_at) {
                (None, None) => return None,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some((tc, _)), Some(tt)) => tc <= tt,
            };
            if completion_first {
                let (tc, id) = completion.expect("checked above");
                self.advance_time_to(tc);
                self.finish_kernel(id);
            } else {
                let tt = timer_at.expect("checked above");
                self.advance_time_to(tt);
                let entry = self.timers.pop().expect("peeked");
                match entry.kind {
                    TimerKind::User(token) => self.out.push_back(SimEvent::TimerFired {
                        token,
                        at: self.now,
                    }),
                    TimerKind::QueueDelay(q) => self.start_pending_dispatch(q),
                    TimerKind::Fault(idx) => self.inject_fault(idx),
                    // The stall window ended: drop expired windows and
                    // put their queues back in the runnable index; the
                    // loop then re-pumps.
                    TimerKind::StallEnd => self.expire_stalls(),
                }
            }
        }
    }

    /// Runs the machine until fully idle, discarding events. Useful in
    /// tests and for draining after measurement windows.
    pub fn run_to_idle(&mut self) {
        while self.step().is_some() {}
    }

    /// Advances simulated time with the device idle — e.g. to account for
    /// think-time energy. No queue may make progress during the span.
    ///
    /// # Panics
    ///
    /// Panics if any kernel is in flight or a timer would fire within the
    /// span (that would reorder events).
    pub fn advance_idle(&mut self, dt: SimDuration) {
        assert!(self.engine.is_idle(), "advance_idle with kernels in flight");
        let target = self.now + dt;
        assert!(
            self.timers.peek().map(|t| t.at).is_none_or(|t| t >= target),
            "advance_idle would skip a pending timer"
        );
        self.advance_time_to(target);
    }

    /// Whether the command processor may make progress on a queue right
    /// now (ready, and not inside an injected stall window).
    fn queue_runnable(&self, qi: usize) -> bool {
        self.queues[qi].ready()
            && (self.stalled_until.is_empty()
                || self
                    .stalled_until
                    .get(&QueueId(qi as u32))
                    .is_none_or(|&until| until <= self.now))
    }

    /// Re-evaluates one queue's membership in the runnable index. Called
    /// at every transition that can flip [`Machine::queue_runnable`]:
    /// packet push, pump, dispatch start/finish, signal completion,
    /// abort/release, and stall-window open/close.
    fn refresh_runnable(&mut self, qi: usize) {
        if self.queue_runnable(qi) {
            self.runnable.insert(qi as u32);
        } else {
            self.runnable.remove(&(qi as u32));
        }
    }

    fn push_timer(&mut self, at: SimTime, kind: TimerKind) {
        let seq = self.next_timer_seq;
        self.next_timer_seq += 1;
        self.timers.push(TimerEntry { at, seq, kind });
    }

    fn advance_time_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.now, "time went backwards");
        let dt = t.saturating_since(self.now);
        if !dt.is_zero() {
            let busy = self.engine.busy_cus();
            let service = self.engine.total_service();
            let power = self.power.power_w(busy, self.engine.busy_ses(), service);
            self.energy.accumulate(power, dt);
            self.busy_cu_seconds += busy as f64 * dt.as_secs_f64();
            self.service_cu_seconds += service * dt.as_secs_f64();
            self.engine.advance(dt);
            self.now = t;
        }
    }

    fn finish_kernel(&mut self, id: KernelId) {
        let mask = self.engine.complete(id);
        self.counters.release(&mask);
        // A machine has a handful of queues: finding the owner by a scan
        // is cheaper than keeping a kernel → queue map in step.
        let (qi, started, tag) = self
            .queues
            .iter()
            .enumerate()
            .find_map(|(qi, q)| match &q.state {
                QueueState::Running {
                    id: r,
                    started,
                    packet,
                } if *r == id => Some((qi, *started, packet.tag)),
                _ => None,
            })
            .expect("completed kernel not tracked");
        let queue = QueueId(qi as u32);
        self.queues[qi].state = QueueState::Idle;
        self.refresh_runnable(qi);
        self.obs
            .bus
            .emit(self.now.as_nanos(), || EventKind::KernelComplete {
                queue: queue.0,
                tag,
                start_ns: started.as_nanos(),
                mask: mask.raw_words(),
                granted_cus: mask.count(),
            });
        if let Some(series) = &mut self.series {
            series.completed(qi, &mask, self.now.saturating_since(started).as_nanos());
        }
        self.out.push_back(SimEvent::KernelCompleted {
            queue,
            tag,
            at: self.now,
        });
    }

    fn pump_queues(&mut self) {
        // Cursor walk: pumping one queue never makes another runnable
        // (all effects are queue-local), so ascending-index iteration over
        // the members past the cursor matches the old full scan exactly.
        let mut cursor = 0;
        while let Some(&next) = self.runnable.range(cursor..).next() {
            cursor = next + 1;
            let qi = next as usize;
            while self.queue_runnable(qi) {
                let packet = self.queues[qi].packets.pop_front().expect("ready queue");
                match packet {
                    AqlPacket::Barrier(b) => match b.wait_on {
                        Some(signal) if !self.completed_signals.contains(&signal) => {
                            self.queues[qi].state = QueueState::BlockedOnSignal {
                                signal,
                                tag: b.tag,
                                since: self.now,
                            };
                            break;
                        }
                        _ => self.consume_barrier(QueueId(qi as u32), b.tag, self.now),
                    },
                    AqlPacket::Dispatch(d) => {
                        let queue = QueueId(qi as u32);
                        let mut delay = self.costs.kernel_launch;
                        if self.sized(&d).is_some() {
                            delay += self.costs.mask_generation;
                        }
                        self.obs
                            .bus
                            .emit(self.now.as_nanos(), || EventKind::KernelDispatch {
                                queue: queue.0,
                                tag: d.tag,
                                required_cus: d.partition_cus.unwrap_or(0),
                            });
                        self.queues[qi].state = QueueState::Dispatching(d);
                        self.push_timer(self.now + delay, TimerKind::QueueDelay(queue));
                        break;
                    }
                }
            }
            self.refresh_runnable(qi);
        }
    }

    fn start_pending_dispatch(&mut self, queue: QueueId) {
        // A queue not dispatching means the dispatch was aborted
        // mid-launch (watchdog): the timer is stale. After a release the
        // queue may be dispatching a later packet, which then starts here.
        let qi = queue.0 as usize;
        let d = match mem::replace(&mut self.queues[qi].state, QueueState::Idle) {
            QueueState::Dispatching(d) => d,
            state => {
                self.queues[qi].state = state;
                return;
            }
        };
        let sized = self.sized(&d);
        let mut mask = match sized {
            Some(n) => self.allocator.allocate(n, &self.counters, &self.topology),
            None => self.queues[qi].cu_mask,
        };
        if !self.failed_cus.is_empty() {
            // Never run on dead CUs. If the whole mask died (e.g. a
            // stream mask pinned to a failed SE), degrade conservatively
            // to every surviving CU rather than stranding the kernel.
            let survived = mask - self.failed_cus;
            mask = if survived.is_empty() {
                self.healthy_mask()
            } else {
                survived
            };
        }
        assert!(
            !mask.is_empty(),
            "allocator/queue produced an empty mask for {queue}"
        );
        self.obs
            .bus
            .emit(self.now.as_nanos(), || EventKind::MaskApplied {
                queue: queue.0,
                tag: d.tag,
                mask: mask.raw_words(),
                granted_cus: mask.count(),
                required_cus: d.partition_cus.unwrap_or(0),
            });
        if let Some(series) = &self.series {
            series.dispatched(sized.is_some());
        }
        let jitter = self.sample_jitter();
        let straggle = self.straggle_factor(queue);
        let id = self
            .engine
            .dispatch(
                d.kernel.work * jitter * straggle,
                d.kernel.parallelism,
                d.kernel.bandwidth_floor,
                mask,
            )
            .expect("non-empty mask");
        self.counters.assign(&mask);
        self.out.push_back(SimEvent::KernelStarted {
            queue,
            tag: d.tag,
            at: self.now,
            mask,
        });
        self.queues[qi].state = QueueState::Running {
            id,
            started: self.now,
            packet: d,
        };
        self.refresh_runnable(qi);
    }

    /// Mean-one lognormal multiplicative jitter.
    fn sample_jitter(&mut self) -> f64 {
        if self.jitter_sigma == 0.0 {
            return 1.0;
        }
        // Box-Muller from two uniforms; StdRng is seeded, so runs are
        // reproducible.
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let sigma = self.jitter_sigma;
        (sigma * z - sigma * sigma / 2.0).exp()
    }
}

#[cfg(test)]
mod tests;
