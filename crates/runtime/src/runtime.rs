//! The runtime proper: streams, launch interception, and the emulation
//! machinery. See the [crate docs](crate) for the big picture.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::Arc;

use krisp_obs::{CounterHandle, EventKind, Obs};
use krisp_sim::{
    AqlPacket, CuKernelCounters, CuMask, EnforcementMode, FullMaskAllocator, GpuTopology,
    KernelDesc, Machine, MachineConfig, MachineError, MaskAllocator, QueueId, SignalId,
    SimDuration, SimEvent, SimTime,
};

use crate::budget::RetryBudget;
use crate::error::KrispError;
use crate::perfdb::RequiredCusTable;
use crate::runtime_config::{
    MaskWidening, PartitionMode, RtEvent, RuntimeConfig, StreamId, WatchdogConfig,
};

/// Tokens/tags with this bit set are reserved for the runtime's internal
/// emulation machinery. Every internal token is `INTERNAL_BIT | n`, with
/// `n` drawn from one counter, so no two pending entries share a token.
const INTERNAL_BIT: u64 = 1 << 63;

/// A hash map with fixed SipHash keys. With per-process random keys, the
/// slots freed by per-kernel churn, and so whether an insert rehashes in
/// place or reallocates, would vary, and allocation counts with them.
type Table<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

#[derive(Debug, Clone, Copy)]
struct EmuPending {
    queue: QueueId,
    required_cus: u16,
    signal: SignalId,
}

/// An armed watchdog deadline for one in-flight kernel.
#[derive(Debug, Clone, Copy)]
struct WdArm {
    queue: QueueId,
    tag: u64,
    started: SimTime,
    expected: SimDuration,
}

/// What an internal barrier tag or timer token stands for. Each entry
/// stays in [`Runtime::pending`] until its barrier is consumed or its
/// timer fires.
#[derive(Debug)]
enum Internal {
    /// A B1 barrier: once consumed, the reconfiguration begins.
    Barrier(EmuPending),
    /// The reconfiguration timer, with the instant it began.
    Reconfig(EmuPending, SimTime),
    /// A watchdog deadline; it counts only while its kernel's [`Guard`]
    /// is armed with this token.
    Deadline(WdArm),
    /// A retry backoff elapsed: release the held queue.
    Release(QueueId),
    /// Re-attempt `attempt + 1` of a CU-mask apply that an injected
    /// fault rejected.
    MaskRetry(EmuPending, CuMask, u32),
}

/// Watchdog state for one launched kernel (kept only while a watchdog is
/// configured), keyed by `(queue, tag)`.
#[derive(Debug)]
struct Guard {
    /// The launch-time descriptor, for expected-duration estimates.
    kernel: KernelDesc,
    /// The token of the deadline currently armed for it, if any.
    armed: Option<u64>,
    /// Timeouts already charged to it (survives across retries).
    attempts: u32,
}

/// The GPU runtime: owns the simulated machine and implements the
/// partitioning modes. See the [crate docs](crate) for an example.
pub struct Runtime {
    machine: Machine,
    mode: PartitionMode,
    perfdb: Arc<RequiredCusTable>,
    /// Allocator used by the *emulated* path (the native path's allocator
    /// lives inside the machine's packet processor).
    emu_allocator: Option<Box<dyn MaskAllocator>>,
    /// Internal barrier tag or timer token → what it stands for.
    pending: Table<u64, Internal>,
    next_internal: u64,
    emulated_launches: u64,
    /// `krisp_emulated_launches_total`, registered once.
    emulated_launches_total: CounterHandle,
    obs: Obs,
    watchdog: Option<WatchdogConfig>,
    /// Watchdog state of every launched kernel, by `(queue, tag)`.
    guards: Table<(QueueId, u64), Guard>,
    /// Streams permanently downgraded from kernel-scoped emulation to
    /// stream-scoped masking after persistent mask-apply faults.
    stream_fallback: HashSet<QueueId>,
    /// Degradations recorded instead of panicking.
    errors: Vec<KrispError>,
    /// Sliding-window retry budget (when configured).
    retry_budget: Option<RetryBudget>,
    /// Brownout widening applied on top of every right-size lookup.
    widening: MaskWidening,
}

impl fmt::Debug for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("mode", &self.mode)
            .field("now", &self.machine.now())
            .field("emulated_launches", &self.emulated_launches)
            .finish_non_exhaustive()
    }
}

impl Runtime {
    /// Creates a runtime (and its machine) from a configuration.
    pub fn new(config: RuntimeConfig) -> Runtime {
        let (machine_mode, machine_alloc, emu_alloc): (
            EnforcementMode,
            Box<dyn MaskAllocator>,
            Option<Box<dyn MaskAllocator>>,
        ) = match config.mode {
            PartitionMode::StreamMasking => (
                EnforcementMode::QueueMask,
                Box::new(FullMaskAllocator),
                None,
            ),
            PartitionMode::KernelScopedNative => {
                (EnforcementMode::KernelScoped, config.allocator, None)
            }
            PartitionMode::KernelScopedEmulated(_) => (
                EnforcementMode::QueueMask,
                Box::new(FullMaskAllocator),
                Some(config.allocator),
            ),
        };
        let machine = Machine::new(MachineConfig {
            topology: config.topology,
            power: config.power,
            costs: config.costs,
            mode: machine_mode,
            allocator: machine_alloc,
            seed: config.seed,
            jitter_sigma: config.jitter_sigma,
            sharing_penalty: config.sharing_penalty,
            obs: config.obs.clone(),
            faults: config.faults,
        });
        Runtime {
            machine,
            mode: config.mode,
            perfdb: config.perfdb,
            emu_allocator: emu_alloc,
            pending: Table::default(),
            next_internal: 0,
            emulated_launches: 0,
            emulated_launches_total: config
                .obs
                .metrics
                .register_counter("krisp_emulated_launches_total", &[]),
            obs: config.obs,
            watchdog: config.watchdog,
            guards: Table::default(),
            stream_fallback: HashSet::new(),
            errors: Vec::new(),
            retry_budget: config.retry_budget.map(RetryBudget::new),
            widening: MaskWidening::None,
        }
    }

    /// Publishes the machine's per-CU and per-queue metric series; see
    /// [`Machine::publish_metrics`]. Call it when the run ends.
    pub fn publish_metrics(&mut self) {
        self.machine.publish_metrics();
    }

    /// The device topology.
    pub fn topology(&self) -> GpuTopology {
        self.machine.topology()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.machine.now()
    }

    /// Energy consumed so far in joules.
    pub fn energy_joules(&self) -> f64 {
        self.machine.energy_joules()
    }

    /// Integral of occupied CUs over time (CU·seconds) — see
    /// [`Machine::busy_cu_seconds`].
    pub fn busy_cu_seconds(&self) -> f64 {
        self.machine.busy_cu_seconds()
    }

    /// Integral of delivered service over time (CU·seconds) — see
    /// [`Machine::service_cu_seconds`].
    pub fn service_cu_seconds(&self) -> f64 {
        self.machine.service_cu_seconds()
    }

    /// The machine's per-CU kernel counters (Resource Monitor).
    pub fn counters(&self) -> &CuKernelCounters {
        self.machine.counters()
    }

    /// The partitioning mode.
    pub fn mode(&self) -> PartitionMode {
        self.mode
    }

    /// The Required-CUs table.
    pub fn perfdb(&self) -> &RequiredCusTable {
        &self.perfdb
    }

    /// Mutable access to the Required-CUs table (e.g. to install profiles
    /// at "library installation time").
    pub fn perfdb_mut(&mut self) -> &mut RequiredCusTable {
        Arc::make_mut(&mut self.perfdb)
    }

    /// Number of launches that went through the emulation path.
    pub fn emulated_launches(&self) -> u64 {
        self.emulated_launches
    }

    /// CUs that have permanently failed (injected faults).
    pub fn failed_cus(&self) -> CuMask {
        self.machine.failed_cus()
    }

    /// The CUs still alive.
    pub fn healthy_mask(&self) -> CuMask {
        self.machine.healthy_mask()
    }

    /// Degradations recorded so far (perfdb staleness, abandoned
    /// kernels, stream-scoped fallbacks, …) in occurrence order.
    pub fn errors(&self) -> &[KrispError] {
        &self.errors
    }

    /// Drains the recorded degradations (for surfacing in run results).
    pub fn take_errors(&mut self) -> Vec<KrispError> {
        std::mem::take(&mut self.errors)
    }

    /// Sets the brownout widening applied on top of every subsequent
    /// right-size lookup (the sentinel's lever; [`MaskWidening::None`]
    /// restores exact right-sizing).
    pub fn set_mask_widening(&mut self, widening: MaskWidening) {
        self.widening = widening;
    }

    /// Watchdog retries granted and denied by the retry budget so far
    /// (`(0, 0)` when no budget is configured).
    pub fn retry_budget_counters(&self) -> (u64, u64) {
        self.retry_budget
            .as_ref()
            .map_or((0, 0), |b| (b.granted(), b.denied()))
    }

    /// Streams that fell back from kernel-scoped emulation to
    /// stream-scoped masking after persistent mask-apply faults.
    pub fn stream_fallbacks(&self) -> Vec<StreamId> {
        let mut v: Vec<StreamId> = self.stream_fallback.iter().map(|q| (*q).into()).collect();
        v.sort();
        v
    }

    /// Creates a stream (HSA queue) with the full-device mask.
    pub fn create_stream(&mut self) -> StreamId {
        self.machine.create_queue().into()
    }

    /// The CU-Masking API: sets a stream's CU mask. Only meaningful in
    /// [`PartitionMode::StreamMasking`] (the kernel-scoped modes override
    /// it per kernel, except for unprofiled legacy launches).
    ///
    /// # Errors
    ///
    /// Propagates [`MachineError`] for unknown streams or empty masks.
    pub fn set_stream_mask(&mut self, stream: StreamId, mask: CuMask) -> Result<(), MachineError> {
        self.machine.set_queue_mask(stream.into(), mask)
    }

    /// A stream's current CU mask.
    ///
    /// # Errors
    ///
    /// Propagates [`MachineError`] for unknown streams.
    pub fn stream_mask(&self, stream: StreamId) -> Result<CuMask, MachineError> {
        self.machine.queue_mask(stream.into())
    }

    /// Launches a kernel on a stream. Interception depends on the mode:
    /// stream masking passes the launch through; the kernel-scoped modes
    /// right-size it from the Required-CUs table (falling back to the
    /// full device for unprofiled kernels).
    ///
    /// # Panics
    ///
    /// Panics if `tag` has the internal reservation bit (bit 63) set.
    pub fn launch(&mut self, stream: StreamId, kernel: KernelDesc, tag: u64) {
        assert_eq!(tag & INTERNAL_BIT, 0, "tag bit 63 is reserved");
        let queue: QueueId = stream.into();
        if self.watchdog.is_some() {
            // A reused (queue, tag) keeps its armed deadline and attempts.
            self.guards
                .entry((queue, tag))
                .and_modify(|g| g.kernel = kernel.clone())
                .or_insert_with(|| Guard {
                    kernel: kernel.clone(),
                    armed: None,
                    attempts: 0,
                });
        }
        match self.mode {
            PartitionMode::KernelScopedNative => {
                let required = self.right_size(&kernel);
                self.machine
                    .push_sized_dispatch(queue, kernel, required, tag);
            }
            PartitionMode::KernelScopedEmulated(_) if !self.stream_fallback.contains(&queue) => {
                let required = self.right_size(&kernel);
                let b1 = draw_token(&mut self.next_internal);
                let b2 = draw_token(&mut self.next_internal);
                let signal = self.machine.create_signal();
                self.machine.push_barrier(queue, None, b1);
                self.machine.push_barrier(queue, Some(signal), b2);
                self.machine.push_dispatch(queue, kernel, tag);
                self.pending.insert(
                    b1,
                    Internal::Barrier(EmuPending {
                        queue,
                        required_cus: required,
                        signal,
                    }),
                );
                self.emulated_launches += 1;
                self.emulated_launches_total.inc(1);
            }
            // Stream masking, or an emulated stream whose mask IOCTLs keep
            // faulting: it runs degraded on its last good stream mask.
            _ => self.machine.push_dispatch(queue, kernel, tag),
        }
    }

    /// The conservative right-size for a kernel: the profiled minimum,
    /// or the full device on a miss (the baseline behavior) or a stale
    /// entry (recorded as a [`KrispError::StalePerfDbEntry`]).
    fn right_size(&mut self, kernel: &KernelDesc) -> u16 {
        let total = self.machine.topology().total_cus();
        let sized = match self.perfdb.lookup_validated(kernel, total) {
            Ok(Some(cus)) => cus,
            Ok(None) => total,
            Err(e) => {
                self.obs.metrics.inc("krisp_perfdb_stale_total", &[], 1);
                self.errors.push(e);
                total
            }
        };
        self.widening.apply(sized, total)
    }

    /// Registers a client timer.
    ///
    /// # Panics
    ///
    /// Panics if `token` has the internal reservation bit (bit 63) set.
    pub fn add_timer(&mut self, delay: SimDuration, token: u64) {
        assert_eq!(token & INTERNAL_BIT, 0, "token bit 63 is reserved");
        self.machine.add_timer(delay, token);
    }

    /// The instant of the runtime's next event (`None` when drained) —
    /// see `Machine::next_event_at`.
    pub fn next_event_at(&self) -> Option<krisp_sim::SimTime> {
        self.machine.next_event_at()
    }

    /// Advances to the next client-visible event, or `None` when the
    /// simulation has fully drained. Internal emulation events (barrier
    /// callbacks, IOCTL completions) are handled transparently.
    pub fn step(&mut self) -> Option<RtEvent> {
        loop {
            let ev = self.machine.step()?;
            match ev {
                SimEvent::KernelStarted {
                    queue,
                    tag,
                    at,
                    mask,
                } => {
                    self.arm_watchdog(queue, tag, at, &mask);
                    return Some(RtEvent::KernelStarted {
                        stream: queue.into(),
                        tag,
                        at,
                        mask,
                    });
                }
                SimEvent::KernelCompleted { queue, tag, at } => {
                    // Clears all watchdog state; the deadline timer still
                    // fires later and finds no armed guard.
                    self.guards.remove(&(queue, tag));
                    if let Some(budget) = self.retry_budget.as_mut() {
                        budget.record_success(at);
                    }
                    return Some(RtEvent::KernelCompleted {
                        stream: queue.into(),
                        tag,
                        at,
                    });
                }
                SimEvent::CusFailed { mask, at } => {
                    return Some(RtEvent::CusFailed { mask, at });
                }
                SimEvent::TimerFired { token, at } => {
                    if token & INTERNAL_BIT == 0 {
                        return Some(RtEvent::TimerFired { token, at });
                    }
                    if let Some(ev) = self.handle_internal_timer(token, at) {
                        return Some(ev);
                    }
                }
                SimEvent::BarrierConsumed { tag, .. } => {
                    // B2 barriers are release fences with no entry.
                    if let Some(Internal::Barrier(pending)) = self.pending.remove(&tag) {
                        // B1 consumed: schedule the runtime callback +
                        // IOCTL, after which the queue mask is rewritten
                        // and B2 released.
                        let costs = match self.mode {
                            PartitionMode::KernelScopedEmulated(c) => c,
                            _ => unreachable!("emulation barrier outside emulated mode"),
                        };
                        let token = draw_token(&mut self.next_internal);
                        let started = self.machine.now();
                        self.obs
                            .bus
                            .emit(started.as_nanos(), || EventKind::ReconfigStart {
                                queue: pending.queue.0,
                                token,
                            });
                        self.pending
                            .insert(token, Internal::Reconfig(pending, started));
                        self.machine.add_timer(costs.per_kernel(), token);
                    }
                }
            }
        }
    }

    /// Runs until fully drained, returning all events.
    pub fn run_to_idle(&mut self) -> Vec<RtEvent> {
        let mut evs = Vec::new();
        while let Some(ev) = self.step() {
            evs.push(ev);
        }
        evs
    }

    /// Routes an internal timer to its subsystem. Returns a client event
    /// only when a kernel is abandoned.
    fn handle_internal_timer(&mut self, token: u64, at: SimTime) -> Option<RtEvent> {
        match self.pending.remove(&token) {
            Some(Internal::Reconfig(pending, started)) => {
                self.finish_emulated_reconfiguration(token, pending, started);
            }
            Some(Internal::Deadline(arm)) => {
                // The deadline is stale unless its kernel is still armed
                // with it: the kernel completed, or its (queue, tag) was
                // reused by a later launch.
                match self.guards.get_mut(&(arm.queue, arm.tag)) {
                    Some(guard) if guard.armed == Some(token) => guard.armed = None,
                    _ => return None,
                }
                return self.handle_watchdog_deadline(arm, at);
            }
            // Backoff elapsed: let the command processor re-pop the
            // retried packet.
            Some(Internal::Release(queue)) => self.machine.release_queue(queue),
            Some(Internal::MaskRetry(pending, mask, attempt)) => {
                self.apply_emulated_mask(pending, mask, attempt + 1);
            }
            Some(Internal::Barrier(_)) | None => {
                self.errors.push(KrispError::InternalState {
                    detail: format!("internal timer {token:#x} without a pending entry"),
                });
            }
        }
        None
    }

    /// Arms a watchdog deadline for a kernel that just started.
    fn arm_watchdog(&mut self, queue: QueueId, tag: u64, at: SimTime, mask: &CuMask) {
        let Some(wd) = self.watchdog else { return };
        let Some(guard) = self.guards.get_mut(&(queue, tag)) else {
            return;
        };
        let expected = guard.kernel.isolated_latency(mask.count());
        let token = draw_token(&mut self.next_internal);
        guard.armed = Some(token);
        self.pending.insert(
            token,
            Internal::Deadline(WdArm {
                queue,
                tag,
                started: at,
                expected,
            }),
        );
        self.machine.add_timer(wd.deadline(expected), token);
    }

    /// A kernel blew its deadline: abort it, then retry after backoff or
    /// abandon it once the retry budget is spent.
    fn handle_watchdog_deadline(&mut self, arm: WdArm, at: SimTime) -> Option<RtEvent> {
        let wd = self.watchdog.unwrap_or_default();
        let key = (arm.queue, arm.tag);
        let Some(packet) = self.machine.abort_inflight(arm.queue) else {
            // The kernel slipped out between deadline computation and
            // firing; nothing in flight to abort.
            return None;
        };
        if packet.tag != arm.tag {
            // A different kernel is in flight (should not happen with
            // serial queues); put it back untouched and report the bug.
            self.machine.push_packet_front(arm.queue, packet.into());
            self.machine.release_queue(arm.queue);
            self.errors.push(KrispError::InternalState {
                detail: format!(
                    "watchdog for tag {} aborted tag mismatch on {}",
                    arm.tag, arm.queue
                ),
            });
            return None;
        }
        let attempts = self.guards.get_mut(&key).map_or(1, |g| {
            g.attempts += 1;
            g.attempts
        });
        let ran = at.saturating_since(arm.started);
        self.obs
            .bus
            .emit(at.as_nanos(), || EventKind::KernelTimeout {
                queue: arm.queue.0,
                tag: arm.tag,
                ran_ns: ran.as_nanos(),
                expected_ns: arm.expected.as_nanos(),
            });
        self.obs.metrics.inc("krisp_kernel_timeouts_total", &[], 1);
        // The retry budget is evaluated lazily here rather than via its
        // own expiry timer: such a timer would split the machine's
        // integration intervals and so move the energy and utilization
        // bits. Window expiry deterministically precedes the allowance
        // check when both land on this tick — see `budget` module docs
        // for the tie-break.
        let mut budget_denied = false;
        if attempts <= wd.max_retries {
            let granted = match self.retry_budget.as_mut() {
                Some(budget) => budget.try_spend(at),
                None => true,
            };
            if granted {
                self.obs.bus.emit(at.as_nanos(), || EventKind::KernelRetry {
                    queue: arm.queue.0,
                    tag: arm.tag,
                    attempt: attempts,
                });
                self.obs.metrics.inc("krisp_kernel_retries_total", &[], 1);
                self.machine
                    .push_packet_front(arm.queue, AqlPacket::Dispatch(packet));
                // The queue stays held until the backoff elapses; attempt n
                // backs off n × the base.
                let token = draw_token(&mut self.next_internal);
                self.pending.insert(token, Internal::Release(arm.queue));
                self.machine.add_timer(wd.backoff * attempts as u64, token);
                return None;
            }
            budget_denied = true;
            self.obs
                .bus
                .emit(at.as_nanos(), || EventKind::RetryBudgetExhausted {
                    queue: arm.queue.0,
                    tag: arm.tag,
                });
            self.obs
                .metrics
                .inc("krisp_retry_budget_denied_total", &[], 1);
        }
        self.obs
            .bus
            .emit(at.as_nanos(), || EventKind::KernelAbandoned {
                queue: arm.queue.0,
                tag: arm.tag,
                attempts,
            });
        self.obs
            .metrics
            .inc("krisp_kernels_abandoned_total", &[], 1);
        self.guards.remove(&key);
        // Drop the packet and let the rest of the stream continue.
        self.machine.release_queue(arm.queue);
        let error = if budget_denied {
            KrispError::RetryBudgetExhausted {
                stream: arm.queue.0,
                tag: arm.tag,
            }
        } else {
            KrispError::KernelTimeout {
                stream: arm.queue.0,
                tag: arm.tag,
                attempts,
            }
        };
        self.errors.push(error.clone());
        Some(RtEvent::KernelFailed {
            stream: arm.queue.into(),
            tag: arm.tag,
            at,
            error,
        })
    }

    fn finish_emulated_reconfiguration(
        &mut self,
        token: u64,
        pending: EmuPending,
        started: SimTime,
    ) {
        let allocator = self.emu_allocator.as_mut().expect("emulation allocator");
        let topo = self.machine.topology();
        let mask = allocator.allocate(pending.required_cus, self.machine.counters(), &topo);
        self.obs
            .bus
            .emit(self.machine.now().as_nanos(), || EventKind::ReconfigEnd {
                queue: pending.queue.0,
                token,
                start_ns: started.as_nanos(),
                granted_cus: mask.count(),
            });
        self.apply_emulated_mask(pending, mask, 1);
    }

    /// Applies the reconfigured mask for an emulated launch, retrying
    /// rejected IOCTLs with bounded backoff and permanently falling back
    /// to stream-scoped masking once the budget is exhausted.
    fn apply_emulated_mask(&mut self, pending: EmuPending, mask: CuMask, attempt: u32) {
        match self.machine.set_queue_mask(pending.queue, mask) {
            Ok(()) => self.machine.complete_signal(pending.signal),
            Err(MachineError::MaskApplyRejected(_)) => {
                let wd = self.watchdog.unwrap_or_default();
                if attempt <= wd.max_retries {
                    self.obs
                        .metrics
                        .inc("krisp_mask_apply_retries_total", &[], 1);
                    let token = draw_token(&mut self.next_internal);
                    self.pending
                        .insert(token, Internal::MaskRetry(pending, mask, attempt));
                    self.machine.add_timer(wd.backoff * attempt as u64, token);
                } else {
                    let now = self.machine.now().as_nanos();
                    self.obs.bus.emit(now, || EventKind::FallbackStreamScoped {
                        queue: pending.queue.0,
                    });
                    self.obs.metrics.inc("krisp_stream_fallbacks_total", &[], 1);
                    self.stream_fallback.insert(pending.queue);
                    self.errors.push(KrispError::MaskApply {
                        stream: pending.queue.0,
                        attempts: attempt,
                    });
                    // Run the pending kernel on the stream's last good
                    // mask instead of deadlocking it.
                    self.machine.complete_signal(pending.signal);
                }
            }
            Err(e) => {
                self.errors.push(e.into());
                self.machine.complete_signal(pending.signal);
            }
        }
    }
}

/// Draws the next internal token from `counter`.
fn draw_token(counter: &mut u64) -> u64 {
    let t = INTERNAL_BIT | *counter;
    *counter += 1;
    t
}

#[cfg(test)]
mod tests;
