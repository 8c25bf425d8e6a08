//! HSA software queues and AQL packets.
//!
//! The ROCm runtime turns every kernel launch into an *architected
//! queuing language* (AQL) packet pushed onto a user-mode HSA queue that
//! the GPU's command processor drains (§IV-D1). Two packet kinds matter
//! for KRISP:
//!
//! * [`DispatchPacket`] — a kernel launch. KRISP extends this packet with
//!   an optional **partition size** field ([`DispatchPacket::partition_cus`]):
//!   the number of CUs the kernel was right-sized to. The baseline
//!   hardware ignores the field; a KRISP-enabled packet processor turns
//!   it into a per-kernel resource mask.
//! * [`BarrierPacket`] — a dependency fence. The paper's *emulation*
//!   methodology (§V-A) injects two barriers around every kernel packet
//!   to reconfigure the queue's CU mask between kernels; barrier packets
//!   can wait on a [`SignalId`] completed from the host side.
//!
//! Queues here are **serial**: one packet is in flight at a time, which
//! matches how ML frameworks drive a stream (each worker owns one queue).

use std::collections::VecDeque;
use std::fmt;

use crate::engine::KernelId;
use crate::kernel::KernelDesc;
use crate::mask::CuMask;
use crate::time::SimTime;
use crate::topology::GpuTopology;

/// Identifier of an HSA queue (one per stream/worker).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueueId(pub u32);

impl fmt::Display for QueueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Identifier of a host-completable dependency signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignalId(pub u64);

impl fmt::Display for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sig{}", self.0)
    }
}

/// A kernel-dispatch AQL packet.
#[derive(Debug, Clone)]
pub struct DispatchPacket {
    /// The kernel being launched.
    pub kernel: KernelDesc,
    /// KRISP's AQL extension: requested partition size in CUs. `None`
    /// means a legacy packet that inherits the queue's CU mask.
    pub partition_cus: Option<u16>,
    /// Caller-chosen correlation tag echoed in completion events.
    pub tag: u64,
}

/// A barrier AQL packet: consumed only once `wait_on` (if any) has been
/// completed; its consumption is reported to the host.
#[derive(Debug, Clone)]
pub struct BarrierPacket {
    /// Signal this barrier waits for; `None` waits only for the queue's
    /// preceding packets (which serial queues guarantee anyway).
    pub wait_on: Option<SignalId>,
    /// Caller-chosen correlation tag echoed in the consumption event.
    pub tag: u64,
}

/// Any AQL packet.
#[derive(Debug, Clone)]
pub enum AqlPacket {
    /// Kernel launch.
    Dispatch(DispatchPacket),
    /// Dependency fence.
    Barrier(BarrierPacket),
}

impl From<DispatchPacket> for AqlPacket {
    fn from(p: DispatchPacket) -> AqlPacket {
        AqlPacket::Dispatch(p)
    }
}

impl From<BarrierPacket> for AqlPacket {
    fn from(p: BarrierPacket) -> AqlPacket {
        AqlPacket::Barrier(p)
    }
}

/// Execution state of a queue's front packet, carrying what the command
/// processor needs to finish it.
#[derive(Debug)]
pub(crate) enum QueueState {
    /// No packet in flight; the command processor may pop the next one.
    Idle,
    /// Front barrier `tag` has waited for `signal` since `since`.
    BlockedOnSignal {
        signal: SignalId,
        tag: u64,
        since: SimTime,
    },
    /// A dispatch is being processed (launch/mask-generation latency).
    Dispatching(DispatchPacket),
    /// A kernel from this queue has been executing since `started`. The
    /// packet is kept so a watchdog can abort and re-issue it.
    Running {
        id: KernelId,
        started: SimTime,
        packet: DispatchPacket,
    },
}

/// One HSA software queue: a FIFO of packets plus the stream-scoped CU
/// mask set through the CU-Masking API. Its [`QueueId`] is its index in
/// the machine's queue list.
#[derive(Debug)]
pub(crate) struct HsaQueue {
    pub packets: VecDeque<AqlPacket>,
    pub cu_mask: CuMask,
    pub state: QueueState,
    /// Host-side hold: the runtime parks a queue here while it backs off
    /// before retrying an aborted kernel, so the command processor does
    /// not race ahead to the next packet.
    pub held: bool,
}

impl HsaQueue {
    pub fn new(topology: &GpuTopology) -> HsaQueue {
        HsaQueue {
            packets: VecDeque::new(),
            cu_mask: CuMask::full(topology),
            state: QueueState::Idle,
            held: false,
        }
    }

    /// Whether the command processor can make progress on this queue.
    pub fn ready(&self) -> bool {
        !self.held && matches!(self.state, QueueState::Idle) && !self.packets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_queue_defaults_to_full_mask() {
        let topo = GpuTopology::MI50;
        let q = HsaQueue::new(&topo);
        assert_eq!(q.cu_mask.count(), 60);
        assert!(!q.ready());
        assert!(matches!(q.state, QueueState::Idle));
    }

    #[test]
    fn packet_conversions() {
        let d: AqlPacket = DispatchPacket {
            kernel: KernelDesc::new("k", 1.0, 1),
            partition_cus: Some(10),
            tag: 1,
        }
        .into();
        assert!(matches!(d, AqlPacket::Dispatch(_)));
        let b: AqlPacket = BarrierPacket {
            wait_on: None,
            tag: 2,
        }
        .into();
        assert!(matches!(b, AqlPacket::Barrier(_)));
    }

    #[test]
    fn ready_requires_idle_and_packets() {
        let topo = GpuTopology::MI50;
        let mut q = HsaQueue::new(&topo);
        q.packets.push_back(
            BarrierPacket {
                wait_on: None,
                tag: 0,
            }
            .into(),
        );
        assert!(q.ready());
        q.state = QueueState::BlockedOnSignal {
            signal: SignalId(3),
            tag: 0,
            since: SimTime::ZERO,
        };
        assert!(!q.ready());
    }
}
