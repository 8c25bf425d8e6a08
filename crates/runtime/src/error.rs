//! Typed errors for the serving hot path.
//!
//! Faults must degrade service, not kill the process: a stale perfdb
//! entry, a flaky mask IOCTL, or a straggling kernel each have a defined
//! fallback (full partition, stream-scoped masking, bounded retry).
//! [`KrispError`] names every such degradation so run results can
//! surface *what* went wrong instead of a panic backtrace.

use std::error::Error;
use std::fmt;

use krisp_sim::MachineError;

/// Every way the KRISP stack degrades instead of panicking.
///
/// Variants avoid floats so the type stays `Eq`/`Hash`-able and can key
/// error counters deterministically.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KrispError {
    /// A profiled entry claims more CUs than the device has (a stale
    /// profile from different hardware); the runtime fell back to the
    /// full device.
    StalePerfDbEntry {
        /// The kernel whose entry is stale.
        kernel: String,
        /// The profiled minimum CUs.
        profiled: u16,
        /// The device's CU count.
        total_cus: u16,
    },
    /// A CU-mask apply kept failing past the retry budget; the stream
    /// fell back to stream-scoped masking.
    MaskApply {
        /// The affected stream/queue index.
        stream: u32,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A kernel exceeded the watchdog deadline on every retry and was
    /// abandoned.
    KernelTimeout {
        /// The affected stream/queue index.
        stream: u32,
        /// The client's correlation tag.
        tag: u64,
        /// Attempts made (initial run + retries).
        attempts: u32,
    },
    /// The watchdog wanted to retry a kernel but the global retry budget
    /// denied it (too many retries per success in the window); the
    /// kernel was abandoned to avoid a retry storm.
    RetryBudgetExhausted {
        /// The affected stream/queue index.
        stream: u32,
        /// The client's correlation tag.
        tag: u64,
    },
    /// An invariant the runtime relies on was violated (a bug, not an
    /// injected fault) — reported instead of panicking on the hot path.
    InternalState {
        /// What went wrong.
        detail: String,
    },
    /// A machine-level error surfaced through the runtime.
    Machine {
        /// The underlying error, stringified (machine errors carry ids,
        /// not payloads, so no information is lost).
        detail: String,
    },
}

impl fmt::Display for KrispError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KrispError::StalePerfDbEntry {
                kernel,
                profiled,
                total_cus,
            } => write!(
                f,
                "stale Required-CUs entry for `{kernel}`: {profiled} CUs profiled \
                 but the device has {total_cus}"
            ),
            KrispError::MaskApply { stream, attempts } => write!(
                f,
                "CU-mask apply on stream{stream} failed after {attempts} attempts; \
                 fell back to stream-scoped masking"
            ),
            KrispError::KernelTimeout {
                stream,
                tag,
                attempts,
            } => write!(
                f,
                "kernel tag {tag} on stream{stream} abandoned after {attempts} \
                 watchdog timeouts"
            ),
            KrispError::RetryBudgetExhausted { stream, tag } => write!(
                f,
                "kernel tag {tag} on stream{stream} abandoned: retry budget exhausted"
            ),
            KrispError::InternalState { detail } => {
                write!(f, "internal state violation: {detail}")
            }
            KrispError::Machine { detail } => write!(f, "machine error: {detail}"),
        }
    }
}

impl Error for KrispError {}

impl From<MachineError> for KrispError {
    fn from(e: MachineError) -> KrispError {
        KrispError::Machine {
            detail: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krisp_sim::QueueId;

    #[test]
    fn display_is_informative() {
        let e = KrispError::MaskApply {
            stream: 3,
            attempts: 4,
        };
        let s = e.to_string();
        assert!(s.contains("stream3"));
        assert!(s.contains("4 attempts"));
    }

    #[test]
    fn machine_errors_convert() {
        let e: KrispError = MachineError::UnknownQueue(QueueId(7)).into();
        assert!(e.to_string().contains("q7"));
    }

    #[test]
    fn errors_are_hashable_and_eq() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(KrispError::RetryBudgetExhausted { stream: 1, tag: 8 });
        assert!(set.contains(&KrispError::RetryBudgetExhausted { stream: 1, tag: 8 }));
    }
}
