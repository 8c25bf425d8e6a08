//! Heap allocations on the recording path. With events and metrics
//! recording, a run twice as long may allocate more for its extra
//! requests and for its growing event buffer, but not per simulated
//! kernel: every metric series is registered once and recorded into
//! preallocated storage.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use krisp::Policy;
use krisp_models::ModelKind;
use krisp_obs::Obs;
use krisp_server::{oracle_perfdb, run_server_observed, ServerConfig};
use krisp_sim::SimDuration;

thread_local! {
    /// Heap allocations made by this thread (alloc, zeroed alloc and
    /// realloc calls), so tests on other threads cannot disturb a count.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// The system allocator, counting every allocation per thread.
struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the thread-local
// counter is a const-initialised `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One recorded run of `duration`: `(allocations, kernels dispatched)`.
fn recorded_run(duration: SimDuration) -> (u64, u64) {
    let mut cfg = ServerConfig::closed_loop(Policy::KrispI, vec![ModelKind::Squeezenet; 2], 8);
    cfg.warmup = Some(SimDuration::from_millis(20));
    cfg.duration = Some(duration);
    let db = oracle_perfdb(&cfg.models, &[cfg.batch]);
    let before = ALLOCATIONS.with(Cell::get);
    let (obs, _sink) = Obs::recording(1 << 20);
    run_server_observed(&cfg, &db, obs.clone());
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let registry = obs.metrics.snapshot().expect("metrics recorded");
    let kernels = registry
        .counters()
        .filter(|(key, _)| key.name == "krisp_kernel_dispatches_total")
        .map(|(_, n)| n)
        .sum();
    (allocations, kernels)
}

#[test]
fn recording_makes_no_heap_allocation_per_kernel() {
    let window = SimDuration::from_millis(100);
    let (allocs_t, kernels_t) = recorded_run(window);
    let (allocs_2t, kernels_2t) = recorded_run(window * 2);
    assert!(
        kernels_2t > kernels_t,
        "{kernels_t} vs {kernels_2t} kernels"
    );
    let per_kernel = allocs_2t.saturating_sub(allocs_t) as f64 / (kernels_2t - kernels_t) as f64;
    assert!(
        per_kernel < 0.05,
        "{per_kernel:.3} extra allocations per extra kernel \
         ({allocs_t} -> {allocs_2t} allocations, {kernels_t} -> {kernels_2t} kernels)"
    );
}
