//! Simulator throughput: how fast the discrete-event machine processes
//! kernel dispatches under different co-location levels — the cost of
//! every experiment in this suite — and what one contention-engine
//! re-rate costs when a dispatch does or does not share CUs with the
//! kernels already resident.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use krisp::KrispAllocator;
use krisp_runtime::{PartitionMode, Runtime, RuntimeConfig};
use krisp_sim::{CuMask, Engine, GpuTopology, KernelDesc, SeId};

fn run_kernels(workers: usize, per_worker: usize, mode: PartitionMode) -> u64 {
    let mut rt = Runtime::new(RuntimeConfig {
        mode,
        allocator: Box::new(KrispAllocator::isolated()),
        ..RuntimeConfig::default()
    });
    let streams: Vec<_> = (0..workers).map(|_| rt.create_stream()).collect();
    let kernel = KernelDesc::new("bench", 1.0e6, 20);
    if matches!(mode, PartitionMode::KernelScopedNative) {
        rt.perfdb_mut().insert(&kernel, 20);
    }
    for &s in &streams {
        for i in 0..per_worker {
            rt.launch(s, kernel.clone(), i as u64);
        }
    }
    rt.run_to_idle();
    rt.now().as_nanos()
}

fn bench_machine(c: &mut Criterion) {
    let mut group = c.benchmark_group("machine_dispatch_chain");
    group.sample_size(20);
    for &workers in &[1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("stream_masking", workers),
            &workers,
            |b, &w| b.iter(|| black_box(run_kernels(w, 200, PartitionMode::StreamMasking))),
        );
        group.bench_with_input(
            BenchmarkId::new("kernel_scoped_native", workers),
            &workers,
            |b, &w| b.iter(|| black_box(run_kernels(w, 200, PartitionMode::KernelScopedNative))),
        );
    }
    group.finish();
}

/// A dispatch/complete pair against four long-running co-resident
/// kernels. `overlapped` shares CUs with all of them, so every dispatch
/// re-rates the whole set; `disjoint` churns on SE0 while the residents
/// hold one SE each, the case the incremental engine skips.
fn bench_rate_recompute(c: &mut Criterion) {
    let topo = GpuTopology::MI50;
    let se = |s: u8| -> CuMask { topo.cus_in_se(SeId(s)).collect() };
    let shared = CuMask::first_n(30, &topo);
    let cases = [
        ("overlapped", [shared; 4], shared),
        ("disjoint", [se(0), se(1), se(2), se(3)], se(0)),
    ];
    let mut group = c.benchmark_group("rate_recompute");
    for (name, residents, churn) in cases {
        let mut e = Engine::new(topo);
        for mask in residents {
            e.dispatch(1.0e12, 60, 0.0, mask).expect("mask");
        }
        group.bench_function(name, |b| {
            b.iter(|| {
                let id = e.dispatch(1.0e6, 60, 0.0, churn).expect("mask");
                e.complete(id)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_machine, bench_rate_recompute);
criterion_main!(benches);
