//! Visualizing kernel-scoped partitions: a Gantt chart of which CUs each
//! stream's kernels occupy over time, under stream masking vs KRISP-I.
//!
//! ```sh
//! cargo run --release --example timeline
//! ```

use krisp_suite::core::KrispAllocator;
use krisp_suite::models::{generate_trace, ModelKind, TraceConfig};
use krisp_suite::obs::{gantt, Obs};
use krisp_suite::runtime::{PartitionMode, Runtime, RuntimeConfig};
use krisp_suite::server::oracle_perfdb;

fn record(mode: PartitionMode, title: &str) {
    let perfdb = oracle_perfdb(&[ModelKind::Albert, ModelKind::Alexnet], &[32]);
    let (obs, sink) = Obs::recording(1 << 16);
    let mut rt = Runtime::new(RuntimeConfig {
        mode,
        allocator: Box::new(KrispAllocator::isolated()),
        perfdb: std::sync::Arc::new(perfdb),
        obs,
        ..RuntimeConfig::default()
    });
    // Two streams: a spiky transformer and a fat CNN.
    let sa = rt.create_stream();
    let sb = rt.create_stream();
    let ta = generate_trace(ModelKind::Albert, &TraceConfig::default());
    let tb = generate_trace(ModelKind::Alexnet, &TraceConfig::default());
    for (i, k) in ta.iter().take(60).enumerate() {
        rt.launch(sa, k.clone(), i as u64);
    }
    for (i, k) in tb.iter().take(8).enumerate() {
        rt.launch(sb, k.clone(), i as u64);
    }
    rt.run_to_idle();
    let mut sink = sink.lock().expect("obs sink poisoned");
    assert_eq!(sink.dropped(), 0, "the event ring overflowed");
    let events = sink.drain();
    let topo = rt.topology();
    let (ses, cus_per_se) = (topo.num_ses().into(), topo.cus_per_se().into());
    println!("\n=== {title} ===");
    println!("(rows: CUs top-down; A = albert stream, B = alexnet stream, # = shared)\n");
    print!("{}", gantt::gantt(&events, ses, cus_per_se, 100));
    let profile = gantt::occupancy_profile(&events, topo.total_cus(), 10);
    let mean = profile.iter().sum::<f64>() / profile.len() as f64;
    println!("mean occupied fraction: {:.0}%", mean * 100.0);
}

fn main() {
    record(
        PartitionMode::StreamMasking,
        "stream masking (both streams own the whole device)",
    );
    record(
        PartitionMode::KernelScopedNative,
        "KRISP-I (each kernel right-sized and isolated)",
    );
    println!("\nUnder KRISP the footprints change at every kernel boundary and the");
    println!("streams never share a CU; under stream masking everything overlaps.");
}
