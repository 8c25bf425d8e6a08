//! End-to-end acceptance tests for the observability stack: run a small
//! two-worker experiment with recording enabled and check that the
//! exported trace and metrics are mutually consistent and consistent
//! with the experiment's own results.

use std::collections::HashMap;
use std::path::PathBuf;

use krisp::Policy;
use krisp_models::ModelKind;
use krisp_obs::{perfetto, prometheus, EventKind, Histogram, Obs};
use krisp_runtime::WatchdogConfig;
use krisp_server::{
    oracle_perfdb, run_server, run_server_observed, Arrival, SentinelConfig, ServerConfig,
};
use krisp_sim::stats::percentile;
use krisp_sim::{CuMask, FaultPlan, GpuTopology, SimDuration, SimTime};

fn two_worker_config() -> ServerConfig {
    let mut cfg = ServerConfig::closed_loop(Policy::KrispI, vec![ModelKind::Squeezenet; 2], 8);
    cfg.warmup = Some(SimDuration::from_millis(20));
    cfg.duration = Some(SimDuration::from_millis(200));
    cfg
}

#[test]
fn trace_round_trips_with_consistent_spans_and_busy_time() {
    let cfg = two_worker_config();
    let db = oracle_perfdb(&cfg.models, &[cfg.batch]);
    let (obs, sink) = Obs::recording(1 << 20);
    run_server_observed(&cfg, &db, obs.clone());

    let mut sink = sink.lock().expect("sink");
    assert_eq!(sink.dropped(), 0, "ring buffer must hold the whole run");
    let events = sink.drain();
    let json = perfetto::chrome_trace(&events, cfg.topology.cus_per_se() as u16);

    // The trace is valid JSON and round-trips through serde_json.
    let doc: serde_json::Value = serde_json::from_str(&json).expect("trace parses");
    let trace_events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!trace_events.is_empty());
    let reserialized = serde_json::to_string(&doc).expect("re-serializes");
    let doc2: serde_json::Value = serde_json::from_str(&reserialized).expect("parses again");
    assert_eq!(doc, doc2);

    // Kernel and request spans exist on distinct tracks per worker.
    let mut kernel_tracks = std::collections::HashSet::new();
    let mut request_tracks = std::collections::HashSet::new();
    let mut kernel_us_by_pid: HashMap<u64, f64> = HashMap::new();
    for ev in trace_events {
        if ev.get("ph").and_then(|v| v.as_str()) != Some("X") {
            continue;
        }
        let pid = ev.get("pid").and_then(|v| v.as_u64()).expect("pid");
        let tid = ev.get("tid").and_then(|v| v.as_u64()).expect("tid");
        let name = ev.get("name").and_then(|v| v.as_str()).expect("name");
        if name.starts_with('k') && tid == 1 {
            kernel_tracks.insert((pid, tid));
            *kernel_us_by_pid.entry(pid).or_default() +=
                ev.get("dur").and_then(|v| v.as_f64()).expect("dur");
        } else if name.starts_with("request") {
            request_tracks.insert((pid, tid));
        }
    }
    assert_eq!(kernel_tracks.len(), 2, "one kernel track per worker");
    assert_eq!(request_tracks.len(), 2, "one request track per worker");
    assert!(kernel_tracks.is_disjoint(&request_tracks));

    // Per worker, kernel span durations sum to the machine's busy-time
    // counter within 1% (they derive from the same dispatch bookkeeping,
    // modulo the exporter's 1 ns -> 0.001 us rounding).
    let registry = obs.metrics.snapshot().expect("metrics recorded");
    for (&pid, &span_us) in &kernel_us_by_pid {
        let busy_ns = registry
            .counter("krisp_kernel_busy_ns", &[("queue", &pid.to_string())])
            .expect("busy counter per queue");
        let busy_us = busy_ns as f64 / 1e3;
        let rel = (span_us - busy_us).abs() / busy_us;
        assert!(
            rel < 0.01,
            "worker {pid}: spans {span_us} us vs busy {busy_us} us ({rel:.4} off)"
        );
    }
}

#[test]
fn metrics_snapshot_agrees_with_exact_statistics() {
    let cfg = two_worker_config();
    let db = oracle_perfdb(&cfg.models, &[cfg.batch]);
    let (obs, sink) = Obs::recording(1 << 20);
    run_server_observed(&cfg, &db, obs.clone());
    let events = sink.lock().expect("sink").drain();
    let registry = obs.metrics.snapshot().expect("metrics recorded");

    // The mask-generation histogram counts exactly the KRISP-tagged
    // dispatches (KRISP-I native: every dispatch is kernel-scoped).
    let mask_gen = registry
        .histogram("krisp_mask_generation_ns", &[])
        .expect("mask generation histogram");
    let kernel_scoped = registry
        .counter(
            "krisp_kernel_dispatches_total",
            &[("mode", "kernel_scoped")],
        )
        .expect("dispatch counter");
    assert_eq!(mask_gen.count(), kernel_scoped);

    // The request-latency histogram's p95 stays within one log bucket of
    // the exact nearest-rank percentile over the same samples (rebuilt
    // from the RequestDone events).
    for worker in 0..2u32 {
        let exact_ms: Vec<f64> = events
            .iter()
            .filter(|e| e.worker == worker)
            .filter_map(|e| match e.kind {
                EventKind::RequestDone { start_ns, .. } => Some((e.ts_ns - start_ns) as f64 / 1e6),
                _ => None,
            })
            .collect();
        assert!(!exact_ms.is_empty());
        let hist = registry
            .histogram(
                "krisp_request_latency_ms",
                &[("model", "squeezenet"), ("worker", &worker.to_string())],
            )
            .expect("latency histogram per worker");
        assert_eq!(hist.count(), exact_ms.len() as u64);
        let exact_p95 = percentile(&exact_ms, 95.0).expect("non-empty");
        let sketch_p95 = hist.quantile(95.0).expect("non-empty");
        let off = (Histogram::bucket_of(sketch_p95) - Histogram::bucket_of(exact_p95)).abs();
        assert!(
            off <= 1,
            "worker {worker}: sketch p95 {sketch_p95} vs exact {exact_p95} ({off} buckets)"
        );
    }

    // The exported documents carry the series.
    let text = prometheus::render_text(&registry);
    assert!(text.contains("# TYPE krisp_request_latency_ms histogram"));
    assert!(text.contains("# TYPE krisp_mask_generation_ns histogram"));
    let json = prometheus::render_json(&registry);
    let doc: serde_json::Value = serde_json::from_str(&json).expect("metrics JSON parses");
    assert!(doc
        .get("histograms")
        .and_then(|v| v.as_array())
        .is_some_and(|h| !h.is_empty()));
}

#[test]
fn disabled_observability_leaves_results_identical() {
    let cfg = two_worker_config();
    let db = oracle_perfdb(&cfg.models, &[cfg.batch]);
    let plain = run_server(&cfg, &db);
    let (obs, _sink) = Obs::recording(1 << 20);
    let observed = run_server_observed(&cfg, &db, obs);
    // Observability must not perturb the simulation itself.
    assert_eq!(plain, observed);
}

/// Poisson overload through every guardrail (sheds, brownout
/// transitions) plus a CU loss and a straggler window under the
/// watchdog (timeouts, retries, abandoned kernels), so the exporters
/// render the rare counters as well as the per-kernel series.
fn exporter_config() -> ServerConfig {
    let topo = GpuTopology::MI50;
    let mut cfg = ServerConfig::closed_loop(
        Policy::KrispI,
        vec![ModelKind::Squeezenet, ModelKind::Albert],
        8,
    );
    cfg.arrival = Arrival::Poisson {
        rps_per_worker: 400.0,
    };
    cfg.deadline = Some(SimDuration::from_millis(25));
    cfg.queue_capacity = Some(2);
    cfg.sentinel = Some(SentinelConfig::standard(300.0));
    cfg.watchdog = Some(WatchdogConfig::default());
    cfg.faults = FaultPlan::new()
        .fail_cus(
            SimTime::ZERO + SimDuration::from_millis(60),
            CuMask::first_n(12, &topo),
        )
        .straggle_all(
            SimTime::ZERO + SimDuration::from_millis(100),
            20.0,
            SimDuration::from_millis(60),
        );
    cfg.warmup = Some(SimDuration::from_millis(20));
    cfg.duration = Some(SimDuration::from_millis(200));
    cfg
}

/// `krisp_mask_generation_ns` holds wall-clock nanoseconds: its buckets
/// and sum change from run to run, its count does not. Drops the bucket
/// lines and masks the sum of the Prometheus text.
fn mask_wall_clock_text(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        if line.starts_with("krisp_mask_generation_ns_bucket") {
            continue;
        }
        if line.starts_with("krisp_mask_generation_ns_sum") {
            out.push_str("krisp_mask_generation_ns_sum <wall-clock>\n");
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// The JSON form of [`mask_wall_clock_text`]: keeps the histogram's
/// name, labels and count, masks its sum, extremes and quantiles.
fn mask_wall_clock_json(json: &str) -> String {
    let mut out = String::new();
    for line in json.lines() {
        match line.split_once(",\"sum\":") {
            Some((head, _)) if line.contains("\"name\":\"krisp_mask_generation_ns\"") => {
                out.push_str(head);
                out.push_str(",\"sum\":<wall-clock>}");
                if line.ends_with(',') {
                    out.push(',');
                }
            }
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// Compares `got` with the committed fixture, or rewrites the fixture
/// when `KRISP_BLESS` is set.
fn check_fixture(name: &str, got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name);
    if std::env::var_os("KRISP_BLESS").is_some() {
        std::fs::write(&path, got).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {}: {e} (run with KRISP_BLESS=1)",
            path.display()
        )
    });
    assert_eq!(got, want, "{name}: exported metrics diverged");
}

/// Pins both metrics exporters byte for byte, apart from the wall-clock
/// histogram's buckets and sum. Re-bless (`KRISP_BLESS=1 cargo test -p
/// krisp-server --test observability`) only for an intended change to
/// what a run records.
#[test]
fn exported_metrics_match_the_golden() {
    let cfg = exporter_config();
    let db = oracle_perfdb(&cfg.models, &[cfg.batch]);
    let (obs, _sink) = Obs::recording(1 << 20);
    run_server_observed(&cfg, &db, obs.clone());
    let registry = obs.metrics.snapshot().expect("metrics recorded");
    check_fixture(
        "metrics_exporter.prom",
        &mask_wall_clock_text(&prometheus::render_text(&registry)),
    );
    check_fixture(
        "metrics_exporter.json",
        &mask_wall_clock_json(&prometheus::render_json(&registry)),
    );
}
