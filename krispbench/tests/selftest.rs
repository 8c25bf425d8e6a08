//! Self-tests of the benchmark: seeded inputs, the metric catalogue and
//! its mirror in `BENCHMARK.json`, and the layer counts the predictions
//! rest on.

use krisp_models::ModelKind;
use krisp_server::oracle_perfdb;
use krispbench::digests;
use krispbench::layers::run_traced;
use krispbench::metrics::{valid_name, valid_unit, END_TO_END, FAIL_RATIO, PER_LAYER};
use krispbench::runner::Report;
use krispbench::workload::{job_list, Job, Workload, CLUSTER_JOBS};

fn benchmark_json() -> serde_json::Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
    v.get(key).unwrap_or_else(|| panic!("missing `{key}`"))
}

fn text<'a>(v: &'a serde_json::Value, key: &str) -> &'a str {
    field(v, key)
        .as_str()
        .unwrap_or_else(|| panic!("`{key}` is a string"))
}

#[test]
fn job_lists_are_seeded() {
    for w in Workload::ALL {
        let (a, _) = job_list(w, 7);
        let (b, _) = job_list(w, 7);
        let (c, _) = job_list(w, 8);
        assert!(a.len() >= 100, "{}: {} jobs", w.name(), a.len());
        assert_eq!(a, b, "{}: same seed, same jobs", w.name());
        assert_ne!(a, c, "{}: another seed, other jobs", w.name());
    }
}

#[test]
fn stored_digests_cover_every_job_of_every_stored_seed() {
    for w in Workload::ALL {
        for seed in digests::STORED_SEEDS {
            let (jobs, _) = job_list(w, seed);
            let stored = digests::stored(w, seed).expect("a stored line");
            assert_eq!(stored.len(), jobs.len(), "{} seed {seed}", w.name());
        }
    }
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let names: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    for (i, name) in names.iter().enumerate() {
        assert!(valid_name(name), "bad metric name `{name}`");
        assert!(!names[..i].contains(name), "`{name}` listed twice");
    }
    for (unit, name) in END_TO_END
        .iter()
        .map(|m| (m.unit, m.name))
        .chain(PER_LAYER.iter().map(|m| (m.unit, m.name)))
    {
        assert!(valid_unit(unit), "`{name}` has a bad unit `{unit}`");
    }
    // The result line carries every metric with its unit.
    let report = Report {
        correct: true,
        attempted: 1,
        failed: 0,
        metrics: vec![("requests_per_s", 1.5), ("core.alloc_ns", 2.0)],
        notes: Vec::new(),
    };
    let line: serde_json::Value = serde_json::from_str(&report.json()).expect("valid JSON");
    let m = field(field(&line, "metrics"), "core.alloc_ns");
    assert_eq!(text(m, "unit"), "ns/call");
}

#[test]
fn benchmark_json_mirrors_the_catalogue() {
    let b = benchmark_json();
    let workloads: Vec<&str> = field(&b, "workloads")
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, known);

    let e2e = field(&b, "end_to_end").as_array().expect("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(text(j, "name"), m.name);
        assert_eq!(text(j, "unit"), m.unit);
        assert_eq!(text(j, "better"), m.better);
        assert_eq!(field(j, "bound").as_f64(), Some(m.bound));
    }

    let layers = field(&b, "per_layer").as_array().expect("per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (j, m) in layers.iter().zip(PER_LAYER) {
        assert_eq!(text(j, "name"), m.name);
        assert_eq!(text(j, "unit"), m.unit);
        assert_eq!(text(j, "better"), m.better);
    }
}

#[test]
fn every_layer_metric_names_what_it_should_move() {
    for m in PER_LAYER {
        assert!(!m.predicts.is_empty(), "`{}` predicts nothing", m.name);
        for p in m.predicts {
            assert!(
                p.metric == FAIL_RATIO || END_TO_END.iter().any(|e| e.name == p.metric),
                "`{}` names unknown end-to-end metric `{}`",
                m.name,
                p.metric
            );
            assert!(
                Workload::parse(p.workload).is_some(),
                "`{}` names unknown workload `{}`",
                m.name,
                p.workload
            );
        }
    }
}

#[test]
fn algorithm1_runs_on_closed_krisp_and_never_on_cluster_static() {
    let (cluster, _) = job_list(Workload::ClusterStatic, 0);
    assert_eq!(cluster.len(), CLUSTER_JOBS);
    let db = oracle_perfdb(
        &[
            ModelKind::Albert,
            ModelKind::Squeezenet,
            ModelKind::Resnet152,
        ],
        &[32],
    );
    for job in &cluster[..2] {
        let t = run_traced(job, &db);
        assert_eq!(t.counts.alloc_calls, 0);
        assert!(t.counts.requests > 0);
    }

    let (closed, _) = job_list(Workload::ClosedKrisp, 0);
    let job = closed
        .iter()
        .find(|j| matches!(j, Job::Server(c) if c.models[0] == ModelKind::Squeezenet))
        .expect("a squeezenet job");
    let db = oracle_perfdb(&[ModelKind::Squeezenet], &[32]);
    let a = run_traced(job, &db);
    assert!(a.counts.alloc_calls > 0);
    assert_eq!(a.counts.alloc_calls, a.counts.launches);
    // Deterministic counts repeat exactly.
    let b = run_traced(job, &db);
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.outcome, b.outcome);
}
