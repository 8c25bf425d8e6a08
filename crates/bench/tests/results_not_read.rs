//! `krisp-bench` computes every input it needs in the process: what
//! already sits in the results directory must not change what an
//! experiment prints.

use std::path::{Path, PathBuf};
use std::process::Command;

use krisp_models::{generate_trace, ModelKind, TraceConfig};
use krisp_runtime::RequiredCusTable;

fn empty_results_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("krisp-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

fn fig01_stdout(results: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_krisp-bench"))
        .arg("fig01_utilization")
        .env("KRISP_RESULTS", results)
        .output()
        .expect("run krisp-bench");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn a_planted_perfdb_does_not_change_fig01() {
    let clean = empty_results_dir("clean");
    let planted = empty_results_dir("planted");
    // A table that sends every batch-32 kernel to the whole GPU: read
    // back, it would strip KRISP-I of its right-sizing.
    let whole_gpu: RequiredCusTable = ModelKind::ALL
        .iter()
        .flat_map(|&kind| generate_trace(kind, &TraceConfig::with_batch(32)))
        .map(|kernel| (kernel, 60))
        .collect();
    whole_gpu
        .save(planted.join("perfdb_b32.json"))
        .expect("plant perfdb");

    let expected = fig01_stdout(&clean);
    let got = fig01_stdout(&planted);
    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_dir_all(&planted);
    assert_eq!(got, expected, "fig01 read the planted perfdb_b32.json");
}
