//! Table III — per-model kernel counts, model-wise right-size, and
//! isolated 95 % latency: paper values vs values measured on the
//! simulated stack.

use serde::{Deserialize, Serialize};

use krisp::Policy;
use krisp_models::{generate_trace, paper_profile, ModelKind, TraceConfig};
use krisp_runtime::RequiredCusTable;
use krisp_server::{model_right_size, run_server, ServerConfig};
use krisp_sim::GpuTopology;

use std::fmt::Write as _;

use crate::{header_text, save_json};

/// One measured Table III row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Model.
    pub model: ModelKind,
    /// Kernels per inference (measured = generated trace length).
    pub kernels: usize,
    /// Paper's kernel count.
    pub paper_kernels: usize,
    /// Measured model-wise right-size (CUs).
    pub right_size: u16,
    /// Paper's right-size.
    pub paper_right_size: u16,
    /// Measured isolated p95 latency, ms.
    pub p95_ms: f64,
    /// Paper's p95.
    pub paper_p95_ms: f64,
}

/// Regenerates Table III and renders the report without printing.
pub fn report() -> String {
    let mut out = header_text(
        "Table III: models, kernel counts, right-size, isolated 95% latency (batch 32)",
    );
    let topo = GpuTopology::MI50;
    let empty_db = RequiredCusTable::new();
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>8} | {:>5} {:>5} | {:>9} {:>9}",
        "model", "kernels", "(paper)", "rsCU", "(ppr)", "p95 ms", "(paper)"
    );
    let mut rows = Vec::new();
    for model in ModelKind::ALL {
        let paper = paper_profile(model);
        let trace = generate_trace(model, &TraceConfig::default());
        let right_size = model_right_size(model, 32, &topo);
        let iso = run_server(
            &ServerConfig::closed_loop(Policy::MpsDefault, vec![model], 32),
            &empty_db,
        );
        let p95 = iso.max_p95_ms().expect("isolated completes");
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>8} | {:>5} {:>5} | {:>9.1} {:>9.1}",
            model.name(),
            trace.len(),
            paper.kernel_count,
            right_size,
            paper.right_size_cus,
            p95,
            paper.p95_ms
        );
        rows.push(Row {
            model,
            kernels: trace.len(),
            paper_kernels: paper.kernel_count,
            right_size,
            paper_right_size: paper.right_size_cus,
            p95_ms: p95,
            paper_p95_ms: paper.p95_ms,
        });
    }
    save_json("table3.json", &rows);
    out
}
