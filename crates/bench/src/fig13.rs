//! Fig 13 — the main evaluation: normalized throughput (a), tail latency
//! vs SLO (b), and energy per inference (c) for 8 models × 5 policies ×
//! {1, 2, 4} workers at batch 32.

use krisp::Policy;
use krisp_models::ModelKind;
use krisp_sim::stats::geomean;

use crate::{geomean_normalized_rps, header, Sweep};

fn print_metric(sweep: &Sweep, title: &str, f: &dyn Fn(&crate::RunRecord) -> String) {
    println!("\n--- {title} ---");
    print!("{:<12}", "model");
    for p in Policy::ALL {
        print!(" | {:^23}", p.name());
    }
    println!();
    print!("{:<12}", "workers");
    for _ in Policy::ALL {
        print!(" | {:>7} {:>7} {:>7}", 1, 2, 4);
    }
    println!();
    for model in ModelKind::ALL {
        print!("{:<12}", model.name());
        for policy in Policy::ALL {
            print!(" |");
            for workers in [1usize, 2, 4] {
                let r = sweep.record(model, policy, workers).expect("full sweep");
                print!(" {:>7}", f(r));
            }
        }
        println!();
    }
}

/// Prints Fig 13a/b/c from the batch-32 sweep, plus the paper's headline
/// claims.
pub fn run(sweep: &Sweep) {
    header("Fig 13: throughput / tail latency / energy, 8 models x 5 policies x {1,2,4} workers");

    print_metric(sweep, "Fig 13a: normalized throughput (x isolated)", &|r| {
        format!("{:.2}", r.normalized_rps)
    });
    print_metric(
        sweep,
        "Fig 13b: worst-worker p95 ms ('*' = SLO violation)",
        &|r| format!("{:.0}{}", r.max_p95_ms, if r.slo_ok { "" } else { "*" }),
    );
    print_metric(sweep, "Fig 13c: energy per inference (x isolated)", &|r| {
        format!("{:.2}", r.normalized_energy)
    });

    // Headline claims.
    println!("\n--- headline claims (paper: KRISP-I ~2x avg, others ~1.5x; 1.22x over static-equal @4; up to ~3.5x) ---");
    for policy in Policy::ALL {
        let mut all: Vec<f64> = Vec::new();
        for &m in &ModelKind::ALL {
            for w in [2usize, 4] {
                if let Some(r) = sweep.record(m, policy, w) {
                    all.push(r.normalized_rps);
                }
            }
        }
        println!(
            "  {:<18} avg normalized rps (2&4 workers): {:.2}x",
            policy.name(),
            geomean(&all).expect("non-empty")
        );
    }
    let krisp4 = geomean_normalized_rps(sweep, Policy::KrispI, 4);
    let static4 = geomean_normalized_rps(sweep, Policy::StaticEqual, 4);
    println!(
        "  krisp-i vs static-equal at 4 workers: {:.2}x",
        krisp4 / static4
    );
    let best = ModelKind::ALL
        .iter()
        .filter_map(|&m| sweep.record(m, Policy::KrispI, 4))
        .map(|r| r.normalized_rps)
        .fold(0.0f64, f64::max);
    println!("  best krisp-i speedup over isolated: {best:.2}x");

    // Energy headline: KRISP-I vs isolated at 2 and 4 workers.
    for w in [2usize, 4] {
        let vals: Vec<f64> = ModelKind::ALL
            .iter()
            .filter_map(|&m| sweep.record(m, Policy::KrispI, w))
            .map(|r| r.normalized_energy)
            .collect();
        println!(
            "  krisp-i energy/inference at {w} workers: {:.0}% of isolated (paper: {}%)",
            geomean(&vals).expect("non-empty") * 100.0,
            if w == 2 { 71 } else { 67 }
        );
    }
}
