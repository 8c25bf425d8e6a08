//! Table IV — maximum concurrent workers of the same model without SLO
//! violation, per policy.

use serde::{Deserialize, Serialize};

use krisp::Policy;
use krisp_models::ModelKind;

use crate::{header, max_concurrency, save_json, Sweep};

/// One Table IV row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Model.
    pub model: ModelKind,
    /// Max workers without SLO violation, per policy (paper order).
    pub max_workers: Vec<(Policy, usize)>,
}

/// Computes Table IV from the batch-32 sweep.
pub fn run(sweep: &Sweep) -> Vec<Row> {
    header("Table IV: max concurrent models without SLO violation (bold = per-row best)");
    print!("{:<12}", "model");
    for p in Policy::ALL {
        print!(" {:>17}", p.name());
    }
    println!();
    let mut rows = Vec::new();
    for model in ModelKind::ALL {
        let per_policy: Vec<(Policy, usize)> = Policy::ALL
            .into_iter()
            .map(|p| (p, max_concurrency(sweep, model, p)))
            .collect();
        let best = per_policy.iter().map(|&(_, c)| c).max().expect("non-empty");
        print!("{:<12}", model.name());
        for &(_, c) in &per_policy {
            let cell = if c == best {
                format!("[{c}]")
            } else {
                c.to_string()
            };
            print!(" {cell:>17}");
        }
        println!();
        rows.push(Row {
            model,
            max_workers: per_policy,
        });
    }
    save_json("table4.json", &rows);
    let krisp_best = rows
        .iter()
        .filter(|r| {
            let best = r
                .max_workers
                .iter()
                .map(|&(_, c)| c)
                .max()
                .expect("non-empty");
            r.max_workers
                .iter()
                .any(|&(p, c)| p == Policy::KrispI && c == best)
        })
        .count();
    println!("\nshape check: krisp-i ties or sets the per-model best in {krisp_best}/8 rows (paper: most rows).");
    rows
}
