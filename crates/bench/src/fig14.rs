//! Fig 14 — batch-size sensitivity: geomean normalized RPS across all
//! models at batch sizes 16 and 8, for 1/2/4 workers.

use serde::{Deserialize, Serialize};

use krisp::{Policy, Profiler};
use krisp_models::ModelKind;

use crate::{geomean_normalized_rps, header, policy_sweep, save_json};

/// One (batch, policy, workers) geomean cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cell {
    /// Batch size.
    pub batch: u32,
    /// Policy.
    pub policy: Policy,
    /// Workers.
    pub workers: usize,
    /// Geomean normalized RPS across the eight models.
    pub geomean_rps: f64,
}

/// Runs the batch-16 and batch-8 sweeps and prints the Fig 14 panels.
pub fn run() -> Vec<Cell> {
    header("Fig 14: geomean normalized RPS at batch 16 (a) and batch 8 (b)");
    let mut cells = Vec::new();
    for batch in [16u32, 8] {
        let db = Profiler::default().build_perfdb(&ModelKind::ALL, &[batch]);
        let sweep = policy_sweep(batch, &db);
        println!("\nbatch {batch}:");
        print!("{:<18}", "policy");
        for w in [1usize, 2, 4] {
            print!(" {w:>8}w");
        }
        println!();
        for policy in Policy::ALL {
            print!("{:<18}", policy.name());
            for workers in [1usize, 2, 4] {
                let g = geomean_normalized_rps(&sweep, policy, workers);
                print!(" {g:>8.2} ");
                cells.push(Cell {
                    batch,
                    policy,
                    workers,
                    geomean_rps: g,
                });
            }
            println!();
        }
    }
    save_json("fig14.json", &cells);
    println!("\nshape check: krisp-i still leads at 4 workers even at small batches;");
    println!("mps-default closes the gap as contention eases (smaller kernels).");
    cells
}
