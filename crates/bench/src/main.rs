//! `krisp-bench <experiment>|all` — regenerates one table or figure of
//! the paper (see the crate docs for the experiment names), or every
//! one of them in order.

use krisp_bench::*;
use krisp_models::ModelKind;
use krisp_runtime::RequiredCusTable;

fn db32() -> RequiredCusTable {
    measured_perfdb(&[32])
}

fn db_4_32() -> RequiredCusTable {
    measured_perfdb(&[4, 32])
}

/// The measured table, or the oracle one under `KRISP_SMOKE` (the
/// short CI variants of the fault and overload benches).
fn smoke_db() -> RequiredCusTable {
    if robustness_faults::smoke() {
        krisp_server::oracle_perfdb(&[ModelKind::Squeezenet], &[32])
    } else {
        db32()
    }
}

/// Every experiment by name.
const EXPERIMENTS: [(&str, fn()); 22] = [
    ("tables_1_2", tables12::run),
    ("fig01_utilization", || _ = fig01::run(&db32())),
    ("fig02_reconfiguration", || _ = fig02::run(&db_4_32())),
    ("fig03_sensitivity", || _ = fig03::run()),
    ("table3_models", || _ = table3::run()),
    ("fig04_traces", || _ = fig04::run()),
    ("fig06_kernel_scatter", || _ = fig06::run()),
    ("fig07_distribution", fig07::run),
    ("fig08_policies", || _ = fig08::run()),
    ("fig12_emulation", || _ = fig12::run(&db32())),
    ("fig13_main", || _ = fig13::run(&db32())),
    ("table4_concurrency", || _ = table4::run(&db32())),
    ("fig14_batch", || _ = fig14::run(&|b| measured_perfdb(&[b]))),
    ("fig15_mixed", || _ = fig15::run(&db32())),
    ("fig16_overlap", || _ = fig16::run(&db32())),
    ("ablations", || _ = ablation::run(&db32())),
    ("validation", || _ = validation::run()),
    ("cluster_scaling", || _ = cluster_scaling::run(&db32())),
    ("robustness", || _ = robustness::run(&db32())),
    ("robustness_faults", || {
        _ = robustness_faults::run(&smoke_db())
    }),
    ("overload_brownout", || {
        _ = overload_brownout::run(&smoke_db())
    }),
    ("summary", summary::run),
];

/// Regenerates every table and figure of the paper, in order.
///
/// Experiments that need no measured perfdb are independent of each
/// other, so their `report()` functions run through `parallel_map` and
/// the rendered reports are printed in the original sequential order.
/// Everything downstream of `measured_perfdb` stays sequential: those
/// experiments share on-disk profile caches and feed the summary.
fn all() {
    type Job = Box<dyn FnOnce() -> String + Send>;
    let jobs: Vec<Job> = vec![
        Box::new(tables12::report),
        Box::new(|| fig03::report().0),
        Box::new(|| table3::report().0),
        Box::new(|| fig04::report().0),
        Box::new(|| fig06::report().0),
        Box::new(fig07::report),
        Box::new(|| fig08::report().0),
        Box::new(|| validation::report().0),
    ];
    let mut reports = parallel_map(jobs, |job| job());
    // Validation prints at its original slot, after fig 1/2.
    let validation_report = reports.pop().expect("eight phase-A jobs");
    for report in &reports {
        print!("{report}");
    }
    let db = db32();
    fig01::run(&db);
    fig02::run(&db_4_32());
    print!("{validation_report}");
    fig12::run(&db);
    fig13::run(&db);
    table4::run(&db);
    fig14::run(&|b| measured_perfdb(&[b]));
    fig15::run(&db);
    fig16::run(&db);
    ablation::run(&db);
    cluster_scaling::run(&db);
    robustness::run(&db);
    robustness_faults::run(&db);
    overload_brownout::run(&db);
    summary::run();
    println!("\nall experiments regenerated; JSON results under results/");
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    if name == "all" {
        return all();
    }
    match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
        Some((_, run)) => run(),
        None => {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
            eprintln!("usage: krisp-bench <{}|all>", names.join("|"));
            std::process::exit(2);
        }
    }
}
