//! `krisp-bench <experiment>|all` — regenerates one table or figure of
//! the paper (see the crate docs for the experiment names), or every
//! one of them in order.

use std::sync::OnceLock;

use krisp::Profiler;
use krisp_bench::*;
use krisp_models::ModelKind;
use krisp_runtime::RequiredCusTable;

/// Inputs several experiments share, each built at most once per
/// process.
#[derive(Default)]
struct Inputs {
    db32: OnceLock<RequiredCusTable>,
    sweep32: OnceLock<Sweep>,
}

impl Inputs {
    /// The measured Required-CUs table of all eight models at batch 32.
    fn db32(&self) -> &RequiredCusTable {
        self.db32
            .get_or_init(|| Profiler::default().build_perfdb(&ModelKind::ALL, &[32]))
    }

    /// The batch-32 policy sweep behind Fig 13, Table IV and the summary.
    fn sweep32(&self) -> &Sweep {
        self.sweep32.get_or_init(|| policy_sweep(32, self.db32()))
    }
}

/// How an experiment produces its output.
enum Run {
    /// Renders its whole report from no shared input; `all` computes
    /// these in parallel up front and prints each at its slot.
    Report(fn() -> String),
    /// Prints as it goes, drawing on the shared inputs.
    Live(fn(&Inputs)),
}

/// Every experiment by name, in the order `all` prints them.
const EXPERIMENTS: [(&str, Run); 22] = [
    ("tables_1_2", Run::Report(tables12::report)),
    ("fig03_sensitivity", Run::Report(fig03::report)),
    ("table3_models", Run::Report(table3::report)),
    ("fig04_traces", Run::Report(fig04::report)),
    ("fig06_kernel_scatter", Run::Report(fig06::report)),
    ("fig07_distribution", Run::Report(fig07::report)),
    ("fig08_policies", Run::Report(fig08::report)),
    ("fig01_utilization", Run::Live(|i| _ = fig01::run(i.db32()))),
    ("fig02_reconfiguration", Run::Live(|_| _ = fig02::run())),
    ("validation", Run::Report(validation::report)),
    ("fig12_emulation", Run::Live(|i| _ = fig12::run(i.db32()))),
    ("fig13_main", Run::Live(|i| fig13::run(i.sweep32()))),
    (
        "table4_concurrency",
        Run::Live(|i| _ = table4::run(i.sweep32())),
    ),
    ("fig14_batch", Run::Live(|_| _ = fig14::run())),
    ("fig15_mixed", Run::Live(|i| _ = fig15::run(i.db32()))),
    ("fig16_overlap", Run::Live(|i| _ = fig16::run(i.db32()))),
    ("ablations", Run::Live(|i| _ = ablation::run(i.db32()))),
    (
        "cluster_scaling",
        Run::Live(|i| _ = cluster_scaling::run(i.db32())),
    ),
    ("robustness", Run::Live(|i| _ = robustness::run(i.db32()))),
    (
        "robustness_faults",
        Run::Live(|i| _ = robustness_faults::run(i.db32())),
    ),
    (
        "overload_brownout",
        Run::Live(|i| _ = overload_brownout::run(i.db32())),
    ),
    ("summary", Run::Live(|i| summary::run(i.sweep32()))),
];

/// Regenerates every table and figure of the paper, in order.
fn all(inputs: &Inputs) {
    let jobs: Vec<fn() -> String> = EXPERIMENTS
        .iter()
        .filter_map(|(_, run)| match run {
            Run::Report(report) => Some(*report),
            Run::Live(_) => None,
        })
        .collect();
    let mut reports = parallel_map(jobs, |report| report()).into_iter();
    for (_, run) in &EXPERIMENTS {
        match run {
            Run::Report(_) => print!("{}", reports.next().expect("one report per entry")),
            Run::Live(run) => run(inputs),
        }
    }
    println!("\nall experiments regenerated; JSON results under results/");
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    let inputs = Inputs::default();
    if name == "all" {
        return all(&inputs);
    }
    match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
        Some((_, Run::Report(report))) => print!("{}", report()),
        Some((_, Run::Live(run))) => run(&inputs),
        None => {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
            eprintln!("usage: krisp-bench <{}|all>", names.join("|"));
            std::process::exit(2);
        }
    }
}
