//! Command line: `krispbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. Prints notes and one line per metric, then the result
//! line (one JSON object) last. `--write-digests <first> <last>` prints
//! the stored-digest lines of a seed range instead.

use std::process::ExitCode;

use krispbench::count_alloc::CountingAlloc;
use krispbench::digests;
use krispbench::metrics::unit_of;
use krispbench::runner::{run, Options};
use krispbench::workload::{run_plain, setup, Workload};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: krispbench --workload <closed_krisp|cluster_static|chaos_mix> \
--seed <n> --seconds <s> --trace <0|1> [--write-digests <first> <last>]";

struct Args {
    opts: Options,
    write_digests: Option<(u64, u64)>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut write_digests) = (0u64, 10.0f64, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--write-digests" => {
                let first = value()?
                    .parse()
                    .map_err(|e| format!("--write-digests: {e}"))?;
                let last = value()?
                    .parse()
                    .map_err(|e| format!("--write-digests: {e}"))?;
                write_digests = Some((first, last));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        opts: Options {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        },
        write_digests,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("krispbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((first, last)) = args.write_digests {
        for seed in first..=last {
            let s = setup(args.opts.workload, seed);
            let d: Vec<u64> = s
                .jobs
                .iter()
                .map(|j| {
                    let raw = run_plain(j, s.perfdb(j));
                    raw.outcome().expect("a simulation result").digest
                })
                .collect();
            println!("{}", digests::line(seed, &d));
        }
        return ExitCode::SUCCESS;
    }
    let report = run(&args.opts);
    for note in &report.notes {
        println!("{note}");
    }
    for (name, value) in &report.metrics {
        println!("{name:<26} {value:>16.6} {}", unit_of(name).unwrap_or("?"));
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
