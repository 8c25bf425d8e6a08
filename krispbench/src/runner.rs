//! The two kinds of run: an untraced run that measures the end-to-end
//! metrics, and a traced run that measures every layer.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use krisp_chaos::check_case;

use crate::count_alloc::allocations;
use crate::digests;
use crate::layers::{run_traced, Counts, Traced};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, minimum, percentile, SplitMix64};
use crate::workload::{run_job, run_plain, setup, Job, JobOutput, Outcome, Setup, Workload};

/// Timed rounds an untraced run makes even when `--seconds` is short.
const MIN_ROUNDS: usize = 3;
/// Share of a run's host time spent repeating set-up, and the fewest
/// set-up samples a run takes.
const SETUP_SHARE: f64 = 0.05;
const SETUP_MIN_SAMPLES: usize = 5;
/// Jobs a traced run repeats to check that its counts are exact.
const REPEAT_CHECK_JOBS: usize = 8;
/// Iterations of the reference loop (a fraction of a millisecond).
const REF_ITERS: u32 = 200_000;

/// What one run asks for.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the job list.
    pub seed: u64,
    /// Host seconds the untraced run measures for.
    pub seconds: f64,
    /// Traced (per-layer) instead of untraced (end-to-end).
    pub trace: bool,
}

/// The outcome of a run: the result line's fields plus notes for people.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that failed a check.
    pub failed: u64,
    /// Metric values by name; units come from the catalogue.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = crate::metrics::unit_of(name).expect("catalogued metric");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs the benchmark as `opts` asks.
pub fn run(opts: &Options) -> Report {
    if opts.trace {
        traced(opts)
    } else {
        untraced(opts)
    }
}

/// A fixed integer loop in the benchmark's own code, timed in
/// milliseconds. It tracks host speed only: a run taken during a slow
/// burst of the host shows a higher figure. It is reported, never used
/// to normalise.
pub fn reference_loop() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..REF_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = black_box(x);
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// Set-up timings, sampled through the whole run. Set-up is repeated
/// between jobs whenever it has had less than [`SETUP_SHARE`] of the
/// host time so far, so its median sees the same slow bursts of the host
/// as the jobs do.
struct SetupTimes {
    start: Instant,
    spent_s: f64,
    /// Whole set-up, s.
    total_s: Vec<f64>,
    /// Perfdb builds, s.
    perfdb_s: Vec<f64>,
    /// Trace generation, ms.
    tracegen_ms: Vec<f64>,
}

impl SetupTimes {
    /// Sets up for the run, timing it as the first sample.
    fn first(opts: &Options) -> (Setup, SetupTimes) {
        let mut times = SetupTimes {
            start: Instant::now(),
            spent_s: 0.0,
            total_s: Vec::new(),
            perfdb_s: Vec::new(),
            tracegen_ms: Vec::new(),
        };
        let setup = times.sample(opts);
        (setup, times)
    }

    fn sample(&mut self, opts: &Options) -> Setup {
        let t = Instant::now();
        let s = setup(opts.workload, opts.seed);
        let took = t.elapsed().as_secs_f64();
        self.spent_s += took;
        self.total_s.push(took);
        self.perfdb_s.push(s.perfdb_s);
        self.tracegen_ms.push(s.tracegen_ms);
        s
    }

    /// Called between jobs: repeats set-up if it is below its share.
    fn between_jobs(&mut self, opts: &Options) {
        if self.spent_s < SETUP_SHARE * self.start.elapsed().as_secs_f64() {
            self.sample(opts);
        }
    }

    /// Tops the samples up to [`SETUP_MIN_SAMPLES`].
    fn finish(&mut self, opts: &Options) {
        while self.total_s.len() < SETUP_MIN_SAMPLES {
            self.sample(opts);
        }
    }
}

/// Checks a simulation outcome: balanced books and, when the seed has
/// stored digests, the stored digest of job `i`.
fn outcome_ok(o: &Outcome, stored: Option<&[u32]>, i: usize) -> bool {
    o.conserved && stored.is_none_or(|d| d.get(i) == Some(&digests::short(o.digest)))
}

fn stored_digests(opts: &Options, jobs: usize) -> (Option<Vec<u32>>, String) {
    match digests::stored(opts.workload, opts.seed) {
        Some(d) if d.len() == jobs => (Some(d), format!("{jobs} stored digests")),
        Some(d) => (
            Some(d),
            format!("stored digests cover a different job count (expected {jobs})"),
        ),
        None => (
            None,
            "no stored digests for this seed: checked round against round".to_string(),
        ),
    }
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn untraced(opts: &Options) -> Report {
    let (setup, mut setups) = SetupTimes::first(opts);
    let jobs = &setup.jobs;
    let n = jobs.len();
    let (stored, digest_note) = stored_digests(opts, n);

    let mut times: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut first: Vec<Option<JobOutput>> = vec![None; n];
    let mut failed = vec![false; n];
    let mut refs = Vec::new();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SplitMix64::new(opts.seed ^ 0x524F_554E_4453);
    let start = Instant::now();
    let mut rounds = 0;
    let mut round_s = Vec::new();
    loop {
        let round_start = Instant::now();
        // Each round visits the jobs in a fresh seeded order, so a slow
        // burst of the host lands on different jobs in different rounds.
        rng.shuffle(&mut order);
        for &i in &order {
            setups.between_jobs(opts);
            refs.push(reference_loop());
            let t = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| {
                run_job(&jobs[i], setup.perfdb(&jobs[i]))
            }));
            times[i].push(t.elapsed().as_secs_f64() * 1e3);
            match (out.map(|raw| raw.check()), &first[i]) {
                (Err(_), _) => failed[i] = true,
                (Ok(o), None) => first[i] = Some(o),
                (Ok(o), Some(prev)) => failed[i] |= *prev != o,
            }
        }
        rounds += 1;
        round_s.push(round_start.elapsed().as_secs_f64());
        let elapsed = start.elapsed().as_secs_f64();
        let per_round = elapsed / rounds as f64;
        if rounds >= MIN_ROUNDS && elapsed + per_round > opts.seconds {
            break;
        }
    }

    // Check every job, and count its simulated requests. A chaos job
    // returns only a verdict, so its counts come from one more run of
    // the same case, outside the timed rounds.
    let mut requests = 0u64;
    let mut violations = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let outcome = match (&first[i], job) {
            (Some(JobOutput::Ran(o)), _) => Some(o.clone()),
            (Some(JobOutput::Verdict(v)), Job::Chaos(_)) => {
                if let Some(v) = v {
                    failed[i] = true;
                    violations.push(format!("job {i}: chaos violation: {v}"));
                }
                catch_unwind(AssertUnwindSafe(|| run_plain(job, setup.perfdb(job))))
                    .ok()
                    .and_then(|raw| raw.outcome())
            }
            _ => None,
        };
        match outcome {
            Some(o) => {
                failed[i] |= !outcome_ok(&o, stored.as_deref(), i);
                requests += o.requests;
            }
            None => failed[i] = true,
        }
    }

    setups.finish(opts);
    let total_s = &setups.total_s;
    // A job's host time is its fastest round. The host's slow episodes
    // only ever add time, and last seconds, so a job's rounds, spread
    // over the whole run, nearly always include one outside them; a
    // median would follow the share of the run the host spent slow.
    let job_ms: Vec<f64> = times.iter().map(|t| minimum(t)).collect();
    let host_s: f64 = job_ms.iter().sum::<f64>() / 1e3;
    let n_failed = failed.iter().filter(|&&f| f).count() as u64;
    let values: BTreeMap<&str, f64> = BTreeMap::from([
        ("requests_per_s", ratio(requests as f64, host_s)),
        ("job_ms_p50", median(&job_ms)),
        ("job_ms_p90", percentile(&job_ms, 90.0)),
        ("setup_s", median(total_s)),
        ("peak_rss_mb", peak_rss_mb()),
    ]);
    let notes: Vec<String> = [
        format!(
            "workload {} seed {}: {n} jobs x {rounds} rounds, {:.1} s measured",
            opts.workload.name(),
            opts.seed,
            start.elapsed().as_secs_f64()
        ),
        format!(
            "round s: fastest {:.3}, median {:.3}, slowest {:.3}",
            minimum(&round_s),
            median(&round_s),
            percentile(&round_s, 100.0)
        ),
        format!(
            "set-up sampled {} times; {requests} simulated requests over {host_s:.3} host s (sum of per-job fastest rounds)",
            total_s.len()
        ),
        format!(
            "checks: {digest_note}; {} chaos violations",
            violations.len()
        ),
        format!(
            "fail_ratio {:.4} ({n_failed}/{n}); host.ref_ms median {:.4}, p90 {:.4}",
            ratio(n_failed as f64, n as f64),
            median(&refs),
            percentile(&refs, 90.0)
        ),
    ]
    .into_iter()
    .chain(violations)
    .collect();
    Report {
        correct: n_failed == 0,
        attempted: n as u64,
        failed: n_failed,
        metrics: END_TO_END
            .iter()
            .map(|m| (m.name, values[m.name]))
            .collect(),
        notes,
    }
}

/// One untraced run of a job with its host time and allocation count.
fn counted_plain(job: &Job, setup: &Setup) -> Option<(Outcome, f64, u64)> {
    let a = allocations();
    let t = Instant::now();
    let raw = catch_unwind(AssertUnwindSafe(|| run_plain(job, setup.perfdb(job)))).ok()?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let allocs = allocations() - a;
    Some((raw.outcome()?, ms, allocs))
}

fn traced(opts: &Options) -> Report {
    let (setup, mut setups) = SetupTimes::first(opts);
    let jobs = &setup.jobs;
    let n = jobs.len();
    let (stored, digest_note) = stored_digests(opts, n);
    let mut failed = vec![false; n];
    let mut notes = Vec::new();

    // Lazy one-time initialisation must not land in the first job's
    // allocation count.
    let _ = counted_plain(&jobs[0], &setup);

    // Each job runs untraced (host time and allocations) and then traced
    // (layer counts and timings), back to back, so both runs of a job see
    // the same state of the host and `obs.overhead` compares like with
    // like. The traced result must reproduce the untraced digest.
    let mut plain: Vec<Option<(Outcome, f64, u64)>> = Vec::with_capacity(n);
    let mut traced: Vec<Option<Traced>> = Vec::with_capacity(n);
    let mut refs = Vec::new();
    let mut violations = 0u64;
    for (i, job) in jobs.iter().enumerate() {
        setups.between_jobs(opts);
        refs.push(reference_loop());
        let run = counted_plain(job, &setup);
        match &run {
            Some((o, ..)) => failed[i] |= !outcome_ok(o, stored.as_deref(), i),
            None => failed[i] = true,
        }
        let t = catch_unwind(AssertUnwindSafe(|| run_traced(job, setup.perfdb(job)))).ok();
        failed[i] |= !matches!((&t, &run), (Some(t), Some((o, ..))) if t.outcome == *o);
        if let Job::Chaos(case) = job {
            match catch_unwind(AssertUnwindSafe(|| check_case(case))) {
                Ok(None) => {}
                Ok(Some(v)) => {
                    violations += 1;
                    failed[i] = true;
                    notes.push(format!("job {i}: chaos violation: {v}"));
                }
                Err(_) => failed[i] = true,
            }
        }
        plain.push(run);
        traced.push(t);
    }

    // Repeat a few jobs: allocation counts and layer counts are exact.
    let mut repeat_ok = true;
    for i in 0..REPEAT_CHECK_JOBS.min(n) {
        let again = counted_plain(&jobs[i], &setup).map(|(_, _, a)| a);
        repeat_ok &= again.is_some() && again == plain[i].as_ref().map(|p| p.2);
        let t = catch_unwind(AssertUnwindSafe(|| {
            run_traced(&jobs[i], setup.perfdb(&jobs[i]))
        }));
        repeat_ok &= matches!((t, &traced[i]), (Ok(a), Some(b)) if a.counts == b.counts);
    }

    setups.finish(opts);
    let good: Vec<usize> = (0..n).filter(|&i| !failed[i]).collect();
    let mut c = Counts::default();
    let (mut untraced_ms, mut traced_ms, mut allocs, mut alloc_ns, mut sim_s) =
        (0.0, 0.0, 0u64, 0.0, 0.0);
    let (mut setup_ms, mut loop_ms, mut finish_ms, mut export_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for &i in &good {
        let (Some((_, ms, a)), Some(t)) = (&plain[i], &traced[i]) else {
            continue;
        };
        c.add(&t.counts);
        untraced_ms += ms;
        allocs += a;
        traced_ms += t.timings.traced_ms;
        alloc_ns += t.timings.alloc_ns;
        sim_s += jobs[i].sim_seconds();
        setup_ms.push(t.timings.setup_ms);
        loop_ms.push(t.timings.loop_ms);
        finish_ms.push(t.timings.finish_ms);
        export_ms.push(t.timings.export_ms);
    }
    let n_good = good.len().max(1) as f64;
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let values: BTreeMap<&str, f64> = BTreeMap::from([
        ("core.alloc_calls", c.alloc_calls as f64),
        ("core.alloc_ns", ratio(alloc_ns, c.alloc_calls as f64)),
        (
            "core.grant_ratio",
            ratio(c.granted_cus as f64, c.required_cus as f64),
        ),
        ("core.profile_s", median(&setups.perfdb_s)),
        ("models.tracegen_ms", median(&setups.tracegen_ms)),
        ("runtime.launches", c.launches as f64),
        ("runtime.retries", c.retries as f64),
        ("runtime.abandoned", c.abandoned as f64),
        ("runtime.fallbacks", c.fallbacks as f64),
        ("runtime.retry_denied", c.retry_denied as f64),
        ("sim.kernels", c.kernels as f64),
        ("sim.fault_events", c.fault_events as f64),
        ("sim.sim_s_per_host_s", ratio(sim_s, untraced_ms / 1e3)),
        ("serve.arrivals", c.arrivals as f64),
        (
            "serve.admit_ratio",
            ratio(c.admitted as f64, c.arrivals as f64),
        ),
        ("serve.shed", c.shed as f64),
        ("serve.timed_out", c.timed_out as f64),
        ("serve.transitions", c.transitions as f64),
        ("server.setup_ms", med(&setup_ms)),
        ("server.loop_ms", med(&loop_ms)),
        ("server.finish_ms", med(&finish_ms)),
        ("server.hedged", c.hedged as f64),
        (
            "server.hedge_win_ratio",
            ratio(c.hedge_wins as f64, c.hedged as f64),
        ),
        ("server.retried", c.retried as f64),
        ("server.crashes", c.crashes as f64),
        ("server.drained", c.drained as f64),
        ("server.gpu_skew", c.gpu_skew / n_good),
        ("obs.events", c.events as f64 / n_good),
        ("obs.overhead", ratio(traced_ms, untraced_ms)),
        ("obs.export_ms", med(&export_ms)),
        ("chaos.violations", violations as f64),
        (
            "host.ns_per_kernel",
            ratio(untraced_ms * 1e6, c.kernels as f64),
        ),
        (
            "host.allocs_per_kernel",
            ratio(allocs as f64, c.kernels as f64),
        ),
        (
            "host.allocs_per_request",
            ratio(allocs as f64, c.requests as f64),
        ),
        ("host.ref_ms", median(&refs)),
    ]);
    let n_failed = failed.iter().filter(|&&f| f).count() as u64;
    notes.splice(
        0..0,
        [
            format!(
                "workload {} seed {} (traced): {n} jobs, each run untraced then traced",
                opts.workload.name(),
                opts.seed
            ),
            format!(
                "checks: {digest_note}; traced digests {}; counts repeat exactly on {} jobs: {repeat_ok}",
                if failed.iter().any(|&f| f) { "checked, see fail_ratio" } else { "match untraced" },
                REPEAT_CHECK_JOBS.min(n)
            ),
            format!(
                "untraced {untraced_ms:.1} ms, traced {traced_ms:.1} ms, {} requests, {} kernels, {allocs} allocations",
                c.requests, c.kernels
            ),
            format!(
                "fail_ratio {:.4} ({n_failed}/{n})",
                ratio(n_failed as f64, n as f64)
            ),
        ],
    );
    Report {
        correct: n_failed == 0 && repeat_ok,
        attempted: n as u64,
        failed: n_failed,
        metrics: PER_LAYER.iter().map(|m| (m.name, values[m.name])).collect(),
        notes,
    }
}
