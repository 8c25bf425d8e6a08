//! The three workloads: seeded job lists, set-up, and the untraced calls
//! into the stack's public entry points.
//!
//! Each workload turns its seed into a list of complete job configs; the
//! stack receives only those configs. Jobs run one at a time on one
//! thread, so every workload is a closed loop with a single client.

use std::collections::BTreeMap;
use std::time::Instant;

use krisp::{Policy, Profiler};
use krisp_chaos::{check_case, FuzzCase, GenConfig, MODEL_POOL};
use krisp_models::{analytic_latency, generate_trace, paper_profile, ModelKind, TraceConfig};
use krisp_runtime::RequiredCusTable;
use krisp_server::{
    oracle_perfdb, run_cluster, run_server, ClusterConfig, ClusterResult, CrashScript,
    ExperimentResult, HedgeConfig, Routing, ServerConfig,
};
use krisp_sim::{SimDuration, SimTime};

use crate::stats::{fnv1a, SplitMix64};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig 13 regime: four co-located workers of one model under KRISP-I
    /// with native kernel-scoped enforcement, every zoo model.
    ClosedKrisp,
    /// An 8-GPU cluster under static-equal stream masks: open-loop
    /// Poisson load with deadlines, hedging and one scripted crash.
    ClusterStatic,
    /// The chaos fuzzer's own case distribution, one `check_case` per job.
    ChaosMix,
}

/// Jobs per zoo model on `closed_krisp` (8 models).
const CLOSED_JOBS_PER_MODEL: usize = 13;
/// Jobs on `cluster_static`.
pub const CLUSTER_JOBS: usize = 104;
/// Jobs on `chaos_mix`.
const CHAOS_JOBS: usize = 104;
/// First fuzz-case seed of `chaos_mix`: its cases are the fuzzer's
/// smoke cases `CHAOS_FIRST_CASE..CHAOS_FIRST_CASE + CHAOS_JOBS`, as the
/// CI smoke job (`KRISP_SMOKE=1 krisp-chaos fuzz --seed 1`) draws them.
/// Costs of fuzz cases spread so widely that a fresh draw of 104 cases
/// per workload seed moves the job-time percentiles by 10–20%, and even
/// a fresh simulation seed per case moves `job_ms_p90` by about 15%: the
/// p90 falls among the few heaviest cases, where costs lie far apart. So
/// every case keeps the seed the fuzzer gave it and the workload seed
/// sets the job order. Smoke cases are about a third of the cost of full
/// ones, which buys the rounds a steady p90 needs.
const CHAOS_FIRST_CASE: u64 = 1;

/// Co-located workers per `closed_krisp` job.
const CLOSED_WORKERS: usize = 4;
/// Simulated kernels per worker a `closed_krisp` job aims for; the
/// window is sized from each model's trace so jobs cost about the same.
const CLOSED_KERNELS_PER_WORKER: f64 = 2_400.0;
/// Assumed slowdown of one request under 4-way KRISP-I co-location,
/// used only to size windows.
const CLOSED_SLOWDOWN: f64 = 2.0;

/// The cluster's GPUs and served models.
const CLUSTER_GPUS: usize = 8;
const CLUSTER_MODELS: [ModelKind; 3] = [
    ModelKind::Albert,
    ModelKind::Squeezenet,
    ModelKind::Resnet152,
];
/// Simulated horizon of one cluster job.
const CLUSTER_HORIZON_MS: u64 = 70;
/// Offered load relative to the slowest model's static-equal capacity:
/// past saturation, so queues fill, deadlines expire and hedges fire.
const CLUSTER_LOAD: f64 = 1.6;

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::ClosedKrisp,
        Workload::ClusterStatic,
        Workload::ChaosMix,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClosedKrisp => "closed_krisp",
            Workload::ClusterStatic => "cluster_static",
            Workload::ChaosMix => "chaos_mix",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One job: a complete config for one call into the stack.
#[derive(Debug, Clone, PartialEq)]
pub enum Job {
    /// One `run_server` experiment.
    Server(ServerConfig),
    /// One `run_cluster` experiment.
    Cluster(ClusterConfig),
    /// One chaos case, checked by `check_case`.
    Chaos(FuzzCase),
}

impl Job {
    /// Simulated seconds the job covers (summed over GPUs).
    pub fn sim_seconds(&self) -> f64 {
        match self {
            Job::Server(cfg) => {
                let (w, d) = cfg.windows();
                (w + d).as_secs_f64()
            }
            Job::Cluster(cfg) => cfg.horizon.as_secs_f64() * cfg.gpus as f64,
            Job::Chaos(case) => {
                let (w, d) = case.to_server_config().windows();
                (w + d).as_secs_f64()
            }
        }
    }
}

/// What set-up produced, with its own timings.
pub struct Setup {
    /// Required-CUs tables keyed by the sorted, distinct models they
    /// cover; the server and cluster workloads keep one table under the
    /// empty key.
    perfdbs: BTreeMap<Vec<ModelKind>, RequiredCusTable>,
    /// The seeded job list.
    pub jobs: Vec<Job>,
    /// Host seconds spent building `perfdbs`.
    pub perfdb_s: f64,
    /// Host milliseconds of the benchmark's own `generate_trace` calls.
    pub tracegen_ms: f64,
}

impl Setup {
    /// The table `job` runs against.
    pub fn perfdb(&self, job: &Job) -> &RequiredCusTable {
        &self.perfdbs[&perfdb_key(job)]
    }
}

/// A chaos job reads the oracle table of exactly its own models, as
/// `check_case` builds it; every other job shares one table.
fn perfdb_key(job: &Job) -> Vec<ModelKind> {
    match job {
        Job::Chaos(case) => {
            let mut kinds = case.models.clone();
            kinds.sort();
            kinds.dedup();
            kinds
        }
        _ => Vec::new(),
    }
}

/// The batch-32 kernel traces of `models`, from the workload generator.
fn traces_of(models: &[ModelKind]) -> Vec<(ModelKind, Vec<krisp_sim::KernelDesc>)> {
    models
        .iter()
        .map(|&m| (m, generate_trace(m, &TraceConfig::with_batch(32))))
        .collect()
}

/// The seeded job list of `workload`, and the host milliseconds of the
/// `generate_trace` calls made to size its jobs.
pub fn job_list(workload: Workload, seed: u64) -> (Vec<Job>, f64) {
    let t = Instant::now();
    let traces = match workload {
        Workload::ClosedKrisp => traces_of(&ModelKind::ALL),
        Workload::ClusterStatic => traces_of(&CLUSTER_MODELS),
        Workload::ChaosMix => traces_of(&MODEL_POOL),
    };
    let tracegen_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut rng = SplitMix64::new(seed ^ 0x4B52_4953_5042_4E43);
    let jobs = match workload {
        Workload::ClosedKrisp => closed_jobs(&traces, &mut rng),
        Workload::ClusterStatic => cluster_jobs(&traces, &mut rng),
        Workload::ChaosMix => chaos_jobs(&mut rng),
    };
    (jobs, tracegen_ms)
}

/// Builds the workload's seeded job list and the perfdbs it reads.
pub fn setup(workload: Workload, seed: u64) -> Setup {
    let (jobs, tracegen_ms) = job_list(workload, seed);
    let t = Instant::now();
    let mut perfdbs = BTreeMap::new();
    for job in &jobs {
        perfdbs
            .entry(perfdb_key(job))
            .or_insert_with_key(|key| match workload {
                // KRISP-I right-sizes every kernel from the profiled
                // table; it is built here, never loaded from a cache.
                Workload::ClosedKrisp => Profiler::default().build_perfdb(&ModelKind::ALL, &[32]),
                Workload::ClusterStatic => oracle_perfdb(&CLUSTER_MODELS, &[32]),
                Workload::ChaosMix => oracle_perfdb(key, &[32]),
            });
    }
    let perfdb_s = t.elapsed().as_secs_f64();
    Setup {
        perfdbs,
        jobs,
        perfdb_s,
        tracegen_ms,
    }
}

fn closed_jobs(
    traces: &[(ModelKind, Vec<krisp_sim::KernelDesc>)],
    rng: &mut SplitMix64,
) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (m, trace) in traces {
        // Window = requests-per-worker × expected co-located latency, so
        // every job simulates about the same number of kernels whatever
        // the model's kernel count.
        let requests = CLOSED_KERNELS_PER_WORKER / trace.len() as f64;
        let iso_ms = paper_profile(*m).p95_ms;
        let duration_ms = requests * iso_ms * CLOSED_SLOWDOWN;
        for _ in 0..CLOSED_JOBS_PER_MODEL {
            let mut cfg = ServerConfig::closed_loop(Policy::KrispI, vec![*m; CLOSED_WORKERS], 32);
            cfg.seed = rng.next_u64();
            cfg.warmup = Some(SimDuration::from_secs_f64(iso_ms * 2.0 / 1e3));
            cfg.duration = Some(SimDuration::from_secs_f64(duration_ms / 1e3));
            jobs.push(Job::Server(cfg));
        }
    }
    rng.shuffle(&mut jobs);
    jobs
}

fn chaos_jobs(rng: &mut SplitMix64) -> Vec<Job> {
    let mut jobs: Vec<Job> = (0..CHAOS_JOBS as u64)
        .map(|i| {
            Job::Chaos(FuzzCase::generate(
                CHAOS_FIRST_CASE + i,
                &GenConfig { smoke: true },
            ))
        })
        .collect();
    rng.shuffle(&mut jobs);
    jobs
}

fn cluster_jobs(
    traces: &[(ModelKind, Vec<krisp_sim::KernelDesc>)],
    rng: &mut SplitMix64,
) -> Vec<Job> {
    // Static-equal gives each of the three workers a third of the CUs;
    // the slowest model's service time there sets the cluster capacity.
    let topo = krisp_sim::GpuTopology::MI50;
    let share = topo.total_cus() / CLUSTER_MODELS.len() as u16;
    let overhead = TraceConfig::with_batch(32).launch_overhead;
    let service_s = traces
        .iter()
        .map(|(_, t)| analytic_latency(t, share, overhead).as_secs_f64())
        .fold(0.0f64, f64::max);
    let capacity_rps = CLUSTER_GPUS as f64 / service_s;
    let horizon = SimDuration::from_millis(CLUSTER_HORIZON_MS);
    (0..CLUSTER_JOBS)
        .map(|_| {
            let rps = capacity_rps * CLUSTER_LOAD * rng.uniform(0.9, 1.1);
            let mut cfg = ClusterConfig::new(CLUSTER_GPUS, CLUSTER_MODELS.to_vec(), rps);
            cfg.policy = Policy::StaticEqual;
            cfg.routing = Routing::LeastOutstanding;
            cfg.seed = rng.next_u64();
            cfg.horizon = horizon;
            cfg.queue_capacity = Some(3);
            cfg.deadline = Some(SimDuration::from_secs_f64(service_s * 1.5));
            cfg.hedge = Some(HedgeConfig {
                delay: SimDuration::from_secs_f64(service_s),
            });
            let at_ms = rng.uniform(0.2, 0.7) * CLUSTER_HORIZON_MS as f64;
            cfg.crash = Some(CrashScript {
                gpu: rng.below(CLUSTER_GPUS as u64) as usize,
                at: SimTime::ZERO + SimDuration::from_secs_f64(at_ms / 1e3),
                down_for: SimDuration::from_secs_f64(service_s * 4.0),
            });
            Job::Cluster(cfg)
        })
        .collect()
}

/// The checked outcome of one untraced simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Simulated requests completed (in window or while draining).
    pub requests: u64,
    /// FNV-1a of the serialized result.
    pub digest: u64,
    /// The result's conservation books balance.
    pub conserved: bool,
}

/// The server's request count: every completion the flow books saw.
fn server_requests(r: &ExperimentResult) -> u64 {
    r.flow
        .as_ref()
        .map_or(r.total_inferences() as u64, |f| f.completed)
}

/// Every completion the cluster saw, in the horizon or while draining.
fn cluster_requests(r: &ClusterResult) -> u64 {
    r.completed as u64 + r.drained
}

/// Digest and books of a server result.
pub fn server_outcome(r: &ExperimentResult) -> Outcome {
    Outcome {
        requests: server_requests(r),
        digest: fnv1a(
            serde_json::to_string(r)
                .expect("serialize result")
                .as_bytes(),
        ),
        conserved: r.flow.as_ref().is_some_and(|f| f.conserved()),
    }
}

/// Digest and books of a cluster result.
pub fn cluster_outcome(r: &ClusterResult) -> Outcome {
    Outcome {
        requests: cluster_requests(r),
        digest: fnv1a(
            serde_json::to_string(r)
                .expect("serialize result")
                .as_bytes(),
        ),
        conserved: r.conserved(),
    }
}

/// What one call into the stack returned, before any check. Checks run
/// outside the timed call.
#[derive(Debug, Clone)]
pub enum Raw {
    /// A `run_server` result.
    Server(ExperimentResult),
    /// A `run_cluster` result.
    Cluster(ClusterResult),
    /// A `check_case` verdict: `None` when every oracle held.
    Verdict(Option<String>),
}

impl Raw {
    /// Digest, request count and books of a simulation result.
    pub fn outcome(&self) -> Option<Outcome> {
        match self {
            Raw::Server(r) => Some(server_outcome(r)),
            Raw::Cluster(r) => Some(cluster_outcome(r)),
            Raw::Verdict(_) => None,
        }
    }

    /// The comparable form of the call's output.
    pub fn check(&self) -> JobOutput {
        match self {
            Raw::Verdict(v) => JobOutput::Verdict(v.clone()),
            ran => JobOutput::Ran(ran.outcome().expect("a simulation result")),
        }
    }
}

/// Runs the job's simulation once through the plain (observability off)
/// entry point. A chaos job runs its case's server config.
pub fn run_plain(job: &Job, db: &RequiredCusTable) -> Raw {
    match job {
        Job::Server(cfg) => Raw::Server(run_server(cfg, db)),
        Job::Cluster(cfg) => Raw::Cluster(run_cluster(cfg, db)),
        Job::Chaos(case) => Raw::Server(run_server(&case.to_server_config(), db)),
    }
}

/// The checked output of one timed job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutput {
    /// A simulation result.
    Ran(Outcome),
    /// A chaos verdict: `None` when every oracle held.
    Verdict(Option<String>),
}

/// The call a timed round makes for one job: the plain simulation, or
/// the full `check_case` (an observed run, a plain replay, five oracles)
/// for a chaos job.
pub fn run_job(job: &Job, db: &RequiredCusTable) -> Raw {
    match job {
        Job::Chaos(case) => Raw::Verdict(check_case(case).map(|v| v.to_string())),
        _ => run_plain(job, db),
    }
}
