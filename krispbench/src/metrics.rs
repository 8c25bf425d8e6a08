//! The metric catalogue: every reported metric with its unit and better
//! direction, the regression bound of each end-to-end metric, and the
//! end-to-end metric and workload each per-layer metric should move.
//!
//! `BENCHMARK.json` mirrors these tables; the self-tests hold the two
//! in step.

/// An end-to-end metric, printed by an untraced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// What a per-layer change should do to an end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// An improvement in the layer metric improves the end-to-end one.
    Moves,
    /// The end-to-end metric must stay within its bound.
    Flat,
}

/// One prediction: the layer metric acts on `metric` on `workload`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// End-to-end metric name ([`END_TO_END`] or [`FAIL_RATIO`]).
    pub metric: &'static str,
    /// Workload name.
    pub workload: &'static str,
    /// Expected effect.
    pub effect: Effect,
}

/// A per-layer metric, printed by a traced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Where the metric should show end to end.
    pub predicts: &'static [Prediction],
}

/// Failed jobs ÷ attempted jobs. It is 0 on a healthy tree, so it is
/// reported as the result line's `failed` and `attempted` fields rather
/// than as a bounded metric.
pub const FAIL_RATIO: &str = "fail_ratio";

/// The end-to-end metrics, in reporting order.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "requests_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.24,
    },
    EndToEnd {
        name: "job_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.24,
    },
    EndToEnd {
        name: "job_ms_p90",
        unit: "ms",
        better: "lower",
        bound: 0.24,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
];

const fn moves(metric: &'static str, workload: &'static str) -> Prediction {
    Prediction {
        metric,
        workload,
        effect: Effect::Moves,
    }
}

const fn flat(metric: &'static str, workload: &'static str) -> Prediction {
    Prediction {
        metric,
        workload,
        effect: Effect::Flat,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    predicts: &'static [Prediction],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        predicts,
    }
}

const CK: &str = "closed_krisp";
const CS: &str = "cluster_static";
const CM: &str = "chaos_mix";

/// The per-layer metrics, grouped by layer (crate), in reporting order.
#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 35] = [
    // core: Algorithm 1 and the profiler.
    layer("core.alloc_calls", "count", "lower", &[moves("requests_per_s", CK), flat("requests_per_s", CS)]),
    layer("core.alloc_ns", "ns/call", "lower", &[moves("requests_per_s", CK), flat("requests_per_s", CS)]),
    layer("core.grant_ratio", "ratio", "higher", &[moves("requests_per_s", CK)]),
    layer("core.profile_s", "s", "lower", &[moves("setup_s", CK)]),
    // models: trace generation.
    layer("models.tracegen_ms", "ms", "lower", &[moves("setup_s", CS)]),
    // runtime: launches, watchdog retries and failures.
    layer("runtime.launches", "count", "lower", &[moves("requests_per_s", CK)]),
    layer("runtime.retries", "count", "lower", &[moves("job_ms_p50", CM)]),
    layer("runtime.abandoned", "count", "lower", &[moves("job_ms_p50", CM)]),
    layer("runtime.fallbacks", "count", "lower", &[moves("job_ms_p50", CM)]),
    layer("runtime.retry_denied", "count", "lower", &[moves("job_ms_p50", CM)]),
    // sim: the machine and contention engine.
    layer("sim.kernels", "count", "lower", &[moves("requests_per_s", CK)]),
    layer("sim.fault_events", "count", "lower", &[moves("job_ms_p50", CM)]),
    layer("sim.sim_s_per_host_s", "s/s", "higher", &[moves("requests_per_s", CK), moves("requests_per_s", CS), moves("requests_per_s", CM)]),
    // serve: the shared serving engine's books.
    layer("serve.arrivals", "count", "lower", &[moves("requests_per_s", CM)]),
    layer("serve.admit_ratio", "ratio", "higher", &[moves("requests_per_s", CS)]),
    layer("serve.shed", "count", "lower", &[moves("requests_per_s", CS)]),
    layer("serve.timed_out", "count", "lower", &[moves("requests_per_s", CS)]),
    layer("serve.transitions", "count", "lower", &[moves("job_ms_p50", CM)]),
    // server: the single-GPU and cluster dispatchers.
    layer("server.setup_ms", "ms", "lower", &[moves("job_ms_p50", CM), flat("requests_per_s", CK)]),
    layer("server.loop_ms", "ms", "lower", &[moves("requests_per_s", CK)]),
    layer("server.finish_ms", "ms", "lower", &[moves("job_ms_p50", CM)]),
    layer("server.hedged", "count", "lower", &[moves("job_ms_p50", CS)]),
    layer("server.hedge_win_ratio", "ratio", "higher", &[moves("requests_per_s", CS)]),
    layer("server.retried", "count", "lower", &[moves("job_ms_p50", CS)]),
    layer("server.crashes", "count", "lower", &[moves("requests_per_s", CS)]),
    layer("server.drained", "count", "lower", &[moves("requests_per_s", CS)]),
    layer("server.gpu_skew", "ratio", "lower", &[moves("job_ms_p90", CS)]),
    // obs: recording and export.
    layer("obs.events", "1/job", "lower", &[moves("job_ms_p50", CM)]),
    layer("obs.overhead", "ratio", "lower", &[moves("job_ms_p50", CM), flat("job_ms_p50", CK), flat("job_ms_p50", CS)]),
    layer("obs.export_ms", "ms", "lower", &[flat("job_ms_p50", CM)]),
    // chaos: the fuzzer's oracles.
    layer("chaos.violations", "count", "lower", &[moves(FAIL_RATIO, CM)]),
    // host: the benchmark process itself.
    layer("host.ns_per_kernel", "ns/kernel", "lower", &[moves("requests_per_s", CK)]),
    layer("host.allocs_per_kernel", "1/kernel", "lower", &[moves("requests_per_s", CK)]),
    layer("host.allocs_per_request", "1/request", "lower", &[moves("requests_per_s", CS)]),
    layer("host.ref_ms", "ms", "lower", &[flat("job_ms_p50", CK)]),
];

/// True for a name made of `[A-Za-z0-9_.-]` that starts with a letter or
/// digit and fits in 64 characters.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True for a unit made of `[A-Za-z0-9_/%.-]`, 1 to 16 characters.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}
