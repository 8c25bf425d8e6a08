//! Fig 15 — co-locating *mixed* inference models: every unordered pair of
//! distinct models runs concurrently (one worker each) under each policy;
//! the figure reports the distribution of normalized throughput across
//! the 28 pairs.

use serde::{Deserialize, Serialize};

use krisp::Policy;
use krisp_models::ModelKind;
use krisp_runtime::RequiredCusTable;
use krisp_server::{run_server, ServerConfig};
use krisp_sim::stats::BoxStats;

use crate::summary::{print_checks, Claim};
use crate::{header, isolated_baseline, save_json};

/// One pair × policy observation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PairRun {
    /// The two co-located models.
    pub pair: (ModelKind, ModelKind),
    /// Policy.
    pub policy: Policy,
    /// Mean over the two workers of (worker RPS / its model's isolated
    /// RPS) — aggregate normalized throughput of the mix.
    pub normalized_rps: f64,
}

/// Runs all 28 pairs under each policy and prints the box statistics.
pub fn run(perfdb: &RequiredCusTable) -> Vec<PairRun> {
    header("Fig 15: mixed-model co-location, all 28 pairs, 2 workers (batch 32)");
    let baselines: Vec<(ModelKind, f64)> = ModelKind::ALL
        .iter()
        .map(|&m| (m, isolated_baseline(m, 32, perfdb).rps))
        .collect();
    let base_rps = |m: ModelKind| {
        baselines
            .iter()
            .find(|&&(bm, _)| bm == m)
            .map(|&(_, r)| r)
            .expect("all models covered")
    };
    let mut jobs = Vec::new();
    for (i, &a) in ModelKind::ALL.iter().enumerate() {
        for &b in &ModelKind::ALL[i + 1..] {
            for policy in Policy::ALL {
                jobs.push((a, b, policy));
            }
        }
    }
    let runs: Vec<PairRun> = crate::parallel_map(jobs, |(a, b, policy)| {
        let cfg = ServerConfig::closed_loop(policy, vec![a, b], 32);
        let r = run_server(&cfg, perfdb);
        let norm_a = r.workers[0].inferences() as f64 / r.window.as_secs_f64() / base_rps(a);
        let norm_b = r.workers[1].inferences() as f64 / r.window.as_secs_f64() / base_rps(b);
        eprintln!("  pair {a}+{b} {policy} done");
        PairRun {
            pair: (a, b),
            policy,
            normalized_rps: (norm_a + norm_b) / 2.0,
        }
    });
    save_json("fig15.json", &runs);

    println!(
        "\n{:<18} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "policy", "min", "q1", "median", "q3", "max"
    );
    let mut medians = Vec::new();
    for policy in Policy::ALL {
        let vals: Vec<f64> = runs
            .iter()
            .filter(|r| r.policy == policy)
            .map(|r| r.normalized_rps)
            .collect();
        let b = BoxStats::from_samples(&vals).expect("28 pairs");
        println!(
            "{:<18} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2}",
            policy.name(),
            b.min,
            b.q1,
            b.median,
            b.q3,
            b.max
        );
        medians.push((policy, b.median));
    }
    let median = |policy| {
        medians
            .iter()
            .find(|&&(p, _)| p == policy)
            .map(|&(_, m)| m)
            .expect("every policy ran")
    };
    print_checks(&shape_checks(
        median(Policy::MpsDefault),
        median(Policy::ModelRightSize),
        median(Policy::KrispI),
    ));
    runs
}

/// Fig 15's ordering, tested on the per-policy medians of normalized
/// throughput: KRISP-I and model-right-size beat MPS-default, and KRISP-I
/// is at least model-right-size.
pub fn shape_checks(mps_default: f64, model_right_size: f64, krisp_i: f64) -> Vec<Claim> {
    let claim =
        |paper, a: f64, b: f64, holds| Claim::new(paper, format!("median {a:.3} vs {b:.3}"), holds);
    vec![
        claim(
            "krisp-i beats mps-default",
            krisp_i,
            mps_default,
            krisp_i > mps_default,
        ),
        claim(
            "model-right-size beats mps-default",
            model_right_size,
            mps_default,
            model_right_size > mps_default,
        ),
        claim(
            "krisp-i >= model-right-size",
            krisp_i,
            model_right_size,
            krisp_i >= model_right_size,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_medians_fail_both_krisp_i_claims() {
        // The medians of `results/fig15.json`.
        let claims = shape_checks(0.8153971700342668, 0.8634434644303066, 0.8043464599916212);
        let holds: Vec<bool> = claims.iter().map(|c| c.holds).collect();
        assert_eq!(holds, [false, true, false]);
        assert_eq!(claims[0].measured, "median 0.804 vs 0.815");
    }
}
