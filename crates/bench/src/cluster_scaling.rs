//! Multi-GPU scaling (extension): throughput and tail latency of a mixed
//! workload as GPUs are added, per partitioning policy — showing KRISP's
//! single-GPU gains compose with scale-out.

use serde::{Deserialize, Serialize};

use krisp::Policy;
use krisp_models::ModelKind;
use krisp_runtime::RequiredCusTable;
use krisp_server::{run_cluster, ClusterConfig, Routing};
use krisp_sim::SimDuration;

use crate::summary::{print_checks, Claim};
use crate::{header, save_json};

const MODELS: [ModelKind; 3] = [
    ModelKind::Albert,
    ModelKind::Squeezenet,
    ModelKind::Resnet152,
];
const RPS_PER_MODEL: f64 = 120.0;

/// One cluster configuration's outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cell {
    /// Policy on every GPU.
    pub policy: Policy,
    /// GPUs in the cluster.
    pub gpus: usize,
    /// Served requests per second.
    pub rps: f64,
    /// p95 end-to-end latency, ms.
    pub p95_ms: f64,
    /// Energy per served request, joules.
    pub energy_per_request_j: f64,
}

/// Runs the scaling sweep.
pub fn run(perfdb: &RequiredCusTable) -> Vec<Cell> {
    header("Cluster scaling (extension): mixed load vs GPU count");
    println!(
        "(albert + squeezenet + resnet152 at {RPS_PER_MODEL} req/s each, least-outstanding routing)\n"
    );
    let jobs: Vec<(Policy, usize)> = [Policy::StaticEqual, Policy::KrispI]
        .into_iter()
        .flat_map(|p| [1usize, 2, 4].into_iter().map(move |g| (p, g)))
        .collect();
    let cells: Vec<Cell> = crate::parallel_map(jobs, |(policy, gpus)| {
        let mut cfg = ClusterConfig::new(gpus, MODELS.to_vec(), RPS_PER_MODEL);
        cfg.policy = policy;
        cfg.routing = Routing::LeastOutstanding;
        cfg.horizon = SimDuration::from_secs(4);
        let r = run_cluster(&cfg, perfdb);
        Cell {
            policy,
            gpus,
            rps: r.rps,
            p95_ms: r.p95_ms,
            energy_per_request_j: r.energy_j / r.completed.max(1) as f64,
        }
    });
    println!(
        "{:<14} {:>5} {:>10} {:>10} {:>8}",
        "policy", "GPUs", "served/s", "p95 ms", "J/req"
    );
    for c in &cells {
        println!(
            "{:<14} {:>5} {:>10.0} {:>10.1} {:>8.2}",
            c.policy.name(),
            c.gpus,
            c.rps,
            c.p95_ms,
            c.energy_per_request_j
        );
    }
    save_json("cluster_scaling.json", &cells);
    print_checks(&shape_checks(&cells));
    cells
}

/// The scaling claims, tested at every GPU count of the sweep: KRISP-I
/// serves more requests than static-equal, and spends less energy on
/// each.
pub fn shape_checks(cells: &[Cell]) -> Vec<Claim> {
    let pairs: Vec<(&Cell, &Cell)> = cells
        .iter()
        .filter(|k| k.policy == Policy::KrispI)
        .map(|k| {
            let s = cells
                .iter()
                .find(|s| s.policy == Policy::StaticEqual && s.gpus == k.gpus)
                .expect("static-equal ran at every GPU count");
            (k, s)
        })
        .collect();
    let claim = |paper, unit: &str, value: fn(&Cell) -> f64, better: fn(f64, f64) -> bool| {
        let measured: Vec<String> = pairs
            .iter()
            .map(|(k, s)| format!("{} GPU {:.2} vs {:.2}", k.gpus, value(k), value(s)))
            .collect();
        let holds = pairs.iter().all(|(k, s)| better(value(k), value(s)));
        Claim::new(paper, format!("{} {unit}", measured.join(", ")), holds)
    };
    vec![
        claim(
            "krisp-i serves more than static-equal",
            "req/s",
            |c| c.rps,
            |k, s| k > s,
        ),
        claim(
            "krisp-i spends less energy per request than static-equal",
            "J/req",
            |c| c.energy_per_request_j,
            |k, s| k < s,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(policy: Policy, gpus: usize, rps: f64, energy_per_request_j: f64) -> Cell {
        Cell {
            policy,
            gpus,
            rps,
            p95_ms: 0.0,
            energy_per_request_j,
        }
    }

    #[test]
    fn committed_cells_serve_less_on_less_energy() {
        // The cells of `results/cluster_scaling.json`.
        let cells = [
            cell(Policy::StaticEqual, 1, 227.5, 0.8795030792736545),
            cell(Policy::StaticEqual, 2, 306.75, 1.0662437157522138),
            cell(Policy::StaticEqual, 4, 347.0, 1.3528453305007384),
            cell(Policy::KrispI, 1, 224.0, 0.8032948014205472),
            cell(Policy::KrispI, 2, 304.25, 0.9107025174233416),
            cell(Policy::KrispI, 4, 346.75, 1.0791029605447071),
        ];
        let claims = shape_checks(&cells);
        let holds: Vec<bool> = claims.iter().map(|c| c.holds).collect();
        assert_eq!(holds, [false, true]);
        assert_eq!(
            claims[0].measured,
            "1 GPU 224.00 vs 227.50, 2 GPU 304.25 vs 306.75, 4 GPU 346.75 vs 347.00 req/s"
        );
    }
}
