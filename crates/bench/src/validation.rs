//! Cross-validation of the fluid execution model against the discrete
//! workgroup-level engine — two independently implemented backends that
//! must agree on the behaviours every experiment rests on.

use serde::{Deserialize, Serialize};

use krisp::{select_cus, DistributionPolicy};
use krisp_sim::{contention, CuMask, GpuTopology, WgEngine};

use std::fmt::Write as _;

use crate::{header_text, save_json};

/// One comparison point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Point {
    /// Distribution policy of the mask.
    pub policy: DistributionPolicy,
    /// Active CUs.
    pub cus: u16,
    /// Fluid-model latency, µs.
    pub fluid_us: f64,
    /// Discrete workgroup-level latency, µs.
    pub discrete_us: f64,
    /// discrete / fluid.
    pub ratio: f64,
}

fn fluid_us(work: f64, parallelism: u16, mask: &CuMask, topo: &GpuTopology) -> f64 {
    let mut residents = vec![0u16; topo.total_cus() as usize];
    for cu in mask {
        residents[usize::from(cu)] = 1;
    }
    let rate = contention::kernel_rate(mask, parallelism, 0.0, &residents, topo, 0.0);
    work / rate / 1e3
}

fn discrete_us(work: f64, parallelism: u16, mask: CuMask, topo: &GpuTopology) -> f64 {
    let mut e = WgEngine::new(*topo);
    e.dispatch(work, parallelism, mask).expect("non-empty mask");
    e.run_to_idle()[0].0.as_nanos() as f64 / 1e3
}

/// Runs the validation sweep and renders the report without printing.
pub fn report() -> String {
    let mut out = header_text("Model validation: fluid rates vs discrete workgroup scheduling");
    let topo = GpuTopology::MI50;
    let (work, parallelism) = (6.0e6, 60u16);
    let mut points = Vec::new();
    for policy in DistributionPolicy::ALL {
        for cus in 1..=60u16 {
            let mask = select_cus(policy, cus, &topo);
            let f = fluid_us(work, parallelism, &mask, &topo);
            let d = discrete_us(work, parallelism, mask, &topo);
            points.push(Point {
                policy,
                cus,
                fluid_us: f,
                discrete_us: d,
                ratio: d / f,
            });
        }
    }
    save_json("validation.json", &points);

    for policy in DistributionPolicy::ALL {
        let rs: Vec<f64> = points
            .iter()
            .filter(|p| p.policy == policy)
            .map(|p| p.ratio)
            .collect();
        let min = rs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = rs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exact = rs.iter().filter(|&&r| (r - 1.0).abs() < 1e-6).count();
        let _ = writeln!(
            out,
            "{:<12} discrete/fluid ratio: min {:.3}, max {:.3}; exact agreement at {}/60 points",
            policy.name(),
            min,
            max,
            exact
        );
    }
    let worst = points
        .iter()
        .max_by(|a, b| a.ratio.partial_cmp(&b.ratio).expect("finite"))
        .expect("non-empty");
    let _ = writeln!(
        out,
        "\nworst divergence: {} at {} CUs (discrete {:.0} us vs fluid {:.0} us) — one\n\
         discretization wave; the fluid model never *under*-estimates latency.",
        worst.policy, worst.cus, worst.discrete_us, worst.fluid_us
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fluid_never_exceeds_discrete() {
        let topo = GpuTopology::MI50;
        for policy in DistributionPolicy::ALL {
            for cus in [1u16, 7, 15, 16, 31, 45, 46, 60] {
                let mask = select_cus(policy, cus, &topo);
                let f = fluid_us(6.0e6, 60, &mask, &topo);
                let d = discrete_us(6.0e6, 60, mask, &topo);
                assert!(d + 1e-6 >= f, "{policy} at {cus}: discrete {d} < fluid {f}");
            }
        }
    }

    #[test]
    fn backends_agree_at_full_device() {
        let topo = GpuTopology::MI50;
        let mask = CuMask::full(&topo);
        let f = fluid_us(6.0e6, 60, &mask, &topo);
        let d = discrete_us(6.0e6, 60, mask, &topo);
        assert!((f - d).abs() < 1e-6);
    }
}
