//! Fig 8 — characterization of a vector-multiplication kernel as the CU
//! budget shrinks, under the three distribution policies: latency spikes
//! at 16/31/46 CUs for *Packed*, steps at 15/11/7 for *Distributed*, and
//! the energy advantage of *Conserved* around 40 CUs.

use serde::{Deserialize, Serialize};

use krisp::{select_cus, DistributionPolicy};
use krisp_runtime::{Runtime, RuntimeConfig};
use krisp_sim::{GpuTopology, KernelDesc};

use std::fmt::Write as _;

use crate::{header_text, save_json};

/// One sweep point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Point {
    /// Distribution policy.
    pub policy: DistributionPolicy,
    /// Active CUs.
    pub cus: u16,
    /// Per-kernel latency, µs.
    pub latency_us: f64,
    /// Per-kernel energy, mJ.
    pub energy_mj: f64,
}

const REPS: u64 = 50;

fn measure(policy: DistributionPolicy, cus: u16) -> Point {
    let topo = GpuTopology::MI50;
    let mut rt = Runtime::new(RuntimeConfig::default());
    let s = rt.create_stream();
    rt.set_stream_mask(s, select_cus(policy, cus, &topo))
        .expect("valid mask");
    // The Fig 8 microbenchmark: a device-wide vector multiply
    // (6e6 CU*ns => 100 us on the full GPU).
    let kernel = KernelDesc::new("vector_mul_f32", 6.0e6, 60).with_grid_threads(1 << 20);
    for i in 0..REPS {
        rt.launch(s, kernel.clone(), i);
    }
    rt.run_to_idle();
    Point {
        policy,
        cus,
        latency_us: rt.now().as_secs_f64() * 1e6 / REPS as f64,
        energy_mj: rt.energy_joules() * 1e3 / REPS as f64,
    }
}

/// Runs the Fig 8 sweep and renders the report without printing.
pub fn report() -> String {
    let mut out =
        header_text("Fig 8: vector-multiply kernel vs active CUs, three distribution policies");
    let mut points = Vec::new();
    let _ = writeln!(
        out,
        "{:>4} | {:>12} {:>12} {:>12} | {:>10} {:>10} {:>10}",
        "CUs", "dist us", "packed us", "conserv us", "dist mJ", "packed mJ", "conserv mJ"
    );
    for cus in (1..=60u16).rev() {
        let row: Vec<Point> = DistributionPolicy::ALL
            .iter()
            .map(|&p| measure(p, cus))
            .collect();
        let _ = writeln!(
            out,
            "{:>4} | {:>12.1} {:>12.1} {:>12.1} | {:>10.3} {:>10.3} {:>10.3}",
            cus,
            row[0].latency_us,
            row[1].latency_us,
            row[2].latency_us,
            row[0].energy_mj,
            row[1].energy_mj,
            row[2].energy_mj
        );
        points.extend(row);
    }
    save_json("fig08.json", &points);

    let lat = |p: DistributionPolicy, n: u16| {
        points
            .iter()
            .find(|x| x.policy == p && x.cus == n)
            .expect("swept")
            .latency_us
    };
    let _ = writeln!(out, "\nshape checks:");
    for n in [16u16, 31, 46] {
        let _ = writeln!(
            out,
            "  packed spike at {n}: {:.0} us vs conserved {:.0} us",
            lat(DistributionPolicy::Packed, n),
            lat(DistributionPolicy::Conserved, n)
        );
    }
    for n in [15u16, 11, 7] {
        let _ = writeln!(
            out,
            "  distributed step at {n}: {:.0} us vs conserved {:.0} us",
            lat(DistributionPolicy::Distributed, n),
            lat(DistributionPolicy::Conserved, n)
        );
    }
    let e = |p: DistributionPolicy, n: u16| {
        points
            .iter()
            .find(|x| x.policy == p && x.cus == n)
            .expect("swept")
            .energy_mj
    };
    let _ = writeln!(
        out,
        "  energy at 40 CUs: conserved {:.3} mJ vs distributed {:.3} mJ ({:.1}% saving)",
        e(DistributionPolicy::Conserved, 40),
        e(DistributionPolicy::Distributed, 40),
        100.0
            * (1.0 - e(DistributionPolicy::Conserved, 40) / e(DistributionPolicy::Distributed, 40))
    );
    out
}
