//! Fig 3 — inference-model sensitivity to GPU resource restriction:
//! throughput and tail latency as the active-CU budget shrinks, one curve
//! per model, with the model-wise kneepoint marked.

use serde::{Deserialize, Serialize};

use krisp::{Policy, Profiler};
use krisp_models::{paper_profile, ModelKind};
use krisp_server::{oracle_perfdb, run_server, ServerConfig};

use std::fmt::Write as _;

use crate::{header_text, save_json};

/// One model's sweep, as persisted to `results/fig03.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Curve {
    /// Model.
    pub model: ModelKind,
    /// (active CUs, latency ms) points (deterministic profiler sweep).
    pub latency_ms: Vec<(u16, f64)>,
    /// (active CUs, p95 ms) points measured under duration jitter —
    /// the figure's tail-latency panel.
    pub p95_ms: Vec<(u16, f64)>,
    /// Measured model-wise knee.
    pub knee: u16,
    /// Paper's Table III right-size, for comparison.
    pub paper_right_size: u16,
}

/// CU counts sampled for the jittered tail-latency panel.
pub const TAIL_SWEEP: [u16; 7] = [5, 10, 15, 20, 30, 45, 60];

fn tail_p95(model: ModelKind, cus: u16) -> f64 {
    let db = oracle_perfdb(&[model], &[32]);
    let mut cfg = ServerConfig::closed_loop(Policy::MpsDefault, vec![model], 32);
    cfg.cu_restriction = Some(cus);
    run_server(&cfg, &db)
        .max_p95_ms()
        .expect("isolated run completes")
}

/// Runs the Fig 3 sweep and renders the report without printing.
pub fn report() -> String {
    let mut out = header_text("Fig 3: model sensitivity to CU restriction (batch 32, isolated)");
    let profiler = Profiler::default();
    let mut curves = Vec::new();
    let _ = writeln!(
        out,
        "{:<12} {:>7} {:>9} | normalized throughput at CUs = 5 10 15 20 30 45 60",
        "model", "knee", "paper-rs"
    );
    let sweeps = crate::parallel_map(ModelKind::ALL.to_vec(), |m| {
        let curve = profiler.profile_model(m, 32);
        let tails: Vec<(u16, f64)> = TAIL_SWEEP.iter().map(|&n| (n, tail_p95(m, n))).collect();
        (curve, tails)
    });
    for (model, (c, tails)) in ModelKind::ALL.into_iter().zip(sweeps) {
        let full_ms = c.points.last().expect("sweep non-empty").1.as_millis_f64();
        let sel: Vec<String> = [5u16, 10, 15, 20, 30, 45, 60]
            .iter()
            .map(|&n| {
                let lat = c
                    .points
                    .iter()
                    .find(|&&(cus, _)| cus == n)
                    .expect("full sweep")
                    .1
                    .as_millis_f64();
                format!("{:.2}", full_ms / lat)
            })
            .collect();
        let tail_cells: Vec<String> = tails.iter().map(|&(_, p)| format!("{p:.0}")).collect();
        let _ = writeln!(
            out,
            "{:<12} {:>7} {:>9} | {} | p95 ms: {}",
            model.name(),
            c.knee,
            paper_profile(model).right_size_cus,
            sel.join(" "),
            tail_cells.join(" ")
        );
        curves.push(Curve {
            model,
            latency_ms: c
                .points
                .iter()
                .map(|&(n, d)| (n, d.as_millis_f64()))
                .collect(),
            p95_ms: tails,
            knee: c.knee,
            paper_right_size: paper_profile(model).right_size_cus,
        });
    }
    save_json("fig03.json", &curves);
    let _ = writeln!(
        out,
        "\nshape check: albert tolerates deep restriction (knee {}) with a stable tail;\n\
         vgg19 needs the whole GPU (knee {}) and its p95 grows immediately.",
        curves[0].knee,
        curves.last().expect("8 models").knee
    );
    out
}
