//! Fig 4 — per-kernel minimum-required-CU traces for `albert` and
//! `resnext101`, showing the phase behaviour kernel-wise right-sizing
//! exploits.

use serde::{Deserialize, Serialize};

use krisp_models::{generate_trace, ModelKind, TraceConfig};

use std::fmt::Write as _;

use crate::{header_text, save_json};

/// A persisted kernel trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trace {
    /// Model.
    pub model: ModelKind,
    /// Minimum required CUs per kernel call, in launch order.
    pub min_cus: Vec<u16>,
}

fn sparkline(values: &[u16]) -> String {
    const BARS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    values
        .iter()
        .map(|&v| BARS[((v as usize * 8) / 61).min(7)])
        .collect()
}

/// Computes both traces and renders the report without printing.
pub fn report() -> String {
    let mut out = header_text("Fig 4: kernel-wise minimum required CUs within an inference pass");
    let mut traces = Vec::new();
    for model in [ModelKind::Albert, ModelKind::Resnext101] {
        let trace = generate_trace(model, &TraceConfig::default());
        let min_cus: Vec<u16> = trace.iter().map(|k| k.parallelism).collect();
        let low = min_cus.iter().filter(|&&p| p <= 20).count();
        let high = min_cus.iter().filter(|&&p| p >= 40).count();
        let _ = writeln!(
            out,
            "\n{} — {} kernels, {} need <=20 CUs, {} need >=40 CUs",
            model,
            min_cus.len(),
            low,
            high
        );
        // Print the first 120 kernels as a sparkline (1 char per kernel).
        let head = &min_cus[..min_cus.len().min(120)];
        let _ = writeln!(out, "first {} kernels: {}", head.len(), sparkline(head));
        traces.push(Trace { model, min_cus });
    }
    save_json("fig04.json", &traces);
    let _ = writeln!(
        out,
        "\nshape check: albert is a low band with periodic tall spikes; resnext101 is mostly tall."
    );
    out
}
