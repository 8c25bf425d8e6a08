//! Fig 7 — illustrative CU-distribution layouts: 19 CUs across 4 shader
//! engines under the three policies.

use krisp::{select_cus, DistributionPolicy};
use krisp_sim::GpuTopology;

use std::fmt::Write as _;

use crate::header_text;

/// Renders the Fig 7 illustration without printing.
pub fn report() -> String {
    let mut out =
        header_text("Fig 7: allocating 19 CUs across 4 SEs under three distribution policies");
    let topo = GpuTopology::MI50;
    for policy in DistributionPolicy::ALL {
        let mask = select_cus(policy, 19, &topo);
        let _ = writeln!(out, "\n{policy}:");
        for se in topo.ses() {
            let row: String = topo
                .cus_in_se(se)
                .map(|cu| if mask.contains(cu) { '#' } else { '.' })
                .collect();
            let _ = writeln!(out, "  {se}: {row}  ({} CUs)", mask.count_in_se(&topo, se));
        }
    }
    let _ = writeln!(
        out,
        "\nshape check: packed = 15+4, distributed = 5+5+5+4, conserved = 10+9."
    );
    out
}
