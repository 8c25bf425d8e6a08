//! Tables I & II — the qualitative taxonomies of GPU spatial-partitioning
//! mechanisms and spatially partitioned inference servers, encoded as
//! data so the comparison the paper draws stays checkable in code.

use std::fmt::Write as _;

use crate::header_text;

/// One row of Table I.
#[derive(Debug, Clone, Copy)]
pub struct MechanismRow {
    /// Mechanism name.
    pub mechanism: &'static str,
    /// Scope a partition applies to.
    pub scope: &'static str,
    /// SW or HW enforced.
    pub enforced: &'static str,
    /// Programmer transparent?
    pub transparent: &'static str,
    /// Compute/memory partitioning.
    pub compute_memory: &'static str,
    /// Spatial granularity.
    pub granularity: &'static str,
    /// Reconfiguration overhead.
    pub reconfig: &'static str,
    /// Allows oversubscription?
    pub oversubscription: &'static str,
}

/// Table I, verbatim from the paper.
pub const TABLE1: [MechanismRow; 5] = [
    MechanismRow {
        mechanism: "MPS",
        scope: "Process",
        enforced: "HW",
        transparent: "Yes (Service)",
        compute_memory: "Yes/No",
        granularity: "GPU%",
        reconfig: "High",
        oversubscription: "Yes",
    },
    MechanismRow {
        mechanism: "MIG",
        scope: "Process",
        enforced: "HW",
        transparent: "Yes (vGPU)",
        compute_memory: "Yes/Yes",
        granularity: "GPC",
        reconfig: "High",
        oversubscription: "No",
    },
    MechanismRow {
        mechanism: "CU Masking API",
        scope: "Stream",
        enforced: "HW",
        transparent: "No (API)",
        compute_memory: "Yes/No",
        granularity: "CUs",
        reconfig: "Medium",
        oversubscription: "Yes",
    },
    MechanismRow {
        mechanism: "Elastic Kernel",
        scope: "Kernel",
        enforced: "SW",
        transparent: "No (Code Tform)",
        compute_memory: "Yes/No",
        granularity: "Grid/Block Dim",
        reconfig: "Low",
        oversubscription: "No",
    },
    MechanismRow {
        mechanism: "Kernel-Scoped Partition Instance (KRISP)",
        scope: "Kernel",
        enforced: "HW",
        transparent: "Yes (Runtime)",
        compute_memory: "Yes/No",
        granularity: "CUs",
        reconfig: "Low",
        oversubscription: "Yes",
    },
];

/// One row of Table II.
#[derive(Debug, Clone, Copy)]
pub struct ServerRow {
    /// Inference server.
    pub server: &'static str,
    /// Partitioning mechanism used.
    pub partitioning: &'static str,
    /// Right-sizing granularity.
    pub granularity: &'static str,
    /// Right-sizing metric.
    pub metric: &'static str,
    /// Resize overhead.
    pub overhead: &'static str,
    /// Must reload the model to resize?
    pub reload: &'static str,
}

/// Table II, verbatim from the paper.
pub const TABLE2: [ServerRow; 4] = [
    ServerRow {
        server: "GSLICE",
        partitioning: "MPS",
        granularity: "Model",
        metric: "Profiled Model Kneepoint (GPU%)",
        overhead: "High (2-15s)",
        reload: "Yes",
    },
    ServerRow {
        server: "Gpulet",
        partitioning: "MPS",
        granularity: "Model",
        metric: "Profiled Model Kneepoint or minGPU%",
        overhead: "High (10-15s)",
        reload: "Yes",
    },
    ServerRow {
        server: "PARIS and ELSA",
        partitioning: "MIG",
        granularity: "Model",
        metric: "Profiled Kneepoint (GPU size & Batch)",
        overhead: "High (~10s)",
        reload: "Yes",
    },
    ServerRow {
        server: "KRISP (this work)",
        partitioning: "Kernel-Scoped Partition Instance",
        granularity: "Kernel",
        metric: "Profiled Kernel's minCU",
        overhead: "Low (milliseconds)",
        reload: "No",
    },
];

/// Renders both taxonomy tables without printing.
pub fn report() -> String {
    let mut out = header_text("Table I: GPU spatial partitioning techniques");
    let _ = writeln!(
        out,
        "{:<42} {:<8} {:<4} {:<16} {:<8} {:<15} {:<7} {:<5}",
        "Mechanism", "Scope", "Enf", "Transparent", "Cmp/Mem", "Granularity", "Reconf", "Over"
    );
    for r in TABLE1 {
        let _ = writeln!(
            out,
            "{:<42} {:<8} {:<4} {:<16} {:<8} {:<15} {:<7} {:<5}",
            r.mechanism,
            r.scope,
            r.enforced,
            r.transparent,
            r.compute_memory,
            r.granularity,
            r.reconfig,
            r.oversubscription
        );
    }

    out.push_str(&header_text(
        "Table II: spatially partitioned GPU inference servers",
    ));
    let _ = writeln!(
        out,
        "{:<18} {:<34} {:<11} {:<40} {:<14} {:<7}",
        "Server", "Partitioning", "Granularity", "Metric", "Overhead", "Reload"
    );
    for r in TABLE2 {
        let _ = writeln!(
            out,
            "{:<18} {:<34} {:<11} {:<40} {:<14} {:<7}",
            r.server, r.partitioning, r.granularity, r.metric, r.overhead, r.reload
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_krisp_is_kernel_scoped_hw_and_transparent() {
        let winners: Vec<_> = TABLE1
            .iter()
            .filter(|r| {
                r.scope == "Kernel" && r.enforced == "HW" && r.transparent.starts_with("Yes")
            })
            .collect();
        assert_eq!(winners.len(), 1);
        assert!(winners[0].mechanism.contains("KRISP"));
    }

    #[test]
    fn only_krisp_avoids_model_reload() {
        let no_reload: Vec<_> = TABLE2.iter().filter(|r| r.reload == "No").collect();
        assert_eq!(no_reload.len(), 1);
        assert!(no_reload[0].server.contains("KRISP"));
    }
}
