//! Result digests stored with the benchmark, one line per workload seed.
//!
//! Each line of `digests/<workload>.txt` reads `<seed>: <d0> <d1> ...`,
//! where `dN` is the low 32 bits of job N's result digest in hex. A run
//! whose seed has a line must reproduce it job for job; regenerate the
//! files with `--write-digests <first> <last>` only when the simulated
//! model changes on purpose.

use crate::workload::Workload;

/// Seeds covered by the stored files.
pub const STORED_SEEDS: std::ops::RangeInclusive<u64> = 0..=31;

fn file(workload: Workload) -> &'static str {
    match workload {
        Workload::ClosedKrisp => include_str!("../digests/closed_krisp.txt"),
        Workload::ClusterStatic => include_str!("../digests/cluster_static.txt"),
        Workload::ChaosMix => include_str!("../digests/chaos_mix.txt"),
    }
}

/// The stored 32-bit job digests for `seed`, if that seed was recorded.
pub fn stored(workload: Workload, seed: u64) -> Option<Vec<u32>> {
    file(workload).lines().find_map(|line| {
        let (s, rest) = line.split_once(':')?;
        (s.trim().parse::<u64>().ok()? == seed).then(|| {
            rest.split_whitespace()
                .map(|h| u32::from_str_radix(h, 16).expect("stored digests are hex"))
                .collect()
        })
    })
}

/// The stored form of a full result digest.
pub fn short(digest: u64) -> u32 {
    digest as u32
}

/// One stored line for `seed`.
pub fn line(seed: u64, digests: &[u64]) -> String {
    let hex: Vec<String> = digests
        .iter()
        .map(|&d| format!("{:08x}", short(d)))
        .collect();
    format!("{seed}: {}", hex.join(" "))
}
