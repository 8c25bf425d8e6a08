//! ASCII Gantt export: which CUs each queue's kernels occupied, over time.
//!
//! The chart is drawn straight from recorded [`EventKind::KernelComplete`]
//! events, each of which carries its own `start_ns`, completion time and
//! granted mask. Rows are CUs and columns are time bins, which makes the
//! difference between stream-scoped and kernel-scoped partitions
//! *visible*: under KRISP the letters change footprint at every kernel
//! boundary.

use crate::event::{mask_popcount, Event, EventKind};

/// `(queue, start_ns, end_ns, mask)` of every `KernelComplete` event.
fn spans(events: &[Event]) -> impl Iterator<Item = (u32, u64, u64, [u64; 2])> + '_ {
    events.iter().filter_map(|e| match e.kind {
        EventKind::KernelComplete {
            queue,
            start_ns,
            mask,
            ..
        } => Some((queue, start_ns, e.ts_ns, mask)),
        _ => None,
    })
}

/// Earliest start and latest end over all kernel spans (`None` if none).
fn extent(events: &[Event]) -> Option<(u64, u64)> {
    let start = spans(events).map(|s| s.1).min()?;
    let end = spans(events).map(|s| s.2).max()?;
    Some((start, end))
}

/// Renders a CU × time occupancy chart with `cols` time bins from the
/// `KernelComplete` events of a recording; every other event is ignored.
/// Queues print as letters (`A`, `B`, …), idle CUs as `.`, and CUs
/// claimed by several queues in the same bin as `#`. Rows run top-down
/// from the last CU and are labelled `SE{s} CU{i}`, for a device of
/// `num_ses` shader engines with `cus_per_se` CUs each.
///
/// # Panics
///
/// Panics if `cols` is zero.
///
/// # Examples
///
/// ```
/// use krisp_obs::{Event, EventKind};
///
/// let events = [Event {
///     ts_ns: 1_000,
///     worker: 0,
///     kind: EventKind::KernelComplete {
///         queue: 0,
///         tag: 0,
///         start_ns: 0,
///         mask: [0x7fff, 0],
///         granted_cus: 15,
///     },
/// }];
/// let chart = krisp_obs::gantt::gantt(&events, 4, 15, 10);
/// assert_eq!(chart.lines().count(), 61); // one row per CU + axis
/// assert!(chart.ends_with("(t=0.000000s -> t=0.000001s)\n"));
/// ```
pub fn gantt(events: &[Event], num_ses: u16, cus_per_se: u16, cols: usize) -> String {
    assert!(cols > 0, "need at least one time bin");
    let Some((t0, t1)) = extent(events) else {
        return String::from("(empty trace)\n");
    };
    let span_ns = (t1 - t0).max(1);
    let total = usize::from(num_ses * cus_per_se);
    // cell[cu][bin] = None (idle) | Some(queue) | Some(u32::MAX) (shared)
    let mut cells: Vec<Vec<Option<u32>>> = vec![vec![None; cols]; total];
    for (queue, start, end, mask) in spans(events) {
        let b0 = ((start - t0) * cols as u64 / span_ns).min(cols as u64 - 1) as usize;
        let b1 = ((end.saturating_sub(1).max(start) - t0) * cols as u64 / span_ns)
            .min(cols as u64 - 1) as usize;
        for (cu, row) in cells.iter_mut().enumerate() {
            if mask[cu / 64] >> (cu % 64) & 1 == 0 {
                continue;
            }
            for bin in &mut row[b0..=b1] {
                *bin = match *bin {
                    None => Some(queue),
                    Some(q) if q == queue => Some(q),
                    Some(_) => Some(u32::MAX),
                };
            }
        }
    }
    let mut out = String::new();
    for (i, row) in cells.iter().enumerate().rev() {
        let per_se = usize::from(cus_per_se);
        out.push_str(&format!("SE{} CU{:>2} |", i / per_se, i % per_se));
        for cell in row {
            out.push(match cell {
                None => '.',
                Some(u32::MAX) => '#',
                Some(q) => (b'A' + (*q % 26) as u8) as char,
            });
        }
        out.push('\n');
    }
    // Times print as seconds, the way the simulator's `SimTime` does.
    out.push_str(&format!(
        "        +{}  (t={:.6}s -> t={:.6}s)\n",
        "-".repeat(cols),
        t0 as f64 / 1e9,
        t1 as f64 / 1e9
    ));
    out
}

/// Mean fraction of the device's `total_cus` occupied per time bin — a
/// coarse utilization profile over the extent of the recorded kernels.
///
/// # Panics
///
/// Panics if `cols` is zero.
pub fn occupancy_profile(events: &[Event], total_cus: u16, cols: usize) -> Vec<f64> {
    assert!(cols > 0, "need at least one time bin");
    let Some((t0, t1)) = extent(events) else {
        return vec![0.0; cols];
    };
    let span_ns = (t1 - t0).max(1) as f64;
    let bin_ns = span_ns / cols as f64;
    let mut busy_ns = vec![0.0f64; cols];
    for (_, start, end, mask) in spans(events) {
        let cus = f64::from(mask_popcount(mask));
        let s0 = (start - t0) as f64;
        let s1 = (end - t0) as f64;
        for (b, slot) in busy_ns.iter_mut().enumerate() {
            let lo = b as f64 * bin_ns;
            let hi = lo + bin_ns;
            let overlap = (s1.min(hi) - s0.max(lo)).max(0.0);
            *slot += overlap * cus;
        }
    }
    busy_ns
        .into_iter()
        .map(|ns| ns / bin_ns / f64::from(total_cus))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SES: u16 = 4;
    const CUS_PER_SE: u16 = 15;
    const TOTAL: u16 = SES * CUS_PER_SE;

    /// The first `n` CUs as a two-word mask.
    fn first_n(n: u32) -> [u64; 2] {
        let mut mask = [0u64; 2];
        for cu in 0..n {
            mask[(cu / 64) as usize] |= 1 << (cu % 64);
        }
        mask
    }

    fn kernel(queue: u32, tag: u64, start_ns: u64, end_ns: u64, mask: [u64; 2]) -> Event {
        Event {
            ts_ns: end_ns,
            worker: 0,
            kind: EventKind::KernelComplete {
                queue,
                tag,
                start_ns,
                mask,
                granted_cus: mask_popcount(mask),
            },
        }
    }

    #[test]
    fn gantt_marks_streams_and_sharing() {
        let events = [
            kernel(0, 0, 0, 100, [0b01, 0]),
            kernel(1, 0, 0, 100, [0b11, 0]),
        ];
        let chart = gantt(&events, SES, CUS_PER_SE, 4);
        let rows: Vec<&str> = chart.lines().collect();
        // Rows print top-down from the last CU; CU0 is second-to-last.
        let cu0 = rows[rows.len() - 2];
        let cu1 = rows[rows.len() - 3];
        assert!(cu0.ends_with("####"), "cu0 row: {cu0}");
        assert!(cu1.ends_with("BBBB"), "cu1 row: {cu1}");
        assert!(cu0.starts_with("SE0 CU 0 |"), "cu0 row: {cu0}");
        assert!(rows[0].starts_with("SE3 CU14 |"), "top row: {}", rows[0]);
    }

    #[test]
    fn occupancy_profile_integrates_masks() {
        // 30 CUs busy for the first half of the extent, 1 after.
        let events = [
            kernel(0, 0, 0, 100, first_n(30)),
            kernel(0, 1, 100, 200, first_n(1)),
        ];
        let profile = occupancy_profile(&events, TOTAL, 2);
        assert!((profile[0] - 0.5).abs() < 1e-9);
        assert!((profile[1] - 1.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn empty_log_renders_gracefully() {
        // Events other than kernel completions draw nothing.
        let events = [Event {
            ts_ns: 5,
            worker: 0,
            kind: EventKind::RequestEnqueued { request_id: 0 },
        }];
        for events in [&events[..], &[]] {
            assert_eq!(gantt(events, SES, CUS_PER_SE, 5), "(empty trace)\n");
            assert_eq!(occupancy_profile(events, TOTAL, 3), vec![0.0; 3]);
        }
    }

    #[test]
    fn overlapping_spans_on_one_queue_both_complete() {
        // Two kernels with distinct tags overlap in time on queue 0.
        let events = [
            kernel(0, 0, 0, 100, first_n(10)),
            kernel(0, 1, 50, 150, first_n(20)),
        ];
        // During the overlap ([50, 100)) both masks contribute: the
        // middle third of a 3-bin profile sees 10 + 20 CUs.
        let profile = occupancy_profile(&events, TOTAL, 3);
        assert!((profile[1] - 30.0 / 60.0).abs() < 1e-9, "{profile:?}");
    }

    #[test]
    fn single_instant_span_occupies_one_bin() {
        // Zero-duration span: extent collapses, span_ns clamps to 1.
        let events = [kernel(0, 0, 5, 5, first_n(6))];
        let profile = occupancy_profile(&events, TOTAL, 4);
        assert_eq!(profile.len(), 4);
        // Zero-duration work contributes zero busy time everywhere.
        assert!(profile.iter().all(|&v| v == 0.0), "{profile:?}");
        // The chart still renders one cell per bin without panicking.
        let chart = gantt(&events, SES, CUS_PER_SE, 4);
        assert!(chart.contains('A'), "{chart}");
    }

    #[test]
    fn occupancy_profile_with_one_column_averages_everything() {
        // 30 CUs for the first half, 60 for the second: mean is 45/60.
        let events = [
            kernel(0, 0, 0, 100, first_n(30)),
            kernel(0, 1, 100, 200, first_n(60)),
        ];
        let profile = occupancy_profile(&events, TOTAL, 1);
        assert_eq!(profile.len(), 1);
        assert!((profile[0] - 0.75).abs() < 1e-9, "{profile:?}");
    }
}
