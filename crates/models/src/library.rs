//! A synthetic GPU-library kernel catalogue — the population behind
//! Fig 6 (minimum required CUs vs kernel size and input size).
//!
//! The paper's key observation (§IV-B1) is that neither kernel size
//! (grid threads) nor input size predicts a kernel's minimum-CU
//! requirement; the *kernel type* must be accounted for. The catalogue
//! encodes those per-type behaviours:
//!
//! * `MIOpenConvFFT_fwd_in` — huge grids (often above the MI50's
//!   153 600-thread capacity) with a wide, size-uncorrelated spread of
//!   minimum CUs;
//! * `miopenSp3AsmConv_v21_1_2_gfx9` and `gfx9_f3x2_fp32_stride1_group`
//!   — always require all 60 CUs regardless of input size;
//! * elementwise/vector kernels — minimum CUs grow with grid size, then
//!   saturate;
//! * GEMM kernels — minimum CUs track the output-tile count.

use krisp_sim::KernelDesc;

/// The MI50's maximum resident thread count (2 560 threads × 60 CUs),
/// marked as a vertical line in Fig 6a.
pub const MI50_MAX_THREADS: u64 = 153_600;

/// Deterministic hash-based pseudo-random in `[0, 1)`.
fn unit(seed: u64) -> f64 {
    // SplitMix64 finalizer.
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

fn sized(name: &str, work_ns_at_knee: f64, p: u16, grid: u64, input: u64) -> KernelDesc {
    let floor = if name.contains("Conv") || name.contains("conv") || name.contains("Cijk") {
        0.5
    } else if name.contains("BatchNorm") {
        0.3
    } else {
        0.0 // vector/elementwise kernels scale linearly (Fig 8)
    };
    KernelDesc::new(name, work_ns_at_knee * p as f64, p)
        .with_grid_threads(grid)
        .with_input_bytes(input)
        .with_bandwidth_floor(floor)
}

/// Generates the profiled-kernel population used for the Fig 6 scatter
/// plots: a few hundred instances across the library's kernel types,
/// each with a deterministic (grid, input, min-CU) relationship.
///
/// # Examples
///
/// ```
/// use krisp_models::library::{catalogue, MI50_MAX_THREADS};
///
/// let ks = catalogue();
/// assert!(ks.len() > 200);
/// // Some kernels exceed the device's thread capacity yet need few CUs.
/// assert!(ks
///     .iter()
///     .any(|k| k.grid_threads > MI50_MAX_THREADS && k.parallelism < 20));
/// ```
pub fn catalogue() -> Vec<KernelDesc> {
    let mut out = Vec::new();

    // FFT convolution: big grids, min-CU scattered 10..60 independent of
    // size (the green circles of Fig 6a).
    for i in 0..60u64 {
        let grid = 80_000 + (unit(i * 31 + 1) * 400_000.0) as u64;
        let p = 10 + (unit(i * 31 + 2) * 50.0) as u16;
        let input = 1 << (16 + (unit(i * 31 + 3) * 8.0) as u64);
        out.push(sized(
            "MIOpenConvFFT_fwd_in",
            40_000.0,
            p.min(60),
            grid,
            input,
        ));
    }

    // Assembly Winograd + grouped stride-1 conv: always the full device,
    // no matter the input (the flat-60 rows of Fig 6b).
    for (name, n) in [
        ("miopenSp3AsmConv_v21_1_2_gfx9", 40u64),
        ("gfx9_f3x2_fp32_stride1_group", 30u64),
    ] {
        for i in 0..n {
            let grid = 30_000 + (unit(i * 17 + 5) * 300_000.0) as u64;
            let input = 1 << (14 + (unit(i * 17 + 6) * 12.0) as u64);
            out.push(sized(name, 60_000.0, 60, grid, input));
        }
    }

    // Elementwise vector kernels: min CUs grow with the grid, saturating
    // at the point where every CU has a full complement of waves.
    for (name, n) in [("vector_add_f32", 40u64), ("vector_mul_f32", 40u64)] {
        for i in 0..n {
            let grid = 2_560 + (unit(i * 13 + 9) * 500_000.0) as u64;
            let p = ((grid as f64 / 25_600.0).ceil() as u16).clamp(1, 18);
            out.push(sized(name, 6_000.0, p, grid, grid * 8));
        }
    }

    // GEMM: min CUs track the tile count (grid / tile threads), capped.
    for i in 0..50u64 {
        let tiles = 1 + (unit(i * 7 + 11) * 120.0) as u64;
        let grid = tiles * 4_096;
        let p = (tiles as u16).clamp(1, 60);
        out.push(sized(
            "Cijk_Ailk_Bljk_SB_MT64x64",
            25_000.0,
            p,
            grid,
            tiles * 131_072,
        ));
    }

    // Normalization kernels: modest grids, low knees.
    for i in 0..40u64 {
        let grid = 10_000 + (unit(i * 3 + 13) * 80_000.0) as u64;
        let p = 2 + (unit(i * 3 + 14) * 10.0) as u16;
        out.push(sized(
            "MIOpenBatchNormFwdInferSpatial",
            8_000.0,
            p,
            grid,
            grid * 4,
        ));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_deterministic() {
        assert_eq!(catalogue(), catalogue());
    }

    #[test]
    fn asm_conv_kernels_always_need_full_device() {
        for k in catalogue()
            .iter()
            .filter(|k| k.name.contains("Sp3AsmConv") || k.name.contains("stride1_group"))
        {
            assert_eq!(k.parallelism, 60, "{}", k.name);
        }
    }

    #[test]
    fn fft_conv_min_cus_uncorrelated_with_size() {
        // Same-type kernels with nearly identical grids should still show
        // a wide min-CU spread.
        let ks: Vec<_> = catalogue()
            .into_iter()
            .filter(|k| &*k.name == "MIOpenConvFFT_fwd_in")
            .collect();
        let min = ks.iter().map(|k| k.parallelism).min().unwrap();
        let max = ks.iter().map(|k| k.parallelism).max().unwrap();
        assert!(max - min >= 30, "spread {min}..{max} too narrow");
    }

    #[test]
    fn some_oversized_grids_have_small_knees() {
        assert!(catalogue()
            .iter()
            .any(|k| k.grid_threads > MI50_MAX_THREADS && k.parallelism < 20));
    }

    #[test]
    fn vector_kernels_saturate() {
        let ks: Vec<_> = catalogue()
            .into_iter()
            .filter(|k| k.name.starts_with("vector_"))
            .collect();
        assert!(ks.iter().all(|k| k.parallelism <= 18));
        // Bigger grids never need fewer CUs than the formula's cap allows.
        assert!(ks.iter().any(|k| k.parallelism == 18));
    }

    #[test]
    fn unit_hash_is_in_range_and_stable() {
        for s in 0..1000 {
            let u = unit(s);
            assert!((0.0..1.0).contains(&u));
            assert_eq!(u, unit(s));
        }
    }
}
