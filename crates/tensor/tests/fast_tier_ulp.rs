//! Divergence bounds for the fast kernel tier (DESIGN.md §16).
//!
//! Every fast kernel is compared against its bit-exact twin under the
//! two-tier contract's documented bound: for a length-`k` inner
//! product, `|fast − exact| ≤ 2·γ(k)·Σ|aᵢ·bᵢ|` with
//! `γ(k) = k·ε/(1−k·ε)`, `ε = f32::EPSILON/2`. The bound is stated
//! against the absolute-value inner product rather than the result
//! because cancellation makes result-relative error unbounded; the
//! same bound covers SIMD-vs-portable disagreement, since both are
//! reassociations of the same sum.
//!
//! The shapes are chosen adversarially: `k = 1` (no reassociation
//! slack at all — the tiers must agree exactly there), `k`/`n` that
//! are not multiples of any SIMD lane width (ragged row and column
//! tails), high sparsity (the exact tier skips zero terms, the fast
//! tier does not), and subnormal-adjacent magnitudes (FMA keeps
//! products the separate multiply would flush differently).

use mupod_stats::SeededRng;
use mupod_tensor::fast::{
    dot_fast, dot_fast_portable, dot_fast_simd, gemm_fast, gemm_fast_portable, gemm_fast_simd,
    matvec_fast_into,
};
use mupod_tensor::gemm::{dot, gemm, matvec_into};
use mupod_tensor::KernelTier;
use proptest::prelude::*;

/// The contract bound on `|fast − exact|` for a `k`-term inner product
/// whose absolute-value inner product is `abs_dot`.
fn sum_bound(k: usize, abs_dot: f32) -> f32 {
    let eps = f32::EPSILON as f64 / 2.0;
    let gamma = (k as f64 * eps) / (1.0 - k as f64 * eps);
    // MIN_POSITIVE of slack so that an abs_dot of exactly zero (all
    // terms zero) still admits the one representable rounding of 0.
    (2.0 * gamma * abs_dot as f64) as f32 + f32::MIN_POSITIVE
}

/// Random values with controllable sparsity and magnitude scale. The
/// scale dial is what reaches the subnormal-adjacent range: at 1e-20
/// the pairwise products land near `f32::MIN_POSITIVE` (~1.2e-38).
fn fill(rng: &mut SeededRng, len: usize, sparsity: f64, scale: f32) -> Vec<f32> {
    (0..len)
        .map(|_| {
            if rng.uniform(0.0, 1.0) < sparsity {
                0.0
            } else {
                rng.gaussian(0.0, 1.0) as f32 * scale
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fast_gemm_diverges_from_exact_within_bound(
        seed in 0u64..10_000,
        m in 1usize..7,
        k in prop::sample::select(vec![1usize, 2, 7, 15, 16, 17, 31, 33, 75, 128]),
        n in prop::sample::select(vec![1usize, 3, 15, 16, 17, 19, 48, 63]),
        sparsity in prop::sample::select(vec![0.0f64, 0.5, 0.95]),
        scale in prop::sample::select(vec![1.0f32, 1e-20, 1e18]),
    ) {
        let mut rng = SeededRng::new(seed);
        let a = fill(&mut rng, m * k, sparsity, scale);
        let b = fill(&mut rng, k * n, sparsity, scale);
        let mut c_exact = vec![0.0f32; m * n];
        let mut c_fast = vec![0.0f32; m * n];
        gemm(m, k, n, &a, &b, &mut c_exact);
        gemm_fast(m, k, n, &a, &b, &mut c_fast);
        for i in 0..m {
            for j in 0..n {
                let abs_dot: f32 = (0..k)
                    .map(|kk| (a[i * k + kk] * b[kk * n + j]).abs())
                    .sum();
                let bound = sum_bound(k, abs_dot);
                let (e, f) = (c_exact[i * n + j], c_fast[i * n + j]);
                prop_assert!(
                    (e - f).abs() <= bound,
                    "c[{i},{j}]: exact {e} vs fast {f}, bound {bound} (k={k})"
                );
            }
        }
    }

    #[test]
    fn fast_dot_and_matvec_diverge_within_bound(
        seed in 0u64..10_000,
        out_dim in 1usize..9,
        in_dim in prop::sample::select(vec![1usize, 2, 8, 9, 31, 32, 33, 100]),
        sparsity in prop::sample::select(vec![0.0f64, 0.9]),
        scale in prop::sample::select(vec![1.0f32, 1e-20]),
        with_bias in any::<bool>(),
    ) {
        let mut rng = SeededRng::new(seed);
        let w = fill(&mut rng, out_dim * in_dim, sparsity, scale);
        let x = fill(&mut rng, in_dim, sparsity, scale);
        let bias = fill(&mut rng, out_dim, 0.0, scale);
        let bias = with_bias.then_some(bias.as_slice());
        let mut exact = vec![0.0f32; out_dim];
        let mut fast = vec![0.0f32; out_dim];
        matvec_into(KernelTier::Exact, out_dim, in_dim, &w, &x, bias, &mut exact);
        matvec_fast_into(out_dim, in_dim, &w, &x, bias, &mut fast);
        for o in 0..out_dim {
            let row = &w[o * in_dim..(o + 1) * in_dim];
            let abs_dot: f32 = row.iter().zip(&x).map(|(a, b)| (a * b).abs()).sum();
            let bound = sum_bound(in_dim, abs_dot);
            prop_assert!(
                (exact[o] - fast[o]).abs() <= bound,
                "row {o}: exact {} vs fast {}, bound {bound}",
                exact[o],
                fast[o]
            );
            // The standalone dot obeys the same bound against the
            // exact scalar dot.
            let (de, df) = (dot(row, &x), dot_fast(row, &x));
            prop_assert!((de - df).abs() <= bound, "dot: {de} vs {df}, bound {bound}");
        }
    }

    #[test]
    fn simd_and_portable_fast_paths_agree_within_bound(
        seed in 0u64..10_000,
        m in 1usize..5,
        k in prop::sample::select(vec![1usize, 7, 16, 33, 75]),
        n in prop::sample::select(vec![1usize, 15, 16, 17, 40]),
        sparsity in prop::sample::select(vec![0.0f64, 0.95]),
        scale in prop::sample::select(vec![1.0f32, 1e-20]),
    ) {
        // On hosts without SIMD support the dispatcher returns
        // None/false and this test degenerates to portable == portable,
        // which still pins the dispatch plumbing.
        let mut rng = SeededRng::new(seed);
        let a = fill(&mut rng, m * k, sparsity, scale);
        let b = fill(&mut rng, k * n, sparsity, scale);
        let mut c_portable = vec![0.0f32; m * n];
        gemm_fast_portable(m, k, n, &a, &b, &mut c_portable);
        let mut c_simd = vec![0.0f32; m * n];
        if !gemm_fast_simd(m, k, n, &a, &b, &mut c_simd) {
            gemm_fast_portable(m, k, n, &a, &b, &mut c_simd);
        }
        for i in 0..m {
            for j in 0..n {
                let abs_dot: f32 = (0..k)
                    .map(|kk| (a[i * k + kk] * b[kk * n + j]).abs())
                    .sum();
                let bound = sum_bound(k, abs_dot);
                let (p, s) = (c_portable[i * n + j], c_simd[i * n + j]);
                prop_assert!(
                    (p - s).abs() <= bound,
                    "c[{i},{j}]: portable {p} vs simd {s}, bound {bound}"
                );
            }
        }
        let row = &a[..k.min(a.len())];
        let col: Vec<f32> = (0..row.len()).map(|i| b[(i * n) % b.len()]).collect();
        if let Some(simd) = dot_fast_simd(row, &col) {
            let portable = dot_fast_portable(row, &col);
            let abs_dot: f32 = row.iter().zip(&col).map(|(x, y)| (x * y).abs()).sum();
            let bound = sum_bound(row.len(), abs_dot);
            prop_assert!(
                (portable - simd).abs() <= bound,
                "dot: portable {portable} vs simd {simd}, bound {bound}"
            );
        }
    }

    #[test]
    fn k_equals_one_is_tierless(
        seed in 0u64..10_000,
        m in 1usize..6,
        n in prop::sample::select(vec![1usize, 15, 16, 17, 33]),
    ) {
        // A single-term "sum" has nothing to reassociate: both tiers
        // must produce the identical rounding of a·b (FMA with an
        // addend of exactly 0.0 rounds like the plain product).
        let mut rng = SeededRng::new(seed);
        let a = fill(&mut rng, m, 0.0, 1.0);
        let b = fill(&mut rng, n, 0.0, 1.0);
        let mut c_exact = vec![0.0f32; m * n];
        let mut c_fast = vec![0.0f32; m * n];
        gemm(m, 1, n, &a, &b, &mut c_exact);
        gemm_fast(m, 1, n, &a, &b, &mut c_fast);
        for (e, f) in c_exact.iter().zip(&c_fast) {
            prop_assert_eq!(e.to_bits(), f.to_bits(), "k=1: exact {} vs fast {}", e, f);
        }
    }
}
