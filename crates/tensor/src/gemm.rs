//! General matrix–matrix and matrix–vector products.
//!
//! Convolution lowers to GEMM through im2col (see [`crate::conv`]); the
//! fully-connected layers of every network in the model zoo call
//! [`matvec_into`] directly. Two GEMM kernels are provided:
//!
//! * [`gemm`] — the plain scalar `i-k-j` kernel, kept as the
//!   cross-validation reference.
//! * [`gemm_tiled`] — the production kernel: cache-blocked over `j` and
//!   `k` so a `KB×NB` panel of `b` stays resident in cache while every
//!   row of `a` streams over it, each row of a block in 16-, 8-, 4- and
//!   1-wide register tiles. The blocking only reorders *which* output
//!   elements are touched when; for any single `c[i][j]` the additions
//!   still happen in ascending-`k` order, starting from its value in
//!   `c` — so the result is **bit-identical** to [`gemm`] (floats
//!   reassociate nowhere), which the proptest suite asserts. It takes a
//!   [`KernelTier`]: `Fast` swaps in [`crate::fast::gemm_fast`].

use crate::KernelTier;

/// Column-block width of [`gemm_tiled`]: `KB·NB` f32 = 128 KiB, sized to
/// keep one `b` panel resident in a typical L2 cache while the register
/// tiles stream through L1. [`crate::conv::conv2d_batch_into`] sizes
/// its batched GEMMs to about one such block.
pub(crate) const NB: usize = 128;
/// Depth-block height of [`gemm_tiled`] (see [`NB`]).
const KB: usize = 256;
/// Widest register tile of [`gemm_tiled`] (see [`register_tile`]); the
/// ragged tail of a column block runs 8-, 4- and 1-wide tiles. Must
/// divide [`NB`].
const JR: usize = 16;

/// Computes `c += a · b` where `a` is `m×k`, `b` is `k×n`, `c` is `m×n`,
/// all row-major. Scalar reference kernel.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "lhs size mismatch");
    assert_eq!(b.len(), k * n, "rhs size mismatch");
    assert_eq!(c.len(), m * n, "output size mismatch");
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            // lint:allow(no-float-eq) reason=sparsity fast path: only exactly-zero operands may skip the inner product without changing the result
            if av == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += av * bv;
            }
        }
    }
}

/// Computes `c += a · b` like [`gemm`] on the given kernel tier — the
/// production kernel behind [`crate::conv::conv2d_batch_into`].
///
/// On [`KernelTier::Exact`] the product is cache-blocked and
/// bit-identical to [`gemm`]: per output element the `k`-accumulation
/// order and the exact-zero skip are preserved; only the traversal of
/// `(j, k)` blocks changes. See the module docs for the argument.
/// [`KernelTier::Fast`] runs [`crate::fast::gemm_fast`], whose register
/// tiling subsumes the cache blocking at the shapes this workspace runs.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
pub fn gemm_tiled(
    tier: KernelTier,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    if tier == KernelTier::Fast {
        return crate::fast::gemm_fast(m, k, n, a, b, c);
    }
    assert_eq!(a.len(), m * k, "lhs size mismatch");
    assert_eq!(b.len(), k * n, "rhs size mismatch");
    assert_eq!(c.len(), m * n, "output size mismatch");
    mupod_obs::counter_add("tensor.gemm_calls", 1);
    mupod_obs::counter_add("tensor.gemm_macs", (m * k * n) as u64);
    let mut j0 = 0;
    while j0 < n {
        let jb = NB.min(n - j0);
        let mut k0 = 0;
        while k0 < k {
            let kb = KB.min(k - k0);
            for i in 0..m {
                let a_blk = &a[i * k + k0..i * k + k0 + kb];
                let c_row = &mut c[i * n + j0..i * n + j0 + jb];
                let b_blk = &b[k0 * n + j0..];
                // Full 16-wide register tiles, then one 8- and one
                // 4-wide tile and single columns for the ragged tail.
                let mut jt = 0;
                while jt + JR <= jb {
                    register_tile::<JR>(a_blk, b_blk, n, jt, c_row);
                    jt += JR;
                }
                if jt + 8 <= jb {
                    register_tile::<8>(a_blk, b_blk, n, jt, c_row);
                    jt += 8;
                }
                if jt + 4 <= jb {
                    register_tile::<4>(a_blk, b_blk, n, jt, c_row);
                    jt += 4;
                }
                while jt < jb {
                    register_tile::<1>(a_blk, b_blk, n, jt, c_row);
                    jt += 1;
                }
            }
            k0 += kb;
        }
        j0 += jb;
    }
}

/// One register tile of [`gemm_tiled`]: `c_row[jt..jt + W] += a_blk ·
/// b_blk[.., jt..jt + W]`, where row `dk` of the `b` block starts at
/// `dk · n`. The `W` outputs are accumulated in a `[f32; W]` local (kept
/// in SIMD registers by the autovectorizer) across the whole `k` block
/// and written back once, so no addition waits on a load and store of
/// `c`. Per output element the additions still run in ascending-`k`
/// order with the exact-zero skip on `a`, so the result is
/// bit-identical to [`gemm`].
#[inline(always)]
fn register_tile<const W: usize>(
    a_blk: &[f32],
    b_blk: &[f32],
    n: usize,
    jt: usize,
    c_row: &mut [f32],
) {
    let c_tile = &mut c_row[jt..jt + W];
    let mut acc = [0.0f32; W];
    acc.copy_from_slice(c_tile);
    for (dk, &av) in a_blk.iter().enumerate() {
        // lint:allow(no-float-eq) reason=sparsity fast path: only exactly-zero operands may skip the inner product without changing the result
        if av == 0.0 {
            continue;
        }
        let b_row = &b_blk[dk * n + jt..dk * n + jt + W];
        for (av_c, &bv) in acc.iter_mut().zip(b_row) {
            *av_c += av * bv;
        }
    }
    c_tile.copy_from_slice(&acc);
}

/// Computes `out = w · x + bias` where `w` is `out_dim×in_dim` row-major.
///
/// `bias` may be `None` for a bias-free product.
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
pub fn matvec(
    out_dim: usize,
    in_dim: usize,
    w: &[f32],
    x: &[f32],
    bias: Option<&[f32]>,
) -> Vec<f32> {
    let mut out = vec![0.0f32; out_dim];
    matvec_into(KernelTier::Exact, out_dim, in_dim, w, x, bias, &mut out);
    out
}

/// Computes `out = w · x + bias` like [`matvec`] on the given kernel
/// tier, writing into caller-owned scratch instead of allocating — the
/// executor's fully-connected kernel. [`KernelTier::Fast`] runs
/// [`crate::fast::matvec_fast_into`].
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
pub fn matvec_into(
    tier: KernelTier,
    out_dim: usize,
    in_dim: usize,
    w: &[f32],
    x: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    if tier == KernelTier::Fast {
        return crate::fast::matvec_fast_into(out_dim, in_dim, w, x, bias, out);
    }
    assert_eq!(w.len(), out_dim * in_dim, "weight size mismatch");
    assert_eq!(x.len(), in_dim, "input size mismatch");
    assert_eq!(out.len(), out_dim, "output size mismatch");
    if let Some(b) = bias {
        assert_eq!(b.len(), out_dim, "bias size mismatch");
    }
    mupod_obs::counter_add("tensor.matvec_macs", (out_dim * in_dim) as u64);
    for (o, out_v) in out.iter_mut().enumerate() {
        let row = &w[o * in_dim..(o + 1) * in_dim];
        let mut acc = 0.0f32;
        for (wv, xv) in row.iter().zip(x) {
            acc += wv * xv;
        }
        *out_v = acc + bias.map_or(0.0, |b| b[o]);
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_hand_example() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0; 4];
        gemm(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn gemm_accumulates_into_c() {
        let a = [1.0];
        let b = [2.0];
        let mut c = [10.0];
        gemm(1, 1, 1, &a, &b, &mut c);
        assert_eq!(c, [12.0]);
    }

    #[test]
    fn gemm_non_square() {
        // (2x3) * (3x1)
        let a = [1.0, 0.0, 2.0, 0.0, 3.0, 0.0];
        let b = [4.0, 5.0, 6.0];
        let mut c = [0.0; 2];
        gemm(2, 3, 1, &a, &b, &mut c);
        assert_eq!(c, [16.0, 15.0]);
    }

    #[test]
    fn matvec_with_and_without_bias() {
        let w = [1.0, 2.0, 3.0, 4.0]; // 2x2
        let x = [1.0, 1.0];
        assert_eq!(matvec(2, 2, &w, &x, None), vec![3.0, 7.0]);
        assert_eq!(matvec(2, 2, &w, &x, Some(&[10.0, 20.0])), vec![13.0, 27.0]);
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "lhs size mismatch")]
    fn gemm_rejects_bad_sizes() {
        let mut c = [0.0; 1];
        gemm(1, 2, 1, &[1.0], &[1.0, 2.0], &mut c);
    }

    #[test]
    fn tiled_matches_scalar_bitwise_across_block_boundaries() {
        // Dimensions straddle the NB/KB block edges so every tiling
        // branch (full block, ragged tail, single element) executes.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, KB - 1, NB - 1),
            (4, KB, NB),
            (5, KB + 3, NB + 7),
            (2, 3 * KB + 1, 2 * NB + 5),
        ] {
            let a: Vec<f32> = (0..m * k)
                .map(|i| if i % 7 == 0 { 0.0 } else { (i as f32).sin() })
                .collect();
            let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.37).cos()).collect();
            let mut c_ref: Vec<f32> = (0..m * n).map(|i| i as f32 * 0.01).collect();
            let mut c_tiled = c_ref.clone();
            gemm(m, k, n, &a, &b, &mut c_ref);
            gemm_tiled(KernelTier::Exact, m, k, n, &a, &b, &mut c_tiled);
            assert_eq!(
                c_ref.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                c_tiled.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "tiled GEMM diverged at m={m} k={k} n={n}"
            );
        }
    }

    #[test]
    fn matvec_into_matches_matvec() {
        let w: Vec<f32> = (0..12).map(|i| i as f32 * 0.5 - 3.0).collect();
        let x = [1.0, -2.0, 0.5];
        let bias = [0.25; 4];
        let expect = matvec(4, 3, &w, &x, Some(&bias));
        let mut out = [0.0f32; 4];
        matvec_into(KernelTier::Exact, 4, 3, &w, &x, Some(&bias), &mut out);
        assert_eq!(expect, out);
    }
}
