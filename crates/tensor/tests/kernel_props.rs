//! Property tests: the fast convolution path agrees with the naive
//! reference on arbitrary geometry, and pooling kernels obey their
//! defining inequalities.

use mupod_stats::SeededRng;
use mupod_tensor::conv::{conv2d, conv2d_batch_into, conv2d_direct, Conv2dParams};
use mupod_tensor::gemm::{gemm, gemm_tiled};
use mupod_tensor::pool::{avg_pool2d, max_pool2d, Pool2dParams};
use mupod_tensor::{KernelTier, Tensor};
use proptest::prelude::*;

fn random_tensor(seed: u64, dims: &[usize]) -> Tensor {
    let mut rng = SeededRng::new(seed);
    let n: usize = dims.iter().product();
    Tensor::from_vec(
        dims,
        (0..n).map(|_| rng.gaussian(0.0, 1.0) as f32).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conv_fast_equals_direct(
        seed in 0u64..10_000,
        in_c in 1usize..5,
        out_mult in 1usize..4,
        k in prop::sample::select(vec![1usize, 3, 5]),
        stride in 1usize..3,
        pad in 0usize..3,
        hw in 5usize..11,
        grouped in any::<bool>(),
    ) {
        let groups = if grouped { in_c } else { 1 };
        let out_c = out_mult * groups;
        prop_assume!(hw + 2 * pad >= k);
        let p = Conv2dParams::grouped(in_c, out_c, k, stride, pad, groups);
        let input = random_tensor(seed, &[in_c, hw, hw]);
        let weight = random_tensor(seed ^ 1, &[out_c, in_c / groups, k, k]);
        let mut rng = SeededRng::new(seed ^ 2);
        let bias: Vec<f32> = (0..out_c).map(|_| rng.gaussian(0.0, 0.1) as f32).collect();

        let fast = conv2d(&input, &weight, Some(&bias), &p);
        let slow = conv2d_direct(&input, &weight, Some(&bias), &p);
        prop_assert_eq!(fast.dims(), slow.dims());
        for (a, b) in fast.data().iter().zip(slow.data()) {
            prop_assert!((a - b).abs() < 1e-3, "fast {a} vs direct {b}");
        }
    }

    #[test]
    fn tiled_gemm_bitwise_equals_scalar(
        seed in 0u64..10_000,
        m in 1usize..8,
        k in 1usize..300,
        n in 1usize..300,
        sparsity in 0.0f64..0.9,
    ) {
        // The tiled kernel must be bit-identical to the scalar reference
        // for every shape (full blocks, ragged tails, single elements),
        // sparsity level (the exact-zero skip), and non-zero initial `c`
        // (GEMM accumulates, it does not overwrite).
        let mut rng = SeededRng::new(seed);
        let a: Vec<f32> = (0..m * k)
            .map(|_| {
                if rng.uniform(0.0, 1.0) < sparsity {
                    0.0
                } else {
                    rng.gaussian(0.0, 1.0) as f32
                }
            })
            .collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gaussian(0.0, 1.0) as f32).collect();
        let init: Vec<f32> = (0..m * n).map(|_| rng.gaussian(0.0, 1.0) as f32).collect();
        let mut c_ref = init.clone();
        let mut c_tiled = init;
        gemm(m, k, n, &a, &b, &mut c_ref);
        gemm_tiled(KernelTier::Exact, m, k, n, &a, &b, &mut c_tiled);
        for (x, y) in c_ref.iter().zip(&c_tiled) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "tiled {} != scalar {}", y, x);
        }
    }

    #[test]
    fn conv_into_bitwise_equals_alloc_conv(
        seed in 0u64..10_000,
        in_c in 1usize..5,
        out_mult in 1usize..4,
        k in prop::sample::select(vec![1usize, 3, 5]),
        stride in 1usize..3,
        pad in 0usize..3,
        hw in 5usize..11,
        grouped in any::<bool>(),
    ) {
        // The arena fast path (caller-owned scratch, including a dirty,
        // wrongly-sized patch buffer) must reproduce the allocating
        // kernel bit-for-bit, and stay within tolerance of the naive
        // direct convolution.
        let groups = if grouped { in_c } else { 1 };
        let out_c = out_mult * groups;
        prop_assume!(hw + 2 * pad >= k);
        let p = Conv2dParams::grouped(in_c, out_c, k, stride, pad, groups);
        let input = random_tensor(seed, &[in_c, hw, hw]);
        let weight = random_tensor(seed ^ 1, &[out_c, in_c / groups, k, k]);
        let mut rng = SeededRng::new(seed ^ 2);
        let bias: Vec<f32> = (0..out_c).map(|_| rng.gaussian(0.0, 0.1) as f32).collect();

        let alloc = conv2d(&input, &weight, Some(&bias), &p);
        let (oh, ow) = p.out_spatial(hw, hw);
        // Deliberately dirty scratch: `conv2d_batch_into` must fully overwrite.
        let mut patches = vec![f32::NAN; 7];
        let mut gemm_out = vec![f32::NAN; 3];
        let mut out = vec![f32::NAN; out_c * oh * ow];
        let exact = KernelTier::Exact;
        conv2d_batch_into(exact, &[&input], &weight, Some(&bias), &p, &mut patches, &mut gemm_out, &mut [&mut out]);
        for (a, b) in alloc.data().iter().zip(&out) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "into {} != alloc {}", b, a);
        }
        // Second pass on the now-oversized, stale buffers: reuse must not
        // leak state between calls.
        conv2d_batch_into(exact, &[&input], &weight, Some(&bias), &p, &mut patches, &mut gemm_out, &mut [&mut out]);
        for (a, b) in alloc.data().iter().zip(&out) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "reused {} != alloc {}", b, a);
        }
        let direct = conv2d_direct(&input, &weight, Some(&bias), &p);
        for (a, b) in direct.data().iter().zip(&out) {
            prop_assert!((a - b).abs() < 1e-3, "into {b} vs direct {a}");
        }
    }

    #[test]
    fn batch_conv_bitwise_equals_per_image_across_gemm_split(
        seed in 0u64..10_000,
        in_c in 1usize..4,
        out_c in 1usize..5,
        k in prop::sample::select(vec![1usize, 3]),
        hw in 1usize..13,
        around in 0usize..4,
        grouped in any::<bool>(),
        fast in any::<bool>(),
    ) {
        // `conv2d_batch_into` packs ⌈128 / (oh·ow)⌉ images per GEMM; a
        // batch one short of, exactly at, and one or two past that split
        // must reproduce per-image calls bit for bit on either tier.
        let tier = if fast { KernelTier::Fast } else { KernelTier::Exact };
        let groups = if grouped { in_c } else { 1 };
        let out_c = out_c * groups;
        let p = Conv2dParams::grouped(in_c, out_c, k, 1, k / 2, groups);
        let (oh, ow) = p.out_spatial(hw, hw);
        let per_gemm = 128usize.div_ceil(oh * ow);
        let batch = (per_gemm + around).saturating_sub(1).max(1);
        let weight = random_tensor(seed ^ 1, &[out_c, in_c / groups, k, k]);
        let mut rng = SeededRng::new(seed ^ 2);
        let bias: Vec<f32> = (0..out_c).map(|_| rng.gaussian(0.0, 0.1) as f32).collect();
        let images: Vec<Tensor> = (0..batch)
            .map(|b| random_tensor(seed ^ (b as u64 + 3) << 8, &[in_c, hw, hw]))
            .collect();
        let refs: Vec<&Tensor> = images.iter().collect();
        let (mut patches, mut gemm_out) = (Vec::new(), Vec::new());
        let mut outs = vec![vec![f32::NAN; out_c * oh * ow]; batch];
        {
            let mut views: Vec<&mut [f32]> = outs.iter_mut().map(|o| o.as_mut_slice()).collect();
            conv2d_batch_into(tier, &refs, &weight, Some(&bias), &p, &mut patches, &mut gemm_out, &mut views);
        }
        for (b, image) in images.iter().enumerate() {
            let mut alone = vec![f32::NAN; out_c * oh * ow];
            conv2d_batch_into(tier, &[image], &weight, Some(&bias), &p, &mut patches, &mut gemm_out, &mut [&mut alone]);
            let got: Vec<u32> = outs[b].iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = alone.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, want, "image {} of {} ({} per GEMM)", b, batch, per_gemm);
        }
    }

    #[test]
    fn max_pool_dominates_avg_pool(
        seed in 0u64..10_000,
        c in 1usize..4,
        hw in 4usize..10,
        k in 2usize..4,
    ) {
        prop_assume!(hw >= k);
        let input = random_tensor(seed, &[c, hw, hw]);
        let p = Pool2dParams::new(k, k, 0);
        let mx = max_pool2d(&input, &p);
        let av = avg_pool2d(&input, &p);
        for (m, a) in mx.data().iter().zip(av.data()) {
            prop_assert!(m + 1e-6 >= *a, "max {m} below avg {a}");
        }
    }

    #[test]
    fn max_pool_output_subset_of_input(
        seed in 0u64..10_000,
        hw in 4usize..10,
    ) {
        let input = random_tensor(seed, &[2, hw, hw]);
        let p = Pool2dParams::new(2, 2, 0);
        let out = max_pool2d(&input, &p);
        for &v in out.data() {
            prop_assert!(
                input.data().iter().any(|&x| (x - v).abs() < 1e-12),
                "pooled value {v} not present in input"
            );
        }
    }

    #[test]
    fn conv_is_linear_in_input(
        seed in 0u64..10_000,
        scale in 0.25f32..4.0,
    ) {
        // conv(αx) == α·conv(x) for bias-free convolution.
        let p = Conv2dParams::new(2, 3, 3, 1, 1);
        let input = random_tensor(seed, &[2, 6, 6]);
        let weight = random_tensor(seed ^ 9, &[3, 2, 3, 3]);
        let mut scaled = input.clone();
        scaled.map_inplace(|v| v * scale);
        let y1 = conv2d(&scaled, &weight, None, &p);
        let mut y2 = conv2d(&input, &weight, None, &p);
        y2.map_inplace(|v| v * scale);
        for (a, b) in y1.data().iter().zip(y2.data()) {
            prop_assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()));
        }
    }
}
