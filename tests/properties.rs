//! Cross-crate property-based tests (proptest).

use mupod::optim::{
    is_in_simplex, project_to_simplex_lb, solve_eq8, Eq8Term, FnObjective, ProjectedGradient,
};
use mupod::quant::{effective_bitwidth, FixedPointFormat};
use mupod::stats::{LinearFit, RunningStats, SeededRng};
use mupod::tensor::conv::{conv2d_batch_into, Conv2dParams};
use mupod::tensor::gemm::gemm;
use mupod::tensor::{KernelTier, Tensor};
use proptest::prelude::*;

/// Reference im2col: one image's group-`group` patch matrix, written
/// with a bounds check per element into `out` (`gc · k²` rows of
/// `oh · ow`, zero-filled by the caller) — a formulation independent of
/// the library's run-based batched lowering.
fn im2col_reference(input: &Tensor, p: &Conv2dParams, group: usize, out: &mut [f32]) {
    let (h, w) = (input.dims()[1], input.dims()[2]);
    let gc = p.in_channels / p.groups;
    let (oh, ow) = p.out_spatial(h, w);
    let k = p.kernel;
    let cols = oh * ow;
    let data = input.data();
    for gci in 0..gc {
        let ci = group * gc + gci;
        let chan = &data[ci * h * w..(ci + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let row_idx = (gci * k + ky) * k + kx;
                let row = &mut out[row_idx * cols..][..cols];
                for oy in 0..oh {
                    let iy = (oy * p.stride + ky) as isize - p.pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let src_row = &chan[iy as usize * w..(iy as usize + 1) * w];
                    for ox in 0..ow {
                        let ix = (ox * p.stride + kx) as isize - p.pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        row[oy * ow + ox] = src_row[ix as usize];
                    }
                }
            }
        }
    }
}

/// Reference convolution of one image: [`im2col_reference`] then the
/// scalar `gemm` per group into a zeroed output, then the bias.
fn conv_reference(input: &Tensor, weight: &Tensor, bias: &[f32], p: &Conv2dParams) -> Vec<f32> {
    let (oh, ow) = p.out_spatial(input.dims()[1], input.dims()[2]);
    let cols = oh * ow;
    let gc_in = p.in_channels / p.groups;
    let gc_out = p.out_channels / p.groups;
    let kk = p.kernel * p.kernel;
    let mut out = vec![0.0f32; p.out_channels * cols];
    for g in 0..p.groups {
        let mut patch = vec![0.0f32; gc_in * kk * cols];
        im2col_reference(input, p, g, &mut patch);
        let w_group = &weight.data()[g * gc_out * gc_in * kk..(g + 1) * gc_out * gc_in * kk];
        let rows = &mut out[g * gc_out * cols..(g + 1) * gc_out * cols];
        gemm(gc_out, gc_in * kk, cols, w_group, &patch, rows);
    }
    for (oc, &bv) in bias.iter().enumerate() {
        for v in &mut out[oc * cols..(oc + 1) * cols] {
            *v += bv;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Exact-tier `conv2d_batch_into` is bit-identical to a per-image
    /// bounds-checked im2col plus the scalar GEMM, for every geometry:
    /// kernel 1/3/5, stride 1–3, pad 0–3 (pad 0 skips the zero-fill, so
    /// every patch cell must be written), dense and grouped, batches of
    /// 1–12, and 1–40 output columns per image so the GEMM's 8-, 4- and
    /// 1-wide tail tiles all run. The patch and GEMM scratch start
    /// full of NaN, so any cell the lowering leaves unwritten shows.
    #[test]
    fn batched_conv_lowering_bitwise_equals_reference(
        seed in 0u64..10_000,
        in_c in 1usize..5,
        out_mult in 1usize..4,
        k in prop::sample::select(vec![1usize, 3, 5]),
        stride in 1usize..=3,
        pad in 0usize..=3,
        oh_want in 1usize..=5,
        ow_want in 1usize..=8,
        slack in 0usize..3,
        grouped in any::<bool>(),
        batch in 1usize..=12,
    ) {
        let groups = if grouped { in_c } else { 1 };
        let out_c = out_mult * groups;
        let p = Conv2dParams::grouped(in_c, out_c, k, stride, pad, groups);
        // Input sides giving about `oh_want × ow_want` outputs; `slack`
        // adds rows and columns the last window does not reach.
        let side = |o: usize| (((o - 1) * stride + k + slack % stride).saturating_sub(2 * pad)).max(1);
        let (h, w) = (side(oh_want), side(ow_want));
        let (oh, ow) = p.out_spatial(h, w);
        let cols = oh * ow;
        let mut rng = SeededRng::new(seed);
        let mut draw = |n: usize, zeros: f64| -> Vec<f32> {
            (0..n)
                .map(|_| if rng.uniform(0.0, 1.0) < zeros { 0.0 } else { rng.gaussian(0.0, 1.0) as f32 })
                .collect()
        };
        let weight = Tensor::from_vec(&[out_c, in_c / groups, k, k], draw(out_c * in_c / groups * k * k, 0.2));
        let bias = draw(out_c, 0.0);
        let images: Vec<Tensor> = (0..batch)
            .map(|_| Tensor::from_vec(&[in_c, h, w], draw(in_c * h * w, 0.3)))
            .collect();
        let refs: Vec<&Tensor> = images.iter().collect();
        let kk = k * k;
        let mut patches = vec![f32::NAN; in_c / groups * kk * batch * cols];
        let mut gemm_out = vec![f32::NAN; out_c / groups * batch * cols];
        let mut outs_flat = vec![vec![f32::NAN; out_c * cols]; batch];
        let mut outs: Vec<&mut [f32]> = outs_flat.iter_mut().map(|v| v.as_mut_slice()).collect();
        conv2d_batch_into(KernelTier::Exact, &refs, &weight, Some(&bias), &p, &mut patches, &mut gemm_out, &mut outs);
        for (b, (img, got)) in images.iter().zip(&outs_flat).enumerate() {
            let want = conv_reference(img, &weight, &bias, &p);
            for (i, (x, y)) in want.iter().zip(got).enumerate() {
                prop_assert_eq!(
                    x.to_bits(), y.to_bits(),
                    "image {} of {}, element {}: {} != reference {} ({:?}, {}x{} input)",
                    b, batch, i, y, x, p, h, w
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Rounding never errs by more than Δ for in-range values.
    #[test]
    fn quantize_error_bounded_by_delta(
        x in -1000.0f64..1000.0,
        int_bits in 11i32..16,
        frac_bits in -2i32..12,
    ) {
        let fmt = FixedPointFormat::new(int_bits, frac_bits);
        prop_assume!(x.abs() < fmt.max_magnitude() - fmt.step());
        let q = fmt.quantize(x);
        prop_assert!((q - x).abs() <= fmt.delta() + 1e-12);
        // Quantized values lie on the grid.
        let steps = q / fmt.step();
        prop_assert!((steps - steps.round()).abs() < 1e-9);
    }

    /// Quantization is monotone: x ≤ y ⇒ q(x) ≤ q(y).
    #[test]
    fn quantize_is_monotone(
        a in -500.0f64..500.0,
        b in -500.0f64..500.0,
        frac_bits in -2i32..10,
    ) {
        let fmt = FixedPointFormat::new(12, frac_bits);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(fmt.quantize(lo) <= fmt.quantize(hi) + 1e-12);
    }

    /// Simplex projection always lands on the constraint set and is
    /// idempotent.
    #[test]
    fn simplex_projection_feasible_and_idempotent(
        v in prop::collection::vec(-10.0f64..10.0, 1..12),
        lb_scale in 0.0f64..0.9,
    ) {
        let lb = lb_scale / v.len() as f64;
        let mut p = v.clone();
        project_to_simplex_lb(&mut p, lb);
        prop_assert!(is_in_simplex(&p, lb, 1e-7), "not feasible: {p:?}");
        let mut q = p.clone();
        project_to_simplex_lb(&mut q, lb);
        for (x, y) in p.iter().zip(&q) {
            prop_assert!((x - y).abs() < 1e-9, "not idempotent");
        }
    }

    /// The PGD solution never exceeds the uniform point's objective.
    #[test]
    fn pgd_no_worse_than_uniform(
        targets in prop::collection::vec(0.0f64..1.0, 2..8),
    ) {
        let dim = targets.len();
        let t = targets.clone();
        let obj = FnObjective::new(dim, move |xi: &[f64]| {
            xi.iter().zip(&t).map(|(x, t)| (x - t).powi(2)).sum()
        });
        let uniform = vec![1.0 / dim as f64; dim];
        let uniform_value: f64 = uniform
            .iter()
            .zip(&targets)
            .map(|(x, t)| (x - t).powi(2))
            .sum();
        let sol = ProjectedGradient::default().minimize(&obj);
        prop_assert!(sol.value <= uniform_value + 1e-9);
        prop_assert!(is_in_simplex(&sol.xi, 0.0, 1e-6));
    }

    /// The exact Eq. 8 solve that `allocate` ships is never beaten by
    /// projected gradient, its oracle, and lands exactly on the
    /// lower-bounded simplex. The instances mix convex terms, kinked
    /// terms (the Δ floor binds until ξ = κ above the lower bound, where
    /// the total share jumps) and zero-weight terms, with weights up to
    /// the size of `#MAC` counts.
    #[test]
    fn closed_form_eq8_no_worse_than_pgd(
        layers in prop::collection::vec(
            ((0u32..10, 0.0f64..6.0), 0.05f64..5.0, 0.0f64..1.0, 1e-6f64..0.1),
            2..16,
        ),
    ) {
        let lb = 1e-4;
        let terms: Vec<Eq8Term> = layers
            .iter()
            .map(|&((kind, log_rho), a, u, floor)| {
                let rho = 10f64.powf(log_rho);
                match kind {
                    0..=2 => {
                        let kappa = lb + 0.9 * u;
                        Eq8Term { rho, a, theta: floor - a * kappa.sqrt(), floor }
                    }
                    3 => Eq8Term { rho: 0.0, a, theta: 0.05 * u, floor },
                    _ => Eq8Term { rho, a, theta: 0.05 * u, floor: 1e-12 },
                }
            })
            .collect();
        let value = |xi: &[f64]| -> f64 { terms.iter().zip(xi).map(|(t, &x)| t.value(x)).sum() };
        let exact = solve_eq8(&terms, lb);
        let pgd = ProjectedGradient { lower_bound: lb, ..Default::default() }
            .minimize(&FnObjective::new(terms.len(), value));
        let f_pgd = value(&pgd.xi);
        let f = value(&exact);
        prop_assert!(
            f <= f_pgd + 1e-9 * f_pgd.abs(),
            "F = {} closed form vs {} projected gradient",
            f,
            f_pgd
        );
        prop_assert!((exact.iter().sum::<f64>() - 1.0).abs() <= 1e-14, "{:?}", exact);
        prop_assert!(exact.iter().all(|&x| x >= lb), "{:?}", exact);
    }

    /// Effective bitwidth is a weighted mean: bounded by min/max bits.
    #[test]
    fn effective_bitwidth_bounded(
        bits in prop::collection::vec(1u32..24, 1..20),
        weights in prop::collection::vec(0.1f64..100.0, 1..20),
    ) {
        let n = bits.len().min(weights.len());
        let bits = &bits[..n];
        let weights = &weights[..n];
        let eff = effective_bitwidth(bits, weights);
        let lo = *bits.iter().min().unwrap() as f64;
        let hi = *bits.iter().max().unwrap() as f64;
        prop_assert!(eff >= lo - 1e-9 && eff <= hi + 1e-9);
    }

    /// Uniform-noise samples respect their half-width and have the
    /// Widrow variance (on aggregate).
    #[test]
    fn uniform_noise_bounds(seed in 0u64..1000, delta in 1e-6f64..100.0) {
        let mut rng = SeededRng::new(seed);
        let mut s = RunningStats::new();
        for _ in 0..2000 {
            let v = rng.symmetric_uniform(delta);
            prop_assert!(v.abs() <= delta);
            s.push(v);
        }
        let expected = delta / 3.0f64.sqrt();
        prop_assert!((s.population_std() - expected).abs() / expected < 0.15);
    }

    /// Regression through noiseless collinear points is exact.
    #[test]
    fn regression_recovers_exact_line(
        slope in -100.0f64..100.0,
        intercept in -100.0f64..100.0,
        xs in prop::collection::vec(-50.0f64..50.0, 3..30),
    ) {
        // Need spread in x.
        let spread = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - xs.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assume!(spread > 1e-3);
        let ys: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
        let fit = LinearFit::fit(&xs, &ys).unwrap();
        prop_assert!((fit.slope - slope).abs() < 1e-6 * (1.0 + slope.abs()));
        prop_assert!(
            (fit.intercept - intercept).abs() < 1e-6 * (1.0 + intercept.abs())
        );
    }

    /// Streaming merge equals sequential accumulation.
    #[test]
    fn running_stats_merge_associative(
        a in prop::collection::vec(-1e3f64..1e3, 0..50),
        b in prop::collection::vec(-1e3f64..1e3, 0..50),
    ) {
        let mut sa = RunningStats::new();
        sa.extend(a.iter().copied());
        let mut sb = RunningStats::new();
        sb.extend(b.iter().copied());
        sa.merge(&sb);

        let mut seq = RunningStats::new();
        seq.extend(a.iter().chain(b.iter()).copied());
        prop_assert_eq!(sa.count(), seq.count());
        prop_assert!((sa.mean() - seq.mean()).abs() < 1e-6);
        prop_assert!(
            (sa.population_variance() - seq.population_variance()).abs()
                < 1e-6 * (1.0 + seq.population_variance())
        );
    }
}
