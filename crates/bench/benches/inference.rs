//! Substrate benchmarks: forward-pass cost of every zoo network, the
//! im2col-vs-direct convolution ablation, and the GEMM and batched
//! convolution kernels at the shapes profiling runs.
//!
//! These bound everything else — one profiling sweep is
//! `layers × Δ-points × images` (partial) forward passes, and one
//! accuracy evaluation is `images` full passes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mupod_bench::setup;
use mupod_models::ModelKind;
use mupod_nn::{ExecArena, KernelTier};
use mupod_stats::SeededRng;
use mupod_tensor::conv::{conv2d, conv2d_batch_into, conv2d_direct, Conv2dParams};
use mupod_tensor::fast::gemm_fast;
use mupod_tensor::gemm::{gemm, gemm_tiled};
use mupod_tensor::Tensor;

fn bench_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("forward");
    group.sample_size(20);
    for kind in [
        ModelKind::AlexNet,
        ModelKind::Nin,
        ModelKind::GoogleNet,
        ModelKind::Vgg19,
        ModelKind::ResNet50,
        ModelKind::ResNet152,
        ModelKind::SqueezeNet,
        ModelKind::MobileNet,
    ] {
        let s = setup(kind, 1);
        let (img, _) = s.data.sample(0);
        let img = img.clone();
        group.bench_with_input(BenchmarkId::from_parameter(kind.name()), &s, |b, s| {
            b.iter(|| s.net.forward(&img))
        });
    }
    group.finish();
}

fn bench_conv_kernels(c: &mut Criterion) {
    let mut rng = SeededRng::new(5);
    let p = Conv2dParams::new(16, 32, 3, 1, 1);
    let n_in: usize = 16 * 16 * 16;
    let input = Tensor::from_vec(
        &[16, 16, 16],
        (0..n_in).map(|_| rng.gaussian(0.0, 1.0) as f32).collect(),
    );
    let n_w: usize = 32 * 16 * 9;
    let weight = Tensor::from_vec(
        &[32, 16, 3, 3],
        (0..n_w).map(|_| rng.gaussian(0.0, 0.1) as f32).collect(),
    );
    let bias = vec![0.0f32; 32];

    let mut group = c.benchmark_group("conv2d_16x16x16_to_32");
    group.bench_function("im2col_gemm", |b| {
        b.iter(|| conv2d(&input, &weight, Some(&bias), &p))
    });
    group.bench_function("direct", |b| {
        b.iter(|| conv2d_direct(&input, &weight, Some(&bias), &p))
    });
    group.finish();
}

fn bench_gemm_kernels(c: &mut Criterion) {
    // Conv-shaped GEMMs from the AlexNet hot path: conv1 (few rows, wide
    // columns) and conv3 (more rows, narrow columns). Then the narrow
    // GEMMs of batched ResNet-50 tiny profiling, whose columns never
    // fill a 16-wide register tile: res5's 3×3 and 1×1 expand over 8
    // packed 1×1 images, and res4's 3×3 over 8 packed 2×2 images. The
    // tiled kernel must win here while staying bit-identical to the
    // scalar reference.
    let mut group = c.benchmark_group("gemm");
    group.sample_size(30);
    for (m, k, n) in [
        (16usize, 75usize, 1024usize),
        (32, 216, 64),
        (32, 288, 8),
        (64, 32, 8),
        (16, 144, 32),
    ] {
        let mut rng = SeededRng::new(23);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gaussian(0.0, 1.0) as f32).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gaussian(0.0, 1.0) as f32).collect();
        let shape = format!("{m}x{k}x{n}");
        let mut out = vec![0.0f32; m * n];
        group.bench_with_input(BenchmarkId::new("scalar", &shape), &(), |bch, ()| {
            bch.iter(|| {
                out.fill(0.0);
                gemm(m, k, n, &a, &b, &mut out);
            })
        });
        group.bench_with_input(BenchmarkId::new("tiled", &shape), &(), |bch, ()| {
            bch.iter(|| {
                out.fill(0.0);
                gemm_tiled(KernelTier::Exact, m, k, n, &a, &b, &mut out);
            })
        });
        // The fast tier: runtime-dispatched SIMD/FMA microkernels
        // (KernelTier::Fast). Not bit-identical to the rows above —
        // the exactness contract is traded for ≥4× on these shapes.
        group.bench_with_input(BenchmarkId::new("fast", &shape), &(), |bch, ()| {
            bch.iter(|| {
                out.fill(0.0);
                gemm_fast(m, k, n, &a, &b, &mut out);
            })
        });
    }
    group.finish();
}

fn bench_conv_batch(c: &mut Criterion) {
    // Whole exact-tier convolutions (im2col + GEMM + scatter) at two
    // measured shapes: ResNet-50 tiny's res5 3×3 conv over the 8 images
    // of one profiling replay batch (1×1 inputs, so only the centre tap
    // is in-image), and AlexNet small's conv1 on one image (5×5, pad 2,
    // 32×32 output).
    let mut group = c.benchmark_group("conv2d_batch");
    group.sample_size(30);
    for (name, p, hw, batch) in [
        (
            "resnet50_tiny_res5_3x3",
            Conv2dParams::new(32, 32, 3, 1, 1),
            1usize,
            8usize,
        ),
        (
            "alexnet_small_conv1",
            Conv2dParams::new(3, 16, 5, 1, 2),
            32,
            1,
        ),
    ] {
        let mut rng = SeededRng::new(29);
        let mut draw =
            |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gaussian(0.0, 1.0) as f32).collect() };
        let (ci, co, k) = (p.in_channels, p.out_channels, p.kernel);
        let weight = Tensor::from_vec(&[co, ci, k, k], draw(co * ci * k * k));
        let images: Vec<Tensor> = (0..batch)
            .map(|_| Tensor::from_vec(&[ci, hw, hw], draw(ci * hw * hw)))
            .collect();
        let inputs: Vec<&Tensor> = images.iter().collect();
        let (oh, ow) = p.out_spatial(hw, hw);
        let mut outs_flat = vec![vec![0.0f32; co * oh * ow]; batch];
        let mut outs: Vec<&mut [f32]> = outs_flat.iter_mut().map(|v| v.as_mut_slice()).collect();
        let (mut patches, mut gemm_out) = (Vec::new(), Vec::new());
        group.bench_with_input(BenchmarkId::new(name, batch), &(), |bch, ()| {
            bch.iter(|| {
                conv2d_batch_into(
                    KernelTier::Exact,
                    &inputs,
                    &weight,
                    None,
                    &p,
                    &mut patches,
                    &mut gemm_out,
                    &mut outs,
                );
            })
        });
    }
    group.finish();
}

fn bench_arena_forward(c: &mut Criterion) {
    // The allocating executor vs the zero-alloc arena path used by the
    // profiler's inner loop; outputs are bit-identical by construction.
    let s = setup(ModelKind::AlexNet, 1);
    let (img, _) = s.data.sample(0);
    let img = img.clone();
    let mut group = c.benchmark_group("classify");
    group.sample_size(30);
    group.bench_function("alloc", |b| b.iter(|| s.net.classify(&img)));
    let mut arena = ExecArena::for_network(&s.net);
    group.bench_function("arena", |b| {
        b.iter(|| s.net.classify_arena(&img, &mut arena))
    });
    // Same arena path on the fast tier: the end-to-end view of the
    // SIMD/FMA kernels (gemm is most, not all, of a forward pass).
    let mut arena_fast = ExecArena::new(&s.net, 1, KernelTier::Fast);
    group.bench_function("arena-fast", |b| {
        b.iter(|| s.net.classify_arena(&img, &mut arena_fast))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_forward,
    bench_conv_kernels,
    bench_gemm_kernels,
    bench_conv_batch,
    bench_arena_forward
);
criterion_main!(benches);
