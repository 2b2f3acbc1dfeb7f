//! Convolution kernels: im2col + GEMM fast path and a direct reference.
//!
//! The fast path, [`conv2d_batch_into`], lowers a batch of images to
//! one im2col patch matrix per channel group — one pass per patch row,
//! copying only each kernel tap's in-image runs — and multiplies it by
//! the group's weights with one [`gemm_tiled`]. [`conv2d_direct`] is a
//! deliberately naive seven-loop implementation kept for
//! cross-validation in tests and ablation benchmarks. Grouped
//! convolution covers both AlexNet's two-group layers and MobileNet's
//! depthwise layers (`groups == in_channels`).

use crate::gemm::{gemm_tiled, NB};
use crate::{KernelTier, Tensor};

/// Geometry of a 2-D convolution.
///
/// # Example
///
/// ```
/// use mupod_tensor::conv::Conv2dParams;
/// let p = Conv2dParams::new(3, 16, 3, 1, 1);
/// assert_eq!(p.out_spatial(32, 32), (32, 32));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Input channel count.
    pub in_channels: usize,
    /// Output channel count.
    pub out_channels: usize,
    /// Square kernel extent.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding in both spatial dimensions.
    pub pad: usize,
    /// Channel groups (1 = dense, `in_channels` = depthwise).
    pub groups: usize,
}

impl Conv2dParams {
    /// Creates dense (single-group) convolution geometry.
    ///
    /// # Panics
    ///
    /// Panics if any of channel counts, kernel, or stride is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        Self::grouped(in_channels, out_channels, kernel, stride, pad, 1)
    }

    /// Creates grouped convolution geometry.
    ///
    /// # Panics
    ///
    /// Panics if channel counts are not divisible by `groups`, or any of
    /// the channel counts, kernel, stride or groups is zero.
    pub fn grouped(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        groups: usize,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0,
            "channels must be positive"
        );
        assert!(kernel > 0, "kernel must be positive");
        assert!(stride > 0, "stride must be positive");
        assert!(groups > 0, "groups must be positive");
        assert_eq!(in_channels % groups, 0, "in_channels must divide by groups");
        assert_eq!(
            out_channels % groups,
            0,
            "out_channels must divide by groups"
        );
        Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            pad,
            groups,
        }
    }

    /// Output spatial size for an `h×w` input.
    ///
    /// # Panics
    ///
    /// Panics if the padded input is smaller than the kernel.
    pub fn out_spatial(&self, h: usize, w: usize) -> (usize, usize) {
        let ph = h + 2 * self.pad;
        let pw = w + 2 * self.pad;
        assert!(
            ph >= self.kernel && pw >= self.kernel,
            "kernel {k} larger than padded input {ph}x{pw}",
            k = self.kernel
        );
        (
            (ph - self.kernel) / self.stride + 1,
            (pw - self.kernel) / self.stride + 1,
        )
    }

    /// Number of multiply–accumulate operations for an `h×w` input.
    ///
    /// This is the `#MAC` quantity of Table II: every output element of
    /// every output channel consumes `kernel² · in_channels/groups` MACs.
    pub fn mac_count(&self, h: usize, w: usize) -> u64 {
        let (oh, ow) = self.out_spatial(h, w);
        (self.out_channels * oh * ow) as u64
            * (self.kernel * self.kernel * self.in_channels / self.groups) as u64
    }
}

/// Valid output positions `lo..hi` along one axis for kernel tap `t`:
/// those `o < out` whose input coordinate `o · stride + t − pad` lies in
/// `0..extent`. The range may be empty (`lo >= hi`).
fn tap_range(t: usize, pad: usize, stride: usize, extent: usize, out: usize) -> (usize, usize) {
    let lo = pad.saturating_sub(t).div_ceil(stride);
    let hi = (extent + pad).saturating_sub(t).div_ceil(stride).min(out);
    (lo, hi)
}

/// Lowers channel group `group` of a batch of CHW images (arguments
/// already checked) into one im2col matrix: `(group_in_c · k²)` rows of
/// `n · oh · ow` columns, image `b`'s flattened receptive fields in
/// columns `b · oh · ow ..`.
///
/// One pass per patch row serves the whole batch: the row's `(ky, kx)`
/// tap fixes the valid `oy`/`ox` ranges once, and every image copies
/// only those in-image runs; no element tests whether it lies in the
/// image. A tap whose rows are contiguous in both the image and the
/// patch (stride 1, every `ox` valid, `ow == w` — a 1×1 unpadded conv's
/// whole plane, or a padded conv's centre column) copies as one run.
/// Cells outside the image are padding: the patch is zero-filled first
/// when `pad > 0`, and with no padding every cell is written, so no
/// fill is needed. Every other run is a plain indexed loop: deep
/// networks' rows are 1–8 elements wide, where a `copy_from_slice` call
/// per row costs more than the copy.
fn im2col_batch(
    inputs: &[&Tensor],
    p: &Conv2dParams,
    group: usize,
    (oh, ow): (usize, usize),
    patch: &mut [f32],
) {
    let (h, w) = (inputs[0].dims()[1], inputs[0].dims()[2]);
    let gc = p.in_channels / p.groups;
    let (k, stride, pad) = (p.kernel, p.stride, p.pad);
    let cols = oh * ow;
    let total = inputs.len() * cols;
    assert_eq!(patch.len(), gc * k * k * total, "im2col scratch mismatch");
    if pad > 0 {
        patch.fill(0.0);
    }
    for (gci, rows) in patch.chunks_exact_mut(k * k * total).enumerate() {
        let ci = group * gc + gci;
        for (ky, rows) in rows.chunks_exact_mut(k * total).enumerate() {
            let (oy_lo, oy_hi) = tap_range(ky, pad, stride, h, oh);
            for (kx, row) in rows.chunks_exact_mut(total).enumerate() {
                let (ox_lo, ox_hi) = tap_range(kx, pad, stride, w, ow);
                if oy_lo >= oy_hi || ox_lo >= ox_hi {
                    continue;
                }
                let plane = stride == 1 && ox_lo == 0 && ox_hi == ow && ow == w;
                for (input, dst) in inputs.iter().zip(row.chunks_exact_mut(cols)) {
                    let chan = &input.data()[ci * h * w..(ci + 1) * h * w];
                    if plane {
                        // Stride 1 with every column valid: kx == pad, so
                        // ix == ox and the valid rows are one run.
                        let iy_lo = oy_lo + ky - pad;
                        let len = (oy_hi - oy_lo) * w;
                        dst[oy_lo * ow..][..len].copy_from_slice(&chan[iy_lo * w..][..len]);
                        continue;
                    }
                    for oy in oy_lo..oy_hi {
                        let iy = oy * stride + ky - pad;
                        let src = &chan[iy * w..(iy + 1) * w];
                        let dst = &mut dst[oy * ow..(oy + 1) * ow];
                        for ox in ox_lo..ox_hi {
                            dst[ox] = src[ox * stride + kx - pad];
                        }
                    }
                }
            }
        }
    }
}

fn check_conv_args(input: &Tensor, weight: &Tensor, bias: Option<&[f32]>, p: &Conv2dParams) {
    assert_eq!(input.dims().len(), 3, "conv2d expects a CHW input");
    assert_eq!(input.dims()[0], p.in_channels, "input channel mismatch");
    assert_eq!(
        weight.dims(),
        &[p.out_channels, p.in_channels / p.groups, p.kernel, p.kernel],
        "weight shape mismatch"
    );
    if let Some(b) = bias {
        assert_eq!(b.len(), p.out_channels, "bias length mismatch");
    }
}

/// 2-D convolution via im2col + tiled GEMM on the exact tier.
///
/// `input` is CHW, `weight` is `[OutC, InC/groups, K, K]`, output is CHW.
/// A batch of one through [`conv2d_batch_into`].
///
/// # Panics
///
/// Panics on any shape mismatch (see [`Conv2dParams`]).
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: Option<&[f32]>, p: &Conv2dParams) -> Tensor {
    let (h, w) = (input.dims()[1], input.dims()[2]);
    let (oh, ow) = p.out_spatial(h, w);
    let mut out = Tensor::zeros(&[p.out_channels, oh, ow]);
    conv2d_batch_into(
        KernelTier::Exact,
        &[input],
        weight,
        bias,
        p,
        &mut Vec::new(),
        &mut Vec::new(),
        &mut [out.data_mut()],
    );
    out
}

/// Batch-N 2-D convolution: the images' im2col columns packed side by
/// side, one [`gemm_tiled`] per group on `tier` — the convolution kernel
/// behind every forward pass (a single image is a batch of one).
///
/// `inputs[b]` is image `b`'s CHW input, `weight` is
/// `[OutC, InC/groups, K, K]`, and `outs[b]` receives image `b`'s CHW
/// output (`out_channels · oh · ow` elements, fully overwritten).
///
/// **Lowering.** Per group, one pass over the patch rows writes every
/// image of the GEMM: each `(ky, kx)` tap's valid output range is
/// computed once and only in-image runs are copied. The patch is
/// zero-filled for the padding only when `pad > 0`; with no padding
/// every cell is written.
///
/// **GEMM width.** Each GEMM takes `⌈128 / (oh·ow)⌉` images, so its
/// column count reaches about one 128-wide column block of
/// [`gemm_tiled`]. Narrow layers (the 4×4 … 1×1 outputs deep in a
/// network) then run wide register tiles instead of single columns,
/// while wide layers keep one GEMM per image and their im2col scratch
/// stays one image large. A one-image GEMM accumulates straight into
/// its (zeroed) output; a wider one stages the product in `gemm_out`
/// and scatters each image's column block back.
///
/// **Bit-identical to N single-image calls**, however the batch is
/// split. Per output element, [`gemm_tiled`] accumulates in
/// ascending-`k` order with the exact-zero skip on the weight operand,
/// and neither depends on the column count — appending other images'
/// columns to the right of the matrix cannot change any element's
/// addition sequence. The scatter back to per-image layout is a copy,
/// and the bias add happens last in the same per-element position
/// either way. On [`KernelTier::Fast`] the per-group GEMM is
/// [`crate::fast::gemm_fast`], whose per-element FMA chain is equally
/// independent of the column count; im2col and the bias add are
/// tier-independent. The kernel property suite asserts both tiers on
/// both sides of the split.
///
/// `patches` and `gemm_out` are reusable scratch buffers — grown on
/// demand, never shrunk, zero heap allocation once warm.
///
/// # Panics
///
/// Panics on any shape mismatch, on an empty batch, or when the images
/// in the batch disagree on shape.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_batch_into(
    tier: KernelTier,
    inputs: &[&Tensor],
    weight: &Tensor,
    bias: Option<&[f32]>,
    p: &Conv2dParams,
    patches: &mut Vec<f32>,
    gemm_out: &mut Vec<f32>,
    outs: &mut [&mut [f32]],
) {
    let n = inputs.len();
    assert!(n > 0, "conv2d_batch_into needs a non-empty batch");
    assert_eq!(n, outs.len(), "batch input/output count mismatch");
    for input in inputs {
        check_conv_args(input, weight, bias, p);
        assert_eq!(
            input.dims(),
            inputs[0].dims(),
            "batch images must share one shape"
        );
    }
    let (h, w) = (inputs[0].dims()[1], inputs[0].dims()[2]);
    let (oh, ow) = p.out_spatial(h, w);
    let cols = oh * ow;
    for out in outs.iter_mut() {
        assert_eq!(
            out.len(),
            p.out_channels * cols,
            "conv output size mismatch"
        );
    }
    let per_gemm = NB.div_ceil(cols);
    for (ins, outs) in inputs.chunks(per_gemm).zip(outs.chunks_mut(per_gemm)) {
        conv2d_gemm(tier, ins, weight, p, (oh, ow), patches, gemm_out, outs);
    }
    if let Some(bvs) = bias {
        for out in outs.iter_mut() {
            for (oc, &bv) in bvs.iter().enumerate() {
                for v in &mut out[oc * cols..(oc + 1) * cols] {
                    *v += bv;
                }
            }
        }
    }
}

/// The bias-free part of [`conv2d_batch_into`] for one GEMM's worth of
/// images (arguments already checked): im2col over the images, one
/// GEMM per group, outputs overwritten.
#[allow(clippy::too_many_arguments)]
fn conv2d_gemm(
    tier: KernelTier,
    inputs: &[&Tensor],
    weight: &Tensor,
    p: &Conv2dParams,
    (oh, ow): (usize, usize),
    patches: &mut Vec<f32>,
    gemm_out: &mut Vec<f32>,
    outs: &mut [&mut [f32]],
) {
    let n = inputs.len();
    let cols = oh * ow;
    let total = n * cols;
    let gc_in = p.in_channels / p.groups;
    let gc_out = p.out_channels / p.groups;
    let kk = p.kernel * p.kernel;
    let patch_len = gc_in * kk * total;
    if patches.len() < patch_len {
        patches.resize(patch_len, 0.0);
    }
    let gemm_len = if n > 1 { gc_out * total } else { 0 };
    if gemm_out.len() < gemm_len {
        gemm_out.resize(gemm_len, 0.0);
    }
    for g in 0..p.groups {
        let patch = &mut patches[..patch_len];
        im2col_batch(inputs, p, g, (oh, ow), patch);
        let w_group = &weight.data()[g * gc_out * gc_in * kk..(g + 1) * gc_out * gc_in * kk];
        let group_rows = g * gc_out * cols..(g + 1) * gc_out * cols;
        if let [out] = outs {
            let out = &mut out[group_rows];
            out.fill(0.0);
            gemm_tiled(tier, gc_out, gc_in * kk, cols, w_group, patch, out);
            continue;
        }
        let c_buf = &mut gemm_out[..gemm_len];
        c_buf.fill(0.0);
        gemm_tiled(tier, gc_out, gc_in * kk, total, w_group, patch, c_buf);
        // Scatter each image's column block back to its CHW output.
        for oc in 0..gc_out {
            let row = &c_buf[oc * total..(oc + 1) * total];
            let oc_abs = g * gc_out + oc;
            for (b, out) in outs.iter_mut().enumerate() {
                out[oc_abs * cols..(oc_abs + 1) * cols]
                    .copy_from_slice(&row[b * cols..(b + 1) * cols]);
            }
        }
    }
}

/// Naive direct 2-D convolution (reference implementation).
///
/// Semantically identical to [`conv2d`]; kept for cross-validation in
/// tests and for the im2col ablation benchmark.
///
/// # Panics
///
/// Panics on any shape mismatch.
pub fn conv2d_direct(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    p: &Conv2dParams,
) -> Tensor {
    check_conv_args(input, weight, bias, p);
    let (h, w) = (input.dims()[1], input.dims()[2]);
    let (oh, ow) = p.out_spatial(h, w);
    let gc_in = p.in_channels / p.groups;
    let gc_out = p.out_channels / p.groups;
    let mut out = Tensor::zeros(&[p.out_channels, oh, ow]);
    for oc in 0..p.out_channels {
        let g = oc / gc_out;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = bias.map_or(0.0, |b| b[oc]);
                for ic in 0..gc_in {
                    let in_c = g * gc_in + ic;
                    for ky in 0..p.kernel {
                        let iy = (oy * p.stride + ky) as isize - p.pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..p.kernel {
                            let ix = (ox * p.stride + kx) as isize - p.pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            acc += input.at(&[in_c, iy as usize, ix as usize])
                                * weight.at(&[oc, ic, ky, kx]);
                        }
                    }
                }
                *out.at_mut(&[oc, oy, ox]) = acc;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mupod_stats::SeededRng;

    fn random_tensor(rng: &mut SeededRng, dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        let data = (0..n).map(|_| rng.gaussian(0.0, 1.0) as f32).collect();
        Tensor::from_vec(dims, data)
    }

    #[test]
    fn identity_kernel_passes_through() {
        // 3x3 kernel with 1 at center, pad 1: output == input.
        let input = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let mut w = Tensor::zeros(&[1, 1, 3, 3]);
        *w.at_mut(&[0, 0, 1, 1]) = 1.0;
        let p = Conv2dParams::new(1, 1, 3, 1, 1);
        let out = conv2d(&input, &w, None, &p);
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn hand_computed_3x3_valid_conv() {
        // Input 1x3x3 = 1..9, kernel all-ones 3x3, no pad: sum = 45.
        let input = Tensor::from_vec(&[1, 3, 3], (1..=9).map(|v| v as f32).collect());
        let w = Tensor::filled(&[1, 1, 3, 3], 1.0);
        let p = Conv2dParams::new(1, 1, 3, 1, 0);
        let out = conv2d(&input, &w, Some(&[0.5]), &p);
        assert_eq!(out.dims(), &[1, 1, 1]);
        assert_eq!(out.data()[0], 45.5);
    }

    #[test]
    fn stride_two_geometry() {
        let p = Conv2dParams::new(1, 1, 3, 2, 1);
        assert_eq!(p.out_spatial(7, 7), (4, 4));
        assert_eq!(p.out_spatial(8, 8), (4, 4));
    }

    #[test]
    fn fast_path_matches_direct_dense() {
        let mut rng = SeededRng::new(41);
        let p = Conv2dParams::new(3, 5, 3, 2, 1);
        let input = random_tensor(&mut rng, &[3, 9, 7]);
        let weight = random_tensor(&mut rng, &[5, 3, 3, 3]);
        let bias: Vec<f32> = (0..5).map(|_| rng.gaussian(0.0, 0.5) as f32).collect();
        let fast = conv2d(&input, &weight, Some(&bias), &p);
        let slow = conv2d_direct(&input, &weight, Some(&bias), &p);
        assert_eq!(fast.dims(), slow.dims());
        for (a, b) in fast.data().iter().zip(slow.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn fast_path_matches_direct_grouped() {
        let mut rng = SeededRng::new(43);
        let p = Conv2dParams::grouped(4, 6, 3, 1, 1, 2);
        let input = random_tensor(&mut rng, &[4, 6, 6]);
        let weight = random_tensor(&mut rng, &[6, 2, 3, 3]);
        let fast = conv2d(&input, &weight, None, &p);
        let slow = conv2d_direct(&input, &weight, None, &p);
        for (a, b) in fast.data().iter().zip(slow.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn depthwise_matches_direct() {
        let mut rng = SeededRng::new(47);
        let p = Conv2dParams::grouped(4, 4, 3, 1, 1, 4);
        let input = random_tensor(&mut rng, &[4, 5, 5]);
        let weight = random_tensor(&mut rng, &[4, 1, 3, 3]);
        let fast = conv2d(&input, &weight, None, &p);
        let slow = conv2d_direct(&input, &weight, None, &p);
        for (a, b) in fast.data().iter().zip(slow.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn one_by_one_conv_is_channel_mix() {
        let input = Tensor::from_vec(&[2, 1, 1], vec![3.0, 4.0]);
        let weight = Tensor::from_vec(&[1, 2, 1, 1], vec![2.0, 0.5]);
        let p = Conv2dParams::new(2, 1, 1, 1, 0);
        let out = conv2d(&input, &weight, None, &p);
        assert_eq!(out.data(), &[8.0]);
    }

    #[test]
    fn mac_count_alexnet_like() {
        // 3->16 channels, 5x5 kernel, on 16x16: 16*16*16 outputs * 5*5*3.
        let p = Conv2dParams::new(3, 16, 5, 1, 2);
        assert_eq!(p.mac_count(16, 16), 16 * 16 * 16 * 75);
    }

    #[test]
    #[should_panic(expected = "in_channels must divide")]
    fn grouped_rejects_indivisible() {
        Conv2dParams::grouped(3, 4, 3, 1, 1, 2);
    }

    /// Batched conv must reproduce the single-image fast path bit for
    /// bit — dense, grouped and depthwise, warm and cold scratch, for
    /// every batch size including 1.
    #[test]
    fn batch_conv_bit_identical_to_sequential() {
        let mut rng = SeededRng::new(53);
        let cases = [
            (Conv2dParams::new(3, 5, 3, 2, 1), [3usize, 9, 7]),
            (Conv2dParams::grouped(4, 6, 3, 1, 1, 2), [4, 6, 6]),
            (Conv2dParams::grouped(4, 4, 3, 1, 1, 4), [4, 5, 5]),
        ];
        let mut patches = Vec::new();
        let mut gemm_scratch = Vec::new();
        for (p, in_dims) in cases {
            let weight = random_tensor(
                &mut rng,
                &[p.out_channels, p.in_channels / p.groups, p.kernel, p.kernel],
            );
            let bias: Vec<f32> = (0..p.out_channels)
                .map(|_| rng.gaussian(0.0, 0.5) as f32)
                .collect();
            let (oh, ow) = p.out_spatial(in_dims[1], in_dims[2]);
            for batch in [1usize, 2, 5] {
                let images: Vec<Tensor> = (0..batch)
                    .map(|_| random_tensor(&mut rng, &in_dims))
                    .collect();
                let refs: Vec<&Tensor> = images.iter().collect();
                let mut outs_flat = vec![vec![0.0f32; p.out_channels * oh * ow]; batch];
                {
                    let mut outs: Vec<&mut [f32]> =
                        outs_flat.iter_mut().map(|v| v.as_mut_slice()).collect();
                    conv2d_batch_into(
                        KernelTier::Exact,
                        &refs,
                        &weight,
                        Some(&bias),
                        &p,
                        &mut patches,
                        &mut gemm_scratch,
                        &mut outs,
                    );
                }
                for (b, img) in images.iter().enumerate() {
                    let single = conv2d(img, &weight, Some(&bias), &p);
                    assert_eq!(
                        single
                            .data()
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>(),
                        outs_flat[b].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "batch {batch} image {b} diverged for {p:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "must share one shape")]
    fn batch_conv_rejects_mixed_shapes() {
        let p = Conv2dParams::new(1, 1, 3, 1, 1);
        let a = Tensor::zeros(&[1, 4, 4]);
        let b = Tensor::zeros(&[1, 5, 5]);
        let w = Tensor::zeros(&[1, 1, 3, 3]);
        let mut o1 = vec![0.0f32; 16];
        let mut o2 = vec![0.0f32; 25];
        let mut outs: Vec<&mut [f32]> = vec![&mut o1, &mut o2];
        conv2d_batch_into(
            KernelTier::Exact,
            &[&a, &b],
            &w,
            None,
            &p,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut outs,
        );
    }
}
