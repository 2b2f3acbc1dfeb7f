//! Analytical per-layer *weight* bitwidth allocation (extension).
//!
//! The paper's Eq. 2 carries both a `δ_x` and a `δ_w` term, but §V-E
//! only integrates Stripes' empirical search for a single uniform weight
//! width. This module closes the gap the paper leaves open: the same
//! Eq. 5 machinery — inject uniform noise, measure the output error
//! s.d., fit a per-layer line — applies verbatim when the noise goes
//! into the *weights* instead of the inputs:
//!
//! `Δ_{W_K} ≈ λʷ_K · σ_{Y_{K→Ł}} + θʷ_K`.
//!
//! The result is packaged as an ordinary [`Profile`] (with `max|W_K|`
//! in the range slot and the layer's weight count as its bandwidth
//! weight), so [`crate::allocate`] distributes a weight-error budget
//! across layers with no new code, and the granted `Δ_{W_K}` convert to
//! per-layer weight formats exactly like input formats do.
//!
//! Profiling cost is higher than the input profiler's: perturbing
//! weights invalidates the layer itself, so each probe clones the network
//! with that layer perturbed and replays the suffix from the clean
//! activation caches, [`REPLAY_BATCH`] images per batched run, through
//! one reused execution arena per worker. Layers run in parallel on
//! `ProfileConfig::threads` workers, as in the input profiler.
//! Note that one weight perturbation is *shared* by all images (as real
//! rounding would be), so `ProfileConfig::repeats` is the effective
//! sample count of each σ estimate — use ≥ 8 repeats here where the
//! input profiler is happy with 2.

use crate::par::Pool;
use crate::profile::{
    clean_passes, fit_sweep, replay_arena, sweep_delta, LayerProfile, Profile, ProfileConfig,
    ProfileError, REPLAY_BATCH,
};
use mupod_nn::inventory::LayerInventory;
use mupod_nn::{ExecArena, Network, NodeId, Op, Run};
use mupod_stats::{RunningStats, SeededRng};
use mupod_tensor::Tensor;

/// Largest absolute weight and weight count of a dot-product layer, or
/// `None` for any other node kind.
fn weight_stats(net: &Network, id: NodeId) -> Option<(f64, u64)> {
    match &net.node(id).op {
        Op::Conv2d { weight, .. } | Op::FullyConnected { weight, .. } => {
            Some((weight.max_abs() as f64, weight.numel() as u64))
        }
        _ => None,
    }
}

/// Profiles the weight-noise response of each layer, producing a
/// [`Profile`] whose lines relate `Δ_{W_K}` to the output error s.d.
///
/// Inventory conventions inside the returned profile:
/// * `max_abs` is `max|W_K|` (drives the weight format's integer bits);
/// * `input_elems` is the layer's weight count (so
///   [`crate::Objective::Bandwidth`] weighs by weight-storage traffic);
/// * `macs` is the layer's MAC count (so [`crate::Objective::MacEnergy`]
///   keeps its meaning).
///
/// # Errors
///
/// Same failure modes as the input profiler ([`ProfileError`]).
pub fn profile_weights(
    net: &Network,
    images: &[Tensor],
    layers: &[NodeId],
    config: &ProfileConfig,
) -> Result<Profile, ProfileError> {
    if images.is_empty() {
        return Err(ProfileError::NoImages);
    }
    if layers.is_empty() {
        return Err(ProfileError::NoLayers);
    }
    // Validated up front, same policy as the input profiler: poisoned
    // weights or images must fail fast with a typed error.
    let clean = clean_passes(net, images, layers)?;
    let clean: Vec<_> = clean.iter().collect();
    // Only the static MAC counts are read.
    let inventory = LayerInventory::measure(net, std::iter::empty());
    let rng = SeededRng::new(config.seed ^ 0x77EE);

    // Every perturbed clone shares `net`'s shapes, so one arena per
    // worker serves all its replays.
    let profile_layer = |arena: &mut ExecArena, li: usize| {
        let layer = layers[li];
        let (w_max, w_count) =
            weight_stats(net, layer).ok_or(ProfileError::NotAnalyzable(layer))?;
        let scale = if w_max > 0.0 { w_max } else { 1.0 };
        let mut sigmas = Vec::with_capacity(config.n_deltas);
        let mut deltas = Vec::with_capacity(config.n_deltas);
        for j in 0..config.n_deltas {
            let delta = sweep_delta(scale, j);
            let mut stats = RunningStats::new();
            for rep in 0..config.repeats.max(1) {
                // One weight perturbation per repeat, replayed over all
                // images (a fixed weight error is shared across images,
                // matching how rounding error behaves).
                let stream = ((li as u64) << 44) ^ ((j as u64) << 28) ^ rep as u64;
                let mut noise_rng = rng.fork(stream);
                let noisy = net.with_perturbed_weights(layer, delta, &mut noise_rng);
                for bases in clean.chunks(REPLAY_BATCH) {
                    noisy.run(Run::suffix(bases, layer).validated(), arena)?;
                    for (slot, base) in bases.iter().enumerate() {
                        let out_t = net.output(arena.activations(slot));
                        let ref_out = net.output(base);
                        for (a, b) in out_t.data().iter().zip(ref_out.data()) {
                            stats.push((a - b) as f64);
                        }
                    }
                }
            }
            sigmas.push(stats.population_std());
            deltas.push(delta);
        }
        let name = net.node(layer).name.clone();
        let fit = fit_sweep(&sigmas, &deltas);
        let info = inventory
            .find(layer)
            .ok_or(ProfileError::NotAnalyzable(layer))?;
        Ok(LayerProfile {
            node: layer,
            name,
            lambda: fit.lambda,
            theta: fit.theta,
            r_squared: fit.r_squared,
            max_relative_error: fit.max_relative_error,
            max_abs: w_max,
            input_elems: w_count,
            macs: info.macs,
            sweep: sigmas.into_iter().zip(deltas).collect(),
            fallback: fit.fallback,
        })
    };
    let mut out = Vec::with_capacity(layers.len());
    Pool::new(config.threads, || replay_arena(net, config))
        .run(0..layers.len(), profile_layer, |_, p| {
            out.push(p);
            Ok(())
        })
        .unwrap_or(Err(ProfileError::WorkerPanicked))?;
    Ok(Profile::from_layers(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocate::{allocate, AllocateConfig, Objective};
    use mupod_data::{Dataset, DatasetSpec};
    use mupod_models::{calibrate::calibrate_head, ModelKind, ModelScale};

    fn setup() -> (Network, Dataset) {
        let scale = ModelScale::tiny();
        let mut net = ModelKind::Nin.build(&scale, 0x3E1);
        let spec =
            DatasetSpec::new(scale.classes, 3, scale.input_hw, scale.input_hw).with_class_seed(1);
        let data = Dataset::generate(&spec, 2, 16);
        calibrate_head(&mut net, &data, 0.1).unwrap();
        (net, data)
    }

    #[test]
    fn weight_lines_are_linear_too() {
        let (net, data) = setup();
        let layers = &ModelKind::Nin.analyzable_layers(&net)[..4];
        let profile = profile_weights(
            &net,
            &data.images()[..6],
            layers,
            &ProfileConfig {
                n_deltas: 8,
                repeats: 10,
                ..Default::default()
            },
        )
        .unwrap();
        for l in profile.layers() {
            assert!(l.lambda > 0.0, "{}: λʷ = {}", l.name, l.lambda);
            assert!(
                l.r_squared > 0.9,
                "{}: weight-noise linearity broke (R² = {})",
                l.name,
                l.r_squared
            );
            // max_abs is the weight range, well below activation ranges.
            assert!(l.max_abs < 5.0, "{}: {}", l.name, l.max_abs);
        }
    }

    #[test]
    fn weight_profile_feeds_the_standard_allocator() {
        let (net, data) = setup();
        let layers = &ModelKind::Nin.analyzable_layers(&net)[..4];
        let profile = profile_weights(
            &net,
            &data.images()[..4],
            layers,
            &ProfileConfig {
                n_deltas: 6,
                repeats: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let outcome = allocate(
            &profile,
            0.05,
            &Objective::Bandwidth,
            &AllocateConfig::default(),
        );
        assert_eq!(outcome.allocation.len(), 4);
        // Weight formats land in a plausible range (weights are small).
        for lf in outcome.allocation.layers() {
            assert!(lf.format.int_bits() <= 4, "{:?}", lf.format);
            assert!(lf.bits() >= 1);
        }
    }

    #[test]
    fn thread_count_never_changes_the_profile() {
        let (net, data) = setup();
        let layers = &ModelKind::Nin.analyzable_layers(&net)[..4];
        let profile = |threads| {
            let config = ProfileConfig {
                n_deltas: 4,
                repeats: 2,
                threads,
                ..Default::default()
            };
            profile_weights(&net, &data.images()[..4], layers, &config).unwrap()
        };
        assert_eq!(profile(1), profile(3));
    }

    #[test]
    fn errors_on_empty_inputs() {
        let (net, data) = setup();
        let layers = ModelKind::Nin.analyzable_layers(&net);
        assert!(matches!(
            profile_weights(&net, &[], &layers, &ProfileConfig::default()),
            Err(ProfileError::NoImages)
        ));
        assert!(matches!(
            profile_weights(&net, data.images(), &[], &ProfileConfig::default()),
            Err(ProfileError::NoLayers)
        ));
    }
}
