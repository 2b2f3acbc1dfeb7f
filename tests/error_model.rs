//! Integration tests of the paper's statistical error model (§II–§IV)
//! against the real inference engine.

use mupod::data::{Dataset, DatasetSpec};
use mupod::models::{calibrate::calibrate_head, ModelKind, ModelScale};
use mupod::nn::tap::UniformNoiseTap;
use mupod::nn::{ExecArena, Network, NodeId, Run};
use mupod::quant::{delta_for_noise_std, noise_std_for_delta, FixedPointFormat};
use mupod::stats::{RunningStats, SeededRng};
use std::collections::HashMap;

fn setup(kind: ModelKind, seed: u64) -> (Network, Dataset) {
    let scale = ModelScale::tiny();
    let mut net = kind.build(&scale, seed);
    let spec =
        DatasetSpec::new(scale.classes, 3, scale.input_hw, scale.input_hw).with_class_seed(seed);
    let data = Dataset::generate(&spec, seed ^ 5, 24);
    calibrate_head(&mut net, &data, 0.1).expect("calibration");
    (net, data)
}

/// σ of the output error when injecting `deltas` into the given layers.
fn injected_output_sigma(
    net: &Network,
    data: &Dataset,
    deltas: &HashMap<NodeId, f64>,
    seed: u64,
) -> f64 {
    // Several independent noise draws per image: per-image logit errors
    // are correlated (one injected noise field propagates to all logits),
    // so extra repeats — not just extra logits — are what actually shrink
    // the σ estimator's variance.
    const REPEATS: u64 = 6;
    let root = SeededRng::new(seed);
    let mut stats = RunningStats::new();
    let mut arena = ExecArena::for_network(net);
    for (i, img) in data.images().iter().enumerate() {
        let base = net.forward(img);
        for rep in 0..REPEATS {
            let mut tap = UniformNoiseTap::new(deltas.clone(), root.fork(i as u64 * REPEATS + rep));
            let noisy = net.run(Run::image(img).tap(&mut tap), &mut arena).unwrap();
            for (a, b) in noisy.data().iter().zip(net.output(&base).data()) {
                stats.push((a - b) as f64);
            }
        }
    }
    stats.population_std()
}

#[test]
fn variance_additivity_across_layers_eq6() {
    // Eq. 6: independent per-layer error sources add in variance at the
    // output. Inject at two layers separately, then together — the
    // combined variance must be close to the sum.
    let (net, data) = setup(ModelKind::AlexNet, 0xADD);
    let layers = ModelKind::AlexNet.analyzable_layers(&net);
    let (a, b) = (layers[1], layers[3]);
    let delta = 0.4;

    let sigma_a = injected_output_sigma(&net, &data, &[(a, delta)].into_iter().collect(), 11);
    let sigma_b = injected_output_sigma(&net, &data, &[(b, delta)].into_iter().collect(), 22);
    let sigma_ab = injected_output_sigma(
        &net,
        &data,
        &[(a, delta), (b, delta)].into_iter().collect(),
        33,
    );

    let predicted = (sigma_a.powi(2) + sigma_b.powi(2)).sqrt();
    let rel_err = (sigma_ab - predicted).abs() / predicted;
    assert!(
        rel_err < 0.25,
        "variance additivity violated: combined {sigma_ab}, predicted {predicted}"
    );
}

#[test]
fn quantization_noise_matches_widrow_model() {
    // §II-A: real rounding error of a fixed-point format behaves like
    // U[-Δ, Δ] noise with σ = Δ/√3 — measured on real activations.
    let (net, data) = setup(ModelKind::Nin, 0x91D);
    let layers = ModelKind::Nin.analyzable_layers(&net);
    let layer = layers[4];
    let producer = net.node(layer).inputs[0];

    let fmt = FixedPointFormat::new(10, 4);
    let mut err_stats = RunningStats::new();
    for img in data.images() {
        let acts = net.forward(img);
        let x = acts.get(producer);
        for &v in x.data() {
            if v != 0.0 {
                let q = fmt.quantize_f32(v);
                err_stats.push((q - v) as f64);
            }
        }
    }
    let measured = err_stats.population_std();
    let modelled = noise_std_for_delta(fmt.delta());
    let rel = (measured - modelled).abs() / modelled;
    assert!(
        rel < 0.15,
        "rounding σ {measured} deviates from Widrow model {modelled}"
    );
    // Mean rounding error is approximately zero.
    assert!(err_stats.mean().abs() < 0.2 * modelled);
}

#[test]
fn relu_preserves_linear_error_scaling() {
    // §III-C: scaling the injected Δ scales the output error σ linearly
    // even through ReLU/pool stacks (the basis of Eq. 5).
    let (net, data) = setup(ModelKind::AlexNet, 0x4E1);
    let layers = ModelKind::AlexNet.analyzable_layers(&net);
    let layer = layers[0];
    let s1 = injected_output_sigma(&net, &data, &[(layer, 0.05)].into_iter().collect(), 7);
    let s2 = injected_output_sigma(&net, &data, &[(layer, 0.10)].into_iter().collect(), 7);
    let ratio = s2 / s1;
    assert!(
        (ratio - 2.0).abs() < 0.3,
        "doubling Δ scaled σ by {ratio}, expected ≈ 2"
    );
}

#[test]
fn delta_sigma_conversions_are_inverse() {
    for d in [1e-3, 0.1, 1.0, 64.0] {
        let s = noise_std_for_delta(d);
        assert!((delta_for_noise_std(s) - d).abs() < 1e-9 * d.max(1.0));
    }
}

#[test]
fn residual_network_error_model_holds() {
    // The same Eq. 6 additivity on a residual topology (ResNet-50),
    // where errors reconverge through skip connections.
    let (net, data) = setup(ModelKind::ResNet50, 0x6E5);
    let layers = ModelKind::ResNet50.analyzable_layers(&net);
    let (a, b) = (layers[2], layers[20]);
    let delta = 0.5;
    let sigma_a = injected_output_sigma(&net, &data, &[(a, delta)].into_iter().collect(), 1);
    let sigma_b = injected_output_sigma(&net, &data, &[(b, delta)].into_iter().collect(), 2);
    let sigma_ab = injected_output_sigma(
        &net,
        &data,
        &[(a, delta), (b, delta)].into_iter().collect(),
        3,
    );
    let predicted = (sigma_a.powi(2) + sigma_b.powi(2)).sqrt();
    let rel_err = (sigma_ab - predicted).abs() / predicted;
    assert!(
        rel_err < 0.3,
        "residual additivity violated: {sigma_ab} vs {predicted}"
    );
}
