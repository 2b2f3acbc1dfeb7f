//! Pipeline variants not covered by the unit tests: Scheme 2 end to
//! end, generator-label accuracy, unweighted objectives, and the
//! refinement bookkeeping.

use mupod_core::{
    allocate, AccuracyEvaluator, AccuracyMode, AllocateConfig, AllocationOutcome, Objective,
    PrecisionOptimizer, Prepared, ProfileConfig, SearchScheme,
};
use mupod_data::{Dataset, DatasetSpec};
use mupod_models::{calibrate::calibrate_head, ModelKind, ModelScale};
use mupod_nn::Network;

fn setup(seed: u64) -> (Network, Dataset) {
    let scale = ModelScale::tiny();
    let mut net = ModelKind::AlexNet.build(&scale, seed);
    let spec =
        DatasetSpec::new(scale.classes, 3, scale.input_hw, scale.input_hw).with_class_seed(seed);
    let data = Dataset::generate(&spec, seed ^ 3, 48);
    calibrate_head(&mut net, &data, 0.1).unwrap();
    (net, data)
}

/// The Eq. 8 solve for `objective` at the prepared σ, without validation.
fn unvalidated(p: &Prepared<'_>, objective: Objective) -> AllocationOutcome {
    let sigma = p.sigma.sigma.max(1e-6);
    allocate(&p.profile, sigma, &objective, &AllocateConfig::default())
}

fn quick() -> ProfileConfig {
    ProfileConfig {
        n_deltas: 10,
        repeats: 2,
        ..Default::default()
    }
}

#[test]
fn scheme2_pipeline_end_to_end() {
    let (net, data) = setup(0x51);
    let layers = ModelKind::AlexNet.analyzable_layers(&net);
    let result = PrecisionOptimizer::new(&net, &data)
        .layers(layers)
        .relative_accuracy_loss(0.05)
        .scheme(SearchScheme::GaussianApprox)
        .profile_config(quick())
        .profile_images(8)
        .run(Objective::MacEnergy)
        .expect("scheme 2 pipeline");
    assert!(result.sigma.sigma > 0.0);
    assert!(result.validated_accuracy >= 0.85);
}

#[test]
fn generator_labels_mode_targets_real_accuracy() {
    let (net, data) = setup(0x52);
    let layers = ModelKind::AlexNet.analyzable_layers(&net);
    let result = PrecisionOptimizer::new(&net, &data)
        .layers(layers)
        .relative_accuracy_loss(0.05)
        .profile_config(quick())
        .profile_images(8)
        .run(Objective::Bandwidth)
        .expect("pipeline");
    // Scored against the generator's labels, fp accuracy is below 1.0
    // (the probe is not perfect), and the allocation the fp-agreement
    // budget chose keeps the real accuracy within that budget too.
    let ev = AccuracyEvaluator::new(&net, &data, AccuracyMode::GeneratorLabels);
    let fp = ev.fp_accuracy();
    assert!(fp < 1.0);
    assert!(fp > 0.5);
    let quantized = ev.accuracy_of_allocation(&result.layers, &result.allocation);
    assert!(
        quantized >= fp * 0.95 - 0.1,
        "quantized {quantized} vs fp {fp}"
    );
}

#[test]
fn unweighted_objective_runs() {
    let (net, data) = setup(0x53);
    let layers = ModelKind::AlexNet.analyzable_layers(&net);
    let prepared = PrecisionOptimizer::new(&net, &data)
        .layers(layers)
        .relative_accuracy_loss(0.05)
        .profile_config(quick())
        .profile_images(8)
        .prepare()
        .expect("unweighted pipeline");
    let result = unvalidated(&prepared, Objective::Unweighted);
    let sum: f64 = result.xi.iter().sum();
    assert!((sum - 1.0).abs() < 1e-6);
}

#[test]
fn refinement_never_grows_sigma() {
    let (net, data) = setup(0x54);
    let layers = ModelKind::AlexNet.analyzable_layers(&net);
    let result = PrecisionOptimizer::new(&net, &data)
        .layers(layers)
        .relative_accuracy_loss(0.05)
        .profile_config(quick())
        .profile_images(8)
        .run(Objective::Bandwidth)
        .expect("pipeline");
    assert!(
        result.sigma_allocated <= result.sigma.sigma.max(1e-6) + 1e-12,
        "allocated σ {} exceeds searched σ {}",
        result.sigma_allocated,
        result.sigma.sigma
    );
}

#[test]
fn scheme1_and_scheme2_allocations_are_comparable() {
    // §V-C supports both schemes interchangeably: their final effective
    // bitwidths should be within ~2 bits of each other.
    let (net, data) = setup(0x55);
    let layers = ModelKind::AlexNet.analyzable_layers(&net);
    let p1 = PrecisionOptimizer::new(&net, &data)
        .layers(layers.clone())
        .relative_accuracy_loss(0.05)
        .profile_config(quick())
        .profile_images(8)
        .prepare()
        .expect("scheme 1");
    let p2 = PrecisionOptimizer::new(&net, &data)
        .layers(layers)
        .relative_accuracy_loss(0.05)
        .scheme(SearchScheme::GaussianApprox)
        .with_profile(p1.profile.clone())
        .prepare()
        .expect("scheme 2");
    let s1 = unvalidated(&p1, Objective::Bandwidth);
    let s2 = unvalidated(&p2, Objective::Bandwidth);
    let rho = vec![1.0; s1.allocation.len()];
    let e1 = s1.allocation.effective_bitwidth(&rho);
    let e2 = s2.allocation.effective_bitwidth(&rho);
    assert!(
        (e1 - e2).abs() < 2.5,
        "scheme effective bitwidths diverge: {e1} vs {e2}"
    );
}
