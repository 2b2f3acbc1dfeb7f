//! Integration tests: the full pipeline across crates.

use mupod::baselines::uniform_search;
use mupod::core::{
    allocate, AccuracyEvaluator, AccuracyMode, AllocateConfig, Objective, PrecisionOptimizer,
    Prepared, Profile, ProfileConfig,
};
use mupod::data::{Dataset, DatasetSpec};
use mupod::hw::{bandwidth, MacEnergyModel};
use mupod::models::{calibrate::calibrate_head, ModelKind, ModelScale};
use mupod::nn::inventory::LayerInventory;
use mupod::nn::Network;
use mupod::quant::BitwidthAllocation;

fn prepared(kind: ModelKind, seed: u64) -> (Network, Dataset, Dataset) {
    let scale = ModelScale::tiny();
    let mut net = kind.build(&scale, seed);
    let spec =
        DatasetSpec::new(scale.classes, 3, scale.input_hw, scale.input_hw).with_class_seed(seed);
    let calib = Dataset::generate(&spec, seed ^ 1, 96);
    let eval = Dataset::generate(&spec, seed ^ 2, 48);
    calibrate_head(&mut net, &calib, 0.1).expect("calibration");
    (net, calib, eval)
}

/// The Eq. 8 solve for `objective` at the prepared σ, without validation.
fn unvalidated(p: &Prepared<'_>, objective: Objective) -> BitwidthAllocation {
    let sigma = p.sigma.sigma.max(1e-6);
    allocate(&p.profile, sigma, &objective, &AllocateConfig::default()).allocation
}

fn quick_profile_config() -> ProfileConfig {
    ProfileConfig {
        n_deltas: 10,
        repeats: 2,
        ..Default::default()
    }
}

#[test]
fn pipeline_meets_constraint_out_of_sample() {
    // Optimize against the calibration set, validate on a *disjoint*
    // evaluation set — guarding against the over-fitting the paper
    // levels at search-based methods.
    let (net, calib, eval) = prepared(ModelKind::AlexNet, 0xE2E);
    let layers = ModelKind::AlexNet.analyzable_layers(&net);
    let result = PrecisionOptimizer::new(&net, &calib)
        .layers(layers.clone())
        .relative_accuracy_loss(0.05)
        .profile_config(quick_profile_config())
        .profile_images(8)
        .run(Objective::Bandwidth)
        .expect("pipeline");

    let ev = AccuracyEvaluator::new(&net, &eval, AccuracyMode::FpAgreement);
    let out_of_sample = ev.accuracy_of_allocation(&layers, &result.allocation);
    let target = 0.95;
    // Allow finite-sample wiggle (48 images) on top of the budget.
    assert!(
        out_of_sample >= target - 0.08,
        "out-of-sample accuracy {out_of_sample} too far below {target}"
    );
}

#[test]
fn analytic_allocation_not_worse_than_uniform_baseline() {
    let (net, calib, _) = prepared(ModelKind::Nin, 0xBEE);
    let layers = ModelKind::Nin.analyzable_layers(&net);
    let inventory = LayerInventory::measure(&net, calib.images().iter().cloned());
    let ev = AccuracyEvaluator::new(&net, &calib, AccuracyMode::FpAgreement);
    let target = ev.fp_accuracy() * 0.95;

    let baseline = uniform_search(&ev, &inventory, &layers, target, 16);
    let result = PrecisionOptimizer::new(&net, &calib)
        .layers(layers.clone())
        .relative_accuracy_loss(0.05)
        .profile_config(quick_profile_config())
        .profile_images(8)
        .run(Objective::Bandwidth)
        .expect("pipeline");

    let inputs: Vec<u64> = layers
        .iter()
        .map(|&id| inventory.find(id).unwrap().input_elems)
        .collect();
    let bw_base = bandwidth::total_input_bits(&inputs, &baseline.allocation.bits());
    let bw_opt = bandwidth::total_input_bits(&inputs, &result.allocation.bits());
    // The analytical allocation should be competitive: no more than a
    // small overhead over the uniform-search baseline, usually better.
    assert!(
        bw_opt <= bw_base * 1.15,
        "optimized traffic {bw_opt} far above baseline {bw_base}"
    );
}

#[test]
fn profile_roundtrips_through_csv_and_reoptimizes() {
    let (net, calib, _) = prepared(ModelKind::AlexNet, 0xC51);
    let layers = ModelKind::AlexNet.analyzable_layers(&net);
    let first = PrecisionOptimizer::new(&net, &calib)
        .layers(layers.clone())
        .relative_accuracy_loss(0.05)
        .profile_config(quick_profile_config())
        .profile_images(8)
        .prepare()
        .expect("first run");
    let first_bw = unvalidated(&first, Objective::Bandwidth);

    // Persist the profile, reload it, and run the MAC objective from it.
    let mut buf = Vec::new();
    first.profile.save_csv(&mut buf).expect("save");
    let reloaded = Profile::load_csv(buf.as_slice()).expect("load");
    assert_eq!(reloaded.len(), first.profile.len());

    let second = PrecisionOptimizer::new(&net, &calib)
        .layers(layers)
        .relative_accuracy_loss(0.05)
        .with_profile(reloaded)
        .prepare()
        .expect("second run");
    assert_eq!(
        unvalidated(&second, Objective::MacEnergy).len(),
        first_bw.len()
    );
}

#[test]
fn energy_model_sees_savings_from_lower_loss_budget() {
    // A looser accuracy budget must never cost *more* energy.
    let (net, calib, _) = prepared(ModelKind::AlexNet, 0xEE);
    let layers = ModelKind::AlexNet.analyzable_layers(&net);
    let inventory = LayerInventory::measure(&net, calib.images().iter().cloned());
    let macs: Vec<u64> = layers
        .iter()
        .map(|&id| inventory.find(id).unwrap().macs)
        .collect();

    let base = PrecisionOptimizer::new(&net, &calib)
        .layers(layers.clone())
        .relative_accuracy_loss(0.01)
        .profile_config(quick_profile_config())
        .profile_images(8)
        .prepare()
        .expect("tight run");
    let loose = PrecisionOptimizer::new(&net, &calib)
        .layers(layers)
        .relative_accuracy_loss(0.10)
        .with_profile(base.profile.clone())
        .prepare()
        .expect("loose run");

    let model = MacEnergyModel::dwip_40nm();
    let tight_bits = unvalidated(&base, Objective::MacEnergy).bits();
    let loose_bits = unvalidated(&loose, Objective::MacEnergy).bits();
    let e_tight = model.network_energy(&macs, &tight_bits, 8);
    let e_loose = model.network_energy(&macs, &loose_bits, 8);
    assert!(
        e_loose <= e_tight * 1.001,
        "loose budget used more energy: {e_loose} vs {e_tight}"
    );
}

#[test]
fn facade_reexports_are_usable_together() {
    // Types from different re-exported crates interoperate.
    let fmt = mupod::quant::FixedPointFormat::for_range_and_delta(10.0, 0.1);
    let mut t = mupod::tensor::Tensor::from_vec(&[2], vec![1.234, -5.0]);
    fmt.quantize_tensor(&mut t);
    assert!((t.data()[0] - 1.234).abs() <= fmt.delta() as f32 + 1e-6);

    let sd = mupod::quant::noise_std_for_delta(fmt.delta());
    let mut rng = mupod::stats::SeededRng::new(1);
    let sample = rng.symmetric_uniform(fmt.delta());
    assert!(sample.abs() <= fmt.delta());
    assert!(sd > 0.0);
}
