//! `prepare` once, `allocate` per objective, is the per-objective
//! pipeline byte for byte: `σ_{Y_Ł}` does not depend on `ρ`, so one
//! σ-search serves every objective.
//!
//! This file holds its own test binary because the obs recorder is
//! process-global: installed here, it sees no other test's spans.

use mupod_core::{Objective, OptimizeResult, PrecisionOptimizer, ProfileConfig, Profiler};
use mupod_data::{Dataset, DatasetSpec};
use mupod_models::{calibrate::calibrate_head, ModelKind, ModelScale};
use mupod_obs::{Level, Phase, Recorder};

const PROFILE_IMAGES: usize = 8;

fn config() -> ProfileConfig {
    ProfileConfig {
        n_deltas: 8,
        ..Default::default()
    }
}

/// What must match between the two paths: the allocation CSV bytes,
/// the validated accuracy's bits, the searched σ and the σ allocated at.
fn fingerprint(r: &OptimizeResult) -> (Vec<u8>, u64, u64, usize, u64) {
    let mut csv = Vec::new();
    r.allocation.save_csv(&mut csv).expect("csv");
    (
        csv,
        r.validated_accuracy.to_bits(),
        r.sigma.sigma.to_bits(),
        r.sigma.evaluations,
        r.sigma_allocated.to_bits(),
    )
}

#[test]
fn one_preparation_allocates_every_objective_like_separate_runs() {
    let scale = ModelScale::tiny();
    let mut net = ModelKind::AlexNet.build(&scale, 151);
    let spec = DatasetSpec::new(scale.classes, 3, scale.input_hw, scale.input_hw);
    let data = Dataset::generate(&spec, 152, 40);
    calibrate_head(&mut net, &data, 0.1).unwrap();
    let layers = ModelKind::AlexNet.analyzable_layers(&net);
    let custom: Vec<f64> = (1..=layers.len()).map(|k| (k * k) as f64).collect();
    let objectives = [
        Objective::Bandwidth,
        Objective::MacEnergy,
        Objective::Custom(custom),
    ];
    let optimizer = || {
        PrecisionOptimizer::new(&net, &data)
            .layers(layers.clone())
            .relative_accuracy_loss(0.05)
            .profile_config(config())
            .profile_images(PROFILE_IMAGES)
    };

    let recorder = Recorder::new(Level::Off);
    let split: Vec<OptimizeResult> = {
        let _guard = recorder.install();
        let prepared = optimizer().prepare().expect("prepare");
        objectives
            .iter()
            .map(|o| prepared.allocate(o).expect("allocate"))
            .collect()
    };
    let begins = |name: &str| {
        recorder
            .trace_events()
            .iter()
            .filter(|e| e.phase == Phase::Begin && e.name == name)
            .count()
    };
    assert_eq!(begins("optimize.profile"), 1);
    assert_eq!(begins("optimize.search"), 1);
    assert!(begins("optimize.allocate") >= objectives.len());

    let profile = Profiler::new(&net, &data.images()[..PROFILE_IMAGES])
        .with_config(config())
        .profile(&layers)
        .expect("profile");
    for (objective, split) in objectives.iter().zip(&split) {
        let separate = optimizer()
            .with_profile(profile.clone())
            .run(objective.clone())
            .expect("run");
        assert_eq!(
            fingerprint(split),
            fingerprint(&separate),
            "{objective:?}: prepare + allocate differs from with_profile + run"
        );
        assert!(!split.validated_accuracy.is_nan(), "validation ran");
    }
}
