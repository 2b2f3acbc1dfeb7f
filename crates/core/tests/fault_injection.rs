//! Fault-injection harness: every fault a hostile environment can throw
//! at the profile → allocate → evaluate pipeline must surface as a typed
//! error or a documented conservative fallback — never a panic, never a
//! silently wrong answer.
//!
//! Faults covered: NaN/Inf activations (via poisoned images and poisoned
//! weights), degenerate Eq. 5 fits, and journal corruption (truncation,
//! bit flips, wrong schema version, foreign configuration).

use mupod_core::{
    allocate, AllocateConfig, CoreError, JournalError, Objective, OptimizeError,
    PrecisionOptimizer, Profile, ProfileConfig, ProfileError, Profiler,
};
use mupod_data::{Dataset, DatasetSpec};
use mupod_models::{calibrate::calibrate_head, ModelKind, ModelScale};
use mupod_nn::tap::{FaultKind, FaultTap};
use mupod_nn::{ExecArena, ExecError, KernelTier, Network, Run};
use std::path::PathBuf;

fn setup(seed: u64) -> (Network, Dataset) {
    let scale = ModelScale::tiny();
    let mut net = ModelKind::AlexNet.build(&scale, seed);
    let spec =
        DatasetSpec::new(scale.classes, 3, scale.input_hw, scale.input_hw).with_class_seed(seed);
    let data = Dataset::generate(&spec, seed ^ 3, 24);
    calibrate_head(&mut net, &data, 0.1).unwrap();
    (net, data)
}

fn quick() -> ProfileConfig {
    ProfileConfig {
        n_deltas: 6,
        repeats: 2,
        ..Default::default()
    }
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mupod_fault_injection");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

// ---------------------------------------------------------------------
// NaN/Inf activations
// ---------------------------------------------------------------------

#[test]
fn poisoned_image_is_a_typed_error() {
    let (net, data) = setup(0xF1);
    let layers = ModelKind::AlexNet.analyzable_layers(&net);
    let mut images = data.images()[..4].to_vec();
    images[2].data_mut()[5] = f32::NAN;
    let err = Profiler::new(&net, &images)
        .with_config(quick())
        .profile(&layers)
        .unwrap_err();
    match err {
        ProfileError::NumericalFault(ExecError::NonFiniteInput { .. }) => {}
        e => panic!("expected NonFiniteInput, got {e:?}"),
    }
}

#[test]
fn poisoned_weight_is_blamed_on_its_layer() {
    for bad in [f32::NAN, f32::INFINITY] {
        let (mut net, data) = setup(0xF2);
        let layers = ModelKind::AlexNet.analyzable_layers(&net);
        let victim = layers[2];
        net.update_layer_weights(victim, |w, _| w.data_mut()[0] = bad);
        let err = Profiler::new(&net, &data.images()[..4])
            .with_config(quick())
            .profile(&layers)
            .unwrap_err();
        match err {
            ProfileError::NumericalFault(ExecError::NonFiniteActivation { node, .. }) => {
                assert_eq!(
                    node, victim,
                    "fault must be attributed to the poisoned layer"
                )
            }
            e => panic!("expected NonFiniteActivation, got {e:?}"),
        }
    }
}

#[test]
fn full_pipeline_surfaces_numerical_faults_without_panicking() {
    let (mut net, data) = setup(0xF3);
    let layers = ModelKind::AlexNet.analyzable_layers(&net);
    net.update_layer_weights(layers[0], |w, _| w.data_mut()[1] = f32::NAN);
    let err = PrecisionOptimizer::new(&net, &data)
        .layers(layers)
        .relative_accuracy_loss(0.05)
        .profile_config(quick())
        .profile_images(4)
        .run(Objective::Bandwidth)
        .unwrap_err();
    match err {
        OptimizeError::Profile(ProfileError::NumericalFault(_)) => {}
        e => panic!("expected a profiling numerical fault, got {e:?}"),
    }
}

#[test]
fn fault_tap_on_checked_pass_never_panics() {
    let (net, data) = setup(0xF4);
    let layers = ModelKind::AlexNet.analyzable_layers(&net);
    let image = &data.images()[0];
    let mut arena = ExecArena::for_network(&net);
    for kind in [FaultKind::Nan, FaultKind::PosInf, FaultKind::NegInf] {
        for &layer in &layers {
            let mut tap = FaultTap::single_element(layer, kind);
            let run = Run::image(image).tap(&mut tap).validated();
            let res = net.run(run, &mut arena);
            let err = res.expect_err("fault must be detected");
            assert!(
                matches!(err, ExecError::NonFiniteActivation { .. }),
                "{err:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Degenerate fits → conservative fallback
// ---------------------------------------------------------------------

#[test]
fn fallback_layer_flows_through_allocation_at_max_precision() {
    // A profile with one healthy layer and one flagged fallback, loaded
    // through the public CSV surface.
    let csv = "\
node,name,lambda,theta,r_squared,max_relative_error,max_abs,input_elems,macs,fallback
1,good,0.5,0.01,0.999,0.03,4.0,1000,1000,-
4,broken,0,0,0,0,4.0,1000,1000,neg_slope
";
    let profile = Profile::load_csv(csv.as_bytes()).unwrap();
    assert_eq!(profile.fallback_layers().len(), 1);
    assert_eq!(profile.fallback_layers()[0].0, "broken");

    let outcome = allocate(
        &profile,
        0.1,
        &Objective::Bandwidth,
        &AllocateConfig::default(),
    );
    let bits = outcome.allocation.bits();
    assert_eq!(bits.len(), 2);
    // The fallback layer's Δ is clamped to the f32 floor, so it must be
    // granted at least as many fractional bits as the measured layer —
    // conservative, never silently under-provisioned.
    assert!(
        bits[1] > bits[0],
        "fallback layer got {} bits vs healthy {}",
        bits[1],
        bits[0]
    );
}

// ---------------------------------------------------------------------
// Journal corruption
// ---------------------------------------------------------------------

/// Produces a completed journal plus the reference profile, shared by the
/// corruption tests below.
fn journaled_run(
    name: &str,
    seed: u64,
) -> (Network, Dataset, Vec<mupod_nn::NodeId>, PathBuf, Profile) {
    let (net, data) = setup(seed);
    let layers = ModelKind::AlexNet.analyzable_layers(&net);
    let path = temp_path(name);
    let _ = std::fs::remove_file(&path);
    let (profile, summary) = Profiler::new(&net, &data.images()[..4])
        .with_config(quick())
        .profile_journaled(&layers, &path)
        .unwrap();
    assert_eq!(summary.resumed, 0);
    assert_eq!(summary.computed, layers.len());
    (net, data, layers, path, profile)
}

#[test]
fn killed_run_resumes_bit_identical() {
    let (net, data, layers, path, reference) = journaled_run("resume.journal", 0xF5);

    // The journaled result matches a plain uninterrupted run exactly.
    let plain = Profiler::new(&net, &data.images()[..4])
        .with_config(quick())
        .profile(&layers)
        .unwrap();
    assert_eq!(reference, plain, "journaled != plain profiling");

    // Kill simulation: drop the last record's tail (unterminated line).
    let text = std::fs::read_to_string(&path).unwrap();
    let cut = text.trim_end().rfind('\n').unwrap() + 10;
    std::fs::write(&path, &text[..cut]).unwrap();

    let (resumed, summary) = Profiler::new(&net, &data.images()[..4])
        .with_config(quick())
        .profile_journaled(&layers, &path)
        .unwrap();
    assert_eq!(summary.resumed, layers.len() - 1);
    assert_eq!(summary.computed, 1);
    assert!(summary.dropped_partial_record);
    // Bit-identical LayerProfiles, sweeps included.
    assert_eq!(resumed, reference);
}

#[test]
fn flipped_byte_in_journal_is_corrupt_not_wrong() {
    let (net, data, layers, path, _) = journaled_run("bitflip.journal", 0xF6);
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip a bit inside the second record's payload (well past the
    // header line and the first record's checksum).
    let record_starts: Vec<usize> = bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1)
        .collect();
    let target = record_starts[1] + 30;
    bytes[target] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let err = Profiler::new(&net, &data.images()[..4])
        .with_config(quick())
        .profile_journaled(&layers, &path)
        .unwrap_err();
    match err {
        CoreError::Journal(JournalError::Corrupt { reason, .. }) => {
            assert!(
                reason.contains("checksum") || reason.contains("bad"),
                "{reason}"
            )
        }
        e => panic!("expected Corrupt, got {e:?}"),
    }
}

#[test]
fn wrong_journal_version_is_rejected() {
    let (net, data, layers, path, _) = journaled_run("version.journal", 0xF7);
    let text = std::fs::read_to_string(&path).unwrap();
    let rest = text.split_once('\n').unwrap().1;
    let patched = format!(
        "{}\n{rest}",
        text.lines().next().unwrap().replace(" v1 ", " v99 ")
    );
    std::fs::write(&path, patched).unwrap();

    let err = Profiler::new(&net, &data.images()[..4])
        .with_config(quick())
        .profile_journaled(&layers, &path)
        .unwrap_err();
    match err {
        CoreError::Journal(JournalError::UnsupportedVersion(v)) => assert_eq!(v, "v99"),
        e => panic!("expected UnsupportedVersion, got {e:?}"),
    }
}

#[test]
fn foreign_config_journal_is_rejected() {
    let (net, data, layers, path, _) = journaled_run("config.journal", 0xF8);
    // Same journal, different sweep seed: resuming would silently mix
    // measurements from two different experiments.
    let err = Profiler::new(&net, &data.images()[..4])
        .with_config(ProfileConfig {
            seed: 0xDEAD,
            ..quick()
        })
        .profile_journaled(&layers, &path)
        .unwrap_err();
    assert!(
        matches!(err, CoreError::Journal(JournalError::ConfigMismatch { .. })),
        "{err:?}"
    );
}

#[test]
fn fast_tier_journal_does_not_resume_on_exact() {
    let (net, data) = setup(0xFB);
    let layers = ModelKind::AlexNet.analyzable_layers(&net);
    let path = temp_path("fast_tier.journal");
    let _ = std::fs::remove_file(&path);
    let on = |kernel_tier| {
        Profiler::new(&net, &data.images()[..4]).with_config(ProfileConfig {
            kernel_tier,
            ..quick()
        })
    };
    let (_, summary) = on(KernelTier::Fast)
        .profile_journaled(&layers, &path)
        .unwrap();
    assert_eq!(summary.computed, layers.len());
    // Fast-tier sweeps are not bit-identical to exact ones, so a
    // complete Fast journal must not hand its layers to an Exact run.
    let err = on(KernelTier::Exact)
        .profile_journaled(&layers, &path)
        .unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(err, CoreError::Journal(JournalError::ConfigMismatch { .. })),
        "{err:?}"
    );
}

#[test]
fn non_journal_file_is_rejected() {
    let (net, data) = setup(0xF9);
    let layers = ModelKind::AlexNet.analyzable_layers(&net);
    let path = temp_path("notajournal.journal");
    std::fs::write(&path, "totally,a,csv\n1,2,3\n").unwrap();
    let err = Profiler::new(&net, &data.images()[..4])
        .with_config(quick())
        .profile_journaled(&layers, &path)
        .unwrap_err();
    assert!(
        matches!(err, CoreError::Journal(JournalError::BadHeader(_))),
        "{err:?}"
    );
}

#[test]
fn empty_journal_file_starts_fresh() {
    let (net, data) = setup(0xFA);
    let layers = ModelKind::AlexNet.analyzable_layers(&net);
    let path = temp_path("empty.journal");
    std::fs::write(&path, "").unwrap();
    let (profile, summary) = Profiler::new(&net, &data.images()[..4])
        .with_config(quick())
        .profile_journaled(&layers, &path)
        .unwrap();
    assert_eq!(summary.resumed, 0);
    assert_eq!(profile.len(), layers.len());
}
