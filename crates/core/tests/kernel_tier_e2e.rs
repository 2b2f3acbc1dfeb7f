//! End-to-end two-tier contract checks (DESIGN.md §16): the fast tier
//! may reassociate every inner product, but on a calibrated model it
//! must classify every image the same as the exact tier, and the exact
//! tier must stay byte-for-byte the default.

use mupod_core::{AccuracyEvaluator, AccuracyMode, ProfileConfig, Profiler};
use mupod_data::{Dataset, DatasetSpec};
use mupod_models::{calibrate::calibrate_head, ModelKind, ModelScale};
use mupod_nn::{ExecArena, KernelTier, Network, Run};

fn setup(seed: u64, images: usize) -> (Network, Dataset) {
    let scale = ModelScale::tiny();
    let mut net = ModelKind::AlexNet.build(&scale, seed);
    let spec =
        DatasetSpec::new(scale.classes, 3, scale.input_hw, scale.input_hw).with_class_seed(seed);
    let data = Dataset::generate(&spec, seed ^ 3, images);
    calibrate_head(&mut net, &data, 0.1).unwrap();
    (net, data)
}

#[test]
fn fast_tier_keeps_every_top1_prediction() {
    let (net, data) = setup(0x61, 64);
    let mut exact = ExecArena::new(&net, 1, KernelTier::Exact);
    let mut fast = ExecArena::new(&net, 1, KernelTier::Fast);
    assert_eq!(exact.tier(), KernelTier::Exact);
    assert_eq!(fast.tier(), KernelTier::Fast);
    let mut agreements = 0usize;
    for img in data.images() {
        let (pe, pf) = (
            net.classify_arena(img, &mut exact),
            net.classify_arena(img, &mut fast),
        );
        assert_eq!(pe, pf, "tiers disagree on a top-1 class");
        agreements += 1;
    }
    assert_eq!(agreements, data.len());
}

#[test]
fn fast_tier_evaluator_reports_identical_top1_counts() {
    let (net, data) = setup(0x62, 48);
    // Both evaluators score the same generator labels; identical top-1
    // predictions mean identical clean-accuracy counts, so fp_accuracy
    // must agree exactly (it is a ratio of two integer counts).
    let exact = AccuracyEvaluator::with_threads_tier(
        &net,
        &data,
        AccuracyMode::GeneratorLabels,
        1,
        KernelTier::Exact,
    );
    let fast = AccuracyEvaluator::with_threads_tier(
        &net,
        &data,
        AccuracyMode::GeneratorLabels,
        1,
        KernelTier::Fast,
    );
    assert_eq!(exact.tier(), KernelTier::Exact);
    assert_eq!(fast.tier(), KernelTier::Fast);
    assert_eq!(
        exact.fp_accuracy(),
        fast.fp_accuracy(),
        "top-1 counts changed under the fast tier"
    );
}

#[test]
fn exact_tier_is_the_default_and_stays_bit_reproducible() {
    let (net, data) = setup(0x63, 16);
    let default_arena = ExecArena::for_network(&net);
    assert_eq!(default_arena.tier(), KernelTier::Exact);
    // Two independent exact arenas must produce bit-identical logits —
    // the property every recorded artifact's byte-stability rests on.
    let mut a = ExecArena::new(&net, 1, KernelTier::Exact);
    let mut b = ExecArena::new(&net, 1, KernelTier::Exact);
    for img in data.images() {
        let la = net.run(Run::image(img), &mut a).unwrap().data().to_vec();
        let lb = net.run(Run::image(img), &mut b).unwrap().data().to_vec();
        let bits_a: Vec<u32> = la.iter().map(|v| v.to_bits()).collect();
        let bits_b: Vec<u32> = lb.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits_a, bits_b);
    }
}

#[test]
fn journaled_profile_runs_on_the_configured_tier() {
    let (net, data) = setup(0x64, 6);
    let layers = ModelKind::AlexNet.analyzable_layers(&net);
    let images = &data.images()[..6];
    let config = |kernel_tier, threads| ProfileConfig {
        n_deltas: 5,
        kernel_tier,
        threads,
        ..ProfileConfig::default()
    };
    let plain = |tier| {
        Profiler::new(&net, images)
            .with_config(config(tier, 1))
            .profile(&layers)
            .unwrap()
    };
    let fast = plain(KernelTier::Fast);
    assert_ne!(
        fast,
        plain(KernelTier::Exact),
        "the tiers must differ for this check to mean anything"
    );
    // The journaled sweep must honour the tier at any thread count.
    for threads in [1, 2] {
        let path = std::env::temp_dir().join(format!(
            "mupod_tier_journal_{}_{threads}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let (journaled, _) = Profiler::new(&net, images)
            .with_config(config(KernelTier::Fast, threads))
            .profile_journaled(&layers, &path)
            .unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            journaled, fast,
            "journaled fast-tier profile, {threads} threads"
        );
    }
}
