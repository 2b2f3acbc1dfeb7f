//! EXP-TIME — cost of the optimization stages downstream of profiling.
//!
//! The paper: "It costs only 5 minutes for optimization and less than 1
//! hour for binary search on the deepest Resnet-152" — and re-running
//! under new constraints touches only these stages. The benches time
//! the Eq. 8 solve (per objective), the σ binary search (both schemes)
//! and, for contrast, one step of the search-based baseline it replaces.

use criterion::{criterion_group, criterion_main, Criterion};
use mupod_baselines::uniform_search;
use mupod_bench::setup;
use mupod_core::{
    allocate, AccuracyEvaluator, AccuracyMode, AllocateConfig, Objective, Profile, ProfileConfig,
    Profiler, SearchScheme, SigmaSearch,
};
use mupod_models::ModelKind;
use mupod_nn::inventory::LayerInventory;

fn profile_of(kind: ModelKind) -> Profile {
    let s = setup(kind, 8);
    let layers = kind.analyzable_layers(&s.net);
    let profile = Profiler::new(&s.net, s.data.images())
        .with_config(ProfileConfig {
            n_deltas: 8,
            ..Default::default()
        })
        .profile(&layers)
        .unwrap();
    profile
}

fn bench_allocate(c: &mut Criterion) {
    let alexnet = profile_of(ModelKind::AlexNet);
    // 54 variables against AlexNet's 5: the solve's per-iteration cost
    // grows with depth, so the deep network is where it shows.
    let resnet50 = profile_of(ModelKind::ResNet50);

    let mut group = c.benchmark_group("allocate_eq8");
    for (id, profile, objective) in [
        ("bandwidth", &alexnet, Objective::Bandwidth),
        ("mac-energy", &alexnet, Objective::MacEnergy),
        ("resnet50/mac-energy", &resnet50, Objective::MacEnergy),
    ] {
        group.bench_function(id, |b| {
            b.iter(|| allocate(profile, 0.1, &objective, &AllocateConfig::default()))
        });
    }
    group.finish();
}

fn bench_sigma_search(c: &mut Criterion) {
    let s = setup(ModelKind::AlexNet, 16);
    let layers = ModelKind::AlexNet.analyzable_layers(&s.net);
    let profile = Profiler::new(&s.net, &s.data.images()[..4])
        .with_config(ProfileConfig {
            n_deltas: 6,
            ..Default::default()
        })
        .profile(&layers)
        .unwrap();
    let ev = AccuracyEvaluator::new(&s.net, &s.data, AccuracyMode::FpAgreement);

    let mut group = c.benchmark_group("sigma_search");
    group.sample_size(10);
    for (label, scheme) in [
        ("scheme1_equal", SearchScheme::EqualScheme),
        ("scheme2_gaussian", SearchScheme::GaussianApprox),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| SigmaSearch { scheme }.search(&profile, &ev, 0.9))
        });
    }
    group.finish();
}

fn bench_baseline_search(c: &mut Criterion) {
    // The comparator the analytical method replaces: every candidate in
    // the baseline costs a full quantized evaluation.
    let s = setup(ModelKind::AlexNet, 16);
    let layers = ModelKind::AlexNet.analyzable_layers(&s.net);
    let inventory = LayerInventory::measure(&s.net, s.data.images().iter().cloned());
    let ev = AccuracyEvaluator::new(&s.net, &s.data, AccuracyMode::FpAgreement);
    let mut group = c.benchmark_group("baseline_search");
    group.sample_size(10);
    group.bench_function("uniform", |b| {
        b.iter(|| uniform_search(&ev, &inventory, &layers, 0.9, 16))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_allocate,
    bench_sigma_search,
    bench_baseline_search
);
criterion_main!(benches);
