//! Integration: SGD training feeding the precision pipeline — the
//! closest end-to-end analogue of the paper's setting (a genuinely
//! trained network, then analytical precision allocation).

use mupod::core::{allocate, AllocateConfig, Objective, PrecisionOptimizer, ProfileConfig};
use mupod::data::{Dataset, DatasetSpec};
use mupod::nn::{Network, NetworkBuilder};
use mupod::stats::SeededRng;
use mupod::tensor::conv::Conv2dParams;
use mupod::tensor::pool::Pool2dParams;
use mupod::tensor::Tensor;
use mupod::train::{train, SgdConfig};

fn random_tensor(rng: &mut SeededRng, dims: &[usize], std: f64) -> Tensor {
    let n: usize = dims.iter().product();
    Tensor::from_vec(
        dims,
        (0..n).map(|_| rng.gaussian(0.0, std) as f32).collect(),
    )
}

fn small_cnn(seed: u64, classes: usize) -> Network {
    let mut rng = SeededRng::new(seed);
    let mut b = NetworkBuilder::new(&[3, 12, 12]);
    let input = b.input();
    let c1 = b.conv2d(
        "conv1",
        input,
        Conv2dParams::new(3, 6, 3, 1, 1),
        random_tensor(&mut rng, &[6, 3, 3, 3], 0.15),
        vec![0.0; 6],
    );
    let r1 = b.relu("relu1", c1);
    let p1 = b.max_pool("pool1", r1, Pool2dParams::new(2, 2, 0));
    let c2 = b.conv2d(
        "conv2",
        p1,
        Conv2dParams::new(6, 10, 3, 1, 1),
        random_tensor(&mut rng, &[10, 6, 3, 3], 0.1),
        vec![0.0; 10],
    );
    let r2 = b.relu("relu2", c2);
    let gap = b.global_avg_pool("gap", r2);
    let fc = b.fully_connected(
        "fc",
        gap,
        random_tensor(&mut rng, &[classes, 10], 0.3),
        vec![0.0; classes],
    );
    b.build(fc).unwrap()
}

#[test]
fn trained_network_optimizes_and_validates() {
    let classes = 4;
    let mut net = small_cnn(0x7101, classes);
    let spec = DatasetSpec {
        amplitude: 40.0,
        noise_std: 8.0,
        ..DatasetSpec::new(classes, 3, 12, 12).with_class_seed(21)
    };
    let train_set = Dataset::generate(&spec, 22, 96);
    let eval_set = Dataset::generate(&spec, 23, 48);

    let report = train(
        &mut net,
        &train_set,
        &SgdConfig {
            learning_rate: 2e-4,
            epochs: 10,
            ..Default::default()
        },
    )
    .expect("training succeeds");
    assert!(report.final_loss < report.initial_loss);

    let result = PrecisionOptimizer::new(&net, &eval_set)
        .relative_accuracy_loss(0.05)
        .profile_config(ProfileConfig {
            n_deltas: 10,
            repeats: 2,
            ..Default::default()
        })
        .profile_images(8)
        .run(Objective::MacEnergy)
        .expect("pipeline on trained network");

    // The trained network tolerates aggressive quantization: effective
    // bitwidth well below fp32, accuracy within budget.
    let rho = vec![1.0; result.allocation.len()];
    let eff = result.allocation.effective_bitwidth(&rho);
    assert!(eff < 16.0, "effective bitwidth {eff} suspiciously high");
    assert!(
        result.validated_accuracy >= result.fp_accuracy * 0.95 - 0.1,
        "validated {} vs fp {}",
        result.validated_accuracy,
        result.fp_accuracy
    );
}

#[test]
fn sigma_budget_scales_with_logit_margins() {
    // Scale invariance: shrinking the classifier's logits by a factor c
    // shrinks the tolerable output error σ* by roughly the same factor
    // (the decision boundaries move proportionally), while the final
    // *allocation* stays almost unchanged — λ_K shrinks by c too, so
    // Eq. 7's Δ grants cancel the scale. This is why the reproduction's
    // smaller-logit probe heads still yield paper-like bitwidths.
    let classes = 4;
    let spec = DatasetSpec {
        amplitude: 40.0,
        noise_std: 8.0,
        ..DatasetSpec::new(classes, 3, 12, 12).with_class_seed(31)
    };
    let train_set = Dataset::generate(&spec, 32, 96);
    let eval_set = Dataset::generate(&spec, 33, 48);

    let mut trained = small_cnn(0x7102, classes);
    train(
        &mut trained,
        &train_set,
        &SgdConfig {
            learning_rate: 2e-4,
            epochs: 10,
            ..Default::default()
        },
    )
    .expect("training succeeds");

    // A clone with 10x smaller logits (same argmax everywhere).
    let mut scaled = trained.clone();
    let fc = scaled.find("fc").unwrap();
    scaled.update_layer_weights(fc, |w, b| {
        for v in w.data_mut() {
            *v *= 0.1;
        }
        for v in b.iter_mut() {
            *v *= 0.1;
        }
    });

    // The Eq. 8 solve at the searched σ, without validation.
    let run = |net: &Network| {
        let p = PrecisionOptimizer::new(net, &eval_set)
            .relative_accuracy_loss(0.05)
            .profile_config(ProfileConfig {
                n_deltas: 10,
                repeats: 2,
                ..Default::default()
            })
            .profile_images(8)
            .prepare()
            .expect("pipeline");
        let sigma = p.sigma.sigma;
        let config = AllocateConfig::default();
        let outcome = allocate(&p.profile, sigma.max(1e-6), &Objective::Unweighted, &config);
        (sigma, outcome.allocation)
    };
    let (sigma_full, full) = run(&trained);
    let (sigma_small, small) = run(&scaled);
    let ratio = sigma_small / sigma_full;
    assert!(
        (0.02..0.6).contains(&ratio),
        "σ should shrink with the logits: ratio {ratio}"
    );
    // The allocations differ by at most ~1 bit per layer on average.
    let rho = vec![1.0; full.len()];
    let e_full = full.effective_bitwidth(&rho);
    let e_small = small.effective_bitwidth(&rho);
    assert!(
        (e_full - e_small).abs() < 1.5,
        "allocation should be scale-invariant: {e_full} vs {e_small}"
    );
}
