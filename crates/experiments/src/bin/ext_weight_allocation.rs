//! EXP-EXT1 — extension: analytical per-layer *weight* bitwidths.
//!
//! The paper handles weights with Stripes' uniform empirical search
//! (§V-E). Its own Eq. 2 suggests the analytical treatment generalizes;
//! this experiment runs the generalization: profile `Δ_{W_K}` vs output
//! error (same Eq. 5 machinery, noise into the weights), allocate a
//! weight-error budget across layers with Eq. 8 weighted by per-layer
//! weight storage, and compare the resulting storage bits against the
//! uniform-width search at the same accuracy floor.

use mupod_core::{
    profile_weights, search_weight_bits, Objective, PrecisionOptimizer, ProfileConfig,
};
use mupod_experiments::{f, markdown_table, pct, prepare, ExperimentError, RunSize};
use mupod_models::ModelKind;
use mupod_nn::Network;
use mupod_quant::FixedPointFormat;
use std::collections::HashMap;

fn main() {
    mupod_experiments::exit_on_error(run());
}

fn run() -> Result<(), ExperimentError> {
    let mut rep = mupod_experiments::Report::from_args();
    let size = RunSize::from_args();
    let prepared = prepare(ModelKind::Nin, &size)?;
    let net = &prepared.net;
    let layers = ModelKind::Nin.analyzable_layers(net);

    // Input formats from the standard pipeline (held fixed below).
    let prep = PrecisionOptimizer::new(net, &prepared.eval)
        .layers(layers.clone())
        .relative_accuracy_loss(0.035)
        .profile_config(ProfileConfig {
            n_deltas: size.n_deltas,
            repeats: size.repeats,
            ..Default::default()
        })
        .profile_images(size.profile_images)
        .prepare()
        .map_err(|e| ExperimentError::Optimize(format!("input optimization: {e}")))?;
    let (ev, target) = (&prep.evaluator, prep.target);
    let input_opt = prep
        .allocate(&Objective::Bandwidth)
        .map_err(|e| ExperimentError::Optimize(format!("input optimization: {e}")))?;
    let input_formats: HashMap<_, _> = layers
        .iter()
        .zip(input_opt.allocation.layers())
        .map(|(&id, lf)| (id, lf.format))
        .collect();

    // Baseline: §V-E uniform weight search.
    let (uniform_w, uniform_acc) = search_weight_bits(net, ev, &input_formats, target, 2, 16);

    // Extension: per-layer analytical weight allocation.
    let n_images = size.profile_images.min(prepared.eval.len());
    let w_profile = profile_weights(
        net,
        &prepared.eval.images()[..n_images],
        &layers,
        &ProfileConfig {
            n_deltas: size.n_deltas,
            repeats: 10,
            ..Default::default()
        },
    )
    .map_err(|e| ExperimentError::Profile(format!("weight profiling: {e}")))?;

    // Give the weights the σ budget the input search found, scaled down:
    // inputs and weights share the output-error variance, so grant each
    // half (√½ on the s.d.).
    let sigma_w = input_opt.sigma.sigma.max(1e-6) * 0.5f64.sqrt();
    let outcome = mupod_core::allocate(
        &w_profile,
        sigma_w,
        &Objective::Bandwidth, // ρ = per-layer weight storage
        &Default::default(),
    );

    // Validate: quantize weights per layer AND inputs, measure accuracy.
    let analytic_acc = {
        let mut q: Network = net.clone();
        for (&id, lf) in layers.iter().zip(outcome.allocation.layers()) {
            let (weight, bias) = match &net.node(id).op {
                mupod_nn::Op::Conv2d { weight, bias, .. }
                | mupod_nn::Op::FullyConnected { weight, bias } => (weight.clone(), bias.clone()),
                _ => {
                    return Err(ExperimentError::Invariant(format!(
                        "layer {id} is not a dot-product layer"
                    )))
                }
            };
            let mut w = weight;
            lf.format.quantize_tensor(&mut w);
            let bias_max = bias.iter().fold(0.0f32, |m, b| m.max(b.abs()));
            let bias_fmt = FixedPointFormat::new(
                FixedPointFormat::int_bits_for_max_abs(bias_max as f64),
                lf.format.frac_bits(),
            );
            let b2: Vec<f32> = bias.iter().map(|&b| bias_fmt.quantize_f32(b)).collect();
            q.set_layer_weights(id, w, b2);
        }
        ev.accuracy_of_network_with_formats(&q, &input_formats)
    };

    let weight_counts: Vec<u64> = w_profile.layers().iter().map(|l| l.input_elems).collect();
    let total_uniform: f64 = weight_counts
        .iter()
        .map(|&n| n as f64 * uniform_w as f64)
        .sum();
    let analytic_bits = outcome.allocation.bits();
    let total_analytic: f64 = weight_counts
        .iter()
        .zip(&analytic_bits)
        .map(|(&n, &b)| n as f64 * b as f64)
        .sum();

    mupod_experiments::report!(
        rep,
        "# EXP-EXT1: analytical per-layer weight bitwidths (extension)"
    );
    mupod_experiments::report!(rep);
    let rows: Vec<Vec<String>> = w_profile
        .layers()
        .iter()
        .zip(&analytic_bits)
        .map(|(l, &b)| {
            vec![
                l.name.clone(),
                l.input_elems.to_string(),
                f(l.lambda, 3),
                f(l.max_abs, 3),
                uniform_w.to_string(),
                b.to_string(),
            ]
        })
        .collect();
    mupod_experiments::report!(
        rep,
        "{}",
        markdown_table(
            &[
                "layer",
                "#weights",
                "lambda_w",
                "max|W|",
                "uniform W",
                "analytic W"
            ],
            &rows
        )
    );
    mupod_experiments::report!(rep);
    mupod_experiments::report!(
        rep,
        "weight storage: uniform {} kbit -> analytic {} kbit ({}% saving)",
        f(total_uniform / 1e3, 1),
        f(total_analytic / 1e3, 1),
        pct((1.0 - total_analytic / total_uniform) * 100.0)
    );
    mupod_experiments::report!(
        rep,
        "accuracy at floor {:.3}: uniform {:.3}, analytic {:.3}",
        target,
        uniform_acc,
        analytic_acc
    );
    mupod_experiments::report!(
        rep,
        "(the paper's uniform W plus its own Eq. 2 imply this generalization; it\n\
         trades storage between layers exactly like the input allocation does)"
    );
    rep.finish();
    Ok(())
}
