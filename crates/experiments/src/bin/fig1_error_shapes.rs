//! EXP-F1 — Fig. 1: error-shape propagation.
//!
//! The paper's Fig. 1 illustrates the statistical backbone of the whole
//! method: uniform rounding error injected at one layer's input turns
//! into an approximately Gaussian error at the network output. This
//! binary reproduces the figure's data: it injects `U[-Δ, Δ]` at a
//! middle layer of AlexNet, collects the input-error and output-error
//! populations, prints their histograms, and quantifies the shapes
//! (total-variation distance against the matching uniform / normal
//! reference densities).

use mupod_experiments::{f, prepare, ExperimentError, RunSize};
use mupod_models::ModelKind;
use mupod_nn::tap::{InputTap, UniformNoiseTap};
use mupod_nn::{ExecArena, Run};
use mupod_stats::histogram::normal_pdf;
use mupod_stats::{Histogram, RunningStats, SeededRng};

fn main() {
    mupod_experiments::exit_on_error(run());
}

fn run() -> Result<(), ExperimentError> {
    let mut rep = mupod_experiments::Report::from_args();
    let size = RunSize::from_args();
    let prepared = prepare(ModelKind::AlexNet, &size)?;
    let net = &prepared.net;
    let layers = ModelKind::AlexNet.analyzable_layers(net);
    let layer = layers[2]; // conv3: a middle layer, as in the figure
    let delta = 0.5;

    let mut input_errors = RunningStats::new();
    let mut output_errors = RunningStats::new();
    let mut in_hist = Histogram::new(-delta * 1.2, delta * 1.2, 41);
    let mut out_samples: Vec<f64> = Vec::new();

    let rng = SeededRng::new(0xF16);
    let mut arena = ExecArena::for_network(net);
    for (i, img) in prepared.eval.images().iter().enumerate() {
        let base = net.forward(img);
        // Capture the injected input error by tapping the same tensor the
        // executor would.
        let producer = net.node(layer).inputs[0];
        let clean_in = base.get(producer).clone();
        let mut tap = UniformNoiseTap::single(layer, delta, rng.fork(i as u64));
        let mut noisy_in = clean_in.clone();
        tap.apply(layer, 0, &mut noisy_in);
        for (a, b) in noisy_in.data().iter().zip(clean_in.data()) {
            // lint:allow(no-float-eq) reason=the noise tap skips exactly-zero activations, so only nonzero entries carry an injected error worth sampling
            if *b != 0.0 {
                let e = (a - b) as f64;
                input_errors.push(e);
                in_hist.push(e);
            }
        }
        // Replay the suffix with the same seed to get the matching output
        // error.
        let mut tap2 = UniformNoiseTap::single(layer, delta, rng.fork(i as u64));
        let noisy_out = net
            .run(Run::suffix(&[&base], layer).tap(&mut tap2), &mut arena)
            .map_err(|e| ExperimentError::Invariant(e.to_string()))?;
        for (a, b) in noisy_out.data().iter().zip(net.output(&base).data()) {
            let e = (a - b) as f64;
            output_errors.push(e);
            out_samples.push(e);
        }
    }

    mupod_experiments::report!(rep, "# EXP-F1: error shapes (Fig. 1)");
    mupod_experiments::report!(rep);
    mupod_experiments::report!(
        rep,
        "Injected U[-{delta}, {delta}] at layer `{}` over {} images.",
        net.node(layer).name,
        prepared.eval.len()
    );
    mupod_experiments::report!(rep);
    mupod_experiments::report!(
        rep,
        "Input error:  mean {} | s.d. {} (theory: Δ/√3 = {})",
        f(input_errors.mean(), 5),
        f(input_errors.population_std(), 5),
        f(delta / 3.0f64.sqrt(), 5),
    );
    let out_sd = output_errors.population_std();
    mupod_experiments::report!(
        rep,
        "Output error: mean {} | s.d. {}",
        f(output_errors.mean(), 5),
        f(out_sd, 5),
    );
    mupod_experiments::report!(rep);
    mupod_experiments::report!(rep, "Input-error histogram (should be flat / uniform):");
    mupod_experiments::report!(rep, "{}", in_hist.render_ascii(48));
    let mut out_hist = Histogram::new(-4.0 * out_sd, 4.0 * out_sd, 41);
    out_hist.extend(out_samples.iter().copied());
    mupod_experiments::report!(
        rep,
        "Output-error histogram (should be bell-shaped / Gaussian):"
    );
    mupod_experiments::report!(rep, "{}", out_hist.render_ascii(48));

    let tv_gauss = out_hist.total_variation_vs(|x| normal_pdf(x, 0.0, out_sd));
    let uniform_halfwidth = out_sd * 3.0f64.sqrt();
    let tv_unif = out_hist.total_variation_vs(|x| {
        if x.abs() <= uniform_halfwidth {
            1.0 / (2.0 * uniform_halfwidth)
        } else {
            0.0
        }
    });
    mupod_experiments::report!(
        rep,
        "Output-error TV distance: vs N(0, σ²) = {} | vs uniform = {}",
        f(tv_gauss, 4),
        f(tv_unif, 4)
    );
    mupod_experiments::report!(
        rep,
        "=> output error is {} (paper: output error ≈ Gaussian)",
        if tv_gauss < tv_unif {
            "closer to Gaussian"
        } else {
            "NOT Gaussian-shaped — check the model"
        }
    );
    rep.finish();
    Ok(())
}
