//! EXP-T2 — Table II: AlexNet optimized for two objectives at 1 %
//! relative accuracy loss.
//!
//! Reproduces the paper's case study end to end: per-layer `#Input`,
//! `#MAC` and `max|X_K|`; a baseline bitwidth assignment (the paper uses
//! Stripes' published (9,7,4,5,7); our scaled network gets the
//! equivalent — a Stripes-style greedy search); and the two optimized
//! rows `Opt_for_#Input` and `Opt_for_#MAC`, with total input bits /
//! MAC bits and the percentage savings. The paper reports 15 % input-
//! traffic saving and 9.5 % MAC-bit saving over its baseline.

use mupod_baselines::greedy_search;
use mupod_core::{Objective, PrecisionOptimizer, ProfileConfig};
use mupod_experiments::{find_layer, markdown_table, pct, prepare, ExperimentError, RunSize};
use mupod_models::ModelKind;

fn main() {
    mupod_experiments::exit_on_error(run());
}

fn run() -> Result<(), ExperimentError> {
    let mut rep = mupod_experiments::Report::from_args();
    let size = RunSize::from_args();
    let prepared = prepare(ModelKind::AlexNet, &size)?;
    let net = &prepared.net;
    let layers = ModelKind::AlexNet.analyzable_layers(net);
    // One profile, evaluator and σ serve the baseline and both
    // optimized rows.
    let opt = PrecisionOptimizer::new(net, &prepared.eval)
        .layers(layers.clone())
        .relative_accuracy_loss(0.01)
        .profile_config(ProfileConfig {
            n_deltas: size.n_deltas,
            repeats: size.repeats,
            ..Default::default()
        })
        .profile_images(size.profile_images)
        .prepare()
        .map_err(|e| ExperimentError::Optimize(format!("prepare: {e}")))?;
    let infos: Vec<_> = layers
        .iter()
        .map(|&id| find_layer(&opt.inventory, id).cloned())
        .collect::<Result<_, _>>()?;
    let target = opt.target;

    // Baseline: Stripes-style greedy search (the paper's baseline row is
    // Stripes' published search result).
    let rho_inputs: Vec<f64> = infos.iter().map(|i| i.input_elems as f64).collect();
    let baseline = greedy_search(
        &opt.evaluator,
        &opt.inventory,
        &layers,
        &rho_inputs,
        target,
        16,
    );
    let base_bits = baseline.allocation.bits();

    // Optimized rows.
    let opt_input = opt
        .allocate(&Objective::Bandwidth)
        .map_err(|e| ExperimentError::Optimize(format!("input objective: {e}")))?;
    let opt_mac = opt
        .allocate(&Objective::MacEnergy)
        .map_err(|e| ExperimentError::Optimize(format!("mac objective: {e}")))?;

    let input_bits_of = |bits: &[u32]| -> Vec<f64> {
        infos
            .iter()
            .zip(bits)
            .map(|(i, &b)| i.input_elems as f64 * b as f64)
            .collect()
    };
    let mac_bits_of = |bits: &[u32]| -> Vec<f64> {
        infos
            .iter()
            .zip(bits)
            .map(|(i, &b)| i.macs as f64 * b as f64)
            .collect()
    };
    let total = |v: &[f64]| v.iter().sum::<f64>();

    let in_base = input_bits_of(&base_bits);
    let mac_base = mac_bits_of(&base_bits);
    let in_opt = input_bits_of(&opt_input.allocation.bits());
    let mac_opt = mac_bits_of(&opt_mac.allocation.bits());

    mupod_experiments::report!(
        rep,
        "# EXP-T2: AlexNet multi-objective optimization (Table II)"
    );
    mupod_experiments::report!(rep);
    mupod_experiments::report!(
        rep,
        "σ_YŁ = {:.4} (paper: ≈0.32 on ImageNet-scale AlexNet), fp-agreement\n\
         accuracy, 1% relative loss, {} eval images.",
        opt_input.sigma.sigma,
        prepared.eval.len()
    );
    mupod_experiments::report!(rep);

    let mut header = vec!["row"];
    let names: Vec<String> = infos.iter().map(|i| i.name.clone()).collect();
    header.extend(names.iter().map(|s| s.as_str()));
    header.push("Total");

    let row = |label: &str, cells: Vec<String>, total: String| -> Vec<String> {
        let mut r = vec![label.to_string()];
        r.extend(cells);
        r.push(total);
        r
    };
    let rows = vec![
        row(
            "#Input(x10^3)",
            infos
                .iter()
                .map(|i| format!("{:.1}", i.input_elems as f64 / 1e3))
                .collect(),
            format!(
                "{:.1}",
                infos.iter().map(|i| i.input_elems).sum::<u64>() as f64 / 1e3
            ),
        ),
        row(
            "#MAC(x10^6)",
            infos
                .iter()
                .map(|i| format!("{:.2}", i.macs as f64 / 1e6))
                .collect(),
            format!(
                "{:.2}",
                infos.iter().map(|i| i.macs).sum::<u64>() as f64 / 1e6
            ),
        ),
        row(
            "max|X_K|",
            infos.iter().map(|i| format!("{:.0}", i.max_abs)).collect(),
            "-".into(),
        ),
        row(
            "Baseline (greedy)",
            base_bits.iter().map(|b| b.to_string()).collect(),
            "-".into(),
        ),
        row(
            "#Input_bits(x10^3)",
            in_base.iter().map(|v| format!("{:.1}", v / 1e3)).collect(),
            format!("{:.1}", total(&in_base) / 1e3),
        ),
        row(
            "#MAC_bits(x10^6)",
            mac_base.iter().map(|v| format!("{:.1}", v / 1e6)).collect(),
            format!("{:.1}", total(&mac_base) / 1e6),
        ),
        row(
            "Opt_for_#Input",
            opt_input
                .allocation
                .bits()
                .iter()
                .map(|b| b.to_string())
                .collect(),
            "-".into(),
        ),
        row(
            "#Input_bits(x10^3)",
            in_opt.iter().map(|v| format!("{:.1}", v / 1e3)).collect(),
            format!("{:.1}", total(&in_opt) / 1e3),
        ),
        row(
            "Opt_for_#MAC",
            opt_mac
                .allocation
                .bits()
                .iter()
                .map(|b| b.to_string())
                .collect(),
            "-".into(),
        ),
        row(
            "#MAC_bits(x10^6)",
            mac_opt.iter().map(|v| format!("{:.1}", v / 1e6)).collect(),
            format!("{:.1}", total(&mac_opt) / 1e6),
        ),
    ];
    mupod_experiments::report!(rep, "{}", markdown_table(&header, &rows));

    let input_saving = (1.0 - total(&in_opt) / total(&in_base)) * 100.0;
    let mac_saving = (1.0 - total(&mac_opt) / total(&mac_base)) * 100.0;
    mupod_experiments::report!(rep);
    mupod_experiments::report!(
        rep,
        "Input-traffic saving vs baseline: {}%  (paper: 15% vs Stripes baseline)",
        pct(input_saving)
    );
    mupod_experiments::report!(
        rep,
        "MAC-bits saving vs baseline:      {}%  (paper: 9.5%)",
        pct(mac_saving)
    );
    mupod_experiments::report!(
        rep,
        "Validated accuracies: opt-input {:.3}, opt-mac {:.3} (target {:.3}; baseline {:.3})",
        opt_input.validated_accuracy,
        opt_mac.validated_accuracy,
        target,
        baseline.accuracy
    );
    mupod_experiments::report!(rep,
        "Baseline search spent {} accuracy evaluations; analytical method spent {} (σ search only).",
        baseline.evaluations, opt_input.sigma.evaluations
    );
    rep.finish();
    Ok(())
}
