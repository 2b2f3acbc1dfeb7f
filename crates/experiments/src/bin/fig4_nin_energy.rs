//! EXP-F4 — Fig. 4: NiN per-layer bitwidths and MAC energy.
//!
//! The paper's Fig. 4 shows the energy-optimized allocation on NiN's 12
//! layers: bitwidth is *added* to power-cheap layers so that power-hungry
//! layers (1, 4, 7, 10 — the spatial convolutions) can shed bits,
//! buying a 22.8 % total MAC-energy saving at a small bandwidth cost.
//! This binary prints the per-layer baseline-vs-optimized bitwidths, the
//! per-layer energies, and both totals.

use mupod_baselines::uniform_search;
use mupod_core::{Objective, PrecisionOptimizer, ProfileConfig};
use mupod_experiments::{f, find_layer, markdown_table, pct, prepare, ExperimentError, RunSize};
use mupod_hw::{bandwidth, MacEnergyModel};
use mupod_models::ModelKind;

fn main() {
    mupod_experiments::exit_on_error(run());
}

fn run() -> Result<(), ExperimentError> {
    let mut rep = mupod_experiments::Report::from_args();
    let size = RunSize::from_args();
    let prepared = prepare(ModelKind::Nin, &size)?;
    let net = &prepared.net;
    let layers = ModelKind::Nin.analyzable_layers(net);
    // The paper uses NiN at a 3.5% accuracy target (footnote 1: Stripes'
    // own NiN bitwidths lose 3.5%, so they matched it).
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
        .map_err(|e| ExperimentError::Optimize(format!("mac optimization: {e}")))?;
    let inventory = &prep.inventory;

    let base = uniform_search(&prep.evaluator, inventory, &layers, prep.target, 16);
    let opt = prep
        .allocate(&Objective::MacEnergy)
        .map_err(|e| ExperimentError::Optimize(format!("mac optimization: {e}")))?;

    let model = MacEnergyModel::dwip_40nm();
    let weight_bits = 8;
    let mut macs: Vec<u64> = Vec::with_capacity(layers.len());
    let mut inputs: Vec<u64> = Vec::with_capacity(layers.len());
    for &id in &layers {
        let info = find_layer(inventory, id)?;
        macs.push(info.macs);
        inputs.push(info.input_elems);
    }
    let base_bits = base.allocation.bits();
    let opt_bits = opt.allocation.bits();

    mupod_experiments::report!(rep, "# EXP-F4: NiN per-layer MAC energy (Fig. 4)");
    mupod_experiments::report!(rep);
    let mut rows: Vec<Vec<String>> = Vec::with_capacity(layers.len());
    for k in 0..layers.len() {
        rows.push(vec![
            format!("{}", k + 1),
            find_layer(inventory, layers[k])?.name.clone(),
            format!("{:.2}", macs[k] as f64 / 1e6),
            base_bits[k].to_string(),
            opt_bits[k].to_string(),
            f(
                model.layer_energy(macs[k], base_bits[k], weight_bits) / 1e6,
                3,
            ),
            f(
                model.layer_energy(macs[k], opt_bits[k], weight_bits) / 1e6,
                3,
            ),
        ]);
    }
    mupod_experiments::report!(
        rep,
        "{}",
        markdown_table(
            &[
                "#",
                "layer",
                "MAC(x10^6)",
                "base bits",
                "opt bits",
                "base uJ",
                "opt uJ",
            ],
            &rows
        )
    );

    let e_base = model.network_energy(&macs, &base_bits, weight_bits);
    let e_opt = model.network_energy(&macs, &opt_bits, weight_bits);
    let bw_base = bandwidth::total_input_bits(&inputs, &base_bits);
    let bw_opt = bandwidth::total_input_bits(&inputs, &opt_bits);
    mupod_experiments::report!(rep);
    mupod_experiments::report!(
        rep,
        "Total MAC energy: baseline {} µJ -> optimized {} µJ  ({}% saving; paper: 22.8%)",
        f(e_base / 1e6, 3),
        f(e_opt / 1e6, 3),
        pct(MacEnergyModel::saving_percent(e_base, e_opt))
    );
    mupod_experiments::report!(
        rep,
        "Bandwidth cost of the energy objective: {}% (paper: 5.6% WORSE than baseline)",
        pct(bandwidth::saving_percent(bw_base, bw_opt))
    );
    let heavy: Vec<usize> = (0..layers.len())
        .filter(|&k| macs[k] as f64 > 1.5 * macs.iter().sum::<u64>() as f64 / macs.len() as f64)
        .map(|k| k + 1)
        .collect();
    mupod_experiments::report!(
        rep,
        "Power-hungry layers (above 1.5x mean MACs): {heavy:?} — these should have\n\
         opt bits <= base bits while cheap layers may gain bits."
    );
    rep.finish();
    Ok(())
}
