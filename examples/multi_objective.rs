//! Multi-objective optimization: one profile, many hardware criteria.
//!
//! Demonstrates the workflow the paper highlights in §VI-A: profiling
//! and the σ-search are done once, then "changing the user constraints
//! only requires re-running the last optimization step". The example optimizes NiN for
//! three different criteria — input bandwidth, MAC energy, and a custom
//! objective that only weights the expensive spatial convolutions — and
//! compares the resulting allocations on both cost models.
//!
//! ```sh
//! cargo run --release --example multi_objective
//! ```

use mupod::core::{Objective, PrecisionOptimizer};
use mupod::data::{Dataset, DatasetSpec};
use mupod::hw::{bandwidth, MacEnergyModel};
use mupod::models::{calibrate::calibrate_head, ModelKind, ModelScale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = ModelScale::small();
    let mut net = ModelKind::Nin.build(&scale, 7);
    let spec = DatasetSpec::new(scale.classes, 3, scale.input_hw, scale.input_hw);
    let calib = Dataset::generate(&spec, 11, 192);
    let eval = Dataset::generate(&spec, 12, 96);
    calibrate_head(&mut net, &calib, 0.1)?;

    let layers = ModelKind::Nin.analyzable_layers(&net);
    // Profile and search σ once (the expensive stages)...
    let prepared = PrecisionOptimizer::new(&net, &eval)
        .layers(layers.clone())
        .relative_accuracy_loss(0.035)
        .prepare()?;
    println!(
        "profiled {} layers; σ_YŁ = {:.4}",
        layers.len(),
        prepared.sigma.sigma
    );
    let macs: Vec<u64> = layers
        .iter()
        .map(|&id| prepared.inventory.find(id).unwrap().macs)
        .collect();
    let inputs: Vec<u64> = layers
        .iter()
        .map(|&id| prepared.inventory.find(id).unwrap().input_elems)
        .collect();

    // ...then allocate for each criterion from the same preparation.
    // A custom ρ: only spatial (non-1x1) convolutions matter.
    let custom_rho: Vec<f64> = layers
        .iter()
        .zip(&macs)
        .map(|(&id, &m)| match &net.node(id).op {
            mupod::nn::Op::Conv2d { params, .. } if params.kernel > 1 => m as f64,
            _ => 1.0,
        })
        .collect();
    let objectives = vec![
        ("bandwidth", Objective::Bandwidth),
        ("mac-energy", Objective::MacEnergy),
        ("spatial-only", Objective::Custom(custom_rho)),
    ];

    let model = MacEnergyModel::dwip_40nm();
    println!();
    println!(
        "{:<14} {:<40} {:>12} {:>12}",
        "objective", "bits per layer", "input kbits", "energy µJ"
    );
    for (name, objective) in objectives {
        let result = prepared.allocate(&objective)?;
        let bits = result.allocation.bits();
        let traffic = bandwidth::total_input_bits(&inputs, &bits) / 1e3;
        let energy = model.network_energy(&macs, &bits, 8) / 1e6;
        println!(
            "{:<14} {:<40} {:>12.1} {:>12.3}",
            name,
            format!("{bits:?}"),
            traffic,
            energy
        );
    }
    println!();
    println!(
        "Each criterion shifts bits toward the layers it cares about — the\n\
         trade-off of the paper's Fig. 4."
    );
    Ok(())
}
