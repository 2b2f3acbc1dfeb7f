//! Accelerator cost modelling: what a bitwidth allocation buys on
//! bit-serial hardware (Stripes / Loom) and on a parallel MAC datapath.
//!
//! Takes a SqueezeNet allocation from the analytical optimizer and a
//! uniform-search baseline, then reports:
//!
//! * Stripes-style speedup (cycles ∝ activation bits),
//! * Loom-style speedup (cycles ∝ activation × weight bits),
//! * DesignWare-style MAC energy, and
//! * DRAM input-traffic per inference,
//!
//! for both allocations — the full set of hardware quantities behind the
//! paper's Table III columns.
//!
//! ```sh
//! cargo run --release --example accelerator_energy
//! ```

use mupod::baselines::uniform_search;
use mupod::core::{search_weight_bits, Objective, PrecisionOptimizer};
use mupod::data::{Dataset, DatasetSpec};
use mupod::hw::{bandwidth, BitSerialModel, MacEnergyModel};
use mupod::models::{calibrate::calibrate_head, ModelKind, ModelScale};
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = ModelScale::small();
    let mut net = ModelKind::SqueezeNet.build(&scale, 9);
    let spec = DatasetSpec::new(scale.classes, 3, scale.input_hw, scale.input_hw);
    let calib = Dataset::generate(&spec, 21, 192);
    let eval = Dataset::generate(&spec, 22, 96);
    calibrate_head(&mut net, &calib, 0.1)?;

    let layers = ModelKind::SqueezeNet.analyzable_layers(&net);
    let prepared = PrecisionOptimizer::new(&net, &eval)
        .layers(layers.clone())
        .relative_accuracy_loss(0.05)
        .prepare()?;
    let (inventory, target) = (&prepared.inventory, prepared.target);

    // Baseline and optimized allocations at the same 5% budget.
    let base = uniform_search(&prepared.evaluator, inventory, &layers, target, 16);
    let opt = prepared.allocate(&Objective::MacEnergy)?;

    // §V-E weight search on top of the optimized inputs.
    let formats: HashMap<_, _> = layers
        .iter()
        .zip(opt.allocation.layers())
        .map(|(&id, lf)| (id, lf.format))
        .collect();
    let (weight_bits, w_acc) =
        search_weight_bits(&net, &prepared.evaluator, &formats, target, 2, 16);
    println!("weight bitwidth W = {weight_bits} (accuracy with W and inputs reduced: {w_acc:.3})");

    let macs: Vec<u64> = layers
        .iter()
        .map(|&id| inventory.find(id).unwrap().macs)
        .collect();
    let inputs: Vec<u64> = layers
        .iter()
        .map(|&id| inventory.find(id).unwrap().input_elems)
        .collect();
    let work: Vec<f64> = macs.iter().map(|&m| m as f64).collect();

    let stripes = BitSerialModel::stripes();
    let loom = BitSerialModel::loom();
    let energy = MacEnergyModel::dwip_40nm();

    println!();
    println!("{:<22} {:>14} {:>14}", "metric", "baseline", "optimized");
    let rows: Vec<(&str, f64, f64)> = vec![
        (
            "Stripes speedup (x)",
            stripes.speedup(&base.allocation.bits(), &work, weight_bits),
            stripes.speedup(&opt.allocation.bits(), &work, weight_bits),
        ),
        (
            "Loom speedup (x)",
            loom.speedup(&base.allocation.bits(), &work, weight_bits),
            loom.speedup(&opt.allocation.bits(), &work, weight_bits),
        ),
        (
            "MAC energy (uJ)",
            energy.network_energy(&macs, &base.allocation.bits(), weight_bits) / 1e6,
            energy.network_energy(&macs, &opt.allocation.bits(), weight_bits) / 1e6,
        ),
        (
            "input traffic (kbit)",
            bandwidth::total_input_bits(&inputs, &base.allocation.bits()) / 1e3,
            bandwidth::total_input_bits(&inputs, &opt.allocation.bits()) / 1e3,
        ),
    ];
    for (name, b, o) in rows {
        println!("{name:<22} {b:>14.3} {o:>14.3}");
    }
    println!();
    println!(
        "accuracy: baseline {:.3}, optimized {:.3} (floor {:.3})",
        base.accuracy, opt.validated_accuracy, target
    );
    Ok(())
}
