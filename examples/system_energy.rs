//! A designer-defined objective: total system energy (MAC + DRAM).
//!
//! The paper closes §VI-A with "it is conceivable that designers can
//! formulate different optimization criteria using our framework". This
//! example does exactly that: since both MAC energy and memory energy
//! are (approximately) linear in each layer's bitwidth, the derivative
//! of total system energy with respect to `B_K` is itself a per-layer
//! constant — a valid `ρ_K` for Eq. 8:
//!
//! `ρ_K = #MAC_K · e_mult · W  +  #Input_K · e_mem(hit rate)`
//!
//! The run compares three allocations (bandwidth-optimal, MAC-optimal,
//! system-optimal) under the full cost breakdown.
//!
//! ```sh
//! cargo run --release --example system_energy
//! ```

use mupod::core::{Objective, PrecisionOptimizer};
use mupod::data::{Dataset, DatasetSpec};
use mupod::hw::memory::{system_energy, MemoryEnergyModel};
use mupod::hw::MacEnergyModel;
use mupod::models::{calibrate::calibrate_head, ModelKind, ModelScale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = ModelScale::small();
    let mut net = ModelKind::SqueezeNet.build(&scale, 77);
    let spec =
        DatasetSpec::new(scale.classes, 3, scale.input_hw, scale.input_hw).with_class_seed(77);
    let calib = Dataset::generate(&spec, 78, 192);
    let eval = Dataset::generate(&spec, 79, 96);
    calibrate_head(&mut net, &calib, 0.1)?;

    let layers = ModelKind::SqueezeNet.analyzable_layers(&net);
    let prepared = PrecisionOptimizer::new(&net, &eval)
        .layers(layers.clone())
        .relative_accuracy_loss(0.05)
        .prepare()?;
    let inputs: Vec<u64> = layers
        .iter()
        .map(|&id| prepared.inventory.find(id).unwrap().input_elems)
        .collect();
    let macs: Vec<u64> = layers
        .iter()
        .map(|&id| prepared.inventory.find(id).unwrap().macs)
        .collect();

    let mac_model = MacEnergyModel::dwip_40nm();
    let mem_model = MemoryEnergyModel::default();
    let weight_bits = 8;
    let hit_rate = 0.85; // most reads hit the on-chip buffer

    // dE/dB_K: MAC term + memory term, per layer.
    let rho: Vec<f64> = macs
        .iter()
        .zip(&inputs)
        .map(|(&m, &n)| {
            let mac_term = m as f64 * (mac_model.e_mult * weight_bits as f64 + mac_model.e_add);
            let mem_term = n as f64
                * (hit_rate * mem_model.sram_pj_per_bit
                    + (1.0 - hit_rate) * mem_model.dram_pj_per_bit);
            mac_term + mem_term
        })
        .collect();

    let bw = prepared.allocate(&Objective::Bandwidth)?;
    let mac = prepared.allocate(&Objective::MacEnergy)?;
    let sys = prepared.allocate(&Objective::Custom(rho))?;

    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>10}",
        "allocation", "MAC µJ", "memory µJ", "total µJ", "accuracy"
    );
    for (name, result) in [
        ("opt-bandwidth", &bw),
        ("opt-mac", &mac),
        ("opt-system", &sys),
    ] {
        let cb = system_energy(
            &mac_model,
            &mem_model,
            &inputs,
            &macs,
            &result.allocation.bits(),
            weight_bits,
            hit_rate,
        );
        println!(
            "{:<18} {:>12.3} {:>12.3} {:>12.3} {:>10.3}",
            name,
            cb.mac_pj / 1e6,
            cb.memory_pj / 1e6,
            cb.total_pj() / 1e6,
            result.validated_accuracy
        );
    }
    println!();
    println!(
        "The system objective interpolates between the two single-resource\n\
         optima — the \"different optimization criteria\" the paper envisions."
    );
    Ok(())
}
