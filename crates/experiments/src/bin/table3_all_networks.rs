//! EXP-T3 — Table III: all eight networks × {1 %, 5 %} loss × two
//! objectives.
//!
//! For every network the binary reports, at both accuracy budgets:
//! the §V-E weight bitwidth `W`; the baseline (smallest feasible uniform
//! bitwidth, the paper's fallback when Stripes published no numbers);
//! the `Optimized Input` and `Optimized MAC` allocations, each scored
//! under *both* effective-bitwidth criteria (as the paper's Input / MAC
//! column pairs); the bandwidth saving; and the MAC energy saving under
//! the DesignWare-style energy model. Averages close the table.
//!
//! Profiling — the expensive stage — runs once per network and is shared
//! across both loss budgets and both objectives, exactly the workflow
//! §VI-A describes.
//!
//! Run with `--nets AlexNet,NiN,...` to restrict rows (ResNet-152 is the
//! slow one), `--loss 1` or `--loss 5` for one budget only, and
//! `--quick` for a smoke-sized run.

use mupod_baselines::uniform_search;
use mupod_core::{search_weight_bits, Objective, OptimizeError, PrecisionOptimizer, ProfileConfig};
use mupod_experiments::{
    f, find_layer, markdown_table, pct, prepare, ExperimentError, Prepared, RunSize,
};
use mupod_hw::{bandwidth, MacEnergyModel};
use mupod_models::ModelKind;
use mupod_quant::FixedPointFormat;
use std::collections::HashMap;

struct Row {
    name: String,
    layers: usize,
    weight_bits: u32,
    base_input_eff: f64,
    base_mac_eff: f64,
    oi_input_eff: f64,
    oi_mac_eff: f64,
    bw_save: f64,
    om_input_eff: f64,
    om_mac_eff: f64,
    energy_save: f64,
}

fn parse_filter() -> Result<(Vec<ModelKind>, Vec<f64>), ExperimentError> {
    let args: Vec<String> = std::env::args().collect();
    let mut kinds: Vec<ModelKind> = ModelKind::ALL.to_vec();
    let mut losses = vec![0.01, 0.05];
    for i in 0..args.len() {
        if args[i] == "--nets" && i + 1 < args.len() {
            kinds = args[i + 1]
                .split(',')
                .map(|n| {
                    ModelKind::ALL
                        .iter()
                        .copied()
                        .find(|k| k.name().eq_ignore_ascii_case(n.trim()))
                        .ok_or_else(|| {
                            ExperimentError::Usage(format!("unknown network `{}`", n.trim()))
                        })
                })
                .collect::<Result<_, _>>()?;
        }
        if args[i] == "--loss" && i + 1 < args.len() {
            let v: f64 = args[i + 1].parse().map_err(|_| {
                ExperimentError::Usage(format!("--loss wants a number, got `{}`", args[i + 1]))
            })?;
            losses = vec![v / 100.0];
        }
    }
    Ok((kinds, losses))
}

/// One prepared network plus everything objective-independent: one
/// profile, inventory and evaluator serve every loss budget, and the
/// current budget's σ serves both objectives.
struct NetContext<'a> {
    prepared: &'a Prepared,
    inputs: Vec<u64>,
    macs: Vec<u64>,
    rho_in: Vec<f64>,
    rho_mac: Vec<f64>,
    opt: mupod_core::Prepared<'a>,
}

fn build_context<'a>(
    prepared: &'a Prepared,
    loss: f64,
    size: &RunSize,
) -> Result<NetContext<'a>, ExperimentError> {
    let kind = prepared.kind;
    let layers = kind.analyzable_layers(&prepared.net);
    eprintln!("[{kind}: profiling {} layers]", layers.len());
    let opt = PrecisionOptimizer::new(&prepared.net, &prepared.eval)
        .layers(layers)
        .relative_accuracy_loss(loss)
        .profile_config(ProfileConfig {
            n_deltas: size.n_deltas,
            repeats: size.repeats,
            ..Default::default()
        })
        .profile_images(size.profile_images)
        .prepare()
        .map_err(|e| match e {
            OptimizeError::Profile(e) => ExperimentError::Profile(format!("{kind}: {e}")),
            e => ExperimentError::Optimize(format!("{kind}: {e}")),
        })?;
    let mut inputs: Vec<u64> = Vec::with_capacity(opt.layers.len());
    let mut macs: Vec<u64> = Vec::with_capacity(opt.layers.len());
    for &id in &opt.layers {
        let info = find_layer(&opt.inventory, id)?;
        inputs.push(info.input_elems);
        macs.push(info.macs);
    }
    Ok(NetContext {
        rho_in: inputs.iter().map(|&v| v as f64).collect(),
        rho_mac: macs.iter().map(|&v| v as f64).collect(),
        prepared,
        inputs,
        macs,
        opt,
    })
}

fn row_for(
    ctx: &NetContext<'_>,
    loss: f64,
    energy_model: &MacEnergyModel,
) -> Result<Row, ExperimentError> {
    let kind = ctx.prepared.kind;
    let opt = &ctx.opt;

    eprintln!("[{kind}: uniform baseline @ {:.0}%]", loss * 100.0);
    let base = uniform_search(&opt.evaluator, &opt.inventory, &opt.layers, opt.target, 16);
    let base_bits = base.allocation.bits();

    eprintln!("[{kind}: optimizing @ {:.0}%]", loss * 100.0);
    let oi = opt
        .allocate(&Objective::Bandwidth)
        .map_err(|e| ExperimentError::Optimize(format!("{kind} bandwidth: {e}")))?;
    let om = opt
        .allocate(&Objective::MacEnergy)
        .map_err(|e| ExperimentError::Optimize(format!("{kind} mac energy: {e}")))?;

    eprintln!("[{kind}: weight search @ {:.0}%]", loss * 100.0);
    let formats: HashMap<_, FixedPointFormat> = opt
        .layers
        .iter()
        .zip(oi.allocation.layers())
        .map(|(&id, lf)| (id, lf.format))
        .collect();
    let (weight_bits, _) = search_weight_bits(
        &ctx.prepared.net,
        &opt.evaluator,
        &formats,
        opt.target,
        2,
        16,
    );

    let eff = |bits: &[u32], rho: &[f64]| mupod_quant::effective_bitwidth(bits, rho);
    let oi_bits = oi.allocation.bits();
    let om_bits = om.allocation.bits();

    let bw_base = bandwidth::total_input_bits(&ctx.inputs, &base_bits);
    let bw_opt = bandwidth::total_input_bits(&ctx.inputs, &oi_bits);
    let e_base = energy_model.network_energy(&ctx.macs, &base_bits, weight_bits);
    let e_opt = energy_model.network_energy(&ctx.macs, &om_bits, weight_bits);

    Ok(Row {
        name: kind.name().to_string(),
        layers: opt.layers.len(),
        weight_bits,
        base_input_eff: eff(&base_bits, &ctx.rho_in),
        base_mac_eff: eff(&base_bits, &ctx.rho_mac),
        oi_input_eff: eff(&oi_bits, &ctx.rho_in),
        oi_mac_eff: eff(&oi_bits, &ctx.rho_mac),
        bw_save: bandwidth::saving_percent(bw_base, bw_opt),
        om_input_eff: eff(&om_bits, &ctx.rho_in),
        om_mac_eff: eff(&om_bits, &ctx.rho_mac),
        energy_save: MacEnergyModel::saving_percent(e_base, e_opt),
    })
}

fn main() {
    mupod_experiments::exit_on_error(run());
}

fn run() -> Result<(), ExperimentError> {
    let mut rep = mupod_experiments::Report::from_args();
    let size = RunSize::from_args();
    let (kinds, losses) = parse_filter()?;
    let energy_model = MacEnergyModel::dwip_40nm();

    mupod_experiments::report!(
        rep,
        "# EXP-T3: effective bitwidths across networks (Table III)"
    );
    let nets: Vec<Prepared> = kinds
        .iter()
        .map(|&k| {
            eprintln!("[{k}: preparing]");
            prepare(k, &size)
        })
        .collect::<Result<_, _>>()?;
    let mut contexts: Vec<NetContext<'_>> = nets
        .iter()
        .map(|p| build_context(p, losses[0], &size))
        .collect::<Result<_, _>>()?;

    for (l, &loss) in losses.iter().enumerate() {
        mupod_experiments::report!(rep);
        mupod_experiments::report!(rep, "## {:.0}% relative accuracy drop", loss * 100.0);
        mupod_experiments::report!(rep);
        let rows: Vec<Row> = contexts
            .iter_mut()
            .map(|ctx| {
                if l > 0 {
                    let kind = ctx.prepared.kind;
                    ctx.opt
                        .rebudget(loss)
                        .map_err(|e| ExperimentError::Optimize(format!("{kind}: {e}")))?;
                }
                row_for(ctx, loss, &energy_model)
            })
            .collect::<Result<_, _>>()?;

        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.layers.to_string(),
                    r.weight_bits.to_string(),
                    f(r.base_input_eff, 2),
                    f(r.base_mac_eff, 2),
                    f(r.oi_input_eff, 2),
                    f(r.oi_mac_eff, 2),
                    pct(r.bw_save),
                    f(r.om_input_eff, 2),
                    f(r.om_mac_eff, 2),
                    pct(r.energy_save),
                ]
            })
            .collect();
        mupod_experiments::report!(
            rep,
            "{}",
            markdown_table(
                &[
                    "network",
                    "#layers",
                    "W",
                    "Base In",
                    "Base MAC",
                    "OptIn In",
                    "OptIn MAC",
                    "BW save%",
                    "OptMAC In",
                    "OptMAC MAC",
                    "Ener save%",
                ],
                &table
            )
        );
        let avg = |get: &dyn Fn(&Row) -> f64| -> f64 {
            rows.iter().map(get).sum::<f64>() / rows.len() as f64
        };
        mupod_experiments::report!(
            rep,
            "Average BW saving: {}%  |  Average energy saving: {}%",
            pct(avg(&|r| r.bw_save)),
            pct(avg(&|r| r.energy_save))
        );
        mupod_experiments::report!(
            rep,
            "(paper averages: 12.3% BW / 23.8% energy at 1%; 8.8% BW / 17.8% energy at 5%)"
        );
    }
    rep.finish();
    Ok(())
}
