//! Weight bitwidth search (§V-E).
//!
//! Stripes/Loom pick a single weight bitwidth per network; the paper
//! integrates "the same method at the end of the input optimization
//! process": after input formats are fixed, lower the uniform weight
//! bitwidth while the accuracy constraint still holds. The search is a
//! simple descending scan — weight quantization accuracy is monotone
//! enough in practice, and the candidate range is tiny (1..=16).

use crate::eval::AccuracyEvaluator;
use mupod_nn::{Network, NodeId};
use mupod_quant::FixedPointFormat;
use std::collections::HashMap;

/// Finds the smallest uniform weight bitwidth in `[min_bits, max_bits]`
/// that keeps accuracy at or above `target_accuracy`, with the given
/// per-layer *input* formats simultaneously applied. `evaluator` must
/// be built over `net`: every candidate is scored against its
/// full-precision reference, so one reference pass serves them all.
///
/// Returns `(weight_bits, accuracy)`; falls back to `max_bits` and its
/// accuracy if even that violates the target (the caller can then
/// relax its budget).
///
/// # Panics
///
/// Panics if `min_bits == 0` or `min_bits > max_bits`.
pub fn search_weight_bits(
    net: &Network,
    evaluator: &AccuracyEvaluator<'_>,
    input_formats: &HashMap<NodeId, FixedPointFormat>,
    target_accuracy: f64,
    min_bits: u32,
    max_bits: u32,
) -> (u32, f64) {
    assert!(min_bits > 0, "weight bitwidth must be positive");
    assert!(min_bits <= max_bits, "empty weight bitwidth range");
    let accuracy_at = |bits| {
        evaluator.accuracy_of_network_with_formats(&net.with_quantized_weights(bits), input_formats)
    };
    let mut chosen = (max_bits, accuracy_at(max_bits));
    if chosen.1 >= target_accuracy {
        for bits in (min_bits..max_bits).rev() {
            let acc = accuracy_at(bits);
            if acc < target_accuracy {
                break;
            }
            chosen = (bits, acc);
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::AccuracyMode;
    use mupod_data::{Dataset, DatasetSpec};
    use mupod_models::{calibrate::calibrate_head, ModelKind, ModelScale};

    /// A calibrated tiny network, its data and generous input formats
    /// (so weights dominate the error).
    fn setup(kind: ModelKind, seed: u64) -> (Network, Dataset, HashMap<NodeId, FixedPointFormat>) {
        let scale = ModelScale::tiny();
        let mut net = kind.build(&scale, seed);
        let spec = DatasetSpec::new(scale.classes, 3, scale.input_hw, scale.input_hw);
        let data = Dataset::generate(&spec, seed + 1, 32);
        calibrate_head(&mut net, &data, 0.1).unwrap();
        let formats = net
            .dot_product_layers()
            .into_iter()
            .map(|l| (l, FixedPointFormat::new(12, 10)))
            .collect();
        (net, data, formats)
    }

    /// What the search must return, read off a direct scan of every
    /// width from `max_bits` down: the narrowest width of the passing
    /// run, or `max_bits` with its accuracy when even that fails.
    fn scanned(
        net: &Network,
        ev: &AccuracyEvaluator<'_>,
        formats: &HashMap<NodeId, FixedPointFormat>,
        target: f64,
        min_bits: u32,
        max_bits: u32,
    ) -> (u32, u64) {
        let scan: Vec<(u32, f64)> = (min_bits..=max_bits)
            .rev()
            .map(|b| {
                let q = net.with_quantized_weights(b);
                (b, ev.accuracy_of_network_with_formats(&q, formats))
            })
            .collect();
        let passing = scan.iter().take_while(|(_, acc)| *acc >= target).last();
        let (bits, acc) = passing.copied().unwrap_or(scan[0]);
        (bits, acc.to_bits())
    }

    fn searched(
        net: &Network,
        ev: &AccuracyEvaluator<'_>,
        formats: &HashMap<NodeId, FixedPointFormat>,
        target: f64,
        min_bits: u32,
        max_bits: u32,
    ) -> (u32, u64) {
        let (bits, acc) = search_weight_bits(net, ev, formats, target, min_bits, max_bits);
        (bits, acc.to_bits())
    }

    #[test]
    fn weight_search_returns_feasible_bits() {
        let (net, data, formats) = setup(ModelKind::AlexNet, 131);
        let ev = AccuracyEvaluator::new(&net, &data, AccuracyMode::FpAgreement);
        let (bits, acc) = search_weight_bits(&net, &ev, &formats, 0.9, 2, 16);
        assert_eq!(
            (bits, acc.to_bits()),
            scanned(&net, &ev, &formats, 0.9, 2, 16)
        );
        assert!((2..=16).contains(&bits));
        assert!(
            acc >= 0.9 || bits == 16,
            "reported accuracy {acc} at {bits} bits"
        );
        // The paper's W column sits in the 8-11 bit range; sanity-check
        // ours is not absurdly large.
        assert!(bits <= 14, "weight bits {bits} unexpectedly high");
    }

    #[test]
    fn lower_target_allows_fewer_weight_bits() {
        let (net, data, formats) = setup(ModelKind::Nin, 133);
        let ev = AccuracyEvaluator::new(&net, &data, AccuracyMode::FpAgreement);
        let loose = searched(&net, &ev, &formats, 0.7, 1, 16);
        let tight = searched(&net, &ev, &formats, 0.99, 1, 16);
        assert_eq!(loose, scanned(&net, &ev, &formats, 0.7, 1, 16));
        assert_eq!(tight, scanned(&net, &ev, &formats, 0.99, 1, 16));
        assert!(loose.0 <= tight.0, "{} > {}", loose.0, tight.0);
    }

    #[test]
    fn unreachable_target_reports_max_bits_and_its_accuracy() {
        let (net, data, formats) = setup(ModelKind::AlexNet, 131);
        let ev = AccuracyEvaluator::new(&net, &data, AccuracyMode::FpAgreement);
        let got = searched(&net, &ev, &formats, 1.5, 2, 12);
        assert_eq!(got, scanned(&net, &ev, &formats, 1.5, 2, 12));
        assert_eq!(got.0, 12);
    }
}
