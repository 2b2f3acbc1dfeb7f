//! Linear-probe calibration of the classifier head.
//!
//! The paper uses networks trained on ImageNet; this reproduction cannot
//! (see `DESIGN.md`). Instead, each zoo network keeps its He-initialized
//! feature extractor frozen and re-fits only the final classifier layer
//! with ridge regression on the synthetic dataset — a *linear probe* on
//! random convolutional features. The result is a network with genuinely
//! above-chance accuracy whose accuracy-vs-noise curve is smooth and
//! monotone, which is all the paper's binary search (§V-C) needs.
//!
//! Two head shapes are supported, covering all eight zoo models:
//!
//! * a final [`Op::FullyConnected`] layer (AlexNet, VGG, GoogleNet,
//!   ResNets, MobileNet);
//! * a final 1×1 [`Op::Conv2d`] followed by [`Op::GlobalAvgPool`] (NiN,
//!   SqueezeNet) — GAP commutes with the 1×1 convolution, so the probe
//!   fits on globally-pooled features and writes the weights back into
//!   the convolution.

use mupod_data::Dataset;
use mupod_nn::{ExecArena, Network, NodeId, Op, Run};
use mupod_stats::linalg::{ridge_regression, Matrix, SolveError};
use mupod_tensor::pool::global_avg_pool;
use mupod_tensor::Tensor;

/// Errors from [`calibrate_head`].
#[derive(Debug, Clone, PartialEq)]
pub enum CalibrateError {
    /// The network's output structure is not a supported head shape.
    UnsupportedHead(String),
    /// The dataset is empty.
    EmptyDataset,
    /// The ridge solve failed (alpha too small for the feature rank).
    Solve(SolveError),
}

impl std::fmt::Display for CalibrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalibrateError::UnsupportedHead(s) => {
                write!(f, "unsupported classifier head: {s}")
            }
            CalibrateError::EmptyDataset => write!(f, "calibration dataset is empty"),
            CalibrateError::Solve(e) => write!(f, "ridge solve failed: {e}"),
        }
    }
}

impl std::error::Error for CalibrateError {}

impl From<SolveError> for CalibrateError {
    fn from(e: SolveError) -> Self {
        CalibrateError::Solve(e)
    }
}

/// Outcome of a head calibration.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationReport {
    /// Name of the re-fitted layer.
    pub head_layer: String,
    /// Top-1 accuracy on the calibration set before re-fitting.
    pub accuracy_before: f64,
    /// Top-1 accuracy on the calibration set after re-fitting.
    pub accuracy_after: f64,
    /// Feature dimensionality seen by the probe.
    pub feature_dim: usize,
}

/// The two recognized head shapes.
enum Head {
    /// Final FC layer; features are its rank-1 input.
    Fc(NodeId),
    /// Final 1×1 conv followed by GAP; features are GAP of the conv
    /// input.
    ConvGap(NodeId),
}

fn identify_head(net: &Network) -> Result<Head, CalibrateError> {
    let out = net.output_id();
    match &net.node(out).op {
        Op::FullyConnected { .. } => Ok(Head::Fc(out)),
        Op::GlobalAvgPool => {
            let producer = net.node(out).inputs[0];
            match &net.node(producer).op {
                Op::Conv2d { params, .. } if params.kernel == 1 && params.groups == 1 => {
                    Ok(Head::ConvGap(producer))
                }
                op => Err(CalibrateError::UnsupportedHead(format!(
                    "global pool fed by {}, expected a 1x1 convolution",
                    op.mnemonic()
                ))),
            }
        }
        op => Err(CalibrateError::UnsupportedHead(format!(
            "output op is {}, expected fc or gap",
            op.mnemonic()
        ))),
    }
}

/// Extracts the probe feature vector for one image.
///
/// Runs on a caller-owned [`ExecArena`] so the per-image forward pass
/// allocates nothing.
fn features(net: &Network, head: &Head, image: &Tensor, arena: &mut ExecArena) -> Vec<f64> {
    net.run(Run::image(image), arena)
        .expect("an unvalidated run cannot fail");
    let acts = arena.activations(0);
    match head {
        Head::Fc(fc) => {
            let producer = net.node(*fc).inputs[0];
            acts.get(producer)
                .data()
                .iter()
                .map(|&v| v as f64)
                .collect()
        }
        Head::ConvGap(conv) => {
            let producer = net.node(*conv).inputs[0];
            global_avg_pool(acts.get(producer))
                .data()
                .iter()
                .map(|&v| v as f64)
                .collect()
        }
    }
}

/// Re-fits the network's classifier head on `dataset` by ridge
/// regression of one-hot targets onto frozen features.
///
/// `alpha` is the ridge regularizer (try `1e-3 · n` for `n` samples; the
/// exact value is uncritical).
///
/// # Errors
///
/// Returns [`CalibrateError::UnsupportedHead`] for unrecognized head
/// shapes, [`CalibrateError::EmptyDataset`] for an empty dataset, and
/// [`CalibrateError::Solve`] if the regularized normal equations are
/// still singular.
pub fn calibrate_head(
    net: &mut Network,
    dataset: &Dataset,
    alpha: f64,
) -> Result<CalibrationReport, CalibrateError> {
    if dataset.is_empty() {
        return Err(CalibrateError::EmptyDataset);
    }
    let mut arena = ExecArena::for_network(net);
    let accuracy_before = dataset.accuracy_of(|img| net.classify_arena(img, &mut arena));
    let (head_layer, feature_dim) = fit_head(net, dataset, alpha, &mut arena)?;
    let accuracy_after = dataset.accuracy_of(|img| net.classify_arena(img, &mut arena));
    Ok(CalibrationReport {
        head_layer,
        accuracy_before,
        accuracy_after,
        feature_dim,
    })
}

/// [`calibrate_head`] without the before/after accuracy sweeps.
///
/// The sweeps exist only to fill [`CalibrationReport`]; they cost two
/// full passes over the dataset, which dominates pipeline start-up when
/// the caller discards the report (as the CLI's prepare stage does). The
/// fitted weights are bit-identical to [`calibrate_head`]'s.
///
/// # Errors
///
/// As for [`calibrate_head`].
pub fn calibrate_head_quick(
    net: &mut Network,
    dataset: &Dataset,
    alpha: f64,
) -> Result<(), CalibrateError> {
    if dataset.is_empty() {
        return Err(CalibrateError::EmptyDataset);
    }
    let mut arena = ExecArena::for_network(net);
    fit_head(net, dataset, alpha, &mut arena).map(|_| ())
}

/// Shared core of the calibrators: fits the ridge probe and writes the
/// head weights back, returning the head layer's name and the feature
/// dimensionality.
fn fit_head(
    net: &mut Network,
    dataset: &Dataset,
    alpha: f64,
    arena: &mut ExecArena,
) -> Result<(String, usize), CalibrateError> {
    let head = identify_head(net)?;
    let classes = dataset.spec().classes;

    // Design matrix with a trailing bias column of ones.
    let n = dataset.len();
    let d = features(net, &head, dataset.sample(0).0, arena).len();
    let mut x = Matrix::zeros(n, d + 1);
    let mut y = Matrix::zeros(n, classes);
    for (i, (img, label)) in dataset.iter().enumerate() {
        let f = features(net, &head, img, arena);
        let row = x.row_mut(i);
        row[..d].copy_from_slice(&f);
        row[d] = 1.0;
        // Centered one-hot targets give zero-mean logits.
        for c in 0..classes {
            y[(i, c)] = if c == label {
                1.0
            } else {
                -1.0 / (classes as f64 - 1.0)
            };
        }
    }
    let w = ridge_regression(&x, &y, alpha)?;

    // Write the fit back into the head layer.
    let (head_id, head_name) = match head {
        Head::Fc(id) | Head::ConvGap(id) => (id, net.node(id).name.clone()),
    };
    let mut bias = vec![0.0f32; classes];
    for (c, b) in bias.iter_mut().enumerate() {
        *b = w[(d, c)] as f32;
    }
    let weight = match &net.node(head_id).op {
        Op::FullyConnected { .. } => {
            let mut data = vec![0.0f32; classes * d];
            for c in 0..classes {
                for j in 0..d {
                    data[c * d + j] = w[(j, c)] as f32;
                }
            }
            Tensor::from_vec(&[classes, d], data)
        }
        Op::Conv2d { .. } => {
            let mut data = vec![0.0f32; classes * d];
            for c in 0..classes {
                for j in 0..d {
                    data[c * d + j] = w[(j, c)] as f32;
                }
            }
            Tensor::from_vec(&[classes, d, 1, 1], data)
        }
        _ => unreachable!("head is a dot-product layer by construction"),
    };
    net.set_layer_weights(head_id, weight, bias);
    Ok((head_name, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelKind, ModelScale};
    use mupod_data::DatasetSpec;

    fn calib_dataset(scale: &ModelScale, n: usize) -> Dataset {
        let spec = DatasetSpec::new(scale.classes, 3, scale.input_hw, scale.input_hw);
        Dataset::generate(&spec, 101, n)
    }

    #[test]
    fn calibration_beats_chance_on_fc_head() {
        let scale = ModelScale::tiny();
        let mut net = ModelKind::AlexNet.build(&scale, 55);
        let data = calib_dataset(&scale, 96);
        let report = calibrate_head(&mut net, &data, 1e-1).unwrap();
        let chance = 1.0 / scale.classes as f64;
        assert!(
            report.accuracy_after > 2.0 * chance,
            "probe accuracy {} too close to chance {chance}",
            report.accuracy_after
        );
        assert!(report.accuracy_after >= report.accuracy_before);
        assert_eq!(report.head_layer, "fc8");
    }

    #[test]
    fn calibration_works_on_conv_gap_head() {
        let scale = ModelScale::tiny();
        let mut net = ModelKind::Nin.build(&scale, 56);
        let data = calib_dataset(&scale, 96);
        let report = calibrate_head(&mut net, &data, 1e-1).unwrap();
        let chance = 1.0 / scale.classes as f64;
        assert!(
            report.accuracy_after > 2.0 * chance,
            "probe accuracy {} too close to chance {chance}",
            report.accuracy_after
        );
        assert_eq!(report.head_layer, "cccp8");
    }

    #[test]
    fn calibrated_accuracy_generalizes() {
        // Accuracy on fresh images (same distribution) stays well above
        // chance: the probe learns the classes, not the samples.
        let scale = ModelScale::tiny();
        let mut net = ModelKind::SqueezeNet.build(&scale, 57);
        let spec =
            DatasetSpec::new(scale.classes, 3, scale.input_hw, scale.input_hw).with_class_seed(77);
        let train = Dataset::generate(&spec, 300, 128);
        let test = Dataset::generate(&spec, 301, 64);
        calibrate_head(&mut net, &train, 1e-1).unwrap();
        let acc = test.accuracy_of(|img| net.classify(img));
        let chance = 1.0 / scale.classes as f64;
        assert!(acc > 1.5 * chance, "held-out accuracy {acc}");
    }

    #[test]
    fn empty_dataset_rejected() {
        let scale = ModelScale::tiny();
        let mut net = ModelKind::AlexNet.build(&scale, 58);
        let data = calib_dataset(&scale, 0);
        assert_eq!(
            calibrate_head(&mut net, &data, 1.0).unwrap_err(),
            CalibrateError::EmptyDataset
        );
    }
}
