//! Accuracy evaluation under noise injection and quantization.
//!
//! All evaluation paths are **image-parallel**: workers claim image
//! indices off a shared atomic cursor, each owning one reusable
//! [`ExecArena`] and one tap clone. Determinism is per-index — every
//! image's noise stream is forked from the seed by its position, never
//! by worker schedule — so results are bit-identical for any thread
//! count, which the test suite asserts.

use mupod_data::Dataset;
use mupod_nn::tap::{
    gaussian_output_noise, InputTap, NoTap, QuantizeTap, StochasticQuantizeTap, UniformNoiseTap,
};
use mupod_nn::{ExecArena, KernelTier, Network, NodeId, Run};
use mupod_quant::{BitwidthAllocation, FixedPointFormat};
use mupod_stats::SeededRng;
use mupod_tensor::Tensor;
use std::collections::HashMap;

/// Runs `predict` over every image, parallelized over an atomic cursor.
///
/// Each worker builds its own state once via `make_state` (an execution
/// arena plus any tap template) and reuses it across the images it
/// claims. `predict` must be deterministic given `(state, index, image)`
/// — index-keyed, not schedule-keyed — so the output is identical for
/// any `threads`.
fn predict_all<S: Send>(
    images: &[Tensor],
    threads: usize,
    make_state: impl Fn() -> S + Sync,
    predict: impl Fn(&mut S, usize, &Tensor) -> usize + Sync,
) -> Vec<usize> {
    let threads = threads.min(images.len()).max(1);
    if threads <= 1 {
        let mut state = make_state();
        return images
            .iter()
            .enumerate()
            .map(|(i, img)| predict(&mut state, i, img))
            .collect();
    }
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let locals: Vec<Vec<(usize, usize)>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let cursor = &cursor;
            let make_state = &make_state;
            let predict = &predict;
            handles.push(scope.spawn(move || {
                let mut state = make_state();
                let mut local = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(img) = images.get(i) else {
                        break;
                    };
                    local.push((i, predict(&mut state, i, img)));
                }
                local
            }));
        }
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(local) => local,
                // Propagate a worker panic (e.g. a failed kernel assert)
                // instead of swallowing it into a wrong accuracy number.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut out = vec![0usize; images.len()];
    for (i, p) in locals.into_iter().flatten() {
        out[i] = p;
    }
    out
}

/// What counts as the "correct" label when measuring accuracy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccuracyMode {
    /// The dataset's generator labels (ordinary top-1 accuracy).
    GeneratorLabels,
    /// Agreement with the full-precision model's own predictions —
    /// measures *relative* accuracy directly: the fp32 reference scores
    /// 100 % by construction, exactly the quantity "relative accuracy
    /// drop" compares against.
    FpAgreement,
}

/// Evaluates a network's accuracy on a dataset under various
/// perturbations.
///
/// The reference predictions for [`AccuracyMode::FpAgreement`] are
/// computed once at construction.
pub struct AccuracyEvaluator<'a> {
    net: &'a Network,
    dataset: &'a Dataset,
    mode: AccuracyMode,
    /// Per-image target label under the chosen mode.
    targets: Vec<usize>,
    /// Clean accuracy under the chosen mode.
    fp_accuracy: f64,
    /// Worker threads (`0` = machine parallelism). Results are
    /// bit-identical for any value.
    threads: usize,
    /// Kernel tier every forward pass (reference and noisy) runs on.
    tier: KernelTier,
}

impl std::fmt::Debug for AccuracyEvaluator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccuracyEvaluator")
            .field("mode", &self.mode)
            .field("samples", &self.dataset.len())
            .field("fp_accuracy", &self.fp_accuracy)
            .finish()
    }
}

impl<'a> AccuracyEvaluator<'a> {
    /// Builds an evaluator; runs one clean pass per image to establish
    /// the reference. Uses the machine's available parallelism; see
    /// [`AccuracyEvaluator::with_threads`] to pin the worker count.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn new(net: &'a Network, dataset: &'a Dataset, mode: AccuracyMode) -> Self {
        Self::with_threads(net, dataset, mode, 0)
    }

    /// [`AccuracyEvaluator::new`] with an explicit worker-thread count
    /// (`0` = machine parallelism). The thread count never changes any
    /// result — per-image noise streams are keyed by image index — it
    /// only changes wall-clock time.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn with_threads(
        net: &'a Network,
        dataset: &'a Dataset,
        mode: AccuracyMode,
        threads: usize,
    ) -> Self {
        Self::with_threads_tier(net, dataset, mode, threads, KernelTier::Exact)
    }

    /// [`AccuracyEvaluator::with_threads`] with an explicit kernel
    /// tier: every forward pass — the clean reference establishing
    /// pass included — dispatches to `tier`'s kernels. With
    /// [`KernelTier::Exact`] (the default everywhere) results are
    /// bit-exact and byte-reproducible; `Fast` runs the SIMD/FMA
    /// microkernels, whose top-1 agreement with the exact tier is
    /// asserted by the e2e test suite.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn with_threads_tier(
        net: &'a Network,
        dataset: &'a Dataset,
        mode: AccuracyMode,
        threads: usize,
        tier: KernelTier,
    ) -> Self {
        assert!(!dataset.is_empty(), "evaluation dataset must not be empty");
        let resolved = resolve_threads(threads);
        // The fp-reference pass goes through the same parallel engine as
        // every accuracy call: one arena per worker, zero allocation per
        // image once warm.
        let fp_preds = predict_all(
            dataset.images(),
            resolved,
            || ExecArena::new(net, 1, tier),
            |arena, _i, img| net.classify_arena(img, arena),
        );
        let (targets, fp_accuracy) = match mode {
            AccuracyMode::GeneratorLabels => {
                let correct = fp_preds
                    .iter()
                    .zip(dataset.labels())
                    .filter(|(p, l)| p == l)
                    .count();
                (
                    dataset.labels().to_vec(),
                    correct as f64 / dataset.len() as f64,
                )
            }
            AccuracyMode::FpAgreement => (fp_preds, 1.0),
        };
        Self {
            net,
            dataset,
            mode,
            targets,
            fp_accuracy,
            threads,
            tier,
        }
    }

    /// The kernel tier this evaluator's forward passes run on.
    pub fn tier(&self) -> KernelTier {
        self.tier
    }

    /// The label mode in use.
    pub fn mode(&self) -> AccuracyMode {
        self.mode
    }

    /// Clean (full-precision) accuracy under the chosen mode.
    pub fn fp_accuracy(&self) -> f64 {
        self.fp_accuracy
    }

    /// Number of evaluation samples.
    pub fn len(&self) -> usize {
        self.dataset.len()
    }

    /// Whether the evaluator holds no samples (never true — construction
    /// rejects empty datasets).
    pub fn is_empty(&self) -> bool {
        self.dataset.is_empty()
    }

    /// Runs a state-based parallel prediction over the dataset and
    /// scores it against the targets. `make_state` builds one per-worker
    /// state (arena + tap template); `predict` must be index-keyed
    /// deterministic.
    fn fraction_correct_with<S: Send>(
        &self,
        make_state: impl Fn() -> S + Sync,
        predict: impl Fn(&mut S, usize, &Tensor) -> usize + Sync,
    ) -> f64 {
        mupod_obs::counter_add("eval.images", self.dataset.len() as u64);
        let preds = predict_all(
            self.dataset.images(),
            resolve_threads(self.threads),
            make_state,
            predict,
        );
        let correct = preds
            .iter()
            .zip(&self.targets)
            .filter(|(p, t)| p == t)
            .count();
        correct as f64 / self.dataset.len() as f64
    }

    /// Accuracy with uniform noise `U[-Δ_K, Δ_K]` injected into every
    /// listed layer simultaneously (Scheme 1's test, §V-C).
    ///
    /// Each image uses an independent fork of `seed`, so results do not
    /// depend on evaluation order or thread count.
    pub fn accuracy_uniform_noise(&self, deltas: &HashMap<NodeId, f64>, seed: u64) -> f64 {
        let root = SeededRng::new(seed);
        self.fraction_correct_with(
            || {
                (
                    ExecArena::new(self.net, 1, self.tier),
                    UniformNoiseTap::new(deltas.clone(), root.fork(0)),
                )
            },
            |(arena, tap), i, img| {
                tap.set_rng(root.fork(i as u64));
                tapped_logits(self.net, img, tap, arena).argmax()
            },
        )
    }

    /// Accuracy with `N(0, σ²)` added to the logits only (Scheme 2's
    /// test, §V-C).
    pub fn accuracy_gaussian_output(&self, sigma: f64, seed: u64) -> f64 {
        let root = SeededRng::new(seed);
        self.fraction_correct_with(
            || ExecArena::new(self.net, 1, self.tier),
            |arena, i, img| {
                let mut logits = tapped_logits(self.net, img, &mut NoTap, arena).clone();
                let mut rng = root.fork(i as u64);
                gaussian_output_noise(&mut logits, sigma, &mut rng);
                logits.argmax()
            },
        )
    }

    /// Accuracy with each listed layer's input rounded to its format —
    /// the final validation under true fixed-point arithmetic.
    pub fn accuracy_quantized(&self, formats: &HashMap<NodeId, FixedPointFormat>) -> f64 {
        self.fraction_correct_with(
            || {
                (
                    ExecArena::new(self.net, 1, self.tier),
                    QuantizeTap::new(formats.clone()),
                )
            },
            |(arena, tap), _i, img| tapped_logits(self.net, img, tap, arena).argmax(),
        )
    }

    /// Accuracy with each listed layer's input rounded *stochastically*
    /// to its format — the unbiased-rounding ablation partner of
    /// [`AccuracyEvaluator::accuracy_quantized`].
    pub fn accuracy_quantized_stochastic(
        &self,
        formats: &HashMap<NodeId, FixedPointFormat>,
        seed: u64,
    ) -> f64 {
        let root = SeededRng::new(seed);
        self.fraction_correct_with(
            || {
                (
                    ExecArena::new(self.net, 1, self.tier),
                    StochasticQuantizeTap::new(formats.clone(), root.fork(0)),
                )
            },
            |(arena, tap), i, img| {
                tap.set_rng(root.fork(i as u64));
                tapped_logits(self.net, img, tap, arena).argmax()
            },
        )
    }

    /// Accuracy of a [`BitwidthAllocation`] whose entries correspond to
    /// `layers` (same order).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn accuracy_of_allocation(
        &self,
        layers: &[NodeId],
        allocation: &BitwidthAllocation,
    ) -> f64 {
        assert_eq!(
            layers.len(),
            allocation.len(),
            "layers/allocation length mismatch"
        );
        let formats: HashMap<NodeId, FixedPointFormat> = layers
            .iter()
            .zip(allocation.layers())
            .map(|(&id, lf)| (id, lf.format))
            .collect();
        self.accuracy_quantized(&formats)
    }

    /// Accuracy of a different network (e.g. weight-quantized clone) on
    /// the same targets.
    ///
    /// # Panics
    ///
    /// Panics if the other network's input shape differs.
    pub fn accuracy_of_network(&self, other: &Network) -> f64 {
        self.fraction_correct_with(
            || ExecArena::new(other, 1, self.tier),
            |arena, _i, img| other.classify_arena(img, arena),
        )
    }

    /// Accuracy of a different network with per-layer input quantization
    /// applied — used by the §V-E weight search, where both the weights
    /// (baked into `other`) and the inputs (via `formats`) are reduced.
    ///
    /// The reference targets remain those of the evaluator's original
    /// full-precision network.
    pub fn accuracy_of_network_with_formats(
        &self,
        other: &Network,
        formats: &HashMap<NodeId, FixedPointFormat>,
    ) -> f64 {
        self.fraction_correct_with(
            || {
                (
                    ExecArena::new(other, 1, self.tier),
                    QuantizeTap::new(formats.clone()),
                )
            },
            |(arena, tap), _i, img| tapped_logits(other, img, tap, arena).argmax(),
        )
    }
}

/// The logits of `img` under `tap`, on `arena`'s tier.
fn tapped_logits<'s>(
    net: &Network,
    img: &'s Tensor,
    tap: &'s mut dyn InputTap,
    arena: &'s mut ExecArena,
) -> &'s Tensor {
    match net.run(Run::image(img).tap(tap), arena) {
        Ok(logits) => logits,
        // lint:allow(no-panic-path) reason=only a validated run can fail and evaluation runs validate nothing; the arm is unreachable by construction
        Err(_) => unreachable!("unvalidated run cannot fail"),
    }
}

/// Resolves a `threads` knob (`0` = machine parallelism) to a concrete
/// worker count.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mupod_data::DatasetSpec;
    use mupod_models::{calibrate::calibrate_head, ModelKind, ModelScale};

    fn setup() -> (Network, Dataset) {
        let scale = ModelScale::tiny();
        let mut net = ModelKind::AlexNet.build(&scale, 71);
        let spec = DatasetSpec::new(scale.classes, 3, scale.input_hw, scale.input_hw);
        let data = Dataset::generate(&spec, 72, 48);
        calibrate_head(&mut net, &data, 0.1).unwrap();
        (net, data)
    }

    #[test]
    fn fp_agreement_reference_is_perfect() {
        let (net, data) = setup();
        let ev = AccuracyEvaluator::new(&net, &data, AccuracyMode::FpAgreement);
        assert_eq!(ev.fp_accuracy(), 1.0);
        assert_eq!(ev.len(), 48);
    }

    #[test]
    fn generator_labels_match_dataset_accuracy() {
        let (net, data) = setup();
        let ev = AccuracyEvaluator::new(&net, &data, AccuracyMode::GeneratorLabels);
        let direct = data.accuracy_of(|img| net.classify(img));
        assert_eq!(ev.fp_accuracy(), direct);
        assert!(ev.fp_accuracy() > 0.25);
    }

    #[test]
    fn zero_noise_recovers_fp_accuracy() {
        let (net, data) = setup();
        let ev = AccuracyEvaluator::new(&net, &data, AccuracyMode::FpAgreement);
        let layers = net.dot_product_layers();
        let deltas: HashMap<NodeId, f64> = layers.iter().map(|&l| (l, 0.0)).collect();
        assert_eq!(ev.accuracy_uniform_noise(&deltas, 1), 1.0);
        assert_eq!(ev.accuracy_gaussian_output(0.0, 1), 1.0);
    }

    #[test]
    fn huge_noise_destroys_accuracy() {
        let (net, data) = setup();
        let ev = AccuracyEvaluator::new(&net, &data, AccuracyMode::FpAgreement);
        let layers = net.dot_product_layers();
        let deltas: HashMap<NodeId, f64> = layers.iter().map(|&l| (l, 1e4)).collect();
        let acc = ev.accuracy_uniform_noise(&deltas, 1);
        assert!(acc < 0.6, "accuracy {acc} should collapse under huge noise");
    }

    #[test]
    fn gaussian_noise_accuracy_is_monotone_in_sigma() {
        let (net, data) = setup();
        let ev = AccuracyEvaluator::new(&net, &data, AccuracyMode::FpAgreement);
        let a_small = ev.accuracy_gaussian_output(0.01, 3);
        let a_big = ev.accuracy_gaussian_output(100.0, 3);
        assert!(a_small > a_big, "{a_small} vs {a_big}");
    }

    #[test]
    fn generous_quantization_preserves_accuracy() {
        let (net, data) = setup();
        let ev = AccuracyEvaluator::new(&net, &data, AccuracyMode::FpAgreement);
        let formats: HashMap<NodeId, FixedPointFormat> = net
            .dot_product_layers()
            .into_iter()
            .map(|l| (l, FixedPointFormat::new(12, 12)))
            .collect();
        let acc = ev.accuracy_quantized(&formats);
        assert!(acc > 0.95, "24-bit quantization broke accuracy: {acc}");
    }

    #[test]
    fn accuracy_of_network_identity() {
        let (net, data) = setup();
        let ev = AccuracyEvaluator::new(&net, &data, AccuracyMode::FpAgreement);
        assert_eq!(ev.accuracy_of_network(&net), 1.0);
    }

    #[test]
    fn thread_count_never_changes_results() {
        // Per-image RNG streams are index-keyed, so every accuracy number
        // must be byte-identical at 1 and N worker threads.
        let (net, data) = setup();
        let ev1 = AccuracyEvaluator::with_threads(&net, &data, AccuracyMode::FpAgreement, 1);
        let ev4 = AccuracyEvaluator::with_threads(&net, &data, AccuracyMode::FpAgreement, 4);
        assert_eq!(ev1.fp_accuracy(), ev4.fp_accuracy());

        let layers = net.dot_product_layers();
        let deltas: HashMap<NodeId, f64> = layers.iter().map(|&l| (l, 0.05)).collect();
        assert_eq!(
            ev1.accuracy_uniform_noise(&deltas, 7).to_bits(),
            ev4.accuracy_uniform_noise(&deltas, 7).to_bits()
        );
        assert_eq!(
            ev1.accuracy_gaussian_output(0.3, 7).to_bits(),
            ev4.accuracy_gaussian_output(0.3, 7).to_bits()
        );
        let formats: HashMap<NodeId, FixedPointFormat> = layers
            .iter()
            .map(|&l| (l, FixedPointFormat::new(4, 4)))
            .collect();
        assert_eq!(
            ev1.accuracy_quantized(&formats).to_bits(),
            ev4.accuracy_quantized(&formats).to_bits()
        );
        assert_eq!(
            ev1.accuracy_quantized_stochastic(&formats, 9).to_bits(),
            ev4.accuracy_quantized_stochastic(&formats, 9).to_bits()
        );
    }
}
