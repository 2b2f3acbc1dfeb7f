//! Accuracy evaluation under noise injection and quantization.
//!
//! All evaluation paths are **image-parallel**: workers claim image
//! indices off a shared atomic cursor, each owning one reusable
//! [`ExecArena`] and one tap clone. Determinism is per-index — every
//! image's noise stream is forked from the seed by its position, never
//! by worker schedule — so results are bit-identical for any thread
//! count, which the test suite asserts.
//!
//! The verdict query [`AccuracyEvaluator::uniform_noise_meets`] stops
//! scoring once more images have missed than its threshold allows. It
//! scores in rounds of 8, 16, 32, … images, checking the misses only
//! between rounds, so the set of scored images — and every counter —
//! depends on the seed and the data alone.

use crate::par::Pool;
use mupod_data::Dataset;
use mupod_nn::tap::{
    gaussian_output_noise, InputTap, NoTap, QuantizeTap, StochasticQuantizeTap, UniformNoiseTap,
};
use mupod_nn::{ExecArena, KernelTier, Network, NodeId, Run};
use mupod_quant::{BitwidthAllocation, FixedPointFormat};
use mupod_stats::SeededRng;
use mupod_tensor::Tensor;
use std::collections::HashMap;
use std::convert::Infallible;

/// Images in the first round of an evaluation that may stop early;
/// every later round is twice the one before.
const FIRST_ROUND: usize = 8;

/// The scoring engine behind every evaluation: predicts `images` in
/// index order and returns the predictions of the prefix it scored.
///
/// It scores rounds of `first_round`, 2·`first_round`, … images and
/// stops after the first round for which `settled(predictions so far)`
/// holds; a `first_round` of `images.len()` scores every image in one
/// round. Each round runs on a [`Pool`] of `threads` workers (`0` =
/// machine parallelism), which never claims an index past the round, so
/// the scored prefix never depends on thread count or scheduling. Each
/// worker builds its state once via `make_state` (an execution arena
/// plus any tap template) and keeps it across rounds. `predict` must be
/// deterministic given `(state, index, image)` — index-keyed, not
/// schedule-keyed — so the output is identical for any `threads`. A
/// panic in `predict` propagates to the caller.
fn predict_prefix<S: Send, T: Send>(
    images: &[Tensor],
    threads: usize,
    first_round: usize,
    make_state: impl Fn() -> S + Sync,
    predict: impl Fn(&mut S, usize, &Tensor) -> T + Sync,
    settled: impl Fn(&[T]) -> bool,
) -> Vec<T> {
    let mut pool = Pool::new(threads, make_state);
    let mut out = Vec::with_capacity(images.len());
    let mut round = first_round.max(1);
    while out.len() < images.len() {
        let end = (out.len() + round).min(images.len());
        let outcome = pool.run(
            out.len()..end,
            |state, i| Ok::<_, Infallible>(predict(state, i, &images[i])),
            |_, prediction| {
                out.push(prediction);
                Ok(())
            },
        );
        // Surface a worker panic (e.g. a failed kernel assert) instead
        // of a wrong accuracy number.
        let Ok(()) = outcome.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        if settled(&out) {
            break;
        }
        round *= 2;
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
/// The reference predictions for [`AccuracyMode::FpAgreement`] and the
/// clean logits Scheme 2 perturbs are computed once at construction.
pub struct AccuracyEvaluator<'a> {
    net: &'a Network,
    dataset: &'a Dataset,
    mode: AccuracyMode,
    /// Per-image target label under the chosen mode.
    targets: Vec<usize>,
    /// Per-image clean logits from the reference pass, which
    /// [`AccuracyEvaluator::accuracy_gaussian_output`] perturbs instead
    /// of running a forward pass.
    clean_logits: Vec<Tensor>,
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
    /// the reference and keep its logits. Uses the machine's available
    /// parallelism; see [`AccuracyEvaluator::with_threads`] to pin the
    /// worker count.
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
        // The fp-reference pass goes through the same parallel engine as
        // every accuracy call, in one round: one arena per worker, and no
        // allocation per image once warm beyond the kept logits.
        let clean_logits = predict_prefix(
            dataset.images(),
            threads,
            dataset.len(),
            || ExecArena::new(net, 1, tier),
            |arena, _i, img| tapped_logits(net, img, &mut NoTap, arena).clone(),
            |_| false,
        );
        let fp_preds: Vec<usize> = clean_logits.iter().map(Tensor::argmax).collect();
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
            clean_logits,
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

    /// Scores the dataset's predictions against the targets, in index
    /// order, and returns the misses. Scoring stops after the first
    /// round in which the misses exceed `max_misses`; the count is then
    /// only known to exceed it. A `max_misses` of at least
    /// [`AccuracyEvaluator::len`] scores every image in one round.
    /// `threads` is the evaluator's knob (`0` = machine parallelism);
    /// `make_state` builds one per-worker state (arena + tap template);
    /// `predict` must be index-keyed deterministic.
    fn misses_within<S: Send>(
        &self,
        max_misses: usize,
        threads: usize,
        make_state: impl Fn() -> S + Sync,
        predict: impl Fn(&mut S, usize, &Tensor) -> usize + Sync,
    ) -> usize {
        let targets = &self.targets;
        let misses = |preds: &[usize]| preds.iter().zip(targets).filter(|(p, t)| p != t).count();
        let first_round = if max_misses < self.len() {
            FIRST_ROUND
        } else {
            self.len()
        };
        let preds = predict_prefix(
            self.dataset.images(),
            threads,
            first_round,
            make_state,
            predict,
            |preds| misses(preds) > max_misses,
        );
        mupod_obs::counter_add("eval.images", preds.len() as u64);
        misses(&preds)
    }

    /// [`AccuracyEvaluator::misses_within`] over every image, as a
    /// fraction correct.
    fn fraction_correct_with<S: Send>(
        &self,
        make_state: impl Fn() -> S + Sync,
        predict: impl Fn(&mut S, usize, &Tensor) -> usize + Sync,
    ) -> f64 {
        self.fraction_correct(self.misses_within(self.len(), self.threads, make_state, predict))
    }

    /// Accuracy with `misses` of the images wrong.
    fn fraction_correct(&self, misses: usize) -> f64 {
        (self.len() - misses) as f64 / self.len() as f64
    }

    /// The most misses an evaluation may have and still reach
    /// `threshold`: the largest `m` with `(n − m) / n ≥ threshold`, in
    /// the same float arithmetic as the accuracy itself. `None` when
    /// even a perfect score falls short.
    fn miss_budget(&self, threshold: f64) -> Option<usize> {
        (0..=self.len())
            .take_while(|&m| self.fraction_correct(m) >= threshold)
            .last()
    }

    /// Accuracy with uniform noise `U[-Δ_K, Δ_K]` injected into every
    /// listed layer simultaneously (Scheme 1's test, §V-C).
    ///
    /// Each image uses an independent fork of `seed`, so results do not
    /// depend on evaluation order or thread count.
    pub fn accuracy_uniform_noise(&self, deltas: &HashMap<NodeId, f64>, seed: u64) -> f64 {
        self.fraction_correct(self.uniform_noise_misses(deltas, seed, self.len()))
    }

    /// Whether [`AccuracyEvaluator::accuracy_uniform_noise`] reaches
    /// `threshold`: `Some(accuracy)`, bit-identical to it, when
    /// `accuracy >= threshold`, else `None`. Scoring stops once more
    /// images have missed than `threshold` allows, so a failing
    /// candidate usually costs a fraction of the images; which images
    /// are scored depends only on `deltas`, `seed` and the data. A
    /// passing evaluation has scored every image.
    pub fn uniform_noise_meets(
        &self,
        deltas: &HashMap<NodeId, f64>,
        seed: u64,
        threshold: f64,
    ) -> Option<f64> {
        let max_misses = self.miss_budget(threshold)?;
        let misses = self.uniform_noise_misses(deltas, seed, max_misses);
        (misses <= max_misses).then(|| self.fraction_correct(misses))
    }

    /// The misses of [`AccuracyEvaluator::accuracy_uniform_noise`],
    /// scored as [`AccuracyEvaluator::misses_within`] does.
    fn uniform_noise_misses(
        &self,
        deltas: &HashMap<NodeId, f64>,
        seed: u64,
        max_misses: usize,
    ) -> usize {
        let root = SeededRng::new(seed);
        self.misses_within(
            max_misses,
            self.threads,
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
    /// test, §V-C). Perturbs the clean logits kept from construction,
    /// so it runs no forward pass.
    pub fn accuracy_gaussian_output(&self, sigma: f64, seed: u64) -> f64 {
        let root = SeededRng::new(seed);
        // Perturbing kept logits costs microseconds per image, less than
        // starting a worker thread, so this runs on the caller's thread.
        let misses = self.misses_within(
            self.len(),
            1,
            || (),
            |(), i, _img| {
                let mut logits = self.clean_logits[i].clone();
                gaussian_output_noise(&mut logits, sigma, &mut root.fork(i as u64));
                logits.argmax()
            },
        );
        self.fraction_correct(misses)
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

    /// `Some(acc)` comes back iff the full accuracy reaches the
    /// threshold, with the same bits, whatever the thread count.
    #[test]
    fn verdicts_match_full_accuracy() {
        let (net, data) = setup();
        let layers = net.dot_product_layers();
        let n = data.len() as f64;
        for threads in [1, 2, 4] {
            let ev =
                AccuracyEvaluator::with_threads(&net, &data, AccuracyMode::FpAgreement, threads);
            for scale in [0.0, 0.02, 0.05, 0.1, 0.3, 1e4] {
                let deltas: HashMap<NodeId, f64> = layers.iter().map(|&l| (l, scale)).collect();
                let acc = ev.accuracy_uniform_noise(&deltas, 5);
                // Exactly k/n at, just above and just below the result.
                let k = (acc * n).round();
                let thresholds = [-0.5, 0.0, 0.5, 1.0, 1.5, f64::NAN]
                    .into_iter()
                    .chain([k - 1.0, k, k + 1.0].map(|k| k / n));
                for t in thresholds {
                    assert_eq!(
                        ev.uniform_noise_meets(&deltas, 5, t).map(f64::to_bits),
                        (acc >= t).then_some(acc.to_bits()),
                        "Δ {scale}, threshold {t}, {threads} threads"
                    );
                }
            }
        }
    }
}
