//! Input taps: the mechanism behind every error-injection experiment.
//!
//! A tap intercepts the *data operand* of dot-product layers during a
//! forward pass. The three concrete taps correspond to the three ways the
//! paper perturbs a network:
//!
//! * [`UniformNoiseTap`] adds `U[-Δ_K, Δ_K]` noise per layer — profiling
//!   (§V-A) and Scheme 1 accuracy testing (§V-C). Matching the paper's
//!   Fig. 1, exact zeros are left exact: a zero activation is always
//!   representable in fixed point, so it carries no rounding error.
//! * [`QuantizeTap`] rounds the operand to each layer's chosen
//!   fixed-point format — the final validation that an allocation meets
//!   the accuracy constraint on real rounding rather than modelled noise.
//! * [`gaussian_output_noise`] perturbs the logits directly with
//!   `N(0, σ²)` — Scheme 2 (§V-C, `gaussian_approx`).

use crate::layer::NodeId;
use mupod_quant::FixedPointFormat;
use mupod_stats::SeededRng;
use mupod_tensor::Tensor;
use std::collections::HashMap;

/// Perturbs the data input of chosen dot-product layers during a pass.
///
/// Implementations must be deterministic given their construction state
/// (seeded RNGs), so a suffix replay and a full pass agree.
pub trait InputTap {
    /// Whether this tap wants to perturb `node`'s data input.
    fn wants(&self, node: NodeId) -> bool;

    /// Perturbs the data input of `node` in place, for the image in arena
    /// slot `slot` of a batched run (`0` for a single image). A batch
    /// applies the tap to every slot of a node in slot order, so a tap
    /// that ignores the slot sees the images one after another.
    fn apply(&mut self, node: NodeId, slot: usize, input: &mut Tensor);
}

/// The identity tap: perturbs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTap;

impl InputTap for NoTap {
    fn wants(&self, _node: NodeId) -> bool {
        false
    }

    fn apply(&mut self, _node: NodeId, _slot: usize, _input: &mut Tensor) {}
}

/// Adds symmetric uniform noise `U[-Δ_K, Δ_K]` to the inputs of selected
/// layers, skipping exact zeros.
///
/// The tap holds one noise stream per batch slot: slot `b` draws from
/// stream `b` alone, so an image's noise does not depend on which other
/// images share its batch. [`UniformNoiseTap::single`] and
/// [`UniformNoiseTap::new`] start with one stream (slot 0);
/// [`UniformNoiseTap::set_streams`] supplies one per slot.
///
/// # Example
///
/// ```
/// use mupod_nn::tap::{InputTap, UniformNoiseTap};
/// use mupod_nn::NodeId;
/// use mupod_stats::SeededRng;
/// use mupod_tensor::Tensor;
///
/// # let some_node = NodeId::from_index_for_tests(1);
/// let mut tap = UniformNoiseTap::single(some_node, 0.25, SeededRng::new(7));
/// let mut t = Tensor::from_vec(&[3], vec![1.0, 0.0, -2.0]);
/// tap.apply(some_node, 0, &mut t);
/// assert_eq!(t.data()[1], 0.0); // zeros stay exact
/// assert!((t.data()[0] - 1.0).abs() <= 0.25);
/// ```
#[derive(Debug, Clone)]
pub struct UniformNoiseTap {
    deltas: HashMap<NodeId, f64>,
    streams: Vec<SeededRng>,
}

impl UniformNoiseTap {
    /// Tap a single layer with half-width `delta`.
    pub fn single(node: NodeId, delta: f64, rng: SeededRng) -> Self {
        Self::new([(node, delta)].into_iter().collect(), rng)
    }

    /// Tap several layers, each with its own half-width.
    pub fn new(deltas: HashMap<NodeId, f64>, rng: SeededRng) -> Self {
        Self {
            deltas,
            streams: vec![rng],
        }
    }

    /// The half-width assigned to a node, if any.
    pub fn delta(&self, node: NodeId) -> Option<f64> {
        self.deltas.get(&node).copied()
    }

    /// Replaces the noise source with one stream (slot 0), keeping the
    /// per-layer half-widths.
    ///
    /// Parallel evaluators clone one template tap per worker and re-seed
    /// it with a per-image forked stream, so determinism is keyed to the
    /// image index rather than the worker schedule.
    pub fn set_rng(&mut self, rng: SeededRng) {
        self.set_streams([rng]);
    }

    /// Replaces the noise sources with one stream per batch slot, in slot
    /// order, keeping the per-layer half-widths. Reuses the stream
    /// buffer: no heap allocation once it has held as many streams.
    pub fn set_streams(&mut self, streams: impl IntoIterator<Item = SeededRng>) {
        self.streams.clear();
        self.streams.extend(streams);
    }
}

impl InputTap for UniformNoiseTap {
    fn wants(&self, node: NodeId) -> bool {
        self.deltas.get(&node).is_some_and(|&d| d > 0.0)
    }

    /// # Panics
    ///
    /// Panics if the tap holds no noise stream for `slot`.
    fn apply(&mut self, node: NodeId, slot: usize, input: &mut Tensor) {
        let Some(&delta) = self.deltas.get(&node) else {
            return;
        };
        if delta <= 0.0 {
            return;
        }
        let n_streams = self.streams.len();
        let Some(rng) = self.streams.get_mut(slot) else {
            // lint:allow(no-panic-path) reason=a missing stream is a caller bug; drawing from another slot's stream would silently correlate the batch
            panic!("no noise stream for slot {slot} (the tap holds {n_streams})");
        };
        for v in input.data_mut() {
            // lint:allow(no-float-eq) reason=deliberate exact test: post-ReLU structural zeros carry no rounding error and must stay exactly zero
            if *v != 0.0 {
                *v += rng.symmetric_uniform(delta) as f32;
            }
        }
    }
}

/// Rounds the inputs of selected layers to their fixed-point formats.
#[derive(Debug, Clone)]
pub struct QuantizeTap {
    formats: HashMap<NodeId, FixedPointFormat>,
}

impl QuantizeTap {
    /// Builds a tap from per-layer formats.
    pub fn new(formats: HashMap<NodeId, FixedPointFormat>) -> Self {
        Self { formats }
    }

    /// The format assigned to a node, if any.
    pub fn format(&self, node: NodeId) -> Option<FixedPointFormat> {
        self.formats.get(&node).copied()
    }
}

impl InputTap for QuantizeTap {
    fn wants(&self, node: NodeId) -> bool {
        self.formats.contains_key(&node)
    }

    fn apply(&mut self, node: NodeId, _slot: usize, input: &mut Tensor) {
        if let Some(fmt) = self.formats.get(&node) {
            fmt.quantize_tensor(input);
        }
    }
}

/// Stochastically rounds the inputs of selected layers to their
/// fixed-point formats (unbiased rounding; see
/// [`FixedPointFormat::quantize_stochastic`]).
///
/// The ablation partner of [`QuantizeTap`]: round-to-nearest carries a
/// signal-correlated bias, stochastic rounding carries twice the error
/// variance (`step²/6` vs `step²/12`). The `ablation_rounding`
/// experiment measures which effect dominates (at reproduction scale:
/// the variance — nearest wins).
#[derive(Debug, Clone)]
pub struct StochasticQuantizeTap {
    formats: HashMap<NodeId, FixedPointFormat>,
    rng: SeededRng,
}

impl StochasticQuantizeTap {
    /// Builds a tap from per-layer formats and a seeded noise source.
    pub fn new(formats: HashMap<NodeId, FixedPointFormat>, rng: SeededRng) -> Self {
        Self { formats, rng }
    }

    /// Replaces the rounding-noise source, keeping the formats (see
    /// [`UniformNoiseTap::set_rng`]).
    pub fn set_rng(&mut self, rng: SeededRng) {
        self.rng = rng;
    }
}

impl InputTap for StochasticQuantizeTap {
    fn wants(&self, node: NodeId) -> bool {
        self.formats.contains_key(&node)
    }

    fn apply(&mut self, node: NodeId, _slot: usize, input: &mut Tensor) {
        if let Some(fmt) = self.formats.get(&node) {
            fmt.quantize_tensor_stochastic(input, &mut self.rng);
        }
    }
}

/// The kind of numerical fault a [`FaultTap`] plants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Plant `NaN`.
    Nan,
    /// Plant `+∞`.
    PosInf,
    /// Plant `−∞`.
    NegInf,
    /// Plant an arbitrary value (e.g. a huge-but-finite outlier).
    Value(f32),
}

impl FaultKind {
    fn value(self) -> f32 {
        match self {
            FaultKind::Nan => f32::NAN,
            FaultKind::PosInf => f32::INFINITY,
            FaultKind::NegInf => f32::NEG_INFINITY,
            FaultKind::Value(v) => v,
        }
    }
}

/// Plants numerical faults in the data input of one dot-product layer.
///
/// This tap exists for the fault-injection test harness: it simulates a
/// corrupted activation (bit-flip, overflow, poisoned upstream kernel)
/// arriving at layer `K`, so tests can assert the pipeline surfaces a
/// typed error instead of silently propagating NaN into the statistics.
/// It is not part of the paper's method — production passes never use it.
#[derive(Debug, Clone)]
pub struct FaultTap {
    node: NodeId,
    kind: FaultKind,
    stride: usize,
}

impl FaultTap {
    /// Poison every `stride`-th element (starting at flat index 0) of
    /// `node`'s data input with `kind`. `stride` is clamped to ≥ 1.
    pub fn new(node: NodeId, kind: FaultKind, stride: usize) -> Self {
        Self {
            node,
            kind,
            stride: stride.max(1),
        }
    }

    /// Poison a single element (flat index 0).
    pub fn single_element(node: NodeId, kind: FaultKind) -> Self {
        Self {
            node,
            kind,
            stride: usize::MAX,
        }
    }
}

impl InputTap for FaultTap {
    fn wants(&self, node: NodeId) -> bool {
        node == self.node
    }

    fn apply(&mut self, node: NodeId, _slot: usize, input: &mut Tensor) {
        if node != self.node {
            return;
        }
        let v = self.kind.value();
        for x in input.data_mut().iter_mut().step_by(self.stride) {
            *x = v;
        }
    }
}

/// Adds Gaussian noise `N(0, σ²)` to a logits tensor in place — the
/// paper's Scheme 2 (`gaussian_approx`), which models the aggregate
/// output error of all layers as a single normal source at layer `Ł`.
pub fn gaussian_output_noise(logits: &mut Tensor, sigma: f64, rng: &mut SeededRng) {
    if sigma <= 0.0 {
        return;
    }
    for v in logits.data_mut() {
        *v += rng.gaussian(0.0, sigma) as f32;
    }
}

impl NodeId {
    /// Constructs a raw id for doctests and external test code.
    ///
    /// Real ids should come from [`crate::NetworkBuilder`]; this escape
    /// hatch exists because taps are keyed by id and useful to exercise
    /// without building a network.
    pub fn from_index_for_tests(index: usize) -> Self {
        NodeId(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mupod_stats::{population_std, RunningStats};

    #[test]
    fn no_tap_wants_nothing() {
        assert!(!NoTap.wants(NodeId(0)));
    }

    #[test]
    fn uniform_tap_preserves_zeros_and_bounds_error() {
        let node = NodeId(4);
        let mut tap = UniformNoiseTap::single(node, 0.1, SeededRng::new(3));
        let original = vec![1.0f32, 0.0, -0.5, 0.0, 2.0];
        let mut t = Tensor::from_vec(&[5], original.clone());
        tap.apply(node, 0, &mut t);
        for (o, n) in original.iter().zip(t.data()) {
            if *o == 0.0 {
                assert_eq!(*n, 0.0);
            } else {
                assert!((o - n).abs() <= 0.1 + 1e-6);
            }
        }
    }

    #[test]
    fn uniform_tap_ignores_unclaimed_nodes() {
        let mut tap = UniformNoiseTap::single(NodeId(1), 0.5, SeededRng::new(3));
        assert!(!tap.wants(NodeId(2)));
        let mut t = Tensor::from_vec(&[2], vec![1.0, 2.0]);
        tap.apply(NodeId(2), 0, &mut t);
        assert_eq!(t.data(), &[1.0, 2.0]);
    }

    #[test]
    fn each_slot_draws_from_its_own_stream() {
        let node = NodeId(1);
        let mut batched = UniformNoiseTap::single(node, 0.5, SeededRng::new(0));
        batched.set_streams([SeededRng::new(10), SeededRng::new(11)]);
        let mut got = [Tensor::filled(&[4], 1.0), Tensor::filled(&[4], 1.0)];
        // Slot 1 first: a slot's noise must not depend on the others'.
        batched.apply(node, 1, &mut got[1]);
        batched.apply(node, 0, &mut got[0]);
        for (slot, t) in got.iter().enumerate() {
            let mut alone = UniformNoiseTap::single(node, 0.5, SeededRng::new(10 + slot as u64));
            let mut want = Tensor::filled(&[4], 1.0);
            alone.apply(node, 0, &mut want);
            assert_eq!(t, &want, "slot {slot}");
        }
    }

    #[test]
    #[should_panic(expected = "no noise stream for slot 1")]
    fn missing_slot_stream_panics() {
        let node = NodeId(1);
        let mut tap = UniformNoiseTap::single(node, 0.5, SeededRng::new(0));
        tap.apply(node, 1, &mut Tensor::filled(&[2], 1.0));
    }

    #[test]
    fn zero_delta_means_no_tap() {
        let tap = UniformNoiseTap::single(NodeId(1), 0.0, SeededRng::new(3));
        assert!(!tap.wants(NodeId(1)));
    }

    #[test]
    fn uniform_tap_noise_statistics() {
        let node = NodeId(0);
        let delta = 0.3;
        let mut tap = UniformNoiseTap::single(node, delta, SeededRng::new(8));
        let n = 50_000;
        let mut t = Tensor::filled(&[n], 1.0);
        tap.apply(node, 0, &mut t);
        let errors: Vec<f64> = t.data().iter().map(|&v| (v - 1.0) as f64).collect();
        let sd = population_std(&errors);
        let expected = delta / 3.0f64.sqrt();
        assert!((sd - expected).abs() / expected < 0.03, "sd {sd}");
        let mut s = RunningStats::new();
        s.extend(errors);
        assert!(s.mean().abs() < 5e-3);
    }

    #[test]
    fn quantize_tap_rounds_to_grid() {
        let node = NodeId(2);
        let fmt = FixedPointFormat::new(4, 2); // step 0.25
        let mut tap = QuantizeTap::new([(node, fmt)].into_iter().collect());
        assert!(tap.wants(node));
        assert!(!tap.wants(NodeId(3)));
        let mut t = Tensor::from_vec(&[3], vec![1.1, -0.9, 0.0]);
        tap.apply(node, 0, &mut t);
        assert_eq!(t.data(), &[1.0, -1.0, 0.0]);
        assert_eq!(tap.format(node), Some(fmt));
    }

    #[test]
    fn stochastic_tap_rounds_to_grid_unbiased() {
        let node = NodeId(1);
        let fmt = FixedPointFormat::new(6, 2); // step 0.25
        let mut tap =
            StochasticQuantizeTap::new([(node, fmt)].into_iter().collect(), SeededRng::new(4));
        assert!(tap.wants(node));
        let n = 20_000;
        let mut t = Tensor::filled(&[n], 0.6); // 0.4 of the way 0.5 -> 0.75
        tap.apply(node, 0, &mut t);
        let mut mean = 0.0;
        for &v in t.data() {
            assert!(v == 0.5 || v == 0.75, "off grid: {v}");
            mean += v as f64;
        }
        mean /= n as f64;
        assert!((mean - 0.6).abs() < 5e-3, "biased: {mean}");
    }

    #[test]
    fn gaussian_output_noise_statistics() {
        let mut rng = SeededRng::new(10);
        let mut t = Tensor::zeros(&[100_000]);
        gaussian_output_noise(&mut t, 0.5, &mut rng);
        let vals: Vec<f64> = t.data().iter().map(|&v| v as f64).collect();
        let sd = population_std(&vals);
        assert!((sd - 0.5).abs() < 0.01);
    }

    #[test]
    fn fault_tap_plants_requested_fault() {
        let node = NodeId(3);
        let mut tap = FaultTap::single_element(node, FaultKind::Nan);
        assert!(tap.wants(node));
        assert!(!tap.wants(NodeId(4)));
        let mut t = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        tap.apply(node, 0, &mut t);
        assert!(t.data()[0].is_nan());
        assert_eq!(&t.data()[1..], &[2.0, 3.0]);
    }

    #[test]
    fn fault_tap_stride_poisons_every_nth() {
        let node = NodeId(1);
        let mut tap = FaultTap::new(node, FaultKind::PosInf, 2);
        let mut t = Tensor::from_vec(&[4], vec![1.0, 1.0, 1.0, 1.0]);
        tap.apply(node, 0, &mut t);
        assert_eq!(t.data()[0], f32::INFINITY);
        assert_eq!(t.data()[1], 1.0);
        assert_eq!(t.data()[2], f32::INFINITY);
        assert_eq!(t.data()[3], 1.0);
    }

    #[test]
    fn fault_tap_ignores_other_nodes() {
        let mut tap = FaultTap::new(NodeId(1), FaultKind::NegInf, 1);
        let mut t = Tensor::from_vec(&[2], vec![1.0, 2.0]);
        tap.apply(NodeId(2), 0, &mut t);
        assert_eq!(t.data(), &[1.0, 2.0]);
    }

    #[test]
    fn gaussian_output_noise_zero_sigma_is_identity() {
        let mut rng = SeededRng::new(10);
        let mut t = Tensor::from_vec(&[2], vec![1.0, 2.0]);
        gaussian_output_noise(&mut t, 0.0, &mut rng);
        assert_eq!(t.data(), &[1.0, 2.0]);
    }
}
