//! The executor: one node loop behind every forward pass.
//!
//! The paper's method runs one forward pass in three modes — full noisy
//! passes, suffix replay from the injected layer (§V-A) and fixed-point
//! validation taps (§V-C) — and serving runs it over batches. All of
//! them are one [`Run`] through [`Network::run`], which walks the graph
//! once and writes every activation into a reusable [`ExecArena`]:
//!
//! * [`Run::images`] evaluates every node for a batch of images, one
//!   arena slot each (a batch of one is the single-image case);
//!   [`Run::suffix`] re-evaluates only the nodes downstream of one
//!   dot-product layer for a batch of clean [`Activations`] caches, one
//!   slot each, reading every other operand from the slot's cache;
//! * [`Run::tap`] lets an [`InputTap`] perturb the data operand of the
//!   dot-product layers it claims (in a suffix run: the start layer),
//!   telling it which slot each operand belongs to;
//! * [`Run::validated`] sweeps the images and each produced activation
//!   for NaN/Inf and names the first layer that emitted one. The sweep
//!   is a single `is_finite` pass over each tensor — memory-bandwidth
//!   cost, negligible next to the dot products that made it.
//!
//! Convolution nodes run the whole batch through packed GEMMs
//! ([`conv2d_batch_into`]); every other op runs per image. Neither
//! changes a bit relative to evaluating images one at a time, so a
//! batched answer never depends on the rest of its batch. A warm arena
//! performs zero heap allocation per run.

use crate::graph::Network;
use crate::layer::{NodeId, Op};
use crate::tap::{InputTap, NoTap};
use mupod_tensor::conv::conv2d_batch_into;
use mupod_tensor::gemm::matvec_into;
use mupod_tensor::pool::{
    avg_pool2d_into, global_avg_pool_into, lrn_across_channels_into, max_pool2d_into,
};
use mupod_tensor::{KernelTier, Tensor, TensorError};

/// Largest fan-in a node may have: operands are gathered on the stack
/// (concat in the model zoo tops out at a handful of branches).
const MAX_FANIN: usize = 16;

/// Images gathered on the stack for one batched convolution; larger
/// batches run in chunks of this many (bit-identical, see
/// [`conv2d_batch_into`]). Eight covers the batch sizes served by
/// default and keeps the per-node gather small for single images.
const BATCH_CHUNK: usize = 8;

/// Errors detected by a validated [`Run`].
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The input image contains a non-finite element.
    NonFiniteInput {
        /// The underlying tensor diagnosis.
        source: TensorError,
    },
    /// A node produced a non-finite activation. The *first* offending
    /// node in topological order is reported, i.e. the layer where the
    /// numerical fault entered the network.
    NonFiniteActivation {
        /// The producing node.
        node: NodeId,
        /// Its layer name.
        name: String,
        /// The underlying tensor diagnosis.
        source: TensorError,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::NonFiniteInput { source } => {
                write!(f, "input image is numerically invalid: {source}")
            }
            ExecError::NonFiniteActivation { node, name, source } => {
                write!(
                    f,
                    "layer `{name}` (node {node}) produced a numerically invalid activation: {source}"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Per-node activation tensors produced by a forward pass.
///
/// Indexing follows [`NodeId`]; the input placeholder holds the image.
/// A cache kept for suffix replays may be pruned to the activations the
/// replays read ([`Activations::retained`]).
#[derive(Debug, Clone)]
pub struct Activations {
    tensors: Vec<Tensor>,
}

impl Activations {
    /// A copy holding only the activations `keep` marks; every other
    /// entry is an empty placeholder. Pair it with
    /// [`Network::replay_operands`] to keep a clean cache no larger than
    /// its suffix replays need.
    ///
    /// # Panics
    ///
    /// Panics if `keep` does not have one entry per activation.
    pub fn retained(&self, keep: &[bool]) -> Activations {
        assert_eq!(keep.len(), self.tensors.len(), "keep mask length mismatch");
        Activations {
            tensors: self
                .tensors
                .iter()
                .zip(keep)
                .map(|(t, &k)| if k { t.clone() } else { empty() })
                .collect(),
        }
    }

    /// Activation of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn get(&self, id: NodeId) -> &Tensor {
        &self.tensors[id.0]
    }

    /// Number of stored activations.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// Whether no activations are stored.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }
}

/// An empty tensor: the placeholder a pruned activation leaves behind,
/// and a slot's tap scratch before its first use.
fn empty() -> Tensor {
    Tensor::from_vec(&[0], Vec::new())
}

/// What one [`Network::run`] computes: its source (a batch of images, or
/// a batch of suffix replays over clean activations), an optional input
/// tap, and whether the finiteness checks run. Built with
/// [`Run::images`], [`Run::image`] or [`Run::suffix`], then refined with
/// [`Run::tap`] and [`Run::validated`].
pub struct Run<'a> {
    source: Source<'a>,
    tap: Option<&'a mut dyn InputTap>,
    validate: bool,
}

/// Where a run's operands come from.
enum Source<'a> {
    /// Full passes, one arena slot per image.
    Images(&'a [Tensor]),
    /// Replay of the nodes affected by `start`, slot `b` over `bases[b]`.
    Suffix {
        bases: &'a [&'a Activations],
        start: NodeId,
    },
}

impl<'a> Run<'a> {
    fn new(source: Source<'a>) -> Self {
        Self {
            source,
            tap: None,
            validate: false,
        }
    }

    /// A full pass over a batch of images, image `b` in arena slot `b`.
    pub fn images(images: &'a [Tensor]) -> Self {
        Self::new(Source::Images(images))
    }

    /// A full pass over one image (a batch of one).
    pub fn image(image: &'a Tensor) -> Self {
        Self::images(std::slice::from_ref(image))
    }

    /// Suffix replay (§V-A steps 3–4) of a batch: slot `b` re-evaluates
    /// `start` and every node downstream of it, reading all other
    /// operands from the clean activations `bases[b]`. The clean pass is
    /// computed once per image; each (layer, Δ) pair then replays only
    /// the affected part. One cache may fill several slots (one per
    /// noise repeat), and a batch of one is the single-image case. The
    /// tap, if any, is applied exactly once per slot, to `start`'s data
    /// input.
    pub fn suffix(bases: &'a [&'a Activations], start: NodeId) -> Self {
        Self::new(Source::Suffix { bases, start })
    }

    /// Lets `tap` perturb the data input of each dot-product layer it
    /// claims (noise injection, quantization, fault injection). In a
    /// batch the tap sees every image of a node in slot order before the
    /// next node, and learns each image's slot.
    pub fn tap(mut self, tap: &'a mut dyn InputTap) -> Self {
        self.tap = Some(tap);
        self
    }

    /// Sweeps the images (full passes only) and every produced
    /// activation for NaN/Inf. The tap may itself inject non-finite
    /// values — that is what the fault-injection harness does — and the
    /// sweep attributes the fault to the first layer whose *output*
    /// carries it. Off by default.
    pub fn validated(mut self) -> Self {
        self.validate = true;
        self
    }
}

/// Reusable execution state for one network: `max_batch` slots of
/// activations pre-shaped from the build-time dry run, one tap scratch
/// per slot, the shared im2col and GEMM scratch, and the suffix
/// affected-set buffer.
///
/// Create one per worker thread and pass it to [`Network::run`]. After
/// the first run at a given batch size a warm arena performs **zero**
/// heap allocation per run. An arena is shape-locked to the network it
/// was built for (or a clone of it with other weights); using it with a
/// differently shaped network panics.
///
/// # Example
///
/// ```
/// use mupod_nn::{ExecArena, NetworkBuilder, Run};
/// use mupod_tensor::{conv::Conv2dParams, Tensor};
///
/// let mut b = NetworkBuilder::new(&[1, 4, 4]);
/// let input = b.input();
/// let conv = b.conv2d(
///     "conv1",
///     input,
///     Conv2dParams::new(1, 2, 3, 1, 1),
///     Tensor::filled(&[2, 1, 3, 3], 0.1),
///     vec![0.0, 0.0],
/// );
/// let net = b.build(conv).unwrap();
/// let mut arena = ExecArena::for_network(&net);
/// let image = Tensor::filled(&[1, 4, 4], 1.0);
/// let logits = net.run(Run::image(&image), &mut arena).unwrap();
/// assert_eq!(logits.dims(), &[2, 4, 4]);
/// ```
#[derive(Debug)]
pub struct ExecArena {
    /// One slot per batch image.
    slots: Vec<Slot>,
    /// im2col scratch, grown on demand and never shrunk.
    patches: Vec<f32>,
    /// Batched-convolution GEMM output panel.
    gemm_out: Vec<f32>,
    /// Which nodes the current run evaluates.
    affected: Vec<bool>,
    /// Kernel tier every dot-product op dispatches to.
    tier: KernelTier,
}

/// One batch image's activations and tap input scratch. The scratch
/// takes the shape of whichever operand is tapped and grows to the
/// largest one.
#[derive(Debug)]
struct Slot {
    acts: Activations,
    tap_in: Tensor,
}

impl ExecArena {
    /// A one-image arena for `net` on the bit-exact kernel tier.
    pub fn for_network(net: &Network) -> Self {
        Self::new(net, 1, KernelTier::Exact)
    }

    /// An arena for batches of up to `max_batch` images whose conv and
    /// fully-connected nodes run on `tier` ([`KernelTier::Fast`] trades
    /// bit-exactness for the SIMD/FMA microkernels — see
    /// `mupod_tensor::fast`). Every activation slot is allocated up
    /// front from the shapes recorded at build time.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn new(net: &Network, max_batch: usize, tier: KernelTier) -> Self {
        assert!(max_batch > 0, "an arena needs at least one slot");
        let slot = || Slot {
            acts: Activations {
                tensors: (0..net.node_count())
                    .map(|i| Tensor::zeros(net.node_out_dims(NodeId(i))))
                    .collect(),
            },
            tap_in: empty(),
        };
        Self {
            slots: (0..max_batch).map(|_| slot()).collect(),
            patches: Vec::new(),
            gemm_out: Vec::new(),
            affected: Vec::new(),
            tier,
        }
    }

    /// The kernel tier this arena dispatches dot-product ops to.
    pub fn tier(&self) -> KernelTier {
        self.tier
    }

    /// The activations slot `slot` holds from the most recent run. After
    /// a suffix run only the replayed nodes and the output of the
    /// replayed slots are current.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not below the arena's `max_batch`.
    pub fn activations(&self, slot: usize) -> &Activations {
        &self.slots[slot].acts
    }

    /// Consumes the arena, keeping the activations of slot 0.
    pub fn into_activations(mut self) -> Activations {
        self.slots.swap_remove(0).acts
    }
}

/// Output shape of one operator given its input shapes — the shapes the
/// build-time dry run records and [`ExecArena`] slots are allocated with.
///
/// # Panics
///
/// Panics on operand-shape mismatches gross enough to make the output
/// shape undefined (finer mismatches are caught by [`eval_op_into`]).
pub(crate) fn op_output_dims(op: &Op, inputs: &[&[usize]]) -> Vec<usize> {
    let chw = |d: &[usize], what: &str| {
        assert_eq!(d.len(), 3, "{what} expects a CHW tensor");
        (d[0], d[1], d[2])
    };
    match op {
        // lint:allow(no-panic-path) reason=the executor seeds Input nodes from the image and never schedules them for evaluation
        Op::Input => unreachable!("input placeholder is never evaluated"),
        Op::Conv2d { params, .. } => {
            let (_, h, w) = chw(inputs[0], "conv2d");
            let (oh, ow) = params.out_spatial(h, w);
            vec![params.out_channels, oh, ow]
        }
        Op::FullyConnected { weight, .. } => vec![weight.dims()[0]],
        Op::ReLU | Op::Lrn { .. } | Op::ChannelAffine { .. } | Op::Add => inputs[0].to_vec(),
        Op::MaxPool(p) | Op::AvgPool(p) => {
            let (c, h, w) = chw(inputs[0], "pooling");
            let (oh, ow) = p.out_spatial(h, w);
            vec![c, oh, ow]
        }
        Op::GlobalAvgPool => vec![chw(inputs[0], "pooling").0],
        Op::Concat => {
            let (_, h, w) = chw(inputs[0], "concat");
            let mut total_c = 0;
            for d in inputs {
                let (c, dh, dw) = chw(d, "concat");
                assert_eq!(dh, h, "spatial height mismatch in concat");
                assert_eq!(dw, w, "spatial width mismatch in concat");
                total_c += c;
            }
            vec![total_c, h, w]
        }
        Op::Flatten | Op::Softmax => vec![inputs[0].iter().product()],
    }
}

/// Evaluates one per-image operator into a pre-shaped output tensor.
///
/// `out` must already have the shape [`op_output_dims`] reports; its
/// contents are fully overwritten. Fully-connected layers run on `tier`
/// ([`KernelTier::Exact`] keeps the bit-exact contract; `Fast` routes to
/// the SIMD/FMA microkernels); every other op here is tier-independent.
/// Convolutions are not per-image ops: [`Network::run`] sends each conv
/// node's whole batch through [`conv2d_batch_into`].
///
/// # Panics
///
/// Panics on operand-shape mismatches (the tensor kernels validate).
pub(crate) fn eval_op_into(op: &Op, inputs: &[&Tensor], out: &mut Tensor, tier: KernelTier) {
    match op {
        // lint:allow(no-panic-path) reason=the executor seeds Input nodes from the image and batches every conv node through conv2d_batch_into, so neither reaches this dispatch
        Op::Input | Op::Conv2d { .. } => unreachable!("{} is not a per-image op", op.mnemonic()),
        Op::FullyConnected { weight, bias } => {
            assert_eq!(
                inputs[0].dims().len(),
                1,
                "fully-connected input must be rank 1 (insert a flatten)"
            );
            matvec_into(
                tier,
                weight.dims()[0],
                weight.dims()[1],
                weight.data(),
                inputs[0].data(),
                Some(bias),
                out.data_mut(),
            );
        }
        Op::ReLU => {
            assert_eq!(out.numel(), inputs[0].numel(), "relu output size mismatch");
            for (o, &v) in out.data_mut().iter_mut().zip(inputs[0].data()) {
                *o = v.max(0.0);
            }
        }
        Op::MaxPool(p) => max_pool2d_into(inputs[0], p, out.data_mut()),
        Op::AvgPool(p) => avg_pool2d_into(inputs[0], p, out.data_mut()),
        Op::GlobalAvgPool => global_avg_pool_into(inputs[0], out.data_mut()),
        Op::Lrn {
            local_size,
            alpha,
            beta,
            k,
        } => lrn_across_channels_into(inputs[0], *local_size, *alpha, *beta, *k, out.data_mut()),
        Op::ChannelAffine { scale, shift } => {
            let t = inputs[0];
            assert_eq!(t.dims().len(), 3, "channel affine expects CHW");
            let (c, h, w) = (t.dims()[0], t.dims()[1], t.dims()[2]);
            assert_eq!(scale.len(), c, "affine channel count mismatch");
            assert_eq!(out.numel(), t.numel(), "affine output size mismatch");
            let data = out.data_mut();
            for ci in 0..c {
                let (s, b) = (scale[ci], shift[ci]);
                let src = &t.data()[ci * h * w..(ci + 1) * h * w];
                for (o, &v) in data[ci * h * w..(ci + 1) * h * w].iter_mut().zip(src) {
                    *o = s * v + b;
                }
            }
        }
        Op::Add => {
            assert_eq!(out.dims(), inputs[0].dims(), "add output shape mismatch");
            out.data_mut().copy_from_slice(inputs[0].data());
            for t in &inputs[1..] {
                assert_eq!(t.dims(), inputs[0].dims(), "shape mismatch in add_assign");
                for (o, &v) in out.data_mut().iter_mut().zip(t.data()) {
                    *o += v;
                }
            }
        }
        Op::Concat => {
            let total: usize = inputs.iter().map(|t| t.numel()).sum();
            assert_eq!(out.numel(), total, "concat output size mismatch");
            let mut off = 0;
            for p in inputs {
                out.data_mut()[off..off + p.numel()].copy_from_slice(p.data());
                off += p.numel();
            }
        }
        Op::Flatten => {
            assert_eq!(
                out.numel(),
                inputs[0].numel(),
                "flatten output size mismatch"
            );
            out.data_mut().copy_from_slice(inputs[0].data());
        }
        Op::Softmax => {
            assert_eq!(inputs[0].dims().len(), 1, "softmax expects rank 1");
            assert_eq!(
                out.numel(),
                inputs[0].numel(),
                "softmax output size mismatch"
            );
            let max = inputs[0]
                .data()
                .iter()
                .fold(f32::NEG_INFINITY, |m, &v| m.max(v));
            for (o, &v) in out.data_mut().iter_mut().zip(inputs[0].data()) {
                *o = (v - max).exp();
            }
            let sum: f32 = out.data().iter().sum();
            for o in out.data_mut() {
                *o /= sum;
            }
        }
    }
}

impl Network {
    /// Marks in `affected` the nodes a suffix replay from `start`
    /// re-evaluates: `start` and every node downstream of it.
    fn mark_affected(&self, start: NodeId, affected: &mut Vec<bool>) {
        affected.clear();
        affected.resize(self.nodes.len(), false);
        affected[start.0] = true;
        for i in (start.0 + 1)..self.nodes.len() {
            affected[i] = self.nodes[i].inputs.iter().any(|p| affected[p.0]);
        }
    }

    /// Which activations a suffix replay from any of `starts` reads from
    /// its clean cache — the unaffected operands of the nodes it
    /// re-evaluates — plus the network output, against which a replay's
    /// logits are compared. The keep mask for
    /// [`Activations::retained`].
    pub fn replay_operands(&self, starts: &[NodeId]) -> Vec<bool> {
        let mut keep = vec![false; self.nodes.len()];
        keep[self.output.0] = true;
        let mut affected = Vec::new();
        for &start in starts {
            self.mark_affected(start, &mut affected);
            for (node, _) in self.nodes.iter().zip(&affected).filter(|(_, &a)| a) {
                for p in &node.inputs {
                    keep[p.0] |= !affected[p.0];
                }
            }
        }
        keep
    }

    /// Executes `run` into `arena` — the one node loop behind every
    /// forward pass — and returns the logits of its first image. Every
    /// image's logits are readable afterwards as
    /// `net.output(arena.activations(b))` — in a suffix run too, where a
    /// start layer that does not reach the output leaves the clean
    /// logits — and a full pass leaves every activation there.
    ///
    /// # Errors
    ///
    /// Only a validated run fails: [`ExecError::NonFiniteInput`] for a
    /// bad image and [`ExecError::NonFiniteActivation`] naming the first
    /// layer (in topological order, over the whole batch) whose output
    /// contains NaN/Inf.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or one larger than the arena's
    /// `max_batch`, an image whose shape is not
    /// [`Network::input_dims`], a suffix start that is not a dot-product
    /// layer, clean activations built for a different network or pruned
    /// of an operand the replay reads, an arena built for a different
    /// network, and a node with more than 16 inputs.
    pub fn run<'s>(&self, run: Run<'_>, arena: &'s mut ExecArena) -> Result<&'s Tensor, ExecError> {
        let Run {
            source,
            tap,
            validate,
        } = run;
        let mut no_tap = NoTap;
        let tap: &mut dyn InputTap = match tap {
            Some(tap) => tap,
            None => &mut no_tap,
        };
        let ExecArena {
            slots,
            patches,
            gemm_out,
            affected,
            tier,
        } = arena;
        let n_nodes = self.nodes.len();
        let max_batch = slots.len();
        let n = match source {
            Source::Images(images) => images.len(),
            Source::Suffix { bases, .. } => bases.len(),
        };
        assert!(n > 0, "empty batch");
        assert!(
            n <= max_batch,
            "batch of {n} exceeds the arena's {max_batch} slots"
        );
        let live = &mut slots[..n];
        for slot in live.iter() {
            assert_eq!(
                slot.acts.tensors.len(),
                n_nodes,
                "arena does not match network"
            );
        }
        let suffix = match source {
            Source::Images(images) => {
                for (slot, image) in live.iter_mut().zip(images) {
                    assert_eq!(
                        image.dims(),
                        self.input_dims(),
                        "image shape does not match network input"
                    );
                    if validate {
                        image
                            .validate_finite()
                            .map_err(|source| ExecError::NonFiniteInput { source })?;
                    }
                    slot.acts.tensors[0].copy_from(image);
                }
                affected.clear();
                affected.resize(n_nodes, true);
                mupod_obs::counter_add("nn.forward_passes", n as u64);
                mupod_obs::counter_add("nn.node_evals", (n * (n_nodes - 1)) as u64);
                if max_batch > 1 {
                    mupod_obs::counter_add("nn.batch_passes", 1);
                    mupod_obs::counter_add("nn.batch_images", n as u64);
                }
                None
            }
            Source::Suffix { bases, start } => {
                assert!(
                    self.nodes[start.0].op.is_dot_product(),
                    "suffix replay must start at a dot-product layer"
                );
                self.mark_affected(start, affected);
                for base in bases {
                    assert_eq!(
                        base.len(),
                        n_nodes,
                        "activation cache does not match network"
                    );
                    for (i, node) in self.nodes.iter().enumerate().filter(|&(i, _)| affected[i]) {
                        for &p in node.inputs.iter().filter(|p| !affected[p.0]) {
                            assert_eq!(
                                base.get(p).dims(),
                                self.node_out_dims(p),
                                "clean activations were pruned of `{}`, an operand of `{}`",
                                self.nodes[p.0].name,
                                self.nodes[i].name
                            );
                        }
                    }
                }
                let evals = affected.iter().filter(|&&a| a).count();
                mupod_obs::counter_add("nn.suffix_replays", n as u64);
                mupod_obs::counter_add("nn.node_evals", (n * evals) as u64);
                Some((bases, start))
            }
        };
        let affected: &[bool] = affected;
        let first = suffix.map_or(1, |(_, start)| start.0);
        for (i, node) in self.nodes.iter().enumerate().skip(first) {
            if !affected[i] {
                continue;
            }
            let id = NodeId(i);
            let fanin = node.inputs.len();
            assert!(
                fanin <= MAX_FANIN,
                "node `{}` has {fanin} inputs, more than {MAX_FANIN}",
                node.name
            );
            let tapped = match suffix {
                Some((_, start)) => id == start,
                None => node.op.is_dot_product() && tap.wants(id),
            };
            for (c, chunk) in live.chunks_mut(BATCH_CHUNK).enumerate() {
                let m = chunk.len();
                // Each slot's operands: recomputed inputs from the slot
                // itself, the rest of a suffix run's from the slot's clean
                // cache, and a tapped data input perturbed in the slot's
                // scratch.
                let gathered = chunk
                    .iter_mut()
                    .enumerate()
                    .map(|(b, Slot { acts, tap_in })| {
                        let slot = c * BATCH_CHUNK + b;
                        let (prev, rest) = acts.tensors.split_at_mut(i);
                        let prev: &[Tensor] = prev;
                        let resolve = |p: NodeId| match suffix {
                            Some((bases, _)) if !affected[p.0] => bases[slot].get(p),
                            _ => &prev[p.0],
                        };
                        let mut ins = [resolve(node.inputs[0]); MAX_FANIN];
                        for (input, &p) in ins.iter_mut().zip(&node.inputs) {
                            *input = resolve(p);
                        }
                        if tapped {
                            tap_in.clone_from(ins[0]);
                            tap.apply(id, slot, tap_in);
                            ins[0] = tap_in;
                        }
                        (ins, &mut rest[0])
                    });
                let Op::Conv2d {
                    params,
                    weight,
                    bias,
                } = &node.op
                else {
                    for (ins, out) in gathered {
                        eval_op_into(&node.op, &ins[..fanin], out, *tier);
                    }
                    continue;
                };
                // The chunk's convolutions run as batched GEMMs; entries
                // past `m` keep a placeholder and are unread.
                let mut conv_in = [weight; BATCH_CHUNK];
                let mut conv_out: [&mut [f32]; BATCH_CHUNK] = Default::default();
                for (b, (ins, out)) in gathered.enumerate() {
                    conv_in[b] = ins[0];
                    conv_out[b] = out.data_mut();
                }
                conv2d_batch_into(
                    *tier,
                    &conv_in[..m],
                    weight,
                    Some(bias),
                    params,
                    patches,
                    gemm_out,
                    &mut conv_out[..m],
                );
            }
            if validate {
                for slot in live.iter() {
                    slot.acts.tensors[i].validate_finite().map_err(|source| {
                        ExecError::NonFiniteActivation {
                            node: id,
                            name: node.name.clone(),
                            source,
                        }
                    })?;
                }
            }
        }
        let out = self.output.0;
        if let Some((bases, _)) = suffix.filter(|_| !affected[out]) {
            for (slot, base) in live.iter_mut().zip(bases) {
                slot.acts.tensors[out].copy_from(base.get(self.output));
            }
        }
        Ok(&live[0].acts.tensors[out])
    }

    /// Unvalidated single-image run: the logits of `image`.
    pub(crate) fn run_clean<'s>(&self, image: &'s Tensor, arena: &'s mut ExecArena) -> &'s Tensor {
        match self.run(Run::image(image), arena) {
            Ok(logits) => logits,
            // lint:allow(no-panic-path) reason=only a validated run can fail and this one validates nothing; the arm is unreachable by construction
            Err(_) => unreachable!("unvalidated run cannot fail"),
        }
    }

    /// Runs a clean forward pass on a throwaway [`ExecArena`], returning
    /// every activation. Runs on the exact tier.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match [`Network::input_dims`].
    pub fn forward(&self, image: &Tensor) -> Activations {
        let mut arena = ExecArena::for_network(self);
        self.run_clean(image, &mut arena);
        arena.into_activations()
    }

    /// The output (logits) tensor of a completed pass.
    pub fn output<'a>(&self, acts: &'a Activations) -> &'a Tensor {
        acts.get(self.output)
    }

    /// Classifies an image: the argmax of the logits after a clean pass
    /// on a throwaway exact-tier arena.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match [`Network::input_dims`].
    pub fn classify(&self, image: &Tensor) -> usize {
        self.classify_arena(image, &mut ExecArena::for_network(self))
    }

    /// [`Network::classify`] over a reusable arena, on its tier.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match [`Network::input_dims`] or the
    /// arena was built for a different network.
    pub fn classify_arena(&self, image: &Tensor, arena: &mut ExecArena) -> usize {
        self.run_clean(image, arena).argmax()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NetworkBuilder;
    use crate::tap::{FaultKind, FaultTap, UniformNoiseTap};
    use mupod_stats::SeededRng;
    use mupod_tensor::conv::Conv2dParams;
    use mupod_tensor::pool::Pool2dParams;

    fn random_tensor(rng: &mut SeededRng, dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        Tensor::from_vec(
            dims,
            (0..n).map(|_| rng.gaussian(0.0, 0.5) as f32).collect(),
        )
    }

    /// A net exercising every op: conv, affine, relu, pools, lrn,
    /// residual add, concat, flatten, fc.
    fn full_net(rng: &mut SeededRng) -> Network {
        let mut b = NetworkBuilder::new(&[2, 8, 8]);
        let input = b.input();
        let c1 = b.conv2d(
            "c1",
            input,
            Conv2dParams::new(2, 4, 3, 1, 1),
            random_tensor(rng, &[4, 2, 3, 3]),
            vec![0.05; 4],
        );
        let bn = b.channel_affine("bn1", c1, vec![1.1; 4], vec![-0.02; 4]);
        let r1 = b.relu("r1", bn);
        let lrn = b.lrn("lrn1", r1, 3, 1e-2, 0.75, 1.0);
        let p1 = b.max_pool("p1", lrn, Pool2dParams::new(2, 2, 0)); // 4x4
        let c2 = b.conv2d(
            "c2",
            p1,
            Conv2dParams::new(4, 4, 3, 1, 1),
            random_tensor(rng, &[4, 4, 3, 3]),
            vec![0.0; 4],
        );
        let res = b.add("res", &[p1, c2]);
        let c3 = b.conv2d(
            "c3a",
            res,
            Conv2dParams::new(4, 2, 1, 1, 0),
            random_tensor(rng, &[2, 4, 1, 1]),
            vec![0.0; 2],
        );
        let c4 = b.conv2d(
            "c3b",
            res,
            Conv2dParams::new(4, 2, 3, 1, 1),
            random_tensor(rng, &[2, 4, 3, 3]),
            vec![0.0; 2],
        );
        let cat = b.concat("cat", &[c3, c4]);
        let ap = b.avg_pool("ap", cat, Pool2dParams::new(2, 2, 0)); // 2x2
        let fl = b.flatten("fl", ap);
        let fc = b.fully_connected("fc", fl, random_tensor(rng, &[5, 16]), vec![0.0; 5]);
        b.build(fc).unwrap()
    }

    fn tiny_net(rng: &mut SeededRng) -> Network {
        let mut b = NetworkBuilder::new(&[1, 6, 6]);
        let input = b.input();
        let c = b.conv2d(
            "c",
            input,
            Conv2dParams::new(1, 3, 3, 1, 1),
            random_tensor(rng, &[3, 1, 3, 3]),
            vec![0.1; 3],
        );
        let r = b.relu("r", c);
        let g = b.global_avg_pool("g", r);
        b.build(g).unwrap()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    fn softmax(v: Vec<f32>) -> Tensor {
        let input = Tensor::from_vec(&[v.len()], v);
        let mut out = Tensor::zeros(input.dims());
        eval_op_into(&Op::Softmax, &[&input], &mut out, KernelTier::Exact);
        out
    }

    #[test]
    fn forward_shapes_all_ops() {
        let mut rng = SeededRng::new(3);
        let net = full_net(&mut rng);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let acts = net.forward(&image);
        assert_eq!(net.output(&acts).dims(), &[5]);
        assert_eq!(acts.len(), net.node_count());
    }

    #[test]
    fn softmax_sums_to_one() {
        let out = softmax(vec![1.0, 2.0, 3.0]);
        let sum: f32 = out.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(out.data()[2] > out.data()[1]);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let out = softmax(vec![1000.0, 1001.0]);
        assert!(out.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn warm_arena_matches_fresh_arena() {
        let mut rng = SeededRng::new(3);
        let net = full_net(&mut rng);
        let mut arena = ExecArena::for_network(&net);
        // Several images through the SAME arena: warm-slot reuse must not
        // leak state between passes.
        for seed in 0..4u64 {
            let image = random_tensor(&mut SeededRng::new(100 + seed), &[2, 8, 8]);
            let fresh = net.forward(&image);
            net.run(Run::image(&image), &mut arena).unwrap();
            for i in 0..net.node_count() {
                assert_eq!(
                    bits(fresh.get(NodeId(i))),
                    bits(arena.activations(0).get(NodeId(i))),
                    "node {i} diverged on image {seed}"
                );
            }
        }
    }

    #[test]
    fn suffix_replay_matches_full_tapped_pass() {
        let mut rng = SeededRng::new(5);
        let net = full_net(&mut rng);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let base = net.forward(&image);
        let mut arena = ExecArena::for_network(&net);
        for &layer in &net.dot_product_layers() {
            // The same seeded tap must produce identical outputs whether
            // we replay the suffix or rerun the full network.
            let mut tap = UniformNoiseTap::single(layer, 0.05, SeededRng::new(77));
            let suffix = net
                .run(Run::suffix(&[&base], layer).tap(&mut tap), &mut arena)
                .unwrap()
                .clone();
            let mut tap = UniformNoiseTap::single(layer, 0.05, SeededRng::new(77));
            let full = net.run(Run::image(&image).tap(&mut tap), &mut arena);
            assert_eq!(bits(&suffix), bits(full.unwrap()), "layer {layer}");
        }
    }

    #[test]
    fn suffix_replay_without_noise_equals_clean() {
        let mut rng = SeededRng::new(9);
        let net = full_net(&mut rng);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let base = net.forward(&image);
        let layer = net.dot_product_layers()[1];
        let mut arena = ExecArena::for_network(&net);
        let out = net.run(Run::suffix(&[&base], layer), &mut arena).unwrap();
        assert_eq!(bits(out), bits(net.output(&base)));
    }

    #[test]
    fn injection_changes_output() {
        let mut rng = SeededRng::new(13);
        let net = full_net(&mut rng);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let base = net.forward(&image);
        let layer = net.dot_product_layers()[0];
        let mut tap = UniformNoiseTap::single(layer, 0.5, SeededRng::new(1));
        let mut arena = ExecArena::for_network(&net);
        let noisy = net
            .run(Run::suffix(&[&base], layer).tap(&mut tap), &mut arena)
            .unwrap();
        assert!(noisy.sub(net.output(&base)).max_abs() > 0.0);
    }

    #[test]
    fn suffix_then_forward_does_not_leak_state() {
        // A suffix replay leaves stale values in unaffected slots; a
        // subsequent full forward must overwrite every slot it reads.
        let mut rng = SeededRng::new(15);
        let net = full_net(&mut rng);
        let mut arena = ExecArena::for_network(&net);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let base = net.forward(&image);
        let layer = *net.dot_product_layers().last().unwrap();
        let mut tap = UniformNoiseTap::single(layer, 0.5, SeededRng::new(1));
        net.run(Run::suffix(&[&base], layer).tap(&mut tap), &mut arena)
            .unwrap();

        let image2 = random_tensor(&mut rng, &[2, 8, 8]);
        let fresh = net.forward(&image2);
        let warm = net.run(Run::image(&image2), &mut arena).unwrap();
        assert_eq!(bits(net.output(&fresh)), bits(warm));
    }

    #[test]
    fn classify_is_argmax_of_logits() {
        let mut rng = SeededRng::new(15);
        let net = full_net(&mut rng);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let acts = net.forward(&image);
        let mut arena = ExecArena::for_network(&net);
        assert_eq!(net.classify(&image), net.output(&acts).argmax());
        assert_eq!(net.classify_arena(&image, &mut arena), net.classify(&image));
    }

    #[test]
    #[should_panic(expected = "image shape does not match")]
    fn forward_rejects_wrong_image_shape() {
        let mut rng = SeededRng::new(17);
        let net = full_net(&mut rng);
        net.forward(&Tensor::zeros(&[1, 8, 8]));
    }

    #[test]
    fn checked_pass_accepts_clean_network() {
        let mut rng = SeededRng::new(21);
        let net = full_net(&mut rng);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let plain = net.forward(&image);
        let mut arena = ExecArena::for_network(&net);
        let checked = Run::image(&image).validated();
        assert_eq!(
            bits(net.run(checked, &mut arena).unwrap()),
            bits(net.output(&plain)),
            "validation must not change the numbers"
        );
    }

    #[test]
    fn checked_pass_rejects_non_finite_image() {
        let mut rng = SeededRng::new(23);
        let net = full_net(&mut rng);
        let mut image = random_tensor(&mut rng, &[2, 8, 8]);
        image.data_mut()[7] = f32::NAN;
        let mut arena = ExecArena::for_network(&net);
        let checked = Run::image(&image).validated();
        match net.run(checked, &mut arena).unwrap_err() {
            ExecError::NonFiniteInput { .. } => {}
            e => panic!("expected NonFiniteInput, got {e:?}"),
        }
    }

    #[test]
    fn checked_pass_blames_first_faulty_layer() {
        let mut rng = SeededRng::new(25);
        let net = full_net(&mut rng);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let layer = net.dot_product_layers()[1];
        let mut tap = FaultTap::single_element(layer, FaultKind::Nan);
        let mut arena = ExecArena::for_network(&net);
        let run = Run::image(&image).tap(&mut tap).validated();
        match net.run(run, &mut arena).unwrap_err() {
            // The NaN enters via the tapped layer's input, so the tapped
            // layer itself is the first to emit a non-finite output.
            ExecError::NonFiniteActivation { node, .. } => assert_eq!(node, layer),
            e => panic!("expected NonFiniteActivation, got {e:?}"),
        }
    }

    #[test]
    fn checked_suffix_replay_detects_injected_inf() {
        let mut rng = SeededRng::new(27);
        let net = full_net(&mut rng);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let base = net.forward(&image);
        let layer = net.dot_product_layers()[0];
        let mut tap = FaultTap::new(layer, FaultKind::PosInf, 1);
        let mut arena = ExecArena::for_network(&net);
        let bases = [&base];
        let run = Run::suffix(&bases, layer).tap(&mut tap).validated();
        let err = net.run(run, &mut arena).unwrap_err();
        assert!(matches!(err, ExecError::NonFiniteActivation { .. }));
        let msg = err.to_string();
        assert!(msg.contains("numerically invalid"), "{msg}");
    }

    #[test]
    fn validation_off_passes_faults_through() {
        let mut rng = SeededRng::new(29);
        let net = full_net(&mut rng);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let layer = net.dot_product_layers()[0];
        let mut tap = FaultTap::single_element(layer, FaultKind::Nan);
        let mut arena = ExecArena::for_network(&net);
        // With checks off the pass completes without complaint even
        // though a NaN flowed through it — max-based ops (ReLU, pooling)
        // can even launder it back into finite-but-wrong values. This is
        // exactly the silent corruption the guardrails exist to prevent.
        let run = Run::image(&image).tap(&mut tap);
        assert!(net.run(run, &mut arena).is_ok());
    }

    #[test]
    fn batch_classify_matches_sequential_classify() {
        let mut rng = SeededRng::new(21);
        let net = tiny_net(&mut rng);
        // 20 images span three stack-gathered chunks of the batched conv.
        let mut batch = ExecArena::new(&net, 20, KernelTier::Exact);
        let images: Vec<Tensor> = (0..20)
            .map(|_| random_tensor(&mut rng, &[1, 6, 6]))
            .collect();
        net.run(Run::images(&images), &mut batch).unwrap();
        for (b, image) in images.iter().enumerate() {
            let seq = net.forward(image);
            assert_eq!(
                bits(net.output(batch.activations(b))),
                bits(net.output(&seq)),
                "image {b}"
            );
        }
    }

    #[test]
    fn partial_batches_reuse_the_same_arena() {
        let mut rng = SeededRng::new(23);
        let net = tiny_net(&mut rng);
        let mut batch = ExecArena::new(&net, 4, KernelTier::Exact);
        // Warm every slot with one full batch, then run a smaller one:
        // stale slot 3 state must not bleed into the partial pass.
        let warm: Vec<Tensor> = (0..4)
            .map(|_| random_tensor(&mut rng, &[1, 6, 6]))
            .collect();
        net.run(Run::images(&warm), &mut batch).unwrap();
        let small: Vec<Tensor> = (0..2)
            .map(|_| random_tensor(&mut rng, &[1, 6, 6]))
            .collect();
        net.run(Run::images(&small), &mut batch).unwrap();
        for (b, image) in small.iter().enumerate() {
            let got = net.output(batch.activations(b)).argmax();
            assert_eq!(got, net.classify(image));
        }
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_is_rejected() {
        let mut rng = SeededRng::new(25);
        let net = tiny_net(&mut rng);
        let mut batch = ExecArena::new(&net, 2, KernelTier::Exact);
        let _ = net.run(Run::images(&[]), &mut batch);
    }

    #[test]
    #[should_panic(expected = "exceeds the arena")]
    fn oversized_batch_is_rejected() {
        let mut rng = SeededRng::new(27);
        let net = tiny_net(&mut rng);
        let mut batch = ExecArena::new(&net, 2, KernelTier::Exact);
        let images: Vec<Tensor> = (0..3)
            .map(|_| random_tensor(&mut rng, &[1, 6, 6]))
            .collect();
        let _ = net.run(Run::images(&images), &mut batch);
    }
}
