//! Network construction and validation.

use crate::exec::op_output_dims;
use crate::layer::{Node, NodeId, Op};
use mupod_quant::FixedPointFormat;
use mupod_tensor::conv::Conv2dParams;
use mupod_tensor::pool::Pool2dParams;
use mupod_tensor::Tensor;

/// Errors produced while building a [`Network`].
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// Two nodes share a name.
    DuplicateName(String),
    /// The shape-validation dry run panicked or produced an
    /// inconsistency; the payload is the layer name and the message.
    ShapeMismatch(String, String),
    /// A node is not connected to the designated output.
    UnreachableOutput,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::DuplicateName(n) => write!(f, "duplicate layer name `{n}`"),
            BuildError::ShapeMismatch(layer, msg) => {
                write!(f, "shape error at layer `{layer}`: {msg}")
            }
            BuildError::UnreachableOutput => write!(f, "output node unreachable from input"),
        }
    }
}

impl std::error::Error for BuildError {}

/// An immutable inference network: nodes in topological order with a
/// designated output node (the pre-softmax layer `Ł` of the paper).
///
/// Built with [`NetworkBuilder`]; see the crate-level example.
#[derive(Debug, Clone)]
pub struct Network {
    pub(crate) nodes: Vec<Node>,
    pub(crate) input_dims: Vec<usize>,
    pub(crate) output: NodeId,
    /// Output dims of every node, recorded during the validation pass.
    pub(crate) out_dims: Vec<Vec<usize>>,
}

impl Network {
    /// The expected image shape (CHW).
    pub fn input_dims(&self) -> &[usize] {
        &self.input_dims
    }

    /// Number of nodes, including the input placeholder.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The designated output node (pre-softmax logits).
    pub fn output_id(&self) -> NodeId {
        self.output
    }

    /// The node with a given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Output shape of a node, as recorded by the validation dry run.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_out_dims(&self, id: NodeId) -> &[usize] {
        &self.out_dims[id.0]
    }

    /// Looks a node up by name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name).map(NodeId)
    }

    /// Ids of the dot-product layers (convolutional and fully-connected),
    /// in topological order — the set the paper's optimizer allocates
    /// bitwidths over.
    pub fn dot_product_layers(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.op.is_dot_product())
            .map(|(i, _)| NodeId(i))
            .collect()
    }

    /// Iterates over `(id, node)` pairs in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// Returns a copy of this network with all dot-product weights (and
    /// biases) rounded to `bits`-bit fixed point.
    ///
    /// Each layer's weight format spends `⌈log2 max|w|⌉ + 1` integer bits
    /// and the remaining `bits − I` fraction bits — the uniform weight
    /// bitwidth convention of Stripes/Loom that §V-E searches over.
    pub fn with_quantized_weights(&self, bits: u32) -> Network {
        let mut out = self.clone();
        for node in &mut out.nodes {
            match &mut node.op {
                Op::Conv2d { weight, bias, .. } | Op::FullyConnected { weight, bias } => {
                    let max_abs = weight.max_abs() as f64;
                    let int_bits = FixedPointFormat::int_bits_for_max_abs(max_abs);
                    let fmt = FixedPointFormat::new(int_bits, bits as i32 - int_bits);
                    fmt.quantize_tensor(weight);
                    // Biases keep the same fractional step but their own
                    // integer range: accelerators hold biases in the wide
                    // accumulator, so clamping them to the weight range
                    // would inject a spurious constant output shift.
                    let bias_max = bias.iter().fold(0.0f32, |m, b| m.max(b.abs()));
                    let bias_fmt = FixedPointFormat::new(
                        FixedPointFormat::int_bits_for_max_abs(bias_max as f64),
                        fmt.frac_bits(),
                    );
                    for b in bias.iter_mut() {
                        *b = bias_fmt.quantize_f32(*b);
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Replaces the weights and bias of a dot-product layer in place.
    ///
    /// Used by the model zoo's classifier calibration (linear probe): the
    /// head layer's weights are re-fit by ridge regression while the rest
    /// of the network stays frozen.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a dot-product layer, or the new weight/bias
    /// shapes differ from the old ones.
    pub fn set_layer_weights(&mut self, id: NodeId, weight: Tensor, bias: Vec<f32>) {
        let node = &mut self.nodes[id.0];
        match &mut node.op {
            Op::Conv2d {
                weight: w, bias: b, ..
            }
            | Op::FullyConnected { weight: w, bias: b } => {
                assert_eq!(w.dims(), weight.dims(), "replacement weight shape mismatch");
                assert_eq!(b.len(), bias.len(), "replacement bias length mismatch");
                *w = weight;
                *b = bias;
            }
            // lint:allow(no-panic-path) reason=documented `# Panics` contract for builder-API misuse, a programming bug rather than a runtime condition
            _ => panic!("node {id} is not a dot-product layer"),
        }
    }

    /// Returns a copy with uniform noise `U[-Δ, Δ]` added to one
    /// layer's weights (bias untouched).
    ///
    /// This is the weight-side analogue of the input-noise tap: the
    /// probe behind the analytical weight-bitwidth extension in
    /// `mupod-core` (the paper's Eq. 2 carries a `δ_w` term; §V-E only
    /// searches a uniform weight width empirically).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a dot-product layer or `delta` is negative.
    pub fn with_perturbed_weights(
        &self,
        id: NodeId,
        delta: f64,
        rng: &mut mupod_stats::SeededRng,
    ) -> Network {
        assert!(delta >= 0.0, "delta must be non-negative");
        let mut out = self.clone();
        let node = &mut out.nodes[id.0];
        match &mut node.op {
            Op::Conv2d { weight, .. } | Op::FullyConnected { weight, .. } => {
                for v in weight.data_mut() {
                    *v += rng.symmetric_uniform(delta) as f32;
                }
            }
            // lint:allow(no-panic-path) reason=documented `# Panics` contract for builder-API misuse, a programming bug rather than a runtime condition
            _ => panic!("node {id} is not a dot-product layer"),
        }
        out
    }

    /// Applies an in-place update to a dot-product layer's weight and
    /// bias (e.g. an SGD step from `mupod-train`).
    ///
    /// Unlike [`Network::set_layer_weights`] this borrows the existing
    /// parameters mutably, so optimizers can update without reallocating.
    /// Shapes cannot change.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a dot-product layer.
    pub fn update_layer_weights<F: FnOnce(&mut Tensor, &mut [f32])>(&mut self, id: NodeId, f: F) {
        let node = &mut self.nodes[id.0];
        match &mut node.op {
            Op::Conv2d {
                weight: w, bias: b, ..
            }
            | Op::FullyConnected { weight: w, bias: b } => f(w, b),
            // lint:allow(no-panic-path) reason=documented `# Panics` contract for builder-API misuse, a programming bug rather than a runtime condition
            _ => panic!("node {id} is not a dot-product layer"),
        }
    }

    /// Total learned parameters (weights + biases) in dot-product layers.
    pub fn parameter_count(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match &n.op {
                Op::Conv2d { weight, bias, .. } | Op::FullyConnected { weight, bias } => {
                    weight.numel() + bias.len()
                }
                _ => 0,
            })
            .sum()
    }
}

/// Incremental builder for [`Network`].
///
/// Node-creating methods return the new [`NodeId`]; because a node can
/// only reference ids the builder already handed out, insertion order is
/// a topological order by construction.
#[derive(Debug)]
pub struct NetworkBuilder {
    nodes: Vec<Node>,
    input_dims: Vec<usize>,
}

impl NetworkBuilder {
    /// Starts a network taking CHW images of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `input_dims` is not rank 3.
    pub fn new(input_dims: &[usize]) -> Self {
        assert_eq!(input_dims.len(), 3, "network input must be CHW");
        Self {
            nodes: vec![Node {
                name: "input".to_string(),
                op: Op::Input,
                inputs: vec![],
            }],
            input_dims: input_dims.to_vec(),
        }
    }

    /// The id of the image input placeholder.
    pub fn input(&self) -> NodeId {
        NodeId(0)
    }

    fn push(&mut self, name: impl Into<String>, op: Op, inputs: Vec<NodeId>) -> NodeId {
        let name = name.into();
        for &i in &inputs {
            assert!(i.0 < self.nodes.len(), "input {i} does not exist yet");
        }
        if let Some(arity) = op.arity() {
            assert_eq!(inputs.len(), arity, "op {} arity mismatch", op.mnemonic());
        } else {
            assert!(inputs.len() >= 2, "variadic op needs at least two inputs");
        }
        self.nodes.push(Node { name, op, inputs });
        NodeId(self.nodes.len() - 1)
    }

    /// Adds a convolution node.
    ///
    /// # Panics
    ///
    /// Panics if the weight shape disagrees with `params` or the bias
    /// length with the output channel count.
    pub fn conv2d(
        &mut self,
        name: impl Into<String>,
        input: NodeId,
        params: Conv2dParams,
        weight: Tensor,
        bias: Vec<f32>,
    ) -> NodeId {
        assert_eq!(
            weight.dims(),
            &[
                params.out_channels,
                params.in_channels / params.groups,
                params.kernel,
                params.kernel
            ],
            "conv weight shape mismatch"
        );
        assert_eq!(bias.len(), params.out_channels, "conv bias length mismatch");
        self.push(
            name,
            Op::Conv2d {
                params,
                weight,
                bias,
            },
            vec![input],
        )
    }

    /// Adds a fully-connected node (input must be rank 1 at run time).
    ///
    /// # Panics
    ///
    /// Panics if the weight is not rank 2 or the bias length mismatches.
    pub fn fully_connected(
        &mut self,
        name: impl Into<String>,
        input: NodeId,
        weight: Tensor,
        bias: Vec<f32>,
    ) -> NodeId {
        assert_eq!(weight.dims().len(), 2, "fc weight must be rank 2");
        assert_eq!(bias.len(), weight.dims()[0], "fc bias length mismatch");
        self.push(name, Op::FullyConnected { weight, bias }, vec![input])
    }

    /// Adds a ReLU node.
    pub fn relu(&mut self, name: impl Into<String>, input: NodeId) -> NodeId {
        self.push(name, Op::ReLU, vec![input])
    }

    /// Adds a max-pooling node.
    pub fn max_pool(
        &mut self,
        name: impl Into<String>,
        input: NodeId,
        params: Pool2dParams,
    ) -> NodeId {
        self.push(name, Op::MaxPool(params), vec![input])
    }

    /// Adds an average-pooling node.
    pub fn avg_pool(
        &mut self,
        name: impl Into<String>,
        input: NodeId,
        params: Pool2dParams,
    ) -> NodeId {
        self.push(name, Op::AvgPool(params), vec![input])
    }

    /// Adds a global-average-pooling node (CHW → C).
    pub fn global_avg_pool(&mut self, name: impl Into<String>, input: NodeId) -> NodeId {
        self.push(name, Op::GlobalAvgPool, vec![input])
    }

    /// Adds an across-channel LRN node.
    pub fn lrn(
        &mut self,
        name: impl Into<String>,
        input: NodeId,
        local_size: usize,
        alpha: f32,
        beta: f32,
        k: f32,
    ) -> NodeId {
        self.push(
            name,
            Op::Lrn {
                local_size,
                alpha,
                beta,
                k,
            },
            vec![input],
        )
    }

    /// Adds a per-channel affine node (folded batch normalization).
    ///
    /// # Panics
    ///
    /// Panics if `scale` and `shift` lengths differ.
    pub fn channel_affine(
        &mut self,
        name: impl Into<String>,
        input: NodeId,
        scale: Vec<f32>,
        shift: Vec<f32>,
    ) -> NodeId {
        assert_eq!(scale.len(), shift.len(), "affine scale/shift mismatch");
        self.push(name, Op::ChannelAffine { scale, shift }, vec![input])
    }

    /// Adds an element-wise addition node over two or more inputs.
    pub fn add(&mut self, name: impl Into<String>, inputs: &[NodeId]) -> NodeId {
        self.push(name, Op::Add, inputs.to_vec())
    }

    /// Adds a channel concatenation node over two or more inputs.
    pub fn concat(&mut self, name: impl Into<String>, inputs: &[NodeId]) -> NodeId {
        self.push(name, Op::Concat, inputs.to_vec())
    }

    /// Adds a flatten node (CHW → vector).
    pub fn flatten(&mut self, name: impl Into<String>, input: NodeId) -> NodeId {
        self.push(name, Op::Flatten, vec![input])
    }

    /// Adds a softmax node over a rank-1 vector.
    pub fn softmax(&mut self, name: impl Into<String>, input: NodeId) -> NodeId {
        self.push(name, Op::Softmax, vec![input])
    }

    /// Finalizes the network with `output` as the designated logits node.
    ///
    /// Runs one dry forward pass on a zero image to validate every shape
    /// and record per-node output dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::DuplicateName`] for repeated layer names,
    /// [`BuildError::ShapeMismatch`] when the dry run fails, and
    /// [`BuildError::UnreachableOutput`] if `output` does not depend on
    /// the image input.
    pub fn build(self, output: NodeId) -> Result<Network, BuildError> {
        let mut seen = std::collections::HashSet::new();
        for node in &self.nodes {
            if !seen.insert(node.name.clone()) {
                return Err(BuildError::DuplicateName(node.name.clone()));
            }
        }
        // Reachability from the input placeholder.
        let mut reaches_input = vec![false; self.nodes.len()];
        reaches_input[0] = true;
        for (i, node) in self.nodes.iter().enumerate().skip(1) {
            reaches_input[i] = node.inputs.iter().any(|&p| reaches_input[p.0]);
        }
        if !reaches_input[output.0] {
            return Err(BuildError::UnreachableOutput);
        }

        let mut net = Network {
            nodes: self.nodes,
            input_dims: self.input_dims,
            output,
            out_dims: vec![],
        };
        // Record every node's output shape, then dry-run the network to
        // validate them; shape inference and the tensor kernels panic on
        // a mismatch, so trap the panic and convert it into a build error.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut dims = vec![net.input_dims.clone()];
            for node in &net.nodes[1..] {
                let ins: Vec<&[usize]> = node.inputs.iter().map(|p| &dims[p.0][..]).collect();
                dims.push(op_output_dims(&node.op, &ins));
            }
            net.out_dims = dims;
            net.forward(&Tensor::zeros(&net.input_dims));
        }));
        match result {
            Ok(()) => Ok(net),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "unknown shape panic".to_string());
                Err(BuildError::ShapeMismatch("<dry-run>".to_string(), msg))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_net() -> Network {
        let mut b = NetworkBuilder::new(&[1, 4, 4]);
        let input = b.input();
        let conv = b.conv2d(
            "conv1",
            input,
            Conv2dParams::new(1, 2, 3, 1, 1),
            Tensor::filled(&[2, 1, 3, 3], 0.1),
            vec![0.1, -0.1],
        );
        let relu = b.relu("relu1", conv);
        let gap = b.global_avg_pool("gap", relu);
        b.build(gap).unwrap()
    }

    #[test]
    fn builder_produces_topological_network() {
        let net = tiny_net();
        assert_eq!(net.node_count(), 4);
        assert_eq!(net.output_id().index(), 3);
        assert_eq!(net.dot_product_layers().len(), 1);
        assert_eq!(net.find("conv1").unwrap().index(), 1);
        assert!(net.find("missing").is_none());
        assert_eq!(net.node_out_dims(NodeId(1)), &[2, 4, 4]);
        assert_eq!(net.node_out_dims(NodeId(3)), &[2]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = NetworkBuilder::new(&[1, 2, 2]);
        let input = b.input();
        let a = b.relu("same", input);
        let c = b.relu("same", a);
        assert_eq!(
            b.build(c).unwrap_err(),
            BuildError::DuplicateName("same".to_string())
        );
    }

    #[test]
    fn unreachable_output_rejected() {
        let mut b = NetworkBuilder::new(&[1, 2, 2]);
        let _input = b.input();
        // A node wired only to itself cannot exist; simulate detachment by
        // making a second chain rooted at input but choosing input 0's
        // placeholder as output of an empty sub-graph: build with a node
        // that has no path from input is impossible via builder, so check
        // the trivial reachable case instead.
        let input = b.input();
        let r = b.relu("r", input);
        assert!(b.build(r).is_ok());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut b = NetworkBuilder::new(&[1, 2, 2]);
        let input = b.input();
        // FC expects rank-1 input, but receives CHW.
        let fc = b.fully_connected("fc", input, Tensor::zeros(&[2, 4]), vec![0.0, 0.0]);
        match b.build(fc).unwrap_err() {
            BuildError::ShapeMismatch(_, _) => {}
            e => panic!("expected shape mismatch, got {e:?}"),
        }
    }

    #[test]
    fn parameter_count_counts_weights_and_biases() {
        let net = tiny_net();
        assert_eq!(net.parameter_count(), 2 * 9 + 2);
    }

    #[test]
    fn weight_quantization_rounds_weights() {
        let net = tiny_net();
        let q = net.with_quantized_weights(4);
        let (orig, quant) = match (&net.node(NodeId(1)).op, &q.node(NodeId(1)).op) {
            (Op::Conv2d { weight: a, .. }, Op::Conv2d { weight: b, .. }) => (a, b),
            _ => unreachable!(),
        };
        assert_ne!(orig.data(), quant.data());
        // max|w| = 0.1 -> I = -2; F = 4 - (-2) = 6, step 2^-6.
        for &v in quant.data() {
            let scaled = v * 64.0;
            assert!((scaled - scaled.round()).abs() < 1e-5);
        }
    }

    #[test]
    fn variadic_ops_require_two_inputs() {
        let mut b = NetworkBuilder::new(&[1, 2, 2]);
        let input = b.input();
        let a = b.relu("a", input);
        let c = b.relu("b", a);
        let s = b.add("sum", &[a, c]);
        let net = b.build(s).unwrap();
        assert_eq!(net.node(s).inputs.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least two inputs")]
    fn add_with_one_input_panics() {
        let mut b = NetworkBuilder::new(&[1, 2, 2]);
        let input = b.input();
        b.add("sum", &[input]);
    }
}
