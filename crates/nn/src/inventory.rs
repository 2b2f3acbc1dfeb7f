//! Per-layer inventory: the objective weights `ρ_K` and dynamic ranges.
//!
//! Table II of the paper is driven by three per-layer quantities:
//! `#Input` (elements read per inference), `#MAC` (multiply–accumulates
//! per inference) and `max|X_K|` (observed input magnitude, which fixes
//! the integer bitwidth). [`LayerInventory`] computes the first two from
//! the graph geometry and measures the third over a set of images.

use crate::exec::ExecArena;
use crate::graph::Network;
use crate::layer::{NodeId, Op};
use mupod_quant::FixedPointFormat;
use mupod_tensor::Tensor;

/// Static and measured facts about one dot-product layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerInfo {
    /// Node id of the layer.
    pub node: NodeId,
    /// Layer name.
    pub name: String,
    /// Elements of the input operand read per inference (`#Input`).
    pub input_elems: u64,
    /// Multiply–accumulate operations per inference (`#MAC`).
    pub macs: u64,
    /// Largest `|x|` observed on the input operand over the measurement
    /// set (`max|X_K|`); zero until measured.
    pub max_abs: f64,
}

impl LayerInfo {
    /// Signed integer bits needed for this layer's observed range.
    pub fn int_bits(&self) -> i32 {
        FixedPointFormat::int_bits_for_max_abs(self.max_abs)
    }
}

/// The per-layer inventory of a network's dot-product layers.
///
/// # Example
///
/// ```
/// use mupod_nn::{inventory::LayerInventory, NetworkBuilder};
/// use mupod_tensor::{conv::Conv2dParams, Tensor};
///
/// let mut b = NetworkBuilder::new(&[1, 4, 4]);
/// let input = b.input();
/// let conv = b.conv2d(
///     "conv1",
///     input,
///     Conv2dParams::new(1, 2, 3, 1, 1),
///     Tensor::filled(&[2, 1, 3, 3], 0.1),
///     vec![0.0; 2],
/// );
/// let net = b.build(conv).unwrap();
/// let inv = LayerInventory::measure(&net, std::iter::once(Tensor::filled(&[1, 4, 4], 2.0)));
/// assert_eq!(inv.layers()[0].input_elems, 16);
/// assert_eq!(inv.layers()[0].macs, 2 * 16 * 9);
/// assert_eq!(inv.layers()[0].max_abs, 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LayerInventory {
    layers: Vec<LayerInfo>,
}

impl LayerInventory {
    /// Computes static facts from the graph and measures `max|X_K|` over
    /// the supplied images (pass an empty iterator for static-only).
    ///
    /// # Panics
    ///
    /// Panics if an image does not match the network input shape.
    pub fn measure<I: IntoIterator<Item = Tensor>>(net: &Network, images: I) -> Self {
        let mut layers: Vec<LayerInfo> = net
            .dot_product_layers()
            .into_iter()
            .map(|id| {
                let node = net.node(id);
                let in_dims = net.node_out_dims(node.inputs[0]);
                let input_elems: u64 = in_dims.iter().product::<usize>() as u64;
                let macs = match &node.op {
                    Op::Conv2d { params, .. } => params.mac_count(in_dims[1], in_dims[2]),
                    Op::FullyConnected { weight, .. } => {
                        (weight.dims()[0] * weight.dims()[1]) as u64
                    }
                    // lint:allow(no-panic-path) reason=iterating dot_product_layers(), whose filter admits only Conv2d and FullyConnected
                    _ => unreachable!("dot_product_layers returned a non-dot layer"),
                };
                LayerInfo {
                    node: id,
                    name: node.name.clone(),
                    input_elems,
                    macs,
                    max_abs: 0.0,
                }
            })
            .collect();

        let mut arena = ExecArena::for_network(net);
        for image in images {
            net.run_clean(&image, &mut arena);
            let acts = arena.activations(0);
            for info in &mut layers {
                let producer = net.node(info.node).inputs[0];
                let ma = acts.get(producer).max_abs() as f64;
                if ma > info.max_abs {
                    info.max_abs = ma;
                }
            }
        }
        Self { layers }
    }

    /// Per-layer facts, in topological order.
    pub fn layers(&self) -> &[LayerInfo] {
        &self.layers
    }

    /// Number of dot-product layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no dot-product layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The `ρ` vector for the bandwidth objective (`#Input` per layer).
    pub fn input_weights(&self) -> Vec<f64> {
        self.layers.iter().map(|l| l.input_elems as f64).collect()
    }

    /// The `ρ` vector for the MAC-energy objective (`#MAC` per layer).
    pub fn mac_weights(&self) -> Vec<f64> {
        self.layers.iter().map(|l| l.macs as f64).collect()
    }

    /// Observed `max|X_K|` per layer.
    pub fn max_abs(&self) -> Vec<f64> {
        self.layers.iter().map(|l| l.max_abs).collect()
    }

    /// Layer names in order.
    pub fn names(&self) -> Vec<&str> {
        self.layers.iter().map(|l| l.name.as_str()).collect()
    }

    /// Finds the inventory entry for a node.
    pub fn find(&self, node: NodeId) -> Option<&LayerInfo> {
        self.layers.iter().find(|l| l.node == node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NetworkBuilder;
    use mupod_tensor::conv::Conv2dParams;
    use mupod_tensor::pool::Pool2dParams;

    fn two_layer_net() -> Network {
        let mut b = NetworkBuilder::new(&[1, 8, 8]);
        let input = b.input();
        let c1 = b.conv2d(
            "c1",
            input,
            Conv2dParams::new(1, 4, 3, 1, 1),
            Tensor::filled(&[4, 1, 3, 3], 0.2),
            vec![0.0; 4],
        );
        let r1 = b.relu("r1", c1);
        let p1 = b.max_pool("p1", r1, Pool2dParams::new(2, 2, 0)); // 4x4
        let c2 = b.conv2d(
            "c2",
            p1,
            Conv2dParams::new(4, 2, 3, 1, 1),
            Tensor::filled(&[2, 4, 3, 3], 0.1),
            vec![0.0; 2],
        );
        let fl = b.flatten("fl", c2);
        let fc = b.fully_connected("fc", fl, Tensor::filled(&[3, 32], 0.05), vec![0.0; 3]);
        b.build(fc).unwrap()
    }

    #[test]
    fn static_counts() {
        let net = two_layer_net();
        let inv = LayerInventory::measure(&net, std::iter::empty());
        assert_eq!(inv.len(), 3);
        let l = inv.layers();
        // c1 reads the 1x8x8 image.
        assert_eq!(l[0].input_elems, 64);
        assert_eq!(l[0].macs, 4 * 64 * 9);
        // c2 reads the pooled 4x4x4 tensor.
        assert_eq!(l[1].input_elems, 64);
        assert_eq!(l[1].macs, 2 * 16 * 9 * 4);
        // fc reads the flattened 2x4x4.
        assert_eq!(l[2].input_elems, 32);
        assert_eq!(l[2].macs, 3 * 32);
        // Unmeasured ranges are zero.
        assert_eq!(l[0].max_abs, 0.0);
    }

    #[test]
    fn measures_max_abs_over_images() {
        let net = two_layer_net();
        let images = vec![
            Tensor::filled(&[1, 8, 8], 1.0),
            Tensor::filled(&[1, 8, 8], -3.0),
        ];
        let inv = LayerInventory::measure(&net, images);
        assert_eq!(inv.layers()[0].max_abs, 3.0);
        // Downstream layers see the conv output magnitudes.
        assert!(inv.layers()[1].max_abs > 0.0);
        assert_eq!(inv.names(), vec!["c1", "c2", "fc"]);
    }

    #[test]
    fn weight_vectors_align_with_layers() {
        let net = two_layer_net();
        let inv = LayerInventory::measure(&net, std::iter::empty());
        assert_eq!(inv.input_weights(), vec![64.0, 64.0, 32.0]);
        assert_eq!(inv.mac_weights()[2], (3 * 32) as f64);
        assert!(inv.find(inv.layers()[1].node).is_some());
    }

    #[test]
    fn int_bits_follow_measured_range() {
        let net = two_layer_net();
        let inv = LayerInventory::measure(&net, std::iter::once(Tensor::filled(&[1, 8, 8], 100.0)));
        // max 100 -> ceil(log2 100)=7 -> 8 signed bits.
        assert_eq!(inv.layers()[0].int_bits(), 8);
    }
}
