//! CNN inference graph with per-layer error-injection and quantization
//! hooks.
//!
//! This crate is the execution substrate of the MUPOD reproduction. A
//! [`Network`] is a DAG of [`Node`]s (convolution, fully-connected, ReLU,
//! pooling, LRN, batch-norm, element-wise add, concat, …) evaluated in
//! topological order by one executor, [`Network::run`], over a reusable
//! [`ExecArena`] and a batch of one or more images. Three capabilities
//! distinguish it from a plain inference engine, because the paper's
//! method needs them:
//!
//! * **Input taps** ([`tap::InputTap`], [`Run::tap`]): any pass can
//!   perturb the *input operand* of chosen dot-product layers — adding
//!   uniform noise `U[-Δ_K, Δ_K]` (the profiling step of §V-A and
//!   Scheme 1 of §V-C) or rounding to a fixed-point grid (final
//!   validation).
//! * **Suffix re-execution** ([`Run::suffix`]): injecting at layer `K`
//!   only affects layers downstream of `K`, so the clean activations are
//!   cached once per image and only the affected suffix is recomputed.
//!   This is what makes profiling a 156-layer ResNet tractable (§VI-A's
//!   "a few minutes" claim).
//! * **Layer inventory** ([`Network::dot_product_layers`],
//!   [`inventory::LayerInventory`]): per-layer input-element counts,
//!   MAC counts and observed dynamic ranges `max|X_K|` — the `ρ_K`
//!   objective weights and integer bitwidths of §V-D.
//!
//! # Example
//!
//! ```
//! use mupod_nn::{NetworkBuilder, Op};
//! use mupod_tensor::{Tensor, conv::Conv2dParams};
//!
//! let mut b = NetworkBuilder::new(&[1, 4, 4]);
//! let input = b.input();
//! let conv = b.conv2d(
//!     "conv1",
//!     input,
//!     Conv2dParams::new(1, 2, 3, 1, 1),
//!     Tensor::filled(&[2, 1, 3, 3], 0.1),
//!     vec![0.0; 2],
//! );
//! let relu = b.relu("relu1", conv);
//! let pool = b.global_avg_pool("gap", relu);
//! let net = b.build(pool).unwrap();
//!
//! let image = Tensor::filled(&[1, 4, 4], 1.0);
//! let acts = net.forward(&image);
//! assert_eq!(net.output(&acts).dims(), &[2]);
//! ```

mod describe;
mod exec;
mod graph;
pub mod inventory;
mod layer;
pub mod tap;

pub use exec::{Activations, ExecArena, ExecError, Run};
pub use graph::{BuildError, Network, NetworkBuilder};
pub use layer::{Node, NodeId, Op};
pub use mupod_tensor::KernelTier;
