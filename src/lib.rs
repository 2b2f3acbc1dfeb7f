//! MUPOD-rs: multi-objective precision optimization of deep neural
//! networks for edge devices.
//!
//! A from-scratch Rust reproduction of Ho, Vaddi & Wong, *"Multi-
//! objective Precision Optimization of Deep Neural Networks for Edge
//! Devices"*, DATE 2019 — together with every substrate the method
//! needs: a CNN inference engine with error-injection hooks, the eight
//! evaluated network topologies, fixed-point quantization, a
//! simplex-constrained optimizer, hardware cost models and the
//! search-based baselines the paper compares against.
//!
//! This facade re-exports the workspace crates under one roof:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `mupod-core` | profiler, σ-search, multi-objective allocator, end-to-end [`core::PrecisionOptimizer`] |
//! | [`nn`] | `mupod-nn` | inference graph, taps, suffix replay |
//! | [`models`] | `mupod-models` | AlexNet … MobileNet at reduced scale |
//! | [`quant`] | `mupod-quant` | `I.F` formats, quantizers, allocations |
//! | [`tensor`] | `mupod-tensor` | tensors, conv/pool/GEMM kernels |
//! | [`data`] | `mupod-data` | synthetic labelled image generator |
//! | [`optim`] | `mupod-optim` | exact Eq. 8 solve (the `sqp` substitute), simplex projection, projected gradient |
//! | [`hw`] | `mupod-hw` | MAC energy, bandwidth, bit-serial models |
//! | [`baselines`] | `mupod-baselines` | Stripes-style search baselines |
//! | [`train`] | `mupod-train` | SGD backprop for genuinely trained networks |
//! | [`stats`] | `mupod-stats` | moments, regression, histograms, RNG |
//! | [`obs`] | `mupod-obs` | spans, counters, histograms, Chrome trace export |
//! | [`runtime`] | `mupod-runtime` | stage supervision (deadlines, retry, cancellation), crash-safe checksummed artifacts, the shared status-code table |
//! | [`serve`] | `mupod-serve` | fault-tolerant batched TCP inference serving: worker pool, admission control, deadlines, graceful drain |
//!
//! # Quickstart
//!
//! ```no_run
//! use mupod::core::{Objective, PrecisionOptimizer};
//! use mupod::data::{Dataset, DatasetSpec};
//! use mupod::models::{calibrate::calibrate_head, ModelKind, ModelScale};
//!
//! let scale = ModelScale::small();
//! let mut net = ModelKind::AlexNet.build(&scale, 42);
//! let spec = DatasetSpec::new(scale.classes, 3, scale.input_hw, scale.input_hw);
//! let data = Dataset::generate(&spec, 7, 200);
//! calibrate_head(&mut net, &data, 0.1).unwrap();
//!
//! let result = PrecisionOptimizer::new(&net, &data)
//!     .layers(ModelKind::AlexNet.analyzable_layers(&net))
//!     .relative_accuracy_loss(0.01)
//!     .run(Objective::Bandwidth)
//!     .unwrap();
//! for (fmt, bits) in result.allocation.layers().iter().zip(result.allocation.bits()) {
//!     println!("{:>8}  {}  ({} bits)", fmt.layer, fmt.format, bits);
//! }
//!
//! // Several objectives at one budget: profile and search σ once.
//! let prepared = PrecisionOptimizer::new(&net, &data)
//!     .layers(ModelKind::AlexNet.analyzable_layers(&net))
//!     .relative_accuracy_loss(0.01)
//!     .prepare()
//!     .unwrap();
//! let mac = prepared.allocate(&Objective::MacEnergy).unwrap();
//! println!("σ_YŁ {:.4}, MAC-optimal bits {:?}", prepared.sigma.sigma, mac.allocation.bits());
//! ```
//!
//! See `DESIGN.md` for the substitution table (what stands in for
//! ImageNet, Caffe weights, and the TSMC 40 nm MAC) and
//! `EXPERIMENTS.md` for the paper-vs-measured record of every table and
//! figure.

pub use mupod_baselines as baselines;
pub use mupod_core as core;
pub use mupod_data as data;
pub use mupod_hw as hw;
pub use mupod_models as models;
pub use mupod_nn as nn;
pub use mupod_obs as obs;
pub use mupod_optim as optim;
pub use mupod_quant as quant;
pub use mupod_runtime as runtime;
pub use mupod_serve as serve;
pub use mupod_stats as stats;
pub use mupod_tensor as tensor;
pub use mupod_train as train;
