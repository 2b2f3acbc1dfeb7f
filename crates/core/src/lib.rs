//! MUPOD: analytical multi-objective precision optimization of deep
//! neural networks — the primary contribution of the DATE 2019 paper.
//!
//! Given a trained network, a labelled dataset and a relative accuracy
//! budget, the framework assigns a fixed-point format to every
//! dot-product layer's input in four analytical steps (no per-candidate
//! retraining or exhaustive search):
//!
//! 1. **Profile** ([`Profiler`]): for each layer `K`, inject uniform
//!    noise of ~20 magnitudes, measure the induced output error
//!    `σ_{Y_{K→Ł}}`, and fit `Δ_{X_K} = λ_K σ_{Y_{K→Ł}} + θ_K` (Eq. 5).
//! 2. **Search** ([`SigmaSearch`]): binary-search the largest output
//!    error `σ_{Y_Ł}` whose induced accuracy still meets the user's
//!    budget (§V-C, Scheme 1 `equal_scheme` or Scheme 2
//!    `gaussian_approx`).
//! 3. **Allocate** ([`allocate`]): split `σ²_{Y_Ł}` across layers by
//!    minimizing the hardware objective `Σ ρ_K(−log2 Δ_{X_K}(ξ))` over
//!    the simplex (Eq. 8), then convert each granted `Δ_{X_K}` into an
//!    `I.F` format (§II-A).
//! 4. **Validate** ([`AccuracyEvaluator::accuracy_quantized`]): check
//!    the final allocation under true fixed-point rounding.
//!
//! [`PrecisionOptimizer`] wires the steps together: steps 1–2 do not
//! depend on the objective, so [`PrecisionOptimizer::prepare`] runs them
//! once per accuracy budget and [`Prepared::allocate`] runs steps 3–4
//! per objective; [`PrecisionOptimizer::run`] is the two in one call.
//!
//! # Example
//!
//! ```no_run
//! use mupod_core::{Objective, PrecisionOptimizer};
//! use mupod_data::{Dataset, DatasetSpec};
//! use mupod_models::{ModelKind, ModelScale};
//!
//! let scale = ModelScale::tiny();
//! let mut net = ModelKind::AlexNet.build(&scale, 42);
//! let spec = DatasetSpec::new(scale.classes, 3, scale.input_hw, scale.input_hw);
//! let data = Dataset::generate(&spec, 7, 64);
//! mupod_models::calibrate::calibrate_head(&mut net, &data, 0.1).unwrap();
//!
//! let layers = ModelKind::AlexNet.analyzable_layers(&net);
//! // Profile, evaluator and σ-search once for the 1 % budget...
//! let prepared = PrecisionOptimizer::new(&net, &data)
//!     .layers(layers)
//!     .relative_accuracy_loss(0.01)
//!     .prepare()
//!     .unwrap();
//! // ...then one Eq. 8 solve plus validation per objective.
//! for objective in [Objective::Bandwidth, Objective::MacEnergy] {
//!     let result = prepared.allocate(&objective).unwrap();
//!     println!("{}: {:?}", objective.name(), result.allocation.bits());
//! }
//! ```

mod allocate;
mod error;
mod eval;
mod optimizer;
mod par;
mod profile;
mod profile_io;
mod search;
mod weight_profile;
mod weights;

pub use allocate::{allocate, allocate_equal, AllocateConfig, AllocationOutcome, Objective};
pub use error::CoreError;
pub use eval::{AccuracyEvaluator, AccuracyMode};
pub use optimizer::{OptimizeError, OptimizeResult, PrecisionOptimizer, Prepared};
pub use profile::{
    FallbackReason, LayerProfile, Profile, ProfileConfig, ProfileError, Profiler, ProgressFn,
};
pub use profile_io::{JournalError, JournalSummary, ProfileIoError};
pub use search::{SearchOutcome, SearchScheme, SigmaSearch};
pub use weight_profile::profile_weights;
pub use weights::search_weight_bits;
