//! The end-to-end precision optimizer: profile → search → allocate →
//! validate behind one builder-style API, in the paper's two stages —
//! [`PrecisionOptimizer::prepare`] once per accuracy budget, then
//! [`Prepared::allocate`] once per objective.

use crate::allocate::{allocate, AllocateConfig, Objective};
use crate::eval::{AccuracyEvaluator, AccuracyMode};
use crate::profile::{Profile, ProfileConfig, ProfileError, Profiler};
use crate::search::{SearchOutcome, SearchScheme, SigmaSearch};
use mupod_data::Dataset;
use mupod_nn::inventory::LayerInventory;
use mupod_nn::{Network, NodeId};

/// Errors from the end-to-end pipeline.
#[derive(Debug)]
pub enum OptimizeError {
    /// Profiling failed.
    Profile(ProfileError),
    /// No analyzable layers were selected.
    NoLayers,
    /// The final fixed-point validation violated the accuracy target;
    /// payload is `(measured, target)`.
    ValidationFailed(f64, f64),
    /// The pipeline was cancelled (SIGINT or a supervisor deadline) and
    /// drained between stages.
    Cancelled(mupod_runtime::CancelReason),
}

impl std::fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimizeError::Profile(e) => write!(f, "profiling failed: {e}"),
            OptimizeError::NoLayers => write!(f, "no analyzable layers selected"),
            OptimizeError::ValidationFailed(got, want) => write!(
                f,
                "final validation accuracy {got:.4} below target {want:.4}"
            ),
            OptimizeError::Cancelled(reason) => {
                write!(f, "optimization cancelled ({reason})")
            }
        }
    }
}

impl std::error::Error for OptimizeError {}

impl From<ProfileError> for OptimizeError {
    fn from(e: ProfileError) -> Self {
        OptimizeError::Profile(e)
    }
}

/// Everything the pipeline produced for one objective.
#[derive(Debug, Clone)]
pub struct OptimizeResult {
    /// The per-layer formats and the ξ decomposition behind them.
    pub allocation: mupod_quant::BitwidthAllocation,
    /// Optimized error shares.
    pub xi: Vec<f64>,
    /// The searched output budget `σ_{Y_Ł}`.
    pub sigma: SearchOutcome,
    /// The budget actually used for allocation — equal to
    /// `sigma.sigma` unless validation-driven refinement shrank it.
    pub sigma_allocated: f64,
    /// Full-precision reference accuracy.
    pub fp_accuracy: f64,
    /// Accuracy of the final allocation under true fixed-point rounding.
    pub validated_accuracy: f64,
    /// The profile used (reusable for further objectives).
    pub profile: Profile,
    /// The layers the allocation covers, in order.
    pub layers: Vec<NodeId>,
}

impl OptimizeResult {
    /// Renders the result as a self-contained markdown report: the
    /// searched budget, the ξ decomposition, the per-layer formats and
    /// the accuracy outcome.
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "## Precision allocation report");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "* output error budget σ_YŁ: {:.5} (searched in {} evaluations{})",
            self.sigma.sigma,
            self.sigma.evaluations,
            if self.sigma_allocated < self.sigma.sigma {
                format!(", refined to {:.5}", self.sigma_allocated)
            } else {
                String::new()
            }
        );
        let _ = writeln!(
            out,
            "* accuracy: fp {:.4} -> quantized {:.4}",
            self.fp_accuracy, self.validated_accuracy
        );
        let _ = writeln!(out);
        let _ = writeln!(out, "| layer | format | bits | ξ share | Δ granted |");
        let _ = writeln!(out, "|---|---|---|---|---|");
        for ((lf, bits), xi) in self
            .allocation
            .layers()
            .iter()
            .zip(self.allocation.bits())
            .zip(&self.xi)
        {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {:.3} | {:.5} |",
                lf.layer, lf.format, bits, xi, lf.delta
            );
        }
        out
    }
}

/// Builder-style front door to the framework.
///
/// See the crate-level example. Defaults: profile all dot-product
/// layers, 1 % relative accuracy loss, Scheme 1 search, all images used
/// for both profiling (capped) and evaluation. Accuracy is always
/// fp agreement (the "relative" accuracy the paper's targets refer to),
/// and every allocation is validated under true rounding.
pub struct PrecisionOptimizer<'a> {
    net: &'a Network,
    dataset: &'a Dataset,
    layers: Option<Vec<NodeId>>,
    relative_loss: f64,
    scheme: SearchScheme,
    profile_config: ProfileConfig,
    profile_images: usize,
    reuse_profile: Option<Profile>,
    cancel: Option<mupod_runtime::CancelToken>,
}

impl std::fmt::Debug for PrecisionOptimizer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrecisionOptimizer")
            .field("relative_loss", &self.relative_loss)
            .field("scheme", &self.scheme)
            .field("profile_images", &self.profile_images)
            .finish()
    }
}

impl<'a> PrecisionOptimizer<'a> {
    /// Creates an optimizer over a network and evaluation dataset.
    pub fn new(net: &'a Network, dataset: &'a Dataset) -> Self {
        Self {
            net,
            dataset,
            layers: None,
            relative_loss: 0.01,
            scheme: SearchScheme::EqualScheme,
            profile_config: ProfileConfig::default(),
            profile_images: 50,
            reuse_profile: None,
            cancel: None,
        }
    }

    /// Restricts the analysis to specific layers (e.g.
    /// `ModelKind::analyzable_layers` to reproduce the Stripes
    /// ignore-FC convention).
    pub fn layers(mut self, layers: Vec<NodeId>) -> Self {
        self.layers = Some(layers);
        self
    }

    /// Sets the relative top-1 accuracy loss budget (paper: 1 % or 5 %).
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= loss < 1`.
    pub fn relative_accuracy_loss(mut self, loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1)");
        self.relative_loss = loss;
        self
    }

    /// Chooses the σ-search scheme (§V-C).
    pub fn scheme(mut self, scheme: SearchScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Overrides the profiling sweep configuration.
    pub fn profile_config(mut self, config: ProfileConfig) -> Self {
        self.profile_config = config;
        self
    }

    /// Caps how many dataset images the profiler uses (the paper found
    /// 50–200 sufficient).
    pub fn profile_images(mut self, n: usize) -> Self {
        self.profile_images = n;
        self
    }

    /// Reuses a previously computed profile, skipping the expensive
    /// injection sweep ("changing the user constraints only requires
    /// re-running the last optimization step", §VI-A).
    pub fn with_profile(mut self, profile: Profile) -> Self {
        self.reuse_profile = Some(profile);
        self
    }

    /// Installs a cooperative cancellation token, polled between
    /// pipeline stages (and inside the profiling sweep). A cancelled
    /// run drains and returns [`OptimizeError::Cancelled`].
    pub fn with_cancel(mut self, token: mupod_runtime::CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Runs the pipeline for one objective: [`PrecisionOptimizer::prepare`]
    /// then [`Prepared::allocate`].
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::Profile`] / [`OptimizeError::NoLayers`]
    /// on setup failures and [`OptimizeError::ValidationFailed`] if the
    /// final rounding validation misses the accuracy target.
    pub fn run(&self, objective: Objective) -> Result<OptimizeResult, OptimizeError> {
        let _run_span = mupod_obs::span("optimize.run");
        self.prepare()?.allocate(&objective)
    }

    /// Runs the objective-independent stages once: profile (or reuse
    /// the [`PrecisionOptimizer::with_profile`] profile), widen the
    /// ranges over the whole dataset, build the evaluator and search
    /// `σ_{Y_Ł}` for the accuracy budget. The returned [`Prepared`]
    /// then allocates for any number of objectives, each costing one
    /// Eq. 8 solve plus validation (§VI-A).
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::Profile`] / [`OptimizeError::NoLayers`]
    /// on setup failures and [`OptimizeError::Cancelled`] when the
    /// token fires between stages.
    pub fn prepare(&self) -> Result<Prepared<'a>, OptimizeError> {
        let layers = match &self.layers {
            Some(l) => l.clone(),
            None => self.net.dot_product_layers(),
        };
        if layers.is_empty() {
            return Err(OptimizeError::NoLayers);
        }

        // 1. Profile (or reuse).
        cancel_checkpoint(&self.cancel)?;
        let mut profile = {
            let _span = mupod_obs::span("optimize.profile");
            match &self.reuse_profile {
                Some(p) => p.clone(),
                None => {
                    let n = self.profile_images.min(self.dataset.len()).max(1);
                    let images = &self.dataset.images()[..n];
                    let mut profiler =
                        Profiler::new(self.net, images).with_config(self.profile_config);
                    if let Some(token) = &self.cancel {
                        profiler = profiler.with_cancel(token.clone());
                    }
                    profiler.profile(&layers)?
                }
            }
        };
        // Re-measure the dynamic ranges over the FULL dataset (cheap —
        // one clean pass per image): integer bitwidths derived from the
        // profiling subset alone can saturate on unseen images, which
        // produces errors far larger than the modelled Δ (§II-A measures
        // max|X_K| with a forward pass over the data).
        let inventory = LayerInventory::measure(self.net, self.dataset.images().iter().cloned());
        profile.update_ranges(inventory.clone());

        // 2. Binary search for σ_{Y_Ł}.
        cancel_checkpoint(&self.cancel)?;
        let _search_span = mupod_obs::span("optimize.search");
        let evaluator = AccuracyEvaluator::with_threads_tier(
            self.net,
            self.dataset,
            AccuracyMode::FpAgreement,
            self.profile_config.threads,
            self.profile_config.kernel_tier,
        );
        let fp_accuracy = evaluator.fp_accuracy();
        let (target, sigma) = search_sigma(&profile, &evaluator, self.scheme, self.relative_loss);
        Ok(Prepared {
            layers,
            profile,
            inventory,
            evaluator,
            sigma,
            fp_accuracy,
            target,
            scheme: self.scheme,
            cancel: self.cancel.clone(),
        })
    }
}

/// The accuracy target for a relative `loss` and the σ-search against it.
fn search_sigma(
    profile: &Profile,
    evaluator: &AccuracyEvaluator<'_>,
    scheme: SearchScheme,
    loss: f64,
) -> (f64, SearchOutcome) {
    let target = evaluator.fp_accuracy() * (1.0 - loss);
    let search = SigmaSearch { scheme };
    (target, search.search(profile, evaluator, target))
}

/// Polls the optional cancellation token between stages.
fn cancel_checkpoint(cancel: &Option<mupod_runtime::CancelToken>) -> Result<(), OptimizeError> {
    match cancel {
        Some(token) => token
            .checkpoint()
            .map_err(|c| OptimizeError::Cancelled(c.reason)),
        None => Ok(()),
    }
}

/// The objective-independent half of the pipeline for one network,
/// dataset and accuracy budget: the profile, the evaluator and the
/// searched `σ_{Y_Ł}`. `σ_{Y_Ł}` depends on the profile, the data and
/// the budget but not on `ρ` (Scheme 1 splits it equally), so every
/// objective allocates from the same one (§V-D).
#[derive(Debug)]
pub struct Prepared<'a> {
    /// The layers the allocation covers, in order.
    pub layers: Vec<NodeId>,
    /// The profile, its ranges widened over the whole dataset.
    pub profile: Profile,
    /// The dataset inventory that widened the ranges.
    pub inventory: LayerInventory,
    /// The evaluator over the dataset; its reference pass ran once.
    pub evaluator: AccuracyEvaluator<'a>,
    /// The searched output budget `σ_{Y_Ł}`.
    pub sigma: SearchOutcome,
    /// Full-precision reference accuracy.
    pub fp_accuracy: f64,
    /// The accuracy the allocations must keep.
    pub target: f64,
    scheme: SearchScheme,
    cancel: Option<mupod_runtime::CancelToken>,
}

impl Prepared<'_> {
    /// Moves to another relative accuracy loss: the profile, inventory
    /// and evaluator stay, the target and `σ_{Y_Ł}` are searched anew.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::Cancelled`] when the token has fired.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= loss < 1`.
    pub fn rebudget(&mut self, loss: f64) -> Result<(), OptimizeError> {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1)");
        cancel_checkpoint(&self.cancel)?;
        let _search_span = mupod_obs::span("optimize.search");
        (self.target, self.sigma) = search_sigma(&self.profile, &self.evaluator, self.scheme, loss);
        Ok(())
    }

    /// Allocates for one objective: the Eq. 8 solve at `σ_{Y_Ł}`, then
    /// validation under true rounding with up to three budget shrinks.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::ValidationFailed`] if the last attempt
    /// still misses the target and [`OptimizeError::Cancelled`] when the
    /// token fires between attempts.
    pub fn allocate(&self, objective: &Objective) -> Result<OptimizeResult, OptimizeError> {
        // Real rounding error on deep, narrow networks can run slightly
        // hotter than the modelled white noise (rounding is
        // signal-correlated), so a failed validation shrinks the budget
        // and re-runs the cheap last stage — the same "re-running the
        // last optimization step" the paper highlights as inexpensive
        // (§VI-A). A degenerate σ = 0 search result is clamped to a tiny
        // budget (maximum-precision formats).
        let slack = 0.02 + 2.0 / self.evaluator.len() as f64;
        let mut sigma_for_alloc = self.sigma.sigma.max(1e-6);
        let mut last_acc = f64::NAN;
        let config = AllocateConfig::default();
        for attempt in 0..4 {
            cancel_checkpoint(&self.cancel)?;
            let outcome = {
                let _span = mupod_obs::span("optimize.allocate");
                allocate(&self.profile, sigma_for_alloc, objective, &config)
            };
            let validated_accuracy = {
                let _span = mupod_obs::span("optimize.validate");
                self.evaluator
                    .accuracy_of_allocation(&self.layers, &outcome.allocation)
            };
            if validated_accuracy + 1e-9 >= self.target - slack {
                return Ok(OptimizeResult {
                    allocation: outcome.allocation,
                    xi: outcome.xi,
                    sigma: self.sigma.clone(),
                    sigma_allocated: sigma_for_alloc,
                    fp_accuracy: self.fp_accuracy,
                    validated_accuracy,
                    profile: self.profile.clone(),
                    layers: self.layers.clone(),
                });
            }
            last_acc = validated_accuracy;
            if attempt < 3 {
                sigma_for_alloc *= 0.6;
            }
        }
        Err(OptimizeError::ValidationFailed(last_acc, self.target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mupod_data::DatasetSpec;
    use mupod_models::{calibrate::calibrate_head, ModelKind, ModelScale};

    fn setup() -> (Network, Dataset) {
        let scale = ModelScale::tiny();
        let mut net = ModelKind::AlexNet.build(&scale, 151);
        let spec = DatasetSpec::new(scale.classes, 3, scale.input_hw, scale.input_hw);
        let data = Dataset::generate(&spec, 152, 40);
        calibrate_head(&mut net, &data, 0.1).unwrap();
        (net, data)
    }

    fn quick_config() -> ProfileConfig {
        ProfileConfig {
            n_deltas: 10,
            ..Default::default()
        }
    }

    #[test]
    fn end_to_end_meets_accuracy_target() {
        let (net, data) = setup();
        let layers = ModelKind::AlexNet.analyzable_layers(&net);
        let result = PrecisionOptimizer::new(&net, &data)
            .layers(layers)
            .relative_accuracy_loss(0.05)
            .profile_config(quick_config())
            .profile_images(8)
            .run(Objective::Bandwidth)
            .unwrap();
        assert_eq!(result.allocation.len(), 5);
        let target = result.fp_accuracy * 0.95;
        let slack = 0.02 + 2.0 / 40.0;
        assert!(
            result.validated_accuracy >= target - slack,
            "validated {} vs target {target}",
            result.validated_accuracy
        );
        // Bits land in a plausible fixed-point range.
        for &b in &result.allocation.bits() {
            assert!((1..=26).contains(&b), "bits {b}");
        }
    }

    #[test]
    fn different_objectives_yield_different_allocations() {
        let (net, data) = setup();
        let layers = ModelKind::AlexNet.analyzable_layers(&net);
        // One preparation serves both objectives (the §VI-A workflow) —
        // and check the xi differ.
        let prepared = PrecisionOptimizer::new(&net, &data)
            .layers(layers)
            .relative_accuracy_loss(0.05)
            .profile_config(quick_config())
            .profile_images(8)
            .prepare()
            .unwrap();
        let sigma = prepared.sigma.sigma.max(1e-6);
        let config = AllocateConfig::default();
        let bw = allocate(&prepared.profile, sigma, &Objective::Bandwidth, &config);
        let mac = allocate(&prepared.profile, sigma, &Objective::MacEnergy, &config);
        // Cross-objective dominance: each allocation must be at least as
        // good as the other's on its own criterion. (On tiny 5-layer
        // networks the discreteness guard can collapse both to the same
        // equal-ξ split, so exact difference is not guaranteed — Table
        // III at experiment scale shows the objectives diverging.)
        let rho_bw = Objective::Bandwidth.rho(&prepared.profile);
        let rho_mac = Objective::MacEnergy.rho(&prepared.profile);
        // Dominance holds exactly for the continuous ξ optimum; the final
        // allocation rounds each layer to integer bits, which can shift
        // either side by one bit in one layer. Allow exactly that much.
        let bit_slack = |rho: &[f64]| rho.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(
            bw.allocation.total_weighted_bits(&rho_bw)
                <= mac.allocation.total_weighted_bits(&rho_bw) + bit_slack(&rho_bw)
        );
        assert!(
            mac.allocation.total_weighted_bits(&rho_mac)
                <= bw.allocation.total_weighted_bits(&rho_mac) + bit_slack(&rho_mac)
        );
    }

    #[test]
    fn rebudget_matches_a_fresh_preparation_at_that_budget() {
        let (net, data) = setup();
        let layers = ModelKind::AlexNet.analyzable_layers(&net);
        let at = |loss| {
            PrecisionOptimizer::new(&net, &data)
                .layers(layers.clone())
                .relative_accuracy_loss(loss)
                .profile_config(quick_config())
                .profile_images(8)
                .prepare()
                .unwrap()
        };
        let mut moved = at(0.05);
        moved.rebudget(0.01).unwrap();
        let fresh = at(0.01);
        assert_eq!(moved.target.to_bits(), fresh.target.to_bits());
        assert_eq!(moved.sigma, fresh.sigma);
        let bw = |p: &Prepared<'_>| p.allocate(&Objective::Bandwidth).unwrap().allocation.bits();
        assert_eq!(bw(&moved), bw(&fresh));
    }

    #[test]
    fn optimized_beats_equal_scheme_on_objective() {
        let (net, data) = setup();
        let layers = ModelKind::AlexNet.analyzable_layers(&net);
        let p = PrecisionOptimizer::new(&net, &data)
            .layers(layers)
            .relative_accuracy_loss(0.05)
            .profile_config(quick_config())
            .profile_images(8)
            .prepare()
            .unwrap();
        let result = allocate(
            &p.profile,
            p.sigma.sigma.max(1e-6),
            &Objective::Bandwidth,
            &AllocateConfig::default(),
        );
        let equal = crate::allocate::allocate_equal(&p.profile, p.sigma.sigma);
        let rho = Objective::Bandwidth.rho(&p.profile);
        let opt_cost = result.allocation.total_weighted_bits(&rho);
        let equal_cost = equal.allocation.total_weighted_bits(&rho);
        assert!(
            opt_cost <= equal_cost,
            "optimized {opt_cost} > equal {equal_cost}"
        );
    }

    #[test]
    fn markdown_report_lists_layers_and_budget() {
        let (net, data) = setup();
        let layers = ModelKind::AlexNet.analyzable_layers(&net);
        let result = PrecisionOptimizer::new(&net, &data)
            .layers(layers)
            .relative_accuracy_loss(0.05)
            .profile_config(quick_config())
            .profile_images(8)
            .run(Objective::Bandwidth)
            .unwrap();
        let md = result.to_markdown();
        assert!(md.contains("σ_YŁ"));
        assert!(md.contains("conv1"));
        assert!(md.contains("conv5"));
        assert_eq!(md.matches('|').count() % 6, 0, "table rows well-formed");
    }

    #[test]
    fn empty_layer_list_rejected() {
        let (net, data) = setup();
        let err = PrecisionOptimizer::new(&net, &data)
            .layers(vec![])
            .run(Objective::Bandwidth)
            .unwrap_err();
        assert!(matches!(err, OptimizeError::NoLayers));
    }
}
