//! The error-injection profiler: measuring `λ_K` and `θ_K` (§V-A).
//!
//! For each analyzable layer `K`, the profiler sweeps ~20 uniform-noise
//! magnitudes `Δ`, replays the network suffix from `K` for every image,
//! measures the standard deviation of the induced logits error
//! `σ_{Y_{K→Ł}}`, and fits the per-layer line of Eq. 5,
//! `Δ_{X_K} = λ_K · σ_{Y_{K→Ł}} + θ_K`.
//!
//! Clean activations are cached once per image; only the affected suffix
//! re-executes per `(layer, Δ)` pair — the optimization that makes
//! 156-layer profiling take minutes, not days. The replays of one `Δ`
//! run [`REPLAY_BATCH`] `(image, repeat)` samples at a time as one
//! batched suffix run, so the narrow GEMMs deep in a network fill their
//! register tiles; the statistics come out bit-identical to replaying
//! one sample at a time.

use mupod_nn::inventory::LayerInventory;
use mupod_nn::tap::UniformNoiseTap;
use mupod_nn::{
    Activations, ExecArena, ExecError, KernelTier, Network, NodeId, Run, ValidateConfig,
};
use mupod_stats::regression::FitError;
use mupod_stats::{LinearFit, RunningStats, SeededRng};
use mupod_tensor::Tensor;

/// Configuration of the profiling sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileConfig {
    /// Number of `Δ` magnitudes per layer (the paper found 20
    /// sufficient).
    pub n_deltas: usize,
    /// Largest injected `Δ` as a fraction of the layer's `max|X_K|`.
    pub delta_max_fraction: f64,
    /// Geometric decay between consecutive `Δ` values (octaves).
    pub delta_step_octaves: f64,
    /// Independent noise draws per image per `Δ` (raises the sample
    /// count of the σ estimate when the output layer is small).
    pub repeats: usize,
    /// RNG seed for the injected noise.
    pub seed: u64,
    /// Replay the full network instead of the affected suffix
    /// (ablation/benchmark knob — results are identical).
    pub full_replay: bool,
    /// Worker threads for per-layer parallelism. `0` means "use the
    /// machine's available parallelism". Results are bit-identical for
    /// any thread count: each layer's noise streams are keyed by its
    /// position, not by execution order.
    pub threads: usize,
    /// Kernel tier the sweep's forward passes run on. The default,
    /// [`KernelTier::Exact`], keeps every profile artifact bit-exact
    /// and byte-reproducible; `Fast` trades that for the SIMD/FMA
    /// microkernels (profile CSVs are then *not* byte-comparable
    /// against exact-tier runs).
    pub kernel_tier: KernelTier,
    /// Numerical guardrails applied during the sweep.
    pub guard: GuardConfig,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        Self {
            n_deltas: 20,
            delta_max_fraction: 1.0 / 64.0,
            delta_step_octaves: 0.3,
            repeats: 2,
            seed: 0x9E37,
            full_replay: false,
            threads: 0,
            kernel_tier: KernelTier::default(),
            guard: GuardConfig::default(),
        }
    }
}

/// Numerical guardrails for the profiling sweep.
///
/// Two independent protections:
///
/// * **Finiteness sweeps** (`validate_activations`): every forward pass
///   is checked at each layer boundary; a NaN/Inf is a hard typed error
///   ([`ProfileError::NumericalFault`]) — a poisoned activation can never
///   be "degraded around", because every statistic downstream of it is
///   garbage.
/// * **Fit rejection**: a layer whose Eq. 5 regression is degenerate —
///   negative `λ_K`, R² below `min_r_squared`, or fewer than
///   `min_points` usable sweep points — is either replaced by a flagged
///   conservative fallback (default) or, with `strict`, reported as a
///   typed error. Degenerate fits are recoverable: the fallback simply
///   grants that layer no quantization-noise budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Sweep every activation boundary for NaN/Inf (cheap; default on).
    pub validate_activations: bool,
    /// Minimum acceptable R² of a layer's Eq. 5 fit.
    pub min_r_squared: f64,
    /// Minimum usable `(σ, Δ)` sweep points (σ finite and positive).
    pub min_points: usize,
    /// Treat a degenerate fit as a hard error instead of falling back.
    pub strict: bool,
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self {
            validate_activations: true,
            min_r_squared: 0.5,
            min_points: 3,
            strict: false,
        }
    }
}

/// Why a layer's Eq. 5 fit was rejected and replaced by the conservative
/// fallback (or reported as an error under [`GuardConfig::strict`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FallbackReason {
    /// Fitted `λ_K ≤ 0`: the output error did not grow with the injected
    /// noise, so the line cannot be inverted into a noise budget.
    NegativeSlope,
    /// R² below [`GuardConfig::min_r_squared`]; payload is the fitted R².
    LowRSquared(f64),
    /// Fewer than [`GuardConfig::min_points`] usable sweep points;
    /// payload is the usable count.
    TooFewPoints(usize),
    /// The regression itself failed.
    FitFailed(FitError),
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FallbackReason::NegativeSlope => {
                write!(
                    f,
                    "fitted slope λ ≤ 0 (output error did not grow with noise)"
                )
            }
            FallbackReason::LowRSquared(r2) => {
                write!(f, "fit quality too low (R² = {r2:.4})")
            }
            FallbackReason::TooFewPoints(n) => {
                write!(f, "only {n} usable sweep points")
            }
            FallbackReason::FitFailed(e) => write!(f, "regression failed: {e}"),
        }
    }
}

/// Per-layer profiling result: the Eq. 5 line plus inventory facts.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerProfile {
    /// Node id of the layer.
    pub node: NodeId,
    /// Layer name.
    pub name: String,
    /// Slope `λ_K` of Eq. 5.
    pub lambda: f64,
    /// Intercept `θ_K` of Eq. 5.
    pub theta: f64,
    /// R² of the per-layer regression.
    pub r_squared: f64,
    /// Maximum relative error predicting `Δ` from `σ` on the sweep
    /// points (the paper's "< 5 % mostly, < 10 % worst case" metric).
    pub max_relative_error: f64,
    /// Observed `max|X_K|` (drives the integer bitwidth).
    pub max_abs: f64,
    /// `#Input` elements per inference.
    pub input_elems: u64,
    /// `#MAC` operations per inference.
    pub macs: u64,
    /// The raw sweep points `(σ_{Y_{K→Ł}}, Δ_{X_K})` behind the fit.
    pub sweep: Vec<(f64, f64)>,
    /// `Some(reason)` when the Eq. 5 fit was rejected and this profile is
    /// the conservative fallback (`λ = θ = 0`, so [`LayerProfile::delta_for`]
    /// grants only the f32 floor — i.e. maximum precision for this layer).
    pub fallback: Option<FallbackReason>,
}

impl LayerProfile {
    /// Eq. 7: the `Δ_{X_K}` granted by output budget `σ_{Y_Ł}` and share
    /// `ξ_K`, clamped to a positive floor.
    ///
    /// The floor is the layer's f32-meaningful precision limit
    /// (`max|X_K| · 2⁻²⁰`): a fitted `θ_K ≤ 0` would otherwise demand a
    /// grid finer than the arithmetic that will run the network, i.e.
    /// formats no hardware target of this method would instantiate.
    pub fn delta_for(&self, sigma_out: f64, xi: f64) -> f64 {
        let floor = (self.max_abs * (-20.0f64).exp2()).max(1e-12);
        (self.lambda * sigma_out * xi.max(0.0).sqrt() + self.theta).max(floor)
    }
}

/// Errors from profiling.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileError {
    /// No images were provided.
    NoImages,
    /// No layers were requested.
    NoLayers,
    /// A layer's Eq. 5 fit was degenerate and [`GuardConfig::strict`]
    /// forbade the fallback.
    DegenerateLayer(String, FallbackReason),
    /// A NaN/Inf was detected during a profiling forward pass. Unlike a
    /// degenerate fit this is never degradable: every statistic computed
    /// from the poisoned pass would be silently wrong.
    NumericalFault(ExecError),
    /// A requested layer is not a dot-product layer (nothing to profile).
    NotAnalyzable(NodeId),
    /// A profiling worker thread panicked.
    WorkerPanicked,
    /// The sweep was cancelled (SIGINT or a supervisor deadline) and
    /// drained at a safe point. Journaled runs keep every completed
    /// layer on disk; resuming re-profiles only the rest.
    Cancelled(mupod_runtime::CancelReason),
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::NoImages => write!(f, "profiling needs at least one image"),
            ProfileError::NoLayers => write!(f, "profiling needs at least one layer"),
            ProfileError::DegenerateLayer(name, reason) => {
                write!(f, "degenerate Eq. 5 fit for layer `{name}`: {reason}")
            }
            ProfileError::NumericalFault(e) => {
                write!(f, "numerical fault during profiling: {e}")
            }
            ProfileError::NotAnalyzable(node) => {
                write!(f, "node {node} is not a dot-product layer")
            }
            ProfileError::WorkerPanicked => write!(f, "a profiling worker panicked"),
            ProfileError::Cancelled(reason) => {
                write!(f, "profiling sweep cancelled ({reason})")
            }
        }
    }
}

impl std::error::Error for ProfileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProfileError::NumericalFault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ExecError> for ProfileError {
    fn from(e: ExecError) -> Self {
        ProfileError::NumericalFault(e)
    }
}

/// `(image, repeat)` samples replayed together in one batched run.
pub(crate) const REPLAY_BATCH: usize = 8;

/// The arena every profiling sweep replays on: [`REPLAY_BATCH`] slots on
/// the configured kernel tier. The plain, journaled and weight profilers
/// all build theirs here.
pub(crate) fn replay_arena(net: &Network, config: &ProfileConfig) -> ExecArena {
    ExecArena::new(net, REPLAY_BATCH, config.kernel_tier)
}

/// The noise stream of one `(layer, Δ, repeat, image)` sample, keyed by
/// positions only, so any batching or thread schedule draws the same
/// noise.
fn sample_stream(layer_index: usize, j: usize, rep: usize, image: usize) -> u64 {
    ((layer_index as u64) << 44) ^ ((j as u64) << 28) ^ ((rep as u64) << 14) ^ image as u64
}

/// The checks a profiling pass runs: the full sweep when the guardrails
/// validate activations, none otherwise.
pub(crate) fn validation(validate_activations: bool) -> ValidateConfig {
    if validate_activations {
        ValidateConfig::default()
    } else {
        ValidateConfig::off()
    }
}

/// The clean activation cache of every image, each from its own
/// exact-tier pass — validated up front (if configured) so a poisoned
/// image or weight set fails fast, before a sweep begins. Each cache is
/// pruned to what suffix replays from `layers` read
/// ([`Network::replay_operands`]) as soon as its pass completes. Shared
/// by the input and weight profilers.
pub(crate) fn clean_passes(
    net: &Network,
    images: &[Tensor],
    layers: &[NodeId],
    validate_activations: bool,
) -> Result<Vec<Activations>, ExecError> {
    let checks = validation(validate_activations);
    let keep = net.replay_operands(layers);
    let mut arena = ExecArena::for_network(net);
    images
        .iter()
        .map(|img| {
            net.run(Run::image(img).validate(checks), &mut arena)?;
            Ok(arena.activations(0).retained(&keep))
        })
        .collect()
}

/// Fits one layer's sweep under the guardrails, producing either the
/// Eq. 5 coefficients or the flagged conservative fallback.
///
/// Shared by the input and weight profilers so degenerate-fit policy is
/// identical in both.
pub(crate) fn fit_sweep_guarded(
    name: &str,
    sigmas: &[f64],
    deltas: &[f64],
    guard: &GuardConfig,
) -> Result<SweepFit, ProfileError> {
    let usable: Vec<(f64, f64)> = sigmas
        .iter()
        .zip(deltas)
        .filter(|(&s, &d)| s.is_finite() && s > 0.0 && d.is_finite() && d > 0.0)
        .map(|(&s, &d)| (s, d))
        .collect();
    let degenerate = |reason: FallbackReason| {
        if guard.strict {
            Err(ProfileError::DegenerateLayer(name.to_string(), reason))
        } else {
            Ok(SweepFit::fallback(reason))
        }
    };
    if usable.len() < guard.min_points.max(2) {
        return degenerate(FallbackReason::TooFewPoints(usable.len()));
    }
    let xs: Vec<f64> = usable.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = usable.iter().map(|p| p.1).collect();
    // Relative (1/Δ²-weighted) least squares: the sweep spans two decades
    // of Δ, and the paper's quality metric is *relative* prediction
    // error (§IV).
    let weights: Vec<f64> = ys.iter().map(|d| 1.0 / (d * d)).collect();
    let fit = match LinearFit::fit_weighted(&xs, &ys, &weights) {
        Ok(fit) => fit,
        Err(e) => return degenerate(FallbackReason::FitFailed(e)),
    };
    if fit.slope <= 0.0 {
        return degenerate(FallbackReason::NegativeSlope);
    }
    if fit.r_squared < guard.min_r_squared {
        return degenerate(FallbackReason::LowRSquared(fit.r_squared));
    }
    Ok(SweepFit {
        lambda: fit.slope,
        theta: fit.intercept,
        r_squared: fit.r_squared,
        max_relative_error: fit.max_relative_error(&xs, &ys),
        fallback: None,
    })
}

/// Outcome of [`fit_sweep_guarded`]: Eq. 5 coefficients or a fallback.
#[derive(Debug)]
pub(crate) struct SweepFit {
    pub lambda: f64,
    pub theta: f64,
    pub r_squared: f64,
    pub max_relative_error: f64,
    pub fallback: Option<FallbackReason>,
}

impl SweepFit {
    fn fallback(reason: FallbackReason) -> Self {
        Self {
            lambda: 0.0,
            theta: 0.0,
            r_squared: 0.0,
            max_relative_error: 0.0,
            fallback: Some(reason),
        }
    }
}

/// A complete network profile: every layer's Eq. 5 coefficients.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    layers: Vec<LayerProfile>,
}

impl Profile {
    pub(crate) fn from_layers(layers: Vec<LayerProfile>) -> Self {
        Self { layers }
    }

    /// Per-layer profiles in the order the layers were given.
    pub fn layers(&self) -> &[LayerProfile] {
        &self.layers
    }

    /// Number of profiled layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The node ids in profile order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.layers.iter().map(|l| l.node).collect()
    }

    /// Layers whose Eq. 5 fit was rejected, with the rejection reason.
    ///
    /// These carry the conservative fallback (`λ = θ = 0` → maximum
    /// precision); surfaced so reports can flag them instead of letting
    /// a silently over-provisioned layer masquerade as a measured one.
    pub fn fallback_layers(&self) -> Vec<(&str, FallbackReason)> {
        self.layers
            .iter()
            .filter_map(|l| l.fallback.map(|r| (l.name.as_str(), r)))
            .collect()
    }

    /// Worst regression R² across layers.
    pub fn min_r_squared(&self) -> f64 {
        self.layers
            .iter()
            .map(|l| l.r_squared)
            .fold(f64::INFINITY, f64::min)
    }

    /// Worst relative prediction error across layers.
    pub fn max_relative_error(&self) -> f64 {
        self.layers
            .iter()
            .map(|l| l.max_relative_error)
            .fold(0.0, f64::max)
    }

    /// Widens each layer's recorded `max|X_K|` with ranges measured on a
    /// (typically larger) image set; never shrinks an existing range.
    pub fn update_ranges(&mut self, inventory: mupod_nn::inventory::LayerInventory) {
        for l in &mut self.layers {
            if let Some(info) = inventory.find(l.node) {
                if info.max_abs > l.max_abs {
                    l.max_abs = info.max_abs;
                }
            }
        }
    }

    /// Returns a copy with every intercept `θ_K` forced to zero — the
    /// Lin et al. special case the paper generalizes (ablation EXP-ABL1).
    pub fn with_zero_theta(&self) -> Profile {
        let mut p = self.clone();
        for l in &mut p.layers {
            l.theta = 0.0;
        }
        p
    }
}

/// The error-injection profiler.
///
/// See the module docs; construct with a network and the images to
/// profile over (the paper found 50–200 images give stable regressions).
pub struct Profiler<'a> {
    pub(crate) net: &'a Network,
    pub(crate) images: &'a [Tensor],
    pub(crate) config: ProfileConfig,
    pub(crate) progress: Option<ProgressFn<'a>>,
    pub(crate) cancel: Option<mupod_runtime::CancelToken>,
}

/// Progress callback: `(layers_done, layers_total, last_layer_name)`.
///
/// Called after each layer completes, from whichever thread finished it —
/// hence `Send + Sync`. Journal resumes count restored layers as done.
pub type ProgressFn<'a> = Box<dyn Fn(usize, usize, &str) + Send + Sync + 'a>;

impl std::fmt::Debug for Profiler<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("images", &self.images.len())
            .field("config", &self.config)
            .finish()
    }
}

impl<'a> Profiler<'a> {
    /// Creates a profiler with default configuration.
    pub fn new(net: &'a Network, images: &'a [Tensor]) -> Self {
        Self {
            net,
            images,
            config: ProfileConfig::default(),
            progress: None,
            cancel: None,
        }
    }

    /// Overrides the sweep configuration.
    pub fn with_config(mut self, config: ProfileConfig) -> Self {
        self.config = config;
        self
    }

    /// Installs a progress callback (see [`ProgressFn`]).
    pub fn with_progress<F>(mut self, f: F) -> Self
    where
        F: Fn(usize, usize, &str) + Send + Sync + 'a,
    {
        self.progress = Some(Box::new(f));
        self
    }

    /// Installs a cooperative cancellation token. The sweep polls it
    /// between layers and between `Δ` magnitudes; on cancellation it
    /// drains and returns [`ProfileError::Cancelled`]. The token is not
    /// part of the journal fingerprint — an interrupted journaled run
    /// resumes bit-identically.
    pub fn with_cancel(mut self, token: mupod_runtime::CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Reports `done` of `total` layers finished, `name` most recently.
    pub(crate) fn report_progress(&self, done: usize, total: usize, name: &str) {
        if let Some(cb) = &self.progress {
            cb(done, total, name);
        }
    }

    /// Polls the cancellation token (no-op without one).
    pub(crate) fn cancel_checkpoint(&self) -> Result<(), ProfileError> {
        match &self.cancel {
            Some(token) => token
                .checkpoint()
                .map_err(|c| ProfileError::Cancelled(c.reason)),
            None => Ok(()),
        }
    }

    /// Profiles the given layers.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError`] if no images/layers are supplied, a
    /// requested layer is not analyzable, a NaN/Inf surfaces during a
    /// pass, or (under [`GuardConfig::strict`]) a layer's regression is
    /// degenerate.
    pub fn profile(&self, layers: &[NodeId]) -> Result<Profile, ProfileError> {
        if self.images.is_empty() {
            return Err(ProfileError::NoImages);
        }
        if layers.is_empty() {
            return Err(ProfileError::NoLayers);
        }
        let _sweep_span = mupod_obs::span("profile.sweep");
        // Clean passes, cached once — validated up front so a poisoned
        // image or weight set fails fast, before the sweep begins.
        let (clean, inventory) = self.sweep_inputs(layers)?;
        let rng = SeededRng::new(self.config.seed);

        let done = std::sync::atomic::AtomicUsize::new(0);
        let total = layers.len();
        let finish = |li: usize, layer: NodeId, arena: &mut ExecArena| {
            let r = self.profile_one(li, layer, &clean, &inventory, &rng, arena);
            if let Ok(p) = &r {
                let d = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                self.report_progress(d, total, &p.name);
            }
            r
        };

        let threads = if self.config.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.config.threads
        };
        let threads = threads.min(layers.len());

        if threads <= 1 {
            let mut arena = replay_arena(self.net, &self.config);
            let mut out = Vec::with_capacity(layers.len());
            for (li, &layer) in layers.iter().enumerate() {
                out.push(finish(li, layer, &mut arena)?);
            }
            return Ok(Profile::from_layers(out));
        }

        // Layer-parallel profiling: workers claim (index, layer) jobs off
        // a shared atomic cursor; results are reassembled in layer order.
        // Determinism holds because each layer's RNG stream depends only
        // on its index. Each worker owns one reusable execution arena.
        let next_job = std::sync::atomic::AtomicUsize::new(0);
        let results: Vec<Result<(usize, LayerProfile), ProfileError>> =
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(threads);
                for _ in 0..threads {
                    let next_job = &next_job;
                    let finish = &finish;
                    handles.push(scope.spawn(move || {
                        let mut arena = replay_arena(self.net, &self.config);
                        let mut local = Vec::new();
                        loop {
                            let li = next_job.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let Some(&layer) = layers.get(li) else {
                                break;
                            };
                            local.push(finish(li, layer, &mut arena).map(|p| (li, p)));
                        }
                        local
                    }));
                }
                let mut collected = Vec::new();
                for h in handles {
                    match h.join() {
                        Ok(local) => collected.extend(local),
                        Err(_) => collected.push(Err(ProfileError::WorkerPanicked)),
                    }
                }
                collected
            });
        let mut slots: Vec<Option<LayerProfile>> = vec![None; layers.len()];
        for r in results {
            let (li, profile) = r?;
            slots[li] = Some(profile);
        }
        let mut out = Vec::with_capacity(layers.len());
        for s in slots {
            // A missing slot means a worker died between claiming the job
            // and reporting it; surface that as the panic it was.
            out.push(s.ok_or(ProfileError::WorkerPanicked)?);
        }
        Ok(Profile::from_layers(out))
    }

    /// Computes the clean (validated, if configured) activation cache,
    /// pruned for replays from `layers`, and the layer inventory — the
    /// shared setup of every profiling entry point, including the
    /// journaled one.
    pub(crate) fn sweep_inputs(
        &self,
        layers: &[NodeId],
    ) -> Result<(Vec<mupod_nn::Activations>, LayerInventory), ProfileError> {
        let _span = mupod_obs::span("profile.clean_pass");
        let clean = clean_passes(
            self.net,
            self.images,
            layers,
            self.config.guard.validate_activations,
        )?;
        let inventory = LayerInventory::measure(self.net, self.images.iter().cloned());
        Ok((clean, inventory))
    }

    /// Profiles a single layer at its position `li` in the request order
    /// (the position keys the layer's RNG streams, so a layer profiled in
    /// isolation — e.g. during a journal resume — is bit-identical to the
    /// same layer profiled in a full run).
    pub(crate) fn profile_one(
        &self,
        li: usize,
        layer: NodeId,
        clean: &[mupod_nn::Activations],
        inventory: &LayerInventory,
        rng: &SeededRng,
        arena: &mut ExecArena,
    ) -> Result<LayerProfile, ProfileError> {
        self.cancel_checkpoint()?;
        let info = inventory
            .find(layer)
            .ok_or(ProfileError::NotAnalyzable(layer))?;
        let _span = mupod_obs::span_fields("profile.layer", &[("layer", &info.name)]);
        let profile = self.profile_layer(layer, clean, info.max_abs, rng, li, arena)?;
        mupod_obs::counter_add("profile.layers_profiled", 1);
        mupod_obs::counter_add("profile.deltas_injected", self.config.n_deltas as u64);
        mupod_obs::histogram_record("profile.r_squared", profile.r_squared);
        if profile.fallback.is_some() {
            mupod_obs::counter_add("profile.fallbacks", 1);
        }
        Ok(LayerProfile {
            node: layer,
            name: info.name.clone(),
            max_abs: info.max_abs,
            input_elems: info.input_elems,
            macs: info.macs,
            ..profile
        })
    }

    fn profile_layer(
        &self,
        layer: NodeId,
        clean: &[mupod_nn::Activations],
        max_abs: f64,
        rng: &SeededRng,
        layer_index: usize,
        arena: &mut ExecArena,
    ) -> Result<LayerProfile, ProfileError> {
        let cfg = &self.config;
        let checks = validation(cfg.guard.validate_activations);
        let scale = if max_abs > 0.0 { max_abs } else { 1.0 };
        let repeats = cfg.repeats.max(1);
        // Sample `t` is image `t / repeats`, repeat `t % repeats`: the
        // order the σ statistics have always been accumulated in.
        let samples = self.images.len() * repeats;
        let mut full_images: Vec<Tensor> = Vec::new();
        let mut sigmas = Vec::with_capacity(cfg.n_deltas);
        let mut deltas = Vec::with_capacity(cfg.n_deltas);
        for j in 0..cfg.n_deltas {
            // Drain point: a cancelled sweep abandons the layer between
            // Δ magnitudes, never mid-statistic.
            self.cancel_checkpoint()?;
            let delta =
                scale * cfg.delta_max_fraction * (-(j as f64) * cfg.delta_step_octaves).exp2();
            // The per-slot noise streams are set for each batch below.
            let mut tap = UniformNoiseTap::single(layer, delta, rng.clone());
            let mut stats = RunningStats::new();
            for first in (0..samples).step_by(REPLAY_BATCH) {
                let batch = first..samples.min(first + REPLAY_BATCH);
                let mut bases = [&clean[0]; REPLAY_BATCH];
                for (slot, t) in batch.clone().enumerate() {
                    bases[slot] = &clean[t / repeats];
                }
                let bases = &bases[..batch.len()];
                tap.set_streams(
                    batch
                        .clone()
                        .map(|t| rng.fork(sample_stream(layer_index, j, t % repeats, t / repeats))),
                );
                // Both paths run on the per-worker arena: zero heap
                // allocation per replay, and suffix replay is
                // bit-identical to the full tapped pass (asserted by
                // the mupod-nn replay property suite).
                let run = if cfg.full_replay {
                    full_images.resize_with(REPLAY_BATCH, || Tensor::zeros(&[1]));
                    for (image, t) in full_images.iter_mut().zip(batch.clone()) {
                        image.clone_from(&self.images[t / repeats]);
                    }
                    Run::images(&full_images[..batch.len()])
                } else {
                    Run::suffix(bases, layer)
                };
                self.net.run(run.tap(&mut tap).validate(checks), arena)?;
                for (slot, base) in bases.iter().enumerate() {
                    let noisy = self.net.output(arena.activations(slot));
                    let ref_out = self.net.output(base);
                    for (a, b) in noisy.data().iter().zip(ref_out.data()) {
                        stats.push((a - b) as f64);
                    }
                }
            }
            sigmas.push(stats.population_std());
            deltas.push(delta);
        }
        let name = self.net.node(layer).name.clone();
        let fit = {
            let _span = mupod_obs::span("profile.fit");
            fit_sweep_guarded(&name, &sigmas, &deltas, &cfg.guard)?
        };
        Ok(LayerProfile {
            node: layer,
            name,
            lambda: fit.lambda,
            theta: fit.theta,
            r_squared: fit.r_squared,
            max_relative_error: fit.max_relative_error,
            max_abs,
            input_elems: 0,
            macs: 0,
            sweep: sigmas.into_iter().zip(deltas).collect(),
            fallback: fit.fallback,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mupod_data::{Dataset, DatasetSpec};
    use mupod_models::{ModelKind, ModelScale};

    fn setup() -> (Network, Vec<Tensor>) {
        let scale = ModelScale::tiny();
        let net = ModelKind::AlexNet.build(&scale, 91);
        let spec = DatasetSpec::new(scale.classes, 3, scale.input_hw, scale.input_hw);
        let data = Dataset::generate(&spec, 92, 12);
        (net, data.images().to_vec())
    }

    #[test]
    fn pre_cancelled_token_drains_before_first_layer() {
        let (net, images) = setup();
        let layers = ModelKind::AlexNet.analyzable_layers(&net);
        let token = mupod_runtime::CancelToken::new();
        token.cancel(mupod_runtime::CancelReason::Interrupt);
        let err = Profiler::new(&net, &images)
            .with_cancel(token)
            .profile(&layers)
            .unwrap_err();
        assert!(
            matches!(
                err,
                ProfileError::Cancelled(mupod_runtime::CancelReason::Interrupt)
            ),
            "expected Cancelled, got {err:?}"
        );
    }

    #[test]
    fn cancel_mid_sweep_drains_between_layers() {
        let (net, images) = setup();
        let layers = ModelKind::AlexNet.analyzable_layers(&net);
        let token = mupod_runtime::CancelToken::new();
        let seen = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let profiler = Profiler::new(&net, &images)
            .with_config(ProfileConfig {
                threads: 1, // sequential: deterministic drain point
                ..Default::default()
            })
            .with_cancel(token.clone())
            .with_progress({
                let token = token.clone();
                let seen = seen.clone();
                move |done, _total, _name| {
                    seen.store(done, std::sync::atomic::Ordering::SeqCst);
                    if done == 1 {
                        token.cancel(mupod_runtime::CancelReason::Timeout);
                    }
                }
            });
        let err = profiler.profile(&layers).unwrap_err();
        assert!(matches!(
            err,
            ProfileError::Cancelled(mupod_runtime::CancelReason::Timeout)
        ));
        let done = seen.load(std::sync::atomic::Ordering::SeqCst);
        assert!(
            done < layers.len(),
            "sweep should drain early, but completed all {done} layers"
        );
    }

    #[test]
    fn profile_produces_linear_fits() {
        let (net, images) = setup();
        let layers = ModelKind::AlexNet.analyzable_layers(&net);
        let profiler = Profiler::new(&net, &images).with_config(ProfileConfig {
            n_deltas: 12,
            ..Default::default()
        });
        let profile = profiler.profile(&layers).unwrap();
        assert_eq!(profile.len(), 5);
        for l in profile.layers() {
            assert!(l.lambda > 0.0, "{}: λ = {}", l.name, l.lambda);
            // Test scale caveat: with 12 images × 8 logits the σ
            // estimates carry ~5-10 % sampling noise; the paper's 500
            // images × 1000 logits achieve R² ≈ 1. The Fig. 2 experiment
            // asserts the tighter bound at experiment scale.
            assert!(
                l.r_squared > 0.95,
                "{}: R² = {} — Eq. 5 linearity violated",
                l.name,
                l.r_squared
            );
            assert!(l.max_abs > 0.0);
            assert!(l.input_elems > 0);
            assert!(l.macs > 0);
            assert_eq!(l.sweep.len(), 12);
        }
    }

    #[test]
    fn eq5_prediction_error_within_paper_bounds() {
        let (net, images) = setup();
        let layers = ModelKind::AlexNet.analyzable_layers(&net);
        let profile = Profiler::new(&net, &images)
            .with_config(ProfileConfig {
                repeats: 6,
                ..Default::default()
            })
            .profile(&layers)
            .unwrap();
        // Paper §IV: mostly < 5 %, worst case ~10 % — at 500 images ×
        // 1000 logits per point. At this test's 12 × 8 × 6 samples the
        // per-point σ noise alone is several percent; assert a bound
        // that still catches broken linearity. The Fig. 2 experiment
        // checks the paper-scale claim.
        assert!(
            profile.max_relative_error() < 0.25,
            "worst relative error {}",
            profile.max_relative_error()
        );
    }

    #[test]
    fn suffix_and_full_replay_agree() {
        let (net, images) = setup();
        let layers = ModelKind::AlexNet.analyzable_layers(&net);
        let cfg = ProfileConfig {
            n_deltas: 6,
            ..Default::default()
        };
        let p_suffix = Profiler::new(&net, &images[..4])
            .with_config(cfg)
            .profile(&layers[..2])
            .unwrap();
        let p_full = Profiler::new(&net, &images[..4])
            .with_config(ProfileConfig {
                full_replay: true,
                ..cfg
            })
            .profile(&layers[..2])
            .unwrap();
        for (a, b) in p_suffix.layers().iter().zip(p_full.layers()) {
            assert!(
                (a.lambda - b.lambda).abs() / a.lambda < 1e-3,
                "{} vs {}",
                a.lambda,
                b.lambda
            );
        }
    }

    #[test]
    fn delta_for_implements_eq7() {
        let lp = LayerProfile {
            node: NodeId::from_index_for_tests(1),
            name: "x".into(),
            lambda: 2.0,
            theta: 0.1,
            r_squared: 1.0,
            max_relative_error: 0.0,
            max_abs: 1.0,
            input_elems: 1,
            macs: 1,
            sweep: vec![],
            fallback: None,
        };
        // Δ = λ σ √ξ + θ = 2·0.5·√0.25 + 0.1 = 0.6.
        assert!((lp.delta_for(0.5, 0.25) - 0.6).abs() < 1e-12);
        // Clamped at a positive floor.
        let neg = LayerProfile { theta: -5.0, ..lp };
        assert!(neg.delta_for(0.1, 0.1) > 0.0);
    }

    #[test]
    fn zero_theta_ablation() {
        let (net, images) = setup();
        let layers = ModelKind::AlexNet.analyzable_layers(&net);
        let profile = Profiler::new(&net, &images[..4])
            .with_config(ProfileConfig {
                n_deltas: 6,
                ..Default::default()
            })
            .profile(&layers[..2])
            .unwrap();
        let zeroed = profile.with_zero_theta();
        assert!(zeroed.layers().iter().all(|l| l.theta == 0.0));
        assert_eq!(zeroed.layers()[0].lambda, profile.layers()[0].lambda);
    }

    #[test]
    fn parallel_profiling_is_deterministic() {
        let (net, images) = setup();
        let layers = ModelKind::AlexNet.analyzable_layers(&net);
        let cfg = ProfileConfig {
            n_deltas: 6,
            ..Default::default()
        };
        let single = Profiler::new(&net, &images[..4])
            .with_config(ProfileConfig { threads: 1, ..cfg })
            .profile(&layers)
            .unwrap();
        let multi = Profiler::new(&net, &images[..4])
            .with_config(ProfileConfig { threads: 3, ..cfg })
            .profile(&layers)
            .unwrap();
        for (a, b) in single.layers().iter().zip(multi.layers()) {
            assert_eq!(a.lambda, b.lambda, "{}: thread count changed λ", a.name);
            assert_eq!(a.theta, b.theta);
            assert_eq!(a.sweep, b.sweep);
        }
    }

    #[test]
    fn errors_on_empty_inputs() {
        let (net, images) = setup();
        let layers = ModelKind::AlexNet.analyzable_layers(&net);
        assert_eq!(
            Profiler::new(&net, &[]).profile(&layers).unwrap_err(),
            ProfileError::NoImages
        );
        assert_eq!(
            Profiler::new(&net, &images).profile(&[]).unwrap_err(),
            ProfileError::NoLayers
        );
    }

    #[test]
    fn healthy_profiles_carry_no_fallback() {
        let (net, images) = setup();
        let layers = ModelKind::AlexNet.analyzable_layers(&net);
        let profile = Profiler::new(&net, &images[..4])
            .with_config(ProfileConfig {
                n_deltas: 6,
                ..Default::default()
            })
            .profile(&layers[..2])
            .unwrap();
        assert!(profile.fallback_layers().is_empty());
        assert!(profile.layers().iter().all(|l| l.fallback.is_none()));
    }

    #[test]
    fn guarded_fit_rejects_flat_response() {
        // A layer whose output never responds to noise: all σ zero.
        let sigmas = vec![0.0; 6];
        let deltas: Vec<f64> = (1..=6).map(|i| i as f64 * 0.01).collect();
        let guard = GuardConfig::default();
        let fit = fit_sweep_guarded("dead", &sigmas, &deltas, &guard).unwrap();
        assert!(matches!(
            fit.fallback,
            Some(FallbackReason::TooFewPoints(0))
        ));
        assert_eq!(fit.lambda, 0.0);
        assert_eq!(fit.theta, 0.0);
    }

    #[test]
    fn guarded_fit_rejects_negative_slope() {
        // σ falls while Δ rises: a nonsense (inverted) response.
        let sigmas = vec![0.6, 0.5, 0.4, 0.3, 0.2, 0.1];
        let deltas = vec![0.01, 0.02, 0.03, 0.04, 0.05, 0.06];
        let fit = fit_sweep_guarded("inv", &sigmas, &deltas, &GuardConfig::default()).unwrap();
        assert!(matches!(fit.fallback, Some(FallbackReason::NegativeSlope)));
    }

    #[test]
    fn guarded_fit_drops_non_finite_points() {
        // Two poisoned σ among six: fit proceeds on the remaining four.
        let sigmas = vec![0.1, f64::NAN, 0.3, f64::INFINITY, 0.5, 0.6];
        let deltas = vec![0.01, 0.02, 0.03, 0.04, 0.05, 0.06];
        let fit = fit_sweep_guarded("holey", &sigmas, &deltas, &GuardConfig::default()).unwrap();
        assert!(fit.fallback.is_none(), "four clean points should fit");
        assert!(fit.lambda > 0.0);
    }

    #[test]
    fn strict_guard_turns_fallback_into_error() {
        let sigmas = vec![0.0; 6];
        let deltas: Vec<f64> = (1..=6).map(|i| i as f64 * 0.01).collect();
        let guard = GuardConfig {
            strict: true,
            ..Default::default()
        };
        match fit_sweep_guarded("dead", &sigmas, &deltas, &guard).unwrap_err() {
            ProfileError::DegenerateLayer(name, FallbackReason::TooFewPoints(0)) => {
                assert_eq!(name, "dead");
            }
            e => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn fallback_profile_grants_only_the_floor() {
        let lp = LayerProfile {
            node: NodeId::from_index_for_tests(1),
            name: "fb".into(),
            lambda: 0.0,
            theta: 0.0,
            r_squared: 0.0,
            max_relative_error: 0.0,
            max_abs: 8.0,
            input_elems: 1,
            macs: 1,
            sweep: vec![],
            fallback: Some(FallbackReason::NegativeSlope),
        };
        let floor = 8.0 * (-20.0f64).exp2();
        // Whatever budget arrives, the fallback grants only the f32
        // floor — i.e. this layer gets maximum precision.
        assert_eq!(lp.delta_for(10.0, 1.0), floor);
        assert_eq!(lp.delta_for(0.0, 0.0), floor);
    }

    #[test]
    fn profiling_rejects_non_finite_image() {
        let (net, images) = setup();
        let layers = ModelKind::AlexNet.analyzable_layers(&net);
        let mut poisoned = images[..2].to_vec();
        poisoned[1].data_mut()[0] = f32::NAN;
        let err = Profiler::new(&net, &poisoned)
            .profile(&layers[..1])
            .unwrap_err();
        assert!(matches!(err, ProfileError::NumericalFault(_)), "{err:?}");
    }

    #[test]
    fn profiling_rejects_non_analyzable_node() {
        let (net, images) = setup();
        // Node 0 is the input placeholder, never a dot-product layer.
        let err = Profiler::new(&net, &images[..2])
            .profile(&[NodeId::from_index_for_tests(0)])
            .unwrap_err();
        assert!(matches!(err, ProfileError::NotAnalyzable(_)), "{err:?}");
    }
}
