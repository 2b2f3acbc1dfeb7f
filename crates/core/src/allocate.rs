//! Multi-objective bitwidth allocation (§V-D, Eq. 8).
//!
//! Given the profiled `(λ_K, θ_K)` lines and the searched output budget
//! `σ_{Y_Ł}`, choose the error shares `ξ` minimizing
//!
//! `F(ξ) = Σ_K ρ_K · (−log2 Δ_{X_K}(ξ))`,  `Σ ξ_K = 1`, `ξ ≥ lb`,
//!
//! with `Δ_{X_K}(ξ) = λ_K σ_{Y_Ł} √ξ_K + θ_K` (Eq. 7). `ρ_K` encodes
//! the hardware objective: `#Input` per layer for bandwidth, `#MAC` per
//! layer for MAC energy — or any custom weighting ("it is conceivable
//! that designers can formulate different optimization criteria", §VI-A).
//!
//! The solve runs both projected-gradient and exponentiated-gradient
//! descent and keeps the better optimum — the cross-check standing in
//! for Octave's `sqp` (DESIGN.md §4).

use crate::profile::Profile;
use mupod_optim::{ExponentiatedGradient, ProjectedGradient, SimplexObjective, Solution};
use mupod_quant::{BitwidthAllocation, LayerFormat};

/// The hardware criterion that weights each layer in Eq. 8.
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// Minimize total input-read traffic: `ρ_K = #Input_K` (Table II's
    /// `Opt_for_#Input`).
    Bandwidth,
    /// Minimize total MAC energy: `ρ_K = #MAC_K` (Table II's
    /// `Opt_for_#MAC`).
    MacEnergy,
    /// Treat every layer equally: `ρ_K = 1`.
    Unweighted,
    /// Caller-supplied per-layer weights.
    Custom(Vec<f64>),
}

impl Objective {
    /// Resolves the `ρ` vector against a profile.
    ///
    /// # Panics
    ///
    /// Panics if a custom weight vector has the wrong length or
    /// non-positive total weight.
    pub fn rho(&self, profile: &Profile) -> Vec<f64> {
        let rho = match self {
            Objective::Bandwidth => profile
                .layers()
                .iter()
                .map(|l| l.input_elems as f64)
                .collect(),
            Objective::MacEnergy => profile.layers().iter().map(|l| l.macs as f64).collect(),
            Objective::Unweighted => vec![1.0; profile.len()],
            Objective::Custom(w) => {
                assert_eq!(w.len(), profile.len(), "custom rho length mismatch");
                w.clone()
            }
        };
        assert!(
            rho.iter().sum::<f64>() > 0.0,
            "objective weights must have positive total"
        );
        rho
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Objective::Bandwidth => "bandwidth",
            Objective::MacEnergy => "mac-energy",
            Objective::Unweighted => "unweighted",
            Objective::Custom(_) => "custom",
        }
    }
}

/// Tuning knobs for the allocation solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocateConfig {
    /// Lower bound on each `ξ_K` (the paper explores `[0.1/Ł, 0.8]`;
    /// a strictly positive floor keeps every `Δ_K` finite).
    pub xi_lower_bound: f64,
    /// Also run the exponentiated-gradient solver and keep the better
    /// optimum (cross-validation; costs a second solve).
    pub cross_check: bool,
}

impl Default for AllocateConfig {
    fn default() -> Self {
        Self {
            xi_lower_bound: 1e-4,
            cross_check: true,
        }
    }
}

/// The allocation produced by [`allocate`].
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationOutcome {
    /// Per-layer fixed-point formats.
    pub allocation: BitwidthAllocation,
    /// The optimized error shares `ξ` (sums to 1).
    pub xi: Vec<f64>,
    /// Objective value `F(ξ)` at the optimum.
    pub objective_value: f64,
    /// The granted per-layer `Δ_{X_K}`.
    pub deltas: Vec<f64>,
}

/// The Eq. 8 objective for one profile, budget and weighting, with its
/// closed-form gradient
/// `∂F/∂ξ_K = −ρ_K · (∂Δ_K/∂ξ_K) / (Δ_K · ln 2)` — O(n) per gradient where
/// the trait's finite-difference default costs 2n evaluations of F.
struct Eq8Objective<'a> {
    profile: &'a Profile,
    sigma: f64,
    rho: &'a [f64],
}

impl SimplexObjective for Eq8Objective<'_> {
    fn dim(&self) -> usize {
        self.profile.len()
    }

    fn value(&self, xi: &[f64]) -> f64 {
        self.profile
            .layers()
            .iter()
            .zip(self.rho)
            .zip(xi)
            .map(|((lp, &r), &x)| -r * lp.delta_for(self.sigma, x).log2())
            .sum()
    }

    fn gradient(&self, xi: &[f64]) -> Vec<f64> {
        self.profile
            .layers()
            .iter()
            .zip(self.rho)
            .zip(xi)
            .map(|((lp, &r), &x)| {
                -r * lp.delta_slope(self.sigma, x)
                    / (lp.delta_for(self.sigma, x) * std::f64::consts::LN_2)
            })
            .collect()
    }
}

/// Minimizes `obj` with projected gradient and, if configured, the
/// exponentiated-gradient cross-check; returns the better optimum.
fn solve(obj: &impl SimplexObjective, config: &AllocateConfig) -> Solution {
    let pgd = ProjectedGradient {
        lower_bound: config.xi_lower_bound,
        ..Default::default()
    };
    let mut best = pgd.minimize(obj);
    mupod_obs::counter_add("allocate.pgd_iterations", best.iterations as u64);
    if config.cross_check {
        let eg = ExponentiatedGradient {
            lower_bound: config.xi_lower_bound,
            ..Default::default()
        };
        let alt = eg.minimize(obj);
        mupod_obs::counter_add("allocate.eg_iterations", alt.iterations as u64);
        if alt.value < best.value {
            best = alt;
        }
    }
    best
}

/// Solves Eq. 8 and converts the granted `Δ`s into per-layer formats.
///
/// # Panics
///
/// Panics if the profile is empty, `sigma` is not positive finite, or
/// the objective weights are invalid.
pub fn allocate(
    profile: &Profile,
    sigma: f64,
    objective: &Objective,
    config: &AllocateConfig,
) -> AllocationOutcome {
    assert!(!profile.is_empty(), "profile must not be empty");
    assert!(
        sigma.is_finite() && sigma > 0.0,
        "sigma must be positive finite, got {sigma}"
    );
    let rho = objective.rho(profile);
    let obj = Eq8Objective {
        profile,
        sigma,
        rho: &rho,
    };
    let best = solve(&obj, config);

    let realize = |xi: &[f64]| -> (Vec<f64>, BitwidthAllocation) {
        let deltas: Vec<f64> = profile
            .layers()
            .iter()
            .zip(xi)
            .map(|(lp, &x)| lp.delta_for(sigma, x))
            .collect();
        let allocation: BitwidthAllocation = profile
            .layers()
            .iter()
            .zip(&deltas)
            .map(|(lp, &d)| LayerFormat::from_delta(lp.name.clone(), d, lp.max_abs))
            .collect();
        (deltas, allocation)
    };

    let (deltas, allocation) = realize(&best.xi);

    // Discreteness guard: Eq. 8 optimizes a continuous proxy, but the
    // realized cost rounds each fraction bitwidth up with a ceiling. On
    // shallow networks the rounded continuous optimum can lose to the
    // plain equal split, which is also feasible (Σξ = 1) — keep whichever
    // realizes cheaper on the actual objective.
    let equal_xi = vec![1.0 / profile.len() as f64; profile.len()];
    let (equal_deltas, equal_allocation) = realize(&equal_xi);
    let cost = allocation.total_weighted_bits(&rho);
    let equal_cost = equal_allocation.total_weighted_bits(&rho);
    if equal_cost < cost {
        return AllocationOutcome {
            allocation: equal_allocation,
            objective_value: obj.value(&equal_xi),
            xi: equal_xi,
            deltas: equal_deltas,
        };
    }

    AllocationOutcome {
        allocation,
        xi: best.xi,
        objective_value: best.value,
        deltas,
    }
}

/// The paper's `equal_scheme` baseline: `ξ_K = 1/Ł` for every layer.
///
/// # Panics
///
/// Panics if the profile is empty or `sigma` is not positive finite.
pub fn allocate_equal(profile: &Profile, sigma: f64) -> AllocationOutcome {
    assert!(!profile.is_empty(), "profile must not be empty");
    assert!(
        sigma.is_finite() && sigma > 0.0,
        "sigma must be positive finite, got {sigma}"
    );
    let l = profile.len() as f64;
    let xi = vec![1.0 / l; profile.len()];
    let deltas: Vec<f64> = profile
        .layers()
        .iter()
        .map(|lp| lp.delta_for(sigma, 1.0 / l))
        .collect();
    let allocation: BitwidthAllocation = profile
        .layers()
        .iter()
        .zip(&deltas)
        .map(|(lp, &d)| LayerFormat::from_delta(lp.name.clone(), d, lp.max_abs))
        .collect();
    let rho = vec![1.0; profile.len()];
    let value = Eq8Objective {
        profile,
        sigma,
        rho: &rho,
    }
    .value(&xi);
    AllocationOutcome {
        allocation,
        xi,
        objective_value: value,
        deltas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{LayerProfile, Profile};
    use mupod_nn::NodeId;
    use mupod_optim::{project_to_simplex_lb, FnObjective};
    use mupod_stats::SeededRng;

    /// Hand-built profile: two layers with very different objective
    /// weights and identical error sensitivity.
    fn synthetic_profile(rho_heavy_first: bool) -> Profile {
        let mk = |i: usize, inputs: u64, macs: u64| LayerProfile {
            node: NodeId::from_index_for_tests(i),
            name: format!("l{i}"),
            lambda: 0.5,
            theta: 0.01,
            r_squared: 1.0,
            max_relative_error: 0.0,
            max_abs: 100.0,
            input_elems: inputs,
            macs,
            sweep: vec![],
            fallback: None,
        };
        let (a, b) = if rho_heavy_first {
            (mk(1, 1000, 1000), mk(2, 10, 10))
        } else {
            (mk(1, 10, 10), mk(2, 1000, 1000))
        };
        Profile::from_layers(vec![a, b])
    }

    /// An `n`-layer profile with varied sensitivities and weights. Layer
    /// 0's fitted `θ` is so negative that its Δ sits on the floor for
    /// every ξ.
    fn varied_profile(n: usize) -> Profile {
        let layers = (0..n)
            .map(|i| LayerProfile {
                node: NodeId::from_index_for_tests(i + 1),
                name: format!("l{i}"),
                lambda: 0.3 + 0.1 * ((i * 7) % 11) as f64 / 11.0,
                theta: if i == 0 {
                    -1.0
                } else {
                    1e-3 * ((i * 3) % 5) as f64
                },
                r_squared: 1.0,
                max_relative_error: 0.0,
                max_abs: 10.0 + i as f64,
                input_elems: 100 * (1 + (i * 5) % 4) as u64,
                macs: 1000 * (1 + (i * 3) % 7) as u64,
                sweep: vec![],
                fallback: None,
            })
            .collect();
        Profile::from_layers(layers)
    }

    const OBJECTIVES: [Objective; 3] = [
        Objective::Bandwidth,
        Objective::MacEnergy,
        Objective::Unweighted,
    ];

    #[test]
    fn analytic_gradient_matches_finite_differences() {
        let profile = varied_profile(6);
        let sigma = 0.5;
        let mut rng = SeededRng::new(8);
        for objective in OBJECTIVES {
            let rho = objective.rho(&profile);
            let analytic = Eq8Objective {
                profile: &profile,
                sigma,
                rho: &rho,
            };
            let oracle = FnObjective::new(profile.len(), |xi: &[f64]| analytic.value(xi));
            for _ in 0..20 {
                let mut xi: Vec<f64> = (0..profile.len()).map(|_| rng.unit()).collect();
                let total: f64 = xi.iter().sum();
                xi.iter_mut().for_each(|x| *x /= total);
                project_to_simplex_lb(&mut xi, AllocateConfig::default().xi_lower_bound);
                let g = analytic.gradient(&xi);
                let fd = oracle.gradient(&xi);
                assert_eq!(g[0], 0.0, "floor layer has a flat Δ");
                for (k, (a, f)) in g.iter().zip(&fd).enumerate() {
                    assert!(
                        (a - f).abs() <= 1e-5 * a.abs().max(f.abs()),
                        "{} ∂F/∂ξ_{k} at {xi:?}: analytic {a}, finite difference {f}",
                        objective.name()
                    );
                }
            }
        }
    }

    #[test]
    fn analytic_and_finite_difference_solves_agree() {
        let profile = varied_profile(54);
        let sigma = 0.5;
        let config = AllocateConfig::default();
        for objective in OBJECTIVES {
            let rho = objective.rho(&profile);
            let analytic = Eq8Objective {
                profile: &profile,
                sigma,
                rho: &rho,
            };
            let oracle = FnObjective::new(profile.len(), |xi: &[f64]| analytic.value(xi));
            let fast = solve(&analytic, &config);
            let reference = solve(&oracle, &config);
            let gap = fast
                .xi
                .iter()
                .zip(&reference.xi)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(gap <= 1e-6, "{}: ξ differs by {gap}", objective.name());
            assert!(
                (fast.value - reference.value).abs() <= 1e-9 * reference.value.abs(),
                "{}: F = {} analytic vs {} finite difference",
                objective.name(),
                fast.value,
                reference.value
            );
        }
    }

    #[test]
    fn heavy_layer_gets_larger_error_share() {
        // The optimizer trades bits away from the expensive layer by
        // granting it a larger ξ (larger Δ, fewer bits).
        let profile = synthetic_profile(true);
        let out = allocate(
            &profile,
            0.5,
            &Objective::Bandwidth,
            &AllocateConfig::default(),
        );
        assert!(
            out.xi[0] > out.xi[1],
            "heavy layer should get more error share: {:?}",
            out.xi
        );
        let bits = out.allocation.bits();
        assert!(
            bits[0] <= bits[1],
            "heavy layer should get no more bits: {bits:?}"
        );
    }

    #[test]
    fn objective_symmetry() {
        let p1 = synthetic_profile(true);
        let p2 = synthetic_profile(false);
        let o1 = allocate(&p1, 0.5, &Objective::Bandwidth, &AllocateConfig::default());
        let o2 = allocate(&p2, 0.5, &Objective::Bandwidth, &AllocateConfig::default());
        assert!((o1.xi[0] - o2.xi[1]).abs() < 1e-3);
    }

    #[test]
    fn xi_sums_to_one() {
        let profile = synthetic_profile(true);
        for objective in [
            Objective::Bandwidth,
            Objective::MacEnergy,
            Objective::Unweighted,
        ] {
            let out = allocate(&profile, 0.3, &objective, &AllocateConfig::default());
            let sum: f64 = out.xi.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-6,
                "{}: ξ sums to {sum}",
                objective.name()
            );
        }
    }

    #[test]
    fn equal_scheme_is_uniform() {
        let profile = synthetic_profile(true);
        let out = allocate_equal(&profile, 0.4);
        assert!((out.xi[0] - 0.5).abs() < 1e-12);
        assert!((out.xi[1] - 0.5).abs() < 1e-12);
        assert_eq!(out.deltas.len(), 2);
        // Identical sensitivities -> identical deltas.
        assert!((out.deltas[0] - out.deltas[1]).abs() < 1e-12);
    }

    #[test]
    fn optimized_beats_equal_scheme_on_its_objective() {
        let profile = synthetic_profile(true);
        let sigma = 0.5;
        let opt = allocate(
            &profile,
            sigma,
            &Objective::Bandwidth,
            &AllocateConfig::default(),
        );
        let equal = allocate_equal(&profile, sigma);
        let rho = Objective::Bandwidth.rho(&profile);
        let cost_opt = opt.allocation.total_weighted_bits(&rho);
        let cost_equal = equal.allocation.total_weighted_bits(&rho);
        assert!(
            cost_opt <= cost_equal,
            "optimized {cost_opt} should not exceed equal-scheme {cost_equal}"
        );
    }

    #[test]
    fn larger_sigma_means_fewer_bits() {
        let profile = synthetic_profile(true);
        let small = allocate(
            &profile,
            0.05,
            &Objective::Unweighted,
            &AllocateConfig::default(),
        );
        let large = allocate(
            &profile,
            5.0,
            &Objective::Unweighted,
            &AllocateConfig::default(),
        );
        let eff_small = small.allocation.effective_bitwidth(&[1.0, 1.0]);
        let eff_large = large.allocation.effective_bitwidth(&[1.0, 1.0]);
        assert!(
            eff_large < eff_small,
            "σ=5 gave {eff_large} bits, σ=0.05 gave {eff_small}"
        );
    }

    #[test]
    fn custom_rho_validated() {
        let profile = synthetic_profile(true);
        let ok = Objective::Custom(vec![1.0, 2.0]);
        assert_eq!(ok.rho(&profile), vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "custom rho length mismatch")]
    fn custom_rho_wrong_length_panics() {
        let profile = synthetic_profile(true);
        Objective::Custom(vec![1.0]).rho(&profile);
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn rejects_bad_sigma() {
        let profile = synthetic_profile(true);
        allocate(
            &profile,
            -1.0,
            &Objective::Unweighted,
            &AllocateConfig::default(),
        );
    }
}
