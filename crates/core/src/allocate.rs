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
//! [`mupod_optim::solve_eq8`] solves it exactly, standing in for
//! Octave's `sqp` (DESIGN.md §4).

use crate::profile::Profile;
use mupod_optim::{solve_eq8, uniform_point, Eq8Term};
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
    /// Panics if a custom weight vector has the wrong length, a negative
    /// or non-finite weight, or non-positive total weight.
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
                assert!(
                    w.iter().all(|r| r.is_finite() && *r >= 0.0),
                    "custom rho weights must be finite and non-negative, got {w:?}"
                );
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
}

impl Default for AllocateConfig {
    fn default() -> Self {
        Self {
            xi_lower_bound: 1e-4,
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

/// The objective's weights and the Eq. 8 terms of every profiled layer.
///
/// # Panics
///
/// Panics if the profile is empty, `sigma` is not positive finite, or
/// the objective weights are invalid.
fn eq8_terms(profile: &Profile, sigma: f64, objective: &Objective) -> (Vec<f64>, Vec<Eq8Term>) {
    assert!(!profile.is_empty(), "profile must not be empty");
    assert!(
        sigma.is_finite() && sigma > 0.0,
        "sigma must be positive finite, got {sigma}"
    );
    let rho = objective.rho(profile);
    let terms = profile
        .layers()
        .iter()
        .zip(&rho)
        .map(|(lp, &r)| lp.eq8_term(sigma, r))
        .collect();
    (rho, terms)
}

/// Realizes error shares `xi` as an [`AllocationOutcome`]: the granted
/// `Δ`s, their formats and `F(ξ)`.
fn realize(profile: &Profile, terms: &[Eq8Term], xi: Vec<f64>) -> AllocationOutcome {
    let deltas: Vec<f64> = terms.iter().zip(&xi).map(|(t, &x)| t.delta(x)).collect();
    let allocation = profile
        .layers()
        .iter()
        .zip(&deltas)
        .map(|(lp, &d)| LayerFormat::from_delta(lp.name.clone(), d, lp.max_abs))
        .collect();
    AllocationOutcome {
        allocation,
        objective_value: terms.iter().zip(&xi).map(|(t, &x)| t.value(x)).sum(),
        xi,
        deltas,
    }
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
    let (rho, terms) = eq8_terms(profile, sigma, objective);
    let best = realize(profile, &terms, solve_eq8(&terms, config.xi_lower_bound));

    // Discreteness guard: Eq. 8 optimizes a continuous proxy, but the
    // realized cost rounds each fraction bitwidth up with a ceiling. On
    // shallow networks the rounded continuous optimum can lose to the
    // plain equal split, which is also feasible (Σξ = 1) — keep whichever
    // realizes cheaper on the actual objective.
    let equal = realize(profile, &terms, uniform_point(profile.len()));
    if equal.allocation.total_weighted_bits(&rho) < best.allocation.total_weighted_bits(&rho) {
        return equal;
    }
    best
}

/// The paper's `equal_scheme` baseline: `ξ_K = 1/Ł` for every layer.
///
/// # Panics
///
/// Panics if the profile is empty or `sigma` is not positive finite.
pub fn allocate_equal(profile: &Profile, sigma: f64) -> AllocationOutcome {
    let (_, terms) = eq8_terms(profile, sigma, &Objective::Unweighted);
    realize(profile, &terms, uniform_point(profile.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{LayerProfile, Profile};
    use mupod_nn::NodeId;
    use mupod_optim::{FnObjective, ProjectedGradient};

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
    fn closed_form_matches_projected_gradient() {
        let profile = varied_profile(54);
        let sigma = 0.5;
        let lb = AllocateConfig::default().xi_lower_bound;
        for objective in OBJECTIVES {
            let (_, terms) = eq8_terms(&profile, sigma, &objective);
            let exact = realize(&profile, &terms, solve_eq8(&terms, lb));
            let oracle = FnObjective::new(profile.len(), |xi: &[f64]| {
                terms.iter().zip(xi).map(|(t, &x)| t.value(x)).sum()
            });
            let pgd = ProjectedGradient {
                lower_bound: lb,
                ..Default::default()
            }
            .minimize(&oracle);
            let reference = realize(&profile, &terms, pgd.xi);
            let formats = |o: &AllocationOutcome| -> Vec<_> {
                o.allocation.layers().iter().map(|l| l.format).collect()
            };
            assert_eq!(formats(&exact), formats(&reference), "{}", objective.name());
            assert!(
                exact.objective_value
                    <= reference.objective_value + 1e-9 * reference.objective_value.abs(),
                "{}: F = {} closed form vs {} projected gradient",
                objective.name(),
                exact.objective_value,
                reference.objective_value
            );
            assert!((exact.xi.iter().sum::<f64>() - 1.0).abs() <= 1e-12);
            assert_eq!(exact.xi[0], lb, "the floor-bound layer stays at lb");
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
    #[should_panic(expected = "finite and non-negative")]
    fn custom_rho_negative_weight_panics() {
        let profile = synthetic_profile(true);
        Objective::Custom(vec![-1.0, 2.0]).rho(&profile);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn custom_rho_infinite_weight_panics() {
        let profile = synthetic_profile(true);
        Objective::Custom(vec![f64::INFINITY, 1.0]).rho(&profile);
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
