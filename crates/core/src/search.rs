//! Binary search for the output error budget `σ_{Y_Ł}` (§V-C).
//!
//! `σ_{Y_Ł}` increases monotonically as accuracy decreases, so the paper
//! runs a real-valued binary search (after doubling an initial guess
//! until it violates the constraint), stopping when the bracket is
//! narrower than 0.01. A candidate `σ` is tested with one of two
//! schemes:
//!
//! * **Scheme 1** (`equal_scheme`): decompose `σ` into per-layer deltas
//!   with `ξ_K = 1/Ł` via Eq. 7, inject uniform noise into every layer,
//!   measure accuracy.
//! * **Scheme 2** (`gaussian_approx`): inject `N(0, σ²)` at the logits
//!   only — valid because the aggregate output error is very nearly
//!   normal (Fig. 3, right).
//!
//! Only each candidate's pass/fail verdict steers the bracket, so a
//! Scheme 1 search asks the evaluator for a verdict, which stops
//! scoring a failing candidate once its misses exceed what the
//! threshold allows. A passing candidate is still scored on every
//! image, so the outcome is the one a full evaluation per candidate
//! would give.

use crate::eval::AccuracyEvaluator;
use crate::profile::Profile;
use mupod_nn::NodeId;
use std::collections::HashMap;

/// Which §V-C test decides whether a candidate `σ_{Y_Ł}` is acceptable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchScheme {
    /// Scheme 1: equal-share uniform injection into every layer.
    EqualScheme,
    /// Scheme 2: Gaussian noise at the output only (much cheaper — one
    /// clean pass per image regardless of depth).
    GaussianApprox,
}

/// Result of the σ search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// The largest `σ_{Y_Ł}` found to satisfy the accuracy constraint.
    pub sigma: f64,
    /// Accuracy measured at [`SearchOutcome::sigma`].
    pub accuracy_at_sigma: f64,
    /// The accuracy threshold that was enforced.
    pub target_accuracy: f64,
    /// Number of accuracy evaluations spent.
    pub evaluations: usize,
}

/// The paper's initial upper-bound guess for `σ_{Y_Ł}`.
const INITIAL_GUESS: f64 = 1.0;

/// Relative bracket width at which the search stops: bisection ends when
/// `hi − lo ≤ TOLERANCE · hi`. The paper stops at an absolute width of
/// 0.01, which presumes ImageNet-scale logits (σ* ≈ 0.32); a relative
/// criterion serves any logit scale.
const TOLERANCE: f64 = 0.01;

/// Seed for the injected noise.
const SEED: u64 = 0x51C4;

/// Cap on doubling steps while hunting for a violating upper bound: a
/// search whose every probe passes returns `INITIAL_GUESS · 2²⁴`.
const MAX_DOUBLINGS: usize = 24;

/// Acceptance slack in *images*: a candidate σ passes if accuracy is
/// within `SLACK_IMAGES / n` of the target. On small evaluation sets a
/// single hair-margin image flips under any noise at all, which would
/// otherwise drive the search to σ = 0; the paper's ≥ 12 500 evaluation
/// images make this fraction invisible.
const SLACK_IMAGES: f64 = 1.0;

/// Binary search driver. The procedure's constants are fixed, as in
/// the paper (§V-C); only the acceptance test is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SigmaSearch {
    /// Acceptance test scheme.
    pub scheme: SearchScheme,
}

impl Default for SigmaSearch {
    fn default() -> Self {
        Self {
            scheme: SearchScheme::EqualScheme,
        }
    }
}

impl SigmaSearch {
    /// Measures accuracy at a candidate `σ` under the configured scheme.
    pub fn accuracy_at(
        &self,
        sigma: f64,
        profile: &Profile,
        evaluator: &AccuracyEvaluator<'_>,
    ) -> f64 {
        match self.scheme {
            SearchScheme::EqualScheme => {
                evaluator.accuracy_uniform_noise(&equal_deltas(profile, sigma), SEED)
            }
            SearchScheme::GaussianApprox => evaluator.accuracy_gaussian_output(sigma, SEED),
        }
    }

    /// The verdict at a candidate `σ`: `Some(accuracy)`, equal to
    /// [`SigmaSearch::accuracy_at`], when it reaches `threshold`, else
    /// `None`. A failing Scheme 1 candidate stops being scored once its
    /// verdict is fixed.
    fn meets(
        &self,
        sigma: f64,
        profile: &Profile,
        evaluator: &AccuracyEvaluator<'_>,
        threshold: f64,
    ) -> Option<f64> {
        match self.scheme {
            SearchScheme::EqualScheme => {
                evaluator.uniform_noise_meets(&equal_deltas(profile, sigma), SEED, threshold)
            }
            // Scheme 2 perturbs cached logits, so a full evaluation costs
            // microseconds and stopping early would save nothing.
            SearchScheme::GaussianApprox => {
                let acc = evaluator.accuracy_gaussian_output(sigma, SEED);
                (acc >= threshold).then_some(acc)
            }
        }
    }

    /// Finds the largest `σ_{Y_Ł}` whose accuracy stays at or above
    /// `target_accuracy`.
    ///
    /// Follows the paper's procedure: start from σ = 1; if it already
    /// violates, bisect in `[0, 1]`; otherwise double (at most 24 times)
    /// until violation, then bisect to a 1 % relative bracket. A
    /// candidate passes within one image of the target. The returned
    /// `sigma` is the *satisfying* end of the final bracket.
    ///
    /// # Panics
    ///
    /// Panics if `target_accuracy` is not in `(0, 1]` or the profile is
    /// empty.
    pub fn search(
        &self,
        profile: &Profile,
        evaluator: &AccuracyEvaluator<'_>,
        target_accuracy: f64,
    ) -> SearchOutcome {
        assert!(
            target_accuracy > 0.0 && target_accuracy <= 1.0,
            "target accuracy must be in (0, 1]"
        );
        assert!(!profile.is_empty(), "profile must not be empty");
        let _span = mupod_obs::span("search.sigma");
        let mut evaluations = 0usize;
        let threshold = target_accuracy - SLACK_IMAGES / evaluator.len() as f64;
        let mut eval_at = |sigma: f64| {
            evaluations += 1;
            let _span = mupod_obs::span("search.evaluate");
            mupod_obs::counter_add("search.evaluations", 1);
            self.meets(sigma, profile, evaluator, threshold)
        };

        // Establish a violated upper bound and a satisfying lower bound.
        let mut hi = INITIAL_GUESS;
        let mut lo = 0.0;
        let mut acc_lo = evaluator.fp_accuracy();
        let mut doublings = 0;
        while let Some(acc_hi) = eval_at(hi) {
            if doublings == MAX_DOUBLINGS {
                // Even the largest probed σ satisfies — return it.
                return SearchOutcome {
                    sigma: hi,
                    accuracy_at_sigma: acc_hi,
                    target_accuracy,
                    evaluations,
                };
            }
            lo = hi;
            acc_lo = acc_hi;
            hi *= 2.0;
            doublings += 1;
        }

        // Bisect until the bracket closes (relative width).
        while hi - lo > TOLERANCE * hi {
            let mid = 0.5 * (lo + hi);
            match eval_at(mid) {
                Some(acc_mid) => {
                    lo = mid;
                    acc_lo = acc_mid;
                }
                None => hi = mid,
            }
        }
        SearchOutcome {
            sigma: lo,
            accuracy_at_sigma: acc_lo,
            target_accuracy,
            evaluations,
        }
    }
}

/// Scheme 1's per-layer deltas at `σ`: an equal share `ξ_K = 1/Ł` of
/// the output variance for every layer (Eq. 7).
fn equal_deltas(profile: &Profile, sigma: f64) -> HashMap<NodeId, f64> {
    let l = profile.len() as f64;
    profile
        .layers()
        .iter()
        .map(|lp| (lp.node, lp.delta_for(sigma, 1.0 / l)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::AccuracyMode;
    use crate::profile::{FallbackReason, LayerProfile, Profiler};
    use mupod_data::{Dataset, DatasetSpec};
    use mupod_models::{calibrate::calibrate_head, ModelKind, ModelScale};
    use mupod_nn::Network;

    fn setup() -> (Network, Dataset, Profile) {
        let scale = ModelScale::tiny();
        let mut net = ModelKind::AlexNet.build(&scale, 111);
        let spec = DatasetSpec::new(scale.classes, 3, scale.input_hw, scale.input_hw);
        let data = Dataset::generate(&spec, 112, 40);
        calibrate_head(&mut net, &data, 0.1).unwrap();
        let layers = ModelKind::AlexNet.analyzable_layers(&net);
        let profile = Profiler::new(&net, &data.images()[..8])
            .with_config(crate::profile::ProfileConfig {
                n_deltas: 10,
                ..Default::default()
            })
            .profile(&layers)
            .unwrap();
        (net, data, profile)
    }

    #[test]
    fn search_finds_satisfying_sigma_scheme2() {
        let (net, data, profile) = setup();
        let ev = AccuracyEvaluator::new(&net, &data, AccuracyMode::FpAgreement);
        let target = 0.95;
        let search = SigmaSearch {
            scheme: SearchScheme::GaussianApprox,
        };
        let out = search.search(&profile, &ev, target);
        let slack = SLACK_IMAGES / ev.len() as f64;
        assert!(out.accuracy_at_sigma >= target - slack);
        assert!(out.sigma > 0.0);
        assert!(out.evaluations > 2);
        // Just past the bracket the accuracy drops below target.
        let beyond = search.accuracy_at(out.sigma * 4.0, &profile, &ev);
        assert!(
            beyond < target + 0.05,
            "σ·4 accuracy {beyond} suspiciously high"
        );
    }

    #[test]
    fn search_finds_satisfying_sigma_scheme1() {
        let (net, data, profile) = setup();
        let ev = AccuracyEvaluator::new(&net, &data, AccuracyMode::FpAgreement);
        let target = 0.9;
        let search = SigmaSearch::default();
        let out = search.search(&profile, &ev, target);
        let slack = SLACK_IMAGES / ev.len() as f64;
        assert!(out.accuracy_at_sigma >= target - slack, "{out:?}");
        assert!(out.sigma > 0.0);
    }

    #[test]
    fn schemes_agree_on_order_of_magnitude() {
        // The paper supports both schemes as interchangeable estimators;
        // their σ results should be within a small factor.
        let (net, data, profile) = setup();
        let ev = AccuracyEvaluator::new(&net, &data, AccuracyMode::FpAgreement);
        let target = 0.9;
        let s1 = SigmaSearch::default().search(&profile, &ev, target);
        let s2 = SigmaSearch {
            scheme: SearchScheme::GaussianApprox,
        }
        .search(&profile, &ev, target);
        let ratio = s1.sigma / s2.sigma;
        assert!(
            (0.2..5.0).contains(&ratio),
            "scheme σ mismatch: {} vs {}",
            s1.sigma,
            s2.sigma
        );
    }

    #[test]
    fn tighter_target_gives_smaller_sigma() {
        let (net, data, profile) = setup();
        let ev = AccuracyEvaluator::new(&net, &data, AccuracyMode::FpAgreement);
        let search = SigmaSearch {
            scheme: SearchScheme::GaussianApprox,
        };
        let loose = search.search(&profile, &ev, 0.85);
        let tight = search.search(&profile, &ev, 0.99);
        assert!(
            tight.sigma <= loose.sigma,
            "tight {} > loose {}",
            tight.sigma,
            loose.sigma
        );
    }

    /// The search as it was before verdict queries: a full evaluation
    /// per candidate, compared against the threshold afterwards.
    fn reference_search(
        search: &SigmaSearch,
        profile: &Profile,
        evaluator: &AccuracyEvaluator<'_>,
        target_accuracy: f64,
    ) -> SearchOutcome {
        let mut evaluations = 0usize;
        let mut eval_at = |sigma: f64| {
            evaluations += 1;
            search.accuracy_at(sigma, profile, evaluator)
        };
        let threshold = target_accuracy - SLACK_IMAGES / evaluator.len() as f64;
        let mut hi = INITIAL_GUESS;
        let mut lo = 0.0;
        let mut acc_lo = evaluator.fp_accuracy();
        let mut acc_hi = eval_at(hi);
        let mut doublings = 0;
        while acc_hi >= threshold && doublings < MAX_DOUBLINGS {
            lo = hi;
            acc_lo = acc_hi;
            hi *= 2.0;
            acc_hi = eval_at(hi);
            doublings += 1;
        }
        if acc_hi >= threshold {
            return SearchOutcome {
                sigma: hi,
                accuracy_at_sigma: acc_hi,
                target_accuracy,
                evaluations,
            };
        }
        while hi - lo > TOLERANCE * hi {
            let mid = 0.5 * (lo + hi);
            let acc_mid = eval_at(mid);
            if acc_mid >= threshold {
                lo = mid;
                acc_lo = acc_mid;
            } else {
                hi = mid;
            }
        }
        SearchOutcome {
            sigma: lo,
            accuracy_at_sigma: acc_lo,
            target_accuracy,
            evaluations,
        }
    }

    #[test]
    fn verdict_search_matches_full_evaluation_search() {
        let (net, data, profile) = setup();
        for threads in [1, 3] {
            let ev =
                AccuracyEvaluator::with_threads(&net, &data, AccuracyMode::FpAgreement, threads);
            for scheme in [SearchScheme::EqualScheme, SearchScheme::GaussianApprox] {
                for target in [0.5, 0.9, 0.99, 1.0] {
                    let search = SigmaSearch { scheme };
                    let got = search.search(&profile, &ev, target);
                    let want = reference_search(&search, &profile, &ev, target);
                    assert_eq!(
                        got.sigma.to_bits(),
                        want.sigma.to_bits(),
                        "{scheme:?} {target}"
                    );
                    assert_eq!(
                        got.accuracy_at_sigma.to_bits(),
                        want.accuracy_at_sigma.to_bits(),
                        "{scheme:?} {target}"
                    );
                    assert_eq!(got, want, "{scheme:?} {target}");
                }
            }
        }
    }

    #[test]
    fn doubling_cap_returns_the_largest_probe() {
        // Fallback layers (λ = θ = 0) get only their Δ floor at any σ, so
        // every probe passes and only the doubling cap ends the search.
        let (net, data, profile) = setup();
        let fallback = Profile::from_layers(
            profile
                .layers()
                .iter()
                .map(|l| LayerProfile {
                    lambda: 0.0,
                    theta: 0.0,
                    fallback: Some(FallbackReason::NegativeSlope),
                    ..l.clone()
                })
                .collect(),
        );
        let ev = AccuracyEvaluator::new(&net, &data, AccuracyMode::FpAgreement);
        let search = SigmaSearch::default();
        let out = search.search(&fallback, &ev, 0.9);
        assert_eq!(out.evaluations, MAX_DOUBLINGS + 1);
        assert_eq!(out.sigma, 24f64.exp2());
        assert_eq!(out, reference_search(&search, &fallback, &ev, 0.9));
    }

    #[test]
    #[should_panic(expected = "target accuracy")]
    fn rejects_invalid_target() {
        let (net, data, profile) = setup();
        let ev = AccuracyEvaluator::new(&net, &data, AccuracyMode::FpAgreement);
        SigmaSearch::default().search(&profile, &ev, 1.5);
    }
}
