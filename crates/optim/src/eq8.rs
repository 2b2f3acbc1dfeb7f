//! Exact solve of Eq. 8's separable form; DESIGN.md §4 derives it.
//!
//! Each term is flat below its kink `κ` (where the Δ floor binds) and
//! convex above it, with the minimizer of `g + μξ` in closed form. The
//! search bisects the multiplier `μ` until the shares sum to 1; where
//! kinked terms make the total jump over 1, it commits each jumping term
//! to `lb` or to its convex part, whichever solves cheaper.

use crate::simplex::uniform_point;
use std::f64::consts::LN_2;

/// One layer's term of Eq. 8: `−ρ · log2 Δ(ξ)` with the granted step
/// `Δ(ξ) = max(a√ξ + θ, f)` (Eq. 7, with `a = λσ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Eq8Term {
    /// Objective weight `ρ_K ≥ 0`.
    pub rho: f64,
    /// Slope `a_K = λ_K σ` of the step in `√ξ`.
    pub a: f64,
    /// Intercept `θ_K`.
    pub theta: f64,
    /// Positive floor `f_K` under the step.
    pub floor: f64,
}

impl Eq8Term {
    /// The granted step `Δ(ξ) = max(a√ξ + θ, f)`.
    pub fn delta(&self, xi: f64) -> f64 {
        (self.a * xi.max(0.0).sqrt() + self.theta).max(self.floor)
    }

    /// The term's value `−ρ · log2 Δ(ξ)`.
    pub fn value(&self, xi: f64) -> f64 {
        -self.rho * self.delta(xi).log2()
    }

    /// The minimizer of `g + μξ` over the convex part `[κ, 1]`.
    fn convex_point(&self, kappa: f64, mu: f64) -> f64 {
        let (r, a, th) = (self.rho, self.a, self.theta);
        // −g'(s²) = ρa / (2 ln 2 · s · (as + θ)), decreasing in s.
        let pull = |s: f64| r * a / (2.0 * LN_2 * s * (a * s + th));
        if mu <= pull(1.0) {
            return 1.0;
        }
        if mu >= pull(kappa.sqrt()) {
            return kappa;
        }
        // as² + θs = c/4 with c = 2ρa²/(μ ln 2); rationalized for θ ≥ 0.
        let c = 2.0 * r * a * a / (mu * LN_2);
        let root = (th * th + c).sqrt();
        let s = if th >= 0.0 {
            c / (2.0 * a * (th + root))
        } else {
            (root - th) / (2.0 * a)
        };
        (s * s).clamp(kappa, 1.0)
    }
}

/// Minimizes `Σ_K terms[K].value(ξ_K)` subject to `Σξ = 1, ξ ≥ lb` and
/// returns `ξ`.
///
/// Terms with `a ≤ 0` or `ρ = 0`, or whose floor binds on all of
/// `[0, 1]`, are flat and stay at `lb`. When no term can leave its flat
/// part and still sum to 1, `F` is constant on the feasible set and the
/// uniform point is returned.
///
/// # Panics
///
/// Panics if `terms` is empty, a weight is negative or non-finite, or
/// `lower_bound` is negative or infeasible (`lb · n > 1`).
pub fn solve_eq8(terms: &[Eq8Term], lower_bound: f64) -> Vec<f64> {
    let (n, lb) = (terms.len(), lower_bound);
    assert!(n > 0, "Eq. 8 needs at least one term");
    assert!(
        terms.iter().all(|t| t.rho.is_finite() && t.rho >= 0.0),
        "Eq. 8 weights must be finite and non-negative"
    );
    assert!(
        lb >= 0.0 && lb * n as f64 <= 1.0 + 1e-12,
        "lower bound {lb} infeasible for dimension {n}"
    );
    let (kappa, modes): (Vec<f64>, Vec<Mode>) = terms
        .iter()
        .map(|t| {
            let kappa = ((t.floor - t.theta) / t.a).max(0.0).powi(2).max(lb);
            let mode = if t.a <= 0.0 || t.rho <= 0.0 || kappa >= 1.0 {
                Mode::Pinned
            } else if kappa > lb {
                Mode::Kinked
            } else {
                Mode::Convex
            };
            (kappa, mode)
        })
        .unzip();
    let mut search = Search {
        terms,
        kappa,
        lb,
        best: (f64::INFINITY, uniform_point(n)),
    };
    search.descend(modes, 1);
    search.best.1
}

/// How a term answers a multiplier: stay at `lb`, take its convex
/// part's point, or take whichever of the two is cheaper on `g + μξ`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Pinned,
    Convex,
    Kinked,
}

/// The multiplier search, with the cheapest feasible point seen so far
/// (the uniform point, at `F = ∞`, until one is found).
struct Search<'a> {
    terms: &'a [Eq8Term],
    kappa: Vec<f64>,
    lb: f64,
    best: (f64, Vec<f64>),
}

impl Search<'_> {
    /// Solves under `modes`, committing each jump to its cheaper case, and
    /// returns the lowest `F` found (infinite when `modes` cannot sum to
    /// 1). A case is solved one `depth` down; at depth 0 the other kinked
    /// terms are frozen as they are at the jump.
    fn descend(&mut self, mut modes: Vec<Mode>, depth: u32) -> f64 {
        let mut found = f64::INFINITY;
        while let Some((xi, jumping)) = self.bracket(&modes) {
            if jumping.is_empty() {
                let v: f64 = self.terms.iter().zip(&xi).map(|(t, &x)| t.value(x)).sum();
                if v < self.best.0 {
                    self.best = (v, xi);
                }
                return found.min(v);
            }
            let mut commit = (f64::INFINITY, Mode::Pinned);
            for case in [Mode::Pinned, Mode::Convex] {
                let case_modes = (0..modes.len())
                    .map(|k| match modes[k] {
                        _ if jumping.contains(&k) => case,
                        Mode::Kinked if depth == 0 && xi[k] > self.lb => Mode::Convex,
                        Mode::Kinked if depth == 0 => Mode::Pinned,
                        m => m,
                    })
                    .collect();
                let v = self.descend(case_modes, depth.saturating_sub(1));
                found = found.min(v);
                if v < commit.0 {
                    commit = (v, case);
                }
            }
            for &k in &jumping {
                modes[k] = commit.1;
            }
        }
        found
    }

    /// Every term's share at the multiplier `μ = 2^e`.
    fn respond(&self, modes: &[Mode], e: f64) -> Vec<f64> {
        let (mu, lb) = (e.exp2(), self.lb);
        let terms = self.terms.iter().zip(&self.kappa).zip(modes);
        terms
            .map(|((t, &kappa), &mode)| {
                if mode == Mode::Pinned {
                    return lb;
                }
                let p = t.convex_point(kappa, mu);
                if mode == Mode::Convex || t.value(p) + mu * p < t.value(lb) + mu * lb {
                    p
                } else {
                    lb
                }
            })
            .collect()
    }

    /// Bisects `log μ` to the tightest bracket around `Σξ = 1` and returns
    /// the convex combination of its ends that sums to 1, with the kinked
    /// terms that jump to `lb` inside the bracket; `None` when `modes`
    /// cannot sum to 1. The exponent range saturates: `μ = 2^±1100` is
    /// `∞` and `0`.
    fn bracket(&self, modes: &[Mode]) -> Option<(Vec<f64>, Vec<usize>)> {
        let total = |xi: &[f64]| xi.iter().sum::<f64>();
        let (mut lo_e, mut hi_e) = (-1100.0, 1100.0);
        let (mut lo, mut hi) = (self.respond(modes, lo_e), self.respond(modes, hi_e));
        if total(&hi) >= 1.0 {
            return (total(&hi) - 1.0 <= 1e-12).then(|| (hi, vec![]));
        }
        if total(&lo) < 1.0 {
            return None;
        }
        while hi_e - lo_e > 1e-12 {
            let mid = 0.5 * (lo_e + hi_e);
            let xi = self.respond(modes, mid);
            if total(&xi) >= 1.0 {
                (lo_e, lo) = (mid, xi);
            } else {
                (hi_e, hi) = (mid, xi);
            }
        }
        let jumping = (0..modes.len())
            .filter(|&k| modes[k] == Mode::Kinked && lo[k] > self.lb && hi[k] <= self.lb)
            .collect();
        let t = (total(&lo) - 1.0) / (total(&lo) - total(&hi));
        let xi = lo.iter().zip(&hi).map(|(&l, &h)| l + t * (h - l)).collect();
        Some((xi, jumping))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FnObjective, ProjectedGradient};

    fn term(rho: f64, a: f64, theta: f64) -> Eq8Term {
        Eq8Term {
            rho,
            a,
            theta,
            floor: 1e-9,
        }
    }

    fn value(terms: &[Eq8Term], xi: &[f64]) -> f64 {
        terms.iter().zip(xi).map(|(t, &x)| t.value(x)).sum()
    }

    /// Asserts the exact solve is feasible and no worse than projected
    /// gradient; returns both solutions.
    fn check_against_pgd(terms: &[Eq8Term], lb: f64) -> (Vec<f64>, Vec<f64>) {
        let exact = solve_eq8(terms, lb);
        let obj = FnObjective::new(terms.len(), |xi: &[f64]| value(terms, xi));
        let pgd = ProjectedGradient {
            lower_bound: lb,
            ..Default::default()
        }
        .minimize(&obj);
        let (f, f_pgd) = (value(terms, &exact), pgd.value);
        assert!(f <= f_pgd + 1e-9 * f_pgd.abs(), "F = {f} vs PGD {f_pgd}");
        // Interpolating the bracket lands on Σξ = 1 to rounding.
        assert!((exact.iter().sum::<f64>() - 1.0).abs() <= 1e-14);
        assert!(exact.iter().all(|&x| x >= lb), "{exact:?}");
        (exact, pgd.xi)
    }

    #[test]
    fn zero_intercepts_split_in_proportion_to_weight() {
        // With θ = 0 the KKT condition is ρ_K / (2 ln 2 · ξ_K) = μ, so
        // ξ_K ∝ ρ_K.
        let xi = solve_eq8(&[term(3.0, 0.5, 0.0), term(1.0, 2.0, 0.0)], 0.0);
        assert!((xi[0] - 0.75).abs() < 1e-12, "{xi:?}");
        assert!((xi[1] - 0.25).abs() < 1e-12, "{xi:?}");
    }

    #[test]
    fn matches_pgd_on_smooth_instance() {
        let terms = [
            term(5.0, 0.2, 0.01),
            term(2.0, 0.4, 0.02),
            term(1.0, 0.1, 0.005),
            term(3.0, 0.25, 0.0),
        ];
        let (exact, pgd) = check_against_pgd(&terms, 1e-4);
        for (x, y) in exact.iter().zip(&pgd) {
            assert!((x - y).abs() < 1e-5, "{exact:?} vs {pgd:?}");
        }
        // The heaviest-ρ layer profits most from a coarse Δ.
        assert!(exact.iter().all(|&x| x <= exact[0]), "{exact:?}");
    }

    #[test]
    fn flat_terms_stay_at_lower_bound() {
        let terms = [
            term(0.0, 0.5, 0.01),
            term(1.0, 0.0, 0.0),
            term(1.0, 0.5, 0.01),
            // Floor-bound on all of [0, 1].
            Eq8Term {
                rho: 1.0,
                a: 0.5,
                theta: -1.0,
                floor: 1e-3,
            },
        ];
        let xi = solve_eq8(&terms, 1e-3);
        for k in [0, 1, 3] {
            assert_eq!(xi[k], 1e-3, "{xi:?}");
        }
        assert!((xi[2] - (1.0 - 3e-3)).abs() < 1e-12, "{xi:?}");
    }

    #[test]
    fn all_flat_returns_uniform() {
        let xi = solve_eq8(&[term(1.0, 0.0, 0.0), term(0.0, 1.0, 0.1)], 1e-4);
        assert_eq!(xi, vec![0.5, 0.5]);
    }

    #[test]
    fn unreachable_convex_part_returns_uniform() {
        // The kinked term's convex part starts past 1 − lb, beyond the
        // feasible set, so F is constant there.
        let kinked = Eq8Term {
            rho: 1.0,
            a: 1.0,
            theta: 0.1 - 0.99995f64.sqrt(),
            floor: 0.1,
        };
        let xi = solve_eq8(&[term(0.0, 1.0, 0.0), kinked], 1e-4);
        assert_eq!(xi, vec![0.5, 0.5]);
    }

    #[test]
    fn kinked_term_leaves_floor_only_when_it_pays() {
        // The kinked term reaches its convex part only past ξ = 0.36;
        // weighted lightly it stays on its floor at lb, weighted heavily
        // it takes the larger share.
        let kinked = |rho| Eq8Term {
            rho,
            a: 1.0,
            theta: -0.5,
            floor: 0.1,
        };
        for (rho, on_floor) in [(0.1, true), (50.0, false)] {
            let terms = [kinked(rho), term(1.0, 1.0, 0.0), term(1.0, 1.0, 0.0)];
            let (xi, _) = check_against_pgd(&terms, 1e-4);
            assert_eq!(xi[0] == 1e-4, on_floor, "ρ = {rho}: {xi:?}");
        }
    }

    #[test]
    fn jump_commits_the_convex_part_when_cheaper() {
        // The heavy kinked term's convex part starts at ξ = 0.9: leaving
        // its floor skips the total from below 1 to above it, and holding
        // it at ξ ≥ 0.9 beats pinning it at lb.
        let kinked = Eq8Term {
            rho: 10.0,
            a: 1.0,
            theta: 0.1 - 0.9f64.sqrt(),
            floor: 0.1,
        };
        let (xi, _) = check_against_pgd(&[kinked, term(1.0, 1.0, 0.01)], 1e-4);
        assert!(xi[0] >= 0.9, "{xi:?}");
    }

    #[test]
    fn cases_are_solved_on_before_committing() {
        // Kinked layers 5 and 7 start their convex parts near ξ = 0.42,
        // so only one fits. Holding 5 there and pinning 7 is cheaper
        // (F 9849.5 against 9885.5); deciding the jump with the other
        // kinked layers frozen commits the reverse. Projected gradient
        // from the uniform point stalls at F 10380.
        let terms: Vec<Eq8Term> = [
            (733.26, 2.1472, -1.42465, 0.05341),
            (813.73, 3.0624, -0.44619, 0.08065),
            (608.97, 1.3403, -0.65383, 0.07036),
            (893.18, 2.1262, 0.04625, 1e-12),
            (802.81, 3.7338, 0.03956, 1e-12),
            (843.41, 3.4068, -2.13737, 0.07138),
            (7.7305, 4.0801, 0.02391, 1e-12),
            (972.81, 3.4037, -2.13008, 0.09646),
        ]
        .iter()
        .map(|&(rho, a, theta, floor)| Eq8Term {
            rho,
            a,
            theta,
            floor,
        })
        .collect();
        let (xi, _) = check_against_pgd(&terms, 1e-4);
        assert!(xi[5] > 0.4 && xi[7] == 1e-4, "{xi:?}");
    }

    #[test]
    fn lower_bound_at_capacity_pins_everything() {
        let xi = solve_eq8(&[term(1.0, 1.0, 0.0), term(2.0, 1.0, 0.0)], 0.5);
        assert_eq!(xi, vec![0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_weight() {
        solve_eq8(&[term(-1.0, 1.0, 0.0), term(2.0, 1.0, 0.0)], 1e-4);
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn rejects_infeasible_lower_bound() {
        solve_eq8(&[term(1.0, 1.0, 0.0), term(2.0, 1.0, 0.0)], 0.6);
    }
}
