//! First-order solvers over the simplex.

use crate::objective::SimplexObjective;
use crate::simplex::{is_in_simplex, project_to_simplex_lb, uniform_point};

/// Result of a simplex minimization.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The minimizing point.
    pub xi: Vec<f64>,
    /// Objective value at [`Solution::xi`].
    pub value: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the stopping tolerance was reached before the iteration
    /// cap.
    pub converged: bool,
}

/// Projected gradient descent with Armijo backtracking.
///
/// Starts at the uniform point (the paper's `equal_scheme`), steps along
/// the negative gradient, projects back onto the lower-bounded simplex,
/// and halves the step until sufficient decrease. On a smooth convex
/// objective it converges to the KKT point; it is the test oracle for
/// [`crate::solve_eq8`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectedGradient {
    /// Maximum outer iterations.
    pub max_iters: usize,
    /// Stop when the projected step moves less than this (∞-norm).
    pub tol: f64,
    /// Lower bound on every coordinate (keeps `ξ_K > 0`).
    pub lower_bound: f64,
    /// Initial step size for the line search.
    pub initial_step: f64,
}

impl Default for ProjectedGradient {
    fn default() -> Self {
        Self {
            max_iters: 2000,
            tol: 1e-9,
            lower_bound: 1e-6,
            initial_step: 0.5,
        }
    }
}

impl ProjectedGradient {
    /// Minimizes `obj` from the uniform starting point.
    ///
    /// # Panics
    ///
    /// Panics if `obj.dim() == 0` or the lower bound is infeasible for
    /// the dimension.
    pub fn minimize<O: SimplexObjective + ?Sized>(&self, obj: &O) -> Solution {
        let mut xi = uniform_point(obj.dim());
        project_to_simplex_lb(&mut xi, self.lower_bound);
        let mut value = obj.value(&xi);
        let mut converged = false;
        let mut iterations = 0;
        for it in 0..self.max_iters {
            iterations = it + 1;
            let grad = obj.gradient(&xi);
            let mut step = self.initial_step;
            let mut moved = 0.0f64;
            let mut accepted = false;
            // Armijo backtracking on the projected step.
            for _ in 0..40 {
                let mut cand: Vec<f64> = xi.iter().zip(&grad).map(|(x, g)| x - step * g).collect();
                project_to_simplex_lb(&mut cand, self.lower_bound);
                let cand_value = obj.value(&cand);
                let decrease: f64 = xi
                    .iter()
                    .zip(&cand)
                    .zip(&grad)
                    .map(|((x, c), g)| g * (x - c))
                    .sum();
                if cand_value <= value - 1e-4 * decrease.max(0.0) && cand_value < value {
                    moved = xi
                        .iter()
                        .zip(&cand)
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0, f64::max);
                    xi = cand;
                    value = cand_value;
                    accepted = true;
                    break;
                }
                step *= 0.5;
            }
            if !accepted || moved < self.tol {
                converged = true;
                break;
            }
        }
        debug_assert!(is_in_simplex(&xi, self.lower_bound, 1e-12));
        Solution {
            xi,
            value,
            iterations,
            converged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::FnObjective;

    fn quadratic_to(target: Vec<f64>) -> FnObjective<impl Fn(&[f64]) -> f64> {
        let dim = target.len();
        FnObjective::new(dim, move |xi: &[f64]| {
            xi.iter().zip(&target).map(|(x, t)| (x - t).powi(2)).sum()
        })
    }

    #[test]
    fn pgd_finds_interior_quadratic_optimum() {
        let obj = quadratic_to(vec![0.5, 0.3, 0.2]);
        let sol = ProjectedGradient::default().minimize(&obj);
        assert!(sol.converged);
        for (x, t) in sol.xi.iter().zip(&[0.5, 0.3, 0.2]) {
            assert!((x - t).abs() < 1e-5, "{:?}", sol.xi);
        }
    }

    #[test]
    fn pgd_clips_exterior_optimum_to_boundary() {
        // Unconstrained optimum (0.9, 0.9) is infeasible; the projection
        // of the optimum onto the simplex is (0.5, 0.5).
        let obj = quadratic_to(vec![0.9, 0.9]);
        let sol = ProjectedGradient::default().minimize(&obj);
        assert!((sol.xi[0] - 0.5).abs() < 1e-6);
        assert!((sol.xi[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn pgd_linear_objective_hits_vertex() {
        // min c·ξ picks the coordinate with smallest c.
        let obj = FnObjective::new(3, |xi: &[f64]| 3.0 * xi[0] + 1.0 * xi[1] + 2.0 * xi[2]);
        let pg = ProjectedGradient {
            lower_bound: 0.0,
            ..Default::default()
        };
        let sol = pg.minimize(&obj);
        assert!((sol.xi[1] - 1.0).abs() < 1e-6, "{:?}", sol.xi);
    }

    #[test]
    fn pgd_respects_lower_bound() {
        let obj = FnObjective::new(3, |xi: &[f64]| xi[0]);
        let pg = ProjectedGradient {
            lower_bound: 0.05,
            ..Default::default()
        };
        let sol = pg.minimize(&obj);
        assert!(sol.xi.iter().all(|&x| x >= 0.05 - 1e-9), "{:?}", sol.xi);
    }

    #[test]
    fn constant_objective_converges_immediately() {
        let obj = FnObjective::new(4, |_: &[f64]| 1.0);
        let sol = ProjectedGradient::default().minimize(&obj);
        assert!(sol.converged);
        assert!(sol.iterations <= 2);
        assert_eq!(sol.value, 1.0);
    }
}
