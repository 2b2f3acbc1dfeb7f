//! Constrained optimization on the probability simplex.
//!
//! The paper solves Eq. 8 — minimize `F(ξ) = Σ_K ρ_K·(−log2 Δ_{X_K}(ξ))`
//! subject to `Σ ξ_K = 1, ξ ≥ 0` — with Octave's `sqp`. This crate is
//! the from-scratch substitute: [`solve_eq8`] solves Eq. 8's separable
//! form exactly, one bisection on the sum constraint's multiplier with
//! every layer's stationary point in closed form. [`ProjectedGradient`]
//! (Armijo backtracking plus the Duchi et al. projection,
//! [`project_to_simplex_lb`]) minimizes any [`SimplexObjective`] and is
//! the exact solve's test oracle.
//!
//! # Example
//!
//! ```
//! use mupod_optim::{solve_eq8, Eq8Term};
//!
//! // Two identical layers, the first weighted twice as heavily: with
//! // θ = 0 the shares are proportional to the weights.
//! let term = |rho| Eq8Term { rho, a: 0.5, theta: 0.0, floor: 1e-9 };
//! let xi = solve_eq8(&[term(2.0), term(1.0)], 1e-4);
//! assert!((xi[0] - 2.0 / 3.0).abs() < 1e-12 && (xi[1] - 1.0 / 3.0).abs() < 1e-12);
//! ```

mod eq8;
mod objective;
mod simplex;
mod solvers;

pub use eq8::{solve_eq8, Eq8Term};
pub use objective::{FnObjective, SimplexObjective};
pub use simplex::{is_in_simplex, project_to_simplex, project_to_simplex_lb, uniform_point};
pub use solvers::{ProjectedGradient, Solution};
