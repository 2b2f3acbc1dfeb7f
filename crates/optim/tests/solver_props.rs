//! Property tests: projected gradient, the oracle the exact Eq. 8 solve
//! is tested against (DESIGN.md §4), delivers feasible, non-degrading
//! solutions.

use mupod_optim::{is_in_simplex, FnObjective, ProjectedGradient, SimplexObjective};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// PGD lands on the simplex and does no worse than the uniform point
    /// on random smooth convex objectives.
    #[test]
    fn pgd_feasible_on_random_quadratics(
        targets in prop::collection::vec(-0.5f64..1.5, 2..7),
        curvatures in prop::collection::vec(0.5f64..4.0, 2..7),
    ) {
        let n = targets.len().min(curvatures.len());
        let t = targets[..n].to_vec();
        let c = curvatures[..n].to_vec();
        let obj = FnObjective::new(n, move |xi: &[f64]| {
            xi.iter()
                .zip(&t)
                .zip(&c)
                .map(|((x, t), c)| c * (x - t).powi(2))
                .sum()
        });
        let a = ProjectedGradient::default().minimize(&obj);
        prop_assert!(a.value <= obj.value(&vec![1.0 / n as f64; n]) + 1e-12);
        prop_assert!(is_in_simplex(&a.xi, 0.0, 1e-5));
    }

    /// On Eq. 8-shaped objectives, PGD respects the lower bound and does
    /// not exceed the uniform point's value.
    #[test]
    fn solvers_feasible_on_eq8_objectives(
        rho in prop::collection::vec(1.0f64..1000.0, 2..10),
        lambda in prop::collection::vec(0.05f64..50.0, 2..10),
        sigma in 0.01f64..2.0,
    ) {
        let n = rho.len().min(lambda.len());
        let r = rho[..n].to_vec();
        let l = lambda[..n].to_vec();
        let obj = FnObjective::new(n, move |xi: &[f64]| {
            xi.iter()
                .zip(&r)
                .zip(&l)
                .map(|((x, r), l)| {
                    let delta = (l * sigma * x.max(0.0).sqrt()).max(1e-12);
                    -r * delta.log2()
                })
                .sum()
        });
        let uniform = vec![1.0 / n as f64; n];
        let uniform_value = obj.value(&uniform);

        let pgd = ProjectedGradient { lower_bound: 1e-4, ..Default::default() };
        let sol = pgd.minimize(&obj);
        prop_assert!(sol.xi.iter().all(|&x| x >= 1e-4 - 1e-9));
        prop_assert!(sol.value <= uniform_value + 1e-6);
    }
}
