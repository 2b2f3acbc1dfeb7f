//! Euclidean projection onto the probability simplex.

/// Projects `v` onto the probability simplex `{x : Σx = 1, x ≥ 0}` in
/// place, using the sort-based algorithm of Duchi et al. (2008).
///
/// # Panics
///
/// Panics if `v` is empty or contains non-finite values.
///
/// # Example
///
/// ```
/// use mupod_optim::project_to_simplex;
/// let mut v = vec![0.9, 0.9, 0.9];
/// project_to_simplex(&mut v);
/// assert!(v.iter().all(|&x| (x - 1.0 / 3.0).abs() < 1e-12));
/// ```
pub fn project_to_simplex(v: &mut [f64]) {
    project_to_simplex_lb(v, 0.0);
}

/// Projects `v` onto the lower-bounded simplex
/// `{x : Σx = 1, x ≥ lb}` in place.
///
/// The paper's allocator keeps every `ξ_K` strictly positive (a layer
/// granted exactly zero error budget would demand infinite precision), so
/// the solvers project onto `ξ ≥ lb` with a small `lb > 0`.
///
/// # Panics
///
/// Panics if `v` is empty, contains non-finite values, or
/// `lb · v.len() > 1` (the constraint set would be empty).
pub fn project_to_simplex_lb(v: &mut [f64], lb: f64) {
    assert!(!v.is_empty(), "cannot project an empty vector");
    assert!(
        v.iter().all(|x| x.is_finite()),
        "cannot project non-finite values"
    );
    let n = v.len();
    let mass = 1.0 - lb * n as f64;
    assert!(
        mass >= -1e-12,
        "lower bound {lb} infeasible for dimension {n}"
    );
    let mass = mass.max(0.0);
    // Shift to y = x - lb, project y onto the simplex of total mass `mass`.
    let mut y: Vec<f64> = v.iter().map(|x| x - lb).collect();
    let mut sorted = y.clone();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite values"));
    let mut cumsum = 0.0;
    let mut rho = 0usize;
    let mut theta = 0.0;
    for (i, &u) in sorted.iter().enumerate() {
        cumsum += u;
        let t = (cumsum - mass) / (i + 1) as f64;
        if u - t > 0.0 {
            rho = i + 1;
            theta = t;
        }
    }
    if rho == 0 {
        // All coordinates clip; distribute the mass uniformly.
        for x in y.iter_mut() {
            *x = mass / n as f64;
        }
    } else {
        for x in y.iter_mut() {
            *x = (*x - theta).max(0.0);
        }
        // With huge inputs, `x − θ` cancels and the kept coordinates
        // can miss `mass` by far more than rounding; rescaling them
        // restores Σ = `mass` without moving any coordinate below 0.
        let kept: f64 = y.iter().sum();
        if kept > 0.0 {
            let scale = mass / kept;
            for x in y.iter_mut() {
                *x *= scale;
            }
        }
    }
    for (out, yi) in v.iter_mut().zip(&y) {
        *out = yi + lb;
    }
}

/// Whether `v` lies on the simplex `{x : Σx = 1, x ≥ lb}` within `tol`.
pub fn is_in_simplex(v: &[f64], lb: f64, tol: f64) -> bool {
    !v.is_empty() && v.iter().all(|&x| x >= lb - tol) && (v.iter().sum::<f64>() - 1.0).abs() <= tol
}

/// The uniform point `(1/n, …, 1/n)` — the paper's `equal_scheme`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn uniform_point(n: usize) -> Vec<f64> {
    assert!(n > 0, "dimension must be positive");
    vec![1.0 / n as f64; n]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_of_simplex_point_is_identity() {
        let mut v = vec![0.2, 0.5, 0.3];
        let orig = v.clone();
        project_to_simplex(&mut v);
        for (a, b) in v.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn projection_lands_on_simplex() {
        let cases: Vec<Vec<f64>> = vec![
            vec![5.0, -3.0, 0.1],
            vec![0.0, 0.0],
            vec![-1.0, -2.0, -3.0, -4.0],
            vec![100.0],
            vec![0.25, 0.25, 0.25, 0.25],
        ];
        for mut v in cases {
            project_to_simplex(&mut v);
            assert!(is_in_simplex(&v, 0.0, 1e-9), "not on simplex: {v:?}");
        }
    }

    #[test]
    fn projection_of_huge_values_lands_on_simplex() {
        // Pre-projection points of a gradient step with Eq. 8 weights
        // near 1e6: `x − θ` cancels in every kept coordinate.
        let mut v: Vec<f64> = (0..16)
            .map(|i| 8.0e5 * (1.0 + 0.37 * i as f64).sin() + 0.013 * i as f64)
            .collect();
        project_to_simplex_lb(&mut v, 1e-4);
        assert!(
            is_in_simplex(&v, 1e-4, 1e-12),
            "Σ = {}",
            v.iter().sum::<f64>()
        );
    }

    #[test]
    fn projection_prefers_larger_coordinates() {
        let mut v = vec![10.0, 1.0, 0.0];
        project_to_simplex(&mut v);
        assert!((v[0] - 1.0).abs() < 1e-9);
        assert!(v[1].abs() < 1e-9);
        assert!(v[2].abs() < 1e-9);
    }

    #[test]
    fn hand_computed_projection() {
        // Project (0.8, 0.6): theta = (1.4 - 1)/2 = 0.2 -> (0.6, 0.4).
        let mut v = vec![0.8, 0.6];
        project_to_simplex(&mut v);
        assert!((v[0] - 0.6).abs() < 1e-12);
        assert!((v[1] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn lower_bound_respected() {
        let mut v = vec![1.0, 0.0, 0.0, 0.0];
        project_to_simplex_lb(&mut v, 0.05);
        assert!(is_in_simplex(&v, 0.05, 1e-9), "violates bound: {v:?}");
        assert!(v[0] > v[1]);
    }

    #[test]
    fn lower_bound_at_capacity_forces_uniform() {
        let mut v = vec![9.0, -3.0];
        project_to_simplex_lb(&mut v, 0.5);
        assert!((v[0] - 0.5).abs() < 1e-9);
        assert!((v[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn infeasible_lower_bound_panics() {
        let mut v = vec![0.5, 0.5];
        project_to_simplex_lb(&mut v, 0.6);
    }

    #[test]
    fn projection_is_idempotent() {
        let mut v = vec![3.0, -1.0, 0.5, 0.2, -2.0];
        project_to_simplex_lb(&mut v, 0.01);
        let once = v.clone();
        project_to_simplex_lb(&mut v, 0.01);
        for (a, b) in v.iter().zip(&once) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn uniform_point_is_equal_scheme() {
        let u = uniform_point(5);
        assert!(is_in_simplex(&u, 0.0, 1e-12));
        assert!(u.iter().all(|&x| (x - 0.2).abs() < 1e-12));
    }
}
