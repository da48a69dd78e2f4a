//! Damped Gauss-Newton for nonlinear least squares.
//!
//! TRACON fits its quadratic (degree-2) interference model with the
//! Gauss-Newton method. We implement the general algorithm for any
//! parametric model `f(params, x)` with a user-supplied (or numerical)
//! Jacobian, plus a Levenberg-style damping fallback so the iteration is
//! robust when `J^T J` is ill conditioned — which happens routinely with
//! correlated quadratic basis terms.

use crate::decomp::Cholesky;
use crate::matrix::Matrix;

/// A parametric residual model for nonlinear least squares.
pub trait ParametricModel {
    /// Number of free parameters.
    fn n_params(&self) -> usize;
    /// Model output for one input row given the parameter vector.
    fn eval(&self, params: &[f64], x: &[f64]) -> f64;
    /// Partial derivatives of `eval` w.r.t. each parameter at (`params`, `x`).
    ///
    /// The default implementation uses central finite differences; models
    /// that are linear in their parameters (like the quadratic basis
    /// expansion) should override with the exact gradient.
    fn gradient(&self, params: &[f64], x: &[f64], out: &mut [f64]) {
        let h = 1e-6;
        let mut p = params.to_vec();
        for i in 0..params.len() {
            let orig = p[i];
            let step = h * (1.0 + orig.abs());
            p[i] = orig + step;
            let fp = self.eval(&p, x);
            p[i] = orig - step;
            let fm = self.eval(&p, x);
            p[i] = orig;
            out[i] = (fp - fm) / (2.0 * step);
        }
    }
}

/// Options controlling the Gauss-Newton iteration.
#[derive(Debug, Clone, Copy)]
pub struct GaussNewtonOptions {
    /// Maximum number of outer iterations.
    pub max_iterations: usize,
    /// Stop when the relative SSE improvement falls below this.
    pub tolerance: f64,
    /// Initial Levenberg damping (0 gives pure Gauss-Newton first).
    pub initial_damping: f64,
}

impl Default for GaussNewtonOptions {
    fn default() -> Self {
        GaussNewtonOptions {
            max_iterations: 50,
            tolerance: 1e-10,
            initial_damping: 1e-8,
        }
    }
}

/// Result of a Gauss-Newton fit.
#[derive(Debug, Clone)]
pub struct GaussNewtonFit {
    /// Optimized parameter vector.
    pub params: Vec<f64>,
    /// Final sum of squared errors.
    pub sse: f64,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Whether the tolerance criterion was met before `max_iterations`.
    pub converged: bool,
}

fn sse_of<M: ParametricModel>(model: &M, params: &[f64], xs: &[Vec<f64>], ys: &[f64]) -> f64 {
    xs.iter()
        .zip(ys)
        .map(|(x, &y)| {
            let e = y - model.eval(params, x);
            e * e
        })
        .sum()
}

/// Minimizes `sum_i (y_i - f(params, x_i))^2` starting from `initial`.
///
/// Each iteration solves the damped normal equations
/// `(J^T J + lambda I) delta = J^T r` and accepts the step only when it
/// reduces the SSE, increasing `lambda` otherwise (Levenberg safeguard).
///
/// # Panics
/// Panics when `xs` and `ys` lengths differ or `initial` has the wrong size.
pub fn fit<M: ParametricModel>(
    model: &M,
    xs: &[Vec<f64>],
    ys: &[f64],
    initial: &[f64],
    opts: GaussNewtonOptions,
) -> GaussNewtonFit {
    assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
    assert_eq!(
        initial.len(),
        model.n_params(),
        "initial parameter size mismatch"
    );
    let n = xs.len();
    let p = model.n_params();
    let mut params = initial.to_vec();
    let mut sse = sse_of(model, &params, xs, ys);
    let mut lambda = opts.initial_damping;
    let mut grad = vec![0.0; p];
    let mut iterations = 0;
    let mut converged = false;

    for _ in 0..opts.max_iterations {
        iterations += 1;
        // Build J^T J and J^T r without materializing J (n can be large).
        let mut jtj = Matrix::zeros(p, p);
        let mut jtr = vec![0.0; p];
        for i in 0..n {
            let r = ys[i] - model.eval(&params, &xs[i]);
            model.gradient(&params, &xs[i], &mut grad);
            for a in 0..p {
                let ga = grad[a];
                if ga == 0.0 {
                    continue;
                }
                jtr[a] += ga * r;
                for b in a..p {
                    jtj[(a, b)] += ga * grad[b];
                }
            }
        }
        for a in 0..p {
            for b in 0..a {
                jtj[(a, b)] = jtj[(b, a)];
            }
        }

        // Try steps with increasing damping until SSE improves.
        let mut accepted = false;
        for _try in 0..12 {
            let mut damped = jtj.clone();
            let scale = 1.0 + damped.max_abs();
            for d in 0..p {
                damped[(d, d)] += lambda * scale;
            }
            let delta = match Cholesky::new(&damped) {
                Ok(ch) => ch.solve(&jtr),
                Err(_) => {
                    lambda = (lambda * 10.0).max(1e-10);
                    continue;
                }
            };
            let candidate: Vec<f64> = params.iter().zip(&delta).map(|(p, d)| p + d).collect();
            let new_sse = sse_of(model, &candidate, xs, ys);
            if new_sse.is_finite() && new_sse <= sse {
                let rel_improvement = if sse > 0.0 {
                    (sse - new_sse) / sse
                } else {
                    0.0
                };
                params = candidate;
                sse = new_sse;
                lambda = (lambda * 0.3).max(1e-12);
                accepted = true;
                if rel_improvement < opts.tolerance {
                    converged = true;
                }
                break;
            }
            lambda = (lambda * 10.0).max(1e-10);
        }
        if !accepted {
            // No improving step found even with heavy damping: local optimum.
            converged = true;
        }
        if converged {
            break;
        }
    }

    GaussNewtonFit {
        params,
        sse,
        iterations,
        converged,
    }
}

/// A model that is linear in its parameters over a fixed basis expansion:
/// `f(params, x) = sum_j params[j] * basis_j(x)`.
///
/// Gauss-Newton converges on these in a single step, but routing them
/// through the same machinery keeps the NLM training path identical to the
/// paper's description.
pub struct LinearInParams<F: Fn(&[f64], &mut Vec<f64>)> {
    n_params: usize,
    /// Fills the basis expansion of `x` into the output vector.
    expand: F,
}

impl<F: Fn(&[f64], &mut Vec<f64>)> LinearInParams<F> {
    /// Creates a linear-in-parameters model with `n_params` basis functions.
    pub fn new(n_params: usize, expand: F) -> Self {
        LinearInParams { n_params, expand }
    }
}

impl<F: Fn(&[f64], &mut Vec<f64>)> ParametricModel for LinearInParams<F> {
    fn n_params(&self) -> usize {
        self.n_params
    }

    fn eval(&self, params: &[f64], x: &[f64]) -> f64 {
        let mut basis = Vec::with_capacity(self.n_params);
        (self.expand)(x, &mut basis);
        debug_assert_eq!(basis.len(), self.n_params);
        crate::matrix::dot(params, &basis)
    }

    fn gradient(&self, _params: &[f64], x: &[f64], out: &mut [f64]) {
        let mut basis = Vec::with_capacity(self.n_params);
        (self.expand)(x, &mut basis);
        out.copy_from_slice(&basis);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::ChaCha12;

    /// y = a * exp(b * x): genuinely nonlinear in parameters.
    struct ExpModel;

    impl ParametricModel for ExpModel {
        fn n_params(&self) -> usize {
            2
        }
        fn eval(&self, p: &[f64], x: &[f64]) -> f64 {
            p[0] * (p[1] * x[0]).exp()
        }
        fn gradient(&self, p: &[f64], x: &[f64], out: &mut [f64]) {
            let e = (p[1] * x[0]).exp();
            out[0] = e;
            out[1] = p[0] * x[0] * e;
        }
    }

    #[test]
    fn fits_exponential_exactly() {
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 * 0.1]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * (0.8 * x[0]).exp()).collect();
        let fit = fit(
            &ExpModel,
            &xs,
            &ys,
            &[1.0, 0.1],
            GaussNewtonOptions::default(),
        );
        assert!(fit.converged, "did not converge: {fit:?}");
        assert!((fit.params[0] - 2.0).abs() < 1e-6, "{:?}", fit.params);
        assert!((fit.params[1] - 0.8).abs() < 1e-6, "{:?}", fit.params);
        assert!(fit.sse < 1e-10);
    }

    #[test]
    fn fits_exponential_with_noise() {
        let mut rng = ChaCha12::seed_from_u64(3);
        let xs: Vec<Vec<f64>> = (0..100).map(|_| vec![rng.range_f64(0.0, 2.0)]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| 1.5 * (0.5 * x[0]).exp() + rng.range_f64(-0.01, 0.01))
            .collect();
        let fit = fit(
            &ExpModel,
            &xs,
            &ys,
            &[1.0, 0.1],
            GaussNewtonOptions::default(),
        );
        assert!((fit.params[0] - 1.5).abs() < 0.05);
        assert!((fit.params[1] - 0.5).abs() < 0.05);
    }

    #[test]
    fn linear_in_params_one_step_quadratic() {
        // y = 1 + 2x + 3x^2 through the basis [1, x, x^2].
        let model = LinearInParams::new(3, |x: &[f64], out: &mut Vec<f64>| {
            out.clear();
            out.push(1.0);
            out.push(x[0]);
            out.push(x[0] * x[0]);
        });
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.25]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| 1.0 + 2.0 * x[0] + 3.0 * x[0] * x[0])
            .collect();
        let fit = fit(
            &model,
            &xs,
            &ys,
            &[0.0, 0.0, 0.0],
            GaussNewtonOptions::default(),
        );
        assert!((fit.params[0] - 1.0).abs() < 1e-6);
        assert!((fit.params[1] - 2.0).abs() < 1e-6);
        assert!((fit.params[2] - 3.0).abs() < 1e-6);
        // Linear-in-params: Gauss-Newton needs very few iterations (a couple
        // of damping refinements at most).
        assert!(fit.iterations <= 5, "iterations = {}", fit.iterations);
    }

    #[test]
    fn default_numeric_gradient_agrees_with_exact() {
        struct NoGrad;
        impl ParametricModel for NoGrad {
            fn n_params(&self) -> usize {
                2
            }
            fn eval(&self, p: &[f64], x: &[f64]) -> f64 {
                p[0] * (p[1] * x[0]).exp()
            }
        }
        let p = [1.3, 0.4];
        let x = [0.7];
        let mut numeric = [0.0; 2];
        NoGrad.gradient(&p, &x, &mut numeric);
        let mut exact = [0.0; 2];
        ExpModel.gradient(&p, &x, &mut exact);
        assert!((numeric[0] - exact[0]).abs() < 1e-5);
        assert!((numeric[1] - exact[1]).abs() < 1e-5);
    }

    #[test]
    fn zero_residual_start_terminates_quickly() {
        let model = LinearInParams::new(1, |x: &[f64], out: &mut Vec<f64>| {
            out.clear();
            out.push(x[0]);
        });
        let xs = vec![vec![1.0], vec![2.0]];
        let ys = vec![3.0, 6.0];
        let fit = fit(&model, &xs, &ys, &[3.0], GaussNewtonOptions::default());
        assert!(fit.sse < 1e-20);
        assert!(fit.iterations <= 2);
    }
}
