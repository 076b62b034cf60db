//! Log marginal likelihood (Eq. 12) and its analytic gradient.
//!
//! With `K_y = K + sigma_n^2 I = L L^T` and `alpha = K_y^{-1} y`:
//!
//! ```text
//! LML = -1/2 y^T alpha - sum_i log L_ii - n/2 log(2 pi)
//! dLML/dtheta_j = 1/2 tr( (alpha alpha^T - K_y^{-1}) dK_y/dtheta_j )
//! ```
//!
//! `theta` stacks the kernel's log-parameters followed by `log sigma_n`
//! (when the noise level is optimized). For the noise component,
//! `dK_y/dlog sigma_n = 2 sigma_n^2 I`, so its gradient entry collapses to
//! `sigma_n^2 tr(alpha alpha^T - K_y^{-1})` without forming a matrix.

use crate::kernel::{DistanceForm, Kernel};
use alperf_linalg::{
    cholesky::Cholesky, fastmath, matrix::Matrix, vector::dot, vector::sq_dist, LinalgError,
};
use rayon::prelude::*;

/// First jitter magnitude (relative to the mean diagonal) for the Cholesky
/// retry ladder, and the number of rungs. Matches scikit-learn's behaviour
/// of bumping `alpha` when the covariance matrix is numerically indefinite.
const CHOL_JITTER: f64 = 1e-10;
const CHOL_TRIES: usize = 8;

/// Assemble the `n x n` kernel matrix `K` for training inputs `x`
/// (rows = points). Parallelizes across rows for large `n`.
pub fn assemble_covariance(kernel: &dyn Kernel, x: &Matrix) -> Matrix {
    let n = x.nrows();
    let mut k = Matrix::zeros(n, n);
    // Fill the lower triangle (incl. diagonal) in parallel, then mirror.
    // Row i costs O(i), so plain row chunking is imbalanced but fine for the
    // n <= few-thousand sizes this workspace sees.
    if n >= 64 {
        let rows: Vec<Vec<f64>> = (0..n)
            .into_par_iter()
            .map(|i| {
                let xi = x.row(i);
                (0..=i).map(|j| kernel.eval(xi, x.row(j))).collect()
            })
            .collect();
        for (i, row) in rows.into_iter().enumerate() {
            for (j, v) in row.into_iter().enumerate() {
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
        }
    } else {
        for i in 0..n {
            for j in 0..=i {
                let v = kernel.eval(x.row(i), x.row(j));
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
        }
    }
    k
}

/// Cross-covariance vector `k_* = [k(x_*, x_i)]_i` (Eq. 9).
pub fn covariance_vector(kernel: &dyn Kernel, x: &Matrix, xstar: &[f64]) -> Vec<f64> {
    (0..x.nrows())
        .map(|i| kernel.eval(xstar, x.row(i)))
        .collect()
}

/// Per-fit cache of X-dependent quantities reused across every LML
/// evaluation of a `fit_gpr` call.
///
/// The training inputs are fixed for the whole multi-restart optimization
/// while the hyperparameters change at every gradient step and line-search
/// probe. For SE-family kernels ([`Kernel::distance_form`]) the covariance
/// is a function of the pairwise squared distances only, so those are
/// computed once here — `O(n^2 d)` — and every subsequent covariance
/// rebuild collapses to an `O(n^2)` scale-and-exp through the fastmath
/// vectorized exponential. Kernels without a distance form fall back to
/// pointwise assembly, unchanged.
pub struct FitCache {
    kind: CacheKind,
}

enum CacheKind {
    /// Isotropic SE: total pairwise squared distances.
    Iso { d2: Matrix },
    /// ARD SE: one squared-distance matrix per input dimension.
    Ard { d2: Vec<Matrix> },
    /// No distance structure: pointwise assembly.
    Generic,
}

impl FitCache {
    /// Precompute the distance matrices appropriate for `kernel` on the
    /// training inputs `x` (rows = points).
    pub fn build(kernel: &dyn Kernel, x: &Matrix) -> FitCache {
        let n = x.nrows();
        let kind = match kernel.distance_form() {
            Some(DistanceForm::IsoSe { .. }) => CacheKind::Iso {
                d2: Matrix::from_fn(n, n, |i, j| sq_dist(x.row(i), x.row(j))),
            },
            Some(DistanceForm::ArdSe { .. }) => {
                let d = x.ncols();
                CacheKind::Ard {
                    d2: (0..d)
                        .map(|c| {
                            Matrix::from_fn(n, n, |i, j| {
                                let v = x.row(i)[c] - x.row(j)[c];
                                v * v
                            })
                        })
                        .collect(),
                }
            }
            None => CacheKind::Generic,
        };
        FitCache { kind }
    }

    /// A cache that always takes the pointwise path (for kernels without a
    /// distance form, or when no reuse is expected).
    pub fn generic() -> FitCache {
        FitCache {
            kind: CacheKind::Generic,
        }
    }

    /// Whether covariance rebuilds use the cached fast path.
    pub fn is_cached(&self) -> bool {
        !matches!(self.kind, CacheKind::Generic)
    }
}

/// Assemble the training covariance through the cache when possible,
/// falling back to [`assemble_covariance`]. The cached path agrees with the
/// pointwise path to vectorized-exp accuracy (~1e-15 relative).
fn assemble_covariance_cached(kernel: &dyn Kernel, x: &Matrix, cache: &FitCache) -> Matrix {
    match (&cache.kind, kernel.distance_form()) {
        (CacheKind::Iso { d2 }, Some(DistanceForm::IsoSe { length_scale, sf2 })) => {
            let mut k = d2.clone();
            let c = -0.5 / (length_scale * length_scale);
            for v in k.as_mut_slice() {
                *v *= c;
            }
            fastmath::exp_inplace_scaled(k.as_mut_slice(), sf2);
            k
        }
        (CacheKind::Ard { d2 }, Some(DistanceForm::ArdSe { length_scales, sf2 }))
            if d2.len() == length_scales.len() =>
        {
            let n = x.nrows();
            let mut q = Matrix::zeros(n, n);
            for (dm, l) in d2.iter().zip(&length_scales) {
                let c = -0.5 / (l * l);
                for (qv, dv) in q.as_mut_slice().iter_mut().zip(dm.as_slice()) {
                    *qv += c * dv;
                }
            }
            fastmath::exp_inplace_scaled(q.as_mut_slice(), sf2);
            q
        }
        _ => assemble_covariance(kernel, x),
    }
}

/// Result of a marginal-likelihood evaluation that is reused by the model:
/// the Cholesky factor of `K_y` and the weight vector `alpha`.
pub struct LmlParts {
    /// Cholesky factor of `K_y`.
    pub chol: Cholesky,
    /// `alpha = K_y^{-1} y`.
    pub alpha: Vec<f64>,
    /// Log marginal likelihood value.
    pub lml: f64,
}

/// Evaluate the LML (Eq. 12) for the given kernel and noise standard
/// deviation on `(x, y)`. Also returns the pieces needed for prediction.
pub fn lml_parts(
    kernel: &dyn Kernel,
    noise_std: f64,
    x: &Matrix,
    y: &[f64],
) -> Result<LmlParts, LinalgError> {
    Ok(lml_parts_full(kernel, noise_std, x, y, &FitCache::generic())?.0)
}

/// [`lml_parts`] through a per-fit distance cache (see [`FitCache`]):
/// identical contract, but covariance assembly is an O(n^2) scale-and-exp
/// when the kernel has a distance form.
pub fn lml_parts_cached(
    kernel: &dyn Kernel,
    noise_std: f64,
    x: &Matrix,
    y: &[f64],
    cache: &FitCache,
) -> Result<LmlParts, LinalgError> {
    Ok(lml_parts_full(kernel, noise_std, x, y, cache)?.0)
}

/// Shared implementation: returns the factored parts *and* the assembled
/// `K_y` (the gradient contraction reads its off-diagonal entries, which
/// equal the noise-free `K` there).
fn lml_parts_full(
    kernel: &dyn Kernel,
    noise_std: f64,
    x: &Matrix,
    y: &[f64],
    cache: &FitCache,
) -> Result<(LmlParts, Matrix), LinalgError> {
    let n = x.nrows();
    if y.len() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "lml",
            details: format!("X has {n} rows, y has {}", y.len()),
        });
    }
    let mut ky = assemble_covariance_cached(kernel, x, cache);
    ky.add_diagonal(noise_std * noise_std);
    let chol = Cholesky::decompose_jittered(&ky, CHOL_JITTER, CHOL_TRIES)?;
    let alpha = chol.solve(y)?;
    let lml = -0.5 * dot(y, &alpha)
        - 0.5 * chol.log_det()
        - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
    Ok((LmlParts { chol, alpha, lml }, ky))
}

/// Evaluate just the LML value; convenience for plotting likelihood
/// landscapes (paper Figs. 4 and 5b).
pub fn lml_value(
    kernel: &dyn Kernel,
    noise_std: f64,
    x: &Matrix,
    y: &[f64],
) -> Result<f64, LinalgError> {
    Ok(lml_parts(kernel, noise_std, x, y)?.lml)
}

/// [`lml_value`] through a per-fit distance cache — the optimizer's
/// line-search workhorse.
pub fn lml_value_cached(
    kernel: &dyn Kernel,
    noise_std: f64,
    x: &Matrix,
    y: &[f64],
    cache: &FitCache,
) -> Result<f64, LinalgError> {
    Ok(lml_parts_full(kernel, noise_std, x, y, cache)?.0.lml)
}

/// Evaluate the LML and its gradient with respect to
/// `theta = [kernel log-params..., log sigma_n]`.
///
/// When `optimize_noise` is `false` the returned gradient omits the final
/// noise component.
pub fn lml_and_grad(
    kernel: &dyn Kernel,
    noise_std: f64,
    x: &Matrix,
    y: &[f64],
    optimize_noise: bool,
) -> Result<(f64, Vec<f64>), LinalgError> {
    lml_and_grad_cached(
        kernel,
        noise_std,
        x,
        y,
        optimize_noise,
        &FitCache::generic(),
    )
}

/// [`lml_and_grad`] through a per-fit distance cache.
///
/// The gradient is `dLML/dtheta_j = 1/2 tr(W dK_y/dtheta_j)` with the
/// symmetric weight `W = alpha alpha^T - K_y^{-1}` (Eq. 12's analytic
/// gradient). `K_y^{-1}` comes from structure-exploiting triangular solves
/// (`Cholesky::inverse_lower`; only the lower triangle, since `W` is
/// symmetric and every consumer reads `i >= j`) — never from a dense
/// identity solve for the full inverse — and `W` is materialized once,
/// then contracted with every
/// `dK/dtheta_j` in a single pass:
///
/// * with a distance cache, `dK/dlog l (= K .* d2 / l^2)` and
///   `dK/dlog sf (= 2 K)` are functions of the already-assembled `K_y` and
///   the cached `d2`, so the contraction is pure row-slice arithmetic with
///   no per-pair kernel calls (and no per-pair `Vec` allocations);
/// * without one, the kernel's pointwise [`Kernel::grad`] supplies
///   `dK_ij/dtheta`, exactly as before.
pub fn lml_and_grad_cached(
    kernel: &dyn Kernel,
    noise_std: f64,
    x: &Matrix,
    y: &[f64],
    optimize_noise: bool,
    cache: &FitCache,
) -> Result<(f64, Vec<f64>), LinalgError> {
    let state = lml_state_cached(kernel, noise_std, x, y, cache)?;
    let grad = grad_from_state(kernel, noise_std, x, optimize_noise, &state, cache)?;
    Ok((state.parts.lml, grad))
}

/// Factored LML evaluation at one hyperparameter setting, retaining the
/// assembled `K_y` alongside the [`LmlParts`].
///
/// The optimizer's line search evaluates many candidate thetas value-only,
/// then needs the gradient at exactly the accepted one — keeping the state
/// of each candidate lets [`grad_from_state`] start from the already-built
/// covariance and Cholesky factor instead of re-assembling and
/// re-factorizing (`O(n^3)`) at the same theta.
pub struct LmlState {
    /// Factored pieces: Cholesky of `K_y`, `alpha`, and the LML value.
    pub parts: LmlParts,
    /// Assembled `K_y` (noise variance on the diagonal).
    ky: Matrix,
}

/// Evaluate the LML through the distance cache, returning the full
/// [`LmlState`] for a later [`grad_from_state`] at the same theta.
///
/// # Errors
/// Same conditions as [`lml_parts`].
pub fn lml_state_cached(
    kernel: &dyn Kernel,
    noise_std: f64,
    x: &Matrix,
    y: &[f64],
    cache: &FitCache,
) -> Result<LmlState, LinalgError> {
    let _span = alperf_obs::span("gp.lml_eval");
    let (parts, ky) = lml_parts_full(kernel, noise_std, x, y, cache)?;
    Ok(LmlState { parts, ky })
}

/// Gradient of the LML at the theta captured by `state` (which must have
/// been produced with the *same* kernel parameters and `noise_std`).
///
/// # Errors
/// Propagates triangular-solve failures.
pub fn grad_from_state(
    kernel: &dyn Kernel,
    noise_std: f64,
    x: &Matrix,
    optimize_noise: bool,
    state: &LmlState,
    cache: &FitCache,
) -> Result<Vec<f64>, LinalgError> {
    let _span = alperf_obs::span("gp.lml_grad");
    let parts = &state.parts;
    let ky = &state.ky;
    let n = x.nrows();
    // W = alpha alpha^T - K_y^{-1}. Every contraction below (and the noise
    // trace) reads only `i >= j`, and W is symmetric, so only the lower
    // triangle is materialized: `inverse_lower` skips the structural zeros
    // of `L^{-1}` and of the product, about n^3/3 multiply-adds against
    // 1.5 n^3 for a dense identity solve and a full square product.
    let mut w = parts.chol.inverse_lower()?;
    for i in 0..n {
        let ai = parts.alpha[i];
        for (wv, aj) in w.row_mut(i)[..=i].iter_mut().zip(&parts.alpha) {
            *wv = ai * aj - *wv;
        }
    }
    let grad_k = match (&cache.kind, kernel.distance_form()) {
        (CacheKind::Iso { d2 }, Some(DistanceForm::IsoSe { length_scale, sf2 })) => {
            let inv_l2 = 1.0 / (length_scale * length_scale);
            let s = contract_rows(n, 2, |i, out| {
                let wrow = &w.row(i)[..i];
                let krow = &ky.row(i)[..i];
                let drow = &d2.row(i)[..i];
                let mut sl = 0.0;
                let mut sk = 0.0;
                for ((wv, kv), dv) in wrow.iter().zip(krow).zip(drow) {
                    let wk = wv * kv;
                    sk += wk;
                    sl += wk * dv;
                }
                // Diagonal: d2 = 0 kills the length-scale term; K_ii = sf2
                // (the stored K_y diagonal carries the noise, so use the
                // exact kernel value instead).
                out[0] = sl;
                out[1] = sk + 0.5 * w[(i, i)] * sf2;
            });
            vec![s[0] * inv_l2, 2.0 * s[1]]
        }
        (CacheKind::Ard { d2 }, Some(DistanceForm::ArdSe { length_scales, sf2 }))
            if d2.len() == length_scales.len() =>
        {
            let nd = d2.len();
            let mut s = contract_rows(n, nd + 1, |i, out| {
                let wrow = &w.row(i)[..i];
                let krow = &ky.row(i)[..i];
                let (sl, sk) = out.split_at_mut(nd);
                for (sld, dm) in sl.iter_mut().zip(d2) {
                    for ((wv, kv), dv) in wrow.iter().zip(krow).zip(&dm.row(i)[..i]) {
                        *sld += wv * kv * dv;
                    }
                }
                for (wv, kv) in wrow.iter().zip(krow) {
                    sk[0] += wv * kv;
                }
                sk[0] += 0.5 * w[(i, i)] * sf2;
            });
            for (g, l) in s.iter_mut().zip(&length_scales) {
                *g /= l * l;
            }
            s[nd] *= 2.0;
            s
        }
        _ => contract_generic(kernel, x, &w),
    };
    let mut grad = grad_k;
    if optimize_noise {
        // tr(W) * sigma_n^2: dK_y/dlog sigma_n = 2 sigma_n^2 I.
        let tr_w: f64 = (0..n).map(|i| w[(i, i)]).sum();
        grad.push(noise_std * noise_std * tr_w);
    }
    Ok(grad)
}

/// Row-parallel reduction helper for the gradient contractions: `f(i, out)`
/// adds row `i`'s contribution to `width` sums into the zeroed `out`; the
/// rows are then summed in row order (rows filled in parallel for n >= 64,
/// matching the assembly threshold). One buffer holds every row, so the
/// result does not depend on the pool width.
fn contract_rows(n: usize, width: usize, f: impl Fn(usize, &mut [f64]) + Sync) -> Vec<f64> {
    let mut rows = vec![0.0; n * width];
    if width == 0 {
        return rows;
    }
    if n >= 64 {
        rows.par_chunks_mut(width)
            .enumerate()
            .for_each(|(i, out)| f(i, out));
    } else {
        for (i, out) in rows.chunks_mut(width).enumerate() {
            f(i, out);
        }
    }
    let mut acc = vec![0.0; width];
    for row in rows.chunks_exact(width) {
        for (a, b) in acc.iter_mut().zip(row) {
            *a += b;
        }
    }
    acc
}

/// Pointwise-gradient contraction for kernels without a distance form:
/// `1/2 sum_ij W_ij dK_ij/dtheta`, symmetry-folded (diagonal once,
/// off-diagonal twice), reading `W` a row slice at a time.
fn contract_generic(kernel: &dyn Kernel, x: &Matrix, w: &Matrix) -> Vec<f64> {
    contract_rows(x.nrows(), kernel.n_params(), |i, acc| {
        let xi = x.row(i);
        for (j, wv) in w.row(i).iter().enumerate().take(i + 1) {
            let m = if i == j { 0.5 * wv } else { *wv };
            let g = kernel.grad(xi, x.row(j));
            for (a, gj) in acc.iter_mut().zip(&g) {
                *a += m * gj;
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SquaredExponential;

    fn toy_data() -> (Matrix, Vec<f64>) {
        let x = Matrix::from_rows(&[&[0.0], &[0.5], &[1.3], &[2.0], &[2.6]]).unwrap();
        let y = vec![0.1, 0.4, 0.9, 0.3, -0.5];
        (x, y)
    }

    #[test]
    fn covariance_is_symmetric_with_unit_diag_scale() {
        let (x, _) = toy_data();
        let k = SquaredExponential::new(1.0, 2.0);
        let c = assemble_covariance(&k, &x);
        for i in 0..x.nrows() {
            assert!((c[(i, i)] - 4.0).abs() < 1e-14);
            for j in 0..x.nrows() {
                assert_eq!(c[(i, j)], c[(j, i)]);
            }
        }
    }

    #[test]
    fn parallel_assembly_matches_serial() {
        // 70 points forces the parallel path; compare against direct eval.
        let n = 70;
        let x = Matrix::from_fn(n, 2, |i, j| (i as f64) * 0.1 + (j as f64) * 0.05);
        let k = SquaredExponential::new(1.3, 0.8);
        let c = assemble_covariance(&k, &x);
        for &(i, j) in &[(0usize, 0usize), (69, 69), (12, 55), (55, 12)] {
            assert!((c[(i, j)] - k.eval(x.row(i), x.row(j))).abs() < 1e-15);
        }
    }

    #[test]
    fn lml_of_single_point_matches_gaussian_logpdf() {
        // One observation: LML = log N(y | 0, sigma_f^2 + sigma_n^2).
        let x = Matrix::from_rows(&[&[0.0]]).unwrap();
        let y = vec![0.7];
        let sf = 1.5;
        let sn = 0.3;
        let k = SquaredExponential::new(1.0, sf);
        let var = sf * sf + sn * sn;
        let expect =
            -0.5 * y[0] * y[0] / var - 0.5 * var.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln();
        let got = lml_value(&k, sn, &x, &y).unwrap();
        assert!((got - expect).abs() < 1e-10, "{got} vs {expect}");
    }

    #[test]
    fn lml_gradient_matches_finite_difference() {
        let (x, y) = toy_data();
        let kernel = SquaredExponential::new(0.9, 1.2);
        let sn: f64 = 0.25;
        let (_, grad) = lml_and_grad(&kernel, sn, &x, &y, true).unwrap();
        assert_eq!(grad.len(), 3);
        let h = 1e-6;
        // Kernel params.
        let p0 = kernel.params();
        for j in 0..2 {
            let mut kp = kernel.clone();
            let mut p = p0.clone();
            p[j] += h;
            kp.set_params(&p);
            let up = lml_value(&kp, sn, &x, &y).unwrap();
            p[j] -= 2.0 * h;
            kp.set_params(&p);
            let dn = lml_value(&kp, sn, &x, &y).unwrap();
            let fd = (up - dn) / (2.0 * h);
            assert!(
                (fd - grad[j]).abs() <= 1e-4 * (1.0 + fd.abs()),
                "kernel param {j}: fd={fd} analytic={}",
                grad[j]
            );
        }
        // Noise param (theta = log sigma_n).
        let up = lml_value(&kernel, (sn.ln() + h).exp(), &x, &y).unwrap();
        let dn = lml_value(&kernel, (sn.ln() - h).exp(), &x, &y).unwrap();
        let fd = (up - dn) / (2.0 * h);
        assert!(
            (fd - grad[2]).abs() <= 1e-4 * (1.0 + fd.abs()),
            "noise: fd={fd} analytic={}",
            grad[2]
        );
    }

    #[test]
    fn grad_excludes_noise_when_not_optimized() {
        let (x, y) = toy_data();
        let kernel = SquaredExponential::unit();
        let (_, grad) = lml_and_grad(&kernel, 0.1, &x, &y, false).unwrap();
        assert_eq!(grad.len(), 2);
    }

    #[test]
    fn higher_noise_explains_scatter_better_than_tiny_noise() {
        // Pure-noise data around zero: LML should prefer sigma_n ~ data std
        // over a tiny sigma_n with the same kernel.
        let x = Matrix::from_rows(&[&[0.0], &[0.1], &[0.2], &[0.3], &[0.4], &[0.5]]).unwrap();
        let y = vec![0.9, -1.1, 1.0, -0.8, 1.2, -1.0];
        let k = SquaredExponential::new(5.0, 1.0); // long scale: can't wiggle
        let low = lml_value(&k, 1e-4, &x, &y).unwrap();
        let high = lml_value(&k, 1.0, &x, &y).unwrap();
        assert!(high > low, "high-noise {high} should beat low-noise {low}");
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]).unwrap();
        let y = vec![1.0];
        assert!(lml_value(&SquaredExponential::unit(), 0.1, &x, &y).is_err());
    }

    #[test]
    fn covariance_vector_matches_pointwise() {
        let (x, _) = toy_data();
        let k = SquaredExponential::new(0.7, 1.1);
        let xs = [0.9];
        let kv = covariance_vector(&k, &x, &xs);
        assert_eq!(kv.len(), x.nrows());
        for (i, kvi) in kv.iter().enumerate() {
            assert_eq!(*kvi, k.eval(&xs, x.row(i)));
        }
    }
}
