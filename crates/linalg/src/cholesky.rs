//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! The single most important numerical routine in the workspace: every GPR
//! fit, prediction, and log-marginal-likelihood evaluation goes through
//! `K_y = L L^T`. Covariance matrices built from a squared-exponential
//! kernel are notoriously ill-conditioned when training inputs are close
//! together relative to the length scale, so [`Cholesky::decompose_jittered`]
//! retries with geometrically increasing diagonal jitter — the same strategy
//! scikit-learn's `GaussianProcessRegressor` (used by the paper) employs.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::triangular::{
    solve_lower, solve_lower_matrix, solve_lower_rhs_rows, solve_lower_transpose,
    solve_lower_transpose_matrix, solve_lower_unit_cols,
};

/// Panel width of the blocked right-looking factorization. Matches the
/// multi-RHS triangular solver's `RHS_BLOCK` so the TRSM step packs into a
/// single block pass.
const BLOCK: usize = 64;
/// Below this order the unblocked reference path wins: the blocked variant's
/// panel copies and matmul dispatch cost more than they save.
const BLOCKED_MIN: usize = 128;

/// A lower-triangular Cholesky factor `L` with `A = L L^T`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
    /// Jitter that had to be added to the diagonal for the factorization to
    /// succeed (0.0 when the matrix was PD as given).
    jitter: f64,
}

/// Check that `a` is square with finite entries. Hoisted out of the
/// factorization so the jitter retry ladder validates exactly once.
fn validate(a: &Matrix) -> Result<(), LinalgError> {
    if a.ncols() != a.nrows() {
        return Err(LinalgError::DimensionMismatch {
            op: "cholesky",
            details: format!("{}x{} is not square", a.nrows(), a.ncols()),
        });
    }
    if !a.all_finite() {
        return Err(LinalgError::NonFinite { op: "cholesky" });
    }
    Ok(())
}

/// (Re)initialize the factor buffer from `a`: off-diagonal lower-triangle
/// entries of columns `0..dirty_cols` are copied back, and every diagonal
/// entry is set to `a_ii + jitter` (the jitter changes between retries, so
/// the diagonal is always refreshed). Columns at or beyond `dirty_cols` were
/// never written by the failed attempt and still hold `a`'s values. The
/// strict upper triangle is never touched by any factor path and stays zero.
fn restore_lower(l: &mut Matrix, a: &Matrix, jitter: f64, dirty_cols: usize) {
    let n = a.nrows();
    for i in 0..n {
        let lim = i.min(dirty_cols);
        let dst = l.row_mut(i);
        let src = a.row(i);
        dst[..lim].copy_from_slice(&src[..lim]);
        dst[i] = src[i] + jitter;
    }
}

/// In-place factorization of the diagonal block `l[k0..k0+nb, k0..k0+nb]`,
/// whose entries already carry every update from columns before `k0`.
/// Column `j` is the scalar column sweep — pivot `d = a_jj - sum_k l_jk^2`,
/// then `l_ij = (a_ij - sum_k l_ik l_jk) / sqrt d`, each sum over `k`
/// ascending with separate multiply and subtract — with the rows below the
/// pivot swept four at a time against the shared `L[j][k0..j]`, so four
/// independent subtract chains are in flight instead of one. Each element
/// sees the same operations in the same order as in a one-row-at-a-time
/// sweep, so the factor is bit-identical to it.
///
/// On failure returns the offending pivot/value plus the number of columns
/// the attempt dirtied (so a retry only has to restore those): before any
/// trailing update ran (`k0 == 0`) only the columns written so far are
/// dirty; afterwards everything is.
fn factor_diag_block(l: &mut Matrix, k0: usize, nb: usize) -> Result<(), (LinalgError, usize)> {
    let n = l.nrows();
    for j in 0..nb {
        let gj = k0 + j;
        let (head, tail) = l.as_mut_slice().split_at_mut((gj + 1) * n);
        let lj = &mut head[gj * n..];
        let mut d = lj[gj];
        for &v in &lj[k0..gj] {
            d -= v * v;
        }
        if d <= 0.0 || !d.is_finite() {
            let dirty = if k0 == 0 { gj } else { n };
            return Err((
                LinalgError::NotPositiveDefinite {
                    pivot: gj,
                    value: d,
                },
                dirty,
            ));
        }
        let dsqrt = d.sqrt();
        lj[gj] = dsqrt;
        let lj = &lj[k0..gj];
        let mut quads = tail[..(nb - j - 1) * n].chunks_exact_mut(4 * n);
        for quad in &mut quads {
            let (r0, rest) = quad.split_at_mut(n);
            let (r1, rest) = rest.split_at_mut(n);
            let (r2, r3) = rest.split_at_mut(n);
            let (mut s0, mut s1, mut s2, mut s3) = (r0[gj], r1[gj], r2[gj], r3[gj]);
            let rows = r0[k0..gj].iter().zip(&r1[k0..gj]).zip(&r2[k0..gj]);
            for (((&a0, &a1), &a2), (&a3, &ljk)) in rows.zip(r3[k0..gj].iter().zip(lj)) {
                s0 -= a0 * ljk;
                s1 -= a1 * ljk;
                s2 -= a2 * ljk;
                s3 -= a3 * ljk;
            }
            r0[gj] = s0 / dsqrt;
            r1[gj] = s1 / dsqrt;
            r2[gj] = s2 / dsqrt;
            r3[gj] = s3 / dsqrt;
        }
        for row in quads.into_remainder().chunks_exact_mut(n) {
            let mut s = row[gj];
            for (&a, &ljk) in row[k0..gj].iter().zip(lj) {
                s -= a * ljk;
            }
            row[gj] = s / dsqrt;
        }
    }
    Ok(())
}

/// In-place unblocked factorization of the lower triangle of `l` (which on
/// entry holds `A + jitter I`): the whole matrix as one diagonal block. The
/// path for small orders and the reference for blocked-vs-unblocked
/// equivalence tests.
fn factor_unblocked(l: &mut Matrix) -> Result<(), (LinalgError, usize)> {
    factor_diag_block(l, 0, l.nrows())
}

/// In-place blocked right-looking factorization: per `BLOCK`-wide panel,
/// (1) [`factor_diag_block`] on the diagonal block, (2) TRSM of the
/// sub-diagonal panel through the runtime-dispatched multi-RHS solver
/// (`L21 L11^T = A21`, one row per RHS), (3) SYRK-style trailing update
/// `A22 -= L21 L21^T` evaluated in row chunks through the cache-blocked
/// matmul, subtracting only the lower triangle.
///
/// A genuine mid-factorization *resume* across jitter retries is impossible
/// — the jitter perturbs every pivot, so every retry must refactor from the
/// top — but the failure report carries how far the attempt got so the
/// retry's `restore_lower` only re-copies the dirtied columns: a failure in
/// panel 0 (the common case for indefinite matrices) makes retries nearly
/// copy-free.
fn factor_blocked(l: &mut Matrix) -> Result<(), (LinalgError, usize)> {
    let n = l.nrows();
    let mut k0 = 0usize;
    while k0 < n {
        let nb = BLOCK.min(n - k0);
        let k1 = k0 + nb;
        factor_diag_block(l, k0, nb)?;
        let m = n - k1;
        if m > 0 {
            // Pack the diagonal block (lower triangle) and the sub-diagonal
            // panel; solve all panel rows against L11 in one blocked pass.
            let mut l11 = Matrix::zeros(nb, nb);
            for i in 0..nb {
                let src = &l.row(k0 + i)[k0..k0 + i + 1];
                l11.row_mut(i)[..=i].copy_from_slice(src);
            }
            let mut a21 = Matrix::zeros(m, nb);
            for r in 0..m {
                a21.row_mut(r).copy_from_slice(&l.row(k1 + r)[k0..k1]);
            }
            let l21 = solve_lower_rhs_rows(&l11, &a21).map_err(|e| (e, n))?;
            for r in 0..m {
                l.row_mut(k1 + r)[k0..k1].copy_from_slice(l21.row(r));
            }
            // Trailing update in row chunks: chunk rows [r0, r1) of the
            // trailing matrix only need products against rows 0..r1 of L21
            // (columns past the diagonal belong to the upper triangle), so
            // each chunk multiplies (r1-r0) x nb by nb x r1 — about half the
            // flops of the full square product.
            let mut r0 = 0usize;
            while r0 < m {
                let r1 = (r0 + BLOCK).min(m);
                let lhs = Matrix::from_vec(r1 - r0, nb, l21.as_slice()[r0 * nb..r1 * nb].to_vec())
                    .expect("chunk shape");
                let mut rt = Matrix::zeros(nb, r1);
                for r in 0..r1 {
                    let row = l21.row(r);
                    for (c, v) in row.iter().enumerate() {
                        rt[(c, r)] = *v;
                    }
                }
                let p = lhs.matmul(&rt).map_err(|e| (e, n))?;
                for r in r0..r1 {
                    let prow = p.row(r - r0);
                    let lrow = &mut l.row_mut(k1 + r)[k1..];
                    for c in 0..=r {
                        lrow[c] -= prow[c];
                    }
                }
                r0 = r1;
            }
        }
        k0 = k1;
    }
    Ok(())
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix. Only the lower triangle
    /// of `a` is read. Dispatches to the blocked right-looking algorithm for
    /// large orders and the unblocked reference sweep below [`BLOCKED_MIN`].
    ///
    /// # Errors
    /// [`LinalgError::NotPositiveDefinite`] if a pivot is `<= 0`;
    /// [`LinalgError::DimensionMismatch`] if `a` is not square;
    /// [`LinalgError::NonFinite`] if the input contains NaN/inf.
    pub fn decompose(a: &Matrix) -> Result<Self, LinalgError> {
        Self::decompose_impl(a, 0.0, None)
    }

    /// Force the unblocked reference factorization regardless of order.
    /// Bit-identical to the pre-blocked implementation; used by equivalence
    /// tests and available for debugging.
    pub fn decompose_unblocked(a: &Matrix) -> Result<Self, LinalgError> {
        Self::decompose_impl(a, 0.0, Some(false))
    }

    /// Force the blocked right-looking factorization regardless of order
    /// (exercises the panel/TRSM/SYRK path even for small matrices; agrees
    /// with [`Self::decompose_unblocked`] to ~1e-12 on well-conditioned
    /// inputs, differing only in floating-point summation grouping).
    pub fn decompose_blocked(a: &Matrix) -> Result<Self, LinalgError> {
        Self::decompose_impl(a, 0.0, Some(true))
    }

    fn decompose_impl(
        a: &Matrix,
        jitter: f64,
        force_blocked: Option<bool>,
    ) -> Result<Self, LinalgError> {
        validate(a)?;
        let n = a.nrows();
        let mut l = Matrix::zeros(n, n);
        restore_lower(&mut l, a, jitter, n);
        let blocked = force_blocked.unwrap_or(n >= BLOCKED_MIN);
        let res = if blocked {
            factor_blocked(&mut l)
        } else {
            factor_unblocked(&mut l)
        };
        match res {
            Ok(()) => Ok(Cholesky { l, jitter }),
            Err((e, _)) => Err(e),
        }
    }

    /// Factor with retries: if the plain factorization fails, add
    /// `jitter = first_jitter * 10^k` (k = 0, 1, ..., `max_tries-1`) to the
    /// diagonal until it succeeds. `first_jitter` is scaled by the mean
    /// diagonal magnitude so the retry ladder is dimensionally sensible.
    ///
    /// The input is validated (shape + finiteness) once up front, every
    /// retry reuses the same factor buffer, and a retry only restores the
    /// columns the previous attempt actually dirtied — for matrices that
    /// fail at an early pivot of the first panel, each rung of the ladder
    /// costs little beyond the factorization work it performs itself.
    ///
    /// Returns the factor together with the jitter that was used (see
    /// [`Cholesky::jitter`]).
    pub fn decompose_jittered(
        a: &Matrix,
        first_jitter: f64,
        max_tries: usize,
    ) -> Result<Self, LinalgError> {
        let _span = alperf_obs::span("linalg.cholesky");
        validate(a)?;
        let n = a.nrows();
        let mean_diag = if n == 0 {
            1.0
        } else {
            a.diagonal().iter().map(|v| v.abs()).sum::<f64>() / n as f64
        };
        let base = first_jitter * mean_diag.max(f64::MIN_POSITIVE);
        let blocked = n >= BLOCKED_MIN;
        let mut l = Matrix::zeros(n, n);
        let mut dirty = n;
        let mut last_err = None;
        for k in 0..max_tries.max(1) {
            let jitter = if k == 0 {
                0.0
            } else {
                base * 10f64.powi(k as i32 - 1)
            };
            restore_lower(&mut l, a, jitter, dirty);
            let res = if blocked {
                factor_blocked(&mut l)
            } else {
                factor_unblocked(&mut l)
            };
            match res {
                Ok(()) => return Ok(Cholesky { l, jitter }),
                Err((e @ LinalgError::NotPositiveDefinite { .. }, d)) => {
                    alperf_obs::inc("linalg.cholesky.jitter_retry");
                    dirty = d;
                    last_err = Some(e);
                }
                Err((e, _)) => return Err(e),
            }
        }
        Err(last_err.unwrap_or(LinalgError::NotPositiveDefinite {
            pivot: 0,
            value: f64::NAN,
        }))
    }

    /// The lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Diagonal jitter that was added for the factorization to succeed.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.l.nrows()
    }

    /// Solve `A x = b` via the two triangular solves.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let y = solve_lower(&self.l, b)?;
        solve_lower_transpose(&self.l, &y)
    }

    /// Forward solve only: `L z = b`. The norm of `z` gives the variance
    /// reduction term in GPR prediction.
    pub fn solve_forward(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        solve_lower(&self.l, b)
    }

    /// Backward solve only: `L^T x = b` — the second half of
    /// [`Self::solve`], exposed for consumers that assemble products like
    /// `L^{-T} w` directly (the sparse-GPR mean weights).
    pub fn solve_backward(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        solve_lower_transpose(&self.l, b)
    }

    /// Multi-RHS solve `A X = B`, one column of `X` per column of `B`.
    /// Delegates to the blocked (and, for large systems, parallel)
    /// triangular kernels, so it is much faster than calling [`Self::solve`]
    /// per column while producing bit-identical results.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        let y = solve_lower_matrix(&self.l, b)?;
        solve_lower_transpose_matrix(&self.l, &y)
    }

    /// Multi-RHS forward solve `L Z = B`. Column norms of `Z` give the
    /// variance-reduction terms for a whole batch of prediction points.
    pub fn solve_forward_matrix(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        solve_lower_matrix(&self.l, b)
    }

    /// Forward solve with the right-hand sides given as the *rows* of `bt`
    /// (see [`solve_lower_rhs_rows`]); row `r` of the result is
    /// `L^{-1} bt[r]`. This is the batched-prediction fast path: it fuses
    /// the transpose of a row-per-candidate cross-covariance into the
    /// solve's block packing.
    ///
    /// # Errors
    /// Same conditions as [`CholeskyFactor::solve_forward_matrix`].
    pub fn solve_forward_rhs_rows(&self, bt: &Matrix) -> Result<Matrix, LinalgError> {
        solve_lower_rhs_rows(&self.l, bt)
    }

    /// Explicit triangular inverse `L^{-1}` (lower triangular).
    ///
    /// Exploits the identity right-hand side's structure twice: column `j`
    /// of `L^{-1}` is zero above row `j`, so each [`BLOCK`]-wide column
    /// block is solved against the *trailing* submatrix `L[j0.., j0..]`
    /// only, and inside a block the multi-RHS kernels start each column
    /// tile at its first nonzero row (`solve_lower_unit_cols`). About
    /// `n^3/6` multiply-adds in total, against `n^3/2` for a dense forward
    /// solve of the full identity — with every remaining operation, fused
    /// or not, exactly where the per-block identity solve through
    /// [`solve_lower_rhs_rows`] puts it, so the result is bit-identical.
    ///
    /// # Errors
    /// [`LinalgError::Singular`] if a diagonal entry is zero.
    pub fn factor_inverse(&self) -> Result<Matrix, LinalgError> {
        let n = self.order();
        if let Some(index) = (0..n).find(|&i| self.l[(i, i)] == 0.0) {
            return Err(LinalgError::Singular { index });
        }
        let mut inv = Matrix::zeros(n, n);
        let mut j0 = 0;
        while j0 < n {
            let nb = BLOCK.min(n - j0);
            let m = n - j0;
            let sol = if j0 == 0 {
                solve_lower_unit_cols(&self.l, nb)
            } else {
                // Trailing submatrix L[j0.., j0..] (lower triangle only).
                let mut lsub = Matrix::zeros(m, m);
                for i in 0..m {
                    lsub.row_mut(i)[..=i].copy_from_slice(&self.l.row(j0 + i)[j0..=j0 + i]);
                }
                solve_lower_unit_cols(&lsub, nb)
            };
            // Row i of `sol` is row j0+i of L^{-1}, columns j0..j0+nb; its
            // entries past column i are exactly zero.
            for (i, src) in sol.chunks_exact(nb).enumerate() {
                let w = nb.min(i + 1);
                inv.row_mut(j0 + i)[j0..j0 + w].copy_from_slice(&src[..w]);
            }
            j0 += nb;
        }
        Ok(inv)
    }

    /// Lower triangle of `A^{-1}` (strict upper left zero): the product
    /// `L^{-T} L^{-1}` over [`Self::factor_inverse`], formed in place two
    /// rows at a time.
    ///
    /// `A^{-1}` is symmetric, so this is the whole inverse for consumers
    /// that read one triangle — the LML gradient's weight matrix
    /// `W = alpha alpha^T - K_y^{-1}` is contracted against symmetric
    /// `dK/dtheta` terms and only ever touches `i >= j` (see
    /// `alperf-gp::lml`). Entry `(i, j)`, `i >= j`, is
    /// `sum_{k >= i} (L^{-1})_{ki} (L^{-1})_{kj}`, summed from `0.0` in
    /// ascending `k` with separate multiply and add; only the structural
    /// zeros `k < i` are skipped. That is about `n^3/6` multiply-adds, on
    /// top of the inverse's `n^3/6`. Row `i` reads rows `k >= i` only, so
    /// once it is summed it overwrites row `i` of `L^{-1}` in place.
    ///
    /// # Errors
    /// [`LinalgError::Singular`] if a diagonal entry is zero.
    pub fn inverse_lower(&self) -> Result<Matrix, LinalgError> {
        let n = self.order();
        const TILE: usize = 8;
        let mut w = self.factor_inverse()?;
        let mut out = vec![0.0; 2 * n];
        let mut i = 0;
        while i < n {
            // Rows i and i + 1 are summed together so that they share every
            // load of a row k > i; row i takes its k = i term first. Columns
            // go in register tiles of TILE; a tile may run past a row's last
            // column (those sums are discarded) but not past column n - 1.
            let last = (i + 1).min(n - 1);
            let (o0, o1) = out.split_at_mut(n);
            let mut j0 = 0;
            while last > i && j0 <= last && j0 + TILE <= n {
                let (mut a0, mut a1) = ([0.0; TILE], [0.0; TILE]);
                let row = w.row(i);
                for (s, &b) in a0.iter_mut().zip(&row[j0..j0 + TILE]) {
                    *s += row[i] * b;
                }
                for k in last..n {
                    let row = w.row(k);
                    let (c0, c1) = (row[i], row[last]);
                    for ((s0, s1), &b) in a0.iter_mut().zip(&mut a1).zip(&row[j0..j0 + TILE]) {
                        *s0 += c0 * b;
                        *s1 += c1 * b;
                    }
                }
                o0[j0..j0 + TILE].copy_from_slice(&a0);
                o1[j0..j0 + TILE].copy_from_slice(&a1);
                j0 += TILE;
            }
            // Columns no tile covered, one sum at a time; a finished row
            // replaces its row of L^{-1}, which no later sum reads.
            for (r, o) in [(i, o0), (last, o1)].into_iter().take(last + 1 - i) {
                for (j, v) in o.iter_mut().enumerate().take(r + 1).skip(j0) {
                    *v = (r..n).fold(0.0, |s, k| s + w[(k, r)] * w[(k, j)]);
                }
                w.row_mut(r)[..=r].copy_from_slice(&o[..=r]);
            }
            i = last + 1;
        }
        Ok(w)
    }

    /// `log det A = 2 * sum_i log L_ii` — the complexity-penalty term of the
    /// log marginal likelihood (Eq. 12 of the paper).
    pub fn log_det(&self) -> f64 {
        2.0 * (0..self.l.nrows())
            .map(|i| self.l[(i, i)].ln())
            .sum::<f64>()
    }

    /// Extend the factorization by one row/column in `O(n^2)`: given the
    /// factor of `A`, produce the factor of
    /// `[[A, a], [a^T, alpha]]` where `a` is the new off-diagonal column
    /// and `alpha` the new diagonal entry.
    ///
    /// This is the engine of incremental GPR updates: adding one training
    /// point extends `K_y` exactly this way, so the AL loop can recondition
    /// in `O(n^2)` instead of refactoring in `O(n^3)`.
    ///
    /// # Errors
    /// [`LinalgError::NotPositiveDefinite`] if the extended matrix is not
    /// PD (`alpha - ||L^{-1} a||^2 <= 0`);
    /// [`LinalgError::DimensionMismatch`] if `a.len() != order()`.
    pub fn extend(&self, a: &[f64], alpha: f64) -> Result<Cholesky, LinalgError> {
        let n = self.order();
        if a.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky_extend",
                details: format!("column has {} entries, factor order is {n}", a.len()),
            });
        }
        let z = solve_lower(&self.l, a)?;
        let d2 = alpha - crate::vector::dot(&z, &z);
        if d2 <= 0.0 || !d2.is_finite() {
            return Err(LinalgError::NotPositiveDefinite {
                pivot: n,
                value: d2,
            });
        }
        let mut l = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            for j in 0..=i {
                l[(i, j)] = self.l[(i, j)];
            }
        }
        for (j, zj) in z.iter().enumerate() {
            l[(n, j)] = *zj;
        }
        l[(n, n)] = d2.sqrt();
        Ok(Cholesky {
            l,
            jitter: self.jitter,
        })
    }

    /// Reconstruct `A = L L^T` (testing / diagnostics).
    pub fn reconstruct(&self) -> Matrix {
        let lt = self.l.transpose();
        self.l.matmul(&lt).expect("square factor")
    }

    /// Rough 2-norm condition estimate from the extreme diagonal entries of
    /// `L`: `cond(A) ~ (max L_ii / min L_ii)^2`. Cheap and adequate for
    /// deciding when to warn about ill-conditioned covariance matrices.
    pub fn condition_estimate(&self) -> f64 {
        let n = self.order();
        if n == 0 {
            return 1.0;
        }
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for i in 0..n {
            let d = self.l[(i, i)];
            lo = lo.min(d);
            hi = hi.max(d);
        }
        (hi / lo).powi(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = B B^T + I for B random-ish => SPD.
        Matrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.0], &[0.6, 1.0, 3.0]]).unwrap()
    }

    /// Deterministic well-conditioned SPD matrix: `B B^T / n + I`.
    fn well_conditioned_spd(n: usize) -> Matrix {
        let mut s = 0x9e3779b97f4a7c15u64 ^ n as u64;
        let data: Vec<f64> = (0..n * n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 53) as f64 - 1.0
            })
            .collect();
        let b = Matrix::from_vec(n, n, data).unwrap();
        let mut a = b.matmul(&b.transpose()).unwrap();
        let inv_n = 1.0 / n as f64;
        for v in a.as_mut_slice() {
            *v *= inv_n;
        }
        a.add_diagonal(1.0);
        a
    }

    #[test]
    fn decompose_reconstructs() {
        let a = spd3();
        let c = Cholesky::decompose(&a).unwrap();
        assert!(c.reconstruct().max_abs_diff(&a) < 1e-12);
        assert_eq!(c.jitter(), 0.0);
    }

    #[test]
    fn known_2x2_factor() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 5.0]]).unwrap();
        let c = Cholesky::decompose(&a).unwrap();
        let l = c.factor();
        assert!((l[(0, 0)] - 2.0).abs() < 1e-15);
        assert!((l[(1, 0)] - 1.0).abs() < 1e-15);
        assert!((l[(1, 1)] - 2.0).abs() < 1e-15);
        assert_eq!(l[(0, 1)], 0.0);
    }

    #[test]
    fn solve_matches_direct() {
        let a = spd3();
        let c = Cholesky::decompose(&a).unwrap();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let x = c.solve(&b).unwrap();
        for (xi, e) in x.iter().zip(&x_true) {
            assert!((xi - e).abs() < 1e-12);
        }
    }

    #[test]
    fn log_det_matches_known() {
        // det of diag(2, 3, 4) = 24.
        let a = Matrix::from_rows(&[&[2.0, 0.0, 0.0], &[0.0, 3.0, 0.0], &[0.0, 0.0, 4.0]]).unwrap();
        let c = Cholesky::decompose(&a).unwrap();
        assert!((c.log_det() - 24f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn solve_against_identity_yields_inverse() {
        // The deprecated `inverse()` convenience is gone; consumers that do
        // want a full inverse spell out the identity solve, which is what
        // this exercises.
        let a = spd3();
        let c = Cholesky::decompose(&a).unwrap();
        let inv = c.solve_matrix(&Matrix::identity(3)).unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.max_abs_diff(&Matrix::identity(3)) < 1e-12);
    }

    #[test]
    fn factor_inverse_inverts_the_factor() {
        // Sizes on both sides of the column-block width.
        for n in [1usize, 3, 40, 64, 70, 130] {
            let a = well_conditioned_spd(n);
            let c = Cholesky::decompose(&a).unwrap();
            let linv = c.factor_inverse().unwrap();
            let prod = c.factor().matmul(&linv).unwrap();
            let diff = prod.max_abs_diff(&Matrix::identity(n));
            assert!(diff < 1e-10, "n={n}: L * L^-1 differs from I by {diff}");
            // Strict upper triangle is structurally zero.
            for i in 0..n {
                for j in i + 1..n {
                    assert_eq!(linv[(i, j)], 0.0);
                }
            }
        }
    }

    #[test]
    fn inverse_lower_matches_full_inverse() {
        for n in [1usize, 3, 40, 64, 70, 130] {
            let a = well_conditioned_spd(n);
            let c = Cholesky::decompose(&a).unwrap();
            let wl = c.inverse_lower().unwrap();
            let full = c.solve_matrix(&Matrix::identity(n)).unwrap();
            for i in 0..n {
                for j in 0..n {
                    if j <= i {
                        let d = (wl[(i, j)] - full[(i, j)]).abs();
                        assert!(d < 1e-10, "n={n} ({i},{j}): {d}");
                    } else {
                        assert_eq!(wl[(i, j)], 0.0, "strict upper must stay zero");
                    }
                }
            }
        }
    }

    #[test]
    fn not_pd_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap(); // eigenvalues 3, -1
        match Cholesky::decompose(&a) {
            Err(LinalgError::NotPositiveDefinite { .. }) => {}
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn jitter_rescues_semidefinite() {
        // Rank-1 matrix: PSD but not PD.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        assert!(Cholesky::decompose(&a).is_err());
        let c = Cholesky::decompose_jittered(&a, 1e-10, 12).unwrap();
        assert!(c.jitter() > 0.0);
        // Reconstruction should be close to A (within the jitter magnitude).
        assert!(c.reconstruct().max_abs_diff(&a) < 1e-3);
    }

    #[test]
    fn jitter_gives_up_eventually() {
        let a = Matrix::from_rows(&[&[-1.0, 0.0], &[0.0, -1.0]]).unwrap();
        assert!(Cholesky::decompose_jittered(&a, 1e-10, 3).is_err());
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::decompose(&a),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn non_finite_rejected() {
        let mut a = Matrix::identity(2);
        a[(0, 0)] = f64::NAN;
        assert!(matches!(
            Cholesky::decompose(&a),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn empty_matrix_ok() {
        let a = Matrix::zeros(0, 0);
        let c = Cholesky::decompose(&a).unwrap();
        assert_eq!(c.order(), 0);
        assert_eq!(c.log_det(), 0.0);
    }

    #[test]
    fn condition_estimate_identity_is_one() {
        let c = Cholesky::decompose(&Matrix::identity(4)).unwrap();
        assert!((c.condition_estimate() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn condition_estimate_grows_with_spread() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1e6]]).unwrap();
        let c = Cholesky::decompose(&a).unwrap();
        assert!((c.condition_estimate() - 1e6).abs() / 1e6 < 1e-9);
    }

    #[test]
    fn extend_matches_full_factorization() {
        // Factor the 2x2 leading block of spd3, extend by the third
        // row/column, and compare against factoring the full matrix.
        let a = spd3();
        let lead = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 5.0]]).unwrap();
        let c2 = Cholesky::decompose(&lead).unwrap();
        let c3 = c2.extend(&[0.6, 1.0], 3.0).unwrap();
        let full = Cholesky::decompose(&a).unwrap();
        assert!(c3.factor().max_abs_diff(full.factor()) < 1e-12);
        assert!((c3.log_det() - full.log_det()).abs() < 1e-12);
        // Solves agree too.
        let rhs = vec![1.0, -0.5, 2.0];
        let x1 = c3.solve(&rhs).unwrap();
        let x2 = full.solve(&rhs).unwrap();
        for (a, b) in x1.iter().zip(&x2) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn extend_detects_indefinite_extension() {
        let lead = Matrix::from_rows(&[&[1.0]]).unwrap();
        let c = Cholesky::decompose(&lead).unwrap();
        // [[1, 2], [2, 1]] has eigenvalues 3 and -1.
        assert!(matches!(
            c.extend(&[2.0], 1.0),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        assert!(matches!(
            c.extend(&[1.0, 2.0], 5.0),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn extend_from_empty_builds_scalar_factor() {
        let empty = Cholesky::decompose(&Matrix::zeros(0, 0)).unwrap();
        let one = empty.extend(&[], 9.0).unwrap();
        assert_eq!(one.order(), 1);
        assert!((one.factor()[(0, 0)] - 3.0).abs() < 1e-15);
    }

    #[test]
    fn repeated_extension_builds_full_factor() {
        let a = spd3();
        let mut c = Cholesky::decompose(&Matrix::zeros(0, 0)).unwrap();
        for k in 0..3 {
            let col: Vec<f64> = (0..k).map(|j| a[(k, j)]).collect();
            c = c.extend(&col, a[(k, k)]).unwrap();
        }
        let full = Cholesky::decompose(&a).unwrap();
        assert!(c.factor().max_abs_diff(full.factor()) < 1e-12);
    }

    #[test]
    fn solve_forward_norm_is_variance_term() {
        // For A = L L^T and k, ||L^{-1} k||^2 == k^T A^{-1} k.
        let a = spd3();
        let c = Cholesky::decompose(&a).unwrap();
        let k = vec![0.3, -1.2, 0.9];
        let z = c.solve_forward(&k).unwrap();
        let quad: f64 = crate::vector::dot(&k, &c.solve(&k).unwrap());
        let nz: f64 = crate::vector::dot(&z, &z);
        assert!((quad - nz).abs() < 1e-12);
    }
}
