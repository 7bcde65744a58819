//! (Preconditioned) conjugate gradients.
//!
//! One kernel, `cg_solve_panel`, runs `W` independent PCG recurrences
//! in lockstep; the single-vector [`cg_solve`] is its `W = 1` instance.

use crate::error::LinalgError;
use crate::solve::precond::Preconditioner;
use crate::sparse::CsrMatrix;
use crate::Result;
use cad_obs::{Counter, Hist};

/// Abstract symmetric linear operator `y = A x`, as consumed by the
/// Lanczos eigensolver ([`crate::eig`]).
pub trait LinOp {
    /// Operator dimension (square).
    fn dim(&self) -> usize;
    /// `y ← A x`; `x` and `y` have length [`LinOp::dim`].
    fn apply(&self, x: &[f64], y: &mut [f64]);
}

impl LinOp for CsrMatrix {
    fn dim(&self) -> usize {
        self.nrows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.matvec_into(x, y)
            .expect("CsrMatrix::apply shape checked by caller");
    }
}

/// Options for [`cg_solve`].
#[derive(Debug, Clone, Copy)]
pub struct CgOptions {
    /// Relative residual target: stop when `‖r‖₂ ≤ tol·‖b‖₂`.
    pub tol: f64,
    /// Iteration cap; `None` defaults to `10·n + 100`.
    pub max_iter: Option<usize>,
    /// Per-iteration residual trace cap: keep the **last** this many
    /// relative residuals in [`CgOutcome::residual_trace`]. `0` (the
    /// default) disables tracing; the solve path is unchanged either
    /// way — the trace observes `‖r‖/‖b‖` values CG computes anyway.
    pub residual_trace_cap: usize,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            tol: 1e-8,
            max_iter: None,
            residual_trace_cap: 0,
        }
    }
}

/// Bounded ring keeping the newest `cap` residuals in push order.
struct ResidualRing {
    cap: usize,
    buf: Vec<f64>,
    next: usize,
}

impl ResidualRing {
    fn new(cap: usize) -> ResidualRing {
        ResidualRing {
            cap,
            buf: Vec::with_capacity(cap.min(256)),
            next: 0,
        }
    }

    fn push(&mut self, v: f64) {
        if self.cap == 0 {
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push(v);
        } else {
            self.buf[self.next] = v;
            self.next = (self.next + 1) % self.cap;
        }
    }

    /// The retained residuals, oldest first.
    fn into_chronological(mut self) -> Vec<f64> {
        self.buf.rotate_left(self.next);
        self.buf
    }
}

/// Outcome of a CG solve.
#[derive(Debug, Clone)]
pub struct CgOutcome {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual `‖b − A x‖ / ‖b‖`.
    pub relative_residual: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// The last [`CgOptions::residual_trace_cap`] per-iteration relative
    /// residuals, oldest first (empty when tracing is off).
    pub residual_trace: Vec<f64>,
}

impl CgOutcome {
    /// The convergence record, detached from the solution vector.
    pub fn stats(&self) -> cad_obs::SolveStats {
        cad_obs::SolveStats {
            iterations: self.iterations,
            relative_residual: self.relative_residual,
            converged: self.converged,
            residual_trace: self.residual_trace.clone(),
        }
    }
}

/// Preconditioned conjugate gradients for SPD `A x = b`, starting at 0.
///
/// Does not error on non-convergence: the outcome reports the achieved
/// residual and callers decide (the commute-time embedding tolerates a
/// slightly loose solve; unit tests assert convergence explicitly).
pub fn cg_solve(
    a: &CsrMatrix,
    b: &[f64],
    pre: &dyn Preconditioner,
    opts: CgOptions,
) -> Result<CgOutcome> {
    let (x, mut stats) = cg_solve_panel::<1>(a, b.to_vec(), 1, pre, opts)?;
    let s = stats.pop().expect("one lane solved");
    Ok(CgOutcome {
        x,
        iterations: s.iterations,
        relative_residual: s.relative_residual,
        converged: s.converged,
        residual_trace: s.residual_trace,
    })
}

/// Lockstep PCG on a panel of `W` right-hand sides.
///
/// `b` is a row-major `n × W` panel whose column `j` is the right-hand
/// side of lane `j`; it is consumed as the residual. Every lane starts
/// from the zero vector. Lanes `lanes..W` are padding:
/// they are not solved or reported, and their output columns are
/// unspecified. Returns the solution panel and one
/// [`cad_obs::SolveStats`] per solved lane, in lane order.
///
/// Every lane runs the single-vector recurrence with its own α, β and
/// stop test, and the same arithmetic order: the SpMM accumulates each
/// row sequentially per lane, and dot products sum rows sequentially
/// from the seed `Iterator::sum` folds from. Column `j` of the result
/// and its record are therefore bit-identical to a one-column solve of
/// column `j` ([`cg_solve`] is the `W = 1` instance). The lanes share
/// one pass over `A` per iteration. A lane that stops is frozen: its `x`
/// column is no longer written and its α and β become 0, while the rest
/// of its arithmetic runs on values nobody reads, which keeps the inner
/// loops free of per-lane control flow.
///
/// Telemetry matches `lanes` one-column solves exactly: one
/// `linalg.spmv` per lane per operator application, and one
/// `linalg.cg_solves`, `linalg.cg_iterations` and histogram record per
/// lane.
pub(crate) fn cg_solve_panel<const W: usize>(
    a: &CsrMatrix,
    b: Vec<f64>,
    lanes: usize,
    pre: &dyn Preconditioner,
    opts: CgOptions,
) -> Result<(Vec<f64>, Vec<cad_obs::SolveStats>)> {
    const { assert!(W > 0, "a panel holds at least one lane") };
    let n = a.nrows();
    if a.ncols() != n {
        return Err(LinalgError::NotSquare {
            rows: n,
            cols: a.ncols(),
        });
    }
    if b.len() != n * W {
        return Err(LinalgError::DimensionMismatch {
            op: "cg_solve_panel",
            expected: (n, W),
            found: (b.len() / W, W),
        });
    }
    if lanes > W {
        return Err(LinalgError::InvalidInput(format!(
            "{lanes} lanes do not fit a panel of width {W}"
        )));
    }
    let solved: [bool; W] = std::array::from_fn(|j| j < lanes);
    let mut r = b;
    let bnorm = norms::<W>(&r);
    // A is SPD on the solve subspace, so b = 0 has the unique solution 0
    // and is answered without iterating.
    let zero = bnorm.map(|v| v == 0.0);
    let max_iter = opts.max_iter.unwrap_or(10 * n + 100);
    let target = bnorm.map(|v| opts.tol * v);

    // `zq` holds z = M⁻¹ r, then q = A p once z is folded into p.
    let mut zq = vec![0.0; n * W];
    let mut x = vec![0.0; n * W];
    let mut rnorm = bnorm;
    let mut active: [bool; W] =
        std::array::from_fn(|j| solved[j] && !zero[j] && max_iter > 0 && rnorm[j] > target[j]);
    let mut iterations = [0usize; W];
    let mut traces: [ResidualRing; W] =
        std::array::from_fn(|_| ResidualRing::new(opts.residual_trace_cap));

    pre.apply_panel(&r, &mut zq, W);
    let mut p = zq.clone();
    let mut rz = dots::<W>(&r, &zq);
    let mut step = 0;
    while active.contains(&true) {
        spmm::<W>(a, &p, &mut zq);
        count_spmv(&active);
        let pap = dots::<W>(&p, &zq);
        let mut alpha = [0.0; W];
        for j in 0..W {
            if !active[j] {
                continue;
            }
            if pap[j] <= 0.0 || !pap[j].is_finite() {
                // Operator not SPD along p (e.g. singular Laplacian
                // drift); stop this lane with its current best iterate.
                active[j] = false;
            } else {
                alpha[j] = rz[j] / pap[j];
            }
        }
        for ((xr, pr), (rr, qr)) in x
            .chunks_exact_mut(W)
            .zip(p.chunks_exact(W))
            .zip(r.chunks_exact_mut(W).zip(zq.chunks_exact(W)))
        {
            for j in 0..W {
                let xj = xr[j] + alpha[j] * pr[j];
                xr[j] = if active[j] { xj } else { xr[j] };
                rr[j] += -alpha[j] * qr[j];
            }
        }
        let rn = norms::<W>(&r);
        step += 1;
        for j in 0..W {
            if active[j] {
                rnorm[j] = rn[j];
                iterations[j] = step;
                traces[j].push(rn[j] / bnorm[j]);
                active[j] = rn[j] > target[j] && step < max_iter;
            }
        }
        if !active.contains(&true) {
            break;
        }
        pre.apply_panel(&r, &mut zq, W);
        let rz_new = dots::<W>(&r, &zq);
        let beta: [f64; W] =
            std::array::from_fn(|j| if active[j] { rz_new[j] / rz[j] } else { 0.0 });
        rz = rz_new;
        for (pr, zr) in p.chunks_exact_mut(W).zip(zq.chunks_exact(W)) {
            for j in 0..W {
                pr[j] = zr[j] + beta[j] * pr[j];
            }
        }
    }

    let mut stats = Vec::with_capacity(lanes);
    for (j, trace) in traces.into_iter().enumerate().take(lanes) {
        cad_obs::count(Counter::CgSolves, 1);
        if zero[j] {
            for xr in x.chunks_exact_mut(W) {
                xr[j] = 0.0;
            }
            cad_obs::observe(Hist::CgIterations, 0.0);
            cad_obs::observe(Hist::CgResiduals, 0.0);
            stats.push(cad_obs::SolveStats {
                iterations: 0,
                relative_residual: 0.0,
                converged: true,
                residual_trace: Vec::new(),
            });
            continue;
        }
        let relative_residual = rnorm[j] / bnorm[j];
        cad_obs::count(Counter::CgIterations, iterations[j] as u64);
        cad_obs::observe(Hist::CgIterations, iterations[j] as f64);
        cad_obs::observe(Hist::CgResiduals, relative_residual);
        stats.push(cad_obs::SolveStats {
            iterations: iterations[j],
            relative_residual,
            converged: rnorm[j] <= target[j],
            residual_trace: trace.into_chronological(),
        });
    }
    Ok((x, stats))
}

/// One `linalg.spmv` per lane that took part in an operator application.
fn count_spmv(lanes: &[bool]) {
    cad_obs::count(Counter::Spmv, lanes.iter().filter(|&&on| on).count() as u64);
}

/// The value `Iterator::sum` folds from (`-0.0` on current toolchains,
/// which differs from `+0.0` for an all-`-0.0` sum). Every dot product
/// below starts here and adds rows in order, so each is bit-identical
/// to [`crate::dense::vecops::dot`] of the same columns.
fn sum_seed() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// `y ← A x` for row-major `n × W` panels: one pass over `A` for all
/// lanes, each row accumulated from 0.0 in stored order like
/// [`CsrMatrix::matvec_into`], so column `j` of `y` is bit-identical to
/// `A` times column `j` of `x`.
fn spmm<const W: usize>(a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
    for (i, yr) in y.chunks_exact_mut(W).enumerate() {
        let (cols, vals) = a.row(i);
        let mut acc = [0.0; W];
        for (&c, &v) in cols.iter().zip(vals) {
            let xc = &x[c as usize * W..][..W];
            for j in 0..W {
                acc[j] += v * xc[j];
            }
        }
        yr.copy_from_slice(&acc);
    }
}

/// Per-column dot products of two row-major `n × W` panels.
fn dots<const W: usize>(x: &[f64], y: &[f64]) -> [f64; W] {
    let mut acc = [sum_seed(); W];
    for (xr, yr) in x.chunks_exact(W).zip(y.chunks_exact(W)) {
        for j in 0..W {
            acc[j] += xr[j] * yr[j];
        }
    }
    acc
}

/// Per-column Euclidean norms.
fn norms<const W: usize>(x: &[f64]) -> [f64; W] {
    dots::<W>(x, x).map(f64::sqrt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::precond::{IdentityPreconditioner, JacobiPreconditioner};

    fn spd() -> CsrMatrix {
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 4.0),
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 1, 3.0),
                (1, 2, -1.0),
                (2, 1, -1.0),
                (2, 2, 2.0),
            ],
        )
    }

    #[test]
    fn solves_spd_system() {
        let a = spd();
        let b = vec![1.0, 2.0, 3.0];
        let out = cg_solve(&a, &b, &IdentityPreconditioner, CgOptions::default()).unwrap();
        assert!(out.converged, "residual {}", out.relative_residual);
        let ax = a.matvec(&out.x).unwrap();
        for (l, r) in ax.iter().zip(&b) {
            assert!((l - r).abs() < 1e-6);
        }
    }

    #[test]
    fn jacobi_preconditioner_converges_no_slower() {
        let a = spd();
        let b = vec![1.0, -1.0, 0.5];
        let plain = cg_solve(&a, &b, &IdentityPreconditioner, CgOptions::default()).unwrap();
        let pre = JacobiPreconditioner::from_diagonal(&a.diagonal()).unwrap();
        let jac = cg_solve(&a, &b, &pre, CgOptions::default()).unwrap();
        assert!(jac.converged);
        assert!(jac.iterations <= plain.iterations + 1);
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = spd();
        let out = cg_solve(&a, &[0.0; 3], &IdentityPreconditioner, CgOptions::default()).unwrap();
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.x, vec![0.0; 3]);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = spd();
        assert!(cg_solve(&a, &[1.0], &IdentityPreconditioner, CgOptions::default()).is_err());
    }

    #[test]
    fn exact_in_n_iterations() {
        // CG on an n-dimensional SPD system converges in ≤ n iterations
        // in exact arithmetic; allow a little slack.
        let a = spd();
        let b = vec![1.0, 0.0, 0.0];
        let out = cg_solve(
            &a,
            &b,
            &IdentityPreconditioner,
            CgOptions {
                tol: 1e-12,
                max_iter: Some(5),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(out.converged);
        assert!(out.iterations <= 4);
    }

    #[test]
    fn residual_trace_records_monotone_tail_without_perturbing_solve() {
        let a = spd();
        let b = vec![1.0, 2.0, 3.0];
        let plain = cg_solve(&a, &b, &IdentityPreconditioner, CgOptions::default()).unwrap();
        let traced = cg_solve(
            &a,
            &b,
            &IdentityPreconditioner,
            CgOptions {
                residual_trace_cap: 16,
                ..CgOptions::default()
            },
        )
        .unwrap();
        // Tracing is observational: bit-identical solution and counts.
        assert_eq!(traced.iterations, plain.iterations);
        for (t, p) in traced.x.iter().zip(&plain.x) {
            assert_eq!(t.to_bits(), p.to_bits());
        }
        assert!(plain.residual_trace.is_empty());
        assert_eq!(traced.residual_trace.len(), traced.iterations);
        assert_eq!(traced.stats().residual_trace, traced.residual_trace);
        // The last trace entry is exactly the reported final residual.
        assert_eq!(
            traced.residual_trace.last().unwrap().to_bits(),
            traced.relative_residual.to_bits()
        );
    }

    #[test]
    fn residual_trace_keeps_only_the_newest_entries() {
        let a = spd();
        let b = vec![1.0, -2.0, 0.5];
        let full = cg_solve(
            &a,
            &b,
            &IdentityPreconditioner,
            CgOptions {
                tol: 1e-12,
                residual_trace_cap: 64,
                ..CgOptions::default()
            },
        )
        .unwrap();
        assert!(full.iterations >= 2, "need a few iterations to truncate");
        let capped = cg_solve(
            &a,
            &b,
            &IdentityPreconditioner,
            CgOptions {
                tol: 1e-12,
                residual_trace_cap: 2,
                ..CgOptions::default()
            },
        )
        .unwrap();
        assert_eq!(capped.residual_trace.len(), 2);
        // The capped ring holds the chronological tail of the full trace.
        let tail = &full.residual_trace[full.residual_trace.len() - 2..];
        assert_eq!(capped.residual_trace, tail);
    }

    #[test]
    fn iteration_cap_respected() {
        let a = spd();
        let b = vec![1.0, 2.0, 3.0];
        let out = cg_solve(
            &a,
            &b,
            &IdentityPreconditioner,
            CgOptions {
                tol: 1e-15,
                max_iter: Some(1),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(out.iterations <= 1);
    }
}
