//! Deterministic thick-restart Lanczos on the Wilson normal operator.
//!
//! Computes the `nev` lowest eigenpairs of `M†M` — the low modes whose
//! removal accelerates every subsequent solve at the same mass. `M†M` is
//! Hermitian positive-definite (γ₅-Hermiticity: `M† = γ₅ M γ₅`, so
//! `M†M = (γ₅M)²` with `γ₅M` Hermitian), so a symmetric Lanczos process
//! applies and all Ritz values are real and positive.
//!
//! # Algorithm
//!
//! A restarted Rayleigh–Ritz iteration with **full reorthogonalization**:
//! each cycle extends the basis to `m` vectors, orthogonalizing every new
//! `A v_j` against the whole basis with two modified-Gram–Schmidt passes
//! (classic "twice is enough"). The projected matrix is assembled from the
//! Gram–Schmidt coefficients themselves — for column `j` the accumulated
//! coefficient against `v_i` *is* `⟨v_i, A v_j⟩` — so it stays a faithful
//! Rayleigh quotient even when rounding breaks three-term-recurrence
//! orthogonality. At the end of a cycle the projected matrix is
//! eigen-decomposed (deterministic cyclic Jacobi, [`crate::dense`]), Ritz
//! residuals are estimated from the bottom row of the rotation
//! (`‖A(Vy) − θ(Vy)‖ = β_m |y_{m-1}|`), and the basis is
//! **thick-restarted**: the lowest `k > nev` Ritz vectors plus the final
//! residual direction seed the next cycle, whose arrowhead coupling column
//! re-emerges from the Gram–Schmidt coefficients without explicit seeding.
//!
//! # Determinism
//!
//! Acceptance requires eigenpairs bit-identical across SVE vector lengths
//! and thread counts. Every scalar that steers the iteration — inner
//! products, norms, the projected matrix — is produced by the reductions of
//! [`grid::Field`] (per-site values summed in global lexicographic order by
//! a fixed tree), which are layout- and thread-invariant. The pointwise
//! field updates and the per-site operator are vector-length-invariant
//! already, and the dense eigensolve is fixed-order scalar arithmetic, so
//! the whole trajectory — restart decisions included — reproduces to the
//! last bit.
//!
//! # Memory
//!
//! All field storage is allocated once up front — the `m + 1` basis slots,
//! the `k` restart-scratch slots, the operator intermediate, and the
//! candidate vector — and reused across every column and every restart:
//! the steady state of a cycle performs no heap allocation beyond the dense
//! `m × m` eigensolve.

use crate::dense::jacobi_eigh;
use grid::dirac::{Dirac, WilsonDirac};
use grid::field::FermionKind;
use grid::{Complex, Field};
use sve::SveFloat;

/// Tuning knobs of the eigensolver.
#[derive(Clone, Debug)]
pub struct LanczosParams {
    /// Number of eigenpairs wanted (lowest end of the spectrum).
    pub nev: usize,
    /// Basis size per restart cycle (`> nev + 1`; larger converges in
    /// fewer restarts at the cost of more reorthogonalization work and
    /// storage).
    pub m: usize,
    /// Convergence target on the explicit residual `‖M†M v − θ v‖` of each
    /// wanted eigenpair (eigenvectors are unit-normalized).
    pub tol: f64,
    /// Restart budget; the solver stops early once all `nev` pairs pass
    /// `tol`.
    pub max_restarts: usize,
}

impl LanczosParams {
    /// Reasonable defaults for `nev` wanted pairs: basis `2·nev + 8`,
    /// residual target `1e-8`, up to 40 restarts.
    pub fn for_nev(nev: usize) -> Self {
        LanczosParams {
            nev,
            m: 2 * nev + 8,
            tol: 1e-8,
            max_restarts: 40,
        }
    }
}

/// A converged low-mode subspace of `M†M`: the deflation operand.
pub struct Subspace<E: SveFloat = f64> {
    /// Ritz vectors, unit-normalized, eigenvalue-ascending.
    pub vectors: Vec<Field<FermionKind, E>>,
    /// Ritz values `θ_i` (real and positive).
    pub values: Vec<f64>,
    /// Explicit residuals `‖M†M v_i − θ_i v_i‖`, validated after the final
    /// restart — not the cheap bottom-row estimates.
    pub residuals: Vec<f64>,
    /// Bare mass of the Wilson operator the subspace was built at. A
    /// subspace deflates `M†M(mass)` and nothing else; the solvers and the
    /// persistence layer enforce the match bit-exactly.
    pub mass: f64,
}

impl<E: SveFloat> Subspace<E> {
    /// Number of eigenpairs held.
    pub fn nev(&self) -> usize {
        self.values.len()
    }
}

/// What the eigensolver did, for benchmarks and health surfaces.
#[derive(Clone, Debug)]
pub struct EigenReport {
    /// Restart cycles consumed (0 = converged within the first cycle).
    pub restarts: usize,
    /// Operator applications (`M†M` products) performed.
    pub mvps: usize,
    /// Whether every wanted pair passed the explicit residual check.
    pub converged: bool,
    /// Profile of the whole eigensolve (wall time, SVE instruction delta).
    pub telemetry: qcd_trace::RegionSummary,
}

/// Normalize `f` by its norm; returns the norm.
fn normalize<E: SveFloat>(f: &mut Field<FermionKind, E>) -> f64 {
    let n = f.norm2().sqrt();
    assert!(n > 0.0, "cannot normalize a zero vector");
    f.scale(1.0 / n);
    n
}

/// Two-pass modified Gram–Schmidt of `w` against `basis[..n]`, returning
/// the accumulated (both passes) coefficient against each basis vector.
/// All inner products are canonical.
fn reorthogonalize<E: SveFloat>(
    w: &mut Field<FermionKind, E>,
    basis: &[Field<FermionKind, E>],
    n: usize,
) -> Vec<Complex> {
    let mut coef = vec![Complex::ZERO; n];
    for _pass in 0..2 {
        for (i, c) in coef.iter_mut().enumerate() {
            let h = basis[i].inner(w);
            w.axpy_complex(-h, &basis[i]);
            *c += h;
        }
    }
    coef
}

/// Compute the `nev` lowest eigenpairs of `M†M` for `op`, starting the
/// Krylov process from a seeded deterministic random vector.
///
/// Runs under an `eig.lanczos` trace span; restart count and operator
/// applications land in the `eig.lanczos.restarts` / `eig.lanczos.mvps`
/// histograms.
pub fn lanczos<E: SveFloat>(
    op: &WilsonDirac<E>,
    params: &LanczosParams,
    seed: u64,
) -> (Subspace<E>, EigenReport) {
    let grid = op.grid().clone();
    let span = qcd_trace::span!("eig.lanczos", grid.engine().ctx());
    let (nev, m) = (params.nev, params.m);
    assert!(nev >= 1, "need at least one wanted eigenpair");
    assert!(
        m > nev + 1,
        "basis size must exceed nev + 1 (got m={m}, nev={nev})"
    );
    let keep = (nev + 4).clamp(nev, m - 2);

    // The preallocated pools (see module docs): basis slots 0..=m, restart
    // scratch, operator intermediate, candidate vector.
    let mut basis: Vec<Field<FermionKind, E>> = (0..=m)
        .map(|_| Field::<FermionKind, E>::zero(grid.clone()))
        .collect();
    let mut scratch: Vec<Field<FermionKind, E>> = (0..keep)
        .map(|_| Field::<FermionKind, E>::zero(grid.clone()))
        .collect();
    let mut tmp = Field::<FermionKind, E>::zero(grid.clone());
    let mut w = Field::<FermionKind, E>::zero(grid.clone());

    basis[0] = Field::<FermionKind, E>::random(grid.clone(), seed);
    normalize(&mut basis[0]);

    // Projected matrix (row-major m×m, kept exactly symmetric).
    let mut h = vec![0.0f64; m * m];
    let mut filled = 0usize; // columns of `h` already final this cycle
    let mut mvps = 0usize;
    let mut restarts = 0usize;
    let (theta, q) = loop {
        // Extend the basis to m vectors plus the residual direction.
        let mut beta_last = 0.0;
        for j in filled..m {
            op.mdag_m_into(&basis[j], &mut tmp, &mut w);
            mvps += 1;
            let coef = reorthogonalize(&mut w, &basis, j + 1);
            for (i, c) in coef.iter().enumerate() {
                // ⟨v_i, A v_j⟩: real for a Hermitian operator up to
                // rounding; the imaginary part is noise and is dropped so
                // the projected matrix stays exactly symmetric.
                h[i * m + j] = c.re;
                h[j * m + i] = c.re;
            }
            let beta = w.norm2().sqrt();
            assert!(
                beta > 0.0,
                "Krylov breakdown: invariant subspace hit before basis filled"
            );
            if j + 1 < m {
                h[(j + 1) * m + j] = beta;
                h[j * m + (j + 1)] = beta;
            }
            w.scale(1.0 / beta);
            std::mem::swap(&mut basis[j + 1], &mut w);
            beta_last = beta;
        }

        // Rayleigh–Ritz on the projected matrix; residual estimate of pair
        // i from the bottom row: ‖A(Vy) − θ(Vy)‖ = β_m |y_{m−1}|.
        let (vals, vecs) = jacobi_eigh(&h, m);
        let all_converged =
            (0..nev).all(|i| (beta_last * vecs[(m - 1) * m + i]).abs() <= params.tol);
        if all_converged || restarts >= params.max_restarts {
            break (vals, vecs);
        }

        // Thick restart: form the lowest `keep` Ritz vectors in the scratch
        // pool (fixed combination order), swap them into the basis, and
        // carry the residual direction as v_keep.
        restarts += 1;
        for (c, s) in scratch.iter_mut().enumerate() {
            s.data_mut().fill(E::zero());
            for (j, v) in basis.iter().take(m).enumerate() {
                s.axpy_inplace(vecs[j * m + c], v);
            }
            normalize(s);
        }
        for (c, s) in scratch.iter_mut().enumerate() {
            std::mem::swap(&mut basis[c], s);
        }
        basis.swap(keep, m);
        // The carried direction is orthogonal to the Ritz vectors in exact
        // arithmetic; enforce it under rounding and renormalize.
        {
            let (ritz, rest) = basis.split_at_mut(keep);
            let vk = &mut rest[0];
            for _pass in 0..2 {
                for r in ritz.iter() {
                    let c = r.inner(vk);
                    vk.axpy_complex(-c, r);
                }
            }
            normalize(vk);
        }
        // Restarted projected matrix: diag(θ) on the kept block. The
        // arrowhead coupling column regenerates from the Gram–Schmidt
        // coefficients when column `keep` is built.
        h.iter_mut().for_each(|x| *x = 0.0);
        for (c, &t) in vals.iter().take(keep).enumerate() {
            h[c * m + c] = t;
        }
        filled = keep;
    };

    // Form the wanted Ritz vectors and validate each pair explicitly.
    let mut vectors = Vec::with_capacity(nev);
    let mut values = Vec::with_capacity(nev);
    let mut residuals = Vec::with_capacity(nev);
    for i in 0..nev {
        let mut u = Field::<FermionKind, E>::zero(grid.clone());
        for (j, v) in basis.iter().take(m).enumerate() {
            u.axpy_inplace(q[j * m + i], v);
        }
        normalize(&mut u);
        let mut au = Field::<FermionKind, E>::zero(grid.clone());
        op.mdag_m_into(&u, &mut tmp, &mut au);
        mvps += 1;
        au.axpy_inplace(-theta[i], &u); // au = A u − θ u
        residuals.push(au.norm2().sqrt());
        values.push(theta[i]);
        vectors.push(u);
    }
    let converged = residuals.iter().all(|&r| r <= params.tol);
    qcd_trace::histogram("eig.lanczos.restarts").record(restarts as u64);
    qcd_trace::histogram("eig.lanczos.mvps").record(mvps as u64);
    (
        Subspace {
            vectors,
            values,
            residuals,
            mass: op.mass,
        },
        EigenReport {
            restarts,
            mvps,
            converged,
            telemetry: span.finish(),
        },
    )
}

/// Convenience wrapper at f64: build a subspace for `op` with the default
/// parameters for `nev` pairs.
pub fn build_subspace(op: &WilsonDirac, nev: usize, seed: u64) -> (Subspace, EigenReport) {
    lanczos(op, &LanczosParams::for_nev(nev), seed)
}
