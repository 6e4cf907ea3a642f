//! Wilson gauge action, the gauge force, and the molecular-dynamics field
//! updates — the compute kernels of the HMC trajectory.
//!
//! All heavy loops run word-level through the [`grid::SimdEngine`] (one
//! 3×3 product per virtual node per call) and are parallelized through the
//! rayon shim using the same fixed-chunk decomposition as the solver
//! kernels: chunks of [`reduce::CHUNK_SITES`] outer sites. The force is one
//! sweep over outer sites that loads, computes and stores in one site body,
//! reading every neighbour link through a [`Stencil`] leg; it either stores
//! `F` or adds the integrator's kick `ε F` into the momenta in the same
//! pass. The plaquette sum behind the action reads its neighbours the same
//! way. Forces and link updates are per-site maps (no reduction at all);
//! the action and the kinetic energy are the canonical reductions of
//! [`grid::reduce`] — one value per site, summed in global lexicographic
//! order — so ΔH, and with it every accept/reject decision, is
//! bit-identical at every vector length and worker-thread count.
//!
//! **Force derivation.** With `U̇_µ(x) = P_µ(x) U_µ(x)` and the Wilson
//! action `S = β Σ_{x,µ<ν} (1 - Re tr P_{µν}/3)`, writing `Σ_µ(x)` for the
//! sum of the six staples of the link, energy conservation
//! `d(K+S)/dt = 0` for every `P ∈ su(3)` fixes
//!
//! ```text
//! Ṗ_µ(x) = -(β/6) · TA(U_µ(x) Σ_µ(x)),    K = -Σ_{x,µ} tr P_µ(x)²
//! ```
//!
//! using `Re tr(P M) = tr(P · TA(M))` (see [`crate::algebra::ta_project`]).
//! The `β/6 = β/(2N_c)` normalization is not folklore here: the
//! `force_matches_numerical_gradient` test differentiates the action
//! numerically along a random algebra direction, and the ΔH ∝ ε² sweep
//! would expose any mismatch as an O(1) energy drift.

use crate::algebra::{exp_su3, momentum_from_gaussians};
use grid::field::GaugeKind;
use grid::prelude::*;
use grid::reduce;
use grid::rng::{gaussian, stream_id};
use grid::simd::Words;
use grid::stencil::{dir_index, Stencil, StencilEntry};
use grid::tensor::su3::{mat_dag_mul, mat_mul, mat_mul_dag, mat_mul_scalar, ColorMatrix};
use grid::{gauge_comp, CVec, FieldKind, NCOLOR, NDIM};
use rayon::prelude::*;
use std::sync::Arc;

/// Complex 3×3 matrix product: 9 entries × (3 complex mults + 2 adds).
const MATMUL_FLOPS: u64 = 9 * (3 * 6 + 2 * 2);

/// Useful flops per lattice site of one [`force`] evaluation: 12 ordered
/// staple pairs × (4 matrix products + 2 accumulating adds of 9 complex
/// entries), plus the 4 per-direction `U·Σ` products and TA projections.
pub const FORCE_FLOPS_PER_SITE: u64 = 12 * (4 * MATMUL_FLOPS + 2 * 18) + 4 * (MATMUL_FLOPS + 46);

/// Useful flops per lattice site of one [`wilson_action`] sweep: 6 planes ×
/// (2 matrix products + the 9-term trace inner product).
pub const ACTION_FLOPS_PER_SITE: u64 = 6 * (2 * MATMUL_FLOPS + 70);

/// Complex f64 lanes (16 bytes each) of the widest SIMD word.
const MAX_LANES: usize = sve::VL_MAX_BYTES / 16;

/// A 3×3 complex matrix of SIMD words.
type Mat<const N: usize> = [[CVec<N>; NCOLOR]; NCOLOR];

/// The matrix whose entry `(r, c)` is `word(3r + c)`.
#[inline(always)]
fn mat<const N: usize>(word: impl Fn(usize) -> CVec<N>) -> Mat<N> {
    std::array::from_fn(|r| std::array::from_fn(|c| word(r * 3 + c)))
}

/// `U_µ` at outer site `osite`.
#[inline(always)]
fn link<const N: usize>(
    eng: &Words<'_, f64, N>,
    u: &GaugeField,
    osite: usize,
    mu: usize,
) -> Mat<N> {
    mat(|k| eng.load(u.word(osite, gauge_comp(mu, 0, 0) + k)))
}

/// `U_µ` at the far end of the stencil leg `leg`, lanes permuted onto the
/// site the leg starts from.
#[inline(always)]
fn link_via<const N: usize>(
    eng: &Words<'_, f64, N>,
    st: &Stencil,
    u: &GaugeField,
    leg: StencilEntry,
    mu: usize,
) -> Mat<N> {
    mat(|k| st.fetch(eng, u, gauge_comp(mu, 0, 0) + k, leg))
}

/// `tr(M C†)` per word: `Σ_{r,k} M[r][k]·conj(C[r][k])` — the trace of a
/// product with an adjoint without materializing the product.
#[inline]
fn trace_mul_dag<const N: usize>(eng: &Words<'_, f64, N>, m: &Mat<N>, c: &Mat<N>) -> CVec<N> {
    let mut acc = eng.mult_conj(c[0][0], m[0][0]);
    for r in 0..NCOLOR {
        for k in 0..NCOLOR {
            if r == 0 && k == 0 {
                continue;
            }
            acc = eng.madd_conj(acc, c[r][k], m[r][k]);
        }
    }
    acc
}

/// Sum of `Re tr P_{µν}(x)` over all sites and the six `µ<ν` planes: each
/// site's six traces summed in plane order, the sites summed canonically.
/// `U_ν(x+µ̂)` and `U_µ(x+ν̂)` come through one stencil leg each.
fn plaquette_re_trace_sum(st: &Stencil, u: &GaugeField) -> f64 {
    let grid = u.grid().clone();
    let lanes = grid.lanes_c();
    let mut sum = 0.0;
    grid::sized!(grid.engine(), |eng| {
        let cs = reduce::CHUNK_SITES * GaugeKind::NCOMP * eng.word_len();
        let kernel = |ci: usize, _: &[f64], part: &mut [f64]| {
            for (k, site) in part.chunks_exact_mut(lanes).enumerate() {
                let osite = ci * reduce::CHUNK_SITES + k;
                site.fill(0.0);
                for mu in 0..NDIM {
                    let umu = link(eng, u, osite, mu);
                    let xmu = st.leg(dir_index(mu, true), osite);
                    for nu in (mu + 1)..NDIM {
                        let unu_xmu = link_via(eng, st, u, xmu, nu);
                        let umu_xnu = link_via(eng, st, u, st.leg(dir_index(nu, true), osite), mu);
                        let unu = link(eng, u, osite, nu);
                        // P = U_µ(x) U_ν(x+µ̂) U_µ†(x+ν̂) U_ν†(x); take the
                        // trace against the last adjoint directly.
                        let m1 = mat_mul(eng, &umu, &unu_xmu);
                        let m2 = mat_mul_dag(eng, &m1, &umu_xnu);
                        let tr = trace_mul_dag(eng, &m2, &unu);
                        for (lane, s) in site.iter_mut().enumerate() {
                            *s += eng.lane(tr, lane).re;
                        }
                    }
                }
            }
        };
        let chunks = u.data().par_chunks(cs);
        reduce::sweep_sums(&grid, chunks, kernel, 1, std::slice::from_mut(&mut sum));
    });
    sum
}

/// Wilson gauge action `S = β Σ_{x,µ<ν} (1 - Re tr P_{µν}(x) / 3)`.
///
/// Zero on a unit gauge configuration, `≈ 6βV` deep in the random regime.
/// Gauge invariant, and bit-identical at every vector length and worker
/// count (a canonical reduction).
pub fn wilson_action(u: &GaugeField, beta: f64) -> f64 {
    action(&Stencil::new(u.grid().clone()), u, beta)
}

/// [`wilson_action`] through the links' stencil `st`.
pub(crate) fn action(st: &Stencil, u: &GaugeField, beta: f64) -> f64 {
    let grid = u.grid().clone();
    let _span = qcd_trace::span!("hmc.action", grid.engine().ctx());
    let sites = grid.volume() as u64;
    qcd_trace::record_sites(sites);
    qcd_trace::record_flops(sites * ACTION_FLOPS_PER_SITE);
    let n_plaq = (grid.volume() * NDIM * (NDIM - 1) / 2) as f64;
    beta * (n_plaq - plaquette_re_trace_sum(st, u) / NCOLOR as f64)
}

/// Average plaquette `⟨Re tr P / 3⟩` through the same word-level kernel as
/// [`wilson_action`] (agrees with `grid::gauge::average_plaquette` to
/// rounding; this one is parallel and cheap enough to log per trajectory).
pub fn average_plaquette_fast(u: &GaugeField) -> f64 {
    let grid = u.grid().clone();
    let n_plaq = (grid.volume() * NDIM * (NDIM - 1) / 2) as f64;
    plaquette_re_trace_sum(&Stencil::new(grid), u) / NCOLOR as f64 / n_plaq
}

/// The sum of the six staples of the link `U_µ` at outer site `osite`,
///
/// ```text
/// Σ_µ(x) = Σ_{ν≠µ}  U_ν(x+µ̂) U_µ†(x+ν̂) U_ν†(x)                    (up)
///                 + U_ν†(x+µ̂-ν̂) U_µ†(x-ν̂) U_ν(x-ν̂)               (down)
/// ```
///
/// so that `Re tr[U_µ(x) Σ_µ(x)]` summed over links counts every plaquette
/// four times (once per link it contains). `U(x+µ̂)`, `U(x+ν̂)` and
/// `U(x-ν̂)` come through one stencil leg; `U_ν(x+µ̂-ν̂)` through two, `-ν̂`
/// from the site and then `+µ̂` from that neighbour, its lanes permuted by
/// the far leg first.
#[inline(always)]
fn staple<const N: usize>(
    eng: &Words<'_, f64, N>,
    st: &Stencil,
    u: &GaugeField,
    osite: usize,
    mu: usize,
) -> Mat<N> {
    let mut acc = [[eng.zero(); NCOLOR]; NCOLOR];
    let xmu = st.leg(dir_index(mu, true), osite);
    for nu in (0..NDIM).filter(|&nu| nu != mu) {
        let unu_xmu = link_via(eng, st, u, xmu, nu);
        let umu_xnu = link_via(eng, st, u, st.leg(dir_index(nu, true), osite), mu);
        let unu = link(eng, u, osite, nu);
        let up = mat_mul_dag(eng, &mat_mul_dag(eng, &unu_xmu, &umu_xnu), &unu);
        let xmnu = st.leg(dir_index(nu, false), osite);
        let far = st.leg(dir_index(mu, true), xmnu.nbr as usize);
        let unu_far =
            mat(|k| st.permute(eng, st.fetch(eng, u, gauge_comp(nu, 0, 0) + k, far), xmnu));
        let (umu_y, unu_y) = (
            link_via(eng, st, u, xmnu, mu),
            link_via(eng, st, u, xmnu, nu),
        );
        let down = mat_dag_mul(eng, &unu_far, &mat_dag_mul(eng, &umu_y, &unu_y));
        for r in 0..NCOLOR {
            for c in 0..NCOLOR {
                acc[r][c] = eng.add(acc[r][c], eng.add(up[r][c], down[r][c]));
            }
        }
    }
    acc
}

/// The one gauge-force sweep: per outer site and direction,
/// `F_µ(x) = -(β/6) · TA(U_µ(x) Σ_µ(x))` from the links `u` and their
/// stencil `st`, stored into `out` — or, with `kick = Some(ε)`, added to it
/// as `out += ε F`, the word sequence of `out.axpy_inplace(ε, &force(u, β))`
/// without the force field.
///
/// A pure per-site map (no reduction), parallel over fixed chunks; emits a
/// `hmc.force` trace span with site and flop counts.
pub(crate) fn force_sweep(
    st: &Stencil,
    u: &GaugeField,
    beta: f64,
    out: &mut GaugeField,
    kick: Option<f64>,
) {
    let grid = u.grid().clone();
    let _span = qcd_trace::span!("hmc.force", grid.engine().ctx());
    let sites = grid.volume() as u64;
    qcd_trace::record_sites(sites);
    qcd_trace::record_flops(sites * FORCE_FLOPS_PER_SITE);
    grid::sized!(grid.engine(), |eng| {
        let w = eng.word_len();
        let coef = eng.dup_real(-beta / (2.0 * NCOLOR as f64));
        let half = eng.dup_real(0.5);
        let third = eng.dup_real(1.0 / NCOLOR as f64);
        let eps = kick.map(|e| eng.dup_real(e));
        let cs = reduce::CHUNK_SITES * GaugeKind::NCOMP * w;
        out.data_mut()
            .par_chunks_mut(cs)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let base = ci * reduce::CHUNK_SITES;
                for (j, block) in chunk.chunks_exact_mut(GaugeKind::NCOMP * w).enumerate() {
                    let osite = base + j;
                    for mu in 0..NDIM {
                        let sm = staple(eng, st, u, osite, mu);
                        let wm = mat_mul(eng, &link(eng, u, osite, mu), &sm);
                        // A = W - W† (anti-Hermitian part, twice).
                        let a: Mat<_> = std::array::from_fn(|r| {
                            std::array::from_fn(|c| eng.sub(wm[r][c], eng.conj(wm[c][r])))
                        });
                        // TA(W) = A/2 - (tr A / 2N_c) · 1, then scale by -β/2N_c.
                        let tr = eng.add(eng.add(a[0][0], a[1][1]), a[2][2]);
                        let tr_term = eng.scale(half, eng.scale(third, tr));
                        for (r, row) in a.iter().enumerate() {
                            for (c, &arc) in row.iter().enumerate() {
                                let mut v = eng.scale(half, arc);
                                if r == c {
                                    v = eng.sub(v, tr_term);
                                }
                                let f = eng.scale(coef, v);
                                let slot = &mut block[gauge_comp(mu, r, c) * w..][..w];
                                let v = match eps {
                                    None => f,
                                    Some(eps) => eng.axpy_word(eps, f, eng.load(slot)),
                                };
                                eng.store(slot, v);
                            }
                        }
                    }
                }
            });
    })
}

/// The HMC gauge force `F_µ(x) = -(β/6) · TA(U_µ(x) Σ_µ(x))` as a
/// link-shaped field — the time derivative `Ṗ` of the momenta. One
/// [`force_sweep`] through a stencil built for the call.
pub fn force(u: &GaugeField, beta: f64) -> GaugeField {
    let grid = u.grid().clone();
    let mut f = GaugeField::zero(grid.clone());
    force_sweep(&Stencil::new(grid), u, beta, &mut f, None);
    f
}

/// Kinetic energy of a momentum field: `K = -Σ_{x,µ} tr P_µ(x)²`, which for
/// anti-Hermitian momenta is exactly the Frobenius `norm2` — the field's
/// canonical reduction.
pub fn kinetic_energy(p: &GaugeField) -> f64 {
    p.norm2()
}

/// Gaussian heat-bath momentum refresh: an independent
/// `P_µ(x) = Σ_a η_a (i T_a)` per link, with every normal drawn from its
/// own counter-mode stream keyed by `(global site, µ·8+a)` — drawing order
/// never matters, so the field is identical across vector lengths, thread
/// counts, and site iteration orders.
pub fn refresh_momenta(grid: Arc<Grid>, seed: u64) -> GaugeField {
    let mut p = GaugeField::zero(grid);
    refresh_momenta_into(&mut p, seed);
    p
}

/// [`refresh_momenta`] in place: every component of `p` is overwritten.
pub(crate) fn refresh_momenta_into(p: &mut GaugeField, seed: u64) {
    let grid = p.grid().clone();
    for x in grid.coords() {
        let gi = grid.global_index(&x);
        for mu in 0..NDIM {
            let etas: [f64; 8] =
                std::array::from_fn(|a| gaussian(seed, stream_id(gi, mu * 8 + a, 0)));
            let m = momentum_from_gaussians(&etas);
            for (r, row) in m.iter().enumerate() {
                for (c, &v) in row.iter().enumerate() {
                    p.poke(&x, gauge_comp(mu, r, c), v);
                }
            }
        }
    }
}

/// Molecular-dynamics link drift: `U_µ(x) ← exp(ε P_µ(x)) U_µ(x)` for every
/// link — a per-site map (parallel, deterministic), with the exponential
/// evaluated per SIMD lane through [`crate::algebra::exp_su3`].
pub fn update_links(u: &mut GaugeField, p: &GaugeField, eps: f64) {
    let grid = u.grid().clone();
    grid::sized!(grid.engine(), |eng| {
        let w = eng.word_len();
        let lanes = eng.lanes_c();
        let cs = reduce::CHUNK_SITES * GaugeKind::NCOMP * w;
        u.data_mut()
            .par_chunks_mut(cs)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let base = ci * reduce::CHUNK_SITES;
                let mut per_lane = [ColorMatrix::default(); MAX_LANES];
                for (j, block) in chunk.chunks_exact_mut(GaugeKind::NCOMP * w).enumerate() {
                    let osite = base + j;
                    for mu in 0..NDIM {
                        let pw = link(eng, p, osite, mu);
                        let uw: Mat<_> =
                            mat(|k| eng.load(&block[(gauge_comp(mu, 0, 0) + k) * w..][..w]));
                        for (l, out) in per_lane[..lanes].iter_mut().enumerate() {
                            let pm: ColorMatrix = std::array::from_fn(|r| {
                                std::array::from_fn(|c| eng.lane(pw[r][c], l).scale(eps))
                            });
                            let um: ColorMatrix = std::array::from_fn(|r| {
                                std::array::from_fn(|c| eng.lane(uw[r][c], l))
                            });
                            *out = mat_mul_scalar(&exp_su3(&pm), &um);
                        }
                        for r in 0..NCOLOR {
                            for c in 0..NCOLOR {
                                let v = eng.from_fn(|l| per_lane[l][r][c]);
                                eng.store(&mut block[gauge_comp(mu, r, c) * w..][..w], v);
                            }
                        }
                    }
                }
            });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid::field::Field;
    use grid::gauge::{average_plaquette, max_unitarity_deviation, ColourMatrixKind};
    use grid::tensor::su3::{peek_link, random_gauge, unit_gauge};

    fn grid4(bits: usize) -> Arc<Grid> {
        Grid::new([4, 4, 4, 4], VectorLength::of(bits), SimdBackend::Fcmla)
    }

    #[test]
    fn action_matches_scalar_plaquette() {
        let g = grid4(256);
        let u = random_gauge(g.clone(), 51);
        let beta = 5.7;
        let n_plaq = (g.volume() * 6) as f64;
        let want = beta * n_plaq * (1.0 - average_plaquette(&u));
        let got = wilson_action(&u, beta);
        assert!(
            (want - got).abs() < 1e-9 * want.abs().max(1.0),
            "{want} vs {got}"
        );
        assert!((average_plaquette_fast(&u) - average_plaquette(&u)).abs() < 1e-12);
    }

    #[test]
    fn action_is_zero_on_unit_gauge() {
        let g = grid4(128);
        assert!(wilson_action(&unit_gauge(g.clone()), 6.0).abs() < 1e-9);
        let f = force(&unit_gauge(g), 6.0);
        assert!(f.norm2() < 1e-20, "unit gauge must be a fixed point");
    }

    #[test]
    fn action_and_kinetic_energy_are_identical_across_vector_lengths() {
        // Same physical fields, different layouts: per-site arithmetic is
        // lane-wise identical and the sites are summed in lexicographic
        // order, so the agreement is to the bit.
        let mut vals = Vec::new();
        for bits in [128usize, 512, 2048] {
            let g = grid4(bits);
            let u = random_gauge(g.clone(), 52);
            let p = refresh_momenta(g, 9);
            vals.push((
                wilson_action(&u, 5.7).to_bits(),
                kinetic_energy(&p).to_bits(),
            ));
        }
        assert!(vals.iter().all(|v| *v == vals[0]), "{vals:x?}");
    }

    #[test]
    fn force_lives_in_the_algebra() {
        let g = grid4(256);
        let u = random_gauge(g.clone(), 53);
        let f = force(&u, 5.7);
        for x in g.coords().step_by(7) {
            for mu in 0..NDIM {
                let m = peek_link(&f, &x, mu);
                let p = crate::algebra::ta_project(&m);
                for r in 0..NCOLOR {
                    for c in 0..NCOLOR {
                        assert!((m[r][c] - p[r][c]).abs() < 1e-13, "not in su(3)");
                    }
                }
            }
        }
    }

    /// The staple sums composed from whole-field shifts: `U(x+d̂)` as a
    /// shifted copy of the links, and each down staple built site-locally at
    /// `y` and shifted down so it arrives at `x = y+ν̂`.
    fn staple_via_cshift(u: &GaugeField) -> GaugeField {
        let grid = u.grid().clone();
        let shifted: Vec<GaugeField> = (0..NDIM).map(|d| cshift(u, d, 1)).collect();
        let mut staple = GaugeField::zero(grid.clone());
        grid::sized!(grid.engine(), |eng| {
            for mu in 0..NDIM {
                for nu in (0..NDIM).filter(|&nu| nu != mu) {
                    let mut down_src = Field::<ColourMatrixKind>::zero(grid.clone());
                    for osite in 0..grid.osites() {
                        let a = link(eng, &shifted[mu], osite, nu);
                        let bc =
                            mat_dag_mul(eng, &link(eng, u, osite, mu), &link(eng, u, osite, nu));
                        for (k, &d) in mat_dag_mul(eng, &a, &bc).iter().flatten().enumerate() {
                            eng.store(down_src.word_mut(osite, k), d);
                        }
                    }
                    let down = cshift(&down_src, nu, -1);
                    for osite in 0..grid.osites() {
                        let ab = mat_mul_dag(
                            eng,
                            &link(eng, &shifted[mu], osite, nu),
                            &link(eng, &shifted[nu], osite, mu),
                        );
                        let up = mat_mul_dag(eng, &ab, &link(eng, u, osite, nu));
                        for (k, &upw) in up.iter().flatten().enumerate() {
                            let d = eng.load(down.word(osite, k));
                            let slot = staple.word_mut(osite, gauge_comp(mu, 0, 0) + k);
                            eng.store(slot, eng.add(eng.load(slot), eng.add(upw, d)));
                        }
                    }
                }
            }
        });
        staple
    }

    /// The force from [`staple_via_cshift`]: the oracle the stencil sweep
    /// must reproduce bit for bit.
    fn force_via_cshift(u: &GaugeField, beta: f64) -> GaugeField {
        let grid = u.grid().clone();
        let staple = staple_via_cshift(u);
        let mut f = GaugeField::zero(grid.clone());
        grid::sized!(grid.engine(), |eng| {
            let coef = eng.dup_real(-beta / (2.0 * NCOLOR as f64));
            let (half, third) = (eng.dup_real(0.5), eng.dup_real(1.0 / NCOLOR as f64));
            for osite in 0..grid.osites() {
                for mu in 0..NDIM {
                    let sm = link(eng, &staple, osite, mu);
                    let wm = mat_mul(eng, &link(eng, u, osite, mu), &sm);
                    let a: Mat<_> = std::array::from_fn(|r| {
                        std::array::from_fn(|c| eng.sub(wm[r][c], eng.conj(wm[c][r])))
                    });
                    let tr = eng.add(eng.add(a[0][0], a[1][1]), a[2][2]);
                    let tr_term = eng.scale(half, eng.scale(third, tr));
                    for (r, row) in a.iter().enumerate() {
                        for (c, &arc) in row.iter().enumerate() {
                            let mut v = eng.scale(half, arc);
                            if r == c {
                                v = eng.sub(v, tr_term);
                            }
                            eng.store(f.word_mut(osite, gauge_comp(mu, r, c)), eng.scale(coef, v));
                        }
                    }
                }
            }
        });
        f
    }

    fn bits(f: &GaugeField) -> Vec<u64> {
        f.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn force_and_kick_match_the_cshift_composed_staples_bit_for_bit() {
        // VL128 never permutes lanes; VL512 and VL2048 permute in two and
        // four dimensions, so there the two-leg fetch of U_ν(x+µ̂−ν̂)
        // crosses virtual-node boundaries in either leg or in both.
        for bits_vl in [128usize, 512, 2048] {
            let g = grid4(bits_vl);
            let u = random_gauge(g.clone(), 57);
            let oracle = force_via_cshift(&u, 5.7);
            let mut want_p = refresh_momenta(g.clone(), 58);
            let p0 = want_p.clone();
            want_p.axpy_inplace(0.0123, &oracle);
            let st = Stencil::new(g.clone());
            for threads in [1usize, 2] {
                rayon::set_num_threads(threads);
                let cell = format!("VL{bits_vl} × {threads} threads");
                assert!(bits(&force(&u, 5.7)) == bits(&oracle), "force @ {cell}");
                let mut p = p0.clone();
                force_sweep(&st, &u, 5.7, &mut p, Some(0.0123));
                assert!(bits(&p) == bits(&want_p), "kick @ {cell}");
            }
        }
        rayon::set_num_threads(0);
    }

    #[test]
    fn force_matches_numerical_gradient() {
        // Directional derivative along a random algebra direction Q:
        //   d/dt S(e^{tQ} U)|_0  =  2 Σ_{x,µ} tr(Q_µ(x) F_µ(x))
        // — the identity that makes Ḣ = 0, since K = -Σ tr P² gives
        // K̇ = -2 Σ tr(P Ṗ) = -2 Σ tr(P F). Checked by symmetric
        // difference.
        let g = Grid::new([2, 2, 2, 2], VectorLength::of(128), SimdBackend::Fcmla);
        let u = random_gauge(g.clone(), 54);
        let beta = 5.7;
        let q = {
            let mut q = GaugeField::zero(g.clone());
            for x in g.coords() {
                let gi = g.global_index(&x);
                for mu in 0..NDIM {
                    let etas: [f64; 8] =
                        std::array::from_fn(|a| gaussian(99, stream_id(gi, mu * 8 + a, 0)));
                    let m = momentum_from_gaussians(&etas);
                    for (r, row) in m.iter().enumerate() {
                        for (c, &v) in row.iter().enumerate() {
                            q.poke(&x, gauge_comp(mu, r, c), v);
                        }
                    }
                }
            }
            q
        };
        let h = 1e-5;
        let mut up = u.clone();
        update_links(&mut up, &q, h);
        let mut dn = u.clone();
        update_links(&mut dn, &q, -h);
        let numeric = (wilson_action(&up, beta) - wilson_action(&dn, beta)) / (2.0 * h);

        let f = force(&u, beta);
        let mut analytic = 0.0;
        for x in g.coords() {
            for mu in 0..NDIM {
                let qm = peek_link(&q, &x, mu);
                let fm = peek_link(&f, &x, mu);
                analytic += crate::algebra::trace(&mat_mul_scalar(&qm, &fm)).re;
            }
        }
        analytic *= 2.0;
        assert!(
            (numeric - analytic).abs() < 1e-6 * analytic.abs().max(1.0),
            "dS numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn refresh_is_layout_independent_and_gaussian() {
        let a = refresh_momenta(grid4(128), 7);
        let b = refresh_momenta(grid4(1024), 7);
        let x = [1, 2, 3, 0];
        for mu in 0..NDIM {
            assert_eq!(peek_link(&a, &x, mu), peek_link(&b, &x, mu));
        }
        // K/dof = ½ in expectation with dof = 8 per link.
        let dof = (a.grid().volume() * NDIM * 8) as f64;
        let k = kinetic_energy(&a);
        assert!(
            (k / dof - 0.5).abs() < 0.03,
            "K/dof = {} should be near 1/2",
            k / dof
        );
    }

    #[test]
    fn update_links_stays_in_the_group_and_inverts() {
        let g = grid4(256);
        let mut u = random_gauge(g.clone(), 55);
        let u0 = u.clone();
        let p = refresh_momenta(g.clone(), 8);
        update_links(&mut u, &p, 0.2);
        assert!(max_unitarity_deviation(&u) < 1e-12);
        assert!(u.max_abs_diff(&u0) > 1e-3, "drift must move the links");
        update_links(&mut u, &p, -0.2);
        assert!(
            u.max_abs_diff(&u0) < 1e-13,
            "exp(-εP) must undo exp(εP) to rounding"
        );
    }
}
