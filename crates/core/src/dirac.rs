//! The Wilson Dirac operator — "the most compute-intensive task" of LQCD
//! (paper, Section II-A).
//!
//! The hopping term, Eq. (1) of the paper:
//!
//! ```text
//! ψ'_x = Dh ψ = Σ_µ { U_{x,µ} (1+γµ) ψ_{x+µ̂}  +  U†_{x−µ̂,µ} (1−γµ) ψ_{x−µ̂} }
//! ```
//!
//! Each of the eight legs spin-projects the neighbour spinor to a half
//! spinor (two spin components), multiplies it by the SU(3) link — forward
//! legs use `U` at the site, backward legs the adjoint of `U` at the
//! neighbour, via the conjugated-FCMLA idiom — and reconstructs into the
//! accumulator. Every complex multiply goes through the engine, so backend
//! choice (FCMLA / real-arithmetic / generic) switches the innermost
//! instruction mix of the entire operator.
//!
//! The eight-leg body is written once ([`WilsonDirac::legs`] and
//! [`Leg::run`]), and so is the sweep: a field of any width — one field, a
//! block of right-hand sides, a domain-wall fermion's `Ls` slices — goes
//! through [`WilsonDirac::site`], which resolves the legs once per site and
//! runs them once per right-hand side, fetching through the stencil. Where
//! a fetched word comes from is a type, a [`Neighbours`] source: the local
//! stencil as it is, or the distributed operator's boundary pass, which
//! patches the lanes that cross a rank boundary ([`crate::dist`]). Every
//! sweep ends a right-hand side's site with the same fused store
//! ([`store_spinor`]).
//!
//! Every operator built on the sweep — this one on a field and on a block,
//! clover, domain wall, the distributed operator, the even-odd Schur
//! complement — is a [`Dirac`]: it writes one sweep, `m_into`, and applying
//! it, its adjoint, `M†M` and the CG space of the normal equations are the
//! trait's, written once.
//!
//! Site kernels are independent, so outer sites run under Rayon — the
//! thread-level parallelization Grid gets from OpenMP (paper, Section II-A).

use crate::codec::{LINK_SCALARS_FULL, LINK_SCALARS_TWO_ROW};
use crate::dist::Crossing;
use crate::field::{gauge_comp, spinor_comp, FermionBlock, FermionKind, Field, GaugeKind};
use crate::krylov::{CgSpace, Vector};
use crate::layout::{Grid, NCOLOR, NSPIN};
use crate::mixed::{to_precision, Replica};
use crate::reduce;
use crate::simd::{CVec, WordKernel, Words};
use crate::stencil::{dir_index, Stencil, StencilEntry};
use crate::tensor::gamma::{proj_table, Coeff, ProjTable};
use crate::tensor::su3::{mat_dag_vec, mat_vec, reconstruct_row2};
use rayon::prelude::*;
use std::marker::PhantomData;
use std::sync::Arc;
use sve::{HostCopy, SveFloat};

/// Complex components per spinor (`NSPIN × NCOLOR`).
const NCOMP: usize = NSPIN * NCOLOR;

/// One spinor's words at an outer site, indexed by [`spinor_comp`] — the
/// accumulator of the hopping term.
type Spinor<const N: usize> = [CVec<N>; NCOMP];

/// One SU(3) link's words at an outer site, `[row][col]`.
type Link<const N: usize> = [[CVec<N>; NCOLOR]; NCOLOR];

/// Real floating-point operations per lattice site of one hopping-term
/// application (the standard Wilson dslash count the paper benchmarks
/// against).
pub const HOPPING_FLOPS_PER_SITE: u64 = 1320;

/// Real numbers read per site by the hopping term: 8 neighbour spinors
/// (8 × 24) plus 8 links (8 × 18).
pub const HOPPING_READS_PER_SITE: u64 = 8 * 24 + 8 * 18;

/// Real numbers written per site by the hopping term: one output spinor.
pub const HOPPING_WRITES_PER_SITE: u64 = 24;

/// Extra flops per site when the Wilson mass term `(m+4)ψ − ½(·)` is fused
/// into the hopping store loop: one real scale (24) plus one real axpy
/// (2 × 24) on the output spinor.
pub const FUSED_MASS_AXPY_FLOPS_PER_SITE: u64 = 72;

/// Extra flops per site for the fused curvature `Re ⟨ψ, out⟩`: two
/// multiplies and two adds per complex component.
pub const FUSED_DOT_FLOPS_PER_SITE: u64 = 48;

/// Apply a projector coefficient to a SIMD word.
#[inline(always)]
fn apply_coeff<E: SveFloat, const N: usize, C: HostCopy>(
    eng: &Words<'_, E, N, C>,
    coeff: Coeff,
    v: CVec<N>,
) -> CVec<N> {
    match coeff {
        Coeff::One => v,
        Coeff::MinusOne => eng.neg(v),
        Coeff::I => eng.times_i(v),
        Coeff::MinusI => eng.times_minus_i(v),
    }
}

/// One leg of the hopping term at one outer site, resolved once and shared
/// by every right-hand side: its stencil entry, its spin projector and its
/// link (see [`WilsonDirac::legs`]).
#[derive(Clone, Copy)]
struct Leg<const N: usize> {
    /// The direction `µ`.
    mu: usize,
    /// `x + µ̂` (`true`) or `x − µ̂`.
    forward: bool,
    /// Where the neighbour's words come from.
    entry: StencilEntry,
    proj: ProjTable,
    link: Link<N>,
}

impl<const N: usize> Leg<N> {
    /// The leg body: spin-project the neighbour spinor, which `fetch` reads
    /// one component word at a time, into a half spinor; colour-multiply
    /// both rows by the link — `U` forward, `U†` backward via the
    /// conjugated-FCMLA idiom; reconstruct the full spinor into `acc`.
    #[inline(always)]
    fn run<E: SveFloat, C: HostCopy>(
        &self,
        eng: &Words<'_, E, N, C>,
        fetch: impl Fn(usize) -> CVec<N>,
        acc: &mut Spinor<N>,
    ) {
        let t = &self.proj;
        let mut h = [[eng.zero(); NCOLOR]; 2];
        for (k, row) in h.iter_mut().enumerate() {
            let (src, coeff) = t.proj[k];
            for (c, out_w) in row.iter_mut().enumerate() {
                let sk = fetch(spinor_comp(k, c));
                let ss = fetch(spinor_comp(src, c));
                *out_w = eng.add(sk, apply_coeff(eng, coeff, ss));
            }
        }
        let uh: [[CVec<N>; NCOLOR]; 2] = if self.forward {
            [
                mat_vec(eng, &self.link, &h[0]),
                mat_vec(eng, &self.link, &h[1]),
            ]
        } else {
            [
                mat_dag_vec(eng, &self.link, &h[0]),
                mat_dag_vec(eng, &self.link, &h[1]),
            ]
        };
        for c in 0..NCOLOR {
            for k in 0..2 {
                let s = spinor_comp(k, c);
                acc[s] = eng.add(acc[s], uh[k][c]);
            }
            for k in 0..2 {
                let (row, coeff) = t.recon[k];
                let s = spinor_comp(2 + k, c);
                acc[s] = eng.add(acc[s], apply_coeff(eng, coeff, uh[row][c]));
            }
        }
    }
}

/// The site-local terms of one domain-wall slice, added to each output word
/// after the mass term: `+ψ_s` through the first word (`1` duplicated),
/// then `c·ψ_{s'}` with the (coefficient, neighbour-slice words) of the
/// chiral leg whose projector keeps the word's spin row — `P₊` spins 0–1,
/// `P₋` spins 2–3 (see [`crate::dwf`]).
type SliceTerms<'a, E, const N: usize> = (CVec<N>, [(CVec<N>, &'a [E]); 2]);

/// The store every hopping sweep ends a right-hand side's site with: per
/// component word, the fused Wilson mass term `(m+4)ψ − ½·acc` when `mass`
/// holds `m+4` duplicated — the op sequence of the unfused `scale(−½)` then
/// `axpy(m+4, ψ)` — then a domain-wall slice's `fifth` terms, each the op of
/// an `axpy_inplace`, then one store. `psi` and `out` are the site's spinor
/// words of that right-hand side.
#[inline(always)]
fn store_spinor<E: SveFloat, const N: usize, C: HostCopy>(
    eng: &Words<'_, E, N, C>,
    acc: &Spinor<N>,
    mass: Option<CVec<N>>,
    neg_half: CVec<N>,
    psi: &[E],
    fifth: Option<SliceTerms<'_, E, N>>,
    out: &mut [E],
) {
    let word = eng.word_len();
    for (comp, &r) in acc.iter().enumerate() {
        let w = comp * word..(comp + 1) * word;
        let psi_w = (mass.is_some() || fifth.is_some()).then(
            #[inline(always)]
            || eng.load(&psi[w.clone()]),
        );
        let mut r = match (mass, psi_w) {
            (Some(m), Some(p)) => eng.axpy_word(m, p, eng.scale(neg_half, r)),
            _ => r,
        };
        if let (Some((one, legs)), Some(p)) = (fifth, psi_w) {
            let (coef, src) = legs[comp / (2 * NCOLOR)];
            r = eng.axpy_word(one, p, r);
            r = eng.axpy_word(coef, eng.load(&src[w.clone()]), r);
        }
        eng.store(&mut out[w], r);
    }
}

/// What a hopping sweep does at each site besides the eight legs: the
/// adjoint, the fused mass term, a domain-wall block's slice terms (`one`,
/// `−1` and `m_f` duplicated) and the fused dot.
pub(crate) struct Sweep<'a, E: SveFloat, const N: usize> {
    dagger: bool,
    mass: Option<CVec<N>>,
    neg_half: CVec<N>,
    fifth: Option<[CVec<N>; 3]>,
    dot_with: Option<&'a Field<FermionKind, E>>,
}

impl<'a, E: SveFloat, const N: usize> Sweep<'a, E, N> {
    /// The sweep's words, each duplicated once.
    pub(crate) fn new(eng: &Words<'_, E, N>, dagger: bool, mass: Option<f64>) -> Self {
        Sweep {
            dagger,
            mass: mass.map(|m| eng.dup_real(m)),
            neg_half: eng.dup_real(-0.5),
            fifth: None,
            dot_with: None,
        }
    }
}

/// Which outer sites a [`HopSites`] kernel covers.
pub(crate) enum Sites<'s> {
    /// A chunk from this outer site on: one site per site stride of `out`,
    /// which holds the chunk's words.
    From(usize),
    /// The listed outer sites; `out` holds the whole field's words.
    Listed(&'s [u32]),
}

/// Where a hopping site's neighbour words come from, a type fixed at
/// compile time: the stencil as it is ([`Local`]), or the distributed
/// operator's boundary pass, which patches the lanes that cross a rank
/// boundary after the stencil's fetch ([`crate::dist`]).
pub(crate) trait Neighbours {
    /// The lanes of leg `µ` (forward or backward) of outer site `osite`
    /// that cross a rank boundary, and where their values are.
    fn crossing(&self, osite: usize, mu: usize, forward: bool) -> Option<Crossing<'_>>;
}

/// The neighbours of one process's lattice: no leg crosses.
pub(crate) struct Local;

impl Neighbours for Local {
    #[inline(always)]
    fn crossing(&self, _: usize, _: usize, _: bool) -> Option<Crossing<'_>> {
        None
    }
}

/// The hopping sweep over some outer sites — a chunk of the field's sweep,
/// or either pass of the distributed operator — as one [`WordKernel`]:
/// [`WilsonDirac::site`] at each with its neighbour words from `src`, the
/// fused dot's per-site values into `part`. Every sweep of the operator
/// runs this one kernel, fused into the host's copy of the lane loops where
/// [`Words::fused`] fuses.
pub(crate) struct HopSites<'s, 'a, E: SveFloat, const N: usize, S> {
    pub(crate) op: &'s WilsonDirac<E>,
    pub(crate) src: &'s S,
    pub(crate) psi: &'a Field<FermionKind, E>,
    pub(crate) sweep: &'s Sweep<'a, E, N>,
    pub(crate) sites: Sites<'s>,
    pub(crate) out: &'s mut [E],
    /// `rows` values per site: each RHS's `Re ⟨dot_with, out⟩` per lane.
    pub(crate) part: Option<&'s mut [f64]>,
}

impl<E: SveFloat, const N: usize, S: Neighbours> WordKernel<E, N> for HopSites<'_, '_, E, N, S> {
    type Out = ();
    #[inline(always)]
    fn run<C: HostCopy>(mut self, eng: &Words<'_, E, N, C>) {
        let stride = self.psi.site_stride();
        let rows = self.psi.width() * self.op.grid.lanes_c();
        let count = match self.sites {
            Sites::From(_) => self.out.len() / stride,
            Sites::Listed(list) => list.len(),
        };
        for k in 0..count {
            let (osite, at) = match self.sites {
                Sites::From(first) => (first + k, k),
                Sites::Listed(list) => (list[k] as usize, list[k] as usize),
            };
            let out = &mut self.out[at * stride..(at + 1) * stride];
            let part = self
                .part
                .as_deref_mut()
                .map(|p| &mut p[k * rows..(k + 1) * rows]);
            self.op
                .site(eng, self.src, self.psi, osite, self.sweep, out, part);
        }
    }
}

/// The Wilson fermion operator `M = (m + 4)·1 − ½ Dh` on a fixed gauge
/// background.
pub struct WilsonDirac<E: SveFloat = f64> {
    grid: Arc<Grid<E>>,
    u: Field<GaugeKind, E>,
    stencil: Stencil<E>,
    /// The bare quark mass `m`.
    pub mass: f64,
    /// Two-row compressed link mode: read only the first two rows of every
    /// link and reconstruct the third as the conjugate cross product.
    two_row: bool,
}

impl<E: SveFloat> WilsonDirac<E> {
    /// Build the operator for gauge configuration `u` and bare mass `mass`.
    pub fn new(u: Field<GaugeKind, E>, mass: f64) -> Self {
        let grid = u.grid().clone();
        let stencil = Stencil::new(grid.clone());
        WilsonDirac {
            grid,
            u,
            stencil,
            mass,
            two_row: false,
        }
    }

    /// Build the operator in **two-row compressed** link mode: the dslash
    /// reads only rows 0 and 1 of each SU(3) link (12 scalars instead of 18)
    /// and reconstructs the third row on the fly as the conjugate cross
    /// product of the first two — the in-memory form of the paper-era
    /// two-row gauge compression, trading `8 × 6` link scalars of memory
    /// traffic per site for `8 × 3` extra complex cross products of compute.
    /// For exactly-unitary links the result matches the full-link operator
    /// to rounding (the third row *is* that cross product).
    pub fn new_two_row(u: Field<GaugeKind, E>, mass: f64) -> Self {
        let mut d = Self::new(u, mass);
        d.two_row = true;
        d
    }

    /// Whether links are read in two-row compressed mode.
    pub fn two_row(&self) -> bool {
        self.two_row
    }

    /// The lattice.
    pub fn grid(&self) -> &Arc<Grid<E>> {
        &self.grid
    }

    /// The gauge configuration.
    pub fn gauge(&self) -> &Field<GaugeKind, E> {
        &self.u
    }

    /// The hopping term `Dh ψ` (paper Eq. (1)).
    pub fn hopping(&self, psi: &Field<FermionKind, E>) -> Field<FermionKind, E> {
        self.hopping_impl(psi, false)
    }

    /// The adjoint hopping term `Dh† ψ` — same color structure with the
    /// projector signs swapped.
    pub fn hopping_dag(&self, psi: &Field<FermionKind, E>) -> Field<FermionKind, E> {
        self.hopping_impl(psi, true)
    }

    /// `out = Dh ψ` without allocating, at any width.
    pub fn hopping_into(&self, psi: &Field<FermionKind, E>, out: &mut Field<FermionKind, E>) {
        self.hopping_fused(psi, out, false, None, None, None);
    }

    /// `out = Dh† ψ` without allocating.
    pub fn hopping_dag_into(&self, psi: &Field<FermionKind, E>, out: &mut Field<FermionKind, E>) {
        self.hopping_fused(psi, out, true, None, None, None);
    }

    /// `out = M† M ψ` returning `Re ⟨ψ, M†M ψ⟩` fused into the second
    /// sweep — the CG curvature term at zero extra memory traffic: one
    /// application of [`Dirac::normal`].
    pub fn mdag_m_into_dot(
        &self,
        psi: &Field<FermionKind, E>,
        tmp: &mut Field<FermionKind, E>,
        out: &mut Field<FermionKind, E>,
    ) -> f64 {
        let mut dot = 0.0;
        self.normal(tmp)
            .apply(psi, out, std::slice::from_mut(&mut dot));
        dot
    }

    /// `out = M† M ψ` for every RHS of a block, returning the per-RHS CG
    /// curvature terms `Re ⟨ψ_j, M†M ψ_j⟩` — each bit-identical to
    /// [`Self::mdag_m_into_dot`] on RHS `j` alone. Each sweep runs in a
    /// `dirac.block` trace region.
    pub fn mdag_m_block_into_dot(
        &self,
        psi: &FermionBlock<E>,
        tmp: &mut FermionBlock<E>,
        out: &mut FermionBlock<E>,
    ) -> Vec<f64> {
        let mut dots = vec![0.0; psi.width()];
        self.normal(tmp).apply(psi, out, &mut dots);
        dots
    }

    fn hopping_impl(&self, psi: &Field<FermionKind, E>, dagger: bool) -> Field<FermionKind, E> {
        let mut out = Field::<FermionKind, E>::zero(self.grid.clone());
        let _span = qcd_trace::span!(
            if dagger { "dirac.hop_dag" } else { "dirac.hop" },
            self.grid.engine().ctx()
        );
        self.hopping_fused(psi, &mut out, dagger, None, None, None);
        out
    }

    /// The one parallel sweep behind every hopping/apply variant, at every
    /// width: per chunk of [`reduce::CHUNK_SITES`] outer sites, [`Self::site`]
    /// computes each right-hand side's eight-leg accumulator with every leg
    /// resolved once per site, optionally fuses the `(m+4)ψ − ½(·)` mass
    /// axpy into the store (`mass_axpy = Some(m+4)`), and optionally takes
    /// each site's per-RHS values of `Re ⟨dot_with, out⟩` from the words
    /// just stored; `dot = (dot_with, sums)` receives their canonical sums
    /// as [`Field::norms2_into`] takes a norm. `fifth = Some(m_f)` makes
    /// `psi` a domain-wall block of `Ls` slices and adds each slice's
    /// site-local 5-d terms in the store ([`crate::dwf`]).
    ///
    /// Per RHS the engine-op sequence — projection, colour multiply,
    /// reconstruction, fused mass axpy — is that of the unfused path
    /// (`scale(-0.5)` then `axpy(m+4, ψ)`), and the fused dot is the
    /// reduction [`Field::inner`] takes, so RHS `j` of any result is
    /// bit-identical to its unfused counterpart on RHS `j` alone. The
    /// recorded bytes credit link data once per site, not once per RHS.
    pub(crate) fn hopping_fused(
        &self,
        psi: &Field<FermionKind, E>,
        out: &mut Field<FermionKind, E>,
        dagger: bool,
        mass_axpy: Option<f64>,
        dot: Option<(&Field<FermionKind, E>, &mut [f64])>,
        fifth: Option<f64>,
    ) {
        let width = psi.width();
        crate::sized!(self.grid.engine(), |eng| {
            let stride = out.site_stride();
            let cs = reduce::CHUNK_SITES * stride;
            let (dot_with, sums) = dot.unzip();
            if let Some(d) = dot_with {
                assert!(
                    Arc::ptr_eq(d.grid(), &self.grid) && d.width() == width,
                    "dot field lives on a different grid or holds another width"
                );
            }
            let sweep = Sweep {
                fifth: fifth.map(|mf| [1.0, -1.0, mf].map(|c| eng.dup_real(c))),
                dot_with,
                ..Sweep::new(eng, dagger, mass_axpy)
            };
            self.record_pass(psi, out, &sweep, self.grid.volume());
            // `part` holds a chunk's per-site per-RHS values of the dots,
            // when there are any.
            let kernel = |ci: usize, out: &mut [E], part: Option<&mut [f64]>| {
                eng.fused(HopSites {
                    op: self,
                    src: &Local,
                    psi,
                    sweep: &sweep,
                    sites: Sites::From(ci * reduce::CHUNK_SITES),
                    out,
                    part,
                })
            };
            let data = out.data_mut().par_chunks_mut(cs);
            match sums {
                None => data
                    .enumerate()
                    .for_each(|(ci, chunk)| kernel(ci, chunk, None)),
                Some(sums) => {
                    let dotted =
                        |ci, chunk: &mut [E], part: &mut [f64]| kernel(ci, chunk, Some(part));
                    reduce::sweep_sums(&self.grid, data, dotted, width, sums);
                }
            }
        })
    }

    /// Check that `psi` and `out` live on the operator's grid at one width
    /// and credit a pass of `sweep` over `sites` lattice sites to the
    /// innermost trace region (the distributed operator records each pass).
    pub(crate) fn record_pass<const N: usize>(
        &self,
        psi: &Field<FermionKind, E>,
        out: &Field<FermionKind, E>,
        sweep: &Sweep<'_, E, N>,
        sites: usize,
    ) {
        assert!(
            Arc::ptr_eq(psi.grid(), &self.grid),
            "fermion field lives on a different grid"
        );
        assert!(
            Arc::ptr_eq(out.grid(), &self.grid),
            "output field lives on a different grid"
        );
        assert_eq!(
            out.width(),
            psi.width(),
            "fermion fields hold different numbers of right-hand sides"
        );
        let (sites, n, esize) = (sites as u64, psi.width() as u64, E::BYTES as u64);
        let mut flops = HOPPING_FLOPS_PER_SITE;
        let mut reads_per_rhs = 8 * 24;
        if sweep.mass.is_some() {
            flops += FUSED_MASS_AXPY_FLOPS_PER_SITE;
            reads_per_rhs += HOPPING_WRITES_PER_SITE;
        }
        if sweep.dot_with.is_some() {
            flops += FUSED_DOT_FLOPS_PER_SITE;
            reads_per_rhs += HOPPING_WRITES_PER_SITE;
        }
        qcd_trace::record_sites(sites * n);
        qcd_trace::record_flops(sites * n * flops);
        qcd_trace::record_bytes(
            sites * (n * reads_per_rhs + 8 * self.link_scalars() as u64) * esize,
            sites * n * HOPPING_WRITES_PER_SITE * esize,
        );
    }

    /// The hopping term at one outer site for every right-hand side of
    /// `psi`: the eight legs resolved once ([`Self::legs`]), then per RHS
    /// [`Leg::run`] with its neighbour words fetched through the stencil and
    /// handed to `src`, and the store ([`store_spinor`]) into that RHS's
    /// words of `out` (the site's words), and the fused dot's values into
    /// `part`. Inlined into [`HopSites`], the one chunk kernel every sweep
    /// and both passes of the distributed operator share.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn site<'a, const N: usize, C: HostCopy, S: Neighbours>(
        &self,
        eng: &Words<'_, E, N, C>,
        src: &S,
        psi: &'a Field<FermionKind, E>,
        osite: usize,
        sweep: &Sweep<'a, E, N>,
        out: &mut [E],
        mut part: Option<&mut [f64]>,
    ) {
        let (width, lanes) = (psi.width(), self.grid.lanes_c());
        let rhs = NCOMP * eng.word_len();
        let words = osite * out.len()..(osite + 1) * out.len();
        let psi_site = &psi.data()[words.clone()];
        let dot_site = sweep.dot_with.map(
            #[inline(always)]
            |d| &d.data()[words],
        );
        let legs = self.legs(eng, src, osite, sweep.dagger);
        // The closures below are arguments, so each carries the attribute:
        // one left out of line would be compiled outside the entered copy.
        for (j, ours) in out.chunks_exact_mut(rhs).enumerate() {
            let mut acc = [eng.zero(); NCOMP];
            for leg in &legs {
                let crossing = src.crossing(osite, leg.mu, leg.forward);
                leg.run(
                    eng,
                    #[inline(always)]
                    |comp| {
                        let v = self.stencil.fetch(eng, psi, j * NCOMP + comp, leg.entry);
                        match crossing {
                            Some(x) => x.spinor(eng, comp, v),
                            None => v,
                        }
                    },
                    &mut acc,
                );
            }
            let fifth = sweep.fifth.map(
                #[inline(always)]
                |[one, minus_one, mf]| {
                    let [(p, p_wraps), (m, m_wraps)] =
                        crate::dwf::slice_legs(width, j, sweep.dagger);
                    let coef = |wraps| if wraps { mf } else { minus_one };
                    let (plus, minus) = (&psi_site[p * rhs..][..rhs], &psi_site[m * rhs..][..rhs]);
                    (one, [(coef(p_wraps), plus), (coef(m_wraps), minus)])
                },
            );
            store_spinor(
                eng,
                &acc,
                sweep.mass,
                sweep.neg_half,
                &psi_site[j * rhs..][..rhs],
                fifth,
                ours,
            );
            if let (Some(d), Some(part)) = (dot_site, part.as_deref_mut()) {
                let (d, part) = (&d[j * rhs..][..rhs], &mut part[j * lanes..(j + 1) * lanes]);
                reduce::site_dots::<E>(d, ours, part);
            }
        }
    }

    /// The neighbour stencil (the distributed operator finds its faces and
    /// boundary sites in it).
    pub(crate) fn stencil(&self) -> &Stencil<E> {
        &self.stencil
    }

    /// The eight legs of the hopping term at outer site `osite` — the one
    /// loop every sweep runs. Per leg it resolves the stencil entry, the
    /// projector — paper convention `(1+γµ)` on the forward leg, `(1−γµ)` on
    /// the backward one, swapped by the adjoint — and the link: `U_µ` at the
    /// site forward, at the neighbour backward (`U_{x−µ̂,µ}`, lane-permuted
    /// like the spinor data and patched where it crosses a rank boundary),
    /// its third row reconstructed from the first two in two-row mode.
    /// [`Self::site`] then runs [`Leg::run`] once per right-hand side: the
    /// links sit on the stack, 8 × 9 words, for the whole site.
    #[inline(always)]
    fn legs<const N: usize, C: HostCopy, S: Neighbours>(
        &self,
        eng: &Words<'_, E, N, C>,
        src: &S,
        osite: usize,
        dagger: bool,
    ) -> [Leg<N>; 8] {
        let mut legs = [Leg {
            mu: 0,
            forward: true,
            entry: self.stencil.leg(dir_index(0, true), osite),
            proj: proj_table(0, !dagger),
            link: [[eng.zero(); NCOLOR]; NCOLOR],
        }; 8];
        for (i, leg) in legs.iter_mut().enumerate() {
            let (mu, forward) = (i / 2, i % 2 == 0);
            let entry = self.stencil.leg(dir_index(mu, forward), osite);
            let crossing = src.crossing(osite, mu, forward);
            let mut link = [[eng.zero(); NCOLOR]; NCOLOR];
            for (r, row) in link.iter_mut().take(self.link_rows()).enumerate() {
                for (c, w) in row.iter_mut().enumerate() {
                    let comp = gauge_comp(mu, r, c);
                    *w = match (forward, crossing) {
                        (true, _) => eng.load(self.u.word(osite, comp)),
                        (false, None) => self.stencil.fetch(eng, &self.u, comp, entry),
                        (false, Some(x)) => {
                            x.link(eng, r, c, self.stencil.fetch(eng, &self.u, comp, entry))
                        }
                    };
                }
            }
            if self.two_row {
                link[2] = reconstruct_row2(eng, &link[0], &link[1]);
            }
            *leg = Leg {
                mu,
                forward,
                entry,
                proj: proj_table(mu, forward ^ dagger),
                link,
            };
        }
        legs
    }

    /// Link scalars actually read per link by the dslash (18 full, 12 in
    /// two-row compressed mode).
    #[inline]
    pub(crate) fn link_scalars(&self) -> usize {
        if self.two_row {
            LINK_SCALARS_TWO_ROW
        } else {
            LINK_SCALARS_FULL
        }
    }

    /// Rows of a link the dslash reads: all three, or rows 0 and 1 in
    /// two-row mode.
    #[inline]
    pub(crate) fn link_rows(&self) -> usize {
        if self.two_row {
            2
        } else {
            NCOLOR
        }
    }
}

/// A fermion operator `M` on vectors of type `V` — Grid's fermion-action
/// seam. An operator writes one sweep, [`m_into`](Self::m_into); applying
/// it, its adjoint, the normal operator `M†M` and the space CG inverts that
/// operator in ([`normal`](Self::normal)) are written once, here.
///
/// A sweep whose intermediates need storage owns it, as
/// [`crate::comms::RankCtx`] owns its message shells: the distributed
/// operator its face buffers, the Schur complement its hopping
/// intermediates. So every method takes the operator by shared reference.
pub trait Dirac<V: Vector> {
    /// `out = M ψ`, or `M† ψ` when `dagger`; with `dot = Some((d, sums))`,
    /// also the per-RHS `Re ⟨d_j, out_j⟩` into `sums`, fused into the
    /// sweep where the operator fuses it.
    fn m_into(&self, psi: &V, out: &mut V, dagger: bool, dot: Option<(&V, &mut [f64])>);

    /// `out = M ψ` without allocating.
    fn apply_into(&self, psi: &V, out: &mut V) {
        self.m_into(psi, out, false, None);
    }

    /// `out = M† ψ` without allocating.
    fn apply_dag_into(&self, psi: &V, out: &mut V) {
        self.m_into(psi, out, true, None);
    }

    /// `M ψ`.
    fn apply(&self, psi: &V) -> V {
        let mut out = psi.zero_like();
        self.apply_into(psi, &mut out);
        out
    }

    /// `M† ψ`.
    fn apply_dag(&self, psi: &V) -> V {
        let mut out = psi.zero_like();
        self.apply_dag_into(psi, &mut out);
        out
    }

    /// `out = M† M ψ` using caller-provided storage (`tmp` holds `M ψ`).
    fn mdag_m_into(&self, psi: &V, tmp: &mut V, out: &mut V) {
        self.apply_into(psi, tmp);
        self.apply_dag_into(tmp, out);
    }

    /// The normal operator `M† M ψ` — hermitian positive definite, the
    /// operator Conjugate Gradient inverts.
    fn mdag_m(&self, psi: &V) -> V {
        let (mut tmp, mut out) = (psi.zero_like(), psi.zero_like());
        self.mdag_m_into(psi, &mut tmp, &mut out);
        out
    }

    /// The space of the normal equations `M†M x = b` for
    /// [`crate::krylov::cg_solve`], with `tmp` the caller-held `M p` and the
    /// curvature `Re ⟨p_j, M†M p_j⟩` taken in the second sweep. A
    /// steady-state iteration allocates nothing the sweeps do not.
    fn normal<'a>(&'a self, tmp: &'a mut V) -> Normal<'a, Self, V> {
        Normal { op: self, tmp }
    }

    /// The operator's own space, `M x = b`, for [`crate::krylov::bicgstab`]:
    /// `M p` in one sweep, no curvature taken.
    fn direct(&self) -> Direct<'_, Self, V> {
        Direct(self, PhantomData)
    }
}

/// The same operator at element type `E2`, in the same link mode: the
/// replica a precision tier or a binary16 smoother sweeps.
impl<E: SveFloat> Replica for WilsonDirac<E> {
    type V<E2: SveFloat> = Field<FermionKind, E2>;
    type At<E2: SveFloat> = WilsonDirac<E2>;

    fn replica<E2: SveFloat>(&self) -> WilsonDirac<E2> {
        let mut op = WilsonDirac::new(to_precision(&self.u, &self.grid.at()), self.mass);
        op.two_row = self.two_row;
        op
    }
}

impl<E: SveFloat> AsRef<Arc<Grid<E>>> for WilsonDirac<E> {
    fn as_ref(&self) -> &Arc<Grid<E>> {
        &self.grid
    }
}

/// The CG space of [`Dirac::normal`].
pub struct Normal<'a, D: ?Sized, V> {
    op: &'a D,
    tmp: &'a mut V,
}

impl<D: Dirac<V> + ?Sized, V: Vector> CgSpace for Normal<'_, D, V> {
    type V = V;

    fn apply(&mut self, p: &V, ap: &mut V, curv: &mut [f64]) {
        self.op.m_into(p, self.tmp, false, None);
        self.op.m_into(self.tmp, ap, true, Some((p, curv)));
    }
}

/// The Wilson operator on a field of any width: one fused sweep, the
/// `(m+4)ψ − ½(·)` mass axpy in its store and the dot taken from the words
/// just stored.
impl<E: SveFloat> Dirac<Field<FermionKind, E>> for WilsonDirac<E> {
    fn m_into(
        &self,
        psi: &Field<FermionKind, E>,
        out: &mut Field<FermionKind, E>,
        dagger: bool,
        dot: Option<(&Field<FermionKind, E>, &mut [f64])>,
    ) {
        self.hopping_fused(psi, out, dagger, Some(self.mass + 4.0), dot, None);
    }
}

/// The Wilson operator on a block of right-hand sides: the field's sweep,
/// with one scalar per RHS, each sweep in a `dirac.block` trace region.
impl<E: SveFloat> Dirac<FermionBlock<E>> for WilsonDirac<E> {
    fn m_into(
        &self,
        psi: &FermionBlock<E>,
        out: &mut FermionBlock<E>,
        dagger: bool,
        dot: Option<(&FermionBlock<E>, &mut [f64])>,
    ) {
        let _span = qcd_trace::span!("dirac.block", self.grid.engine().ctx());
        let dot = dot.map(|(d, sums)| (&**d, sums));
        self.hopping_fused(psi, out, dagger, Some(self.mass + 4.0), dot, None);
    }
}

/// The space of [`Dirac::direct`].
pub struct Direct<'a, D: ?Sized, V>(&'a D, PhantomData<fn(&V)>);

impl<D: Dirac<V> + ?Sized, V: Vector> CgSpace for Direct<'_, D, V> {
    type V = V;

    fn apply(&mut self, p: &V, ap: &mut V, _: &mut [f64]) {
        self.0.m_into(p, ap, false, None);
    }
}

/// Site-local gauge multiply: `out(x) = U_µ(x) ψ(x)` (or `U†_µ(x) ψ(x)`),
/// applied to every spin component. A building block of the
/// cshift-composition form of the hopping term, the reference the fused
/// kernel is tested against.
pub fn mult_gauge<E: SveFloat>(
    u: &Field<GaugeKind, E>,
    mu: usize,
    psi: &Field<FermionKind, E>,
    dagger: bool,
) -> Field<FermionKind, E> {
    assert!(Arc::ptr_eq(u.grid(), psi.grid()));
    let grid = psi.grid().clone();
    crate::sized!(grid.engine(), |eng| {
        let mut out = Field::<FermionKind, E>::zero(grid.clone());
        for osite in 0..grid.osites() {
            let uw: [[CVec<_>; NCOLOR]; NCOLOR] = std::array::from_fn(|r| {
                std::array::from_fn(|c| eng.load(u.word(osite, crate::field::gauge_comp(mu, r, c))))
            });
            for s in 0..NSPIN {
                let v: [CVec<_>; NCOLOR] =
                    std::array::from_fn(|c| eng.load(psi.word(osite, spinor_comp(s, c))));
                let r = if dagger {
                    mat_dag_vec(eng, &uw, &v)
                } else {
                    mat_vec(eng, &uw, &v)
                };
                for c in 0..NCOLOR {
                    eng.store(out.word_mut(osite, spinor_comp(s, c)), r[c]);
                }
            }
        }
        out
    })
}

/// Site-local spin projection + reconstruction: `out(x) = (1 ± γµ) ψ(x)`.
pub fn proj_recon<E: SveFloat>(
    mu: usize,
    plus: bool,
    psi: &Field<FermionKind, E>,
) -> Field<FermionKind, E> {
    let grid = psi.grid().clone();
    crate::sized!(grid.engine(), |eng| {
        let t = proj_table(mu, plus);
        let mut out = Field::<FermionKind, E>::zero(grid.clone());
        for osite in 0..grid.osites() {
            for c in 0..NCOLOR {
                let mut h = [eng.zero(); 2];
                for (k, hw) in h.iter_mut().enumerate() {
                    let (src, coeff) = t.proj[k];
                    let sk = eng.load(psi.word(osite, spinor_comp(k, c)));
                    let ss = eng.load(psi.word(osite, spinor_comp(src, c)));
                    *hw = eng.add(sk, apply_coeff(eng, coeff, ss));
                }
                eng.store(out.word_mut(osite, spinor_comp(0, c)), h[0]);
                eng.store(out.word_mut(osite, spinor_comp(1, c)), h[1]);
                for k in 0..2 {
                    let (row, coeff) = t.recon[k];
                    let r = apply_coeff(eng, coeff, h[row]);
                    eng.store(out.word_mut(osite, spinor_comp(2 + k, c)), r);
                }
            }
        }
        out
    })
}

/// The hopping term assembled from whole-field primitives —
/// `Σµ { U_µ ∘ (1+γµ) ∘ cshift(+µ) + cshift(−µ) ∘ U†_µ ∘ (1−γµ) } ψ` —
/// the reference oracle the fused kernel is tested against. Slower than the
/// fused stencil kernel, bit-compatible physics.
pub fn hopping_via_cshift<E: SveFloat>(
    u: &Field<GaugeKind, E>,
    psi: &Field<FermionKind, E>,
) -> Field<FermionKind, E> {
    use crate::cshift::cshift;
    let grid = psi.grid().clone();
    let mut out = Field::<FermionKind, E>::zero(grid);
    for mu in 0..4 {
        // Forward: U_µ(x) (1+γµ) ψ(x+µ̂).
        let fwd = mult_gauge(u, mu, &proj_recon(mu, true, &cshift(psi, mu, 1)), false);
        out.add_assign_field(&fwd);
        // Backward: cshift_{−µ} of U†_µ (1−γµ) ψ.
        let bwd = cshift(
            &mult_gauge(u, mu, &proj_recon(mu, false, psi), true),
            mu,
            -1,
        );
        out.add_assign_field(&bwd);
    }
    out
}

/// Multiply a fermion field by γ5 (diag(1,1,−1,−1) on the spin index).
pub fn gamma5<E: SveFloat>(psi: &Field<FermionKind, E>) -> Field<FermionKind, E> {
    let mut out = psi.clone();
    gamma5_inplace(&mut out);
    out
}

/// Multiply a fermion field by γ5 in place (negate spin components 2, 3 of
/// every right-hand side) — the allocation-free form the fused even-odd
/// solver uses.
pub fn gamma5_inplace<E: SveFloat>(psi: &mut Field<FermionKind, E>) {
    let grid = psi.grid().clone();
    crate::sized!(grid.engine(), |eng| {
        let word = eng.word_len();
        psi.data_mut()
            .par_chunks_mut(NCOMP * word)
            .for_each(|spinor| {
                for s in 2..NSPIN {
                    for c in 0..NCOLOR {
                        let comp = spinor_comp(s, c);
                        let w = &mut spinor[comp * word..(comp + 1) * word];
                        let v = eng.load(w);
                        let n = eng.neg(v);
                        eng.store(w, n);
                    }
                }
            });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;
    use crate::field::FermionField;
    use crate::layout::Coor;
    use crate::simd::SimdBackend;
    use crate::tensor::su3::{random_gauge, unit_gauge};
    use sve::VectorLength;

    const L: Coor = [4, 4, 4, 4];

    fn grid(bits: usize, backend: SimdBackend) -> Arc<Grid> {
        Grid::new(L, VectorLength::of(bits), backend)
    }

    fn rel_close(a: &FermionField, b: &FermionField, tol: f64) -> bool {
        let scale = b.norm2().sqrt().max(1.0);
        a.max_abs_diff(b) <= tol * scale
    }

    #[test]
    fn free_field_constant_spinor_is_operator_eigenvector() {
        // Unit gauge, constant ψ: Dh ψ = Σµ [(1+γµ) + (1−γµ)] ψ = 8 ψ,
        // so M ψ = (m + 4) ψ − 4 ψ = m ψ.
        let g = grid(512, SimdBackend::Fcmla);
        let d = WilsonDirac::new(unit_gauge(g.clone()), 0.3);
        let mut psi = FermionField::zero(g.clone());
        for x in g.coords() {
            for comp in 0..12 {
                psi.poke(&x, comp, Complex::new(1.0 + comp as f64, -0.5));
            }
        }
        let hop = d.hopping(&psi);
        let mut want = psi.clone();
        want.scale(8.0);
        assert!(rel_close(&hop, &want, 1e-12), "Dh ψ != 8ψ");
        let m = d.apply(&psi);
        let mut want_m = psi.clone();
        want_m.scale(0.3);
        assert!(rel_close(&m, &want_m, 1e-12), "M ψ != m ψ");
    }

    #[test]
    fn hopping_connects_only_opposite_parities() {
        let g = grid(256, SimdBackend::Fcmla);
        let d = WilsonDirac::new(random_gauge(g.clone(), 1), 0.1);
        // ψ supported on even sites only.
        let mut psi = FermionField::zero(g.clone());
        for x in g.coords() {
            if g.parity(&x) == 0 {
                psi.poke(&x, 0, Complex::ONE);
            }
        }
        let hop = d.hopping(&psi);
        for x in g.coords() {
            let on_even: f64 = (0..12).map(|c| hop.peek(&x, c).norm2()).sum();
            if g.parity(&x) == 0 {
                assert!(on_even < 1e-24, "Dh must vanish on even sites, {x:?}");
            }
        }
    }

    #[test]
    fn gamma5_hermiticity() {
        // γ5 M γ5 = M†: the standard Wilson-operator identity, checked as
        // fields on a random gauge background.
        let g = grid(512, SimdBackend::Fcmla);
        let d = WilsonDirac::new(random_gauge(g.clone(), 2), 0.2);
        let psi = FermionField::random(g.clone(), 3);
        let lhs = gamma5(&d.apply(&gamma5(&psi)));
        let rhs = d.apply_dag(&psi);
        assert!(rel_close(&lhs, &rhs, 1e-12));
    }

    #[test]
    fn adjoint_is_the_true_adjoint() {
        // <φ, M ψ> == <M† φ, ψ> for random fields.
        let g = grid(256, SimdBackend::Fcmla);
        let d = WilsonDirac::new(random_gauge(g.clone(), 4), 0.15);
        let phi = FermionField::random(g.clone(), 5);
        let psi = FermionField::random(g.clone(), 6);
        let a = phi.inner(&d.apply(&psi));
        let b = d.apply_dag(&phi).inner(&psi);
        assert!((a - b).abs() < 1e-9 * a.abs().max(1.0), "{a:?} vs {b:?}");
    }

    #[test]
    fn mdag_m_is_hermitian_positive() {
        let g = grid(256, SimdBackend::Fcmla);
        let d = WilsonDirac::new(random_gauge(g.clone(), 7), 0.1);
        let psi = FermionField::random(g.clone(), 8);
        let phi = FermionField::random(g.clone(), 9);
        let a = phi.inner(&d.mdag_m(&psi));
        let b = d.mdag_m(&phi).inner(&psi);
        assert!((a - b).abs() < 1e-9 * a.abs().max(1.0));
        let e = psi.inner(&d.mdag_m(&psi));
        assert!(e.re > 0.0);
        assert!(e.im.abs() < 1e-9 * e.re);
    }

    #[test]
    fn all_backends_agree_on_the_hopping_term() {
        // The same physics regardless of instruction strategy — Section
        // V-E's alternative implementation must be a drop-in replacement.
        let reference = {
            let g = grid(512, SimdBackend::Fcmla);
            let d = WilsonDirac::new(random_gauge(g.clone(), 10), 0.1);
            d.hopping(&FermionField::random(g.clone(), 11))
        };
        for backend in [SimdBackend::RealArith, SimdBackend::GenericAutovec] {
            let g = grid(512, backend);
            let d = WilsonDirac::new(random_gauge(g.clone(), 10), 0.1);
            let hop = d.hopping(&FermionField::random(g.clone(), 11));
            let diff: f64 = hop
                .data()
                .iter()
                .zip(reference.data())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(diff < 1e-12, "{backend:?} deviates by {diff}");
        }
    }

    #[test]
    fn hopping_term_is_identical_across_vector_lengths() {
        // Site values must agree bitwise across layouts (same per-site
        // arithmetic, only lane placement differs) — this is what the
        // paper's multi-VL ArmIE verification checks.
        let outputs: Vec<FermionField> = [128usize, 512, 2048]
            .iter()
            .map(|&bits| {
                let g = grid(bits, SimdBackend::Fcmla);
                let d = WilsonDirac::new(random_gauge(g.clone(), 12), 0.1);
                d.hopping(&FermionField::random(g.clone(), 13))
            })
            .collect();
        let g0 = outputs[0].grid().clone();
        for x in g0.coords() {
            for comp in 0..12 {
                let a = outputs[0].peek(&x, comp);
                for other in &outputs[1..] {
                    assert_eq!(a, other.peek(&x, comp), "{x:?} comp {comp}");
                }
            }
        }
    }

    #[test]
    fn cshift_composition_matches_the_stencil_kernel() {
        // Two independent formulations of Eq. (1) — the fused stencil
        // kernel and the whole-field cshift composition — must agree.
        for backend in [SimdBackend::Fcmla, SimdBackend::RealArith] {
            let g = grid(512, backend);
            let u = random_gauge(g.clone(), 15);
            let psi = FermionField::random(g.clone(), 16);
            let d = WilsonDirac::new(u.clone(), 0.1);
            let fused = d.hopping(&psi);
            let composed = hopping_via_cshift(&u, &psi);
            assert!(
                rel_close(&fused, &composed, 1e-12),
                "{backend:?}: max diff {}",
                fused.max_abs_diff(&composed)
            );
        }
    }

    #[test]
    fn proj_recon_matches_scalar_gamma_algebra() {
        use crate::tensor::gamma::Gamma;
        let g = grid(256, SimdBackend::Fcmla);
        let psi = FermionField::random(g.clone(), 17);
        for mu in 0..4 {
            for plus in [true, false] {
                let out = proj_recon(mu, plus, &psi);
                let sign = if plus { 1.0 } else { -1.0 };
                for x in g.coords().step_by(13) {
                    for c in 0..3 {
                        let s: [Complex; 4] =
                            std::array::from_fn(|sp| psi.peek(&x, spinor_comp(sp, c)));
                        let gs = Gamma::dir(mu).apply(&s);
                        for sp in 0..4 {
                            let want = s[sp] + gs[sp] * sign;
                            let got = out.peek(&x, spinor_comp(sp, c));
                            assert!((got - want).abs() < 1e-13, "mu={mu} plus={plus}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn mult_gauge_then_dagger_is_identity() {
        let g = grid(256, SimdBackend::Fcmla);
        let u = random_gauge(g.clone(), 18);
        let psi = FermionField::random(g.clone(), 19);
        for mu in 0..4 {
            let round = mult_gauge(&u, mu, &mult_gauge(&u, mu, &psi, false), true);
            assert!(rel_close(&round, &psi, 1e-12), "mu={mu}");
        }
    }

    #[test]
    fn gamma5_is_an_involution() {
        let g = grid(256, SimdBackend::Fcmla);
        let psi = FermionField::random(g.clone(), 14);
        let twice = gamma5(&gamma5(&psi));
        assert_eq!(twice.max_abs_diff(&psi), 0.0);
    }

    #[test]
    fn block_kernels_match_single_rhs_bitwise_per_rhs() {
        // The heart of the batched path's correctness story: every RHS of
        // the one sweep at width N must be bit-identical to the sweep at
        // width one on that RHS alone — including N = 1.
        use crate::field::FermionBlock;
        for nrhs in [1usize, 3] {
            let g = grid(512, SimdBackend::Fcmla);
            let d = WilsonDirac::new(random_gauge(g.clone(), 30), 0.2);
            let fields: Vec<FermionField> = (0..nrhs)
                .map(|i| FermionField::random(g.clone(), 31 + i as u64))
                .collect();
            let block = FermionBlock::from_fields(&fields);
            let mut tmp = FermionBlock::zero(g.clone(), nrhs);
            let mut out = FermionBlock::zero(g.clone(), nrhs);

            // hopping
            d.hopping_into(&block, &mut out);
            for (j, f) in fields.iter().enumerate() {
                let mut want = FermionField::zero(g.clone());
                d.hopping_into(f, &mut want);
                assert_eq!(out.rhs_field(j).max_abs_diff(&want), 0.0, "hop rhs {j}");
            }
            // hopping_dag
            d.hopping_dag_into(&block, &mut out);
            for (j, f) in fields.iter().enumerate() {
                let mut want = FermionField::zero(g.clone());
                d.hopping_dag_into(f, &mut want);
                assert_eq!(out.rhs_field(j).max_abs_diff(&want), 0.0, "hopdag rhs {j}");
            }
            // apply (fused mass)
            d.apply_into(&block, &mut out);
            for (j, f) in fields.iter().enumerate() {
                let mut want = FermionField::zero(g.clone());
                d.apply_into(f, &mut want);
                assert_eq!(out.rhs_field(j).max_abs_diff(&want), 0.0, "apply rhs {j}");
            }
            // mdag_m with fused curvature dot
            let dots = d.mdag_m_block_into_dot(&block, &mut tmp, &mut out);
            for (j, f) in fields.iter().enumerate() {
                let mut ft = FermionField::zero(g.clone());
                let mut fo = FermionField::zero(g.clone());
                let want_dot = d.mdag_m_into_dot(f, &mut ft, &mut fo);
                assert_eq!(tmp.rhs_field(j).max_abs_diff(&ft), 0.0, "tmp rhs {j}");
                assert_eq!(out.rhs_field(j).max_abs_diff(&fo), 0.0, "out rhs {j}");
                assert_eq!(dots[j].to_bits(), want_dot.to_bits(), "dot rhs {j}");
            }
        }
    }

    #[test]
    fn gamma5_block_matches_per_field_bitwise() {
        use crate::field::FermionBlock;
        let g = grid(256, SimdBackend::Fcmla);
        let fields: Vec<FermionField> = (0..3)
            .map(|i| FermionField::random(g.clone(), 40 + i))
            .collect();
        let mut block = FermionBlock::from_fields(&fields);
        gamma5_inplace(&mut block);
        for (j, f) in fields.iter().enumerate() {
            let mut want = f.clone();
            gamma5_inplace(&mut want);
            assert_eq!(block.rhs_field(j).max_abs_diff(&want), 0.0, "rhs {j}");
        }
    }

    #[test]
    fn two_row_operator_matches_full_links_to_rounding() {
        // random_gauge produces exactly-unitary links, so the reconstructed
        // third row differs from the stored one only by rounding.
        let g = grid(512, SimdBackend::Fcmla);
        let u = random_gauge(g.clone(), 50);
        let full = WilsonDirac::new(u.clone(), 0.15);
        let two = WilsonDirac::new_two_row(u, 0.15);
        assert!(two.two_row() && !full.two_row());
        let psi = FermionField::random(g.clone(), 51);
        let a = full.apply(&psi);
        let b = two.apply(&psi);
        assert!(rel_close(&a, &b, 1e-12), "diff {}", a.max_abs_diff(&b));
        // And through the normal operator (both legs, forward + backward).
        let c = full.mdag_m(&psi);
        let d2 = two.mdag_m(&psi);
        assert!(rel_close(&c, &d2, 1e-11), "diff {}", c.max_abs_diff(&d2));
    }

    #[test]
    fn two_row_block_matches_two_row_single_bitwise() {
        // Compression mode and batching compose: the block kernel in
        // two-row mode is still bit-identical per RHS to the single-RHS
        // two-row kernel.
        use crate::field::FermionBlock;
        let g = grid(256, SimdBackend::Fcmla);
        let two = WilsonDirac::new_two_row(random_gauge(g.clone(), 52), 0.15);
        let fields: Vec<FermionField> = (0..2)
            .map(|i| FermionField::random(g.clone(), 53 + i))
            .collect();
        let block = FermionBlock::from_fields(&fields);
        let mut out = FermionBlock::zero(g.clone(), 2);
        two.apply_into(&block, &mut out);
        for (j, f) in fields.iter().enumerate() {
            let mut want = FermionField::zero(g.clone());
            two.apply_into(f, &mut want);
            assert_eq!(out.rhs_field(j).max_abs_diff(&want), 0.0, "rhs {j}");
        }
    }
}
