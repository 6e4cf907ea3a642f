//! Lattice fields over the virtual-node layout.
//!
//! A field stores, per outer site, `NCOMP` complex components, each as one
//! interleaved SIMD word (lane `l` = virtual node `l`). The backing store is
//! a flat `Vec<f64>` of ordinary scalars — precisely the paper's answer to
//! the sizeless-type restriction: "we use ordinary arrays as class member
//! data and implement SVE ACLE only for data processing within functions"
//! (Section V-A). Every arithmetic method below loads words, computes with
//! the engine's intrinsics and stores back.
//!
//! All linear algebra runs in parallel over fixed chunks of
//! [`reduce::CHUNK_SITES`] outer sites. Every reduction — `inner`, `norm2`,
//! the fused `*_norm2` sweeps, the CG update — writes one value per site and
//! sums them in global lexicographic site order ([`reduce`]), so its bits are
//! the same at every vector length and worker count: a solve, a checkpoint
//! and a resume are the same at VL128 as at VL2048. With a single worker
//! every operation degrades to a direct loop that allocates nothing; the
//! solvers' allocation-free steady state depends on that.

use crate::complex::Complex;
use crate::layout::{Coor, Grid};
use crate::reduce;
use crate::rng::{stream_id, uniform};
use crate::simd::{CVec, WordKernel, Words};
use rayon::prelude::*;
use std::marker::PhantomData;
use std::sync::Arc;
use sve::{HostCopy, SveFloat};

/// The tensor structure living on every site.
pub trait FieldKind: Send + Sync + 'static {
    /// Complex components per site.
    const NCOMP: usize;
    /// Human-readable name.
    const NAME: &'static str;
}

/// A single complex number per site.
pub struct ScalarKind;
impl FieldKind for ScalarKind {
    const NCOMP: usize = 1;
    const NAME: &'static str = "complex scalar";
}

/// A quark field: 4 spinor x 3 color components (12 complex per site,
/// "thus, ψ is a vector with 12 V complex entries" — paper, Section II-A).
pub struct FermionKind;
impl FieldKind for FermionKind {
    const NCOMP: usize = 12;
    const NAME: &'static str = "spin-color fermion";
}

/// The gauge field: one SU(3) matrix (9 complex) per direction, 4
/// directions.
pub struct GaugeKind;
impl FieldKind for GaugeKind {
    const NCOMP: usize = 36;
    const NAME: &'static str = "SU(3) gauge links";
}

/// Component index of spinor component (`spin`, `color`).
pub fn spinor_comp(spin: usize, color: usize) -> usize {
    spin * 3 + color
}

/// Component index of gauge-link entry (`mu`, `row`, `col`).
pub fn gauge_comp(mu: usize, row: usize, col: usize) -> usize {
    mu * 9 + row * 3 + col
}

/// A lattice field of kind `K`: at every outer site, `width` right-hand
/// sides of `NCOMP` component words each (site, RHS, component, lanes).
/// Every constructor but [`Field::zero_width`] and [`Field::from_fields`]
/// builds width one. A block of right-hand sides ([`FermionBlock`]) and a
/// 5-d fermion (`Fermion5`, one RHS per slice) are fields of their width;
/// every sweep below reads the width from its operands.
pub struct Field<K: FieldKind, E: SveFloat = f64> {
    grid: Arc<Grid<E>>,
    width: usize,
    data: Vec<E>,
    _k: PhantomData<K>,
}

/// A complex scalar field.
pub type ComplexField = Field<ScalarKind>;
/// A quark (spin-color) field.
pub type FermionField = Field<FermionKind>;
/// The SU(3) gauge configuration.
pub type GaugeField = Field<GaugeKind>;

impl<K: FieldKind, E: SveFloat> Clone for Field<K, E> {
    fn clone(&self) -> Self {
        Field {
            grid: self.grid.clone(),
            width: self.width,
            data: self.data.clone(),
            _k: PhantomData,
        }
    }
}

/// Entry `j` of a per-RHS list that holds one entry per right-hand side,
/// or one entry for all of them.
#[inline(always)]
fn per_rhs<T: Copy>(list: &[T], j: usize) -> T {
    list[if list.len() == 1 { 0 } else { j }]
}

/// The words of a per-RHS scalar list times `sign`, one `dup` per entry;
/// a list of one entry (a field's, or one scalar for every RHS) stays off
/// the heap.
enum Dups<const N: usize> {
    One(CVec<N>),
    Many(Vec<CVec<N>>),
}

impl<const N: usize> Dups<N> {
    fn new<E: SveFloat>(eng: &Words<'_, E, N>, list: &[f64], sign: f64) -> Self {
        match list {
            [a] => Dups::One(eng.dup_real(sign * a)),
            _ => Dups::Many(list.iter().map(|a| eng.dup_real(sign * a)).collect()),
        }
    }

    #[inline(always)]
    fn at(&self, j: usize) -> CVec<N> {
        match self {
            Dups::One(v) => *v,
            Dups::Many(vs) => vs[j],
        }
    }
}

impl<K: FieldKind, E: SveFloat> Field<K, E> {
    /// A zero field on `grid`.
    pub fn zero(grid: Arc<Grid<E>>) -> Self {
        Self::zero_width(grid, 1)
    }

    /// A zero field of `width` right-hand sides on `grid`.
    pub fn zero_width(grid: Arc<Grid<E>>, width: usize) -> Self {
        assert!(width >= 1, "a field stores at least one right-hand side");
        let word = grid.engine().word_len();
        let data = vec![E::zero(); grid.osites() * width * K::NCOMP * word];
        Field {
            grid,
            width,
            data,
            _k: PhantomData,
        }
    }

    /// Gather width-one `fields` into one field whose RHS `j` is
    /// `fields[j]` (bit-exact copies).
    pub fn from_fields(fields: &[Field<K, E>]) -> Self {
        assert!(
            !fields.is_empty(),
            "a field stores at least one right-hand side"
        );
        let mut f = Self::zero_width(fields[0].grid.clone(), fields.len());
        for (j, field) in fields.iter().enumerate() {
            f.set_rhs(j, field);
        }
        f
    }

    /// A field filled with layout-independent uniform noise in `[-1,1)`
    /// (same physical content for every vector length).
    pub fn random(grid: Arc<Grid<E>>, seed: u64) -> Self {
        let mut f = Self::zero(grid.clone());
        for x in grid.coords() {
            let gidx = grid.global_index(&x);
            for comp in 0..K::NCOMP {
                f.poke(
                    &x,
                    comp,
                    Complex::new(
                        uniform(seed, stream_id(gidx, comp, 0)),
                        uniform(seed, stream_id(gidx, comp, 1)),
                    ),
                );
            }
        }
        f
    }

    /// The lattice this field lives on.
    pub fn grid(&self) -> &Arc<Grid<E>> {
        &self.grid
    }

    /// Right-hand sides stored per outer site.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Scalars per site = `width * NCOMP * 2 * lanes_c`.
    pub fn site_stride(&self) -> usize {
        self.width * K::NCOMP * self.grid.engine().word_len()
    }

    /// One component's SIMD word at an outer site: component `comp` of the
    /// site's `width × NCOMP` (RHS `j`'s component `c` is `j·NCOMP + c`).
    /// Always inlined: fused sweeps call it inside the entered copy.
    #[inline(always)]
    pub fn word(&self, osite: usize, comp: usize) -> &[E] {
        let w = self.grid.engine().word_len();
        let off = (osite * self.width * K::NCOMP + comp) * w;
        &self.data[off..off + w]
    }

    /// Mutable SIMD word.
    #[inline]
    pub fn word_mut(&mut self, osite: usize, comp: usize) -> &mut [E] {
        let w = self.grid.engine().word_len();
        let off = (osite * self.width * K::NCOMP + comp) * w;
        &mut self.data[off..off + w]
    }

    /// Raw storage (site-major, RHS, component, interleaved lanes).
    pub fn data(&self) -> &[E] {
        &self.data
    }

    /// Mutable raw storage.
    pub fn data_mut(&mut self) -> &mut [E] {
        &mut self.data
    }

    /// Read component `comp` at global coordinate `x` (scalar path).
    pub fn peek(&self, x: &Coor, comp: usize) -> Complex {
        let (osite, lane) = self.grid.coor_to_osite_lane(x);
        let w = self.word(osite, comp);
        Complex::new(w[2 * lane].to_f64(), w[2 * lane + 1].to_f64())
    }

    /// Write component `comp` at global coordinate `x` (scalar path).
    pub fn poke(&mut self, x: &Coor, comp: usize, z: Complex) {
        let (osite, lane) = self.grid.coor_to_osite_lane(x);
        let w = self.word_mut(osite, comp);
        w[2 * lane] = E::from_f64(z.re);
        w[2 * lane + 1] = E::from_f64(z.im);
    }

    /// Overwrite RHS `j` with a width-one field's content (bit-exact).
    pub fn set_rhs(&mut self, j: usize, f: &Field<K, E>) {
        let rhs = self.one_rhs(j, f);
        for (o, site) in self.data.chunks_exact_mut(self.width * rhs).enumerate() {
            site[j * rhs..(j + 1) * rhs].copy_from_slice(&f.data[o * rhs..(o + 1) * rhs]);
        }
    }

    /// RHS `j` as a freshly allocated width-one field (bit-exact copy).
    pub fn rhs_field(&self, j: usize) -> Field<K, E> {
        let mut f = Field::zero(self.grid.clone());
        let rhs = self.one_rhs(j, &f);
        for (o, site) in f.data.chunks_exact_mut(rhs).enumerate() {
            site.copy_from_slice(&self.data[(o * self.width + j) * rhs..][..rhs]);
        }
        f
    }

    /// Scalars of one RHS at one site, once RHS `j` exists and `one` is a
    /// width-one field on the same grid.
    fn one_rhs(&self, j: usize, one: &Field<K, E>) -> usize {
        assert!(
            Arc::ptr_eq(&self.grid, &one.grid),
            "fields live on different grids"
        );
        assert!(one.width == 1 && j < self.width, "RHS index out of range");
        self.rhs_scalars()
    }

    fn assert_compatible(&self, other: &Field<K, E>) {
        assert!(
            Arc::ptr_eq(&self.grid, &other.grid),
            "fields live on different grids"
        );
        assert_eq!(
            self.width, other.width,
            "fields hold different numbers of right-hand sides"
        );
    }

    /// Scalars per parallel work unit / reduction chunk.
    #[inline]
    fn chunk_scalars(&self) -> usize {
        reduce::CHUNK_SITES * self.site_stride()
    }

    /// Scalars of one right-hand side at one site.
    #[inline]
    fn rhs_scalars(&self) -> usize {
        K::NCOMP * self.grid.engine().word_len()
    }

    /// `self = a * x + y` lane-wise (one fused `fmla` per word).
    pub fn axpy(&mut self, a: f64, x: &Field<K, E>, y: &Field<K, E>) {
        self.update(Op::Axpy(a), &[x, y], EVERY_RHS, None);
    }

    /// `self += a * x`.
    pub fn axpy_inplace(&mut self, a: f64, x: &Field<K, E>) {
        self.update(Op::AxpyInPlace(a), &[x], EVERY_RHS, None);
    }

    /// `self = x + a * self` (the CG search-direction update).
    pub fn aypx(&mut self, a: f64, x: &Field<K, E>) {
        self.aypx_rhs(&[a], x, EVERY_RHS);
    }

    /// `self_j = x_j + a_j * self_j` on every RHS `j` that is `active`;
    /// the words of the others are not even loaded. `a` and `active` hold
    /// one entry per RHS, or one for all.
    pub fn aypx_rhs(&mut self, a: &[f64], x: &Field<K, E>, active: &[bool]) {
        self.update(Op::Aypx(a), &[x], active, None);
    }

    /// `self *= a` (real scale).
    pub fn scale(&mut self, a: f64) {
        self.update(Op::Scale(a), &[], EVERY_RHS, None);
    }

    /// `self = x - y`.
    pub fn sub(&mut self, x: &Field<K, E>, y: &Field<K, E>) {
        self.update(Op::Sub, &[x, y], EVERY_RHS, None);
    }

    /// `self = a * x + c * y` (two-term real linear combination, computed
    /// as `mul` then `fmla` — the exact op sequence of `scale` + `axpy`).
    pub fn scale_axpy_from(&mut self, a: f64, x: &Field<K, E>, c: f64, y: &Field<K, E>) {
        self.update(Op::ScaleAxpy(a, c), &[x, y], EVERY_RHS, None);
    }

    /// `self += a * x` with a complex scalar `a` (splat + complex FMA).
    pub fn axpy_complex(&mut self, a: Complex, x: &Field<K, E>) {
        self.update(Op::Caxpy(a), &[x], EVERY_RHS, None);
    }

    /// `self += x`.
    pub fn add_assign_field(&mut self, x: &Field<K, E>) {
        self.update(Op::Add, &[x], EVERY_RHS, None);
    }

    /// `self = y + a * x` with complex `a` — one sweep instead of
    /// `clone` + `axpy_complex`.
    pub fn caxpy_from(&mut self, a: Complex, x: &Field<K, E>, y: &Field<K, E>) {
        self.update(Op::CaxpyFrom(a), &[x, y], EVERY_RHS, None);
    }

    /// `self += a * x + b * y` with complex scalars — one sweep instead of
    /// two `axpy_complex` calls, same op sequence per word.
    pub fn caxpy2(&mut self, a: Complex, x: &Field<K, E>, b: Complex, y: &Field<K, E>) {
        self.update(Op::Caxpy2(a, b), &[x, y], EVERY_RHS, None);
    }

    /// The BiCGStab search-direction update `self = r + beta * (self -
    /// omega * v)`, fused into one sweep ([`Op::BicgP`]).
    pub fn bicg_p_update(
        &mut self,
        beta: Complex,
        omega: Complex,
        v: &Field<K, E>,
        r: &Field<K, E>,
    ) {
        self.update(Op::BicgP { beta, omega }, &[v, r], EVERY_RHS, None);
    }

    /// One sweep of `op` ([`Rewrite`]): every word of each RHS `j` that is
    /// `active` (one entry per RHS, or one for all) rewritten from the words
    /// of `inputs` (`x`, then `y`) at the same offset; the others are not
    /// loaded. `op`'s scalars are duplicated into words once, here. With
    /// `norms`, the per-RHS `|·|²` of the result go there as
    /// [`Self::norms2_into`] takes them, an inactive RHS's as 0.
    fn update(
        &mut self,
        op: Op<'_>,
        inputs: &[&Field<K, E>],
        active: &[bool],
        norms: Option<&mut [f64]>,
    ) {
        inputs.iter().for_each(|x| self.assert_compatible(x));
        let (rhs, cs) = (self.rhs_scalars(), self.chunk_scalars());
        let input = |i: usize| inputs.get(i).map_or(&[][..], |f| &f.data[..]);
        let (x, y) = (input(0), input(1));
        let Field {
            grid, width, data, ..
        } = self;
        let width = *width;
        crate::sized!(grid.engine(), |eng| {
            let (a, b) = op.words(eng);
            let kernel = |ci: usize, chunk: &mut [E], part: Option<&mut [f64]>| {
                eng.fused(Rewrite {
                    op,
                    a: &a,
                    b,
                    active,
                    base: ci * cs,
                    x,
                    y,
                    chunk,
                    part,
                    rhs,
                    width,
                })
            };
            let chunks = data.par_chunks_mut(cs);
            match norms {
                None => chunks
                    .enumerate()
                    .for_each(|(ci, chunk)| kernel(ci, chunk, None)),
                Some(out) => {
                    let kernel =
                        |ci, chunk: &mut [E], part: &mut [f64]| kernel(ci, chunk, Some(part));
                    reduce::sweep_sums(grid, chunks, kernel, width, out)
                }
            }
        })
    }

    /// Global inner product `⟨self, other⟩ = Σ conj(self) · other`, summed
    /// in the canonical order ([`reduce`]) per RHS, the RHS added in order.
    pub fn inner(&self, other: &Field<K, E>) -> Complex {
        self.assert_compatible(other);
        let mut z = [0.0; 2];
        let (rhs, lanes) = (self.rhs_scalars(), self.grid.lanes_c());
        let cs = self.chunk_scalars();
        let kernel = |ci: usize, chunk: &[E], part: &mut [f64]| {
            let b = other.data[ci * cs..].chunks_exact(rhs);
            for ((a, b), p) in chunk
                .chunks_exact(rhs)
                .zip(b)
                .zip(part.chunks_exact_mut(2 * lanes))
            {
                reduce::site_inners(a, b, p);
            }
        };
        let data = self.data.par_chunks(cs);
        reduce::sweep_sums(&self.grid, data, kernel, 2 * self.width, &mut z);
        Complex::new(z[0], z[1])
    }

    /// Global squared norm `|self|²`: the RHS's canonical sums added in
    /// RHS order.
    pub fn norm2(&self) -> f64 {
        let mut n = 0.0;
        self.norms2_into(std::slice::from_mut(&mut n));
        n
    }

    /// [`Self::norm2`] under the name stackbench's pinned source calls;
    /// removed by a `[benchmark]` PR.
    pub fn canonical_norm2(&self) -> f64 {
        self.norm2()
    }

    /// `|self_j|²` per RHS into `out`, or their sum in RHS order when `out`
    /// holds one entry.
    pub fn norms2_into(&self, out: &mut [f64]) {
        let (rhs, lanes) = (self.rhs_scalars(), self.grid.lanes_c());
        let kernel = |_, chunk: &[E], part: &mut [f64]| {
            for (a, p) in chunk.chunks_exact(rhs).zip(part.chunks_exact_mut(lanes)) {
                reduce::site_dots(a, a, p);
            }
        };
        let data = self.data.par_chunks(self.chunk_scalars());
        reduce::sweep_sums(&self.grid, data, kernel, self.width, out);
    }

    /// Fused `self += a * x; |self|^2` in one sweep, bit-identical to the
    /// unfused pair.
    pub fn axpy_norm2(&mut self, a: f64, x: &Field<K, E>) -> f64 {
        let mut n = 0.0;
        let norms = Some(std::slice::from_mut(&mut n));
        self.update(Op::AxpyInPlace(a), &[x], EVERY_RHS, norms);
        n
    }

    /// Fused `self = x - y` and `|self_j|²` into `out` as
    /// [`Self::norms2_into`] takes them, in one sweep.
    pub fn sub_norms2(&mut self, x: &Field<K, E>, y: &Field<K, E>, out: &mut [f64]) {
        self.update(Op::Sub, &[x, y], EVERY_RHS, Some(out));
    }

    /// Maximum absolute difference to another field (test metric).
    pub fn max_abs_diff(&self, other: &Field<K, E>) -> f64 {
        self.assert_compatible(other);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }
}

/// The CG iterate/residual update: for every active RHS `j`, `x_j +=
/// alpha_j * p_j`, `r_j -= alpha_j * ap_j`, and `|r_j|²` to `r2` as
/// [`Field::norms2_into`] takes them — one zipped sweep over `x` and `r`,
/// every word the op sequence of two `axpy_inplace` calls. `alpha` and
/// `active` hold one entry per RHS, or one for all. The words of an
/// inactive RHS are not loaded; its `|r_j|²` is 0.
pub fn cg_updates<K: FieldKind, E: SveFloat>(
    x: &mut Field<K, E>,
    r: &mut Field<K, E>,
    alpha: &[f64],
    (p, ap): (&Field<K, E>, &Field<K, E>),
    active: &[bool],
    r2: &mut [f64],
) {
    x.assert_compatible(r);
    x.assert_compatible(p);
    x.assert_compatible(ap);
    let (rhs, cs, width) = (x.rhs_scalars(), x.chunk_scalars(), x.width);
    let grid = x.grid.clone();
    crate::sized!(grid.engine(), |eng| {
        let (alpha, neg) = (Dups::new(eng, alpha, 1.0), Dups::new(eng, alpha, -1.0));
        let kernel = |ci: usize, (x, r): (&mut [E], &mut [E]), part: &mut [f64]| {
            eng.fused(CgUpdates {
                alpha: &alpha,
                neg: &neg,
                active,
                p: &p.data[ci * cs..],
                ap: &ap.data[ci * cs..],
                x,
                r,
                part,
                rhs,
                width,
            })
        };
        let data = x.data.par_chunks_mut(cs).zip(r.data.par_chunks_mut(cs));
        reduce::sweep_sums(&grid, data, kernel, width, r2);
    })
}

/// How a field-update sweep ([`Field::update`]) rewrites a word `s` of the
/// field, from the words `x` and `y` of its inputs at the same offset: one
/// per-word formula per variant, issuing exactly the engine operations
/// written beside it ([`Rewrite`] runs them). The scalars are duplicated
/// into words once per sweep ([`Op::words`]); only [`Op::Aypx`] takes one
/// per RHS.
#[derive(Clone, Copy, Debug)]
enum Op<'s> {
    /// `a x + y`: `axpy_word(a, x, y)`.
    Axpy(f64),
    /// `s + a x`: `axpy_word(a, x, s)`.
    AxpyInPlace(f64),
    /// `x + a_j s` on RHS `j`: `axpy_word(a_j, s, x)`.
    Aypx(&'s [f64]),
    /// `a s`: `scale(a, s)`.
    Scale(f64),
    /// `x − y`: `sub(x, y)`.
    Sub,
    /// `a x + c y`: `axpy_word(c, y, scale(a, x))`.
    ScaleAxpy(f64, f64),
    /// `s + x`: `add(s, x)`.
    Add,
    /// `s + a x`, complex `a`: `madd(s, a, x)`.
    Caxpy(Complex),
    /// `y + a x`, complex `a`: `madd(y, a, x)`.
    CaxpyFrom(Complex),
    /// `s + a x + b y`, complex: `madd(madd(s, a, x), b, y)`.
    Caxpy2(Complex, Complex),
    /// BiCGStab's `r + β (s − ω v)`, `x = v` and `y = r`:
    /// `add(mult(β, madd(s, −ω, v)), r)`.
    BicgP { beta: Complex, omega: Complex },
}

/// Every RHS of a sweep is rewritten.
const EVERY_RHS: &[bool] = &[true];

impl Op<'_> {
    /// The scalars `a` (per RHS, or one for all) and `b` as words: one
    /// `dup` per real scalar, one splat per complex one; an unused one is
    /// the zero word, which costs no instruction.
    fn words<E: SveFloat, const N: usize>(self, eng: &Words<'_, E, N>) -> (Dups<N>, CVec<N>) {
        let (one, zero) = (Dups::One, CVec::zero());
        match self {
            Op::Sub | Op::Add => (one(zero), zero),
            Op::Axpy(a) | Op::AxpyInPlace(a) | Op::Scale(a) => (one(eng.dup_real(a)), zero),
            Op::Aypx(a) => (Dups::new(eng, a, 1.0), zero),
            Op::ScaleAxpy(a, c) => (one(eng.dup_real(a)), eng.dup_real(c)),
            Op::Caxpy(a) | Op::CaxpyFrom(a) => (one(eng.splat(a)), zero),
            Op::Caxpy2(a, b) => (one(eng.splat(a)), eng.splat(b)),
            Op::BicgP { beta, omega } => (one(eng.splat(-omega)), eng.splat(beta)),
        }
    }
}

/// The word at scalar `off` of an input, or none when the sweep has fewer
/// inputs.
#[inline(always)]
fn word_of<E>(f: &[E], off: usize, w: usize) -> &[E] {
    f.get(off..off + w).unwrap_or_default()
}

/// One chunk of a field-update sweep: every word of `chunk` — which starts
/// at scalar `base` of the field, `rhs` scalars per right-hand side and
/// `width` right-hand sides per site — on an active RHS rewritten as `op`
/// says from the words of `x` and `y` at the same offset, then, with
/// `part`, each RHS's per-site `|·|²` into it.
struct Rewrite<'s, E, const N: usize> {
    op: Op<'s>,
    a: &'s Dups<N>,
    b: CVec<N>,
    active: &'s [bool],
    base: usize,
    x: &'s [E],
    y: &'s [E],
    chunk: &'s mut [E],
    part: Option<&'s mut [f64]>,
    rhs: usize,
    width: usize,
}

impl<E: SveFloat, const N: usize> WordKernel<E, N> for Rewrite<'_, E, N> {
    type Out = ();
    #[inline(always)]
    fn run<C: HostCopy>(self, eng: &Words<'_, E, N, C>) {
        let (w, lanes, rhs) = (eng.word_len(), eng.lanes_c(), self.rhs);
        let (chunk, mut part) = (self.chunk, self.part);
        for i in 0..chunk.len() / rhs {
            let j = i % self.width;
            let seg = &mut chunk[i * rhs..(i + 1) * rhs];
            let active = per_rhs(self.active, j);
            if active {
                let (a, b, base) = (self.a.at(j), self.b, self.base + i * rhs);
                // Each formula has its own word loop: the `match` is taken
                // once per right-hand side of a site, not once per word.
                // The own word `s` and the input words `x`, `y` are loaded
                // only by a formula that reads them.
                macro_rules! words {
                    (|$s:pat_param, $x:pat_param, $y:pat_param| $word:expr) => {
                        for (k, sw) in seg.chunks_exact_mut(w).enumerate() {
                            let off = base + k * w;
                            let ($x, $y) = (word_of(self.x, off, w), word_of(self.y, off, w));
                            let $s = &*sw;
                            let v = $word;
                            eng.store(sw, v);
                        }
                    };
                }
                match self.op {
                    Op::Axpy(_) => words!(|_, x, y| eng.axpy_word(a, eng.load(x), eng.load(y))),
                    Op::AxpyInPlace(_) => {
                        words!(|s, x, _| eng.axpy_word(a, eng.load(x), eng.load(s)))
                    }
                    Op::Aypx(_) => words!(|s, x, _| eng.axpy_word(a, eng.load(s), eng.load(x))),
                    Op::Scale(_) => words!(|s, _, _| eng.scale(a, eng.load(s))),
                    Op::Sub => words!(|_, x, y| eng.sub(eng.load(x), eng.load(y))),
                    Op::ScaleAxpy(..) => {
                        words!(|_, x, y| eng.axpy_word(b, eng.load(y), eng.scale(a, eng.load(x))))
                    }
                    Op::Add => words!(|s, x, _| eng.add(eng.load(s), eng.load(x))),
                    Op::Caxpy(_) => words!(|s, x, _| eng.madd(eng.load(s), a, eng.load(x))),
                    Op::CaxpyFrom(_) => words!(|_, x, y| eng.madd(eng.load(y), a, eng.load(x))),
                    Op::Caxpy2(..) => words!(|s, x, y| {
                        let t = eng.madd(eng.load(s), a, eng.load(x));
                        eng.madd(t, b, eng.load(y))
                    }),
                    Op::BicgP { .. } => words!(|s, x, y| {
                        let t = eng.madd(eng.load(s), a, eng.load(x));
                        eng.add(eng.mult(b, t), eng.load(y))
                    }),
                }
            }
            if let Some(part) = part.as_deref_mut() {
                let p = &mut part[i * lanes..(i + 1) * lanes];
                if active {
                    reduce::site_dots::<E>(seg, seg, p);
                } else {
                    p.fill(0.0);
                }
            }
        }
    }
}

/// One chunk of [`cg_updates`]: `p`, `ap`, `x` and `r` hold the chunk's
/// words, `part` its per-site `|r_j|²` values.
struct CgUpdates<'s, E, const N: usize> {
    alpha: &'s Dups<N>,
    neg: &'s Dups<N>,
    active: &'s [bool],
    p: &'s [E],
    ap: &'s [E],
    x: &'s mut [E],
    r: &'s mut [E],
    part: &'s mut [f64],
    rhs: usize,
    width: usize,
}

impl<E: SveFloat, const N: usize> WordKernel<E, N> for CgUpdates<'_, E, N> {
    type Out = ();
    #[inline(always)]
    fn run<C: HostCopy>(self, eng: &Words<'_, E, N, C>) {
        let (w, lanes, rhs) = (eng.word_len(), eng.lanes_c(), self.rhs);
        let segments = self
            .x
            .chunks_exact_mut(rhs)
            .zip(self.r.chunks_exact_mut(rhs));
        let segments = (0..self.width).cycle().zip(segments);
        for (s, ((j, (xs, rs)), q)) in segments.zip(self.part.chunks_exact_mut(lanes)).enumerate() {
            if !per_rhs(self.active, j) {
                q.fill(0.0);
                continue;
            }
            let (aj, nj, base) = (self.alpha.at(j), self.neg.at(j), s * rhs);
            for (k, (xw, rw)) in xs
                .chunks_exact_mut(w)
                .zip(rs.chunks_exact_mut(w))
                .enumerate()
            {
                let off = base + k * w;
                let (pv, apv) = (
                    eng.load(&self.p[off..off + w]),
                    eng.load(&self.ap[off..off + w]),
                );
                eng.store(xw, eng.axpy_word(aj, pv, eng.load(xw)));
                eng.store(rw, eng.axpy_word(nj, apv, eng.load(rw)));
            }
            reduce::site_dots::<E>(rs, rs, q);
        }
    }
}

/// The fused CG iterate/residual update: `x += alpha * p`, `r -= alpha *
/// ap`, returning the new `|r|^2` — one zipped sweep over `x`/`r` instead of
/// two axpys plus a separate norm, bit-identical to that sequence
/// (`axpy_inplace(alpha, p)`, `axpy_inplace(-alpha, ap)`, `norm2()`).
pub fn cg_update_x_r<K: FieldKind, E: SveFloat>(
    x: &mut Field<K, E>,
    r: &mut Field<K, E>,
    alpha: f64,
    p: &Field<K, E>,
    ap: &Field<K, E>,
) -> f64 {
    let mut r2 = 0.0;
    cg_updates(
        x,
        r,
        &[alpha],
        (p, ap),
        &[true],
        std::slice::from_mut(&mut r2),
    );
    r2
}

/// A batch of `N` right-hand-side fermion fields: one [`Field`] of width
/// `N`, stored **site-major** — at every outer site the `N` spinors are
/// contiguous (site, rhs, component, lanes), so the dslash loads each
/// gauge link and projector table once per site and applies them to all
/// `N` spinors while they are hot.
///
/// The layout is the multi-RHS trick of Grid-on-A64FX: arithmetic intensity
/// of the hopping term grows from `1320 / (192N + 144)·N⁻¹` flops per read
/// toward the link-free limit as `N` grows, because the `8 × 18` link reals
/// per site are amortized over the batch.
///
/// What a block adds to its field is its Krylov meaning: one scalar per RHS
/// (`krylov::Vector`). Every per-RHS quantity is the canonical reduction of
/// [`reduce`] over that RHS's sites — the per-site values and their order
/// are those of a single-RHS field on the same grid — so per-RHS results at
/// any `N` match `N` independent single-RHS computations bit for bit.
#[derive(Clone)]
pub struct FermionBlock<E: SveFloat = f64>(pub(crate) Field<FermionKind, E>);

impl<E: SveFloat> FermionBlock<E> {
    /// A zero block of `nrhs` right-hand sides on `grid`.
    pub fn zero(grid: Arc<Grid<E>>, nrhs: usize) -> Self {
        FermionBlock(Field::zero_width(grid, nrhs))
    }

    /// Gather `fields` into one site-major block (RHS `i` = `fields[i]`).
    pub fn from_fields(fields: &[Field<FermionKind, E>]) -> Self {
        FermionBlock(Field::from_fields(fields))
    }
}

impl<E: SveFloat> std::ops::Deref for FermionBlock<E> {
    type Target = Field<FermionKind, E>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<E: SveFloat> std::ops::DerefMut for FermionBlock<E> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::SimdBackend;
    use sve::{VectorLength, F16};

    fn grid() -> Arc<Grid> {
        Grid::new([4, 4, 4, 4], VectorLength::of(512), SimdBackend::Fcmla)
    }

    #[test]
    fn zero_field_has_zero_norm() {
        let f = FermionField::zero(grid());
        assert_eq!(f.norm2(), 0.0);
    }

    #[test]
    fn peek_poke_round_trip() {
        let g = grid();
        let mut f = FermionField::zero(g.clone());
        let z = Complex::new(1.25, -0.5);
        f.poke(&[1, 2, 3, 0], spinor_comp(2, 1), z);
        assert_eq!(f.peek(&[1, 2, 3, 0], spinor_comp(2, 1)), z);
        // Other slots untouched.
        assert_eq!(f.peek(&[1, 2, 3, 0], spinor_comp(2, 2)), Complex::ZERO);
        assert_eq!(f.peek(&[0, 2, 3, 0], spinor_comp(2, 1)), Complex::ZERO);
        assert!((f.norm2() - z.norm2()).abs() < 1e-14);
    }

    #[test]
    fn random_field_is_layout_independent() {
        let a = FermionField::random(
            Grid::new([4, 4, 4, 4], VectorLength::of(128), SimdBackend::Fcmla),
            7,
        );
        let b = FermionField::random(
            Grid::new([4, 4, 4, 4], VectorLength::of(2048), SimdBackend::Fcmla),
            7,
        );
        for x in a.grid().coords() {
            for comp in 0..12 {
                assert_eq!(a.peek(&x, comp), b.peek(&x, comp), "{x:?} {comp}");
            }
        }
    }

    #[test]
    fn axpy_matches_scalar_reference() {
        let g = grid();
        let x = FermionField::random(g.clone(), 1);
        let y = FermionField::random(g.clone(), 2);
        let mut out = FermionField::zero(g.clone());
        out.axpy(2.5, &x, &y);
        for coor in g.coords().take(32) {
            for comp in 0..12 {
                let want = x.peek(&coor, comp) * 2.5 + y.peek(&coor, comp);
                let got = out.peek(&coor, comp);
                assert!((got - want).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn aypx_and_axpy_inplace() {
        let g = grid();
        let x = FermionField::random(g.clone(), 1);
        let mut p = FermionField::random(g.clone(), 2);
        let p0 = p.clone();
        p.aypx(0.5, &x); // p = x + 0.5 p
        for coor in g.coords().take(16) {
            let want = x.peek(&coor, 0) + p0.peek(&coor, 0) * 0.5;
            assert!((p.peek(&coor, 0) - want).abs() < 1e-13);
        }
        let mut r = p0.clone();
        r.axpy_inplace(-1.0, &x); // r -= x
        for coor in g.coords().take(16) {
            let want = p0.peek(&coor, 3) - x.peek(&coor, 3);
            assert!((r.peek(&coor, 3) - want).abs() < 1e-13);
        }
    }

    #[test]
    fn inner_product_is_conjugate_symmetric_and_positive() {
        let g = grid();
        let x = FermionField::random(g.clone(), 3);
        let y = FermionField::random(g.clone(), 4);
        let xy = x.inner(&y);
        let yx = y.inner(&x);
        assert!((xy - yx.conj()).abs() < 1e-10);
        let xx = x.inner(&x);
        assert!(xx.im.abs() < 1e-10);
        assert!(xx.re > 0.0);
        assert_eq!(xx.re.to_bits(), x.norm2().to_bits());
    }

    /// Every reduction of a field of `E`, as bits: `norm2`, `inner`, and the
    /// fused `axpy_norm2`, `sub_norms2` and CG update.
    fn reduction_bits<E: SveFloat>(bits: usize) -> Vec<u64> {
        let g = Grid::<E>::new([4, 4, 4, 4], VectorLength::of(bits), SimdBackend::Fcmla);
        let x = Field::<FermionKind, E>::random(g.clone(), 9);
        let y = Field::<FermionKind, E>::random(g.clone(), 10);
        let z = x.inner(&y);
        let (mut a, mut d) = (y.clone(), y.clone());
        let (mut u, mut r) = (x.clone(), y.clone());
        let mut sub = [0.0];
        d.sub_norms2(&x, &y, &mut sub);
        vec![
            x.norm2().to_bits(),
            z.re.to_bits(),
            z.im.to_bits(),
            a.axpy_norm2(-0.375, &x).to_bits(),
            sub[0].to_bits(),
            cg_update_x_r(&mut u, &mut r, 0.6875, &x, &y).to_bits(),
        ]
    }

    #[test]
    fn reductions_are_bit_identical_across_vls() {
        // Random fields are layout-independent by seed, and every reduction
        // sums per-site values in lexicographic order: the bits must not
        // depend on the vector length, at any precision.
        fn check<E: SveFloat>() {
            let reference = reduction_bits::<E>(128);
            for bits in [256usize, 512, 1024, 2048] {
                assert_eq!(
                    reduction_bits::<E>(bits),
                    reference,
                    "{} vl={bits}",
                    E::SUFFIX
                );
            }
        }
        check::<f64>();
        check::<f32>();
        check::<F16>();
    }

    #[test]
    fn a_binary16_norm_does_not_overflow_at_any_vector_length() {
        // 256 sites × 12 components × |40 + 40i|² = 9 830 400: past binary16
        // (65 504), so a norm that rounds partial sums back to binary16
        // overflows; one accumulated per site in f32 and summed in f64 is
        // exact.
        for bits in [128usize, 512, 2048] {
            let g = Grid::<F16>::new([4, 4, 4, 4], VectorLength::of(bits), SimdBackend::Fcmla);
            let mut f = Field::<FermionKind, F16>::zero(g.clone());
            for x in g.coords() {
                for comp in 0..FermionKind::NCOMP {
                    f.poke(&x, comp, Complex::new(40.0, 40.0));
                }
            }
            assert_eq!(f.norm2(), 9_830_400.0, "vl={bits}");
        }
    }

    #[test]
    fn scale_and_sub() {
        let g = grid();
        let x = FermionField::random(g.clone(), 5);
        let mut y = x.clone();
        y.scale(3.0);
        let mut d = FermionField::zero(g.clone());
        d.sub(&y, &x); // 2x
        let ratio = d.norm2() / x.norm2();
        assert!((ratio - 4.0).abs() < 1e-10);
    }

    #[test]
    fn complex_scalar_ops_match_scalar_reference() {
        let g = grid();
        let a = Complex::new(0.75, -1.25);
        let x = FermionField::random(g.clone(), 6);
        let mut y = FermionField::random(g.clone(), 7);
        let y0 = y.clone();
        y.axpy_complex(a, &x); // y += a x
        for coor in g.coords().take(16) {
            for comp in [0usize, 11] {
                let want = y0.peek(&coor, comp) + a * x.peek(&coor, comp);
                assert!((y.peek(&coor, comp) - want).abs() < 1e-13);
            }
        }
        let mut w = x.clone();
        w.add_assign_field(&y0);
        for coor in g.coords().take(16) {
            let want = x.peek(&coor, 3) + y0.peek(&coor, 3);
            assert!((w.peek(&coor, 3) - want).abs() < 1e-13);
        }
    }

    #[test]
    fn f32_fields_round_trip_and_compute() {
        let g32 = Grid::<f32>::new([4, 4, 4, 4], VectorLength::of(512), SimdBackend::Fcmla);
        let mut f = Field::<FermionKind, f32>::zero(g32.clone());
        let z = Complex::new(0.5, -0.25); // exact in f32
        f.poke(&[1, 2, 3, 0], 4, z);
        assert_eq!(f.peek(&[1, 2, 3, 0], 4), z);
        let x = Field::<FermionKind, f32>::random(g32.clone(), 9);
        let n = x.norm2();
        assert!(n > 0.0);
        let ip = x.inner(&x);
        assert!((ip.re - n).abs() < 1e-4 * n);
        assert!(ip.im.abs() < 1e-4 * n);
    }

    #[test]
    #[should_panic(expected = "different grids")]
    fn cross_grid_ops_panic() {
        let a = FermionField::zero(grid());
        let b = FermionField::zero(grid());
        let _ = a.inner(&b);
    }

    #[test]
    fn fused_cg_update_matches_unfused_bitwise() {
        let g = grid();
        let p = FermionField::random(g.clone(), 17);
        let ap = FermionField::random(g.clone(), 18);
        let mut x1 = FermionField::random(g.clone(), 19);
        let mut r1 = FermionField::random(g.clone(), 20);
        let mut x2 = x1.clone();
        let mut r2 = r1.clone();
        let alpha = 0.6875;
        let fused = cg_update_x_r(&mut x1, &mut r1, alpha, &p, &ap);
        x2.axpy_inplace(alpha, &p);
        r2.axpy_inplace(-alpha, &ap);
        let unfused = r2.norm2();
        assert_eq!(x1.max_abs_diff(&x2), 0.0);
        assert_eq!(r1.max_abs_diff(&r2), 0.0);
        assert_eq!(fused.to_bits(), unfused.to_bits());
    }

    /// The per-instruction oracle of a field-update sweep: the scalars
    /// duplicated once, then every word of every active RHS loaded,
    /// rewritten by the parent closure's formula for `op` and stored, one
    /// engine operation at a time in storage order — no chunks, no fused
    /// entry, no threads.
    fn oracle<E: SveFloat>(
        f: &mut Field<FermionKind, E>,
        op: Op<'_>,
        [x, y]: [&Field<FermionKind, E>; 2],
        active: &[bool],
    ) {
        let grid = f.grid.clone();
        let e = &grid.engine().words::<{ sve::VL_MAX_BYTES }>();
        let zero = CVec::zero();
        let (a, b) = match op {
            Op::Sub | Op::Add => (vec![zero], zero),
            Op::Axpy(a) | Op::AxpyInPlace(a) | Op::Scale(a) => (vec![e.dup_real(a)], zero),
            Op::Aypx(a) => (a.iter().map(|&a| e.dup_real(a)).collect(), zero),
            Op::ScaleAxpy(a, c) => (vec![e.dup_real(a)], e.dup_real(c)),
            Op::Caxpy(a) | Op::CaxpyFrom(a) => (vec![e.splat(a)], zero),
            Op::Caxpy2(a, c) => (vec![e.splat(a)], e.splat(c)),
            Op::BicgP { beta, omega } => (vec![e.splat(-omega)], e.splat(beta)),
        };
        let (w, rhs) = (e.word_len(), f.rhs_scalars());
        for i in 0..f.data.len() / w {
            let j = i * w / rhs % f.width;
            if !per_rhs(active, j) {
                continue;
            }
            let at = |g: &Field<FermionKind, E>| e.load(&g.data[i * w..(i + 1) * w]);
            let (s, aj) = (|| at(f), per_rhs(&a, j));
            let v = match op {
                Op::Axpy(_) => e.axpy_word(aj, at(x), at(y)),
                Op::AxpyInPlace(_) => e.axpy_word(aj, at(x), s()),
                Op::Aypx(_) => e.axpy_word(aj, s(), at(x)),
                Op::Scale(_) => e.scale(aj, s()),
                Op::Sub => e.sub(at(x), at(y)),
                Op::ScaleAxpy(..) => e.axpy_word(b, at(y), e.scale(aj, at(x))),
                Op::Add => e.add(s(), at(x)),
                Op::Caxpy(_) => e.madd(s(), aj, at(x)),
                Op::CaxpyFrom(_) => e.madd(at(y), aj, at(x)),
                Op::Caxpy2(..) => e.madd(e.madd(s(), aj, at(x)), b, at(y)),
                Op::BicgP { .. } => e.add(e.mult(b, e.madd(s(), aj, at(x))), at(y)),
            };
            e.store(&mut f.data[i * w..(i + 1) * w], v);
        }
    }

    /// One sweep of each formula; `a` is [`Op::Aypx`]'s per-RHS list.
    fn ops(a: &[f64]) -> [Op<'_>; 11] {
        let (z, u) = (Complex::new(0.3, -0.8), Complex::new(-0.21, 0.43));
        [
            Op::Axpy(-0.375),
            Op::AxpyInPlace(1.5),
            Op::Aypx(a),
            Op::Scale(1.375),
            Op::Sub,
            Op::ScaleAxpy(1.7, -0.25),
            Op::Add,
            Op::Caxpy(z),
            Op::CaxpyFrom(u),
            Op::Caxpy2(z, u),
            Op::BicgP { beta: u, omega: z },
        ]
    }

    #[test]
    fn every_update_is_its_per_instruction_oracle() {
        // Every `Op`, at every element type, at a vector length of each
        // word size and the shortest, on a field and on a block whose
        // middle RHS is inactive: the fused sweep (with and without its
        // norms) writes the oracle's bits, issues the oracle's instructions
        // opcode by opcode, and its norms are the result's.
        fn check<E: SveFloat>(bits: usize, width: usize) {
            let g = Grid::<E>::new([4, 4, 4, 4], VectorLength::of(bits), SimdBackend::Fcmla);
            let fields = |seed: u64| {
                let fs: Vec<_> = (0..width)
                    .map(|j| Field::<FermionKind, E>::random(g.clone(), seed + j as u64))
                    .collect();
                Field::from_fields(&fs)
            };
            let (x, y, f0) = (fields(1), fields(11), fields(21));
            let (active, a) = match width {
                1 => (vec![true], vec![0.625]),
                _ => (vec![true, false, true], vec![0.625, -1.25, 2.0]),
            };
            let counters = g.engine().ctx().counters();
            for op in ops(&a) {
                let what = format!("{op:?} {} vl={bits} width={width}", E::SUFFIX);
                let mut want = f0.clone();
                counters.reset();
                oracle(&mut want, op, [&x, &y], &active);
                let tally = counters.snapshot();
                let mut got = f0.clone();
                counters.reset();
                got.update(op, &[&x, &y], &active, None);
                assert_eq!(counters.snapshot(), tally, "{what}");
                let mut normed = f0.clone();
                let mut norms = vec![f64::NAN; width];
                counters.reset();
                normed.update(op, &[&x, &y], &active, Some(&mut norms));
                assert_eq!(counters.snapshot(), tally, "{what} (norms)");
                let mut want_norms = vec![0.0; width];
                want.norms2_into(&mut want_norms);
                for j in 0..width {
                    let bits = |f: &Field<FermionKind, E>| -> Vec<u64> {
                        let f = f.rhs_field(j);
                        f.data.iter().map(|v| v.to_f64().to_bits()).collect()
                    };
                    assert!(bits(&got) == bits(&want), "{what} rhs {j}");
                    assert!(bits(&normed) == bits(&want), "{what} rhs {j}");
                    let n = if active[j] { want_norms[j] } else { 0.0 };
                    assert_eq!(norms[j].to_bits(), n.to_bits(), "{what} rhs {j}");
                }
            }
        }
        for bits in [128, 512, 2048] {
            for width in [1, 3] {
                check::<f64>(bits, width);
                check::<f32>(bits, width);
                check::<F16>(bits, width);
            }
        }
    }

    fn block_fields(g: &Arc<Grid>, n: usize, seed0: u64) -> Vec<FermionField> {
        (0..n)
            .map(|i| FermionField::random(g.clone(), seed0 + i as u64))
            .collect()
    }

    #[test]
    fn block_gather_extract_round_trips_bitwise() {
        let g = grid();
        let fields = block_fields(&g, 3, 30);
        let block = FermionBlock::from_fields(&fields);
        assert_eq!(block.width(), 3);
        for (i, f) in fields.iter().enumerate() {
            assert_eq!(block.rhs_field(i).max_abs_diff(f), 0.0);
        }
    }

    #[test]
    fn block_norms_and_inners_match_per_field_bitwise() {
        let g = grid();
        let xs = block_fields(&g, 4, 40);
        let ys = block_fields(&g, 4, 50);
        let bx = FermionBlock::from_fields(&xs);
        let by = FermionBlock::from_fields(&ys);
        let mut norms = [0.0; 4];
        bx.norms2_into(&mut norms);
        for j in 0..4 {
            assert_eq!(norms[j].to_bits(), xs[j].norm2().to_bits(), "rhs {j}");
        }
        // One scalar for the whole field: the RHS's sums added in order.
        let total = |f: &dyn Fn(usize) -> f64| (1..4).fold(f(0), |acc, j| acc + f(j));
        assert_eq!(bx.norm2().to_bits(), total(&|j| norms[j]).to_bits());
        let inner = bx.inner(&by);
        let want = |part: fn(Complex) -> f64| total(&|j| part(xs[j].inner(&ys[j])));
        assert_eq!(inner.re.to_bits(), want(|z| z.re).to_bits());
        assert_eq!(inner.im.to_bits(), want(|z| z.im).to_bits());
    }

    #[test]
    fn block_blas_matches_per_field_bitwise() {
        let g = grid();
        let xs = block_fields(&g, 3, 60);
        let ys = block_fields(&g, 3, 63);
        let bx = FermionBlock::from_fields(&xs);
        let by = FermionBlock::from_fields(&ys);

        let mut s = bx.clone();
        s.scale(1.375);
        let mut a = bx.clone();
        a.axpy_inplace(-0.5, &by);
        let mut f = FermionBlock::zero(g.clone(), 3);
        f.scale_axpy_from(1.7, &bx, -0.25, &by);
        let mut sub = FermionBlock::zero(g.clone(), 3);
        let mut sn = [0.0; 3];
        sub.sub_norms2(&bx, &by, &mut sn);
        for j in 0..3 {
            let mut fs = xs[j].clone();
            fs.scale(1.375);
            assert_eq!(s.rhs_field(j).max_abs_diff(&fs), 0.0);
            let mut fa = xs[j].clone();
            fa.axpy_inplace(-0.5, &ys[j]);
            assert_eq!(a.rhs_field(j).max_abs_diff(&fa), 0.0);
            let mut ff = FermionField::zero(g.clone());
            ff.scale_axpy_from(1.7, &xs[j], -0.25, &ys[j]);
            assert_eq!(f.rhs_field(j).max_abs_diff(&ff), 0.0);
            let (mut fsub, mut want) = (FermionField::zero(g.clone()), [0.0]);
            fsub.sub_norms2(&xs[j], &ys[j], &mut want);
            assert_eq!(sub.rhs_field(j).max_abs_diff(&fsub), 0.0);
            assert_eq!(sn[j].to_bits(), want[0].to_bits(), "rhs {j}");
        }
    }

    #[test]
    fn masked_block_ops_match_field_ops_and_freeze_inactive_rhs() {
        let g = grid();
        let xs = block_fields(&g, 3, 70);
        let ps = block_fields(&g, 3, 73);
        let aps = block_fields(&g, 3, 76);
        let rs = block_fields(&g, 3, 79);
        let bp = FermionBlock::from_fields(&ps);
        let bap = FermionBlock::from_fields(&aps);
        let mut bx = FermionBlock::from_fields(&xs);
        let mut br = FermionBlock::from_fields(&rs);
        let active = [true, false, true];
        let alphas = [0.6875, 123.0, -0.3125]; // inactive alpha must be ignored
        let mut r2 = [f64::NAN; 3];
        cg_updates(&mut bx, &mut br, &alphas, (&bp, &bap), &active, &mut r2);
        let mut pb = bp.clone();
        pb.aypx_rhs(&alphas, &br, &active);
        for j in 0..3 {
            if active[j] {
                let mut fx = xs[j].clone();
                let mut fr = rs[j].clone();
                let want = cg_update_x_r(&mut fx, &mut fr, alphas[j], &ps[j], &aps[j]);
                assert_eq!(bx.rhs_field(j).max_abs_diff(&fx), 0.0);
                assert_eq!(br.rhs_field(j).max_abs_diff(&fr), 0.0);
                assert_eq!(r2[j].to_bits(), want.to_bits(), "rhs {j}");
                let mut fp = ps[j].clone();
                fp.aypx(alphas[j], &fr);
                assert_eq!(pb.rhs_field(j).max_abs_diff(&fp), 0.0);
            } else {
                // Frozen RHS carry their words through bit-untouched.
                assert_eq!(bx.rhs_field(j).max_abs_diff(&xs[j]), 0.0);
                assert_eq!(br.rhs_field(j).max_abs_diff(&rs[j]), 0.0);
                assert_eq!(pb.rhs_field(j).max_abs_diff(&ps[j]), 0.0);
                assert_eq!(r2[j], 0.0);
            }
        }
    }

    #[test]
    fn single_rhs_block_reductions_are_bitwise_the_field_path() {
        // N = 1 block reductions must reproduce the Field reductions bit for
        // bit: the same per-site values, summed in the same order.
        let g = grid();
        let x = FermionField::random(g.clone(), 90);
        let y = FermionField::random(g.clone(), 91);
        let bx = FermionBlock::from_fields(std::slice::from_ref(&x));
        let by = FermionBlock::from_fields(std::slice::from_ref(&y));
        let mut norm = [0.0];
        bx.norms2_into(&mut norm);
        assert_eq!(norm[0].to_bits(), x.norm2().to_bits());
        let bi = bx.inner(&by);
        let fi = x.inner(&y);
        assert_eq!(bi.re.to_bits(), fi.re.to_bits());
        assert_eq!(bi.im.to_bits(), fi.im.to_bits());
    }
}
