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
    #[inline]
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
    /// Rewrite every word of `self` in parallel as `f(self word, the words
    /// of `inputs` at the same offset)`; `self` is loaded only when `f`
    /// reads it (`read_self`), and is the zero word otherwise.
    fn zip_words<const N: usize, const M: usize>(
        &mut self,
        eng: &Words<'_, E, N>,
        inputs: [&Field<K, E>; M],
        read_self: bool,
        f: impl Fn(&Words<'_, E, N>, CVec<N>, [CVec<N>; M]) -> CVec<N> + Sync,
    ) {
        inputs.iter().for_each(|x| self.assert_compatible(x));
        let cs = self.chunk_scalars();
        let w = eng.word_len();
        self.data
            .par_chunks_mut(cs)
            .enumerate()
            .for_each(|(ci, chunk)| {
                for (j, sw) in chunk.chunks_exact_mut(w).enumerate() {
                    let off = ci * cs + j * w;
                    let sv = if read_self { eng.load(sw) } else { eng.zero() };
                    let xs = inputs.map(|x| eng.load(&x.data[off..off + w]));
                    eng.store(sw, f(eng, sv, xs));
                }
            });
    }

    /// `self = a * x + y` lane-wise (one fused `fmla` per word).
    pub fn axpy(&mut self, a: f64, x: &Field<K, E>, y: &Field<K, E>) {
        crate::sized!(x.grid.engine(), |eng| {
            let a_dup = eng.dup_real(a);
            self.zip_words(eng, [x, y], false, |eng, _, [xv, yv]| {
                eng.axpy_word(a_dup, xv, yv)
            });
        })
    }

    /// `self += a * x`.
    pub fn axpy_inplace(&mut self, a: f64, x: &Field<K, E>) {
        crate::sized!(x.grid.engine(), |eng| {
            let a_dup = eng.dup_real(a);
            self.zip_words(eng, [x], true, |eng, sv, [xv]| eng.axpy_word(a_dup, xv, sv));
        })
    }

    /// `self = x + a * self` (the CG search-direction update).
    pub fn aypx(&mut self, a: f64, x: &Field<K, E>) {
        self.aypx_rhs(&[a], x, &[true]);
    }

    /// `self_j = x_j + a_j * self_j` on every RHS `j` that is `active`;
    /// the words of the others are not even loaded. `a` and `active` hold
    /// one entry per RHS, or one for all.
    pub fn aypx_rhs(&mut self, a: &[f64], x: &Field<K, E>, active: &[bool]) {
        self.assert_compatible(x);
        let (cs, rhs, width) = (self.chunk_scalars(), self.rhs_scalars(), self.width);
        crate::sized!(x.grid.engine(), |eng| {
            let a = Dups::new(eng, a, 1.0);
            self.data
                .par_chunks_mut(cs)
                .enumerate()
                .for_each(|(ci, chunk)| {
                    eng.fused(Aypx {
                        a: &a,
                        active,
                        x: &x.data()[ci * cs..],
                        chunk,
                        rhs,
                        width,
                    })
                });
        })
    }

    /// `self *= a` (real scale).
    pub fn scale(&mut self, a: f64) {
        let grid = self.grid.clone();
        crate::sized!(grid.engine(), |eng| {
            let a_dup = eng.dup_real(a);
            self.zip_words(eng, [], true, |eng, sv, []| eng.scale(a_dup, sv));
        })
    }

    /// `self = x - y`.
    pub fn sub(&mut self, x: &Field<K, E>, y: &Field<K, E>) {
        crate::sized!(x.grid.engine(), |eng| {
            self.zip_words(eng, [x, y], false, |eng, _, [xv, yv]| eng.sub(xv, yv));
        })
    }

    /// `self = a * x + c * y` (two-term real linear combination, computed
    /// as `mul` then `fmla` — the exact op sequence of `scale` + `axpy`).
    pub fn scale_axpy_from(&mut self, a: f64, x: &Field<K, E>, c: f64, y: &Field<K, E>) {
        crate::sized!(x.grid.engine(), |eng| {
            let a_dup = eng.dup_real(a);
            let c_dup = eng.dup_real(c);
            self.zip_words(eng, [x, y], false, |eng, _, [xv, yv]| {
                eng.axpy_word(c_dup, yv, eng.scale(a_dup, xv))
            });
        })
    }
    /// `self += a * x` with a complex scalar `a` (splat + complex FMA).
    pub fn axpy_complex(&mut self, a: Complex, x: &Field<K, E>) {
        crate::sized!(x.grid.engine(), |eng| {
            let a_splat = eng.splat(a);
            self.zip_words(eng, [x], true, |eng, sv, [xv]| eng.madd(sv, a_splat, xv));
        })
    }

    /// `self *= a` with a complex scalar `a`.
    pub fn scale_complex(&mut self, a: Complex) {
        let grid = self.grid.clone();
        crate::sized!(grid.engine(), |eng| {
            let a_splat = eng.splat(a);
            self.zip_words(eng, [], true, |eng, sv, []| eng.mult(a_splat, sv));
        })
    }

    /// `self += x`.
    pub fn add_assign_field(&mut self, x: &Field<K, E>) {
        crate::sized!(x.grid.engine(), |eng| {
            self.zip_words(eng, [x], true, |eng, sv, [xv]| eng.add(sv, xv));
        })
    }

    /// `self = y + a * x` with complex `a` — one sweep instead of
    /// `clone` + `axpy_complex`.
    pub fn caxpy_from(&mut self, a: Complex, x: &Field<K, E>, y: &Field<K, E>) {
        crate::sized!(x.grid.engine(), |eng| {
            let a_splat = eng.splat(a);
            self.zip_words(eng, [x, y], false, |eng, _, [xv, yv]| {
                eng.madd(yv, a_splat, xv)
            });
        })
    }

    /// `self += a * x + b * y` with complex scalars — one sweep instead of
    /// two `axpy_complex` calls, same op sequence per word.
    pub fn caxpy2(&mut self, a: Complex, x: &Field<K, E>, b: Complex, y: &Field<K, E>) {
        crate::sized!(x.grid.engine(), |eng| {
            let (a_splat, b_splat) = (eng.splat(a), eng.splat(b));
            self.zip_words(eng, [x, y], true, |eng, sv, [xv, yv]| {
                eng.madd(eng.madd(sv, a_splat, xv), b_splat, yv)
            });
        })
    }

    /// The BiCGStab search-direction update `self = r + beta * (self -
    /// omega * v)`, fused into one sweep. Per word this performs the exact
    /// op sequence of `axpy_complex(-omega, v)` + `scale_complex(beta)` +
    /// `add_assign_field(r)`.
    pub fn bicg_p_update(
        &mut self,
        beta: Complex,
        omega: Complex,
        v: &Field<K, E>,
        r: &Field<K, E>,
    ) {
        crate::sized!(v.grid.engine(), |eng| {
            let (no_splat, b_splat) = (eng.splat(-omega), eng.splat(beta));
            self.zip_words(eng, [v, r], true, |eng, sv, [vv, rv]| {
                eng.add(eng.mult(b_splat, eng.madd(sv, no_splat, vv)), rv)
            });
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
        self.assert_compatible(x);
        crate::sized!(x.grid.engine(), |eng| {
            let a = eng.dup_real(a);
            self.update_norm2(eng, &Update::Axpy { a, x: x.data() })
        })
    }

    /// Fused `self += a * x; |self|^2` with complex `a`, one sweep.
    pub fn caxpy_norm2(&mut self, a: Complex, x: &Field<K, E>) -> f64 {
        self.assert_compatible(x);
        crate::sized!(x.grid.engine(), |eng| {
            let a = eng.splat(a);
            self.update_norm2(eng, &Update::Caxpy { a, x: x.data() })
        })
    }

    /// Fused `self = x - y; |self|^2` in one sweep (true-residual check).
    pub fn sub_norm2(&mut self, x: &Field<K, E>, y: &Field<K, E>) -> f64 {
        let mut n = 0.0;
        self.sub_norms2(x, y, std::slice::from_mut(&mut n));
        n
    }

    /// Fused `self = x - y` and `|self_j|²` into `out` as
    /// [`Self::norms2_into`] takes them, in one sweep.
    pub fn sub_norms2(&mut self, x: &Field<K, E>, y: &Field<K, E>, out: &mut [f64]) {
        self.assert_compatible(x);
        self.assert_compatible(y);
        crate::sized!(x.grid.engine(), |eng| {
            let update = Update::Sub {
                x: x.data(),
                y: y.data(),
            };
            self.update_norms2(eng, &update, out)
        })
    }

    /// Rewrite every word as `update` says and return `|self|²` of the
    /// result, in one sweep.
    fn update_norm2<const N: usize>(
        &mut self,
        eng: &Words<'_, E, N>,
        update: &Update<E, N>,
    ) -> f64 {
        let mut n = 0.0;
        self.update_norms2(eng, update, std::slice::from_mut(&mut n));
        n
    }

    /// One sweep: every word is rewritten as `update` says, and the per-RHS
    /// `|·|²` of the result go to `out` as [`Self::norms2_into`] takes them.
    fn update_norms2<const N: usize>(
        &mut self,
        eng: &Words<'_, E, N>,
        update: &Update<E, N>,
        out: &mut [f64],
    ) {
        let (rhs, cs) = (self.rhs_scalars(), self.chunk_scalars());
        let kernel = |ci: usize, chunk: &mut [E], part: &mut [f64]| {
            eng.fused(UpdateNorms {
                update,
                base: ci * cs,
                chunk,
                part,
                rhs,
            })
        };
        let Field {
            grid, width, data, ..
        } = self;
        reduce::sweep_sums(grid, data.par_chunks_mut(cs), kernel, *width, out);
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

/// One chunk of [`Field::aypx_rhs`]: `x` and `chunk` hold the chunk's
/// words, `rhs` scalars per right-hand side, `width` right-hand sides per
/// site.
struct Aypx<'s, E, const N: usize> {
    a: &'s Dups<N>,
    active: &'s [bool],
    x: &'s [E],
    chunk: &'s mut [E],
    rhs: usize,
    width: usize,
}

impl<E: SveFloat, const N: usize> WordKernel<E, N> for Aypx<'_, E, N> {
    type Out = ();
    #[inline(always)]
    fn run<C: HostCopy>(self, eng: &Words<'_, E, N, C>) {
        let w = eng.word_len();
        let segments = (0..self.width)
            .cycle()
            .zip(self.chunk.chunks_exact_mut(self.rhs));
        for (s, (j, seg)) in segments.enumerate() {
            if !per_rhs(self.active, j) {
                continue;
            }
            let (aj, base) = (self.a.at(j), s * self.rhs);
            for (k, sw) in seg.chunks_exact_mut(w).enumerate() {
                let off = base + k * w;
                let (sv, xv) = (eng.load(sw), eng.load(&self.x[off..off + w]));
                eng.store(sw, eng.axpy_word(aj, sv, xv));
            }
        }
    }
}

/// How an update-and-norm sweep rewrites a word, at offset `off` of the
/// field: `self += a x` (a duplicated real `a`), `self += a x` (a splat
/// complex `a`), or `self = x − y`.
enum Update<'s, E, const N: usize> {
    Axpy { a: CVec<N>, x: &'s [E] },
    Caxpy { a: CVec<N>, x: &'s [E] },
    Sub { x: &'s [E], y: &'s [E] },
}

/// One chunk of an update-and-norm sweep: every word of `chunk` (which
/// starts at scalar `base` of the field) rewritten as `update` says, then
/// each right-hand side's per-site `|·|²` into `part`.
struct UpdateNorms<'s, E, const N: usize> {
    update: &'s Update<'s, E, N>,
    base: usize,
    chunk: &'s mut [E],
    part: &'s mut [f64],
    rhs: usize,
}

impl<E: SveFloat, const N: usize> WordKernel<E, N> for UpdateNorms<'_, E, N> {
    type Out = ();
    #[inline(always)]
    fn run<C: HostCopy>(self, eng: &Words<'_, E, N, C>) {
        let (w, lanes) = (eng.word_len(), eng.lanes_c());
        let segments = self
            .chunk
            .chunks_exact_mut(self.rhs)
            .zip(self.part.chunks_exact_mut(lanes));
        for (s, (seg, p)) in segments.enumerate() {
            for (k, sw) in seg.chunks_exact_mut(w).enumerate() {
                let off = self.base + s * self.rhs + k * w;
                let at = |f: &[E]| eng.load(&f[off..off + w]);
                let r = match *self.update {
                    Update::Axpy { a, x } => eng.axpy_word(a, at(x), eng.load(sw)),
                    Update::Caxpy { a, x } => eng.madd(eng.load(sw), a, at(x)),
                    Update::Sub { x, y } => eng.sub(at(x), at(y)),
                };
                eng.store(sw, r);
            }
            reduce::site_dots::<E>(seg, seg, p);
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
    /// fused `axpy_norm2`, `caxpy_norm2`, `sub_norm2` and CG update.
    fn reduction_bits<E: SveFloat>(bits: usize) -> Vec<u64> {
        let g = Grid::<E>::new([4, 4, 4, 4], VectorLength::of(bits), SimdBackend::Fcmla);
        let x = Field::<FermionKind, E>::random(g.clone(), 9);
        let y = Field::<FermionKind, E>::random(g.clone(), 10);
        let z = x.inner(&y);
        let (mut a, mut c, mut d) = (y.clone(), y.clone(), y.clone());
        let (mut u, mut r) = (x.clone(), y.clone());
        vec![
            x.norm2().to_bits(),
            z.re.to_bits(),
            z.im.to_bits(),
            a.axpy_norm2(-0.375, &x).to_bits(),
            c.caxpy_norm2(Complex::new(0.25, -0.5), &x).to_bits(),
            d.sub_norm2(&x, &y).to_bits(),
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
        let mut z = x.clone();
        z.scale_complex(a);
        for coor in g.coords().take(16) {
            let want = a * x.peek(&coor, 5);
            assert!((z.peek(&coor, 5) - want).abs() < 1e-13);
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
    fn fused_axpy_norm2_matches_unfused_bitwise() {
        let g = grid();
        let x = FermionField::random(g.clone(), 11);
        let mut a = FermionField::random(g.clone(), 12);
        let mut b = a.clone();
        let fused = a.axpy_norm2(-0.375, &x);
        b.axpy_inplace(-0.375, &x);
        let unfused = b.norm2();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        assert_eq!(fused.to_bits(), unfused.to_bits());
    }

    #[test]
    fn fused_caxpy_norm2_matches_unfused_bitwise() {
        let g = grid();
        let z = Complex::new(0.3, -0.8);
        let x = FermionField::random(g.clone(), 13);
        let mut a = FermionField::random(g.clone(), 14);
        let mut b = a.clone();
        let fused = a.caxpy_norm2(z, &x);
        b.axpy_complex(z, &x);
        let unfused = b.norm2();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        assert_eq!(fused.to_bits(), unfused.to_bits());
    }

    #[test]
    fn fused_sub_norm2_matches_unfused_bitwise() {
        let g = grid();
        let x = FermionField::random(g.clone(), 15);
        let y = FermionField::random(g.clone(), 16);
        let mut a = FermionField::zero(g.clone());
        let mut b = FermionField::zero(g.clone());
        let fused = a.sub_norm2(&x, &y);
        b.sub(&x, &y);
        let unfused = b.norm2();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        assert_eq!(fused.to_bits(), unfused.to_bits());
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

    #[test]
    fn fused_caxpy_helpers_match_unfused_bitwise() {
        let g = grid();
        let a = Complex::new(-0.21, 0.43);
        let b = Complex::new(0.9, 0.12);
        let x = FermionField::random(g.clone(), 21);
        let y = FermionField::random(g.clone(), 22);
        // caxpy_from
        let mut f1 = FermionField::zero(g.clone());
        f1.caxpy_from(a, &x, &y);
        let mut f2 = y.clone();
        f2.axpy_complex(a, &x);
        assert_eq!(f1.max_abs_diff(&f2), 0.0);
        // caxpy2
        let mut g1 = FermionField::random(g.clone(), 23);
        let mut g2 = g1.clone();
        g1.caxpy2(a, &x, b, &y);
        g2.axpy_complex(a, &x);
        g2.axpy_complex(b, &y);
        assert_eq!(g1.max_abs_diff(&g2), 0.0);
        // bicg_p_update
        let mut p1 = FermionField::random(g.clone(), 24);
        let mut p2 = p1.clone();
        p1.bicg_p_update(b, a, &x, &y);
        p2.axpy_complex(-a, &x);
        p2.scale_complex(b);
        p2.add_assign_field(&y);
        assert_eq!(p1.max_abs_diff(&p2), 0.0);
    }

    #[test]
    fn scale_axpy_from_matches_unfused_bitwise() {
        let g = grid();
        let x = FermionField::random(g.clone(), 25);
        let y = FermionField::random(g.clone(), 26);
        let mut f1 = FermionField::zero(g.clone());
        f1.scale_axpy_from(1.7, &x, -0.25, &y);
        let mut f2 = x.clone();
        f2.scale(1.7);
        f2.axpy_inplace(-0.25, &y);
        assert_eq!(f1.max_abs_diff(&f2), 0.0);
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
            let mut fsub = FermionField::zero(g.clone());
            let want = fsub.sub_norm2(&xs[j], &ys[j]);
            assert_eq!(sub.rhs_field(j).max_abs_diff(&fsub), 0.0);
            assert_eq!(sn[j].to_bits(), want.to_bits(), "rhs {j}");
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
