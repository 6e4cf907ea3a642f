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
//! [`reduce::CHUNK_SITES`] outer sites. Reductions (`inner`, `norm2` and the
//! fused `*_norm2` kernels) produce one partial per chunk, in ascending word
//! order, and combine partials with the fixed binary tree of [`reduce`] —
//! so their results are bit-identical for any worker count, which keeps
//! qcd-io's bit-exact checkpoint resume valid under threading. With a single
//! worker every operation degrades to a direct loop that allocates nothing;
//! the solvers' allocation-free steady state depends on that.

use crate::complex::Complex;
use crate::layout::{Coor, Grid};
use crate::reduce;
use crate::rng::{stream_id, uniform};
use crate::simd::{CVec, SimdEngine, Words};
use rayon::prelude::*;
use std::marker::PhantomData;
use std::sync::Arc;
use sve::SveFloat;

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

/// A half (spin-projected) fermion: 2 spinor x 3 color components.
pub struct HalfFermionKind;
impl FieldKind for HalfFermionKind {
    const NCOMP: usize = 6;
    const NAME: &'static str = "half spinor";
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

/// A lattice field of kind `K`.
pub struct Field<K: FieldKind, E: SveFloat = f64> {
    grid: Arc<Grid<E>>,
    data: Vec<E>,
    _k: PhantomData<K>,
}

/// A complex scalar field.
pub type ComplexField = Field<ScalarKind>;
/// A quark (spin-color) field.
pub type FermionField = Field<FermionKind>;
/// A spin-projected half fermion field.
pub type HalfFermionField = Field<HalfFermionKind>;
/// The SU(3) gauge configuration.
pub type GaugeField = Field<GaugeKind>;

impl<K: FieldKind, E: SveFloat> Clone for Field<K, E> {
    fn clone(&self) -> Self {
        Field {
            grid: self.grid.clone(),
            data: self.data.clone(),
            _k: PhantomData,
        }
    }
}

impl<K: FieldKind, E: SveFloat> Field<K, E> {
    /// A zero field on `grid`.
    pub fn zero(grid: Arc<Grid<E>>) -> Self {
        let word = grid.engine().word_len();
        let data = vec![E::zero(); grid.osites() * K::NCOMP * word];
        Field {
            grid,
            data,
            _k: PhantomData,
        }
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

    /// Scalars per site = `NCOMP * 2 * lanes_c`.
    pub fn site_stride(&self) -> usize {
        K::NCOMP * self.grid.engine().word_len()
    }

    /// One component's SIMD word at an outer site.
    #[inline]
    pub fn word(&self, osite: usize, comp: usize) -> &[E] {
        let w = self.grid.engine().word_len();
        let off = (osite * K::NCOMP + comp) * w;
        &self.data[off..off + w]
    }

    /// Mutable SIMD word.
    #[inline]
    pub fn word_mut(&mut self, osite: usize, comp: usize) -> &mut [E] {
        let w = self.grid.engine().word_len();
        let off = (osite * K::NCOMP + comp) * w;
        &mut self.data[off..off + w]
    }

    /// Raw storage (site-major, component, interleaved lanes).
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

    fn assert_compatible(&self, other: &Field<K, E>) {
        assert!(
            Arc::ptr_eq(&self.grid, &other.grid),
            "fields live on different grids"
        );
    }

    /// Scalars per parallel work unit / reduction chunk.
    #[inline]
    fn chunk_scalars(&self) -> usize {
        reduce::CHUNK_SITES * K::NCOMP * self.grid.engine().word_len()
    }

    /// Map every word of `self` through `f` in place, in parallel.
    fn map_words0<const N: usize>(
        &mut self,
        eng: &Words<'_, E, N>,
        f: impl Fn(&SimdEngine<E>, CVec<N>) -> CVec<N> + Sync,
    ) {
        let cs = self.chunk_scalars();
        let w = eng.word_len();
        self.data.par_chunks_mut(cs).for_each(|chunk| {
            for sw in chunk.chunks_exact_mut(w) {
                let sv = eng.load(sw);
                eng.store(sw, f(eng, sv));
            }
        });
    }

    /// Map every word of `self` through `f(self_word, x_word)` in place, in
    /// parallel.
    fn map_words1<const N: usize>(
        &mut self,
        eng: &Words<'_, E, N>,
        x: &Field<K, E>,
        f: impl Fn(&SimdEngine<E>, CVec<N>, CVec<N>) -> CVec<N> + Sync,
    ) {
        self.assert_compatible(x);
        let cs = self.chunk_scalars();
        let w = eng.word_len();
        let xd = x.data();
        let data = &mut self.data;
        data.par_chunks_mut(cs).enumerate().for_each(|(ci, chunk)| {
            let base = ci * cs;
            for (j, sw) in chunk.chunks_exact_mut(w).enumerate() {
                let off = base + j * w;
                let sv = eng.load(sw);
                let xv = eng.load(&xd[off..off + w]);
                eng.store(sw, f(eng, sv, xv));
            }
        });
    }

    /// Overwrite every word of `self` with `f(x_word, y_word)`, in parallel.
    fn map_words2<const N: usize>(
        &mut self,
        eng: &Words<'_, E, N>,
        x: &Field<K, E>,
        y: &Field<K, E>,
        f: impl Fn(&SimdEngine<E>, CVec<N>, CVec<N>) -> CVec<N> + Sync,
    ) {
        self.assert_compatible(x);
        self.assert_compatible(y);
        let cs = self.chunk_scalars();
        let w = eng.word_len();
        let xd = x.data();
        let yd = y.data();
        let data = &mut self.data;
        data.par_chunks_mut(cs).enumerate().for_each(|(ci, chunk)| {
            let base = ci * cs;
            for (j, sw) in chunk.chunks_exact_mut(w).enumerate() {
                let off = base + j * w;
                let xv = eng.load(&xd[off..off + w]);
                let yv = eng.load(&yd[off..off + w]);
                eng.store(sw, f(eng, xv, yv));
            }
        });
    }

    /// Deterministic chunked tree reduction over this field's chunks.
    /// `leaf(chunk_index, chunk)` must accumulate in ascending word order so
    /// the serial and parallel paths agree bit-for-bit.
    fn chunk_reduce<R: Copy + Send>(
        &self,
        leaf: impl Fn(usize, &[E]) -> R + Sync,
        combine: impl Fn(R, R) -> R + Sync,
    ) -> R {
        let cs = self.chunk_scalars();
        let n = reduce::n_chunks(self.data.len(), cs);
        if rayon::current_num_threads() <= 1 || n <= 1 {
            let mut lf = |ci: usize| {
                let lo = ci * cs;
                let hi = (lo + cs).min(self.data.len());
                leaf(ci, &self.data[lo..hi])
            };
            reduce::reduce_serial(n, &mut lf, &combine)
        } else {
            let leaves: Vec<R> = self
                .data
                .par_chunks(cs)
                .enumerate()
                .map(|(ci, c)| leaf(ci, c))
                .collect();
            reduce::combine_tree(&leaves, &combine)
        }
    }

    /// As [`Self::chunk_reduce`], but the leaf also mutates its chunk (the
    /// fused update+reduce kernels).
    fn chunk_reduce_mut<R: Copy + Send>(
        &mut self,
        leaf: impl Fn(usize, &mut [E]) -> R + Sync,
        combine: impl Fn(R, R) -> R + Sync,
    ) -> R {
        let cs = self.chunk_scalars();
        let len = self.data.len();
        let n = reduce::n_chunks(len, cs);
        let data = &mut self.data;
        if rayon::current_num_threads() <= 1 || n <= 1 {
            let mut lf = |ci: usize| {
                let lo = ci * cs;
                let hi = (lo + cs).min(len);
                leaf(ci, &mut data[lo..hi])
            };
            reduce::reduce_serial(n, &mut lf, &combine)
        } else {
            let leaves: Vec<R> = data
                .par_chunks_mut(cs)
                .enumerate()
                .map(|(ci, c)| leaf(ci, c))
                .collect();
            reduce::combine_tree(&leaves, &combine)
        }
    }

    /// `self = a * x + y` lane-wise (one fused `fmla` per word).
    pub fn axpy(&mut self, a: f64, x: &Field<K, E>, y: &Field<K, E>) {
        crate::sized!(x.grid.engine(), |eng| {
            let a_dup = eng.dup_real(a);
            self.map_words2(eng, x, y, move |eng, xv, yv| eng.axpy_word(a_dup, xv, yv));
        })
    }

    /// `self += a * x`.
    pub fn axpy_inplace(&mut self, a: f64, x: &Field<K, E>) {
        crate::sized!(x.grid.engine(), |eng| {
            let a_dup = eng.dup_real(a);
            self.map_words1(eng, x, move |eng, sv, xv| eng.axpy_word(a_dup, xv, sv));
        })
    }

    /// `self = x + a * self` (the CG search-direction update).
    pub fn aypx(&mut self, a: f64, x: &Field<K, E>) {
        crate::sized!(x.grid.engine(), |eng| {
            let a_dup = eng.dup_real(a);
            self.map_words1(eng, x, move |eng, sv, xv| eng.axpy_word(a_dup, sv, xv));
        })
    }

    /// `self *= a` (real scale).
    pub fn scale(&mut self, a: f64) {
        let grid = self.grid.clone();
        crate::sized!(grid.engine(), |eng| {
            let a_dup = eng.dup_real(a);
            self.map_words0(eng, move |eng, sv| eng.scale(a_dup, sv));
        })
    }

    /// `self = x - y`.
    pub fn sub(&mut self, x: &Field<K, E>, y: &Field<K, E>) {
        crate::sized!(x.grid.engine(), |eng| {
            self.map_words2(eng, x, y, |eng, xv, yv| eng.sub(xv, yv));
        })
    }

    /// `self = a * x + c * y` (two-term real linear combination, computed
    /// as `mul` then `fmla` — the exact op sequence of `scale` + `axpy`).
    pub fn scale_axpy_from(&mut self, a: f64, x: &Field<K, E>, c: f64, y: &Field<K, E>) {
        crate::sized!(x.grid.engine(), |eng| {
            let a_dup = eng.dup_real(a);
            let c_dup = eng.dup_real(c);
            self.map_words2(eng, x, y, move |eng, xv, yv| {
                eng.axpy_word(c_dup, yv, eng.scale(a_dup, xv))
            });
        })
    }

    /// `self += a * x` with a complex scalar `a` (splat + complex FMA).
    pub fn axpy_complex(&mut self, a: Complex, x: &Field<K, E>) {
        crate::sized!(x.grid.engine(), |eng| {
            let a_splat = eng.splat(a);
            self.map_words1(eng, x, move |eng, sv, xv| eng.madd(sv, a_splat, xv));
        })
    }

    /// `self *= a` with a complex scalar `a`.
    pub fn scale_complex(&mut self, a: Complex) {
        let grid = self.grid.clone();
        crate::sized!(grid.engine(), |eng| {
            let a_splat = eng.splat(a);
            self.map_words0(eng, move |eng, sv| eng.mult(a_splat, sv));
        })
    }

    /// `self += x`.
    pub fn add_assign_field(&mut self, x: &Field<K, E>) {
        crate::sized!(x.grid.engine(), |eng| {
            self.map_words1(eng, x, |eng, sv, xv| eng.add(sv, xv));
        })
    }

    /// `self = y + a * x` with complex `a` — one sweep instead of
    /// `clone` + `axpy_complex`.
    pub fn caxpy_from(&mut self, a: Complex, x: &Field<K, E>, y: &Field<K, E>) {
        crate::sized!(x.grid.engine(), |eng| {
            let a_splat = eng.splat(a);
            self.map_words2(eng, x, y, move |eng, xv, yv| eng.madd(yv, a_splat, xv));
        })
    }

    /// `self += a * x + b * y` with complex scalars — one sweep instead of
    /// two `axpy_complex` calls, same op sequence per word.
    pub fn caxpy2(&mut self, a: Complex, x: &Field<K, E>, b: Complex, y: &Field<K, E>) {
        self.assert_compatible(x);
        self.assert_compatible(y);
        let cs = self.chunk_scalars();
        let Field { grid, data, .. } = self;
        crate::sized!(grid.engine(), |eng| {
            let w = eng.word_len();
            let a_splat = eng.splat(a);
            let b_splat = eng.splat(b);
            let xd = x.data();
            let yd = y.data();
            data.par_chunks_mut(cs).enumerate().for_each(|(ci, chunk)| {
                let base = ci * cs;
                for (j, sw) in chunk.chunks_exact_mut(w).enumerate() {
                    let off = base + j * w;
                    let sv = eng.load(sw);
                    let xv = eng.load(&xd[off..off + w]);
                    let yv = eng.load(&yd[off..off + w]);
                    let t = eng.madd(sv, a_splat, xv);
                    eng.store(sw, eng.madd(t, b_splat, yv));
                }
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
        self.assert_compatible(v);
        self.assert_compatible(r);
        let cs = self.chunk_scalars();
        let Field { grid, data, .. } = self;
        crate::sized!(grid.engine(), |eng| {
            let w = eng.word_len();
            let no_splat = eng.splat(-omega);
            let b_splat = eng.splat(beta);
            let vd = v.data();
            let rd = r.data();
            data.par_chunks_mut(cs).enumerate().for_each(|(ci, chunk)| {
                let base = ci * cs;
                for (j, sw) in chunk.chunks_exact_mut(w).enumerate() {
                    let off = base + j * w;
                    let sv = eng.load(sw);
                    let vv = eng.load(&vd[off..off + w]);
                    let rv = eng.load(&rd[off..off + w]);
                    let t = eng.madd(sv, no_splat, vv);
                    let t = eng.mult(b_splat, t);
                    eng.store(sw, eng.add(t, rv));
                }
            });
        })
    }

    /// Global inner product `<self, other> = Σ conj(self) · other`
    /// (vectorized conjugate-FMA accumulation, one chunk-tree reduction).
    pub fn inner(&self, other: &Field<K, E>) -> Complex {
        self.assert_compatible(other);
        let cs = self.chunk_scalars();
        crate::sized!(other.grid.engine(), |eng| {
            let w = eng.word_len();
            let od = other.data();
            self.chunk_reduce(
                |ci, chunk| {
                    let base = ci * cs;
                    let mut acc: CVec<_> = eng.zero();
                    for (j, aw) in chunk.chunks_exact(w).enumerate() {
                        let off = base + j * w;
                        let a = eng.load(aw);
                        let b = eng.load(&od[off..off + w]);
                        acc = eng.madd_conj(acc, a, b);
                    }
                    eng.reduce_sum(acc)
                },
                |a, b| a + b,
            )
        })
    }

    /// Global squared norm `|self|^2` (always real, computed as a real
    /// lane-square accumulation with the deterministic chunk tree).
    pub fn norm2(&self) -> f64 {
        crate::sized!(self.grid.engine(), |eng| {
            let w = eng.word_len();
            self.chunk_reduce(
                |_, chunk| {
                    let mut t = 0.0;
                    for aw in chunk.chunks_exact(w) {
                        t += eng.norm2(eng.load(aw));
                    }
                    t
                },
                |a, b| a + b,
            )
        })
    }

    /// Scatter the per-site scalar `Σ_comp |f(x)|²` into `out` in **global
    /// lexicographic site order** (`out.len() == volume`). The order depends
    /// only on the lattice extents — never on the SIMD layout or the worker
    /// count — so [`reduce::canonical_sum`] over `out` returns the same bits
    /// at every vector length and thread count. This is the single-process
    /// form of the canonical scalars `dist_cg` reduces over ranks, and the
    /// primitive the `qcd-deflate` eigensolver builds its VL-invariant
    /// recurrences on. A binary16 field accumulates each site in binary32
    /// (see [`site_dot`]).
    pub fn site_norm2_lex(&self, out: &mut [f64]) {
        lex_scatter(&self.grid, out, |osite, li| {
            site_dot((0..K::NCOMP).map(|comp| {
                let w = self.word(osite, comp);
                [w[li], w[li], w[li + 1], w[li + 1]]
            }))
        });
    }

    /// Scatter the per-site scalar `Re Σ_comp conj(self)·other` into `out`
    /// in global lexicographic site order (see [`Self::site_norm2_lex`]).
    pub fn site_inner_re_lex(&self, other: &Field<K, E>, out: &mut [f64]) {
        self.assert_compatible(other);
        lex_scatter(&self.grid, out, |osite, li| {
            site_dot((0..K::NCOMP).map(|comp| {
                let (a, b) = (self.word(osite, comp), other.word(osite, comp));
                [a[li], b[li], a[li + 1], b[li + 1]]
            }))
        });
    }

    /// `|self|²` via the canonical (layout-independent) reduction: same bits
    /// at every vector length and thread count. Allocates a per-site scatter
    /// buffer; hot loops should hold one and call [`Self::site_norm2_lex`] +
    /// [`reduce::canonical_sum`] directly.
    pub fn canonical_norm2(&self) -> f64 {
        let mut buf = vec![0.0; self.grid.volume()];
        self.site_norm2_lex(&mut buf);
        reduce::canonical_sum(&buf)
    }

    /// `Re ⟨self, other⟩` via the canonical reduction.
    pub fn canonical_inner_re(&self, other: &Field<K, E>) -> f64 {
        let mut buf = vec![0.0; self.grid.volume()];
        self.site_inner_re_lex(other, &mut buf);
        reduce::canonical_sum(&buf)
    }

    /// `⟨self, other⟩` via the canonical reduction: the per-site complex
    /// `Σ_comp conj(self)·other`, accumulated in f64 at every precision.
    pub fn canonical_inner(&self, other: &Field<K, E>) -> Complex {
        self.assert_compatible(other);
        let mut sites = vec![Complex::ZERO; self.grid.volume()];
        lex_scatter(&self.grid, &mut sites, |osite, li| {
            let (mut re, mut im) = (0.0, 0.0);
            for comp in 0..K::NCOMP {
                let a = self.word(osite, comp);
                let b = other.word(osite, comp);
                let (ar, ai) = (a[li].to_f64(), a[li + 1].to_f64());
                let (br, bi) = (b[li].to_f64(), b[li + 1].to_f64());
                re += ar * br + ai * bi;
                im += ar * bi - ai * br;
            }
            Complex::new(re, im)
        });
        let re: Vec<f64> = sites.iter().map(|z| z.re).collect();
        let im: Vec<f64> = sites.iter().map(|z| z.im).collect();
        Complex::new(reduce::canonical_sum(&re), reduce::canonical_sum(&im))
    }

    /// Fused `self += a * x; |self|^2` in one sweep. Bit-identical to the
    /// unfused pair: the norm accumulates the freshly computed words in the
    /// same chunk order [`Self::norm2`] would read them back.
    pub fn axpy_norm2(&mut self, a: f64, x: &Field<K, E>) -> f64 {
        self.assert_compatible(x);
        let cs = self.chunk_scalars();
        crate::sized!(x.grid.engine(), |eng| {
            let w = eng.word_len();
            let a_dup = eng.dup_real(a);
            let xd = x.data();
            self.chunk_reduce_mut(
                |ci, chunk| {
                    let base = ci * cs;
                    let mut t = 0.0;
                    for (j, sw) in chunk.chunks_exact_mut(w).enumerate() {
                        let off = base + j * w;
                        let sv = eng.load(sw);
                        let xv = eng.load(&xd[off..off + w]);
                        let r = eng.axpy_word(a_dup, xv, sv);
                        eng.store(sw, r);
                        t += eng.norm2(r);
                    }
                    t
                },
                |a, b| a + b,
            )
        })
    }

    /// Fused `self += a * x; |self|^2` with complex `a`, one sweep.
    pub fn caxpy_norm2(&mut self, a: Complex, x: &Field<K, E>) -> f64 {
        self.assert_compatible(x);
        let cs = self.chunk_scalars();
        crate::sized!(x.grid.engine(), |eng| {
            let w = eng.word_len();
            let a_splat = eng.splat(a);
            let xd = x.data();
            self.chunk_reduce_mut(
                |ci, chunk| {
                    let base = ci * cs;
                    let mut t = 0.0;
                    for (j, sw) in chunk.chunks_exact_mut(w).enumerate() {
                        let off = base + j * w;
                        let sv = eng.load(sw);
                        let xv = eng.load(&xd[off..off + w]);
                        let r = eng.madd(sv, a_splat, xv);
                        eng.store(sw, r);
                        t += eng.norm2(r);
                    }
                    t
                },
                |a, b| a + b,
            )
        })
    }

    /// Fused `self = x - y; |self|^2` in one sweep (true-residual check).
    pub fn sub_norm2(&mut self, x: &Field<K, E>, y: &Field<K, E>) -> f64 {
        self.assert_compatible(x);
        self.assert_compatible(y);
        let cs = self.chunk_scalars();
        crate::sized!(x.grid.engine(), |eng| {
            let w = eng.word_len();
            let xd = x.data();
            let yd = y.data();
            self.chunk_reduce_mut(
                |ci, chunk| {
                    let base = ci * cs;
                    let mut t = 0.0;
                    for (j, sw) in chunk.chunks_exact_mut(w).enumerate() {
                        let off = base + j * w;
                        let xv = eng.load(&xd[off..off + w]);
                        let yv = eng.load(&yd[off..off + w]);
                        let r = eng.sub(xv, yv);
                        eng.store(sw, r);
                        t += eng.norm2(r);
                    }
                    t
                },
                |a, b| a + b,
            )
        })
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

/// The lexicographic scatter every canonical reduction shares: `out[lex(x)]
/// = site(osite, li)` for each site `x` of `grid`, where `osite` is its
/// outer site and `li` the offset of its real part inside a word. Chunked
/// like the reductions that consume it, so the slot order depends on
/// neither the SIMD layout nor the worker count.
fn lex_scatter<E: SveFloat, T: Send>(
    grid: &Grid<E>,
    out: &mut [T],
    site: impl Fn(usize, usize) -> T + Sync,
) {
    assert_eq!(out.len(), grid.volume(), "scatter buffer != volume");
    let fdims = grid.fdims();
    out.par_chunks_mut(reduce::CHUNK_SITES)
        .enumerate()
        .for_each(|(ci, chunk)| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                let x = crate::layout::delex(ci * reduce::CHUNK_SITES + k, &fdims);
                let (osite, lane) = grid.coor_to_osite_lane(&x);
                *slot = site(osite, 2 * lane);
            }
        });
}

/// `Σ (a·b + c·d)` over the `[a, b, c, d]` of a site's components, in
/// order, in the accumulator canonical reductions of `E` use: f64, except
/// binary32 for binary16 — the product of two f16 values is exact in f32
/// (11-bit significands multiply into at most 22 bits), so only the
/// additions round, and the binary16 tier steers by reductions no wider
/// than an f16 unit's accumulator.
#[inline(always)]
fn site_dot<E: SveFloat>(terms: impl Iterator<Item = [E; 4]>) -> f64 {
    if E::BYTES == 2 {
        let f32_of = |v: E| v.to_f64() as f32;
        let mut s = 0.0f32;
        for [a, b, c, d] in terms {
            s += f32_of(a) * f32_of(b) + f32_of(c) * f32_of(d);
        }
        s as f64
    } else {
        let mut s = 0.0;
        for [a, b, c, d] in terms {
            s += a.to_f64() * b.to_f64() + c.to_f64() * d.to_f64();
        }
        s
    }
}

/// The fused CG iterate/residual update: `x += alpha * p`, `r -= alpha *
/// ap`, returning the new `|r|^2` — one zipped sweep over `x`/`r` instead of
/// two axpys plus a separate norm. Bit-identical to the unfused sequence
/// (`axpy_inplace(alpha, p)`, `axpy_inplace(-alpha, ap)`, `norm2()`): every
/// word sees the same engine ops, and the norm accumulates per reduction
/// chunk in the order `norm2` would.
pub fn cg_update_x_r<K: FieldKind, E: SveFloat>(
    x: &mut Field<K, E>,
    r: &mut Field<K, E>,
    alpha: f64,
    p: &Field<K, E>,
    ap: &Field<K, E>,
) -> f64 {
    x.assert_compatible(r);
    x.assert_compatible(p);
    x.assert_compatible(ap);
    let cs = x.chunk_scalars();
    crate::sized!(p.grid.engine(), |eng| {
        let w = eng.word_len();
        let a_dup = eng.dup_real(alpha);
        let na_dup = eng.dup_real(-alpha);
        let pd = p.data();
        let apd = ap.data();
        let xd = x.data.as_mut_slice();
        let rd = r.data.as_mut_slice();
        let len = xd.len();
        let kernel = |ci: usize, xc: &mut [E], rc: &mut [E]| -> f64 {
            let base = ci * cs;
            let mut t = 0.0;
            for (j, (xw, rw)) in xc
                .chunks_exact_mut(w)
                .zip(rc.chunks_exact_mut(w))
                .enumerate()
            {
                let off = base + j * w;
                let pv = eng.load(&pd[off..off + w]);
                let apv = eng.load(&apd[off..off + w]);
                let xv = eng.load(xw);
                eng.store(xw, eng.axpy_word(a_dup, pv, xv));
                let rv = eng.load(rw);
                let rn = eng.axpy_word(na_dup, apv, rv);
                eng.store(rw, rn);
                t += eng.norm2(rn);
            }
            t
        };
        let n = reduce::n_chunks(len, cs);
        if rayon::current_num_threads() <= 1 || n <= 1 {
            let mut lf = |ci: usize| {
                let lo = ci * cs;
                let hi = (lo + cs).min(len);
                kernel(ci, &mut xd[lo..hi], &mut rd[lo..hi])
            };
            reduce::reduce_serial(n, &mut lf, &|a, b| a + b)
        } else {
            let leaves: Vec<f64> = xd
                .par_chunks_mut(cs)
                .zip(rd.par_chunks_mut(cs))
                .enumerate()
                .map(|(ci, (xc, rc))| kernel(ci, xc, rc))
                .collect();
            reduce::combine_tree(&leaves, &|a, b| a + b)
        }
    })
}

/// A batch of `N` right-hand-side fermion fields stored **site-major**: at
/// every outer site the `N` spinors are contiguous (site, rhs, component,
/// lanes), so the dslash loads each gauge link and projector table once per
/// site and applies them to all `N` spinors while they are hot.
///
/// The layout is the multi-RHS trick of Grid-on-A64FX: arithmetic intensity
/// of the hopping term grows from `1320 / (192N + 144)·N⁻¹` flops per read
/// toward the link-free limit as `N` grows, because the `8 × 18` link reals
/// per site are amortized over the batch.
///
/// Every per-RHS quantity (norms, inner products, CG recurrences) is
/// computed with the same fixed-chunk tree reductions as [`Field`] — chunks
/// cover [`reduce::CHUNK_SITES`] outer sites, so the chunk *count* and the
/// per-RHS accumulation order are identical to a single-RHS field on the
/// same grid. A block with `N = 1` is therefore bit-identical to the
/// single-RHS path, and per-RHS results at any `N` match `N` independent
/// single-RHS computations bit for bit.
pub struct FermionBlock<E: SveFloat = f64> {
    grid: Arc<Grid<E>>,
    nrhs: usize,
    data: Vec<E>,
}

impl<E: SveFloat> Clone for FermionBlock<E> {
    fn clone(&self) -> Self {
        FermionBlock {
            grid: self.grid.clone(),
            nrhs: self.nrhs,
            data: self.data.clone(),
        }
    }
}

impl<E: SveFloat> FermionBlock<E> {
    /// A zero block of `nrhs` right-hand sides on `grid`.
    pub fn zero(grid: Arc<Grid<E>>, nrhs: usize) -> Self {
        assert!(nrhs >= 1, "a fermion block needs at least one RHS");
        let word = grid.engine().word_len();
        let data = vec![E::zero(); grid.osites() * nrhs * FermionKind::NCOMP * word];
        FermionBlock { grid, nrhs, data }
    }

    /// Gather `fields` into one site-major block (RHS `i` = `fields[i]`).
    pub fn from_fields(fields: &[Field<FermionKind, E>]) -> Self {
        assert!(!fields.is_empty(), "a fermion block needs at least one RHS");
        let grid = fields[0].grid().clone();
        let mut block = Self::zero(grid, fields.len());
        for (i, f) in fields.iter().enumerate() {
            block.set_rhs(i, f);
        }
        block
    }

    /// The lattice this block lives on.
    pub fn grid(&self) -> &Arc<Grid<E>> {
        &self.grid
    }

    /// Number of right-hand sides in the batch.
    pub fn nrhs(&self) -> usize {
        self.nrhs
    }

    /// Scalars per outer site = `nrhs * 12 * 2 * lanes_c`.
    pub fn site_stride(&self) -> usize {
        self.nrhs * FermionKind::NCOMP * self.grid.engine().word_len()
    }

    /// One component word of one RHS at an outer site.
    #[inline]
    pub fn word(&self, osite: usize, rhs: usize, comp: usize) -> &[E] {
        let w = self.grid.engine().word_len();
        let off = ((osite * self.nrhs + rhs) * FermionKind::NCOMP + comp) * w;
        &self.data[off..off + w]
    }

    /// Mutable component word of one RHS at an outer site.
    #[inline]
    pub fn word_mut(&mut self, osite: usize, rhs: usize, comp: usize) -> &mut [E] {
        let w = self.grid.engine().word_len();
        let off = ((osite * self.nrhs + rhs) * FermionKind::NCOMP + comp) * w;
        &mut self.data[off..off + w]
    }

    /// Raw storage (site, rhs, component, interleaved lanes).
    pub fn data(&self) -> &[E] {
        &self.data
    }

    /// Mutable raw storage.
    pub fn data_mut(&mut self) -> &mut [E] {
        &mut self.data
    }

    /// Overwrite RHS `i` with a field's content (bit-exact copy).
    pub fn set_rhs(&mut self, i: usize, f: &Field<FermionKind, E>) {
        assert!(
            Arc::ptr_eq(&self.grid, f.grid()),
            "fields live on different grids"
        );
        assert!(i < self.nrhs, "RHS index out of range");
        let w = self.grid.engine().word_len();
        for osite in 0..self.grid.osites() {
            for comp in 0..FermionKind::NCOMP {
                self.word_mut(osite, i, comp)
                    .copy_from_slice(&f.data()[(osite * FermionKind::NCOMP + comp) * w..][..w]);
            }
        }
    }

    /// Extract RHS `i` into a freshly allocated field (bit-exact copy).
    pub fn rhs_field(&self, i: usize) -> Field<FermionKind, E> {
        let mut f = Field::<FermionKind, E>::zero(self.grid.clone());
        self.copy_rhs_into(i, &mut f);
        f
    }

    /// Copy RHS `i` into an existing field (bit-exact).
    pub fn copy_rhs_into(&self, i: usize, out: &mut Field<FermionKind, E>) {
        assert!(
            Arc::ptr_eq(&self.grid, out.grid()),
            "fields live on different grids"
        );
        assert!(i < self.nrhs, "RHS index out of range");
        let w = self.grid.engine().word_len();
        for osite in 0..self.grid.osites() {
            for comp in 0..FermionKind::NCOMP {
                out.data_mut()[(osite * FermionKind::NCOMP + comp) * w..][..w]
                    .copy_from_slice(self.word(osite, i, comp));
            }
        }
    }

    fn assert_compatible(&self, other: &FermionBlock<E>) {
        assert!(
            Arc::ptr_eq(&self.grid, &other.grid),
            "blocks live on different grids"
        );
        assert_eq!(self.nrhs, other.nrhs, "blocks hold different batch sizes");
    }

    /// Scalars per parallel work unit / reduction chunk: the block chunk
    /// covers the same [`reduce::CHUNK_SITES`] outer sites as a [`Field`]
    /// chunk, so the reduction tree has the same shape.
    #[inline]
    fn chunk_scalars(&self) -> usize {
        reduce::CHUNK_SITES * self.nrhs * FermionKind::NCOMP * self.grid.engine().word_len()
    }

    /// `self *= a` (real scale, uniform across the batch) — per word the
    /// exact op of [`Field::scale`].
    pub fn scale(&mut self, a: f64) {
        let cs = self.chunk_scalars();
        crate::sized!(self.grid.engine(), |eng| {
            let w = eng.word_len();
            let a_dup = eng.dup_real(a);
            self.data.par_chunks_mut(cs).for_each(|chunk| {
                for sw in chunk.chunks_exact_mut(w) {
                    let sv = eng.load(sw);
                    eng.store(sw, eng.scale(a_dup, sv));
                }
            });
        })
    }

    /// `self += a * x` (uniform across the batch) — per word the exact op of
    /// [`Field::axpy_inplace`].
    pub fn axpy_inplace(&mut self, a: f64, x: &FermionBlock<E>) {
        self.assert_compatible(x);
        let cs = self.chunk_scalars();
        crate::sized!(self.grid.engine(), |eng| {
            let w = eng.word_len();
            let a_dup = eng.dup_real(a);
            let xd = x.data();
            self.data
                .par_chunks_mut(cs)
                .enumerate()
                .for_each(|(ci, chunk)| {
                    let base = ci * cs;
                    for (j, sw) in chunk.chunks_exact_mut(w).enumerate() {
                        let off = base + j * w;
                        let sv = eng.load(sw);
                        let xv = eng.load(&xd[off..off + w]);
                        eng.store(sw, eng.axpy_word(a_dup, xv, sv));
                    }
                });
        })
    }

    /// `self = a * x + c * y` (uniform) — per word the exact op sequence of
    /// [`Field::scale_axpy_from`].
    pub fn scale_axpy_from(&mut self, a: f64, x: &FermionBlock<E>, c: f64, y: &FermionBlock<E>) {
        self.assert_compatible(x);
        self.assert_compatible(y);
        let cs = self.chunk_scalars();
        crate::sized!(self.grid.engine(), |eng| {
            let w = eng.word_len();
            let a_dup = eng.dup_real(a);
            let c_dup = eng.dup_real(c);
            let xd = x.data();
            let yd = y.data();
            self.data
                .par_chunks_mut(cs)
                .enumerate()
                .for_each(|(ci, chunk)| {
                    let base = ci * cs;
                    for (j, sw) in chunk.chunks_exact_mut(w).enumerate() {
                        let off = base + j * w;
                        let xv = eng.load(&xd[off..off + w]);
                        let yv = eng.load(&yd[off..off + w]);
                        eng.store(sw, eng.axpy_word(c_dup, yv, eng.scale(a_dup, xv)));
                    }
                });
        })
    }

    /// Per-RHS search-direction update `self_j = x_j + a[j] * self_j`,
    /// skipping inactive RHS entirely (their words are not even loaded).
    /// For an active RHS this is per word the exact op of [`Field::aypx`].
    pub fn aypx_masked(&mut self, a: &[f64], x: &FermionBlock<E>, active: &[bool]) {
        self.assert_compatible(x);
        assert_eq!(a.len(), self.nrhs);
        assert_eq!(active.len(), self.nrhs);
        let cs = self.chunk_scalars();
        let nrhs = self.nrhs;
        crate::sized!(self.grid.engine(), |eng| {
            let w = eng.word_len();
            let a_dups: Vec<CVec<_>> = a.iter().map(|&v| eng.dup_real(v)).collect();
            let xd = x.data();
            self.data
                .par_chunks_mut(cs)
                .enumerate()
                .for_each(|(ci, chunk)| {
                    let base = ci * cs;
                    for (j, sw) in chunk.chunks_exact_mut(w).enumerate() {
                        let rhs = (j / FermionKind::NCOMP) % nrhs;
                        if !active[rhs] {
                            continue;
                        }
                        let off = base + j * w;
                        let sv = eng.load(sw);
                        let xv = eng.load(&xd[off..off + w]);
                        eng.store(sw, eng.axpy_word(a_dups[rhs], sv, xv));
                    }
                });
        })
    }

    /// Deterministic chunked tree reduction producing one partial *vector*
    /// (one entry per RHS) per chunk. Within a chunk the leaf walks words in
    /// storage order (site, rhs, component), so each RHS accumulates its
    /// values in exactly the order the corresponding [`Field`] reduction
    /// would; the partials combine element-wise through
    /// [`reduce::combine_tree_ref`], whose tree shape matches
    /// [`reduce::combine_tree`] — per-RHS results are bit-identical to `N`
    /// independent single-RHS reductions.
    fn chunk_reduce_vec<R: Clone + Send + Sync>(
        &self,
        leaf: impl Fn(usize, &[E]) -> Vec<R> + Sync,
        combine: impl Fn(&R, &R) -> R + Sync,
    ) -> Vec<R> {
        let cs = self.chunk_scalars();
        let n = reduce::n_chunks(self.data.len(), cs);
        let combine_vec = |a: &Vec<R>, b: &Vec<R>| -> Vec<R> {
            a.iter().zip(b.iter()).map(|(x, y)| combine(x, y)).collect()
        };
        if rayon::current_num_threads() <= 1 || n <= 1 {
            let mut lf = |ci: usize| {
                let lo = ci * cs;
                let hi = (lo + cs).min(self.data.len());
                leaf(ci, &self.data[lo..hi])
            };
            reduce::reduce_serial(n, &mut lf, &|a, b| combine_vec(&a, &b))
        } else {
            let leaves: Vec<Vec<R>> = self
                .data
                .par_chunks(cs)
                .enumerate()
                .map(|(ci, c)| leaf(ci, c))
                .collect();
            reduce::combine_tree_ref(&leaves, &combine_vec)
        }
    }

    /// Per-RHS squared norms, bit-identical to calling [`Field::norm2`] on
    /// each extracted RHS.
    pub fn norms2(&self) -> Vec<f64> {
        crate::sized!(self.grid.engine(), |eng| {
            let w = eng.word_len();
            let nrhs = self.nrhs;
            self.chunk_reduce_vec(
                |_, chunk| {
                    let mut t = vec![0.0; nrhs];
                    for (j, aw) in chunk.chunks_exact(w).enumerate() {
                        t[(j / FermionKind::NCOMP) % nrhs] += eng.norm2(eng.load(aw));
                    }
                    t
                },
                |a, b| a + b,
            )
        })
    }

    /// Per-RHS inner products `⟨self_j, other_j⟩`, bit-identical to
    /// [`Field::inner`] per extracted RHS (same conjugate-FMA word
    /// accumulation, one `reduce_sum` per chunk per RHS, same chunk tree).
    pub fn inners(&self, other: &FermionBlock<E>) -> Vec<Complex> {
        self.assert_compatible(other);
        let cs = self.chunk_scalars();
        crate::sized!(self.grid.engine(), |eng| {
            let w = eng.word_len();
            let nrhs = self.nrhs;
            let od = other.data();
            self.chunk_reduce_vec(
                |ci, chunk| {
                    let base = ci * cs;
                    let mut acc: Vec<CVec<_>> = vec![eng.zero(); nrhs];
                    for (j, aw) in chunk.chunks_exact(w).enumerate() {
                        let off = base + j * w;
                        let a = eng.load(aw);
                        let b = eng.load(&od[off..off + w]);
                        let rhs = (j / FermionKind::NCOMP) % nrhs;
                        acc[rhs] = eng.madd_conj(acc[rhs], a, b);
                    }
                    acc.iter().map(|&a| eng.reduce_sum(a)).collect()
                },
                |a, b| *a + *b,
            )
        })
    }

    /// Scatter per-site per-RHS `Σ_comp |·|²` into `out` in global
    /// lexicographic site order, RHS-major: `out[j * volume + lex(x)]` is
    /// RHS `j`'s contribution at site `x`. The per-site accumulation order
    /// (components ascending, `re² + im²`) matches [`Field::site_norm2_lex`]
    /// exactly, so per-RHS canonical sums are bit-identical to the extracted
    /// single-RHS field's — at every vector length, batch width, and thread
    /// count.
    pub fn site_norms2_lex(&self, out: &mut [f64]) {
        let vol = self.grid.volume();
        assert_eq!(
            out.len(),
            self.nrhs * vol,
            "scatter buffer != nrhs * volume"
        );
        for (rhs, row) in out.chunks_exact_mut(vol).enumerate() {
            lex_scatter(&self.grid, row, |osite, li| {
                site_dot((0..FermionKind::NCOMP).map(|comp| {
                    let w = self.word(osite, rhs, comp);
                    [w[li], w[li], w[li + 1], w[li + 1]]
                }))
            });
        }
    }

    /// Scatter per-site per-RHS `Re Σ_comp conj(self)·other` into `out`
    /// (RHS-major lexicographic, see [`Self::site_norms2_lex`]), matching
    /// [`Field::site_inner_re_lex`] per RHS bit for bit.
    pub fn site_inners_re_lex(&self, other: &FermionBlock<E>, out: &mut [f64]) {
        self.assert_compatible(other);
        let vol = self.grid.volume();
        assert_eq!(
            out.len(),
            self.nrhs * vol,
            "scatter buffer != nrhs * volume"
        );
        for (rhs, row) in out.chunks_exact_mut(vol).enumerate() {
            lex_scatter(&self.grid, row, |osite, li| {
                site_dot((0..FermionKind::NCOMP).map(|comp| {
                    let (a, b) = (self.word(osite, rhs, comp), other.word(osite, rhs, comp));
                    [a[li], b[li], a[li + 1], b[li + 1]]
                }))
            });
        }
    }

    /// Fused `self = x - y; per-RHS |self|²` in one sweep — the block form
    /// of [`Field::sub_norm2`], used for the batched true-residual check.
    pub fn sub_norms2(&mut self, x: &FermionBlock<E>, y: &FermionBlock<E>) -> Vec<f64> {
        self.assert_compatible(x);
        self.assert_compatible(y);
        let cs = self.chunk_scalars();
        let len = self.data.len();
        let n = reduce::n_chunks(len, cs);
        crate::sized!(self.grid.engine(), |eng| {
            let w = eng.word_len();
            let nrhs = self.nrhs;
            let xd = x.data();
            let yd = y.data();
            let kernel = |ci: usize, chunk: &mut [E]| -> Vec<f64> {
                let base = ci * cs;
                let mut t = vec![0.0; nrhs];
                for (j, sw) in chunk.chunks_exact_mut(w).enumerate() {
                    let off = base + j * w;
                    let xv = eng.load(&xd[off..off + w]);
                    let yv = eng.load(&yd[off..off + w]);
                    let r = eng.sub(xv, yv);
                    eng.store(sw, r);
                    t[(j / FermionKind::NCOMP) % nrhs] += eng.norm2(r);
                }
                t
            };
            let combine = |a: &Vec<f64>, b: &Vec<f64>| -> Vec<f64> {
                a.iter().zip(b.iter()).map(|(x, y)| x + y).collect()
            };
            let data = &mut self.data;
            if rayon::current_num_threads() <= 1 || n <= 1 {
                let mut lf = |ci: usize| {
                    let lo = ci * cs;
                    let hi = (lo + cs).min(len);
                    kernel(ci, &mut data[lo..hi])
                };
                reduce::reduce_serial(n, &mut lf, &|a, b| combine(&a, &b))
            } else {
                let leaves: Vec<Vec<f64>> = data
                    .par_chunks_mut(cs)
                    .enumerate()
                    .map(|(ci, c)| kernel(ci, c))
                    .collect();
                reduce::combine_tree_ref(&leaves, &combine)
            }
        })
    }

    /// Maximum absolute difference to another block (test metric).
    pub fn max_abs_diff(&self, other: &FermionBlock<E>) -> f64 {
        self.assert_compatible(other);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }
}

/// The batched CG iterate/residual update: for every **active** RHS `j`,
/// `x_j += alpha[j] * p_j`, `r_j -= alpha[j] * ap_j`, returning the new
/// per-RHS `|r_j|²` — the block form of [`cg_update_x_r`]. Inactive RHS are
/// untouched (words not loaded, nothing accumulated; their result entry is
/// 0 and must be ignored). For an active RHS every word sees the exact op
/// sequence of [`cg_update_x_r`] and the norm accumulates in the same chunk
/// order and tree grouping, so per-RHS results match the single-RHS path
/// bit for bit.
pub fn block_cg_update_x_r<E: SveFloat>(
    x: &mut FermionBlock<E>,
    r: &mut FermionBlock<E>,
    alpha: &[f64],
    p: &FermionBlock<E>,
    ap: &FermionBlock<E>,
    active: &[bool],
) -> Vec<f64> {
    x.assert_compatible(r);
    x.assert_compatible(p);
    x.assert_compatible(ap);
    let nrhs = x.nrhs();
    assert_eq!(alpha.len(), nrhs);
    assert_eq!(active.len(), nrhs);
    let cs = x.chunk_scalars();
    crate::sized!(p.grid.engine(), |eng| {
        let w = eng.word_len();
        let a_dups: Vec<CVec<_>> = alpha.iter().map(|&a| eng.dup_real(a)).collect();
        let na_dups: Vec<CVec<_>> = alpha.iter().map(|&a| eng.dup_real(-a)).collect();
        let pd = p.data();
        let apd = ap.data();
        let xd = x.data.as_mut_slice();
        let rd = r.data.as_mut_slice();
        let len = xd.len();
        let kernel = |ci: usize, xc: &mut [E], rc: &mut [E]| -> Vec<f64> {
            let base = ci * cs;
            let mut t = vec![0.0; nrhs];
            for (j, (xw, rw)) in xc
                .chunks_exact_mut(w)
                .zip(rc.chunks_exact_mut(w))
                .enumerate()
            {
                let rhs = (j / FermionKind::NCOMP) % nrhs;
                if !active[rhs] {
                    continue;
                }
                let off = base + j * w;
                let pv = eng.load(&pd[off..off + w]);
                let apv = eng.load(&apd[off..off + w]);
                let xv = eng.load(xw);
                eng.store(xw, eng.axpy_word(a_dups[rhs], pv, xv));
                let rv = eng.load(rw);
                let rn = eng.axpy_word(na_dups[rhs], apv, rv);
                eng.store(rw, rn);
                t[rhs] += eng.norm2(rn);
            }
            t
        };
        let combine = |a: &Vec<f64>, b: &Vec<f64>| -> Vec<f64> {
            a.iter().zip(b.iter()).map(|(x, y)| x + y).collect()
        };
        let n = reduce::n_chunks(len, cs);
        if rayon::current_num_threads() <= 1 || n <= 1 {
            let mut lf = |ci: usize| {
                let lo = ci * cs;
                let hi = (lo + cs).min(len);
                kernel(ci, &mut xd[lo..hi], &mut rd[lo..hi])
            };
            reduce::reduce_serial(n, &mut lf, &|a, b| combine(&a, &b))
        } else {
            let leaves: Vec<Vec<f64>> = xd
                .par_chunks_mut(cs)
                .zip(rd.par_chunks_mut(cs))
                .enumerate()
                .map(|(ci, (xc, rc))| kernel(ci, xc, rc))
                .collect();
            reduce::combine_tree_ref(&leaves, &combine)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::SimdBackend;
    use sve::VectorLength;

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
        assert!((xx.re - x.norm2()).abs() < 1e-9 * xx.re);
    }

    #[test]
    fn canonical_reductions_are_bit_identical_across_vls() {
        // The canonical reductions sum per-site scalars in global lex order
        // with the fixed chunk tree: the exact bits must not depend on the
        // vector length (random fields are layout-independent by seed).
        let mut reference: Option<(u64, u64, u64, u64)> = None;
        for bits in [128usize, 256, 512, 1024, 2048] {
            let g = Grid::new([4, 4, 4, 4], VectorLength::of(bits), SimdBackend::Fcmla);
            let x = FermionField::random(g.clone(), 9);
            let y = FermionField::random(g.clone(), 10);
            let n = x.canonical_norm2();
            let ir = x.canonical_inner_re(&y);
            let z = x.canonical_inner(&y);
            assert!((n - x.norm2()).abs() < 1e-9 * n, "vl={bits}");
            assert!((z.re - ir).abs() == 0.0, "vl={bits}");
            let got = (n.to_bits(), ir.to_bits(), z.re.to_bits(), z.im.to_bits());
            match reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(got, want, "vl={bits}"),
            }
        }
    }

    #[test]
    fn block_canonical_scatter_matches_single_rhs() {
        let g = grid();
        let fields: Vec<FermionField> = (0..3)
            .map(|j| FermionField::random(g.clone(), 30 + j))
            .collect();
        let others: Vec<FermionField> = (0..3)
            .map(|j| FermionField::random(g.clone(), 40 + j))
            .collect();
        let a = FermionBlock::from_fields(&fields);
        let b = FermionBlock::from_fields(&others);
        let vol = g.volume();
        let mut outs = vec![0.0; 3 * vol];
        let mut dots = vec![0.0; 3 * vol];
        a.site_norms2_lex(&mut outs);
        a.site_inners_re_lex(&b, &mut dots);
        let mut single = vec![0.0; vol];
        for j in 0..3 {
            fields[j].site_norm2_lex(&mut single);
            assert_eq!(
                reduce::canonical_sum(&single).to_bits(),
                reduce::canonical_sum(&outs[j * vol..(j + 1) * vol]).to_bits(),
                "rhs {j} norm"
            );
            fields[j].site_inner_re_lex(&others[j], &mut single);
            assert_eq!(
                reduce::canonical_sum(&single).to_bits(),
                reduce::canonical_sum(&dots[j * vol..(j + 1) * vol]).to_bits(),
                "rhs {j} dot"
            );
        }
    }

    #[test]
    fn norm_is_layout_invariant_up_to_rounding() {
        let n128 = FermionField::random(
            Grid::new([4, 4, 4, 4], VectorLength::of(128), SimdBackend::Fcmla),
            9,
        )
        .norm2();
        let n1024 = FermionField::random(
            Grid::new([4, 4, 4, 4], VectorLength::of(1024), SimdBackend::Fcmla),
            9,
        )
        .norm2();
        assert!((n128 - n1024).abs() < 1e-9 * n128);
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
        assert_eq!(block.nrhs(), 3);
        for (i, f) in fields.iter().enumerate() {
            assert_eq!(block.rhs_field(i).max_abs_diff(f), 0.0);
            let mut bits = f.clone();
            block.copy_rhs_into(i, &mut bits);
            assert_eq!(bits.max_abs_diff(f), 0.0);
        }
    }

    #[test]
    fn block_norms_and_inners_match_per_field_bitwise() {
        let g = grid();
        let xs = block_fields(&g, 4, 40);
        let ys = block_fields(&g, 4, 50);
        let bx = FermionBlock::from_fields(&xs);
        let by = FermionBlock::from_fields(&ys);
        let norms = bx.norms2();
        let inners = bx.inners(&by);
        for j in 0..4 {
            assert_eq!(norms[j].to_bits(), xs[j].norm2().to_bits(), "rhs {j}");
            let want = xs[j].inner(&ys[j]);
            assert_eq!(inners[j].re.to_bits(), want.re.to_bits(), "rhs {j}");
            assert_eq!(inners[j].im.to_bits(), want.im.to_bits(), "rhs {j}");
        }
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
        let sn = sub.sub_norms2(&bx, &by);
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
        let r2 = block_cg_update_x_r(&mut bx, &mut br, &alphas, &bp, &bap, &active);
        let mut pb = bp.clone();
        pb.aypx_masked(&alphas, &br, &active);
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
        // bit: same chunk count, same in-chunk order, same combine tree.
        let g = grid();
        let x = FermionField::random(g.clone(), 90);
        let y = FermionField::random(g.clone(), 91);
        let bx = FermionBlock::from_fields(std::slice::from_ref(&x));
        let by = FermionBlock::from_fields(std::slice::from_ref(&y));
        assert_eq!(bx.norms2()[0].to_bits(), x.norm2().to_bits());
        let bi = bx.inners(&by)[0];
        let fi = x.inner(&y);
        assert_eq!(bi.re.to_bits(), fi.re.to_bits());
        assert_eq!(bi.im.to_bits(), fi.im.to_bits());
    }
}
