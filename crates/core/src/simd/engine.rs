//! The `vec<T>`/`acle<T>` abstraction layer of the port (paper, Section V).
//!
//! Grid's lower-level abstraction layer keeps vector data as class member
//! data; since SVE ACLE types are sizeless, the port stores "ordinary arrays
//! as class member data and implements SVE ACLE only for data processing
//! within functions" (Section V-A). [`CVec`] is one such array's worth of
//! data — a single SIMD word of interleaved complex numbers, with room for
//! the port's largest `SVE_VECTOR_LENGTH` — and [`SimdEngine`] is the `acle<T>`
//! utility: it caches the predicates and lookup tables every kernel needs
//! and lowers each complex operation to the instruction sequence of the
//! selected [`SimdBackend`].
//!
//! The vector length is a run-time property of the engine, the size of a
//! word a compile-time one. [`sized!`](crate::sized) bridges the two once
//! per sweep: it picks the smaller of the two word sizes kernels are built
//! for that holds the engine's vector and runs its body with a [`Words`]
//! view of that size, and every word operation (`load`, `madd`, `store`,
//! ...) is a method of [`Words`]. A view also carries the compiled copy of
//! the `sve` lane loops its instructions run in, as a type: out of a sweep
//! each instruction enters the host's copy on its own; a sweep's chunk
//! kernel ([`WordKernel`]) is entered once per chunk through
//! [`Words::fused`], and every operation, intrinsic and lane loop below it
//! is inlined into that one function. Kernels are written once, generic
//! over the copy, and `#[inline(always)]` down to the intrinsics: what is
//! left out of line inside an entered chunk is compiled without the copy's
//! instruction set.
//!
//! All three backends produce the same values (up to FP rounding-order
//! differences between fused and unfused formulations); they differ in
//! instruction count and mix, which the context's counters expose.

use crate::simd::backend::SimdBackend;
use crate::Complex;
use std::sync::Arc;
use sve::{Dispatch, HostCopy, Opcode, PReg, Reg, Rot, SizedCtx, SveCtx, SveFloat, VL_MAX_BYTES};

/// One SIMD word of complex numbers in FCMLA layout: real components in
/// even lanes, imaginary in odd lanes (paper, Section III-D), held in `N`
/// bytes of which the engine's vector length is a prefix. Kernels hold the
/// smaller word that fits their engine (see [`sized!`](crate::sized));
/// `N =` [`VL_MAX_BYTES`] fits every engine. The number of complex lanes is
/// half the element lane count, fixed by the engine's vector length and
/// element precision.
#[derive(Clone, Copy, Debug, Default)]
pub struct CVec<const N: usize> {
    reg: Reg<N>,
}

impl<const N: usize> CVec<N> {
    /// Wrap a raw vector register.
    pub fn from_reg(reg: Reg<N>) -> Self {
        CVec { reg }
    }

    /// The underlying register.
    pub fn reg(&self) -> &Reg<N> {
        &self.reg
    }

    /// The zero word (an accumulator seed; costs nothing per use).
    pub const fn zero() -> Self {
        CVec { reg: Reg::zeroed() }
    }
}

/// The per-"machine" SIMD execution engine: vector length, backend and the
/// cached predicates/constants that Grid's `acle<T>` struct provides
/// ("various definitions for predication", Section V-B).
#[derive(Clone)]
pub struct SimdEngine<E: SveFloat = f64> {
    ctx: Arc<SveCtx>,
    backend: SimdBackend,
    /// ptrue over all element lanes.
    pg: PReg,
    /// Even (real-part) lanes only.
    pg_even: PReg,
    /// Odd (imaginary-part) lanes only.
    pg_odd: PReg,
    /// First `lanes_c` element lanes — governs reductions after
    /// de-interleaving.
    pg_half: PReg,
    /// Pairwise lane swap (1,0,3,2,...) for real-arithmetic kernels.
    swap_tbl: Vec<usize>,
    /// Complex lanes per vector.
    lanes_c: usize,
    _e: std::marker::PhantomData<E>,
}

/// An engine handing out words of `N` bytes, issuing instructions in the
/// compiled copy `C` of the lane loops: the sized surface a kernel gets
/// from [`sized!`](crate::sized), and inside a fused sweep from
/// [`Words::fused`]. Every word operation is a method here, written once
/// for every copy; the [`SimdEngine`] this dereferences to holds the
/// vector length, the backend and the cached predicates.
#[derive(Clone, Copy)]
pub struct Words<'a, E: SveFloat, const N: usize, C = Dispatch> {
    eng: &'a SimdEngine<E>,
    copy: C,
}

impl<E: SveFloat, const N: usize, C> std::ops::Deref for Words<'_, E, N, C> {
    type Target = SimdEngine<E>;
    #[inline(always)]
    fn deref(&self) -> &SimdEngine<E> {
        self.eng
    }
}

/// A kernel over the words of one chunk of a sweep, written once for every
/// compiled copy of the lane loops ([`Words::fused`]). A closure cannot be
/// generic over the copy, so a fused kernel is a struct holding what the
/// closure would have captured.
pub trait WordKernel<E: SveFloat, const N: usize> {
    /// What the chunk produces.
    type Out;
    /// Run the chunk on `w`. Implementations, and every function they call
    /// down to the engine operations, are `#[inline(always)]`: anything
    /// left out of line is compiled without the copy's instruction set.
    fn run<C: HostCopy>(self, w: &Words<'_, E, N, C>) -> Self::Out;
}

/// A [`WordKernel`] as an [`sve::HostBody`].
struct Fused<'a, E: SveFloat, K, const N: usize> {
    eng: &'a SimdEngine<E>,
    kernel: K,
}

impl<E: SveFloat, const N: usize, K: WordKernel<E, N>> sve::HostBody for Fused<'_, E, K, N> {
    type Out = K::Out;
    /// The paper's words only: a longer word is never entered.
    const CAPACITY: usize = if N == PORT_WORD_BYTES { N } else { 0 };
    #[inline(always)]
    fn run<C: HostCopy>(self, copy: C) -> K::Out {
        self.kernel.run(&Words {
            eng: self.eng,
            copy,
        })
    }
}

impl<E: SveFloat, const N: usize> Words<'_, E, N> {
    /// Run `kernel` — one chunk of a sweep — as one fused function: the
    /// host's copy of the lane loops is entered once for the whole chunk
    /// ([`SveCtx::enter`]), its vector length a constant, every engine
    /// operation and intrinsic inlined into it; each instruction is counted
    /// as it is when issued on its own. Fused are the FCMLA backend's
    /// chunks on the paper's words ([`PORT_WORD_BYTES`]) at the vector
    /// length they are sized for (VL512); the other two backends, whose
    /// complex multiply is three and six times as many instructions, the
    /// shorter vectors and the longer words issue their instructions one by
    /// one, so the text of a report binary stays within its bound. Call it
    /// per chunk inside the parallel loop: a worker thread enters its own.
    #[inline]
    pub fn fused<K: WordKernel<E, N>>(&self, kernel: K) -> K::Out {
        let body = Fused::<E, K, N> {
            eng: self.eng,
            kernel,
        };
        let body = if self.backend == SimdBackend::Fcmla {
            match self.ctx.enter(body) {
                Ok(out) => return out,
                Err(body) => body,
            }
        } else {
            body
        };
        body.kernel.run(self)
    }
}

impl<E: SveFloat, const N: usize, C: HostCopy> Words<'_, E, N, C> {
    /// The context issuing instructions on `N`-byte registers in this copy.
    #[inline(always)]
    fn sv(&self) -> SizedCtx<'_, N, C> {
        self.eng.ctx.sized_in(self.copy)
    }

    /// The backend the operations lower to. An entered copy only ever runs
    /// an FCMLA engine's chunks ([`Words::fused`]), and its instances are
    /// compiled for that backend alone.
    #[inline(always)]
    fn lowered(&self) -> SimdBackend {
        if C::ENTERED {
            SimdBackend::Fcmla
        } else {
            self.eng.backend
        }
    }

    /// Load one SIMD word from an interleaved slice (`svld1`).
    #[inline(always)]
    pub fn load(&self, src: &[E]) -> CVec<N> {
        CVec::from_reg(self.sv().svld1(&self.pg, src))
    }

    /// Store one SIMD word to an interleaved slice (`svst1`).
    #[inline(always)]
    pub fn store(&self, dst: &mut [E], v: CVec<N>) {
        self.sv().svst1(&self.pg, dst, &v.reg);
    }

    /// The zero word.
    #[inline(always)]
    pub fn zero(&self) -> CVec<N> {
        CVec::zero()
    }

    /// Broadcast a complex scalar into all complex lanes.
    pub fn splat(&self, z: Complex) -> CVec<N> {
        // Two dups + zip would be faithful; a single `index`-style ld1rqd
        // would too. Model as one dup-pair (counted as 2 dup).
        let sv = self.sv();
        let re = sv.svdup(E::from_f64(z.re));
        let im = sv.svdup(E::from_f64(z.im));
        CVec::from_reg(sv.svzip1::<E>(&re, &im))
    }

    /// Broadcast a real scalar (imaginary parts zero).
    pub fn splat_re(&self, s: f64) -> CVec<N> {
        self.splat(Complex::new(s, 0.0))
    }

    /// Duplicate a real factor across *all* (even and odd) lanes, for
    /// [`Words::scale`] and [`Words::axpy_word`].
    pub fn dup_real(&self, s: f64) -> CVec<N> {
        CVec::from_reg(self.sv().svdup(E::from_f64(s)))
    }

    /// Build a word from a per-lane function (test/debug path).
    pub fn from_fn(&self, mut f: impl FnMut(usize) -> Complex) -> CVec<N> {
        CVec::from_reg(Reg::from_fn::<E>(self.ctx.vl(), |e| {
            let z = f(e / 2);
            E::from_f64(if e % 2 == 0 { z.re } else { z.im })
        }))
    }

    // ---- backend-independent lane arithmetic ----

    /// Lane-wise complex addition (`fadd`).
    #[inline(always)]
    pub fn add(&self, a: CVec<N>, b: CVec<N>) -> CVec<N> {
        CVec::from_reg(self.sv().svadd_x::<E>(&self.pg, &a.reg, &b.reg))
    }

    /// Lane-wise complex subtraction (`fsub`).
    #[inline(always)]
    pub fn sub(&self, a: CVec<N>, b: CVec<N>) -> CVec<N> {
        CVec::from_reg(self.sv().svsub_x::<E>(&self.pg, &a.reg, &b.reg))
    }

    /// Negate every lane (`fneg`).
    #[inline(always)]
    pub fn neg(&self, a: CVec<N>) -> CVec<N> {
        CVec::from_reg(self.sv().svneg_x::<E>(&self.pg, &a.reg))
    }

    /// Complex conjugate: negate the odd (imaginary) lanes — one merging
    /// `fneg`.
    #[inline(always)]
    pub fn conj(&self, a: CVec<N>) -> CVec<N> {
        CVec::from_reg(self.sv().svneg_m::<E>(&self.pg_odd, &a.reg))
    }

    /// Multiply every complex lane by the real parts of `s` lane-wise
    /// (`fmul` by a re-duplicated operand): Grid's `MultRealPart`.
    #[inline(always)]
    pub fn mul_real_part(&self, s: CVec<N>, a: CVec<N>) -> CVec<N> {
        let sv = self.sv();
        let re_dup = sv.svtrn1::<E>(&s.reg, &s.reg);
        CVec::from_reg(sv.svmul_x::<E>(&self.pg, &re_dup, &a.reg))
    }

    /// Scale all lanes by a pre-splat real factor (plain `fmul`; `scale`
    /// must have equal re/im duplicates, as produced by
    /// [`Words::dup_real`]).
    #[inline(always)]
    pub fn scale(&self, scale_dup: CVec<N>, a: CVec<N>) -> CVec<N> {
        CVec::from_reg(self.sv().svmul_x::<E>(&self.pg, &scale_dup.reg, &a.reg))
    }

    /// Fused `y + a*x` with a real, pre-duplicated `a` — one `fmla`; the
    /// kernel of every BLAS-1 field operation in the solvers.
    #[inline(always)]
    pub fn axpy_word(&self, a_dup: CVec<N>, x: CVec<N>, y: CVec<N>) -> CVec<N> {
        CVec::from_reg(self.sv().svmla_m::<E>(&self.pg, &y.reg, &a_dup.reg, &x.reg))
    }

    // ---- backend-dispatched complex arithmetic ----

    /// Complex multiply `a * b` lane-wise.
    #[inline(always)]
    pub fn mult(&self, a: CVec<N>, b: CVec<N>) -> CVec<N> {
        self.madd(CVec::zero(), a, b)
    }

    /// Run `op` inline inside an entered copy, and out of line where each
    /// instruction enters the host's copy on its own: there an operation
    /// that lowers to up to twelve instructions per backend is compiled
    /// once per word size, not at every call.
    #[inline(always)]
    fn lower<R>(&self, op: impl FnOnce(&Self) -> R) -> R {
        if C::ENTERED {
            op(self)
        } else {
            out_of_line(self, op)
        }
    }

    /// Complex multiply-accumulate `acc + a * b` lane-wise.
    #[inline(always)]
    pub fn madd(&self, acc: CVec<N>, a: CVec<N>, b: CVec<N>) -> CVec<N> {
        self.lower(
            #[inline(always)]
            |w| w.madd_in(acc, a, b),
        )
    }

    #[inline(always)]
    fn madd_in(&self, acc: CVec<N>, a: CVec<N>, b: CVec<N>) -> CVec<N> {
        let (sv, pg) = (self.sv(), &self.pg);
        CVec::from_reg(match self.lowered() {
            SimdBackend::Fcmla => sv.fcmla_mul_add::<E>(pg, &acc.reg, &a.reg, &b.reg),
            SimdBackend::RealArith => {
                // Section V-E: duplicate re/im parts, swap pairs, flip one
                // sign, two real FMAs. 6 instructions vs FCMLA's 2.
                let re_dup = sv.svtrn1::<E>(&a.reg, &a.reg);
                let im_dup = sv.svtrn2::<E>(&a.reg, &a.reg);
                let b_swap = sv.svtbl::<E>(&b.reg, &self.swap_tbl);
                let b_swap_sgn = sv.svneg_m::<E>(&self.pg_even, &b_swap);
                let t = sv.svmla_m::<E>(pg, &acc.reg, &re_dup, &b.reg);
                sv.svmla_m::<E>(pg, &t, &im_dup, &b_swap_sgn)
            }
            SimdBackend::GenericAutovec => {
                // Section IV-B as an in-register dance: de-interleave with
                // uzp, the listing's fmul/fmla/fnmls/movprfx body, zip back.
                let ar = sv.svuzp1::<E>(&a.reg, &a.reg);
                let ai = sv.svuzp2::<E>(&a.reg, &a.reg);
                let br = sv.svuzp1::<E>(&b.reg, &b.reg);
                let bi = sv.svuzp2::<E>(&b.reg, &b.reg);
                let z4 = sv.svmul_x::<E>(pg, &ar, &bi);
                let z5 = sv.svmul_x::<E>(pg, &ai, &bi);
                let z7 = sv.movprfx(&z4);
                let im = sv.svmla_m::<E>(pg, &z7, &ai, &br);
                let z6 = sv.movprfx(&z5);
                let re = sv.svnmls_m::<E>(pg, &z6, &ar, &br);
                let prod = sv.svzip1::<E>(&re, &im);
                sv.svadd_x::<E>(pg, &acc.reg, &prod)
            }
        })
    }

    /// Conjugated multiply `conj(a) * b` lane-wise.
    #[inline(always)]
    pub fn mult_conj(&self, a: CVec<N>, b: CVec<N>) -> CVec<N> {
        self.madd_conj(CVec::zero(), a, b)
    }

    /// Conjugated multiply-accumulate `acc + conj(a) * b` lane-wise — the
    /// `U†` side of the hopping term (paper Eq. (1)) and the kernel of inner
    /// products.
    #[inline(always)]
    pub fn madd_conj(&self, acc: CVec<N>, a: CVec<N>, b: CVec<N>) -> CVec<N> {
        self.lower(
            #[inline(always)]
            |w| w.madd_conj_in(acc, a, b),
        )
    }

    #[inline(always)]
    fn madd_conj_in(&self, acc: CVec<N>, a: CVec<N>, b: CVec<N>) -> CVec<N> {
        let (sv, pg) = (self.sv(), &self.pg);
        CVec::from_reg(match self.lowered() {
            SimdBackend::Fcmla => sv.fcmla_conj_mul_add::<E>(pg, &acc.reg, &a.reg, &b.reg),
            SimdBackend::RealArith => {
                // re: +ar*br + ai*bi ; im: +ar*bi - ai*br.
                let re_dup = sv.svtrn1::<E>(&a.reg, &a.reg);
                let im_dup = sv.svtrn2::<E>(&a.reg, &a.reg);
                let b_swap = sv.svtbl::<E>(&b.reg, &self.swap_tbl);
                let b_swap_sgn = sv.svneg_m::<E>(&self.pg_odd, &b_swap);
                let t = sv.svmla_m::<E>(pg, &acc.reg, &re_dup, &b.reg);
                sv.svmla_m::<E>(pg, &t, &im_dup, &b_swap_sgn)
            }
            SimdBackend::GenericAutovec => {
                let ar = sv.svuzp1::<E>(&a.reg, &a.reg);
                let ai = sv.svuzp2::<E>(&a.reg, &a.reg);
                let br = sv.svuzp1::<E>(&b.reg, &b.reg);
                let bi = sv.svuzp2::<E>(&b.reg, &b.reg);
                // re = ar*br + ai*bi ; im = ar*bi - ai*br
                let t0 = sv.svmul_x::<E>(pg, &ai, &bi);
                let re = sv.svmla_m::<E>(pg, &t0, &ar, &br);
                let t1 = sv.svmul_x::<E>(pg, &ai, &br);
                let im = sv.svnmls_m::<E>(pg, &t1, &ar, &bi);
                let prod = sv.svzip1::<E>(&re, &im);
                sv.svadd_x::<E>(pg, &acc.reg, &prod)
            }
        })
    }

    /// Multiply every complex lane by `+i` (Grid's `timesI`).
    #[inline(always)]
    pub fn times_i(&self, a: CVec<N>) -> CVec<N> {
        self.times_pm_i(a, Rot::R90, &self.pg_even)
    }

    /// Multiply every complex lane by `-i` (Grid's `timesMinusI`).
    #[inline(always)]
    pub fn times_minus_i(&self, a: CVec<N>) -> CVec<N> {
        self.times_pm_i(a, Rot::R270, &self.pg_odd)
    }

    /// `±i · a`: one `fcadd` onto zero with rotation `rot`, or — without
    /// complex instructions — `(re, im) -> (∓im, ±re)` as a pair swap plus a
    /// negation of the lanes `negated` governs.
    #[inline(always)]
    fn times_pm_i(&self, a: CVec<N>, rot: Rot, negated: &PReg) -> CVec<N> {
        self.lower(
            #[inline(always)]
            |w| {
                let sv = w.sv();
                CVec::from_reg(match w.lowered() {
                    SimdBackend::Fcmla => sv.svcadd::<E>(&w.pg, &Reg::zeroed(), &a.reg, rot),
                    _ => {
                        let sw = sv.svtbl::<E>(&a.reg, &w.swap_tbl);
                        sv.svneg_m::<E>(negated, &sw)
                    }
                })
            },
        )
    }

    /// Lane select (`svsel`): active lanes of `mask` from `a`, inactive
    /// from `b`. Used by the even-odd machinery to mask parities within a
    /// word (both f64 lanes of a complex element must agree in `mask`).
    #[inline(always)]
    pub fn select_lanes(&self, mask: &PReg, a: CVec<N>, b: CVec<N>) -> CVec<N> {
        CVec::from_reg(self.sv().svsel::<E>(mask, &a.reg, &b.reg))
    }

    // ---- permutation (virtual-node boundary shuffles) ----

    /// Permute complex lanes: output complex lane `p` takes input complex
    /// lane `perm[p]` (`svtbl` on the expanded f64 index table).
    pub fn permute(&self, a: CVec<N>, perm: &[usize]) -> CVec<N> {
        self.permute_elems(a, &self.expand_perm(perm))
    }

    /// Permute with a precomputed *element* index table (length `2 *
    /// lanes_c`, as produced by [`SimdEngine::expand_perm`]). This is the
    /// allocation-free hot path used by the stencil; [`Words::permute`]
    /// expands its complex-lane table on every call.
    #[inline(always)]
    pub fn permute_elems(&self, a: CVec<N>, tbl: &[usize]) -> CVec<N> {
        debug_assert_eq!(tbl.len(), 2 * self.lanes_c);
        CVec::from_reg(self.sv().svtbl::<E>(&a.reg, tbl))
    }

    // ---- reductions ----

    /// Sum the complex lanes to a scalar (`uzp1`/`uzp2` + two `faddv`):
    /// Grid's `Reduce`.
    pub fn reduce_sum(&self, a: CVec<N>) -> Complex {
        let sv = self.sv();
        let re = sv.svuzp1::<E>(&a.reg, &a.reg);
        let im = sv.svuzp2::<E>(&a.reg, &a.reg);
        Complex::new(
            sv.svaddv::<E>(&self.pg_half, &re).to_f64(),
            sv.svaddv::<E>(&self.pg_half, &im).to_f64(),
        )
    }
}

/// `op(w)`, out of line.
#[inline(never)]
fn out_of_line<W, R>(w: &W, op: impl FnOnce(&W) -> R) -> R {
    op(w)
}

/// Where a word kernel takes its words from: an engine, whose words issue
/// each instruction on their own, or the words of a sweep, in whatever copy
/// the sweep runs. The public SU(3) word kernels take either.
pub trait WordSource<E: SveFloat, const N: usize> {
    /// The copy the words issue instructions in.
    type Copy: HostCopy;
    /// The `N`-byte words.
    fn words_of(&self) -> Words<'_, E, N, Self::Copy>;
}

impl<E: SveFloat, const N: usize> WordSource<E, N> for SimdEngine<E> {
    type Copy = Dispatch;
    #[inline(always)]
    fn words_of(&self) -> Words<'_, E, N> {
        self.words()
    }
}

impl<E: SveFloat, const N: usize, C: HostCopy> WordSource<E, N> for Words<'_, E, N, C> {
    type Copy = C;
    #[inline(always)]
    fn words_of(&self) -> Words<'_, E, N, C> {
        *self
    }
}

/// Bytes of the shorter of the two words kernels are compiled for: 512
/// bits, the longest vector the paper's port enables in Grid (Section V-B:
/// 128, 256 and 512 bits). Longer vectors — the "future work" lengths 1024
/// and 2048 — take words of the architectural maximum.
pub const PORT_WORD_BYTES: usize = 64;

/// Run a kernel on words sized for the engine's vector length: `sized!(eng,
/// |w| body)` evaluates `body` with `w: &Words<'_, E, N>`, where `N` is
/// [`PORT_WORD_BYTES`] if `eng`'s vector fits in that and [`VL_MAX_BYTES`]
/// otherwise — a constant inside `body`, so the words a kernel of the
/// paper's vector lengths holds, copies and returns are 64 bytes long and
/// not the 256 of the architectural maximum. This is the only place a
/// vector length turns into a word size: put it around a whole sweep, not
/// inside its site loop. `body` may not `return` out of the enclosing
/// function: the arm for the longer word evaluates it inside a closure.
///
/// `body` is compiled once per word size. Two sizes, not one per vector
/// length: every sweep of the stack is instantiated for each, and five
/// doubled the text of a report binary (2.6 → 5.7 MB) where two add a
/// third, for the same end-to-end time within 3 %.
#[macro_export]
macro_rules! sized {
    ($eng:expr, |$w:ident| $body:expr) => {{
        let engine: &$crate::simd::SimdEngine<_> = $eng;
        if engine.ctx().vl().bytes() <= $crate::simd::PORT_WORD_BYTES {
            let $w = &engine.words::<{ $crate::simd::PORT_WORD_BYTES }>();
            $body
        } else {
            $crate::simd::engine::rarely(|| {
                let $w = &engine.words::<{ $crate::simd::VL_MAX_BYTES }>();
                $body
            })
        }
    }};
}

/// Runs `f`, telling the compiler the call is unlikely: the arm of
/// [`sized!`](crate::sized) for vectors longer than the paper's port
/// enables goes through here, which keeps its copy of every kernel out of
/// the pages the other copy runs from.
#[doc(hidden)]
#[cold]
#[inline(never)]
pub fn rarely<R>(f: impl FnOnce() -> R) -> R {
    f()
}

impl<E: SveFloat> SimdEngine<E> {
    /// Build an engine over `ctx` with the given backend. Predicates and
    /// constants are materialized once here (and counted once), mirroring
    /// how Grid hoists `acle<T>::pg1()` out of kernels.
    pub fn new(ctx: Arc<SveCtx>, backend: SimdBackend) -> Self {
        let lanes = ctx.vl().lanes_of(E::BYTES);
        assert!(lanes >= 2, "need at least one complex lane");
        let pg = sve::intrinsics::svptrue::<E>(&ctx);
        let mut pg_even = PReg::none();
        let mut pg_odd = PReg::none();
        for e in 0..lanes {
            if e % 2 == 0 {
                pg_even.set_elem_active::<E>(e, true);
            } else {
                pg_odd.set_elem_active::<E>(e, true);
            }
        }
        let pg_half = PReg::whilelt::<E>(ctx.vl(), 0, (lanes / 2) as u64);
        let swap_tbl: Vec<usize> = (0..lanes).map(|e| e ^ 1).collect();
        // The zero register kernels seed accumulators with: one hoisted
        // `dup` on hardware; its value here is the constant `CVec::zero()`.
        ctx.exec(Opcode::Dup);
        SimdEngine {
            ctx,
            backend,
            pg,
            pg_even,
            pg_odd,
            pg_half,
            swap_tbl,
            lanes_c: lanes / 2,
            _e: std::marker::PhantomData,
        }
    }

    /// The SVE context (vector length, counters).
    pub fn ctx(&self) -> &SveCtx {
        &self.ctx
    }

    /// The backend this engine lowers complex arithmetic to.
    pub fn backend(&self) -> SimdBackend {
        self.backend
    }

    /// Complex lanes per SIMD word — the number of virtual nodes a thread's
    /// sub-lattice is decomposed over (paper, Fig. 1).
    pub fn lanes_c(&self) -> usize {
        self.lanes_c
    }

    /// Scalars (of the engine's element type) per SIMD word = `2 * lanes_c`.
    pub fn word_len(&self) -> usize {
        2 * self.lanes_c
    }

    /// This engine handing out `N`-byte words. Kernels get theirs from
    /// [`sized!`](crate::sized); any `N` that holds the vector works, a
    /// shorter one panics at the first instruction.
    #[inline]
    pub fn words<const N: usize>(&self) -> Words<'_, E, N> {
        Words {
            eng: self,
            copy: Dispatch,
        }
    }

    // ---- constants at the maximum capacity ----

    /// Broadcast a complex scalar into all complex lanes of a word that
    /// fits any vector length (setup, probes and tests; a kernel takes
    /// [`Words::splat`]).
    pub fn splat(&self, z: Complex) -> CVec<VL_MAX_BYTES> {
        self.words().splat(z)
    }

    /// Build a word that fits any vector length from a per-lane function
    /// (test/debug path).
    pub fn from_fn(&self, f: impl FnMut(usize) -> Complex) -> CVec<VL_MAX_BYTES> {
        self.words().from_fn(f)
    }

    /// Expand a complex-lane permutation to the element-index table
    /// [`Words::permute_elems`] consumes (done once at stencil build).
    pub fn expand_perm(&self, perm: &[usize]) -> Vec<usize> {
        debug_assert_eq!(perm.len(), self.lanes_c);
        let mut tbl = vec![0usize; 2 * self.lanes_c];
        for (p, &src) in perm.iter().enumerate() {
            tbl[2 * p] = 2 * src;
            tbl[2 * p + 1] = 2 * src + 1;
        }
        tbl
    }

    /// Read complex lane `p`: the per-site read a canonical reduction sums
    /// from (not an SVE operation).
    pub fn lane<const N: usize>(&self, a: CVec<N>, p: usize) -> Complex {
        Complex::new(
            a.reg.lane::<E>(2 * p).to_f64(),
            a.reg.lane::<E>(2 * p + 1).to_f64(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sve::VectorLength;

    fn engines() -> Vec<SimdEngine> {
        SimdBackend::all()
            .into_iter()
            .map(|b| SimdEngine::new(Arc::new(SveCtx::new(VectorLength::of(512))), b))
            .collect()
    }

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    fn approx(a: Complex, b: Complex) -> bool {
        (a - b).abs() <= 1e-12 * b.abs().max(1.0)
    }

    #[test]
    fn load_store_round_trip() {
        for eng in engines() {
            let data: Vec<f64> = (0..eng.word_len()).map(|i| i as f64 * 0.5).collect();
            let v = eng.words::<64>().load(&data);
            let mut out = vec![0.0; eng.word_len()];
            eng.words().store(&mut out, v);
            assert_eq!(out, data, "{:?}", eng.backend());
        }
    }

    #[test]
    fn all_backends_multiply_identically() {
        let mut results = Vec::new();
        for eng in engines() {
            let a = eng.from_fn(|p| c(p as f64 + 1.0, -(p as f64) * 0.5));
            let b = eng.from_fn(|p| c(0.5 - p as f64, 2.0 + p as f64));
            let r = eng.words().mult(a, b);
            results.push(
                (0..eng.lanes_c())
                    .map(|p| eng.lane(r, p))
                    .collect::<Vec<_>>(),
            );
        }
        for p in 0..results[0].len() {
            let want = c(p as f64 + 1.0, -(p as f64) * 0.5) * c(0.5 - p as f64, 2.0 + p as f64);
            for (bi, res) in results.iter().enumerate() {
                assert!(
                    approx(res[p], want),
                    "backend {bi} lane {p}: {:?} vs {want:?}",
                    res[p]
                );
            }
        }
    }

    #[test]
    fn madd_accumulates() {
        for eng in engines() {
            let acc = eng.from_fn(|_| c(10.0, -10.0));
            let a = eng.from_fn(|_| c(1.0, 2.0));
            let b = eng.from_fn(|_| c(3.0, -1.0));
            let r = eng.words().madd(acc, a, b);
            let want = c(10.0, -10.0) + c(1.0, 2.0) * c(3.0, -1.0);
            assert!(approx(eng.lane(r, 0), want), "{:?}", eng.backend());
        }
    }

    #[test]
    fn conjugated_multiply_all_backends() {
        for eng in engines() {
            let a = eng.from_fn(|p| c(1.5, p as f64 - 1.0));
            let b = eng.from_fn(|p| c(-0.5 * p as f64, 2.0));
            let r = eng.words().mult_conj(a, b);
            for p in 0..eng.lanes_c() {
                let want = c(1.5, p as f64 - 1.0).conj() * c(-0.5 * p as f64, 2.0);
                assert!(approx(eng.lane(r, p), want), "{:?} lane {p}", eng.backend());
            }
        }
    }

    #[test]
    fn times_i_and_conj() {
        for eng in engines() {
            let a = eng.from_fn(|p| c(2.0 + p as f64, -1.0));
            let ti = eng.words().times_i(a);
            let tmi = eng.words().times_minus_i(a);
            let cj = eng.words().conj(a);
            for p in 0..eng.lanes_c() {
                let z = c(2.0 + p as f64, -1.0);
                assert_eq!(eng.lane(ti, p), z.times_i(), "{:?}", eng.backend());
                assert_eq!(eng.lane(tmi, p), z.times_minus_i());
                assert_eq!(eng.lane(cj, p), z.conj());
            }
        }
    }

    #[test]
    fn add_sub_neg_scale() {
        for eng in engines() {
            let a = eng.from_fn(|p| c(p as f64, 1.0));
            let b = eng.from_fn(|p| c(1.0, p as f64));
            assert_eq!(eng.lane(eng.words().add(a, b), 2), c(3.0, 3.0));
            assert_eq!(eng.lane(eng.words().sub(a, b), 2), c(1.0, -1.0));
            assert_eq!(eng.lane(eng.words().neg(a), 2), c(-2.0, -1.0));
            let s = eng.words().dup_real(2.5);
            assert_eq!(eng.lane(eng.words().scale(s, a), 2), c(5.0, 2.5));
        }
    }

    #[test]
    fn permute_rotates_complex_lanes() {
        for eng in engines() {
            let lanes = eng.lanes_c();
            let a = eng.from_fn(|p| c(p as f64, 100.0 + p as f64));
            let perm: Vec<usize> = (0..lanes).map(|p| (p + 1) % lanes).collect();
            let r = eng.words().permute(a, &perm);
            for p in 0..lanes {
                let src = (p + 1) % lanes;
                assert_eq!(eng.lane(r, p), c(src as f64, 100.0 + src as f64));
            }
        }
    }

    #[test]
    fn reduce_sums_the_lanes() {
        for eng in engines() {
            let a = eng.from_fn(|p| c(p as f64 + 1.0, -1.0));
            let lanes = eng.lanes_c() as f64;
            let sum = eng.words().reduce_sum(a);
            assert!((sum.re - (lanes * (lanes + 1.0) / 2.0)).abs() < 1e-12);
            assert!((sum.im + lanes).abs() < 1e-12);
        }
    }

    #[test]
    fn splat_fills_all_lanes() {
        for eng in engines() {
            let v = eng.splat(c(3.0, -4.0));
            for p in 0..eng.lanes_c() {
                assert_eq!(eng.lane(v, p), c(3.0, -4.0));
            }
        }
    }

    #[test]
    fn mul_real_part_uses_only_real_components() {
        for eng in engines() {
            let s = eng.from_fn(|_| c(2.0, 999.0)); // imaginary must be ignored
            let a = eng.from_fn(|_| c(3.0, -5.0));
            let r = eng.words().mul_real_part(s, a);
            assert_eq!(eng.lane(r, 0), c(6.0, -10.0));
        }
    }

    #[test]
    fn backend_instruction_counts_are_ordered() {
        // FCMLA: 2 arith instructions per madd. RealArith: 6. Autovec: 12.
        use sve::Opcode;
        let mut totals = Vec::new();
        for eng in engines() {
            let before = eng.ctx().counters().total();
            let a = eng.from_fn(|_| c(1.0, 1.0));
            let b = eng.from_fn(|_| c(1.0, -1.0));
            let acc = CVec::zero();
            let _ = eng.words().madd(acc, a, b);
            totals.push((eng.backend(), eng.ctx().counters().total() - before));
        }
        let fcmla = totals.iter().find(|t| t.0 == SimdBackend::Fcmla).unwrap().1;
        let real = totals
            .iter()
            .find(|t| t.0 == SimdBackend::RealArith)
            .unwrap()
            .1;
        let auto = totals
            .iter()
            .find(|t| t.0 == SimdBackend::GenericAutovec)
            .unwrap()
            .1;
        assert!(fcmla < real, "fcmla {fcmla} !< real {real}");
        assert!(real < auto, "real {real} !< autovec {auto}");
        // And the FCMLA backend issues exactly two fcmla per madd.
        let eng = SimdEngine::<f64>::new(
            Arc::new(SveCtx::new(VectorLength::of(256))),
            SimdBackend::Fcmla,
        );
        let a = CVec::<64>::zero();
        let _ = eng.words().madd(a, a, a);
        assert_eq!(eng.ctx().counters().get(Opcode::Fcmla), 2);
    }

    #[test]
    fn works_at_every_vector_length() {
        for vl in VectorLength::sweep() {
            for backend in SimdBackend::all() {
                let eng = SimdEngine::<f64>::new(Arc::new(SveCtx::new(vl)), backend);
                let a = eng.from_fn(|p| c(p as f64, 1.0));
                let b = eng.from_fn(|p| c(1.0, -(p as f64)));
                let r = eng.words().mult(a, b);
                for p in 0..eng.lanes_c() {
                    let want = c(p as f64, 1.0) * c(1.0, -(p as f64));
                    assert!(approx(eng.lane(r, p), want), "{vl} {backend:?} lane {p}");
                }
            }
        }
    }

    #[test]
    fn single_precision_engine_has_twice_the_lanes() {
        for vl in VectorLength::sweep() {
            let e64 = SimdEngine::<f64>::new(Arc::new(SveCtx::new(vl)), SimdBackend::Fcmla);
            let e32 = SimdEngine::<f32>::new(Arc::new(SveCtx::new(vl)), SimdBackend::Fcmla);
            assert_eq!(e32.lanes_c(), 2 * e64.lanes_c());
            // Complex multiply correct in f32 on all backends.
            for backend in SimdBackend::all() {
                let eng = SimdEngine::<f32>::new(Arc::new(SveCtx::new(vl)), backend);
                let a = eng.from_fn(|p| c(p as f64 * 0.5, 1.0));
                let b = eng.from_fn(|p| c(1.0, -(p as f64) * 0.25));
                let r = eng.words().mult(a, b);
                for p in 0..eng.lanes_c() {
                    let want = c(p as f64 * 0.5, 1.0) * c(1.0, -(p as f64) * 0.25);
                    assert!((eng.lane(r, p) - want).abs() < 1e-5, "{vl} {backend:?}");
                }
            }
        }
    }
}
