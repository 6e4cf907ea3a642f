//! The paper's functor layer (Section V-C).
//!
//! Grid wires architecture-specific arithmetic into its expression templates
//! through small function objects (`MultComplex`, `TimesI`, ...). The
//! listing in Section V-C shows `MultComplex` implemented with two
//! `svcmla_x` calls on data loaded from a `vec<T>`'s member array — these
//! structs are the same objects, operating on in-memory words exactly like
//! the listing (load → ACLE compute → store), so their instruction counts
//! include the `ld1`/`st1` traffic the paper's code performs. A functor is
//! the whole kernel of its word, so it is also the one place where the
//! word size is picked per word ([`sized!`](crate::sized)) rather than per
//! sweep.

use crate::simd::engine::SimdEngine;
use sve::SveFloat;

/// Shared shape of the word-level functors: read operand words from
/// interleaved slices, compute, write the result word.
pub trait WordFunctor {
    /// Apply to one SIMD word: `out = f(x, y)`.
    fn apply<E: SveFloat>(&self, eng: &SimdEngine<E>, x: &[E], y: &[E], out: &mut [E]);
}

/// `MultComplex` — the Section V-C listing: `out_i = x_i * y_i`.
pub struct MultComplex;

impl WordFunctor for MultComplex {
    fn apply<E: SveFloat>(&self, eng: &SimdEngine<E>, x: &[E], y: &[E], out: &mut [E]) {
        crate::sized!(eng, |eng| {
            let xv = eng.load(x);
            let yv = eng.load(y);
            let r = eng.mult(xv, yv);
            eng.store(out, r);
        })
    }
}

/// `MultConjComplex` — `out_i = conj(x_i) * y_i` (the `U†` data path).
pub struct MultConjComplex;

impl WordFunctor for MultConjComplex {
    fn apply<E: SveFloat>(&self, eng: &SimdEngine<E>, x: &[E], y: &[E], out: &mut [E]) {
        crate::sized!(eng, |eng| {
            let xv = eng.load(x);
            let yv = eng.load(y);
            let r = eng.mult_conj(xv, yv);
            eng.store(out, r);
        })
    }
}

/// `MaddComplex` — `out_i += x_i * y_i`.
pub struct MaddComplex;

impl WordFunctor for MaddComplex {
    fn apply<E: SveFloat>(&self, eng: &SimdEngine<E>, x: &[E], y: &[E], out: &mut [E]) {
        crate::sized!(eng, |eng| {
            let acc = eng.load(out);
            let xv = eng.load(x);
            let yv = eng.load(y);
            let r = eng.madd(acc, xv, yv);
            eng.store(out, r);
        })
    }
}

/// `MultRealPart` — `out_i = Re(x_i) * y_i`.
pub struct MultRealPart;

impl WordFunctor for MultRealPart {
    fn apply<E: SveFloat>(&self, eng: &SimdEngine<E>, x: &[E], y: &[E], out: &mut [E]) {
        crate::sized!(eng, |eng| {
            let xv = eng.load(x);
            let yv = eng.load(y);
            let r = eng.mul_real_part(xv, yv);
            eng.store(out, r);
        })
    }
}

/// `AddComplex` — `out_i = x_i + y_i`.
pub struct AddComplex;

impl WordFunctor for AddComplex {
    fn apply<E: SveFloat>(&self, eng: &SimdEngine<E>, x: &[E], y: &[E], out: &mut [E]) {
        crate::sized!(eng, |eng| {
            let xv = eng.load(x);
            let yv = eng.load(y);
            let r = eng.add(xv, yv);
            eng.store(out, r);
        })
    }
}

/// `SubComplex` — `out_i = x_i - y_i`.
pub struct SubComplex;

impl WordFunctor for SubComplex {
    fn apply<E: SveFloat>(&self, eng: &SimdEngine<E>, x: &[E], y: &[E], out: &mut [E]) {
        crate::sized!(eng, |eng| {
            let xv = eng.load(x);
            let yv = eng.load(y);
            let r = eng.sub(xv, yv);
            eng.store(out, r);
        })
    }
}

/// Unary functors: `Conj`, `TimesI`, `TimesMinusI` (Grid names).
pub trait UnaryWordFunctor {
    /// Apply to one SIMD word: `out = f(x)`.
    fn apply<E: SveFloat>(&self, eng: &SimdEngine<E>, x: &[E], out: &mut [E]);
}

/// `Conj` — lane-wise complex conjugation.
pub struct Conj;

impl UnaryWordFunctor for Conj {
    fn apply<E: SveFloat>(&self, eng: &SimdEngine<E>, x: &[E], out: &mut [E]) {
        crate::sized!(eng, |eng| {
            let xv = eng.load(x);
            let r = eng.conj(xv);
            eng.store(out, r);
        })
    }
}

/// `TimesI` — lane-wise multiplication by `+i`.
pub struct TimesI;

impl UnaryWordFunctor for TimesI {
    fn apply<E: SveFloat>(&self, eng: &SimdEngine<E>, x: &[E], out: &mut [E]) {
        crate::sized!(eng, |eng| {
            let xv = eng.load(x);
            let r = eng.times_i(xv);
            eng.store(out, r);
        })
    }
}

/// `TimesMinusI` — lane-wise multiplication by `-i`.
pub struct TimesMinusI;

impl UnaryWordFunctor for TimesMinusI {
    fn apply<E: SveFloat>(&self, eng: &SimdEngine<E>, x: &[E], out: &mut [E]) {
        crate::sized!(eng, |eng| {
            let xv = eng.load(x);
            let r = eng.times_minus_i(xv);
            eng.store(out, r);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::backend::SimdBackend;
    use crate::Complex;
    use std::sync::Arc;
    use sve::{SveCtx, VectorLength};

    fn eng(backend: SimdBackend) -> SimdEngine {
        SimdEngine::new(Arc::new(SveCtx::new(VectorLength::of(512))), backend)
    }

    fn word(eng: &SimdEngine, f: impl Fn(usize) -> Complex) -> Vec<f64> {
        let mut v = vec![0.0; eng.word_len()];
        for p in 0..eng.lanes_c() {
            let z = f(p);
            v[2 * p] = z.re;
            v[2 * p + 1] = z.im;
        }
        v
    }

    #[test]
    fn mult_complex_matches_section_vc_semantics() {
        for backend in SimdBackend::all() {
            let eng = eng(backend);
            let x = word(&eng, |p| Complex::new(1.0 + p as f64, -0.5));
            let y = word(&eng, |p| Complex::new(0.5, p as f64));
            let mut out = vec![0.0; eng.word_len()];
            MultComplex.apply(&eng, &x, &y, &mut out);
            for p in 0..eng.lanes_c() {
                let want = Complex::new(1.0 + p as f64, -0.5) * Complex::new(0.5, p as f64);
                assert!((out[2 * p] - want.re).abs() < 1e-12, "{backend:?}");
                assert!((out[2 * p + 1] - want.im).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn madd_adds_into_out() {
        let eng = eng(SimdBackend::Fcmla);
        let x = word(&eng, |_| Complex::new(2.0, 0.0));
        let y = word(&eng, |_| Complex::new(0.0, 3.0));
        let mut out = word(&eng, |_| Complex::new(1.0, 1.0));
        MaddComplex.apply(&eng, &x, &y, &mut out);
        assert_eq!(out[0], 1.0);
        assert_eq!(out[1], 7.0);
    }

    #[test]
    fn unary_functors() {
        for backend in SimdBackend::all() {
            let eng = eng(backend);
            let x = word(&eng, |p| Complex::new(p as f64, 1.0));
            let mut out = vec![0.0; eng.word_len()];
            Conj.apply(&eng, &x, &mut out);
            assert_eq!(out[1], -1.0);
            TimesI.apply(&eng, &x, &mut out);
            assert_eq!((out[0], out[1]), (-1.0, 0.0));
            TimesMinusI.apply(&eng, &x, &mut out);
            assert_eq!((out[0], out[1]), (1.0, -0.0));
        }
    }

    #[test]
    fn fcmla_mult_complex_instruction_budget_matches_listing() {
        // The Section V-C listing: 2 x svld1 + 2 x svcmla + 1 x svst1.
        use sve::Opcode;
        let eng = eng(SimdBackend::Fcmla);
        let x = word(&eng, |_| Complex::ONE);
        let y = word(&eng, |_| Complex::I);
        let mut out = vec![0.0; eng.word_len()];
        eng.ctx().counters().reset();
        MultComplex.apply(&eng, &x, &y, &mut out);
        assert_eq!(eng.ctx().counters().get(Opcode::Ld1), 2);
        assert_eq!(eng.ctx().counters().get(Opcode::Fcmla), 2);
        assert_eq!(eng.ctx().counters().get(Opcode::St1), 1);
        assert_eq!(eng.ctx().counters().total(), 5);
    }
}
