//! The words `grid::sized!` hands a kernel against words of the maximum
//! capacity: the same engine operations on the same data give the same bits
//! and retire the same opcodes, for every swept vector length, backend and
//! element type. This is what lets kernels hold the 64-byte `CVec` while
//! probes, setup code and the verification matrix keep the
//! `CVec<VL_MAX_BYTES>` that `SimdEngine::{splat, from_fn}` return.

use grid::prelude::*;
use grid::simd::{CVec, SimdEngine, Words, PORT_WORD_BYTES};
use grid::tensor::su3::{mat_dag_vec, mat_vec};
use std::sync::Arc;
use sve::{Opcode, SveCtx, SveFloat, VectorLength, F16, VL_MAX_BYTES};

/// Word `k` of the test data: distinct, finite, exactly representable in
/// binary16 so all three element types see the same values.
fn data<E: SveFloat>(eng: &SimdEngine<E>, k: usize) -> Vec<E> {
    (0..eng.word_len())
        .map(|i| E::from_f64(((7 * i + 13 * k) % 31) as f64 / 8.0 - 1.75))
        .collect()
}

/// What one run of every operation under test produced: the stored result
/// words, the lane sum, and the opcodes retired.
type Outcome<E> = (Vec<Vec<E>>, Complex, Vec<(Opcode, u64)>);

fn run<E: SveFloat, const N: usize>(vl: VectorLength, backend: SimdBackend) -> Outcome<E> {
    let eng = SimdEngine::<E>::new(Arc::new(SveCtx::new(vl)), backend);
    let w: Words<'_, E, N> = eng.words();
    let word = |k: usize| w.load(&data(&eng, k));
    let u: [[CVec<N>; 3]; 3] = std::array::from_fn(|r| std::array::from_fn(|c| word(3 * r + c)));
    let v: [CVec<N>; 3] = std::array::from_fn(|c| word(9 + c));
    let tbl: Vec<usize> = (0..eng.word_len()).rev().collect();
    let mut words = Vec::new();
    words.extend(mat_vec(&eng, &u, &v));
    words.extend(mat_dag_vec(&eng, &u, &v));
    words.push(eng.madd_conj(v[0], v[1], v[2]));
    words.push(eng.times_i(v[0]));
    words.push(eng.permute_elems(v[1], &tbl));
    let sum = eng.reduce_sum(v[2]);
    let stored = words
        .into_iter()
        .map(|r| {
            let mut out = vec![E::zero(); eng.word_len()];
            eng.store(&mut out, r);
            out
        })
        .collect();
    (stored, sum, eng.ctx().counters().snapshot())
}

fn bits<E: SveFloat>(words: &[Vec<E>]) -> Vec<u64> {
    words
        .iter()
        .flatten()
        .map(|x| x.to_f64().to_bits())
        .collect()
}

fn sized_equals_max_capacity<E: SveFloat, const N: usize>(vl: VectorLength) {
    for backend in SimdBackend::all() {
        let sized = run::<E, N>(vl, backend);
        let max = run::<E, VL_MAX_BYTES>(vl, backend);
        let what = format!("{vl} {backend:?} .{}", E::SUFFIX);
        assert_eq!(bits(&sized.0), bits(&max.0), "{what}: stored words");
        assert_eq!(
            sized.1.re.to_bits(),
            max.1.re.to_bits(),
            "{what}: reduce_sum"
        );
        assert_eq!(
            sized.1.im.to_bits(),
            max.1.im.to_bits(),
            "{what}: reduce_sum"
        );
        assert_eq!(sized.2, max.2, "{what}: opcode counts");
        assert!(sized.2.iter().any(|&(_, n)| n > 0), "{what}: nothing ran");
    }
}

/// Every swept vector length whose kernels do not hold the maximum
/// capacity anyway.
fn at_every_length<E: SveFloat>() {
    for vl in VectorLength::grid_supported() {
        sized_equals_max_capacity::<E, PORT_WORD_BYTES>(vl);
    }
    // A capacity no kernel uses, at the length that fills it.
    sized_equals_max_capacity::<E, 128>(VectorLength::of(1024));
}

#[test]
fn sized_words_equal_max_capacity_words_f64() {
    at_every_length::<f64>();
}

#[test]
fn sized_words_equal_max_capacity_words_f32() {
    at_every_length::<f32>();
}

#[test]
fn sized_words_equal_max_capacity_words_f16() {
    at_every_length::<F16>();
}

/// The dispatch hands a kernel the smaller word that holds the engine's
/// vector, at every architectural length (an engine exists at all sixteen,
/// a `Grid` at the five swept ones).
#[test]
fn the_dispatch_picks_the_smaller_word_that_fits() {
    for vl in VectorLength::all() {
        let eng = SimdEngine::<f64>::new(Arc::new(SveCtx::new(vl)), SimdBackend::Fcmla);
        let bytes = grid::sized!(&eng, |w| std::mem::size_of_val(&w.zero()));
        let want = if vl.bits() <= 512 { 64 } else { VL_MAX_BYTES };
        assert_eq!(bytes, want, "{vl}");
        assert!(bytes >= vl.bytes());
    }
}

/// A word shorter than the engine's vector cannot hold a result; the first
/// instruction panics and names both sizes.
#[test]
#[should_panic(expected = "a 64-byte register cannot hold a VL2048 vector (256 bytes)")]
fn a_word_shorter_than_the_vector_panics() {
    let vl = VectorLength::of(2048);
    let eng = SimdEngine::<f64>::new(Arc::new(SveCtx::new(vl)), SimdBackend::Fcmla);
    let _ = eng.words::<PORT_WORD_BYTES>().dup_real(1.0);
}
