//! The one reduction order.
//!
//! Floating-point addition is not associative, so a sum whose grouping
//! depends on the SIMD layout or on the number of worker threads returns
//! different bits at another vector length or on another machine. That
//! would break the guarantees this codebase leans on: qcd-io's bit-exact
//! checkpoint resume, and the paper's §V-D matrix read strictly — a solve at
//! any vector length, thread count and rank count is the *same* solve.
//!
//! Every field-to-scalar reduction therefore has one shape. A sweep computes
//! one value per lattice site (`site_dots`: the site's components summed in
//! order, in `f64`, or `f32` for binary16) and writes it, in storage order,
//! into its own chunk of a buffer each thread keeps and reuses
//! ([`sweep_sums`]); [`canonical_sum`] then reads those values through the
//! grid's lexicographic → storage permutation (`Grid::lex_slots`) and sums
//! them in global lexicographic site order with a fixed tree — chunks of
//! [`CHUNK_SITES`] values summed left to right, chunk sums combined by
//! binary split. The grouping depends only on the lattice extents: threads
//! change where a site's value is computed, never which values are added in
//! which order, and a fused update+reduce sweep stays one parallel region.
//! On a rank grid every rank's values are allgathered first and the sum is
//! the one over the global lattice — a collective (see [`Grid`]).

use crate::layout::Grid;
use rayon::prelude::*;
use rayon::{Chunked, ParChunks};
use std::cell::Cell;
use sve::SveFloat;

/// Outer sites per reduction chunk and per parallel work unit of every
/// field sweep, and values per leaf of [`canonical_sum`]. Fixed, so that
/// no result depends on the thread count or a tuning knob.
pub const CHUNK_SITES: usize = 16;

/// `at(0) + … + at(n − 1)` in the canonical grouping: leaves of
/// [`CHUNK_SITES`] consecutive values summed left to right, leaf sums
/// combined by the fixed binary split `mid = lo + (hi − lo) / 2`. The
/// grouping depends on `n` alone, so values listed in global lexicographic
/// site order sum to the same bits at every vector length, thread count and
/// rank count.
pub fn canonical_sum(n: usize, at: impl Fn(usize) -> f64) -> f64 {
    fn split(lo: usize, hi: usize, leaf: &impl Fn(usize) -> f64) -> f64 {
        if hi - lo == 1 {
            return leaf(lo);
        }
        let mid = lo + (hi - lo) / 2;
        let left = split(lo, mid, leaf);
        left + split(mid, hi, leaf)
    }
    let leaf = |ci: usize| {
        let lo = ci * CHUNK_SITES;
        (lo..(lo + CHUNK_SITES).min(n)).map(&at).sum::<f64>()
    };
    split(0, n.div_ceil(CHUNK_SITES).max(1), &leaf)
}

thread_local! {
    /// The per-site values of the reduction in flight on this thread. It
    /// grows to the largest reduction the thread has run and is reused, so
    /// a steady-state reduction allocates nothing.
    static PARTIALS: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// Run a reduction sweep and sum it canonically: in one parallel region,
/// `kernel(chunk index, chunk of data, partials)` runs over the reduction
/// chunks of `data` (each [`CHUNK_SITES`] outer sites of `grid`) and writes
/// `rows` rows of per-site values, lane `l` of row `r` of the chunk's outer
/// site `k` at `partials[(k * rows + r) * lanes + l]`. Then the
/// [`canonical_sum`] of row `r` over the whole lattice goes to `out[r %
/// out.len()]`: with one entry per row, each row's own sum; with fewer, the
/// rows sharing an entry added in row order (a 5-d fermion's norm is its
/// slices' norms summed in slice order). On a rank grid every row is summed
/// over the global lattice, after one allgather of all rows.
pub fn sweep_sums<E: SveFloat, S: Chunked>(
    grid: &Grid<E>,
    data: ParChunks<S>,
    kernel: impl Fn(usize, S::Chunk, &mut [f64]) + Sync,
    rows: usize,
    out: &mut [f64],
) {
    let lanes = grid.lanes_c();
    let mut partials = PARTIALS.take();
    let len = grid.osites() * rows * lanes;
    if partials.len() < len {
        partials.resize(len, 0.0);
    }
    partials[..len]
        .par_chunks_mut(CHUNK_SITES * rows * lanes)
        .zip(data)
        .enumerate()
        .for_each(|(ci, (p, d))| kernel(ci, d, p));
    sum_rows(grid, &mut partials, rows, out);
    PARTIALS.set(partials);
}

/// The tail of [`sweep_sums`], compiled once per element type rather than
/// once per kernel: each row's canonical sum of the `rows` rows of per-site
/// values in `partials` (on a rank grid, of every rank's) into `out`.
fn sum_rows<E: SveFloat>(grid: &Grid<E>, partials: &mut Vec<f64>, rows: usize, out: &mut [f64]) {
    let (lanes, slots) = (grid.lanes_c(), grid.lex_slots());
    let len = grid.osites() * rows * lanes;
    let gathered;
    let part = match grid.comm() {
        None => &partials[..len],
        Some(comm) => {
            gathered = comm.gather(partials, len);
            &gathered[..]
        }
    };
    let (shift, lane) = (lanes.trailing_zeros(), lanes - 1);
    let entries = out.len();
    for row in 0..rows {
        let sum = canonical_sum(slots.len(), |i| {
            let slot = slots[i] as usize;
            part[(((slot >> shift) * rows + row) << shift) | (slot & lane)]
        });
        let o = &mut out[row % entries];
        *o = if row < entries { sum } else { *o + sum };
    }
}

/// `out[lane] = Σ_comp Re(conj(a)·b)` at every lane of one outer site whose
/// component words are `a` and `b` (`out.len()` complex lanes per word).
#[inline(always)]
pub(crate) fn site_dots<E: SveFloat>(a: &[E], b: &[E], out: &mut [f64]) {
    lane_sums::<E, false>(a, b, out);
}

/// [`site_dots`] for the whole complex `Σ_comp conj(a)·b`: the real parts
/// to the first half of `out`, the imaginary parts to the second.
#[inline(always)]
pub(crate) fn site_inners<E: SveFloat>(a: &[E], b: &[E], out: &mut [f64]) {
    let (re_out, im_out) = out.split_at_mut(out.len() / 2);
    lane_sums::<E, false>(a, b, re_out);
    lane_sums::<E, true>(a, b, im_out);
}

/// At every lane, `Σ (x·y + z·u)` over the site's component words in order,
/// `[x, y, z, u]` the lane's `[a_re, b_re, a_im, b_im]` or, for `IM`,
/// `[a_re, b_im, −a_im, b_re]`. Accumulated in `f64`, except in `f32` for
/// binary16 — the product of two f16 values is exact in f32, so only the
/// additions round, and the binary16 tier steers by sums no wider than an
/// f16 unit's accumulator. Index loops: an iterator adapter left out of
/// line in a fused sweep body runs without its instruction set.
#[inline(always)]
fn lane_sums<E: SveFloat, const IM: bool>(a: &[E], b: &[E], out: &mut [f64]) {
    let w = 2 * out.len();
    let words = a.len().min(b.len()) / w;
    for lane in 0..out.len() {
        let (mut s, mut s32) = (0.0f64, 0.0f32);
        for k in 0..words {
            let (re, im) = (k * w + 2 * lane, k * w + 2 * lane + 1);
            let (ar, ai) = (a[re].to_f64(), a[im].to_f64());
            let (br, bi) = (b[re].to_f64(), b[im].to_f64());
            let [x, y, z, u] = if IM {
                [ar, bi, -ai, br]
            } else {
                [ar, br, ai, bi]
            };
            if E::BYTES == 2 {
                s32 += x as f32 * y as f32 + z as f32 * u as f32;
            } else {
                s += x * y + z * u;
            }
        }
        out[lane] = if E::BYTES == 2 { s32 as f64 } else { s };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_run_left_to_right_and_combine_by_halves() {
        // Values chosen so grouping matters in f64: mixing magnitudes makes
        // (a+b)+c differ from a+(b+c) in the last bits.
        let vals: Vec<f64> = (0..37 * CHUNK_SITES)
            .map(|i| (1.0 + i as f64).powi(7) * if i % 3 == 0 { 1e-13 } else { 1.0 })
            .collect();
        let leaves: Vec<f64> = vals.chunks(CHUNK_SITES).map(|c| c.iter().sum()).collect();
        fn halves(l: &[f64]) -> f64 {
            match l.len() {
                1 => l[0],
                n => halves(&l[..n / 2]) + halves(&l[n / 2..]),
            }
        }
        let got = canonical_sum(vals.len(), |i| vals[i]);
        assert_eq!(got.to_bits(), halves(&leaves).to_bits());
        let fold: f64 = vals.iter().sum();
        assert!((fold - got).abs() <= 1e-12 * fold.abs());
    }

    #[test]
    fn a_partial_last_leaf_and_an_empty_sum() {
        assert_eq!(canonical_sum(0, |_| unreachable!()), 0.0);
        assert_eq!(canonical_sum(CHUNK_SITES + 3, |i| i as f64), 171.0);
    }

    #[test]
    fn binary16_sites_accumulate_in_binary32() {
        // One lane, two words: 4096 and 1. 4096² = 2²⁴ is exact in both
        // accumulators; the f32 one then loses the 1 added to it, the f64
        // one keeps it.
        fn dot<E: SveFloat>() -> f64 {
            let a = [4096.0, 0.0, 1.0, 0.0].map(E::from_f64);
            let mut out = [0.0];
            site_dots(&a, &a, &mut out);
            out[0]
        }
        assert_eq!(dot::<sve::F16>(), 16_777_216.0);
        assert_eq!(dot::<f64>(), 16_777_217.0);
    }

    #[test]
    fn inners_are_the_conjugate_dot_per_lane() {
        // Two lanes, two words: lane 0 holds (1 + 2i, 3 − i) in `a` and
        // (2 − i, 1 + 4i) in `b`, lane 1 the same scaled by 2 and 3.
        let a = [1.0, 2.0, 2.0, 4.0, 3.0, -1.0, 6.0, -2.0];
        let b = [2.0, -1.0, 6.0, -3.0, 1.0, 4.0, 3.0, 12.0];
        let mut out = [0.0; 4];
        site_inners(&a, &b, &mut out);
        // conj(1 + 2i)(2 − i) + conj(3 − i)(1 + 4i) = −5i + (−1 + 13i).
        assert_eq!(out, [-1.0, -6.0, 8.0, 48.0]);
    }
}
