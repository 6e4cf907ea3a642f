//! The lane-loop shapes every intrinsic is an instance of.
//!
//! An intrinsic names its shape (element-wise map of one, two or three
//! operands, complex pairs, fold of the active lanes, structure load/store)
//! and supplies the per-lane arithmetic; the shape decides predication
//! **once per instruction**: under an all-true governing predicate — what
//! every fixed-size kernel of the port passes (paper listing IV-D) — or for
//! an `_x` form, it runs the straight loop over the `VL` prefix, otherwise a
//! select per lane. The arithmetic loop is [`Reg::zip3`] and the contiguous
//! all-active load [`Reg::from_slice`], which the context's lowering
//! (`host.rs`) compiles per vector length and per host instruction set — a
//! load written with narrower stores than the arithmetic that follows reads
//! stalls it; the other loads, stores and folds only move data or add in
//! lane order and walk [`Reg::from_lanes`] and [`Reg::lanes`]; permutes and
//! broadcasts go through [`Reg::from_fn`]. Every shape is written once over
//! the register capacity `N`, which its operands fix.

use crate::ctx::SveCtx;
use crate::elem::SveElem;
use crate::pred::PReg;
use crate::vreg::{LaneGroup, Reg};

/// What an inactive lane of an element-wise result holds.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Inactive {
    /// `_x`: "don't care" — computed like an active lane.
    Computed,
    /// `_z`: zero.
    Zero,
    /// `_m`: the lane of the first operand.
    First,
}

/// Every element-wise instruction: lane (or (re, im) lane pair, with
/// `G = [E; 2]`) `i` of the result is `f(z, a, b)`. Unless `every_lane` is
/// set or `pg` governs every `E` lane, `merge(i, z, new)` then decides what
/// of the new value lane `i` keeps.
#[inline]
#[allow(clippy::too_many_arguments)]
fn lanewise<E: SveElem, G: LaneGroup, const N: usize>(
    ctx: &SveCtx,
    pg: &PReg,
    every_lane: bool,
    z: &Reg<N>,
    a: &Reg<N>,
    b: &Reg<N>,
    f: impl Fn(G, G, G) -> G,
    merge: impl Fn(usize, G, G) -> G,
) -> Reg<N> {
    let lw = ctx.lowering();
    if every_lane || pg.all_active::<E>(lw.vl()) {
        z.zip3(a, b, lw, |_, z, a, b| f(z, a, b))
    } else {
        z.zip3(a, b, lw, |i, z, a, b| merge(i, z, f(z, a, b)))
    }
}

/// Two-operand map: active lanes get `f(a, b)`.
#[inline]
pub(super) fn binary<E: SveElem, const N: usize>(
    ctx: &SveCtx,
    pg: &PReg,
    inactive: Inactive,
    a: &Reg<N>,
    b: &Reg<N>,
    f: impl Fn(E, E) -> E,
) -> Reg<N> {
    let every_lane = inactive == Inactive::Computed;
    let merge = |e, first, new| match (pg.elem_active::<E>(e), inactive) {
        (true, _) => new,
        (false, Inactive::Zero) => E::zero(),
        (false, _) => first,
    };
    lanewise::<E, E, N>(ctx, pg, every_lane, a, a, b, |x, _, y| f(x, y), merge)
}

/// One-operand map: active lanes get `f(a)`.
#[inline]
pub(super) fn unary<E: SveElem, const N: usize>(
    ctx: &SveCtx,
    pg: &PReg,
    inactive: Inactive,
    a: &Reg<N>,
    f: impl Fn(E) -> E,
) -> Reg<N> {
    binary(ctx, pg, inactive, a, a, |x, _| f(x))
}

/// Three-operand accumulate (`fmla` family): active lanes get
/// `f(acc, a, b)`, inactive lanes keep `acc`.
#[inline]
pub(super) fn ternary<E: SveElem, const N: usize>(
    ctx: &SveCtx,
    pg: &PReg,
    acc: &Reg<N>,
    a: &Reg<N>,
    b: &Reg<N>,
    f: impl Fn(E, E, E) -> E,
) -> Reg<N> {
    let merge = |e, z, new| if pg.elem_active::<E>(e) { new } else { z };
    lanewise::<E, E, N>(ctx, pg, false, acc, a, b, f, merge)
}

/// Complex accumulate (`fcmla`, `fcadd`): every (re, im) pair of adjacent
/// lanes gets `f(acc, x, y)`; the real and the imaginary lane are each
/// governed by their own predicate bit, inactive ones keep `acc`.
#[inline]
pub(super) fn complex<E: SveElem, const N: usize>(
    ctx: &SveCtx,
    pg: &PReg,
    acc: &Reg<N>,
    x: &Reg<N>,
    y: &Reg<N>,
    f: impl Fn([E; 2], [E; 2], [E; 2]) -> [E; 2],
) -> Reg<N> {
    let keep = |e, z, new| if pg.elem_active::<E>(e) { new } else { z };
    let merge =
        |p, z: [E; 2], new: [E; 2]| [keep(2 * p, z[0], new[0]), keep(2 * p + 1, z[1], new[1])];
    lanewise::<E, [E; 2], N>(ctx, pg, false, acc, x, y, f, merge)
}

/// `(lane index, value)` of each active lane of `a`, in lane order.
#[inline]
pub(super) fn active_lanes<'a, E: SveElem, const N: usize>(
    ctx: &SveCtx,
    pg: &'a PReg,
    a: &'a Reg<N>,
) -> impl Iterator<Item = (usize, E)> + 'a {
    a.lanes::<E>(ctx.vl())
        .enumerate()
        .filter(move |&(e, _)| pg.elem_active::<E>(e))
}

/// Fold the active lanes of `a` in lane order.
#[inline]
pub(super) fn fold_active<E: SveElem, A, const N: usize>(
    ctx: &SveCtx,
    pg: &PReg,
    a: &Reg<N>,
    init: A,
    f: impl Fn(A, E) -> A,
) -> A {
    if pg.all_active::<E>(ctx.vl()) {
        a.lanes::<E>(ctx.vl()).fold(init, f)
    } else {
        active_lanes(ctx, pg, a).fold(init, |acc, (_, v)| f(acc, v))
    }
}

/// An active lane of a load (`access = "reads"`) or store (`"writes"`) falls
/// outside the slice: `what` is `"index"` for a scalar position and
/// `"record"` for a `stride`-element record of a structure access.
#[cold]
fn out_of_bounds(access: &str, what: &str, idx: usize, len: usize) -> ! {
    panic!("sve: active lane {access} out of bounds ({what} {idx}, slice len {len})")
}

/// What an all-active structure access calls its unit of memory.
fn unit_name(stride: usize) -> &'static str {
    if stride == 1 {
        "index"
    } else {
        "record"
    }
}

/// One register of a structure load of `stride`-element records (`ld1` is
/// `stride = 1`): active lane `e` takes `src[stride*e + k]`. Inactive lanes
/// touch no memory and are zeroed; an active lane beyond `src` panics.
#[inline]
pub(super) fn load<E: SveElem, const N: usize>(
    ctx: &SveCtx,
    pg: &PReg,
    src: &[E],
    stride: usize,
    k: usize,
) -> Reg<N> {
    let vl = ctx.vl();
    let lanes = vl.lanes_of(E::BYTES);
    if pg.all_active::<E>(vl) {
        let Some(src) = src.get(..stride * lanes) else {
            out_of_bounds("reads", unit_name(stride), src.len() / stride, src.len())
        };
        if stride == 1 {
            Reg::from_slice(ctx.lowering(), src)
        } else {
            Reg::from_lanes(vl, src.chunks_exact(stride).map(|rec| rec[k]))
        }
    } else {
        Reg::from_lanes(
            vl,
            (0..lanes).map(
                |e| match (pg.elem_active::<E>(e), src.get(stride * e + k)) {
                    (false, _) => E::zero(),
                    (true, Some(&v)) => v,
                    (true, None) => out_of_bounds("reads", "index", stride * e + k, src.len()),
                },
            ),
        )
    }
}

/// One register of a structure store of `stride`-element records (`st1` is
/// `stride = 1`): active lane `e` of `reg` goes to `dst[stride*e + k]`. Only
/// active lanes touch memory; an active record beyond `dst` panics.
#[inline]
pub(super) fn store<E: SveElem, const N: usize>(
    ctx: &SveCtx,
    pg: &PReg,
    dst: &mut [E],
    stride: usize,
    k: usize,
    reg: &Reg<N>,
) {
    let vl = ctx.vl();
    let what = unit_name(stride);
    if pg.all_active::<E>(vl) {
        if dst.len() < stride * vl.lanes_of(E::BYTES) {
            out_of_bounds("writes", what, dst.len() / stride, dst.len());
        }
        for (rec, v) in dst.chunks_exact_mut(stride).zip(reg.lanes::<E>(vl)) {
            rec[k] = v;
        }
    } else {
        for (e, v) in active_lanes::<E, N>(ctx, pg, reg) {
            match dst.get_mut(stride * e + k) {
                Some(d) => *d = v,
                None => out_of_bounds("writes", what, e, dst.len()),
            }
        }
    }
}
