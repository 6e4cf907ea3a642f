//! The lane-loop shapes every intrinsic is an instance of.
//!
//! An intrinsic names its shape (element-wise map of one, two or three
//! operands, complex pairs, fold of the active lanes, structure load/store)
//! and supplies the per-lane body; the shape decides predication **once per
//! instruction**: under an all-true governing predicate — what every
//! fixed-size kernel of the port passes (paper listing IV-D) — or for an
//! `_x` form, it runs the straight loop over the `VL` prefix, otherwise a
//! select per lane. Element-wise shapes come in two kinds. [`moved`] and
//! [`moved2`] hand the body the lanes as stored (selects, sign-bit
//! operations, conversions inside a container). The arithmetic shapes —
//! [`arith1`], [`arith2`], [`ternary`], [`complex`], [`fold_arith`] — hand it
//! [`SveFloat::Wide`] values: the lane itself for `f32`/`f64`, and for
//! binary16 eight lanes at once, widened to `f32` along with the rest of
//! their register (`vreg.rs`), the select then working on the narrowed
//! lanes. Either way
//! the loop is [`Reg::zip3`] or a relative and the contiguous all-active
//! load [`Reg::from_slice`], which the context's lowering (`host.rs`)
//! compiles per vector length and per host instruction set — a load written
//! with narrower stores than the arithmetic that follows reads stalls it;
//! the other loads and stores only move data, lane by lane in index loops
//! ([`Reg::from_elems`], [`Reg::lane`]); permutes and broadcasts go
//! through [`Reg::from_fn`].
//! Every shape is written once over the register capacity `N`, which its
//! operands fix.

use crate::ctx::SizedCtx;
use crate::elem::{SveElem, SveFloat};
use crate::host::HostCopy;
use crate::pred::PReg;
use crate::vreg::{prefix_len, ArithLanes, Reg};

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

impl Inactive {
    /// What lane `e` of an `E` view keeps of `new` under `pg`, `first`
    /// being the lane of the first operand.
    #[inline(always)]
    fn merge<E: SveElem>(self, pg: &PReg, e: usize, first: E, new: E) -> E {
        match (pg.elem_active::<E>(e), self) {
            (true, _) => new,
            (false, Inactive::Zero) => E::zero(),
            (false, _) => first,
        }
    }

    /// Whether the instruction computes every lane of the `E` view: an `_x`
    /// form, or a predicate that governs them all.
    #[inline(always)]
    fn every_lane<E: SveElem, const N: usize, C: HostCopy>(
        self,
        sz: &SizedCtx<'_, N, C>,
        pg: &PReg,
    ) -> bool {
        self == Inactive::Computed || pg.all_active::<E>(sz.vl())
    }
}

/// A shape's body, inline inside an entered copy, where it is part of one
/// fused function; out of line where each instruction enters the host's
/// copy on its own, one function per instruction and operand type, so a
/// kernel that issues its instructions one by one does not carry a copy of
/// every loop at every call. The element-wise shapes and the load take it —
/// the ones the compiler left out of line by itself before entries were
/// fused; the complex shape, the fold and the store stay inline, as then.
#[inline(always)]
fn lower<C: HostCopy, R>(body: impl FnOnce() -> R) -> R {
    if C::ENTERED {
        body()
    } else {
        dispatched(body)
    }
}

#[inline(never)]
fn dispatched<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// Two-operand map on the lanes as stored: active lanes get `f(a, b)`.
#[inline(always)]
pub(super) fn moved2<E: SveElem, const N: usize, C: HostCopy>(
    sz: &SizedCtx<'_, N, C>,
    pg: &PReg,
    inactive: Inactive,
    a: &Reg<N>,
    b: &Reg<N>,
    f: impl Fn(E, E) -> E,
) -> Reg<N> {
    lower::<C, _>(
        #[inline(always)]
        || {
            if inactive.every_lane::<E, N, C>(sz, pg) {
                a.zip3(
                    a,
                    b,
                    sz,
                    #[inline(always)]
                    |_, x: E, _, y| f(x, y),
                )
            } else {
                a.zip3(
                    a,
                    b,
                    sz,
                    #[inline(always)]
                    |e, x: E, _, y| inactive.merge(pg, e, x, f(x, y)),
                )
            }
        },
    )
}

/// One-operand map on the lanes as stored: active lanes get `f(a)`.
#[inline(always)]
pub(super) fn moved<E: SveElem, const N: usize, C: HostCopy>(
    sz: &SizedCtx<'_, N, C>,
    pg: &PReg,
    inactive: Inactive,
    a: &Reg<N>,
    f: impl Fn(E) -> E,
) -> Reg<N> {
    moved2(sz, pg, inactive, a, a, |x, _| f(x))
}

/// Every element-wise arithmetic instruction on single lanes: active lanes
/// get `f(z, a, b)`, inactive ones what `inactive` says of `z`.
#[inline(always)]
fn arith3<E: SveFloat, const N: usize, C: HostCopy>(
    sz: &SizedCtx<'_, N, C>,
    pg: &PReg,
    inactive: Inactive,
    regs: [&Reg<N>; 3],
    f: impl Fn(E::Wide, E::Wide, E::Wide) -> E::Wide,
) -> Reg<N> {
    lower::<C, _>(
        #[inline(always)]
        || {
            let merge = (!inactive.every_lane::<E, N, C>(sz, pg)).then_some(
                #[inline(always)]
                |e, first: E, new: E| inactive.merge(pg, e, first, new),
            );
            E::Lanes::zip3(sz, regs, f, merge)
        },
    )
}

/// Two-operand arithmetic: active lanes get `f(a, b)`.
#[inline(always)]
pub(super) fn arith2<E: SveFloat, const N: usize, C: HostCopy>(
    sz: &SizedCtx<'_, N, C>,
    pg: &PReg,
    inactive: Inactive,
    a: &Reg<N>,
    b: &Reg<N>,
    f: impl Fn(E::Wide, E::Wide) -> E::Wide,
) -> Reg<N> {
    arith3::<E, N, C>(
        sz,
        pg,
        inactive,
        [a, a, b],
        #[inline(always)]
        |x, _, y| f(x, y),
    )
}

/// One-operand arithmetic: active lanes get `f(a)`.
#[inline(always)]
pub(super) fn arith1<E: SveFloat, const N: usize, C: HostCopy>(
    sz: &SizedCtx<'_, N, C>,
    pg: &PReg,
    inactive: Inactive,
    a: &Reg<N>,
    f: impl Fn(E::Wide) -> E::Wide,
) -> Reg<N> {
    arith3::<E, N, C>(
        sz,
        pg,
        inactive,
        [a, a, a],
        #[inline(always)]
        |x, _, _| f(x),
    )
}

/// Three-operand accumulate (`fmla` family): active lanes get
/// `f(acc, a, b)`, inactive lanes keep `acc`.
#[inline(always)]
pub(super) fn ternary<E: SveFloat, const N: usize, C: HostCopy>(
    sz: &SizedCtx<'_, N, C>,
    pg: &PReg,
    acc: &Reg<N>,
    a: &Reg<N>,
    b: &Reg<N>,
    f: impl Fn(E::Wide, E::Wide, E::Wide) -> E::Wide,
) -> Reg<N> {
    arith3::<E, N, C>(sz, pg, Inactive::First, [acc, a, b], f)
}

/// Complex accumulate (`fcmla`, `fcadd`) on `regs = [acc, x, y]`: every
/// (re, im) pair of adjacent lanes gets `f(acc, x, y)`; the real and the
/// imaginary lane are each governed by their own predicate bit, inactive
/// ones keep `acc`.
#[inline(always)]
pub(super) fn complex<E: SveFloat, const N: usize, C: HostCopy>(
    sz: &SizedCtx<'_, N, C>,
    pg: &PReg,
    regs: [&Reg<N>; 3],
    f: impl Fn([E::Wide; 2], [E::Wide; 2], [E::Wide; 2]) -> [E::Wide; 2],
) -> Reg<N> {
    let merge = (!pg.all_active::<E>(sz.vl())).then_some(
        #[inline(always)]
        |p, z: [E; 2], new: [E; 2]| {
            let on = |e| pg.elem_active::<E>(e);
            [
                if on(2 * p) { new[0] } else { z[0] },
                if on(2 * p + 1) { new[1] } else { z[1] },
            ]
        },
    );
    E::Lanes::zip3_pairs(sz, regs, f, merge)
}

/// Fold the lanes of `a` active under `pg` into `init` with `f`, in lane
/// order and rounding to `E` after every step (the first active lane starts
/// the chain when there is no `init`; `None` if there is neither).
#[inline(always)]
pub(super) fn fold_arith<E: SveFloat, const N: usize, C: HostCopy>(
    sz: &SizedCtx<'_, N, C>,
    pg: &PReg,
    a: &Reg<N>,
    init: Option<E>,
    f: impl Fn(E::Wide, E::Wide) -> E::Wide,
) -> Option<E> {
    E::Lanes::fold(sz, pg, a, init, f)
}

/// `(lane index, value)` of each active lane of `a`, in lane order.
#[inline(always)]
pub(super) fn active_lanes<'a, E: SveElem, const N: usize, C: HostCopy>(
    sz: &SizedCtx<'_, N, C>,
    pg: &'a PReg,
    a: &'a Reg<N>,
) -> impl Iterator<Item = (usize, E)> + 'a {
    a.lanes::<E>(sz.vl())
        .enumerate()
        .filter(move |&(e, _)| pg.elem_active::<E>(e))
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
#[inline(always)]
pub(super) fn load<E: SveElem, const N: usize, C: HostCopy>(
    sz: &SizedCtx<'_, N, C>,
    pg: &PReg,
    src: &[E],
    stride: usize,
    k: usize,
) -> Reg<N> {
    lower::<C, _>(
        #[inline(always)]
        || {
            let vl = sz.vl();
            let lanes = vl.lanes_of(E::BYTES);
            if pg.all_active::<E>(vl) {
                let Some(src) = src.get(..stride * lanes) else {
                    out_of_bounds("reads", unit_name(stride), src.len() / stride, src.len())
                };
                if stride == 1 {
                    Reg::from_slice(sz, src)
                } else {
                    Reg::from_elems(
                        vl,
                        #[inline(always)]
                        |e| src[stride * e + k],
                    )
                }
            } else {
                Reg::from_elems(
                    vl,
                    #[inline(always)]
                    |e| match (pg.elem_active::<E>(e), src.get(stride * e + k)) {
                        (false, _) => E::zero(),
                        (true, Some(&v)) => v,
                        (true, None) => out_of_bounds("reads", "index", stride * e + k, src.len()),
                    },
                )
            }
        },
    )
}

/// One register of a structure store of `stride`-element records (`st1` is
/// `stride = 1`): active lane `e` of `reg` goes to `dst[stride*e + k]`. Only
/// active lanes touch memory; an active record beyond `dst` panics.
#[inline(always)]
pub(super) fn store<E: SveElem, const N: usize, C: HostCopy>(
    sz: &SizedCtx<'_, N, C>,
    pg: &PReg,
    dst: &mut [E],
    stride: usize,
    k: usize,
    reg: &Reg<N>,
) {
    let vl = sz.vl();
    let what = unit_name(stride);
    // Index loops: a fused body calls no iterator adapter out of line.
    let lanes = prefix_len(N, vl) / E::BYTES;
    if pg.all_active::<E>(vl) {
        if dst.len() < stride * vl.lanes_of(E::BYTES) {
            out_of_bounds("writes", what, dst.len() / stride, dst.len());
        }
        if stride == 1 {
            // The lanes are a prefix of `dst`: one bounds check per word.
            for (e, d) in dst[..lanes].iter_mut().enumerate() {
                *d = reg.lane(e);
            }
        } else {
            for e in 0..lanes {
                dst[stride * e + k] = reg.lane(e);
            }
        }
    } else {
        for e in 0..lanes {
            if pg.elem_active::<E>(e) {
                match dst.get_mut(stride * e + k) {
                    Some(d) => *d = reg.lane(e),
                    None => out_of_bounds("writes", what, e, dst.len()),
                }
            }
        }
    }
}
