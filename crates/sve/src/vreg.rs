//! The vector register file model.
//!
//! A `z` register is an untyped container of `VL` bits; instructions impose
//! the element view. [`Reg<N>`] therefore stores `N` raw bytes, and a
//! context's [`VectorLength`] determines how many of them an operation
//! touches. Code that bounds its vector length at compile time — the paper's
//! port fixes it (`SVE_VECTOR_LENGTH` of at most 64 bytes, Section V-A) —
//! holds registers of that many bytes and stops moving the rest; [`VReg`]
//! is the 2048-bit capacity that fits whatever length a context turns out
//! to have (`armie`, the VLA listings, probes). Every lane loop below is
//! written once over `N`.

use crate::ctx::SizedCtx;
use crate::elem::{Octet, SveElem, SveFloat};
use crate::f16::F16;
use crate::host::{unrolled, Convert, HostCopy, LaneLoop, Portable};
use crate::pred::PReg;
use crate::vl::{VectorLength, VL_MAX_BYTES};

/// What one step of a lane loop reads or writes: a single element, or the
/// (re, im) pair of adjacent lanes that `fcmla`/`fcadd` work on.
pub trait LaneGroup: Copy + 'static {
    /// Bytes of one group.
    const BYTES: usize;
    /// The group stored little-endian at the start of `src`.
    fn read_le(src: &[u8]) -> Self;
    /// Store the group little-endian at the start of `dst`.
    fn write_le(self, dst: &mut [u8]);
}

impl<E: SveElem> LaneGroup for E {
    const BYTES: usize = E::BYTES;
    #[inline]
    fn read_le(src: &[u8]) -> Self {
        E::read_le(src)
    }
    #[inline]
    fn write_le(self, dst: &mut [u8]) {
        SveElem::write_le(self, dst)
    }
}

impl<E: SveElem> LaneGroup for [E; 2] {
    const BYTES: usize = 2 * E::BYTES;
    #[inline]
    fn read_le(src: &[u8]) -> Self {
        let (re, im) = src.split_at(E::BYTES);
        [E::read_le(re), E::read_le(im)]
    }
    #[inline]
    fn write_le(self, dst: &mut [u8]) {
        let (re, im) = dst.split_at_mut(E::BYTES);
        self[0].write_le(re);
        self[1].write_le(im);
    }
}

/// One SVE vector register (`z0`..`z31`) with room for `N` bytes: untyped
/// storage, interpreted per-instruction through [`SveElem`] lane views. It
/// serves every context whose vector length is at most `N` bytes; an
/// instruction under a longer one panics.
///
/// Registers sit on cache lines of their own, so `N` is a multiple of 64
/// (checked at compile time): a register at a smaller alignment makes the
/// host's 32-byte loads and stores straddle lines, measured at +3–4 ns on a
/// 10 ns instruction.
#[derive(Clone, Copy)]
#[repr(align(64))]
pub struct Reg<const N: usize> {
    bytes: [u8; N],
}

/// A register with the architectural maximum of 2048 bits: what code that
/// learns its vector length at run time holds.
pub type VReg = Reg<VL_MAX_BYTES>;

impl<const N: usize> Default for Reg<N> {
    fn default() -> Self {
        Self::zeroed()
    }
}

#[cold]
#[inline(never)]
pub(crate) fn register_too_narrow(capacity: usize, vl: VectorLength) -> ! {
    panic!(
        "sve: a {capacity}-byte register cannot hold a {vl:?} vector ({} bytes)",
        vl.bytes()
    )
}

/// The bytes an instruction at `vl` touches in registers of `capacity`
/// bytes, having checked that they hold them (nothing to check at the
/// maximum capacity).
#[inline(always)]
pub(crate) fn prefix_len(capacity: usize, vl: VectorLength) -> usize {
    if capacity < VL_MAX_BYTES && vl.bytes() > capacity {
        register_too_narrow(capacity, vl);
    }
    vl.bytes()
}

impl<const N: usize> Reg<N> {
    /// An all-zero register (`mov z0.d, #0` writes this).
    pub const fn zeroed() -> Self {
        const {
            assert!(
                N > 0 && N.is_multiple_of(64) && N <= VL_MAX_BYTES,
                "a register holds 64, 128, 192 or 256 bytes"
            )
        };
        Reg { bytes: [0; N] }
    }

    /// Read lane `i` under the element view `E`.
    #[inline(always)]
    pub fn lane<E: SveElem>(&self, i: usize) -> E {
        let off = i * E::BYTES;
        E::read_le(&self.bytes[off..off + E::BYTES])
    }

    /// Write lane `i` under the element view `E`.
    #[inline(always)]
    pub fn set_lane<E: SveElem>(&mut self, i: usize, v: E) {
        let off = i * E::BYTES;
        v.write_le(&mut self.bytes[off..off + E::BYTES]);
    }

    /// Raw little-endian bytes of the register.
    pub fn bytes(&self) -> &[u8; N] {
        &self.bytes
    }

    /// Mutable raw bytes.
    pub fn bytes_mut(&mut self) -> &mut [u8; N] {
        &mut self.bytes
    }

    /// The lanes (or lane pairs) inside vector length `vl`, in lane order.
    #[inline]
    pub(crate) fn lanes<G: LaneGroup>(
        &self,
        vl: VectorLength,
    ) -> impl ExactSizeIterator<Item = G> + '_ {
        self.bytes[..prefix_len(N, vl)]
            .chunks_exact(G::BYTES)
            .map(G::read_le)
    }

    /// Build a register from lane values in lane order. Only the `vl` prefix
    /// is touched: lanes `items` does not reach and all storage above `vl`
    /// stay zero.
    #[inline]
    pub(crate) fn from_lanes<G: LaneGroup>(
        vl: VectorLength,
        items: impl Iterator<Item = G>,
    ) -> Self {
        let mut r = Self::zeroed();
        for (dst, v) in r.bytes[..prefix_len(N, vl)]
            .chunks_exact_mut(G::BYTES)
            .zip(items)
        {
            v.write_le(dst);
        }
        r
    }

    /// Build a register lane by lane in an index loop, as a fused body must
    /// (no iterator adapter is left out of line): lane `e` inside `vl` is
    /// `f(e)`; storage above `vl` stays zero.
    #[inline(always)]
    pub(crate) fn from_elems<E: SveElem>(vl: VectorLength, f: impl Fn(usize) -> E) -> Self {
        let mut r = Self::zeroed();
        for e in 0..prefix_len(N, vl) / E::BYTES {
            r.set_lane(e, f(e));
        }
        r
    }

    /// Build a register from the leading lanes of `src`, which must cover
    /// `vl`: the contiguous all-active load. Storage above `vl` stays zero.
    #[inline(always)]
    pub(crate) fn from_slice<G: LaneGroup, C: HostCopy>(
        sz: &SizedCtx<'_, N, C>,
        src: &[G],
    ) -> Self {
        sz.run(FromSlice::<_, N>(src))
    }

    /// The generating lane loop: lane (or lane pair) `i` of the result is
    /// `f(i)` for every lane inside `vl`; storage above `vl` stays zero.
    #[inline]
    pub(crate) fn from_index<G: LaneGroup>(vl: VectorLength, f: impl FnMut(usize) -> G) -> Self {
        unrolled(vl, FromIndex::<_, N>(f), Portable)
    }

    /// The element-wise lane loop: lane (or lane pair) `i` of the result is
    /// `f(i, self[i], a[i], b[i])` for every lane inside `vl`; storage above
    /// `vl` stays zero. Instructions with fewer operands pass one twice.
    #[inline(always)]
    pub(crate) fn zip3<G: LaneGroup, C: HostCopy>(
        &self,
        a: &Self,
        b: &Self,
        sz: &SizedCtx<'_, N, C>,
        f: impl Fn(usize, G, G, G) -> G,
    ) -> Self {
        sz.run(Zip3 { z: self, a, b, f })
    }

    /// Build a register by evaluating `f` on every lane index active for
    /// vector length `vl` (inactive upper storage stays zero).
    #[inline]
    pub fn from_fn<E: SveElem>(vl: VectorLength, f: impl FnMut(usize) -> E) -> Self {
        Self::from_index(vl, f)
    }

    /// Collect the lanes active for `vl` into a `Vec` (test/debug helper).
    pub fn to_vec<E: SveElem>(&self, vl: VectorLength) -> Vec<E> {
        self.lanes(vl).collect()
    }

    /// True if the registers agree on all lanes active for `vl` under view
    /// `E` (upper storage is ignored, as hardware would).
    pub fn lanes_eq<E: SveElem>(&self, other: &Self, vl: VectorLength) -> bool {
        self.lanes::<E>(vl).eq(other.lanes::<E>(vl))
    }
}

struct FromSlice<'a, G, const N: usize>(&'a [G]);

impl<G: LaneGroup, const N: usize> LaneLoop<G> for FromSlice<'_, G, N> {
    type Out = Reg<N>;
    const CAPACITY: usize = N;
    #[inline(always)]
    fn run<C: Convert>(self, bytes: usize, _: C) -> Reg<N> {
        let mut r = Reg::zeroed();
        let src = &self.0[..bytes / G::BYTES];
        for (i, v) in src.iter().enumerate() {
            v.write_le(&mut r.bytes[i * G::BYTES..(i + 1) * G::BYTES]);
        }
        r
    }
}

struct FromIndex<F, const N: usize>(F);

impl<G: LaneGroup, F: FnMut(usize) -> G, const N: usize> LaneLoop<G> for FromIndex<F, N> {
    type Out = Reg<N>;
    const CAPACITY: usize = N;
    #[inline(always)]
    fn run<C: Convert>(mut self, bytes: usize, _: C) -> Reg<N> {
        let mut r = Reg::zeroed();
        for (i, dst) in r.bytes[..bytes].chunks_exact_mut(G::BYTES).enumerate() {
            (self.0)(i).write_le(dst);
        }
        r
    }
}

struct Zip3<'a, F, const N: usize> {
    z: &'a Reg<N>,
    a: &'a Reg<N>,
    b: &'a Reg<N>,
    f: F,
}

impl<G: LaneGroup, F: Fn(usize, G, G, G) -> G, const N: usize> LaneLoop<G> for Zip3<'_, F, N> {
    type Out = Reg<N>;
    const CAPACITY: usize = N;
    #[inline(always)]
    fn run<C: Convert>(self, bytes: usize, _: C) -> Reg<N> {
        // Index loops, not zipped iterators: every step here must inline
        // into a body entered once per chunk of sites.
        let mut r = Reg::zeroed();
        for i in 0..bytes / G::BYTES {
            let at = i * G::BYTES..(i + 1) * G::BYTES;
            let (z, a, b) = (
                &self.z.bytes[at.clone()],
                &self.a.bytes[at.clone()],
                &self.b.bytes[at.clone()],
            );
            (self.f)(i, G::read_le(z), G::read_le(a), G::read_le(b)).write_le(&mut r.bytes[at]);
        }
        r
    }
}

/// How the arithmetic intrinsics walk registers of `E` lanes: an intrinsic
/// states its lane body once, on [`SveFloat::Wide`] values, and
/// [`SveFloat::Lanes`] decides what reading a lane as a `Wide` takes.
///
/// `merge`, when an instruction's predicate leaves lanes out, maps (lane
/// index, lane of `z`, computed lane) to the lane the result keeps; it works
/// on the lanes as stored, so an inactive binary16 lane keeps its bits.
pub trait ArithLanes<E: SveFloat> {
    /// Lane `i` of the result is `f(z[i], a[i], b[i])`, then `merge`.
    fn zip3<const N: usize, C: HostCopy>(
        sz: &SizedCtx<'_, N, C>,
        regs: [&Reg<N>; 3],
        f: impl Fn(E::Wide, E::Wide, E::Wide) -> E::Wide,
        merge: Option<impl Fn(usize, E, E) -> E>,
    ) -> Reg<N>;

    /// [`ArithLanes::zip3`] over the (re, im) pairs of adjacent lanes;
    /// `merge` sees one pair.
    fn zip3_pairs<const N: usize, C: HostCopy>(
        sz: &SizedCtx<'_, N, C>,
        regs: [&Reg<N>; 3],
        f: impl Fn([E::Wide; 2], [E::Wide; 2], [E::Wide; 2]) -> [E::Wide; 2],
        merge: Option<impl Fn(usize, [E; 2], [E; 2]) -> [E; 2]>,
    ) -> Reg<N>;

    /// Fold the lanes of `a` that `pg` governs into `init` in lane order,
    /// rounding to `E` after every step; without an `init` the first such
    /// lane starts the chain, and `None` comes back if there is none.
    fn fold<const N: usize, C: HostCopy>(
        sz: &SizedCtx<'_, N, C>,
        pg: &PReg,
        a: &Reg<N>,
        init: Option<E>,
        f: impl Fn(E::Wide, E::Wide) -> E::Wide,
    ) -> Option<E>;
}

/// Lanes whose arithmetic type is the lane type (`f32`, `f64`): the
/// element-wise loop is [`Reg::zip3`] as it stands.
pub struct Direct;

/// [`Reg::zip3`] over lanes or lane pairs `G`, with or without a `merge`.
#[inline(always)]
fn zip3_direct<G: LaneGroup, const N: usize, C: HostCopy>(
    sz: &SizedCtx<'_, N, C>,
    [z, a, b]: [&Reg<N>; 3],
    f: impl Fn(G, G, G) -> G,
    merge: Option<impl Fn(usize, G, G) -> G>,
) -> Reg<N> {
    match merge {
        None => z.zip3(
            a,
            b,
            sz,
            #[inline(always)]
            |_, z, a, b| f(z, a, b),
        ),
        Some(merge) => z.zip3(
            a,
            b,
            sz,
            #[inline(always)]
            |i, z, a, b| merge(i, z, f(z, a, b)),
        ),
    }
}

impl<E: SveFloat<Wide = E>> ArithLanes<E> for Direct {
    #[inline(always)]
    fn zip3<const N: usize, C: HostCopy>(
        sz: &SizedCtx<'_, N, C>,
        regs: [&Reg<N>; 3],
        f: impl Fn(E, E, E) -> E,
        merge: Option<impl Fn(usize, E, E) -> E>,
    ) -> Reg<N> {
        zip3_direct(sz, regs, f, merge)
    }

    #[inline(always)]
    fn zip3_pairs<const N: usize, C: HostCopy>(
        sz: &SizedCtx<'_, N, C>,
        regs: [&Reg<N>; 3],
        f: impl Fn([E; 2], [E; 2], [E; 2]) -> [E; 2],
        merge: Option<impl Fn(usize, [E; 2], [E; 2]) -> [E; 2]>,
    ) -> Reg<N> {
        zip3_direct(sz, regs, f, merge)
    }

    #[inline(always)]
    fn fold<const N: usize, C: HostCopy>(
        sz: &SizedCtx<'_, N, C>,
        pg: &PReg,
        a: &Reg<N>,
        init: Option<E>,
        f: impl Fn(E, E) -> E,
    ) -> Option<E> {
        let vl = sz.vl();
        if pg.all_active::<E>(vl) {
            chain(a.lanes::<E>(vl), init, f)
        } else {
            let active = a.lanes::<E>(vl).enumerate();
            let active = active.filter_map(|(e, v)| pg.elem_active::<E>(e).then_some(v));
            chain(active, init, f)
        }
    }
}

/// `f` folded over `lanes` from `init`, or from the first lane.
#[inline(always)]
fn chain<E>(
    mut lanes: impl Iterator<Item = E>,
    init: Option<E>,
    f: impl Fn(E, E) -> E,
) -> Option<E> {
    let first = match init {
        Some(init) => init,
        None => lanes.next()?,
    };
    Some(lanes.fold(first, f))
}

/// Binary16 lanes: a register's lanes are widened to `f32` once per
/// instruction, eight to an [`Octet`], the lane body runs on those, and the
/// results are narrowed once, with the conversion of the copy of the loops
/// that runs.
pub struct Widened;

/// What a lane body sees of binary16 lanes in one call: eight lanes, or
/// the real and the imaginary parts of eight (re, im) pairs.
trait WideGroup: Sized {
    /// Bytes of binary16 lanes in a group.
    const BYTES: usize;
    /// The lanes of `src`: a whole group, or the leading half of a group of
    /// pairs (a vector is a whole number of 128-bit granules), which zeros
    /// make up.
    fn widen<C: Convert>(cv: C, src: &[u8]) -> Self;
    /// As many lanes as `dst` holds, rounded to binary16.
    fn narrow<C: Convert>(self, cv: C, dst: &mut [u8]);
}

impl WideGroup for Octet {
    const BYTES: usize = 16;
    #[inline(always)]
    fn widen<C: Convert>(cv: C, src: &[u8]) -> Octet {
        let mut lanes = [0.0; 8];
        cv.widen(src, &mut lanes);
        lanes
    }
    #[inline(always)]
    fn narrow<C: Convert>(self, cv: C, dst: &mut [u8]) {
        cv.narrow(&self, dst);
    }
}

impl WideGroup for [Octet; 2] {
    const BYTES: usize = 32;
    #[inline(always)]
    fn widen<C: Convert>(cv: C, src: &[u8]) -> [Octet; 2] {
        let mut pairs = [0; 32];
        pairs[..src.len()].copy_from_slice(src);
        cv.widen_pairs(&pairs)
    }
    #[inline(always)]
    fn narrow<C: Convert>(self, cv: C, dst: &mut [u8]) {
        dst.copy_from_slice(&cv.narrow_pairs(self)[..dst.len()]);
    }
}

/// The element-wise loop over binary16 lanes (`G` is `F16` or `[F16; 2]`,
/// `W` what the lane body sees of a group of them).
struct Zip3Widened<'a, W, F, M, const N: usize> {
    regs: [&'a Reg<N>; 3],
    f: F,
    merge: Option<M>,
    wide: std::marker::PhantomData<W>,
}

impl<G, W, F, M, const N: usize> LaneLoop<G> for Zip3Widened<'_, W, F, M, N>
where
    G: LaneGroup,
    W: WideGroup,
    F: Fn(W, W, W) -> W,
    M: Fn(usize, G, G) -> G,
{
    type Out = Reg<N>;
    const CAPACITY: usize = N;
    #[inline(always)]
    fn run<C: Convert>(self, bytes: usize, cv: C) -> Reg<N> {
        let [z, a, b] = self.regs;
        let mut r = Reg::zeroed();
        for start in (0..bytes).step_by(W::BYTES) {
            let at = start..bytes.min(start + W::BYTES);
            let (z, a, b) = (
                W::widen(cv, &z.bytes[at.clone()]),
                W::widen(cv, &a.bytes[at.clone()]),
                W::widen(cv, &b.bytes[at.clone()]),
            );
            (self.f)(z, a, b).narrow(cv, &mut r.bytes[at]);
        }
        if let Some(merge) = self.merge {
            for i in 0..bytes / G::BYTES {
                let at = i * G::BYTES..(i + 1) * G::BYTES;
                let new = merge(
                    i,
                    G::read_le(&z.bytes[at.clone()]),
                    G::read_le(&r.bytes[at.clone()]),
                );
                new.write_le(&mut r.bytes[at]);
            }
        }
        r
    }
}

/// The ordered fold over binary16 lanes.
struct FoldWidened<'a, F, const N: usize> {
    pg: &'a PReg,
    a: &'a Reg<N>,
    init: Option<F16>,
    f: F,
}

impl<F: Fn(Octet, Octet) -> Octet, const N: usize> LaneLoop<F16> for FoldWidened<'_, F, N> {
    type Out = Option<F16>;
    const CAPACITY: usize = N;
    #[inline(always)]
    fn run<C: Convert>(self, bytes: usize, cv: C) -> Option<F16> {
        let mut acc = self.init;
        for (k, granule) in self.a.bytes[..bytes].chunks_exact(16).enumerate() {
            for (i, x) in Octet::widen(cv, granule).into_iter().enumerate() {
                let e = 8 * k + i;
                if self.pg.elem_active::<F16>(e) {
                    acc = Some(match acc {
                        // The lane as it is stored, not widened and
                        // narrowed: a chain of one lane returns its bits.
                        None => self.a.lane(e),
                        // A chain has one lane: it takes the first of eight.
                        Some(acc) => cv.narrow1((self.f)([cv.widen1(acc); 8], [x; 8])[0]),
                    });
                }
            }
        }
        acc
    }
}

impl ArithLanes<F16> for Widened {
    #[inline(always)]
    fn zip3<const N: usize, C: HostCopy>(
        sz: &SizedCtx<'_, N, C>,
        regs: [&Reg<N>; 3],
        f: impl Fn(Octet, Octet, Octet) -> Octet,
        merge: Option<impl Fn(usize, F16, F16) -> F16>,
    ) -> Reg<N> {
        let wide = std::marker::PhantomData;
        sz.run::<F16, _>(Zip3Widened {
            regs,
            f,
            merge,
            wide,
        })
    }

    #[inline(always)]
    fn zip3_pairs<const N: usize, C: HostCopy>(
        sz: &SizedCtx<'_, N, C>,
        regs: [&Reg<N>; 3],
        f: impl Fn([Octet; 2], [Octet; 2], [Octet; 2]) -> [Octet; 2],
        merge: Option<impl Fn(usize, [F16; 2], [F16; 2]) -> [F16; 2]>,
    ) -> Reg<N> {
        let wide = std::marker::PhantomData;
        sz.run::<[F16; 2], _>(Zip3Widened {
            regs,
            f,
            merge,
            wide,
        })
    }

    #[inline(always)]
    fn fold<const N: usize, C: HostCopy>(
        sz: &SizedCtx<'_, N, C>,
        pg: &PReg,
        a: &Reg<N>,
        init: Option<F16>,
        f: impl Fn(Octet, Octet) -> Octet,
    ) -> Option<F16> {
        sz.run(FoldWidened { pg, a, init, f })
    }
}

impl<const N: usize> std::fmt::Debug for Reg<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Print the leading 64-bit lanes of the storage; contexts know
        // their own VL.
        write!(f, "Reg<{N}>[")?;
        for i in 0..(N / 8).min(4) {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{:#018x}", self.lane::<u64>(i))?;
        }
        write!(f, ", ...]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::f16::F16;

    #[test]
    fn zeroed_is_all_zero_under_every_view() {
        let r = VReg::zeroed();
        for i in 0..32 {
            assert_eq!(r.lane::<f64>(i), 0.0);
        }
        for i in 0..64 {
            assert_eq!(r.lane::<f32>(i), 0.0);
            assert_eq!(r.lane::<i32>(i), 0);
        }
        for i in 0..128 {
            assert_eq!(r.lane::<F16>(i).to_bits(), 0);
        }
    }

    #[test]
    fn lane_views_alias_the_same_bytes() {
        let mut r = VReg::zeroed();
        r.set_lane::<u64>(0, 0x3ff0_0000_0000_0000); // bits of 1.0f64
        assert_eq!(r.lane::<f64>(0), 1.0);
        r.set_lane::<f32>(2, 2.0);
        assert_eq!(r.lane::<u64>(1) & 0xffff_ffff, 2.0f32.to_bits() as u64);
    }

    #[test]
    fn from_fn_respects_vector_length() {
        let vl = VectorLength::of(256); // 4 x f64
        let r = VReg::from_fn::<f64>(vl, |i| i as f64);
        assert_eq!(r.to_vec::<f64>(vl), vec![0.0, 1.0, 2.0, 3.0]);
        // Storage beyond VL stays zero.
        assert_eq!(r.lane::<f64>(4), 0.0);
        assert_eq!(r.lane::<f64>(31), 0.0);
    }

    #[test]
    fn lanes_eq_ignores_inactive_storage() {
        let vl = VectorLength::of(128);
        let mut a = VReg::from_fn::<f64>(vl, |i| i as f64 + 1.0);
        let b = a;
        a.set_lane::<f64>(5, 99.0); // beyond VL128's 2 lanes
        assert!(a.lanes_eq::<f64>(&b, vl));
        assert!(!a.lanes_eq::<f64>(&b, VectorLength::of(512)));
    }
}
