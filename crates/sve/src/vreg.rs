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

use crate::elem::SveElem;
use crate::host::{unrolled, LaneLoop, Lowering};
use crate::vl::{VectorLength, VL_MAX_BYTES};

/// What one step of a lane loop reads or writes: a single element, or the
/// (re, im) pair of adjacent lanes that `fcmla`/`fcadd` work on.
pub(crate) trait LaneGroup: Copy + 'static {
    const BYTES: usize;
    /// Whether loops over this group are compiled per vector length and per
    /// host context (see [`SveElem::LOWERED`]).
    const LOWERED: bool;
    fn read_le(src: &[u8]) -> Self;
    fn write_le(self, dst: &mut [u8]);
}

impl<E: SveElem> LaneGroup for E {
    const BYTES: usize = E::BYTES;
    const LOWERED: bool = E::LOWERED;
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
    const LOWERED: bool = E::LOWERED;
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
fn register_too_narrow(capacity: usize, vl: VectorLength) -> ! {
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
    #[inline]
    pub fn lane<E: SveElem>(&self, i: usize) -> E {
        let off = i * E::BYTES;
        E::read_le(&self.bytes[off..off + E::BYTES])
    }

    /// Write lane `i` under the element view `E`.
    #[inline]
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

    /// Build a register from the leading lanes of `src`, which must cover
    /// `vl`: the contiguous all-active load. Storage above `vl` stays zero.
    #[inline]
    pub(crate) fn from_slice<G: LaneGroup>(lw: Lowering, src: &[G]) -> Self {
        lw.run(FromSlice::<_, N>(src))
    }

    /// The generating lane loop: lane (or lane pair) `i` of the result is
    /// `f(i)` for every lane inside `vl`; storage above `vl` stays zero.
    #[inline]
    pub(crate) fn from_index<G: LaneGroup>(vl: VectorLength, f: impl FnMut(usize) -> G) -> Self {
        unrolled(vl, FromIndex::<_, N>(f))
    }

    /// The element-wise lane loop: lane (or lane pair) `i` of the result is
    /// `f(i, self[i], a[i], b[i])` for every lane inside `vl`; storage above
    /// `vl` stays zero. Instructions with fewer operands pass one twice.
    #[inline]
    pub(crate) fn zip3<G: LaneGroup>(
        &self,
        a: &Self,
        b: &Self,
        lw: Lowering,
        f: impl Fn(usize, G, G, G) -> G,
    ) -> Self {
        lw.run(Zip3 { z: self, a, b, f })
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
    fn run(self, bytes: usize) -> Reg<N> {
        let mut r = Reg::zeroed();
        let src = &self.0[..bytes / G::BYTES];
        for (dst, v) in r.bytes[..bytes].chunks_exact_mut(G::BYTES).zip(src) {
            v.write_le(dst);
        }
        r
    }
}

struct FromIndex<F, const N: usize>(F);

impl<G: LaneGroup, F: FnMut(usize) -> G, const N: usize> LaneLoop<G> for FromIndex<F, N> {
    type Out = Reg<N>;
    const CAPACITY: usize = N;
    #[inline(always)]
    fn run(mut self, bytes: usize) -> Reg<N> {
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
    fn run(self, bytes: usize) -> Reg<N> {
        let mut r = Reg::zeroed();
        let dst = r.bytes[..bytes].chunks_exact_mut(G::BYTES);
        let z = self.z.bytes[..bytes].chunks_exact(G::BYTES);
        let a = self.a.bytes[..bytes].chunks_exact(G::BYTES);
        let b = self.b.bytes[..bytes].chunks_exact(G::BYTES);
        for (i, (((dst, z), a), b)) in dst.zip(z).zip(a).zip(b).enumerate() {
            (self.f)(i, G::read_le(z), G::read_le(a), G::read_le(b)).write_le(dst);
        }
        r
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
