//! The vector register file model.
//!
//! A `z` register is an untyped container of `VL` bits; instructions impose
//! the element view. [`VReg`] therefore stores raw bytes sized for the
//! architectural maximum (2048 bits) — a context's [`VectorLength`]
//! determines how many of them an operation touches.

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

/// One SVE vector register (`z0`..`z31`): 2048 bits of untyped storage,
/// interpreted per-instruction through [`SveElem`] lane views.
#[derive(Clone, Copy)]
#[repr(align(64))]
pub struct VReg {
    bytes: [u8; VL_MAX_BYTES],
}

impl Default for VReg {
    fn default() -> Self {
        Self::zeroed()
    }
}

impl VReg {
    /// An all-zero register (`mov z0.d, #0` writes this).
    pub const fn zeroed() -> Self {
        VReg {
            bytes: [0; VL_MAX_BYTES],
        }
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
    pub fn bytes(&self) -> &[u8; VL_MAX_BYTES] {
        &self.bytes
    }

    /// Mutable raw bytes.
    pub fn bytes_mut(&mut self) -> &mut [u8; VL_MAX_BYTES] {
        &mut self.bytes
    }

    /// The lanes (or lane pairs) inside vector length `vl`, in lane order.
    #[inline]
    pub(crate) fn lanes<G: LaneGroup>(
        &self,
        vl: VectorLength,
    ) -> impl ExactSizeIterator<Item = G> + '_ {
        self.bytes[..vl.bytes()]
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
        let mut r = VReg::zeroed();
        for (dst, v) in r.bytes[..vl.bytes()].chunks_exact_mut(G::BYTES).zip(items) {
            v.write_le(dst);
        }
        r
    }

    /// The generating lane loop: lane (or lane pair) `i` of the result is
    /// `f(i)` for every lane inside `vl`; storage above `vl` stays zero.
    #[inline]
    pub(crate) fn from_index<G: LaneGroup>(vl: VectorLength, f: impl FnMut(usize) -> G) -> Self {
        unrolled(vl, FromIndex(f))
    }

    /// The element-wise lane loop: lane (or lane pair) `i` of the result is
    /// `f(i, self[i], a[i], b[i])` for every lane inside `vl`; storage above
    /// `vl` stays zero. Instructions with fewer operands pass one twice.
    #[inline]
    pub(crate) fn zip3<G: LaneGroup>(
        &self,
        a: &VReg,
        b: &VReg,
        lw: Lowering,
        f: impl Fn(usize, G, G, G) -> G,
    ) -> VReg {
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
    pub fn lanes_eq<E: SveElem>(&self, other: &VReg, vl: VectorLength) -> bool {
        self.lanes::<E>(vl).eq(other.lanes::<E>(vl))
    }
}

struct FromIndex<F>(F);

impl<G: LaneGroup, F: FnMut(usize) -> G> LaneLoop<G> for FromIndex<F> {
    type Out = VReg;
    #[inline(always)]
    fn run(mut self, bytes: usize) -> VReg {
        let mut r = VReg::zeroed();
        for (i, dst) in r.bytes[..bytes].chunks_exact_mut(G::BYTES).enumerate() {
            (self.0)(i).write_le(dst);
        }
        r
    }
}

struct Zip3<'a, F> {
    z: &'a VReg,
    a: &'a VReg,
    b: &'a VReg,
    f: F,
}

impl<G: LaneGroup, F: Fn(usize, G, G, G) -> G> LaneLoop<G> for Zip3<'_, F> {
    type Out = VReg;
    #[inline(always)]
    fn run(self, bytes: usize) -> VReg {
        let mut r = VReg::zeroed();
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

impl std::fmt::Debug for VReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Print as 64-bit lanes of the architectural maximum; contexts know
        // their own VL.
        write!(f, "VReg[")?;
        for i in 0..4 {
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
