//! Predicate register model.
//!
//! SVE predication (paper, Section III-B) is what makes the VLA loop of
//! listing IV-A work without tail code: `whilelo` builds a mask covering the
//! remaining elements, predicated loads/stores touch only active lanes, and
//! `brkns` + `b.mi` decide whether another iteration is needed.
//!
//! Architecturally a predicate register holds one bit per *byte* of the
//! vector register; an element of size 2^n bytes is active iff the first of
//! its 2^n predicate bits is set. This model keeps that byte granularity so
//! that `.b`/`.h`/`.s`/`.d` views stay consistent, exactly as in hardware.

use crate::elem::SveElem;
use crate::vl::{VectorLength, VL_MAX_BYTES};

/// One SVE predicate register (`p0`..`p15`): 256 bits, one per byte of the
/// maximum-width vector register.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct PReg {
    // 256 bits as 4 x u64, bit b of word w governs byte lane w*64 + b.
    words: [u64; 4],
}

/// The NZCV condition flags predicate-generating instructions set
/// (`whilelo`, `brkns`, `ptest`). The paper's loops branch on `b.mi`
/// (N set) and `b.lo` (C clear).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PredFlags {
    /// N — the *first* active element of the result is true.
    pub n: bool,
    /// Z — no active element of the result is true.
    pub z: bool,
    /// C — the *last* active element of the result is **not** true.
    pub c: bool,
    /// V — always false for predicate ops.
    pub v: bool,
}

impl PReg {
    /// All-false predicate.
    pub const fn none() -> Self {
        PReg { words: [0; 4] }
    }

    /// `ptrue` for element size `E` under vector length `vl`: the first
    /// predicate bit of every element inside the vector is set.
    pub fn ptrue<E: SveElem>(vl: VectorLength) -> Self {
        PReg {
            words: elem_bits::<E>(vl.bytes()),
        }
    }

    /// `whilelt`/`whilelo` for element size `E`: element `e` is active iff
    /// `base + e < bound`. This is the loop-control predicate of listings
    /// IV-A/B/C.
    pub fn whilelt<E: SveElem>(vl: VectorLength, base: u64, bound: u64) -> Self {
        let lanes = vl.lanes_of(E::BYTES) as u64;
        let active = bound.saturating_sub(base).min(lanes) as usize;
        PReg {
            words: elem_bits::<E>(active * E::BYTES),
        }
    }

    /// Raw access: is the predicate bit for byte lane `byte` set?
    #[inline]
    pub fn byte_bit(&self, byte: usize) -> bool {
        debug_assert!(byte < VL_MAX_BYTES);
        (self.words[byte / 64] >> (byte % 64)) & 1 != 0
    }

    /// Raw access: set/clear the predicate bit for byte lane `byte`.
    #[inline]
    pub fn set_byte_bit(&mut self, byte: usize, v: bool) {
        debug_assert!(byte < VL_MAX_BYTES);
        let w = byte / 64;
        let b = byte % 64;
        if v {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Is element lane `e` (under view `E`) active? Hardware semantics: the
    /// lowest predicate bit of the element decides.
    #[inline]
    pub fn elem_active<E: SveElem>(&self, e: usize) -> bool {
        self.byte_bit(e * E::BYTES)
    }

    /// Mark element lane `e` active/inactive under view `E`.
    pub fn set_elem_active<E: SveElem>(&mut self, e: usize, v: bool) {
        self.set_byte_bit(e * E::BYTES, v);
    }

    /// The deciding bits of the `E` elements inside `vl`, word by word.
    #[inline]
    fn governed<E: SveElem>(&self, vl: VectorLength) -> [u64; 4] {
        let want = elem_bits::<E>(vl.bytes());
        std::array::from_fn(|w| self.words[w] & want[w])
    }

    /// True if every element within `vl` under view `E` is active — the
    /// test every intrinsic makes once to pick its unpredicated lane loop.
    /// Bits between element starts are ignored, as hardware ignores them, so
    /// a `.b` `ptrue` governing a `.d` operation qualifies.
    #[inline]
    pub fn all_active<E: SveElem>(&self, vl: VectorLength) -> bool {
        let every_elem = every_elem::<E>();
        let (full, rest) = (vl.bytes() / 64, vl.bytes() % 64);
        let tail = every_elem & ((1u64 << rest) - 1);
        self.words[..full]
            .iter()
            .all(|w| w & every_elem == every_elem)
            && (rest == 0 || self.words[full] & tail == tail)
    }

    /// Number of active elements for view `E` within `vl` (`cntp`).
    pub fn active_count<E: SveElem>(&self, vl: VectorLength) -> usize {
        self.governed::<E>(vl)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// True if no element is active within `vl` under view `E`.
    pub fn is_empty<E: SveElem>(&self, vl: VectorLength) -> bool {
        self.governed::<E>(vl) == [0; 4]
    }

    /// True if every element within `vl` under view `E` is active.
    pub fn is_full<E: SveElem>(&self, vl: VectorLength) -> bool {
        self.all_active::<E>(vl)
    }

    /// Bitwise AND of predicates (`and p0.b, ...`).
    pub fn and(&self, other: &PReg) -> PReg {
        let mut out = PReg::none();
        for w in 0..4 {
            out.words[w] = self.words[w] & other.words[w];
        }
        out
    }

    /// Bitwise OR of predicates.
    pub fn or(&self, other: &PReg) -> PReg {
        let mut out = PReg::none();
        for w in 0..4 {
            out.words[w] = self.words[w] | other.words[w];
        }
        out
    }

    /// `not` under a governing predicate: active bits of `g` are inverted,
    /// others cleared.
    pub fn not_z(&self, g: &PReg) -> PReg {
        let mut out = PReg::none();
        for w in 0..4 {
            out.words[w] = !self.words[w] & g.words[w];
        }
        out
    }

    /// Compute the NZCV flags for this predicate as a result, governed by
    /// `g` under view `E` — the flag-setting rule of `whilelo`/`brkns`.
    pub fn flags<E: SveElem>(&self, g: &PReg, vl: VectorLength) -> PredFlags {
        let lanes = vl.lanes_of(E::BYTES);
        let mut first = None;
        let mut last = None;
        let mut any = false;
        for e in 0..lanes {
            if !g.elem_active::<E>(e) {
                continue;
            }
            let v = self.elem_active::<E>(e);
            if first.is_none() {
                first = Some(v);
            }
            last = Some(v);
            any |= v;
        }
        PredFlags {
            n: first.unwrap_or(false),
            z: !any,
            c: !last.unwrap_or(false),
            v: false,
        }
    }

    /// `brkn` — propagate break to next partition. If the *last* active
    /// element of `pn` (under governing `g`, byte view) is true, the result
    /// is `pm`; otherwise all-false. This is the instruction gluing
    /// consecutive `whilelo` predicates in listing IV-A (line 11).
    pub fn brkn(g: &PReg, pn: &PReg, pm: &PReg, vl: VectorLength) -> PReg {
        let mut last = false;
        for byte in 0..vl.bytes() {
            if g.byte_bit(byte) {
                last = pn.byte_bit(byte);
            }
        }
        if last {
            *pm
        } else {
            PReg::none()
        }
    }

    /// Index of the first active element under view `E`, if any.
    pub fn first_active<E: SveElem>(&self, vl: VectorLength) -> Option<usize> {
        (0..vl.lanes_of(E::BYTES)).find(|&e| self.elem_active::<E>(e))
    }
}

/// The first predicate bit of every `E` element that starts inside the
/// first `bytes` bytes of a register.
#[inline]
fn elem_bits<E: SveElem>(bytes: usize) -> [u64; 4] {
    std::array::from_fn(|w| match bytes.saturating_sub(64 * w) {
        0 => 0,
        n if n >= 64 => every_elem::<E>(),
        n => every_elem::<E>() & ((1u64 << n) - 1),
    })
}

/// One bit every `E::BYTES` positions: `u64::MAX / 0xff` = `0x0101..01`, etc.
#[inline]
fn every_elem<E: SveElem>() -> u64 {
    u64::MAX / ((1u64 << E::BYTES) - 1)
}

impl std::fmt::Debug for PReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PReg[")?;
        for byte in 0..32 {
            write!(f, "{}", if self.byte_bit(byte) { '1' } else { '0' })?;
        }
        write!(f, "...]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::f16::F16;

    const VL256: VectorLength = VectorLength::of(256);
    const VL512: VectorLength = VectorLength::of(512);

    #[test]
    fn ptrue_activates_every_element() {
        let p = PReg::ptrue::<f64>(VL512);
        assert!(p.is_full::<f64>(VL512));
        assert_eq!(p.active_count::<f64>(VL512), 8);
        // Only the first byte of each 8-byte element carries the bit.
        assert!(p.byte_bit(0));
        assert!(!p.byte_bit(1));
        assert!(p.byte_bit(8));
    }

    #[test]
    fn ptrue_is_consistent_across_views() {
        // A d-element ptrue activates every 8th byte; viewed as .s elements
        // only even ones are active — hardware behaviour.
        let p = PReg::ptrue::<f64>(VL256);
        assert!(p.elem_active::<f32>(0));
        assert!(!p.elem_active::<f32>(1));
        assert!(p.elem_active::<f32>(2));
    }

    #[test]
    fn whilelt_full_and_partial() {
        // VL256 has 4 d-lanes. 0..10 -> full; 8..10 -> 2 active.
        let full = PReg::whilelt::<f64>(VL256, 0, 10);
        assert!(full.is_full::<f64>(VL256));
        let tail = PReg::whilelt::<f64>(VL256, 8, 10);
        assert_eq!(tail.active_count::<f64>(VL256), 2);
        assert!(tail.elem_active::<f64>(0));
        assert!(tail.elem_active::<f64>(1));
        assert!(!tail.elem_active::<f64>(2));
        let empty = PReg::whilelt::<f64>(VL256, 10, 10);
        assert!(empty.is_empty::<f64>(VL256));
    }

    #[test]
    fn whilelt_flags_drive_the_vla_loop() {
        // b.mi continues while the first element of the fresh predicate is
        // active (N flag).
        let g = PReg::ptrue::<f64>(VL256);
        let more = PReg::whilelt::<f64>(VL256, 4, 10);
        assert!(more.flags::<f64>(&g, VL256).n);
        let done = PReg::whilelt::<f64>(VL256, 12, 10);
        assert!(!done.flags::<f64>(&g, VL256).n);
        assert!(done.flags::<f64>(&g, VL256).z);
    }

    #[test]
    fn flags_c_reports_last_inactive() {
        let g = PReg::ptrue::<f64>(VL256);
        let partial = PReg::whilelt::<f64>(VL256, 0, 2); // 2 of 4 active
        let fl = partial.flags::<f64>(&g, VL256);
        assert!(fl.n);
        assert!(!fl.z);
        assert!(fl.c); // last element inactive
        let full = PReg::whilelt::<f64>(VL256, 0, 8);
        assert!(!full.flags::<f64>(&g, VL256).c);
    }

    #[test]
    fn brkn_keeps_or_kills_next_predicate() {
        let g = PReg::ptrue::<f64>(VL256);
        let full = PReg::whilelt::<f64>(VL256, 0, 8); // last lane active
        let next = PReg::whilelt::<f64>(VL256, 4, 8);
        assert_eq!(PReg::brkn(&g, &full, &next, VL256), next);
        let partial = PReg::whilelt::<f64>(VL256, 0, 2); // last lane inactive
        assert_eq!(PReg::brkn(&g, &partial, &next, VL256), PReg::none());
    }

    #[test]
    fn logical_ops() {
        let a = PReg::whilelt::<f64>(VL512, 0, 6);
        let b = PReg::whilelt::<f64>(VL512, 0, 3);
        assert_eq!(a.and(&b).active_count::<f64>(VL512), 3);
        assert_eq!(a.or(&b).active_count::<f64>(VL512), 6);
        let g = PReg::ptrue::<f64>(VL512);
        assert_eq!(b.not_z(&g).active_count::<f64>(VL512), 5);
    }

    #[test]
    fn first_active_under_various_views() {
        let mut p = PReg::none();
        p.set_elem_active::<F16>(5, true);
        assert_eq!(p.first_active::<F16>(VL512), Some(5));
        assert_eq!(p.first_active::<f64>(VL512), None); // byte 10 is not 8-aligned
    }

    #[test]
    fn elem_views_share_byte_bits() {
        let mut p = PReg::none();
        p.set_elem_active::<f64>(1, true); // byte 8
        assert!(p.elem_active::<f32>(2)); // byte 8 viewed as .s lane 2
        assert!(p.elem_active::<F16>(4)); // byte 8 viewed as .h lane 4
    }
}
