//! How a lane loop is lowered onto the host.
//!
//! The paper's port fixes `SVE_VECTOR_LENGTH` at compile time and its best
//! kernel is a loop-free, fixed-length listing (Sections IV-D, V-A). The
//! model gets the same tier without a second implementation: a lane loop is
//! written once as a [`LaneLoop`] whose `run` is `#[inline(always)]`, and
//! that one body is instantiated
//!
//! * per vector length ([`unrolled`]) — the five lengths of
//!   [`VectorLength::sweep`] each get a compile-time byte count, so the loop
//!   becomes straight-line code; every other length takes the same body
//!   with a runtime count. The registers' capacity is part of the loop's
//!   type ([`LaneLoop::CAPACITY`]): lengths that do not fit a 64-byte
//!   register are dead arms in its instance and compile to nothing;
//! * for the loop that does arithmetic, per codegen context
//!   ([`Lowering::run`]) — baseline, and on x86-64 a copy compiled with AVX2
//!   and FMA enabled, where `mul_add` is one instruction instead of a call
//!   into libm and adjacent lanes share a `ymm` register.
//!
//! Both copies execute the same sequence of IEEE-754 correctly rounded
//! operations per lane (`add`, `sub`, `mul`, `fma`, `sqrt`, conversions);
//! Rust neither contracts nor reassociates floating-point arithmetic, so the
//! results are bit-identical on every host and which copy runs is not
//! observable except on a clock. Other architectures compile only the
//! baseline copy (on AArch64 `mul_add` already is an instruction).

use crate::vl::VectorLength;
use crate::vreg::{prefix_len, LaneGroup};

/// A loop over the lanes (or lane pairs) `G` of vector registers.
pub(crate) trait LaneLoop<G: LaneGroup> {
    /// What the loop produces.
    type Out;
    /// Bytes of storage in the registers the loop walks.
    const CAPACITY: usize;
    /// Run over the first `bytes` bytes of the registers. Implementations
    /// are `#[inline(always)]`: the body is meant to be compiled once per
    /// call in [`unrolled`], with `bytes` a constant.
    fn run(self, bytes: usize) -> Self::Out;
}

/// A vector length together with the compiled copy of the lane loops that
/// runs it on this host.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Lowering {
    vl: VectorLength,
    /// Only ever set from [`wide_detected`]: the `unsafe` call below relies
    /// on it.
    wide: bool,
}

impl Lowering {
    /// The lowering this host runs fastest.
    #[inline]
    pub(crate) fn for_host(vl: VectorLength) -> Self {
        Lowering {
            vl,
            wide: wide_detected(),
        }
    }

    /// The baseline copy, whatever the host offers.
    #[cfg(test)]
    pub(crate) fn portable(vl: VectorLength) -> Self {
        Lowering { vl, wide: false }
    }

    #[inline]
    pub(crate) fn vl(self) -> VectorLength {
        self.vl
    }

    /// Run `body` over the `vl` prefix of its registers, in the copy
    /// compiled for this host.
    #[inline(always)]
    pub(crate) fn run<G: LaneGroup, L: LaneLoop<G>>(self, body: L) -> L::Out {
        #[cfg(target_arch = "x86_64")]
        if G::LOWERED && self.wide {
            // SAFETY: `wide` is private to this module and written only by
            // `for_host`, from `wide_detected()`: this CPU executes AVX2 and
            // FMA instructions, which is all `unrolled_wide` requires.
            #[allow(unsafe_code)]
            return unsafe { unrolled_wide(self.vl, body) };
        }
        unrolled(self.vl, body)
    }
}

/// Run `body` over the `vl` prefix of its registers, inlined into the
/// caller: one instance per swept vector length the registers can hold, each
/// with a constant byte count, and the runtime count for every other length
/// (and for lane types that are not lowered). A vector longer than the
/// registers panics.
#[inline(always)]
pub(crate) fn unrolled<G: LaneGroup, L: LaneLoop<G>>(vl: VectorLength, body: L) -> L::Out {
    let bytes = prefix_len(L::CAPACITY, vl);
    if !G::LOWERED {
        return body.run(bytes);
    }
    match bytes {
        16 => body.run(16),
        32 => body.run(32),
        64 => body.run(64),
        128 => body.run(128),
        256 => body.run(256),
        n => body.run(n),
    }
}

/// [`unrolled`] compiled for AVX2 + FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn unrolled_wide<G: LaneGroup, L: LaneLoop<G>>(vl: VectorLength, body: L) -> L::Out {
    unrolled(vl, body)
}

/// Whether this CPU runs the AVX2 + FMA copy (std caches the `cpuid`
/// result).
#[inline]
fn wide_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Which compiled copy of the lane loops this process runs: `"avx2+fma"` on
/// an x86-64 host that has both, `"portable"` everywhere else. For report
/// headers, so a log says where a wall-clock number came from; results do
/// not depend on it.
pub fn host_lanes() -> &'static str {
    if wide_detected() {
        "avx2+fma"
    } else {
        "portable"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elem::{SveElem, SveFloat};
    use crate::f16::F16;
    use crate::pred::PReg;
    use crate::vl::VL_MAX_BYTES;
    use crate::vreg::VReg;

    /// The five swept lengths, and one the runtime-count body takes.
    const VLS: [usize; 6] = [128, 256, 512, 1024, 2048, 384];

    /// A register with a finite, full-mantissa `E` in every lane of the
    /// architectural maximum, so nothing above a shorter `vl` is zero.
    fn operand<E: SveFloat>(seed: u64) -> VReg {
        let mut state = seed;
        let mut r = VReg::zeroed();
        for i in 0..VL_MAX_BYTES / E::BYTES {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mantissa = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            let exp = ((state >> 3) & 7) as i32 - 4;
            r.set_lane(i, E::from_f64(mantissa * 2f64.powi(exp)));
        }
        r
    }

    /// `got` has the bytes of `want`, something in them, and nothing above
    /// `vl`.
    fn same_bytes(vl: VectorLength, what: &str, got: VReg, want: VReg) {
        assert_eq!(got.bytes()[..], want.bytes()[..], "{what} at {vl:?}");
        assert!(
            got.bytes()[vl.bytes()..].iter().all(|&b| b == 0),
            "{what} at {vl:?} wrote above the vector length"
        );
        assert!(
            got.bytes()[..vl.bytes()].iter().any(|&b| b != 0),
            "{what} at {vl:?} produced nothing"
        );
    }

    /// Both compiled copies of `zip3` agree on `f`.
    fn both_copies<G: LaneGroup>(
        vl: VectorLength,
        what: &str,
        [z, a, b]: [&VReg; 3],
        f: impl Fn(usize, G, G, G) -> G,
    ) {
        let host = z.zip3(a, b, Lowering::for_host(vl), &f);
        let portable = z.zip3(a, b, Lowering::portable(vl), &f);
        same_bytes(vl, what, host, portable);
    }

    /// The unrolled `from_index` agrees with writing the lanes one by one.
    fn from_index_matches<E: SveElem>(vl: VectorLength, what: &str, f: impl Fn(usize) -> E) {
        let mut want = VReg::zeroed();
        for i in 0..vl.lanes_of(E::BYTES) {
            want.set_lane(i, f(i));
        }
        same_bytes(vl, what, VReg::from_index(vl, &f), want);
    }

    /// Both compiled copies of the contiguous load agree with writing the
    /// lanes one by one, for a slice longer than the vector.
    fn from_slice_matches<E: SveFloat>(vl: VectorLength, src: &VReg) {
        let data = src.to_vec::<E>(VectorLength::of(crate::vl::VL_MAX_BITS));
        let mut want = VReg::zeroed();
        for (i, &v) in data[..vl.lanes_of(E::BYTES)].iter().enumerate() {
            want.set_lane(i, v);
        }
        let what = format!("from_slice .{}", E::SUFFIX);
        same_bytes(
            vl,
            &what,
            VReg::from_slice(Lowering::for_host(vl), &data),
            want,
        );
        same_bytes(
            vl,
            &what,
            VReg::from_slice(Lowering::portable(vl), &data),
            want,
        );
    }

    fn float_loops<E: SveFloat>() {
        let (z, a, b) = (operand::<E>(1), operand::<E>(2), operand::<E>(3));
        let real = |z: E, a: E, b: E| a.mul_add(b, z).add(z.sub(b).mul(a).abs().sqrt());
        let fcmla = |[zr, zi]: [E; 2], [_, xi]: [E; 2], [yr, yi]: [E; 2]| {
            [xi.neg().mul_add(yi, zr), xi.mul_add(yr, zi)]
        };
        for vl in VLS.map(VectorLength::of) {
            let lanes = vl.lanes_of(E::BYTES);
            from_slice_matches::<E>(vl, &a);
            let full = PReg::ptrue::<E>(vl);
            let partial = PReg::whilelt::<E>(vl, 0, lanes as u64 - 1);
            for (pg, tag) in [(full, "full"), (partial, "partial")] {
                let keep = |e, old: E, new: E| if pg.elem_active::<E>(e) { new } else { old };
                let regs = [&z, &a, &b];
                both_copies(vl, &format!("{tag} .{}", E::SUFFIX), regs, |i, z, a, b| {
                    keep(i, z, real(z, a, b))
                });
                let what = format!("{tag} pairs .{}", E::SUFFIX);
                both_copies(vl, &what, regs, |p, z: [E; 2], x, y| {
                    let new = fcmla(z, x, y);
                    [keep(2 * p, z[0], new[0]), keep(2 * p + 1, z[1], new[1])]
                });
                from_index_matches(vl, &format!("{tag} from_index .{}", E::SUFFIX), |i| {
                    keep(i, E::zero(), a.lane::<E>(i ^ 1))
                });
            }
        }
    }

    #[test]
    fn both_copies_agree_on_f64_lanes() {
        float_loops::<f64>();
    }

    #[test]
    fn both_copies_agree_on_f32_lanes() {
        float_loops::<f32>();
    }

    #[test]
    fn both_copies_agree_on_f16_lanes() {
        float_loops::<F16>();
    }

    #[test]
    fn both_copies_agree_on_u64_lanes() {
        // The `fcvt` bodies: convert inside 64-bit containers.
        let a = operand::<f64>(4);
        for vl in VLS.map(VectorLength::of) {
            let full = PReg::ptrue::<u64>(vl);
            let partial = PReg::whilelt::<u64>(vl, 0, vl.lanes64() as u64 - 1);
            for (pg, tag) in [(full, "full"), (partial, "partial")] {
                let keep = |e, new: u64| if pg.elem_active::<u64>(e) { new } else { 0 };
                let regs = [&a; 3];
                both_copies(vl, &format!("{tag} narrow .d"), regs, |i, d: u64, _, _| {
                    keep(i, (f64::from_bits(d) as f32).to_bits() as u64)
                });
                both_copies(vl, &format!("{tag} widen .d"), regs, |i, d: u64, _, _| {
                    keep(i, (f32::from_bits(d as u32) as f64).to_bits())
                });
                from_index_matches(vl, &format!("{tag} from_index .d"), |i| {
                    keep(i, 7u64.wrapping_add(3 * i as u64))
                });
            }
        }
    }

    #[test]
    fn the_dispatcher_follows_the_cpu() {
        #[cfg(target_arch = "x86_64")]
        let wide = std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma");
        #[cfg(not(target_arch = "x86_64"))]
        let wide = false;
        let vl = VectorLength::of(512);
        assert_eq!(Lowering::for_host(vl) != Lowering::portable(vl), wide);
        assert_eq!(host_lanes(), if wide { "avx2+fma" } else { "portable" });
    }
}
