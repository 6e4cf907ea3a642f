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
//! * for the loops that do arithmetic, per codegen context
//!   ([`Lowering::run`]) — baseline, and on x86-64 a copy compiled with
//!   AVX2, FMA and F16C enabled, where `mul_add` is one instruction instead
//!   of a call into libm, adjacent lanes share a `ymm` register, and eight
//!   binary16 lanes become eight binary32 lanes in one `vcvtph2ps`.
//!
//! A copy of the loops also brings the binary16 ↔ binary32 conversion that
//! goes with its instruction set, as a [`Convert`] every loop is handed:
//! arithmetic on binary16 lanes widens a register's lanes with it once per
//! instruction and narrows once (`vreg.rs`). On x86-64 the baseline copy is
//! the one hardly any host runs, and keeps its loops with a runtime count
//! ([`Convert::STRAIGHT_LINE`]).
//!
//! The two conversions in `f16.rs` return the same bits for every input
//! (tested exhaustively), so — as for the rest — which copy runs is not
//! observable except on a clock. Both copies execute the same sequence of
//! IEEE-754 correctly rounded operations per lane (`add`, `sub`, `mul`,
//! `fma`, `sqrt`, conversions); Rust neither contracts nor reassociates
//! floating-point arithmetic, so the results are bit-identical on every
//! host. Other architectures compile only the baseline copy (on AArch64
//! `mul_add` already is an instruction).

use crate::elem::Octet;
use crate::f16;
use crate::vl::{VectorLength, VL_MIN_BITS};
use crate::vreg::{prefix_len, LaneGroup};

/// The binary16 ↔ binary32 conversion of one compiled copy of the lane
/// loops, over little-endian binary16 bytes as they sit in a register:
/// widening is exact, narrowing rounds to nearest even (`f16.rs` has the
/// definition both copies meet). A copy supplies the conversion of eight
/// lanes — a 128-bit granule of a register, an [`Octet`] of `f32`s — and the
/// rest is made of that.
pub(crate) trait Convert: Copy {
    /// Whether the loops [`Lowering::run`] compiles in this copy are
    /// unrolled per vector length. Not so for the baseline copy on x86-64,
    /// which only a CPU without AVX2 — older than 2013 — ever runs: there
    /// it keeps its loops with a runtime count, which spares a report
    /// binary a tenth of its text, code that nothing executed. Elsewhere
    /// the baseline copy is the only one, and straight-line.
    const STRAIGHT_LINE: bool;
    /// Eight binary16 bit patterns, widened.
    fn widen8(self, src: [u16; 8]) -> Octet;
    /// Eight lanes, rounded to binary16 bit patterns.
    fn narrow8(self, src: Octet) -> [u16; 8];

    /// The real and the imaginary parts of the eight (re, im) pairs of
    /// adjacent binary16 lanes in `src`, widened. The pairs are taken apart
    /// as integers — a pair is a 32-bit word — where that is two shuffles;
    /// on `f32`s it is eight.
    #[inline(always)]
    fn widen_pairs(self, src: &[u8; 32]) -> [Octet; 2] {
        let pairs: [u32; 8] = std::array::from_fn(|i| {
            u32::from_le_bytes(src[4 * i..4 * i + 4].try_into().expect("4 bytes"))
        });
        let (re, im) = (pairs.map(|p| p as u16), pairs.map(|p| (p >> 16) as u16));
        [self.widen8(re), self.widen8(im)]
    }

    /// The inverse of [`Convert::widen_pairs`], rounding.
    #[inline(always)]
    fn narrow_pairs(self, [re, im]: [Octet; 2]) -> [u8; 32] {
        let (re, im) = (self.narrow8(re), self.narrow8(im));
        let mut dst = [0; 32];
        for (i, pair) in dst.chunks_exact_mut(4).enumerate() {
            pair.copy_from_slice(&(u32::from(re[i]) | u32::from(im[i]) << 16).to_le_bytes());
        }
        dst
    }

    /// A stream widened: `dst[i]` is the value of the `i`-th little-endian
    /// binary16 of `src`. A tail shorter than eight lanes is converted in a
    /// padded block.
    #[inline(always)]
    fn widen(self, src: &[u8], dst: &mut [f32]) {
        let halves = |s: &[u8]| {
            let mut h = [0; 8];
            for (h, s) in h.iter_mut().zip(s.chunks_exact(2)) {
                *h = u16::from_le_bytes([s[0], s[1]]);
            }
            h
        };
        let mut wide = dst.chunks_exact_mut(8);
        let mut half = src.chunks_exact(16);
        for (d, s) in (&mut wide).zip(&mut half) {
            d.copy_from_slice(&self.widen8(halves(s)));
        }
        let d = wide.into_remainder();
        d.copy_from_slice(&self.widen8(halves(half.remainder()))[..d.len()]);
    }

    /// A stream narrowed: the `i`-th little-endian binary16 of `dst` is
    /// `src[i]`, rounded.
    #[inline(always)]
    fn narrow(self, src: &[f32], dst: &mut [u8]) {
        let put = |h: [u16; 8], d: &mut [u8]| {
            for (d, h) in d.chunks_exact_mut(2).zip(h) {
                d.copy_from_slice(&h.to_le_bytes());
            }
        };
        let mut half = dst.chunks_exact_mut(16);
        let mut wide = src.chunks_exact(8);
        for (d, s) in (&mut half).zip(&mut wide) {
            put(self.narrow8(s.try_into().expect("eight lanes")), d);
        }
        let s = wide.remainder();
        let mut padded = [0.0; 8];
        padded[..s.len()].copy_from_slice(s);
        put(self.narrow8(padded), half.into_remainder());
    }

    /// One lane widened.
    #[inline(always)]
    fn widen1(self, h: f16::F16) -> f32 {
        self.widen8([h.0, 0, 0, 0, 0, 0, 0, 0])[0]
    }

    /// One lane narrowed: the rounding step of an instruction that rounds
    /// after every operation of a chain (the ordered folds).
    #[inline(always)]
    fn narrow1(self, x: f32) -> f16::F16 {
        f16::F16(self.narrow8([x, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])[0])
    }
}

/// The conversion of the baseline copy.
#[derive(Clone, Copy)]
pub(crate) struct Portable;

impl Convert for Portable {
    const STRAIGHT_LINE: bool = cfg!(not(target_arch = "x86_64"));
    #[inline(always)]
    fn widen8(self, src: [u16; 8]) -> Octet {
        f16::widen8_portable(src)
    }
    #[inline(always)]
    fn narrow8(self, src: Octet) -> [u16; 8] {
        f16::narrow8_portable(src)
    }
}

/// A conversion given as two closures: how [`wide_copy`] hands the F16C
/// functions to a body. (A closure inherits the target features of the
/// function it is written in, which is what makes calling them safe; a
/// trait method cannot carry the attribute.)
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Via<W, N>(W, N);

#[cfg(target_arch = "x86_64")]
impl<W, N> Convert for Via<W, N>
where
    W: Fn([u16; 8]) -> Octet + Copy,
    N: Fn(Octet) -> [u16; 8] + Copy,
{
    const STRAIGHT_LINE: bool = true;
    #[inline(always)]
    fn widen8(self, src: [u16; 8]) -> Octet {
        (self.0)(src)
    }
    #[inline(always)]
    fn narrow8(self, src: Octet) -> [u16; 8] {
        (self.1)(src)
    }
}

/// Work that is compiled once per copy: given the copy's conversion, do it.
pub(crate) trait HostBody {
    /// What the work produces.
    type Out;
    /// Implementations are `#[inline(always)]`, to be compiled in the
    /// codegen context of the caller.
    fn run<C: Convert>(self, cv: C) -> Self::Out;
}

/// A loop over the lanes (or lane pairs) `G` of vector registers.
pub(crate) trait LaneLoop<G: LaneGroup> {
    /// What the loop produces.
    type Out;
    /// Bytes of storage in the registers the loop walks.
    const CAPACITY: usize;
    /// Run over the first `bytes` bytes of the registers; a loop that does
    /// arithmetic on binary16 lanes converts them with `cv`, the conversion
    /// of the copy it is compiled in. Implementations are
    /// `#[inline(always)]`: the body is meant to be compiled once per call
    /// in [`unrolled`], with `bytes` a constant.
    fn run<C: Convert>(self, bytes: usize, cv: C) -> Self::Out;
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
        self.enter(Unrolled::<G, L>(self.vl, body, std::marker::PhantomData))
    }

    /// Run `body` in the copy compiled for this host.
    #[inline(always)]
    fn enter<B: HostBody>(self, body: B) -> B::Out {
        #[cfg(target_arch = "x86_64")]
        if self.wide {
            // SAFETY: `wide` is private to this module and written only by
            // `for_host`, from `wide_detected()`: this CPU executes AVX2,
            // FMA and F16C instructions, which is all `wide_copy` — and the
            // F16C conversions it hands to `body` — require.
            #[allow(unsafe_code)]
            return unsafe { wide_copy(body) };
        }
        body.run(Portable)
    }
}

/// `body` in the copy compiled for AVX2 + FMA + F16C.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,f16c")]
fn wide_copy<B: HostBody>(body: B) -> B::Out {
    body.run(Via(
        |src: [u16; 8]| f16::widen8_f16c(src),
        |src: Octet| f16::narrow8_f16c(src),
    ))
}

/// A lane loop as the work of a copy: [`unrolled`], where the copy is the
/// one a host is expected to run.
struct Unrolled<G, L>(VectorLength, L, std::marker::PhantomData<G>);

impl<G: LaneGroup, L: LaneLoop<G>> HostBody for Unrolled<G, L> {
    type Out = L::Out;
    #[inline(always)]
    fn run<C: Convert>(self, cv: C) -> L::Out {
        if C::STRAIGHT_LINE {
            unrolled(self.0, self.1, cv)
        } else {
            self.1.run(prefix_len(L::CAPACITY, self.0), cv)
        }
    }
}

/// Run `body` over the `vl` prefix of its registers, inlined into the
/// caller: one instance per swept vector length the registers can hold, each
/// with a constant byte count, and the runtime count for every other length.
/// A vector longer than the registers panics.
#[inline(always)]
pub(crate) fn unrolled<G: LaneGroup, L: LaneLoop<G>, C: Convert>(
    vl: VectorLength,
    body: L,
    cv: C,
) -> L::Out {
    match prefix_len(L::CAPACITY, vl) {
        16 => body.run(16, cv),
        32 => body.run(32, cv),
        64 => body.run(64, cv),
        128 => body.run(128, cv),
        256 => body.run(256, cv),
        n => body.run(n, cv),
    }
}

/// Whether this CPU runs the AVX2 + FMA + F16C copy (std caches the `cpuid`
/// result). Every x86-64 CPU with AVX2 has had F16C as well; one that
/// lacked it would run the baseline copy.
#[inline]
fn wide_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
            && std::arch::is_x86_feature_detected!("f16c")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Which compiled copy of the lane loops this process runs:
/// `"avx2+fma+f16c"` on an x86-64 host that has all three, `"portable"`
/// everywhere else. For report headers, so a log says where a wall-clock
/// number came from; results do not depend on it.
pub fn host_lanes() -> &'static str {
    if wide_detected() {
        "avx2+fma+f16c"
    } else {
        "portable"
    }
}

struct WidenSlice<'a>(&'a [u8], &'a mut [f32]);

impl HostBody for WidenSlice<'_> {
    type Out = ();
    #[inline(always)]
    fn run<C: Convert>(self, cv: C) {
        cv.widen(self.0, self.1);
    }
}

struct NarrowSlice<'a>(&'a [f32], &'a mut [u8]);

impl HostBody for NarrowSlice<'_> {
    type Out = ();
    #[inline(always)]
    fn run<C: Convert>(self, cv: C) {
        cv.narrow(self.0, self.1);
    }
}

/// The copy this host runs; the vector length plays no part in converting
/// a stream.
fn stream_lowering() -> Lowering {
    Lowering::for_host(VectorLength::of(VL_MIN_BITS))
}

/// [`f16::F16::widen_slice`].
pub(crate) fn widen_slice(src: &[u8], dst: &mut [f32]) {
    assert_eq!(src.len(), 2 * dst.len(), "two bytes per binary16");
    stream_lowering().enter(WidenSlice(src, dst));
}

/// [`f16::F16::narrow_slice`].
pub(crate) fn narrow_slice(src: &[f32], dst: &mut [u8]) {
    assert_eq!(dst.len(), 2 * src.len(), "two bytes per binary16");
    stream_lowering().enter(NarrowSlice(src, dst));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::SveCtx;
    use crate::elem::{SveElem, SveFloat};
    use crate::f16::F16;
    use crate::pred::PReg;
    use crate::vl::VL_MAX_BYTES;
    use crate::vreg::{Reg, VReg};

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

    /// Binary16 operands of one of three kinds: normal values of moderate
    /// size, subnormals only, or both mixed (anything below 2, so that no
    /// sum of a register overflows). `specials` adds an infinity of either
    /// sign, a quiet and a signalling NaN, in lanes that differ between the
    /// operands 0, 1 and 2: no lane or complex pair sees two NaNs, whose
    /// payload either copy may pick from either.
    fn half_operand(kind: &str, specials: Option<usize>, state: &mut u64) -> VReg {
        let mut next = || {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            (*state >> 24) as u16
        };
        let mut r = VReg::zeroed();
        for i in 0..VL_MAX_BYTES / 2 {
            let bits = next();
            let lane = match kind {
                "normal" => F16::from_f32((bits % 4001) as f32 / 64.0 - 31.0),
                "subnormal" => F16(bits & 0x83ff),
                _ => F16(bits & 0xbfff),
            };
            r.set_lane(i, lane);
        }
        for (k, special) in [0x7c00, 0xfc00, 0x7e2a, 0xfd01].into_iter().enumerate() {
            for pair in
                (0..VL_MAX_BYTES / 4).filter(|p| Some(p % 16) == specials.map(|w| 4 * k + w))
            {
                r.set_lane(2 * pair + k % 2, F16(special));
            }
        }
        r
    }

    /// The predicate shapes of the differential suite, for 16-bit lanes.
    fn half_predicates(vl: VectorLength, state: &mut u64) -> Vec<(&'static str, PReg)> {
        let lanes = vl.lanes16();
        let (mut even, mut odd, mut random, mut bytes) =
            (PReg::none(), PReg::none(), PReg::none(), PReg::none());
        for e in 0..lanes {
            even.set_elem_active::<F16>(e, e % 2 == 0);
            odd.set_elem_active::<F16>(e, e % 2 == 1);
        }
        for b in 0..VL_MAX_BYTES {
            *state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            random.set_byte_bit(b, *state >> 63 == 1);
            bytes.set_byte_bit(b, b < vl.bytes());
        }
        let mut out = vec![
            ("ptrue", PReg::ptrue::<F16>(vl)),
            ("ptrue.b", bytes),
            ("even", even),
            ("odd", odd),
            ("random", random),
        ];
        for n in [0, 1, lanes / 2, lanes - 1] {
            out.push(("whilelt", PReg::whilelt::<F16>(vl, 0, n as u64)));
        }
        out
    }

    /// `got` is `want` in every binary16 lane inside `vl`, but for the sign
    /// of a NaN, and zero above.
    fn same_halves<const N: usize>(what: &str, vl: VectorLength, got: &Reg<N>, want: &VReg) {
        for e in 0..vl.lanes16() {
            let (g, w): (F16, F16) = (got.lane(e), want.lane(e));
            let same_nan = g.is_nan() && w.is_nan() && g.0 | 0x8000 == w.0 | 0x8000;
            assert!(
                g == w || same_nan,
                "{what}, lane {e}: {:#06x} for {:#06x}",
                g.0,
                w.0
            );
        }
        assert!(
            got.bytes()[vl.bytes()..].iter().all(|&b| b == 0),
            "{what} wrote above VL"
        );
    }

    /// Every arithmetic intrinsic on binary16 lanes held in `N`-byte
    /// registers (`sized` names the ones with a sized form; the rest run at
    /// the maximum capacity only): the host's copy and the portable copy
    /// both give what the per-lane definition — the scalar [`SveFloat`]
    /// operations of [`F16`] — gives.
    fn half_intrinsics<const N: usize>(vl: VectorLength, kind: &str, state: &mut u64) {
        use crate::intrinsics::*;
        let narrow = |r: &VReg| {
            let mut out = Reg::<N>::zeroed();
            out.bytes_mut().copy_from_slice(&r.bytes()[..N]);
            out
        };
        let [a, b, c] = [0, 1, 2].map(|which| half_operand(kind, Some(which), state));
        // What the ordered folds sum: a chain that met an infinity of each
        // sign and then a NaN would add two NaNs.
        let d = half_operand(kind, None, state);
        let [sa, sb, sc, sd] = [&a, &b, &c, &d].map(narrow);
        let (al, bl, cl, dl) = (
            |e: usize| a.lane::<F16>(e),
            |e: usize| b.lane::<F16>(e),
            |e: usize| c.lane::<F16>(e),
            |e: usize| d.lane::<F16>(e),
        );
        let by_lane = |f: &dyn Fn(usize) -> F16| {
            let mut r = VReg::zeroed();
            (0..vl.lanes16()).for_each(|e| r.set_lane(e, f(e)));
            r
        };
        let lanes = vl.lanes16();
        for (pred, pg) in half_predicates(vl, state) {
            let on = |e: usize| pg.elem_active::<F16>(e);
            for ctx in [SveCtx::new(vl), SveCtx::portable(vl)] {
                let copy = if ctx.lowering() == Lowering::portable(vl) {
                    "portable"
                } else {
                    host_lanes()
                };
                let tag = |what: &str| {
                    format!("{what} on {kind} at {vl:?} in {N} bytes under {pred}, {copy} copy")
                };
                let sz = ctx.sized::<N>();
                let pg = &pg;
                let check = |what: &str, got: Reg<N>, want: &dyn Fn(usize) -> F16| {
                    same_halves(&tag(what), vl, &got, &by_lane(want));
                };
                let acc = |e: usize, new: F16| if on(e) { new } else { cl(e) };
                check("add_x", sz.svadd_x::<F16>(pg, &sa, &sb), &|e| {
                    al(e).add(bl(e))
                });
                check("sub_x", sz.svsub_x::<F16>(pg, &sa, &sb), &|e| {
                    al(e).sub(bl(e))
                });
                check("mul_x", sz.svmul_x::<F16>(pg, &sa, &sb), &|e| {
                    al(e).mul(bl(e))
                });
                check("mla_m", sz.svmla_m::<F16>(pg, &sc, &sa, &sb), &|e| {
                    acc(e, al(e).mul_add(bl(e), cl(e)))
                });
                check("nmls_m", sz.svnmls_m::<F16>(pg, &sc, &sa, &sb), &|e| {
                    acc(e, al(e).mul_add(bl(e), cl(e).neg()))
                });
                for rot in [Rot::R0, Rot::R90, Rot::R180, Rot::R270] {
                    check("cmla", sz.svcmla::<F16>(pg, &sc, &sa, &sb, rot), &|e| {
                        let (xr, xi, yr, yi) = (al(e & !1), al(e | 1), bl(e & !1), bl(e | 1));
                        acc(
                            e,
                            match (rot, e % 2) {
                                (Rot::R0, 0) => xr.mul_add(yr, cl(e)),
                                (Rot::R0, _) => xr.mul_add(yi, cl(e)),
                                (Rot::R90, 0) => xi.neg().mul_add(yi, cl(e)),
                                (Rot::R90, _) => xi.mul_add(yr, cl(e)),
                                (Rot::R180, 0) => xr.neg().mul_add(yr, cl(e)),
                                (Rot::R180, _) => xr.neg().mul_add(yi, cl(e)),
                                (Rot::R270, 0) => xi.mul_add(yi, cl(e)),
                                (Rot::R270, _) => xi.neg().mul_add(yr, cl(e)),
                            },
                        )
                    });
                }
                for rot in [Rot::R90, Rot::R270] {
                    check("cadd", sz.svcadd::<F16>(pg, &sa, &sb, rot), &|e| {
                        let new = match (rot, e % 2) {
                            (Rot::R90, 0) | (Rot::R270, 1) => al(e).sub(bl(e ^ 1)),
                            _ => al(e).add(bl(e ^ 1)),
                        };
                        if on(e) {
                            new
                        } else {
                            al(e)
                        }
                    });
                }
                let active = || (0..lanes).filter(|&e| on(e));
                let scalar = |x: F16| {
                    let mut r = Reg::<N>::zeroed();
                    r.set_lane(0, x);
                    r
                };
                let sum = |init: F16| active().fold(init, |s, e| s.add(dl(e)));
                let one = VectorLength::of(128);
                same_halves(
                    &tag("addv"),
                    one,
                    &scalar(sz.svaddv::<F16>(pg, &sd)),
                    &scalar_reg(pairwise(lanes, &|e| if on(e) { dl(e) } else { F16::ZERO })),
                );
                if N < VL_MAX_BYTES {
                    continue;
                }
                // The forms that exist at the maximum capacity only.
                let ctx = &ctx;
                let check = |what: &str, got: VReg, want: &dyn Fn(usize) -> F16| {
                    same_halves(&tag(what), vl, &got, &by_lane(want));
                };
                let merge = |e: usize, new: F16| if on(e) { new } else { al(e) };
                check("max_x", svmax_x::<F16>(ctx, pg, &a, &b), &|e| {
                    al(e).max(bl(e))
                });
                check("min_x", svmin_x::<F16>(ctx, pg, &a, &b), &|e| {
                    al(e).min(bl(e))
                });
                check("sqrt_x", svsqrt_x::<F16>(ctx, pg, &a), &|e| al(e).sqrt());
                check("add_m", svadd_m::<F16>(ctx, pg, &a, &b), &|e| {
                    merge(e, al(e).add(bl(e)))
                });
                check("mul_z", svmul_z::<F16>(ctx, pg, &a, &b), &|e| {
                    if on(e) {
                        al(e).mul(bl(e))
                    } else {
                        F16::ZERO
                    }
                });
                check("mls_m", svmls_m::<F16>(ctx, pg, &c, &a, &b), &|e| {
                    acc(e, al(e).neg().mul_add(bl(e), cl(e)))
                });
                same_halves(
                    &tag("adda"),
                    one,
                    &scalar_reg(svadda::<F16>(ctx, pg, cl(1), &d)),
                    &scalar_reg(sum(cl(1))),
                );
                let max = active()
                    .map(al)
                    .reduce(|m, v| m.max(v))
                    .unwrap_or(F16::ZERO);
                same_halves(
                    &tag("maxv"),
                    one,
                    &scalar_reg(svmaxv::<F16>(ctx, pg, &a)),
                    &scalar_reg(max),
                );
            }
        }
    }

    fn scalar_reg(x: F16) -> VReg {
        let mut r = VReg::zeroed();
        r.set_lane(0, x);
        r
    }

    /// `FADDV` as the architecture writes it: `lanes` padded with `+0.0` to
    /// a power of two, then the lower half's sum plus the upper half's.
    fn pairwise(lanes: usize, lane: &dyn Fn(usize) -> F16) -> F16 {
        fn half(lo: usize, n: usize, lanes: usize, lane: &dyn Fn(usize) -> F16) -> F16 {
            match n {
                1 if lo < lanes => lane(lo),
                1 => F16::ZERO,
                _ => half(lo, n / 2, lanes, lane).add(half(lo + n / 2, n / 2, lanes, lane)),
            }
        }
        half(0, lanes.next_power_of_two(), lanes, lane)
    }

    #[test]
    fn binary16_arithmetic_agrees_in_both_copies_with_its_per_lane_definition() {
        let mut state = 0x2545_f491_4f6c_dd1d;
        for vl in VectorLength::sweep() {
            for kind in ["normal", "subnormal", "mixed"] {
                if vl.bytes() <= 64 {
                    half_intrinsics::<64>(vl, kind, &mut state);
                }
                half_intrinsics::<VL_MAX_BYTES>(vl, kind, &mut state);
            }
        }
    }

    /// The `fcvt` between binary16 and binary32 in 32-bit containers: both
    /// copies against the scalar conversions, inactive containers zeroed.
    #[test]
    fn binary16_container_conversions_agree_in_both_copies() {
        use crate::intrinsics::{svcvt_f16_f32, svcvt_f32_f16};
        let mut state = 0x1234_5678_9abc_def1;
        for vl in VectorLength::sweep() {
            for kind in ["normal", "subnormal", "mixed"] {
                let half = half_operand(kind, Some(0), &mut state);
                // Binary32 operands around the binary16 ones: the halves,
                // widened and nudged by a binary32 ulp either way.
                let single = VReg::from_fn::<f32>(vl, |i| {
                    let x = half.lane::<F16>(i).to_f32();
                    f32::from_bits(x.to_bits().wrapping_add(i as u32 % 3).wrapping_sub(1))
                });
                let mut pg = PReg::ptrue::<f32>(vl);
                for partial in [false, true] {
                    if partial {
                        pg = PReg::whilelt::<f32>(vl, 0, vl.lanes32() as u64 - 1);
                        pg.set_elem_active::<f32>(0, false);
                    }
                    let on = |e: usize| pg.elem_active::<f32>(e);
                    let (mut narrow, mut widen) = (VReg::zeroed(), VReg::zeroed());
                    for e in (0..vl.lanes32()).filter(|&e| on(e)) {
                        narrow.set_lane(2 * e, F16::from_f32(single.lane(e)));
                        widen.set_lane(e, half.lane::<F16>(2 * e).to_f32());
                    }
                    for ctx in [SveCtx::new(vl), SveCtx::portable(vl)] {
                        let what = format!("on {kind} at {vl:?}, partial {partial}");
                        let got = svcvt_f16_f32(&ctx, &pg, &single);
                        same_halves(&format!("cvt_f16_f32 {what}"), vl, &got, &narrow);
                        let got = svcvt_f32_f16(&ctx, &pg, &half);
                        assert_eq!(got.bytes()[..], widen.bytes()[..], "cvt_f32_f16 {what}");
                    }
                }
            }
        }
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
            && std::arch::is_x86_feature_detected!("fma")
            && std::arch::is_x86_feature_detected!("f16c");
        #[cfg(not(target_arch = "x86_64"))]
        let wide = false;
        let vl = VectorLength::of(512);
        assert_eq!(Lowering::for_host(vl) != Lowering::portable(vl), wide);
        let name = if wide { "avx2+fma+f16c" } else { "portable" };
        assert_eq!(host_lanes(), name);
    }
}
