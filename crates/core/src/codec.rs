//! Scalar-stream precision codec — the single fp16/fp32 compression path.
//!
//! Two subsystems move `f64` lattice data through a narrower representation:
//! the halo exchange ("this data type is used only for data compression upon
//! data exchange over the communications network" — paper, Section V-B) and
//! the `qcd-io` checkpoint container, which stores fields at a selectable
//! on-disk precision. Both must round scalars identically, or a
//! configuration written from a compressed halo buffer would not compare
//! bit-for-bit with one re-read from disk. This module is that one shared
//! path: [`HaloMsg`](crate::comms::HaloMsg) and the `qcd-io` record payloads
//! are both thin wrappers over [`encode_f64s`] / [`decode_f64s`].
//!
//! All multi-byte values are little-endian, matching the lane serialization
//! of [`sve::SveElem`] and the `qcd-io/v1` on-disk format.

use crate::complex::Complex;
use sve::F16;

/// Scalars (re/im pairs) in one full 3×3 link: 9 complex entries.
pub const LINK_SCALARS_FULL: usize = 18;
/// Scalars in one two-row compressed link: rows 0 and 1 only.
pub const LINK_SCALARS_TWO_ROW: usize = 12;

/// Storage precision of an encoded scalar stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Precision {
    /// IEEE binary64 — lossless for in-memory `f64` data.
    F64,
    /// IEEE binary32 — ~2^-24 relative rounding per scalar.
    F32,
    /// IEEE binary16 — ~2^-11 relative rounding per scalar; the paper's
    /// wire-compression format (Section V-B).
    F16,
}

impl Precision {
    /// Every supported precision, widest first.
    pub const ALL: [Precision; 3] = [Precision::F64, Precision::F32, Precision::F16];

    /// Encoded bytes per scalar.
    pub const fn bytes_per_scalar(self) -> usize {
        match self {
            Precision::F64 => 8,
            Precision::F32 => 4,
            Precision::F16 => 2,
        }
    }

    /// Stable one-byte tag used on the wire and on disk.
    pub const fn tag(self) -> u8 {
        match self {
            Precision::F64 => 0,
            Precision::F32 => 1,
            Precision::F16 => 2,
        }
    }

    /// Inverse of [`Precision::tag`].
    pub const fn from_tag(tag: u8) -> Option<Precision> {
        match tag {
            0 => Some(Precision::F64),
            1 => Some(Precision::F32),
            2 => Some(Precision::F16),
            _ => None,
        }
    }

    /// Human-readable name (`f64` / `f32` / `f16`).
    pub const fn name(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
            Precision::F16 => "f16",
        }
    }

    /// Worst-case relative rounding error for values in the format's normal
    /// range (half an ulp), 0 for the lossless f64 path.
    pub const fn relative_error_bound(self) -> f64 {
        match self {
            Precision::F64 => 0.0,
            Precision::F32 => 5.97e-8, // 2^-24
            Precision::F16 => 4.89e-4, // 2^-11
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error decoding an encoded scalar stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError {
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.msg)
    }
}

impl std::error::Error for CodecError {}

/// Scalars the binary16 paths hand to [`sve::F16`]'s slice conversions at a
/// time: one stack buffer's worth, so no path allocates a staging `Vec`.
const F16_BLOCK: usize = 256;

/// Narrow `data` to little-endian binary16 (`f64 → f32 → f16`, each step
/// round-to-nearest-even: what [`sve::F16::from_f64`] does to one scalar),
/// a block at a time, handing each block's bytes to `sink`.
fn narrow_f16_blocks(data: &[f64], mut sink: impl FnMut(&[u8])) {
    let (mut single, mut half) = ([0.0f32; F16_BLOCK], [0u8; 2 * F16_BLOCK]);
    for block in data.chunks(F16_BLOCK) {
        let n = block.len();
        for (s, &x) in single.iter_mut().zip(block) {
            *s = x as f32;
        }
        F16::narrow_slice(&single[..n], &mut half[..2 * n]);
        sink(&half[..2 * n]);
    }
}

/// Widen little-endian binary16 into `out` (exact), a block at a time;
/// `fill(i, half)` puts the bytes of the scalars from index `i` on into
/// `half`, which is as long as the block.
fn widen_f16_blocks(out: &mut [f64], fill: impl Fn(usize, &mut [u8])) {
    let (mut single, mut half) = ([0.0f32; F16_BLOCK], [0u8; 2 * F16_BLOCK]);
    for (k, block) in out.chunks_mut(F16_BLOCK).enumerate() {
        let n = block.len();
        fill(k * F16_BLOCK, &mut half[..2 * n]);
        F16::widen_slice(&half[..2 * n], &mut single[..n]);
        for (o, &s) in block.iter_mut().zip(&single) {
            *o = f64::from(s);
        }
    }
}

/// Compress a double-precision buffer to binary16 bit patterns
/// (round-to-nearest-even, via [`sve::F16`]).
pub fn compress_f16(data: &[f64]) -> Vec<u16> {
    let mut out = Vec::with_capacity(data.len());
    compress_f16_into(data, &mut out);
    out
}

/// Expand binary16 bit patterns back to doubles (exact).
pub fn decompress_f16(bits: &[u16]) -> Vec<f64> {
    let mut out = vec![0.0; bits.len()];
    decompress_f16_into(bits, &mut out);
    out
}

/// [`compress_f16`] into a reusable buffer: `out` is cleared and refilled,
/// so a buffer whose capacity already covers `data.len()` is compressed
/// without touching the allocator — the halo-exchange steady state.
pub fn compress_f16_into(data: &[f64], out: &mut Vec<u16>) {
    out.clear();
    narrow_f16_blocks(data, |half| {
        out.extend(
            half.chunks_exact(2)
                .map(|h| u16::from_le_bytes([h[0], h[1]])),
        );
    });
}

/// [`decompress_f16`] into a caller-owned slice (exact, allocation-free).
/// Panics if the lengths differ — wire messages carry a fixed face shape.
pub fn decompress_f16_into(bits: &[u16], out: &mut [f64]) {
    assert_eq!(
        bits.len(),
        out.len(),
        "f16 stream length does not match the output buffer"
    );
    widen_f16_blocks(out, |from, half| {
        for (h, b) in half.chunks_exact_mut(2).zip(&bits[from..]) {
            h.copy_from_slice(&b.to_le_bytes());
        }
    });
}

/// Drop the third row of each 3×3 link in a flat row-major re/im scalar
/// stream (18 scalars per link → 12). For SU(3) links the third row is
/// redundant — it is the conjugate cross product of the first two — so this
/// is the lossless half of the paper-era "two-row" gauge compression: a
/// 1.5× reduction in link bytes on the wire or in memory.
pub fn compress_two_row(data: &[f64]) -> Result<Vec<f64>, CodecError> {
    if !data.len().is_multiple_of(LINK_SCALARS_FULL) {
        return Err(CodecError {
            msg: format!(
                "two-row compression needs whole 3x3 links ({LINK_SCALARS_FULL} scalars); \
                 got {} scalars",
                data.len()
            ),
        });
    }
    let mut out = Vec::with_capacity(data.len() / LINK_SCALARS_FULL * LINK_SCALARS_TWO_ROW);
    for link in data.chunks_exact(LINK_SCALARS_FULL) {
        out.extend_from_slice(&link[..LINK_SCALARS_TWO_ROW]);
    }
    Ok(out)
}

/// Rebuild full 3×3 links from a two-row stream produced by
/// [`compress_two_row`]: the third row is the conjugate cross product of
/// the first two, `row2[c] = conj(row0[a]·row1[b] − row0[b]·row1[a])` with
/// `(a, b)` cycling — exactly the unitary completion `project_su3` uses, so
/// reconstruction of an exactly-unitary link is exact to rounding.
pub fn decompress_two_row(data: &[f64]) -> Result<Vec<f64>, CodecError> {
    if !data.len().is_multiple_of(LINK_SCALARS_TWO_ROW) {
        return Err(CodecError {
            msg: format!(
                "two-row stream needs {LINK_SCALARS_TWO_ROW} scalars per link; got {} scalars",
                data.len()
            ),
        });
    }
    let mut out = Vec::with_capacity(data.len() / LINK_SCALARS_TWO_ROW * LINK_SCALARS_FULL);
    for link in data.chunks_exact(LINK_SCALARS_TWO_ROW) {
        out.extend_from_slice(link);
        let row =
            |r: usize, c: usize| Complex::new(link[(r * 3 + c) * 2], link[(r * 3 + c) * 2 + 1]);
        for c in 0..3 {
            let (a, b) = ((c + 1) % 3, (c + 2) % 3);
            let z = (row(0, a) * row(1, b) - row(0, b) * row(1, a)).conj();
            out.push(z.re);
            out.push(z.im);
        }
    }
    Ok(out)
}

/// Encode a double-precision buffer at `precision`, little-endian.
pub fn encode_f64s(data: &[f64], precision: Precision) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * precision.bytes_per_scalar());
    match precision {
        Precision::F64 => {
            for &x in data {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        Precision::F32 => {
            for &x in data {
                out.extend_from_slice(&(x as f32).to_le_bytes());
            }
        }
        Precision::F16 => narrow_f16_blocks(data, |half| out.extend_from_slice(half)),
    }
    out
}

/// Decode a little-endian scalar stream produced by [`encode_f64s`].
///
/// Fails (typed, no panic) when the byte length is not a whole number of
/// scalars — the shape truncation takes after a record payload is cut.
pub fn decode_f64s(bytes: &[u8], precision: Precision) -> Result<Vec<f64>, CodecError> {
    let w = precision.bytes_per_scalar();
    if !bytes.len().is_multiple_of(w) {
        return Err(CodecError {
            msg: format!(
                "{} byte stream of length {} is not a multiple of {w}",
                precision,
                bytes.len()
            ),
        });
    }
    let out = match precision {
        Precision::F64 => bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect(),
        Precision::F32 => bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")) as f64)
            .collect(),
        Precision::F16 => {
            let mut out = vec![0.0; bytes.len() / 2];
            widen_f16_blocks(&mut out, |from, half| {
                half.copy_from_slice(&bytes[2 * from..2 * from + half.len()]);
            });
            out
        }
    };
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_round_trip() {
        for p in Precision::ALL {
            assert_eq!(Precision::from_tag(p.tag()), Some(p));
        }
        assert_eq!(Precision::from_tag(99), None);
    }

    #[test]
    fn f64_encoding_is_bit_exact() {
        let data = vec![1.0, -2.5, 1e-300, f64::MAX, -0.0, std::f64::consts::PI];
        let enc = encode_f64s(&data, Precision::F64);
        assert_eq!(enc.len(), data.len() * 8);
        let dec = decode_f64s(&enc, Precision::F64).unwrap();
        for (a, b) in data.iter().zip(&dec) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn f32_encoding_rounds_once() {
        let data = vec![0.1, -7.25, 1.0e30];
        let dec = decode_f64s(&encode_f64s(&data, Precision::F32), Precision::F32).unwrap();
        for (a, b) in data.iter().zip(&dec) {
            assert_eq!(*b, (*a as f32) as f64);
        }
    }

    #[test]
    fn f16_encoding_matches_the_f16_type() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 - 50.0) * 0.73).collect();
        let dec = decode_f64s(&encode_f64s(&data, Precision::F16), Precision::F16).unwrap();
        for (a, b) in data.iter().zip(&dec) {
            assert_eq!(*b, F16::from_f64(*a).to_f64());
        }
    }

    #[test]
    fn f16_paths_match_the_scalar_conversion_at_every_length() {
        // Streams that end before, at and after a block of the slice
        // conversions, over values that hit every rounding regime.
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            65519.0,
            65520.0,
            2.0f64.powi(-25),
            -2.0f64.powi(-25) * 1.0001,
            1.0 + 2.0f64.powi(-11),
            6.0e-8,
            1.0e-40,
            1.0e300,
        ];
        let data: Vec<f64> = (0..2 * F16_BLOCK + 5)
            .map(|i| {
                specials
                    .get(i % 29)
                    .copied()
                    .unwrap_or((i as f64 - 300.0) * 1.7e-3)
            })
            .collect();
        for n in [
            0,
            1,
            7,
            8,
            9,
            F16_BLOCK - 1,
            F16_BLOCK,
            F16_BLOCK + 1,
            data.len(),
        ] {
            let data = &data[..n];
            let want: Vec<u16> = data.iter().map(|&x| F16::from_f64(x).to_bits()).collect();
            assert_eq!(compress_f16(data), want, "{n} scalars");
            let mut reused = vec![7; 3];
            compress_f16_into(data, &mut reused);
            assert_eq!(reused, want, "{n} scalars, into");
            let bytes = encode_f64s(data, Precision::F16);
            let le: Vec<u8> = want.iter().flat_map(|b| b.to_le_bytes()).collect();
            assert_eq!(bytes, le, "{n} scalars, bytes");
            let back: Vec<u64> = want
                .iter()
                .map(|&b| F16::from_bits(b).to_f64().to_bits())
                .collect();
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(bits(decompress_f16(&want)), back, "{n} scalars, back");
            assert_eq!(bits(decode_f64s(&bytes, Precision::F16).unwrap()), back);
        }
        // NaNs stay NaNs, with the sign they had.
        let nans = compress_f16(&[f64::NAN, -f64::NAN]);
        assert!(nans.iter().all(|&b| F16::from_bits(b).is_nan()));
        assert_eq!(nans[0] ^ nans[1], 0x8000);
        assert!(decompress_f16(&nans).iter().all(|x| x.is_nan()));
    }

    #[test]
    fn ragged_streams_are_typed_errors() {
        for p in Precision::ALL {
            let bytes = vec![0u8; p.bytes_per_scalar() + 1];
            assert!(decode_f64s(&bytes, p).is_err(), "{p}");
        }
    }

    #[test]
    fn two_row_round_trips_su3_links() {
        use crate::tensor::su3::random_su3;
        let mut flat = Vec::new();
        for stream in 1..9u64 {
            let u = random_su3(31, stream);
            for row in &u {
                for z in row {
                    flat.push(z.re);
                    flat.push(z.im);
                }
            }
        }
        let packed = compress_two_row(&flat).unwrap();
        assert_eq!(packed.len(), flat.len() * 2 / 3);
        let back = decompress_two_row(&packed).unwrap();
        assert_eq!(back.len(), flat.len());
        let worst = flat
            .iter()
            .zip(&back)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(worst <= 1e-13, "round-trip error {worst}");
        // Rows 0 and 1 are carried verbatim.
        for link in 0..8 {
            for s in 0..LINK_SCALARS_TWO_ROW {
                let i = link * LINK_SCALARS_FULL + s;
                assert_eq!(flat[i].to_bits(), back[i].to_bits());
            }
        }
    }

    #[test]
    fn two_row_ragged_streams_are_typed_errors() {
        assert!(compress_two_row(&[0.0; 19]).is_err());
        assert!(decompress_two_row(&[0.0; 13]).is_err());
        assert_eq!(compress_two_row(&[]).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn compress_decompress_agree_with_byte_path() {
        let data = vec![1.5, -0.375, 6.0e4, 1.0e-7];
        let bits = compress_f16(&data);
        let bytes = encode_f64s(&data, Precision::F16);
        for (i, b) in bits.iter().enumerate() {
            assert_eq!(*b, u16::from_le_bytes([bytes[2 * i], bytes[2 * i + 1]]));
        }
        assert_eq!(
            decompress_f16(&bits),
            decode_f64s(&bytes, Precision::F16).unwrap()
        );
    }
}
