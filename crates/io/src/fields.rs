//! Lattice field records: metadata, payload encoding, and validated loads.
//!
//! A field file is a container holding a `meta` record (grid geometry,
//! vector length, storage precision, field kind, and — for gauge fields —
//! the average plaquette at write time) followed by a `field` record with
//! the scalar payload. Scalars are serialized in **global lexicographic
//! site order** via [`Field::peek`]/[`Field::poke`], which makes the format
//! independent of the in-memory virtual-node layout: a configuration
//! written on 512-bit SVE silicon loads bit-for-bit on a 128-bit machine.
//!
//! The payload runs through the shared [`grid::codec`] precision path, so a
//! file stored at binary16 rounds scalars exactly like the halo-exchange
//! wire compression does.

use crate::container::{Container, Record};
use crate::error::{IoError, Result};
use grid::codec::{decode_f64s, encode_f64s, Precision};
use grid::gauge::average_plaquette;
use grid::rng::StreamRng;
use grid::{Complex, Coor, Field, FieldKind, GaugeField, Grid};
use std::path::Path;
use std::sync::Arc;
use sve::SveFloat;

/// Record type of the metadata record in field files.
pub const META_RECORD: &str = "meta";
/// Record type of the scalar payload record in field files.
pub const FIELD_RECORD: &str = "field";
/// Record type of a serialized [`StreamRng`] state.
pub const RNG_RECORD: &str = "rng";

/// Everything needed to validate and decode a field payload.
#[derive(Clone, Debug, PartialEq)]
pub struct FieldMeta {
    /// Global lattice extent per dimension.
    pub dims: Coor,
    /// SVE vector length (bits) of the writing machine — provenance only;
    /// the payload is layout-independent.
    pub vl_bits: u64,
    /// On-disk scalar precision.
    pub precision: Precision,
    /// Field kind name ([`FieldKind::NAME`]).
    pub kind: String,
    /// Complex components per site ([`FieldKind::NCOMP`]).
    pub ncomp: u64,
    /// Average plaquette of the gauge field at write time, for physics
    /// validation on load. `None` for non-gauge fields.
    pub plaquette: Option<f64>,
}

impl FieldMeta {
    /// Metadata describing `f` stored at `precision`.
    pub fn of<K: FieldKind, E: SveFloat>(f: &Field<K, E>, precision: Precision) -> Self {
        FieldMeta {
            dims: f.grid().fdims(),
            vl_bits: f.grid().vl().bits() as u64,
            precision,
            kind: K::NAME.to_string(),
            ncomp: K::NCOMP as u64,
            plaquette: None,
        }
    }

    /// Binary encoding (all little-endian).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        for d in self.dims {
            w.u64(d as u64);
        }
        w.u64(self.vl_bits);
        w.u8(self.precision.tag());
        w.u64(self.ncomp);
        w.u16(self.kind.len() as u16);
        w.bytes(self.kind.as_bytes());
        match self.plaquette {
            Some(p) => {
                w.u8(1);
                w.f64(p);
            }
            None => w.u8(0),
        }
        w.0
    }

    /// Decode from a `meta` record payload; malformed bytes are a typed
    /// [`IoError::BadRecord`] attributed to `record`.
    pub fn decode(bytes: &[u8], record: &str) -> Result<Self> {
        let mut cur = Cursor::new(bytes, record);
        let mut dims = [0usize; 4];
        for d in &mut dims {
            *d = cur.u64("lattice dimension")? as usize;
        }
        let vl_bits = cur.u64("vector length")?;
        let tag = cur.u8("precision tag")?;
        let precision = Precision::from_tag(tag).ok_or_else(|| IoError::BadRecord {
            record: record.to_string(),
            msg: format!("unknown precision tag {tag}"),
        })?;
        let ncomp = cur.u64("component count")?;
        let kind_len = cur.u16("kind length")? as usize;
        let kind_bytes = cur.bytes(kind_len, "kind name")?;
        let kind = String::from_utf8(kind_bytes.to_vec()).map_err(|_| IoError::BadRecord {
            record: record.to_string(),
            msg: "kind name is not UTF-8".to_string(),
        })?;
        let plaquette = match cur.u8("plaquette flag")? {
            0 => None,
            1 => Some(cur.f64("plaquette")?),
            f => {
                return Err(IoError::BadRecord {
                    record: record.to_string(),
                    msg: format!("unknown plaquette flag {f}"),
                })
            }
        };
        cur.done()?;
        Ok(FieldMeta {
            dims,
            vl_bits,
            precision,
            kind,
            ncomp,
            plaquette,
        })
    }

    /// Human-readable geometry string used in mismatch errors.
    pub fn geometry(&self) -> String {
        format!("{:?} (written at VL{})", self.dims, self.vl_bits)
    }
}

/// A bounds-checked little-endian byte cursor over one record's payload:
/// every error is a typed [`IoError::BadRecord`] naming that record, and a
/// forged count is refused before it can size an allocation.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    record: &'a str,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`, the payload of `record`.
    pub fn new(bytes: &'a [u8], record: &'a str) -> Self {
        Cursor {
            bytes,
            pos: 0,
            record,
        }
    }

    /// The typed error of this record: `msg` attributed to it.
    pub fn bad(&self, msg: String) -> IoError {
        IoError::BadRecord {
            record: self.record.to_string(),
            msg,
        }
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if n > self.bytes.len() - self.pos {
            return Err(self.bad(format!("payload too short for {what}")));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One byte.
    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.bytes(1, what)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self, what: &str) -> Result<u16> {
        Ok(u16::from_le_bytes(
            self.bytes(2, what)?.try_into().expect("2 bytes"),
        ))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.bytes(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    /// An `f64` stored as its raw bits.
    pub fn f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// A UTF-8 string behind a `u64` byte length.
    pub fn str(&mut self, what: &str) -> Result<String> {
        let len = self.u64(what)? as usize;
        let bytes = self.bytes(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.bad(format!("{what} is not UTF-8")))
    }

    /// A count of items of at least `min_item_bytes` each still to come.
    /// It is bounded by the bytes left in the payload, so a forged count is
    /// a typed error before it can size an allocation.
    pub fn count(&mut self, what: &str, min_item_bytes: usize) -> Result<usize> {
        let n = self.u64(what)?;
        let left = (self.bytes.len() - self.pos) as u64;
        if n.checked_mul(min_item_bytes as u64)
            .is_none_or(|need| need > left)
        {
            return Err(self.bad(format!(
                "{what} {n} exceeds the {left} payload bytes that follow"
            )));
        }
        Ok(n as usize)
    }

    /// The payload must end here.
    pub fn done(&self) -> Result<()> {
        if self.pos != self.bytes.len() {
            return Err(self.bad(format!(
                "{} trailing bytes after the last field",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// The little-endian writer of the items a [`Cursor`] reads back, in the
/// same order: the one way a record payload is built.
#[derive(Default)]
pub struct Writer(pub Vec<u8>);

impl Writer {
    /// The raw bytes `b`.
    pub fn bytes(&mut self, b: &[u8]) {
        self.0.extend_from_slice(b);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// An `f64` as its raw bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A UTF-8 string behind a `u64` byte length.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Serialize a field's scalars in global lexicographic site order at the
/// requested precision: at every site, its right-hand sides in order, each
/// its `NCOMP` components. The record holds a field of any width; the width
/// is the payload's scalar count over the lattice's.
pub fn encode_field<K: FieldKind, E: SveFloat>(f: &Field<K, E>, precision: Precision) -> Vec<u8> {
    let (grid, comps) = (f.grid(), f.width() * K::NCOMP);
    let mut scalars = Vec::with_capacity(grid.volume() * comps * 2);
    for x in grid.coords() {
        for comp in 0..comps {
            let z = f.peek(&x, comp);
            scalars.push(z.re);
            scalars.push(z.im);
        }
    }
    encode_f64s(&scalars, precision)
}

/// Decode a field payload into a field on `grid`, validating the metadata
/// against the target first. The file's vector length may differ from the
/// grid's — the payload is layout-independent. The field's width is the
/// payload's scalar count over the lattice's, which must be a whole number
/// of at least one.
pub fn decode_field<K: FieldKind, E: SveFloat>(
    meta: &FieldMeta,
    payload: &[u8],
    grid: &Arc<Grid<E>>,
    record: &str,
) -> Result<Field<K, E>> {
    if meta.kind != K::NAME {
        return Err(IoError::KindMismatch {
            want: K::NAME.to_string(),
            found: meta.kind.clone(),
        });
    }
    if meta.ncomp != K::NCOMP as u64 {
        return Err(IoError::BadRecord {
            record: record.to_string(),
            msg: format!(
                "{} components per site, but kind '{}' has {}",
                meta.ncomp,
                K::NAME,
                K::NCOMP
            ),
        });
    }
    if meta.dims != grid.fdims() {
        return Err(IoError::GridMismatch {
            want: format!("{:?}", grid.fdims()),
            found: meta.geometry(),
        });
    }
    // Sized before it is decoded: a wrong precision tag must not widen a
    // payload into four times its bytes first.
    let one = grid.volume() * K::NCOMP * 2;
    let bytes = meta.precision.bytes_per_scalar();
    let scalars = payload.len() / bytes;
    if payload.len().is_multiple_of(bytes) && (scalars == 0 || !scalars.is_multiple_of(one)) {
        return Err(IoError::BadRecord {
            record: record.to_string(),
            msg: format!(
                "{scalars} scalars in payload, not a whole number of lattice fields of {one}"
            ),
        });
    }
    let scalars = decode_f64s(payload, meta.precision)?;
    let mut f = Field::<K, E>::zero_width(grid.clone(), scalars.len() / one);
    let mut i = 0;
    for x in grid.coords() {
        for comp in 0..f.width() * K::NCOMP {
            f.poke(
                &x,
                comp,
                Complex {
                    re: scalars[i],
                    im: scalars[i + 1],
                },
            );
            i += 2;
        }
    }
    Ok(f)
}

/// [`decode_field`] of a field of one right-hand side: a gauge
/// configuration or a chain's links. Any other width is a typed
/// [`IoError::BadRecord`] naming `record`.
pub(crate) fn decode_one<K: FieldKind>(
    meta: &FieldMeta,
    payload: &[u8],
    grid: &Arc<Grid<f64>>,
    record: &str,
) -> Result<Field<K>> {
    let f = decode_field::<K, f64>(meta, payload, grid, record)?;
    match f.width() {
        1 => Ok(f),
        width => Err(IoError::BadRecord {
            record: record.to_string(),
            msg: format!("{width} fields in the payload, gauge links are one"),
        }),
    }
}

/// Build the two records (`meta`, `field`) describing `f`.
pub fn field_records<K: FieldKind, E: SveFloat>(
    f: &Field<K, E>,
    precision: Precision,
) -> (Record, Record) {
    let meta = FieldMeta::of(f, precision);
    (
        Record::new(META_RECORD, meta.encode()),
        Record::new(FIELD_RECORD, encode_field(f, precision)),
    )
}

/// Write a field to `path` atomically at the chosen on-disk precision.
pub fn write_field<K: FieldKind, E: SveFloat>(
    f: &Field<K, E>,
    path: &Path,
    precision: Precision,
) -> Result<u64> {
    let (meta, payload) = field_records(f, precision);
    let mut c = Container::new();
    c.push(meta);
    c.push(payload);
    c.write_atomic(path)
}

/// Read a field written by [`write_field`] into a field on `grid`.
pub fn read_field<K: FieldKind, E: SveFloat>(
    path: &Path,
    grid: &Arc<Grid<E>>,
) -> Result<Field<K, E>> {
    let c = Container::open(path)?;
    let meta = FieldMeta::decode(&c.expect(META_RECORD)?.payload, META_RECORD)?;
    decode_field(&meta, &c.expect(FIELD_RECORD)?.payload, grid, FIELD_RECORD)
}

/// Plaquette agreement tolerance for a storage precision: lossless for
/// f64 up to peek/poke rounding, then scaled to the per-scalar rounding
/// error amplified by the plaquette's products of link matrices.
pub fn plaquette_tolerance(precision: Precision) -> f64 {
    match precision {
        Precision::F64 => 1e-11,
        Precision::F32 => 1e-5,
        Precision::F16 => 0.03,
    }
}

/// Write a gauge configuration with its average plaquette in the metadata,
/// enabling physics-level validation on load.
pub fn write_gauge(u: &GaugeField, path: &Path, precision: Precision) -> Result<u64> {
    let mut meta = FieldMeta::of(u, precision);
    meta.plaquette = Some(average_plaquette(u));
    let mut c = Container::new();
    c.push(Record::new(META_RECORD, meta.encode()));
    c.push(Record::new(FIELD_RECORD, encode_field(u, precision)));
    c.write_atomic(path)
}

/// Read a gauge configuration and validate its plaquette against the value
/// stored at write time (under an `io.validate` span). Detects corruption
/// that slips past the CRC layer — e.g. a file assembled from records of
/// two different configurations.
pub fn read_gauge(path: &Path, grid: &Arc<Grid<f64>>) -> Result<GaugeField> {
    // `Container::open` records its own failures; this wrapper catches the
    // post-open classes (missing records, decode failures, physics
    // validation) without double-recording transport errors.
    let c = Container::open(path)?;
    read_gauge_inner(&c, grid).inspect_err(crate::record_io_error)
}

fn read_gauge_inner(c: &Container, grid: &Arc<Grid<f64>>) -> Result<GaugeField> {
    let meta = FieldMeta::decode(&c.expect(META_RECORD)?.payload, META_RECORD)?;
    let u = decode_one(&meta, &c.expect(FIELD_RECORD)?.payload, grid, FIELD_RECORD)?;
    if let Some(stored) = meta.plaquette {
        let _span = qcd_trace::span!("io.validate", grid.engine().ctx());
        let computed = average_plaquette(&u);
        let tolerance = plaquette_tolerance(meta.precision);
        if (computed - stored).abs() > tolerance {
            return Err(IoError::PlaquetteMismatch {
                stored,
                computed,
                tolerance,
            });
        }
    }
    Ok(u)
}

/// Serialize a [`StreamRng`] state into a record (seed, then draw counter).
pub fn rng_record(rng: &StreamRng) -> Record {
    let (seed, counter) = rng.state();
    let mut w = Writer::default();
    w.u64(seed);
    w.u64(counter);
    Record::new(RNG_RECORD, w.0)
}

/// Restore a [`StreamRng`] from its record.
pub fn rng_from_record(record: &Record) -> Result<StreamRng> {
    let mut cur = Cursor::new(&record.payload, RNG_RECORD);
    let seed = cur.u64("seed")?;
    let counter = cur.u64("draw counter")?;
    cur.done()?;
    Ok(StreamRng::from_state(seed, counter))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_round_trips() {
        for plaquette in [None, Some(0.587_432_109_876)] {
            let meta = FieldMeta {
                dims: [4, 4, 8, 16],
                vl_bits: 512,
                precision: Precision::F16,
                kind: "SU(3) gauge links".to_string(),
                ncomp: 36,
                plaquette,
            };
            let back = FieldMeta::decode(&meta.encode(), "meta").unwrap();
            assert_eq!(back, meta);
        }
    }

    #[test]
    fn meta_rejects_garbage() {
        assert!(matches!(
            FieldMeta::decode(&[1, 2, 3], "meta"),
            Err(IoError::BadRecord { .. })
        ));
        let meta = FieldMeta {
            dims: [4, 4, 4, 4],
            vl_bits: 128,
            precision: Precision::F64,
            kind: "x".to_string(),
            ncomp: 1,
            plaquette: None,
        };
        let mut bytes = meta.encode();
        bytes.push(0xFF); // trailing byte
        assert!(matches!(
            FieldMeta::decode(&bytes, "meta"),
            Err(IoError::BadRecord { .. })
        ));
        let mut bytes = meta.encode();
        let tag_at = 4 * 8 + 8;
        bytes[tag_at] = 77; // unknown precision tag
        assert!(matches!(
            FieldMeta::decode(&bytes, "meta"),
            Err(IoError::BadRecord { .. })
        ));
    }

    /// A 2-wide block: a field of two right-hand sides.
    fn wide() -> grid::FermionBlock {
        let g = Grid::new(
            [2, 2, 2, 4],
            sve::VectorLength::of(256),
            grid::SimdBackend::Fcmla,
        );
        let fields = [1, 2].map(|seed| grid::FermionField::random(g.clone(), seed));
        grid::FermionBlock::from_fields(&fields)
    }

    #[test]
    fn a_block_is_one_record_read_at_another_vector_length() {
        let block = wide();
        let path = std::env::temp_dir().join(format!("wide-{}.qio", std::process::id()));
        write_field(&*block, &path, Precision::F64).unwrap();
        let g = Grid::new(
            [2, 2, 2, 4],
            sve::VectorLength::of(128),
            grid::SimdBackend::Fcmla,
        );
        let back: grid::FermionField = read_field(&path, &g).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back.width(), 2);
        for j in 0..2 {
            for x in g.coords() {
                for comp in 0..12 {
                    let want = block.rhs_field(j).peek(&x, comp);
                    assert_eq!(back.rhs_field(j).peek(&x, comp), want, "rhs {j}");
                }
            }
        }
    }

    #[test]
    fn a_payload_of_a_partial_field_is_refused() {
        let block = wide();
        let meta = FieldMeta::of(&*block, Precision::F64);
        let payload = encode_field(&*block, Precision::F64);
        for cut in [payload.len() / 2 + 8, 8, 0] {
            let got = decode_field::<grid::field::FermionKind, f64>(
                &meta,
                &payload[..cut],
                block.grid(),
                "f",
            );
            let refused = matches!(got, Err(IoError::BadRecord { .. }));
            assert!(refused, "{cut} bytes: {:?}", got.map(|f| f.width()));
        }
    }

    #[test]
    fn rng_record_round_trips() {
        let mut rng = StreamRng::new(0xC0FFEE);
        for _ in 0..37 {
            rng.next_u64();
        }
        let restored = rng_from_record(&rng_record(&rng)).unwrap();
        assert_eq!(restored.state(), rng.state());
    }
}
