//! The `qcd-io/v1` record container — a LIME-inspired framing layer.
//!
//! Lattice QCD configuration archives (ILDG/SciDAC) wrap their payloads in
//! LIME: a flat sequence of self-describing records, each carrying a type
//! tag and a length, so tools can skip records they do not understand. This
//! module is the same idea reduced to what a single-node checkpoint needs,
//! plus a per-record CRC-32 so corruption is detected at read time rather
//! than discovered as wrong physics three solves later.
//!
//! ```text
//! file   := magic version record*
//! magic  := b"QCDIOv1\n"                     (8 bytes)
//! version:= u32 LE                           (currently 1)
//! record := mark type len payload crc
//! mark   := b"QREC"                          (4 bytes)
//! type   := [u8; 16]  ASCII, NUL padded
//! len    := u64 LE    payload byte count
//! crc    := u32 LE    CRC-32 (IEEE) over type ‖ len ‖ payload
//! ```
//!
//! All integers are little-endian. The CRC covers the type and length
//! fields too, so a corrupted header cannot redirect a valid payload.

use crate::crc::{crc32, Crc32};
use crate::error::{IoError, Result};
use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::Path;

/// File magic: identifies a `qcd-io` container and its major format line.
pub const MAGIC: [u8; 8] = *b"QCDIOv1\n";
/// Current container format version.
pub const VERSION: u32 = 1;
/// Marker opening every record header.
pub const RECORD_MARK: [u8; 4] = *b"QREC";
/// Fixed width of the record type field.
pub const TYPE_LEN: usize = 16;

/// A single decoded record: a type name and its payload bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// ASCII type tag (NUL padding stripped).
    pub rtype: String,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

impl Record {
    /// Build a record, checking the type tag fits the fixed header field.
    pub fn new(rtype: &str, payload: Vec<u8>) -> Self {
        assert!(
            rtype.len() <= TYPE_LEN && rtype.is_ascii() && !rtype.contains('\0'),
            "record type must be ASCII, NUL-free, and at most {TYPE_LEN} bytes: {rtype:?}"
        );
        Record {
            rtype: rtype.to_string(),
            payload,
        }
    }
}

/// Encode the fixed-width type field.
fn type_bytes(rtype: &str) -> [u8; TYPE_LEN] {
    let mut t = [0u8; TYPE_LEN];
    t[..rtype.len()].copy_from_slice(rtype.as_bytes());
    t
}

/// Serializes records into any `Write` sink.
pub struct ContainerWriter<W: Write> {
    sink: W,
    bytes_written: u64,
}

impl<W: Write> ContainerWriter<W> {
    /// Start a container: writes the magic and version header.
    pub fn new(mut sink: W) -> Result<Self> {
        sink.write_all(&MAGIC)?;
        sink.write_all(&VERSION.to_le_bytes())?;
        Ok(ContainerWriter {
            sink,
            bytes_written: (MAGIC.len() + 4) as u64,
        })
    }

    /// Append one record (header, payload, CRC).
    pub fn write_record(&mut self, record: &Record) -> Result<()> {
        let t = type_bytes(&record.rtype);
        let len = (record.payload.len() as u64).to_le_bytes();
        let mut crc = Crc32::new();
        crc.update(&t);
        crc.update(&len);
        crc.update(&record.payload);
        self.sink.write_all(&RECORD_MARK)?;
        self.sink.write_all(&t)?;
        self.sink.write_all(&len)?;
        self.sink.write_all(&record.payload)?;
        self.sink.write_all(&crc.finalize().to_le_bytes())?;
        self.bytes_written += (RECORD_MARK.len() + TYPE_LEN + 8 + record.payload.len() + 4) as u64;
        Ok(())
    }

    /// Total bytes emitted so far (header included).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Flush and hand the sink back.
    pub fn finish(mut self) -> Result<W> {
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Reads records back from any `Read` source, validating framing and CRC.
pub struct ContainerReader<R: Read> {
    source: R,
    /// Offset of the next unread byte, relative to the start of the record
    /// stream (i.e. just after magic + version).
    offset: u64,
    bytes_read: u64,
}

/// Read exactly `buf.len()` bytes. Distinguishes a clean end-of-stream
/// (zero bytes read — `Ok(false)`) from a mid-item cut (`Truncated`).
fn read_exact_or_eof<R: Read>(source: &mut R, buf: &mut [u8], context: &str) -> Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = source.read(&mut buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(false);
            }
            return Err(IoError::Truncated {
                context: context.to_string(),
            });
        }
        filled += n;
    }
    Ok(true)
}

/// Read exactly `buf.len()` bytes; end-of-stream anywhere is truncation.
fn read_exact<R: Read>(source: &mut R, buf: &mut [u8], context: &str) -> Result<()> {
    if read_exact_or_eof(source, buf, context)? {
        Ok(())
    } else {
        Err(IoError::Truncated {
            context: context.to_string(),
        })
    }
}

impl<R: Read> ContainerReader<R> {
    /// Open a container: validates the magic and version header.
    pub fn new(mut source: R) -> Result<Self> {
        let mut magic = [0u8; 8];
        read_exact(&mut source, &mut magic, "container magic")?;
        if magic != MAGIC {
            return Err(IoError::BadMagic { found: magic });
        }
        let mut v = [0u8; 4];
        read_exact(&mut source, &mut v, "container version")?;
        let version = u32::from_le_bytes(v);
        if version != VERSION {
            return Err(IoError::UnsupportedVersion(version));
        }
        Ok(ContainerReader {
            source,
            offset: 0,
            bytes_read: 12,
        })
    }

    /// Read the next record, or `None` at a clean end of stream. Any
    /// framing, truncation, or checksum problem is a typed error.
    pub fn next_record(&mut self) -> Result<Option<Record>> {
        let mut mark = [0u8; 4];
        if !read_exact_or_eof(&mut self.source, &mut mark, "record mark")? {
            return Ok(None);
        }
        if mark != RECORD_MARK {
            return Err(IoError::BadRecordMark {
                offset: self.offset,
            });
        }
        let mut t = [0u8; TYPE_LEN];
        read_exact(&mut self.source, &mut t, "record type")?;
        let rtype: String = t
            .iter()
            .take_while(|&&b| b != 0)
            .map(|&b| b as char)
            .collect();
        let mut len_bytes = [0u8; 8];
        read_exact(&mut self.source, &mut len_bytes, "record length")?;
        let len = u64::from_le_bytes(len_bytes);
        let mut payload = vec![0u8; len as usize];
        read_exact(
            &mut self.source,
            &mut payload,
            &format!("'{rtype}' payload ({len} bytes)"),
        )?;
        let mut crc_bytes = [0u8; 4];
        read_exact(&mut self.source, &mut crc_bytes, "record checksum")?;
        let stored = u32::from_le_bytes(crc_bytes);
        let mut crc = Crc32::new();
        crc.update(&t);
        crc.update(&len_bytes);
        crc.update(&payload);
        let computed = crc.finalize();
        if stored != computed {
            return Err(IoError::CrcMismatch {
                record: rtype,
                stored,
                computed,
            });
        }
        let record_len = (RECORD_MARK.len() + TYPE_LEN + 8 + payload.len() + 4) as u64;
        self.offset += record_len;
        self.bytes_read += record_len;
        Ok(Some(Record { rtype, payload }))
    }

    /// Total bytes consumed so far (header included).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }
}

/// A fully materialized container: every record, validated.
#[derive(Clone, Debug)]
pub struct Container {
    /// All records, in file order.
    pub records: Vec<Record>,
}

impl Container {
    /// An empty container ready for [`Container::push`].
    pub fn new() -> Self {
        Container {
            records: Vec::new(),
        }
    }

    /// Append a record.
    pub fn push(&mut self, record: Record) {
        self.records.push(record);
    }

    /// Parse and validate every record from a `Read` source. Any failure —
    /// OS error, lost framing, truncation, CRC mismatch — lands in the
    /// flight recorder as a typed `io.error` event before it propagates.
    pub fn read_from<R: Read>(source: R) -> Result<Self> {
        Self::read_from_inner(source).inspect_err(crate::record_io_error)
    }

    fn read_from_inner<R: Read>(source: R) -> Result<Self> {
        let mut reader = ContainerReader::new(source)?;
        let mut records = Vec::new();
        while let Some(r) = reader.next_record()? {
            records.push(r);
        }
        qcd_trace::record_bytes(reader.bytes_read(), 0);
        Ok(Container { records })
    }

    /// Open and fully validate a container file, under an `io.read` span.
    pub fn open(path: &Path) -> Result<Self> {
        let _span = qcd_trace::span!("io.read");
        Self::read_from(File::open(path)?)
    }

    /// First record of a type, if present.
    pub fn find(&self, rtype: &str) -> Option<&Record> {
        self.records.iter().find(|r| r.rtype == rtype)
    }

    /// First record of a type, or a [`IoError::MissingRecord`].
    pub fn expect(&self, rtype: &str) -> Result<&Record> {
        self.find(rtype).ok_or_else(|| IoError::MissingRecord {
            record: rtype.to_string(),
        })
    }

    /// Serialize every record into a writer.
    pub fn write_to<W: Write>(&self, sink: W) -> Result<u64> {
        let mut w = ContainerWriter::new(sink)?;
        for r in &self.records {
            w.write_record(r)?;
        }
        let n = w.bytes_written();
        w.finish()?;
        qcd_trace::record_bytes(0, n);
        Ok(n)
    }

    /// Write the container to `path` atomically, under an `io.write` span:
    /// the bytes land in a temporary file in the same directory, are fsynced,
    /// and only then renamed over the destination. A crash mid-write leaves
    /// either the old file or the new one — never a torn checkpoint.
    pub fn write_atomic(&self, path: &Path) -> Result<u64> {
        let _span = qcd_trace::span!("io.write");
        self.write_atomic_inner(path)
            .inspect(|&written| {
                qcd_trace::counter("io.writes").inc();
                qcd_trace::histogram("io.write.bytes").record(written);
                qcd_trace::record_event(
                    "checkpoint.write",
                    &path.to_string_lossy(),
                    &[("bytes", written as f64)],
                );
            })
            .inspect_err(crate::record_io_error)
    }

    fn write_atomic_inner(&self, path: &Path) -> Result<u64> {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let file = File::create(&tmp)?;
        let written = match self.write_to(&file) {
            Ok(n) => n,
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                return Err(e);
            }
        };
        file.sync_all()?;
        drop(file);
        if let Err(e) = fs::rename(&tmp, path) {
            let _ = fs::remove_file(&tmp);
            return Err(e.into());
        }
        // Make the rename itself durable where the platform allows it.
        if let Some(d) = dir {
            if let Ok(dh) = File::open(d) {
                let _ = dh.sync_all();
            }
        }
        Ok(written)
    }
}

impl Default for Container {
    fn default() -> Self {
        Self::new()
    }
}

/// CRC-32 of a record exactly as stored on disk (exposed for tests and
/// external tooling that patches containers).
pub fn record_crc(record: &Record) -> u32 {
    let t = type_bytes(&record.rtype);
    let len = (record.payload.len() as u64).to_le_bytes();
    let mut bytes = Vec::with_capacity(TYPE_LEN + 8 + record.payload.len());
    bytes.extend_from_slice(&t);
    bytes.extend_from_slice(&len);
    bytes.extend_from_slice(&record.payload);
    crc32(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Container {
        let mut c = Container::new();
        c.push(Record::new("meta", b"dims=4444".to_vec()));
        c.push(Record::new("payload.a", vec![7u8; 300]));
        c.push(Record::new("payload.b", Vec::new()));
        c
    }

    #[test]
    fn round_trip_through_memory() {
        let c = sample();
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        let back = Container::read_from(&buf[..]).unwrap();
        assert_eq!(back.records, c.records);
    }

    #[test]
    fn header_layout_is_stable() {
        let c = sample();
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        assert_eq!(&buf[..8], b"QCDIOv1\n");
        assert_eq!(u32::from_le_bytes(buf[8..12].try_into().unwrap()), 1);
        assert_eq!(&buf[12..16], b"QREC");
        assert_eq!(&buf[16..20], b"meta");
        assert_eq!(buf[20], 0, "type field is NUL padded");
    }

    #[test]
    fn wrong_magic_is_typed() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        buf[3] ^= 0xFF;
        match Container::read_from(&buf[..]) {
            Err(IoError::BadMagic { .. }) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        buf[8] = 99;
        match Container::read_from(&buf[..]) {
            Err(IoError::UnsupportedVersion(99)) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn payload_corruption_is_a_crc_mismatch() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        // Flip a bit inside the first record's payload.
        buf[12 + 4 + TYPE_LEN + 8 + 2] ^= 0x10;
        match Container::read_from(&buf[..]) {
            Err(IoError::CrcMismatch { record, .. }) => assert_eq!(record, "meta"),
            other => panic!("expected CrcMismatch, got {other:?}"),
        }
    }

    #[test]
    fn header_corruption_is_also_caught() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        // Corrupt the type tag of the first record — the CRC covers it.
        buf[12 + 4] ^= 0x01;
        assert!(matches!(
            Container::read_from(&buf[..]),
            Err(IoError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        for cut in [5, 10, 13, 30, 50, buf.len() - 1] {
            let r = Container::read_from(&buf[..cut]);
            assert!(
                matches!(r, Err(IoError::Truncated { .. })),
                "cut at {cut}: {r:?}"
            );
        }
    }

    #[test]
    fn lost_framing_is_a_bad_record_mark() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        // Insert a stray byte between two records: the second record's
        // header no longer starts with the mark.
        let first_len = 4 + TYPE_LEN + 8 + 9 + 4;
        buf.insert(12 + first_len, 0xAB);
        match Container::read_from(&buf[..]) {
            Err(IoError::BadRecordMark { offset }) => assert_eq!(offset, first_len as u64),
            other => panic!("expected BadRecordMark, got {other:?}"),
        }
    }

    #[test]
    fn find_and_expect() {
        let c = sample();
        assert!(c.find("payload.a").is_some());
        assert!(c.find("absent").is_none());
        assert!(matches!(
            c.expect("absent"),
            Err(IoError::MissingRecord { .. })
        ));
    }

    #[test]
    fn record_crc_matches_the_stored_checksum() {
        let r = Record::new("meta", b"hello".to_vec());
        let mut c = Container::new();
        c.push(r.clone());
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        let stored = u32::from_le_bytes(buf[buf.len() - 4..].try_into().unwrap());
        assert_eq!(stored, record_crc(&r));
    }

    #[test]
    fn atomic_write_round_trips_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join("qcd-io-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cfg.qio");
        let c = sample();
        c.write_atomic(&path).unwrap();
        // Overwrite with different content: reader must see one or the other,
        // and afterwards exactly the new one.
        let mut c2 = Container::new();
        c2.push(Record::new("meta", b"second".to_vec()));
        c2.write_atomic(&path).unwrap();
        let back = Container::open(&path).unwrap();
        assert_eq!(back.records, c2.records);
        assert!(
            !dir.join("cfg.qio.tmp").exists(),
            "temporary file must not survive"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
