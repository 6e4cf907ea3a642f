//! Fault-injection tests: every corruption class must surface as the right
//! typed error — never a panic, never silently wrong data.

use grid::codec::Precision;
use grid::prelude::*;
use qcd_io::fault::INJECTED_ERROR_KIND;
use qcd_io::fields::{FIELD_RECORD, META_RECORD};
use qcd_io::{
    read_gauge, write_gauge, Container, Fault, FaultyReader, FaultyWriter, FieldMeta, IoError,
    Record,
};
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("qcd-io-faults");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn small_grid() -> Arc<Grid<f64>> {
    Grid::new([4, 4, 2, 2], VectorLength::of(256), SimdBackend::Fcmla)
}

fn sample_bytes() -> Vec<u8> {
    let g = small_grid();
    let u = random_gauge(g, 71);
    let mut c = Container::new();
    let mut meta = FieldMeta::of(&u, Precision::F64);
    meta.plaquette = Some(grid::gauge::average_plaquette(&u));
    c.push(Record::new(META_RECORD, meta.encode()));
    c.push(Record::new(
        FIELD_RECORD,
        qcd_io::fields::encode_field(&u, Precision::F64),
    ));
    let mut buf = Vec::new();
    c.write_to(&mut buf).unwrap();
    buf
}

#[test]
fn bit_flips_anywhere_are_detected_never_panic() {
    let bytes = sample_bytes();
    // Sweep flips across the whole file: header, record headers, payloads,
    // checksums. Every one must be a typed error (or, for a flip inside
    // the stored CRC itself, still a CrcMismatch).
    let stride = (bytes.len() / 97).max(1);
    for offset in (0..bytes.len() as u64).step_by(stride) {
        for bit in [0u8, 6] {
            let reader = FaultyReader::new(&bytes[..], Fault::BitFlip { offset, bit });
            match Container::read_from(reader) {
                Ok(_) => panic!("flip at {offset}:{bit} went undetected"),
                Err(
                    IoError::BadMagic { .. }
                    | IoError::UnsupportedVersion(_)
                    | IoError::BadRecordMark { .. }
                    | IoError::CrcMismatch { .. }
                    | IoError::Truncated { .. },
                ) => {}
                Err(other) => panic!("flip at {offset}:{bit}: unexpected error {other}"),
            }
        }
    }
}

#[test]
fn truncation_at_every_boundary_is_typed() {
    let bytes = sample_bytes();
    // A cut exactly between two records reads as a (shorter) valid
    // container — the record framing cannot know more records were meant
    // to follow. Everywhere else, truncation must be a typed error.
    let full = Container::read_from(&bytes[..]).unwrap();
    let mut record_boundaries = vec![12u64];
    for r in &full.records {
        record_boundaries.push(record_boundaries.last().unwrap() + 32 + r.payload.len() as u64);
    }
    let stride = (bytes.len() / 53).max(1);
    for cut in (1..bytes.len() as u64).step_by(stride) {
        let reader = FaultyReader::new(&bytes[..], Fault::TruncateAfter { bytes: cut });
        match Container::read_from(reader) {
            Err(IoError::Truncated { .. }) => {
                assert!(!record_boundaries.contains(&cut));
            }
            Ok(_) => assert!(
                record_boundaries.contains(&cut),
                "cut at {cut} mid-record read back as a valid container"
            ),
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
}

#[test]
fn device_failure_mid_read_is_an_io_error() {
    let bytes = sample_bytes();
    for fail_at in [0, 5, 12, 40, bytes.len() as u64 - 2] {
        let reader = FaultyReader::new(&bytes[..], Fault::FailAfter { bytes: fail_at });
        match Container::read_from(reader) {
            Err(IoError::Io(e)) => assert_eq!(e.kind(), INJECTED_ERROR_KIND),
            other => panic!("fail at {fail_at}: expected Io, got {other:?}"),
        }
    }
}

#[test]
fn corrupted_write_is_caught_on_read_back() {
    // A writer that flips one bit mid-payload: the write itself succeeds,
    // but the CRC catches it on the next read.
    let bytes = sample_bytes();
    let mut w = FaultyWriter::new(
        Vec::new(),
        Fault::BitFlip {
            offset: bytes.len() as u64 / 2,
            bit: 3,
        },
    );
    w.write_all(&bytes).unwrap();
    let damaged = w.into_inner();
    assert!(matches!(
        Container::read_from(&damaged[..]),
        Err(IoError::CrcMismatch { .. })
    ));
}

#[test]
fn torn_write_is_caught_on_read_back() {
    // A writer that silently drops the tail (power loss before the last
    // blocks hit the platter): readers must refuse the torn file.
    let bytes = sample_bytes();
    let mut w = FaultyWriter::new(
        Vec::new(),
        Fault::TruncateAfter {
            bytes: bytes.len() as u64 * 2 / 3,
        },
    );
    w.write_all(&bytes).unwrap(); // the torn write itself reports success
    let torn = w.into_inner();
    assert!(matches!(
        Container::read_from(&torn[..]),
        Err(IoError::Truncated { .. })
    ));
}

#[test]
fn device_failure_mid_write_is_an_io_error() {
    let bytes = sample_bytes();
    let mut w = FaultyWriter::new(Vec::new(), Fault::FailAfter { bytes: 100 });
    let err = w.write_all(&bytes).unwrap_err();
    assert_eq!(err.kind(), INJECTED_ERROR_KIND);
}

#[test]
fn spliced_records_fail_physics_validation() {
    // Pass the CRC layer entirely: assemble a container from the metadata
    // of one configuration and the links of another. Only the plaquette
    // check can catch this.
    let g = small_grid();
    let u1 = random_gauge(g.clone(), 72);
    let u2 = random_gauge(g.clone(), 73);
    let mut meta = FieldMeta::of(&u1, Precision::F64);
    meta.plaquette = Some(grid::gauge::average_plaquette(&u1));
    let mut spliced = Container::new();
    spliced.push(Record::new(META_RECORD, meta.encode()));
    spliced.push(Record::new(
        FIELD_RECORD,
        qcd_io::fields::encode_field(&u2, Precision::F64),
    ));
    let path = tmp("spliced.qio");
    spliced.write_atomic(&path).unwrap();
    match read_gauge(&path, &g) {
        Err(IoError::PlaquetteMismatch {
            stored, computed, ..
        }) => assert_ne!(stored.to_bits(), computed.to_bits()),
        other => panic!(
            "expected PlaquetteMismatch, got {other:?}",
            other = other.err()
        ),
    }
}

#[test]
fn corrupting_a_file_on_disk_is_detected() {
    // The CI smoke test's scenario, in miniature: write a valid
    // configuration, flip one bit in a copy, and assert the reader refuses
    // the copy while still accepting the original.
    let g = small_grid();
    let u = random_gauge(g.clone(), 74);
    let path = tmp("good.qio");
    write_gauge(&u, &path, Precision::F64).unwrap();

    let mut bytes = std::fs::read(&path).unwrap();
    let target = bytes.len() / 2;
    bytes[target] ^= 0x40;
    let bad_path = tmp("corrupt.qio");
    std::fs::write(&bad_path, &bytes).unwrap();

    assert!(read_gauge(&path, &g).is_ok(), "original must stay readable");
    assert!(
        matches!(read_gauge(&bad_path, &g), Err(IoError::CrcMismatch { .. })),
        "corrupted copy must be refused"
    );
}

#[test]
fn missing_records_are_typed() {
    let mut c = Container::new();
    c.push(Record::new("unrelated", vec![1, 2, 3]));
    let path = tmp("missing.qio");
    c.write_atomic(&path).unwrap();
    let g = small_grid();
    assert!(matches!(
        read_gauge(&path, &g),
        Err(IoError::MissingRecord { .. })
    ));
}

#[test]
fn opening_a_nonexistent_file_is_an_io_error() {
    let g = small_grid();
    assert!(matches!(
        read_gauge(&tmp("does-not-exist.qio"), &g),
        Err(IoError::Io(_))
    ));
}

#[test]
fn injected_faults_land_in_the_flight_recorder_typed() {
    // The acceptance contract of the observability layer: drive errors
    // through `FaultyReader` and find each class in the flight-recorder
    // dump as a typed `io.error` event, in a dump that validates as
    // `qcd-metrics/v1` JSONL.
    let _guard = qcd_trace::global_test_lock();
    qcd_trace::flight_reset();
    let bytes = sample_bytes();

    // Device failure mid-read -> "io".
    let reader = FaultyReader::new(&bytes[..], Fault::FailAfter { bytes: 12 });
    assert!(Container::read_from(reader).is_err());
    // Torn stream -> "truncated".
    let reader = FaultyReader::new(
        &bytes[..],
        Fault::TruncateAfter {
            bytes: bytes.len() as u64 - 3,
        },
    );
    assert!(Container::read_from(reader).is_err());
    // Payload bit flip -> "crc_mismatch".
    let reader = FaultyReader::new(
        &bytes[..],
        Fault::BitFlip {
            offset: bytes.len() as u64 - 40,
            bit: 3,
        },
    );
    assert!(Container::read_from(reader).is_err());

    let events = qcd_trace::flight_snapshot();
    let labels: Vec<&str> = events
        .iter()
        .filter(|ev| ev.kind == "io.error")
        .map(|ev| ev.label.as_str())
        .collect();
    for expected in ["io", "truncated", "crc_mismatch"] {
        assert!(
            labels.contains(&expected),
            "missing {expected} in {labels:?}"
        );
    }

    let dump = qcd_trace::flight_dump_jsonl();
    qcd_trace::validate_jsonl(&dump).expect("flight dump must validate");
    assert!(dump.contains("\"kind\":\"io.error\",\"label\":\"crc_mismatch\""));
    qcd_trace::flight_reset();
}

#[test]
fn checkpoint_writes_are_flight_recorded() {
    let _guard = qcd_trace::global_test_lock();
    qcd_trace::flight_reset();
    let g = small_grid();
    let u = random_gauge(g.clone(), 72);
    let path = tmp("flight-write.qio");
    let written = write_gauge(&u, &path, Precision::F64).unwrap();
    let events = qcd_trace::flight_snapshot();
    let ev = events
        .iter()
        .find(|ev| ev.kind == "checkpoint.write")
        .expect("write must be recorded");
    assert!(ev.label.ends_with("flight-write.qio"));
    assert_eq!(ev.data[0], ("bytes".to_string(), written as f64));
    std::fs::remove_file(&path).unwrap();
    qcd_trace::flight_reset();
}
