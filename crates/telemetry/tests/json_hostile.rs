//! `Json::parse` is all that stands between a file from outside and the
//! bench differ, the metrics validator and the farm status check: whatever
//! the bytes, it returns a value or an error — no panic, no stack overflow.
//! The two decoders of this crate's own documents, `Snapshot::from_json`
//! and `validate_jsonl`, are held to the same on mutated documents — in the
//! release profile too (CI runs both), where a forged count that overflows
//! wraps instead of panicking.

use std::sync::OnceLock;

use proptest::prelude::*;
use qcd_trace::{Json, RegionStat, Snapshot};

const BASELINES: [&str; 4] = [
    include_str!("../../../bench/baselines/BENCH_solver.json"),
    include_str!("../../../bench/baselines/BENCH_hmc.json"),
    include_str!("../../../bench/baselines/BENCH_comms.json"),
    include_str!("../../../bench/baselines/BENCH_farm.json"),
];

/// What parses must render to text that parses back to it.
fn parse_and_round_trip(bytes: &[u8]) {
    if let Ok(doc) = Json::parse(&String::from_utf8_lossy(bytes)) {
        assert_eq!(Json::parse(&doc.render()), Ok(doc));
    }
}

/// A rendered `qcd-trace/v1` profile with every member populated.
fn profile_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let mut snap = Snapshot::default();
        for (i, path) in ["solve", "solve/iter", "solve/iter/dirac.hop"]
            .iter()
            .enumerate()
        {
            let n = i as u64 + 1;
            let mut stat = RegionStat {
                count: n,
                wall_ns: 1_000_000 * n,
                child_ns: 400 * n,
                flops: 1320 * n,
                sites: n,
                bytes_read: 1296,
                bytes_written: 192,
                wire_bytes: 96,
                predicted_insts: 7,
                ..RegionStat::default()
            };
            stat.insts[i] = 2 * n;
            stat.insts[i + 3] = 5;
            snap.regions.insert(path.to_string(), stat);
        }
        snap.to_json().render()
    })
}

/// A `qcd-metrics/v1` dump with every line type: metrics of each kind, a
/// flight event and — span events on — span histograms and span events.
fn dump_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let _guard = qcd_trace::global_test_lock();
        qcd_trace::counter("hostile.counter").add(3);
        qcd_trace::gauge("hostile.gauge").set(0.5625);
        qcd_trace::histogram("hostile.histogram").record(1500);
        qcd_trace::record_event(
            "hmc.trajectory",
            "accept",
            &[("dh", -0.01), ("plaquette", 0.58)],
        );
        qcd_trace::set_span_events(true);
        {
            let _outer = qcd_trace::span!("hostile.outer");
            let _inner = qcd_trace::span!("hostile.inner");
        }
        qcd_trace::set_span_events(false);
        qcd_trace::dump_all_jsonl()
    })
}

/// `text` with the byte at `at % len` replaced.
fn mutated(text: &str, at: usize, byte: u8) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let at = at % bytes.len();
    bytes[at] = byte;
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// A value or a typed error, never a panic (an overflowing sum of forged
    /// counts was one); what is accepted renders and parses back to itself.
    #[test]
    fn single_byte_mutations_of_a_profile_decode_or_fail_cleanly(
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        if let Ok(doc) = Json::parse(&mutated(profile_text(), at, byte)) {
            if let Ok(snap) = Snapshot::from_json(&doc) {
                let again = Json::parse(&snap.to_json().render()).unwrap();
                prop_assert_eq!(Snapshot::from_json(&again), Ok(snap));
            }
        }
    }

    #[test]
    fn single_byte_mutations_of_a_metrics_dump_validate_or_fail_cleanly(
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let text = mutated(dump_text(), at, byte);
        if let Ok(lines) = qcd_trace::validate_jsonl(&text) {
            prop_assert_eq!(lines, text.lines().count());
        }
    }

    #[test]
    fn random_bytes_parse_or_fail_cleanly(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        parse_and_round_trip(&bytes);
    }

    /// Random bytes rarely get past the first character; strings over the
    /// JSON alphabet reach the nested, escaped and numeric paths.
    #[test]
    fn random_json_alphabet_parses_or_fails_cleanly(
        picks in proptest::collection::vec(0usize..28, 0..64),
    ) {
        const ALPHABET: [&str; 28] = [
            "[", "]", "{", "}", ",", ":", "\"", "\\", "\\u", "u", "0", "1", "9", "-", "+",
            ".", "e", "E", "true", "false", "null", " ", "\n", "a", "é", "\"k\":", "1e999", "00d8",
        ];
        let text: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        parse_and_round_trip(text.as_bytes());
    }

    #[test]
    fn single_byte_mutations_of_the_baselines_parse_or_fail_cleanly(
        which in 0usize..4,
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        parse_and_round_trip(mutated(BASELINES[which], at, byte).as_bytes());
    }
}

#[test]
fn the_unmutated_documents_are_accepted() {
    let snap = Snapshot::from_json(&Json::parse(profile_text()).unwrap()).unwrap();
    assert_eq!(snap.regions.len(), 3);
    let dump = dump_text();
    assert_eq!(qcd_trace::validate_jsonl(dump), Ok(dump.lines().count()));
    for needle in [
        "\"type\":\"counter\"",
        "\"type\":\"gauge\"",
        "\"name\":\"hostile.histogram\"",
        "\"name\":\"span.hostile.inner\"",
        "\"kind\":\"hmc.trajectory\"",
        "\"kind\":\"span\",\"label\":\"hostile.outer/hostile.inner\"",
    ] {
        assert!(dump.contains(needle), "{needle} missing from:\n{dump}");
    }
}

#[test]
fn the_baselines_themselves_parse() {
    for text in BASELINES {
        assert!(Json::parse(text).unwrap().get("schema").is_some());
    }
}
