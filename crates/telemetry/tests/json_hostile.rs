//! `Json::parse` is all that stands between a file from outside and the
//! bench differ, the metrics validator and the farm status check: whatever
//! the bytes, it returns a value or an error — no panic, no stack overflow.

use proptest::prelude::*;
use qcd_trace::Json;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

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
        let mut bytes = BASELINES[which].as_bytes().to_vec();
        let at = at % bytes.len();
        bytes[at] = byte;
        parse_and_round_trip(&bytes);
    }
}

#[test]
fn the_baselines_themselves_parse() {
    for text in BASELINES {
        assert!(Json::parse(text).unwrap().get("schema").is_some());
    }
}
