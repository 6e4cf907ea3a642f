//! `bench_diff` as CI runs it: the built binary over the four committed
//! baselines. Exit 0 on agreement, 1 on a difference named by its path,
//! 2 on anything that is not a comparison.

use qcd_trace::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Per baseline: a number to nudge, a member to remove, an array to
/// shorten — each by the path `bench_diff` must print.
const CASES: [(&str, &str, &str, &str); 4] = [
    (
        "BENCH_solver.json",
        "block[2].mem_bound_speedup",
        "deflation.deflated_iters",
        "block",
    ),
    ("BENCH_hmc.json", "avg_plaquette", "acceptance", "lattice"),
    (
        "BENCH_comms.json",
        "legs[1].flight_ns",
        "legs[2].wire_bytes_modeled",
        "legs",
    ),
    (
        "BENCH_farm.json",
        "coalesce_gain",
        "coalesce[1].bytes_per_rhs",
        "coalesce",
    ),
];

fn baseline(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../bench/baselines")
        .join(name)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-diff-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Exit code and combined output of `bench_diff <baseline> <current>`.
fn bench_diff(baseline: &Path, current: &Path) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .args([baseline, current])
        .output()
        .unwrap();
    let text = [out.stdout, out.stderr].concat();
    (
        out.status
            .code()
            .expect("bench_diff was killed by a signal"),
        String::from_utf8(text).unwrap(),
    )
}

/// The value at a path like `legs[2].wire_bytes_modeled`.
fn at<'a>(doc: &'a mut Json, path: &str) -> &'a mut Json {
    path.split('.').fold(doc, |mut cur, part| {
        let (key, index) = match part.split_once('[') {
            Some((key, index)) => (
                key,
                Some(index.trim_end_matches(']').parse::<usize>().unwrap()),
            ),
            None => (part, None),
        };
        if let Json::Obj(members) = cur {
            cur = &mut members.iter_mut().find(|(k, _)| k == key).unwrap().1;
        }
        match (cur, index) {
            (Json::Arr(items), Some(i)) => &mut items[i],
            (cur, _) => cur,
        }
    })
}

/// Write `name`'s baseline with `edit` applied and diff the baseline
/// against it.
fn against_edited(name: &str, tag: &str, edit: impl FnOnce(&mut Json)) -> (i32, String) {
    let mut doc = Json::parse(&std::fs::read_to_string(baseline(name)).unwrap()).unwrap();
    edit(&mut doc);
    let path = scratch(&format!("{tag}-{name}"));
    std::fs::write(&path, doc.render()).unwrap();
    bench_diff(&baseline(name), &path)
}

#[test]
fn a_baseline_agrees_with_itself_and_says_how_much_it_compared() {
    for (name, ..) in CASES {
        let (code, out) = bench_diff(&baseline(name), &baseline(name));
        assert_eq!(code, 0, "{name}: {out}");
        let compared: usize = out
            .split_once("OK — ")
            .and_then(|(_, rest)| rest.split_once(" values equal"))
            .map(|(n, _)| n.parse().unwrap())
            .unwrap_or_else(|| panic!("{name}: no count in `{out}`"));
        assert!(compared >= 10, "{name}: only {compared} values compared");
    }
}

#[test]
fn a_difference_is_exit_1_with_its_path() {
    for (name, number, member, rows) in CASES {
        let expect = |(code, out): (i32, String), needle: String| {
            assert_eq!(code, 1, "{name}: {out}");
            assert!(out.contains(&needle), "{name}: `{needle}` not in\n{out}");
        };
        expect(
            against_edited(name, "nudge", |doc| {
                let Json::Num(n) = at(doc, number) else {
                    panic!("{number} is not a number")
                };
                *n *= 1.0 + 1e-6;
            }),
            format!("REGRESSION: `{number}`: baseline "),
        );
        expect(
            against_edited(name, "remove", |doc| {
                let (parent, key) = member.rsplit_once('.').unwrap_or(("", member));
                let parent = if parent.is_empty() {
                    doc
                } else {
                    at(doc, parent)
                };
                let Json::Obj(members) = parent else {
                    panic!("{member} has no object parent")
                };
                members.retain(|(k, _)| k != key);
            }),
            format!("REGRESSION: `{member}`: missing from current"),
        );
        expect(
            against_edited(name, "rows", |doc| {
                let Json::Arr(items) = at(doc, rows) else {
                    panic!("{rows} is not an array")
                };
                items.pop();
            }),
            format!("REGRESSION: `{rows}`: baseline has "),
        );
        expect(
            against_edited(name, "string", |doc| {
                *at(doc, "backend") = Json::Str("generic".into());
            }),
            "REGRESSION: `backend`: baseline \"sve-fcmla\" vs current \"generic\"".into(),
        );
    }
}

#[test]
fn what_is_not_a_comparison_is_exit_2() {
    let solver = baseline("BENCH_solver.json");
    let write = |name: &str, text: &str| {
        let path = scratch(name);
        std::fs::write(&path, text).unwrap();
        path
    };
    let expect = |current: &Path, needle: &str| {
        for (b, c) in [(solver.as_path(), current), (current, solver.as_path())] {
            let (code, out) = bench_diff(b, c);
            assert_eq!(code, 2, "{}: {out}", current.display());
            assert!(out.contains(needle), "`{needle}` not in {out}");
        }
    };
    expect(&scratch("does-not-exist.json"), "read ");
    expect(&write("garbage.json", "not json at all"), "JSON error");
    // 200 KB of `[`: the parent commit died here with SIGABRT (exit 134).
    expect(&write("deep.json", &"[".repeat(200_000)), "nesting");
    expect(
        &write("twice.json", r#"{"schema":"s","x":1,"x":2}"#),
        "repeated",
    );
    expect(&write("inf.json", r#"{"schema":"s","x":1e999}"#), "finite");
    expect(&baseline("BENCH_hmc.json"), "schema mismatch");
    expect(&write("no-schema.json", r#"{"x":1}"#), "no string `schema`");
    // `{}` against `{}` must not be green, nor two documents without numbers.
    let empty = write("empty.json", "{}");
    assert_eq!(bench_diff(&empty, &empty).0, 2);
    let bare = write("bare.json", r#"{"schema":"s","host":{"wait_ns":1}}"#);
    let (code, out) = bench_diff(&bare, &bare);
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("vacuous"), "{out}");
    // Usage.
    let out = Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}
