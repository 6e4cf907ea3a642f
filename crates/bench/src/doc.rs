//! Bench documents: what `wilson_report --bench <kind> <path>` writes and
//! `bench_diff` compares (DESIGN.md "Bench documents").
//!
//! A document holds only what reproduces — configuration, counts,
//! iterations, eigenvalues, residuals, plaquettes, trace-span byte models,
//! modeled wire and flight bytes — so two runs of one commit write the same
//! bytes on any host and at any thread count, and one structural comparison
//! serves every schema. The few host-measured numbers a gate still reads
//! live under a member named [`HOST`], which [`diff`] skips by name. Wall
//! clock is `benchmark/`'s job (stackbench); none enters a document.
//!
//! A runner builds its [`Json`] value directly ([`obj`], [`num`],
//! [`nums`]); there is no typed twin of a document and no per-schema
//! validator: [`write`] checks the one thing a writer can get wrong (a value
//! JSON cannot carry), [`diff`] checks everything else against a baseline.

use qcd_trace::Json;
use std::fmt::Write as _;

/// Relative tolerance of [`diff`] on numbers: floating-point noise only.
pub const HARD_RTOL: f64 = 1e-9;

/// Name of the member holding host-measured values; [`diff`] skips it.
pub const HOST: &str = "host";

/// An object from `(key, value)` pairs, in order.
pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A number.
pub fn num(v: f64) -> Json {
    Json::Num(v)
}

/// An array of extents or counts (`lattice`, `cell`, `rank_grid`).
pub fn nums(vs: &[usize]) -> Json {
    Json::Arr(vs.iter().map(|&v| Json::Num(v as f64)).collect())
}

/// The number at `key` of `doc`, for a gate: a missing or non-numeric
/// member is the gate's failure, named.
pub fn get_num(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("`{key}` missing or not a number"))
}

/// The object rows of the array at `key` of `doc`, for a gate.
pub fn get_rows<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("`{key}` missing or not an array"))
}

fn schema(doc: &Json) -> Result<&str, String> {
    doc.get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| "document has no string `schema`".to_string())
}

/// Render `doc`, parse the text back, require it to equal `doc`, and only
/// then write `path`. The parse-back is the whole check: a NaN or infinity
/// renders as `null` and a repeated key does not parse, so neither reaches
/// disk. An invalid document is an error, not an artifact.
pub fn write(doc: &Json, path: &str) -> Result<(), String> {
    schema(doc)?;
    let text = doc.render();
    let parsed = Json::parse(&text).map_err(|e| format!("emitted JSON does not parse: {e}"))?;
    if parsed != *doc {
        return Err(
            "the document does not survive a JSON round trip (a non-finite number?)".into(),
        );
    }
    std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))
}

/// Outcome of [`diff`]: how many numbers were compared and every
/// difference found, each named by its path (`block[2].mem_bound_speedup`).
#[derive(Debug, Default)]
pub struct Diff {
    /// Numbers compared (members under [`HOST`] are not).
    pub compared: usize,
    /// One line per difference; empty means the documents agree.
    pub findings: Vec<String>,
}

/// Compare two documents structurally: the same members in the same order,
/// arrays of the same length, strings and booleans equal, numbers within
/// [`HARD_RTOL`]; members named [`HOST`] are skipped. A comparison that
/// could not have failed is refused (`Err`): a document without a string
/// `schema`, two different schemas, or no number compared at all.
pub fn diff(baseline: &Json, current: &Json) -> Result<Diff, String> {
    let (b, c) = (
        schema(baseline).map_err(|e| format!("baseline {e}"))?,
        schema(current).map_err(|e| format!("current {e}"))?,
    );
    if b != c {
        return Err(format!("schema mismatch: baseline `{b}` vs current `{c}`"));
    }
    let mut out = Diff::default();
    walk("", baseline, current, &mut out);
    if out.compared == 0 {
        return Err("vacuous comparison: the documents share no number".into());
    }
    Ok(out)
}

/// Symmetric relative difference, zero-safe: `|b-a| / max(|a|,|b|)`.
fn rel_delta(a: f64, b: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    (b - a).abs() / a.abs().max(b.abs())
}

fn walk<'a>(path: &str, b: &'a Json, c: &'a Json, out: &mut Diff) {
    match (b, c) {
        (Json::Obj(bm), Json::Obj(cm)) => {
            let at = |key: &str| match path {
                "" => key.to_string(),
                _ => format!("{path}.{key}"),
            };
            let keys = |m: &'a [(String, Json)]| -> Vec<&'a str> {
                let keys = m.iter().map(|(k, _)| k.as_str());
                keys.filter(|k| *k != HOST).collect()
            };
            let (bk, ck) = (keys(bm), keys(cm));
            if bk != ck {
                // Name what one side lacks; if neither lacks anything, the
                // members only moved.
                let before = out.findings.len();
                for k in bk.iter().filter(|k| !ck.contains(k)) {
                    out.findings
                        .push(format!("`{}`: missing from current", at(k)));
                }
                for k in ck.iter().filter(|k| !bk.contains(k)) {
                    out.findings.push(format!("`{}`: not in baseline", at(k)));
                }
                if out.findings.len() == before {
                    let whole = if path.is_empty() { "document" } else { path };
                    out.findings
                        .push(format!("`{whole}`: member order differs"));
                }
            }
            for k in bk {
                if let (Some(bv), Some(cv)) = (b.get(k), c.get(k)) {
                    walk(&at(k), bv, cv, out);
                }
            }
        }
        (Json::Arr(bi), Json::Arr(ci)) if bi.len() != ci.len() => out.findings.push(format!(
            "`{path}`: baseline has {} rows, current {}",
            bi.len(),
            ci.len()
        )),
        (Json::Arr(bi), Json::Arr(ci)) => {
            for (i, (bv, cv)) in bi.iter().zip(ci).enumerate() {
                walk(&format!("{path}[{i}]"), bv, cv, out);
            }
        }
        (Json::Num(bn), Json::Num(cn)) => {
            out.compared += 1;
            let delta = rel_delta(*bn, *cn);
            if delta > HARD_RTOL {
                out.findings.push(format!(
                    "`{path}`: baseline {} vs current {} (rel delta {delta:.3e} > {HARD_RTOL:.0e})",
                    b.render(),
                    c.render()
                ));
            }
        }
        _ if b == c => {}
        _ => out.findings.push(format!(
            "`{path}`: baseline {} vs current {}",
            b.render(),
            c.render()
        )),
    }
}

/// The text report of a document: a scalar (or an array of scalars) as
/// `key: value`, an object as an indented block, an array of objects as a
/// table headed by its keys (a nested object's members as dotted columns).
pub fn render(doc: &Json) -> String {
    let mut out = String::new();
    render_block(doc, 0, &mut out);
    out
}

fn cell(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        // `render` writes a tolerance or a residual out in full zeros.
        Json::Num(n) if *n != 0.0 && n.abs() < 1e-4 => format!("{n:e}"),
        other => other.render(),
    }
}

fn is_table(rows: &[Json]) -> bool {
    !rows.is_empty() && rows.iter().all(|r| matches!(r, Json::Obj(_)))
}

fn render_block(v: &Json, indent: usize, out: &mut String) {
    for (key, value) in v.as_obj().unwrap_or(&[]) {
        let pad = " ".repeat(indent);
        match value {
            Json::Obj(_) => {
                let _ = writeln!(out, "{pad}{key}:");
                render_block(value, indent + 2, out);
            }
            Json::Arr(rows) if is_table(rows) => {
                let _ = writeln!(out, "{pad}{key}:");
                render_table(rows, indent + 2, out);
            }
            _ => {
                let _ = writeln!(out, "{pad}{key}: {}", cell(value));
            }
        }
    }
}

fn flatten(row: &Json, prefix: &str, cells: &mut Vec<(String, String)>) {
    for (key, value) in row.as_obj().unwrap_or(&[]) {
        match value {
            Json::Obj(_) => flatten(value, &format!("{prefix}{key}."), cells),
            _ => cells.push((format!("{prefix}{key}"), cell(value))),
        }
    }
}

fn render_table(rows: &[Json], indent: usize, out: &mut String) {
    let rows: Vec<Vec<(String, String)>> = rows
        .iter()
        .map(|row| {
            let mut cells = Vec::new();
            flatten(row, "", &mut cells);
            cells
        })
        .collect();
    let columns = rows.iter().map(Vec::len).max().unwrap_or(0);
    let widths: Vec<usize> = (0..columns)
        .map(|i| {
            let in_column = rows.iter().filter_map(|r| r.get(i));
            in_column
                .map(|(k, v)| k.len().max(v.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let mut line = |cells: Vec<&str>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        let _ = writeln!(out, "{}{}", " ".repeat(indent), padded.join("  "));
    };
    line(rows[0].iter().map(|(k, _)| k.as_str()).collect());
    for row in &rows {
        line(row.iter().map(|(_, v)| v.as_str()).collect());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A solver-shaped fixture: configuration, an array of rows, a section.
    const ROWS: &str = r#"{
      "schema": "qcd-bench-solver/v2",
      "lattice": [8, 8, 8, 8], "vl_bits": 512, "backend": "sve-fcmla",
      "block": [
        {"nrhs": 1, "ai": 0.4545, "ai_gain": 1, "mem_bound_speedup": 1.1379},
        {"nrhs": 8, "ai": 0.6667, "ai_gain": 1.4667, "mem_bound_speedup": 1.5}
      ],
      "deflation": {"nev": 8, "tol": 1e-8, "deflated_iters": 1515, "lambda_min": 0.2275}
    }"#;

    /// A comms-shaped fixture: rows that carry a `host` member.
    const HOSTED: &str = r#"{
      "schema": "qcd-bench-comms/v2",
      "nrhs": 8,
      "legs": [
        {"ranks": 1, "rank_grid": [1, 1, 1, 1], "wire_bytes_modeled": 0,
         "host": {"wait_ns": 0, "overlap_eff": 1}},
        {"ranks": 2, "rank_grid": [1, 1, 1, 2], "wire_bytes_modeled": 11034624,
         "host": {"wait_ns": 47040, "overlap_eff": 0.998}}
      ]
    }"#;

    fn parse(text: &str) -> Json {
        Json::parse(text).expect("fixture parses")
    }

    /// Findings of `fixture` against itself with `from` replaced by `to`.
    fn findings(fixture: &str, from: &str, to: &str) -> Vec<String> {
        let edited = fixture.replace(from, to);
        assert_ne!(edited, fixture, "the edit must hit the fixture");
        diff(&parse(fixture), &parse(&edited)).unwrap().findings
    }

    #[test]
    fn self_compare_is_clean_and_counts_what_it_compared() {
        let d = diff(&parse(ROWS), &parse(ROWS)).unwrap();
        assert!(d.findings.is_empty(), "{:?}", d.findings);
        assert_eq!(d.compared, 4 + 1 + 2 * 4 + 4);
        // `host` members are not compared: 1 + 2 × (1 + 4 + 1).
        let d = diff(&parse(HOSTED), &parse(HOSTED)).unwrap();
        assert_eq!((d.compared, d.findings.len()), (13, 0));
    }

    #[test]
    fn model_drift_is_a_finding_named_by_its_path() {
        let f = findings(ROWS, "\"ai_gain\": 1.4667", "\"ai_gain\": 1.61");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].starts_with("`block[1].ai_gain`: baseline 1.4667 vs current 1.61"));
        let f = findings(ROWS, "\"deflated_iters\": 1515", "\"deflated_iters\": 1516");
        assert!(f[0].starts_with("`deflation.deflated_iters`"), "{f:?}");
        let f = findings(HOSTED, "11034624", "11034632");
        assert!(f[0].starts_with("`legs[1].wire_bytes_modeled`"), "{f:?}");
    }

    #[test]
    fn the_tolerance_is_floating_point_noise_only() {
        assert!(findings(ROWS, "0.2275}", "0.22750000001}").is_empty());
        assert_eq!(findings(ROWS, "0.2275}", "0.2275000005}").len(), 1);
        // Zero against anything else is a full relative difference.
        assert_eq!(
            findings(
                HOSTED,
                "\"wire_bytes_modeled\": 0",
                "\"wire_bytes_modeled\": 1e-30"
            )
            .len(),
            1
        );
    }

    #[test]
    fn a_configuration_mismatch_is_a_finding() {
        let f = findings(ROWS, "\"vl_bits\": 512", "\"vl_bits\": 256");
        assert!(f[0].starts_with("`vl_bits`"), "{f:?}");
        let f = findings(ROWS, "sve-fcmla", "generic");
        assert_eq!(
            f,
            ["`backend`: baseline \"sve-fcmla\" vs current \"generic\""]
        );
        let f = findings(ROWS, "[8, 8, 8, 8]", "[8, 8, 8, 16]");
        assert!(f[0].starts_with("`lattice[3]`"), "{f:?}");
        let f = findings(HOSTED, "[1, 1, 1, 2]", "[1, 1, 2, 1]");
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].starts_with("`legs[1].rank_grid[2]`"));
    }

    #[test]
    fn a_row_set_mismatch_is_a_finding() {
        let f = findings(ROWS, "\"nrhs\": 8", "\"nrhs\": 16");
        assert!(f[0].starts_with("`block[1].nrhs`"), "{f:?}");
        let dropped = ROWS.replace(
            ",\n        {\"nrhs\": 8, \"ai\": 0.6667, \"ai_gain\": 1.4667, \"mem_bound_speedup\": 1.5}",
            "",
        );
        let f = diff(&parse(ROWS), &parse(&dropped)).unwrap().findings;
        assert_eq!(f, ["`block`: baseline has 2 rows, current 1"]);
    }

    #[test]
    fn a_missing_an_extra_or_a_moved_member_is_a_finding() {
        let f = findings(ROWS, "\"ai_gain\": 1.4667, ", "");
        assert_eq!(f, ["`block[1].ai_gain`: missing from current"]);
        let f = findings(ROWS, "\"nev\": 8,", "\"nev\": 8, \"wall_ns\": 5,");
        assert_eq!(f, ["`deflation.wall_ns`: not in baseline"]);
        // A whole section present on one side only is a finding too.
        let f = findings(ROWS, "\"deflation\":", "\"deflation_off\":");
        assert_eq!(f.len(), 2, "{f:?}");
        let f = findings(
            ROWS,
            "\"nev\": 8, \"tol\": 1e-8,",
            "\"tol\": 1e-8, \"nev\": 8,",
        );
        assert_eq!(f, ["`deflation`: member order differs"]);
        let f = findings(ROWS, "\"vl_bits\": 512", "\"vl_bits\": \"512\"");
        assert_eq!(f, ["`vl_bits`: baseline 512 vs current \"512\""]);
    }

    #[test]
    fn host_members_are_skipped_by_name_at_any_depth() {
        let f = findings(HOSTED, "\"wait_ns\": 47040", "\"wait_ns\": 4600000");
        assert!(f.is_empty(), "{f:?}");
        let f = findings(
            HOSTED,
            ",\n         \"host\": {\"wait_ns\": 0, \"overlap_eff\": 1}",
            "",
        );
        assert!(f.is_empty(), "{f:?}");
        let f = findings(
            HOSTED,
            "\"nrhs\": 8,",
            "\"nrhs\": 8, \"host\": {\"cpus\": 2},",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn a_vacuous_comparison_is_refused() {
        let err = |b: &str, c: &str| diff(&parse(b), &parse(c)).unwrap_err();
        assert!(err("{}", "{}").contains("no string `schema`"));
        assert!(err(r#"{"schema": 2, "x": 1}"#, ROWS).contains("baseline"));
        assert!(err(ROWS, r#"{"x": 1}"#).contains("current"));
        assert!(err(ROWS, HOSTED).contains("schema mismatch"));
        let only_host = r#"{"schema": "s", "name": "a", "host": {"wait_ns": 5}}"#;
        assert!(err(only_host, only_host).contains("vacuous"));
    }

    #[test]
    fn write_refuses_what_json_cannot_carry_and_round_trips_the_rest() {
        let path = std::env::temp_dir().join(format!("bench-doc-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let doc = obj([
            ("schema", Json::Str("s/v2".into())),
            ("x", num(0.1)),
            ("lattice", nums(&[4, 8])),
        ]);
        write(&doc, path).unwrap();
        assert_eq!(parse(&std::fs::read_to_string(path).unwrap()), doc);
        std::fs::remove_file(path).unwrap();
        for bad in [f64::NAN, f64::INFINITY] {
            let doc = obj([("schema", Json::Str("s/v2".into())), ("x", num(bad))]);
            assert!(write(&doc, path).unwrap_err().contains("round trip"));
        }
        let twice = obj([
            ("schema", Json::Str("s/v2".into())),
            ("x", num(1.0)),
            ("x", num(2.0)),
        ]);
        assert!(write(&twice, path).unwrap_err().contains("repeated"));
        assert!(write(&obj([("x", num(1.0))]), path)
            .unwrap_err()
            .contains("schema"));
        assert!(
            !std::path::Path::new(path).exists(),
            "a refused document left a file"
        );
    }

    #[test]
    fn render_prints_scalars_blocks_and_tables() {
        let text = render(&parse(HOSTED));
        let expect = "\
schema: qcd-bench-comms/v2
nrhs: 8
legs:
  ranks  rank_grid  wire_bytes_modeled  host.wait_ns  host.overlap_eff
      1  [1,1,1,1]                   0             0                 1
      2  [1,1,1,2]            11034624         47040             0.998
";
        assert_eq!(text, expect);
        let text = render(&parse(ROWS));
        assert!(text.contains("lattice: [8,8,8,8]\n"), "{text}");
        assert!(
            text.contains("deflation:\n  nev: 8\n  tol: 1e-8\n"),
            "{text}"
        );
    }

    #[test]
    fn gates_read_members_by_name() {
        let doc = parse(ROWS);
        assert_eq!(get_num(&doc, "vl_bits"), Ok(512.0));
        assert!(get_num(&doc, "backend").unwrap_err().contains("`backend`"));
        assert_eq!(get_rows(&doc, "block").unwrap().len(), 2);
        assert!(get_rows(&doc, "deflation")
            .unwrap_err()
            .contains("`deflation`"));
    }
}
