//! Structured exporters: human-readable table, JSON lines, and Chrome
//! `trace_event` format.

use sve::{CostModel, Opcode};

use crate::json::Json;
use crate::region::Snapshot;
use crate::span::trace_log;

/// Render a snapshot as an aligned human-readable table, one row per region
/// path (indented by nesting depth), with derived metrics.
pub fn render_table(snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<44} {:>8} {:>12} {:>12} {:>12} {:>9} {:>12} {:>8} {:>8}\n",
        "region", "count", "wall ms", "self ms", "insts", "fcmla", "flops", "AI", "%pred"
    ));
    let dashes = "-".repeat(132);
    out.push_str(&dashes);
    out.push('\n');
    for (path, stat) in &snap.regions {
        let depth = path.matches('/').count();
        let leaf = path.rsplit('/').next().unwrap_or(path);
        let label = format!("{}{}", "  ".repeat(depth), leaf);
        let ai = stat
            .arithmetic_intensity()
            .map(|v| format!("{v:.2}"))
            .unwrap_or_else(|| "-".into());
        let pct = stat
            .percent_of_predicted()
            .map(|v| format!("{v:.1}"))
            .unwrap_or_else(|| "-".into());
        out.push_str(&format!(
            "{:<44} {:>8} {:>12.3} {:>12.3} {:>12} {:>9} {:>12} {:>8} {:>8}\n",
            label,
            stat.count,
            stat.wall_ns as f64 / 1e6,
            stat.self_ns() as f64 / 1e6,
            stat.total_insts(),
            stat.insts_for(Opcode::Fcmla),
            stat.flops,
            ai,
            pct,
        ));
    }
    out.push_str(&dashes);
    out.push('\n');
    out.push_str("cycle estimates (exclusive opcode mix):\n");
    for (path, stat) in &snap.regions {
        if stat.total_insts() == 0 {
            continue;
        }
        let cycles: Vec<String> = CostModel::all()
            .iter()
            .map(|&m| format!("{}={}", m.name(), stat.cycles(m)))
            .collect();
        out.push_str(&format!("  {:<42} {}\n", path, cycles.join("  ")));
    }
    out
}

/// Render a snapshot as JSON lines: one compact object per region, each
/// carrying the schema tag so a line is self-describing in isolation.
pub fn to_json_lines(snap: &Snapshot) -> String {
    let doc = snap.to_json();
    let regions = doc
        .get("regions")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .to_vec();
    let mut out = String::new();
    for region in regions {
        let mut members = vec![(
            "schema".to_string(),
            Json::Str(crate::region::SCHEMA.into()),
        )];
        if let Some(obj) = region.as_obj() {
            members.extend(obj.iter().cloned());
        }
        out.push_str(&Json::Obj(members).render());
        out.push('\n');
    }
    out
}

/// Render the retained span timeline in Chrome `trace_event` JSON (load via
/// `chrome://tracing` or Perfetto). Events are complete (`"ph":"X"`) with
/// microsecond timestamps relative to the first span of the process.
/// Metadata events (`"ph":"M"`) name the process and every thread that
/// closed a span, so Perfetto groups worker tracks by name instead of by
/// bare ordinal.
pub fn to_chrome_trace() -> String {
    let mut events: Vec<Json> = vec![Json::Obj(vec![
        ("name".into(), Json::Str("process_name".into())),
        ("ph".into(), Json::Str("M".into())),
        ("pid".into(), Json::Num(1.0)),
        (
            "args".into(),
            Json::Obj(vec![("name".into(), Json::Str("lqcd-sve".into()))]),
        ),
    ])];
    for (tid, name) in crate::span::thread_name_map() {
        events.push(Json::Obj(vec![
            ("name".into(), Json::Str("thread_name".into())),
            ("ph".into(), Json::Str("M".into())),
            ("pid".into(), Json::Num(1.0)),
            ("tid".into(), Json::Num(tid as f64)),
            (
                "args".into(),
                Json::Obj(vec![("name".into(), Json::Str(name))]),
            ),
        ]));
    }
    let log = trace_log().lock().unwrap();
    events.extend(log.events().map(|(path, start_us, dur_us, tid)| {
        Json::Obj(vec![
            ("name".into(), Json::Str(path.to_string())),
            ("ph".into(), Json::Str("X".into())),
            ("ts".into(), Json::Num(start_us as f64)),
            ("dur".into(), Json::Num(dur_us as f64)),
            ("pid".into(), Json::Num(1.0)),
            ("tid".into(), Json::Num(tid as f64)),
        ])
    }));
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::RegionStat;

    #[test]
    fn table_indents_children_and_shows_derived_columns() {
        let mut snap = Snapshot::default();
        let mut parent = RegionStat {
            count: 2,
            wall_ns: 2_000_000,
            child_ns: 500_000,
            flops: 2640,
            bytes_read: 2592,
            bytes_written: 384,
            predicted_insts: 14,
            ..RegionStat::default()
        };
        parent.insts[Opcode::Fcmla as usize] = 4;
        snap.regions.insert("solve".into(), parent);
        snap.regions
            .insert("solve/iter".into(), RegionStat::default());
        let table = render_table(&snap);
        assert!(table.contains("solve"));
        assert!(table.contains("  iter"), "child row not indented:\n{table}");
        assert!(table.contains("fcmla"));
        assert!(table.contains("cycle estimates"));
    }

    #[test]
    fn json_lines_are_individually_parseable() {
        let mut snap = Snapshot::default();
        snap.regions.insert("a".into(), RegionStat::default());
        snap.regions.insert("a/b".into(), RegionStat::default());
        let lines = to_json_lines(&snap);
        let parsed: Vec<Json> = lines
            .lines()
            .map(|l| Json::parse(l).expect("line must parse"))
            .collect();
        assert_eq!(parsed.len(), 2);
        for line in &parsed {
            assert_eq!(
                line.get("schema").and_then(Json::as_str),
                Some(crate::region::SCHEMA)
            );
            assert!(line.get("path").is_some());
        }
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let doc = Json::parse(&to_chrome_trace()).unwrap();
        assert!(doc.get("traceEvents").and_then(Json::as_arr).is_some());
    }
}
