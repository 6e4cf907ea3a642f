//! Structured exporters: the human-readable region table, the
//! `qcd-metrics/v1` JSONL dump and its validator, and Chrome `trace_event`
//! format. (`qcd-trace/v1` is [`Snapshot::to_json`].)

use sve::{CostModel, Opcode};

use crate::json::Json;
use crate::metrics::metrics_snapshot;
use crate::recorder::{events_jsonl, flight_dump_jsonl, span_snapshot, THREAD_NAMES};
use crate::region::Snapshot;

/// Schema tag carried by every line of the JSONL dump.
pub const METRICS_SCHEMA: &str = "qcd-metrics/v1";

/// One line of the dump: `{"schema":…,"type":kind,…members}` and a newline.
pub(crate) fn line(kind: &str, members: Vec<(String, Json)>) -> String {
    let mut all = vec![
        ("schema".to_string(), Json::Str(METRICS_SCHEMA.into())),
        ("type".to_string(), Json::Str(kind.into())),
    ];
    all.extend(members);
    let mut line = Json::Obj(all).render();
    line.push('\n');
    line
}

/// Render the full observable state — every registered metric, the retained
/// flight events, then the retained span events (none unless
/// [`set_span_events`](crate::set_span_events) was on) — as one
/// `qcd-metrics/v1` JSONL document.
pub fn dump_all_jsonl() -> String {
    let mut out = metrics_snapshot().to_json_lines();
    out.push_str(&flight_dump_jsonl());
    out.push_str(&events_jsonl(&span_snapshot()));
    out
}

/// Check that every line of `text` parses as JSON and carries the
/// `qcd-metrics/v1` schema tag plus a known `type`. Returns the number of
/// lines on success.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut n = 0;
    for (i, line) in text.lines().enumerate() {
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(METRICS_SCHEMA) => {}
            other => return Err(format!("line {}: bad schema tag {other:?}", i + 1)),
        }
        match doc.get("type").and_then(Json::as_str) {
            Some("counter" | "gauge" | "histogram" | "flight") => {}
            other => return Err(format!("line {}: unknown type {other:?}", i + 1)),
        }
        n += 1;
    }
    Ok(n)
}

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

/// Render the retained span events — the last [`SPAN_CAP`](crate::SPAN_CAP)
/// span closes of a run that turned span events on, nothing of one that did
/// not — in Chrome `trace_event` JSON (load via `chrome://tracing` or
/// Perfetto). Events are complete (`"ph":"X"`) with microsecond timestamps
/// relative to the process's first recorded event. Metadata events
/// (`"ph":"M"`) name the process and every thread that closed such a span,
/// so Perfetto groups worker tracks by name instead of by bare ordinal.
pub fn to_chrome_trace() -> String {
    let meta = |what: &str, tid: Option<u64>, name: String| {
        let mut members = vec![
            ("name".to_string(), Json::Str(what.into())),
            ("ph".into(), Json::Str("M".into())),
            ("pid".into(), Json::Num(1.0)),
        ];
        members.extend(tid.map(|t| ("tid".to_string(), Json::Num(t as f64))));
        let args = Json::Obj(vec![("name".into(), Json::Str(name))]);
        members.push(("args".into(), args));
        Json::Obj(members)
    };
    let mut events = vec![meta("process_name", None, "lqcd-sve".into())];
    let names = THREAD_NAMES.lock().unwrap().clone();
    events.extend(
        names
            .into_iter()
            .map(|(tid, name)| meta("thread_name", Some(tid), name)),
    );
    events.extend(span_snapshot().into_iter().map(|ev| {
        // What `recorder::span_closed` wrote: `wall_ns`, then `tid`.
        let (wall_ns, tid) = (ev.data[0].1, ev.data[1].1);
        let dur_us = (wall_ns / 1e3).floor();
        Json::Obj(vec![
            ("name".into(), Json::Str(ev.label)),
            ("ph".into(), Json::Str("X".into())),
            // An event is stamped when its span closes.
            ("ts".into(), Json::Num((ev.t_us as f64 - dur_us).max(0.0))),
            ("dur".into(), Json::Num(dur_us)),
            ("pid".into(), Json::Num(1.0)),
            ("tid".into(), Json::Num(tid)),
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
    fn chrome_trace_is_valid_json() {
        let doc = Json::parse(&to_chrome_trace()).unwrap();
        assert!(doc.get("traceEvents").and_then(Json::as_arr).is_some());
    }

    #[test]
    fn validate_jsonl_accepts_own_output_and_rejects_garbage() {
        let good = line("counter", vec![("name".into(), Json::Str("x".into()))]);
        assert_eq!(validate_jsonl(&good), Ok(1));
        assert!(validate_jsonl("not json").is_err());
        assert!(validate_jsonl("{\"schema\":\"other/v1\",\"type\":\"counter\"}").is_err());
        assert!(validate_jsonl(&good.replace("counter", "mystery")).is_err());
        // The retired time-series line is no longer a known type.
        assert!(validate_jsonl(&good.replace("counter", "sample")).is_err());
    }
}
