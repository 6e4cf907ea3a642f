//! The status surface: a validated `qcd-farm/v1` JSON document.
//!
//! One document answers "what is the farm doing": per-job state and
//! progress, queue depths by priority, worker utilization, and the
//! batch-fill histogram (from the `farm.batch.fill` metric) that shows
//! whether coalescing is actually happening. The same renderer backs the
//! `--status-json` dump and the `/status` HTTP endpoint, and every
//! document is parse-back validated before it leaves the process — CI
//! greps this schema tag from the artifact.

use crate::scheduler::Farm;
use qcd_trace::Json;

/// Schema identifier of the status document.
pub const STATUS_SCHEMA: &str = "qcd-farm/v1";

/// Render the farm's current state as a `qcd-farm/v1` document.
pub fn status_json(farm: &Farm) -> Json {
    let (workers, busy_ns, wall_ns, units, preemptions) = farm.worker_stats();
    let utilization = if workers > 0 && wall_ns > 0 {
        (busy_ns as f64 / (workers as f64 * wall_ns as f64)).min(1.0)
    } else {
        0.0
    };
    let depths = farm.queue_depths();
    let jobs = farm
        .job_views()
        .into_iter()
        .map(|j| {
            Json::Obj(vec![
                ("id".into(), Json::Str(j.name)),
                ("kind".into(), Json::Str(j.kind.into())),
                ("state".into(), Json::Str(j.state.name().into())),
                ("priority".into(), Json::Str(j.priority.name().into())),
                ("progress".into(), Json::Num(j.progress as f64)),
                ("target".into(), Json::Num(j.target as f64)),
            ])
        })
        .collect();
    let fill = qcd_trace::metrics_snapshot()
        .histograms
        .get("farm.batch.fill")
        .map(|h| {
            Json::Obj(vec![
                ("count".into(), Json::Num(h.count as f64)),
                ("min".into(), Json::Num(h.min as f64)),
                ("max".into(), Json::Num(h.max as f64)),
                (
                    "p50".into(),
                    Json::Num(h.percentile(0.5).unwrap_or(0) as f64),
                ),
            ])
        })
        .unwrap_or(Json::Null);
    Json::Obj(vec![
        ("schema".into(), Json::Str(STATUS_SCHEMA.into())),
        ("jobs".into(), Json::Arr(jobs)),
        (
            "queue_depth".into(),
            Json::Obj(vec![
                ("low".into(), Json::Num(depths[0] as f64)),
                ("normal".into(), Json::Num(depths[1] as f64)),
                ("high".into(), Json::Num(depths[2] as f64)),
            ]),
        ),
        (
            "workers".into(),
            Json::Obj(vec![
                ("count".into(), Json::Num(workers as f64)),
                ("busy_ns".into(), Json::Num(busy_ns as f64)),
                ("wall_ns".into(), Json::Num(wall_ns as f64)),
                ("utilization".into(), Json::Num(utilization)),
            ]),
        ),
        ("units_done".into(), Json::Num(units as f64)),
        ("preemptions".into(), Json::Num(preemptions as f64)),
        ("batch_fill".into(), fill),
    ])
}

/// Validate a parsed document against the `qcd-farm/v1` schema.
pub fn validate_status_json(doc: &Json) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(STATUS_SCHEMA) => {}
        Some(other) => return Err(format!("schema `{other}` != `{STATUS_SCHEMA}`")),
        None => return Err("missing `schema`".into()),
    }
    let jobs = doc
        .get("jobs")
        .and_then(Json::as_arr)
        .ok_or("missing array `jobs`")?;
    for (i, job) in jobs.iter().enumerate() {
        for key in ["id", "kind", "state", "priority"] {
            if job.get(key).and_then(Json::as_str).is_none() {
                return Err(format!("`jobs[{i}].{key}` missing or not a string"));
            }
        }
        let (progress, target) = (
            job.get("progress").and_then(Json::as_u64),
            job.get("target").and_then(Json::as_u64),
        );
        match (progress, target) {
            (Some(p), Some(t)) if p <= t => {}
            (Some(p), Some(t)) => {
                return Err(format!("`jobs[{i}]` progress {p} exceeds target {t}"))
            }
            _ => return Err(format!("`jobs[{i}]` progress/target missing or negative")),
        }
        if job.get("state").and_then(Json::as_str) == Some("done") && progress != target {
            return Err(format!("`jobs[{i}]` is done but progress != target"));
        }
    }
    let depth = doc.get("queue_depth").ok_or("missing `queue_depth`")?;
    for key in ["low", "normal", "high"] {
        if depth.get(key).and_then(Json::as_u64).is_none() {
            return Err(format!("`queue_depth.{key}` missing or negative"));
        }
    }
    let workers = doc.get("workers").ok_or("missing `workers`")?;
    for key in ["count", "busy_ns", "wall_ns"] {
        if workers.get(key).and_then(Json::as_u64).is_none() {
            return Err(format!("`workers.{key}` missing or negative"));
        }
    }
    let util = workers
        .get("utilization")
        .and_then(Json::as_f64)
        .ok_or("missing `workers.utilization`")?;
    if !(0.0..=1.0).contains(&util) {
        return Err(format!("`workers.utilization` {util} outside [0, 1]"));
    }
    for key in ["units_done", "preemptions"] {
        if doc.get(key).and_then(Json::as_u64).is_none() {
            return Err(format!("`{key}` missing or negative"));
        }
    }
    match doc.get("batch_fill") {
        None => return Err("missing `batch_fill`".into()),
        Some(Json::Null) => {} // no solve batch has run yet
        Some(fill) => {
            for key in ["count", "min", "max", "p50"] {
                if fill.get(key).and_then(Json::as_u64).is_none() {
                    return Err(format!("`batch_fill.{key}` missing or negative"));
                }
            }
        }
    }
    Ok(())
}

/// Render, parse back, validate, and return the document text — the only
/// path status output takes to disk or the HTTP endpoint.
pub fn render_validated_status(farm: &Farm) -> Result<String, String> {
    let json = status_json(farm);
    let text = json.render();
    let parsed = Json::parse(&text)
        .map_err(|e| format!("emitted status does not parse: {} at byte {}", e.msg, e.at))?;
    validate_status_json(&parsed)?;
    if parsed != json {
        return Err("status JSON round-trip did not reproduce the document".into());
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(extra: &str) -> String {
        format!(
            r#"{{"schema":"qcd-farm/v1",
                "jobs":[{{"id":"s0","kind":"hmc-stream","state":"done",
                          "priority":"low","progress":4,"target":4}}],
                "queue_depth":{{"low":0,"normal":1,"high":0}},
                "workers":{{"count":2,"busy_ns":100,"wall_ns":100,"utilization":0.5}},
                "units_done":3,"preemptions":1{extra}}}"#
        )
    }

    #[test]
    fn a_wellformed_document_validates() {
        let parsed = Json::parse(&doc(r#","batch_fill":null"#)).unwrap();
        validate_status_json(&parsed).unwrap();
        let with_fill =
            Json::parse(&doc(r#","batch_fill":{"count":2,"min":4,"max":8,"p50":8}"#)).unwrap();
        validate_status_json(&with_fill).unwrap();
    }

    #[test]
    fn malformed_documents_are_rejected_with_the_offending_path() {
        let cases = [
            (
                doc(r#","batch_fill":null"#).replace("qcd-farm/v1", "qcd-farm/v2"),
                "schema",
            ),
            (
                doc(r#","batch_fill":null"#).replace(r#""progress":4"#, r#""progress":9"#),
                "exceeds target",
            ),
            (
                doc(r#","batch_fill":null"#)
                    .replace(r#""utilization":0.5"#, r#""utilization":1.7"#),
                "utilization",
            ),
            (
                doc(r#","batch_fill":null"#).replace(r#""normal":1"#, r#""normal":-1"#),
                "queue_depth.normal",
            ),
            (doc(""), "batch_fill"),
        ];
        for (text, needle) in cases {
            let err = validate_status_json(&Json::parse(&text).unwrap()).unwrap_err();
            assert!(err.contains(needle), "expected `{needle}` in `{err}`");
        }
    }
}
