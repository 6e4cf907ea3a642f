//! Edge cases of the `qcd-trace` registry and exporters: empty snapshots,
//! same-name nesting, snapshots taken while spans are still open, and the
//! Chrome-trace metadata contract.
//!
//! The registry is process-global, so every test takes [`global_test_lock`]
//! before touching it.

use qcd_trace::{global_test_lock, span, Json, Snapshot};

#[test]
fn empty_snapshot_round_trips_through_json() {
    let empty = Snapshot::default();
    let doc = empty.to_json();
    let rendered = doc.render();
    let parsed = Json::parse(&rendered).expect("empty snapshot renders valid JSON");
    let back = Snapshot::from_json(&parsed).expect("empty snapshot parses back");
    assert!(back.regions.is_empty());
}

#[test]
fn an_empty_registry_snapshot_is_empty() {
    let _guard = global_test_lock();
    qcd_trace::reset();
    assert!(qcd_trace::snapshot().regions.is_empty());
}

#[test]
fn nested_same_name_regions_stay_distinct_paths() {
    let _guard = global_test_lock();
    qcd_trace::reset();
    {
        let _outer = span!("same");
        {
            let _inner = span!("same");
        }
        {
            let _inner = span!("same");
        }
    }
    let snap = qcd_trace::snapshot();
    // Self-nesting must not fold the child into the parent: the paths are
    // `same` (count 1) and `same/same` (count 2, merged across both opens).
    let outer = snap.region("same").expect("outer region");
    let inner = snap.region("same/same").expect("inner region");
    assert_eq!(outer.count, 1);
    assert_eq!(inner.count, 2);
    assert!(snap.region("same/same/same").is_none());
    // Exclusive wall-time attribution survives the name collision.
    assert!(outer.child_ns <= outer.wall_ns);
    assert_eq!(outer.child_ns, inner.wall_ns);
    assert_eq!(snap.children("same"), vec![("same/same", inner)]);
}

#[test]
fn snapshot_taken_with_open_spans_omits_them_until_close() {
    let _guard = global_test_lock();
    qcd_trace::reset();
    let open = span!("still_open");
    {
        let _done = span!("already_closed");
    }
    let mid = qcd_trace::snapshot();
    // Only the closed child is in the registry — and under its full path,
    // proving the open parent still shapes attribution.
    assert!(mid.region("still_open").is_none());
    assert!(mid.region("still_open/already_closed").is_some());
    drop(open);
    let after = qcd_trace::snapshot();
    let outer = after.region("still_open").expect("closed span registered");
    assert_eq!(outer.count, 1);
    // The mid-flight snapshot was a copy: closing the span later must not
    // have mutated it retroactively.
    assert!(mid.region("still_open").is_none());
}

#[test]
fn chrome_trace_names_the_process_and_every_span_thread() {
    let _guard = global_test_lock();
    qcd_trace::reset();
    qcd_trace::set_span_events(true);
    {
        let _a = span!("chrome_meta_main");
    }
    std::thread::Builder::new()
        .name("chrome-meta-worker".into())
        .spawn(|| {
            let _b = span!("chrome_meta_worker");
        })
        .unwrap()
        .join()
        .unwrap();
    qcd_trace::set_span_events(false);
    let doc = Json::parse(&qcd_trace::to_chrome_trace()).expect("chrome trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let ph = |e: &Json| e.get("ph").and_then(Json::as_str).map(str::to_string);
    // Exactly one process_name metadata record.
    let process_names: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
        .collect();
    assert_eq!(process_names.len(), 1);
    assert_eq!(ph(process_names[0]).as_deref(), Some("M"));
    // Every complete event's tid is covered by a thread_name record whose
    // args carry the registered thread name.
    let named_tids: Vec<f64> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
        .map(|e| e.get("tid").and_then(Json::as_f64).expect("tid"))
        .collect();
    let x_events: Vec<&Json> = events
        .iter()
        .filter(|e| ph(e).as_deref() == Some("X"))
        .collect();
    assert!(!x_events.is_empty(), "expected complete events in the log");
    for e in &x_events {
        let tid = e.get("tid").and_then(Json::as_f64).expect("X event tid");
        assert!(
            named_tids.contains(&tid),
            "X event tid {tid} has no thread_name metadata"
        );
    }
    // The spawned worker's chosen name made it into the metadata.
    let names: Vec<String> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
        .map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
                .expect("thread_name args.name")
                .to_string()
        })
        .collect();
    assert!(
        names.iter().any(|n| n == "chrome-meta-worker"),
        "worker thread name missing from metadata: {names:?}"
    );
    // Round-trip: the rendered document re-parses identically.
    let rendered = doc.render();
    assert_eq!(Json::parse(&rendered).unwrap(), doc);
}
