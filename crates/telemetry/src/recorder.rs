//! The flight recorder: bounded rings of structured events for postmortem.
//!
//! Long runs append events (solver health events, `qcd-io` faults,
//! checkpoint writes, HMC accept/reject, `farm.*` scheduling) into a
//! fixed-capacity ring; when something goes wrong the last [`FLIGHT_CAP`]
//! events are dumped as `qcd-metrics/v1` JSONL. Span closes are events too,
//! but only while [`set_span_events`] has turned them on, and they go into a
//! ring of their own (the last [`SPAN_CAP`]): a run closes thousands of
//! spans for every event of any other kind, and in a shared ring they would
//! evict all of those.
//!
//! Events are stored *encoded*, as length-prefixed records in one byte
//! buffer that is allocated when the first event arrives and never again:
//! recording an event copies its strings and numbers into the buffer and
//! touches the allocator not at all. (Events used to be kept as
//! [`FlightEvent`]s — two `String`s and a `Vec` each. Interleaved with the
//! fields a solve allocates and frees, those small long-lived blocks pinned
//! heap pages: 16 KiB of resident memory per ladder solve, 9 MiB by the
//! time the ring was full.) [`flight_snapshot`] decodes.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::export::line;
use crate::json::Json;

/// Capacity of the flight ring in events; older events are dropped first.
/// A ring is also bounded in bytes, at [`EVENT_BYTES`] per event of
/// capacity: events that average more than that (the stack's own are 60–120
/// bytes encoded, a span close 60 plus its path) evict older ones sooner,
/// and [`flight_dropped`] / [`span_dropped`] count those too.
pub const FLIGHT_CAP: usize = 4096;

/// Capacity of the span ring in events (2 MiB, touched as it fills): the
/// largest CI recipe, `wilson_report --bench hmc`, closes 15 661 spans and
/// keeps every one; EXPERIMENTS.md "One observability crate" has the rest.
pub const SPAN_CAP: usize = 16_384;

const EVENT_BYTES: usize = 128;
/// Longest kind, label or data name stored, in bytes; a longer one is cut
/// at a character boundary and the event is kept.
const MAX_STR: usize = 1024;
/// Most data pairs stored per event; further ones are cut.
const MAX_DATA: usize = 32;

/// One recorded event.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightEvent {
    /// Monotonic sequence number within its ring (never reset by eviction,
    /// so gaps reveal how much history was dropped); span events count
    /// their own.
    pub seq: u64,
    /// Microseconds since the recorder first started.
    pub t_us: u64,
    /// Event class: `span`, `health`, `io.error`, `checkpoint.write`,
    /// `hmc.trajectory`, `farm.batch`, ...
    pub kind: String,
    /// Event-specific label (region path, error variant, accept/reject...).
    pub label: String,
    /// Numeric payload as name/value pairs.
    pub data: Vec<(String, f64)>,
}

/// The events, oldest first, as records
/// `[len: u32][seq: u64][t_us: u64][kind][label][n: u16]([name][value: f64])*`
/// (little-endian; a string is `[len: u16][utf-8]`; `len` counts the whole
/// record) laid end to end in `buf` from `head`, wrapping at its end.
struct Ring {
    /// Most events held.
    cap: usize,
    /// `cap` × [`EVENT_BYTES`] once the first event has arrived,
    /// unallocated before.
    buf: Vec<u8>,
    head: usize,
    used: usize,
    count: usize,
    next_seq: u64,
    dropped: u64,
}

/// `s`, cut to at most [`MAX_STR`] bytes at a character boundary.
fn clip(s: &str) -> &str {
    let mut end = s.len().min(MAX_STR);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

impl Ring {
    const fn new(cap: usize) -> Ring {
        // `wrap` masks instead of dividing.
        assert!((cap * EVENT_BYTES).is_power_of_two());
        Ring {
            cap,
            buf: Vec::new(),
            head: 0,
            used: 0,
            count: 0,
            next_seq: 0,
            dropped: 0,
        }
    }

    /// `at` modulo the buffer's size, a power of two.
    fn wrap(&self, at: usize) -> usize {
        at & (self.buf.len() - 1)
    }

    /// Copy `bytes` in at offset `at` (wrapping); the offset after them.
    fn put(&mut self, at: usize, bytes: &[u8]) -> usize {
        let at = self.wrap(at);
        let first = bytes.len().min(self.buf.len() - at);
        self.buf[at..at + first].copy_from_slice(&bytes[..first]);
        self.buf[..bytes.len() - first].copy_from_slice(&bytes[first..]);
        at + bytes.len()
    }

    fn put_str(&mut self, at: usize, s: &str) -> usize {
        let at = self.put(at, &(s.len() as u16).to_le_bytes());
        self.put(at, s.as_bytes())
    }

    /// The `N` bytes at offset `at` (wrapping).
    fn get<const N: usize>(&self, at: usize) -> [u8; N] {
        std::array::from_fn(|i| self.buf[self.wrap(at + i)])
    }

    fn get_str(&self, at: &mut usize) -> String {
        let len = usize::from(u16::from_le_bytes(self.get(*at)));
        let bytes: Vec<u8> = (0..len).map(|i| self.buf[self.wrap(*at + 2 + i)]).collect();
        *at += 2 + len;
        String::from_utf8(bytes).expect("the ring holds what `push` encoded from `&str`s")
    }

    /// Drop the oldest event.
    fn evict(&mut self) {
        let len = u32::from_le_bytes(self.get(self.head)) as usize;
        self.head = self.wrap(self.head + len);
        self.used -= len;
        self.count -= 1;
        self.dropped += 1;
    }

    fn push(&mut self, t_us: u64, kind: &str, label: &str, data: &[(&str, f64)]) {
        if self.buf.is_empty() {
            self.buf = vec![0; self.cap * EVENT_BYTES];
        }
        let (kind, label) = (clip(kind), clip(label));
        let data = &data[..data.len().min(MAX_DATA)];
        let strings =
            kind.len() + label.len() + data.iter().map(|(k, _)| clip(k).len()).sum::<usize>();
        // At most 4 + 16 + 2 + 2 + 2 + 32 * 10 + 34 * 1024 bytes: it fits.
        let len = 4 + 16 + 2 + 2 + 2 + data.len() * (2 + 8) + strings;
        while self.count == self.cap || self.buf.len() - self.used < len {
            self.evict();
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut at = self.put(self.head + self.used, &(len as u32).to_le_bytes());
        at = self.put(at, &seq.to_le_bytes());
        at = self.put(at, &t_us.to_le_bytes());
        at = self.put_str(at, kind);
        at = self.put_str(at, label);
        at = self.put(at, &(data.len() as u16).to_le_bytes());
        for (name, value) in data {
            at = self.put_str(at, clip(name));
            at = self.put(at, &value.to_le_bytes());
        }
        self.used += len;
        self.count += 1;
    }

    fn decode(&self) -> Vec<FlightEvent> {
        let mut at = self.head;
        (0..self.count)
            .map(|_| {
                let len = u32::from_le_bytes(self.get(at)) as usize;
                let mut field = at + 20;
                let event = FlightEvent {
                    seq: u64::from_le_bytes(self.get(at + 4)),
                    t_us: u64::from_le_bytes(self.get(at + 12)),
                    kind: self.get_str(&mut field),
                    label: self.get_str(&mut field),
                    data: {
                        let n = u16::from_le_bytes(self.get(field));
                        field += 2;
                        (0..n)
                            .map(|_| {
                                let name = self.get_str(&mut field);
                                field += 8;
                                (name, f64::from_le_bytes(self.get(field - 8)))
                            })
                            .collect()
                    },
                };
                at += len;
                event
            })
            .collect()
    }
}

/// Everything but span closes.
static FLIGHT: Mutex<Ring> = Mutex::new(Ring::new(FLIGHT_CAP));
/// Span closes, recorded only while [`set_span_events`] is on: an untraced
/// process never allocates this ring.
static SPANS: Mutex<Ring> = Mutex::new(Ring::new(SPAN_CAP));
static SPAN_EVENTS: AtomicBool = AtomicBool::new(false);

/// The instant every `t_us` in the process counts from.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn record_into(ring: &Mutex<Ring>, kind: &str, label: &str, data: &[(&str, f64)]) {
    let t_us = epoch().elapsed().as_micros() as u64;
    ring.lock().unwrap().push(t_us, kind, label, data);
}

/// Append one event to the flight ring. After the first event this
/// allocates nothing.
pub fn record_event(kind: &str, label: &str, data: &[(&str, f64)]) {
    record_into(&FLIGHT, kind, label, data);
}

/// Turn span events on or off (off by default). While on, every span close
/// feeds the `span.<leaf>` wall-time histogram (per-iteration `iter` spans
/// thus yield iteration-latency percentiles) and appends a `span` event —
/// full path, `wall_ns`, the closing thread's `tid` — to the span ring,
/// which [`dump_all_jsonl`](crate::dump_all_jsonl) and
/// [`to_chrome_trace`](crate::to_chrome_trace) render. While off, a span
/// close costs one relaxed load here.
pub fn set_span_events(on: bool) {
    epoch(); // before any span that will be timed against it opens
    SPAN_EVENTS.store(on, Ordering::Relaxed);
}

/// Called by every span close with the region's full path.
pub(crate) fn span_closed(path: &str, wall_ns: u64) {
    if !SPAN_EVENTS.load(Ordering::Relaxed) {
        return;
    }
    let leaf = path.rsplit('/').next().unwrap_or(path);
    crate::metrics::record_span_wall(leaf, wall_ns);
    let tid = thread_ordinal() as f64;
    record_into(
        &SPANS,
        "span",
        path,
        &[("wall_ns", wall_ns as f64), ("tid", tid)],
    );
}

/// `tid` → name of every thread that has closed a span with span events on.
/// Survives every reset.
pub(crate) static THREAD_NAMES: Mutex<BTreeMap<u64, String>> = Mutex::new(BTreeMap::new());

/// This thread's `tid` in span events: a process-lifetime ordinal, named
/// (the thread's own name, or `thread-<ordinal>`) when it is assigned so
/// that every `tid` a span event carries has a name in the Chrome trace.
fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ORDINAL: u64 = {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{n}"));
            THREAD_NAMES.lock().unwrap().insert(n, name);
            n
        };
    }
    ORDINAL.with(|t| *t)
}

/// Copy the retained flight events, oldest first.
pub fn flight_snapshot() -> Vec<FlightEvent> {
    FLIGHT.lock().unwrap().decode()
}

/// Copy the retained span events, oldest first.
pub(crate) fn span_snapshot() -> Vec<FlightEvent> {
    SPANS.lock().unwrap().decode()
}

/// Number of events evicted from the flight ring so far.
pub fn flight_dropped() -> u64 {
    FLIGHT.lock().unwrap().dropped
}

/// Number of span events evicted from the span ring so far.
pub fn span_dropped() -> u64 {
    SPANS.lock().unwrap().dropped
}

/// Forget the flight events and their counters.
pub fn flight_reset() {
    *FLIGHT.lock().unwrap() = Ring::new(FLIGHT_CAP);
}

/// Forget the span events and their counters ([`reset`](crate::reset)
/// does, with the region registry).
pub(crate) fn span_reset() {
    *SPANS.lock().unwrap() = Ring::new(SPAN_CAP);
}

/// Render events as `qcd-metrics/v1` JSONL, one `flight` line each.
pub(crate) fn events_jsonl(events: &[FlightEvent]) -> String {
    events
        .iter()
        .map(|ev| {
            let data = ev.data.iter().map(|(k, v)| (k.clone(), Json::Num(*v)));
            line(
                "flight",
                vec![
                    ("seq".into(), Json::Num(ev.seq as f64)),
                    ("t_us".into(), Json::Num(ev.t_us as f64)),
                    ("kind".into(), Json::Str(ev.kind.clone())),
                    ("label".into(), Json::Str(ev.label.clone())),
                    ("data".into(), Json::Obj(data.collect())),
                ],
            )
        })
        .collect()
}

/// Render the retained flight events as `qcd-metrics/v1` JSONL.
pub fn flight_dump_jsonl() -> String {
    events_jsonl(&flight_snapshot())
}

/// Serialize tests (and tools) that assert on or reset the process-global
/// state: the region registry, the metric registry, either ring, the span
/// events switch. Not reentrant — a holder must not call another taker
/// (`bench::probe` is one). Poisoning is ignored: a panicking test must
/// not cascade.
pub fn global_test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(i: usize) {
        record_event("kind", &format!("event {i}"), &[("i", i as f64)]);
    }

    #[test]
    fn the_oldest_events_are_evicted_first_and_counted() {
        let _guard = global_test_lock();
        flight_reset();
        (0..FLIGHT_CAP + 10).for_each(event);
        let events = flight_snapshot();
        assert_eq!(events.len(), FLIGHT_CAP);
        assert_eq!(flight_dropped(), 10);
        for (k, ev) in events.iter().enumerate() {
            assert_eq!(ev.seq, 10 + k as u64);
            assert_eq!(
                (ev.kind.as_str(), &ev.label),
                ("kind", &format!("event {}", 10 + k))
            );
            assert_eq!(ev.data, vec![("i".to_string(), (10 + k) as f64)]);
        }
        assert!(events.windows(2).all(|w| w[0].t_us <= w[1].t_us));
        // A reset forgets events and counters, and recording goes on.
        flight_reset();
        assert_eq!((flight_snapshot().len(), flight_dropped()), (0, 0));
        event(7);
        assert_eq!(flight_snapshot()[0].seq, 0);
    }

    #[test]
    fn large_events_spill_and_evict_by_bytes() {
        let _guard = global_test_lock();
        flight_reset();
        // 1000-byte labels: the ring holds about 500 of them, not 4096, and
        // every one it holds is whole.
        let label = |i: usize| format!("{i:04}").repeat(250);
        for i in 0..1000 {
            record_event(
                "big",
                &label(i),
                &[("i", i as f64), ("twice", 2.0 * i as f64)],
            );
        }
        let events = flight_snapshot();
        assert!(
            (400..600).contains(&events.len()),
            "{} events",
            events.len()
        );
        assert_eq!(flight_dropped() as usize + events.len(), 1000);
        for (ev, i) in events.iter().zip(1000 - events.len()..) {
            assert_eq!((ev.seq, &ev.label), (i as u64, &label(i)));
            assert_eq!(ev.data[1], ("twice".to_string(), 2.0 * i as f64));
        }
    }

    #[test]
    fn an_oversized_event_is_cut_not_lost() {
        let _guard = global_test_lock();
        flight_reset();
        // Longer than a stored string, cut inside a two-byte character;
        // more data pairs than an event stores.
        let label = "é".repeat(MAX_STR);
        let names: Vec<String> = (0..MAX_DATA + 5).map(|i| format!("d{i}")).collect();
        let data: Vec<(&str, f64)> = names.iter().map(|n| (n.as_str(), 1.5)).collect();
        record_event(&"k".repeat(3 * MAX_STR), &label, &data);
        event(1);
        let events = flight_snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, "k".repeat(MAX_STR));
        assert_eq!(events[0].label, "é".repeat(MAX_STR / 2));
        assert_eq!(events[0].data.len(), MAX_DATA);
        assert_eq!(
            events[0].data[MAX_DATA - 1],
            (format!("d{}", MAX_DATA - 1), 1.5)
        );
        assert_eq!(events[1].label, "event 1");
        assert!(crate::validate_jsonl(&flight_dump_jsonl()).is_ok());
    }

    #[test]
    fn span_closes_evict_each_other_and_nothing_else() {
        let _guard = global_test_lock();
        flight_reset();
        crate::reset();
        record_event("farm.done", "job 1", &[("units", 3.0)]);
        record_event("hmc.trajectory", "accept", &[("dh", 0.01)]);
        set_span_events(true);
        for _ in 0..SPAN_CAP + 1 {
            let _span = crate::span!("ring.filler");
        }
        set_span_events(false);
        // In one shared ring the two events were the first to go.
        let kept = flight_snapshot();
        for kind in ["farm.done", "hmc.trajectory"] {
            assert!(kept.iter().any(|e| e.kind == kind), "{kind} was evicted");
        }
        assert_eq!(flight_dropped(), 0);
        assert_eq!((span_snapshot().len(), span_dropped()), (SPAN_CAP, 1));
        let last = span_snapshot().pop().expect("a full ring");
        assert_eq!(
            (last.seq, last.kind.as_str(), last.label.as_str()),
            (SPAN_CAP as u64, "span", "ring.filler")
        );
        assert_eq!(last.data[1], ("tid".to_string(), thread_ordinal() as f64));
    }

    #[test]
    fn an_untraced_run_retains_no_span_events() {
        let _guard = global_test_lock();
        crate::reset();
        for _ in 0..1000 {
            let _outer = crate::span!("untraced.outer");
            let _inner = crate::span!("untraced.inner");
        }
        assert_eq!(
            crate::snapshot().region("untraced.outer").unwrap().count,
            1000
        );
        assert_eq!(SPANS.lock().unwrap().buf.capacity(), 0, "ring allocated");
        let trace = Json::parse(&crate::to_chrome_trace()).unwrap();
        let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(!events.is_empty());
        for event in events {
            assert_eq!(
                event.get("ph").and_then(Json::as_str),
                Some("M"),
                "{event:?}"
            );
        }
    }
}
