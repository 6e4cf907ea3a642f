//! The flight recorder: a bounded ring of structured events for postmortem.
//!
//! Long runs append events (span closes, solver health events, `qcd-io`
//! faults, checkpoint writes, HMC accept/reject) into a fixed-capacity ring;
//! when something goes wrong the last [`FLIGHT_CAP`] events are dumped as
//! `qcd-metrics/v1` JSONL. Recording is a short critical section on a global
//! mutex guarded by an atomic enable flag, so disabled recording costs one
//! relaxed load.
//!
//! Events are stored *encoded*, as length-prefixed records in one byte
//! buffer that is allocated when the first event arrives and never again:
//! recording an event copies its strings and numbers into the buffer and
//! touches the allocator not at all. (Events used to be kept as
//! [`FlightEvent`]s — two `String`s and a `Vec` each. Interleaved with the
//! fields a solve allocates and frees, those small long-lived blocks pinned
//! heap pages: 16 KiB of resident memory per ladder solve, 9 MiB by the
//! time the ring was full.) [`flight_snapshot`] decodes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use qcd_trace::{Json, SpanClose};

use crate::SCHEMA;

/// Capacity of the flight-recorder ring in events; older events are dropped
/// first. The ring is also bounded in bytes, at 128 per event of capacity:
/// events that average more than that (the stack's own are 60–120 bytes
/// encoded) evict older ones sooner, and [`flight_dropped`] counts those too.
pub const FLIGHT_CAP: usize = 4096;

/// Bytes of encoded events the ring holds.
const RING_BYTES: usize = FLIGHT_CAP * 128;
/// Longest kind, label or data name stored, in bytes; a longer one is cut
/// at a character boundary and the event is kept.
const MAX_STR: usize = 1024;
/// Most data pairs stored per event; further ones are cut.
const MAX_DATA: usize = 32;

/// One recorded event.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightEvent {
    /// Monotonic sequence number (never reset by ring eviction, so gaps
    /// reveal how much history was dropped).
    pub seq: u64,
    /// Microseconds since the recorder first started.
    pub t_us: u64,
    /// Event class: `span`, `health`, `io.error`, `checkpoint.write`,
    /// `hmc.trajectory`, `sampler.frame`, ...
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
    /// [`RING_BYTES`] once the first event has arrived, empty before.
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
    /// Copy `bytes` in at offset `at` (wrapping); the offset after them.
    fn put(&mut self, at: usize, bytes: &[u8]) -> usize {
        let at = at % RING_BYTES;
        let first = bytes.len().min(RING_BYTES - at);
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
        std::array::from_fn(|i| self.buf[(at + i) % RING_BYTES])
    }

    fn get_str(&self, at: &mut usize) -> String {
        let len = usize::from(u16::from_le_bytes(self.get(*at)));
        let bytes: Vec<u8> = (0..len)
            .map(|i| self.buf[(*at + 2 + i) % RING_BYTES])
            .collect();
        *at += 2 + len;
        String::from_utf8(bytes).expect("the ring holds what `push` encoded from `&str`s")
    }

    /// Drop the oldest event.
    fn evict(&mut self) {
        let len = u32::from_le_bytes(self.get(self.head)) as usize;
        self.head = (self.head + len) % RING_BYTES;
        self.used -= len;
        self.count -= 1;
        self.dropped += 1;
    }

    fn push(&mut self, t_us: u64, kind: &str, label: &str, data: &[(&str, f64)]) {
        if self.buf.is_empty() {
            self.buf = vec![0; RING_BYTES];
        }
        let (kind, label) = (clip(kind), clip(label));
        let data = &data[..data.len().min(MAX_DATA)];
        let strings =
            kind.len() + label.len() + data.iter().map(|(k, _)| clip(k).len()).sum::<usize>();
        // At most 4 + 16 + 2 + 2 + 2 + 32 * 10 + 34 * 1024 bytes: it fits.
        let len = 4 + 16 + 2 + 2 + 2 + data.len() * (2 + 8) + strings;
        while self.count == FLIGHT_CAP || RING_BYTES - self.used < len {
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

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| {
        Mutex::new(Ring {
            buf: Vec::new(),
            head: 0,
            used: 0,
            count: 0,
            next_seq: 0,
            dropped: 0,
        })
    })
}

static ENABLED: AtomicBool = AtomicBool::new(true);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turn the recorder on or off (on by default). The bench overhead probe
/// measures the enabled/disabled wall-time ratio through this switch.
pub fn set_flight_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether the recorder currently accepts events.
pub fn flight_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Append one event to the ring (dropped silently while disabled). After
/// the first event this allocates nothing.
pub fn record_event(kind: &str, label: &str, data: &[(&str, f64)]) {
    if !flight_enabled() {
        return;
    }
    let t_us = epoch().elapsed().as_micros() as u64;
    ring().lock().unwrap().push(t_us, kind, label, data);
}

/// Copy the retained events, oldest first.
pub fn flight_snapshot() -> Vec<FlightEvent> {
    ring().lock().unwrap().decode()
}

/// Number of events evicted from the ring so far.
pub fn flight_dropped() -> u64 {
    ring().lock().unwrap().dropped
}

/// Clear the ring and its counters.
pub fn flight_reset() {
    let mut ring = ring().lock().unwrap();
    (ring.head, ring.used, ring.count) = (0, 0, 0);
    ring.next_seq = 0;
    ring.dropped = 0;
}

/// Render the retained events as `qcd-metrics/v1` JSONL, one event per line.
pub fn flight_dump_jsonl() -> String {
    let mut out = String::new();
    for ev in flight_snapshot() {
        let data: Vec<(String, Json)> = ev
            .data
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect();
        let line = Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("type".into(), Json::Str("flight".into())),
            ("seq".into(), Json::Num(ev.seq as f64)),
            ("t_us".into(), Json::Num(ev.t_us as f64)),
            ("kind".into(), Json::Str(ev.kind.clone())),
            ("label".into(), Json::Str(ev.label.clone())),
            ("data".into(), Json::Obj(data)),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    out
}

/// Install the `qcd-trace` span observer: every span close becomes a
/// `span` flight event and feeds the `span.<leaf>` wall-time histogram
/// (per-iteration `iter` spans thus yield iteration-latency percentiles).
/// Idempotent.
pub fn install_span_observer() {
    qcd_trace::set_span_observer(Some(Arc::new(|close: &SpanClose| {
        if !flight_enabled() {
            return;
        }
        let leaf = close.path.rsplit('/').next().unwrap_or(&close.path);
        crate::histogram(&format!("span.{leaf}")).record(close.wall_ns);
        record_event(
            "span",
            &close.path,
            &[("wall_ns", close.wall_ns as f64), ("tid", close.tid as f64)],
        );
    })));
}

/// Remove the span observer installed by [`install_span_observer`].
pub fn uninstall_span_observer() {
    qcd_trace::set_span_observer(None);
}

/// Serialize tests (and tools) that assert on the global ring, registry, or
/// observer. Poisoning is ignored: a panicking test must not cascade.
pub fn global_test_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
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
}
