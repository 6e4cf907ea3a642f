//! Timing helpers shared by the runs in `main.rs` and the probes in
//! `stack.rs`: a [`Meter`] and a span [`Recorder`] used together.

use crate::host::{Meter, Sample};
use crate::spans::Recorder;
use crate::stats::median;
use std::time::Instant;

/// Target length of one probe batch. Long enough that the bracketing
/// reference slices see the same host speed, short enough that 40 probes
/// of three batches fit in a few seconds.
const BATCH_S: f64 = 0.02;
const BATCHES: usize = 3;

pub struct Harness {
    pub meter: Meter,
    pub spans: Recorder,
}

impl Harness {
    pub fn new(tracing: bool) -> Harness {
        Harness {
            meter: Meter::new(),
            spans: Recorder::new(tracing),
        }
    }

    /// Run `f` inside a span called `span`.
    pub fn scope<T>(&mut self, span: &str, f: impl FnOnce(&mut Harness) -> T) -> T {
        let id = self.spans.enter(span);
        let out = f(self);
        self.spans.exit(id);
        out
    }

    /// Time one call of `f` inside a span called `span`.
    pub fn timed<T>(&mut self, span: &str, f: impl FnOnce() -> T) -> (T, Sample) {
        self.scope(span, |h| h.meter.time(f))
    }

    /// Normalised nanoseconds per call of `f`: the median of a few batches,
    /// each a fixed number of calls sized to last about [`BATCH_S`], all
    /// inside one span called `span`.
    pub fn probe(&mut self, span: &str, mut f: impl FnMut()) -> f64 {
        self.scope(span, |h| {
            let meter = &mut h.meter;
            // Size the batch (this also warms caches and lazy state up).
            let mut calls = 1usize;
            let per_call = loop {
                let t = Instant::now();
                for _ in 0..calls {
                    f();
                }
                let s = t.elapsed().as_secs_f64();
                if s >= BATCH_S / 10.0 || calls >= 1 << 24 {
                    break s / calls as f64;
                }
                calls *= 4;
            };
            let calls = ((BATCH_S / per_call).ceil() as usize).clamp(1, 1 << 26);
            let batches: Vec<f64> = (0..BATCHES)
                .map(|_| {
                    let ((), s) = meter.time(|| {
                        for _ in 0..calls {
                            f();
                        }
                    });
                    s.norm_s / calls as f64 * 1e9
                })
                .collect();
            median(&batches)
        })
    }
}
