//! What the harness reads from the host: clocks, `/proc`, and the reference
//! kernel every timing is normalised by.
//!
//! **Why timings are normalised.** On the shared 2-vCPU sandbox this
//! benchmark is sized for, the same binary runs up to 1.6× slower for tens
//! of seconds at a time while a neighbour is busy; the median wall time of a
//! 15-second window moves by 5–9 % between runs with nothing changed. A
//! fixed, harness-owned kernel run immediately before and after every timed
//! region slows down by nearly the same factor, so each sample is reported
//! as `raw × REF_NOMINAL_S / reference`, "seconds at the host speed at which
//! the reference slice takes [`REF_NOMINAL_S`]". That quantity repeats to
//! 2–6 % between runs (README.md has the table). The kernel lives in this file and calls nothing
//! of the stack, so a change to the stack moves a normalised time exactly as
//! much as it moves the raw one. Raw seconds are printed beside every
//! normalised figure.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// Duration of one reference slice on this sandbox's host when nothing else
/// contends for it (first quartile of the slices of quiet runs). A
/// normalised second equals a raw second exactly when the host runs at this
/// speed.
pub const REF_NOMINAL_S: f64 = 0.0130;

/// Parts one reference slice is timed in.
const SLICE_PARTS: usize = 4;

/// A reference slice measured longer ago than this is stale: the host's
/// speed changes on the scale of seconds, a timed region may follow its
/// opening slice only this closely.
const REF_FRESH_S: f64 = 0.05;

#[derive(Clone, Copy)]
struct Reg([u8; 256]);

/// Working set of the reference kernel. Three kinds of work, a third of the
/// time each, chosen to slow down with the host the way the functional model
/// does: dependent floating-point chains, by-value 256-byte register copies
/// with a per-lane predicate test and a relaxed atomic bump per operation,
/// and a 2 MiB streaming pass that leaves the first-level caches.
pub struct RefKernel {
    blocks: Vec<[u8; 256]>,
    regs: Vec<Reg>,
    stream: Vec<u64>,
    /// Operation tallies, one kernel's own: two kernels running side by
    /// side share no cache line.
    counters: [AtomicU64; 8],
    /// Always true; loaded before every tally as the model loads its
    /// "counting enabled" flag.
    counting: AtomicBool,
}

#[inline(never)]
fn reg_op(a: Reg, b: Reg, c: Reg, pred: &[u8; 32]) -> Reg {
    let mut out = c;
    for (l, &active) in pred.iter().enumerate().take(8) {
        if active != 0 {
            let at = l * 8..l * 8 + 8;
            let x = f64::from_le_bytes(a.0[at.clone()].try_into().expect("8 bytes"));
            let y = f64::from_le_bytes(b.0[at.clone()].try_into().expect("8 bytes"));
            let z = f64::from_le_bytes(c.0[at.clone()].try_into().expect("8 bytes"));
            out.0[at].copy_from_slice(&x.mul_add(y, z * 0.5).to_le_bytes());
        }
    }
    out
}

impl RefKernel {
    fn new() -> Self {
        RefKernel {
            blocks: vec![[0u8; 256]; 256],
            regs: vec![Reg([1u8; 256]); 512],
            stream: vec![1u64; 1 << 18],
            counters: [const { AtomicU64::new(0) }; 8],
            counting: AtomicBool::new(true),
        }
    }

    /// A kernel whose working set is paged in: its first timed slice is
    /// as fast as every later one.
    pub fn warmed() -> Self {
        let mut kernel = RefKernel::new();
        let _ = kernel.slice();
        kernel
    }

    /// One slice: [`SLICE_PARTS`] equal parts timed one by one, reported as
    /// the fastest part times their number — about [`REF_NOMINAL_S`]. The
    /// host's interruptions are short and only ever add time, so the fastest
    /// of four parts says how fast the host runs between them, which is the
    /// speed a unit hundreds of milliseconds long averages over anyway.
    pub fn slice(&mut self) -> f64 {
        let parts: [f64; SLICE_PARTS] = std::array::from_fn(|_| {
            let t = Instant::now();
            self.part();
            t.elapsed().as_secs_f64()
        });
        SLICE_PARTS as f64 * parts.into_iter().fold(f64::INFINITY, f64::min)
    }

    /// One part of a slice: a fixed amount of work, about 3 ms long.
    fn part(&mut self) {
        // Dependent fused-multiply-add chains through 64 KiB of blocks.
        let mut acc = [1.0f64; 8];
        let n = self.blocks.len();
        for r in 0..130 {
            for i in 0..n {
                let mut v = self.blocks[(i * 7 + r) % n];
                for (l, a) in acc.iter_mut().enumerate() {
                    let at = l * 8..l * 8 + 8;
                    let x = f64::from_le_bytes(v[at.clone()].try_into().expect("8 bytes"));
                    *a = a.mul_add(0.999_999, x * 1e-9);
                    v[at].copy_from_slice(&a.to_le_bytes());
                }
                self.blocks[i] = v;
                self.counters[0].fetch_add(1, Ordering::Relaxed);
            }
        }
        black_box(acc);
        // Register-file traffic in the functional model's style.
        let pred = [1u8; 32];
        let n = self.regs.len();
        for r in 0..62 {
            for i in 0..n {
                let a = self.regs[(i + 1) % n];
                let b = self.regs[(i * 5 + r) % n];
                if self.counting.load(Ordering::Relaxed) {
                    self.counters[i & 7].fetch_add(1, Ordering::Relaxed);
                }
                self.regs[i] = reg_op(a, b, self.regs[i], &pred);
            }
        }
        black_box(self.regs[0].0[0]);
        // Streaming pass over 2 MiB.
        let mut s = 0u64;
        let n = self.stream.len();
        for r in 0..13u64 {
            for i in 0..n / 2 {
                let v = self.stream[i]
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(r);
                self.stream[n / 2 + i] = v;
                s = s.wrapping_add(v);
            }
            self.stream.swap(0, n - 1);
        }
        black_box(s);
    }
}

/// A helper thread that runs reference slices in step with the harness
/// thread, so that the reference for a two-thread workload needs both
/// virtual CPUs just as the workload does.
struct Partner {
    /// `None` once dropped: closing the channel ends the helper's loop.
    go: Option<mpsc::Sender<()>>,
    done: mpsc::Receiver<f64>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Partner {
    fn spawn() -> Partner {
        let (go, go_rx) = mpsc::channel::<()>();
        let (done_tx, done) = mpsc::channel::<f64>();
        let thread = std::thread::spawn(move || {
            let mut kernel = RefKernel::warmed();
            while go_rx.recv().is_ok() {
                if done_tx.send(kernel.slice()).is_err() {
                    break;
                }
            }
        });
        Partner {
            go: Some(go),
            done,
            thread: Some(thread),
        }
    }

    fn start_slice(&self) {
        self.go
            .as_ref()
            .expect("the helper lives as long as the meter")
            .send(())
            .expect("reference helper thread is alive");
    }

    fn wait_slice(&self) -> f64 {
        self.done.recv().expect("reference helper thread is alive")
    }
}

impl Drop for Partner {
    fn drop(&mut self) {
        self.go = None;
        if let Some(t) = self.thread.take() {
            // A panic in the helper already surfaced in `wait_slice`.
            let _ = t.join();
        }
    }
}

/// One timed region.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Wall seconds as the clock read them.
    pub raw_s: f64,
    /// Wall seconds at the nominal host speed (see the module docs).
    pub norm_s: f64,
    /// Process user+system CPU seconds over the region, normalised the same
    /// way. Resolution is one clock tick (10 ms).
    pub cpu_s: f64,
    /// The reference slices before and after the region.
    pub ref_s: (f64, f64),
}

/// Times regions of the harness thread, bracketing each with reference
/// slices.
pub struct Meter {
    kernel: RefKernel,
    threads: usize,
    partner: Option<Partner>,
    /// When the last slice ended, how long it took, on how many threads.
    last_ref: Option<(Instant, f64, usize)>,
    /// Every reference slice measured, for the run's report.
    pub ref_slices: Vec<f64>,
}

impl Meter {
    pub fn new() -> Meter {
        Meter {
            kernel: RefKernel::warmed(),
            threads: 1,
            partner: None,
            last_ref: None,
            ref_slices: Vec::new(),
        }
    }

    /// Declare how many threads the regions timed from now on keep busy
    /// (1 or 2); the reference slices use as many.
    pub fn set_threads(&mut self, threads: usize) {
        assert!((1..=2).contains(&threads), "one or two compute threads");
        self.threads = threads;
        if threads > 1 && self.partner.is_none() {
            self.partner = Some(Partner::spawn());
        }
    }

    fn reference(&mut self) -> f64 {
        let partner = self.partner.as_ref().filter(|_| self.threads > 1);
        if let Some(p) = partner {
            p.start_slice();
        }
        let own = self.kernel.slice();
        // Two threads: the mean of what each saw while both were running.
        let s = match partner {
            Some(p) => 0.5 * (own + p.wait_slice()),
            None => own,
        };
        self.last_ref = Some((Instant::now(), s, self.threads));
        self.ref_slices.push(s);
        s
    }

    /// Time `f`. The reference before it is the slice that closed the
    /// previous region when that is fresh, a new one otherwise.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Sample) {
        let before = match self.last_ref {
            Some((at, s, threads))
                if threads == self.threads && at.elapsed().as_secs_f64() < REF_FRESH_S =>
            {
                s
            }
            _ => self.reference(),
        };
        let cpu0 = cpu_seconds();
        let t = Instant::now();
        let out = f();
        let raw_s = t.elapsed().as_secs_f64();
        let cpu_raw = cpu_seconds() - cpu0;
        let after = self.reference();
        let scale = REF_NOMINAL_S / (0.5 * (before + after));
        (
            out,
            Sample {
                raw_s,
                norm_s: raw_s * scale,
                cpu_s: cpu_raw * scale,
                ref_s: (before, after),
            },
        )
    }
}

/// Process user+system CPU seconds so far, all threads, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s on Linux).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("Linux serves /proc/self/stat");
    // The command name (field 2) may contain spaces; fields resume after
    // the closing parenthesis.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|s| s.parse::<f64>().expect("utime and stime are numbers"))
        .sum();
    ticks / 100.0
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("Linux serves /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kib / 1024.0
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One line identifying the machine and toolchain a result came from.
pub fn fingerprint() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, m)| m.trim().to_string())
        .unwrap_or_else(|| "unknown cpu".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    format!(
        "cpu=\"{model}\" nproc={} kernel={} rustc=\"{}\" stackbench={}",
        nproc(),
        kernel.trim(),
        env!("STACKBENCH_RUSTC"),
        env!("CARGO_PKG_VERSION"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_positive() {
        let c0 = cpu_seconds();
        let mut k = RefKernel::new();
        for _ in 0..5 {
            let _ = k.slice();
        }
        assert!(cpu_seconds() >= c0);
        assert!(peak_rss_mib() > 0.0);
        assert!(nproc() >= 1);
    }

    #[test]
    fn meter_normalises_by_the_bracketing_slices() {
        for threads in [1, 2] {
            let mut m = Meter::new();
            m.set_threads(threads);
            let (v, s) = m.time(|| 41 + 1);
            assert_eq!(v, 42);
            assert!(s.raw_s >= 0.0 && s.norm_s >= 0.0);
            // Two slices bracket the first region; the second region reuses
            // the closing one.
            assert_eq!(m.ref_slices.len(), 2);
            m.time(|| ());
            assert_eq!(m.ref_slices.len(), 3);
        }
    }
}
