//! Shared helpers for the benchmark harness and table generators.
//!
//! [`profile`] builds the registry-backed (`qcd-trace`) profiles behind the
//! `wilson_report` and `table_inst_counts` binaries, including their
//! `--json` export in the `qcd-trace/v1` schema. [`doc`] is the one check,
//! differ and renderer of a bench document; the `*_bench` modules are the
//! runners that build one each (or a section of one) and its gates.

pub mod comms_bench;
pub mod deflate_bench;
pub mod doc;
pub mod farm_bench;
pub mod hmc_bench;
pub mod precision_bench;
pub mod profile;
pub mod solver_bench;

use grid::prelude::*;
use grid::Coor;

/// Run `work` under a uniquely named span and return, with its result, the
/// `(flops, bytes moved)` that the spans it opened — those whose path below
/// the probe satisfies `keep` — credited to the registry: the trace-span
/// models of the bench documents. The unique parent makes the subtree sum
/// race-free against concurrent telemetry; `qcd_trace::global_test_lock`
/// keeps a concurrent `qcd_trace::reset` (a profile build under test) from
/// wiping the subtree before it is read back — so a caller must not hold it.
pub fn probe<T>(work: impl FnOnce() -> T, keep: impl Fn(&str) -> bool) -> (T, u64, u64) {
    static SPAN_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let id = SPAN_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let name = format!("bench.probe.{id}");
    let prefix = format!("{name}/");
    let _guard = qcd_trace::global_test_lock();
    let span = qcd_trace::SpanGuard::enter(&name, None);
    let result = work();
    let _ = span.finish();
    let (flops, bytes) = qcd_trace::snapshot()
        .regions
        .iter()
        .filter_map(|(path, stat)| path.strip_prefix(&prefix).map(|below| (below, stat)))
        .filter(|(below, _)| keep(below))
        .fold((0, 0), |(f, b), (_, stat)| {
            (f + stat.flops, b + stat.bytes_read + stat.bytes_written)
        });
    (result, flops, bytes)
}

/// Deterministic interleaved complex test data.
pub fn interleaved(n: usize, phase: f64) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.377 + phase).sin() * 2.0 - 0.25)
        .collect()
}

/// The vector lengths every sweep uses: the paper's three plus the
/// future-work widths.
pub fn sweep_vls() -> [VectorLength; 5] {
    VectorLength::sweep()
}

/// The report header line naming the SIMD word a grid kernel holds at `vl`:
/// `word bytes: 64 (VL512)`. The number comes out of the width dispatch
/// itself ([`grid::sized!`]), so a log shows what the timed kernels ran on.
pub fn word_bytes_line(vl: VectorLength) -> String {
    let eng = SimdEngine::<f64>::new(std::sync::Arc::new(SveCtx::new(vl)), SimdBackend::Fcmla);
    let bytes = grid::sized!(&eng, |w| std::mem::size_of_val(&w.zero()));
    format!("word bytes: {bytes} ({vl:?})")
}

/// Standard benchmark lattice (paper-scale lattices don't fit a functional
/// simulator; shape-preserving 4^3 x 8).
pub const BENCH_LATTICE: Coor = [4, 4, 4, 8];

/// Render a markdown-ish table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_are_consistent() {
        assert_eq!(interleaved(8, 0.0).len(), 8);
        assert_eq!(sweep_vls().len(), 5);
        assert_eq!(
            word_bytes_line(VectorLength::of(512)),
            "word bytes: 64 (VL512)"
        );
    }
}
