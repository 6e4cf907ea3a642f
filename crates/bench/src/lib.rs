//! Shared helpers for the benchmark harness and table generators.
//!
//! [`profile`] builds the registry-backed (`qcd-trace`) profiles behind the
//! `wilson_report` and `table_inst_counts` binaries, including their
//! `--json` export in the `qcd-trace/v1` schema.

pub mod comms_bench;
pub mod deflate_bench;
pub mod diff;
pub mod hmc_bench;
pub mod precision_bench;
pub mod profile;
pub mod solver_bench;

use grid::prelude::*;
use grid::Coor;

/// The `qcd-trace` registry is process-global; anything that calls
/// `qcd_trace::reset()` (profile builds, the HMC benchmark) serialises on
/// this lock so concurrent resets cannot shear each other's snapshots.
pub fn registry_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
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

/// A compact sweep for wall-clock benchmarks.
pub fn bench_vls() -> [VectorLength; 3] {
    [
        VectorLength::of(128),
        VectorLength::of(512),
        VectorLength::of(2048),
    ]
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

/// Build a Wilson operator + source on a random gauge background.
pub fn wilson_setup(
    dims: Coor,
    vl: VectorLength,
    backend: SimdBackend,
) -> (WilsonDirac, FermionField) {
    let g = Grid::new(dims, vl, backend);
    let u = random_gauge(g.clone(), 1001);
    let b = FermionField::random(g.clone(), 1002);
    (WilsonDirac::new(u, 0.25), b)
}

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
        let (op, b) = wilson_setup([4, 4, 4, 4], VectorLength::of(256), SimdBackend::Fcmla);
        assert!(b.norm2() > 0.0);
        assert!(op.mass > 0.0);
    }
}
