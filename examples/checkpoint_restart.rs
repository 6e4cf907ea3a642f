//! Checkpoint/restart with `qcd-io` — surviving node failure mid-campaign.
//!
//! Production lattice QCD runs last weeks on machines where nodes die
//! routinely (the Post-K/Fugaku line this paper's SVE port targets). This
//! example walks the full survivability story:
//!
//! 1. persist a gauge configuration in the `qcd-io/v1` container format
//!    and read it back with CRC + plaquette validation,
//! 2. corrupt a copy with the fault-injection layer and show the reader
//!    reports a typed error instead of returning wrong physics,
//! 3. kill a CG solve mid-flight, then resume it from the on-disk
//!    snapshot and verify it converges bit-identically to a run that was
//!    never interrupted.
//!
//! ```text
//! cargo run --release --example checkpoint_restart
//! ```

use grid::krylov::{cg_solve, fused, CgSpace, Start};
use grid::prelude::*;
use qcd_io::{read_gauge, resume, write_gauge, Checkpointer, Fault, FaultyWriter};
use std::io::Write;
use std::path::Path;

const TOL: f64 = 1e-10;

/// A durable solve is the same `cg_solve` with a checkpoint observer: a
/// snapshot to `path` every `every` iterations. Returns the solve and the
/// number of snapshots written.
fn durable_cg(
    space: &mut impl CgSpace<V = FermionField>,
    b: &FermionField,
    start: Start<FermionField>,
    budget: usize,
    every: usize,
    path: &Path,
) -> (FermionField, SolveReport, usize) {
    let mut checkpointer = Checkpointer::every(every, path);
    let span = qcd_trace::span!("solver.cg", b.grid().engine().ctx());
    let observer = checkpointer.observer();
    let (x, report) = cg_solve(space, b, start, TOL, budget, span, "solver.cg", observer);
    (x, report, checkpointer.finish().unwrap())
}

fn main() {
    let dir = std::env::temp_dir().join("qcd-io-example");
    std::fs::create_dir_all(&dir).unwrap();

    let g = Grid::new([4, 4, 4, 8], VectorLength::of(512), SimdBackend::Fcmla);
    let u = random_gauge(g.clone(), 13);

    // --- 1. Persist the gauge configuration -----------------------------
    let cfg = dir.join("config.qio");
    let bytes = write_gauge(&u, &cfg, Precision::F64).unwrap();
    let back = read_gauge(&cfg, &g).unwrap();
    println!(
        "gauge config: {bytes} bytes on disk, plaquette {:.15}\n\
         read-back validated (CRC per record + plaquette check), \
         max |diff| = {:.1e}\n",
        average_plaquette(&u),
        u.max_abs_diff(&back)
    );

    // --- 2. Corruption is detected, never silently accepted -------------
    let corrupted = dir.join("config-corrupt.qio");
    let original = std::fs::read(&cfg).unwrap();
    let mut w = FaultyWriter::new(
        std::fs::File::create(&corrupted).unwrap(),
        // Flip one bit in the middle of the gauge payload.
        Fault::BitFlip {
            offset: original.len() as u64 / 2,
            bit: 3,
        },
    );
    w.write_all(&original).unwrap();
    drop(w);
    match read_gauge(&corrupted, &g) {
        Err(e) => println!("single flipped bit -> typed error: {e}\n"),
        Ok(_) => unreachable!("corruption must not go unnoticed"),
    }

    // --- 3. Kill a solve, resume it, converge bit-identically -----------
    let op = WilsonDirac::new(u, 0.25);
    let b = FermionField::random(g.clone(), 14);
    let max_iter = 2000;

    // Reference: the solve nothing interrupts.
    let (x_ref, ref_report) = cg(&op, &b, TOL, max_iter);
    println!(
        "uninterrupted CG : {} iterations, residual {:.3e}",
        ref_report.iterations, ref_report.residual
    );

    // The space `cg` runs in: the fused sweeps, nothing allocated per
    // iteration — with or without the observer.
    let mut tmp = FermionField::zero(g.clone());
    let mut space = fused(&op, &mut tmp);
    let ckpt = dir.join("cg.qio");

    // "Node failure": cap the iteration budget at 14; the snapshot written
    // at iteration 10 (checkpoint interval 5) is what survives on disk.
    let (_, partial, snaps) = durable_cg(&mut space, &b, Start::Zero, 14, 5, &ckpt);
    println!(
        "killed CG        : stopped at iteration {} ({snaps} snapshots written)",
        partial.iterations
    );

    // Restart: restore the state and finish the job.
    let start = resume(&b, &ckpt).unwrap();
    let (x, resumed, _) = durable_cg(&mut space, &b, start, max_iter, 50, &ckpt);
    println!(
        "resumed CG       : {} total iterations, residual {:.3e}",
        resumed.iterations, resumed.residual
    );

    assert_eq!(resumed.residual.to_bits(), ref_report.residual.to_bits());
    assert_eq!(x.max_abs_diff(&x_ref), 0.0);
    println!(
        "\nresumed solve is bit-identical to the uninterrupted one:\n\
         same iteration count, same residual bits, max |x - x_ref| = 0.\n\
         Checkpoints are atomic (temp file + fsync + rename), so a crash\n\
         during the save itself leaves the previous snapshot intact."
    );
}
