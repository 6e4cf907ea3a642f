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

use grid::prelude::*;
use qcd_io::{cg_checkpointed, read_gauge, resume_cg, write_gauge, Fault, FaultyWriter};
use std::io::Write;

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
    let apply = |v: &FermionField| op.mdag_m(v);
    let (tol, max_iter) = (1e-10, 2000);

    // Reference: the solve nothing interrupts (the fused path; the closure
    // path the checkpoints run on is bit-identical to it).
    let (x_ref, ref_report) = cg(&op, &b, tol, max_iter);
    println!(
        "uninterrupted CG : {} iterations, residual {:.3e}",
        ref_report.iterations, ref_report.residual
    );

    // "Node failure": cap the iteration budget at 14; the snapshot written
    // at iteration 10 (checkpoint interval 5) is what survives on disk.
    let ckpt = dir.join("cg.qio");
    let (_, partial, snaps) =
        cg_checkpointed(apply, &b, CgState::new(&b), tol, 14, 5, &ckpt).unwrap();
    println!(
        "killed CG        : stopped at iteration {} ({snaps} snapshots written)",
        partial.iterations
    );

    // Restart: restore the state and finish the job.
    let (x, resumed, _) = resume_cg(apply, &b, tol, max_iter, 50, &ckpt).unwrap();
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
