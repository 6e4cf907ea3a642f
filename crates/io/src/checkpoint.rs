//! Solver checkpoints: snapshot an in-flight Krylov solve, kill the
//! process, restore, and converge to the *same* residual.
//!
//! The invariant the format guarantees is bit-exactness of the restored
//! state: field iterates are stored at [`Precision::F64`] (lossless through
//! `peek`/`poke`), and recurrence scalars (`r2`, `b_norm2`, `rho`, the
//! residual history) are stored as raw IEEE-754 bit patterns, never through
//! a decimal round trip. A resumed Conjugate Gradient therefore produces
//! the identical iteration sequence the uninterrupted solve would have —
//! the resume-equivalence tests compare final residual *bits*.
//!
//! Three solvers checkpoint, with per-solver record sets:
//!
//! * CG ([`CgState`]): `cg.scalars` + fields `cg.x`, `cg.r`, `cg.p`.
//! * BiCGStab ([`BicgStabState`]): `bi.scalars` + fields `bi.x`, `bi.r`,
//!   `bi.r0`, `bi.p`.
//! * Mixed precision: `mx.scalars` + field `mx.x` — defect correction is
//!   self-correcting, so the double-precision iterate alone is a complete
//!   checkpoint.

use crate::container::{Container, Record};
use crate::error::{IoError, Result};
use crate::fields::{decode_field, encode_field, Cursor, FieldMeta, META_RECORD};
use grid::codec::Precision;
use grid::krylov::{self, Allocating, Layout, Start};
use grid::prelude::{
    BicgStabState, BlockCgState, BlockSolveReport, CgState, SolveReport, WilsonDirac,
};
use grid::solver::bicgstab_from_state;
use grid::{Complex, FermionBlock, FermionField, Grid};
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::Arc;

/// Record holding the CG recurrence scalars.
pub const CG_SCALARS: &str = "cg.scalars";
/// Record holding the BiCGStab recurrence scalars.
pub const BI_SCALARS: &str = "bi.scalars";
/// Record holding the mixed-precision outer-loop counters.
pub const MX_SCALARS: &str = "mx.scalars";
/// Record holding the block-CG recurrence scalars (all right-hand sides).
pub const BLK_SCALARS: &str = "blk.scalars";

fn push_f64_bits(out: &mut Vec<u8>, x: f64) {
    out.extend_from_slice(&x.to_bits().to_le_bytes());
}

fn push_history(out: &mut Vec<u8>, history: &[f64]) {
    out.extend_from_slice(&(history.len() as u64).to_le_bytes());
    for &h in history {
        push_f64_bits(out, h);
    }
}

fn read_history(cur: &mut Cursor<'_>) -> Result<Vec<f64>> {
    let n = cur.u64("history length")? as usize;
    let mut history = Vec::with_capacity(n);
    for _ in 0..n {
        history.push(f64::from_bits(cur.u64("history entry")?));
    }
    Ok(history)
}

fn field_record(name: &str, f: &FermionField) -> Record {
    Record::new(name, encode_field(f, Precision::F64))
}

fn load_field(
    c: &Container,
    meta: &FieldMeta,
    name: &str,
    grid: &Arc<Grid<f64>>,
) -> Result<FermionField> {
    decode_field(meta, &c.expect(name)?.payload, grid, name)
}

/// Snapshot an in-flight CG solve to `path` (atomic write).
pub fn save_cg(state: &CgState, path: &Path) -> Result<u64> {
    let meta = FieldMeta::of(&state.x, Precision::F64);
    let mut scalars = Vec::new();
    scalars.extend_from_slice(&(state.iterations as u64).to_le_bytes());
    push_f64_bits(&mut scalars, state.r2);
    push_f64_bits(&mut scalars, state.b_norm2);
    push_history(&mut scalars, &state.history);
    let mut c = Container::new();
    c.push(Record::new(META_RECORD, meta.encode()));
    c.push(Record::new(CG_SCALARS, scalars));
    c.push(field_record("cg.x", &state.x));
    c.push(field_record("cg.r", &state.r));
    c.push(field_record("cg.p", &state.p));
    c.write_atomic(path)
}

/// Restore a CG snapshot written by [`save_cg`] onto `grid`.
pub fn load_cg(path: &Path, grid: &Arc<Grid<f64>>) -> Result<CgState> {
    let c = Container::open(path)?;
    let meta = FieldMeta::decode(&c.expect(META_RECORD)?.payload, META_RECORD)?;
    let scalars = &c.expect(CG_SCALARS)?.payload;
    let mut cur = Cursor::new(scalars, CG_SCALARS);
    let iterations = cur.u64("iteration count")? as usize;
    let r2 = f64::from_bits(cur.u64("r2")?);
    let b_norm2 = f64::from_bits(cur.u64("b_norm2")?);
    let history = read_history(&mut cur)?;
    cur.done()?;
    Ok(CgState {
        x: load_field(&c, &meta, "cg.x", grid)?,
        r: load_field(&c, &meta, "cg.r", grid)?,
        p: load_field(&c, &meta, "cg.p", grid)?,
        r2,
        b_norm2,
        iterations,
        history,
    })
}

/// Snapshot an in-flight BiCGStab solve to `path` (atomic write).
pub fn save_bicgstab(state: &BicgStabState, path: &Path) -> Result<u64> {
    let meta = FieldMeta::of(&state.x, Precision::F64);
    let mut scalars = Vec::new();
    scalars.extend_from_slice(&(state.iterations as u64).to_le_bytes());
    push_f64_bits(&mut scalars, state.rho.re);
    push_f64_bits(&mut scalars, state.rho.im);
    push_f64_bits(&mut scalars, state.b_norm2);
    push_history(&mut scalars, &state.history);
    let mut c = Container::new();
    c.push(Record::new(META_RECORD, meta.encode()));
    c.push(Record::new(BI_SCALARS, scalars));
    c.push(field_record("bi.x", &state.x));
    c.push(field_record("bi.r", &state.r));
    c.push(field_record("bi.r0", &state.r0));
    c.push(field_record("bi.p", &state.p));
    c.write_atomic(path)
}

/// Restore a BiCGStab snapshot written by [`save_bicgstab`] onto `grid`.
pub fn load_bicgstab(path: &Path, grid: &Arc<Grid<f64>>) -> Result<BicgStabState> {
    let c = Container::open(path)?;
    let meta = FieldMeta::decode(&c.expect(META_RECORD)?.payload, META_RECORD)?;
    let scalars = &c.expect(BI_SCALARS)?.payload;
    let mut cur = Cursor::new(scalars, BI_SCALARS);
    let iterations = cur.u64("iteration count")? as usize;
    let rho = Complex {
        re: f64::from_bits(cur.u64("rho.re")?),
        im: f64::from_bits(cur.u64("rho.im")?),
    };
    let b_norm2 = f64::from_bits(cur.u64("b_norm2")?);
    let history = read_history(&mut cur)?;
    cur.done()?;
    Ok(BicgStabState {
        x: load_field(&c, &meta, "bi.x", grid)?,
        r: load_field(&c, &meta, "bi.r", grid)?,
        r0: load_field(&c, &meta, "bi.r0", grid)?,
        p: load_field(&c, &meta, "bi.p", grid)?,
        rho,
        b_norm2,
        iterations,
        history,
    })
}

/// Checkpoint of a mixed-precision defect-correction solve: the current
/// double-precision iterate plus progress counters.
#[derive(Clone)]
pub struct MixedCheckpoint {
    /// The double-precision iterate — a complete restart point, because the
    /// outer loop recomputes the defect from scratch each round.
    pub x: FermionField,
    /// Outer correction rounds completed before the snapshot.
    pub outer_done: usize,
    /// Inner single-precision iterations spent before the snapshot.
    pub inner_done: usize,
}

/// Snapshot a mixed-precision solve to `path` (atomic write).
pub fn save_mixed(ck: &MixedCheckpoint, path: &Path) -> Result<u64> {
    let meta = FieldMeta::of(&ck.x, Precision::F64);
    let mut scalars = Vec::new();
    scalars.extend_from_slice(&(ck.outer_done as u64).to_le_bytes());
    scalars.extend_from_slice(&(ck.inner_done as u64).to_le_bytes());
    let mut c = Container::new();
    c.push(Record::new(META_RECORD, meta.encode()));
    c.push(Record::new(MX_SCALARS, scalars));
    c.push(field_record("mx.x", &ck.x));
    c.write_atomic(path)
}

/// Restore a mixed-precision snapshot written by [`save_mixed`].
pub fn load_mixed(path: &Path, grid: &Arc<Grid<f64>>) -> Result<MixedCheckpoint> {
    let c = Container::open(path)?;
    let meta = FieldMeta::decode(&c.expect(META_RECORD)?.payload, META_RECORD)?;
    let scalars = &c.expect(MX_SCALARS)?.payload;
    let mut cur = Cursor::new(scalars, MX_SCALARS);
    let outer_done = cur.u64("outer rounds")? as usize;
    let inner_done = cur.u64("inner iterations")? as usize;
    cur.done()?;
    Ok(MixedCheckpoint {
        x: load_field(&c, &meta, "mx.x", grid)?,
        outer_done,
        inner_done,
    })
}

/// Snapshot an in-flight block CG solve to `path` (atomic write). The
/// per-RHS recurrence scalars go to [`BLK_SCALARS`] as raw IEEE-754 bits;
/// the three block iterates are stored one field record per right-hand
/// side (`blk.x.<i>`, `blk.r.<i>`, `blk.p.<i>`), so the on-disk format
/// stays portable across vector lengths like every other field record.
pub fn save_block_cg(state: &BlockCgState, path: &Path) -> Result<u64> {
    let nrhs = state.nrhs();
    let meta = FieldMeta::of(&state.x.rhs_field(0), Precision::F64);
    let mut scalars = Vec::new();
    scalars.extend_from_slice(&(nrhs as u64).to_le_bytes());
    for j in 0..nrhs {
        scalars.extend_from_slice(&(state.iterations[j] as u64).to_le_bytes());
        push_f64_bits(&mut scalars, state.r2[j]);
        push_f64_bits(&mut scalars, state.b_norm2[j]);
        push_history(&mut scalars, &state.histories[j]);
    }
    let mut c = Container::new();
    c.push(Record::new(META_RECORD, meta.encode()));
    c.push(Record::new(BLK_SCALARS, scalars));
    for j in 0..nrhs {
        c.push(field_record(&format!("blk.x.{j}"), &state.x.rhs_field(j)));
        c.push(field_record(&format!("blk.r.{j}"), &state.r.rhs_field(j)));
        c.push(field_record(&format!("blk.p.{j}"), &state.p.rhs_field(j)));
    }
    c.write_atomic(path)
}

/// Restore a block CG snapshot written by [`save_block_cg`] onto `grid`.
pub fn load_block_cg(path: &Path, grid: &Arc<Grid<f64>>) -> Result<BlockCgState> {
    let c = Container::open(path)?;
    let meta = FieldMeta::decode(&c.expect(META_RECORD)?.payload, META_RECORD)?;
    let scalars = &c.expect(BLK_SCALARS)?.payload;
    let mut cur = Cursor::new(scalars, BLK_SCALARS);
    let nrhs = cur.u64("RHS count")? as usize;
    if nrhs == 0 {
        return Err(IoError::BadRecord {
            record: BLK_SCALARS.to_string(),
            msg: "a block checkpoint needs at least one right-hand side".to_string(),
        });
    }
    let mut iterations = Vec::with_capacity(nrhs);
    let mut r2 = Vec::with_capacity(nrhs);
    let mut b_norm2 = Vec::with_capacity(nrhs);
    let mut histories = Vec::with_capacity(nrhs);
    for _ in 0..nrhs {
        iterations.push(cur.u64("iteration count")? as usize);
        r2.push(f64::from_bits(cur.u64("r2")?));
        b_norm2.push(f64::from_bits(cur.u64("b_norm2")?));
        histories.push(read_history(&mut cur)?);
    }
    cur.done()?;
    let load_block = |stem: &str| -> Result<FermionBlock> {
        let fields = (0..nrhs)
            .map(|j| load_field(&c, &meta, &format!("{stem}.{j}"), grid))
            .collect::<Result<Vec<_>>>()?;
        Ok(FermionBlock::from_fields(&fields))
    };
    Ok(BlockCgState {
        x: load_block("blk.x")?,
        r: load_block("blk.r")?,
        p: load_block("blk.p")?,
        r2,
        b_norm2,
        iterations,
        histories,
    })
}

/// The checkpoint-every-k observer state shared by the three checkpointed
/// solves: counts snapshots, and holds the first write error — the
/// observer breaks the solve on it and the caller returns it.
struct Snapshots {
    every: usize,
    written: usize,
    error: Option<IoError>,
}

impl Snapshots {
    fn every(every: usize) -> Self {
        assert!(every > 0, "checkpoint interval must be positive");
        Snapshots {
            every,
            written: 0,
            error: None,
        }
    }

    /// After iteration `count`: write a snapshot if one is due.
    fn after(&mut self, count: usize, save: impl FnOnce() -> Result<u64>) -> ControlFlow<()> {
        if count.is_multiple_of(self.every) {
            match save() {
                Ok(_) => self.written += 1,
                Err(e) => {
                    self.error = Some(e);
                    return ControlFlow::Break(());
                }
            }
        }
        ControlFlow::Continue(())
    }

    fn finish<T, R>(self, solved: (T, R)) -> Result<(T, R, usize)> {
        match self.error {
            Some(e) => Err(e),
            None => Ok((solved.0, solved.1, self.written)),
        }
    }
}

/// Run the block CG recurrence from `state` — `BlockCgState::new(b)` or a
/// state from [`load_block_cg`] — to convergence, writing an atomic
/// snapshot every `every` sweeps of this run. The restored run replays the
/// identical per-RHS iteration sequence the uninterrupted solve would have
/// — the active mask is *derived* from the checkpointed per-RHS scalars,
/// so convergence masking survives the round trip bit-exactly.
pub fn block_cg_checkpointed(
    op: &WilsonDirac,
    b: &FermionBlock,
    state: BlockCgState,
    tol: f64,
    max_iter: usize,
    every: usize,
    path: &Path,
) -> Result<(FermionBlock, BlockSolveReport, usize)> {
    let mut snapshots = Snapshots::every(every);
    for (j, (&stored, recomputed)) in state.b_norm2.iter().zip(b.norms2()).enumerate() {
        if recomputed.to_bits() != stored.to_bits() {
            return Err(IoError::BadRecord {
                record: BLK_SCALARS.to_string(),
                msg: format!(
                    "right-hand side {j} does not match the checkpoint \
                     (|b|² {recomputed} vs stored {stored})"
                ),
            });
        }
    }
    let grid = b.grid().clone();
    let mut tmp = FermionBlock::zero(grid.clone(), b.nrhs());
    let mut space = Layout::new(
        |p: &FermionBlock, ap: &mut FermionBlock, curv: &mut [f64]| {
            curv.copy_from_slice(&op.mdag_m_block_into_dot(p, &mut tmp, ap));
        },
    );
    let mut sweeps = 0;
    let solved = krylov::cg_solve(
        &mut space,
        b,
        Start::State(state),
        tol,
        max_iter,
        qcd_trace::span!("solver.block_cg", grid.engine().ctx()),
        "solver.block_cg",
        |state: &BlockCgState, _| {
            sweeps += 1;
            snapshots.after(sweeps, || save_block_cg(state, path))
        },
    );
    snapshots.finish(solved)
}

/// Resume a block CG solve from the snapshot at `path` and run it to
/// convergence, continuing to checkpoint every `every` iterations.
pub fn resume_block_cg(
    op: &WilsonDirac,
    b: &FermionBlock,
    tol: f64,
    max_iter: usize,
    every: usize,
    path: &Path,
) -> Result<(FermionBlock, BlockSolveReport, usize)> {
    let state = load_block_cg(path, b.grid())?;
    block_cg_checkpointed(op, b, state, tol, max_iter, every, path)
}

/// Check that a resumed solve is continuing against the same right-hand
/// side it was checkpointed with: `|b|²` is recomputed deterministically,
/// so the bits must match exactly.
fn validate_rhs(stored_b_norm2: f64, b: &FermionField, record: &str) -> Result<()> {
    if b.norm2().to_bits() != stored_b_norm2.to_bits() {
        return Err(IoError::BadRecord {
            record: record.to_string(),
            msg: format!(
                "right-hand side does not match the checkpoint (|b|² {} vs stored {})",
                b.norm2(),
                stored_b_norm2
            ),
        });
    }
    Ok(())
}

/// Run CG on any hermitian positive-definite `apply` from `state` —
/// `CgState::new(b)` or a state from [`load_cg`] — to convergence, writing
/// an atomic snapshot whenever the total iteration count reaches a
/// multiple of `every`. Returns the snapshot count alongside the usual
/// solve result.
pub fn cg_checkpointed(
    apply: impl Fn(&FermionField) -> FermionField,
    b: &FermionField,
    state: CgState,
    tol: f64,
    max_iter: usize,
    every: usize,
    path: &Path,
) -> Result<(FermionField, SolveReport, usize)> {
    let mut snapshots = Snapshots::every(every);
    validate_rhs(state.b_norm2, b, CG_SCALARS)?;
    let grid = b.grid().clone();
    let (x, report) = krylov::cg_solve(
        &mut Allocating::new(grid.clone(), apply),
        b,
        Start::State(state),
        tol,
        max_iter,
        qcd_trace::span!("solver.cg", grid.engine().ctx()),
        "solver.cg",
        |state: &CgState, _| snapshots.after(state.iterations, || save_cg(state, path)),
    );
    snapshots.finish((x, report.into_single()))
}

/// Resume a CG solve from the snapshot at `path` and run it to
/// convergence, continuing to checkpoint every `every` iterations.
pub fn resume_cg(
    apply: impl Fn(&FermionField) -> FermionField,
    b: &FermionField,
    tol: f64,
    max_iter: usize,
    every: usize,
    path: &Path,
) -> Result<(FermionField, SolveReport, usize)> {
    let state = load_cg(path, b.grid())?;
    cg_checkpointed(apply, b, state, tol, max_iter, every, path)
}

/// BiCGStab analogue of [`cg_checkpointed`].
pub fn bicgstab_checkpointed_from(
    op: &WilsonDirac,
    b: &FermionField,
    state: BicgStabState,
    tol: f64,
    max_iter: usize,
    every: usize,
    path: &Path,
) -> Result<(FermionField, SolveReport, usize)> {
    let mut snapshots = Snapshots::every(every);
    validate_rhs(state.b_norm2, b, BI_SCALARS)?;
    let solved = bicgstab_from_state(op, b, state, tol, max_iter, |state| {
        snapshots.after(state.iterations, || save_bicgstab(state, path))
    });
    snapshots.finish(solved)
}

/// Resume a BiCGStab solve from the snapshot at `path`.
pub fn resume_bicgstab(
    op: &WilsonDirac,
    b: &FermionField,
    tol: f64,
    max_iter: usize,
    every: usize,
    path: &Path,
) -> Result<(FermionField, SolveReport, usize)> {
    let state = load_bicgstab(path, b.grid())?;
    bicgstab_checkpointed_from(op, b, state, tol, max_iter, every, path)
}
