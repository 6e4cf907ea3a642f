//! Solver checkpoints: snapshot an in-flight Krylov solve, kill the
//! process, restore, and converge to the *same* residual.
//!
//! The invariant the format guarantees is bit-exactness of the restored
//! state: field iterates are stored at [`Precision::F64`] (lossless through
//! `peek`/`poke`), and recurrence scalars (`r2`, `b_norm2`, the residual
//! history) are stored as raw IEEE-754 bit patterns, never through a
//! decimal round trip. A resumed Conjugate Gradient therefore produces the
//! identical iteration sequence the uninterrupted solve would have — the
//! resume-equivalence tests compare final residual *bits*.
//!
//! There is one record family, for the one recurrence state
//! ([`grid::krylov::State`]) of any stored vector: [`STATE_SCALARS`] (the
//! RHS count, then per right-hand side the iteration count, `|r|²`, `|b|²`
//! and the count-prefixed history) plus one field record per iterate and
//! stored field, `state.x.<j>`, `state.r.<j>`, `state.p.<j>` — one per
//! right-hand side of a field or a block, one per slice of a 5-d fermion —
//! portable across vector lengths like every other field record.
//!
//! Durability is not a solver: [`Checkpointer::observer`] is handed to
//! `krylov::cg_solve` in *any* space over stored vectors, and
//! [`resume`] turns the file back into the `Start` of the same call. A
//! mixed-precision ladder needs neither — its checkpoint is the f64 iterate
//! alone (`write_field` / `read_field`), because defect correction is
//! self-correcting.

use crate::container::{Container, Record};
use crate::error::{IoError, Result};
use crate::fields::{decode_field, encode_field, Cursor, FieldMeta, Writer, META_RECORD};
use grid::codec::Precision;
use grid::field::Field;
use grid::krylov::{Start, State, Stored};
use grid::Grid;
use qcd_trace::HealthMonitor;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Record holding the recurrence scalars of every right-hand side.
pub const STATE_SCALARS: &str = "state.scalars";

/// The iterates of a state, as their record-name stems.
const ITERATES: [&str; 3] = ["state.x", "state.r", "state.p"];

fn bad_scalars(msg: String) -> IoError {
    IoError::BadRecord {
        record: STATE_SCALARS.to_string(),
        msg,
    }
}

/// The per-RHS scalars of a [`State`], decoded.
pub(crate) struct Scalars {
    pub(crate) iterations: Vec<usize>,
    r2: Vec<f64>,
    b_norm2: Vec<f64>,
    histories: Vec<Vec<f64>>,
}

/// Decode a [`STATE_SCALARS`] payload. Every count is checked against the
/// bytes that follow it before it sizes anything.
pub(crate) fn decode_scalars(payload: &[u8]) -> Result<Scalars> {
    let mut cur = Cursor::new(payload, STATE_SCALARS);
    // Per RHS at least: iterations, r2, b_norm2, history length.
    let nrhs = cur.count("right-hand-side count", 32)?;
    if nrhs == 0 {
        return Err(bad_scalars(
            "a solver checkpoint needs at least one right-hand side".to_string(),
        ));
    }
    let mut s = Scalars {
        iterations: Vec::with_capacity(nrhs),
        r2: Vec::with_capacity(nrhs),
        b_norm2: Vec::with_capacity(nrhs),
        histories: Vec::with_capacity(nrhs),
    };
    for _ in 0..nrhs {
        s.iterations.push(cur.u64("iteration count")? as usize);
        s.r2.push(cur.f64("r2")?);
        s.b_norm2.push(cur.f64("b_norm2")?);
        let n = cur.count("history length", 8)?;
        let history = (0..n).map(|_| cur.f64("history entry"));
        s.histories.push(history.collect::<Result<_>>()?);
    }
    cur.done()?;
    Ok(s)
}

/// Snapshot an in-flight CG solve — one field, a block or a 5-d fermion —
/// to `path` (atomic write): the scalars per right-hand side, one record
/// per stored field of each iterate, at [`Precision::F64`], which holds
/// every narrower element type exactly.
pub fn save_state<V: Stored>(state: &State<V>, path: &Path) -> Result<u64> {
    let nrhs = state.nrhs();
    let mut scalars = Writer::default();
    scalars.u64(nrhs as u64);
    for j in 0..nrhs {
        scalars.u64(state.iterations[j] as u64);
        scalars.f64(state.r2[j]);
        scalars.f64(state.b_norm2[j]);
        scalars.u64(state.histories[j].len() as u64);
        for &h in &state.histories[j] {
            scalars.f64(h);
        }
    }
    let mut c = Container::new();
    let meta = FieldMeta::of(&state.x.field().rhs_field(0), Precision::F64);
    c.push(Record::new(META_RECORD, meta.encode()));
    c.push(Record::new(STATE_SCALARS, scalars.0));
    for (stem, v) in ITERATES.iter().zip([&state.x, &state.r, &state.p]) {
        for j in 0..v.field().width() {
            let field = encode_field(&v.field().rhs_field(j), Precision::F64);
            c.push(Record::new(&format!("{stem}.{j}"), field));
        }
    }
    c.write_atomic(path)
}

/// Restore a snapshot written by [`save_state`] onto `grid`. A file of
/// another shape than `V` (a block read as one field, a 5-d fermion read
/// as either), of an older layout, or with a count its payload cannot hold
/// is a typed error.
pub fn load_state<V: Stored>(path: &Path, grid: &Arc<Grid<V::E>>) -> Result<State<V>> {
    let c = Container::open(path)?;
    let meta = FieldMeta::decode(&c.expect(META_RECORD)?.payload, META_RECORD)?;
    let s = decode_scalars(&c.expect(STATE_SCALARS)?.payload)?;
    let nrhs = s.iterations.len();
    if !V::BATCHED && nrhs != 1 {
        return Err(bad_scalars(format!(
            "the checkpoint holds {nrhs} right-hand sides, the solve being resumed has one"
        )));
    }
    // One record per stored field: as many as `state.x.<j>` records run.
    let slots = (1..)
        .find(|j| c.find(&format!("{}.{j}", ITERATES[0])).is_none())
        .expect("a container holds finitely many records");
    let load = |stem: &str| -> Result<V> {
        let fields = (0..slots)
            .map(|j| {
                let name = format!("{stem}.{j}");
                decode_field(&meta, &c.expect(&name)?.payload, grid, &name)
            })
            .collect::<Result<Vec<_>>>()?;
        V::from_field(Field::from_fields(&fields), nrhs).ok_or_else(|| {
            bad_scalars(format!(
                "the checkpoint stores {slots} fields per iterate for {nrhs} right-hand \
                 sides, which is not the shape of the vector being resumed"
            ))
        })
    };
    Ok(State {
        x: load(ITERATES[0])?,
        r: load(ITERATES[1])?,
        p: load(ITERATES[2])?,
        r2: s.r2,
        b_norm2: s.b_norm2,
        iterations: s.iterations,
        histories: s.histories,
    })
}

/// Checkpoint-every-k durability for any CG solve over stored vectors:
/// hand [`Self::observer`] to `krylov::cg_solve`, then ask [`Self::finish`]
/// what happened. A snapshot is written (atomically, to the one path)
/// whenever the total iteration count of the slowest right-hand side
/// reaches a multiple of the interval; between snapshots the observer
/// touches nothing, so the solve stays on its allocation-free path.
pub struct Checkpointer {
    every: usize,
    path: PathBuf,
    written: usize,
    error: Option<IoError>,
}

impl Checkpointer {
    /// Snapshot to `path` every `every` iterations.
    pub fn every(every: usize, path: &Path) -> Self {
        assert!(every > 0, "checkpoint interval must be positive");
        Checkpointer {
            every,
            path: path.to_path_buf(),
            written: 0,
            error: None,
        }
    }

    /// The observer: writes a snapshot when one is due, and stops the
    /// solve on the first write error (which [`Self::finish`] returns).
    pub fn observer<V: Stored>(
        &mut self,
    ) -> impl FnMut(&State<V>, &[HealthMonitor]) -> ControlFlow<()> + '_ {
        move |state, _| {
            let done = state.iterations.iter().copied().max().unwrap_or(0);
            if done.is_multiple_of(self.every) {
                match save_state(state, &self.path) {
                    Ok(_) => self.written += 1,
                    Err(e) => {
                        self.error = Some(e);
                        return ControlFlow::Break(());
                    }
                }
            }
            ControlFlow::Continue(())
        }
    }

    /// The number of snapshots written, or the error that stopped the solve.
    pub fn finish(self) -> Result<usize> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.written),
        }
    }
}

/// The start that continues the solve of `b` from the snapshot at `path`,
/// in any space. The right-hand side must be the one the snapshot was
/// taken with: `|b_j|²` is recomputed — a canonical reduction, the same
/// bits at any vector length and thread count — and must match.
pub fn resume<V: Stored>(b: &V, path: &Path) -> Result<Start<V>> {
    let state: State<V> = load_state(path, b.field().grid())?;
    let (stored, ours) = (state.x.field().width(), b.field().width());
    if stored != ours {
        return Err(bad_scalars(format!(
            "the checkpoint stores {stored} fields per iterate, the solve being resumed {ours}"
        )));
    }
    let mut b_norm2 = vec![0.0; state.nrhs()];
    if b_norm2.len() != b.nrhs() {
        return Err(bad_scalars(format!(
            "the checkpoint holds {} right-hand sides, the solve being resumed has {}",
            b_norm2.len(),
            b.nrhs()
        )));
    }
    b.norms2_into(&mut b_norm2);
    for (j, (stored, recomputed)) in state.b_norm2.iter().zip(&b_norm2).enumerate() {
        if recomputed.to_bits() != stored.to_bits() {
            return Err(bad_scalars(format!(
                "right-hand side {j} does not match the checkpoint \
                 (|b|² {recomputed} vs stored {stored})"
            )));
        }
    }
    Ok(Start::State(state))
}
