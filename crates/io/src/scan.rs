//! Checkpoint-directory scanning: the crash-recovery entry point.
//!
//! A long-running service (the `qcd-farm` scheduler) owns a directory of
//! `qcd-io` containers — chain snapshots, solver checkpoints, job records.
//! After a crash it must answer "what work exists, and how far had it
//! got?" without trusting a single byte that has not been CRC-validated.
//! [`scan_checkpoints`] walks the directory once and classifies every
//! regular file:
//!
//! * fully valid containers become [`CheckpointEntry`]s with
//!   `crc_valid = true` — safe to resume from;
//! * containers that lose framing, truncate, or fail a CRC mid-stream are
//!   *salvaged*: if the records read before the fault identify the
//!   checkpoint kind, the entry is still returned with
//!   `crc_valid = false` (identify, never resume), otherwise the file
//!   lands in [`ScanReport::skipped`] with its typed [`IoError`];
//! * stale `*.tmp` files — the debris of an atomic write cut down by a
//!   crash — are collected separately and are safe to delete.
//!
//! Every skipped or salvaged file is surfaced as a warning on stderr and a
//! `farm.scan.skip` flight event, so a recovery that silently dropped work
//! is visible in the postmortem dump.

use crate::checkpoint::{decode_scalars, STATE_SCALARS};
use crate::container::{ContainerReader, Record};
use crate::error::{IoError, Result};
use crate::hmc::{HmcChainState, HMC_HISTORY_RECORD, HMC_RECORD};
use std::fs::File;
use std::path::{Path, PathBuf};

/// What kind of work a checkpoint container belongs to, detected from the
/// record types it carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointKind {
    /// An HMC Markov-chain snapshot (`hmc.chain` record set).
    HmcChain,
    /// A Conjugate Gradient recurrence state, one right-hand side or a
    /// block (`state.scalars`).
    SolverState,
    /// A valid container of an unrecognised record set (e.g. a plain field
    /// archive, or an application-level record like a farm job spec). The
    /// first record type is carried so callers can dispatch on it.
    Other(String),
}

impl CheckpointKind {
    /// Stable lowercase name (status JSON, log lines).
    pub fn name(&self) -> &str {
        match self {
            CheckpointKind::HmcChain => "hmc-chain",
            CheckpointKind::SolverState => "solver-state",
            CheckpointKind::Other(t) => t,
        }
    }
}

/// One classified checkpoint file.
#[derive(Clone, Debug)]
pub struct CheckpointEntry {
    /// Full path of the container file.
    pub path: PathBuf,
    /// Job identifier — the file stem (`streams/a7.chain.qio` → `a7.chain`).
    pub job_id: String,
    /// Detected checkpoint kind.
    pub kind: CheckpointKind,
    /// Progress marker: completed trajectories (HMC), iterations of the
    /// slowest right-hand side (solver states), `0` for
    /// [`CheckpointKind::Other`].
    pub progress: u64,
    /// Whether every record in the file validated. Only a `true` entry may
    /// be resumed; a `false` one was salvaged from a damaged file and is
    /// good for identification only.
    pub crc_valid: bool,
}

/// A file the scan could not classify at all.
#[derive(Debug)]
pub struct SkippedCheckpoint {
    /// The offending file.
    pub path: PathBuf,
    /// Why it was rejected.
    pub error: IoError,
}

/// Everything [`scan_checkpoints`] found in one directory pass.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Classified checkpoints, sorted by `job_id` (then path) so recovery
    /// order is deterministic.
    pub entries: Vec<CheckpointEntry>,
    /// Unreadable or unidentifiable files, with their typed errors.
    pub skipped: Vec<SkippedCheckpoint>,
    /// Stale `*.tmp` files from torn atomic writes — safe to delete.
    pub stale_tmp: Vec<PathBuf>,
}

/// Classify the records read so far; `None` when nothing identifies them.
fn classify(records: &[Record]) -> Option<(CheckpointKind, u64)> {
    let find = |t: &str| records.iter().find(|r| r.rtype == t);
    if let Some(chain) = find(HMC_RECORD) {
        // Prefer the full parse (validated trajectory); fall back to the
        // chain record's own trajectory if the history record is gone.
        let progress = find(HMC_HISTORY_RECORD)
            .and_then(|h| HmcChainState::from_records(chain, h).ok())
            .or_else(|| HmcChainState::from_chain_record(chain).ok())
            .map_or(0, |state| state.trajectory);
        return Some((CheckpointKind::HmcChain, progress));
    }
    if let Some(r) = find(STATE_SCALARS) {
        let progress = decode_scalars(&r.payload)
            .map(|s| s.iterations.into_iter().max().unwrap_or(0) as u64)
            .unwrap_or(0);
        return Some((CheckpointKind::SolverState, progress));
    }
    records
        .first()
        .map(|r| (CheckpointKind::Other(r.rtype.clone()), 0))
}

/// Read records until the stream ends or a fault surfaces; the error (if
/// any) is returned alongside whatever validated before it.
fn read_until_fault(path: &Path) -> (Vec<Record>, Option<IoError>) {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) => return (Vec::new(), Some(e.into())),
    };
    let mut reader = match ContainerReader::new(file) {
        Ok(r) => r,
        Err(e) => return (Vec::new(), Some(e)),
    };
    let mut records = Vec::new();
    loop {
        match reader.next_record() {
            Ok(Some(r)) => records.push(r),
            Ok(None) => return (records, None),
            Err(e) => return (records, Some(e)),
        }
    }
}

fn warn_skip(path: &Path, error: &IoError, salvaged: bool) {
    let what = if salvaged {
        "salvaged (identify-only)"
    } else {
        "skipped"
    };
    eprintln!(
        "warning: checkpoint scan {what} {}: {error}",
        path.display()
    );
    qcd_trace::counter("farm.scan.skipped").inc();
    qcd_trace::record_event(
        "farm.scan.skip",
        &format!("{}: {}", path.display(), error.variant_name()),
        &[("salvaged", salvaged as u8 as f64)],
    );
}

/// Scan `dir` for `qcd-io` checkpoint containers and classify every
/// regular file (see the module docs for the full contract). Subdirectories
/// are not descended into. The only `Err` return is failing to read the
/// directory itself — per-file damage never aborts a recovery scan.
pub fn scan_checkpoints(dir: &Path) -> Result<ScanReport> {
    let _span = qcd_trace::span!("io.scan");
    let mut report = ScanReport::default();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .inspect_err(|e| {
            crate::record_io_error(&IoError::Io(std::io::Error::new(e.kind(), e.to_string())))
        })?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    for path in paths {
        if path.extension().is_some_and(|e| e == "tmp") {
            report.stale_tmp.push(path);
            continue;
        }
        let (records, fault) = read_until_fault(&path);
        let job_id = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        match (classify(&records), fault) {
            (Some((kind, progress)), fault) => {
                if let Some(e) = &fault {
                    warn_skip(&path, e, true);
                }
                report.entries.push(CheckpointEntry {
                    path,
                    job_id,
                    kind,
                    progress,
                    crc_valid: fault.is_none(),
                });
            }
            (None, Some(error)) => {
                warn_skip(&path, &error, false);
                report.skipped.push(SkippedCheckpoint { path, error });
            }
            (None, None) => {
                // A valid but empty container: nothing to identify it by.
                let error = IoError::MissingRecord {
                    record: "any".to_string(),
                };
                warn_skip(&path, &error, false);
                report.skipped.push(SkippedCheckpoint { path, error });
            }
        }
    }
    report
        .entries
        .sort_by(|a, b| a.job_id.cmp(&b.job_id).then_with(|| a.path.cmp(&b.path)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpointer;
    use crate::container::Container;
    use crate::fault::{Fault, FaultyWriter};
    use grid::prelude::*;
    use std::io::Write;
    use std::sync::Arc;

    fn grid4() -> Arc<Grid> {
        Grid::new([4, 4, 4, 4], VectorLength::of(128), SimdBackend::Fcmla)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qcd-io-scan-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_chain(dir: &Path, name: &str, trajectory: u64) -> Vec<u8> {
        let g = grid4();
        let links = grid::tensor::su3::random_gauge(g.clone(), 7 + trajectory);
        let state = crate::hmc::HmcChainState {
            beta: 5.6,
            step_size: 0.1,
            n_steps: 4,
            integrator: 0,
            seed: 11,
            trajectory,
            accepted: trajectory,
            rejected: 0,
            dh_history: vec![0.25; trajectory as usize],
            accept_history: vec![true; trajectory as usize],
        };
        let rng = StreamRng::from_state(3, trajectory);
        crate::hmc::write_hmc_chain(&state, &rng, &links, &dir.join(name)).unwrap();
        std::fs::read(dir.join(name)).unwrap()
    }

    #[test]
    fn classifies_chain_and_solver_checkpoints() {
        let dir = tmp_dir("kinds");
        write_chain(&dir, "s0.chain.qio", 3);
        let g = grid4();
        let op = WilsonDirac::new(grid::tensor::su3::random_gauge(g.clone(), 9), 0.25);
        let b = FermionField::random(g.clone(), 5);
        let path = dir.join("j1.solve.qio");
        let mut every_second = Checkpointer::every(2, &path);
        let _ = grid::krylov::cg_solve(
            &mut grid::krylov::fused(&op, &mut FermionField::zero(g.clone())),
            &b,
            grid::krylov::Start::Zero,
            1e-10,
            3,
            qcd_trace::span!("test.solve"),
            "test.solve",
            every_second.observer(),
        );
        assert_eq!(every_second.finish().unwrap(), 1);

        let report = scan_checkpoints(&dir).unwrap();
        assert!(report.skipped.is_empty(), "{:?}", report.skipped);
        assert_eq!(report.entries.len(), 2);
        // Sorted by job id: j1 before s0.
        assert_eq!(report.entries[0].job_id, "j1.solve");
        assert_eq!(report.entries[0].kind, CheckpointKind::SolverState);
        assert_eq!(report.entries[0].progress, 2);
        assert!(report.entries[0].crc_valid);
        assert_eq!(report.entries[1].job_id, "s0.chain");
        assert_eq!(report.entries[1].kind, CheckpointKind::HmcChain);
        assert_eq!(report.entries[1].progress, 3);
        assert!(report.entries[1].crc_valid);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_file_is_salvaged_identify_only() {
        // Rewrite a valid chain through the fault harness, cutting the
        // stream inside the trailing links record: the scalar records
        // validate, so the scan identifies the chain but marks it
        // un-resumable.
        let dir = tmp_dir("torn");
        let bytes = write_chain(&dir, "s0.chain.qio", 5);
        let cut = bytes.len() as u64 - 1000;
        let torn = File::create(dir.join("s1.chain.qio")).unwrap();
        let mut w = FaultyWriter::new(torn, Fault::TruncateAfter { bytes: cut });
        w.write_all(&bytes).unwrap();
        w.flush().unwrap();

        let report = scan_checkpoints(&dir).unwrap();
        assert_eq!(report.entries.len(), 2);
        let torn_entry = report
            .entries
            .iter()
            .find(|e| e.job_id == "s1.chain")
            .expect("torn chain identified");
        assert_eq!(torn_entry.kind, CheckpointKind::HmcChain);
        assert_eq!(torn_entry.progress, 5);
        assert!(!torn_entry.crc_valid, "a torn file must not claim validity");
        assert!(report
            .entries
            .iter()
            .any(|e| e.job_id == "s0.chain" && e.crc_valid));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_chain_without_its_history_keeps_its_trajectory() {
        // The history record is gone, so the full parse fails; the chain
        // record alone still names the kind and the trajectory.
        let dir = tmp_dir("no-history");
        write_chain(&dir, "s0.chain.qio", 4);
        let mut c = Container::open(&dir.join("s0.chain.qio")).unwrap();
        c.records.retain(|r| r.rtype != HMC_HISTORY_RECORD);
        c.write_atomic(&dir.join("s0.chain.qio")).unwrap();

        let report = scan_checkpoints(&dir).unwrap();
        assert!(report.skipped.is_empty(), "{:?}", report.skipped);
        assert_eq!(report.entries.len(), 1);
        assert_eq!(report.entries[0].kind, CheckpointKind::HmcChain);
        assert_eq!(report.entries[0].progress, 4);
        assert!(report.entries[0].crc_valid);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_head_is_skipped_with_a_typed_error() {
        let dir = tmp_dir("corrupt");
        let bytes = write_chain(&dir, "good.qio", 2);
        // Bit-flip inside the first record's payload: CRC fails before
        // anything identifies the file.
        let bad = File::create(dir.join("bad.qio")).unwrap();
        let mut w = FaultyWriter::new(bad, Fault::BitFlip { offset: 40, bit: 3 });
        w.write_all(&bytes).unwrap();
        w.flush().unwrap();
        // Garbage that is not a container at all.
        std::fs::write(dir.join("noise.qio"), b"not a checkpoint").unwrap();

        let report = scan_checkpoints(&dir).unwrap();
        assert_eq!(report.entries.len(), 1);
        assert_eq!(report.entries[0].job_id, "good");
        assert_eq!(report.skipped.len(), 2);
        assert!(report.skipped.iter().any(|s| matches!(
            s.error,
            IoError::CrcMismatch { .. } | IoError::BadRecordMark { .. }
        )));
        assert!(report
            .skipped
            .iter()
            .any(|s| matches!(s.error, IoError::BadMagic { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_files_are_collected_not_classified() {
        let dir = tmp_dir("tmp");
        write_chain(&dir, "s0.chain.qio", 1);
        std::fs::write(dir.join("s0.chain.qio.tmp"), b"torn atomic write").unwrap();
        let report = scan_checkpoints(&dir).unwrap();
        assert_eq!(report.entries.len(), 1);
        assert_eq!(report.stale_tmp.len(), 1);
        assert!(report.skipped.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_but_valid_containers_surface_as_other() {
        let dir = tmp_dir("other");
        let mut c = Container::new();
        c.push(Record::new("farm.job", b"spec".to_vec()));
        c.write_atomic(&dir.join("job7.qio")).unwrap();
        let report = scan_checkpoints(&dir).unwrap();
        assert_eq!(report.entries.len(), 1);
        assert_eq!(
            report.entries[0].kind,
            CheckpointKind::Other("farm.job".into())
        );
        assert_eq!(report.entries[0].kind.name(), "farm.job");
        assert!(report.entries[0].crc_valid);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_an_error_empty_directory_is_not() {
        let dir = tmp_dir("empty");
        assert!(scan_checkpoints(&dir.join("absent")).is_err());
        let report = scan_checkpoints(&dir).unwrap();
        assert!(report.entries.is_empty() && report.skipped.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
