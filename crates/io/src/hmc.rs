//! HMC Markov-chain checkpoints: the `qcd-io/v1` record set that lets an
//! ensemble-generation run die at trajectory `k` and resume trajectories
//! `k+1..n` bit-identically to an uninterrupted chain.
//!
//! A chain snapshot is five records in one container:
//!
//! * `meta` / `field` — the gauge links at [`Precision::F64`] (lossless),
//!   with the average plaquette stored in the metadata for physics-level
//!   validation on load (as in [`crate::fields::read_gauge`]).
//! * `hmc.chain` — the chain scalars: coupling and integrator parameters
//!   (raw IEEE-754 bit patterns, never a decimal round trip), the chain
//!   seed, the trajectory index and the accept/reject tallies.
//! * `hmc.history` — the per-trajectory record of the chain so far: `ΔH`
//!   bits and the Metropolis decision for every completed trajectory.
//! * `rng` — the Metropolis [`StreamRng`] cursor (`(seed, counter)` is the
//!   complete RNG state; Gaussian momentum refreshes are keyed off the
//!   trajectory index and need no stored state at all).
//!
//! Consistency is validated on load: the tallies must sum to the trajectory
//! index and the histories must have exactly one entry per trajectory, so a
//! container stitched together from two different runs is rejected even
//! when every individual record passes its CRC.

use crate::container::{Container, Record};
use crate::error::{IoError, Result};
use crate::fields::{
    decode_field, encode_field, rng_from_record, rng_record, Cursor, FieldMeta, Writer,
    FIELD_RECORD, META_RECORD, RNG_RECORD,
};
use grid::codec::Precision;
use grid::gauge::average_plaquette;
use grid::prelude::StreamRng;
use grid::{GaugeField, Grid};
use std::path::Path;
use std::sync::Arc;

/// Record holding the chain scalars (parameters, counters, tallies).
pub const HMC_RECORD: &str = "hmc.chain";
/// Record holding the per-trajectory `ΔH` / accept history.
pub const HMC_HISTORY_RECORD: &str = "hmc.history";

/// Everything about a Markov chain except the links and the Metropolis RNG
/// cursor: the serializable chain state of the `qcd-hmc` driver.
#[derive(Clone, Debug, PartialEq)]
pub struct HmcChainState {
    /// Wilson gauge coupling β.
    pub beta: f64,
    /// Molecular-dynamics step size ε.
    pub step_size: f64,
    /// Molecular-dynamics steps per trajectory.
    pub n_steps: u64,
    /// Integrator discriminant (0 = leapfrog, 1 = Omelyan; owned by
    /// `qcd-hmc`, opaque at this layer).
    pub integrator: u8,
    /// Chain master seed (momentum refreshes derive from it and the
    /// trajectory index).
    pub seed: u64,
    /// Completed trajectories.
    pub trajectory: u64,
    /// Metropolis accepts so far.
    pub accepted: u64,
    /// Metropolis rejects so far.
    pub rejected: u64,
    /// `ΔH` of every completed trajectory (bit-exact).
    pub dh_history: Vec<f64>,
    /// Metropolis decision of every completed trajectory.
    pub accept_history: Vec<bool>,
}

impl HmcChainState {
    /// Internal-consistency check shared by the writer and the reader.
    fn validate(&self, record: &str) -> Result<()> {
        let bad = |msg: String| {
            Err(IoError::BadRecord {
                record: record.to_string(),
                msg,
            })
        };
        if self.accepted.checked_add(self.rejected) != Some(self.trajectory) {
            return bad(format!(
                "accept/reject tallies {}+{} do not sum to trajectory {}",
                self.accepted, self.rejected, self.trajectory
            ));
        }
        if self.dh_history.len() as u64 != self.trajectory
            || self.accept_history.len() as u64 != self.trajectory
        {
            return bad(format!(
                "history lengths {}/{} disagree with trajectory {}",
                self.dh_history.len(),
                self.accept_history.len(),
                self.trajectory
            ));
        }
        if self.accept_history.iter().filter(|&&a| a).count() as u64 != self.accepted {
            return bad("accept history disagrees with the accept tally".into());
        }
        if !(self.beta.is_finite() && self.step_size > 0.0) || self.n_steps == 0 {
            return bad(format!(
                "unphysical parameters beta={} eps={} steps={}",
                self.beta, self.step_size, self.n_steps
            ));
        }
        Ok(())
    }

    /// Serialize into the `hmc.chain` and `hmc.history` records.
    pub fn to_records(&self) -> (Record, Record) {
        let mut s = Writer::default();
        s.f64(self.beta);
        s.f64(self.step_size);
        s.u64(self.n_steps);
        s.u8(self.integrator);
        s.u64(self.seed);
        s.u64(self.trajectory);
        s.u64(self.accepted);
        s.u64(self.rejected);
        let mut h = Writer::default();
        h.u64(self.dh_history.len() as u64);
        for (&dh, &acc) in self.dh_history.iter().zip(&self.accept_history) {
            h.f64(dh);
            h.u8(acc as u8);
        }
        (
            Record::new(HMC_RECORD, s.0),
            Record::new(HMC_HISTORY_RECORD, h.0),
        )
    }

    /// Rebuild from the records of [`HmcChainState::to_records`].
    pub fn from_records(chain: &Record, history: &Record) -> Result<Self> {
        let mut state = Self::from_chain_record(chain)?;
        let mut hcur = Cursor::new(&history.payload, HMC_HISTORY_RECORD);
        let n = hcur.count("history length", 9)?; // dH bits + accept flag
        state.dh_history = Vec::with_capacity(n);
        state.accept_history = Vec::with_capacity(n);
        for _ in 0..n {
            state.dh_history.push(hcur.f64("dH entry")?);
            let a = hcur.u8("accept flag")?;
            if a > 1 {
                return Err(IoError::BadRecord {
                    record: HMC_HISTORY_RECORD.to_string(),
                    msg: format!("accept flag {a} is not a boolean"),
                });
            }
            state.accept_history.push(a == 1);
        }
        hcur.done()?;
        state.validate(HMC_RECORD)?;
        Ok(state)
    }

    /// Decode the `hmc.chain` record alone — the one reader of its layout:
    /// every scalar, empty histories, nothing cross-validated.
    /// [`HmcChainState::from_records`] adds the history and validates; the
    /// recovery scan reads the trajectory of a chain whose history record
    /// is gone.
    pub(crate) fn from_chain_record(chain: &Record) -> Result<Self> {
        let mut cur = Cursor::new(&chain.payload, HMC_RECORD);
        let state = HmcChainState {
            beta: cur.f64("beta")?,
            step_size: cur.f64("step size")?,
            n_steps: cur.u64("step count")?,
            integrator: cur.u8("integrator id")?,
            seed: cur.u64("chain seed")?,
            trajectory: cur.u64("trajectory index")?,
            accepted: cur.u64("accept tally")?,
            rejected: cur.u64("reject tally")?,
            dh_history: Vec::new(),
            accept_history: Vec::new(),
        };
        cur.done()?;
        Ok(state)
    }
}

/// Snapshot a Markov chain (state + Metropolis RNG cursor + links) to
/// `path` atomically. Links go out at [`Precision::F64`] with their average
/// plaquette in the metadata — the checkpoint is lossless and
/// physics-validated on read-back.
pub fn write_hmc_chain(
    state: &HmcChainState,
    metropolis: &StreamRng,
    links: &GaugeField,
    path: &Path,
) -> Result<u64> {
    state.validate(HMC_RECORD)?;
    let mut meta = FieldMeta::of(links, Precision::F64);
    meta.plaquette = Some(average_plaquette(links));
    let (chain, history) = state.to_records();
    let mut c = Container::new();
    c.push(Record::new(META_RECORD, meta.encode()));
    c.push(chain);
    c.push(history);
    c.push(rng_record(metropolis));
    c.push(Record::new(
        FIELD_RECORD,
        encode_field(links, Precision::F64),
    ));
    c.write_atomic(path)
}

/// Restore a chain snapshot written by [`write_hmc_chain`] onto `grid`,
/// validating record consistency and the stored plaquette.
pub fn read_hmc_chain(
    path: &Path,
    grid: &Arc<Grid<f64>>,
) -> Result<(HmcChainState, StreamRng, GaugeField)> {
    let c = Container::open(path)?;
    let state = HmcChainState::from_records(c.expect(HMC_RECORD)?, c.expect(HMC_HISTORY_RECORD)?)?;
    let metropolis = rng_from_record(c.expect(RNG_RECORD)?)?;
    let meta = FieldMeta::decode(&c.expect(META_RECORD)?.payload, META_RECORD)?;
    let links = decode_field(&meta, &c.expect(FIELD_RECORD)?.payload, grid, FIELD_RECORD)?;
    if let Some(stored) = meta.plaquette {
        let _span = qcd_trace::span!("io.validate", grid.engine().ctx());
        let computed = average_plaquette(&links);
        let tolerance = crate::fields::plaquette_tolerance(Precision::F64);
        if (computed - stored).abs() > tolerance {
            return Err(IoError::PlaquetteMismatch {
                stored,
                computed,
                tolerance,
            });
        }
    }
    Ok((state, metropolis, links))
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid::prelude::*;
    use grid::tensor::su3::random_gauge;

    fn demo_state() -> HmcChainState {
        HmcChainState {
            beta: 5.7,
            step_size: 0.0625,
            n_steps: 16,
            integrator: 1,
            seed: 0xabad_1dea,
            trajectory: 3,
            accepted: 2,
            rejected: 1,
            dh_history: vec![0.021, -0.004, 1.332],
            accept_history: vec![true, true, false],
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("qcd-io-hmc-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn chain_state_round_trips_bit_exactly() {
        let state = demo_state();
        let (chain, history) = state.to_records();
        let back = HmcChainState::from_records(&chain, &history).unwrap();
        assert_eq!(back, state);
        for (a, b) in back.dh_history.iter().zip(&state.dh_history) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn full_checkpoint_round_trips() {
        let g = Grid::new([4, 4, 4, 4], VectorLength::of(256), SimdBackend::Fcmla);
        let u = random_gauge(g.clone(), 7);
        let mut rng = StreamRng::new(99);
        for _ in 0..5 {
            rng.next_uniform01();
        }
        let path = tmp("roundtrip");
        write_hmc_chain(&demo_state(), &rng, &u, &path).unwrap();
        let (state, rng2, u2) = read_hmc_chain(&path, &g).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(state, demo_state());
        assert_eq!(rng2.state(), rng.state());
        assert_eq!(u2.max_abs_diff(&u), 0.0);
    }

    #[test]
    fn inconsistent_tallies_are_rejected() {
        let mut state = demo_state();
        state.accepted = 3; // 3 + 1 != 3 trajectories
        let err = state.to_records(); // encoding is mechanical...
        let got = HmcChainState::from_records(&err.0, &err.1).unwrap_err();
        assert!(matches!(got, IoError::BadRecord { .. }), "{got:?}");

        let mut state = demo_state();
        state.accept_history[2] = true; // history no longer matches tally
        let recs = state.to_records();
        assert!(HmcChainState::from_records(&recs.0, &recs.1).is_err());
    }

    #[test]
    fn missing_records_are_reported() {
        let g = Grid::new([2, 2, 2, 2], VectorLength::of(128), SimdBackend::Fcmla);
        let u = random_gauge(g.clone(), 3);
        let path = tmp("missing");
        write_hmc_chain(
            &HmcChainState {
                trajectory: 0,
                accepted: 0,
                rejected: 0,
                dh_history: vec![],
                accept_history: vec![],
                ..demo_state()
            },
            &StreamRng::new(1),
            &u,
            &path,
        )
        .unwrap();
        // Drop the history record and the reader must complain.
        let mut c = Container::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        c.records.retain(|r| r.rtype != HMC_HISTORY_RECORD);
        let path2 = tmp("missing2");
        c.write_atomic(&path2).unwrap();
        let got = match read_hmc_chain(&path2, &g) {
            Err(e) => e,
            Ok(_) => panic!("reader accepted a container missing the history record"),
        };
        std::fs::remove_file(&path2).ok();
        assert!(matches!(got, IoError::MissingRecord { .. }), "{got:?}");
    }
}
