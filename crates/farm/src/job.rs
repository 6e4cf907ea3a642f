//! Job specifications and their on-disk form.
//!
//! Every job the farm accepts is fully described by a small, deterministic
//! *spec*: an HMC stream is `(seed, physics params, target trajectories)`,
//! a solve burst is `(gauge seed, mass, per-request RHS seeds, tolerance)`.
//! Because the whole stack is counter-based-RNG deterministic, the spec IS
//! the job — a crashed farm can reconstruct every pending work unit from
//! spec files alone and reproduce the original results bit for bit, which
//! is what makes `kill -9` recovery testable by byte comparison.
//!
//! Specs are persisted as `qcd-io/v1` containers (`<name>.job.qio`): a
//! `farm.job` record carrying the spec fields followed by a `farm.config`
//! record pinning the lattice geometry. Finished jobs get a `farm.done`
//! container holding the result digest (final trajectory + plaquette bits
//! for streams; per-request iteration counts, residual bits, and solution
//! norms for solves). All scalars cross the disk as IEEE-754 raw bits, so
//! digests are byte-comparable across runs.

use grid::prelude::*;
use qcd_hmc::{HmcParams, IntegratorKind};
use qcd_io::{Container, Cursor, IoError, Record, Result, Writer};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Record type of the job-spec payload (first record of `*.job.qio`, so a
/// directory scan classifies spec files as `Other("farm.job")`).
pub const JOB_RECORD: &str = "farm.job";

/// Record type of the lattice-geometry record inside a spec container.
pub const CONFIG_RECORD: &str = "farm.config";

/// Record type of the result digest (first record of `*.done.qio`).
pub const DONE_RECORD: &str = "farm.done";

/// Scheduling priority. Higher drains first; FIFO within a level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Background work (ensemble generation usually runs here).
    Low = 0,
    /// The default.
    Normal = 1,
    /// Preempts lower-priority work at the next checkpoint boundary.
    High = 2,
}

impl Priority {
    /// Stable lowercase name for status output.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }

    fn read(d: &mut Cursor) -> Result<Priority> {
        match d.u8("priority tag")? {
            0 => Ok(Priority::Low),
            1 => Ok(Priority::Normal),
            2 => Ok(Priority::High),
            other => Err(d.bad(format!("unknown priority tag {other}"))),
        }
    }
}

/// The lattice every job of one farm runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FarmConfig {
    /// Lattice extents.
    pub dims: [usize; 4],
    /// SVE vector length in bits.
    pub vl_bits: usize,
    /// Complex-arithmetic backend.
    pub backend: SimdBackend,
}

impl FarmConfig {
    /// Build the grid this configuration describes.
    pub fn grid(&self) -> Arc<Grid> {
        Grid::new(self.dims, VectorLength::of(self.vl_bits), self.backend)
    }
}

/// An HMC ensemble stream: advance a Markov chain to `trajectories`,
/// checkpointing every `chunk` trajectories.
#[derive(Clone, Debug, PartialEq)]
pub struct HmcStreamSpec {
    /// Job name — the file stem of its spec/checkpoint/done containers.
    pub name: String,
    /// Scheduling priority.
    pub priority: Priority,
    /// Chain seed (cold start).
    pub seed: u64,
    /// Physics parameters.
    pub params: HmcParams,
    /// Target trajectory count.
    pub trajectories: u64,
    /// Trajectories per work unit — the preemption/checkpoint granularity.
    pub chunk: u64,
}

/// A burst of inversion requests against one gauge background. Request `i`
/// inverts on `FermionField::random(grid, rhs_seeds[i])`; results are
/// digested in request order regardless of how the scheduler batches them.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveSpec {
    /// Job name — the file stem of its spec/done containers.
    pub name: String,
    /// Scheduling priority.
    pub priority: Priority,
    /// Seed of the gauge background the operator is built on.
    pub gauge_seed: u64,
    /// Wilson mass parameter.
    pub mass: f64,
    /// One RHS seed per request.
    pub rhs_seeds: Vec<u64>,
    /// Relative residual target.
    pub tol: f64,
    /// Iteration budget per solve.
    pub max_iter: u64,
    /// Stem of a shared low-mode subspace checkpoint
    /// (`<stem>.subspace.qio` in the farm directory, written by
    /// `qcd_deflate::Subspace::save`). When set, every batch of this job
    /// runs the deflated solver against that subspace — still bit-identical
    /// to standalone `defl_cg` solves of the same requests. The subspace
    /// must match the job's lattice and mass; mismatches are typed errors
    /// at batch execution.
    pub subspace: Option<String>,
}

/// Any job the farm schedules.
#[derive(Clone, Debug, PartialEq)]
pub enum JobSpec {
    /// An ensemble stream.
    Hmc(HmcStreamSpec),
    /// A solve burst.
    Solve(SolveSpec),
}

impl JobSpec {
    /// The job's name (file stem of its containers).
    pub fn name(&self) -> &str {
        match self {
            JobSpec::Hmc(s) => &s.name,
            JobSpec::Solve(s) => &s.name,
        }
    }

    /// The job's scheduling priority.
    pub fn priority(&self) -> Priority {
        match self {
            JobSpec::Hmc(s) => s.priority,
            JobSpec::Solve(s) => s.priority,
        }
    }

    /// Stable kind name for status output.
    pub fn kind_name(&self) -> &'static str {
        match self {
            JobSpec::Hmc(_) => "hmc-stream",
            JobSpec::Solve(_) => "solve",
        }
    }

    /// Total progress units: trajectories for streams, requests for solves.
    pub fn target(&self) -> u64 {
        match self {
            JobSpec::Hmc(s) => s.trajectories,
            JobSpec::Solve(s) => s.rhs_seeds.len() as u64,
        }
    }

    /// Reject names that cannot serve as file stems. Dots are reserved for
    /// the `<name>.job.qio` / `<name>.chain.qio` suffix scheme.
    pub fn validate_name(&self) -> Result<()> {
        let ok_stem = |s: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        };
        let invalid = |msg| IoError::BadRecord {
            record: JOB_RECORD.to_string(),
            msg,
        };
        let name = self.name();
        if !ok_stem(name) {
            return Err(invalid(format!(
                "job name `{name}` must be non-empty [A-Za-z0-9_-]"
            )));
        }
        if let JobSpec::Solve(SolveSpec {
            subspace: Some(stem),
            ..
        }) = self
        {
            if !ok_stem(stem) {
                return Err(invalid(format!(
                    "subspace stem `{stem}` must be non-empty [A-Za-z0-9_-]"
                )));
            }
        }
        Ok(())
    }
}

/// Paths of a job's on-disk artifacts inside the farm directory.
pub struct JobPaths;

impl JobPaths {
    /// The spec container.
    pub fn spec(dir: &Path, name: &str) -> PathBuf {
        dir.join(format!("{name}.job.qio"))
    }

    /// The chain checkpoint (HMC streams only).
    pub fn chain(dir: &Path, name: &str) -> PathBuf {
        dir.join(format!("{name}.chain.qio"))
    }

    /// The result digest written on completion.
    pub fn done(dir: &Path, name: &str) -> PathBuf {
        dir.join(format!("{name}.done.qio"))
    }

    /// A shared low-mode subspace checkpoint (referenced by
    /// [`SolveSpec::subspace`]; written by `qcd_deflate::Subspace::save`).
    pub fn subspace(dir: &Path, stem: &str) -> PathBuf {
        dir.join(format!("{stem}.subspace.qio"))
    }
}

fn config_record(cfg: &FarmConfig) -> Record {
    let mut e = Writer::default();
    for d in cfg.dims {
        e.u64(d as u64);
    }
    e.u64(cfg.vl_bits as u64);
    e.str(cfg.backend.name());
    Record::new(CONFIG_RECORD, e.0)
}

fn config_from_record(r: &Record) -> Result<FarmConfig> {
    let mut d = Cursor::new(&r.payload, CONFIG_RECORD);
    let mut dims = [0usize; 4];
    for dim in &mut dims {
        *dim = d.u64("lattice extent")? as usize;
    }
    let vl_bits = d.u64("vector length")? as usize;
    let backend_name = d.str("backend name")?;
    d.done()?;
    let backend = [
        SimdBackend::Fcmla,
        SimdBackend::RealArith,
        SimdBackend::GenericAutovec,
    ]
    .into_iter()
    .find(|b| b.name() == backend_name)
    .ok_or_else(|| d.bad(format!("unknown backend `{backend_name}`")))?;
    Ok(FarmConfig {
        dims,
        vl_bits,
        backend,
    })
}

fn job_record(spec: &JobSpec) -> Record {
    let mut e = Writer::default();
    match spec {
        JobSpec::Hmc(s) => {
            e.u8(0);
            e.str(&s.name);
            e.u8(s.priority as u8);
            e.u64(s.seed);
            e.f64(s.params.beta);
            e.u64(s.params.n_steps as u64);
            e.f64(s.params.step_size);
            e.u8(match s.params.integrator {
                IntegratorKind::Leapfrog => 0,
                IntegratorKind::Omelyan => 1,
            });
            e.u64(s.trajectories);
            e.u64(s.chunk);
        }
        JobSpec::Solve(s) => {
            e.u8(1);
            e.str(&s.name);
            e.u8(s.priority as u8);
            e.u64(s.gauge_seed);
            e.f64(s.mass);
            e.f64(s.tol);
            e.u64(s.max_iter);
            match &s.subspace {
                None => e.u8(0),
                Some(stem) => {
                    e.u8(1);
                    e.str(stem);
                }
            }
            e.u64(s.rhs_seeds.len() as u64);
            for &seed in &s.rhs_seeds {
                e.u64(seed);
            }
        }
    }
    Record::new(JOB_RECORD, e.0)
}

fn job_from_record(r: &Record) -> Result<JobSpec> {
    let mut d = Cursor::new(&r.payload, JOB_RECORD);
    let kind = d.u8("job kind tag")?;
    let name = d.str("job name")?;
    let priority = Priority::read(&mut d)?;
    let spec = match kind {
        0 => {
            let seed = d.u64("chain seed")?;
            let beta = d.f64("beta")?;
            let n_steps = d.u64("n_steps")? as usize;
            let step_size = d.f64("step_size")?;
            let integrator = match d.u8("integrator tag")? {
                0 => IntegratorKind::Leapfrog,
                1 => IntegratorKind::Omelyan,
                other => return Err(d.bad(format!("unknown integrator tag {other}"))),
            };
            let trajectories = d.u64("trajectory target")?;
            let chunk = d.u64("chunk size")?;
            JobSpec::Hmc(HmcStreamSpec {
                name,
                priority,
                seed,
                params: HmcParams {
                    beta,
                    n_steps,
                    step_size,
                    integrator,
                },
                trajectories,
                chunk,
            })
        }
        1 => {
            let gauge_seed = d.u64("gauge seed")?;
            let mass = d.f64("mass")?;
            let tol = d.f64("tolerance")?;
            let max_iter = d.u64("iteration budget")?;
            let subspace = match d.u8("subspace flag")? {
                0 => None,
                1 => Some(d.str("subspace stem")?),
                other => return Err(d.bad(format!("unknown subspace flag {other}"))),
            };
            let n = d.count("request count", 8)?;
            let mut rhs_seeds = Vec::with_capacity(n);
            for _ in 0..n {
                rhs_seeds.push(d.u64("RHS seed")?);
            }
            JobSpec::Solve(SolveSpec {
                name,
                priority,
                gauge_seed,
                mass,
                rhs_seeds,
                tol,
                max_iter,
                subspace,
            })
        }
        other => return Err(d.bad(format!("unknown job kind tag {other}"))),
    };
    d.done()?;
    Ok(spec)
}

/// Persist a spec as `<name>.job.qio` (atomic write). The `farm.job` record
/// comes first so [`qcd_io::scan_checkpoints`] classifies the file by it.
pub fn write_spec(dir: &Path, cfg: &FarmConfig, spec: &JobSpec) -> Result<()> {
    spec.validate_name()?;
    let mut c = Container::new();
    c.push(job_record(spec));
    c.push(config_record(cfg));
    c.write_atomic(&JobPaths::spec(dir, spec.name()))?;
    Ok(())
}

/// Load a spec container back, validating CRCs and the geometry record.
pub fn read_spec(path: &Path) -> Result<(FarmConfig, JobSpec)> {
    let c = Container::open(path)?;
    let spec = job_from_record(c.expect(JOB_RECORD)?)?;
    let cfg = config_from_record(c.expect(CONFIG_RECORD)?)?;
    Ok((cfg, spec))
}

/// Result digest of one completed solve request.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestDigest {
    /// Request index inside its job (its position in `rhs_seeds`).
    pub index: u64,
    /// CG iterations of this request (identical to a standalone solve).
    pub iterations: u64,
    /// Final relative residual, raw bits.
    pub residual_bits: u64,
    /// Solution `‖x‖²`, raw bits — a cheap deterministic checksum.
    pub norm2_bits: u64,
}

/// Result digest of a completed job — the byte-comparable proof of what a
/// run produced.
#[derive(Clone, Debug, PartialEq)]
pub enum DoneDigest {
    /// Stream digest: where the chain ended.
    Hmc {
        /// Final trajectory count.
        trajectory: u64,
        /// Final average plaquette, raw bits.
        plaquette_bits: u64,
        /// Accepted trajectories.
        accepted: u64,
    },
    /// Solve digest: one entry per request, in request order.
    Solve(Vec<RequestDigest>),
}

fn done_record(digest: &DoneDigest) -> Record {
    let mut e = Writer::default();
    match digest {
        DoneDigest::Hmc {
            trajectory,
            plaquette_bits,
            accepted,
        } => {
            e.u8(0);
            e.u64(*trajectory);
            e.u64(*plaquette_bits);
            e.u64(*accepted);
        }
        DoneDigest::Solve(reqs) => {
            e.u8(1);
            e.u64(reqs.len() as u64);
            for r in reqs {
                e.u64(r.index);
                e.u64(r.iterations);
                e.u64(r.residual_bits);
                e.u64(r.norm2_bits);
            }
        }
    }
    Record::new(DONE_RECORD, e.0)
}

fn done_from_record(r: &Record) -> Result<DoneDigest> {
    let mut d = Cursor::new(&r.payload, DONE_RECORD);
    let digest = match d.u8("digest kind tag")? {
        0 => DoneDigest::Hmc {
            trajectory: d.u64("trajectory")?,
            plaquette_bits: d.u64("plaquette bits")?,
            accepted: d.u64("accepted count")?,
        },
        1 => {
            let n = d.count("request count", 32)?;
            let mut reqs = Vec::with_capacity(n);
            for _ in 0..n {
                reqs.push(RequestDigest {
                    index: d.u64("request index")?,
                    iterations: d.u64("iterations")?,
                    residual_bits: d.u64("residual bits")?,
                    norm2_bits: d.u64("norm2 bits")?,
                });
            }
            DoneDigest::Solve(reqs)
        }
        other => return Err(d.bad(format!("unknown digest kind tag {other}"))),
    };
    d.done()?;
    Ok(digest)
}

/// Atomically write `<name>.done.qio` marking a job complete.
pub fn write_done(dir: &Path, name: &str, digest: &DoneDigest) -> Result<()> {
    let mut c = Container::new();
    c.push(done_record(digest));
    c.write_atomic(&JobPaths::done(dir, name))?;
    Ok(())
}

/// Read a result digest back.
pub fn read_done(path: &Path) -> Result<DoneDigest> {
    let c = Container::open(path)?;
    done_from_record(c.expect(DONE_RECORD)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FarmConfig {
        FarmConfig {
            dims: [4, 4, 4, 4],
            vl_bits: 256,
            backend: SimdBackend::Fcmla,
        }
    }

    fn hmc_spec() -> JobSpec {
        JobSpec::Hmc(HmcStreamSpec {
            name: "stream-a".into(),
            priority: Priority::Low,
            seed: 17,
            params: HmcParams {
                beta: 5.6,
                n_steps: 8,
                step_size: 0.0625,
                integrator: IntegratorKind::Omelyan,
            },
            trajectories: 12,
            chunk: 3,
        })
    }

    fn solve_spec() -> JobSpec {
        JobSpec::Solve(SolveSpec {
            name: "burst_0".into(),
            priority: Priority::High,
            gauge_seed: 91,
            mass: 0.2,
            rhs_seeds: vec![5, 6, 7],
            tol: 1e-8,
            max_iter: 2000,
            subspace: None,
        })
    }

    #[test]
    fn specs_round_trip_through_their_containers() {
        let dir = std::env::temp_dir().join(format!("qcd-farm-spec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for spec in [hmc_spec(), solve_spec()] {
            write_spec(&dir, &cfg(), &spec).unwrap();
            let (back_cfg, back) = read_spec(&JobPaths::spec(&dir, spec.name())).unwrap();
            assert_eq!(back_cfg, cfg());
            assert_eq!(back, spec);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn done_digests_round_trip() {
        let dir = std::env::temp_dir().join(format!("qcd-farm-done-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let digests = [
            DoneDigest::Hmc {
                trajectory: 12,
                plaquette_bits: 0.58f64.to_bits(),
                accepted: 11,
            },
            DoneDigest::Solve(vec![RequestDigest {
                index: 0,
                iterations: 61,
                residual_bits: 1e-9f64.to_bits(),
                norm2_bits: 42.0f64.to_bits(),
            }]),
        ];
        for (i, digest) in digests.iter().enumerate() {
            let name = format!("job{i}");
            write_done(&dir, &name, digest).unwrap();
            let back = read_done(&JobPaths::done(&dir, &name)).unwrap();
            assert_eq!(&back, digest);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_job_names_are_rejected() {
        for name in ["", "a/b", "a.b", "x y", "../up"] {
            let JobSpec::Hmc(mut s) = hmc_spec() else {
                unreachable!()
            };
            s.name = name.into();
            assert!(
                JobSpec::Hmc(s).validate_name().is_err(),
                "name `{name}` must be rejected"
            );
        }
    }

    #[test]
    fn truncated_spec_payloads_are_typed_errors() {
        for rec in [job_record(&hmc_spec()), job_record(&solve_spec())] {
            // The last cuts of the solve spec tear its seed list.
            for cut in [0, 1, 9, rec.payload.len() - 9, rec.payload.len() - 1] {
                let torn = Record::new(JOB_RECORD, rec.payload[..cut].to_vec());
                assert!(job_from_record(&torn).is_err(), "cut at {cut} must fail");
            }
        }
    }

    #[test]
    fn forged_counts_and_lengths_are_typed_errors_not_allocations() {
        // The request count sits 8 bytes before the three 8-byte seeds. A
        // count the payload cannot hold used to reach `Vec::with_capacity`
        // (an abort, not an error); so did a string length via `pos + n`.
        let rec = job_record(&solve_spec());
        let at = rec.payload.len() - 4 * 8;
        for forged in [u64::MAX, 1 << 60, 4] {
            let mut payload = rec.payload.clone();
            payload[at..at + 8].copy_from_slice(&forged.to_le_bytes());
            let err = job_from_record(&Record::new(JOB_RECORD, payload)).unwrap_err();
            assert!(err.to_string().contains("request count"), "{err}");
        }
        // The job name's length prefix follows the one-byte kind tag.
        let mut payload = rec.payload.clone();
        payload[1..9].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(job_from_record(&Record::new(JOB_RECORD, payload)).is_err());

        let done = done_record(&DoneDigest::Solve(vec![RequestDigest {
            index: 0,
            iterations: 61,
            residual_bits: 1e-9f64.to_bits(),
            norm2_bits: 42.0f64.to_bits(),
        }]));
        let mut payload = done.payload.clone();
        payload[1..9].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(done_from_record(&Record::new(DONE_RECORD, payload)).is_err());
    }

    #[test]
    fn torn_and_forged_config_and_done_payloads_name_their_own_record() {
        let named = |err: IoError, record: &str, what: &str| match err {
            IoError::BadRecord { record: r, msg } => {
                assert_eq!(r, record, "{msg}");
                assert!(msg.contains(what), "{msg}");
            }
            other => panic!("not a record error: {other}"),
        };
        let config = config_record(&cfg());
        let torn = Record::new(CONFIG_RECORD, config.payload[..3].to_vec());
        named(
            config_from_record(&torn).unwrap_err(),
            CONFIG_RECORD,
            "payload too short for lattice extent",
        );
        // The backend name's length prefix follows four extents and the
        // vector length.
        let mut payload = config.payload.clone();
        payload[40..48].copy_from_slice(&u64::MAX.to_le_bytes());
        let forged = Record::new(CONFIG_RECORD, payload);
        named(
            config_from_record(&forged).unwrap_err(),
            CONFIG_RECORD,
            "backend name",
        );

        let hmc = done_record(&DoneDigest::Hmc {
            trajectory: 12,
            plaquette_bits: 0.58f64.to_bits(),
            accepted: 11,
        });
        let torn = Record::new(DONE_RECORD, hmc.payload[..5].to_vec());
        named(
            done_from_record(&torn).unwrap_err(),
            DONE_RECORD,
            "payload too short for trajectory",
        );
        let mut payload = done_record(&DoneDigest::Solve(Vec::new())).payload;
        payload[1..9].copy_from_slice(&u64::MAX.to_le_bytes());
        named(
            done_from_record(&Record::new(DONE_RECORD, payload)).unwrap_err(),
            DONE_RECORD,
            "request count",
        );
    }
}
