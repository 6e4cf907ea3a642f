//! `qcd-farm` — an async ensemble/solve job service over checkpointable
//! work units.
//!
//! A lattice campaign is a mix of long-running Markov-chain streams and
//! bursty inversion requests competing for the same node. This crate turns
//! that mix into a *job farm*: a worker pool drains a priority queue of
//! **checkpointable work units**, where
//!
//! * an HMC stream ([`HmcStreamSpec`]) is executed as a chain of
//!   `chunk`-trajectory units, each snapshotting through `qcd-io` at its
//!   boundary, and
//! * a solve burst ([`SolveSpec`]) is coalesced by [`plan_batches`] into
//!   multi-RHS block `cg` dispatches (preferring widths 16/8/4) whose
//!   per-request results are bit-identical to solo solves, so batching is
//!   purely a throughput decision.
//!
//! Three properties fall out of the determinism stack underneath:
//!
//! 1. **Preemption is free of rework** — a high-priority submission raises
//!    a running low-priority worker's yield flag; the chunk checkpoints at
//!    the next trajectory boundary and its remainder is re-enqueued, with
//!    no change to any chain result.
//! 2. **`kill -9` recovery is byte-exact** — [`Farm::open`] rescans the
//!    farm directory, clears torn temp files, and re-enqueues every spec
//!    without a result digest; the recovered run's chain checkpoints and
//!    digests are byte-identical to an uninterrupted run's
//!    ([`verify_dirs`] is the acceptance check).
//! 3. **The status surface is validated** — [`status_json`] renders a
//!    `qcd-farm/v1` document (job states, queue depths, worker
//!    utilization, batch-fill histogram) that is parse-back validated
//!    before it leaves the process.
//!
//! The `qcd_farm` binary wraps all of this behind flags. What coalescing
//! buys is modeled from outside, through [`plan_batches`] alone:
//! `wilson_report --bench farm`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod job;
pub mod queue;
pub mod scheduler;
pub mod status;

pub use batch::{plan_batches, PREFERRED_WIDTHS};
pub use job::{
    read_done, read_spec, write_done, write_spec, DoneDigest, FarmConfig, HmcStreamSpec, JobPaths,
    JobSpec, Priority, RequestDigest, SolveSpec,
};
pub use queue::{UnitPayload, WorkQueue, WorkUnit};
pub use scheduler::{verify_dirs, Farm, JobState, JobView, RunReport};
pub use status::{render_validated_status, status_json, validate_status_json, STATUS_SCHEMA};
