//! Simulated multi-process domain decomposition.
//!
//! "For the coarsest level a set of sub-lattices is distributed over (a very
//! large number of) different processes, e.g., different MPI ranks" (paper,
//! Section II-A). Here ranks are threads: the global lattice is split over
//! an explicit [`RankTopology`] (1 to 4 split dimensions), each rank owns a
//! local [`Grid`], and nearest-neighbour halo exchange runs over *bounded*
//! channels so a slow rank exerts backpressure instead of growing queues
//! without bound. Boundary data can optionally be compressed to binary16 on
//! the wire — the paper's only use of fp16: "this data type is used only for
//! data compression upon data exchange over the communications network"
//! (Section V-B).
//!
//! A face moves in two halves: [`RankCtx::post_face_send`] queues it and
//! returns, and [`RankCtx::wait_face_into`] blocks until the neighbour's
//! face lands. A caller posts its face sends, overlaps interior compute
//! while the halos are in flight, and only then blocks on the faces it
//! needs — the comms/compute overlap the distributed operator
//! ([`DistWilson`](crate::dist::DistWilson)) is built on. Message flight
//! time is simulated by a [`NetworkModel`], so the *exposed* wait time
//! (`comms.wait`) can be compared against the total flight time to measure
//! how much communication the interior sweep actually hid.
//!
//! Each rank's [`Grid`] is a *rank grid*: it knows its place in the global
//! lattice and holds the rank's ends of the allgather ring, so a reduction
//! over a rank-local field is the global canonical sum — a collective that
//! every rank makes, in the same order (see [`crate::reduce`]).
//!
//! A rank that panics drops its channel ends — the ring's too, which
//! [`RankCtx`]'s drop takes out of its grid — so its neighbours fail with
//! "neighbour hung up" rather than wait for it, and
//! [`run_multinode_topo`] hands the panic to its caller.
//!
//! Halo payloads travel as [`HaloMsg`] buffers that are recycled through a
//! per-rank shell pool ([`HaloMsg::encode_into_shell`] /
//! [`HaloMsg::decode_into`]), so the steady state of a distributed solve
//! performs no allocation in the comms layer.

use crate::layout::{Coor, Grid, NDIM};
use crate::simd::SimdBackend;
use crate::topology::RankTopology;
use crossbeam::channel::{bounded, Receiver, Sender};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use sve::{SveCtx, VectorLength};

/// The dimension the legacy 1-D rank grid splits (time).
pub const SPLIT_DIM: usize = 3;

/// Capacity of every halo channel: at most this many face messages may be
/// in flight per (dimension, direction, rank pair) before the sender
/// blocks. Two is the lockstep maximum — a rank can run at most one dslash
/// ahead of its neighbour, so one face from the previous sweep plus one
/// from the current sweep may be queued.
pub const FACES_IN_FLIGHT: usize = 2;

/// Shells kept per rank for reuse; beyond this, returned buffers are freed.
const SHELL_POOL_CAP: usize = 16;

/// Relative rounding grain of a binary16 wire scalar (`2⁻¹¹`, RTNE).
///
/// This constant anchors the **lossy-wire accuracy contract** of
/// [`Compression::F16`]: each halo scalar a sweep reads from the wire is
/// within `F16_WIRE_EPS` of the sender's value, so a distributed solve
/// over a compressed wire applies a perturbed operator `Ã` with
/// `‖Ã − A‖ ≤ O(F16_WIRE_EPS)` concentrated on the face sites. The solve
/// converges against its own recurrence exactly as over an uncompressed
/// wire, and its solution agrees with the uncompressed-wire solution to
/// `O(κ(A) · F16_WIRE_EPS)` in relative norm — pinned by
/// `tests/f16_wire_contract.rs`. Residual targets *below* the contract
/// bound require the uncompressed wire (or an outer correction loop such
/// as [`crate::mixed::ladder_solve`] running its defect at full
/// precision).
pub const F16_WIRE_EPS: f64 = 4.8828125e-4;

/// Wire format for halo buffers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Compression {
    /// Full double precision on the wire.
    None,
    /// Compress to IEEE binary16, quartering the wire volume
    /// (8 bytes → 2 bytes per real), at [`F16_WIRE_EPS`] ≈ 2⁻¹¹ relative
    /// error per scalar — see the accuracy contract on that constant.
    F16,
}

/// Wire format for gauge-link halos. SU(3) links can drop their third row
/// on the wire — the receiver rebuilds it as the conjugate cross product of
/// the first two (the shared [`codec`](crate::codec) two-row path), cutting
/// gauge halo volume by a third before any scalar compression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GaugeWire {
    /// All nine complex entries per link (18 scalars).
    Full,
    /// First two rows only (12 scalars); third row reconstructed on unpack.
    TwoRow,
}

/// A halo message.
#[derive(Clone, Debug)]
pub enum HaloMsg {
    /// Uncompressed payload.
    F64(Vec<f64>),
    /// binary16-compressed payload.
    F16(Vec<u16>),
}

impl HaloMsg {
    /// Encode a buffer under the chosen compression. The binary16 rounding
    /// is the shared [`codec`](crate::codec) path, so wire halos and
    /// `qcd-io` on-disk records compress identically.
    pub fn encode(data: &[f64], compression: Compression) -> HaloMsg {
        HaloMsg::encode_into_shell(data, compression, None)
    }

    /// Encode reusing a spent message's buffer when its variant matches the
    /// requested compression — in the steady state of a halo loop no
    /// allocation happens here, the shell's capacity is simply refilled.
    pub fn encode_into_shell(
        data: &[f64],
        compression: Compression,
        shell: Option<HaloMsg>,
    ) -> HaloMsg {
        match compression {
            Compression::None => {
                let mut v = match shell {
                    Some(HaloMsg::F64(v)) => v,
                    _ => Vec::with_capacity(data.len()),
                };
                v.clear();
                v.extend_from_slice(data);
                HaloMsg::F64(v)
            }
            Compression::F16 => {
                let mut v = match shell {
                    Some(HaloMsg::F16(v)) => v,
                    _ => Vec::with_capacity(data.len()),
                };
                crate::codec::compress_f16_into(data, &mut v);
                HaloMsg::F16(v)
            }
        }
    }

    /// Decode back to doubles (the shared codec's exact expansion).
    pub fn decode(&self) -> Vec<f64> {
        match self {
            HaloMsg::F64(v) => v.clone(),
            HaloMsg::F16(v) => crate::codec::decompress_f16(v),
        }
    }

    /// Decode into a caller-owned buffer without allocating. Panics if the
    /// buffer length does not match the message's scalar count — halo faces
    /// have a fixed shape, so a mismatch is a protocol error.
    pub fn decode_into(&self, out: &mut [f64]) {
        match self {
            HaloMsg::F64(v) => {
                assert_eq!(
                    v.len(),
                    out.len(),
                    "halo payload does not fit the face buffer"
                );
                out.copy_from_slice(v);
            }
            HaloMsg::F16(v) => crate::codec::decompress_f16_into(v, out),
        }
    }

    /// Scalars carried by this message.
    pub fn scalars(&self) -> usize {
        match self {
            HaloMsg::F64(v) => v.len(),
            HaloMsg::F16(v) => v.len(),
        }
    }

    /// Wire size in bytes.
    pub fn wire_bytes(&self) -> usize {
        match self {
            HaloMsg::F64(v) => v.len() * 8,
            HaloMsg::F16(v) => v.len() * 2,
        }
    }
}

/// A latency/bandwidth model for the simulated interconnect. Each posted
/// face is stamped with a modeled flight time; the receiver's
/// [`RankCtx::wait_face_into`] refuses to hand the message over before the
/// flight completes, so a rank that does *not* overlap compute with its
/// halos pays the full flight time as exposed `comms.wait`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkModel {
    latency_ns: u64,
    gbytes_per_s: f64,
}

impl NetworkModel {
    /// Zero-latency, infinite-bandwidth wire: messages are ready the moment
    /// they are sent. The default for correctness tests.
    pub fn instant() -> NetworkModel {
        NetworkModel {
            latency_ns: 0,
            gbytes_per_s: f64::INFINITY,
        }
    }

    /// A generic modern interconnect: 1.5 µs per-message latency and
    /// 12.5 GB/s per-link bandwidth (≈100 Gb/s class fabric).
    pub fn interconnect() -> NetworkModel {
        NetworkModel {
            latency_ns: 1_500,
            gbytes_per_s: 12.5,
        }
    }

    /// An explicit latency/bandwidth point.
    pub fn custom(latency_ns: u64, gbytes_per_s: f64) -> NetworkModel {
        assert!(gbytes_per_s > 0.0, "bandwidth must be positive");
        NetworkModel {
            latency_ns,
            gbytes_per_s,
        }
    }

    /// Modeled flight time of one message: latency plus transfer time
    /// (1 GB/s is exactly 1 byte/ns, so `bytes / gbytes_per_s` is ns).
    pub fn flight_ns(&self, wire_bytes: usize) -> u64 {
        self.latency_ns + (wire_bytes as f64 / self.gbytes_per_s) as u64
    }
}

/// One in-flight face: the payload plus when the modeled network delivers
/// it.
struct FaceMsg {
    msg: HaloMsg,
    ready_at: Instant,
    flight_ns: u64,
}

/// One hop of the rank-order allgather ring: the originating rank's id
/// plus its slab.
type RingSlab = (usize, Vec<f64>);

/// A rank whose reduction panicked is out of step with the others: its
/// communicator is not used again.
const POISONED: &str = "a reduction on this rank panicked";

/// A rank's communicator: its ends of the rank-order allgather ring,
/// shared by its [`RankCtx`] and its rank grid, whose reductions travel it.
/// The ends sit behind a lock only because a grid is shared with worker
/// threads; the rank's own thread is the one that uses them.
pub(crate) struct Communicator {
    rank: usize,
    nranks: usize,
    ends: Mutex<Option<(Sender<RingSlab>, Receiver<RingSlab>)>>,
    gathered: Mutex<Vec<f64>>,
    bytes: AtomicUsize,
    detail: AtomicBool,
}

impl Communicator {
    /// Every rank's first `len` per-site values of `partials`, in rank
    /// order: the one allgather of a reduction on a rank grid. `partials`
    /// comes back as another rank's buffer of the same length, and the
    /// gathered buffer is reused, so the steady state allocates nothing.
    pub(crate) fn gather(&self, partials: &mut Vec<f64>, len: usize) -> MutexGuard<'_, Vec<f64>> {
        let mut gathered = self.gathered.lock().expect(POISONED);
        gathered.resize(self.nranks * len, 0.0);
        let mut mine = std::mem::take(partials);
        mine.truncate(len);
        *partials = self.allgather(mine, |src, p| {
            gathered[src * len..(src + 1) * len].copy_from_slice(p);
        });
        gathered
    }

    /// Ring allgather: `visit` sees every rank's slab exactly once (own
    /// slab first, then the others as they circulate the ring, R−1 hops).
    /// The returned buffer is a same-length slab the caller reuses for the
    /// next allgather, making the steady state allocation-free. With one
    /// rank this degenerates to a single `visit`.
    pub(crate) fn allgather(
        &self,
        slab: Vec<f64>,
        mut visit: impl FnMut(usize, &[f64]),
    ) -> Vec<f64> {
        visit(self.rank, &slab);
        if self.nranks == 1 {
            return slab;
        }
        let ends = self.ends.lock().expect(POISONED);
        let (tx, rx) = ends.as_ref().expect("the rank's ring is closed");
        let _span = self
            .detail
            .load(Ordering::Relaxed)
            .then(|| qcd_trace::span!("comms.allgather"));
        self.bytes.fetch_add(slab.len() * 8, Ordering::Relaxed);
        tx.send((self.rank, slab)).expect("ring neighbour hung up");
        let mut keep = None;
        for hop in 1..self.nranks {
            let (src, s) = rx.recv().expect("ring neighbour hung up");
            visit(src, &s);
            if hop + 1 < self.nranks {
                self.bytes.fetch_add(s.len() * 8, Ordering::Relaxed);
                tx.send((src, s)).expect("ring neighbour hung up");
            } else {
                keep = Some(s);
            }
        }
        keep.expect("ring allgather ran zero hops")
    }
}

/// Channel endpoints to the two neighbours along one split dimension.
struct DimLinks {
    send_next: Sender<FaceMsg>,
    recv_prev: Receiver<FaceMsg>,
    send_prev: Sender<FaceMsg>,
    recv_next: Receiver<FaceMsg>,
}

/// Per-rank communication context: the local lattice, its placement in the
/// global one, and channels to nearest neighbours along every split
/// dimension — "parallelization ... is achieved by a domain decomposition
/// in 1 to 4 dimensions" (paper, Section II-A).
pub struct RankCtx {
    /// This rank's linear id.
    pub rank: usize,
    /// The rank grid (one entry per dimension; product = total ranks).
    pub rank_grid: Coor,
    /// This rank's coordinate in the rank grid.
    pub rank_coor: Coor,
    /// Total ranks.
    pub nranks: usize,
    /// Global lattice extents.
    pub global_dims: Coor,
    /// The rank-local lattice.
    pub grid: Arc<Grid>,
    /// Global coordinate of the local origin.
    pub offset: Coor,
    links: [Option<DimLinks>; NDIM],
    /// Total bytes this rank has put on the wire in *face* messages (halo
    /// payloads; allreduce traffic is counted in `reduce_bytes`).
    pub sent_bytes: Cell<usize>,
    net: NetworkModel,
    wait_hist: qcd_trace::Histogram,
    wait_ns: Cell<u64>,
    flight_ns: Cell<u64>,
    /// When this rank last posted a face send: the start of its overlap
    /// window. Exposed wait is measured against this local stamp so the
    /// metric stays meaningful when rank threads timeshare cores.
    last_post: Cell<Instant>,
    shells: RefCell<Vec<HaloMsg>>,
    /// The grid's communicator.
    pub(crate) comm: Arc<Communicator>,
}

/// A finished rank — returned or unwinding — closes its ring, so a
/// neighbour waiting in a reduction fails with "hung up" even while a
/// field still holds the grid.
impl Drop for RankCtx {
    fn drop(&mut self) {
        let ends = &self.comm.ends;
        ends.lock().unwrap_or_else(PoisonError::into_inner).take();
    }
}

impl RankCtx {
    /// Translate a local coordinate to the global one.
    pub fn to_global(&self, local: &Coor) -> Coor {
        std::array::from_fn(|d| local[d] + self.offset[d])
    }

    /// The interconnect model stamping flight times on this rank's sends.
    pub fn net(&self) -> NetworkModel {
        self.net
    }

    /// Whether per-face and allgather spans and flight-recorder events are
    /// emitted. When true (the default), every face send/recv opens a
    /// `comms.send`/`comms.recv`/`comms.wait` span and logs a flight-
    /// recorder event, and every allgather a `comms.allgather` span. The
    /// distributed hot path turns this off to keep its steady state
    /// allocation-free; the counters and the `comms.wait` histogram always
    /// update regardless.
    pub fn detail_spans(&self) -> bool {
        self.comm.detail.load(Ordering::Relaxed)
    }

    /// Enable/disable per-face spans and flight events (see
    /// [`Self::detail_spans`]).
    pub fn set_detail_spans(&self, on: bool) {
        self.comm.detail.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds of modeled flight time this rank failed to hide behind
    /// its own compute (exposed, non-overlapped communication time). Each
    /// received face contributes `flight − (time since this rank last
    /// posted a send)`, floored at zero: the overlap window opens when the
    /// rank posts its own faces, and whatever portion of the modeled
    /// flight outlives that window is exposed. Measuring against the
    /// rank's *local* post stamp (rather than real blocked wall time)
    /// keeps the metric meaningful when rank threads timeshare cores and
    /// channel waits are dominated by scheduler skew.
    pub fn wait_ns(&self) -> u64 {
        self.wait_ns.get()
    }

    /// Total modeled flight nanoseconds of every face this rank received
    /// (what the comms would cost with zero overlap).
    pub fn flight_ns(&self) -> u64 {
        self.flight_ns.get()
    }

    /// Bytes this rank contributed to allgather traffic, its grid's
    /// reductions (kept separate from `sent_bytes` so face bytes stay
    /// pinned to the halo wire model).
    pub fn reduce_bytes(&self) -> usize {
        self.comm.bytes.load(Ordering::Relaxed)
    }

    /// Reset `sent_bytes`, `reduce_bytes` and the wait/flight clocks.
    pub fn reset_comm_counters(&self) {
        self.sent_bytes.set(0);
        self.comm.bytes.store(0, Ordering::Relaxed);
        self.wait_ns.set(0);
        self.flight_ns.set(0);
    }

    fn take_shell(&self) -> Option<HaloMsg> {
        self.shells.borrow_mut().pop()
    }

    fn recycle_shell(&self, msg: HaloMsg) {
        let mut pool = self.shells.borrow_mut();
        if pool.len() < SHELL_POOL_CAP {
            pool.push(msg);
        }
    }

    fn dim_links(&self, d: usize) -> &DimLinks {
        self.links[d]
            .as_ref()
            .expect("dimension is not split across ranks")
    }

    /// Post one face send along split dimension `d` without waiting for
    /// anything: the payload is encoded into a recycled shell, stamped with
    /// the modeled flight time, and queued toward the `+d` neighbour
    /// (`toward_next`) or the `−d` neighbour. Returns immediately — the
    /// caller overlaps interior compute and later collects the matching
    /// face with [`wait_face_into`](RankCtx::wait_face_into).
    pub fn post_face_send(
        &self,
        d: usize,
        toward_next: bool,
        data: &[f64],
        compression: Compression,
    ) {
        let links = self.dim_links(d);
        let msg = HaloMsg::encode_into_shell(data, compression, self.take_shell());
        let bytes = msg.wire_bytes();
        let flight = self.net.flight_ns(bytes);
        let detail = self.detail_spans();
        {
            let _span = detail.then(|| qcd_trace::span!("comms.send"));
            qcd_trace::record_wire_bytes(bytes as u64);
        }
        if detail {
            qcd_trace::record_event(
                "comms",
                if toward_next {
                    "send.next"
                } else {
                    "send.prev"
                },
                &[
                    ("dim", d as f64),
                    ("bytes", bytes as f64),
                    ("flight_ns", flight as f64),
                ],
            );
        }
        self.sent_bytes.set(self.sent_bytes.get() + bytes);
        let now = Instant::now();
        self.last_post.set(now);
        let face = FaceMsg {
            msg,
            ready_at: now + Duration::from_nanos(flight),
            flight_ns: flight,
        };
        let tx = if toward_next {
            &links.send_next
        } else {
            &links.send_prev
        };
        assert!(tx.send(face).is_ok(), "neighbour hung up");
    }

    /// Block until the face from the `+d` (`from_next`) or `−d` neighbour
    /// lands, honouring the modeled flight time. The *exposed* wait it
    /// records is `flight − (time since this rank last posted a send)`,
    /// floored at zero — the portion of the modeled flight the rank's own
    /// compute since [`post_face_send`](RankCtx::post_face_send) did not
    /// hide. It accumulates in [`wait_ns`](RankCtx::wait_ns) and the
    /// `comms.wait` histogram, while the face's full modeled flight time
    /// accumulates in [`flight_ns`](RankCtx::flight_ns) — their ratio is
    /// the overlap efficiency. The exposure is measured against the local
    /// post stamp rather than real blocked wall time so it survives rank
    /// threads timesharing cores, where channel waits reflect scheduler
    /// skew instead of the modeled fabric.
    ///
    /// The face is decoded into `out`, a reusable face buffer, and its
    /// message shell goes back to the pool: the whole path is
    /// allocation-free in the steady state.
    pub fn wait_face_into(&self, d: usize, from_next: bool, out: &mut [f64]) {
        let links = self.dim_links(d);
        let rx = if from_next {
            &links.recv_next
        } else {
            &links.recv_prev
        };
        let detail = self.detail_spans();
        let start = Instant::now();
        let face = {
            let _span = detail.then(|| qcd_trace::span!("comms.wait"));
            let face = match rx.try_recv() {
                Ok(face) => face,
                Err(_) => rx.recv().expect("neighbour hung up"),
            };
            while Instant::now() < face.ready_at {
                std::hint::spin_loop();
            }
            face
        };
        // `duration_since` saturates to zero if the post stamp is newer.
        let hidden = start.duration_since(self.last_post.get()).as_nanos() as u64;
        let waited = face.flight_ns.saturating_sub(hidden);
        self.wait_ns.set(self.wait_ns.get() + waited);
        self.flight_ns.set(self.flight_ns.get() + face.flight_ns);
        self.wait_hist.record(waited);
        if detail {
            let _span = qcd_trace::span!("comms.recv");
            qcd_trace::record_wire_bytes(face.msg.wire_bytes() as u64);
            qcd_trace::record_event(
                "comms",
                if from_next { "recv.next" } else { "recv.prev" },
                &[
                    ("dim", d as f64),
                    ("bytes", face.msg.wire_bytes() as f64),
                    ("wait_ns", waited as f64),
                ],
            );
        }
        face.msg.decode_into(out);
        self.recycle_shell(face.msg);
    }
}

/// Run `f` on every rank of an explicit [`RankTopology`] (threads),
/// splitting `global_dims` per the topology's rank grid and stamping every
/// face message with `net`'s modeled flight time. Returns per-rank results
/// in linear rank order.
pub fn run_multinode_topo<T: Send>(
    global_dims: Coor,
    topo: RankTopology,
    vl: VectorLength,
    backend: SimdBackend,
    net: NetworkModel,
    f: impl Fn(&RankCtx) -> T + Sync,
) -> Vec<T> {
    let _span = qcd_trace::span!("comms.run_multinode");
    let rank_grid = topo.rank_grid();
    let nranks = topo.nranks();
    let local_dims = topo.local_dims(&global_dims);

    // One forward and one backward channel per (dimension, rank): the
    // forward channel at (d, r) carries r -> next_d(r), so rank r receives
    // "from prev" on the forward channel of prev_d(r). All channels are
    // bounded to FACES_IN_FLIGHT — a rank that runs ahead blocks on send.
    let mk = |n: usize| -> Vec<(Sender<FaceMsg>, Receiver<FaceMsg>)> {
        (0..n).map(|_| bounded(FACES_IN_FLIGHT)).collect()
    };
    let fwd: [Vec<(Sender<FaceMsg>, Receiver<FaceMsg>)>; NDIM] =
        std::array::from_fn(|_| mk(nranks));
    let bwd: [Vec<(Sender<FaceMsg>, Receiver<FaceMsg>)>; NDIM] =
        std::array::from_fn(|_| mk(nranks));
    // A rank-order ring for allgathers: channel r carries r -> (r+1) % R.
    let ring: Vec<_> = (0..nranks)
        .map(|_| bounded::<RingSlab>(FACES_IN_FLIGHT))
        .collect();

    let ctxs: Vec<RankCtx> = (0..nranks)
        .map(|r| {
            let rank_coor = topo.rank_coor(r);
            let offset = topo.offset(r, &global_dims);
            let links: [Option<DimLinks>; NDIM] = std::array::from_fn(|d| {
                if rank_grid[d] > 1 {
                    let prev = topo.neighbour(r, d, false);
                    Some(DimLinks {
                        send_next: fwd[d][r].0.clone(),
                        recv_prev: fwd[d][prev].1.clone(),
                        send_prev: bwd[d][prev].0.clone(),
                        recv_next: bwd[d][r].1.clone(),
                    })
                } else {
                    None
                }
            });
            let ends = (nranks > 1)
                .then(|| (ring[r].0.clone(), ring[(r + nranks - 1) % nranks].1.clone()));
            let comm = Arc::new(Communicator {
                rank: r,
                nranks,
                ends: Mutex::new(ends),
                gathered: Mutex::new(Vec::new()),
                bytes: AtomicUsize::new(0),
                detail: AtomicBool::new(true),
            });
            RankCtx {
                rank: r,
                rank_grid,
                rank_coor,
                nranks,
                global_dims,
                grid: Grid::build(
                    local_dims,
                    Arc::new(SveCtx::new(vl)),
                    backend,
                    Some((rank_grid, comm.clone())),
                ),
                offset,
                links,
                sent_bytes: Cell::new(0),
                net,
                wait_hist: qcd_trace::histogram("comms.wait"),
                wait_ns: Cell::new(0),
                flight_ns: Cell::new(0),
                last_post: Cell::new(Instant::now()),
                shells: RefCell::new(Vec::with_capacity(SHELL_POOL_CAP)),
                comm,
            }
        })
        .collect();
    // Every channel end now lives in exactly one rank's context, and each
    // context moves into its rank's thread: a rank that panics drops its
    // ends while unwinding, so a neighbour waiting on it — or blocked
    // sending to it — fails with "hung up" instead of waiting forever.
    drop((fwd, bwd, ring));

    std::thread::scope(|scope| {
        let handles: Vec<_> = ctxs
            .into_iter()
            .map(|ctx| {
                let f = &f;
                scope.spawn(move || f(&ctx))
            })
            .collect();
        // The first rank (in rank order) that panicked is the caller's panic.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// Run `f` on a full rank grid (threads), splitting `global_dims` by
/// `rank_grid` (entry `d` = ranks along dimension `d`) over an instant
/// network. Returns per-rank results in linear rank order.
pub fn run_multinode_grid<T: Send>(
    global_dims: Coor,
    rank_grid: Coor,
    vl: VectorLength,
    backend: SimdBackend,
    f: impl Fn(&RankCtx) -> T + Sync,
) -> Vec<T> {
    run_multinode_topo(
        global_dims,
        RankTopology::new(rank_grid),
        vl,
        backend,
        NetworkModel::instant(),
        f,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const GLOBAL: Coor = [4, 4, 4, 8];
    const VL: VectorLength = VectorLength::of(256);

    #[test]
    fn halo_msg_round_trips() {
        let data = vec![1.5, -2.25, 0.0, 1024.0];
        let none = HaloMsg::encode(&data, Compression::None);
        assert_eq!(none.decode(), data);
        assert_eq!(none.wire_bytes(), 32);
        let f16 = HaloMsg::encode(&data, Compression::F16);
        assert_eq!(f16.decode(), data); // all values exact in binary16
        assert_eq!(f16.wire_bytes(), 8);
    }

    #[test]
    fn decode_into_matches_decode_without_allocating_a_fresh_vec() {
        let data = vec![1.5, -2.25, 0.0, 1024.0, -0.375];
        for comp in [Compression::None, Compression::F16] {
            let msg = HaloMsg::encode(&data, comp);
            let mut out = vec![f64::NAN; data.len()];
            msg.decode_into(&mut out);
            assert_eq!(out, msg.decode(), "{comp:?}");
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn decode_into_rejects_a_mis_sized_face_buffer() {
        let msg = HaloMsg::encode(&[1.0, 2.0], Compression::None);
        let mut out = [0.0; 3];
        msg.decode_into(&mut out);
    }

    #[test]
    fn encode_into_shell_reuses_the_spent_buffer() {
        let data = vec![0.5; 64];
        let msg = HaloMsg::encode_into_shell(&data, Compression::None, None);
        let HaloMsg::F64(v) = &msg else {
            panic!("uncompressed encode must yield F64")
        };
        let ptr = v.as_ptr();
        // Re-encoding through the spent shell must reuse its allocation.
        let msg2 = HaloMsg::encode_into_shell(&data, Compression::None, Some(msg));
        let HaloMsg::F64(v2) = &msg2 else {
            panic!("uncompressed encode must yield F64")
        };
        assert_eq!(v2.as_ptr(), ptr, "shell buffer was not reused");
        // A variant mismatch falls back to a fresh buffer of the right kind.
        let msg3 = HaloMsg::encode_into_shell(&data, Compression::F16, Some(msg2));
        assert!(matches!(msg3, HaloMsg::F16(_)));
        assert_eq!(msg3.scalars(), data.len());
    }

    #[test]
    fn wire_format_is_compatible_with_the_shared_codec() {
        // The halo wire format and the qcd-io on-disk format must be the
        // *same* fp16 compression path: identical bit patterns scalar by
        // scalar, under both the u16 and the little-endian byte view.
        use crate::codec::{decode_f64s, encode_f64s, Precision};
        let data: Vec<f64> = (0..257)
            .map(|i| (i as f64 - 128.0) * 0.173 + 1.0e-6)
            .collect();
        let msg = HaloMsg::encode(&data, Compression::F16);
        let bytes = encode_f64s(&data, Precision::F16);
        let HaloMsg::F16(bits) = &msg else {
            panic!("F16 compression must produce an F16 message");
        };
        assert_eq!(bits.len() * 2, bytes.len());
        for (i, b) in bits.iter().enumerate() {
            assert_eq!(
                *b,
                u16::from_le_bytes([bytes[2 * i], bytes[2 * i + 1]]),
                "scalar {i} diverges between wire and disk codecs"
            );
        }
        // And both decode paths reproduce the same doubles.
        assert_eq!(msg.decode(), decode_f64s(&bytes, Precision::F16).unwrap());
        // The uncompressed wire path is bit-exact.
        let none = HaloMsg::encode(&data, Compression::None);
        assert_eq!(none.decode(), data);
    }

    #[test]
    fn f16_wire_is_4x_smaller_with_bounded_error() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64 - 500.0) * 0.37).collect();
        let msg = HaloMsg::encode(&data, Compression::F16);
        assert_eq!(msg.wire_bytes() * 4, data.len() * 8);
        for (orig, got) in data.iter().zip(msg.decode()) {
            let rel = if orig.abs() > 1e-10 {
                ((orig - got) / orig).abs()
            } else {
                (orig - got).abs()
            };
            assert!(rel < 5e-4, "{orig} -> {got}");
        }
    }

    #[test]
    fn waiting_right_after_posting_exposes_the_modeled_flight_time() {
        // 50 µs latency, 1 GB/s: a rank that waits for its faces right
        // after posting its own overlaps nothing, so every received face's
        // flight time must show up as exposed wait.
        let stats = run_multinode_topo(
            GLOBAL,
            RankTopology::one_dim(2),
            VL,
            SimdBackend::Fcmla,
            NetworkModel::custom(50_000, 1.0),
            |ctx| {
                ctx.reset_comm_counters();
                let mut face = vec![1.0; 24];
                ctx.post_face_send(SPLIT_DIM, true, &face, Compression::None);
                ctx.post_face_send(SPLIT_DIM, false, &face, Compression::None);
                ctx.wait_face_into(SPLIT_DIM, false, &mut face);
                ctx.wait_face_into(SPLIT_DIM, true, &mut face);
                (ctx.wait_ns(), ctx.flight_ns())
            },
        );
        for (rank, (wait, flight)) in stats.iter().enumerate() {
            assert!(*flight >= 2 * 50_000, "rank {rank}: flight {flight}");
            // Exposure is measured against the rank's own post stamp, so
            // only the (sub-latency) encode time between posting and
            // waiting can shave anything off; half is a generous floor.
            assert!(
                *wait >= 25_000,
                "rank {rank}: an unoverlapped wait must expose the latency, waited {wait} ns"
            );
        }
    }

    #[test]
    fn ring_allgather_delivers_every_ranks_slab_exactly_once() {
        let nranks = 4;
        let seen = run_multinode_grid(GLOBAL, [1, 1, 1, nranks], VL, SimdBackend::Fcmla, |ctx| {
            let slab = vec![ctx.rank as f64; 3];
            let mut seen = vec![0u32; ctx.nranks];
            let ret = ctx.comm.allgather(slab, |src, s| {
                assert_eq!(s.len(), 3);
                assert!(s.iter().all(|&x| x == src as f64), "slab mislabelled");
                seen[src] += 1;
            });
            // The returned buffer is slab-shaped, ready for reuse.
            assert_eq!(ret.len(), 3);
            assert!(ctx.reduce_bytes() > 0);
            assert_eq!(
                ctx.sent_bytes.get(),
                0,
                "allgather must not count as face bytes"
            );
            seen
        });
        for (rank, counts) in seen.iter().enumerate() {
            assert!(
                counts.iter().all(|&c| c == 1),
                "rank {rank} visits {counts:?}"
            );
        }
    }

    #[test]
    fn posted_faces_land_at_the_neighbours_waits() {
        // post_face_send + wait_face_into move each rank's payload to both
        // neighbours, round after round, through reusable face buffers.
        let nranks = 2;
        let face = GLOBAL[0] * GLOBAL[1] * GLOBAL[2];
        let results =
            run_multinode_grid(GLOBAL, [1, 1, 1, nranks], VL, SimdBackend::Fcmla, |ctx| {
                let mine: Vec<f64> = (0..face).map(|i| (ctx.rank * face + i) as f64).collect();
                let mut from_prev = vec![0.0; face];
                let mut from_next = vec![0.0; face];
                for _round in 0..3 {
                    ctx.post_face_send(SPLIT_DIM, true, &mine, Compression::None);
                    ctx.post_face_send(SPLIT_DIM, false, &mine, Compression::None);
                    ctx.wait_face_into(SPLIT_DIM, false, &mut from_prev);
                    ctx.wait_face_into(SPLIT_DIM, true, &mut from_next);
                }
                (ctx.rank, from_prev, from_next)
            });
        for (rank, from_prev, from_next) in &results {
            let other = (rank + 1) % nranks;
            assert_eq!(from_prev[0], (other * face) as f64);
            assert_eq!(from_next[0], (other * face) as f64);
            assert_eq!(from_prev[face - 1], (other * face + face - 1) as f64);
        }
    }

    #[test]
    fn rank_grid_coordinates_cover_the_lattice() {
        let counts = run_multinode_grid(GLOBAL, [2, 1, 2, 2], VL, SimdBackend::Fcmla, |ctx| {
            assert_eq!(ctx.nranks, 8);
            (ctx.rank, ctx.rank_coor, ctx.offset, ctx.grid.volume())
        });
        let total: usize = counts.iter().map(|c| c.3).sum();
        assert_eq!(total, GLOBAL.iter().product::<usize>());
        // Offsets are all distinct.
        let mut offsets: Vec<_> = counts.iter().map(|c| c.2).collect();
        offsets.sort();
        offsets.dedup();
        assert_eq!(offsets.len(), 8);
    }

    /// Runs `body` on rank 1 of two ranks along t while rank 0 panics
    /// 100 ms in. True when rank 0's panic reaches the caller within the
    /// watchdog's ten seconds; false when the ranks hung.
    fn dead_rank_panic_reaches_the_caller(body: fn(&RankCtx)) -> bool {
        let (done, watchdog) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let run = std::panic::catch_unwind(|| {
                run_multinode_grid(GLOBAL, [1, 1, 1, 2], VL, SimdBackend::Fcmla, |ctx| {
                    if ctx.rank == 0 {
                        // Long enough for rank 1 to be parked in its wait or
                        // send (if it is not yet, it fails without waiting;
                        // the test holds either way).
                        std::thread::sleep(Duration::from_millis(100));
                        panic!("rank 0 dies");
                    }
                    body(ctx)
                })
            });
            let payload = run.err().and_then(|e| e.downcast_ref::<&str>().copied());
            let _ = done.send(payload == Some("rank 0 dies"));
        });
        let reached = watchdog.recv_timeout(Duration::from_secs(10)) == Ok(true);
        if reached {
            // A hung run is left behind; a finished one is joined.
            worker
                .join()
                .expect("the watchdog's thread catches the ranks' panic");
        }
        reached
    }

    #[test]
    fn a_dead_rank_fails_its_neighbours_instead_of_hanging() {
        assert!(
            dead_rank_panic_reaches_the_caller(|ctx| {
                let mut face = vec![0.0; 8];
                ctx.wait_face_into(SPLIT_DIM, false, &mut face);
            }),
            "a face wait on a dead neighbour hung"
        );
        assert!(
            dead_rank_panic_reaches_the_caller(|ctx| {
                // The channel holds FACES_IN_FLIGHT faces; the next send
                // blocks until the dead rank's receiver is gone.
                for _ in 0..=FACES_IN_FLIGHT {
                    ctx.post_face_send(SPLIT_DIM, false, &[1.0; 8], Compression::None);
                }
            }),
            "a send blocked on a dead neighbour's full channel hung"
        );
        assert!(
            dead_rank_panic_reaches_the_caller(|ctx| {
                ctx.comm.allgather(vec![0.0; 4], |_, _| {});
            }),
            "a ring allgather with a dead rank hung"
        );
        assert!(
            dead_rank_panic_reaches_the_caller(|ctx| {
                crate::field::FermionField::zero(ctx.grid.clone()).norm2();
            }),
            "a norm on a rank grid with a dead rank hung"
        );
    }
}
