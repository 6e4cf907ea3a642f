//! Offline stand-in for the [rayon](https://crates.io/crates/rayon) API
//! surface this workspace uses.
//!
//! The build container has no crates.io access, so the workspace vendors the
//! thin slice of rayon it actually calls. Like rayon, it keeps its threads:
//! each thread that opens a parallel region owns up to
//! `current_num_threads() − 1` resident *helpers*, started the first time a
//! region needs them, reused by every later region of that thread, waiting
//! awake for a bounded number of polls and then parked between regions, and
//! stopped and joined when the owning thread exits. Owners never share
//! helpers, so farm workers, rank threads and parallel tests do not contend
//! for a pool. Every thread of a region runs at least one chunk and claims
//! further chunks as it finishes them, so data-parallel kernels still
//! exercise real multi-threading (the telemetry crate's thread-merge tests
//! rely on that) and a slow CPU does not hold a region up.
//!
//! Supported surface:
//! - `par_chunks_mut` / `par_chunks` with `enumerate()`, `for_each`, and
//!   order-preserving `map(..).collect()` (the indexed map/collect the
//!   deterministic field reductions need);
//! - `zip` of two chunk iterators with as many chunks each, of any sizes
//!   (fused solver kernels that update two fields, or that write one
//!   reduction partial per site beside the field they sweep);
//! - `current_num_threads()` / `set_num_threads()` with a `RAYON_NUM_THREADS`
//!   environment override, mirroring rayon's global pool sizing.
//!
//! When one worker would be used (or there is a single chunk), every
//! combinator degrades to a direct serial loop that performs **no heap
//! allocation** — the property the solvers' allocation-free steady state is
//! built on. So does a region opened inside a region of the same thread.
//! `map(..).collect()` necessarily allocates its result vector; callers that
//! must stay allocation-free use `for_each` or serial fallbacks.

// One `unsafe` block in the crate: `run_on_threads` erases the lifetime of
// the region's work to hand it to helpers that outlive the borrow; the
// region's wait guard (`Region`) is what makes that sound.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

/// The items a `use rayon::prelude::*` is expected to bring into scope.
pub mod prelude {
    pub use crate::{IndexedParallelIterator, ParallelSlice, ParallelSliceMut};
}

/// Global worker-count override installed by [`set_num_threads`];
/// `0` = not set.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `RAYON_NUM_THREADS` parsed once (reading the environment allocates, and
/// `current_num_threads` is called from allocation-free kernels).
fn env_num_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(0)
    })
}

/// Fix the number of worker threads parallel operations use (the moral
/// equivalent of rayon's `ThreadPoolBuilder::num_threads` on the global
/// pool). `0` restores the default (environment, then hardware count).
pub fn set_num_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// Number of worker threads parallel operations will use: the
/// [`set_num_threads`] override, else `RAYON_NUM_THREADS`, else
/// `available_parallelism()`.
pub fn current_num_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    let e = env_num_threads();
    if e > 0 {
        return e;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Slices that can be split into parallel immutable chunks.
pub trait ParallelSlice<T: Sync> {
    /// Parallel equivalent of [`slice::chunks`].
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<Cut<&[T]>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<Cut<&[T]>> {
        ParChunks::new(self, chunk_size)
    }
}

/// Slices that can be split into parallel mutable chunks.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel equivalent of [`slice::chunks_mut`].
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunks<Cut<&mut [T]>>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunks<Cut<&mut [T]>> {
        ParChunks::new(self, chunk_size)
    }
}

impl<S> ParChunks<Cut<S>> {
    fn new(data: S, size: usize) -> Self {
        assert!(size > 0, "chunk size must be positive");
        ParChunks {
            data: Cut { data, size },
        }
    }
}

/// Marker trait so `use rayon::prelude::*` call sites that name it resolve.
pub trait IndexedParallelIterator {}

/// What a parallel chunk iterator runs over: a slice cut into chunks of a
/// size, or a pair of them advanced in lockstep.
pub trait Chunked: Sized + Send {
    /// One chunk: `&[T]`, `&mut [T]` or a pair of chunks.
    type Chunk: Send;
    /// Number of chunks (at least one).
    fn count(&self) -> usize;
    /// The chunks, in order.
    fn chunks(self) -> impl Iterator<Item = Self::Chunk>;
}

/// A slice and the size of its chunks.
pub struct Cut<S> {
    data: S,
    size: usize,
}

impl<'a, T: Sync> Chunked for Cut<&'a [T]> {
    type Chunk = &'a [T];
    fn count(&self) -> usize {
        self.data.len().div_ceil(self.size).max(1)
    }
    fn chunks(self) -> impl Iterator<Item = Self::Chunk> {
        self.data.chunks(self.size)
    }
}

impl<'a, T: Send> Chunked for Cut<&'a mut [T]> {
    type Chunk = &'a mut [T];
    fn count(&self) -> usize {
        self.data.len().div_ceil(self.size).max(1)
    }
    fn chunks(self) -> impl Iterator<Item = Self::Chunk> {
        self.data.chunks_mut(self.size)
    }
}

impl<A: Chunked, B: Chunked> Chunked for (A, B) {
    type Chunk = (A::Chunk, B::Chunk);
    fn count(&self) -> usize {
        self.0.count()
    }
    fn chunks(self) -> impl Iterator<Item = Self::Chunk> {
        self.0.chunks().zip(self.1.chunks())
    }
}

/// One chunk's way through a parallel region.
enum Slot<C, R> {
    Todo(C),
    Running,
    Done(R),
}

/// The one place work is handed to threads. With one worker (or one chunk)
/// this is a direct serial loop that spawns nothing and, for `R = ()`,
/// allocates nothing; so is a region opened while this thread's helpers are
/// in a region already (a chunk that opens one, on the caller or on a
/// helper). Otherwise see [`run_on_threads`]. Results come back in chunk
/// order either way.
fn run<S: Chunked, R: Send>(data: S, f: impl Fn((usize, S::Chunk)) -> R + Sync) -> Vec<R> {
    let threads = current_num_threads().min(data.count()).max(1);
    if threads > 1 {
        if let Some(region) = Region::enter() {
            let slots = data
                .chunks()
                .map(|chunk| Mutex::new(Slot::Todo(chunk)))
                .collect();
            return run_on_threads(region, slots, threads, &f);
        }
    }
    data.chunks().enumerate().map(f).collect()
}

/// Helper `k` of this thread is handed chunk `k` and the caller works beside
/// them instead of only waiting, so every thread the caller asked for takes
/// part; the remaining chunks are claimed one at a time, helpers from the
/// front and the caller from the back, so a thread whose CPU is slow or late
/// takes fewer chunks and the region ends when the work does, not when the
/// slower half of a fixed split does. Not generic over the kernel: one copy
/// per chunk and result type.
#[inline(never)]
fn run_on_threads<C: Send, R: Send>(
    region: Region,
    slots: Vec<Mutex<Slot<C, R>>>,
    threads: usize,
    f: &(dyn Fn((usize, C)) -> R + Sync),
) -> Vec<R> {
    let unclaimed = Mutex::new(threads - 1..slots.len());
    // No lock is held while `f` runs.
    let run_chunk = |i: usize| {
        let claimed = std::mem::replace(&mut *slots[i].lock().unwrap(), Slot::Running);
        let Slot::Todo(chunk) = claimed else {
            unreachable!("chunk {i} claimed twice");
        };
        let result = f((i, chunk));
        *slots[i].lock().unwrap() = Slot::Done(result);
    };
    let work = |first: usize| {
        let mut next = Some(first);
        while let Some(i) = next {
            run_chunk(i);
            next = unclaimed.lock().unwrap().next();
        }
    };
    let work: &(dyn Fn(usize) + Sync) = &work;
    // SAFETY: only the lifetime changes. `work` borrows this frame (`slots`,
    // `unclaimed`, `f`) and goes to helpers that outlive it. A helper calls
    // it only while its seat is busy, and the erased reference is handed out
    // only by `region`, bound below everything `work` borrows: it is dropped
    // first, on return and while a panic unwinds alike, and its drop does not
    // return until every helper has run out of chunks and cleared its seat
    // (a helper catches a panic of `work` before it does).
    #[allow(unsafe_code)]
    let work = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Work>(work) };
    let mut region = region;
    region.post(work, threads - 1);
    let claim_back = || unclaimed.lock().unwrap().next_back();
    while let Some(i) = claim_back() {
        run_chunk(i);
    }
    region.leave();
    slots
        .into_iter()
        .map(|slot| match slot.into_inner().unwrap() {
            Slot::Done(result) => result,
            _ => unreachable!("the region ended with a chunk not run"),
        })
        .collect()
}

/// A region's work with its lifetime erased: `work(k)` runs chunk `k`,
/// then claims chunks from the front until none are left.
type Work = &'static (dyn Fn(usize) + Sync);

/// Polls of its seat a helper makes between regions before it parks: about
/// 30 µs on a 2-vCPU x86-64 host, so the helpers of a solve stay awake
/// from one region to the next (a region opened then costs 1.5 µs, one
/// opened after a park 5–19 µs), and a thread that stops opening regions
/// leaves its helpers asleep. Each poll yields: with more helpers than CPUs
/// the thread they wait for gets one at once.
const POLLS_BEFORE_PARKING: u32 = 200;

thread_local! {
    /// This thread's helpers, started as its regions first need them; `None`
    /// while a region of this thread has them, and always on a helper, so a
    /// region opened there runs serially. Dropped with the thread, which
    /// stops and joins them.
    static HELPERS: Cell<Option<Vec<Helper>>> = const { Cell::new(Some(Vec::new())) };
}

/// What a seat holds.
enum Mail {
    Idle,
    Run(Work, usize),
    Panicked(Box<dyn Any + Send>),
    Stop,
}

/// Where a caller and one of its helpers meet.
struct Seat {
    /// Set by the caller after it writes a job into `mail`; cleared by the
    /// helper after it has finished with the job and written its outcome.
    busy: AtomicBool,
    mail: Mutex<Mail>,
}

/// A resident thread that runs one region's work at a time for its owner.
struct Helper {
    seat: Arc<Seat>,
    thread: Option<JoinHandle<()>>,
}

impl Helper {
    fn start() -> Helper {
        let seat = Arc::new(Seat {
            busy: AtomicBool::new(false),
            mail: Mutex::new(Mail::Idle),
        });
        let theirs = Arc::clone(&seat);
        let thread = std::thread::Builder::new()
            .spawn(move || serve(&theirs))
            .expect("failed to start a rayon helper thread");
        Helper {
            seat,
            thread: Some(thread),
        }
    }

    fn post(&self, mail: Mail) {
        *self.seat.mail.lock().unwrap() = mail;
        self.seat.busy.store(true, Ordering::Release);
        if let Some(thread) = &self.thread {
            thread.thread().unpark();
        }
    }

    /// Wait awake until the helper hands its job back (it is in its last
    /// chunk: a futex sleep and wake-up would cost more); the payload of a
    /// panic it caught.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        while self.seat.busy.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        match std::mem::replace(&mut *self.seat.mail.lock().unwrap(), Mail::Idle) {
            Mail::Panicked(payload) => Some(payload),
            _ => None,
        }
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        self.post(Mail::Stop);
        if let Some(thread) = self.thread.take() {
            // `serve` catches every panic of the work it runs.
            let _ = thread.join();
        }
    }
}

/// A helper's life: wait for a job, run it, hand it back, until stopped.
fn serve(seat: &Seat) {
    HELPERS.with(|helpers| helpers.set(None));
    loop {
        let mut polls = 0;
        while !seat.busy.load(Ordering::Acquire) {
            if polls < POLLS_BEFORE_PARKING {
                polls += 1;
                std::thread::yield_now();
            } else {
                std::thread::park();
            }
        }
        let outcome = match std::mem::replace(&mut *seat.mail.lock().unwrap(), Mail::Idle) {
            Mail::Run(work, first) => catch_unwind(AssertUnwindSafe(|| work(first))),
            Mail::Stop => return,
            _ => unreachable!("a busy seat holds a job"),
        };
        if let Err(payload) = outcome {
            *seat.mail.lock().unwrap() = Mail::Panicked(payload);
        }
        // From here on the caller may end the borrow `work` erased.
        seat.busy.store(false, Ordering::Release);
    }
}

/// This thread's helpers, lent to one region. Dropping it — on return or
/// while a panic unwinds — waits until every helper has handed its work back
/// (one not posted to has none), then returns the helpers to the thread.
struct Region {
    helpers: Vec<Helper>,
}

impl Region {
    /// The thread's helpers, unless a region of this thread has them.
    fn enter() -> Option<Region> {
        let helpers = HELPERS.try_with(Cell::take).ok().flatten()?;
        Some(Region { helpers })
    }

    /// Hand `work` to `count` helpers, starting those the thread lacks;
    /// helper `k` begins at chunk `k`.
    fn post(&mut self, work: Work, count: usize) {
        while self.helpers.len() < count {
            self.helpers.push(Helper::start());
        }
        for (k, helper) in self.helpers[..count].iter().enumerate() {
            helper.post(Mail::Run(work, k));
        }
    }

    /// Wait for the helpers; the first panic one of them caught.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let panics = self.helpers.iter().filter_map(Helper::wait);
        panics.fold(None, |first, payload| first.or(Some(payload)))
    }

    /// End the region: wait for the helpers, give them back to the thread,
    /// and resume on the caller a panic a helper caught.
    fn leave(self) {
        let panicked = self.wait();
        drop(self);
        if let Some(payload) = panicked {
            resume_unwind(payload);
        }
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        // Not returned: a panic on the caller is already unwinding.
        drop(self.wait());
        let helpers = std::mem::take(&mut self.helpers);
        // A thread whose TLS is being torn down stops them here instead.
        let _ = HELPERS.try_with(move |slot| slot.set(Some(helpers)));
    }
}

/// Parallel chunk iterator (see [`ParallelSlice::par_chunks`],
/// [`ParallelSliceMut::par_chunks_mut`], [`ParChunks::zip`]).
pub struct ParChunks<S> {
    data: S,
}

impl<S: Chunked> ParChunks<S> {
    /// Pair every chunk with its index, preserving slice order.
    pub fn enumerate(self) -> EnumParChunks<S> {
        EnumParChunks { inner: self }
    }

    /// Run `f` on every chunk, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(S::Chunk) + Sync,
    {
        self.enumerate().for_each(|(_, chunk)| f(chunk));
    }

    /// Pair chunk `i` of `self` with chunk `i` of `other`. The two need not
    /// cut their slices alike, but must have as many chunks.
    pub fn zip<B: Chunked>(self, other: ParChunks<B>) -> ParChunks<(S, B)> {
        assert_eq!(
            self.data.count(),
            other.data.count(),
            "zipped parallel chunk iterators must have as many chunks"
        );
        ParChunks {
            data: (self.data, other.data),
        }
    }
}

/// Enumerated variant of [`ParChunks`].
pub struct EnumParChunks<S> {
    inner: ParChunks<S>,
}

impl<S: Chunked> EnumParChunks<S> {
    /// Run `f` on every `(index, chunk)` pair, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, S::Chunk)) + Sync,
    {
        // A `Vec<()>` never allocates.
        run(self.inner.data, f);
    }

    /// Map every `(index, chunk)` pair through `f` (order-preserving; see
    /// [`MapEnumParChunks::collect`]).
    pub fn map<R, F>(self, f: F) -> MapEnumParChunks<S, F>
    where
        F: Fn((usize, S::Chunk)) -> R + Sync,
        R: Send,
    {
        MapEnumParChunks {
            inner: self.inner,
            f,
        }
    }
}

/// Pending `map` over enumerated chunks.
pub struct MapEnumParChunks<S, F> {
    inner: ParChunks<S>,
    f: F,
}

impl<S: Chunked, F> MapEnumParChunks<S, F> {
    /// Evaluate the map in parallel and return results in chunk order.
    pub fn collect<R>(self) -> Vec<R>
    where
        F: Fn((usize, S::Chunk)) -> R + Sync,
        R: Send,
    {
        run(self.inner.data, self.f)
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard};
    use std::thread::ThreadId;

    /// The global thread count, held by every test that sets it, so that a
    /// test's regions run with the count it asked for.
    fn hold_thread_count() -> MutexGuard<'static, ()> {
        static COUNT: Mutex<()> = Mutex::new(());
        COUNT
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The thread that ran each of `chunks` one-byte chunks of a region.
    fn ran_on(chunks: usize) -> Vec<ThreadId> {
        let data = vec![0u8; chunks];
        data.par_chunks(1)
            .enumerate()
            .map(|(_, _)| std::thread::current().id())
            .collect()
    }

    fn distinct(ids: &[ThreadId]) -> usize {
        ids.iter().collect::<HashSet<_>>().len()
    }

    #[test]
    fn chunks_cover_the_slice_in_order() {
        let mut data = vec![0usize; 103];
        data.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for v in chunk.iter_mut() {
                *v = i + 1;
            }
        });
        for (j, v) in data.iter().enumerate() {
            assert_eq!(*v, j / 10 + 1);
        }
    }

    #[test]
    fn runs_on_multiple_threads_when_available() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids = Mutex::new(HashSet::new());
        let mut data = [0u8; 64];
        data.par_chunks_mut(1).for_each(|_| {
            ids.lock().unwrap().insert(std::thread::current().id());
        });
        let ids = ids.into_inner().unwrap();
        assert!(
            ids.contains(&std::thread::current().id()),
            "the calling thread runs a group itself"
        );
        if super::current_num_threads() > 1 {
            assert!(ids.len() > 1, "expected work on more than one thread");
        }
    }

    #[test]
    fn a_slow_thread_keeps_only_the_chunk_it_is_in() {
        use std::sync::Mutex;
        let ran_on = Mutex::new(vec![None; 64]);
        let mut data = [0u8; 64];
        data.par_chunks_mut(1).enumerate().for_each(|(i, _)| {
            ran_on.lock().unwrap()[i] = Some(std::thread::current().id());
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        });
        let ran_on = ran_on.into_inner().unwrap();
        let slow = ran_on[0].expect("chunk 0 ran");
        if slow != std::thread::current().id() {
            // Chunk 0 went to a worker; while it slept, the other 63 chunks
            // were there for the taking.
            let kept = ran_on.iter().filter(|&&id| id == Some(slow)).count();
            assert_eq!(kept, 1, "the sleeping thread was left more chunks");
        }
    }

    #[test]
    fn immutable_chunks_see_the_right_data() {
        let data: Vec<usize> = (0..97).collect();
        let sums = std::sync::Mutex::new(vec![0usize; 10]);
        data.par_chunks(10).enumerate().for_each(|(i, chunk)| {
            sums.lock().unwrap()[i] = chunk.iter().sum();
        });
        let got = sums.into_inner().unwrap();
        for (i, s) in got.iter().enumerate() {
            let want: usize = (i * 10..((i + 1) * 10).min(97)).sum();
            assert_eq!(*s, want, "chunk {i}");
        }
    }

    #[test]
    fn map_collect_preserves_chunk_order() {
        let _count = hold_thread_count();
        let data: Vec<u32> = (0..57).collect();
        for threads in [1usize, 2, 8] {
            super::set_num_threads(threads);
            let got: Vec<(usize, u32)> = data
                .par_chunks(5)
                .enumerate()
                .map(|(i, c)| (i, c.iter().sum::<u32>()))
                .collect();
            assert_eq!(got.len(), 12);
            for (i, (gi, _)) in got.iter().enumerate() {
                assert_eq!(i, *gi);
            }
            let total: u32 = got.iter().map(|(_, s)| s).sum();
            assert_eq!(total, (0..57).sum::<u32>(), "threads={threads}");
        }
        super::set_num_threads(0);
    }

    #[test]
    fn mutable_map_collect_mutates_and_returns_in_order() {
        let mut data = vec![1u64; 40];
        let partials: Vec<u64> = data
            .par_chunks_mut(7)
            .enumerate()
            .map(|(i, c)| {
                for v in c.iter_mut() {
                    *v += i as u64;
                }
                c.iter().sum()
            })
            .collect();
        assert_eq!(partials.len(), 6);
        let direct: Vec<u64> = data.chunks(7).map(|c| c.iter().sum()).collect();
        assert_eq!(partials, direct);
    }

    #[test]
    fn zip_advances_both_slices_in_lockstep() {
        let mut a = vec![0usize; 33];
        let mut b = vec![0usize; 33];
        a.par_chunks_mut(4)
            .zip(b.par_chunks_mut(4))
            .enumerate()
            .for_each(|(i, (ca, cb))| {
                for v in ca.iter_mut() {
                    *v = 2 * i;
                }
                for v in cb.iter_mut() {
                    *v = 2 * i + 1;
                }
            });
        for (j, (va, vb)) in a.iter().zip(&b).enumerate() {
            assert_eq!(*va, 2 * (j / 4));
            assert_eq!(*vb, 2 * (j / 4) + 1);
        }
    }

    #[test]
    fn zip_pairs_chunks_of_different_sizes_by_index() {
        let _count = hold_thread_count();
        // Eleven chunks of four words beside eleven chunks of two partials,
        // the shape of a sweep that writes a value per site: threads never
        // change which chunk meets which.
        let words: Vec<usize> = (0..42).collect();
        for threads in [1usize, 2, 8] {
            super::set_num_threads(threads);
            let mut partials = [0usize; 22];
            partials
                .par_chunks_mut(2)
                .zip(words.par_chunks(4))
                .enumerate()
                .for_each(|(i, (p, w))| {
                    p[0] = i;
                    p[1] = w.iter().sum();
                });
            for (i, p) in partials.chunks(2).enumerate() {
                assert_eq!(p[0], i, "threads={threads}");
                assert_eq!(p[1], words.chunks(4).nth(i).unwrap().iter().sum::<usize>());
            }
        }
        super::set_num_threads(0);
    }

    #[test]
    #[should_panic(expected = "as many chunks")]
    fn zip_refuses_unequal_chunk_counts() {
        let mut a = [0u8; 8];
        let b = [0u8; 9];
        a.par_chunks_mut(4).zip(b.par_chunks(4)).for_each(|_| {});
    }

    #[test]
    fn a_panic_on_a_helper_reaches_the_caller_and_the_helper_stays() {
        let _count = hold_thread_count();
        super::set_num_threads(2);
        let helper = Mutex::new(None);
        let mut data = [0u8; 8];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            data.par_chunks_mut(1).enumerate().for_each(|(i, _)| {
                if i == 0 {
                    *helper.lock().unwrap() = Some(std::thread::current().id());
                    panic!("chunk 0 gave up");
                }
            })
        }));
        let payload = caught.expect_err("the helper's panic reached the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk 0 gave up"));
        let helper = helper.into_inner().unwrap().expect("chunk 0 ran");
        assert_ne!(
            helper,
            std::thread::current().id(),
            "chunk 0 ran on a helper"
        );
        // The same helper takes chunk 0 of the next region.
        assert_eq!(ran_on(8)[0], helper);
        super::set_num_threads(0);
    }

    #[test]
    fn a_panic_on_the_caller_waits_for_the_helpers() {
        let _count = hold_thread_count();
        super::set_num_threads(2);
        let handed_back = AtomicBool::new(false);
        let mut data = [0u8; 2];
        // Chunk 0 is the helper's, chunk 1 the caller's.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            data.par_chunks_mut(1).enumerate().for_each(|(i, _)| {
                if i == 1 {
                    panic!("chunk 1 gave up");
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
                handed_back.store(true, Ordering::SeqCst);
            })
        }));
        let payload = caught.expect_err("the caller's panic unwound");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk 1 gave up"));
        assert!(
            handed_back.load(Ordering::SeqCst),
            "the caller unwound while a helper still ran the region's chunk"
        );
        super::set_num_threads(0);
    }

    #[test]
    fn a_region_inside_a_chunk_completes_in_chunk_order() {
        let _count = hold_thread_count();
        super::set_num_threads(2);
        let data: Vec<usize> = (0..64).collect();
        let got: Vec<Vec<(usize, usize, usize)>> = data
            .par_chunks(16)
            .enumerate()
            .map(|(i, outer)| {
                outer
                    .par_chunks(4)
                    .enumerate()
                    .map(|(j, inner)| (i, j, inner.iter().sum()))
                    .collect()
            })
            .collect();
        let want: Vec<Vec<(usize, usize, usize)>> = data
            .chunks(16)
            .enumerate()
            .map(|(i, outer)| {
                let inner = outer.chunks(4).enumerate();
                inner.map(|(j, c)| (i, j, c.iter().sum())).collect()
            })
            .collect();
        assert_eq!(got, want);
        super::set_num_threads(0);
    }

    #[test]
    fn two_callers_run_regions_at_once_on_their_own_helpers() {
        let _count = hold_thread_count();
        super::set_num_threads(2);
        let both = std::sync::Barrier::new(2);
        let seen: Vec<HashSet<ThreadId>> = std::thread::scope(|s| {
            let callers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        both.wait();
                        let mut seen = HashSet::new();
                        for _ in 0..50 {
                            let data: Vec<u64> = (0..40).collect();
                            let sums: Vec<u64> = data
                                .par_chunks(5)
                                .enumerate()
                                .map(|(_, c)| c.iter().sum())
                                .collect();
                            let want: Vec<u64> = data.chunks(5).map(|c| c.iter().sum()).collect();
                            assert_eq!(sums, want);
                            seen.extend(ran_on(8));
                        }
                        seen
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        assert_eq!(seen[0].len(), 2, "a caller and its one helper");
        assert_eq!(seen[1].len(), 2, "a caller and its one helper");
        assert!(seen[0].is_disjoint(&seen[1]), "two callers shared a helper");
        super::set_num_threads(0);
    }

    #[test]
    fn the_thread_count_can_change_between_regions() {
        let _count = hold_thread_count();
        for threads in [2usize, 8, 2] {
            super::set_num_threads(threads);
            let data: Vec<usize> = (0..64).collect();
            let sums: Vec<usize> = data
                .par_chunks(4)
                .enumerate()
                .map(|(_, c)| c.iter().sum())
                .collect();
            let want: Vec<usize> = data.chunks(4).map(|c| c.iter().sum()).collect();
            assert_eq!(sums, want, "threads={threads}");
            let ids = ran_on(16);
            assert!(distinct(&ids) <= threads, "threads={threads}");
            assert!(
                distinct(&ids) >= 2,
                "threads={threads}: chunk 0 is a helper's"
            );
        }
        super::set_num_threads(0);
    }

    #[test]
    fn consecutive_regions_start_no_threads() {
        // 200 regions run on the caller and the one helper it started for
        // the first: at most `threads` thread ids, not one per region.
        let _count = hold_thread_count();
        super::set_num_threads(2);
        let mut ids = Vec::new();
        for _ in 0..200 {
            ids.extend(ran_on(8));
        }
        assert_eq!(distinct(&ids), 2);
        super::set_num_threads(0);
    }

    #[test]
    fn an_owners_helpers_end_with_it() {
        // Each helper counts its own exit: a thread-local dropped when the
        // helper thread ends.
        struct OnExit(Arc<AtomicUsize>);
        impl Drop for OnExit {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static ON_EXIT: std::cell::Cell<Option<OnExit>> = const { std::cell::Cell::new(None) };
        }
        let _count = hold_thread_count();
        super::set_num_threads(3);
        let ended = Arc::new(AtomicUsize::new(0));
        let helpers = std::thread::spawn({
            let ended = Arc::clone(&ended);
            move || {
                let owner = std::thread::current().id();
                let helpers = Mutex::new(HashSet::new());
                [0u8; 8].par_chunks(1).for_each(|_| {
                    let me = std::thread::current().id();
                    if me != owner && helpers.lock().unwrap().insert(me) {
                        ON_EXIT.with(|on_exit| on_exit.set(Some(OnExit(Arc::clone(&ended)))));
                    }
                });
                helpers.into_inner().unwrap().len()
            }
        })
        .join()
        .unwrap();
        assert_eq!(helpers, 2);
        assert_eq!(
            ended.load(Ordering::SeqCst),
            2,
            "a helper outlived the thread that owned it"
        );
        super::set_num_threads(0);
    }

    #[test]
    fn set_num_threads_overrides_the_default() {
        let _count = hold_thread_count();
        super::set_num_threads(3);
        assert_eq!(super::current_num_threads(), 3);
        super::set_num_threads(0);
        assert!(super::current_num_threads() >= 1);
    }
}
