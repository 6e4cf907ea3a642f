//! Offline stand-in for the [rayon](https://crates.io/crates/rayon) API
//! surface this workspace uses.
//!
//! The build container has no crates.io access, so the workspace vendors the
//! thin slice of rayon it actually calls, implemented over
//! `std::thread::scope`. Every worker thread runs at least one chunk and
//! claims further chunks as it finishes them, so data-parallel kernels
//! still exercise real multi-threading (the telemetry crate's thread-merge
//! tests rely on that) and a slow CPU does not hold a region up.
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
//! built on. `map(..).collect()` necessarily allocates its result vector;
//! callers that must stay allocation-free use `for_each` or serial fallbacks.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

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
/// allocates nothing; otherwise see [`run_on_threads`]. Results come back
/// in chunk order either way.
fn run<S: Chunked, R: Send>(data: S, f: impl Fn((usize, S::Chunk)) -> R + Sync) -> Vec<R> {
    let threads = current_num_threads().min(data.count()).max(1);
    if threads <= 1 {
        return data.chunks().enumerate().map(f).collect();
    }
    let slots = data
        .chunks()
        .map(|chunk| Mutex::new(Slot::Todo(chunk)))
        .collect();
    run_on_threads(slots, threads, &f)
}

/// `threads - 1` scoped threads are spawned and the calling thread works
/// beside them instead of only waiting. Worker `k` always runs chunk `k`, so
/// every thread the caller asked for takes part; the remaining chunks are
/// claimed one at a time, workers from the front and the caller from the
/// back, so a thread whose CPU is slow or late takes fewer chunks and the
/// region ends when the work does, not when the slower half of a fixed split
/// does. Not generic over the kernel: one copy per chunk and result type.
#[inline(never)]
fn run_on_threads<C: Send, R: Send>(
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
    let (run_chunk, unclaimed_ref) = (&run_chunk, &unclaimed);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads - 1)
            .map(|k| {
                scope.spawn(move || {
                    let mut next = Some(k);
                    while let Some(i) = next {
                        run_chunk(i);
                        next = unclaimed_ref.lock().unwrap().next();
                    }
                })
            })
            .collect();
        let claim_back = || unclaimed_ref.lock().unwrap().next_back();
        while let Some(i) = claim_back() {
            run_chunk(i);
        }
        // The workers are inside their last chunk. Waiting awake costs less
        // than a futex sleep and wake-up, and a worker that has handed in its
        // result need not be joined: the scope waits for the closure to end,
        // a join would wait for the operating system to tear the thread down.
        for worker in &workers {
            while !worker.is_finished() {
                std::thread::yield_now();
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| match slot.into_inner().unwrap() {
            Slot::Done(result) => result,
            _ => unreachable!("the scope ended with a chunk not run"),
        })
        .collect()
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
    fn set_num_threads_overrides_the_default() {
        super::set_num_threads(3);
        assert_eq!(super::current_num_threads(), 3);
        super::set_num_threads(0);
        assert!(super::current_num_threads() >= 1);
    }
}
