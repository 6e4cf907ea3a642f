//! Offline stand-in for the [crossbeam](https://crates.io/crates/crossbeam)
//! API surface this workspace uses: multi-producer multi-consumer unbounded
//! *and bounded* channels with cloneable senders *and* receivers.
//!
//! The build container has no crates.io access; this vendors the one slice
//! the comms layer calls, over `Mutex<VecDeque>` + `Condvar`.

#![forbid(unsafe_code)]

pub mod channel {
    //! MPMC channels, mirroring `crossbeam::channel`.

    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    /// How long [`Receiver::recv`] waits awake for a message before it
    /// parks, as crossbeam's own `recv` backs off before it blocks. Threads
    /// that hand messages back and forth (rank threads trading halos and
    /// reduction slabs) are rarely more than a few tens of microseconds
    /// apart; sleeping through such a gap costs a futex wait, an idle CPU
    /// and a wake-up as long as the gap itself. On a virtual CPU it costs
    /// more: every sleep hands the CPU back to the hypervisor, which is free
    /// to bring it back somewhere worse, and a two-rank solve that parked
    /// 80 times ran in the host's slow phases more than twice as often as
    /// one that parked 7 times (EXPERIMENTS.md, "Run-to-run spread of the
    /// two-thread workloads"). KVM polls a halted CPU for the same 200 µs
    /// by default.
    const POLL: Duration = Duration::from_micros(200);

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// `usize::MAX` for unbounded channels; otherwise [`Sender::send`]
        /// blocks while the queue holds `capacity` messages.
        capacity: usize,
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
        /// `state.queue.len()`, written under the lock and kept where a
        /// waiting receiver can read it without taking the lock a sender
        /// needs. Only a hint that it is worth locking (`Relaxed`): the
        /// queue itself is read under the lock.
        queued: AtomicUsize,
        ready: Condvar,
        /// Signalled when a bounded queue frees a slot.
        space: Condvar,
    }

    /// Sending half; cloneable.
    pub struct Sender<T>(Arc<Inner<T>>);

    /// Receiving half; cloneable (any one receiver gets each message).
    pub struct Receiver<T>(Arc<Inner<T>>);

    /// Error returned when sending on a channel with no receivers left — at
    /// once, or as soon as the last receiver drops while a bounded send is
    /// blocked on a full queue.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned when all senders disconnected and the queue drained.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    impl std::fmt::Display for RecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Create an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                capacity: usize::MAX,
            }),
            queued: AtomicUsize::new(0),
            ready: Condvar::new(),
            space: Condvar::new(),
        });
        (Sender(inner.clone()), Receiver(inner))
    }

    /// Create a bounded channel holding at most `cap` messages. A send on
    /// a full queue blocks until a receiver frees a slot — the sender
    /// experiences backpressure instead of growing the queue without
    /// bound. The queue's backing storage is reserved up front, so sends
    /// within capacity never allocate.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        assert!(cap > 0, "bounded channel needs capacity >= 1");
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(cap),
                senders: 1,
                receivers: 1,
                capacity: cap,
            }),
            queued: AtomicUsize::new(0),
            ready: Condvar::new(),
            space: Condvar::new(),
        });
        (Sender(inner.clone()), Receiver(inner))
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.state.lock().unwrap().senders += 1;
            Sender(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.0.state.lock().unwrap();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.0.ready.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Enqueue a message. On a bounded channel this blocks while the
        /// queue is at capacity (backpressure); unbounded sends never
        /// block. Fails once every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.0.state.lock().unwrap();
            while st.receivers > 0 && st.queue.len() >= st.capacity {
                st = self.0.space.wait(st).unwrap();
            }
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            st.queue.push_back(value);
            self.0.queued.store(st.queue.len(), Ordering::Relaxed);
            drop(st);
            self.0.ready.notify_one();
            Ok(())
        }

        /// Enqueue without blocking; returns the message back if the
        /// bounded queue is full or every receiver is gone.
        pub fn try_send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.0.state.lock().unwrap();
            if st.receivers == 0 || st.queue.len() >= st.capacity {
                return Err(SendError(value));
            }
            st.queue.push_back(value);
            self.0.queued.store(st.queue.len(), Ordering::Relaxed);
            drop(st);
            self.0.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.state.lock().unwrap().receivers += 1;
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.0.state.lock().unwrap();
            st.receivers -= 1;
            if st.receivers == 0 {
                drop(st);
                self.0.space.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives or every sender disconnects.
        pub fn recv(&self) -> Result<T, RecvError> {
            // Yielding, not spinning on a pause instruction: when more
            // threads wait than there are CPUs, the thread this one waits
            // for gets the CPU at once.
            let deadline = Instant::now() + POLL;
            while self.0.queued.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            let mut st = self.0.state.lock().unwrap();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    self.0.queued.store(st.queue.len(), Ordering::Relaxed);
                    drop(st);
                    self.0.space.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.0.ready.wait(st).unwrap();
            }
        }

        /// Non-blocking receive of an already-queued message.
        pub fn try_recv(&self) -> Result<T, RecvError> {
            let mut st = self.0.state.lock().unwrap();
            let v = st.queue.pop_front();
            self.0.queued.store(st.queue.len(), Ordering::Relaxed);
            drop(st);
            match v {
                Some(v) => {
                    self.0.space.notify_one();
                    Ok(v)
                }
                None => Err(RecvError),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;

    #[test]
    fn fifo_round_trip() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn cross_thread_exchange() {
        let (tx, rx) = unbounded();
        let (tx2, rx2) = unbounded();
        std::thread::scope(|s| {
            s.spawn(move || {
                tx.send(42u64).unwrap();
                assert_eq!(rx2.recv(), Ok(7u64));
            });
            tx2.send(7).unwrap();
            assert_eq!(rx.recv(), Ok(42));
        });
    }

    #[test]
    fn disconnected_recv_errors() {
        let (tx, rx) = unbounded::<u8>();
        tx.send(9).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(9));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn recv_outlasts_its_polling_window() {
        // The sender is later than `recv` waits awake, so the message and
        // then the disconnect reach a parked receiver. (If a sleep is cut
        // short the polling path delivers them; the assertions hold either
        // way.)
        let (tx, rx) = unbounded();
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                tx.send(1u8).unwrap();
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Err(RecvError));
        });
    }

    #[test]
    fn bounded_send_blocks_at_capacity_until_a_recv_frees_a_slot() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        // Queue full: try_send reports backpressure instead of growing.
        assert_eq!(tx.try_send(3), Err(SendError(3)));
        std::thread::scope(|s| {
            let t = s.spawn(|| {
                // Blocks until the main thread drains one slot.
                tx.send(3).unwrap();
            });
            assert_eq!(rx.recv(), Ok(1));
            t.join().unwrap();
        });
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn bounded_capacity_is_preallocated() {
        // Within capacity, sends must not reallocate the backing queue —
        // the distributed hot path counts on this for its zero-allocation
        // steady state.
        let (tx, rx) = bounded::<u64>(4);
        for round in 0..8 {
            for i in 0..4 {
                tx.send(round * 4 + i).unwrap();
            }
            for i in 0..4 {
                assert_eq!(rx.recv(), Ok(round * 4 + i));
            }
        }
    }

    #[test]
    fn a_send_blocked_on_a_full_queue_fails_when_the_last_receiver_drops() {
        let (tx, rx) = bounded(1);
        let rx2 = rx.clone();
        tx.send(1u8).unwrap();
        std::thread::scope(|s| {
            // The send blocks on the full queue, and fails when the second
            // receiver goes. (If the sleep is cut short it fails without
            // blocking; the assertions hold either way.)
            let t = s.spawn(|| tx.send(2));
            drop(rx);
            std::thread::sleep(std::time::Duration::from_millis(5));
            drop(rx2);
            assert_eq!(t.join().unwrap(), Err(SendError(2)));
        });
        assert_eq!(tx.send(3), Err(SendError(3)));
        assert_eq!(tx.try_send(4), Err(SendError(4)));
    }

    #[test]
    fn cloned_endpoints_share_the_queue() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        let rx2 = rx.clone();
        tx2.send("a").unwrap();
        assert_eq!(rx2.recv(), Ok("a"));
        drop(tx);
        drop(tx2);
        assert!(rx.recv().is_err());
    }
}
