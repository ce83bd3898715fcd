//! Cross-worker commit-flush coalescing: a shared per-log-device flush
//! sequencer.
//!
//! The live runtime has one log device per box — a [`FlushDevice`]: a
//! [`SimulatedDevice`] sleep, or a real `write+fsync` pass in durable
//! mode. A durable commit needs *a* device flush that starts after its log
//! writes — not a flush of its own. [`FlushSequencer`] turns that
//! observation into shared state:
//!
//! * A writer whose log writes are (logically) in the device buffer grabs
//!   a **ticket** with [`enqueue`](FlushSequencer::enqueue). The ticket
//!   names the next flush *epoch*: any device flush that starts after the
//!   ticket was issued covers it.
//! * Anyone needing durability calls
//!   [`wait_durable`](FlushSequencer::wait_durable), the one wait. The
//!   first waiter to find no flush in flight (once its `patience` has
//!   run out — zero for an eager leader) becomes the **leader** for a
//!   fresh epoch: it claims `next_epoch`, performs the device operation
//!   *outside* the lock, then publishes `durable = epoch` and wakes every
//!   waiter. A ticket issued before the claim is `<= epoch`, so one device
//!   flush retires every waiter that enqueued before it started. That is
//!   the coalescing: concurrent 2PC coordinators share one device
//!   operation instead of paying one each, and worker group commits ride
//!   the same flush stream without ever sleeping
//!   ([`commit_group`](FlushSequencer::commit_group)).
//! * Waiters whose ticket is already durable — or becomes durable while
//!   they wait on another leader's flush — never touch the device at
//!   all; they are counted in `flushes_coalesced`.
//!
//! Deadlock-freedom: a waiter that finds `flushing == false` after its
//! patience always becomes the leader itself, so the only unbounded
//! blocked state is "a leader is inside the device operation", which ends
//! with `notify_all`. Every wake re-checks `durable >= ticket` under the
//! lock (condvar waits are spurious-wakeup safe by construction).
//!
//! The protocol is model-checked — including two seeded-bug twins — in
//! `crates/common/tests/flush_model.rs`; the `check` build drives this
//! exact code through [`wait_durable`](FlushSequencer::wait_durable) with
//! a device built on model atomics.

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// The pluggable device operation behind a flush epoch: whatever makes the
/// log writes issued before the flush started durable. The sequencer calls
/// [`FlushDevice::flush`] exactly once per led epoch, outside its lock, so
/// implementations may block (an `fwrite+fsync` pass, a modeled sleep).
pub trait FlushDevice: Send + Sync {
    /// Performs one device flush for `epoch`. On return, every log write
    /// made before this flush started must be durable.
    fn flush(&self, epoch: u64);

    /// True when durability is free (flushing is a no-op): waits against
    /// this device return immediately without touching the sequencer or
    /// its counters.
    fn is_free(&self) -> bool {
        false
    }
}

/// Durability modeled as a fixed-latency sleep per device flush (the
/// runtime's `commit_flush_us`). A zero duration means "durability is
/// free": [`FlushSequencer::wait_durable`] returns immediately, uncounted.
#[derive(Debug, Clone, Copy)]
pub struct SimulatedDevice(pub Duration);

impl FlushDevice for SimulatedDevice {
    fn flush(&self, _epoch: u64) {
        std::thread::sleep(self.0);
    }

    fn is_free(&self) -> bool {
        self.0.is_zero()
    }
}

/// Shared flush state, all under one mutex (held only for bookkeeping —
/// the leader drops it for the device operation itself).
#[derive(Debug)]
struct State {
    /// The epoch the next leader will claim. Doubles as the ticket
    /// counter: `enqueue` returns it un-bumped, so a ticket equals the
    /// epoch of the first flush that starts after it.
    next_epoch: u64,
    /// Highest epoch whose device flush has completed.
    durable: u64,
    /// A leader is currently inside the device operation.
    flushing: bool,
    /// Flush demands served (coordinator waits + worker group commits).
    total: u64,
    /// Demands satisfied without a dedicated device operation of their
    /// own (rode another leader's flush, or found one in flight).
    coalesced: u64,
}

/// Epoch/ticket-based flush coalescer for one log device. See the module
/// docs for the protocol.
pub struct FlushSequencer {
    state: Mutex<State>,
    cv: Condvar,
    /// Lock-free mirror of `State::flushing` so workers can consult the
    /// group-close policy without taking the mutex.
    busy: AtomicU64,
    /// Lock-free monotonic mirror of `State::durable` so workers can ask
    /// "is this ticket durable yet?" without taking the mutex (see
    /// [`FlushSequencer::durable_epoch`]).
    durable_lo: AtomicU64,
}

impl Default for FlushSequencer {
    fn default() -> Self {
        Self::new()
    }
}

impl FlushSequencer {
    pub fn new() -> Self {
        FlushSequencer {
            state: Mutex::new(State {
                next_epoch: 1,
                durable: 0,
                flushing: false,
                total: 0,
                coalesced: 0,
            }),
            cv: Condvar::new(),
            busy: AtomicU64::new(0),
            durable_lo: AtomicU64::new(0),
        }
    }

    /// Grab a ticket covering every log write made before this call. The
    /// ticket is durable once a device flush that started after it
    /// completes; pass it to [`wait_durable`](Self::wait_durable).
    pub fn enqueue(&self) -> u64 {
        self.state.lock().unwrap().next_epoch
    }

    /// Block until `ticket` is durable; returns `true` iff this caller led
    /// the device flush that covered it. A free device (see
    /// [`FlushDevice::is_free`]) returns immediately without touching the
    /// counters.
    ///
    /// `patience` says how long to *prefer riding* a flush someone else
    /// performs — the durable flusher thread's windowed group commit, or a
    /// concurrent waiter's — before leading one with no flush in flight.
    /// Zero is the eager leader: the first waiter to find the device idle
    /// flushes at once (the flusher thread itself, and coordinators on the
    /// simulated device). Durable-mode 2PC coordinators pass the
    /// group-commit window instead: an eager leader per commit would drive
    /// the fsync rate up to the commit rate, while patient waiters fold
    /// into the flusher's accumulation window so one fsync covers every
    /// commit that lands inside it. Deadlock-free by construction:
    /// patience expiring always makes this caller the leader, so no
    /// external flush is ever *required*.
    pub fn wait_durable(&self, ticket: u64, device: &dyn FlushDevice, patience: Duration) -> bool {
        if device.is_free() {
            return false;
        }
        let deadline = Instant::now() + patience;
        let mut s = self.state.lock().unwrap();
        s.total += 1;
        loop {
            if s.durable >= ticket {
                s.coalesced += 1;
                return false;
            }
            if s.flushing {
                // A leader is inside the device op; ride it (it will
                // notify_all), then re-check coverage.
                s = self.cv.wait(s).unwrap();
                continue;
            }
            let now = Instant::now();
            if now < deadline {
                let (guard, _) = self.cv.wait_timeout(s, deadline - now).unwrap();
                s = guard;
                continue;
            }
            // Become the leader for a fresh epoch. Tickets only ever hold
            // past values of next_epoch, so epoch >= ticket and one pass
            // suffices.
            let epoch = s.next_epoch;
            s.next_epoch += 1;
            s.flushing = true;
            // ordering: Relaxed — advisory mirror of `flushing` for the
            // lock-free `flush_in_progress` policy peek; readers act on a
            // possibly-stale hint, never on the value for correctness.
            self.busy.store(1, Ordering::Relaxed);
            drop(s);
            device.flush(epoch);
            s = self.state.lock().unwrap();
            // ordering: Relaxed — same advisory mirror; cleared under the
            // state lock, correctness rides on the mutex alone.
            self.busy.store(0, Ordering::Relaxed);
            s.flushing = false;
            if s.durable < epoch {
                s.durable = epoch;
                // ordering: Relaxed — monotonic mirror of `durable` for the
                // lock-free `durable_epoch` peek. A reader that sees a stale
                // (lower) value merely treats a durable ticket as still
                // pending and takes the conservative path; it can never see
                // a value ahead of a completed device flush, because this
                // store only happens after `device.flush(epoch)` returned.
                self.durable_lo.store(epoch, Ordering::Relaxed);
            }
            self.cv.notify_all();
            return true;
        }
    }

    /// Publish a worker group commit's flush demand without waiting (the
    /// fast path never sleeps — the adaptive window elapsing *is* its
    /// flush). Counted in `flushes_total`; counted coalesced, and `true`
    /// returned, iff a device flush was in flight at close time, i.e. the
    /// group's demand merged into the cross-worker flush stream.
    pub fn commit_group(&self) -> bool {
        let mut s = self.state.lock().unwrap();
        s.total += 1;
        if s.flushing {
            s.coalesced += 1;
            true
        } else {
            false
        }
    }

    /// Lock-free peek: is a device flush in flight right now? Workers use
    /// this to close an open commit group early so its commits ride the
    /// in-flight flush stream instead of waiting out their own window.
    pub fn flush_in_progress(&self) -> bool {
        // ordering: Relaxed — advisory policy hint only; a stale read
        // merely delays or hastens a group close, both of which the
        // adaptive-window policy already tolerates.
        self.busy.load(Ordering::Relaxed) == 1
    }

    /// Lock-free peek at the highest epoch whose device flush has
    /// completed: a ticket `t` is durable iff `durable_epoch() >= t`. The
    /// value may lag the truth (never lead it), so callers using it to
    /// *skip* a wait are safe and callers seeing "not yet durable" must
    /// fall back to a real [`wait_durable`](Self::wait_durable).
    pub fn durable_epoch(&self) -> u64 {
        // ordering: Relaxed — monotonic, write-once-per-epoch mirror; see
        // the store in `wait_durable` for the staleness argument.
        self.durable_lo.load(Ordering::Relaxed)
    }

    /// `(flushes_total, flushes_coalesced)` snapshot.
    pub fn counters(&self) -> (u64, u64) {
        let s = self.state.lock().unwrap();
        (s.total, s.coalesced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrdering};
    use std::sync::Arc;

    /// A device running `F` as its flush, for tests that inspect or
    /// perturb the sequencer from inside the device operation.
    struct FnDevice<F>(F);

    impl<F: Fn(u64) + Send + Sync> FlushDevice for FnDevice<F> {
        fn flush(&self, epoch: u64) {
            (self.0)(epoch);
        }
    }

    /// A device whose flush does nothing but complete.
    const NOOP: FnDevice<fn(u64)> = FnDevice(|_| {});

    #[test]
    fn zero_duration_is_free_and_uncounted() {
        // A zero-duration simulated device: an enqueue-then-wait "flush my
        // commit" and a bare wait on an unissued ticket both return at
        // once, touching neither the counters nor the in-flight flag.
        let seq = FlushSequencer::new();
        let zero = SimulatedDevice(Duration::ZERO);
        let t = seq.enqueue();
        assert!(!seq.wait_durable(t, &zero, Duration::ZERO));
        assert!(!seq.wait_durable(7, &zero, Duration::ZERO));
        assert_eq!(seq.counters(), (0, 0));
        assert!(!seq.flush_in_progress());
    }

    /// A device that reports durability as free through the trait hook
    /// and must never be asked to flush.
    struct AlwaysFree;

    impl FlushDevice for AlwaysFree {
        fn flush(&self, _epoch: u64) {
            panic!("a free device is never flushed");
        }

        fn is_free(&self) -> bool {
            true
        }
    }

    #[test]
    fn free_device_is_uncounted_like_a_zero_duration() {
        let seq = FlushSequencer::new();
        assert!(!seq.wait_durable(7, &AlwaysFree, Duration::ZERO));
        assert!(!seq.wait_durable(7, &AlwaysFree, Duration::from_secs(60)), "patience is moot");
        assert_eq!(seq.counters(), (0, 0));
        assert!(!seq.flush_in_progress());
    }

    /// A recording device: the leader hands it the epoch it claimed.
    struct Recorder(StdAtomicU64);

    impl FlushDevice for Recorder {
        fn flush(&self, epoch: u64) {
            self.0.store(epoch, StdOrdering::SeqCst);
        }
    }

    #[test]
    fn device_waits_lead_and_coalesce_like_the_closure_path() {
        let seq = FlushSequencer::new();
        let dev = Recorder(StdAtomicU64::new(0));
        let t = seq.enqueue();
        assert!(seq.wait_durable(t, &dev, Duration::ZERO), "sole waiter must lead");
        assert_eq!(dev.0.load(StdOrdering::SeqCst), t, "device saw the claimed epoch");
        assert!(!seq.wait_durable(t, &dev, Duration::ZERO), "durable ticket coalesces");
        assert_eq!(seq.counters(), (2, 1));
    }

    #[test]
    fn patient_waiter_leads_once_patience_expires() {
        // Nobody else flushes: patience runs out and the waiter leads
        // itself — no external flush is ever required.
        let seq = FlushSequencer::new();
        let t = seq.enqueue();
        let patience = Duration::from_millis(5);
        let t0 = Instant::now();
        assert!(seq.wait_durable(t, &NOOP, patience), "expired patience must lead");
        assert!(t0.elapsed() >= patience, "led before its patience ran out");
        assert!(seq.durable_epoch() >= t);
    }

    #[test]
    fn durable_epoch_mirror_tracks_completed_flushes() {
        let seq = FlushSequencer::new();
        assert_eq!(seq.durable_epoch(), 0);
        let t = seq.enqueue();
        seq.wait_durable(t, &NOOP, Duration::ZERO);
        assert!(seq.durable_epoch() >= t);
        let t2 = seq.enqueue();
        assert!(seq.durable_epoch() < t2, "a fresh ticket is not durable yet");
    }

    #[test]
    fn single_thread_flush_leads_and_advances_durability() {
        let seq = FlushSequencer::new();
        let t = seq.enqueue();
        assert_eq!(t, 1);
        let led = seq.wait_durable(t, &NOOP, Duration::ZERO);
        assert!(led, "sole waiter must lead its own flush");
        // The same ticket is now durable: a second wait coalesces.
        let unneeded = FnDevice(|_| panic!("no device op needed"));
        assert!(!seq.wait_durable(t, &unneeded, Duration::ZERO));
        assert_eq!(seq.counters(), (2, 1));
    }

    #[test]
    fn tickets_issued_after_a_claim_need_a_fresh_flush() {
        let seq = FlushSequencer::new();
        let t1 = seq.enqueue();
        assert!(seq.wait_durable(t1, &NOOP, Duration::ZERO));
        let t2 = seq.enqueue();
        assert!(t2 > t1);
        assert!(seq.wait_durable(t2, &NOOP, Duration::ZERO), "new ticket demands a new flush");
    }

    #[test]
    fn concurrent_waiters_coalesce_into_few_device_ops() {
        let seq = Arc::new(FlushSequencer::new());
        let device_ops = Arc::new(StdAtomicU64::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let (seq, ops) = (seq.clone(), device_ops.clone());
                std::thread::spawn(move || {
                    let t = seq.enqueue();
                    let dev = FnDevice(|_| {
                        ops.fetch_add(1, StdOrdering::Relaxed);
                        std::thread::sleep(Duration::from_millis(2));
                    });
                    seq.wait_durable(t, &dev, Duration::ZERO);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let ops = device_ops.load(StdOrdering::Relaxed);
        assert!((1..=8).contains(&ops));
        let (total, coalesced) = seq.counters();
        assert_eq!(total, 8);
        assert_eq!(coalesced, 8 - ops, "every non-leader wait coalesced");
    }

    #[test]
    fn commit_group_counts_demand_and_detects_inflight_flushes() {
        let seq = FlushSequencer::new();
        assert!(!seq.commit_group(), "no flush in flight: not coalesced");
        let seq = Arc::new(seq);
        let s2 = seq.clone();
        let rode = std::thread::spawn(move || {
            let t = s2.enqueue();
            let rode = StdAtomicU64::new(0);
            let dev = FnDevice(|_| {
                // While the leader holds the device, a group close must
                // observe the in-flight flush and coalesce.
                rode.store(u64::from(s2.commit_group()), StdOrdering::Relaxed);
                assert!(s2.flush_in_progress());
            });
            s2.wait_durable(t, &dev, Duration::ZERO);
            rode.load(StdOrdering::Relaxed) == 1
        })
        .join()
        .unwrap();
        assert!(rode, "group closing mid-flush rides it");
        let (total, coalesced) = seq.counters();
        assert_eq!((total, coalesced), (3, 1));
        assert!(!seq.flush_in_progress());
    }
}
