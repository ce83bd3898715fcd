//! The live multi-threaded partition runtime.
//!
//! Where [`crate::Simulation`] charges a cost model for time, this module
//! runs the paper's architecture (§2, Fig. 1) for real: one OS worker
//! thread per partition with *exclusive ownership* of that partition's
//! [`storage::Shard`], a lock-free SPSC ring-lane dispatcher with a
//! doorbell-parked control channel, and any number of caller-owned
//! [`Client`] handles that route every request through a shared, trained,
//! read-only [`LiveAdvisor`].
//!
//! ## Thread and ownership model
//!
//! The runtime is a *server*, embeddable as a library: [`LiveRuntime::
//! start`] owns the worker threads, the lock manager, and (when the
//! advisor learns) the maintenance thread; everything those threads share
//! lives in one `Arc`-held `Shared` block, so the runtime outlives the
//! stack frame that started it. [`LiveRuntime::client`] mints cheap `Send`
//! [`Client`] handles; [`Client::call`] plans, coordinates, and blocks for
//! one transaction. [`LiveRuntime::shutdown`] drains in-flight work, stops
//! every owned thread, and reassembles the [`Database`]. The closed-loop
//! benchmark entry point [`run_live`] is a thin wrapper over exactly this
//! lifecycle.
//!
//! * **Workers** (one per partition) own their shard outright — no locks
//!   guard row access, ever. Fast-path requests arrive on *per-client SPSC
//!   ring lanes* ([`common::ring`]) — each [`Client`] registers a dedicated
//!   bounded lock-free lane with each worker it talks to, so the hot path
//!   crosses no shared mutex and no MPSC channel; rare control traffic
//!   (lane registration, speculation-window outcomes, snapshot fences,
//!   shutdown) rides a plain shared channel, and a
//!   [`common::ring::Doorbell`] wakes a worker that parked with everything
//!   empty. A worker collects work *in runs*: it drains the control
//!   channel, then sweeps its lanes fairly (round-robin, one message per
//!   lane per pass) until a pass comes up empty. The swept single-partition
//!   transactions execute as one group — their durable effects share a
//!   single commit flush and their acknowledgements go out together in
//!   completion order (group commit + group ack) — and the flush window
//!   itself is *adaptive*: sized by the backlog the lanes show when the
//!   group closes, from zero (nobody waiting — flush immediately) up to the
//!   `commit_flush_us` cap (deep backlog — widen the window so the next
//!   group coalesces more). A distributed transaction's first fragment
//!   command is admitted after the current group (everything swept before
//!   it is flushed and acknowledged first; per-client FIFO order is the
//!   lane itself).
//! * **Clients** (the paper's §6.4 load generators, or any embedding
//!   application thread) plan each request via the shared advisor, then
//!   either hand the whole transaction to its base partition's worker, or
//!   — for a multi-partition lock set — become the transaction's
//!   *coordinator*: they acquire the cluster lock atomically, drive the
//!   control code themselves, and ship query fragments over reusable
//!   per-(client, worker) SPSC *fragment lanes* (`FragConn`, registered
//!   once like the fast path's lanes), batched per participant per query
//!   batch (`FragCmd::ExecBatch`). Holding a partition's lock entitles
//!   the client to push on its lane — the lock *is* the reservation, so
//!   the steady state has no per-transaction channel setup and no
//!   reservation round trip at all.
//! * **The lock manager** is sharded by partition: one FIFO ticket queue
//!   and condvar per partition, claimed in ascending partition order —
//!   distributed transactions on disjoint shards never touch the same
//!   mutex. The globally consistent claim order makes lock acquisition
//!   deadlock-free (the classic ordered-resource argument), and no wait
//!   edge ever points *into* the lock manager after acquisition: workers
//!   never take locks, and a coordinator acquires its whole set up front
//!   and only releases afterwards. A reservation only ever waits behind
//!   finite single-partition work or reservations of already-granted (and
//!   therefore progressing) transactions, so the runtime as a whole stays
//!   deadlock-free by construction.
//!
//! Mispredicts are handled exactly like [`crate::Simulation`]: a query
//! batch that targets a partition outside the lock set rolls the
//! transaction back, the advisor replans (`attempt` counting up), and after
//! `max_restarts` the transaction falls back to a lock-all plan that cannot
//! mispredict.
//!
//! Commit runs real two-phase commit, coalesced per (coordinator,
//! participant) pair: participants in this engine always vote yes (every
//! fragment error already surfaced at execution), so the coordinator ships
//! one `VoteFinish` message carrying the flush-and-vote *and* the decision
//! together and awaits one acknowledgement — halving the per-participant
//! round trips and the modeled network hops of the split `Vote` + `Finish`
//! rounds while keeping identical outcomes. Commit durability is paid
//! once per distributed write transaction, *by the coordinator*: after
//! every participant acked it waits on the shared cross-worker
//! [`common::flush::FlushSequencer`], whose epoch tickets let concurrent
//! coordinators (and worker group commits) coalesce into one device
//! operation — participants never sleep a flush on their own thread, so a
//! distributed commit no longer stalls its partitions' fast paths.
//! `LiveConfig::msg_delay_us` optionally sleeps at the participant before
//! each fragment *message* (a whole `ExecBatch` counts once) — the live
//! twin of `CostModel::remote_msg_us` — so 2PC costs wall-clock lock-hold
//! time as it would over a network.
//!
//! ## Early prepare + speculative execution (OP4, §2/§4.4)
//!
//! When the advisor declares locked partitions *finished* mid-transaction
//! (`Updates::finished`, gated by `TxnPlan::early_prepare`), the
//! coordinator sends those workers an early-prepare at the end of the
//! batch and releases their slots in the lock manager at once — the
//! prepare *is* the unsolicited 2PC vote, nothing is awaited, and the
//! worker (serving this lane's commands in order) is guaranteed to
//! observe it before anything a later lock holder pushes. Unlike the
//! simulator's engine the base partition is releasable too: live control
//! code runs on the coordinating client, so the base is just another
//! fragment executor. A *read-only* participant simply drops the
//! reservation — nothing to flush, undo, or decide (the classic 2PC
//! read-only optimization). A participant whose fragment *wrote* keeps
//! the fragment's undo log as the base of a [`storage::SpeculationStack`], and
//! opens a speculation window: until the 2PC outcome arrives — pushed on
//! the worker's control channel as `CtrlMsg::SpecFinish` — queued
//! single-partition transactions execute *speculatively*, with undo
//! logging force-enabled regardless of OP3 (§4.3). A speculative
//! transaction that touched no table written inside the window (by the
//! fragment or by a deferred speculative commit) is acknowledged
//! immediately and its effects are final — §2 OP4's non-conflicting case,
//! the same table-mask rule the simulator charges; every *conflicting*
//! completion — commit, user abort, or mispredict — is deferred, and a
//! conflicting speculative commit pushes its undo log onto the stack. On
//! commit the stack is discarded and the deferred acknowledgements go out
//! in completion order; on abort the stack unwinds LIFO (cascading
//! rollback) restoring the shard byte-for-byte, and each deferred client
//! receives `Cascaded` — it transparently re-derives the same plan with a
//! fresh advisor session and retries (not counted as a mispredict
//! restart). Reservations from *other* distributed transactions that
//! arrive during a speculation window are admitted only once the window
//! resolves; touching an early-released partition again is a mispredict,
//! exactly as in the simulator.
//!
//! Deadlock-freedom still holds: a speculating worker waits only for the
//! coordinator that early-prepared it, and "C' reserves a worker
//! speculating for C" implies C' acquired its (atomic, all-or-nothing)
//! lock set *after* C released that slot — so every wait edge points from
//! a later-granted transaction to an earlier-granted one and no cycle can
//! form; blocked single-partition clients hold no locks at all.
//!
//! ## On-line model maintenance (§4.5)
//!
//! Every session teardown (commit, user abort, or mispredict replan) may
//! yield structured [`TxnFeedback`]; clients push it into a *bounded*
//! channel with `try_send` — never blocking the acknowledgement path — and
//! a background **maintenance thread** (spawned by [`LiveRuntime::start`]
//! when the advisor provides a [`LiveMaintainer`]) drains it, accumulates per-model
//! accuracy and transition deltas, rebuilds only drifted models, and
//! publishes them as new advisor epochs that *fresh* transactions pick up
//! while in-flight ones keep their snapshot (see DESIGN.md §5). Dropped
//! records (`RunMetrics::feedback_dropped`) cost signal, not correctness.
//!
//! ## Per-stage time attribution (Fig. 11, live)
//!
//! Every [`Client::call`] attributes its wall time across the paper's
//! Fig. 11 buckets into `RunMetrics::profile`: advisor planning/updates →
//! `Estimation`; fragment/control-code execution → `Execution`; lock
//! acquisition, 2PC, and the sequenced commit flush → `Coordination`,
//! further split into `CoordSub::{LockWait, TwoPc, Flush}` sub-buckets on
//! the distributed path; time a fast-path message sat on the worker queue
//! → `Queueing`; the unattributed remainder (channel hops, group-commit
//! waits measured at the worker, cascade retries) → `Other`. `Planning`
//! stays a sim-only bucket — the live runtime ships pre-compiled
//! fragments.

use crate::advisor::{
    LiveAdvisor, LiveMaintainer, PlanContext, Request, TxnFeedback, TxnOutcome, TxnPlan,
};
use crate::catalog::Catalog;
use crate::durability::{DurabilityConfig, RecoveryReport};
use crate::exec::{execute_fragment, ExecutedQuery};
use crate::metrics::RunMetrics;
use crate::procedure::{ProcedureRegistry, Step};
use crate::profiler::{Bucket, CoordSub};
use crate::sim::RequestGenerator;
use common::flush::{FlushDevice, FlushSequencer, SimulatedDevice};
use common::ring::{self, Doorbell, PushError};
use common::sync::atomic::{AtomicU64, Ordering};
use common::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use common::sync::{Arc, Condvar, Mutex, PoisonError};
use common::{
    derive_seed, seeded_rng, Error, FxHashMap, PartitionId, PartitionSet, ProcId, QueryId, Result,
    Value,
};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::VecDeque;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use storage::{Database, Row, Shard, SpeculationStack, UndoLog};
use wal::{FileDevice, LogRecord, LogSet};

use crate::metrics::MaintenanceReport;

/// Watchdog interval of a speculating worker. The 2PC outcome normally
/// arrives *pushed* on the worker's control channel
/// ([`CtrlMsg::SpecFinish`]), whose sender rings the doorbell, so the
/// worker parks like any idle worker; this timeout only bounds how long a
/// window can dangle if its coordinator died without sending an outcome
/// (detected as its fragment lane closing). Rare by construction, so it
/// can be long — a speculating worker costs ~40 wake-ups per second,
/// which matters on single-core hosts.
const SPEC_WATCHDOG: Duration = Duration::from_millis(25);

/// Watchdog interval of a client parked on its reply slot. A reply
/// normally arrives as a condvar signal; the tick only bounds how long a
/// client can sleep past a shutdown that retired its lane with the call
/// still buffered (the "calls racing shutdown fail cleanly" contract).
const REPLY_WATCHDOG: Duration = Duration::from_millis(25);

/// Capacity of one client→worker SPSC lane. A blocking [`Client`] has at
/// most one call in flight, so any power of two ≥ 2 works; 8 leaves slack
/// for embedders that pipeline a few calls per thread before blocking.
const LANE_CAPACITY: usize = 8;

/// Backlog depth at which the adaptive group-commit window reaches the
/// full `commit_flush_us` cap (see [`adaptive_window`]).
const FLUSH_KNEE: usize = 8;

/// Bounded yield-spin a client performs on its reply slot before falling
/// back to the condvar ([`ReplySlot::take_or_abandon`]). Each iteration is
/// one `yield_now`, so even on a single-core host the worker gets the CPU
/// immediately. Sized past the typical closed-loop reply wait (a few
/// peers' service plus scheduling) — a client that parks mid-steady-state
/// costs a futex wait *and* puts a wake on the worker's ack path, so the
/// budget errs long; it is only ever burned in full when no reply is
/// coming (shutdown races), where the condvar backstop still bounds the
/// wait.
const REPLY_SPIN: u32 = 256;

/// Bounded yield-spin re-sweeps an out-of-work worker performs before
/// engaging the doorbell park protocol ([`worker_loop`]). Sized to cover
/// a full closed-loop client cohort's between-call processing (each
/// yield donates the CPU to one of them), so the steady state never pays
/// a park/unpark futex cycle per batch.
const IDLE_SPIN: u32 = 256;

/// Transparent cascade redos of one request before the client falls back to
/// a lock-all plan. Cascades are rare by construction (they need an
/// early-prepared transaction to abort *and* a conflicting speculative
/// execution in its window), so the bound exists purely as a liveness
/// backstop against a pathological stream of aborting windows on one
/// partition.
const MAX_CASCADE_RETRIES: u32 = 8;

/// Live-runtime parameters. The first two fields drive only the
/// closed-loop [`run_live`] wrapper (an embedding application mints its
/// own [`Client`] handles and decides its own request volume); the rest
/// configure the [`LiveRuntime`] itself.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Closed-loop client threads per partition in [`run_live`] (the paper
    /// uses 4). Ignored by [`LiveRuntime::start`].
    pub clients_per_partition: u32,
    /// Requests each [`run_live`] client issues before its stream runs
    /// dry. Ignored by [`LiveRuntime::start`].
    pub requests_per_client: u64,
    /// Mispredict restarts before falling back to lock-all.
    pub max_restarts: u32,
    /// Seed for the clients' random-partition draws.
    pub seed: u64,
    /// *Maximum* group-commit coalescing window per partition (µs, 0 =
    /// off). Models the durable group-commit H-Store overlaps. On the
    /// fast path this caps the *adaptive* window a commit group may stay
    /// open, scaled by the backlog observed as the group runs — zero when
    /// no one is waiting (the group cannot grow, so flush immediately),
    /// the full cap under deep backlog (see `adaptive_window`) — and
    /// the window elapses under useful work, never as a sleep. A
    /// distributed write commit pays this cap once, as the coordinator's
    /// wait on the shared [`common::flush::FlushSequencer`], where
    /// concurrent coordinators and worker group closes coalesce into one
    /// device operation instead of sleeping per participant.
    pub commit_flush_us: u64,
    /// One-way coordinator→participant message latency (µs of real sleep at
    /// the participant before it processes a fragment *message*, 0 = off;
    /// a whole `FragCmd::ExecBatch` counts once) — the live twin of
    /// `CostModel::remote_msg_us`. In-process lanes are otherwise
    /// near-instant, which would hide exactly the cost OP4 eliminates:
    /// the 2PC rounds a reserved partition sits through.
    pub msg_delay_us: u64,
    /// Bound of the session-teardown → maintenance-thread feedback channel
    /// (§4.5). Clients never block on maintenance: a full channel drops the
    /// record (counted in `RunMetrics::feedback_dropped`) and the
    /// transaction's acknowledgement proceeds untouched.
    pub feedback_capacity: usize,
    /// Real durability (DESIGN.md §7): when set, every committed writer is
    /// command-logged under the configured directory and its
    /// acknowledgement is withheld until a real `write+fsync` covers it
    /// (group commit via the shared [`FlushSequencer`], the fsync itself
    /// off-worker on a dedicated flusher thread). `None` keeps the seed
    /// behavior: `commit_flush_us` *models* the device as a sleep.
    pub durability: Option<DurabilityConfig>,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            clients_per_partition: 4,
            requests_per_client: 500,
            max_restarts: 2,
            seed: 7,
            commit_flush_us: 0,
            msg_delay_us: 0,
            feedback_capacity: 4096,
            durability: None,
        }
    }
}

/// Grants distributed transactions their whole lock set, sharded by
/// partition.
///
/// One FIFO ticket queue and condvar per partition: transactions on
/// disjoint shards never touch the same mutex (the previous design
/// serialized every grant, release, and wakeup of the whole cluster on one
/// global mutex — a scalability ceiling exactly where distributed traffic
/// is hottest). A transaction claims its partitions one at a time in
/// ascending partition order, waiting FIFO at each; the globally
/// consistent claim order means no cycle of lock waits can form (the
/// classic ordered-resource argument — it replaces the old design's
/// all-or-nothing-under-one-mutex argument). Single-partition
/// transactions never touch this structure: their ordering is the owning
/// worker's queue itself.
///
/// Fairness: per-partition FIFO by global ticket, which preserves the old
/// manager's FIFO-among-conflicting behaviour and additionally keeps a
/// lock-all transaction from being starved by a stream of small disjoint
/// ones (it holds its low partitions while queueing at the contended one).
struct LockManager {
    next_ticket: AtomicU64,
    shards: Vec<LockShard>,
}

struct LockShard {
    state: Mutex<ShardQueue>,
    cv: Condvar,
}

#[derive(Default)]
struct ShardQueue {
    /// Whether some transaction currently holds this partition's slot.
    busy: bool,
    /// Tickets waiting for this partition, FIFO.
    waiters: VecDeque<u64>,
}

impl LockManager {
    fn new(num_partitions: u32) -> Self {
        LockManager {
            next_ticket: AtomicU64::new(0),
            shards: (0..num_partitions.max(1))
                .map(|_| LockShard { state: Mutex::new(ShardQueue::default()), cv: Condvar::new() })
                .collect(),
        }
    }

    fn acquire(&self, set: PartitionSet) {
        // ordering: Relaxed — the ticket only needs global uniqueness and
        // atomicity of the counter itself; FIFO ordering per shard comes
        // from the shard mutex (the ticket is enqueued and compared only
        // under it), so no cross-thread publication rides on this RMW.
        // Verified by the ticket-FIFO model in tests/concurrency_models.rs.
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        for p in set.iter() {
            let shard = &self.shards[p as usize];
            let mut st = shard.state.lock().expect("lock shard poisoned");
            st.waiters.push_back(ticket);
            while st.busy || st.waiters.front() != Some(&ticket) {
                st = shard.cv.wait(st).expect("lock shard poisoned");
            }
            st.waiters.pop_front();
            st.busy = true;
        }
    }

    fn release(&self, set: PartitionSet) {
        for p in set.iter() {
            let shard = &self.shards[p as usize];
            let mut st = shard.state.lock().expect("lock shard poisoned");
            debug_assert!(st.busy, "released a partition nobody holds");
            st.busy = false;
            let wake = !st.waiters.is_empty();
            drop(st);
            if wake {
                // Distinct tickets share the shard's condvar and only the
                // front one may proceed, so notify_all — a notify_one could
                // land on a non-front waiter and strand the front.
                shard.cv.notify_all();
            }
        }
    }

    /// Acquires `set` and returns a guard that releases it on drop — so a
    /// coordinator that unwinds mid-transaction cannot strand its lock set
    /// and wedge every later conflicting transaction.
    fn guard(&self, set: PartitionSet) -> LockGuard<'_> {
        self.acquire(set);
        LockGuard { mgr: self, set }
    }
}

struct LockGuard<'a> {
    mgr: &'a LockManager,
    set: PartitionSet,
}

impl LockGuard<'_> {
    /// Releases one partition's slot ahead of the rest (OP4 early prepare);
    /// the drop release then covers only the remaining set.
    fn release_early(&mut self, p: PartitionId) {
        if self.set.contains(p) {
            self.set.remove(p);
            self.mgr.release(PartitionSet::single(p));
        }
    }
}

impl Drop for LockGuard<'_> {
    fn drop(&mut self) {
        self.mgr.release(self.set);
    }
}

/// A fragment command sent to a reserved worker.
enum FragCmd {
    /// Every fragment this partition owes for one query batch, shipped as
    /// a single message (one lane push, one modeled network hop, one
    /// reply) instead of one round trip per query. Items execute
    /// in batch order; the participant stops at its own first constraint
    /// violation — the coordinator re-derives the batch-global abort
    /// point from the merged per-item outcomes ([`FragReply::Batch`]),
    /// and the transaction rollback makes any item executed past it
    /// invisible, so outcomes are byte-identical to the unbatched path.
    ExecBatch { proc: ProcId, queries: Vec<(QueryId, Vec<Value>)> },
    /// Early prepare (OP4): the transaction is finished with this partition.
    /// With `speculate` (the fragment wrote here) the worker flushes — the
    /// unsolicited commit vote — keeps the fragment undo as a speculation
    /// base, and executes queued transactions speculatively until the 2PC
    /// outcome arrives. Without it (read-only fragment) the classic
    /// read-only participant optimization applies: nothing to flush, undo,
    /// or decide — the worker drops the reservation outright and never
    /// hears from this transaction again.
    Prepare { speculate: bool },
    /// Durable-mode preamble (DESIGN.md §7): the coordinator's first
    /// command to each participant, positioning the transaction's
    /// [`wal::LogRecord::DistBegin`] in that partition's command log
    /// *before* any of its fragments execute there — per-partition file
    /// order is the replay order, so the begin must precede every effect
    /// it covers. Carries the full request so replay can re-execute the
    /// procedure. No reply, no modeled network delay (it rides the same
    /// lane push cycle as the batch that follows it). Never sent when
    /// durability is off.
    LogBegin { txn_id: u64, proc: ProcId, args: Vec<Value> },
    /// Both 2PC rounds coalesced into one message per (coordinator,
    /// participant) pair: flush-and-vote plus the decision together.
    /// Outcome-equivalent to a split prepare/decide exchange because
    /// participants in this engine always vote yes (every fragment error
    /// already surfaced at execution, so the decision never depends on the
    /// vote round) — but one round trip and one modeled network hop where
    /// split rounds would cost two.
    VoteFinish { commit: bool },
}

/// A reserved worker's answer to a fragment command.
enum FragReply {
    /// Per-item outcomes of an [`FragCmd::ExecBatch`], in item order. A
    /// participant that hit a constraint stops there, so the vector may be
    /// shorter than the batch it answers; the coordinator only ever reads
    /// items up to the batch-global abort point, which is covered on every
    /// target (see `run_distributed`).
    Batch(Vec<BatchItem>),
    Finished,
    Fatal(Error),
}

/// One query's outcome inside a [`FragReply::Batch`]. Fatal errors abort
/// the whole reply ([`FragReply::Fatal`]) rather than appearing per item.
enum BatchItem {
    Rows(Vec<Row>),
    Constraint(String),
}

/// One client's distributed-path connection at the worker: a reusable
/// bounded SPSC fragment lane plus the client's reusable fragment reply
/// slot — registered once per (client, worker) pair over the control
/// channel (mirroring the fast path's `CtrlMsg::Lane`) and reused by every
/// distributed transaction after. The partition lock *is* the
/// reservation: the lock holder's first lane push opens service, so no
/// per-transaction channel or reservation round trip exists.
struct FragConn {
    frags: ring::Consumer<FragCmd>,
    replies: Arc<ReplySlot<FragReply>>,
}

/// Wall-clock stage timings measured at the worker for one fast-path
/// transaction, reported back to the coordinating client for Fig. 11
/// attribution (the client cannot observe queue wait or execution time
/// from its side of the channel).
#[derive(Debug, Clone, Copy, Default)]
struct StageTimes {
    /// Time the message sat on the worker queue before being picked up.
    queued_us: f64,
    /// Advisor time inside execution (`on_query_live`).
    est_us: f64,
    /// Execution time at the worker, minus the advisor share.
    exec_us: f64,
}

/// How a single-partition fast-path transaction ended at its worker.
enum SingleReply<S> {
    Done {
        committed: bool,
        session: S,
        accessed: PartitionSet,
        access_counts: FxHashMap<PartitionId, u32>,
        undo_disabled_ever: bool,
        /// Executed inside a speculation window (deferred acknowledgement).
        speculative: bool,
        times: StageTimes,
    },
    Mispredict {
        /// The request handed back for the replan — the client moved it
        /// into the message, so the reply returns ownership.
        req: Request,
        observed: PartitionSet,
        session: S,
        times: StageTimes,
    },
    /// The transaction executed speculatively and was rolled back by the
    /// cascade after the early-prepared transaction aborted; the client
    /// retries transparently with a fresh session (no restart counted).
    /// Carries the request back for the redo.
    Cascaded {
        req: Request,
    },
    Fatal(Error),
}

/// A single-partition fast-path message, carried on the issuing client's
/// dedicated SPSC ring lane to the base partition's worker — never on the
/// shared control channel (see [`WorkerGate`]).
struct SingleMsg<S> {
    req: Request,
    plan: TxnPlan,
    session: S,
    /// The client's reusable reply mailbox (one per client, every call
    /// reuses it — a blocking client has one call in flight at a time).
    reply: Arc<SingleSlot<S>>,
    /// When the client enqueued the message — the worker derives the
    /// queue-wait time (Fig. 11 `Queueing`) at pickup.
    enqueued: Instant,
}

/// Control-plane traffic to one worker. Rare by construction, so it stays
/// on a plain shared MPSC channel; the hot fast path rides the SPSC lanes.
enum CtrlMsg<S> {
    /// A client registered a new fast-path lane with this worker.
    Lane(ring::Consumer<SingleMsg<S>>),
    /// A client registered its distributed-path fragment lane with this
    /// worker (once per (client, worker) pair, like `Lane`). Fragment
    /// commands arrive on the lane afterwards — only the partition-lock
    /// holder pushes, so the lock itself serializes transactions on it.
    FragLane(FragConn),
    /// 2PC outcome for the speculation window this worker has open — sent
    /// on the control channel (not the fragment lane, which may already
    /// carry the coordinator's next transaction) so a speculating worker
    /// parks on its doorbell like an idle one.
    SpecFinish {
        commit: bool,
    },
    /// Snapshot fence (durability): rotate this partition's command log to
    /// segment `gen` and serialize the shard's rows — at this worker's own
    /// main-loop service point, i.e. at a partition-transaction boundary —
    /// then reply on `done`. Sent by [`snapshot_cluster`] while it holds
    /// every partition's lock slot, so no distributed transaction spans
    /// the cut (fast-path singles stay live; each worker's rotation *is*
    /// its cut).
    Snapshot {
        gen: u64,
        done: Sender<()>,
    },
    Shutdown,
}

/// A client's fast-path reply mailbox payload (the reply slot is generic
/// so the same machinery serves fragment replies — see [`FragConn`]).
type SingleSlot<S> = ReplySlot<SingleReply<S>>;

/// A client's reusable one-shot reply mailbox: the worker fills it, the
/// client sleeps on the condvar. Replaces a fresh channel per call — the
/// `Arc` is cloned into each message but never reallocated. One slot per
/// (client, payload kind): fast-path calls block on a [`SingleSlot`],
/// distributed coordination keeps one `ReplySlot<FragReply>` per worker —
/// either way at most one reply is outstanding per slot (ping-pong).
struct ReplySlot<T> {
    state: Mutex<Option<T>>,
    cv: Condvar,
    /// 1 while the owning client is blocked in a condvar wait (it spins
    /// first — see [`ReplySlot::take_or_abandon`]). Lets [`ReplySlot::put`]
    /// skip the futex-wake syscall in the common case where the client is
    /// still spinning and will observe the reply on its next probe.
    sleeper: AtomicU64,
}

impl<T> ReplySlot<T> {
    fn new() -> Self {
        ReplySlot { state: Mutex::new(None), cv: Condvar::new(), sleeper: AtomicU64::new(0) }
    }

    /// Fills the slot and wakes the waiting client. Empty by contract:
    /// the owning client blocks for each call's reply before reusing it.
    fn put(&self, reply: T) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        debug_assert!(st.is_none(), "reply slot already full");
        *st = Some(reply);
        drop(st);
        // ordering: Relaxed — no lost wakeup possible. A client only sets
        // `sleeper` while holding `state`, before the wait releases it; if
        // this load misses the flag, our mutex section above must have run
        // *before* the client's final empty-check of the slot, so the
        // client sees the reply under the lock and never sleeps. (The
        // client's store happens-before our lock acquisition whenever it
        // actually reached the wait, making the flag visible here.)
        if self.sleeper.load(Ordering::Relaxed) != 0 {
            self.cv.notify_all();
        }
    }

    /// Blocks until a reply arrives. `abandoned` is polled on watchdog
    /// ticks: once it reports true (the worker retired this client's lane
    /// — possibly discarding the buffered call at shutdown) and the slot
    /// is still empty, no reply can ever arrive, so give up with `None`.
    fn take_or_abandon(&self, abandoned: impl Fn() -> bool) -> Option<T> {
        // Fast-path replies land within microseconds of the doorbell ring,
        // so a bounded yield-spin usually collects them without paying the
        // condvar's futex sleep/wake round trip — which would otherwise
        // dominate the call's coordination share, especially on small
        // hosts where the wake is a full scheduler pass. The condvar wait
        // below stays the correctness path; the spin is best-effort.
        for _ in 0..REPLY_SPIN {
            {
                let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                if let Some(r) = st.take() {
                    return Some(r);
                }
            }
            std::thread::yield_now();
        }
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        // ordering: Relaxed — published to the worker by the mutex: the
        // store precedes every release of `state` below (the waits), so a
        // `put` that finds the slot unclaimed observes it (see `put`).
        self.sleeper.store(1, Ordering::Relaxed);
        let reply = loop {
            if let Some(r) = st.take() {
                break Some(r);
            }
            if abandoned() {
                break None;
            }
            let (g, _) =
                self.cv.wait_timeout(st, REPLY_WATCHDOG).unwrap_or_else(PoisonError::into_inner);
            st = g;
        };
        // ordering: Relaxed — same-thread cleanup; the next call's spin
        // phase must not leave stale wake requests behind.
        self.sleeper.store(0, Ordering::Relaxed);
        reply
    }

    /// Waits up to `dur` for a reply — test hook for deferred-ack checks.
    #[cfg(test)]
    fn take_within(&self, dur: Duration) -> Option<T> {
        let deadline = Instant::now() + dur;
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        // ordering: Relaxed — published by the mutex, as in
        // `take_or_abandon`.
        self.sleeper.store(1, Ordering::Relaxed);
        let reply = loop {
            if let Some(r) = st.take() {
                break Some(r);
            }
            let now = Instant::now();
            if now >= deadline {
                break None;
            }
            let (g, _) =
                self.cv.wait_timeout(st, deadline - now).unwrap_or_else(PoisonError::into_inner);
            st = g;
        };
        self.sleeper.store(0, Ordering::Relaxed);
        reply
    }
}

/// One worker's client-facing intake: the shared control channel plus the
/// doorbell that wakes it out of an idle park. Fast-path producers push
/// onto their own lane and then ring the bell directly.
struct WorkerGate<S> {
    ctrl: Sender<CtrlMsg<S>>,
    bell: Doorbell,
}

impl<S> WorkerGate<S> {
    /// Sends a control message and rings the doorbell — every sender must
    /// ring after publishing work, or a parked worker sleeps through it.
    /// Returns false if the worker is gone (its receiver dropped).
    fn send_ctrl(&self, msg: CtrlMsg<S>) -> bool {
        let ok = self.ctrl.send(msg).is_ok();
        self.bell.ring();
        ok
    }
}

/// A record or a shutdown sentinel on the session-teardown → maintenance
/// channel. The explicit `Stop` lets [`LiveRuntime::shutdown`] end the
/// maintenance thread even while [`Client`] handles (each holding a sender
/// clone through [`Shared`]) are still alive in the embedding application.
enum FeedbackMsg {
    Record(TxnFeedback),
    Stop,
}

/// Everything the runtime's threads share. One `Arc<Shared>` is held by
/// the [`LiveRuntime`] handle, every worker thread, the maintenance
/// thread, and every minted [`Client`] — the ownership inversion that lets
/// the runtime outlive the stack frame that started it (no scoped
/// borrows).
struct Shared<A: LiveAdvisor> {
    registry: ProcedureRegistry,
    catalog: Catalog,
    advisor: A,
    cfg: LiveConfig,
    num_partitions: u32,
    commit_flush: Duration,
    msg_delay: Duration,
    /// One control-channel + doorbell gate per partition worker. Fast-path
    /// traffic bypasses the gate's channel entirely: it rides the issuing
    /// client's SPSC lane and only rings the gate's bell.
    workers: Vec<WorkerGate<A::Session>>,
    locks: LockManager,
    /// Cross-worker commit-flush sequencer for the shared log device:
    /// worker group commits and coordinator 2PC durability waits all go
    /// through it, so concurrent flush demands — from *different* workers
    /// and coordinators — coalesce into one device operation (epoch-
    /// ticketed; see [`common::flush`]). A no-op when `device` is free.
    seq: FlushSequencer,
    /// The log device behind `seq`, picked once at start: the real
    /// command-log `write+fsync` ([`wal::FileDevice`]) in durable mode,
    /// else the modeled `commit_flush` sleep ([`SimulatedDevice`], free
    /// when zero).
    device: Arc<dyn FlushDevice>,
    /// Run-wide counters: [`Client::call`] folds each transaction's
    /// tallies in here *once, at the end of the call* — per-call scratch
    /// lives in cheap locals on the client, so the fast path touches this
    /// mutex exactly once per transaction and allocates nothing for it.
    /// Mid-run [`LiveRuntime::metrics`] snapshots therefore lag by at most
    /// the calls currently in flight.
    metrics: Mutex<RunMetrics>,
    /// Bounded feedback channel toward the maintenance thread (§4.5);
    /// `None` when the advisor has no [`LiveMaintainer`].
    fb_tx: Option<SyncSender<FeedbackMsg>>,
    /// Next [`Client`] id — also selects the client's RNG stream.
    next_client: AtomicU64,
    started: Instant,
    /// Real-durability state ([`LiveConfig::durability`]): the open
    /// command-log segments, the txn-id allocator, snapshot bookkeeping,
    /// and the flusher-thread intake. `None` keeps the seed's simulated
    /// device.
    durable: Option<Durable<A::Session>>,
}

/// Live durability state (DESIGN.md §7), shared by workers, coordinators,
/// the flusher thread, and the snapshotter.
struct Durable<S> {
    logs: Arc<LogSet>,
    /// Next command-log transaction id. Ids only need global uniqueness —
    /// replay order comes from per-partition file order, never from ids.
    next_txn_id: AtomicU64,
    /// Snapshot generations completed (marker written).
    snapshots_taken: AtomicU64,
    /// Generation the open segments belong to; a snapshot fence bumps it.
    active_gen: AtomicU64,
    /// Milliseconds [`LiveRuntime::recover`] spent before this runtime
    /// started serving; zero for a fresh boot.
    recovery_ms: f64,
    /// Intake of the dedicated flusher thread ([`flusher_loop`]): closed
    /// durable commit groups ride here with their sequencer ticket, so the
    /// real fsync happens off every worker's serving path.
    flusher: Sender<FlushJob<S>>,
    /// Group-commit accumulation window
    /// ([`DurabilityConfig::group_commit_window`]): how long the flusher
    /// lets further groups pile in behind the first before one device
    /// flush covers them all.
    group_window: Duration,
    /// Strict read fence ([`DurabilityConfig::read_fence`]): hold
    /// read-only fast-path acks behind the covering flush when their
    /// partition has not-yet-durable writes.
    read_fence: bool,
}

impl<S> Durable<S> {
    fn next_id(&self) -> u64 {
        // ordering: Relaxed — ids only need uniqueness (see field docs);
        // every use is published through a channel or the log mutex.
        self.next_txn_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Command-logs one committed single-partition writer at its service
    /// position in `p`'s log.
    fn append_local(&self, p: PartitionId, req: &Request) {
        let record =
            LogRecord::Local { txn_id: self.next_id(), proc: req.proc, args: req.args.clone() };
        self.logs.append(p, &record);
    }
}

/// One unit of flusher-thread work: a closed commit group whose held acks
/// may only be released once the device flush covering `ticket` completed.
enum FlushJob<S> {
    Group { ticket: u64, acks: Vec<DeferredAck<S>> },
    Stop,
}

/// The dedicated flusher thread (durable mode only): receives closed
/// commit groups from every worker, coalesces whatever else is already
/// queued (one device wait at the max ticket covers every earlier one —
/// the sequencer's epoch argument), performs the real `write+fsync`
/// through the shared [`FlushSequencer`], and releases the held acks.
/// Workers never fsync on their serving path; distributed coordinators
/// wait on the same sequencer from their client threads, so both demand
/// streams coalesce into the same device operations.
fn flusher_loop<A: LiveAdvisor>(env: &Shared<A>, rx: &Receiver<FlushJob<A::Session>>) {
    let durable = env.durable.as_ref().expect("flusher thread requires durability state");
    let mut last_flush: Option<Instant> = None;
    while let Ok(job) = rx.recv() {
        let FlushJob::Group { mut ticket, mut acks } = job else { return };
        // Group-commit pacing: bound the fsync rate by 1/window without
        // taxing an idle device. A group arriving on the heels of the
        // previous flush sleeps only the *remainder* of the window,
        // letting concurrently closing groups land behind it so the drain
        // below folds them into the same device flush — on a loaded (or
        // single-core) host the sub-window groups arrive one at a time,
        // and flushing eagerly would pay one fsync each. A group arriving
        // after a quiet spell flushes immediately: its coalescing already
        // happened, nothing else is coming.
        if let Some(t0) = last_flush {
            let elapsed = t0.elapsed();
            if elapsed < durable.group_window {
                flush(durable.group_window - elapsed);
            }
        }
        let mut stop = false;
        loop {
            match rx.try_recv() {
                Ok(FlushJob::Group { ticket: t, acks: mut more }) => {
                    ticket = ticket.max(t);
                    acks.append(&mut more);
                }
                Ok(FlushJob::Stop) => {
                    stop = true;
                    break;
                }
                Err(_) => break,
            }
        }
        last_flush = Some(Instant::now());
        env.seq.wait_durable(ticket, &*env.device, Duration::ZERO);
        release_acks(&mut acks);
        if stop {
            return;
        }
    }
}

fn flush(d: Duration) {
    if !d.is_zero() {
        std::thread::sleep(d);
    }
}

/// A fast-path reply held back until its group's commit flush completes
/// (group commit: one flush covers every write in the group).
type DeferredAck<S> = (Arc<SingleSlot<S>>, SingleReply<S>);

/// Drains the control channel: registers new lanes, parks snapshot
/// requests, records shutdown. With `window_finish` set (a speculation
/// window is open) the first 2PC outcome is stored there and the drain
/// stops — the outcome ends the window, and everything behind it stays
/// queued for after; without it a stray outcome (its window already
/// resolved via the closed-lane watchdog) is dropped. Never blocks: the doorbell is the
/// only park/wake mechanism, and every control sender rings it.
fn gather_ctrl<S>(
    ctrl: &Receiver<CtrlMsg<S>>,
    lanes: &mut Vec<ring::Consumer<SingleMsg<S>>>,
    frag_lanes: &mut Vec<FragConn>,
    snaps: &mut Vec<(u64, Sender<()>)>,
    shutdown: &mut bool,
    mut window_finish: Option<&mut Option<bool>>,
) {
    while let Ok(m) = ctrl.try_recv() {
        match m {
            CtrlMsg::Lane(l) => lanes.push(l),
            CtrlMsg::FragLane(c) => frag_lanes.push(c),
            CtrlMsg::Snapshot { gen, done } => snaps.push((gen, done)),
            CtrlMsg::SpecFinish { commit } => {
                if let Some(slot) = window_finish.as_deref_mut() {
                    *slot = Some(commit);
                    return;
                }
            }
            CtrlMsg::Shutdown => *shutdown = true,
        }
    }
}

/// Fair sweep over the fast-path lanes: one pop per lane per pass,
/// round-robin, until a full pass yields nothing — no lane can starve
/// another, and a blocking client has at most one call in flight per
/// lane, so the sweep is bounded and ends as soon as every client is
/// waiting on a reply. Lanes whose producer dropped (client gone) are
/// retired once drained.
fn sweep_lanes<S>(lanes: &mut Vec<ring::Consumer<SingleMsg<S>>>, run: &mut Vec<SingleMsg<S>>) {
    loop {
        let mut any = false;
        for lane in lanes.iter_mut() {
            if let Some(m) = lane.pop() {
                run.push(m);
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    lanes.retain(|l| !l.is_closed());
}

/// Total fast-path backlog currently buffered across this worker's lanes.
fn lane_depth<S>(lanes: &[ring::Consumer<SingleMsg<S>>]) -> usize {
    lanes.iter().map(ring::Consumer::len).sum()
}

/// Adaptive group-commit coalescing window: how long commit
/// acknowledgements may stay deferred past the oldest unflushed commit,
/// as a function of the *observed backlog*. With nobody waiting the group
/// is as large as it will get — zero window, flush immediately; as the
/// backlog grows the window widens linearly, reaching the full
/// `commit_flush_us` cap at [`FLUSH_KNEE`], coalescing more commits into
/// one flush exactly when queue depth says load is high (the H-Store
/// group-commit timeout, made adaptive). The worker keeps *serving* while
/// a window is open — the deadline elapses under useful work, never under
/// a sleep, so the cap bounds ack latency without adding any.
fn adaptive_window(cap: Duration, depth: usize) -> Duration {
    if depth == 0 || cap.is_zero() {
        return Duration::ZERO;
    }
    #[allow(clippy::cast_possible_truncation)]
    let k = depth.min(FLUSH_KNEE) as u32;
    cap * k / FLUSH_KNEE as u32
}

/// Releases the held acknowledgements of a closing commit group in
/// completion order (group ack). The group's one flush is the adaptive
/// window that just elapsed — spent serving, not sleeping (see
/// [`adaptive_window`]). 2PC durability is not paid here either: the
/// *coordinator* waits once per distributed commit through the shared
/// [`FlushSequencer`], covering every participant's writes.
fn release_acks<S>(pending: &mut Vec<DeferredAck<S>>) {
    for (slot, reply) in pending.drain(..) {
        slot.put(reply);
    }
}

/// Closes the open commit group: registers its flush demand with the
/// shared sequencer (a non-empty group always contains a durable write —
/// acks are only deferred from the first unflushed commit on), then
/// releases the held acks. On the simulated device the sequencer call is
/// pure accounting — the group's flush already elapsed as the adaptive
/// window — but it lets `RunMetrics` report how many group closes
/// coalesced with a flush another worker or coordinator had in flight.
/// In durable mode the group instead rides the flusher thread
/// ([`release_group`]); the returned ticket becomes the worker's new
/// `last_ticket` high-water mark.
fn close_group<A: LiveAdvisor>(
    env: &Shared<A>,
    pending: &mut Vec<DeferredAck<A::Session>>,
    last_ticket: u64,
) -> Option<u64> {
    if pending.is_empty() {
        return None;
    }
    release_group(env, std::mem::take(pending), true, last_ticket)
}

/// Releases one closed commit group under the configured durability
/// regime. Simulated device: the adaptive window already "was" the flush,
/// so register the demand and ack inline (the seed's behavior,
/// byte-for-byte). Durable mode: the group's acks may only go out after a
/// real `write+fsync` covers its log records, so the group is handed to
/// the flusher thread with a sequencer ticket — `wrote` groups get a
/// fresh ticket; read-only groups (a read that observed a closed-but-
/// unflushed group's writes) ride `last_ticket`, the ticket of the last
/// group this worker routed, which the flusher's FIFO guarantees is
/// already durable by the time the job is seen, so no extra device
/// operation results. Returns the ticket the group rides, if any.
fn release_group<A: LiveAdvisor>(
    env: &Shared<A>,
    mut acks: Vec<DeferredAck<A::Session>>,
    wrote: bool,
    last_ticket: u64,
) -> Option<u64> {
    let Some(d) = &env.durable else {
        if wrote && !env.commit_flush.is_zero() {
            env.seq.commit_group();
        }
        release_acks(&mut acks);
        return None;
    };
    let ticket = if wrote {
        env.seq.enqueue()
    } else if last_ticket > env.seq.durable_epoch() {
        last_ticket
    } else {
        // Everything this worker ever routed is already durable: the
        // read-only replies depend on durable state only. Ack inline.
        release_acks(&mut acks);
        return None;
    };
    if let Err(err) = d.flusher.send(FlushJob::Group { ticket, acks }) {
        // Flusher already stopped (teardown race): flush synchronously
        // and release here — held acks must never be dropped.
        let FlushJob::Group { ticket, mut acks } = err.0 else { return Some(ticket) };
        env.seq.wait_durable(ticket, &*env.device, Duration::ZERO);
        release_acks(&mut acks);
    }
    Some(ticket)
}

/// Takes a transaction-consistent snapshot of the whole cluster: fences
/// every partition through the lock manager (no distributed transaction
/// can straddle the cut — every rotation completes before any new lock
/// grant), has each worker rotate its command log to generation `gen` and
/// serialize its shard, then publishes the generation's completion marker
/// and truncates segments below it. Returns the published generation, or
/// `None` when durability is off or a worker died mid-snapshot (no
/// marker ⇒ recovery ignores the partial generation).
fn snapshot_cluster<A: LiveAdvisor>(env: &Shared<A>) -> Option<u64> {
    let d = env.durable.as_ref()?;
    // ordering: Relaxed — the lock fence below serializes the bump against
    // every worker's rotation; the counter only names the generation.
    let gen = d.active_gen.fetch_add(1, Ordering::Relaxed) + 1;
    let guard = env.locks.guard(PartitionSet::all(env.num_partitions));
    let (done_tx, done_rx) = channel();
    let mut sent = 0usize;
    for gate in env.workers.iter() {
        if gate.send_ctrl(CtrlMsg::Snapshot { gen, done: done_tx.clone() }) {
            sent += 1;
        }
    }
    drop(done_tx);
    if sent != env.num_partitions as usize {
        return None;
    }
    for _ in 0..sent {
        if done_rx.recv().is_err() {
            return None;
        }
    }
    drop(guard);
    wal::write_marker(d.logs.dir(), gen).expect("write snapshot marker");
    // ordering: Relaxed — metrics-only counter.
    d.snapshots_taken.fetch_add(1, Ordering::Relaxed);
    let _ = wal::truncate_below(d.logs.dir(), gen);
    Some(gen)
}

/// One partition's server loop: collect work *in runs* until shutdown,
/// then hand the shard back. Each run is a control-channel drain
/// ([`gather_ctrl`]) followed by a fair lane sweep ([`sweep_lanes`]); if
/// both come up empty the worker parks on its doorbell under the
/// [`common::ring::Doorbell`] protocol (announce intent, mandatory second
/// sweep, then sleep).
///
/// Committed writes form one open *group* whose acknowledgements are
/// held in `pending` until the group's single commit flush — and the
/// group stays open *across* drained runs while backlog remains, up to
/// the adaptive coalescing deadline ([`adaptive_window`]): the window
/// elapses under useful work, so coalescing costs the backlog nothing.
/// The moment the backlog empties (or the deadline passes, or a
/// distributed transaction / shutdown closes the group) the flush covers
/// the whole group and the held acks go out in completion order (group
/// ack). A distributed transaction's fragment lane is served only after
/// the open group is flushed and acknowledged, so the distributed
/// transaction observes exactly the state a one-message-at-a-time loop
/// would have produced.
///
/// Fragment lanes that fill during a speculation window wait until the
/// window resolves (they may open windows of their own). At shutdown,
/// calls still buffered in the lanes are failed cleanly ([`fail_lanes`])
/// rather than executed — a client racing shutdown gets an error, never
/// silence.
fn worker_loop<A: LiveAdvisor>(
    mut shard: Shard,
    ctrl: &Receiver<CtrlMsg<A::Session>>,
    env: &Shared<A>,
    me: usize,
) -> Shard {
    let bell = &env.workers[me].bell;
    let mut lanes: Vec<ring::Consumer<SingleMsg<A::Session>>> = Vec::new();
    let mut frag_lanes: Vec<FragConn> = Vec::new();
    let mut run: Vec<SingleMsg<A::Session>> = Vec::new();
    // Held acknowledgements of the open commit group, plus when its
    // oldest unflushed commit completed (the coalescing deadline's
    // anchor).
    let mut pending: Vec<DeferredAck<A::Session>> = Vec::new();
    // Pending cluster-snapshot requests (served only here, at the main
    // loop's top — never inside a speculation window), and the ticket of
    // the last commit group this worker routed to the flusher (durable
    // mode's read-ordering high-water mark; see [`release_group`]).
    let mut snaps: Vec<(u64, Sender<()>)> = Vec::new();
    let mut last_ticket = 0u64;
    let mut opened = Instant::now();
    let mut shutdown = false;
    while !shutdown {
        while let Some((gen, done)) = snaps.pop() {
            // The snapshot fence holds every partition lock, so this shard
            // is at a transaction boundary: close the group, rotate the
            // command log to the new generation (the rotation makes the
            // old segment durable first), and serialize the shard. The
            // `expect`s fire *before* the completion send — the
            // snapshotter abandons the generation if this worker dies.
            if let Some(t) = close_group(env, &mut pending, last_ticket) {
                last_ticket = t;
            }
            let d = env.durable.as_ref().expect("snapshot request requires durability state");
            d.logs.rotate(shard.partition(), gen).expect("rotate command log");
            wal::write_snapshot(d.logs.dir(), shard.partition(), gen, &shard.snapshot_rows())
                .expect("write snapshot");
            let _ = done.send(());
        }
        // A non-empty fragment lane is a reservation: its client holds
        // this partition's lock and pushed the transaction's first
        // command. At most one lane holds a live transaction (the lock is
        // exclusive); a closed lane's leftovers come from a coordinator
        // that died mid-transaction and are rolled back inside serve. The
        // reservation closes the open group: flush and ack before the
        // distributed transaction reads anything.
        if let Some(i) = frag_lanes.iter().position(|c| !c.frags.is_empty()) {
            if let Some(t) = close_group(env, &mut pending, last_ticket) {
                last_ticket = t;
            }
            let src = FragSource { conns: &mut frag_lanes, i, bell };
            if let Some(spec) = serve_reservation(&mut shard, env, src) {
                shutdown = speculate(
                    &mut shard,
                    env,
                    ctrl,
                    bell,
                    &mut lanes,
                    &mut frag_lanes,
                    &mut snaps,
                    &mut last_ticket,
                    spec,
                );
            }
            continue;
        }
        frag_lanes.retain(|c| !c.frags.is_closed());
        gather_ctrl(ctrl, &mut lanes, &mut frag_lanes, &mut snaps, &mut shutdown, None);
        sweep_lanes(&mut lanes, &mut run);
        if shutdown {
            break;
        }
        if run.is_empty() && !has_frags(&frag_lanes) && snaps.is_empty() {
            // No work means no backlog: close the group (normally already
            // closed by the post-run check below — this is the backstop
            // for a group left open by a race with an emptying lane).
            if let Some(t) = close_group(env, &mut pending, last_ticket) {
                last_ticket = t;
            }
            // Closed-loop clients resubmit within microseconds of their
            // acks, so a bounded yield-spin re-sweep usually catches the
            // next batch without a futex park/wake cycle (whose scheduler
            // latency would land squarely in the Queueing bucket). Only a
            // genuinely idle worker falls through to the park protocol.
            let mut found = false;
            for _ in 0..IDLE_SPIN {
                std::thread::yield_now();
                gather_ctrl(ctrl, &mut lanes, &mut frag_lanes, &mut snaps, &mut shutdown, None);
                sweep_lanes(&mut lanes, &mut run);
                if !run.is_empty() || has_frags(&frag_lanes) || !snaps.is_empty() || shutdown {
                    found = true;
                    break;
                }
            }
            if found {
                continue;
            }
            // Doorbell park protocol: announce intent, then the MANDATORY
            // second look — a ring that landed before the parked bit went
            // up is only visible here — and only then sleep.
            let token = bell.prepare_park();
            gather_ctrl(ctrl, &mut lanes, &mut frag_lanes, &mut snaps, &mut shutdown, None);
            sweep_lanes(&mut lanes, &mut run);
            if run.is_empty() && !has_frags(&frag_lanes) && snaps.is_empty() && !shutdown {
                bell.park(token);
            } else {
                bell.cancel_park();
            }
            continue;
        }
        // One timestamp per completion bounds two intervals at once: the
        // previous transaction's execution span and this one's queue wait
        // (execution starts when the predecessor finishes) — halving the
        // clock reads of a stamp-before-and-after scheme.
        let mut t_cursor = Instant::now();
        for msg in run.drain(..) {
            let SingleMsg { req, plan, session, reply, enqueued } = msg;
            let queued_us = t_cursor.duration_since(enqueued).as_secs_f64() * 1e6;
            let mut out = run_single(&mut shard, env, req, &plan, session, false);
            debug_assert!(out.spec_undo.is_none(), "non-speculative commit retained undo");
            let t_done = Instant::now();
            stamp_times(&mut out, queued_us, (t_done - t_cursor).as_secs_f64() * 1e6);
            t_cursor = t_done;
            if !pending.is_empty() || out.needs_flush() {
                // From the first unflushed durable write onward every
                // reply waits for the group flush: later transactions may
                // have observed the unflushed writes.
                if out.needs_flush() {
                    if let Some(d) = &env.durable {
                        // Command-log the committed writer at its service
                        // position, before its ack can be grouped.
                        let req =
                            out.req.as_ref().expect("committed fast path retains its request");
                        d.append_local(shard.partition(), req);
                    }
                }
                if pending.is_empty() {
                    opened = t_done;
                }
                pending.push((reply, out.reply));
                if env.durable.is_some() {
                    // Durable mode: close at the writer itself. The
                    // flusher's accumulation window does the cross-writer
                    // coalescing, so holding the group open through the
                    // rest of the drain would only add batch time to the
                    // writer's ack latency — and drag every read served
                    // behind it into the fence.
                    if let Some(t) = close_group(env, &mut pending, last_ticket) {
                        last_ticket = t;
                    }
                }
            } else if env.durable.as_ref().is_some_and(|d| d.read_fence)
                && last_ticket > env.seq.durable_epoch()
            {
                // Strict read fence: an earlier group this worker closed
                // may still be in the flusher's hands — and this reply may
                // depend on its writes. Ride the prior ticket through the
                // flusher (FIFO makes the release a no-wait, no new
                // device operation) instead of acking un-durable state.
                if let Some(t) = release_group(env, vec![(reply, out.reply)], false, last_ticket) {
                    last_ticket = t;
                }
            } else {
                // Nothing unflushed precedes this one in the group, so its
                // result depends on durable state only — ack now, at the
                // latency the one-at-a-time loop gave read-only traffic.
                reply.put(out.reply);
            }
        }
        if !pending.is_empty() {
            // The backlog is measured *after* the group executed: exactly
            // the traffic that piled up while we worked. An empty backlog
            // closes the group at once; otherwise the group stays open —
            // serving the backlog *is* the coalescing window — until the
            // adaptive deadline passes. A flush another worker or
            // coordinator has in flight also closes the group early: the
            // shared device is being written *right now*, so riding that
            // operation beats waiting for a window that would demand a
            // fresh one (the adaptive window, made cross-worker).
            let depth = lane_depth(&lanes);
            if depth == 0
                || opened.elapsed() >= adaptive_window(env.commit_flush, depth)
                || env.seq.flush_in_progress()
            {
                if let Some(t) = close_group(env, &mut pending, last_ticket) {
                    last_ticket = t;
                }
            }
        }
    }
    // Shutdown closes the open group before failing the stragglers: the
    // held acks are *completed* transactions and must reach their clients.
    close_group(env, &mut pending, last_ticket);
    fail_lanes(&mut run, &mut lanes);
    shard
}

/// Whether any registered fragment lane has a command buffered — a
/// distributed transaction is waiting to be served.
fn has_frags(frag_lanes: &[FragConn]) -> bool {
    frag_lanes.iter().any(|c| !c.frags.is_empty())
}

/// Shutdown teardown: calls swept but not yet executed, plus everything
/// still buffered in the lanes, fail cleanly — the client racing shutdown
/// gets an error rather than silence (its abandoned-lane watchdog is only
/// the backstop for a message discarded between push and sweep).
fn fail_lanes<S>(run: &mut Vec<SingleMsg<S>>, lanes: &mut [ring::Consumer<SingleMsg<S>>]) {
    let dead = |m: SingleMsg<S>| {
        m.reply.put(SingleReply::Fatal(Error::Other("runtime shut down".into())));
    };
    run.drain(..).for_each(&dead);
    for lane in lanes.iter_mut() {
        while let Some(m) = lane.pop() {
            dead(m);
        }
    }
}

/// What one fast-path execution produced: the client reply plus what the
/// speculation machinery needs to classify it (see [`speculate`]).
struct SingleOutcome<S> {
    reply: SingleReply<S>,
    /// The request, returned to the worker for cascade routing — `None`
    /// when the reply itself carries it (`Mispredict`/`Cascaded`).
    req: Option<Request>,
    /// The commit's undo log, retained only when executed speculatively
    /// (for the shard's [`SpeculationStack`]).
    spec_undo: Option<UndoLog>,
    /// [`crate::sim::table_bit`] mask of tables read or written.
    touched_tables: u64,
    /// Mask of tables written.
    wrote_tables: u64,
    /// Advisor time (`on_query_live`) inside this execution, for Fig. 11.
    est_us: f64,
}

impl<S> SingleOutcome<S> {
    fn plain(reply: SingleReply<S>, req: Option<Request>) -> Self {
        SingleOutcome {
            reply,
            req,
            spec_undo: None,
            touched_tables: 0,
            wrote_tables: 0,
            est_us: 0.0,
        }
    }

    /// Whether this transaction's group needs a commit flush: it committed
    /// and wrote something durable. The flush itself is the *caller's* job
    /// — one flush covers every such transaction in a drained run (group
    /// commit).
    fn needs_flush(&self) -> bool {
        matches!(self.reply, SingleReply::Done { committed: true, .. }) && self.wrote_tables != 0
    }
}

/// Microseconds elapsed since `t`.
fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Stamps the worker-side stage timings (queue wait, advisor share,
/// execution) onto a fast-path reply; `span_us` is the transaction's
/// whole execution span as the caller's clock batching measured it.
fn stamp_times<S>(out: &mut SingleOutcome<S>, queued_us: f64, span_us: f64) {
    let times =
        StageTimes { queued_us, est_us: out.est_us, exec_us: (span_us - out.est_us).max(0.0) };
    match &mut out.reply {
        SingleReply::Done { times: t, .. } | SingleReply::Mispredict { times: t, .. } => *t = times,
        SingleReply::Cascaded { .. } | SingleReply::Fatal(_) => {}
    }
}

/// Executes one whole single-partition transaction on the owning worker —
/// the lock-free fast path. Mirrors `Simulation::try_execute` minus timing
/// and remote work.
///
/// With `speculating` set the transaction runs inside an open speculation
/// window: undo logging is force-enabled whatever OP3 decided (initial
/// `disable_undo` *and* runtime updates are ignored, §4.3 — the same
/// invariant the simulator applies), and a commit returns its undo log for
/// the caller to push onto the shard's [`SpeculationStack`] instead of
/// clearing it.
fn run_single<A: LiveAdvisor>(
    shard: &mut Shard,
    env: &Shared<A>,
    req: Request,
    plan: &TxnPlan,
    mut session: A::Session,
    speculating: bool,
) -> SingleOutcome<A::Session> {
    let me = shard.partition();
    debug_assert_eq!(plan.lock_set, PartitionSet::single(me), "fast path misrouted");
    let lock_set = plan.lock_set;
    let mut inst = env.registry.get(req.proc).instantiate(&req.args);
    let start_without_undo = plan.disable_undo && !speculating;
    let mut undo = if start_without_undo { UndoLog::disabled() } else { UndoLog::new() };
    let mut undo_disabled_ever = start_without_undo;
    let mut results: Option<Vec<Vec<Row>>> = None;
    let mut accessed = PartitionSet::EMPTY;
    let mut access_counts: FxHashMap<PartitionId, u32> = FxHashMap::default();
    let mut touched_tables = 0u64;
    let mut wrote_tables = 0u64;
    let mut est_us = 0.0f64;
    let mut pending_abort: Option<String> = None;
    loop {
        let step = match pending_abort.take() {
            Some(msg) => Step::Abort(msg),
            None => inst.next(results.as_deref()),
        };
        match step {
            Step::Queries(batch) => {
                // Validate targets before touching storage, exactly like the
                // simulator: the transaction learns the partitions of the
                // queries up to and including the first offending one.
                let mut seen = PartitionSet::EMPTY;
                let mut violation = false;
                for inv in &batch {
                    let def = env.catalog.proc(req.proc).query(inv.query);
                    let targets = def.estimate_partitions_n(env.num_partitions, &inv.params);
                    seen = seen.union(targets);
                    if !targets.is_subset(lock_set) {
                        violation = true;
                        break;
                    }
                }
                if violation {
                    if !undo.can_rollback() {
                        return SingleOutcome::plain(
                            SingleReply::Fatal(Error::UnrecoverableAbort {
                                txn: u64::from(req.proc) + 1000,
                            }),
                            Some(req),
                        );
                    }
                    if let Err(e) = shard.rollback(&mut undo) {
                        return SingleOutcome::plain(SingleReply::Fatal(e), Some(req));
                    }
                    return SingleOutcome {
                        reply: SingleReply::Mispredict {
                            req,
                            observed: accessed.union(seen),
                            session,
                            times: StageTimes::default(),
                        },
                        req: None,
                        spec_undo: None,
                        touched_tables,
                        wrote_tables,
                        est_us,
                    };
                }
                let mut batch_results = Vec::with_capacity(batch.len());
                for inv in batch {
                    let def = env.catalog.proc(req.proc).query(inv.query);
                    let is_write = def.is_write();
                    let rows = match execute_fragment(shard, def, &inv.params, &mut undo) {
                        Ok(rows) => rows,
                        Err(Error::Constraint(msg)) => {
                            pending_abort = Some(msg);
                            break;
                        }
                        Err(e) => return SingleOutcome::plain(SingleReply::Fatal(e), Some(req)),
                    };
                    accessed.insert(me);
                    *access_counts.entry(me).or_insert(0) += 1;
                    touched_tables |= crate::sim::table_bit(def.table);
                    if is_write {
                        wrote_tables |= crate::sim::table_bit(def.table);
                    }
                    let t_est = Instant::now();
                    let upd = env.advisor.on_query_live(
                        &mut session,
                        &ExecutedQuery {
                            query: inv.query,
                            params: inv.params,
                            partitions: PartitionSet::single(me),
                            is_write,
                        },
                    );
                    est_us += us_since(t_est);
                    // Runtime OP3 is ignored while speculating: a
                    // speculative transaction must stay able to cascade.
                    if upd.disable_undo && !speculating && undo.is_enabled() {
                        undo.disable();
                        undo_disabled_ever = true;
                    }
                    batch_results.push(rows);
                }
                results = Some(batch_results);
            }
            Step::Commit => {
                // Durable effects are *not* flushed here: the caller
                // applies one group-commit flush per drained run, covering
                // every committed write in it (see [`worker_loop`]) —
                // `SingleOutcome::needs_flush` tells it whether this
                // transaction participates.
                let reply = SingleReply::Done {
                    committed: true,
                    session,
                    accessed,
                    access_counts,
                    undo_disabled_ever,
                    speculative: speculating,
                    times: StageTimes::default(),
                };
                if speculating {
                    // The commit is contingent on the early-prepared
                    // transaction: hand the undo log back for the
                    // speculation stack (§4.3 — undo is always kept here).
                    assert!(
                        undo.can_rollback(),
                        "speculative transaction ran without undo (OP3 leak)"
                    );
                    return SingleOutcome {
                        reply,
                        req: Some(req),
                        spec_undo: Some(undo),
                        touched_tables,
                        wrote_tables,
                        est_us,
                    };
                }
                undo.clear();
                return SingleOutcome {
                    reply,
                    req: Some(req),
                    spec_undo: None,
                    touched_tables,
                    wrote_tables,
                    est_us,
                };
            }
            Step::Abort(_) => {
                if !undo.can_rollback() {
                    return SingleOutcome::plain(
                        SingleReply::Fatal(Error::UnrecoverableAbort { txn: u64::from(req.proc) }),
                        Some(req),
                    );
                }
                if let Err(e) = shard.rollback(&mut undo) {
                    return SingleOutcome::plain(SingleReply::Fatal(e), Some(req));
                }
                return SingleOutcome {
                    reply: SingleReply::Done {
                        committed: false,
                        session,
                        accessed,
                        access_counts,
                        undo_disabled_ever,
                        speculative: speculating,
                        times: StageTimes::default(),
                    },
                    req: Some(req),
                    // Aborted effects are already rolled back; nothing for
                    // the stack, but the masks still classify conflicts.
                    spec_undo: None,
                    touched_tables,
                    wrote_tables,
                    est_us,
                };
            }
        }
    }
}

/// Where a reservation's fragment commands come from and where its
/// replies go: the client's registered fragment lane — the partition lock
/// *is* the reservation, so the lock holder's first push opens service.
struct FragSource<'a> {
    conns: &'a mut Vec<FragConn>,
    /// Index of the serving lane in `conns`; a speculation window keeps it
    /// (stable — lanes are only retired between transactions, never while
    /// a window is open).
    i: usize,
    bell: &'a Doorbell,
}

impl FragSource<'_> {
    /// Blocks for the next fragment command; `None` when the coordinator
    /// is gone (producer dropped). Waits park on the worker's own
    /// doorbell — the coordinator rings it after every push; stray rings
    /// from other clients just cost a re-check.
    fn recv(&mut self) -> Option<FragCmd> {
        let lane = &mut self.conns[self.i].frags;
        loop {
            if let Some(cmd) = lane.pop() {
                return Some(cmd);
            }
            if lane.is_closed() {
                return None;
            }
            // Doorbell protocol: announce intent, MANDATORY second look (a
            // push-and-ring that landed before the parked bit went up is
            // only visible here), then sleep.
            let token = self.bell.prepare_park();
            if lane.is_empty() && !lane.is_closed() {
                self.bell.park(token);
            } else {
                self.bell.cancel_park();
            }
        }
    }

    /// Delivers a reply to the coordinator; false if it is gone.
    fn send(&mut self, reply: FragReply) -> bool {
        let conn = &self.conns[self.i];
        // A closed lane's coordinator died: nobody will ever take this
        // reply, so leave the slot reusable-empty instead.
        if conn.frags.is_closed() {
            return false;
        }
        conn.replies.put(reply);
        true
    }
}

/// A speculation window opened by an early-prepared distributed
/// transaction: its coordinator's fragment lane plus the shard's undo
/// stack and the conflict mask.
struct SpecSession {
    /// Index of the coordinator's lane in the worker's `frag_lanes`.
    lane: usize,
    stack: SpeculationStack,
    /// [`crate::sim::table_bit`] mask of tables written inside the window
    /// so far: the early-prepared fragment's writes plus every deferred
    /// speculative commit's. A speculative transaction whose touched set is
    /// disjoint from this cannot depend on contingent state (§2 OP4).
    written_tables: u64,
    /// The distributed transaction's command-log id (durable mode): its
    /// `DistBegin` is already on this partition's log, and the window's
    /// resolution appends the matching `Decision`.
    dist_id: Option<u64>,
}

/// Parks the worker for one distributed transaction: execute its fragments
/// against the owned shard until the coordinator sends the 2PC outcome —
/// or an early prepare, which hands back an open [`SpecSession`] for the
/// caller to speculate under.
fn serve_reservation<A: LiveAdvisor>(
    shard: &mut Shard,
    env: &Shared<A>,
    mut src: FragSource<'_>,
) -> Option<SpecSession> {
    let mut undo = UndoLog::new();
    let mut wrote_tables = 0u64;
    let mut dist_id: Option<u64> = None;
    loop {
        match src.recv() {
            Some(FragCmd::LogBegin { txn_id, proc, args }) => {
                // Durable mode only (never sent otherwise): record the
                // distributed transaction's begin at its service position —
                // before any of its fragments execute here. No reply, no
                // modeled delay: this is durability bookkeeping, not one of
                // the paper's network messages.
                if let Some(d) = &env.durable {
                    let rec = LogRecord::DistBegin { txn_id, proc, args };
                    d.logs.append(shard.partition(), &rec);
                }
                dist_id = Some(txn_id);
            }
            Some(FragCmd::ExecBatch { proc, queries }) => {
                // One modeled network hop covers the whole sub-batch —
                // exactly the per-query message cost batching removes.
                flush(env.msg_delay);
                let mut items = Vec::with_capacity(queries.len());
                let mut fatal = None;
                for (query, params) in queries {
                    let def = env.catalog.proc(proc).query(query);
                    match execute_fragment(shard, def, &params, &mut undo) {
                        Ok(rows) => {
                            if def.is_write() {
                                wrote_tables |= crate::sim::table_bit(def.table);
                            }
                            items.push(BatchItem::Rows(rows));
                        }
                        Err(Error::Constraint(msg)) => {
                            // Stop at the first local constraint: the
                            // coordinator aborts at the batch-global first
                            // constraint anyway, and the rollback erases
                            // anything executed past it.
                            items.push(BatchItem::Constraint(msg));
                            break;
                        }
                        Err(e) => {
                            fatal = Some(e);
                            break;
                        }
                    }
                }
                let reply = match fatal {
                    Some(e) => FragReply::Fatal(e),
                    None => FragReply::Batch(items),
                };
                if !src.send(reply) {
                    // Coordinator vanished: restore the shard and move on.
                    let _ = shard.rollback(&mut undo);
                    return None;
                }
            }
            Some(FragCmd::Prepare { speculate }) => {
                flush(env.msg_delay);
                if !speculate {
                    // Read-only participant: no effects to keep or undo, no
                    // outcome to wait for — the reservation simply ends and
                    // the worker serves everything normally again.
                    debug_assert!(undo.is_empty(), "read-only fragment logged undo");
                    return None;
                }
                // Early prepare of a written fragment: open the speculation
                // window over this fragment's undo. Its durability is the
                // *coordinator's* debt — one wait on the shared
                // [`FlushSequencer`] after all Finished acks, with a ticket
                // that covers this fragment's log records (the acks order
                // the writes before the wait). No sleep here: the old
                // ungrouped per-participant flush stalled this partition's
                // whole fast path behind every distributed writer.
                let stack = SpeculationStack::new(undo);
                return Some(SpecSession {
                    lane: src.i,
                    stack,
                    written_tables: wrote_tables,
                    dist_id,
                });
            }
            Some(FragCmd::VoteFinish { commit }) => {
                // Coalesced 2PC: flush-and-vote plus the decision in one
                // message — one modeled network hop, one acknowledgement.
                // Outcome-identical to Vote + Finish because the vote is
                // always yes. Commit durability is the coordinator's one
                // sequenced flush (see the Prepare arm above).
                flush(env.msg_delay);
                if let (Some(d), Some(id)) = (&env.durable, dist_id) {
                    // Appended before the Finished reply: the coordinator's
                    // one real flush (after all Finished acks) covers it.
                    let rec = LogRecord::Decision { txn_id: id, commit };
                    d.logs.append(shard.partition(), &rec);
                }
                let reply = if commit {
                    undo.clear();
                    FragReply::Finished
                } else {
                    match shard.rollback(&mut undo) {
                        Ok(()) => FragReply::Finished,
                        Err(e) => FragReply::Fatal(e),
                    }
                };
                let _ = src.send(reply);
                return None;
            }
            None => {
                let _ = shard.rollback(&mut undo);
                return None;
            }
        }
    }
}

/// Runs the worker through one speculation window: swept single-partition
/// transactions execute speculatively (deferred acknowledgement, undo
/// force-enabled) and other fragment lanes wait unserved until the
/// early-prepared transaction's 2PC outcome arrives. Work is collected in
/// runs exactly like [`worker_loop`] — control channel first, then a fair
/// lane sweep — and one adaptive group flush covers a run's speculative
/// commits (they must be durable before any acknowledgement, immediate or
/// deferred, goes out), with non-conflicting acknowledgements leaving as
/// a group. The control channel is gathered *before* each sweep, so an
/// outcome already buffered ends the window before any further singles
/// are admitted — they execute non-speculatively after it, a schedule the
/// racing clients cannot distinguish. Returns true if a shutdown was
/// observed while speculating (the window still resolves first).
#[allow(clippy::too_many_arguments)]
fn speculate<A: LiveAdvisor>(
    shard: &mut Shard,
    env: &Shared<A>,
    ctrl: &Receiver<CtrlMsg<A::Session>>,
    bell: &Doorbell,
    lanes: &mut Vec<ring::Consumer<SingleMsg<A::Session>>>,
    frag_lanes: &mut Vec<FragConn>,
    snaps: &mut Vec<(u64, Sender<()>)>,
    last_ticket: &mut u64,
    mut spec: SpecSession,
) -> bool {
    // A deferred completion: the client's slot, the reply, the request
    // (unless the reply carries it itself — needed to route the `Cascaded`
    // retry if the window aborts), and the command-log id of its contingent
    // `DistBegin` record (durable mode, conflicting commits only — the
    // window's resolution appends the matching `Decision`, or nothing on
    // abort, so replay skips it).
    type Deferred<S> = (Arc<SingleSlot<S>>, SingleReply<S>, Option<Request>, Option<u64>);
    let mut deferred: Vec<Deferred<A::Session>> = Vec::new();
    let mut run: Vec<SingleMsg<A::Session>> = Vec::new();
    let mut shutdown = false;
    // `None` = the coordinator disappeared without an outcome (it unwound);
    // the window resolves exactly like an abort.
    let outcome: Option<bool> = 'window: loop {
        let mut finish: Option<bool> = None;
        gather_ctrl(ctrl, lanes, frag_lanes, snaps, &mut shutdown, Some(&mut finish));
        if finish.is_none() {
            sweep_lanes(lanes, &mut run);
        }
        if run.is_empty() && finish.is_none() {
            // Idle: park under the doorbell protocol, but with the
            // watchdog timeout — the outcome normally arrives as a rung
            // control message, so an empty 25 ms is only expected for a
            // long-running coordinator, unless it died (its fragment lane
            // closes without a buffered outcome).
            let token = bell.prepare_park();
            gather_ctrl(ctrl, lanes, frag_lanes, snaps, &mut shutdown, Some(&mut finish));
            if finish.is_none() {
                sweep_lanes(lanes, &mut run);
            }
            if run.is_empty() && finish.is_none() {
                // The lane matters here only as the liveness signal.
                // Anything buffered in it belongs to the *next*
                // transaction of a client that reacquired after an early
                // release — never popped here. A closed (drained, producer
                // dropped) lane means the coordinator died; one final
                // control drain closes the race where it sent the outcome
                // just before dropping.
                if bell.park_timeout(token, SPEC_WATCHDOG)
                    && frag_lanes[spec.lane].frags.is_closed()
                {
                    let mut last: Option<bool> = None;
                    gather_ctrl(ctrl, lanes, frag_lanes, snaps, &mut shutdown, Some(&mut last));
                    break 'window last;
                }
                continue 'window;
            }
            bell.cancel_park();
        }
        // Serve the swept run, same group structure as the non-speculating
        // loop; an outcome gathered above ends the window after this run.
        let mut acks: Vec<DeferredAck<A::Session>> = Vec::new();
        let mut group_wrote = false;
        let mut t_cursor = Instant::now();
        for msg in run.drain(..) {
            let SingleMsg { req, plan, session, reply, enqueued } = msg;
            let queued_us = t_cursor.duration_since(enqueued).as_secs_f64() * 1e6;
            let mut out = run_single(shard, env, req, &plan, session, true);
            let durable = out.needs_flush();
            let t_done = Instant::now();
            stamp_times(&mut out, queued_us, (t_done - t_cursor).as_secs_f64() * 1e6);
            t_cursor = t_done;
            // Same conflict rule as the simulator (§2 OP4): contingent
            // means having touched a table written inside the window — by
            // the early-prepared fragment or by a deferred speculative
            // commit. A non-conflicting transaction read nothing
            // contingent, so its outcome is final whatever the 2PC
            // decides, and even its *writes* are safe to keep off the
            // stack: on a cascade, the deferred transactions' row-level
            // pre-images restore around them (their tables are disjoint
            // from everything the cascade undoes up to their own later —
            // also undone — overwrites).
            let conflict = out.touched_tables & spec.written_tables != 0;
            match out.spec_undo {
                Some(u) if conflict => {
                    // A contingent commit: effects join the window (and
                    // its conflict mask), the ack waits. Durable mode logs
                    // it *here*, at its true serialization position, as a
                    // single-participant `DistBegin` — contingent on the
                    // `Decision` the window's resolution appends (commit)
                    // or withholds (abort ⇒ replay skips; the client's
                    // transparent retry re-logs the new attempt).
                    let log_id = env.durable.as_ref().map(|d| {
                        let txn_id = d.next_id();
                        let req =
                            out.req.as_ref().expect("deferred completion retains its request");
                        let rec =
                            LogRecord::DistBegin { txn_id, proc: req.proc, args: req.args.clone() };
                        d.logs.append(shard.partition(), &rec);
                        txn_id
                    });
                    spec.stack.push_commit(u);
                    spec.written_tables |= out.wrote_tables;
                    deferred.push((reply, out.reply, out.req, log_id));
                }
                None if conflict => deferred.push((reply, out.reply, out.req, None)),
                // Non-conflicting (commit, user abort, or mispredict):
                // acknowledge with the group, effects (if any) are final.
                Some(_) | None => {
                    if durable {
                        if let Some(d) = &env.durable {
                            // Final whatever the 2PC decides: a plain
                            // command-log record, like the fast path's.
                            let req =
                                out.req.as_ref().expect("committed fast path retains its request");
                            d.append_local(shard.partition(), req);
                        }
                    }
                    group_wrote |= durable;
                    acks.push((reply, out.reply));
                }
            }
        }
        // Non-conflicting acks leave now: their effects are disjoint from
        // the window's, and their group-commit window is the run that just
        // served them — the in-flight 2PC round trip this window spans is
        // the widest coalescing period the adaptive policy can produce.
        // Deferred acks wait for the outcome, which arrives strictly later.
        // The group's flush demand is registered with the shared sequencer
        // (accounting on the simulated device, a real flusher hand-off in
        // durable mode) when any of them wrote.
        if !acks.is_empty() {
            if let Some(t) = release_group(env, acks, group_wrote, *last_ticket) {
                *last_ticket = t;
            }
        }
        if let Some(commit) = finish {
            break 'window Some(commit);
        }
    };
    if outcome == Some(true) {
        // Speculative work becomes final: acknowledge in completion order.
        spec.stack.commit();
        if let Some(d) = &env.durable {
            // The window's decision, then each contingent commit's — all
            // appended before the Finished ack below, so the coordinator's
            // one sequenced flush covers them; the deferred acks ride a
            // flusher ticket of their own rather than wait for it.
            if let Some(id) = spec.dist_id {
                d.logs.append(shard.partition(), &LogRecord::Decision { txn_id: id, commit: true });
            }
            for (_, _, _, log_id) in &deferred {
                if let Some(id) = *log_id {
                    d.logs.append(
                        shard.partition(),
                        &LogRecord::Decision { txn_id: id, commit: true },
                    );
                }
            }
            if !deferred.is_empty() {
                let acks = deferred.into_iter().map(|(slot, reply, _, _)| (slot, reply)).collect();
                if let Some(t) = release_group(env, acks, true, *last_ticket) {
                    *last_ticket = t;
                }
            }
        } else {
            for (slot, reply, _, _) in deferred {
                slot.put(reply);
            }
        }
        spec_reply(frag_lanes, spec.lane, FragReply::Finished);
    } else {
        // Cascading rollback (LIFO) of every speculative commit, then the
        // fragment itself; deferred clients retry transparently. Durable
        // mode appends the window's abort decision (the contingent
        // `DistBegin`s get nothing — no decision ⇒ replay skips them).
        if let (Some(d), Some(id)) = (&env.durable, spec.dist_id) {
            d.logs.append(shard.partition(), &LogRecord::Decision { txn_id: id, commit: false });
        }
        let reply = match shard.rollback_speculation(spec.stack) {
            Ok(_) => FragReply::Finished,
            Err(e) => FragReply::Fatal(e),
        };
        for (slot, dropped, req, _) in deferred {
            // The rolled-back attempt's request routes the transparent
            // retry; a Mispredict reply carries it itself.
            let req = match dropped {
                SingleReply::Mispredict { req, .. } => req,
                _ => req.expect("deferred completion retains its request"),
            };
            slot.put(SingleReply::Cascaded { req });
        }
        if outcome.is_some() {
            spec_reply(frag_lanes, spec.lane, reply);
        }
    }
    shutdown
}

/// Delivers a speculation window's final participant acknowledgement over
/// its coordinator's lane; dropped when the coordinator is already gone
/// (a closed lane's reply slot must stay reusable-empty).
fn spec_reply(frag_lanes: &[FragConn], lane: usize, reply: FragReply) {
    let conn = &frag_lanes[lane];
    if !conn.frags.is_closed() {
        conn.replies.put(reply);
    }
}

/// How one execution attempt ended, from the client's point of view.
enum Attempt<S> {
    Done {
        committed: bool,
        accessed: PartitionSet,
        access_counts: FxHashMap<PartitionId, u32>,
        undo_disabled_ever: bool,
        speculative: bool,
        early_released: bool,
        session: S,
    },
    Mispredict {
        observed: PartitionSet,
        session: S,
    },
    /// Rolled back by a speculation cascade; retry with the same plan and a
    /// fresh session (no restart counted).
    Cascaded,
    Fatal(Error),
}

/// Client-side Fig. 11 stage accumulator for one [`Client::call`]: folded
/// into `RunMetrics::profile` once the call resolves, with the residual
/// against total wall time reported as `Other`.
#[derive(Debug, Clone, Copy, Default)]
struct StageAcc {
    est_us: f64,
    exec_us: f64,
    coord_us: f64,
    queue_us: f64,
    /// Sub-buckets *of* `coord_us` (each amount below is also added to
    /// `coord_us`), splitting the distributed path's coordination cost the
    /// way Fig. 11's analysis needs it: time blocked acquiring the lock
    /// set, time in the 2PC finish round (outcome sends + acks), and time
    /// waiting on the shared commit-flush sequencer. The fast path's
    /// residual coordination (group flush waits, channel hops) lands in
    /// none of them.
    lock_us: f64,
    twopc_us: f64,
    flush_us: f64,
}

impl StageAcc {
    /// Folds one fast-path round trip: the stages the worker measured,
    /// plus the round trip's unexplained remainder (channel hops, waiting
    /// for the group flush and groupmates) as coordination.
    fn fold_reply(&mut self, times: StageTimes, round_trip_us: f64) {
        self.queue_us += times.queued_us;
        self.est_us += times.est_us;
        self.exec_us += times.exec_us;
        self.coord_us += (round_trip_us - times.queued_us - times.est_us - times.exec_us).max(0.0);
    }
}

/// Records one lock-hold sample (acquisition → now) for every partition
/// still held in `lock_set` minus `released`, into the client's reused
/// sample buffer (folded under the metrics lock once per call).
fn record_remaining_hold(
    samples: &mut Vec<f64>,
    lock_set: PartitionSet,
    released: PartitionSet,
    t_locked: Instant,
) {
    let us = t_locked.elapsed().as_secs_f64() * 1e6;
    for _ in lock_set.difference(released).iter() {
        samples.push(us);
    }
}

/// The client-side half of one [`FragConn`]: the producer of this
/// client's fragment lane to one worker plus the reusable reply slot that
/// worker fills. Registered lazily on the client's first distributed use
/// of the partition, then reused by every later distributed transaction —
/// the per-transaction channel pairs (and their reservation round trip)
/// are gone from the steady state entirely.
struct FragPort {
    tx: ring::Producer<FragCmd>,
    replies: Arc<ReplySlot<FragReply>>,
}

/// Bounded yield-retry on a full fragment lane before declaring the
/// worker wedged. Fragment shipping is ping-pong per worker (at most an
/// unacknowledged `Prepare` plus the next transaction's opening command
/// sit in a lane), so the retry only guards a protocol bug, never a real
/// backlog.
const FRAG_PUSH_RETRY: u32 = 1 << 16;

/// Ensures this client's fragment lane to worker `p` exists (registering
/// it over the control channel on first use), pushes one command, and
/// rings the worker's doorbell.
fn push_frag<S>(
    ports: &mut [Option<FragPort>],
    workers: &[WorkerGate<S>],
    p: usize,
    cmd: FragCmd,
) -> Result<()> {
    if ports[p].is_none() {
        let (tx, rx) = ring::spsc(LANE_CAPACITY);
        let replies = Arc::new(ReplySlot::new());
        if !workers[p]
            .send_ctrl(CtrlMsg::FragLane(FragConn { frags: rx, replies: Arc::clone(&replies) }))
        {
            return Err(Error::Other(format!("worker {p} is gone")));
        }
        ports[p] = Some(FragPort { tx, replies });
    }
    let port = ports[p].as_mut().expect("port just ensured");
    let mut cmd = cmd;
    for _ in 0..FRAG_PUSH_RETRY {
        match port.tx.push(cmd) {
            Ok(()) => {
                workers[p].bell.ring();
                return Ok(());
            }
            Err(ring::PushError::Disconnected(_)) => {
                return Err(Error::Other(format!("worker {p} is gone")));
            }
            Err(ring::PushError::Full(c)) => {
                cmd = c;
                std::thread::yield_now();
            }
        }
    }
    Err(Error::Other(format!("fragment lane to worker {p} wedged")))
}

/// Coordinates one distributed transaction from the client thread: atomic
/// lock acquisition, batched fragment shipping over the reusable lanes,
/// early prepares (OP4), 2PC outcome, and the one sequenced commit flush.
#[allow(clippy::too_many_lines)]
fn run_distributed<A: LiveAdvisor>(
    env: &Shared<A>,
    req: &Request,
    plan: &TxnPlan,
    mut session: A::Session,
    lock_holds: &mut Vec<f64>,
    ports: &mut [Option<FragPort>],
    acc: &mut StageAcc,
) -> Attempt<A::Session> {
    let workers = &env.workers;
    let lock_set = plan.lock_set;
    // Held for the whole coordination; the drop guard also releases on an
    // unwind, so a panicking coordinator cannot wedge later transactions
    // (an unwinding client also drops its lane producers, and workers roll
    // back fragments of a closed lane).
    let t_acquire = Instant::now();
    let mut locks_held = env.locks.guard(lock_set);
    let lock_wait = us_since(t_acquire);
    acc.coord_us += lock_wait;
    acc.lock_us += lock_wait;
    let t_locked = Instant::now();
    // Early-released partitions: `released` is the union the mispredict
    // rule and metrics see; `windowed` is the subset whose fragment wrote
    // (speculation window open, 2PC outcome still owed), the rest were
    // read-only participants and are completely done with this txn.
    let mut released = PartitionSet::EMPTY;
    let mut windowed = PartitionSet::EMPTY;
    // Partitions any write query touched so far (the coordinator's view of
    // which fragments are contingent — same catalog knowledge the workers
    // have, so the two sides always agree on whether a window opens).
    let mut wrote_parts = PartitionSet::EMPTY;
    // Durable mode: this transaction's command-log id, and the participants
    // whose logs already hold its `DistBegin` (shipped once per partition,
    // before its first fragment).
    let dist_id = env.durable.as_ref().map(Durable::next_id);
    let mut began = PartitionSet::EMPTY;
    // No reservation step: holding a partition's lock entitles this client
    // to push on its (lazily registered) fragment lane, and the first push
    // opens service at the worker. The base partition is a fragment
    // executor like the others — control code runs here on the
    // coordinator.
    let n = env.num_partitions as usize;
    // Sends the 2PC outcome everywhere and waits for every ack; every call
    // site returns immediately afterwards, so the lock guard releases only
    // after all fragment effects are final (abort: undone; commit: kept —
    // durability is the caller's sequenced flush after this returns).
    // Coalesced 2PC (§2): each still-reserved participant gets one
    // `VoteFinish` carrying the flush-and-vote *and* the decision — the
    // split Vote round bought no information (participants always vote
    // yes; fragment errors surfaced at execution), only an extra message
    // round of lock-hold time per participant. Early prepares already
    // voted, unsolicited, off the critical path; windowed participants
    // take the outcome on their worker's control channel (the speculating
    // worker parks on its doorbell); read-only released participants hear
    // nothing (they are already out). All sends go out before any
    // acknowledgement is awaited, so participant-side work and modeled
    // delays overlap in wall-clock time.
    let finish_all = |ports: &mut [Option<FragPort>],
                      released: PartitionSet,
                      windowed: PartitionSet,
                      commit: bool|
     -> Result<()> {
        let mut failure = None;
        for p in lock_set.iter() {
            if windowed.contains(p) {
                workers[p as usize].send_ctrl(CtrlMsg::SpecFinish { commit });
            } else if !released.contains(p) {
                if let Err(e) =
                    push_frag(ports, workers, p as usize, FragCmd::VoteFinish { commit })
                {
                    failure = Some(e);
                }
            }
        }
        for p in lock_set.difference(released).union(windowed).iter() {
            let Some(port) = ports[p as usize].as_ref() else {
                // The lane registration itself failed above: worker gone.
                failure = Some(Error::Other(format!("worker {p} is gone")));
                continue;
            };
            match port.replies.take_or_abandon(|| port.tx.is_closed()) {
                Some(FragReply::Finished) => {}
                Some(FragReply::Fatal(e)) => failure = Some(e),
                Some(_) => failure = Some(Error::Other("fragment protocol violation".into())),
                None => failure = Some(Error::Other(format!("worker {p} hung up"))),
            }
        }
        match failure {
            None => Ok(()),
            Some(e) => Err(e),
        }
    };

    let mut inst = env.registry.get(req.proc).instantiate(&req.args);
    let mut results: Option<Vec<Vec<Row>>> = None;
    let mut accessed = PartitionSet::EMPTY;
    let mut access_counts: FxHashMap<PartitionId, u32> = FxHashMap::default();
    let mut pending_abort: Option<String> = None;
    // Per-participant reply cursors for the current batch, reused across
    // batch steps (entries are taken by the merge and cleared after it).
    let mut per_part: Vec<Option<std::vec::IntoIter<BatchItem>>> = (0..n).map(|_| None).collect();
    loop {
        // Control code runs here on the coordinator: Execution time.
        let t_step = Instant::now();
        let step = match pending_abort.take() {
            Some(msg) => Step::Abort(msg),
            None => inst.next(results.as_deref()),
        };
        acc.exec_us += us_since(t_step);
        match step {
            Step::Queries(batch) => {
                let t_batch = Instant::now();
                let mut batch_est_us = 0.0f64;
                let mut seen = PartitionSet::EMPTY;
                let mut violation = false;
                let mut q_targets: Vec<PartitionSet> = Vec::with_capacity(batch.len());
                for inv in &batch {
                    let def = env.catalog.proc(req.proc).query(inv.query);
                    let targets = def.estimate_partitions_n(env.num_partitions, &inv.params);
                    seen = seen.union(targets);
                    // Re-touching an early-released partition is a
                    // mispredict like leaving the lock set (same rule as
                    // the simulator).
                    if !targets.is_subset(lock_set) || !targets.intersect(released).is_empty() {
                        violation = true;
                        break;
                    }
                    q_targets.push(targets);
                }
                if violation {
                    let t_fin = Instant::now();
                    let fin = finish_all(ports, released, windowed, false);
                    let tw = us_since(t_fin);
                    acc.coord_us += tw;
                    acc.twopc_us += tw;
                    record_remaining_hold(lock_holds, lock_set, released, t_locked);
                    return match fin {
                        Ok(()) => Attempt::Mispredict { observed: accessed.union(seen), session },
                        Err(e) => Attempt::Fatal(e),
                    };
                }
                // Ship each participant's share of the batch as ONE
                // `ExecBatch` — one lane push, one modeled network hop and
                // one reply per participant per batch step, where the
                // per-query path paid all three per query. Participants
                // execute their sub-batches concurrently, each stopping at
                // its own first constraint violation; all pushes go out
                // before any reply is awaited.
                let mut to_ship: Vec<Vec<(QueryId, Vec<Value>)>> = vec![Vec::new(); n];
                for (inv, targets) in batch.iter().zip(&q_targets) {
                    for p in targets.iter() {
                        to_ship[p as usize].push((inv.query, inv.params.clone()));
                    }
                }
                let mut fatal: Option<Error> = None;
                let mut shipped = PartitionSet::EMPTY;
                for p in lock_set.iter() {
                    let queries = std::mem::take(&mut to_ship[p as usize]);
                    if queries.is_empty() {
                        continue;
                    }
                    if let Some(id) = dist_id {
                        if !began.contains(p) {
                            // The begin record precedes the partition's
                            // first fragment in lane order, so the worker
                            // logs it at exactly the position the fragments
                            // serialize at.
                            let begin = FragCmd::LogBegin {
                                txn_id: id,
                                proc: req.proc,
                                args: req.args.clone(),
                            };
                            if let Err(e) = push_frag(ports, workers, p as usize, begin) {
                                fatal = Some(e);
                                continue;
                            }
                            began.insert(p);
                        }
                    }
                    match push_frag(
                        ports,
                        workers,
                        p as usize,
                        FragCmd::ExecBatch { proc: req.proc, queries },
                    ) {
                        Ok(()) => shipped.insert(p),
                        // Keep shipping to the survivors: their replies and
                        // rollbacks still need collecting below.
                        Err(e) => fatal = Some(e),
                    }
                }
                // One reply per shipped participant, ascending partition
                // order; each is the participant's item list for its whole
                // sub-batch.
                for p in shipped.iter() {
                    let port = ports[p as usize].as_ref().expect("shipped over this port");
                    match port.replies.take_or_abandon(|| port.tx.is_closed()) {
                        Some(FragReply::Batch(items)) => {
                            per_part[p as usize] = Some(items.into_iter());
                        }
                        Some(FragReply::Fatal(e)) => fatal = Some(e),
                        Some(_) => {
                            fatal = Some(Error::Other("fragment protocol violation".into()));
                        }
                        None => fatal = Some(Error::Other(format!("worker {p} hung up"))),
                    }
                }
                if let Some(e) = fatal {
                    let t_fin = Instant::now();
                    let _ = finish_all(ports, released, windowed, false);
                    let tw = us_since(t_fin);
                    acc.coord_us += tw;
                    acc.twopc_us += tw;
                    record_remaining_hold(lock_holds, lock_set, released, t_locked);
                    return Attempt::Fatal(e);
                }
                // Merge per query in ascending partition order — identical
                // row order and abort choice to the per-query path. The
                // first query with any constraint reply is the batch-global
                // abort point: no participant stopped before it (an earlier
                // local constraint would be an earlier global one), so
                // every target of every query up to and including it
                // reports an item, and items past it stay unread — the 2PC
                // rollback erases whatever a participant over-executed.
                let mut pending_release = PartitionSet::EMPTY;
                let mut batch_results = Vec::with_capacity(batch.len());
                for (inv, targets) in batch.into_iter().zip(q_targets) {
                    let def = env.catalog.proc(req.proc).query(inv.query);
                    let is_write = def.is_write();
                    let mut rows = Vec::new();
                    let mut constraint: Option<String> = None;
                    for p in targets.iter() {
                        match per_part[p as usize].as_mut().and_then(Iterator::next) {
                            Some(BatchItem::Rows(mut r)) => rows.append(&mut r),
                            Some(BatchItem::Constraint(msg)) => constraint = Some(msg),
                            None => {
                                // Unreachable by the argument above; kept
                                // defensive so a protocol bug aborts the
                                // transaction instead of desyncing cursors.
                                constraint = Some("fragment batch underrun".into());
                            }
                        }
                    }
                    accessed = accessed.union(targets);
                    if is_write {
                        wrote_parts = wrote_parts.union(targets);
                    }
                    for p in targets.iter() {
                        *access_counts.entry(p).or_insert(0) += 1;
                    }
                    if let Some(msg) = constraint {
                        pending_abort = Some(msg);
                        break;
                    }
                    // Runtime updates: OP3 is ignored on the distributed
                    // path (undo stays on), but OP4 finish declarations
                    // accumulate for the end-of-batch early prepare.
                    let t_est = Instant::now();
                    let upd = env.advisor.on_query_live(
                        &mut session,
                        &ExecutedQuery {
                            query: inv.query,
                            params: inv.params,
                            partitions: targets,
                            is_write,
                        },
                    );
                    batch_est_us += us_since(t_est);
                    if plan.early_prepare {
                        pending_release = pending_release.union(upd.finished);
                    }
                    batch_results.push(rows);
                }
                for leftover in &mut per_part {
                    *leftover = None;
                }
                // Early prepare (OP4): release finished partitions at batch
                // granularity — the same point the simulator applies
                // `pending_release`, so a later query in this batch never
                // sees a partition released mid-batch there but live here.
                // Unlike the simulator, the *base* partition is releasable
                // too: live control code runs on the coordinating client,
                // so the base is just another fragment executor (the
                // simulator's base runs the control code and stays busy to
                // commit).
                let to_release = pending_release.difference(released).intersect(lock_set);
                for p in to_release.iter() {
                    // Unacknowledged by design (the paper's unsolicited
                    // vote): the worker serves this lane's commands in
                    // order, so it observes the prepare before anything a
                    // later lock holder pushes — releasing the lock
                    // immediately after the push is safe, and not blocking
                    // here keeps the coordinator off the scheduler's
                    // critical path (one ack round trip per released
                    // partition is measurable on small hosts).
                    let speculate = wrote_parts.contains(p);
                    if let Err(e) =
                        push_frag(ports, workers, p as usize, FragCmd::Prepare { speculate })
                    {
                        // The guard drop releases everything still held —
                        // record the hold time for those partitions like
                        // every other release path (this partition is still
                        // held too: `released` not yet updated).
                        record_remaining_hold(lock_holds, lock_set, released, t_locked);
                        return Attempt::Fatal(e);
                    }
                    released.insert(p);
                    if speculate {
                        windowed.insert(p);
                    }
                    lock_holds.push(t_locked.elapsed().as_secs_f64() * 1e6);
                    locks_held.release_early(p);
                }
                results = Some(batch_results);
                // Everything in this arm except the advisor calls —
                // fragment shipping, participant execution, reply
                // collection, early-prepare sends — counts as Execution;
                // the advisor share is Estimation.
                acc.est_us += batch_est_us;
                acc.exec_us += (us_since(t_batch) - batch_est_us).max(0.0);
            }
            Step::Commit => {
                let t_fin = Instant::now();
                let fin = finish_all(ports, released, windowed, true);
                let tw = us_since(t_fin);
                acc.coord_us += tw;
                acc.twopc_us += tw;
                // One durability wait per distributed write commit,
                // through the shared sequencer — and *after* the lock
                // guard drops. The ticket is taken first, while every
                // participant's ack is in hand (their log writes
                // happen-before it), so one device operation covers all
                // of them; the wait itself is group commit: effects are
                // visible the moment the locks release, only this
                // client's acknowledgement stalls on the device. Holding
                // the lock set through the sleep instead serializes every
                // other coordinator behind a 200 µs hold (measured: lock
                // wait was 82% of 2-worker TATP call time) — and any
                // later transaction that needs this commit durable
                // enqueues a ticket at least as large, so releasing early
                // never reorders durability. This replaces one full-cap
                // sleep per writing participant *on the participant's own
                // thread*, which stalled that partition's entire fast
                // path for the duration.
                let ticket = (fin.is_ok() && !wrote_parts.is_empty() && !env.device.is_free())
                    .then(|| env.seq.enqueue());
                record_remaining_hold(lock_holds, lock_set, released, t_locked);
                drop(locks_held);
                if let Some(t) = ticket {
                    let t_flush = Instant::now();
                    // In durable mode every participant's begin and
                    // decision records are on their logs (the Finished
                    // acks above happen-after the appends), so one
                    // sequenced `write+fsync` makes the whole transaction
                    // durable. Ride the flusher's windowed group commit
                    // rather than leading eagerly — leading here would pin
                    // the fsync rate to the distributed-commit rate and
                    // collapse throughput to the device. The simulated
                    // device has no flusher to ride: lead at once.
                    let patience = env.durable.as_ref().map_or(Duration::ZERO, |d| d.group_window);
                    env.seq.wait_durable(t, &*env.device, patience);
                    let fw = us_since(t_flush);
                    acc.coord_us += fw;
                    acc.flush_us += fw;
                }
                return match fin {
                    Ok(()) => Attempt::Done {
                        committed: true,
                        accessed,
                        access_counts,
                        undo_disabled_ever: false,
                        speculative: false,
                        early_released: !released.is_empty(),
                        session,
                    },
                    Err(e) => Attempt::Fatal(e),
                };
            }
            Step::Abort(_) => {
                let t_fin = Instant::now();
                let fin = finish_all(ports, released, windowed, false);
                let tw = us_since(t_fin);
                acc.coord_us += tw;
                acc.twopc_us += tw;
                record_remaining_hold(lock_holds, lock_set, released, t_locked);
                return match fin {
                    Ok(()) => Attempt::Done {
                        committed: false,
                        accessed,
                        access_counts,
                        undo_disabled_ever: false,
                        speculative: false,
                        early_released: !released.is_empty(),
                        session,
                    },
                    Err(e) => Attempt::Fatal(e),
                };
            }
        }
    }
}

/// Ships one session-teardown feedback record toward the maintenance
/// thread, if maintenance is on and the advisor produced one. `try_send`
/// keeps the client's acknowledgement latency independent of maintenance:
/// a full channel sheds the record and bumps the drop counter.
fn emit_feedback(
    dropped: &mut u64,
    fb_tx: Option<&SyncSender<FeedbackMsg>>,
    record: Option<TxnFeedback>,
) {
    if let (Some(tx), Some(rec)) = (fb_tx, record) {
        if tx.try_send(FeedbackMsg::Record(rec)).is_err() {
            *dropped += 1;
        }
    }
}

/// A `Send` handle for submitting transactions to a [`LiveRuntime`].
///
/// Handles are cheap (one `Arc` clone) and independent: mint one per
/// application thread with [`LiveRuntime::client`], move it there, and
/// drive it with [`Client::call`]. Dropping a handle just leaves the
/// runtime; handles may join and leave at any point of the run.
///
/// Each handle owns a deterministic RNG stream derived from
/// `(LiveConfig::seed, id)` — the pre-drawn `random_local_partition`
/// advisors see — so a fixed set of handles issuing fixed requests plans
/// reproducibly.
pub struct Client<A: LiveAdvisor + 'static> {
    shared: Arc<Shared<A>>,
    id: u64,
    rng: SmallRng,
    /// One SPSC fast-path lane per worker this handle has talked to,
    /// created lazily on the first call routed to that partition.
    lanes: Vec<Option<ring::Producer<SingleMsg<A::Session>>>>,
    /// One fragment lane + reply slot per worker this handle has
    /// coordinated a distributed transaction against, registered lazily
    /// and reused forever after — the distributed path's analogue of
    /// `lanes` (see [`FragPort`]).
    frag_ports: Vec<Option<FragPort>>,
    /// The reusable reply mailbox every fast-path call blocks on (an
    /// `Arc` clone travels inside each message; never reallocated).
    reply: Arc<SingleSlot<A::Session>>,
    /// Reclaimed advisor sessions, one spare per procedure: the next call
    /// to the same procedure reuses the session's plan scratch instead of
    /// allocating fresh (see [`LiveAdvisor::plan_live_reusing`]).
    spare: FxHashMap<ProcId, A::Session>,
    /// Reused buffer of lock-hold samples from distributed attempts,
    /// folded under the metrics lock once per call.
    lock_holds: Vec<f64>,
}

/// Commit-time details [`Client::call`] stashes at the `Done` arm for the
/// single end-of-call metrics fold.
struct DoneStats {
    latency_us: f64,
    base_partition: PartitionId,
    lock_set: PartitionSet,
    accessed: PartitionSet,
    access_counts: FxHashMap<PartitionId, u32>,
    undo_disabled_ever: bool,
    speculative: bool,
    early_released: bool,
}

/// Pushes one fast-path message onto this client's lane to worker `base`,
/// creating and registering the lane on first use, then rings the
/// worker's doorbell (the push-then-ring order the doorbell protocol
/// requires).
fn send_on_lane<S>(
    lanes: &mut [Option<ring::Producer<SingleMsg<S>>>],
    workers: &[WorkerGate<S>],
    base: usize,
    msg: SingleMsg<S>,
) -> Result<()> {
    if lanes[base].is_none() {
        let (tx, rx) = ring::spsc(LANE_CAPACITY);
        if !workers[base].send_ctrl(CtrlMsg::Lane(rx)) {
            return Err(Error::Other(format!("worker {base} is gone")));
        }
        lanes[base] = Some(tx);
    }
    let lane = lanes[base].as_mut().expect("lane just ensured");
    match lane.push(msg) {
        Ok(()) => {
            workers[base].bell.ring();
            Ok(())
        }
        Err(PushError::Disconnected(_)) => Err(Error::Other(format!("worker {base} is gone"))),
        // Unreachable for a blocking client (≤ 1 call in flight per lane,
        // capacity LANE_CAPACITY); report rather than spin, defensively.
        Err(PushError::Full(_)) => Err(Error::Other(format!("lane to worker {base} overflowed"))),
    }
}

impl<A: LiveAdvisor + 'static> Client<A> {
    /// This handle's id, unique within its runtime (assigned in mint
    /// order, starting at 0). Useful as a per-stream seed, e.g. for
    /// `workloads::Bench::client_generator`.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Invokes stored procedure `proc` with `args` and blocks until the
    /// transaction finishes: plans via the runtime's advisor, dispatches
    /// to the lock-free single-partition fast path or coordinates the
    /// distributed path (2PC, OP4 early prepare), restarts transparently
    /// on mispredicts and speculation cascades, and falls back to a
    /// lock-all plan after `LiveConfig::max_restarts`.
    ///
    /// Returns [`TxnOutcome::Committed`] or [`TxnOutcome::UserAborted`];
    /// `Err` means the transaction could not be completed — an
    /// unrecoverable abort inside the engine, or the runtime shut down
    /// while the call was in flight (calls racing
    /// [`LiveRuntime::shutdown`] fail cleanly, they never hang).
    ///
    /// The transaction's counters (commit/abort, latency, restarts, OP
    /// tallies) are folded into the runtime-wide metrics before the call
    /// returns, so [`LiveRuntime::metrics`] sees it immediately.
    #[allow(clippy::too_many_lines)]
    pub fn call(&mut self, proc: ProcId, args: Vec<Value>) -> Result<TxnOutcome> {
        let env = Arc::clone(&self.shared);
        let env = &*env;
        let fb_tx = env.fb_tx.as_ref();
        // Per-call tallies live in cheap locals (plus this handle's reused
        // sample buffer) and fold into the shared RunMetrics once, under a
        // single lock section at the end — the fast path allocates no
        // per-call metrics scratch.
        let mut fb_dropped = 0u64;
        let mut restarts = 0u64;
        let mut cascaded_aborts = 0u64;
        self.lock_holds.clear();
        // The request is `None` only while a fast-path message is in
        // flight — `Mispredict`/`Cascaded` replies hand it back.
        let mut req = Some(Request { proc, args, origin_node: 0 });
        let ctx = PlanContext {
            catalog: &env.catalog,
            num_partitions: env.num_partitions,
            random_local_partition: self.rng.gen_range(0..env.num_partitions),
        };
        let t0 = Instant::now();
        let mut acc = StageAcc::default();
        let (mut plan, mut session) = env.advisor.plan_live_reusing(
            req.as_ref().expect("request in hand"),
            &ctx,
            self.spare.remove(&proc),
        );
        acc.est_us += us_since(t0);
        let mut attempt = 0u32;
        let mut cascades = 0u32;
        let mut last_observed = PartitionSet::EMPTY;
        let mut done: Option<DoneStats> = None;
        let result = loop {
            plan.lock_set.insert(plan.base_partition);
            let outcome = if plan.lock_set.is_single() {
                let base = plan.base_partition as usize;
                // The request, plan, and session all *move* into the
                // message (the plan is `Copy`, the reply slot an `Arc`
                // clone): the steady-state send is allocation-free.
                let t_send = Instant::now();
                let msg = SingleMsg {
                    req: req.take().expect("request in hand"),
                    plan,
                    session,
                    reply: Arc::clone(&self.reply),
                    enqueued: t_send,
                };
                if let Err(e) = send_on_lane(&mut self.lanes, &env.workers, base, msg) {
                    break Err(e);
                }
                let got = {
                    let lane = self.lanes[base].as_ref().expect("lane just used");
                    // If the worker retired this lane at shutdown with the
                    // message still buffered, no reply ever comes — the
                    // abandoned check turns that race into a clean error.
                    self.reply.take_or_abandon(|| lane.is_closed())
                };
                match got {
                    Some(SingleReply::Done {
                        committed,
                        session,
                        accessed,
                        access_counts,
                        undo_disabled_ever,
                        speculative,
                        times,
                    }) => {
                        acc.fold_reply(times, us_since(t_send));
                        Attempt::Done {
                            committed,
                            accessed,
                            access_counts,
                            undo_disabled_ever,
                            speculative,
                            early_released: false,
                            session,
                        }
                    }
                    Some(SingleReply::Mispredict { req: r, observed, session, times }) => {
                        acc.fold_reply(times, us_since(t_send));
                        req = Some(r);
                        Attempt::Mispredict { observed, session }
                    }
                    // A cascaded attempt's worker time was discarded with
                    // its effects; it lands in the call's Other residual.
                    Some(SingleReply::Cascaded { req: r }) => {
                        req = Some(r);
                        Attempt::Cascaded
                    }
                    Some(SingleReply::Fatal(e)) => Attempt::Fatal(e),
                    None => Attempt::Fatal(Error::Other(format!("worker {base} hung up"))),
                }
            } else {
                run_distributed(
                    env,
                    req.as_ref().expect("request in hand"),
                    &plan,
                    session,
                    &mut self.lock_holds,
                    &mut self.frag_ports,
                    &mut acc,
                )
            };
            match outcome {
                Attempt::Done {
                    committed,
                    accessed,
                    access_counts,
                    undo_disabled_ever,
                    speculative,
                    early_released,
                    session: s,
                } => {
                    let (record, reclaimed) = env.advisor.end_live_reclaim(
                        s,
                        if committed { TxnOutcome::Committed } else { TxnOutcome::UserAborted },
                    );
                    emit_feedback(&mut fb_dropped, fb_tx, record);
                    if let Some(r) = reclaimed {
                        self.spare.insert(proc, r);
                    }
                    if committed {
                        done = Some(DoneStats {
                            latency_us: us_since(t0),
                            base_partition: plan.base_partition,
                            lock_set: plan.lock_set,
                            accessed,
                            access_counts,
                            undo_disabled_ever,
                            speculative,
                            early_released,
                        });
                        break Ok(TxnOutcome::Committed);
                    }
                    break Ok(TxnOutcome::UserAborted);
                }
                Attempt::Mispredict { observed, session: s } => {
                    attempt += 1;
                    restarts += 1;
                    last_observed = observed;
                    // The superseded session's executed prefix is
                    // maintenance signal (the sim path records it the same
                    // way, §4.5) before the replan replaces it; its plan
                    // scratch is reclaimed for the retry's session.
                    let (record, reclaimed) =
                        env.advisor.end_live_reclaim(s, TxnOutcome::Mispredicted);
                    emit_feedback(&mut fb_dropped, fb_tx, record);
                    if let Some(r) = reclaimed {
                        self.spare.insert(proc, r);
                    }
                    let r = req.as_ref().expect("request survives a mispredict");
                    if attempt > env.cfg.max_restarts {
                        // Forced fallback: the *plan* is lock-all without
                        // consulting the advisor — exactly like the
                        // simulator past `max_restarts`, guaranteeing
                        // termination for any advisor. (The aborted
                        // attempt's session was torn down above like any
                        // other; riding it into the retry would
                        // concatenate two walks into one feedback path and
                        // intern phantom states.)
                        let t_est = Instant::now();
                        let (_, ns) = env.advisor.replan_live(r, observed, attempt, &ctx);
                        acc.est_us += us_since(t_est);
                        plan = TxnPlan::lock_all(
                            observed.first().unwrap_or(plan.base_partition),
                            env.num_partitions,
                        );
                        session = ns;
                    } else {
                        let t_est = Instant::now();
                        let (p, ns) = env.advisor.replan_live(r, observed, attempt, &ctx);
                        acc.est_us += us_since(t_est);
                        plan = p;
                        session = ns;
                    }
                }
                Attempt::Cascaded => {
                    // The speculative execution was discarded by a cascade;
                    // retry transparently at the same attempt with a fresh
                    // plan and session (the speculative one died mid-walk).
                    // Re-asking normally reproduces the plan this attempt
                    // ran with; if a maintenance epoch swapped in between,
                    // the retry simply runs under the newer (equally valid)
                    // plan — target validation catches any mispredict.
                    cascaded_aborts += 1;
                    cascades += 1;
                    let r = req.as_ref().expect("request survives a cascade");
                    let t_est = Instant::now();
                    let (p, ns) = if cascades > MAX_CASCADE_RETRIES {
                        // Liveness backstop: a hot partition whose windows
                        // keep aborting could cascade the same transaction
                        // indefinitely. Lock-all runs distributed — never
                        // speculative — so it terminates. (Not counted as a
                        // restart: the plan never mispredicted.)
                        let (_, ns) = env.advisor.plan_live(r, &ctx);
                        (TxnPlan::lock_all(plan.base_partition, env.num_partitions), ns)
                    } else if attempt == 0 {
                        env.advisor.plan_live(r, &ctx)
                    } else {
                        env.advisor.replan_live(r, last_observed, attempt, &ctx)
                    };
                    acc.est_us += us_since(t_est);
                    plan = p;
                    session = ns;
                }
                Attempt::Fatal(e) => break Err(e),
            }
        };
        // Fold this transaction's tallies into the run-wide counters even
        // on an error path: restarts and cascades that happened are real.
        // Per-stage attribution (Fig. 11): whatever the staged accumulators
        // didn't claim of the call's wall time — cascaded attempts, channel
        // hops outside a timed region, fatal-path teardown — is `Other`.
        // One lock section; a worker that panicked mid-call poisons this
        // mutex, but the counters stay consistent (all updates additive)
        // and calls racing a teardown must not turn one panic into many.
        let total_us = us_since(t0);
        let mut m = env.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        m.restarts += restarts;
        m.cascaded_aborts += cascaded_aborts;
        m.feedback_dropped += fb_dropped;
        for &us in &self.lock_holds {
            m.lock_hold.record_us(us);
        }
        match &result {
            Ok(TxnOutcome::Committed) => {
                let d = done.take().expect("commit recorded its stats");
                m.committed += 1;
                *m.committed_by_proc.entry(proc).or_insert(0) += 1;
                m.record_latency(proc, d.latency_us);
                if d.lock_set.is_single() {
                    m.single_partition += 1;
                } else {
                    m.distributed += 1;
                }
                if d.undo_disabled_ever {
                    m.no_undo += 1;
                }
                if d.speculative {
                    m.speculative += 1;
                }
                m.tally_ops(
                    proc,
                    d.base_partition,
                    d.lock_set,
                    d.accessed,
                    &d.access_counts,
                    env.num_partitions,
                    d.undo_disabled_ever,
                    d.speculative,
                    d.early_released,
                );
            }
            Ok(_) => m.user_aborts += 1,
            Err(_) => {}
        }
        let p = &mut m.profile;
        p.add(proc, Bucket::Estimation, acc.est_us);
        p.add(proc, Bucket::Execution, acc.exec_us);
        p.add(proc, Bucket::Coordination, acc.coord_us);
        p.add_coord(proc, CoordSub::LockWait, acc.lock_us);
        p.add_coord(proc, CoordSub::TwoPc, acc.twopc_us);
        p.add_coord(proc, CoordSub::Flush, acc.flush_us);
        p.add(proc, Bucket::Queueing, acc.queue_us);
        let known = acc.est_us + acc.exec_us + acc.coord_us + acc.queue_us;
        p.add(proc, Bucket::Other, (total_us - known).max(0.0));
        p.finish_txn(proc);
        drop(m);
        result
    }
}

impl<A: LiveAdvisor + 'static> Drop for Client<A> {
    /// Retires this handle's lanes: dropping a producer marks the lane
    /// closed, and the follow-up ring gives a parked worker the wake-up
    /// it needs to observe that and drop its consumer — the drop
    /// handshake the ring model checks (drop strictly before ring).
    fn drop(&mut self) {
        for (p, lane) in self.lanes.iter_mut().enumerate() {
            if let Some(producer) = lane.take() {
                drop(producer);
                self.shared.workers[p].bell.ring();
            }
        }
        for (p, port) in self.frag_ports.iter_mut().enumerate() {
            if let Some(port) = port.take() {
                drop(port);
                self.shared.workers[p].bell.ring();
            }
        }
    }
}

/// The threads a running [`LiveRuntime`] owns; `None` once torn down.
struct Running {
    workers: Vec<JoinHandle<Shard>>,
    maintenance: Option<JoinHandle<MaintenanceReport>>,
    /// Durable mode's dedicated fsync thread (see [`flusher_loop`]).
    flusher: Option<JoinHandle<()>>,
    /// Background snapshotter: its stop flag (0 = run, 1 = stop) and
    /// handle. The thread sleeps via `park_timeout`, so teardown stores
    /// the flag and unparks.
    snapshotter: Option<(Arc<AtomicU64>, JoinHandle<()>)>,
}

/// What a recovered boot seeds [`LiveRuntime`]'s durability state with.
struct RecoverySeed {
    /// Generation the fresh log segments open at — strictly above every
    /// generation found on disk, because appending to a segment whose tail
    /// holds a torn frame would put the new records behind it, invisible
    /// to the decoder.
    gen: u64,
    /// First transaction id the recovered runtime may allocate.
    next_txn_id: u64,
    recovery_ms: f64,
}

/// An embeddable, running instance of the live partition runtime — the
/// *server* of the paper's Fig. 1, usable as a library.
///
/// The runtime owns its threads outright (no scoped borrows):
///
/// ```text
/// LiveRuntime ──owns──> worker thread per partition (owns its Shard)
///      │      ──owns──> maintenance thread (when the advisor learns, §4.5)
///      │      ──Arc───> Shared { registry, catalog, advisor, lock manager,
///      │                         worker queues, metrics, feedback channel }
///      └─mints─> Client handles (Send; Arc into Shared) — application-owned
/// ```
///
/// [`LiveRuntime::start`] consumes the database (splitting it into
/// per-worker shards), the procedure registry, and the advisor; wrap the
/// advisor in an `Arc` to keep a handle on it (the blanket
/// `LiveAdvisor for Arc<A>` impl delegates). [`LiveRuntime::client`] mints
/// any number of [`Client`] handles for application threads;
/// [`LiveRuntime::metrics`] snapshots run-wide counters mid-run;
/// [`LiveRuntime::shutdown`] drains in-flight work and returns the final
/// metrics plus the reassembled [`Database`]. Dropping the runtime without
/// calling `shutdown` tears it down the same way, discarding the results.
pub struct LiveRuntime<A: LiveAdvisor + 'static> {
    shared: Arc<Shared<A>>,
    running: Option<Running>,
}

impl<A: LiveAdvisor + 'static> LiveRuntime<A> {
    /// Boots the runtime: splits `db` into per-partition shards, spawns
    /// one owned worker thread per shard, and — when `advisor.maintainer()`
    /// yields a [`LiveMaintainer`] — the §4.5 feedback channel plus its
    /// background maintenance thread. Returns immediately; the server is
    /// ready for [`Client::call`] traffic as soon as this returns.
    pub fn start(db: Database, registry: ProcedureRegistry, advisor: A, cfg: LiveConfig) -> Self {
        Self::start_inner(db, registry, advisor, cfg, None)
    }

    /// Boots the runtime after a crash: loads the newest complete snapshot
    /// set from `cfg.durability.dir` (if any), replays each partition's
    /// command log ([`crate::durability`]), and starts serving on the
    /// recovered state with fresh log segments. Returns the running
    /// runtime plus a [`RecoveryReport`]. Panics if `cfg.durability` is
    /// `None` or the log directory is unreadable.
    pub fn recover(
        db: Database,
        registry: ProcedureRegistry,
        advisor: A,
        cfg: LiveConfig,
    ) -> (Self, RecoveryReport) {
        let dc = cfg.durability.as_ref().expect("recover requires LiveConfig::durability");
        let t0 = Instant::now();
        let mut state = wal::scan(&dc.dir, db.num_partitions()).expect("scan durability dir");
        let mut db = db;
        if let Some(rows) = state.snapshot.take() {
            let mut shards = db.into_shards();
            for (shard, tables) in shards.iter_mut().zip(rows) {
                shard.restore_tables(tables);
            }
            db = Database::from_shards(shards);
        }
        let catalog = registry.catalog();
        let (replayed, skipped) = crate::durability::replay(&mut db, &registry, &catalog, &state);
        let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
        let report = RecoveryReport {
            recovery_ms,
            snapshot_gen: state.snapshot_gen,
            replayed,
            skipped,
            log_records_scanned: state.log_records_scanned,
        };
        let seed = RecoverySeed {
            gen: state.max_gen + 1,
            next_txn_id: crate::durability::max_txn_id(&state) + 1,
            recovery_ms,
        };
        (Self::start_inner(db, registry, advisor, cfg, Some(seed)), report)
    }

    fn start_inner(
        db: Database,
        registry: ProcedureRegistry,
        advisor: A,
        cfg: LiveConfig,
        recovered: Option<RecoverySeed>,
    ) -> Self {
        let num_partitions = db.num_partitions();
        let catalog = registry.catalog();
        let shards = db.into_shards();
        // Durable mode: open the command-log segments (a recovered boot
        // starts a fresh generation above everything on disk) and the
        // flusher intake before any worker can serve.
        let seed = recovered.unwrap_or(RecoverySeed { gen: 0, next_txn_id: 1, recovery_ms: 0.0 });
        let mut flusher_rx: Option<Receiver<FlushJob<A::Session>>> = None;
        let durable = cfg.durability.as_ref().map(|dc| {
            let logs = LogSet::open(&dc.dir, num_partitions, seed.gen)
                .expect("open command-log directory");
            let (tx, rx) = channel();
            flusher_rx = Some(rx);
            Durable {
                logs: Arc::new(logs),
                next_txn_id: AtomicU64::new(seed.next_txn_id),
                snapshots_taken: AtomicU64::new(0),
                active_gen: AtomicU64::new(seed.gen),
                recovery_ms: seed.recovery_ms,
                flusher: tx,
                group_window: dc.group_commit_window,
                read_fence: dc.read_fence,
            }
        });
        // The §4.5 feedback pipeline exists only when the advisor can
        // learn: a bounded channel from session teardown to one background
        // maintenance thread that owns the advisor's `LiveMaintainer`.
        let (fb_tx, fb_rx) = if advisor.maintainer().is_some() {
            let (tx, rx) = sync_channel::<FeedbackMsg>(cfg.feedback_capacity.max(1));
            (Some(tx), Some(rx))
        } else {
            (None, None)
        };
        let mut gates: Vec<WorkerGate<A::Session>> = Vec::new();
        let mut worker_rx: Vec<Receiver<CtrlMsg<A::Session>>> = Vec::new();
        for _ in 0..num_partitions {
            let (tx, rx) = channel();
            gates.push(WorkerGate { ctrl: tx, bell: Doorbell::new() });
            worker_rx.push(rx);
        }
        let commit_flush = Duration::from_micros(cfg.commit_flush_us);
        let device: Arc<dyn FlushDevice> = match &durable {
            Some(d) => Arc::new(FileDevice(Arc::clone(&d.logs))),
            None => Arc::new(SimulatedDevice(commit_flush)),
        };
        let shared = Arc::new(Shared {
            commit_flush,
            msg_delay: Duration::from_micros(cfg.msg_delay_us),
            registry,
            catalog,
            advisor,
            cfg,
            num_partitions,
            workers: gates,
            locks: LockManager::new(num_partitions),
            seq: FlushSequencer::new(),
            device,
            metrics: Mutex::new(RunMetrics::default()),
            fb_tx,
            next_client: AtomicU64::new(0),
            started: Instant::now(),
            durable,
        });
        let flusher = flusher_rx.map(|rx| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("wal-flusher".into())
                .spawn(move || flusher_loop::<A>(&shared, &rx))
                .expect("spawn flusher thread")
        });
        let snapshotter =
            shared.cfg.durability.as_ref().and_then(|dc| dc.snapshot_every).map(|every| {
                let stop = Arc::new(AtomicU64::new(0));
                let flag = Arc::clone(&stop);
                let shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name("snapshotter".into())
                    .spawn(move || {
                        loop {
                            std::thread::park_timeout(every);
                            // ordering: Relaxed — the join in teardown is
                            // the only consumer of this thread's effects; a
                            // spurious early wake just snapshots early.
                            if flag.load(Ordering::Relaxed) != 0 {
                                return;
                            }
                            snapshot_cluster(&shared);
                        }
                    })
                    .expect("spawn snapshotter thread");
                (stop, handle)
            });
        let workers = shards
            .into_iter()
            .zip(worker_rx)
            .enumerate()
            .map(|(p, (shard, rx))| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("partition-{p}"))
                    .spawn(move || worker_loop::<A>(shard, &rx, &shared, p))
                    .expect("spawn worker thread")
            })
            .collect();
        let maintenance = fb_rx.map(|rx| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("maintenance".into())
                .spawn(move || {
                    // The maintainer borrows the advisor; building it here,
                    // on the thread's own stack over its own Arc, keeps the
                    // runtime free of self-references. Drain until Stop (or
                    // every sender is gone): records queued before shutdown
                    // are consumed, so `feedback_records + feedback_dropped`
                    // equals the records the clients emitted.
                    // An advisor that reported `maintains() == true` but
                    // returns no maintainer is a contract violation; drain
                    // the queue (so client try_sends keep succeeding and
                    // shutdown still joins cleanly) and report zero work
                    // instead of taking the maintenance thread down.
                    let mt: Option<Box<dyn LiveMaintainer + '_>> = shared.advisor.maintainer();
                    let Some(mut mt) = mt else {
                        while let Ok(FeedbackMsg::Record(_)) = rx.recv() {}
                        return MaintenanceReport::default();
                    };
                    while let Ok(FeedbackMsg::Record(fb)) = rx.recv() {
                        mt.absorb(fb);
                    }
                    mt.report()
                })
                .expect("spawn maintenance thread")
        });
        LiveRuntime {
            shared,
            running: Some(Running { workers, maintenance, flusher, snapshotter }),
        }
    }

    /// Takes a transaction-consistent snapshot of every partition right
    /// now (durable mode only): fences the cluster, rotates every command
    /// log, serializes every shard, publishes the generation marker, and
    /// truncates obsolete segments. Returns the published generation, or
    /// `None` when durability is off or the snapshot was abandoned.
    pub fn snapshot_now(&self) -> Option<u64> {
        snapshot_cluster(&self.shared)
    }

    /// Mints a new [`Client`] handle. Handles are `Send`, independent, and
    /// may be created and dropped at any point of the run; ids are
    /// assigned in mint order starting at 0 and never reused.
    pub fn client(&self) -> Client<A> {
        // ordering: Relaxed — client ids only need to be unique; the handle
        // itself is handed to its thread via ordinary Rust ownership (a
        // `Send` move), which already synchronizes everything else.
        let id = self.shared.next_client.fetch_add(1, Ordering::Relaxed);
        Client {
            rng: seeded_rng(derive_seed(self.shared.cfg.seed, 0xC11E47 ^ id)),
            lanes: (0..self.shared.num_partitions as usize).map(|_| None).collect(),
            frag_ports: (0..self.shared.num_partitions as usize).map(|_| None).collect(),
            reply: Arc::new(ReplySlot::new()),
            spare: FxHashMap::default(),
            lock_holds: Vec::new(),
            shared: Arc::clone(&self.shared),
            id,
        }
    }

    /// The advisor serving this runtime (e.g. to inspect published epochs).
    pub fn advisor(&self) -> &A {
        &self.shared.advisor
    }

    /// Number of partitions (= worker threads) this runtime serves.
    pub fn num_partitions(&self) -> u32 {
        self.shared.num_partitions
    }

    /// Snapshots the run-wide counters without stopping traffic:
    /// everything [`Client::call`] has folded in so far, with `window_us`
    /// set to the elapsed wall-clock time since [`LiveRuntime::start`].
    /// Maintenance-thread counters (`model_swaps`, `feedback_records`,
    /// per-epoch accuracy) are folded in at [`LiveRuntime::shutdown`] only.
    pub fn metrics(&self) -> RunMetrics {
        // Mid-run snapshots must stay available even if a client thread
        // panicked while folding its per-call metrics in (same reasoning as
        // teardown below: the aggregate is additive, never half-updated in
        // a way a reader could misread).
        let mut m = self.shared.metrics.lock().unwrap_or_else(PoisonError::into_inner).clone();
        m.window_us = self.shared.started.elapsed().as_secs_f64() * 1e6;
        let (ft, fc) = self.shared.seq.counters();
        m.flushes_total = ft;
        m.flushes_coalesced = fc;
        absorb_durability(&mut m, self.shared.durable.as_ref());
        m
    }

    /// Stops the runtime: every in-flight call resolves (workers finish
    /// the run they are executing and reservations still being served
    /// complete; clients block per call, so a quiesced application has
    /// nothing buffered), joins every owned thread, folds the maintenance
    /// report into the final metrics, and reassembles the [`Database`]
    /// from the workers' shards.
    ///
    /// Outstanding [`Client`] handles stay valid as objects but their
    /// subsequent [`Client::call`]s return `Err`; calls racing the
    /// shutdown either complete normally or fail cleanly — they never
    /// hang. Panics if a worker or the maintenance thread panicked.
    pub fn shutdown(mut self) -> (RunMetrics, Database) {
        let (metrics, shards) = self.teardown().expect("LiveRuntime::shutdown called twice");
        (metrics, Database::from_shards(shards))
    }

    /// Shared teardown for [`LiveRuntime::shutdown`] and `Drop`. `None` if
    /// the runtime was already torn down. A panicked worker or maintenance
    /// thread re-raises here — unless this teardown itself runs during an
    /// unwind (`Drop` while panicking), where a second panic would abort
    /// the process and mask the original error.
    fn teardown(&mut self) -> Option<(RunMetrics, Vec<Shard>)> {
        let running = self.running.take()?;
        // Snapshotter first: a fence racing shutdown would wait on worker
        // completions that will never come.
        if let Some((stop, handle)) = running.snapshotter {
            // ordering: Relaxed — the unpark and join below synchronize
            // the thread's exit; the flag only requests it.
            stop.store(1, Ordering::Relaxed);
            handle.thread().unpark();
            let _ = handle.join();
        }
        // Workers next: each finishes its current run (and resolves any
        // open speculation window) before observing the sentinel, so
        // in-flight transactions complete and their feedback records get
        // a chance to precede the Stop below. Calls still buffered in a
        // lane when its worker exits fail cleanly (see [`fail_lanes`]).
        for gate in &self.shared.workers {
            gate.send_ctrl(CtrlMsg::Shutdown);
        }
        let mut thread_panic: Option<Box<dyn std::any::Any + Send>> = None;
        let mut shards: Vec<Shard> = Vec::with_capacity(running.workers.len());
        for h in running.workers {
            match h.join() {
                Ok(shard) => shards.push(shard),
                Err(p) => thread_panic = Some(p),
            }
        }
        // Flusher after the workers: their shutdown-path group closes are
        // already queued ahead of the Stop, so every held ack drains and
        // flushes before the join; the final flush_all makes any buffered
        // shutdown stragglers durable too.
        if let Some(h) = running.flusher {
            if let Some(d) = &self.shared.durable {
                let _ = d.flusher.send(FlushJob::Stop);
            }
            match h.join() {
                Ok(()) => {}
                Err(p) => thread_panic = Some(p),
            }
            if let Some(d) = &self.shared.durable {
                d.logs.flush_all();
            }
        }
        // Pin the measurement window at drain completion: every accepted
        // transaction has finished once the workers join. Charging the
        // maintenance join below (which can lag far behind on a deep
        // feedback backlog) to `window_us` would deflate `throughput_tps`
        // for work that finished long before.
        let window_us = self.shared.started.elapsed().as_secs_f64() * 1e6;
        let maint_report = running.maintenance.and_then(|h| {
            // The explicit Stop ends the maintenance thread even while
            // Client handles (each holding the channel open through
            // `Shared`) are still alive somewhere in the application. A
            // failed send means the thread is already gone; join tells.
            if let Some(tx) = &self.shared.fb_tx {
                let _ = tx.send(FeedbackMsg::Stop);
            }
            match h.join() {
                Ok(report) => Some(report),
                Err(p) => {
                    thread_panic = Some(p);
                    None
                }
            }
        });
        if let Some(p) = thread_panic {
            // Re-raise a worker/maintainer panic — but never on top of an
            // unwind already in progress (that would abort).
            if !std::thread::panicking() {
                std::panic::resume_unwind(p);
            }
        }
        let mut metrics =
            self.shared.metrics.lock().unwrap_or_else(PoisonError::into_inner).clone();
        if let Some(report) = maint_report {
            metrics.absorb_maintenance(&report);
        }
        metrics.window_us = window_us;
        let (ft, fc) = self.shared.seq.counters();
        metrics.flushes_total = ft;
        metrics.flushes_coalesced = fc;
        absorb_durability(&mut metrics, self.shared.durable.as_ref());
        Some((metrics, shards))
    }
}

/// Folds the durability subsystem's counters into a metrics snapshot.
fn absorb_durability<S>(m: &mut RunMetrics, durable: Option<&Durable<S>>) {
    let Some(d) = durable else { return };
    let (records, bytes) = d.logs.counters();
    m.log_records = records;
    m.log_bytes_written = bytes;
    // ordering: Relaxed — metrics-only counter.
    m.snapshots_taken = d.snapshots_taken.load(Ordering::Relaxed);
    m.recovery_ms = d.recovery_ms;
}

impl<A: LiveAdvisor + 'static> Drop for LiveRuntime<A> {
    /// Best-effort teardown for runtimes dropped without
    /// [`LiveRuntime::shutdown`]: stops and joins every owned thread
    /// (worker panics propagate), discarding metrics and database.
    fn drop(&mut self) {
        let _ = self.teardown();
    }
}

/// Runs the live runtime as a closed-loop benchmark: starts a
/// [`LiveRuntime`], spawns `clients_per_partition × num_partitions`
/// closed-loop client threads, drives every generator stream dry
/// (`requests_per_client` each), then shuts down and returns the final
/// metrics plus the reassembled database. A thin wrapper over the handle
/// API, preserved for the exact sim↔live agreement tests and the closed-
/// loop experiments.
///
/// `make_gen` builds the independent request generator for one client
/// stream (see `workloads::Bench::client_generator`). To keep using the
/// advisor (or share it across runs), pass an `Arc<A>` — the blanket
/// `LiveAdvisor for Arc<A>` impl delegates.
///
/// Errors only on an unrecoverable abort (mirroring
/// [`crate::Simulation::run`]); the database is consumed either way since
/// partially-failed clusters are not reassembled.
pub fn run_live<A: LiveAdvisor + 'static>(
    db: Database,
    registry: ProcedureRegistry,
    advisor: A,
    make_gen: &(dyn Fn(u64) -> Box<dyn RequestGenerator + Send> + Sync),
    cfg: &LiveConfig,
) -> Result<(RunMetrics, Database)> {
    let clients = u64::from(db.num_partitions() * cfg.clients_per_partition);
    let requests = cfg.requests_per_client;
    let runtime = LiveRuntime::start(db, registry, advisor, cfg.clone());
    let mut failure: Option<Error> = None;
    let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                // Minted in order on this thread, so ids equal 0..clients
                // deterministically (they seed the per-client RNG streams).
                let mut client = runtime.client();
                s.spawn(move || -> Result<()> {
                    let mut gen = make_gen(c);
                    for _ in 0..requests {
                        let (proc, args) = gen.next_request(client.id());
                        client.call(proc, args)?;
                    }
                    Ok(())
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => failure = Some(e),
                // Deferred: the runtime must shut down its workers first,
                // or unwinding here would leak parked threads.
                Err(p) => panic = Some(p),
            }
        }
    });
    let (metrics, db) = runtime.shutdown();
    if let Some(p) = panic {
        std::panic::resume_unwind(p);
    }
    match failure {
        None => Ok((metrics, db)),
        Some(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{AssumeDistributed, AssumeSinglePartition};
    use crate::procedure::testing::{kv_database, kv_registry};

    /// Generator issuing MultiGet over ids that map to `spread` partitions
    /// (the live twin of the simulator's test generator).
    struct KvGen {
        spread: u32,
        parts: u32,
        client: u64,
        counter: u64,
    }

    impl RequestGenerator for KvGen {
        fn next_request(&mut self, _client: u64) -> (ProcId, Vec<Value>) {
            self.counter += 1;
            let start = (self.client * 13 + self.counter * 7) % u64::from(self.parts);
            let ids: Vec<Value> = (0..self.spread)
                .map(|k| Value::Int(((start + u64::from(k)) % u64::from(self.parts)) as i64))
                .collect();
            (0, vec![Value::Array(ids)])
        }
    }

    fn live_run<A: LiveAdvisor + 'static>(
        advisor: A,
        spread: u32,
        parts: u32,
        cfg: &LiveConfig,
    ) -> (RunMetrics, Database) {
        let db = kv_database(parts, 8);
        let reg = kv_registry();
        run_live(
            db,
            reg,
            advisor,
            &move |client| {
                Box::new(KvGen { spread, parts, client, counter: 0 })
                    as Box<dyn RequestGenerator + Send>
            },
            cfg,
        )
        .expect("no halts")
    }

    fn sum_vals(db: &Database, parts: u32) -> i64 {
        (0..parts)
            .map(|p| db.table(p, 0).iter().map(|(_, row)| row[2].expect_int()).sum::<i64>())
            .sum()
    }

    #[test]
    fn lock_all_commits_everything_without_restarts() {
        let cfg = LiveConfig { requests_per_client: 40, ..Default::default() };
        let advisor = AssumeDistributed::new();
        let (m, db) = live_run(advisor, 2, 4, &cfg);
        let total = u64::from(cfg.clients_per_partition) * 4 * cfg.requests_per_client;
        assert_eq!(m.committed + m.user_aborts, total);
        assert_eq!(m.restarts, 0);
        assert_eq!(m.user_aborts, 0, "all ids exist");
        assert_eq!(m.distributed, total, "lock-all is always distributed");
        // Every committed MultiGet bumps each of its 2 ids exactly once.
        assert_eq!(sum_vals(&db, 4), m.committed as i64 * 2);
        assert_eq!(db.total_rows(0), 32, "no rows created or lost");
    }

    #[test]
    fn assume_single_partition_restarts_and_stays_consistent() {
        let cfg = LiveConfig { requests_per_client: 40, ..Default::default() };
        let advisor = AssumeSinglePartition::new();
        let (m, db) = live_run(advisor, 2, 4, &cfg);
        let total = u64::from(cfg.clients_per_partition) * 4 * cfg.requests_per_client;
        assert_eq!(m.committed + m.user_aborts, total);
        assert!(m.restarts > 0, "spread-2 work must trigger mispredicts");
        assert_eq!(sum_vals(&db, 4), m.committed as i64 * 2);
    }

    #[test]
    fn single_partition_fast_path_has_no_lock_contention() {
        // spread 1 + redirect-on-miss: after the first mispredict the plan
        // is exact, so most work runs on the lock-free fast path.
        let cfg = LiveConfig { requests_per_client: 50, ..Default::default() };
        let advisor = AssumeSinglePartition::new();
        let (m, db) = live_run(advisor, 1, 4, &cfg);
        assert!(m.single_partition > 0);
        assert_eq!(sum_vals(&db, 4), m.committed as i64);
    }

    #[test]
    fn latency_histogram_is_populated() {
        let cfg = LiveConfig { requests_per_client: 20, ..Default::default() };
        let advisor = AssumeDistributed::new();
        let (m, _) = live_run(advisor, 1, 2, &cfg);
        assert_eq!(m.latency.count(), m.committed);
        assert!(m.mean_latency_ms().is_some());
        assert!(m.latency.p50_ms().unwrap() <= m.latency.p99_ms().unwrap());
        assert!(m.throughput_tps() > 0.0);
    }

    /// Sorted `(key, row)` snapshot of one table slice, for byte-identical
    /// state comparisons across a speculation window.
    fn table_snapshot(shard: &Shard, table: usize) -> Vec<(Vec<Value>, Row)> {
        let mut rows: Vec<(Vec<Value>, Row)> =
            shard.table(table).iter().map(|(k, r)| (k.clone(), r.clone())).collect();
        rows.sort();
        rows
    }

    /// A one-gate `Shared` for hand-driven protocol tests: the test drives
    /// worker 0's control channel, lanes, and fragment lanes directly; the
    /// lock manager and feedback plumbing stay unused.
    fn test_env(
        num_partitions: u32,
        commit_flush: Duration,
    ) -> (Shared<AssumeSinglePartition>, Receiver<CtrlMsg<()>>) {
        let reg = kv_registry();
        let (ctrl_tx, ctrl_rx) = channel::<CtrlMsg<()>>();
        let env = Shared {
            catalog: reg.catalog(),
            registry: reg,
            advisor: AssumeSinglePartition::new(),
            cfg: LiveConfig::default(),
            num_partitions,
            commit_flush,
            msg_delay: Duration::ZERO,
            workers: vec![WorkerGate { ctrl: ctrl_tx, bell: Doorbell::new() }],
            locks: LockManager::new(num_partitions),
            seq: FlushSequencer::new(),
            device: Arc::new(SimulatedDevice(commit_flush)),
            metrics: Mutex::new(RunMetrics::default()),
            fb_tx: None,
            next_client: AtomicU64::new(0),
            started: Instant::now(),
            durable: None,
        };
        (env, ctrl_rx)
    }

    /// Waits for worker 0's answer on the test coordinator's fragment lane
    /// (registered by its first [`push_frag`]).
    fn frag_reply(ports: &[Option<FragPort>]) -> FragReply {
        let port = ports[0].as_ref().expect("fragment lane registered");
        port.replies.take_within(Duration::from_secs(30)).expect("fragment reply")
    }

    /// The per-query result rows of an [`FragReply::Batch`].
    fn batch_rows(reply: FragReply) -> Vec<Vec<Row>> {
        let FragReply::Batch(items) = reply else { panic!("expected a Batch reply") };
        items
            .into_iter()
            .map(|item| match item {
                BatchItem::Rows(rows) => rows,
                BatchItem::Constraint(msg) => panic!("constraint: {msg}"),
            })
            .collect()
    }

    /// Hand-drives the worker protocol through one speculation window on
    /// a fragment lane: fragment → early prepare → speculative single →
    /// 2PC outcome. `Some(commit)` delivers the outcome on the control
    /// channel as a coordinator does; `None` kills the coordinator with
    /// the window open (its lane producer drops, and the closed-lane
    /// watchdog resolves the window as an abort, with no reply).
    /// Deterministic: the worker drains ctrl then sweeps lanes each round;
    /// with `expect_deferred` the deferral assertion doubles as the
    /// processed-before-outcome sync (non-conflicting replies instead
    /// arrive before the outcome is even sent). The lane producers live
    /// inside the scope so a failed assertion disconnects the worker
    /// rather than deadlocking the join. Returns (reply, post snapshot,
    /// pre snapshot).
    #[allow(clippy::type_complexity)]
    fn drive_speculation(
        outcome: Option<bool>,
        spec_args: Vec<Value>,
        expect_deferred: bool,
    ) -> (SingleReply<()>, Vec<(Vec<Value>, Row)>, Vec<(Vec<Value>, Row)>) {
        let (env, ctrl_rx) = test_env(2, Duration::ZERO);
        let mut shards = kv_database(2, 8).into_shards();
        shards.truncate(1); // partition 0's worker only
        let shard = shards.pop().unwrap();
        let before = table_snapshot(&shard, 0);
        let (shard, reply) = std::thread::scope(|s| {
            let env = &env;
            let h = s.spawn(move || worker_loop::<AssumeSinglePartition>(shard, &ctrl_rx, env, 0));
            // Run one write fragment of a "distributed" transaction on
            // partition 0: bump id 0 by 10.
            let mut ports: Vec<Option<FragPort>> = vec![None];
            let bump = vec![(1, vec![Value::Int(0), Value::Int(10)])];
            push_frag(&mut ports, &env.workers, 0, FragCmd::ExecBatch { proc: 0, queries: bump })
                .unwrap();
            let rows = batch_rows(frag_reply(&ports));
            assert!(rows.len() == 1 && rows[0].len() == 1, "one bumped row");
            // Early prepare: unacknowledged; the worker is parked on the
            // fragment lane, so the window opens before it observes any
            // lane or ctrl message sent afterwards.
            push_frag(&mut ports, &env.workers, 0, FragCmd::Prepare { speculate: true }).unwrap();
            // A single-partition transaction arrives mid-window on a fresh
            // lane. Its plan asks for OP3 (disable_undo) — speculation must
            // override it.
            let (mut ltx, lrx) = ring::spsc::<SingleMsg<()>>(LANE_CAPACITY);
            assert!(env.workers[0].send_ctrl(CtrlMsg::Lane(lrx)));
            let slot = Arc::new(ReplySlot::new());
            let plan = TxnPlan {
                base_partition: 0,
                lock_set: PartitionSet::single(0),
                disable_undo: true,
                early_prepare: false,
                estimate_cost_us: 0.0,
            };
            assert!(ltx
                .push(SingleMsg {
                    req: Request { proc: 0, args: spec_args, origin_node: 0 },
                    plan,
                    session: (),
                    reply: Arc::clone(&slot),
                    enqueued: Instant::now(),
                })
                .is_ok());
            env.workers[0].bell.ring();
            let mut send_outcome = || match outcome {
                Some(commit) => {
                    assert!(env.workers[0].send_ctrl(CtrlMsg::SpecFinish { commit }));
                    assert!(matches!(frag_reply(&ports), FragReply::Finished));
                }
                None => ports[0] = None,
            };
            let reply = if expect_deferred {
                // The acknowledgement must wait for the outcome.
                assert!(
                    slot.take_within(Duration::from_millis(200)).is_none(),
                    "conflicting speculative ack leaked before the 2PC outcome"
                );
                send_outcome();
                slot.take_within(Duration::from_secs(30)).expect("deferred ack")
            } else {
                // Non-conflicting: acknowledged before any outcome exists.
                let reply = slot.take_within(Duration::from_secs(30)).expect("immediate ack");
                send_outcome();
                reply
            };
            assert!(env.workers[0].send_ctrl(CtrlMsg::Shutdown));
            (h.join().unwrap(), reply)
        });
        (reply, table_snapshot(&shard, 0), before)
    }

    #[test]
    fn speculative_commit_defers_ack_and_keeps_undo_despite_op3() {
        // MultiGet over id 0 (lives at partition 0 of 2): writes a table
        // the fragment wrote, so it executes speculatively inside the
        // window, commits, and its ack is deferred.
        let (reply, after, before) =
            drive_speculation(Some(true), vec![Value::Array(vec![Value::Int(0)])], true);
        match reply {
            SingleReply::Done { committed, speculative, undo_disabled_ever, .. } => {
                assert!(committed);
                assert!(speculative, "executed inside the window");
                assert!(!undo_disabled_ever, "OP3 must be ignored while speculating (§4.3)");
            }
            _ => panic!("expected a deferred Done"),
        }
        assert_ne!(after, before, "fragment + speculative bump are final");
        // id 0: +10 from the fragment, +1 from the speculative MultiGet.
        let id0 = after.iter().find(|(k, _)| k[0] == Value::Int(0)).unwrap();
        assert_eq!(id0.1[2], Value::Int(11));
    }

    #[test]
    fn coordinator_abort_cascades_and_restores_shard_state() {
        let (reply, after, before) =
            drive_speculation(Some(false), vec![Value::Array(vec![Value::Int(0)])], true);
        assert!(
            matches!(reply, SingleReply::Cascaded { .. }),
            "cascaded speculative txn must be told to retry"
        );
        assert_eq!(after, before, "cascading rollback must restore the shard byte-for-byte");
    }

    #[test]
    fn coordinator_death_mid_window_cascades_and_restores_shard_state() {
        // The coordinator's lane closes with the window open and no
        // outcome sent: the watchdog must resolve the window as an abort.
        let (reply, after, before) =
            drive_speculation(None, vec![Value::Array(vec![Value::Int(0)])], true);
        assert!(
            matches!(reply, SingleReply::Cascaded { .. }),
            "a dead coordinator's window must cascade its speculative txn"
        );
        assert_eq!(after, before, "cascading rollback must restore the shard byte-for-byte");
    }

    #[test]
    fn non_conflicting_mispredict_acks_before_the_outcome() {
        // id 1 lives at partition 1: the speculative plan (lock partition 0
        // only) mispredicts before touching storage — nothing contingent
        // was read, so the reply is delivered without waiting for 2PC.
        let (reply, after, before) =
            drive_speculation(Some(true), vec![Value::Array(vec![Value::Int(1)])], false);
        match reply {
            SingleReply::Mispredict { observed, .. } => {
                assert_eq!(observed, PartitionSet::single(1));
            }
            _ => panic!("expected an immediate Mispredict"),
        }
        // Only the committed fragment's bump remains.
        let id0 = after.iter().find(|(k, _)| k[0] == Value::Int(0)).unwrap();
        assert_eq!(id0.1[2], Value::Int(10));
        assert_eq!(after.len(), before.len());
    }

    #[test]
    fn non_conflicting_commit_acks_before_the_outcome() {
        // A MultiGet over no ids reads and writes nothing: a degenerate
        // read-only transaction, acknowledged mid-window (paper §2 OP4's
        // non-conflicting case), surviving even an eventual cascade.
        let (reply, after, before) =
            drive_speculation(Some(false), vec![Value::Array(vec![])], false);
        match reply {
            SingleReply::Done { committed, speculative, .. } => {
                assert!(committed);
                assert!(speculative);
            }
            _ => panic!("expected an immediate Done"),
        }
        assert_eq!(after, before, "abort outcome cascades only the fragment");
    }

    #[test]
    fn lock_guard_release_early_frees_the_slot() {
        let mgr = LockManager::new(2);
        let mut guard = mgr.guard(PartitionSet::from_iter([0u32, 1]));
        guard.release_early(0);
        // Partition 0 is grantable again while 1 stays held.
        std::thread::scope(|s| {
            let h = s.spawn(|| {
                mgr.acquire(PartitionSet::single(0));
                mgr.release(PartitionSet::single(0));
            });
            h.join().expect("early-released slot must be grantable");
        });
        let held = guard.set;
        assert_eq!(held, PartitionSet::single(1));
    }

    #[test]
    fn commit_flush_serializes_partitions_not_the_cluster() {
        // With a real flush delay, doubling the workers roughly doubles
        // throughput for single-partition work even on one core — the
        // flushes overlap. Keep the margin loose: CI machines are noisy.
        let mk = |parts: u32| {
            let cfg = LiveConfig {
                requests_per_client: 60,
                commit_flush_us: 200,
                clients_per_partition: 2,
                ..Default::default()
            };
            let advisor = AssumeDistributed::new();
            let (m, _) = live_run(advisor, 1, parts, &cfg);
            m.throughput_tps()
        };
        // Lock-all cannot overlap flushes (every commit holds all
        // partitions), so this measures the serialized baseline...
        let serialized = mk(2);
        // ...while the single-partition fast path overlaps them.
        let cfg = LiveConfig {
            requests_per_client: 60,
            commit_flush_us: 200,
            clients_per_partition: 2,
            ..Default::default()
        };
        let advisor = AssumeSinglePartition::new();
        let (m, _) = live_run(advisor, 1, 2, &cfg);
        assert!(
            m.throughput_tps() > serialized,
            "fast path {} <= lock-all {}",
            m.throughput_tps(),
            serialized
        );
    }

    /// Runs one worker over the same six-message sequence — three bump
    /// singles, a distributed transaction whose fragment reads the bumped
    /// row, then two more singles — and returns (reply shapes in send
    /// order, the row value the fragment observed, final table snapshot).
    /// With `batched` the lane, its three singles, and the fragment lane
    /// with the transaction's opening batch are buffered before the worker
    /// thread starts, so the sequence is served out of backlog drains: one
    /// group flush and group ack ahead of the fragment. Without it each
    /// call waits for its reply before the next is sent — the
    /// one-message-at-a-time schedule batching must be indistinguishable
    /// from.
    #[allow(clippy::type_complexity)]
    fn drive_batched_drain(batched: bool) -> (Vec<(bool, bool)>, i64, Vec<(Vec<Value>, Row)>) {
        let (env, ctrl_rx) = test_env(1, Duration::from_micros(100));
        let shard = kv_database(1, 8).into_shards().pop().unwrap();
        let single_plan = TxnPlan {
            base_partition: 0,
            lock_set: PartitionSet::single(0),
            disable_undo: false,
            early_prepare: false,
            estimate_cost_us: 0.0,
        };
        let mk_single = |reply: &Arc<SingleSlot<()>>| SingleMsg {
            req: Request { proc: 0, args: vec![Value::Array(vec![Value::Int(0)])], origin_node: 0 },
            plan: single_plan,
            session: (),
            reply: Arc::clone(reply),
            enqueued: Instant::now(),
        };
        let read = || FragCmd::ExecBatch { proc: 0, queries: vec![(0, vec![Value::Int(0)])] };
        let mut replies = Vec::new();
        let mut ports: Vec<Option<FragPort>> = vec![None];
        let (shard, observed) = std::thread::scope(|s| {
            let env = &env;
            let (mut ltx, lrx) = ring::spsc::<SingleMsg<()>>(LANE_CAPACITY);
            let done_shape = |reply| match reply {
                SingleReply::Done { committed, speculative, .. } => (committed, speculative),
                _ => panic!("expected Done"),
            };
            let take = |slot: &Arc<SingleSlot<()>>| {
                done_shape(slot.take_within(Duration::from_secs(30)).expect("single ack"))
            };
            let serve_single = |ltx: &mut ring::Producer<SingleMsg<()>>| {
                let slot = Arc::new(ReplySlot::new());
                assert!(ltx.push(mk_single(&slot)).is_ok());
                env.workers[0].bell.ring();
                take(&slot)
            };
            let commit = |ports: &mut [Option<FragPort>]| {
                push_frag(ports, &env.workers, 0, FragCmd::VoteFinish { commit: true }).unwrap();
                assert!(matches!(frag_reply(ports), FragReply::Finished));
            };
            let (h, observed) = if batched {
                // Everything below is buffered before the worker starts:
                // its first ctrl drain registers both lanes, and the lane
                // sweep picks the three singles up as one group —
                // executed, flushed, and acknowledged ahead of the
                // fragment.
                assert!(env.workers[0].send_ctrl(CtrlMsg::Lane(lrx)));
                let mut slots = Vec::new();
                for _ in 0..3 {
                    let slot = Arc::new(ReplySlot::new());
                    assert!(ltx.push(mk_single(&slot)).is_ok());
                    slots.push(slot);
                }
                push_frag(&mut ports, &env.workers, 0, read()).unwrap();
                let h =
                    s.spawn(move || worker_loop::<AssumeSinglePartition>(shard, &ctrl_rx, env, 0));
                let observed = batch_rows(frag_reply(&ports))[0][0][2].expect_int();
                commit(&mut ports);
                for slot in &slots {
                    replies.push(take(slot));
                }
                (h, observed)
            } else {
                let h =
                    s.spawn(move || worker_loop::<AssumeSinglePartition>(shard, &ctrl_rx, env, 0));
                assert!(env.workers[0].send_ctrl(CtrlMsg::Lane(lrx)));
                for _ in 0..3 {
                    replies.push(serve_single(&mut ltx));
                }
                push_frag(&mut ports, &env.workers, 0, read()).unwrap();
                let observed = batch_rows(frag_reply(&ports))[0][0][2].expect_int();
                commit(&mut ports);
                (h, observed)
            };
            // The trailing pair goes out only once the distributed
            // transaction has resolved: under lane dispatch an earlier
            // push could race into the first group.
            for _ in 0..2 {
                replies.push(serve_single(&mut ltx));
            }
            assert!(env.workers[0].send_ctrl(CtrlMsg::Shutdown));
            (h.join().unwrap(), observed)
        });
        (replies, observed, table_snapshot(&shard, 0))
    }

    #[test]
    fn batched_drain_matches_one_at_a_time() {
        let (batched, b_obs, b_state) = drive_batched_drain(true);
        let (serial, s_obs, s_state) = drive_batched_drain(false);
        assert_eq!(batched, serial, "per-client replies must match in order and content");
        // The fragment closed the group: all three prior bumps were
        // committed, flushed, and acknowledged before it ran.
        assert_eq!(b_obs, 3, "fragment must observe every earlier queued commit");
        assert_eq!(s_obs, 3);
        assert_eq!(b_state, s_state, "final shard state must be byte-identical");
        let id0 = b_state.iter().find(|(k, _)| k[0] == Value::Int(0)).unwrap();
        assert_eq!(id0.1[2], Value::Int(5), "all five bumps are durable");
    }

    /// Runs one worker over the same four-query fragment script — bump id
    /// 0 by 7, read it back, bump a missing id (zero rows), read id 3 —
    /// then commits via `VoteFinish`. With `batched` the script ships as
    /// one [`FragCmd::ExecBatch`]; without it each query ships as its own
    /// single-query batch, one round trip each. Returns (per-query result
    /// rows in script order, final table snapshot) — batching must be
    /// indistinguishable from the one-command-at-a-time schedule.
    #[allow(clippy::type_complexity)]
    fn drive_fragment_script(batched: bool) -> (Vec<Vec<Row>>, Vec<(Vec<Value>, Row)>) {
        let (env, ctrl_rx) = test_env(1, Duration::ZERO);
        let shard = kv_database(1, 8).into_shards().pop().unwrap();
        let script: Vec<(QueryId, Vec<Value>)> = vec![
            (1, vec![Value::Int(0), Value::Int(7)]),
            (0, vec![Value::Int(0)]),
            (1, vec![Value::Int(99), Value::Int(1)]),
            (0, vec![Value::Int(3)]),
        ];
        let mut rows_out: Vec<Vec<Row>> = Vec::new();
        let shard = std::thread::scope(|s| {
            let env = &env;
            let h = s.spawn(move || worker_loop::<AssumeSinglePartition>(shard, &ctrl_rx, env, 0));
            let mut ports: Vec<Option<FragPort>> = vec![None];
            let mut ship = |cmd: FragCmd| {
                push_frag(&mut ports, &env.workers, 0, cmd).unwrap();
                frag_reply(&ports)
            };
            if batched {
                rows_out = batch_rows(ship(FragCmd::ExecBatch { proc: 0, queries: script }));
            } else {
                for q in script {
                    rows_out
                        .extend(batch_rows(ship(FragCmd::ExecBatch { proc: 0, queries: vec![q] })));
                }
            }
            assert!(matches!(ship(FragCmd::VoteFinish { commit: true }), FragReply::Finished));
            assert!(env.workers[0].send_ctrl(CtrlMsg::Shutdown));
            h.join().unwrap()
        });
        (rows_out, table_snapshot(&shard, 0))
    }

    #[test]
    fn fragment_batching_matches_per_query_commands() {
        let (batch_rows, batch_state) = drive_fragment_script(true);
        let (serial_rows, serial_state) = drive_fragment_script(false);
        assert_eq!(batch_rows, serial_rows, "per-query results must match in order and content");
        assert_eq!(batch_state, serial_state, "final shard state must be byte-identical");
        // Shape sanity: the bump returned the updated row, the read saw
        // it, the missing id affected nothing, the last read hit id 3.
        assert_eq!(batch_rows.len(), 4);
        assert_eq!(batch_rows[0][0][2], Value::Int(7));
        assert_eq!(batch_rows[1][0][2], Value::Int(7));
        assert!(batch_rows[2].is_empty(), "missing id must affect zero rows");
        assert_eq!(batch_rows[3][0][0], Value::Int(3));
        let id0 = batch_state.iter().find(|(k, _)| k[0] == Value::Int(0)).unwrap();
        assert_eq!(id0.1[2], Value::Int(7), "committed bump is durable");
    }

    #[test]
    fn disjoint_lock_sets_do_not_serialize() {
        let mgr = LockManager::new(4);
        mgr.acquire(PartitionSet::from_iter([0u32, 1]));
        // A disjoint set is grantable while {0,1} is held — the sharded
        // manager must not serialize them on one mutex.
        std::thread::scope(|s| {
            s.spawn(|| {
                mgr.acquire(PartitionSet::from_iter([2u32, 3]));
                mgr.release(PartitionSet::from_iter([2u32, 3]));
            })
            .join()
            .expect("disjoint shards must not serialize");
        });
        // An overlapping set still excludes until the holder releases.
        let (tx, rx) = channel();
        std::thread::scope(|s| {
            let mgr = &mgr;
            s.spawn(move || {
                mgr.acquire(PartitionSet::from_iter([1u32, 2]));
                tx.send(()).unwrap();
                mgr.release(PartitionSet::from_iter([1u32, 2]));
            });
            assert!(
                rx.recv_timeout(Duration::from_millis(100)).is_err(),
                "overlapping set acquired while partition 1 was held"
            );
            mgr.release(PartitionSet::from_iter([0u32, 1]));
            rx.recv_timeout(Duration::from_secs(30)).expect("blocked acquirer must wake");
        });
    }

    /// Plans `{0, 1}` for every request regardless of its true target, so
    /// work on partition 2 mispredicts on every attempt until the forced
    /// lock-all fallback.
    struct WrongLockSet;

    impl LiveAdvisor for WrongLockSet {
        type Session = ();

        fn name(&self) -> &str {
            "wrong-lock-set"
        }

        fn plan_live(&self, _req: &Request, _ctx: &PlanContext<'_>) -> (TxnPlan, ()) {
            (
                TxnPlan {
                    base_partition: 0,
                    lock_set: PartitionSet::from_iter([0u32, 1]),
                    disable_undo: false,
                    early_prepare: false,
                    estimate_cost_us: 0.0,
                },
                (),
            )
        }

        fn replan_live(
            &self,
            req: &Request,
            _observed: PartitionSet,
            _attempt: u32,
            ctx: &PlanContext<'_>,
        ) -> (TxnPlan, ()) {
            self.plan_live(req, ctx)
        }
    }

    #[test]
    fn lock_hold_recorded_on_mispredict_and_commit_releases() {
        // MultiGet over id 2 (partition 2 of 4) under a {0,1} plan: three
        // mispredicted attempts (max_restarts = 2) each release two held
        // partitions without reaching a commit, then the lock-all fallback
        // commits holding four. Before the fix only the commit path
        // recorded, so exactly the contended attempts went missing.
        let rt = LiveRuntime::start(
            kv_database(4, 8),
            kv_registry(),
            WrongLockSet,
            LiveConfig::default(),
        );
        let mut client = rt.client();
        let outcome = client.call(0, vec![Value::Array(vec![Value::Int(2)])]).unwrap();
        assert!(matches!(outcome, TxnOutcome::Committed));
        let (m, _) = rt.shutdown();
        assert_eq!(m.restarts, 3);
        assert_eq!(
            m.lock_hold.count(),
            3 * 2 + 4,
            "every release path must record one sample per held partition"
        );
    }

    /// Single-partition advisor whose maintainer sleeps per record,
    /// building a feedback backlog that drains long after the workers
    /// finish.
    struct SlowMaintained;

    impl LiveAdvisor for SlowMaintained {
        type Session = ();

        fn name(&self) -> &str {
            "slow-maintained"
        }

        fn plan_live(&self, _req: &Request, ctx: &PlanContext<'_>) -> (TxnPlan, ()) {
            (TxnPlan::single(ctx.random_local_partition), ())
        }

        fn replan_live(
            &self,
            _req: &Request,
            _observed: PartitionSet,
            _attempt: u32,
            ctx: &PlanContext<'_>,
        ) -> (TxnPlan, ()) {
            (TxnPlan::lock_all(ctx.random_local_partition, ctx.num_partitions), ())
        }

        fn on_end_live(&self, _session: (), _outcome: TxnOutcome) -> Option<TxnFeedback> {
            Some(TxnFeedback {
                proc: 0,
                model: 0,
                epoch: 0,
                path: Vec::new(),
                terminal: Some(true),
                deviated: false,
                predicted: PartitionSet::single(0),
            })
        }

        fn maintainer(&self) -> Option<Box<dyn LiveMaintainer + '_>> {
            Some(Box::new(SleepyMaintainer { seen: 0 }))
        }
    }

    struct SleepyMaintainer {
        seen: u64,
    }

    impl LiveMaintainer for SleepyMaintainer {
        fn absorb(&mut self, _fb: TxnFeedback) {
            self.seen += 1;
            std::thread::sleep(Duration::from_millis(2));
        }

        fn report(&self) -> MaintenanceReport {
            MaintenanceReport { feedback_records: self.seen, ..Default::default() }
        }
    }

    #[test]
    fn window_pins_at_drain_completion_not_maintenance_join() {
        let rt = LiveRuntime::start(
            kv_database(1, 8),
            kv_registry(),
            SlowMaintained,
            LiveConfig::default(),
        );
        let mut client = rt.client();
        for _ in 0..100 {
            client.call(0, vec![Value::Array(vec![Value::Int(0)])]).unwrap();
        }
        let mid = rt.metrics();
        let t_shutdown = Instant::now();
        let (fin, _) = rt.shutdown();
        let shutdown_ms = t_shutdown.elapsed().as_secs_f64() * 1e3;
        assert_eq!(fin.feedback_records + fin.feedback_dropped, 100);
        assert!(
            shutdown_ms >= 50.0,
            "expected a maintenance backlog to drain; took {shutdown_ms:.1} ms"
        );
        // The final window must exclude the maintenance drain: it may
        // exceed the mid-run snapshot only by the (fast) worker join.
        assert!(
            fin.window_us <= mid.window_us + 50_000.0,
            "teardown leaked into the window: final {} µs vs mid {} µs",
            fin.window_us,
            mid.window_us
        );
        // Closed-loop throughput stays consistent across the snapshots
        // (same committed count, near-identical window).
        assert!(
            fin.throughput_tps() >= mid.throughput_tps() * 0.5,
            "final tps {:.0} collapsed vs mid-run tps {:.0}",
            fin.throughput_tps(),
            mid.throughput_tps()
        );
    }

    /// Advisor that offers a maintainer to the start-time probe, then
    /// withdraws it when the maintenance thread asks again — the contract
    /// violation the maintenance loop must survive (regression: this used
    /// to panic the maintenance thread, turning shutdown into a join on a
    /// panicked thread).
    struct WithdrawnMaintainer {
        probed: std::sync::atomic::AtomicBool,
    }

    impl LiveAdvisor for WithdrawnMaintainer {
        type Session = ();

        fn name(&self) -> &str {
            "withdrawn-maintainer"
        }

        fn plan_live(&self, _req: &Request, ctx: &PlanContext<'_>) -> (TxnPlan, ()) {
            (TxnPlan::single(ctx.random_local_partition), ())
        }

        fn replan_live(
            &self,
            _req: &Request,
            _observed: PartitionSet,
            _attempt: u32,
            ctx: &PlanContext<'_>,
        ) -> (TxnPlan, ()) {
            (TxnPlan::lock_all(ctx.random_local_partition, ctx.num_partitions), ())
        }

        fn on_end_live(&self, _session: (), _outcome: TxnOutcome) -> Option<TxnFeedback> {
            Some(TxnFeedback {
                proc: 0,
                model: 0,
                epoch: 0,
                path: Vec::new(),
                terminal: Some(true),
                deviated: false,
                predicted: PartitionSet::single(0),
            })
        }

        fn maintainer(&self) -> Option<Box<dyn LiveMaintainer + '_>> {
            if self.probed.swap(true, std::sync::atomic::Ordering::SeqCst) {
                None
            } else {
                Some(Box::new(SleepyMaintainer { seen: 0 }))
            }
        }
    }

    #[test]
    fn maintenance_survives_withdrawn_maintainer() {
        let rt = LiveRuntime::start(
            kv_database(1, 8),
            kv_registry(),
            WithdrawnMaintainer { probed: std::sync::atomic::AtomicBool::new(false) },
            LiveConfig::default(),
        );
        let mut client = rt.client();
        for _ in 0..50 {
            client.call(0, vec![Value::Array(vec![Value::Int(0)])]).unwrap();
        }
        // Shutdown must join a *live* maintenance thread (it drained the
        // feedback instead of panicking) and fold in an all-zero report.
        let (fin, _) = rt.shutdown();
        assert_eq!(fin.committed, 50);
        assert_eq!(fin.feedback_records, 0, "no maintainer, so no absorbed records");
        assert_eq!(fin.model_swaps, 0);
    }

    #[test]
    fn live_profile_attributes_every_resolved_call() {
        let cfg = LiveConfig { requests_per_client: 40, ..Default::default() };
        let (m, _) = live_run(AssumeSinglePartition::new(), 2, 4, &cfg);
        let total = m.committed + m.user_aborts;
        assert_eq!(m.profile.total_txns(), total, "one profile record per resolved call");
        assert!(m.profile.grand_total_us() > 0.0);
        assert!(m.profile.overall_share(Bucket::Execution) > 0.0);
        assert_eq!(m.profile.overall_share(Bucket::Planning), 0.0, "live runtime never plans");
        assert!(
            m.profile.overall_share(Bucket::Coordination) > 0.0,
            "spread-2 work must coordinate"
        );
        let sum: f64 = Bucket::ALL.iter().map(|&b| m.profile.overall_share(b)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    /// Fresh (deleted) per-test durability directory under the system
    /// temp dir.
    fn durability_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("engine-dur-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Sorted `(key, row)` contents of table 0 on every partition — the
    /// byte-identical-state comparator for recovery tests.
    fn sorted_tables(db: &Database, parts: u32) -> Vec<Vec<(Vec<Value>, Row)>> {
        (0..parts)
            .map(|p| {
                let mut rows: Vec<(Vec<Value>, Row)> =
                    db.table(p, 0).iter().map(|(k, r)| (k.clone(), r.clone())).collect();
                rows.sort();
                rows
            })
            .collect()
    }

    #[test]
    fn durable_log_replay_reproduces_fast_path_state() {
        let dir = durability_dir("fast");
        let cfg = LiveConfig {
            requests_per_client: 30,
            durability: Some(DurabilityConfig::new(&dir)),
            ..Default::default()
        };
        let (m, db) = live_run(AssumeSinglePartition::new(), 1, 4, &cfg);
        assert!(m.log_records > 0, "committed writers must be command-logged");
        assert!(m.log_bytes_written > 0);
        assert_eq!(m.snapshots_taken, 0);
        // Replay the log against a pristine database: every committed
        // writer re-executes, reproducing the exact table contents.
        let (rt, report) = LiveRuntime::recover(
            kv_database(4, 8),
            kv_registry(),
            AssumeSinglePartition::new(),
            cfg,
        );
        let (m2, db2) = rt.shutdown();
        assert_eq!(report.replayed, m.committed);
        assert_eq!(report.skipped, 0, "clean shutdown leaves no undecided work");
        assert_eq!(report.snapshot_gen, None);
        assert!(m2.recovery_ms > 0.0, "recovery time must be reported");
        assert_eq!(sorted_tables(&db, 4), sorted_tables(&db2, 4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn strict_read_fence_serves_reads_and_replays_identically() {
        let dir = durability_dir("fence");
        let cfg = LiveConfig {
            durability: Some(DurabilityConfig::new(&dir).read_fence()),
            ..Default::default()
        };
        let rt = LiveRuntime::start(
            kv_database(2, 8),
            kv_registry(),
            AssumeSinglePartition::new(),
            cfg.clone(),
        );
        let mut client = rt.client();
        let (mut committed, mut aborted) = (0u64, 0u64);
        for i in 0..60i64 {
            // Alternate a committing write with a read-shaped call: a
            // missing id aborts before writing anything, so its reply
            // takes the read path — and under the strict fence must wait
            // out the covering flush whenever the preceding write's group
            // is still in the flusher's hands.
            let id = if i % 2 == 0 { i % 16 } else { 1_000 };
            match client.call(0, vec![Value::Array(vec![Value::Int(id)])]).unwrap() {
                TxnOutcome::Committed => committed += 1,
                TxnOutcome::UserAborted => aborted += 1,
                other => panic!("client calls resolve: {other:?}"),
            }
        }
        drop(client);
        let (m, db) = rt.shutdown();
        assert_eq!((committed, aborted), (30, 30));
        assert_eq!((m.committed, m.user_aborts), (30, 30));
        assert_eq!(m.log_records, 30, "only committed writers are logged");
        let (rt2, report) = LiveRuntime::recover(
            kv_database(2, 8),
            kv_registry(),
            AssumeSinglePartition::new(),
            cfg,
        );
        let (_, db2) = rt2.shutdown();
        assert_eq!(report.replayed, 30);
        assert_eq!(sorted_tables(&db, 2), sorted_tables(&db2, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_log_replay_reproduces_distributed_state() {
        let dir = durability_dir("dist");
        let cfg = LiveConfig {
            requests_per_client: 30,
            durability: Some(DurabilityConfig::new(&dir)),
            ..Default::default()
        };
        let (m, db) = live_run(AssumeDistributed::new(), 2, 4, &cfg);
        assert!(m.distributed > 0, "lock-all traffic is distributed");
        let (rt, report) =
            LiveRuntime::recover(kv_database(4, 8), kv_registry(), AssumeDistributed::new(), cfg);
        let (_, db2) = rt.shutdown();
        assert_eq!(report.replayed, m.committed, "each 2PC commit replays exactly once");
        assert_eq!(report.skipped, 0);
        assert_eq!(sorted_tables(&db, 4), sorted_tables(&db2, 4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_bounds_replay_and_recovery_matches() {
        let dir = durability_dir("snap");
        let cfg =
            LiveConfig { durability: Some(DurabilityConfig::new(&dir)), ..Default::default() };
        let rt = LiveRuntime::start(
            kv_database(4, 8),
            kv_registry(),
            AssumeSinglePartition::new(),
            cfg.clone(),
        );
        let mut client = rt.client();
        for i in 0..50i64 {
            client.call(0, vec![Value::Array(vec![Value::Int(i % 32)])]).unwrap();
        }
        let gen = rt.snapshot_now().expect("snapshot under live traffic pauses");
        for i in 0..40i64 {
            client.call(0, vec![Value::Array(vec![Value::Int((i * 3) % 32)])]).unwrap();
        }
        drop(client);
        let (m, db) = rt.shutdown();
        assert_eq!(m.committed, 90);
        assert_eq!(m.snapshots_taken, 1);
        let (rt2, report) = LiveRuntime::recover(
            kv_database(4, 8),
            kv_registry(),
            AssumeSinglePartition::new(),
            cfg,
        );
        let (_, db2) = rt2.shutdown();
        assert_eq!(report.snapshot_gen, Some(gen));
        assert_eq!(report.replayed, 40, "only post-snapshot commits replay");
        assert_eq!(sorted_tables(&db, 4), sorted_tables(&db2, 4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn background_snapshotter_publishes_generations() {
        let dir = durability_dir("bg-snap");
        let cfg = LiveConfig {
            durability: Some(DurabilityConfig::new(&dir).snapshot_every(Duration::from_millis(25))),
            ..Default::default()
        };
        let rt =
            LiveRuntime::start(kv_database(2, 8), kv_registry(), AssumeSinglePartition::new(), cfg);
        let mut client = rt.client();
        let t0 = Instant::now();
        let mut calls = 0u64;
        while t0.elapsed() < Duration::from_millis(120) {
            client.call(0, vec![Value::Array(vec![Value::Int((calls % 16) as i64)])]).unwrap();
            calls += 1;
        }
        drop(client);
        let (m, _) = rt.shutdown();
        assert_eq!(m.committed, calls);
        assert!(m.snapshots_taken >= 1, "25 ms cadence over 120 ms must snapshot");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
