//! Benchmark-side tracing: spans recorded around the calls the runtime
//! makes into the advisor and into stored-procedure control code, each
//! attributed to the client call that caused it.
//!
//! The wrappers here delegate every method to the wrapped advisor or
//! procedure, so the runtime behaves exactly as without them. A call is
//! traced when its client thread opens it with [`Tracer::begin_call`]:
//!
//! * advisor methods that run on the client thread find the call through
//!   a thread-local; sessions carry it to worker threads (`on_query_live`);
//! * procedure instances find it by the address of the call's argument
//!   vector, which the runtime moves into the request untouched and hands
//!   to `Procedure::instantiate`, on whichever thread executes it.
//!
//! Spans go to the calling client's slot and are taken back by that client
//! when the call returns, so memory stays bounded by one call's spans.

use crate::stats::{self_time, Interval};
use common::{PartitionSet, ProcId, Value};
use engine::{
    ExecutedQuery, LiveAdvisor, LiveMaintainer, PlanContext, ProcDef, ProcInstance, Procedure,
    ProcedureRegistry, Request, Step, TxnFeedback, TxnOutcome, TxnPlan, Updates,
};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;
use storage::Row;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `plan_live` / `plan_live_reusing`.
    Plan,
    /// `replan_live`.
    Replan,
    /// `on_query_live`.
    OnQuery,
    /// `end_live_reclaim` / `on_end_live`.
    End,
    /// `Procedure::instantiate`: one execution attempt.
    Instantiate,
    /// `ProcInstance::next`: control code.
    Control,
    /// From a `next` returning `Step::Queries` to the following `next`:
    /// the batch, run by storage or an `ExecBatch` round.
    Batch,
}

impl Kind {
    fn is_advisor(self) -> bool {
        matches!(self, Kind::Plan | Kind::Replan | Kind::OnQuery | Kind::End)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub iv: Interval,
}

struct Slot {
    /// Address of the argument vector of the traced call in flight; 0 when
    /// none.
    args: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

pub struct Tracer {
    epoch: Instant,
    slots: Vec<Slot>,
}

thread_local! {
    /// Slot of the traced call the current client thread is making.
    static CURRENT: Cell<Option<usize>> = const { Cell::new(None) };
}

impl Tracer {
    pub fn new(clients: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            slots: (0..clients)
                .map(|_| Slot { args: AtomicUsize::new(0), spans: Mutex::new(Vec::new()) })
                .collect(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a traced call on this thread for client `slot`.
    pub fn begin_call(&self, slot: usize, args: &[Value]) {
        CURRENT.with(|c| c.set(Some(slot)));
        // ordering: SeqCst — the worker that instantiates the call's
        // procedure reads this after receiving the request through the
        // runtime's lane, which already orders it; SeqCst keeps that
        // independent of the lane's implementation.
        self.slots[slot].args.store(args.as_ptr() as usize, Ordering::SeqCst);
    }

    /// Closes the traced call and moves its spans into `out`.
    pub fn end_call(&self, slot: usize, out: &mut Vec<Span>) {
        CURRENT.with(|c| c.set(None));
        self.slots[slot].args.store(0, Ordering::SeqCst);
        let mut spans = self.slots[slot].spans.lock().expect("span slot poisoned");
        out.clear();
        out.append(&mut spans);
    }

    fn current() -> Option<usize> {
        CURRENT.with(Cell::get)
    }

    fn slot_for_args(&self, args: &[Value]) -> Option<usize> {
        let ptr = args.as_ptr() as usize;
        self.slots.iter().position(|s| s.args.load(Ordering::SeqCst) == ptr)
    }

    fn record(&self, slot: usize, kind: Kind, start: u64, end: u64) {
        let span = Span { kind, iv: Interval::new(start, end) };
        // A push leaves the vector valid even if a panic poisoned the lock;
        // this also runs in `Drop`, which must not panic.
        self.slots[slot].spans.lock().unwrap_or_else(PoisonError::into_inner).push(span);
    }

    /// Runs `f`, recording it as a `kind` span of `slot` when set.
    fn time<R>(&self, slot: Option<usize>, kind: Kind, f: impl FnOnce() -> R) -> R {
        let Some(slot) = slot else { return f() };
        let start = self.now();
        let r = f();
        self.record(slot, kind, start, self.now());
        r
    }
}

/// An advisor session tagged with the traced call it belongs to.
pub struct TracedSession<S> {
    inner: S,
    slot: Option<usize>,
}

/// Delegates every [`LiveAdvisor`] method to `inner`, timing each call
/// made on behalf of a traced call.
pub struct TracedAdvisor<A> {
    pub inner: A,
    pub tracer: Arc<Tracer>,
}

impl<A: LiveAdvisor> TracedAdvisor<A> {
    fn tag(&self, (plan, inner): (TxnPlan, A::Session)) -> (TxnPlan, TracedSession<A::Session>) {
        (plan, TracedSession { inner, slot: Tracer::current() })
    }
}

impl<A: LiveAdvisor> LiveAdvisor for TracedAdvisor<A> {
    type Session = TracedSession<A::Session>;

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn plan_live(&self, req: &Request, ctx: &PlanContext<'_>) -> (TxnPlan, Self::Session) {
        let planned =
            self.tracer.time(Tracer::current(), Kind::Plan, || self.inner.plan_live(req, ctx));
        self.tag(planned)
    }

    fn on_query_live(&self, session: &mut Self::Session, q: &ExecutedQuery) -> Updates {
        let inner = &mut session.inner;
        self.tracer.time(session.slot, Kind::OnQuery, || self.inner.on_query_live(inner, q))
    }

    fn replan_live(
        &self,
        req: &Request,
        observed: PartitionSet,
        attempt: u32,
        ctx: &PlanContext<'_>,
    ) -> (TxnPlan, Self::Session) {
        let planned = self.tracer.time(Tracer::current(), Kind::Replan, || {
            self.inner.replan_live(req, observed, attempt, ctx)
        });
        self.tag(planned)
    }

    fn on_end_live(&self, session: Self::Session, outcome: TxnOutcome) -> Option<TxnFeedback> {
        let TracedSession { inner, slot } = session;
        self.tracer.time(slot, Kind::End, || self.inner.on_end_live(inner, outcome))
    }

    fn plan_live_reusing(
        &self,
        req: &Request,
        ctx: &PlanContext<'_>,
        spare: Option<Self::Session>,
    ) -> (TxnPlan, Self::Session) {
        let spare = spare.map(|s| s.inner);
        let planned = self
            .tracer
            .time(Tracer::current(), Kind::Plan, || self.inner.plan_live_reusing(req, ctx, spare));
        self.tag(planned)
    }

    fn end_live_reclaim(
        &self,
        session: Self::Session,
        outcome: TxnOutcome,
    ) -> (Option<TxnFeedback>, Option<Self::Session>) {
        let TracedSession { inner, slot } = session;
        let (feedback, reclaimed) =
            self.tracer.time(slot, Kind::End, || self.inner.end_live_reclaim(inner, outcome));
        (feedback, reclaimed.map(|inner| TracedSession { inner, slot: None }))
    }

    fn maintainer(&self) -> Option<Box<dyn LiveMaintainer + '_>> {
        self.inner.maintainer()
    }
}

/// Wraps every procedure of `registry` so its instances time `next()`.
pub fn traced_registry(registry: ProcedureRegistry, tracer: &Arc<Tracer>) -> ProcedureRegistry {
    let registry = Arc::new(registry);
    let procs = (0..registry.len())
        .map(|id| {
            let def = registry.get(id as ProcId).def().clone();
            Box::new(TracedProcedure {
                registry: Arc::clone(&registry),
                id: id as ProcId,
                def,
                tracer: Arc::clone(tracer),
            }) as Box<dyn Procedure>
        })
        .collect();
    ProcedureRegistry::new(procs)
}

struct TracedProcedure {
    registry: Arc<ProcedureRegistry>,
    id: ProcId,
    def: ProcDef,
    tracer: Arc<Tracer>,
}

impl Procedure for TracedProcedure {
    fn def(&self) -> &ProcDef {
        &self.def
    }

    fn instantiate(&self, args: &[Value]) -> Box<dyn ProcInstance> {
        let slot = self.tracer.slot_for_args(args);
        let inner = self
            .tracer
            .time(slot, Kind::Instantiate, || self.registry.get(self.id).instantiate(args));
        match slot {
            Some(slot) => Box::new(TracedInstance {
                inner,
                slot,
                tracer: Arc::clone(&self.tracer),
                batch_from: None,
            }),
            None => inner,
        }
    }
}

struct TracedInstance {
    inner: Box<dyn ProcInstance>,
    slot: usize,
    tracer: Arc<Tracer>,
    /// End of the last `next` that returned a batch still running.
    batch_from: Option<u64>,
}

impl ProcInstance for TracedInstance {
    fn next(&mut self, results: Option<&[Vec<Row>]>) -> Step {
        let start = self.tracer.now();
        if let Some(from) = self.batch_from.take() {
            self.tracer.record(self.slot, Kind::Batch, from, start);
        }
        let step = self.inner.next(results);
        let end = self.tracer.now();
        self.tracer.record(self.slot, Kind::Control, start, end);
        if matches!(step, Step::Queries(_)) {
            self.batch_from = Some(end);
        }
        step
    }
}

impl Drop for TracedInstance {
    /// A batch cut short by a mispredict or abort ends when the runtime
    /// drops the instance.
    fn drop(&mut self) {
        if let Some(from) = self.batch_from.take() {
            self.tracer.record(self.slot, Kind::Batch, from, self.tracer.now());
        }
    }
}

/// Per-layer totals over the traced calls of one client.
#[derive(Debug, Default)]
pub struct LayerTally {
    pub calls: u64,
    pub call_ns: u64,
    /// `plan_live` durations (µs), one per plan.
    pub plan_us: Vec<f64>,
    pub plans: u64,
    pub advisor_ns: u64,
    pub on_query_ns: u64,
    pub on_queries: u64,
    /// `next()` time.
    pub control_ns: u64,
    pub controls: u64,
    pub instantiate_ns: u64,
    pub attempts: u64,
    /// Batch durations (µs).
    pub batch_us: Vec<f64>,
    /// Batch time not covered by advisor spans nested in it.
    pub batch_self_ns: u64,
    /// Per-call self time (µs) outside every advisor and procedure span.
    pub dispatch_us: Vec<f64>,
    /// Reused interval buffers.
    on_query: Vec<Interval>,
    all: Vec<Interval>,
}

impl LayerTally {
    /// Folds one traced call's spans; spans that started before the call
    /// belong to an earlier one and are ignored.
    pub fn add_call(&mut self, call: Interval, spans: &[Span]) {
        self.calls += 1;
        self.call_ns += call.len();
        let spans = spans.iter().filter(|s| s.iv.start >= call.start);
        let mut on_query = std::mem::take(&mut self.on_query);
        on_query.clear();
        on_query.extend(spans.clone().filter(|s| s.kind == Kind::OnQuery).map(|s| s.iv));
        let mut all = std::mem::take(&mut self.all);
        all.clear();
        for s in spans {
            all.push(s.iv);
            let len = s.iv.len();
            if s.kind.is_advisor() {
                self.advisor_ns += len;
            }
            match s.kind {
                Kind::Plan => {
                    self.plans += 1;
                    self.plan_us.push(len as f64 / 1e3);
                }
                Kind::Replan => self.plans += 1,
                Kind::OnQuery => {
                    self.on_query_ns += len;
                    self.on_queries += 1;
                }
                Kind::End => {}
                Kind::Instantiate => {
                    self.attempts += 1;
                    self.instantiate_ns += len;
                }
                Kind::Control => {
                    self.controls += 1;
                    self.control_ns += len;
                }
                Kind::Batch => {
                    self.batch_us.push(len as f64 / 1e3);
                    self.batch_self_ns += self_time(s.iv, &on_query);
                }
            }
        }
        self.dispatch_us.push(self_time(call, &all) as f64 / 1e3);
        self.on_query = on_query;
        self.all = all;
    }

    pub fn merge(&mut self, o: LayerTally) {
        self.calls += o.calls;
        self.call_ns += o.call_ns;
        self.plan_us.extend(o.plan_us);
        self.plans += o.plans;
        self.advisor_ns += o.advisor_ns;
        self.on_query_ns += o.on_query_ns;
        self.on_queries += o.on_queries;
        self.control_ns += o.control_ns;
        self.controls += o.controls;
        self.instantiate_ns += o.instantiate_ns;
        self.attempts += o.attempts;
        self.batch_us.extend(o.batch_us);
        self.batch_self_ns += o.batch_self_ns;
        self.dispatch_us.extend(o.dispatch_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, s: u64, e: u64) -> Span {
        Span { kind, iv: Interval::new(s, e) }
    }

    #[test]
    fn call_time_splits_into_layer_self_times() {
        // A fast-path call: plan, instantiate, control, a batch with one
        // nested advisor update, control, end.
        let call = Interval::new(1_000, 11_000);
        let spans = [
            span(Kind::Plan, 1_100, 2_100),
            span(Kind::Instantiate, 3_000, 3_200),
            span(Kind::Control, 3_200, 3_700),
            span(Kind::Batch, 3_700, 6_700),
            span(Kind::OnQuery, 5_000, 5_500),
            span(Kind::Control, 6_700, 7_000),
            span(Kind::End, 9_000, 9_400),
            // Left over from an earlier call: ignored.
            span(Kind::Control, 500, 900),
        ];
        let mut t = LayerTally::default();
        t.add_call(call, &spans);
        assert_eq!(t.advisor_ns, 1_000 + 500 + 400);
        assert_eq!(t.control_ns, 500 + 300);
        assert_eq!(t.controls, 2);
        assert_eq!(t.instantiate_ns, 200);
        assert_eq!(t.attempts, 1);
        assert_eq!(t.batch_us, vec![3.0]);
        assert_eq!(t.batch_self_ns, 2_500);
        // Covered: 1000 (plan) + 4000 (3000..7000) + 400 (end).
        assert_eq!(t.dispatch_us, vec![4.6]);
        let layers = t.advisor_ns + t.instantiate_ns + t.control_ns + t.batch_self_ns;
        assert_eq!(layers + 4_600, t.call_ns, "layer self times add up to the call");
    }

    #[test]
    fn untraced_calls_record_nothing() {
        let tracer = Tracer::new(2);
        let args = vec![Value::Int(1)];
        assert_eq!(tracer.slot_for_args(&args), None);
        tracer.begin_call(1, &args);
        assert_eq!(tracer.slot_for_args(&args), Some(1));
        assert_eq!(Tracer::current(), Some(1));
        tracer.record(1, Kind::Plan, 10, 20);
        let mut out = Vec::new();
        tracer.end_call(1, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(tracer.slot_for_args(&args), None);
        assert_eq!(Tracer::current(), None);
        tracer.time(None, Kind::Plan, || ());
        tracer.end_call(1, &mut out);
        assert!(out.is_empty());
    }
}
