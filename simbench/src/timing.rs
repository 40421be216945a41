//! Outside-in controller timing: a decision-neutral [`Scheduler`] wrapper.
//!
//! [`TimingFactory`] wraps another [`SchedulerFactory`]; every scheduler it
//! builds forwards each callback unchanged to the inner scheduler and
//! records one [`Span`] around it. Nothing the inner scheduler sees or
//! emits is touched, so a wrapped run makes the same decisions as an
//! unwrapped one (the `wrapped_runs_are_byte_identical` test pins this).
//!
//! Each built scheduler owns its ledger outright — no lock or atomic on the
//! callback path — so the wrapper is safe on the sharded runner, which
//! builds one scheduler per shard thread. A ledger is handed to the
//! factory's sink when its scheduler is dropped, i.e. when the run that
//! owned it ends.

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use clockwork_controller::journal::SchedProfile;
use clockwork_controller::registry::SchedulerFactory;
use clockwork_controller::request::InferenceRequest;
use clockwork_controller::scheduler::{Scheduler, SchedulerCtx, TickOutcome};
use clockwork_controller::worker_state::GpuRef;
use clockwork_model::{ModelId, ModelSpec};
use clockwork_sim::engine::FaultKind;
use clockwork_sim::time::{Nanos, Timestamp};
use clockwork_worker::{ActionResult, ExecMode};

/// The scheduler callbacks a span can time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Callback {
    /// `add_gpu`, at system assembly.
    AddGpu,
    /// `add_model`, at system assembly.
    AddModel,
    /// `on_request`.
    OnRequest,
    /// `on_result`.
    OnResult,
    /// `on_tick`.
    OnTick,
    /// `on_fault`.
    OnFault,
}

impl Callback {
    /// Every callback, in report order.
    pub const ALL: [Callback; 6] = [
        Callback::OnRequest,
        Callback::OnResult,
        Callback::OnTick,
        Callback::OnFault,
        Callback::AddModel,
        Callback::AddGpu,
    ];

    /// The trait method's name.
    pub fn label(self) -> &'static str {
        match self {
            Callback::AddGpu => "add_gpu",
            Callback::AddModel => "add_model",
            Callback::OnRequest => "on_request",
            Callback::OnResult => "on_result",
            Callback::OnTick => "on_tick",
            Callback::OnFault => "on_fault",
        }
    }

    /// Whether the callback runs while the simulation is driven (as opposed
    /// to at assembly). None of the benchmark's workloads has a worker join,
    /// the one fault that calls `add_gpu` mid-run.
    pub fn in_run(self) -> bool {
        !matches!(self, Callback::AddGpu | Callback::AddModel)
    }
}

/// One timed callback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Which callback.
    pub callback: Callback,
    /// The call's subject: request id (`on_request`), action id
    /// (`on_result`), model id (`add_model`), `worker << 32 | gpu`
    /// (`add_gpu`), the fault's ordinal (`on_fault`) or the tick's ordinal
    /// (`on_tick`).
    pub id: u64,
    /// Start, in host nanoseconds since the factory's epoch.
    pub start_ns: u64,
    /// Host nanoseconds inside the inner scheduler.
    pub dur_ns: u64,
    /// Actions the call emitted.
    pub actions: u32,
    /// Responses the call emitted.
    pub responses: u32,
}

/// Everything one wrapped scheduler recorded.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Timed callbacks in call order.
    pub spans: Vec<Span>,
    /// `next_tick` calls (counted, not spanned: the harness asks after
    /// every event, and the query is a few comparisons).
    pub next_tick_calls: u64,
    /// Host nanoseconds inside `next_tick`.
    pub next_tick_ns: u64,
}

/// Wraps a factory so every scheduler it builds is timed.
pub struct TimingFactory<F> {
    inner: F,
    epoch: Instant,
    sink: Arc<Mutex<Vec<Ledger>>>,
}

impl<F: SchedulerFactory> TimingFactory<F> {
    /// Wraps `inner`; span start times count from `epoch`.
    pub fn new(inner: F, epoch: Instant) -> Self {
        TimingFactory {
            inner,
            epoch,
            sink: Arc::default(),
        }
    }

    /// Takes the ledgers of every scheduler built so far that has since been
    /// dropped, in drop order.
    pub fn take_ledgers(&self) -> Vec<Ledger> {
        std::mem::take(
            &mut *self
                .sink
                .lock()
                .expect("a scheduler panicked while handing in its ledger"),
        )
    }
}

impl<F: SchedulerFactory> SchedulerFactory for TimingFactory<F> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn default_exec_mode(&self) -> ExecMode {
        self.inner.default_exec_mode()
    }

    fn build(&self) -> Box<dyn Scheduler> {
        Box::new(TimedScheduler {
            inner: self.inner.build(),
            epoch: self.epoch,
            ledger: Ledger::default(),
            next_tick_calls: Cell::new(0),
            next_tick_ns: Cell::new(0),
            faults: 0,
            ticks: 0,
            sink: Arc::clone(&self.sink),
        })
    }
}

struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    epoch: Instant,
    ledger: Ledger,
    // `next_tick` takes `&self`.
    next_tick_calls: Cell<u64>,
    next_tick_ns: Cell<u64>,
    faults: u64,
    ticks: u64,
    sink: Arc<Mutex<Vec<Ledger>>>,
}

impl TimedScheduler {
    /// Records a span that started at `start` and ends now. `before` is the
    /// context's (actions, responses) queue length when the call began.
    fn record(
        &mut self,
        callback: Callback,
        id: u64,
        start: Instant,
        ctx: Option<&SchedulerCtx>,
        before: (usize, usize),
    ) {
        let end = Instant::now();
        let (actions, responses) = ctx.map_or((0, 0), |c| {
            (c.action_count() - before.0, c.response_count() - before.1)
        });
        self.ledger.spans.push(Span {
            callback,
            id,
            start_ns: nanos(start.duration_since(self.epoch)),
            dur_ns: nanos(end.duration_since(start)),
            actions: actions as u32,
            responses: responses as u32,
        });
    }
}

fn queued(ctx: &SchedulerCtx) -> (usize, usize) {
    (ctx.action_count(), ctx.response_count())
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Scheduler for TimedScheduler {
    fn add_gpu(&mut self, gpu_ref: GpuRef, total_pages: u64, page_size: u64) {
        let id = (u64::from(gpu_ref.worker.0) << 32) | u64::from(gpu_ref.gpu.0);
        let start = Instant::now();
        self.inner.add_gpu(gpu_ref, total_pages, page_size);
        self.record(Callback::AddGpu, id, start, None, (0, 0));
    }

    fn add_model(&mut self, id: ModelId, spec: Arc<ModelSpec>, load_seed: Nanos) {
        let start = Instant::now();
        self.inner.add_model(id, spec, load_seed);
        self.record(Callback::AddModel, u64::from(id.0), start, None, (0, 0));
    }

    fn on_request(&mut self, now: Timestamp, request: InferenceRequest, ctx: &mut SchedulerCtx) {
        let (id, before) = (request.id.0, queued(ctx));
        let start = Instant::now();
        self.inner.on_request(now, request, ctx);
        self.record(Callback::OnRequest, id, start, Some(ctx), before);
    }

    fn on_result(&mut self, now: Timestamp, result: &ActionResult, ctx: &mut SchedulerCtx) {
        let before = queued(ctx);
        let start = Instant::now();
        self.inner.on_result(now, result, ctx);
        self.record(
            Callback::OnResult,
            result.action_id.0,
            start,
            Some(ctx),
            before,
        );
    }

    fn on_tick(&mut self, now: Timestamp, ctx: &mut SchedulerCtx) -> TickOutcome {
        self.ticks += 1;
        let before = queued(ctx);
        let start = Instant::now();
        let outcome = self.inner.on_tick(now, ctx);
        self.record(Callback::OnTick, self.ticks, start, Some(ctx), before);
        outcome
    }

    fn on_fault(&mut self, now: Timestamp, fault: &FaultKind, ctx: &mut SchedulerCtx) {
        self.faults += 1;
        let before = queued(ctx);
        let start = Instant::now();
        self.inner.on_fault(now, fault, ctx);
        self.record(Callback::OnFault, self.faults, start, Some(ctx), before);
    }

    fn next_tick(&self, now: Timestamp) -> Option<Timestamp> {
        let start = Instant::now();
        let next = self.inner.next_tick(now);
        let spent = nanos(start.elapsed());
        self.next_tick_calls.set(self.next_tick_calls.get() + 1);
        self.next_tick_ns.set(self.next_tick_ns.get() + spent);
        next
    }

    fn sched_profile(&self) -> SchedProfile {
        self.inner.sched_profile()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
}

impl Drop for TimedScheduler {
    fn drop(&mut self) {
        let mut ledger = std::mem::take(&mut self.ledger);
        ledger.next_tick_calls = self.next_tick_calls.get();
        ledger.next_tick_ns = self.next_tick_ns.get();
        // A poisoned sink means another scheduler panicked mid-hand-in; that
        // panic is already propagating, and panicking again here would abort.
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(ledger);
        }
    }
}
