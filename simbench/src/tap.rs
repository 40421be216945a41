//! Per-request latencies of a sharded run, read off the scheduler's output.
//!
//! The sharded runner returns only bucketed latency histograms, so the
//! benchmark reads each response the scheduler emits as it passes through
//! the callback's context: it takes the context's queued responses and
//! queues them again unchanged and in order, so the facade drains exactly
//! what it would have without the tap. Like the timing wrapper, each built
//! scheduler keeps its samples to itself and hands them in when dropped.

use std::sync::{Arc, Mutex};

use clockwork_controller::journal::SchedProfile;
use clockwork_controller::registry::SchedulerFactory;
use clockwork_controller::request::{InferenceRequest, RequestOutcome};
use clockwork_controller::scheduler::{Scheduler, SchedulerCtx, TickOutcome};
use clockwork_controller::worker_state::GpuRef;
use clockwork_model::{ModelId, ModelSpec};
use clockwork_sim::engine::FaultKind;
use clockwork_sim::time::{Nanos, Timestamp};
use clockwork_worker::{ActionResult, ExecMode};

/// Wraps a factory so the latency of every successful response its
/// schedulers emit is recorded, counted from the request's arrival at the
/// controller.
pub struct TapFactory<'a> {
    inner: &'a (dyn SchedulerFactory + Sync),
    sink: Arc<Mutex<Vec<u64>>>,
}

impl<'a> TapFactory<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a (dyn SchedulerFactory + Sync)) -> Self {
        TapFactory {
            inner,
            sink: Arc::default(),
        }
    }

    /// Takes the latencies (virtual ns) handed in by every dropped scheduler.
    pub fn take_latencies(&self) -> Vec<u64> {
        std::mem::take(
            &mut *self
                .sink
                .lock()
                .expect("a scheduler panicked while handing in latencies"),
        )
    }
}

impl SchedulerFactory for TapFactory<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn default_exec_mode(&self) -> ExecMode {
        self.inner.default_exec_mode()
    }

    fn build(&self) -> Box<dyn Scheduler> {
        Box::new(Tapped {
            inner: self.inner.build(),
            latencies: Vec::new(),
            sink: Arc::clone(&self.sink),
        })
    }
}

struct Tapped {
    inner: Box<dyn Scheduler>,
    latencies: Vec<u64>,
    sink: Arc<Mutex<Vec<u64>>>,
}

impl Tapped {
    /// Records the responses queued since the context held `before`.
    fn read(&mut self, ctx: &mut SchedulerCtx, before: usize) {
        if ctx.response_count() == before {
            return;
        }
        for (i, response) in ctx.take_responses().into_iter().enumerate() {
            if i >= before {
                if let RequestOutcome::Success { completed, .. } = response.outcome {
                    self.latencies
                        .push((completed - response.arrival).as_nanos());
                }
            }
            ctx.send_response(response);
        }
    }
}

impl Scheduler for Tapped {
    fn add_gpu(&mut self, gpu_ref: GpuRef, total_pages: u64, page_size: u64) {
        self.inner.add_gpu(gpu_ref, total_pages, page_size);
    }

    fn add_model(&mut self, id: ModelId, spec: Arc<ModelSpec>, load_seed: Nanos) {
        self.inner.add_model(id, spec, load_seed);
    }

    fn on_request(&mut self, now: Timestamp, request: InferenceRequest, ctx: &mut SchedulerCtx) {
        let before = ctx.response_count();
        self.inner.on_request(now, request, ctx);
        self.read(ctx, before);
    }

    fn on_result(&mut self, now: Timestamp, result: &ActionResult, ctx: &mut SchedulerCtx) {
        let before = ctx.response_count();
        self.inner.on_result(now, result, ctx);
        self.read(ctx, before);
    }

    fn on_tick(&mut self, now: Timestamp, ctx: &mut SchedulerCtx) -> TickOutcome {
        let before = ctx.response_count();
        let outcome = self.inner.on_tick(now, ctx);
        self.read(ctx, before);
        outcome
    }

    fn on_fault(&mut self, now: Timestamp, fault: &FaultKind, ctx: &mut SchedulerCtx) {
        let before = ctx.response_count();
        self.inner.on_fault(now, fault, ctx);
        self.read(ctx, before);
    }

    fn next_tick(&self, now: Timestamp) -> Option<Timestamp> {
        self.inner.next_tick(now)
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

impl Drop for Tapped {
    fn drop(&mut self) {
        // See the timing wrapper: never panic in drop.
        if let Ok(mut sink) = self.sink.lock() {
            sink.append(&mut self.latencies);
        }
    }
}
