//! The Clockwork central controller (§4.5, §5.3, Appendix B).
//!
//! All decision making in Clockwork happens here. The controller receives
//! inference requests from clients, tracks the state and performance profile
//! of every worker, and translates requests into `LOAD` / `UNLOAD` / `INFER`
//! actions with explicit execution windows, such that admitted requests meet
//! their SLOs and doomed requests are cancelled before wasting work.
//!
//! * [`request`] — the client-facing request/response vocabulary.
//! * [`profile`] — rolling per-(model, action, batch) duration estimates
//!   (the last-10-measurements window of §5.3).
//! * [`journal`] — the change journal and self-profiling counters behind
//!   the incremental, early-out tick pipeline.
//! * [`worker_state`] — the controller's mirror of each worker's memory
//!   state, outstanding actions, and executor availability.
//! * [`scheduler`] — the `Scheduler` trait and the context through which
//!   schedulers emit actions and responses.
//! * [`registry`] — open registration of disciplines: `SchedulerFactory`
//!   and `SchedulerRegistry`, so experiment harnesses construct any
//!   registered discipline as a `Box<dyn Scheduler>` by name.
//! * [`batching`] — batch formation as pure functions: the strategy-queue
//!   build, the largest-feasible-batch search, and the batch-amortized
//!   drain cost that admission prices requests against.
//! * [`clockwork_scheduler`] — the paper's scheduler: global strategy queue
//!   with batch formation, 5 ms lookahead, demand-driven LOAD priorities,
//!   LRU UNLOAD, and SLO admission control priced on the amortized cost
//!   curve. Each request or result pass is event-local: it visits only the
//!   GPUs and re-keys only the models the event changed.
//! * [`alt`] — deliberately simpler schedulers used for ablation studies.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alt;
pub mod batching;
pub mod clockwork_scheduler;
pub mod journal;
pub mod profile;
pub mod registry;
pub mod request;
pub mod scheduler;
pub mod worker_state;

pub use clockwork_scheduler::{ClockworkScheduler, ClockworkSchedulerConfig};
pub use journal::{ChangeJournal, SchedProfile};
pub use profile::{ActionProfiler, ProfileKey, ProfileKind};
pub use registry::{
    ClockworkFactory, ClockworkNoBatchFactory, FifoFactory, SchedulerFactory, SchedulerRegistry,
};
pub use request::{InferenceRequest, RejectReason, RequestId, RequestOutcome, Response};
pub use scheduler::{Scheduler, SchedulerCtx, TickOutcome};
pub use worker_state::{FreeAtIndex, GpuTrack, WorkerStateTracker};
