//! Differential tests: the event-local scheduler against whole-fleet
//! oracles.
//!
//! The scheduler's correctness argument has two halves. The tick pipeline
//! claims every tick the journal skips would have been a no-op, and that
//! `next_tick` only prunes grid points a pass could not act on. The
//! event-local passes claim that re-planning only what an event (and the
//! elapsed time) changed makes exactly the decisions a pass over the whole
//! fleet makes. Both claims are checked the blunt way: drive two copies of
//! [`ClockworkScheduler`] through the same random sequence of requests,
//! synthesized results (some of them errors) and fleet faults, and require
//! their emitted action and response streams to be byte-identical.
//!
//! - `gated_ticks_match_rebuild_per_tick_oracle` runs the production
//!   scheduler (event-local passes, `next_tick`-gated ticks) against the
//!   legacy algorithm: whole-fleet passes at every point of the fixed 1 ms
//!   tick grid.
//! - `event_local_passes_match_all_scope_oracle` runs both copies under the
//!   same gated cadence on a wider fleet (up to 4 × 4 GPUs, eight mixed zoo
//!   models, page budgets small enough to force LRU UNLOADs, injected
//!   action errors that exercise requeue), so the only difference is the
//!   pass scope. After every callback the event-local copy must also pass
//!   [`ClockworkScheduler::check_incremental_state`] (maintained demand and
//!   priority order equal a naive rebuild), and after every callback that
//!   ran a pass, an extra whole-fleet pass at that instant must emit
//!   nothing.
//!
//! The mini event loop mirrors the facade's semantics precisely: a single
//! queued tick, kept when an earlier one is already pending, cancelled on
//! `None`, FIFO order within a timestamp. Results are synthesized from each
//! side's own actions (starting at `window.earliest`, taking the predicted
//! duration, jittered on the mixed fleets) so a divergence cannot cancel
//! itself out.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use clockwork_controller::clockwork_scheduler::{ClockworkScheduler, ClockworkSchedulerConfig};
use clockwork_controller::request::{InferenceRequest, RequestId};
use clockwork_controller::scheduler::{Scheduler, SchedulerCtx};
use clockwork_controller::worker_state::GpuRef;
use clockwork_model::zoo::ModelZoo;
use clockwork_model::{ModelId, ModelSpec, Tier};
use clockwork_sim::engine::FaultKind;
use clockwork_sim::time::{Nanos, Timestamp};
use clockwork_worker::{
    Action, ActionError, ActionKind, ActionOutcome, ActionResult, ActionTiming, GpuId, WorkerId,
};

const PAGE: u64 = 16 * 1024 * 1024;

/// One externally injected operation.
#[derive(Clone, Debug)]
enum ExternalOp {
    Request { model: u32, slo_us: u64 },
    GpuFail { worker: u32, gpu: u32 },
    GpuRecover { worker: u32, gpu: u32 },
    WorkerCrash { worker: u32 },
    WorkerRestart { worker: u32 },
}

/// Ops over `models` registered models (one more id is exercised as
/// unknown) and up to `workers` × `gpus` fault targets.
fn external_op(models: u32, workers: u32, gpus: u32) -> impl Strategy<Value = ExternalOp> {
    // A selector in 0..10 rather than a weighted prop_oneof (the vendored
    // proptest has no weight support): 0-5 request, 6 fail, 7 recover,
    // 8 crash, 9 restart — requests dominate so most cases exercise real
    // scheduling.
    (0u32..10, 0..models + 1, 500u64..50_000, 0..workers, 0..gpus).prop_map(
        |(pick, model, slo_us, worker, gpu)| match pick {
            0..=5 => ExternalOp::Request { model, slo_us },
            6 => ExternalOp::GpuFail { worker, gpu },
            7 => ExternalOp::GpuRecover { worker, gpu },
            8 => ExternalOp::WorkerCrash { worker },
            _ => ExternalOp::WorkerRestart { worker },
        },
    )
}

/// Event kinds of the mini event loop.
enum Event {
    External(ExternalOp),
    Result(Box<ActionResult>),
    Tick,
}

/// How ticks are driven.
#[derive(Clone, Copy)]
enum Cadence {
    /// The facade's contract: `next_tick` decides, skipped grid points
    /// early-out inside `on_tick`.
    Gated,
    /// The legacy rebuild-the-world cadence: a full pass at `now + interval`
    /// after every delivery, for as long as work is outstanding.
    EveryTick,
}

/// How much of the fleet each pass re-plans.
#[derive(Clone, Copy, PartialEq)]
enum Scope {
    /// The production scheduler, with its maintained structures checked
    /// after every callback.
    EventLocal,
    /// The oracle: every pass visits every actionable GPU and rebuilds
    /// every demand and priority.
    AllScope,
}

/// The simulated fleet.
#[derive(Clone, Debug)]
struct Fleet {
    workers: u32,
    gpus: u32,
    /// Weights-cache pages per GPU.
    pages: u64,
    /// Model specs, registered as ids `0..models.len()`.
    models: Vec<Arc<ModelSpec>>,
    /// Every action whose id is a multiple of this fails (0: none do).
    error_every: u64,
    /// Whether measured durations deviate from the prediction (by -10 % to
    /// +14 %), so execution estimates move as profiles fill.
    jitter: bool,
}

impl Fleet {
    /// The original small fleet: identical ResNet50s with ample memory and
    /// no injected errors.
    fn resnets(workers: u32, gpus: u32) -> Self {
        let spec = Arc::new(ModelZoo::new().resnet50().clone());
        Fleet {
            workers,
            gpus,
            pages: 810,
            models: vec![spec; 4],
            error_every: 0,
            jitter: false,
        }
    }

    /// Eight zoo models needing 2 to 21 pages each (82 in total), so a
    /// small page budget keeps the LRU evicting.
    fn mixed(workers: u32, gpus: u32, pages: u64, error_every: u64) -> Self {
        let zoo = ModelZoo::new();
        let models = [
            "densenet121",
            "densenet161",
            "xception",
            "resnest101",
            "resnet50_v1",
            "resnet152_v1",
            "resnext101_64x4d",
            "cifar_wideresnet16_10",
        ]
        .iter()
        .map(|name| Arc::new(zoo.by_name(name).expect("zoo model").clone()))
        .collect();
        Fleet {
            workers,
            gpus,
            pages,
            models,
            error_every,
            jitter: true,
        }
    }
}

/// Builds one scheduler over the fleet.
fn build(scope: Scope, fleet: &Fleet) -> ClockworkScheduler {
    let config = ClockworkSchedulerConfig::default();
    let mut sched = match scope {
        Scope::EventLocal => ClockworkScheduler::new(config),
        Scope::AllScope => ClockworkScheduler::new_all_scope(config),
    };
    for w in 0..fleet.workers {
        for g in 0..fleet.gpus {
            sched.add_gpu(
                GpuRef {
                    worker: WorkerId(w),
                    gpu: GpuId(g),
                },
                fleet.pages,
                PAGE,
            );
        }
    }
    for (m, spec) in fleet.models.iter().enumerate() {
        sched.add_model(ModelId(m as u32), Arc::clone(spec), Nanos::from_millis(8));
    }
    sched
}

/// Asserts the event-local scheduler's invariants after a callback at
/// `now`; `passed` says whether the callback ran a scheduling pass.
fn check_after_callback(sched: &mut ClockworkScheduler, now: Timestamp, passed: bool) {
    if passed {
        // Nothing the event-local pass left undone: a whole-fleet pass at
        // the same instant finds nothing to do.
        let mut probe = sched.clone();
        let mut ctx = SchedulerCtx::new();
        probe.run_full_pass(now, &mut ctx);
        let actions = ctx.take_actions();
        let responses = ctx.take_responses();
        assert!(
            actions.is_empty() && responses.is_empty(),
            "a whole-fleet pass at {now:?} still acts: {actions:?} {responses:?}"
        );
    }
    if let Err(e) = sched.check_incremental_state(now) {
        panic!("at {now:?}: {e}");
    }
}

/// Runs one scheduler through the op sequence and returns the serialized
/// action + response log.
fn run_side(
    scope: Scope,
    cadence: Cadence,
    fleet: &Fleet,
    ops: &[(u64, ExternalOp)],
) -> Vec<String> {
    let mut sched = build(scope, fleet);

    // The queue mirrors the facade's: ordered by (time, push sequence),
    // cancellable by key — exactly one tick entry at a time.
    let mut queue: BTreeMap<(u64, u64), Event> = BTreeMap::new();
    let mut seq = 0u64;
    let mut push = |queue: &mut BTreeMap<(u64, u64), Event>, at: u64, event: Event| -> (u64, u64) {
        let key = (at, seq);
        seq += 1;
        queue.insert(key, event);
        key
    };
    let mut at = 0u64;
    for (dt_us, op) in ops {
        at += dt_us * 1_000;
        push(&mut queue, at, Event::External(op.clone()));
    }

    let mut ctx = SchedulerCtx::new();
    let mut log = Vec::new();
    let mut next_request = 0u64;
    let mut tick_key: Option<(u64, u64)> = None;
    let interval = ClockworkSchedulerConfig::default().tick_interval;

    let mut steps = 0u64;
    while let Some((&key, _)) = queue.iter().next() {
        steps += 1;
        assert!(steps < 200_000, "differential harness did not drain");
        let (at, _) = key;
        let now = Timestamp::from_nanos(at);
        let event = queue.remove(&key).expect("key just observed");
        let passes_before = sched.sched_profile().passes();
        match event {
            Event::External(op) => match op {
                ExternalOp::Request { model, slo_us } => {
                    let id = RequestId(next_request);
                    next_request += 1;
                    sched.on_request(
                        now,
                        InferenceRequest {
                            id,
                            model: ModelId(model),
                            arrival: now,
                            slo: Nanos::from_micros(slo_us),
                            tier: Tier::Strict,
                        },
                        &mut ctx,
                    );
                }
                ExternalOp::GpuFail { worker, gpu } => {
                    sched.on_fault(now, &FaultKind::GpuFail { worker, gpu }, &mut ctx)
                }
                ExternalOp::GpuRecover { worker, gpu } => {
                    sched.on_fault(now, &FaultKind::GpuRecover { worker, gpu }, &mut ctx)
                }
                ExternalOp::WorkerCrash { worker } => {
                    sched.on_fault(now, &FaultKind::WorkerCrash { worker }, &mut ctx)
                }
                ExternalOp::WorkerRestart { worker } => {
                    sched.on_fault(now, &FaultKind::WorkerRestart { worker }, &mut ctx)
                }
            },
            Event::Result(result) => sched.on_result(now, &result, &mut ctx),
            Event::Tick => {
                tick_key = None;
                match cadence {
                    Cadence::Gated => {
                        sched.on_tick(now, &mut ctx);
                    }
                    Cadence::EveryTick => sched.run_full_pass(now, &mut ctx),
                }
            }
        }

        // Drain: log actions/responses and synthesize results from this
        // side's own actions.
        for (worker, action) in ctx.take_actions() {
            log.push(describe_action(now, worker, &action));
            let (end, result) = synthesize_result(now, worker, &action, fleet);
            push(&mut queue, end, Event::Result(Box::new(result)));
        }
        for response in ctx.take_responses() {
            log.push(format!(
                "{at} response req={} model={} outcome={:?}",
                response.request.0, response.model.0, response.outcome
            ));
        }
        if scope == Scope::EventLocal {
            let passed = sched.sched_profile().passes() > passes_before;
            check_after_callback(&mut sched, now, passed);
        }

        // Reconcile the single queued tick, mirroring the facade: keep an
        // earlier pending tick, replace a later one, cancel on None.
        let desired = match cadence {
            Cadence::Gated => sched.next_tick(now),
            Cadence::EveryTick => sched.has_outstanding_work().then(|| now + interval),
        };
        match (desired, tick_key) {
            (Some(tick), Some((pending_at, _))) if pending_at <= tick.as_nanos() => {}
            (Some(tick), prev) => {
                if let Some(key) = prev {
                    queue.remove(&key);
                }
                tick_key = Some(push(&mut queue, tick.as_nanos(), Event::Tick));
            }
            (None, Some(key)) => {
                queue.remove(&key);
                tick_key = None;
            }
            (None, None) => {}
        }
    }
    log
}

fn describe_action(now: Timestamp, worker: WorkerId, action: &Action) -> String {
    let kind = match &action.kind {
        ActionKind::Load { model } => format!("LOAD model={}", model.0),
        ActionKind::Unload { model } => format!("UNLOAD model={}", model.0),
        ActionKind::Infer {
            model,
            batch,
            request_ids,
        } => format!("INFER model={} batch={batch} reqs={request_ids:?}", model.0),
    };
    format!(
        "{} action id={} worker={} gpu={} window=[{},{}] dur={} {kind}",
        now.as_nanos(),
        action.id.0,
        worker.0,
        action.gpu.0,
        action.window.earliest.as_nanos(),
        action.window.latest.as_nanos(),
        action.expected_duration.as_nanos(),
    )
}

/// The result a worker would report for `action`, and when it arrives.
/// LOADs and INFERs whose id is a multiple of the fleet's `error_every`
/// fail.
fn synthesize_result(
    now: Timestamp,
    worker: WorkerId,
    action: &Action,
    fleet: &Fleet,
) -> (u64, ActionResult) {
    let (model, action_type, batch, request_ids) = match &action.kind {
        ActionKind::Load { model } => (*model, "LOAD", 1, Vec::new()),
        ActionKind::Unload { model } => (*model, "UNLOAD", 1, Vec::new()),
        ActionKind::Infer {
            model,
            batch,
            request_ids,
        } => (*model, "INFER", *batch, request_ids.clone()),
    };
    let start = action.window.earliest.max(now);
    let duration = if fleet.jitter {
        action.expected_duration * (90 + action.id.0 * 37 % 25) / 100
    } else {
        action.expected_duration
    };
    let end = start + duration;
    let error_every = fleet.error_every;
    let fails =
        error_every > 0 && action.id.0.is_multiple_of(error_every) && action_type != "UNLOAD";
    let outcome = if fails {
        let error = if action_type == "LOAD" {
            ActionError::InsufficientPages {
                needed: 1,
                available: 0,
            }
        } else {
            ActionError::WindowElapsed
        };
        ActionOutcome::Error { error, at: end }
    } else {
        ActionOutcome::Success(ActionTiming {
            received: now,
            start,
            end,
            device_duration: duration,
        })
    };
    (
        end.as_nanos(),
        ActionResult {
            action_id: action.id,
            worker,
            gpu: action.gpu,
            model,
            action_type,
            batch,
            request_ids,
            expected_duration: action.expected_duration,
            outcome,
        },
    )
}

fn ops_strategy(
    models: u32,
    workers: u32,
    gpus: u32,
    max_ops: usize,
) -> impl Strategy<Value = Vec<(u64, ExternalOp)>> {
    proptest::collection::vec(
        (1u64..5_000, external_op(models, workers, gpus)),
        1..max_ops,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The production scheduler (event-local passes, gated ticks) and the
    /// legacy algorithm (whole-fleet passes at every grid tick) make
    /// identical decisions on arbitrary request/result/fault sequences.
    #[test]
    fn gated_ticks_match_rebuild_per_tick_oracle(
        workers in 1u32..3,
        gpus in 1u32..3,
        ops in ops_strategy(4, 2, 2, 40),
    ) {
        let fleet = Fleet::resnets(workers, gpus);
        let gated = run_side(Scope::EventLocal, Cadence::Gated, &fleet, &ops);
        let oracle = run_side(Scope::AllScope, Cadence::EveryTick, &fleet, &ops);
        prop_assert_eq!(&gated, &oracle,
            "incremental scheduler diverged from the rebuild-per-tick oracle");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Event-local passes and whole-fleet passes make identical decisions
    /// under the same cadence, on a mixed-model fleet with memory pressure
    /// and failing actions.
    #[test]
    fn event_local_passes_match_all_scope_oracle(
        workers in 1u32..5,
        gpus in 1u32..5,
        pages in 16u64..64,
        error_every in 0u64..8,
        ops in ops_strategy(8, 4, 4, 60),
    ) {
        let fleet = Fleet::mixed(workers, gpus, pages, error_every);
        let local = run_side(Scope::EventLocal, Cadence::Gated, &fleet, &ops);
        let oracle = run_side(Scope::AllScope, Cadence::Gated, &fleet, &ops);
        prop_assert_eq!(&local, &oracle,
            "event-local passes diverged from the all-scope oracle");
    }
}

/// A dense burst against one GPU: deep queues, batching, deadline expiry —
/// the regime where the urgency index and strategy cache earn their keep.
#[test]
fn differential_dense_burst_single_gpu() {
    let ops: Vec<(u64, ExternalOp)> = (0..120)
        .map(|i| {
            (
                if i % 7 == 0 { 900 } else { 40 },
                ExternalOp::Request {
                    model: i % 4,
                    slo_us: 3_000 + (i as u64 % 9) * 2_500,
                },
            )
        })
        .collect();
    let fleet = Fleet::resnets(1, 1);
    let gated = run_side(Scope::EventLocal, Cadence::Gated, &fleet, &ops);
    let oracle = run_side(Scope::AllScope, Cadence::EveryTick, &fleet, &ops);
    assert_eq!(gated, oracle);
    assert!(
        gated.iter().any(|l| l.contains("INFER")),
        "burst produced no INFERs — the scenario is vacuous"
    );
}

/// A dense mixed-model burst on two single-GPU workers with tight memory
/// (the eight models need 82 pages, the fleet has 48) and failing actions: every scoping path (LRU UNLOADs, requeues after errors, loads
/// enabling INFERs, faults) is exercised, and the scenario is checked to
/// really reach them.
#[test]
fn differential_dense_burst_mixed_fleet_under_memory_pressure() {
    let mut ops: Vec<(u64, ExternalOp)> = (0..400)
        .map(|i| {
            (
                if i % 11 == 0 { 700 } else { 30 },
                ExternalOp::Request {
                    model: (i * 7 + i / 13) % 8,
                    slo_us: 4_000 + (i as u64 % 13) * 3_000,
                },
            )
        })
        .collect();
    ops.insert(150, (10, ExternalOp::GpuFail { worker: 1, gpu: 0 }));
    ops.insert(220, (10, ExternalOp::WorkerCrash { worker: 0 }));
    ops.insert(260, (10, ExternalOp::GpuRecover { worker: 1, gpu: 0 }));
    ops.insert(300, (10, ExternalOp::WorkerRestart { worker: 0 }));
    let fleet = Fleet::mixed(2, 1, 24, 5);
    let local = run_side(Scope::EventLocal, Cadence::Gated, &fleet, &ops);
    let oracle = run_side(Scope::AllScope, Cadence::Gated, &fleet, &ops);
    assert_eq!(local, oracle);
    for needle in [
        "UNLOAD",
        "LOAD",
        "INFER",
        "DeadlineElapsed",
        "WorkerRejected",
    ] {
        assert!(
            local.iter().any(|l| l.contains(needle)),
            "burst never produced {needle} — the scenario is vacuous"
        );
    }
    let legacy = run_side(Scope::AllScope, Cadence::EveryTick, &fleet, &ops);
    assert_eq!(
        local, legacy,
        "gated ticks diverged from the every-tick cadence"
    );
}

/// Two models share a GPU; the first's backlog alone leaves it well served
/// (priority ≤ 0), then the second's backlog pushes the GPU's allocated
/// demand past capacity and lifts *both* priorities above zero, so the
/// next LOAD goes to the first model (the larger demand). The event-local
/// pass must re-key the untouched neighbour, not only the model whose
/// demand moved.
#[test]
fn differential_colocated_demand_lifts_a_neighbour_priority() {
    const SLO_US: u64 = 10_000_000;
    let mut ops = vec![
        // Park the second GPU so both models warm up on the first.
        (1, ExternalOp::GpuFail { worker: 1, gpu: 0 }),
        (
            1,
            ExternalOp::Request {
                model: 0,
                slo_us: SLO_US,
            },
        ),
        (
            20_000,
            ExternalOp::Request {
                model: 1,
                slo_us: SLO_US,
            },
        ),
        (30_000, ExternalOp::GpuRecover { worker: 1, gpu: 0 }),
    ];
    ops.extend((0..60).map(|i| {
        (
            if i == 0 { 10_000 } else { 1 },
            ExternalOp::Request {
                model: 0,
                slo_us: SLO_US,
            },
        )
    }));
    ops.extend((0..60).map(|_| {
        (
            1,
            ExternalOp::Request {
                model: 1,
                slo_us: SLO_US,
            },
        )
    }));
    let fleet = Fleet::resnets(2, 1);
    let local = run_side(Scope::EventLocal, Cadence::Gated, &fleet, &ops);
    let oracle = run_side(Scope::AllScope, Cadence::Gated, &fleet, &ops);
    assert_eq!(local, oracle);
    let replica = local
        .iter()
        .find(|l| l.contains("worker=1") && l.contains("LOAD"))
        .expect("the overloaded GPU's demand never triggered a second replica");
    assert!(replica.ends_with("LOAD model=0"), "{replica}");
}
