//! One repetition of a workload: set up, drive to the horizon, check.
//!
//! Everything here goes through the public facade: the scenario's
//! `generated_trace`, `ServingSystem::from_spec`, `submit_trace` and
//! `run_until_events`, or `ShardedSpec::shard_plans` and
//! `ShardedExperiment::run` for the sharded workload.

use std::time::Instant;

use bench::invariants;
use clockwork::experiment::RunReport;
use clockwork::scenario::ScenarioSpec;
use clockwork::telemetry::{EventMixEntry, ExperimentMetrics};
use clockwork::ServingSystem;
use clockwork_controller::journal::SchedProfile;
use clockwork_controller::registry::SchedulerFactory;
use clockwork_controller::request::{RequestOutcome, Response};
use clockwork_shard::{FleetReport, ShardedExperiment, ShardedSpec};
use clockwork_workload::Trace;

use crate::procfs::process_cpu_secs;
use crate::tap::TapFactory;

/// Host seconds of each set-up phase of one repetition.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Trace generation (`ScenarioSpec::generated_trace`).
    pub generate_s: f64,
    /// System assembly (`ServingSystem::from_spec`).
    pub assemble_s: f64,
    /// Trace submission (`ServingSystem::submit_trace`).
    pub submit_s: f64,
    /// Shard planning (`ShardedSpec::shard_plans`, which generates the
    /// trace itself); 0 on unsharded workloads.
    pub plan_s: f64,
}

impl SetupTimes {
    /// Total set-up wall time.
    pub fn total(&self) -> f64 {
        self.generate_s + self.assemble_s + self.submit_s + self.plan_s
    }
}

/// A system assembled with its workload submitted, ready to run.
pub struct Prepared {
    /// The system.
    pub system: ServingSystem,
    /// The submitted trace.
    pub trace: Trace,
    /// What set-up cost.
    pub times: SetupTimes,
}

/// Generates the trace, assembles the system and submits the trace.
///
/// The system keeps every response, so that latency can be counted from
/// each request's due time in the trace rather than from its arrival at the
/// controller one network hop later.
pub fn prepare(spec: &ScenarioSpec, factory: &dyn SchedulerFactory) -> Result<Prepared, String> {
    let spec = ScenarioSpec {
        keep_responses: true,
        ..spec.clone()
    };
    let t0 = Instant::now();
    let trace = spec
        .generated_trace()
        .ok_or_else(|| format!("{}: workload has no up-front trace", spec.name))?;
    let t1 = Instant::now();
    let mut system = ServingSystem::from_spec(&spec, factory);
    let t2 = Instant::now();
    system.submit_trace(&trace);
    let t3 = Instant::now();
    Ok(Prepared {
        system,
        trace,
        times: SetupTimes {
            generate_s: (t1 - t0).as_secs_f64(),
            assemble_s: (t2 - t1).as_secs_f64(),
            submit_s: (t3 - t2).as_secs_f64(),
            plan_s: 0.0,
        },
    })
}

/// Host cost of driving one repetition to its horizon.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunCost {
    /// Wall seconds.
    pub run_s: f64,
    /// Process CPU seconds (all threads) over the same interval.
    pub cpu_s: f64,
    /// Sum of the shards' own simulation wall times (the run itself on an
    /// unsharded workload).
    pub sum_shard_s: f64,
    /// The slowest shard's simulation wall time (the run itself on an
    /// unsharded workload).
    pub max_shard_s: f64,
}

/// What the simulation produced. Identical for a given seed and program.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// Response digest (the fleet digest on a sharded run).
    pub digest: u64,
    /// Requests submitted.
    pub submitted: u64,
    /// Merged serving metrics.
    pub metrics: ExperimentMetrics,
    /// Virtual latencies of the successful requests, ascending: from the
    /// trace's due time on unsharded runs, from arrival at the controller on
    /// sharded ones.
    pub latencies_ns: Vec<u64>,
    /// Simulation events delivered.
    pub events: u64,
    /// Per-kind event accounting, summed over shards.
    pub mix: Vec<EventMixEntry>,
    /// Worker wakes that found nothing to do.
    pub noop_wakes: u64,
    /// Scheduler self-profile, summed over shards.
    pub sched: SchedProfile,
}

impl SimOutcome {
    /// Requests never answered, or answered more than once: a program
    /// failure, unlike a rejection or an SLO miss, which are simulated
    /// outcomes.
    pub fn unanswered(&self) -> u64 {
        let m = &self.metrics;
        let answered = m.successes + m.rejections.values().sum::<u64>();
        self.submitted.abs_diff(answered)
    }
}

/// Drives a prepared system to the horizon and runs the correctness gate.
/// Returns the system too, so a traced run can read its workers.
pub fn run_unsharded(
    label: &str,
    spec: &ScenarioSpec,
    prepared: Prepared,
    violations: &mut Vec<String>,
) -> Result<(RunCost, SimOutcome, ServingSystem), String> {
    let Prepared {
        mut system, trace, ..
    } = prepared;
    let submitted = trace.len() as u64;
    let cpu0 = process_cpu_secs()?;
    let t0 = Instant::now();
    system.run_until_events(spec.horizon(), u64::MAX);
    let run_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_secs()? - cpu0;
    let report = RunReport {
        discipline: system.scheduler_name().to_string(),
        submitted,
        wall_secs: run_s,
        max_events: u64::MAX,
        system,
    };
    if !invariants::check_run(label, &report, spec) {
        violations.push(format!(
            "{label}: bench::invariants::check_run failed (see stderr)"
        ));
    }
    if !report.drained() {
        violations.push(format!(
            "{label}: {} events still queued at the horizon, so exactly-once accounting is unchecked",
            report.live_events()
        ));
    }
    let mix = report.event_mix();
    let queue = report.system.queue_counters();
    if queue != (mix.pushed(), mix.delivered(), mix.cancelled()) {
        violations.push(format!(
            "{label}: event queue counters {queue:?} disagree with the event mix ({}, {}, {})",
            mix.pushed(),
            mix.delivered(),
            mix.cancelled()
        ));
    }
    let latencies_ns = due_latencies(label, &trace, report.telemetry().responses(), violations);
    let outcome = SimOutcome {
        digest: report.digest(),
        submitted,
        metrics: report.metrics(),
        latencies_ns,
        events: report.events_processed(),
        mix: mix.entries().to_vec(),
        noop_wakes: mix.noop_wakes(),
        sched: report.sched_stats(),
    };
    let cost = RunCost {
        run_s,
        cpu_s,
        sum_shard_s: run_s,
        max_shard_s: run_s,
    };
    Ok((cost, outcome, report.system))
}

/// Latencies of the successful responses, counted from the due time of the
/// trace event each answers.
///
/// The facade numbers requests in the order their submissions are delivered,
/// and the event queue delivers same-instant events in push order, so
/// request `i` is the trace's `i`-th event; a response for another model,
/// one that arrived before its due time, or one naming a request past the
/// trace breaks that mapping and is reported as a violation.
fn due_latencies(
    label: &str,
    trace: &Trace,
    responses: &[Response],
    violations: &mut Vec<String>,
) -> Vec<u64> {
    let events = trace.events();
    let mut latencies = Vec::with_capacity(responses.len());
    let mut broken = 0u64;
    for r in responses {
        let Some(event) = events.get(r.request.0 as usize) else {
            broken += 1;
            continue;
        };
        if r.arrival < event.at || r.model != event.model {
            broken += 1;
        }
        if let RequestOutcome::Success { completed, .. } = r.outcome {
            latencies.push((completed - event.at).as_nanos());
        }
    }
    if broken > 0 {
        violations.push(format!(
            "{label}: {broken} responses do not map onto their trace events"
        ));
    }
    latencies.sort_unstable();
    latencies
}

/// Plans the shards (the sharded workload's set-up), timed.
pub fn plan_shards(sharded: &ShardedSpec) -> SetupTimes {
    let t0 = Instant::now();
    let plans = sharded.shard_plans();
    let plan_s = t0.elapsed().as_secs_f64();
    drop(std::hint::black_box(plans));
    SetupTimes {
        plan_s,
        ..SetupTimes::default()
    }
}

/// Runs the sharded fleet and the global correctness gate.
pub fn run_sharded(
    label: &str,
    sharded: &ShardedSpec,
    factory: &(dyn SchedulerFactory + Sync),
    violations: &mut Vec<String>,
) -> Result<(RunCost, SimOutcome), String> {
    let experiment = ShardedExperiment::new(sharded.clone());
    let tap = TapFactory::new(factory);
    let cpu0 = process_cpu_secs()?;
    let t0 = Instant::now();
    let fleet = experiment.run(&tap);
    let run_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_secs()? - cpu0;
    let mut latencies_ns = tap.take_latencies();
    latencies_ns.sort_unstable();
    check_fleet(label, sharded, &fleet, violations);
    let mut mix: Vec<EventMixEntry> = Vec::new();
    let mut sched = SchedProfile::default();
    let mut noop_wakes = 0;
    for shard in &fleet.shards {
        for (i, e) in shard.mix.entries().iter().enumerate() {
            match mix.get_mut(i) {
                Some(sum) => {
                    sum.pushed += e.pushed;
                    sum.delivered += e.delivered;
                    sum.cancelled += e.cancelled;
                }
                None => mix.push(*e),
            }
        }
        noop_wakes += shard.mix.noop_wakes();
        sched.ticks_full += shard.sched.ticks_full;
        sched.ticks_skipped += shard.sched.ticks_skipped;
        sched.candidates_scanned += shard.sched.candidates_scanned;
        sched.strategies_recomputed += shard.sched.strategies_recomputed;
        sched.load_prio_recomputes += shard.sched.load_prio_recomputes;
    }
    let outcome = SimOutcome {
        digest: fleet.fleet_digest(),
        submitted: fleet.submitted(),
        metrics: fleet.merged_metrics(),
        latencies_ns,
        events: fleet.events_processed(),
        mix,
        noop_wakes,
        sched,
    };
    let cost = RunCost {
        run_s,
        cpu_s,
        sum_shard_s: fleet.sum_shard_wall(),
        max_shard_s: fleet.max_shard_wall(),
    };
    Ok((cost, outcome))
}

/// Global conservation of a sharded run: every routed request reached a
/// controller and was answered exactly once, no shard lost an event, and
/// nothing counted as goodput took longer than the SLO.
fn check_fleet(
    label: &str,
    sharded: &ShardedSpec,
    fleet: &FleetReport,
    violations: &mut Vec<String>,
) {
    if !fleet.drained() {
        violations.push(format!(
            "{label}: {} events still queued at the horizon",
            fleet.live_events()
        ));
    }
    if !fleet.identity_ok() || fleet.overdelivered() {
        violations.push(format!(
            "{label}: successes {} + rejected {} != total {}",
            fleet.successes(),
            fleet.rejected(),
            fleet.total_requests()
        ));
    }
    if fleet.submitted() != fleet.total_requests() {
        violations.push(format!(
            "{label}: {} requests routed but {} reached a controller",
            fleet.submitted(),
            fleet.total_requests()
        ));
    }
    for shard in &fleet.shards {
        if !shard.mix_conserved() {
            violations.push(format!(
                "{label}: shard {} broke event conservation",
                shard.shard
            ));
        }
    }
    let merged = fleet.merged_metrics();
    if merged.goodput > 0 && merged.goodput_latency.max() > sharded.base.slo() {
        violations.push(format!(
            "{label}: a response counted as goodput took {} > SLO {}",
            merged.goodput_latency.max(),
            sharded.base.slo()
        ));
    }
}
