//! Shared helpers for the experiment binaries and Criterion benches.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md for the index and EXPERIMENTS.md for measured results).
//! Since the experiment-API redesign the heavy lifting lives in the facade:
//! a declarative [`ScenarioSpec`] describes the experiment, a
//! [`SchedulerRegistry`] names the disciplines, and [`Experiment::run`] owns
//! the build/submit/run loop. What remains here is reporting: summary rows,
//! chaos-phase analysis shared by `chaos_fleet` and `chaos_compare`, the
//! event-mix printer, and the `BENCH_*.json` plumbing.

use clockwork::prelude::*;

pub mod invariants;

/// The result row shared by most experiments.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Label of the system / configuration.
    pub label: String,
    /// Total requests submitted.
    pub total: u64,
    /// Requests completed within their SLO.
    pub goodput: u64,
    /// Goodput in requests per second.
    pub goodput_rate: f64,
    /// Fraction of requests that met the SLO.
    pub satisfaction: f64,
    /// Median latency in milliseconds.
    pub p50_ms: f64,
    /// 99th percentile latency in milliseconds.
    pub p99_ms: f64,
    /// 99.99th percentile latency in milliseconds.
    pub p9999_ms: f64,
    /// Maximum latency in milliseconds.
    pub max_ms: f64,
    /// Cold start fraction among successes.
    pub cold_fraction: f64,
    /// Mean batch size.
    pub mean_batch: f64,
}

impl RunSummary {
    /// Builds a summary from a finished system run.
    pub fn from_system(label: impl Into<String>, system: &ServingSystem) -> Self {
        let m = system.telemetry().metrics();
        let t = m.latency.tail_summary();
        RunSummary {
            label: label.into(),
            total: m.total_requests,
            goodput: m.goodput,
            goodput_rate: m.goodput_rate(),
            satisfaction: m.satisfaction(),
            p50_ms: t.p50.as_millis_f64(),
            p99_ms: t.p99.as_millis_f64(),
            p9999_ms: t.p9999.as_millis_f64(),
            max_ms: t.max.as_millis_f64(),
            cold_fraction: m.cold_start_fraction(),
            mean_batch: m.mean_batch,
        }
    }

    /// Builds a summary from an [`Experiment`] run report.
    pub fn from_report(label: impl Into<String>, report: &RunReport) -> Self {
        RunSummary::from_system(label, &report.system)
    }

    /// The CSV header matching [`RunSummary::csv_row`].
    pub fn csv_header() -> &'static str {
        "label,total,goodput,goodput_rps,satisfaction,p50_ms,p99_ms,p9999_ms,max_ms,cold_fraction,mean_batch"
    }

    /// One CSV row.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{:.1},{:.4},{:.2},{:.2},{:.2},{:.2},{:.4},{:.2}",
            self.label,
            self.total,
            self.goodput,
            self.goodput_rate,
            self.satisfaction,
            self.p50_ms,
            self.p99_ms,
            self.p9999_ms,
            self.max_ms,
            self.cold_fraction,
            self.mean_batch
        )
    }
}

/// Runs a closed-loop workload (the §6.1 setup: `concurrency` requests in
/// flight per model) against a system for a virtual duration. Used by the
/// binaries whose workload mixes ad-hoc traffic on top of a trace; pure
/// closed-loop scenarios express this as [`WorkloadSpec::ClosedLoop`]
/// instead.
pub fn run_closed_loop(
    system: &mut ServingSystem,
    models: &[ModelId],
    concurrency: u32,
    slo: Nanos,
    duration: Nanos,
) {
    for (i, &model) in models.iter().enumerate() {
        system.add_closed_loop_client(
            ClosedLoopClient::new(model, concurrency, slo),
            Timestamp::from_nanos(i as u64 * 1_000),
        );
    }
    system.run_until(Timestamp::ZERO + duration);
}

/// Prints a section header so the output of an experiment binary reads like
/// the corresponding figure.
pub fn section(title: &str) {
    println!();
    println!("## {title}");
}

/// Per-second goodput/arrivals fraction that counts as "recovered" in the
/// chaos analyses.
pub const STEADY_FRACTION: f64 = 0.9;

/// One phase (pre-churn / churn / post-churn) of a chaos run.
#[derive(Clone, Copy, Debug)]
pub struct PhaseStats {
    /// Phase length in virtual seconds.
    pub secs: f64,
    /// Requests that arrived during the phase.
    pub arrivals: u64,
    /// SLO-met responses during the phase.
    pub goodput: u64,
}

impl PhaseStats {
    /// Goodput rate over the phase, in requests/second.
    pub fn rate(&self) -> f64 {
        self.goodput as f64 / self.secs.max(1e-9)
    }

    /// Goodput over offered load — satisfaction that is meaningful even
    /// though the Azure-like offered rate is non-stationary.
    pub fn satisfaction(&self) -> f64 {
        self.goodput as f64 / (self.arrivals.max(1) as f64)
    }
}

/// The chaos figures shared by `chaos_fleet` and `chaos_compare`: phase
/// breakdown around the fault window, the availability floor, and the
/// recovery time from the last repair until goodput tracks offered load.
#[derive(Clone, Copy, Debug)]
pub struct ChaosAnalysis {
    /// When the first fault fires, in virtual seconds.
    pub first_fault_secs: f64,
    /// When the last recovery lands, in virtual seconds.
    pub last_recovery_secs: f64,
    /// Before the first fault.
    pub pre: PhaseStats,
    /// Between first fault and last recovery.
    pub churn: PhaseStats,
    /// After the last recovery.
    pub post: PhaseStats,
    /// Minimum fleet availability observed across the run.
    pub min_availability: f64,
    /// Fleet availability after the last fault event.
    pub final_availability: f64,
    /// Seconds from the last repair until a per-second bucket's goodput is
    /// back to ≥ [`STEADY_FRACTION`] of that bucket's arrivals (−1.0 when
    /// steady goodput is never reached within the run).
    pub recovery_secs: f64,
}

impl ChaosAnalysis {
    /// Churn-phase satisfaction retained relative to the pre-churn phase.
    pub fn retention(&self) -> f64 {
        let pre = self.pre.satisfaction();
        if pre > 0.0 {
            self.churn.satisfaction() / pre
        } else {
            0.0
        }
    }
}

/// Computes the chaos phase/availability/recovery analysis of a finished
/// run against the scenario's fault plan.
pub fn analyze_chaos(report: &RunReport, spec: &ScenarioSpec) -> ChaosAnalysis {
    let telemetry = report.telemetry();
    let plan = &spec.faults;
    let first_fault = plan.first_at().unwrap_or(Timestamp::ZERO);
    let last_recovery = plan.last_recovery_at().unwrap_or(first_fault);
    let end = Timestamp::ZERO + spec.duration();
    let tick = Nanos::from_secs(1);

    let phase = |from: Timestamp, to: Timestamp, secs: f64| PhaseStats {
        secs: secs.max(1e-9),
        arrivals: telemetry.arrivals_between(from, to),
        goodput: telemetry.goodput_between(from, to),
    };
    let first_fault_secs = first_fault.as_nanos() as f64 / 1e9;
    let last_recovery_secs = last_recovery.as_nanos() as f64 / 1e9;
    let pre = phase(Timestamp::ZERO, first_fault - tick, first_fault_secs);
    let churn = phase(
        first_fault,
        last_recovery - tick,
        last_recovery_secs - first_fault_secs,
    );
    let post = phase(
        last_recovery,
        end,
        spec.duration_secs as f64 - last_recovery_secs,
    );

    // Recovery time: from the last repair until a per-second bucket's
    // goodput is back to >= STEADY_FRACTION of the requests that arrived in
    // that bucket. The offered load is non-stationary, so steadiness is
    // relative to arrivals rather than to an absolute pre-churn rate.
    let goodput = &telemetry.goodput_series;
    let arrivals = &telemetry.request_series;
    let from_bucket = (last_recovery.as_nanos() / tick.as_nanos()) as usize;
    let to_bucket = (end.as_nanos() / tick.as_nanos()) as usize;
    let mut recovery_secs = -1.0;
    for bucket in from_bucket..=to_bucket {
        let offered = arrivals.count_at(bucket);
        if offered == 0 {
            continue;
        }
        if goodput.count_at(bucket) as f64 >= STEADY_FRACTION * offered as f64 {
            let bucket_start = bucket as f64; // 1 s buckets
            recovery_secs = (bucket_start - last_recovery.as_nanos() as f64 / 1e9).max(0.0);
            break;
        }
    }

    ChaosAnalysis {
        first_fault_secs,
        last_recovery_secs,
        pre,
        churn,
        post,
        min_availability: telemetry.min_availability(),
        final_availability: telemetry.final_availability(),
        recovery_secs,
    }
}

/// The invariants every chaos run must keep, discipline-independent.
/// Delegates to [`invariants::check_accounting`] — kept as a named entry
/// point because "the chaos invariants" is how the chaos binaries and their
/// docs refer to it.
pub fn check_chaos_invariants(label: &str, report: &RunReport, spec: &ScenarioSpec) -> bool {
    invariants::check_accounting(label, report, spec)
}

/// Prints the event-mix summary (pushed/delivered/cancelled per event kind,
/// plus the no-op-wake count) and checks the conservation identity
/// `pushed == delivered + cancelled + live`. Returns `false` — after
/// printing a loud violation — when the identity does not hold; the perf
/// harnesses fold that into their exit status so CI fails on it.
pub fn report_event_mix(mix: &EventMix, live: u64) -> bool {
    section("event mix");
    for e in mix.entries() {
        if e.pushed == 0 && e.delivered == 0 && e.cancelled == 0 {
            continue;
        }
        println!(
            "{:<20} pushed={:<10} delivered={:<10} cancelled={}",
            e.kind, e.pushed, e.delivered, e.cancelled
        );
    }
    println!(
        "total: pushed={} delivered={} cancelled={} live={} noop_wakes={}",
        mix.pushed(),
        mix.delivered(),
        mix.cancelled(),
        live,
        mix.noop_wakes()
    );
    let ok = mix.pushed() == mix.delivered() + mix.cancelled() + live;
    if !ok {
        eprintln!(
            "EVENT ACCOUNTING VIOLATION: pushed {} != delivered {} + cancelled {} + live {live}",
            mix.pushed(),
            mix.delivered(),
            mix.cancelled(),
        );
    }
    ok
}

/// Renders the event mix as the `"events"` object of the `BENCH_*.json`
/// schemas (see `crates/bench/README.md`), indented to sit at the top level
/// of the document.
pub fn event_mix_json(mix: &EventMix, live: u64) -> String {
    let mut by_kind = String::new();
    let mut first = true;
    for e in mix.entries() {
        if e.pushed == 0 && e.delivered == 0 && e.cancelled == 0 {
            continue;
        }
        if !first {
            by_kind.push_str(",\n");
        }
        first = false;
        by_kind.push_str(&format!(
            "      \"{}\": {{ \"pushed\": {}, \"delivered\": {}, \"cancelled\": {} }}",
            e.kind, e.pushed, e.delivered, e.cancelled
        ));
    }
    format!(
        "{{\n    \"pushed\": {},\n    \"delivered\": {},\n    \"cancelled\": {},\n    \"live\": {live},\n    \"noop_wakes\": {},\n    \"by_kind\": {{\n{by_kind}\n    }}\n  }}",
        mix.pushed(),
        mix.delivered(),
        mix.cancelled(),
        mix.noop_wakes(),
    )
}

/// Renders the scheduler self-profiling counters as the `"sched"` object of
/// the `BENCH_*.json` schemas (see `crates/bench/README.md`), indented to
/// nest one level deep (per-discipline rows) or at the top level.
pub fn sched_json(sched: &SchedProfile) -> String {
    format!(
        "{{ \"ticks_full\": {}, \"ticks_skipped\": {}, \"candidates_scanned\": {}, \"strategies_recomputed\": {}, \"load_prio_recomputes\": {}, \"passes_request\": {}, \"passes_result\": {}, \"passes_tick\": {}, \"passes_fault\": {}, \"infer_gpus_visited\": {}, \"load_gpus_visited\": {}, \"prio_rekeys\": {} }}",
        sched.ticks_full,
        sched.ticks_skipped,
        sched.candidates_scanned,
        sched.strategies_recomputed,
        sched.load_prio_recomputes,
        sched.passes_request,
        sched.passes_result,
        sched.passes_tick,
        sched.passes_fault,
        sched.infer_gpus_visited,
        sched.load_gpus_visited,
        sched.prio_rekeys,
    )
}

/// Prints one scheduler self-profiling row: how many ticks did real work vs
/// early-outed, and how much the work-proportional stages actually scanned.
/// The early-out fraction is the direct measure of the change-driven core —
/// a rebuild-the-world scheduler would show `skipped=0`.
pub fn report_sched_profile(label: &str, sched: &SchedProfile) {
    let ticks = sched.ticks();
    let skipped_frac = if ticks > 0 {
        sched.ticks_skipped as f64 / ticks as f64
    } else {
        0.0
    };
    println!(
        "{:<12} ticks={:<9} full={:<9} skipped={:<9} ({:>5.1}% early-out) candidates={:<11} strat_rebuilds={:<9} load_prio={}",
        label,
        ticks,
        sched.ticks_full,
        sched.ticks_skipped,
        100.0 * skipped_frac,
        sched.candidates_scanned,
        sched.strategies_recomputed,
        sched.load_prio_recomputes,
    );
    println!(
        "{:<12} passes={:<9} request={:<9} result={:<9} tick={:<9} fault={:<7} infer_gpus={:<11} load_gpus={:<9} prio_rekeys={}",
        "",
        sched.passes(),
        sched.passes_request,
        sched.passes_result,
        sched.passes_tick,
        sched.passes_fault,
        sched.infer_gpus_visited,
        sched.load_gpus_visited,
        sched.prio_rekeys,
    );
}

/// Renders a [`ScenarioSpec`] as the `"scenario"` object shared by the
/// `BENCH_*.json` schemas. `max_events` is 0 for uncapped (full) runs.
pub fn scenario_json(spec: &ScenarioSpec, max_events: u64) -> String {
    let (functions, target_rate) = match spec.workload {
        WorkloadSpec::Azure {
            functions,
            target_rate,
        } => (functions, target_rate),
        WorkloadSpec::OpenLoop { rate_per_model } => (0, rate_per_model * spec.models as f64),
        WorkloadSpec::ClosedLoop { .. } => (0, 0.0),
        WorkloadSpec::Shaped { base_rate, .. } => (0, base_rate),
    };
    format!(
        "{{\n    \"name\": \"{name}\",\n    \"workers\": {workers},\n    \"gpus_per_worker\": {gpus},\n    \"models\": {models},\n    \"functions\": {functions},\n    \"duration_secs\": {duration},\n    \"target_rate\": {rate},\n    \"slo_ms\": {slo},\n    \"seed\": {seed},\n    \"max_events\": {max_events}\n  }}",
        name = spec.name,
        workers = spec.workers,
        gpus = spec.gpus_per_worker,
        models = spec.models,
        duration = spec.duration_secs,
        rate = target_rate,
        slo = spec.slo_ms,
        seed = spec.seed,
        max_events = if max_events == u64::MAX { 0 } else { max_events },
    )
}

/// Peak resident-set size in kilobytes, read from `/proc/self/status`
/// (`VmHWM`). Returns 0 where the proc filesystem is unavailable — the field
/// is a proxy for memory footprint, not a portable measurement.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

/// Extracts a numeric field from a flat JSON document without a JSON parser
/// (the workspace builds offline; the bench schemas are flat and stable).
pub fn json_number(doc: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_analysis_and_invariants_on_a_tiny_chaos_run() {
        let mut spec = ScenarioSpec {
            workers: 2,
            gpus_per_worker: 1,
            models: 4,
            duration_secs: 5,
            ..ScenarioSpec::smoke(5)
        }
        .named("tiny_chaos");
        spec.faults =
            FaultPlan::new().crash_worker_for(Timestamp::from_secs(1), 1, Nanos::from_secs(1));
        let report = Experiment::new(spec.clone()).run(&ClockworkFactory::default());
        assert!(check_chaos_invariants("tiny", &report, &spec));
        let analysis = analyze_chaos(&report, &spec);
        assert!((analysis.first_fault_secs - 1.0).abs() < 1e-9);
        assert!((analysis.last_recovery_secs - 2.0).abs() < 1e-9);
        assert!(analysis.min_availability <= 0.5 + 1e-9);
        assert!(analysis.final_availability > 0.99);
        assert!(analysis.pre.arrivals > 0);
        assert!(analysis.retention() > 0.0);
        assert_eq!(json_number("{\"a\": 42.5, \"b\": 1}", "a"), Some(42.5));
        assert_eq!(json_number("{\"a\": 1}", "missing"), None);
    }

    #[test]
    fn summary_round_trips_from_a_report() {
        let spec = ScenarioSpec {
            workers: 1,
            gpus_per_worker: 1,
            models: 2,
            model_set: ModelSet::Resnet50Copies,
            workload: WorkloadSpec::ClosedLoop { concurrency: 4 },
            duration_secs: 1,
            drain_secs: 0,
            ..ScenarioSpec::smoke(1)
        };
        let report = Experiment::new(spec).run(&ClockworkFactory::default());
        let summary = RunSummary::from_report("smoke", &report);
        assert!(summary.total > 0);
        assert!(summary.satisfaction > 0.5);
        assert!(summary.csv_row().starts_with("smoke,"));
        assert!(RunSummary::csv_header().starts_with("label,"));
    }
}
