//! `simbench`: end-to-end and per-layer benchmark of the Clockwork-RS
//! simulator. See the README next to this crate for the metrics, the
//! workloads and why each exists.
//!
//! ```text
//! simbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it repeats the workload for `--seconds` and prints the
//! end-to-end metrics (medians over repetitions); with `--trace 1` it
//! alternates plain repetitions and repetitions with every scheduler
//! callback spanned, prints the per-layer metrics, and writes the spans to
//! `out/<workload>.spans.csv` beside this crate. The last stdout line is
//! one JSON object; the exit status is non-zero when any correctness check
//! fails.

use std::fmt::Write as _;
use std::fs::{self, File};
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use clockwork::ServingSystem;
use clockwork_controller::registry::{ClockworkFactory, SchedulerFactory};
use clockwork_controller::request::RejectReason;
use clockwork_model::Tier;
use simbench::measure::{self, RunCost, SetupTimes, SimOutcome};
use simbench::stats::{self, median, percentile_sorted, tail_percentile};
use simbench::timing::{Callback, Ledger, TimingFactory};
use simbench::workload::{Workload, DEFAULT_SEED};
use simbench::{probe, procfs};

const USAGE: &str =
    "usage: simbench --workload <flagship|fleet_churn|flash_crowd|flagship_2shard> [--seed N] [--seconds S] [--trace 0|1]";

/// Set-up repetitions per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Every rejection reason, in the order `controller.rejects.*` is reported.
const REJECT_REASONS: [RejectReason; 6] = [
    RejectReason::CannotMeetSlo,
    RejectReason::DeadlineElapsed,
    RejectReason::UnknownModel,
    RejectReason::WorkerRejected,
    RejectReason::WorkerFailed,
    RejectReason::BestEffortShed,
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed: not an integer: {value}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: not a duration: {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// The result line and everything that decides it.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

impl Outcome {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.violations.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("simbench: metric {} is not a number ({})", m.name, m.value);
        return ExitCode::FAILURE;
    }
    for m in &outcome.metrics {
        eprintln!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for v in &outcome.violations {
        eprintln!("CORRECTNESS VIOLATION: {v}");
    }
    println!("{}", outcome.json());
    if outcome.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One set-up plus run of the workload under `factory`; the unsharded
/// system is returned for inspection.
struct Rep {
    setup: SetupTimes,
    cost: RunCost,
    sim: SimOutcome,
    system: Option<ServingSystem>,
}

fn rep(
    w: Workload,
    seed: u64,
    factory: &(dyn SchedulerFactory + Sync),
    violations: &mut Vec<String>,
) -> Result<Rep, String> {
    let label = format!("{}@{seed}", w.name());
    match w.sharded_spec(seed, w.duration_secs()) {
        Some(sharded) => {
            let setup = measure::plan_shards(&sharded);
            let (cost, sim) = measure::run_sharded(&label, &sharded, factory, violations)?;
            Ok(Rep {
                setup,
                cost,
                sim,
                system: None,
            })
        }
        None => {
            let spec = w.spec(seed, w.duration_secs());
            let prepared = measure::prepare(&spec, factory)?;
            let setup = prepared.times;
            let (cost, sim, system) = measure::run_unsharded(&label, &spec, prepared, violations)?;
            Ok(Rep {
                setup,
                cost,
                sim,
                system: Some(system),
            })
        }
    }
}

/// Set-up alone (the system is dropped unrun), for extra `setup_s` samples.
fn setup_only(w: Workload, seed: u64, factory: &ClockworkFactory) -> Result<f64, String> {
    Ok(match w.sharded_spec(seed, w.duration_secs()) {
        Some(sharded) => measure::plan_shards(&sharded).total(),
        None => measure::prepare(&w.spec(seed, w.duration_secs()), factory)?
            .times
            .total(),
    })
}

/// A repetition must reproduce the frozen digest at its seed, if one is
/// frozen, and any earlier repetition of the same seed.
fn check_digest(
    w: Workload,
    seed: u64,
    digest: u64,
    earlier: Option<u64>,
    violations: &mut Vec<String>,
) {
    for (expected, what) in [
        (w.frozen_digest(seed), "frozen"),
        (earlier, "earlier repetition's"),
    ] {
        if let Some(expected) = expected.filter(|&e| e != digest) {
            violations.push(format!(
                "{} at seed {seed}: digest {digest:016x} != {what} {expected:016x}",
                w.name()
            ));
        }
    }
}

/// Simulated outcomes pooled over a run's seeds.
#[derive(Default)]
struct Pool {
    submitted: u64,
    goodput: u64,
    strict_submitted: u64,
    strict_goodput: u64,
    latencies_ns: Vec<u64>,
}

impl Pool {
    fn add(&mut self, sim: &SimOutcome) {
        let strict = sim.metrics.tier(Tier::Strict);
        self.submitted += sim.submitted;
        self.goodput += sim.metrics.goodput;
        self.strict_submitted += strict.submitted;
        self.strict_goodput += strict.goodput;
        self.latencies_ns.extend_from_slice(&sim.latencies_ns);
    }
}

/// `--trace 0`: simulate each of the workload's seeds once, then repeat
/// them in turn while `--seconds` allows. `run_s` and `cpu_s` are medians
/// over every repetition of its time corrected by the host-speed probe
/// taken around it, in reference-host seconds; `setup_s` is uncorrected.
/// Simulated outcomes are pooled over the seeds' first repetitions, so
/// they depend on the seed alone.
fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let started = Instant::now();
    let w = args.workload;
    let seeds = w.run_seeds(args.seed);
    let factory = ClockworkFactory::default();
    let mut violations = Vec::new();
    let mut setup_s = Vec::new();
    for _ in 1..SETUP_REPS {
        setup_s.push(setup_only(w, args.seed, &factory)?);
    }
    let (mut run_s, mut cpu_s) = (Vec::new(), Vec::new());
    let mut digests = Vec::new();
    let mut pool = Pool::default();
    let mut peak_rss_mib = 0.0;
    let (mut attempted, mut failed) = (0, 0);
    for (i, &seed) in seeds.iter().cycle().enumerate() {
        let rep_start = Instant::now();
        let before = probe::probe_secs();
        let r = rep(w, seed, &factory, &mut violations)?;
        drop(r.system);
        let speed = probe::host_speed(before, probe::probe_secs());
        check_digest(
            w,
            seed,
            r.sim.digest,
            digests.get(i % seeds.len()).copied(),
            &mut violations,
        );
        eprintln!(
            "repetition {} (seed {seed}): setup {:.4} s, run {:.4} s, cpu {:.2} s, host speed {speed:.3}, {} requests, {} events, digest {:016x}",
            i + 1,
            r.setup.total(),
            r.cost.run_s,
            r.cost.cpu_s,
            r.sim.submitted,
            r.sim.events,
            r.sim.digest
        );
        setup_s.push(r.setup.total());
        run_s.push(r.cost.run_s * speed);
        cpu_s.push(r.cost.cpu_s * speed);
        attempted += r.sim.submitted;
        failed += r.sim.unanswered();
        if i < seeds.len() {
            digests.push(r.sim.digest);
            pool.add(&r.sim);
            // The peak once every seed has run, before the timing-only
            // repetitions, so it does not grow with their number.
            peak_rss_mib = procfs::peak_rss_mib()?;
        }
        // Every seed runs once; after that, stop before a repetition that
        // would overrun the budget.
        let last = rep_start.elapsed().as_secs_f64();
        if i + 1 >= seeds.len() && started.elapsed().as_secs_f64() + last > args.seconds {
            break;
        }
    }
    let latencies = pool.latencies_ns.len() as u64;
    if tail_percentile(latencies).is_none_or(|p| p < 99.9) {
        violations.push(format!(
            "{}: {latencies} successful requests leave fewer than {} beyond p99.9",
            w.name(),
            stats::TAIL_SUPPORT
        ));
    }
    pool.latencies_ns.sort_unstable();
    let mut out = Outcome {
        metrics: Vec::new(),
        attempted,
        failed,
        violations,
    };
    out.push("setup_s", median(&setup_s), "s");
    out.push("run_s", median(&run_s), "s");
    out.push("cpu_s", median(&cpu_s), "s");
    out.push("peak_rss_mb", peak_rss_mib, "MiB");
    out.push("goodput_frac", ratio(pool.goodput, pool.submitted), "ratio");
    out.push(
        "strict_retention",
        ratio(pool.strict_goodput, pool.strict_submitted),
        "ratio",
    );
    out.push(
        "lat_p50_ms",
        percentile_sorted(&pool.latencies_ns, 50.0) as f64 / 1e6,
        "virtual_ms",
    );
    out.push(
        "lat_p999_ms",
        percentile_sorted(&pool.latencies_ns, 99.9) as f64 / 1e6,
        "virtual_ms",
    );
    Ok(out)
}

/// A set-up or run phase of the traced repetition.
struct Phase {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

/// `--trace 1`: pairs of a plain and a traced repetition of the run's first
/// seed, while `--seconds` allows (at least one pair). The per-layer metrics
/// and spans come from the first traced repetition; the tracing overhead
/// compares the median run times of the two sides.
fn traced(args: &Args) -> Result<Outcome, String> {
    let started = Instant::now();
    let (w, seed) = (args.workload, args.seed);
    let mut violations = Vec::new();
    let (mut plain_runs, mut traced_runs) = (Vec::new(), Vec::new());
    let mut first = None;
    loop {
        let pair_start = Instant::now();
        let plain = rep(w, seed, &ClockworkFactory::default(), &mut violations)?;
        drop(plain.system);
        check_digest(w, seed, plain.sim.digest, None, &mut violations);

        let epoch = Instant::now();
        let timing = TimingFactory::new(ClockworkFactory::default(), epoch);
        let traced = rep(w, seed, &timing, &mut violations)?;
        check_digest(
            w,
            seed,
            traced.sim.digest,
            Some(plain.sim.digest),
            &mut violations,
        );
        let workers = traced.system.as_ref().map(worker_totals);
        drop(traced.system);
        let ledgers = timing.take_ledgers();
        plain_runs.push(plain.cost.run_s);
        traced_runs.push(traced.cost.run_s);
        if first.is_none() {
            let phases = phases(&traced.setup, traced.cost.run_s);
            let path = write_spans(w, &phases, &ledgers)?;
            eprintln!("spans written to {}", path.display());
            first = Some((traced.setup, traced.cost, traced.sim, workers, ledgers));
        }
        let last = pair_start.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + last > args.seconds {
            break;
        }
    }
    let (setup, cost, sim, workers, ledgers) = first.expect("at least one pair ran");
    // Trace generation happens inside shard planning on the sharded
    // workload; time it on its own there.
    let generate_s = match w.shards() {
        Some(_) => {
            let t = Instant::now();
            let trace = w.spec(seed, w.duration_secs()).generated_trace();
            let s = t.elapsed().as_secs_f64();
            drop(std::hint::black_box(trace));
            s
        }
        None => setup.generate_s,
    };
    let mut out = Outcome {
        metrics: Vec::new(),
        attempted: sim.submitted,
        failed: sim.unanswered(),
        violations,
    };
    layer_metrics(
        &mut out,
        &LayerInputs {
            plain_run_s: median(&plain_runs),
            traced_run_s: median(&traced_runs),
            generate_s,
            setup,
            cost,
            sim: &sim,
            workers,
            ledgers: &ledgers,
        },
    )?;
    Ok(out)
}

/// The set-up and run phases of a repetition, laid end to end from when it
/// began (the phases run back to back).
fn phases(setup: &SetupTimes, run_s: f64) -> Vec<Phase> {
    let mut at = 0;
    let mut phases = Vec::new();
    for (name, secs) in [
        ("plan", setup.plan_s),
        ("generate", setup.generate_s),
        ("assemble", setup.assemble_s),
        ("submit", setup.submit_s),
        ("run", run_s),
    ] {
        if secs > 0.0 {
            let dur_ns = (secs * 1e9) as u64;
            phases.push(Phase {
                name,
                start_ns: at,
                dur_ns,
            });
            at += dur_ns;
        }
    }
    phases
}

/// Worker-layer totals of an unsharded run.
struct WorkerTotals {
    infers: u64,
    loads: u64,
    successes: u64,
    received: u64,
    window_rejections: u64,
    dropped_actions: u64,
    gpu_util: f64,
    pcie_util: f64,
}

fn worker_totals(system: &ServingSystem) -> WorkerTotals {
    let horizon = system.now();
    let workers = system.workers();
    let mut t = WorkerTotals {
        infers: 0,
        loads: 0,
        successes: 0,
        received: 0,
        window_rejections: 0,
        dropped_actions: 0,
        gpu_util: 0.0,
        pcie_util: 0.0,
    };
    for w in workers {
        let tel = w.telemetry();
        let c = &tel.counters;
        t.infers += c.infers_completed;
        t.loads += c.loads_completed;
        t.successes += c.successes();
        t.received += c.successes() + c.window_rejections + c.failures + c.dropped_actions;
        t.window_rejections += c.window_rejections;
        t.dropped_actions += c.dropped_actions;
        t.gpu_util += tel.mean_gpu_utilization(horizon);
        t.pcie_util += tel.mean_pcie_utilization(horizon);
    }
    let n = workers.len().max(1) as f64;
    t.gpu_util /= n;
    t.pcie_util /= n;
    t
}

struct LayerInputs<'a> {
    plain_run_s: f64,
    traced_run_s: f64,
    generate_s: f64,
    setup: SetupTimes,
    cost: RunCost,
    sim: &'a SimOutcome,
    workers: Option<WorkerTotals>,
    ledgers: &'a [Ledger],
}

fn layer_metrics(out: &mut Outcome, x: &LayerInputs) -> Result<(), String> {
    let sim = x.sim;
    let spans = || x.ledgers.iter().flat_map(|l| l.spans.iter());
    let next_tick_calls: u64 = x.ledgers.iter().map(|l| l.next_tick_calls).sum();
    let next_tick_ns: u64 = x.ledgers.iter().map(|l| l.next_tick_ns).sum();
    let run_callback_ns = spans()
        .filter(|s| s.callback.in_run())
        .map(|s| s.dur_ns)
        .chain([next_tick_ns]);
    // The run is the shards' own simulation time summed on the sharded
    // workload, so that each shard's callbacks subtract from its own run.
    let run_ns = (x.cost.sum_shard_s * 1e9) as u64;
    let self_ns = stats::self_time(run_ns, run_callback_ns)
        .ok_or("controller spans claim more time than the run took")?;
    let controller_ns = run_ns - self_ns;

    out.push("workload.generate_s", x.generate_s, "s");
    out.push("workload.requests", sim.submitted as f64, "count");

    out.push("facade.assemble_s", x.setup.assemble_s, "s");
    out.push("facade.submit_s", x.setup.submit_s, "s");
    out.push("facade.self_s", self_ns as f64 / 1e9, "s");
    out.push("facade.events", sim.events as f64, "count");
    out.push(
        "facade.events_per_s",
        sim.events as f64 / x.plain_run_s,
        "1/s",
    );
    for e in &sim.mix {
        out.push(
            format!("facade.events.{}", e.kind),
            e.delivered as f64,
            "count",
        );
    }
    let cancelled: u64 = sim.mix.iter().map(|e| e.cancelled).sum();
    out.push("facade.events_cancelled", cancelled as f64, "count");
    out.push("facade.noop_wakes", sim.noop_wakes as f64, "count");

    for cb in Callback::ALL {
        let mut durs: Vec<u64> = spans()
            .filter(|s| s.callback == cb)
            .map(|s| s.dur_ns)
            .collect();
        let total_s = durs.iter().sum::<u64>() as f64 / 1e9;
        let name = cb.label();
        if cb.in_run() {
            durs.sort_unstable();
            let n = durs.len() as u64;
            // Fewer than 20 calls support no percentile; report the slowest.
            let tail = tail_percentile(n).map_or_else(
                || durs.last().copied().unwrap_or(0),
                |p| percentile_sorted(&durs, p),
            );
            out.push(format!("controller.{name}.calls"), n as f64, "count");
            out.push(format!("controller.{name}.total_s"), total_s, "s");
            out.push(
                format!("controller.{name}.p50_us"),
                percentile_sorted(&durs, 50.0) as f64 / 1e3,
                "us",
            );
            out.push(
                format!("controller.{name}.tail_us"),
                tail as f64 / 1e3,
                "us",
            );
        } else {
            out.push(format!("controller.{name}.total_s"), total_s, "s");
        }
    }
    out.push(
        "controller.next_tick.calls",
        next_tick_calls as f64,
        "count",
    );
    out.push(
        "controller.next_tick.total_s",
        next_tick_ns as f64 / 1e9,
        "s",
    );
    let callbacks = spans().filter(|s| s.callback.in_run()).count() as u64;
    let productive = spans()
        .filter(|s| s.callback.in_run() && s.actions > 0)
        .count() as u64;
    out.push("controller.callbacks", callbacks as f64, "count");
    out.push(
        "controller.productive_ratio",
        ratio(productive, callbacks),
        "ratio",
    );
    out.push(
        "controller.actions_emitted",
        spans().map(|s| u64::from(s.actions)).sum::<u64>() as f64,
        "count",
    );
    out.push(
        "controller.responses_emitted",
        spans().map(|s| u64::from(s.responses)).sum::<u64>() as f64,
        "count",
    );
    out.push("controller.share", ratio(controller_ns, run_ns), "ratio");
    let p = &sim.sched;
    out.push("controller.ticks_full", p.ticks_full as f64, "count");
    out.push("controller.ticks_skipped", p.ticks_skipped as f64, "count");
    out.push(
        "controller.candidates_scanned",
        p.candidates_scanned as f64,
        "count",
    );
    out.push(
        "controller.strategies_recomputed",
        p.strategies_recomputed as f64,
        "count",
    );
    out.push(
        "controller.load_prio_recomputes",
        p.load_prio_recomputes as f64,
        "count",
    );
    for reason in REJECT_REASONS {
        let n = sim
            .metrics
            .rejections
            .get(reason.as_str())
            .copied()
            .unwrap_or(0);
        out.push(
            format!("controller.rejects.{}", reason.as_str()),
            n as f64,
            "count",
        );
    }

    // The sharded runner returns no per-worker telemetry; those workers'
    // counters read 0 there (see the README).
    let wt = x.workers.as_ref();
    let count = |f: fn(&WorkerTotals) -> u64| wt.map_or(0.0, |t| f(t) as f64);
    out.push("worker.infers", count(|t| t.infers), "count");
    out.push("worker.loads", count(|t| t.loads), "count");
    out.push("worker.mean_batch", sim.metrics.mean_batch, "requests");
    out.push(
        "worker.window_rejections",
        count(|t| t.window_rejections),
        "count",
    );
    out.push(
        "worker.dropped_actions",
        count(|t| t.dropped_actions),
        "count",
    );
    out.push(
        "worker.useful_action_ratio",
        wt.map_or(0.0, |t| ratio(t.successes, t.received)),
        "ratio",
    );
    out.push("worker.gpu_util", wt.map_or(0.0, |t| t.gpu_util), "ratio");
    out.push("worker.pcie_util", wt.map_or(0.0, |t| t.pcie_util), "ratio");
    out.push(
        "worker.cold_start_frac",
        sim.metrics.cold_start_fraction(),
        "ratio",
    );

    let pushed: u64 = sim.mix.iter().map(|e| e.pushed).sum();
    let delivered: u64 = sim.mix.iter().map(|e| e.delivered).sum();
    out.push("sim.pushed", pushed as f64, "count");
    out.push("sim.delivered", delivered as f64, "count");
    out.push("sim.cancelled", cancelled as f64, "count");

    let shards = x.ledgers.len().max(1) as f64;
    out.push("shard.plan_s", x.setup.plan_s, "s");
    out.push("shard.max_run_s", x.cost.max_shard_s, "s");
    out.push("shard.sum_run_s", x.cost.sum_shard_s, "s");
    out.push(
        "shard.imbalance",
        x.cost.max_shard_s / (x.cost.sum_shard_s / shards),
        "ratio",
    );
    out.push("shard.parallelism", x.cost.cpu_s / x.cost.run_s, "ratio");

    out.push("bench.untraced_run_s", x.plain_run_s, "s");
    out.push("bench.traced_run_s", x.traced_run_s, "s");
    out.push(
        "bench.trace_overhead",
        x.traced_run_s / x.plain_run_s - 1.0,
        "ratio",
    );
    out.push("bench.spans", spans().count() as f64, "count");
    Ok(())
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Writes the traced run's spans as CSV, one span a line: the set-up and
/// run phases first (laid end to end from the repetition's start, no
/// parent), then every callback span with the phase that contains it as
/// its parent. `ledger` tells the shards' schedulers apart.
fn write_spans(
    workload: Workload,
    phases: &[Phase],
    ledgers: &[Ledger],
) -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.spans.csv", workload.name()));
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut w = BufWriter::new(File::create(&path).map_err(io)?);
    writeln!(w, "span,ledger,id,start_ns,dur_ns,actions,responses,parent").map_err(io)?;
    for p in phases {
        writeln!(w, "{},,,{},{},,,", p.name, p.start_ns, p.dur_ns).map_err(io)?;
    }
    // Shards assemble inside the sharded run.
    let assembly_parent = if workload.shards().is_some() {
        "run"
    } else {
        "assemble"
    };
    for (ledger, l) in ledgers.iter().enumerate() {
        for s in &l.spans {
            writeln!(
                w,
                "{},{ledger},{},{},{},{},{},{}",
                s.callback.label(),
                s.id,
                s.start_ns,
                s.dur_ns,
                s.actions,
                s.responses,
                if s.callback.in_run() {
                    "run"
                } else {
                    assembly_parent
                }
            )
            .map_err(io)?;
        }
    }
    w.flush().map_err(io)?;
    Ok(path)
}
