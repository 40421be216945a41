//! Fleet-scale perf scenario: 20 workers × 4 GPUs under Azure-derived load.
//!
//! Unlike the figure binaries, this scenario exists to measure the
//! *simulator* rather than the system it simulates: it drives a cluster an
//! order of magnitude larger than the paper's testbed (80 GPUs, 200 model
//! instances sampled from the Appendix A zoo, an open-loop MAF-like
//! workload) and reports how fast the event loop chews through it —
//! wall-clock events per second — alongside the usual serving metrics
//! (goodput, SLO violation rate) and a peak-RSS proxy. Results are written
//! to `BENCH_fleet.json` at the repo root; CI's `perf-smoke` job replays a
//! fixed-work prefix (`--events 500000`) and fails the build if events/sec
//! regresses more than 30 % below the checked-in baseline
//! (`crates/bench/baseline/BENCH_fleet.json`).
//!
//! The scenario itself is `ScenarioSpec::fleet_scale()`, shared with the
//! `chaos_fleet` and `chaos_compare` harnesses so a chaos run differs from
//! this one only by its fault plan; `Experiment::run` owns the whole
//! build/submit/run loop.
//!
//! The run is deterministic: the telemetry layer folds every response into
//! an order-sensitive FNV-1a digest, and two runs with the same seed must
//! print the same digest (`--expect-digest` turns a mismatch into a non-zero
//! exit for the golden-digest check).
//!
//! `--scenario shard_fleet` runs the unsharded flagship instead
//! (`ShardedSpec::shard_fleet(1).base`: 200 workers × 4 GPUs, 2 000 models,
//! 15 k r/s — byte-identical to the 1-shard fleet). CI's second perf gate
//! replays a capped prefix of it against
//! `crates/bench/baseline/BENCH_shard_fleet.json`: at that size a per-event
//! cost that grows with the fleet dominates, while at 20 workers it hides.
//!
//! Usage:
//! ```text
//! cargo run --release -p bench --bin fleet_scale -- \
//!     [--scenario fleet_scale|shard_fleet] [--events N] [--out PATH] \
//!     [--baseline PATH] [--seed N] [--expect-digest HEX] [--tick-profile]
//! ```
//!
//! `--tick-profile` additionally prints the per-full-tick work breakdown
//! (candidates scanned, strategy rebuilds, load-priority recomputes) derived
//! from the scheduler's self-profiling counters.

use clockwork::prelude::*;
use clockwork_shard::ShardedSpec;

/// Maximum tolerated drop of events/sec below the baseline (CI gate).
const REGRESSION_TOLERANCE: f64 = 0.30;

struct Args {
    scenario: String,
    max_events: u64,
    out: String,
    baseline: Option<String>,
    seed: u64,
    expect_digest: Option<u64>,
    tick_profile: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        scenario: "fleet_scale".to_string(),
        max_events: u64::MAX,
        out: "BENCH_fleet.json".to_string(),
        baseline: None,
        seed: 2020,
        expect_digest: None,
        tick_profile: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--scenario" => args.scenario = value("--scenario"),
            "--events" => args.max_events = value("--events").parse().expect("--events: integer"),
            "--out" => args.out = value("--out"),
            "--baseline" => args.baseline = Some(value("--baseline")),
            "--seed" => args.seed = value("--seed").parse().expect("--seed: integer"),
            "--expect-digest" => {
                let v = value("--expect-digest");
                let hex = v.trim_start_matches("0x");
                args.expect_digest =
                    Some(u64::from_str_radix(hex, 16).expect("--expect-digest: hex u64"));
            }
            "--tick-profile" => args.tick_profile = true,
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let spec = match args.scenario.as_str() {
        "fleet_scale" => ScenarioSpec::fleet_scale(),
        "shard_fleet" => ShardedSpec::shard_fleet(1).base,
        other => panic!("--scenario: expected fleet_scale or shard_fleet, got {other}"),
    }
    .with_seed(args.seed);
    let smoke = args.max_events != u64::MAX;
    println!(
        "# {} scenario: {} workers x {} GPUs, {} models over {}s{}",
        spec.name,
        spec.workers,
        spec.gpus_per_worker,
        spec.models,
        spec.duration_secs,
        if smoke {
            format!(" (smoke: first {} events)", args.max_events)
        } else {
            String::new()
        }
    );

    let report =
        Experiment::new(spec.clone()).run_capped(&ClockworkFactory::default(), args.max_events);

    let events = report.events_processed();
    let events_per_sec = report.events_per_sec();
    let wall_secs = report.wall_secs;
    let digest = report.digest();
    let m = report.metrics();
    let slo_violation_rate = 1.0 - m.satisfaction();
    let rss_kb = bench::peak_rss_kb();

    bench::section("fleet_scale results");
    println!(
        "discipline={} submitted={} requests={} goodput={} goodput_rps={:.1} slo_violation_rate={:.4} p50_ms={:.2} p99_ms={:.2}",
        report.discipline,
        report.submitted,
        m.total_requests,
        m.goodput,
        m.goodput_rate(),
        slo_violation_rate,
        m.latency.percentile(50.0).as_millis_f64(),
        m.latency.percentile(99.0).as_millis_f64(),
    );
    println!(
        "events={events} wall_secs={wall_secs:.2} events_per_sec={events_per_sec:.0} peak_rss_kb={rss_kb}"
    );
    println!("digest={digest:016x}");

    // Event-mix breakdown + conservation check: a wake-amplification
    // regression shows up here as worker_wake dominating `delivered`, and a
    // missing cancel shows up as a conservation violation.
    let mix = report.event_mix().clone();
    let live = report.live_events();
    let mix_ok = bench::report_event_mix(&mix, live);
    let events_json = bench::event_mix_json(&mix, live);

    let sched = report.sched_stats();
    bench::section("scheduler self-profiling");
    bench::report_sched_profile(&report.discipline, &sched);
    if args.tick_profile {
        // Per-tick breakdown of where scheduler passes spend their work —
        // the knob for diagnosing a tick-pipeline regression without a
        // profiler attached.
        let full = sched.ticks_full.max(1) as f64;
        println!(
            "per full tick: candidates={:.2} strategy_rebuilds={:.3} load_prio_recomputes={:.3}",
            sched.candidates_scanned as f64 / full,
            sched.strategies_recomputed as f64 / full,
            sched.load_prio_recomputes as f64 / full,
        );
        println!(
            "tick density: {:.3} full ticks per 1k delivered events ({} full / {} delivered)",
            1000.0 * sched.ticks_full as f64 / events.max(1) as f64,
            sched.ticks_full,
            events,
        );
    }

    let json = format!(
        "{{\n  \"scenario\": {{\n    \"workers\": {workers},\n    \"gpus_per_worker\": {gpus},\n    \"models\": {models},\n    \"functions\": {functions},\n    \"duration_secs\": {duration},\n    \"target_rate\": {rate},\n    \"slo_ms\": {slo},\n    \"seed\": {seed},\n    \"smoke\": {smoke},\n    \"max_events\": {max_events}\n  }},\n  \"discipline\": \"{discipline}\",\n  \"serving\": {{\n    \"requests\": {requests},\n    \"goodput\": {goodput},\n    \"goodput_rps\": {goodput_rps:.1},\n    \"slo_violation_rate\": {slo_violation_rate:.6},\n    \"p50_ms\": {p50:.3},\n    \"p99_ms\": {p99:.3},\n    \"cold_start_fraction\": {cold:.6}\n  }},\n  \"perf\": {{\n    \"events_processed\": {events},\n    \"wall_secs\": {wall_secs:.3},\n    \"events_per_sec\": {events_per_sec:.0},\n    \"peak_rss_kb\": {rss_kb}\n  }},\n  \"events\": {events_json},\n  \"sched\": {sched_json},\n  \"digest\": \"{digest:016x}\"\n}}\n",
        workers = spec.workers,
        gpus = spec.gpus_per_worker,
        models = spec.models,
        functions = match spec.workload {
            WorkloadSpec::Azure { functions, .. } => functions,
            _ => 0,
        },
        duration = spec.duration_secs,
        rate = match spec.workload {
            WorkloadSpec::Azure { target_rate, .. } => target_rate,
            _ => 0.0,
        },
        slo = spec.slo_ms,
        seed = args.seed,
        max_events = if smoke { args.max_events } else { 0 },
        discipline = report.discipline,
        requests = m.total_requests,
        goodput = m.goodput,
        goodput_rps = m.goodput_rate(),
        p50 = m.latency.percentile(50.0).as_millis_f64(),
        p99 = m.latency.percentile(99.0).as_millis_f64(),
        cold = m.cold_start_fraction(),
        sched_json = bench::sched_json(&sched),
    );
    std::fs::write(&args.out, &json).expect("write results json");
    println!("# wrote {}", args.out);

    let mut failed = false;
    if !mix_ok {
        // report_event_mix already printed the violation.
        failed = true;
    }
    if let Some(expected) = args.expect_digest {
        if expected != digest {
            eprintln!("DIGEST MISMATCH: expected {expected:016x}, got {digest:016x}");
            failed = true;
        } else {
            println!("# digest matches expected value");
        }
    }
    if let Some(baseline_path) = &args.baseline {
        let baseline = std::fs::read_to_string(baseline_path).expect("read baseline json");
        let base_eps = bench::json_number(&baseline, "events_per_sec")
            .expect("baseline json has no events_per_sec");
        let floor = base_eps * (1.0 - REGRESSION_TOLERANCE);
        println!(
            "# perf gate: {events_per_sec:.0} events/sec vs baseline {base_eps:.0} (floor {floor:.0})"
        );
        if events_per_sec < floor {
            eprintln!(
                "PERF REGRESSION: {events_per_sec:.0} events/sec is more than {:.0}% below baseline {base_eps:.0}",
                REGRESSION_TOLERANCE * 100.0
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
