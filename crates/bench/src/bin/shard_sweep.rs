//! The shard sweep: the same fleet-scale workload under 1, 2, 4 and 8
//! controller shards — the repo's first parallel-speedup curve.
//!
//! The scenario is [`ShardedSpec::shard_fleet`]: 200 workers × 4 GPUs,
//! 2 000 zoo models, the Azure-derived trace at 15 000 r/s — an order of
//! magnitude past the fleet-scale baseline, the population a single
//! controller simulation struggles with. The sweep holds the *total* fleet
//! and workload fixed and varies only the shard count, so every row answers
//! the same question: what does splitting the controller buy?
//!
//! Two effects contribute to the curve:
//!
//! - **Parallelism**: each shard simulates on its own `std::thread`, so
//!   with cores to spare the fleet's wall clock is the slowest shard, not
//!   the sum (`max_shard_wall` vs `sum_shard_wall` in the output).
//! - **Smaller controllers**: whatever per-event work still grows with
//!   controller state shrinks with the shard (~1.6× less CPU at 4-8 shards;
//!   `crates/bench/README.md` breaks it down). `sum_shard_wall` sums thread
//!   wall time, which overstates CPU once shards outnumber cores.
//!
//! Every row is gated, not just reported: per-shard event conservation,
//! no over-delivery, the global exactly-once identity on drained runs, and
//! (under `--check-determinism`) a byte-identical fleet digest on rerun.
//! Any violation exits non-zero. The 1-shard row additionally pins the
//! sharded runner to the unsharded oracle by construction (see the
//! `shard_equivalence` tests).
//!
//! Results go to `BENCH_shard.json` (schema in `crates/bench/README.md`).
//!
//! Usage:
//! ```text
//! cargo run --release -p bench --bin shard_sweep -- \
//!     [--shards 1,2,4,8] [--duration-secs N] [--seed N] \
//!     [--router hash|load] [--out PATH] [--check-determinism]
//! ```

use clockwork::prelude::*;
use clockwork_shard::{FleetReport, ShardAssignment, ShardedExperiment, ShardedSpec};

struct Args {
    shards: Vec<u32>,
    duration_secs: Option<u64>,
    seed: Option<u64>,
    router: ShardAssignment,
    out: String,
    check_determinism: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        shards: vec![1, 2, 4, 8],
        duration_secs: None,
        seed: None,
        router: ShardAssignment::HashByModel,
        out: "BENCH_shard.json".to_string(),
        check_determinism: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--shards" => {
                args.shards = value("--shards")
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .expect("--shards: comma-separated integers")
                    })
                    .collect();
                assert!(!args.shards.is_empty(), "--shards: need at least one count");
            }
            "--duration-secs" => {
                args.duration_secs = Some(
                    value("--duration-secs")
                        .parse()
                        .expect("--duration-secs: integer"),
                )
            }
            "--seed" => args.seed = Some(value("--seed").parse().expect("--seed: integer")),
            "--router" => {
                args.router = match value("--router").as_str() {
                    "hash" => ShardAssignment::HashByModel,
                    "load" => ShardAssignment::LoadAware,
                    other => panic!("--router: expected hash or load, got {other}"),
                }
            }
            "--out" => args.out = value("--out"),
            "--check-determinism" => args.check_determinism = true,
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn sharded_spec(args: &Args, shards: u32) -> ShardedSpec {
    let mut spec = ShardedSpec::shard_fleet(shards);
    spec.assignment = args.router.clone();
    if let Some(secs) = args.duration_secs {
        spec.base = spec.base.clone().with_duration_secs(secs);
    }
    if let Some(seed) = args.seed {
        spec.base = spec.base.clone().with_seed(seed);
    }
    spec
}

/// Gates one fleet run on the universal invariants; prints loudly and
/// returns `false` on any violation.
fn check_fleet(label: &str, fleet: &FleetReport) -> bool {
    let mut ok = true;
    if fleet.overdelivered() {
        eprintln!(
            "[{label}] OVERDELIVERY: {} successes + {} rejected > {} total",
            fleet.successes(),
            fleet.rejected(),
            fleet.total_requests()
        );
        ok = false;
    }
    if fleet.drained() && !fleet.identity_ok() {
        eprintln!(
            "[{label}] ACCOUNTING VIOLATION: {} successes + {} rejected != {} total",
            fleet.successes(),
            fleet.rejected(),
            fleet.total_requests()
        );
        ok = false;
    }
    if fleet.submitted() != fleet.total_requests() {
        eprintln!(
            "[{label}] FRONT DOOR LOSS: routed {} but controllers saw {}",
            fleet.submitted(),
            fleet.total_requests()
        );
        ok = false;
    }
    for shard in &fleet.shards {
        if !shard.mix_conserved() {
            eprintln!(
                "[{label}] EVENT ACCOUNTING VIOLATION on shard {}: pushed {} != delivered {} + cancelled {} + live {}",
                shard.shard,
                shard.mix.pushed(),
                shard.mix.delivered(),
                shard.mix.cancelled(),
                shard.live_events
            );
            ok = false;
        }
    }
    ok
}

fn shard_json(fleet: &FleetReport) -> String {
    let rows: Vec<String> = fleet
        .shards
        .iter()
        .map(|s| {
            format!(
                "        {{ \"shard\": {}, \"workers\": {}, \"models\": {}, \"submitted\": {}, \"successes\": {}, \"rejected\": {}, \"goodput\": {}, \"events\": {}, \"wall_secs\": {:.3}, \"digest\": \"{:016x}\" }}",
                s.shard,
                s.workers,
                s.models,
                s.submitted,
                s.metrics.successes,
                s.rejected(),
                s.metrics.goodput,
                s.events_processed,
                s.wall_secs,
                s.digest,
            )
        })
        .collect();
    rows.join(",\n")
}

fn main() {
    let args = parse_args();
    let factory = ClockworkFactory::default();
    let base = sharded_spec(&args, 1).base;
    println!(
        "# shard-sweep: {} over shard counts {:?} ({} workers x {} GPUs, {} models{})",
        base.name,
        args.shards,
        base.workers,
        base.gpus_per_worker,
        base.models,
        if args.check_determinism {
            ", determinism checked"
        } else {
            ""
        },
    );

    let mut failed = false;
    let mut rows: Vec<String> = Vec::new();
    let mut baseline_wall: Option<f64> = None;
    bench::section("shard sweep");
    println!(
        "{:>6} {:>10} {:>8} {:>12} {:>12} {:>9} {:>9} {:>9} {:>8} {:>18}",
        "shards",
        "wall_s",
        "speedup",
        "max_shard_s",
        "sum_shard_s",
        "total",
        "goodput",
        "rejected",
        "evps",
        "fleet_digest"
    );
    for &shards in &args.shards {
        let label = format!("shard_sweep/{shards}");
        let experiment = ShardedExperiment::new(sharded_spec(&args, shards));
        let fleet = experiment.run(&factory);
        if !check_fleet(&label, &fleet) {
            failed = true;
        }
        if args.check_determinism {
            let rerun = experiment.run(&factory);
            if rerun.fleet_digest() != fleet.fleet_digest() {
                eprintln!(
                    "[{label}] DETERMINISM VIOLATION: fleet digest {:016x} != {:016x} on rerun",
                    fleet.fleet_digest(),
                    rerun.fleet_digest()
                );
                failed = true;
            }
        }
        let baseline = *baseline_wall.get_or_insert(fleet.wall_secs);
        let speedup = if fleet.wall_secs > 0.0 {
            baseline / fleet.wall_secs
        } else {
            0.0
        };
        let evps = if fleet.wall_secs > 0.0 {
            fleet.events_processed() as f64 / fleet.wall_secs
        } else {
            0.0
        };
        println!(
            "{:>6} {:>10.3} {:>8.2} {:>12.3} {:>12.3} {:>9} {:>9} {:>9} {:>8.0} {:>18}",
            shards,
            fleet.wall_secs,
            speedup,
            fleet.max_shard_wall(),
            fleet.sum_shard_wall(),
            fleet.total_requests(),
            fleet.goodput(),
            fleet.rejected(),
            evps,
            format!("{:016x}", fleet.fleet_digest()),
        );
        rows.push(format!(
            concat!(
                "    {{\n",
                "      \"shards\": {shards},\n",
                "      \"wall_secs\": {wall:.3},\n",
                "      \"speedup\": {speedup:.3},\n",
                "      \"max_shard_wall_secs\": {max_wall:.3},\n",
                "      \"sum_shard_wall_secs\": {sum_wall:.3},\n",
                "      \"events\": {events},\n",
                "      \"events_per_sec\": {evps:.0},\n",
                "      \"total\": {total},\n",
                "      \"successes\": {successes},\n",
                "      \"rejected\": {rejected},\n",
                "      \"goodput\": {goodput},\n",
                "      \"drained\": {drained},\n",
                "      \"fleet_digest\": \"{digest:016x}\",\n",
                "      \"per_shard\": [\n{per_shard}\n      ]\n",
                "    }}"
            ),
            shards = shards,
            wall = fleet.wall_secs,
            speedup = speedup,
            max_wall = fleet.max_shard_wall(),
            sum_wall = fleet.sum_shard_wall(),
            events = fleet.events_processed(),
            evps = evps,
            total = fleet.total_requests(),
            successes = fleet.successes(),
            rejected = fleet.rejected(),
            goodput = fleet.goodput(),
            drained = fleet.drained(),
            digest = fleet.fleet_digest(),
            per_shard = shard_json(&fleet),
        ));
    }

    let router = match args.router {
        ShardAssignment::HashByModel => "hash",
        ShardAssignment::LoadAware => "load",
        ShardAssignment::Explicit(_) => "explicit",
    };
    let json = format!(
        "{{\n  \"scenario\": {scenario},\n  \"router\": \"{router}\",\n  \"sweep\": [\n{rows}\n  ]\n}}\n",
        scenario = bench::scenario_json(&base, u64::MAX),
        rows = rows.join(",\n"),
    );
    std::fs::write(&args.out, &json).expect("write results json");
    println!("# wrote {}", args.out);

    if failed {
        std::process::exit(1);
    }
}
