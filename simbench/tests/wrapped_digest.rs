//! The benchmark's scheduler wrappers are decision-neutral: on every
//! workload, at a short duration, a run through the callback-timing wrapper
//! (and, on the sharded workload, the response tap) gives the same response
//! digest as the plain Clockwork scheduler. The traced run therefore
//! measures the same program as the end-to-end run.

use std::time::Instant;

use clockwork::prelude::ClockworkFactory;
use clockwork_controller::registry::SchedulerFactory;
use clockwork_shard::ShardedExperiment;
use simbench::measure;
use simbench::timing::{Callback, TimingFactory};
use simbench::workload::Workload;

/// Virtual seconds per workload: long enough for the churn plan to fire.
const SECS: u64 = 6;

/// Event cap that keeps the flagship (a full re-plan over hundreds of
/// queued models per event) to a few host seconds.
const FLAGSHIP_EVENT_CAP: u64 = 20_000;

fn unsharded_digest(w: Workload, factory: &dyn SchedulerFactory) -> (u64, u64) {
    let spec = w.spec(11, SECS);
    let mut prepared = measure::prepare(&spec, factory).unwrap();
    let cap = match w {
        Workload::Flagship => FLAGSHIP_EVENT_CAP,
        _ => u64::MAX,
    };
    prepared.system.run_until_events(spec.horizon(), cap);
    let requests = prepared.system.telemetry().metrics().total_requests;
    (prepared.system.telemetry().response_digest(), requests)
}

#[test]
fn wrapped_runs_are_byte_identical() {
    for w in Workload::ALL.into_iter().filter(|w| w.shards().is_none()) {
        let (plain, _) = unsharded_digest(w, &ClockworkFactory::default());
        let timing = TimingFactory::new(ClockworkFactory::default(), Instant::now());
        let (wrapped, requests) = unsharded_digest(w, &timing);
        assert_eq!(
            plain,
            wrapped,
            "{}: timing wrapper changed a decision",
            w.name()
        );

        let ledgers = timing.take_ledgers();
        assert_eq!(ledgers.len(), 1, "{}: one scheduler, one ledger", w.name());
        let calls = |cb| ledgers[0].spans.iter().filter(|s| s.callback == cb).count() as u64;
        assert_eq!(
            calls(Callback::OnRequest),
            requests,
            "{}: a span per request",
            w.name()
        );
        assert!(calls(Callback::AddModel) > 0 && calls(Callback::OnResult) > 0);
        if w == Workload::FleetChurn {
            assert!(calls(Callback::OnFault) > 0, "the churn plan fired");
        }
    }
}

#[test]
fn wrapped_sharded_runs_are_byte_identical() {
    let w = Workload::Flagship2Shard;
    let sharded = w.sharded_spec(11, 1).unwrap();
    let plain = ShardedExperiment::new(sharded.clone())
        .run(&ClockworkFactory::default())
        .fleet_digest();

    let mut violations = Vec::new();
    let (_, tapped) = measure::run_sharded(
        "tapped",
        &sharded,
        &ClockworkFactory::default(),
        &mut violations,
    )
    .unwrap();
    assert_eq!(tapped.digest, plain, "the response tap changed a decision");
    assert_eq!(
        tapped.latencies_ns.len() as u64,
        tapped.metrics.successes,
        "the tap saw every success"
    );

    let timing = TimingFactory::new(ClockworkFactory::default(), Instant::now());
    let (_, timed) = measure::run_sharded("timed", &sharded, &timing, &mut violations).unwrap();
    assert_eq!(timed.digest, plain, "the timing wrapper changed a decision");
    assert_eq!(
        timing.take_ledgers().len(),
        2,
        "one ledger per shard thread"
    );
    assert!(violations.is_empty(), "{violations:?}");
}
