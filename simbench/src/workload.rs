//! The benchmark's workloads. All run the Clockwork discipline on an
//! open-loop trace generated up front, so the generator is never late. Why
//! each exists is in the README.
//!
//! A workload's trace is fixed: it is generated from [`TRACE_SEED`], the
//! seed of the repository's frozen experiments. The run's seed drives the
//! simulated system's own randomness (network jitter and latency spikes),
//! and through it every scheduling decision. Drawing the trace from the run
//! seed instead would change the offered load itself: the Azure generator's
//! realised request count moves by about 7 % between seeds, and near
//! saturation that moves median latency by half.

use clockwork::scenario::ScenarioSpec;
use clockwork_shard::ShardedSpec;

/// The seed a run uses when none is given; the frozen digests are taken at it.
pub const DEFAULT_SEED: u64 = 2020;

/// The seed every workload's trace is generated from.
pub const TRACE_SEED: u64 = 2020;

/// Virtual seconds of the flagship trace (15 000 r/s). The flagship costs
/// ~15 host seconds per virtual second on a 2-core host.
pub const FLAGSHIP_SECS: u64 = 1;

/// Virtual seconds of the flash-crowd trace.
pub const FLASH_CROWD_SECS: u64 = 30;

/// `fleet_churn`'s response digest at [`DEFAULT_SEED`]: the frozen chaos
/// digest the repository's `chaos_fleet --expect-digest` gate also pins.
pub const FLEET_CHURN_DIGEST: u64 = 0x4d23_0fcb_e9fc_37ac;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The unsharded 200 × 4 / 2 000-model / 8 000-function flagship.
    Flagship,
    /// The 20 × 4 chaos fleet with scripted churn.
    FleetChurn,
    /// The zoo flash crowd on the 20 × 4 fleet at 5× load.
    FlashCrowd,
    /// The flagship split over two controller shards (two threads).
    Flagship2Shard,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Flagship,
        Workload::FleetChurn,
        Workload::FlashCrowd,
        Workload::Flagship2Shard,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Flagship => "flagship",
            Workload::FleetChurn => "fleet_churn",
            Workload::FlashCrowd => "flash_crowd",
            Workload::Flagship2Shard => "flagship_2shard",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The controller shard count, or `None` for an unsharded workload.
    pub fn shards(self) -> Option<u32> {
        match self {
            Workload::Flagship2Shard => Some(2),
            _ => None,
        }
    }

    /// The system seeds one run simulates for `seed`: `seed` itself first,
    /// then seeds derived from it. The simulated metrics pool them, which
    /// evens out how far one seed's jitter can tip the schedule; the cheaper
    /// a workload, the more seeds.
    pub fn run_seeds(self, seed: u64) -> Vec<u64> {
        let count: u64 = match self {
            Workload::Flagship | Workload::FleetChurn => 2,
            Workload::FlashCrowd | Workload::Flagship2Shard => 4,
        };
        (0..count)
            .map(|i| seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect()
    }

    /// The virtual duration the benchmark runs.
    pub fn duration_secs(self) -> u64 {
        match self {
            Workload::Flagship | Workload::Flagship2Shard => FLAGSHIP_SECS,
            Workload::FleetChurn => ScenarioSpec::chaos_fleet().duration_secs,
            Workload::FlashCrowd => FLASH_CROWD_SECS,
        }
    }

    /// The (unsharded) scenario with system seed `seed` over
    /// `duration_secs` virtual seconds. For the sharded workload this is the
    /// base the shards split.
    pub fn spec(self, seed: u64, duration_secs: u64) -> ScenarioSpec {
        let mut spec = self.preset(duration_secs).with_seed(seed);
        spec.workload_seed = TRACE_SEED;
        spec
    }

    fn preset(self, duration_secs: u64) -> ScenarioSpec {
        match self {
            Workload::Flagship | Workload::Flagship2Shard => ShardedSpec::shard_fleet(1)
                .base
                .named(self.name())
                .with_duration_secs(duration_secs),
            Workload::FleetChurn => {
                // The churn plan scales with the duration, so it is derived
                // after the duration is set (a no-op at the preset's 120 s).
                let spec = ScenarioSpec::chaos_fleet().with_duration_secs(duration_secs);
                let churn = spec.scripted_churn();
                spec.with_faults(churn)
            }
            Workload::FlashCrowd => {
                let mut spec = ScenarioSpec::fleet_scale()
                    .named(self.name())
                    .with_duration_secs(duration_secs);
                spec.workload = ScenarioSpec::flash_crowd().workload;
                spec.with_rate_multiplier(5.0)
            }
        }
    }

    /// The sharded form of [`Workload::spec`], for sharded workloads.
    pub fn sharded_spec(self, seed: u64, duration_secs: u64) -> Option<ShardedSpec> {
        let shards = self.shards()?;
        let mut sharded = ShardedSpec::shard_fleet(shards);
        sharded.base = self.spec(seed, duration_secs);
        Some(sharded)
    }

    /// The response digest the workload must reproduce at `seed`, if one is
    /// frozen.
    pub fn frozen_digest(self, seed: u64) -> Option<u64> {
        (self == Workload::FleetChurn && seed == DEFAULT_SEED).then_some(FLEET_CHURN_DIGEST)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn fleet_churn_is_the_chaos_preset_at_the_default_seed() {
        let w = Workload::FleetChurn;
        assert_eq!(
            w.spec(DEFAULT_SEED, w.duration_secs()),
            ScenarioSpec::chaos_fleet()
        );
    }

    #[test]
    fn the_sharded_flagship_splits_the_flagship() {
        let sharded = Workload::Flagship2Shard.sharded_spec(7, 1).unwrap();
        assert_eq!(sharded.shards, 2);
        assert_eq!(sharded.base.workers, 200);
        assert_eq!(sharded.base.models, 2_000);
        assert_eq!(sharded.base.seed, 7);
        assert_eq!(sharded.base.workload_seed, TRACE_SEED);
        assert!(Workload::Flagship.sharded_spec(7, 1).is_none());
    }
}
