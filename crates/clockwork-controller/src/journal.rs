//! Change journal and self-profiling counters for incremental schedulers.
//!
//! The tick pipeline used to rebuild the world on every 1 ms tick. The
//! incremental core instead records *that something changed* (a dirty bit)
//! and *until when nothing can change on its own* (a clean-until horizon),
//! and skips the tick body whenever both say there is nothing to do.
//!
//! [`ChangeJournal`] is the tiny state machine behind that decision, and
//! [`SchedProfile`] is the counter block schedulers export so the harness
//! (and the `sched` object in the bench JSON artifacts) can see how much
//! work each tick actually did.

use clockwork_sim::time::Timestamp;

/// Dirty-bit + clean-horizon journal driving the early-out `on_tick`.
///
/// Writers ([`ChangeJournal::note_change`]) are the event-driven entry
/// points — request arrival, action result, fault, profile-epoch bump,
/// topology change. The scheduling pass calls
/// [`ChangeJournal::mark_clean_until`] when it finishes, recording the
/// earliest future instant at which pure time passage could make another
/// pass productive (an executor crossing into the lookahead horizon, a
/// deadline expiring, a cold-rejection aging out). A tick is skippable
/// exactly when no change was journaled *and* `now` is still before that
/// horizon — see [`ChangeJournal::needs_pass`].
#[derive(Clone, Debug)]
pub struct ChangeJournal {
    dirty: bool,
    clean_until: Timestamp,
}

impl Default for ChangeJournal {
    fn default() -> Self {
        ChangeJournal::new()
    }
}

impl ChangeJournal {
    /// A fresh journal: dirty, so the first pass always runs.
    pub fn new() -> Self {
        ChangeJournal {
            dirty: true,
            clean_until: Timestamp::ZERO,
        }
    }

    /// Records an externally-driven state change; the next tick must run a
    /// full pass.
    pub fn note_change(&mut self) {
        self.dirty = true;
    }

    /// Records that a full pass just completed and, absent further changes,
    /// no pass before `until` can produce different decisions. Pass
    /// [`Timestamp::MAX`] when the scheduler is quiescent (no time edge
    /// pending at all).
    pub fn mark_clean_until(&mut self, until: Timestamp) {
        self.dirty = false;
        self.clean_until = until;
    }

    /// Whether a tick at `now` must run the full pass.
    pub fn needs_pass(&self, now: Timestamp) -> bool {
        self.dirty || now >= self.clean_until
    }

    /// Whether any change was journaled since the last completed pass.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// The recorded clean horizon ([`Timestamp::MAX`] when quiescent).
    pub fn clean_until(&self) -> Timestamp {
        self.clean_until
    }
}

/// Scheduler self-profiling counters, exported through
/// [`Scheduler::sched_profile`](crate::Scheduler::sched_profile) and folded
/// into run telemetry and the `sched` object of the bench JSON artifacts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedProfile {
    /// Ticks that ran the full scheduling pass.
    pub ticks_full: u64,
    /// Ticks answered by the early-out (no change journaled, clean horizon
    /// not reached).
    pub ticks_skipped: u64,
    /// (model, GPU) candidate pairs examined while placing INFERs.
    pub candidates_scanned: u64,
    /// Per-model strategy-queue rebuilds (cache misses on queue or profile
    /// epoch).
    pub strategies_recomputed: u64,
    /// LOAD-priority order flushes that had something to re-key: at most
    /// one per pass plus one per LOAD dispatch attempt, and none when no
    /// model's demand or residency changed since the previous flush.
    pub load_prio_recomputes: u64,
    /// Scheduling passes run by `on_request` (admitted requests and
    /// cold-start rejections).
    pub passes_request: u64,
    /// Scheduling passes run by `on_result`.
    pub passes_result: u64,
    /// Scheduling passes run by `on_tick` (equal to `ticks_full`).
    pub passes_tick: u64,
    /// Scheduling passes run by `on_fault`.
    pub passes_fault: u64,
    /// GPUs visited by the INFER stages (each visit fills the GPU's
    /// lookahead window or proves nothing fits).
    pub infer_gpus_visited: u64,
    /// GPUs visited by the LOAD stage.
    pub load_gpus_visited: u64,
    /// Models whose LOAD priority was recomputed.
    pub prio_rekeys: u64,
}

impl SchedProfile {
    /// Total ticks observed (full + skipped).
    pub fn ticks(&self) -> u64 {
        self.ticks_full + self.ticks_skipped
    }

    /// Scheduling passes run, over every trigger.
    pub fn passes(&self) -> u64 {
        self.passes_request + self.passes_result + self.passes_tick + self.passes_fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_starts_dirty_and_tracks_clean_horizon() {
        let mut j = ChangeJournal::new();
        assert!(j.needs_pass(Timestamp::ZERO), "first pass always runs");
        j.mark_clean_until(Timestamp::from_millis(5));
        assert!(!j.is_dirty());
        assert!(!j.needs_pass(Timestamp::from_millis(4)));
        assert!(
            j.needs_pass(Timestamp::from_millis(5)),
            "horizon is inclusive: at the edge the pass runs"
        );
        j.note_change();
        assert!(j.needs_pass(Timestamp::ZERO), "any change forces a pass");
        j.mark_clean_until(Timestamp::MAX);
        assert!(!j.needs_pass(Timestamp::from_secs(1_000_000)), "quiescent");
    }

    #[test]
    fn sched_profile_totals() {
        let p = SchedProfile {
            ticks_full: 3,
            ticks_skipped: 7,
            passes_request: 5,
            passes_result: 4,
            passes_tick: 3,
            passes_fault: 1,
            ..SchedProfile::default()
        };
        assert_eq!(p.ticks(), 10);
        assert_eq!(p.passes(), 13);
    }
}
