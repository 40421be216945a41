//! The Clockwork scheduler (§5.3 and Appendix B).
//!
//! All choice in the system is concentrated here. The scheduler keeps a
//! per-model queue of pending requests and, for every (worker, GPU) pair,
//! tops up a *minimal* schedule — by default only 5 ms of work is outstanding
//! on any executor at a time. Keeping the outstanding window small is what
//! lets the controller keep its options open (late binding improves batching
//! opportunities), and it is only possible because worker executions are
//! predictable.
//!
//! INFER scheduling follows the paper's strategy mechanism: for every model
//! with queued requests the scheduler considers each compiled batch size,
//! prefers the largest batch that still meets the earliest deadline of the
//! requests it would serve, and orders candidates by their *required start
//! time* (deadline minus estimated execution time). LOAD scheduling uses the
//! demand/allocation model of Appendix B: a model's load priority is its
//! outstanding work minus the share of GPU capacity already allocated to it
//! on the GPUs where it is resident; UNLOAD victims are chosen
//! least-recently-used. Admission control rejects requests whose SLO cannot
//! be met even in the best case, before any work is wasted on them.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use clockwork_metrics::trace::TraceEvent;
use clockwork_model::{ModelId, ModelSpec, Tier};
use clockwork_sim::engine::FaultKind;
use clockwork_sim::pcie::PcieLink;
use clockwork_sim::time::{Nanos, Timestamp};
use clockwork_worker::{ActionKind, ActionOutcome, ActionResult, GpuId, TimeWindow, WorkerId};

use crate::batching;
use crate::journal::{ChangeJournal, SchedProfile};
use crate::profile::{ActionProfiler, ProfileKey};
use crate::request::{InferenceRequest, RejectReason, RequestOutcome, Response};
use crate::scheduler::{Scheduler, SchedulerCtx, TickOutcome};
use crate::worker_state::{FreeAtIndex, GpuRef, OutstandingAction, WorkerStateTracker};

/// Configuration of the Clockwork scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClockworkSchedulerConfig {
    /// How much work to keep outstanding per executor (§5.3: 5 ms).
    pub lookahead: Nanos,
    /// Interval between scheduler ticks when work is pending.
    pub tick_interval: Nanos,
    /// Time reserved for network transfers and output delivery when checking
    /// deadlines.
    pub network_allowance: Nanos,
    /// Extra margin added after an outstanding LOAD before an INFER that
    /// depends on it may start.
    pub load_margin: Nanos,
    /// Width of the execution window granted to LOAD actions.
    pub load_window: Nanos,
    /// Whether to reject requests that cannot meet their SLO (admission
    /// control). Disabled in one of the ablations.
    pub admission_control: bool,
    /// Whether request batching is enabled. Disabled in one of the ablations.
    pub batching: bool,
    /// Horizon over which GPU capacity is compared against model demand when
    /// computing load priorities (Appendix B).
    pub load_priority_horizon: Nanos,
    /// Rolling profile window size (§5.3: last 10 measurements).
    pub profile_window: usize,
    /// Percentile used for duration predictions.
    pub profile_percentile: f64,
    /// Whether admission distinguishes service tiers. When set, best-effort
    /// requests must clear a stricter admission bar (see
    /// `best_effort_headroom_milli`) so they are shed before strict-tier
    /// traffic as pressure builds. Inert for all-strict workloads: the tier
    /// check never fires, so legacy scenarios are byte-identical.
    pub tier_aware: bool,
    /// Headroom multiplier (in thousandths) applied to the pressure-adjusted
    /// best-case serving estimate of best-effort requests at admission: with
    /// 6000, a best-effort request is admitted only if *six times* its best
    /// case — including its fair share of the fleet-wide backlog's drain
    /// time — still meets its deadline. Under pressure that bar crosses
    /// while strict admission is still open, so graceful degradation sheds
    /// the discount tier first.
    pub best_effort_headroom_milli: u64,
}

impl Default for ClockworkSchedulerConfig {
    fn default() -> Self {
        ClockworkSchedulerConfig {
            lookahead: Nanos::from_millis(5),
            tick_interval: Nanos::from_millis(1),
            network_allowance: Nanos::from_micros(500),
            load_margin: Nanos::from_micros(500),
            load_window: Nanos::from_millis(20),
            admission_control: true,
            batching: true,
            load_priority_horizon: Nanos::from_millis(100),
            profile_window: 10,
            profile_percentile: 99.0,
            tier_aware: true,
            best_effort_headroom_milli: 6000,
        }
    }
}

/// Aggregate counters exposed for tests and experiment output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerStats {
    /// Requests accepted into a queue.
    pub admitted: u64,
    /// Requests rejected up-front by admission control.
    pub rejected_admission: u64,
    /// Requests rejected after queueing because their deadline lapsed.
    pub rejected_deadline: u64,
    /// Requests rejected because a worker failed/rejected their action.
    pub rejected_worker: u64,
    /// Requests rejected because their worker died mid-flight with no time
    /// left to reissue the work elsewhere.
    pub rejected_worker_failed: u64,
    /// Best-effort requests shed by tier-aware admission.
    pub rejected_shed: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// INFER actions issued.
    pub infer_actions: u64,
    /// LOAD actions issued.
    pub load_actions: u64,
    /// UNLOAD actions issued.
    pub unload_actions: u64,
    /// Requests whose model was not resident anywhere at arrival.
    pub cold_requests: u64,
}

#[derive(Clone, Debug)]
struct PendingRequest {
    request: InferenceRequest,
    deadline: Timestamp,
    cold: bool,
}

#[derive(Clone, Debug)]
struct ModelEntry {
    spec: Arc<ModelSpec>,
    queue: VecDeque<PendingRequest>,
    /// Multiset of the deadlines currently in `queue` (unbounded requests
    /// contribute `Timestamp::MAX`), maintained incrementally on every
    /// push/drain/expiry so the earliest deadline is the first key instead
    /// of an O(queue-length) rescan.
    deadlines: BTreeMap<Timestamp, u32>,
    /// The earliest deadline in `queue` (`Timestamp::MAX` when empty or
    /// all-unbounded); the cached first key of `deadlines`, always exact.
    min_deadline_hint: Timestamp,
    /// Cached `(batch, required_start, suffix_max_required_start)` strategy
    /// candidates in ascending batch order, mirroring Appendix B's strategy
    /// queue. The third element is the maximum `required_start` from this
    /// entry to the end of the list — non-increasing by construction, which
    /// is what lets [`ClockworkScheduler::strategy_for`] binary-search for
    /// the last feasible entry (`required_start` itself is *usually*
    /// non-increasing, but measured profiles can make a larger batch
    /// faster). Valid while `cache_epoch` matches the profiler epoch and
    /// `cache_dirty` is unset.
    strategies: Vec<(u32, Timestamp, Timestamp)>,
    cache_epoch: u64,
    cache_dirty: bool,
    /// The model's compiled batch sizes, ascending — cached off the spec so
    /// the admission path's amortized-cost cover never allocates.
    supported: Vec<u32>,
    /// This model's key in `ClockworkScheduler::expiry` while it is queued.
    expiry_key: Timestamp,
    /// Appendix B demand (outstanding estimated execution time, plus recent
    /// cold-start rejections) as of the last load-stage flush; zero when the
    /// model has neither queued requests nor recent cold rejections.
    demand: Nanos,
    /// Whether `demand` awaits recomputation (the model sits in
    /// `ClockworkScheduler::demand_dirty`).
    demand_dirty: bool,
    /// This model's key in `ClockworkScheduler::load_order`; `None` while its
    /// LOAD priority is not positive.
    priority: Option<f64>,
}

impl ModelEntry {
    fn new(spec: Arc<ModelSpec>) -> Self {
        let supported = spec.supported_batches();
        ModelEntry {
            spec,
            queue: VecDeque::new(),
            deadlines: BTreeMap::new(),
            min_deadline_hint: Timestamp::MAX,
            strategies: Vec::new(),
            cache_epoch: 0,
            cache_dirty: true,
            supported,
            expiry_key: Timestamp::ZERO,
            demand: Nanos::ZERO,
            demand_dirty: false,
            priority: None,
        }
    }

    /// Notes that `queue` changed, invalidating the strategy cache.
    fn note_queue_changed(&mut self) {
        self.cache_dirty = true;
    }

    /// Records a deadline entering `queue`.
    fn deadline_added(&mut self, deadline: Timestamp) {
        *self.deadlines.entry(deadline).or_insert(0) += 1;
        if deadline < self.min_deadline_hint {
            self.min_deadline_hint = deadline;
        }
    }

    /// Records a deadline leaving `queue` (dispatch or expiry).
    fn deadline_removed(&mut self, deadline: Timestamp) {
        if let Some(count) = self.deadlines.get_mut(&deadline) {
            *count -= 1;
            if *count == 0 {
                self.deadlines.remove(&deadline);
            }
        }
        if deadline <= self.min_deadline_hint {
            self.min_deadline_hint = self
                .deadlines
                .keys()
                .next()
                .copied()
                .unwrap_or(Timestamp::MAX);
        }
    }
}

#[derive(Clone, Debug)]
struct InFlightBatch {
    requests: Vec<PendingRequest>,
}

/// A model's place in the LOAD priority order: priority descending, then
/// `ModelId` ascending — the order the per-pass sort produced.
#[derive(Clone, Copy, Debug)]
struct LoadKey {
    priority: f64,
    model: ModelId,
}

impl Ord for LoadKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .priority
            .partial_cmp(&self.priority)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| self.model.cmp(&other.model))
    }
}

impl PartialOrd for LoadKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for LoadKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for LoadKey {}

/// The Clockwork scheduler.
///
/// Every pass is *event-local*: it re-plans only what the triggering event
/// (and the time elapsed since the previous pass) can have changed, and
/// makes exactly the decisions a pass over the whole fleet would.
///
/// - INFER placement visits only GPUs in `infer_dirty`: holders of models
///   whose queue or estimate changed, GPUs whose residency changed, the
///   GPU a result came from, and GPUs whose executor crossed into the
///   lookahead horizon. Every other GPU provably has no feasible candidate:
///   it had none after the previous pass, and feasibility only shrinks as
///   time passes.
/// - LOAD placement keeps per-model demand and the priority order current
///   by re-keying only models whose demand or holders changed, plus the
///   models sharing a GPU with them, and skips the stage in O(1) when the
///   top priority is not positive.
#[derive(Clone)]
pub struct ClockworkScheduler {
    config: ClockworkSchedulerConfig,
    models: HashMap<ModelId, ModelEntry>,
    queued_models: BTreeSet<ModelId>,
    tracker: WorkerStateTracker,
    profiler: ActionProfiler,
    in_flight: HashMap<clockwork_worker::ActionId, InFlightBatch>,
    in_flight_loads: HashSet<clockwork_worker::ActionId>,
    /// Recent requests rejected up-front *only because their model was cold*
    /// (they would have fit their SLO on a warm GPU). Appendix B drives LOAD
    /// priorities from estimated SLO violations, so these rejections must
    /// still register as demand — otherwise a model whose SLO is tighter than
    /// its own cold-start time is never loaded and never becomes servable.
    cold_rejections: HashMap<ModelId, VecDeque<Timestamp>>,
    stats: SchedulerStats,
    /// GPUs (by dense tracker index) on which each model is resident or
    /// loading, kept sorted by index. Mirrors the tracker's residency sets so
    /// demand/allocation passes never scan every GPU per model.
    holders: HashMap<ModelId, Vec<(usize, GpuRef)>>,
    /// The inverse index: models resident or loading per GPU, in ascending
    /// `ModelId` order so candidate scans match the dirty-set iteration
    /// order.
    avail_by_gpu: Vec<BTreeSet<ModelId>>,
    /// Workers currently crashed. Tracked separately from per-GPU liveness
    /// so an overlapping single-GPU recovery cannot un-park a GPU whose
    /// whole worker is still down (the worker would silently drop the
    /// actions, leaking their requests).
    down_workers: BTreeSet<WorkerId>,
    /// Per-GPU next-actionable-time index for the INFER executor: the
    /// scheduling pass pulls only GPUs whose executor frees before the
    /// lookahead horizon instead of scanning the whole fleet per event.
    /// Dead GPUs park at `Timestamp::MAX`.
    exec_ready: FreeAtIndex,
    /// The same index for the LOAD executor.
    load_ready: FreeAtIndex,
    /// Change journal driving the early-out tick path: event-driven entry
    /// points mark it dirty, a completed pass marks it clean until the
    /// earliest instant pure time passage could change a decision.
    journal: ChangeJournal,
    /// Self-profiling counters exported through
    /// [`Scheduler::sched_profile`].
    profile: SchedProfile,
    /// Per-model urgency index over the queued models:
    /// `(min_deadline_hint, model)` kept in lock-step with the queues, so
    /// the quiescence edge reads the global earliest deadline in O(log n)
    /// instead of rescanning every queued model.
    urgency: BTreeSet<(Timestamp, ModelId)>,
    /// The queued models keyed by the instant their earliest request can
    /// start to expire, `min_deadline_hint - est1` (saturating), so the
    /// expiry pass visits exactly the models whose own cutoff has passed.
    expiry: BTreeSet<(Timestamp, ModelId)>,
    /// Running upper bound on every model's batch-1 execution estimate
    /// (never decreases), bounding how early any queued deadline can expire.
    max_est1: Nanos,
    /// Anchor of the legacy fixed-cadence tick grid, consulted from
    /// `next_tick(&self)` (hence the interior mutability). `None` exactly
    /// when the legacy tick chain would be stopped, so re-anchoring matches
    /// the rebuild-every-tick scheduler's grid and productive passes land
    /// on byte-identical tick times.
    tick_anchor: Cell<Option<Timestamp>>,
    // Reusable scratch buffers: the steady-state scheduling pass moves these
    // out, refills them, and puts them back, so it allocates nothing once the
    // buffers have grown to the fleet's working-set size.
    scratch_models: Vec<ModelId>,
    scratch_gpus: Vec<GpuRef>,
    scratch_gpu_idx: Vec<usize>,
    scratch_expired: Vec<PendingRequest>,
    scratch_candidates: Vec<ModelId>,
    scratch_protect: HashSet<ModelId>,
    /// Requests queued across every model (`queued_requests()`), kept in
    /// step with every push, drain, expiry and requeue.
    queued_total: u64,
    /// GPUs currently alive.
    alive_gpus: u64,
    /// GPUs (dense tracker index) whose INFER executor may have a feasible
    /// candidate. Every actionable GPU outside this set has none.
    infer_dirty: BTreeSet<usize>,
    /// The lookahead horizon of the latest pass: executor free times below
    /// it have been absorbed into `infer_dirty`, later ones are swept in
    /// when a pass's horizon crosses them.
    swept_horizon: Timestamp,
    /// Models whose demand inputs (queue length, execution estimates, cold
    /// rejections) changed since the last demand flush.
    demand_dirty: Vec<ModelId>,
    /// Models whose demand or holder set changed since the last priority
    /// flush.
    prio_dirty_models: Vec<ModelId>,
    /// GPUs whose resident-or-loading set changed since the last priority
    /// flush.
    prio_dirty_gpus: Vec<usize>,
    /// Per GPU, the models with positive demand it holds, each with its
    /// demand share (its demand split evenly over its holders).
    gpu_shares: Vec<BTreeMap<ModelId, f64>>,
    /// Per-GPU allocated demand (Appendix B): the sum of `gpu_shares`, in
    /// ascending `ModelId` order.
    gpu_load: Vec<f64>,
    /// Models with positive LOAD priority — the only ones a LOAD can go to —
    /// in priority order. Most models with demand are already well served
    /// (priority ≤ 0) and stay out of the set.
    load_order: BTreeSet<LoadKey>,
    /// Test oracle switch: every pass re-plans the whole fleet.
    all_scope: bool,
}

impl ClockworkScheduler {
    /// Creates a scheduler with the given configuration.
    pub fn new(config: ClockworkSchedulerConfig) -> Self {
        ClockworkScheduler {
            profiler: ActionProfiler::with_params(config.profile_window, config.profile_percentile),
            config,
            models: HashMap::new(),
            queued_models: BTreeSet::new(),
            tracker: WorkerStateTracker::new(),
            in_flight: HashMap::new(),
            in_flight_loads: HashSet::new(),
            cold_rejections: HashMap::new(),
            stats: SchedulerStats::default(),
            holders: HashMap::new(),
            avail_by_gpu: Vec::new(),
            down_workers: BTreeSet::new(),
            exec_ready: FreeAtIndex::new(),
            load_ready: FreeAtIndex::new(),
            journal: ChangeJournal::new(),
            profile: SchedProfile::default(),
            urgency: BTreeSet::new(),
            expiry: BTreeSet::new(),
            max_est1: Nanos::ZERO,
            tick_anchor: Cell::new(None),
            scratch_models: Vec::new(),
            scratch_gpus: Vec::new(),
            scratch_gpu_idx: Vec::new(),
            scratch_expired: Vec::new(),
            scratch_candidates: Vec::new(),
            scratch_protect: HashSet::new(),
            queued_total: 0,
            alive_gpus: 0,
            infer_dirty: BTreeSet::new(),
            swept_horizon: Timestamp::ZERO,
            demand_dirty: Vec::new(),
            prio_dirty_models: Vec::new(),
            prio_dirty_gpus: Vec::new(),
            gpu_shares: Vec::new(),
            gpu_load: Vec::new(),
            load_order: BTreeSet::new(),
            all_scope: false,
        }
    }

    /// Creates a scheduler whose every pass re-plans the whole fleet: all
    /// actionable GPUs visited, every model's demand and priority rebuilt.
    /// The oracle the event-local passes are tested against; not a
    /// production mode.
    #[doc(hidden)]
    pub fn new_all_scope(config: ClockworkSchedulerConfig) -> Self {
        ClockworkScheduler {
            all_scope: true,
            ..Self::new(config)
        }
    }

    /// Creates a scheduler with the default configuration.
    pub fn with_defaults() -> Self {
        Self::new(ClockworkSchedulerConfig::default())
    }

    /// The configuration this scheduler was built with.
    pub fn config(&self) -> &ClockworkSchedulerConfig {
        &self.config
    }

    /// Registers a GPU the scheduler may place work on.
    pub fn add_gpu(&mut self, gpu_ref: GpuRef, total_pages: u64, page_size: u64) {
        self.infer_dirty.insert(self.tracker.len());
        self.tracker.add_gpu(gpu_ref, total_pages, page_size);
        self.avail_by_gpu.push(BTreeSet::new());
        self.gpu_shares.push(BTreeMap::new());
        self.gpu_load.push(0.0);
        self.exec_ready.push_gpu();
        self.load_ready.push_gpu();
        self.alive_gpus += 1;
        // Fresh cold capacity is immediately actionable; the next tick must
        // run a full pass (no `schedule()` runs on this path).
        self.journal.note_change();
    }

    /// Records that `model` became resident-or-loading on `gpu_ref` in both
    /// residency indices.
    fn index_add_holder(&mut self, model: ModelId, gpu_ref: GpuRef) {
        let idx = self.tracker.gpu_index(gpu_ref).expect("gpu exists");
        let holders = self.holders.entry(model).or_default();
        if let Err(pos) = holders.binary_search_by_key(&idx, |&(i, _)| i) {
            holders.insert(pos, (idx, gpu_ref));
        }
        self.avail_by_gpu[idx].insert(model);
        self.prio_dirty_models.push(model);
        self.prio_dirty_gpus.push(idx);
    }

    /// Records that `model` stopped being resident-or-loading on `gpu_ref`.
    fn index_remove_holder(&mut self, model: ModelId, gpu_ref: GpuRef) {
        let Some(idx) = self.tracker.gpu_index(gpu_ref) else {
            return;
        };
        if let Some(holders) = self.holders.get_mut(&model) {
            if let Ok(pos) = holders.binary_search_by_key(&idx, |&(i, _)| i) {
                holders.remove(pos);
            }
            if holders.is_empty() {
                self.holders.remove(&model);
            }
        }
        self.avail_by_gpu[idx].remove(&model);
        self.gpu_shares[idx].remove(&model);
        self.prio_dirty_models.push(model);
        self.prio_dirty_gpus.push(idx);
    }

    /// Notes that `model`'s queue or execution estimates changed: its
    /// demand is stale, and every GPU holding it may now have a feasible
    /// INFER for it. Holders whose executor is committed past the latest
    /// horizon are left to the crossing sweep in [`Self::schedule`].
    fn note_model_changed(&mut self, model: ModelId) {
        self.mark_demand_dirty(model);
        if let Some(holders) = self.holders.get(&model) {
            for &(idx, _) in holders {
                if self.exec_ready.free_at(idx) < self.swept_horizon {
                    self.infer_dirty.insert(idx);
                }
            }
        }
    }

    fn mark_demand_dirty(&mut self, model: ModelId) {
        if let Some(entry) = self.models.get_mut(&model) {
            if !entry.demand_dirty {
                entry.demand_dirty = true;
                self.demand_dirty.push(model);
            }
        }
    }

    /// Registers a model, seeding its execution profiles from the compiled
    /// latency table and its LOAD profile from the given estimate.
    pub fn add_model(&mut self, id: ModelId, spec: Arc<ModelSpec>, load_seed: Nanos) {
        for profile in &spec.batch_profiles {
            self.profiler
                .seed(ProfileKey::exec(id, profile.batch), profile.latency);
        }
        self.profiler.seed(ProfileKey::load(id), load_seed);
        self.models.insert(id, ModelEntry::new(spec));
        self.max_est1 = self.max_est1.max(self.exec_estimate(id, 1));
        self.journal.note_change();
    }

    /// Registers a model, deriving the LOAD seed from a PCIe link model.
    pub fn add_model_with_link(&mut self, id: ModelId, spec: Arc<ModelSpec>, link: &PcieLink) {
        let load_seed = spec.weights_transfer_duration(link);
        self.add_model(id, spec, load_seed);
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &SchedulerStats {
        &self.stats
    }

    /// Number of requests currently queued (not yet dispatched).
    pub fn queued_requests(&self) -> usize {
        self.queued_total as usize
    }

    /// Number of INFER batches currently in flight.
    pub fn in_flight_batches(&self) -> usize {
        self.in_flight.len()
    }

    /// The controller's view of the cluster (read-only, for tests and the
    /// experiment harness).
    pub fn tracker(&self) -> &WorkerStateTracker {
        &self.tracker
    }

    fn exec_estimate(&self, model: ModelId, batch: u32) -> Nanos {
        Self::exec_estimate_with(
            &self.profiler,
            self.models.get(&model).map(|e| e.spec.as_ref()),
            model,
            batch,
        )
    }

    /// Estimated execution duration for `(model, batch)`.
    ///
    /// Falls back from the rolling profile to the model's compiled latency
    /// table: the smallest kernel that covers `batch`, else the largest
    /// kernel scaled linearly. A fixed constant is the estimate of last
    /// resort only for models with no latency table at all — a hard-coded
    /// 10 ms for every unprofiled batch size would systematically
    /// mis-schedule models whose kernels are far from that value.
    fn exec_estimate_with(
        profiler: &ActionProfiler,
        spec: Option<&ModelSpec>,
        model: ModelId,
        batch: u32,
    ) -> Nanos {
        if let Some(est) = profiler.estimate(ProfileKey::exec(model, batch)) {
            return est.max(Nanos::from_micros(1));
        }
        if let Some(spec) = spec {
            if let Some(profile) = spec.batch_for_count(batch.max(1)) {
                return profile.latency.max(Nanos::from_micros(1));
            }
            if let Some(largest) = spec.batch_profiles.last() {
                let scaled =
                    largest.latency * u64::from(batch.max(1)) / u64::from(largest.batch.max(1));
                return scaled.max(Nanos::from_micros(1));
            }
        }
        Nanos::from_millis(10)
    }

    /// Admission price of one more request for a *warm* model: its share of
    /// draining the backlog it joins (queue + itself), covered greedily by
    /// the largest compiled kernels and split across the GPUs currently
    /// holding the weights, floored at the batch-1 estimate (`est1`). The
    /// floor makes the empty-queue case exactly the legacy size-1 price, so
    /// batch-aware admission changes nothing until a backlog actually forms.
    fn amortized_admission_estimate(&self, model: ModelId, est1: Nanos) -> Nanos {
        let Some(entry) = self.models.get(&model) else {
            return est1;
        };
        let backlog = entry.queue.len() as u32 + 1;
        let holders = self
            .holders
            .get(&model)
            .map(|h| h.len() as u32)
            .unwrap_or(0);
        let spec = entry.spec.as_ref();
        let profiler = &self.profiler;
        batching::amortized_drain_cost(backlog, &entry.supported, holders, |batch| {
            Self::exec_estimate_with(profiler, Some(spec), model, batch)
        })
        .max(est1)
    }

    fn load_estimate(&self, model: ModelId) -> Nanos {
        self.profiler
            .estimate_or(ProfileKey::load(model), Nanos::from_millis(10))
            .max(Nanos::from_micros(1))
    }

    fn reject(
        &mut self,
        pending: &PendingRequest,
        at: Timestamp,
        reason: RejectReason,
        ctx: &mut SchedulerCtx,
    ) {
        match reason {
            RejectReason::CannotMeetSlo => self.stats.rejected_admission += 1,
            RejectReason::DeadlineElapsed => self.stats.rejected_deadline += 1,
            RejectReason::WorkerRejected => self.stats.rejected_worker += 1,
            RejectReason::WorkerFailed => self.stats.rejected_worker_failed += 1,
            RejectReason::BestEffortShed => self.stats.rejected_shed += 1,
            RejectReason::UnknownModel => {}
        }
        ctx.send_response(Response {
            request: pending.request.id,
            model: pending.request.model,
            arrival: pending.request.arrival,
            deadline: pending.deadline,
            outcome: RequestOutcome::Rejected { at, reason },
        });
    }

    /// Forgets cold-rejection demand that has aged out of the priority
    /// horizon, so long-idle models do not keep attracting LOADs.
    fn prune_cold_rejections(&mut self, now: Timestamp) {
        if self.cold_rejections.is_empty() {
            return;
        }
        let horizon = self.config.load_priority_horizon;
        let mut aged = std::mem::take(&mut self.scratch_models);
        aged.clear();
        self.cold_rejections.retain(|&model, history| {
            if history.front().is_some_and(|&t| t + horizon < now) {
                aged.push(model);
                while history.front().is_some_and(|&t| t + horizon < now) {
                    history.pop_front();
                }
            }
            !history.is_empty()
        });
        for &model in &aged {
            self.mark_demand_dirty(model);
        }
        self.scratch_models = aged;
    }

    /// Drops queued requests that can no longer meet their deadline.
    fn expire_requests(&mut self, now: Timestamp, ctx: &mut SchedulerCtx) {
        self.prune_cold_rejections(now);
        if self.urgency.is_empty() {
            return;
        }
        let allowance = self.config.network_allowance;
        // Only models whose own cutoff (`now + est1 + allowance`) has passed
        // their earliest deadline can have lapsed requests; the expiry index
        // yields those (and, at the `<=` boundary, a few that the exact
        // check below skips) without touching the rest of the queued set.
        // Rejections must still be emitted in ascending `ModelId` order — the
        // order the full scan over the queued set produced — so the
        // candidate list is re-sorted.
        let mut model_ids = std::mem::take(&mut self.scratch_models);
        model_ids.clear();
        model_ids.extend(
            self.expiry
                .iter()
                .take_while(|&&(key, _)| key <= now + allowance)
                .map(|&(_, model)| model),
        );
        model_ids.sort_unstable();
        let mut expired = std::mem::take(&mut self.scratch_expired);
        for &model_id in &model_ids {
            let min_exec = self.exec_estimate(model_id, 1);
            let cutoff = now + min_exec + allowance;
            let (was_queued, old_hint) = {
                let Some(entry) = self.models.get_mut(&model_id) else {
                    continue;
                };
                if cutoff <= entry.min_deadline_hint {
                    // No queued deadline can have lapsed yet.
                    continue;
                }
                let was_queued = !entry.queue.is_empty();
                let old_hint = entry.min_deadline_hint;
                expired.clear();
                entry.queue.retain(|p| {
                    let doomed = p.deadline != Timestamp::MAX && cutoff > p.deadline;
                    if doomed {
                        expired.push(p.clone());
                    }
                    !doomed
                });
                if !expired.is_empty() {
                    entry.note_queue_changed();
                    for p in &expired {
                        entry.deadline_removed(p.deadline);
                    }
                }
                (was_queued, old_hint)
            };
            if !expired.is_empty() {
                self.resync_urgency(model_id, was_queued, old_hint);
                self.queued_total -= expired.len() as u64;
                self.note_model_changed(model_id);
            }
            for p in expired.drain(..) {
                self.reject(&p, now, RejectReason::DeadlineElapsed, ctx);
            }
        }
        self.scratch_models = model_ids;
        self.scratch_expired = expired;
    }

    /// Re-syncs the urgency index and the queued-model set after `model`'s
    /// queue or earliest deadline changed. `was_queued`/`old_hint` describe
    /// the state *before* the mutation.
    fn resync_urgency(&mut self, model: ModelId, was_queued: bool, old_hint: Timestamp) {
        let entry = self.models.get(&model).expect("model exists");
        let now_queued = !entry.queue.is_empty();
        let new_hint = entry.min_deadline_hint;
        if was_queued && now_queued && old_hint == new_hint {
            return;
        }
        if was_queued {
            self.urgency.remove(&(old_hint, model));
            self.expiry.remove(&(entry.expiry_key, model));
        }
        if now_queued {
            self.urgency.insert((new_hint, model));
            self.queued_models.insert(model);
            self.rekey_expiry(model);
        } else {
            self.queued_models.remove(&model);
        }
    }

    /// (Re)inserts a queued model into the expiry index under its current
    /// earliest deadline and batch-1 estimate.
    fn rekey_expiry(&mut self, model: ModelId) {
        let key = self.models[&model].min_deadline_hint - self.exec_estimate(model, 1);
        let entry = self.models.get_mut(&model).expect("model exists");
        entry.expiry_key = key;
        self.expiry.insert((key, model));
    }

    /// Estimated completion time of the LOAD currently in flight for a model
    /// on a GPU, if any.
    fn pending_load_completion(&self, gpu_ref: GpuRef, model: ModelId) -> Option<Timestamp> {
        let track = self.tracker.get(gpu_ref)?;
        track
            .outstanding
            .values()
            .filter(|o| o.is_load && o.model == model)
            .map(|o| o.expected_completion)
            .max()
    }

    /// Rebuilds a model's cached `(batch, required_start)` strategy list if
    /// the queue changed or any profile estimate moved since the last build
    /// (Appendix B's strategy queue). The list is independent of the GPU: the
    /// per-GPU `exec_start` feasibility check happens at query time in
    /// [`Self::strategy_for`]. Returns whether a rebuild happened (the
    /// self-profiling `strategies_recomputed` counter).
    fn ensure_strategies(
        config: &ClockworkSchedulerConfig,
        profiler: &ActionProfiler,
        model_id: ModelId,
        entry: &mut ModelEntry,
    ) -> bool {
        let epoch = profiler.model_epoch(model_id);
        if !entry.cache_dirty && entry.cache_epoch == epoch {
            return false;
        }
        entry.cache_dirty = false;
        entry.cache_epoch = epoch;
        let ModelEntry {
            spec,
            queue,
            strategies,
            ..
        } = entry;
        batching::build_strategies(
            queue.iter().map(|p| p.deadline),
            spec.batch_profiles.iter().map(|p| p.batch),
            queue.len() as u32,
            config.network_allowance,
            config.batching,
            |batch| Self::exec_estimate_with(profiler, Some(spec), model_id, batch),
            strategies,
        );
        true
    }

    /// Chooses the best (batch, required-start) strategy for a model given
    /// the earliest time an INFER could start: the largest batch whose
    /// required start has not passed (the paper drops strategies for batch
    /// sizes that are too small when larger ones fit).
    ///
    /// The search itself lives in [`batching::largest_feasible`]: it runs
    /// over the cached suffix maximum of `required_start`, which is
    /// non-increasing by construction (raw `required_start` is *usually*
    /// non-increasing too — each larger batch serves a superset prefix of
    /// the queue with a longer estimate — but measured profiles can invert
    /// that).
    fn strategy_for(entry: &ModelEntry, exec_start: Timestamp) -> Option<(u32, Timestamp)> {
        batching::largest_feasible(&entry.strategies, exec_start)
    }

    /// Tops up INFER schedules on the actionable GPUs of `infer_dirty`, in
    /// ascending registration order.
    ///
    /// A pass over every actionable GPU (`all`) visits the same GPUs in the
    /// same order; the ones it adds find no feasible candidate and emit
    /// nothing. A dispatch marks the other holders of its model: those
    /// later in index order are visited in this call (as the full scan
    /// would), earlier ones stay marked for the next call or pass.
    fn schedule_infers(&mut self, now: Timestamp, all: bool, ctx: &mut SchedulerCtx) {
        if self.queued_models.is_empty() {
            // No GPU has a candidate; a queue change re-marks holders.
            self.infer_dirty.clear();
            return;
        }
        let horizon = now + self.config.lookahead;
        if all {
            let mut gpu_indices = std::mem::take(&mut self.scratch_gpu_idx);
            self.exec_ready.actionable_into(horizon, &mut gpu_indices);
            self.infer_dirty.extend(gpu_indices.iter().copied());
            self.scratch_gpu_idx = gpu_indices;
        }
        let mut cursor = 0;
        while let Some(&gpu_idx) = self.infer_dirty.range(cursor..).next() {
            if self.queued_models.is_empty() {
                self.infer_dirty.clear();
                break;
            }
            cursor = gpu_idx + 1;
            if self.exec_ready.free_at(gpu_idx) >= horizon {
                // Committed past the horizon (or dead): the crossing sweep
                // re-marks it once time brings it back into reach.
                self.infer_dirty.remove(&gpu_idx);
                continue;
            }
            self.profile.infer_gpus_visited += 1;
            let gpu_ref = self.tracker.gpus()[gpu_idx].gpu_ref;
            while let Some(exec_slot) = self.tracker.get(gpu_ref).map(|t| t.next_exec_slot(now)) {
                if exec_slot >= horizon {
                    break;
                }
                let Some((model_id, batch, exec_start)) = self.best_infer(now, gpu_idx, exec_slot)
                else {
                    break;
                };
                self.dispatch_infer(gpu_ref, model_id, batch, exec_start, ctx);
            }
            // Nothing more fits here until an event or the clock changes it.
            self.infer_dirty.remove(&gpu_idx);
        }
    }

    /// The INFER to place next on a GPU whose executor frees at
    /// `exec_slot`: among queued models whose weights are resident or
    /// loading there, the feasible strategy with the earliest required
    /// start (ties to the lowest `ModelId`). Returns `(model, batch,
    /// exec_start)`.
    fn best_infer(
        &mut self,
        now: Timestamp,
        gpu_idx: usize,
        exec_slot: Timestamp,
    ) -> Option<(ModelId, u32, Timestamp)> {
        let gpu_ref = self.tracker.gpus()[gpu_idx].gpu_ref;
        // Candidate models: queued requests + weights available here. Walk
        // the smaller of the queued set and this GPU's residency set; both
        // iterate in ascending ModelId order, so the scan visits the same
        // candidates in the same order either way.
        let mut candidates = std::mem::take(&mut self.scratch_candidates);
        candidates.clear();
        {
            let queued = &self.queued_models;
            let avail = &self.avail_by_gpu[gpu_idx];
            if avail.len() <= queued.len() {
                candidates.extend(avail.iter().copied().filter(|m| queued.contains(m)));
            } else {
                candidates.extend(queued.iter().copied().filter(|m| avail.contains(m)));
            }
        }
        let mut best: Option<(ModelId, u32, Timestamp, Timestamp)> = None;
        self.profile.candidates_scanned += candidates.len() as u64;
        for &model_id in &candidates {
            let track = &self.tracker.gpus()[gpu_idx];
            let exec_start = if track.is_resident(model_id) {
                exec_slot
            } else if track.loading.contains(&model_id) {
                match self.pending_load_completion(gpu_ref, model_id) {
                    Some(done) => exec_slot.max(done + self.config.load_margin),
                    None => exec_slot.max(now + self.config.load_margin),
                }
            } else {
                continue;
            };
            let Some(entry) = self.models.get_mut(&model_id) else {
                continue;
            };
            if Self::ensure_strategies(&self.config, &self.profiler, model_id, entry) {
                self.profile.strategies_recomputed += 1;
            }
            if let Some((batch, required_start)) = Self::strategy_for(entry, exec_start) {
                let better = match &best {
                    None => true,
                    Some((_, _, best_required, _)) => required_start < *best_required,
                };
                if better {
                    best = Some((model_id, batch, required_start, exec_start));
                }
            }
        }
        self.scratch_candidates = candidates;
        best.map(|(model_id, batch, _, exec_start)| (model_id, batch, exec_start))
    }

    fn dispatch_infer(
        &mut self,
        gpu_ref: GpuRef,
        model_id: ModelId,
        batch: u32,
        exec_start: Timestamp,
        ctx: &mut SchedulerCtx,
    ) {
        let est = self.exec_estimate(model_id, batch);
        let allowance = self.config.network_allowance;
        let entry = self.models.get_mut(&model_id).expect("model exists");
        let was_queued = !entry.queue.is_empty();
        let old_hint = entry.min_deadline_hint;
        let serve = (batch as usize).min(entry.queue.len());
        let requests: Vec<PendingRequest> = entry.queue.drain(..serve).collect();
        entry.note_queue_changed();
        for p in &requests {
            entry.deadline_removed(p.deadline);
        }
        self.resync_urgency(model_id, was_queued, old_hint);
        self.queued_total -= serve as u64;
        self.note_model_changed(model_id);
        let min_deadline = requests
            .iter()
            .map(|p| p.deadline)
            .min()
            .unwrap_or(Timestamp::MAX);
        let latest = if min_deadline == Timestamp::MAX {
            Timestamp::MAX
        } else {
            (min_deadline - est - allowance).max(exec_start)
        };
        let window = TimeWindow {
            earliest: exec_start,
            latest,
        };
        let request_ids: Vec<u64> = requests.iter().map(|p| p.request.id.0).collect();
        let action_id = ctx.send_action(
            gpu_ref.worker,
            gpu_ref.gpu,
            ActionKind::Infer {
                model: model_id,
                batch,
                request_ids,
            },
            window,
            est,
        );
        let expected_completion = exec_start + est;
        let track = self.tracker.get_mut(gpu_ref).expect("gpu exists");
        track.note_infer_sent(
            OutstandingAction {
                id: action_id,
                model: model_id,
                expected_completion,
                is_load: false,
            },
            exec_start,
            est,
        );
        let exec_free_at = track.exec_free_at;
        if let Some(idx) = self.tracker.gpu_index(gpu_ref) {
            self.exec_ready.update(idx, exec_free_at);
        }
        self.in_flight.insert(action_id, InFlightBatch { requests });
        self.stats.infer_actions += 1;
    }

    /// Appendix B demand of one model: the outstanding estimated execution
    /// time of its queue (at the per-request cost of the batch size that
    /// covers it), plus one batch-1 execution per cold-start rejection still
    /// inside the priority horizon. Recent cold-start rejections are
    /// unfulfilled demand too (Appendix B's "estimated SLO violations"):
    /// without them a model whose SLO is tighter than its cold-start time
    /// would never be prioritised for a LOAD even though clients keep asking
    /// for it.
    fn demand_of(&self, model_id: ModelId, now: Timestamp) -> Nanos {
        let mut demand = Nanos::ZERO;
        let Some(entry) = self.models.get(&model_id) else {
            return demand;
        };
        let count = entry.queue.len() as u32;
        if count > 0 {
            let batch = entry
                .spec
                .batch_for_count(count)
                .map(|p| p.batch)
                .unwrap_or(entry.spec.max_batch().max(1));
            let per_request = self.exec_estimate(model_id, batch) / u64::from(batch.max(1));
            demand = per_request * u64::from(count);
        }
        if let Some(history) = self.cold_rejections.get(&model_id) {
            // Pushed at non-decreasing times, so the aged-out entries are a
            // prefix.
            let horizon = self.config.load_priority_horizon;
            let recent = (history.len() - history.partition_point(|&t| t + horizon < now)) as u64;
            if recent > 0 {
                demand += self.exec_estimate(model_id, 1) * recent;
            }
        }
        demand
    }

    /// Recomputes the demand of every model marked since the last flush and
    /// queues the ones whose demand moved for re-keying. `all` recomputes
    /// every model (the oracle scope).
    fn flush_demands(&mut self, now: Timestamp, all: bool) {
        if all {
            let ids: Vec<ModelId> = self.models.keys().copied().collect();
            for model in ids {
                self.mark_demand_dirty(model);
            }
        }
        let mut dirty = std::mem::take(&mut self.demand_dirty);
        for &model in &dirty {
            let demand = self.demand_of(model, now);
            let entry = self.models.get_mut(&model).expect("marked models exist");
            entry.demand_dirty = false;
            if entry.demand != demand {
                entry.demand = demand;
                self.prio_dirty_models.push(model);
            }
        }
        dirty.clear();
        self.demand_dirty = dirty;
    }

    /// Brings `gpu_load` and the LOAD priority order up to date with the
    /// current demands and residency (Appendix B): a model's priority is its
    /// demand minus the GPU capacity already allocated to it where it is
    /// resident.
    ///
    /// Only GPUs holding a changed model (or whose residency changed) get
    /// their load recomputed, and only models on those GPUs get re-keyed;
    /// every other priority's inputs are untouched. A GPU's load is summed
    /// over its shares in ascending `ModelId` order and a model's
    /// allocation over its holders in ascending index order, the exact
    /// float operations of a from-scratch rebuild. On a GPU whose load did
    /// not rise, every co-located model is served at least as well as
    /// before (rounding is monotone), so models already out of the order
    /// stay out and are skipped. `all` rebuilds every GPU and model (the
    /// oracle scope).
    fn flush_load_order(&mut self, all: bool) {
        if all {
            self.prio_dirty_gpus.extend(0..self.gpu_load.len());
            self.prio_dirty_models.extend(self.models.keys().copied());
        }
        if self.prio_dirty_models.is_empty() && self.prio_dirty_gpus.is_empty() {
            return;
        }
        self.profile.load_prio_recomputes += 1;
        let mut models = std::mem::take(&mut self.prio_dirty_models);
        let mut gpus = std::mem::take(&mut self.prio_dirty_gpus);
        models.sort_unstable();
        models.dedup();
        // Refresh the changed models' shares on every GPU holding them.
        for &model in &models {
            let Some(holders) = self.holders.get(&model) else {
                continue;
            };
            let demand = self.models[&model].demand;
            let share = demand.as_secs_f64() / holders.len() as f64;
            for &(idx, _) in holders {
                if demand == Nanos::ZERO {
                    self.gpu_shares[idx].remove(&model);
                } else {
                    self.gpu_shares[idx].insert(model, share);
                }
                gpus.push(idx);
            }
        }
        gpus.sort_unstable();
        gpus.dedup();
        for &idx in &gpus {
            let load = self.gpu_shares[idx]
                .values()
                .fold(0.0, |sum, &share| sum + share);
            let rose = load > self.gpu_load[idx];
            self.gpu_load[idx] = load;
            for model in self.gpu_shares[idx].keys() {
                if rose || self.models[model].priority.is_some() {
                    models.push(*model);
                }
            }
        }
        models.sort_unstable();
        models.dedup();
        let capacity = self.config.load_priority_horizon.as_secs_f64();
        for &model in &models {
            let Some(entry) = self.models.get_mut(&model) else {
                continue;
            };
            let priority = (entry.demand != Nanos::ZERO)
                .then(|| {
                    let demand = entry.demand.as_secs_f64();
                    let mut served = 0.0;
                    if let Some(holders) = self.holders.get(&model) {
                        let share = demand / holders.len() as f64;
                        for &(idx, _) in holders {
                            let load = self.gpu_load[idx].max(1e-12);
                            served += share * (capacity / load);
                        }
                    }
                    demand - served
                })
                .filter(|&p| p > 0.0);
            self.profile.prio_rekeys += 1;
            if priority.map(f64::to_bits) == entry.priority.map(f64::to_bits) {
                continue;
            }
            if let Some(old) = entry.priority {
                self.load_order.remove(&LoadKey {
                    priority: old,
                    model,
                });
            }
            if let Some(new) = priority {
                self.load_order.insert(LoadKey {
                    priority: new,
                    model,
                });
            }
            entry.priority = priority;
        }
        models.clear();
        gpus.clear();
        self.prio_dirty_models = models;
        self.prio_dirty_gpus = gpus;
    }

    /// Whether any model has positive LOAD priority — if not, no GPU
    /// anywhere can receive a LOAD.
    fn load_wanted(&self) -> bool {
        !self.load_order.is_empty()
    }

    /// Tops up LOAD schedules on every actionable GPU, in registration
    /// order, evicting LRU models when needed.
    ///
    /// Demands are fixed for the stage (flushed once at its start); each
    /// dispatch changes residency, so the order is flushed again before the
    /// next slot is filled.
    fn schedule_loads(&mut self, now: Timestamp, all: bool, ctx: &mut SchedulerCtx) {
        self.flush_demands(now, all);
        if self.queued_models.is_empty() && self.cold_rejections.is_empty() {
            return;
        }
        self.flush_load_order(all);
        if !self.load_wanted() {
            return;
        }
        let horizon = now + self.config.lookahead;
        let mut gpu_indices = std::mem::take(&mut self.scratch_gpu_idx);
        self.load_ready.actionable_into(horizon, &mut gpu_indices);
        'gpus: for &gpu_idx in &gpu_indices {
            self.profile.load_gpus_visited += 1;
            let gpu_ref = self.tracker.gpus()[gpu_idx].gpu_ref;
            while let Some(load_slot) = self.tracker.get(gpu_ref).map(|t| t.next_load_slot(now)) {
                if load_slot >= horizon {
                    break;
                }
                self.flush_load_order(all);
                if !self.load_wanted() {
                    break 'gpus;
                }
                // Highest-priority model with positive unfulfilled demand that
                // is not already available on this GPU.
                let avail = &self.avail_by_gpu[gpu_idx];
                let candidate = self
                    .load_order
                    .iter()
                    .find(|k| !avail.contains(&k.model))
                    .map(|k| k.model);
                let Some(model_id) = candidate else {
                    break;
                };
                if !self.dispatch_load(gpu_ref, model_id, load_slot, ctx) {
                    break;
                }
            }
        }
        self.scratch_gpu_idx = gpu_indices;
    }

    fn dispatch_load(
        &mut self,
        gpu_ref: GpuRef,
        model_id: ModelId,
        load_slot: Timestamp,
        ctx: &mut SchedulerCtx,
    ) -> bool {
        let Some(entry) = self.models.get(&model_id) else {
            return false;
        };
        let weights_bytes = entry.spec.weights_bytes();
        let est = self.load_estimate(model_id);
        // Make room first: evict least-recently-used models that have no
        // queued requests and no outstanding work.
        let mut protect = std::mem::take(&mut self.scratch_protect);
        protect.clear();
        protect.extend(self.queued_models.iter().copied());
        if let Some(track) = self.tracker.get(gpu_ref) {
            protect.extend(track.outstanding.values().map(|o| o.model));
        }
        let mut room = true;
        loop {
            let track = self.tracker.get(gpu_ref).expect("gpu exists");
            let pages = track.pages_for(weights_bytes);
            if pages <= track.free_pages {
                break;
            }
            let Some(victim) = track.lru_candidate(&protect) else {
                room = false;
                break;
            };
            let track = self.tracker.get_mut(gpu_ref).expect("gpu exists");
            track.note_unload_sent(victim);
            self.index_remove_holder(victim, gpu_ref);
            ctx.send_action(
                gpu_ref.worker,
                gpu_ref.gpu,
                ActionKind::Unload { model: victim },
                TimeWindow::always(),
                Nanos::from_micros(5),
            );
            self.stats.unload_actions += 1;
        }
        self.scratch_protect = protect;
        if !room {
            return false;
        }
        let window = TimeWindow {
            earliest: load_slot,
            latest: load_slot + self.config.load_window,
        };
        let action_id = ctx.send_action(
            gpu_ref.worker,
            gpu_ref.gpu,
            ActionKind::Load { model: model_id },
            window,
            est,
        );
        let expected_completion = load_slot + est;
        let track = self.tracker.get_mut(gpu_ref).expect("gpu exists");
        let pages = track.pages_for(weights_bytes);
        track.note_load_sent(
            OutstandingAction {
                id: action_id,
                model: model_id,
                expected_completion,
                is_load: true,
            },
            pages,
            load_slot,
            est,
        );
        let load_free_at = track.load_free_at;
        let idx = self.tracker.gpu_index(gpu_ref).expect("gpu exists");
        self.load_ready.update(idx, load_free_at);
        self.index_add_holder(model_id, gpu_ref);
        // The new weights may make an INFER feasible here.
        self.infer_dirty.insert(idx);
        self.in_flight_loads.insert(action_id);
        self.stats.load_actions += 1;
        // The cold-start demand that motivated this LOAD is now being acted
        // upon; future cold rejections will re-register if the model is ever
        // evicted again. The demand change takes effect at the next stage:
        // demands stay fixed within one.
        if self.cold_rejections.remove(&model_id).is_some() {
            self.mark_demand_dirty(model_id);
        }
        true
    }

    /// One scheduling pass: expire, place INFERs, place LOADs, then place
    /// the INFERs those LOADs (or later dispatches of the first stage)
    /// enabled. `all` re-plans the whole fleet instead of only what changed.
    fn schedule_scoped(&mut self, now: Timestamp, all: bool, ctx: &mut SchedulerCtx) {
        self.expire_requests(now, ctx);
        // Executors that time brought into the lookahead horizon since the
        // previous pass can take work again.
        let horizon = now + self.config.lookahead;
        if horizon > self.swept_horizon {
            self.infer_dirty
                .extend(self.exec_ready.entering(self.swept_horizon, horizon));
            self.swept_horizon = horizon;
        }
        self.schedule_infers(now, all, ctx);
        self.schedule_loads(now, all, ctx);
        self.schedule_infers(now, all, ctx);
        self.refresh_clean_until(now);
    }

    fn schedule(&mut self, now: Timestamp, ctx: &mut SchedulerCtx) {
        self.schedule_scoped(now, self.all_scope, ctx);
    }

    /// Runs one scheduling pass over the whole fleet unconditionally,
    /// bypassing the early-out journal and the event-local scoping. This is
    /// the oracle surface the differential tests drive; production paths go
    /// through the trait callbacks.
    pub fn run_full_pass(&mut self, now: Timestamp, ctx: &mut SchedulerCtx) {
        self.schedule_scoped(now, true, ctx);
    }

    /// Checks every incrementally maintained structure against a naive
    /// rebuild at `now`: per-model demand and the LOAD priority order (its
    /// positive prefix, bit-for-bit, in the order a from-scratch sort
    /// produces), the expiry index and its postcondition (no request queued
    /// past its cutoff as of the latest pass), the queued-request and
    /// alive-GPU counters, and the INFER scope — no actionable GPU outside
    /// the dirty set has a feasible candidate.
    /// Decision-neutral (it only settles pending bookkeeping early); the
    /// differential tests call it after every callback.
    #[doc(hidden)]
    pub fn check_incremental_state(&mut self, now: Timestamp) -> Result<(), String> {
        let profile = self.profile;
        let result = self.check_incremental_state_inner(now);
        self.profile = profile;
        result
    }

    fn check_incremental_state_inner(&mut self, now: Timestamp) -> Result<(), String> {
        // Naive demand: every queued model plus every model with recent cold
        // rejections, ascending by id.
        let horizon = self.config.load_priority_horizon;
        let mut naive: Vec<(ModelId, Nanos)> = Vec::new();
        for &model_id in &self.queued_models {
            let entry = &self.models[&model_id];
            let count = entry.queue.len() as u32;
            let batch = entry
                .spec
                .batch_for_count(count)
                .map(|p| p.batch)
                .unwrap_or(entry.spec.max_batch().max(1));
            let per_request = self.exec_estimate(model_id, batch) / u64::from(batch.max(1));
            naive.push((model_id, per_request * u64::from(count)));
        }
        let mut cold: Vec<ModelId> = self.cold_rejections.keys().copied().collect();
        cold.sort_unstable();
        for model_id in cold {
            let recent = self.cold_rejections[&model_id]
                .iter()
                .filter(|&&t| t + horizon >= now)
                .count() as u64;
            if recent == 0 {
                continue;
            }
            let add = self.exec_estimate(model_id, 1) * recent;
            match naive.binary_search_by_key(&model_id, |&(m, _)| m) {
                Ok(i) => naive[i].1 += add,
                Err(i) => naive.insert(i, (model_id, add)),
            }
        }
        // Naive priorities: per-GPU load accumulated model by model, then a
        // full sort.
        let capacity = horizon.as_secs_f64();
        let mut gpu_load = vec![0.0; self.tracker.len()];
        for &(model_id, demand) in &naive {
            if let Some(holders) = self.holders.get(&model_id) {
                let share = demand.as_secs_f64() / holders.len() as f64;
                for &(idx, _) in holders {
                    gpu_load[idx] += share;
                }
            }
        }
        let mut naive_order: Vec<(ModelId, f64)> = Vec::new();
        for &(model_id, demand) in &naive {
            let mut served = 0.0;
            if let Some(holders) = self.holders.get(&model_id) {
                let share = demand.as_secs_f64() / holders.len() as f64;
                for &(idx, _) in holders {
                    served += share * (capacity / gpu_load[idx].max(1e-12));
                }
            }
            naive_order.push((model_id, demand.as_secs_f64() - served));
        }
        naive_order.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });

        // Settle the maintained side the way the next load stage would.
        self.prune_cold_rejections(now);
        self.flush_demands(now, false);
        self.flush_load_order(false);
        let mut maintained: Vec<(ModelId, Nanos)> = self
            .models
            .iter()
            .filter(|(_, e)| e.demand != Nanos::ZERO)
            .map(|(&m, e)| (m, e.demand))
            .collect();
        maintained.sort_unstable();
        if maintained != naive {
            return Err(format!(
                "demand diverged: maintained {maintained:?}, rebuilt {naive:?}"
            ));
        }
        let order: Vec<(ModelId, u64)> = self
            .load_order
            .iter()
            .map(|k| (k.model, k.priority.to_bits()))
            .collect();
        let rebuilt: Vec<(ModelId, u64)> = naive_order
            .iter()
            .take_while(|&&(_, p)| p > 0.0)
            .map(|&(m, p)| (m, p.to_bits()))
            .collect();
        if order != rebuilt {
            return Err(format!(
                "load priority order diverged: maintained {order:?}, rebuilt {rebuilt:?}"
            ));
        }

        let mut expiry: Vec<(Timestamp, ModelId)> = self
            .queued_models
            .iter()
            .map(|&m| {
                (
                    self.models[&m].min_deadline_hint - self.exec_estimate(m, 1),
                    m,
                )
            })
            .collect();
        expiry.sort_unstable();
        if !expiry.iter().eq(self.expiry.iter()) {
            return Err(format!(
                "expiry index diverged: maintained {:?}, rebuilt {expiry:?}",
                self.expiry
            ));
        }

        // Expiry is complete: as of the latest pass, no queued request is
        // past its cutoff (nothing since then changes queues or estimates
        // without running a pass).
        let last_pass = self.swept_horizon - self.config.lookahead;
        for &model in &self.queued_models {
            let cutoff = last_pass + self.exec_estimate(model, 1) + self.config.network_allowance;
            let entry = &self.models[&model];
            if let Some(p) = entry
                .queue
                .iter()
                .find(|p| p.deadline != Timestamp::MAX && cutoff > p.deadline)
            {
                return Err(format!(
                    "request {:?} of model {model:?} outlived its expiry cutoff",
                    p.request.id
                ));
            }
        }

        let queued: usize = self.models.values().map(|e| e.queue.len()).sum();
        if queued != self.queued_requests() {
            return Err(format!(
                "queued counter {} != {queued} queued",
                self.queued_total
            ));
        }
        let alive = self.tracker.gpus().iter().filter(|g| g.alive).count() as u64;
        if alive != self.alive_gpus {
            return Err(format!(
                "alive counter {} != {alive} alive",
                self.alive_gpus
            ));
        }

        // INFER scope: GPUs in reach at the latest horizon and outside the
        // dirty set must have nothing to place.
        for gpu_idx in 0..self.tracker.len() {
            if self.queued_models.is_empty() {
                break;
            }
            if self.exec_ready.free_at(gpu_idx) >= self.swept_horizon
                || self.infer_dirty.contains(&gpu_idx)
            {
                continue;
            }
            let exec_slot = self.tracker.gpus()[gpu_idx].next_exec_slot(now);
            if let Some(found) = self.best_infer(now, gpu_idx, exec_slot) {
                return Err(format!(
                    "GPU {gpu_idx} is outside the INFER scope but can place {found:?}"
                ));
            }
        }
        Ok(())
    }

    /// Whether any queued request, in-flight INFER or in-flight LOAD exists
    /// — the "busy" condition under which the rebuild-every-tick scheduler
    /// kept its fixed-cadence chain alive. [`Scheduler::next_tick`] gates on
    /// it, and the differential tests use it to replay the legacy cadence.
    pub fn has_outstanding_work(&self) -> bool {
        !self.queued_models.is_empty()
            || !self.in_flight.is_empty()
            || !self.in_flight_loads.is_empty()
    }

    /// Recomputes the journal's clean horizon after a completed pass: the
    /// earliest future instant at which pure time passage — no request, no
    /// result, no fault — could make another pass produce a decision. Every
    /// time-driven enabler in the pass is covered by one edge below;
    /// everything else is monotone in `now` (rising `exec_start` only
    /// shrinks strategy feasibility; warm demand and residency only change
    /// through journaled events). Edges err early, never late: a too-early
    /// edge costs a no-op pass at a grid time the rebuild-every-tick
    /// scheduler also ticked, a too-late edge would skip a decision.
    fn refresh_clean_until(&mut self, now: Timestamp) {
        if self.queued_models.is_empty() && self.cold_rejections.is_empty() {
            // Every stage of the pass early-returns in this state, at any
            // `now`: the scheduler is quiescent until an event arrives.
            self.journal.mark_clean_until(Timestamp::MAX);
            return;
        }
        let lookahead = self.config.lookahead;
        let horizon = now + lookahead;
        let mut edge = Timestamp::MAX;
        if !self.queued_models.is_empty() {
            // An INFER executor crossing into the lookahead horizon opens a
            // slot for the queued work.
            if let Some(free_at) = self.exec_ready.next_beyond(horizon) {
                edge = edge.min(free_at - lookahead);
            }
            // The earliest queued deadline can lapse (`max_est1` bounds the
            // per-model estimate the expiry cutoff uses).
            if let Some(&(hint, _)) = self.urgency.iter().next() {
                if hint != Timestamp::MAX {
                    edge = edge.min(hint - self.max_est1 - self.config.network_allowance);
                }
            }
        }
        // A LOAD executor crossing into the horizon opens a load slot (cold
        // demand alone is enough for the load pass to act).
        if let Some(free_at) = self.load_ready.next_beyond(horizon) {
            edge = edge.min(free_at - lookahead);
        }
        // Cold-rejection demand ages out of the priority horizon, which can
        // reorder LOAD priorities.
        for history in self.cold_rejections.values() {
            if let Some(&front) = history.front() {
                edge = edge.min(front + self.config.load_priority_horizon);
            }
        }
        self.journal.mark_clean_until(edge);
    }

    fn handle_infer_result(
        &mut self,
        now: Timestamp,
        result: &ActionResult,
        ctx: &mut SchedulerCtx,
    ) {
        let gpu_ref = GpuRef {
            worker: result.worker,
            gpu: result.gpu,
        };
        if let Some(track) = self.tracker.get_mut(gpu_ref) {
            track.note_infer_result(result.action_id);
        }
        let Some(batch) = self.in_flight.remove(&result.action_id) else {
            return;
        };
        match &result.outcome {
            ActionOutcome::Success(timing) => {
                self.profiler.record(
                    ProfileKey::exec(result.model, result.batch),
                    timing.device_duration,
                );
                self.note_model_changed(result.model);
                // The batch-1 estimate may have moved; keep the expiry bound
                // a running maximum over every model's current estimate, and
                // the model's expiry key current.
                self.max_est1 = self.max_est1.max(self.exec_estimate(result.model, 1));
                let entry = &self.models[&result.model];
                if !entry.queue.is_empty() {
                    self.expiry.remove(&(entry.expiry_key, result.model));
                    self.rekey_expiry(result.model);
                }
                for pending in &batch.requests {
                    self.stats.completed += 1;
                    ctx.send_response(Response {
                        request: pending.request.id,
                        model: pending.request.model,
                        arrival: pending.request.arrival,
                        deadline: pending.deadline,
                        outcome: RequestOutcome::Success {
                            completed: timing.end,
                            batch: result.batch,
                            worker: result.worker,
                            gpu: result.gpu,
                            cold_start: pending.cold,
                        },
                    });
                }
            }
            ActionOutcome::Error { at, .. } => {
                self.requeue_or_reject(now, batch.requests, *at, RejectReason::WorkerRejected, ctx);
            }
        }
    }

    /// Re-queues the requests of a failed batch that still have a chance of
    /// meeting their deadline; rejects the rest at `at` with `reason`. Shared
    /// by worker-reported action errors and fault resolution (a crashed
    /// worker never reports anything, so the controller synthesises the
    /// failure itself).
    fn requeue_or_reject(
        &mut self,
        now: Timestamp,
        requests: Vec<PendingRequest>,
        at: Timestamp,
        reason: RejectReason,
        ctx: &mut SchedulerCtx,
    ) {
        for pending in requests {
            let min_exec = self.exec_estimate(pending.request.model, 1);
            let still_possible = pending.deadline == Timestamp::MAX
                || now + min_exec + self.config.network_allowance < pending.deadline;
            if still_possible {
                let model = pending.request.model;
                let entry = self.models.get_mut(&model).expect("model exists");
                let was_queued = !entry.queue.is_empty();
                let old_hint = entry.min_deadline_hint;
                entry.note_queue_changed();
                entry.deadline_added(pending.deadline);
                entry.queue.push_front(pending);
                self.resync_urgency(model, was_queued, old_hint);
                self.queued_total += 1;
                self.note_model_changed(model);
            } else {
                self.reject(&pending, at, reason, ctx);
            }
        }
    }

    /// Handles one GPU dying (alone or as part of a worker crash): resolves
    /// every outstanding action on it — the worker will never answer them —
    /// invalidates the residency indices and cached demand that pointed at
    /// it, and parks the GPU out of both scheduling indices until recovery.
    fn note_gpu_failed(&mut self, now: Timestamp, gpu_ref: GpuRef, ctx: &mut SchedulerCtx) {
        let Some(gpu_idx) = self.tracker.gpu_index(gpu_ref) else {
            return;
        };
        if self.tracker.gpus()[gpu_idx].alive {
            self.alive_gpus -= 1;
        }
        // Resolve outstanding actions in action-id (issue) order so requeue
        // order — and therefore the digest — is deterministic.
        let mut lost: Vec<OutstandingAction> = self
            .tracker
            .get(gpu_ref)
            .map(|t| t.outstanding.values().copied().collect())
            .unwrap_or_default();
        lost.sort_unstable_by_key(|o| o.id);
        for o in &lost {
            if o.is_load {
                self.in_flight_loads.remove(&o.id);
            } else if let Some(batch) = self.in_flight.remove(&o.id) {
                self.requeue_or_reject(now, batch.requests, now, RejectReason::WorkerFailed, ctx);
            }
        }
        // Drop the GPU from both residency indices.
        let held: Vec<ModelId> = self.avail_by_gpu[gpu_idx].iter().copied().collect();
        for model in held {
            self.index_remove_holder(model, gpu_ref);
        }
        // Wipe the tracker's view; the GPU is cold and unschedulable.
        if let Some(track) = self.tracker.get_mut(gpu_ref) {
            track.note_fault(now);
        }
        self.exec_ready.update(gpu_idx, Timestamp::MAX);
        self.load_ready.update(gpu_idx, Timestamp::MAX);
    }

    /// Re-admits a recovered GPU as cold capacity. Spurious recoveries —
    /// e.g. a `GpuRecover` whose failure window was already superseded by a
    /// worker restart — are no-ops so they cannot push the GPU's free times
    /// (and its place in the scheduling indices) into the future.
    fn note_gpu_recovered(&mut self, now: Timestamp, gpu_ref: GpuRef) {
        let Some(gpu_idx) = self.tracker.gpu_index(gpu_ref) else {
            return;
        };
        if let Some(track) = self.tracker.get_mut(gpu_ref) {
            if track.alive {
                return;
            }
            track.note_recovered(now);
            self.exec_ready.update(gpu_idx, track.exec_free_at);
            self.load_ready.update(gpu_idx, track.load_free_at);
            self.alive_gpus += 1;
            self.infer_dirty.insert(gpu_idx);
        }
    }

    /// The GPUs of one worker, in registration order.
    fn worker_gpu_refs(&mut self, worker: WorkerId) -> Vec<GpuRef> {
        let mut refs = std::mem::take(&mut self.scratch_gpus);
        refs.clear();
        refs.extend(
            self.tracker
                .gpus()
                .iter()
                .filter(|g| g.gpu_ref.worker == worker)
                .map(|g| g.gpu_ref),
        );
        refs
    }

    fn handle_load_result(&mut self, result: &ActionResult) {
        let gpu_ref = GpuRef {
            worker: result.worker,
            gpu: result.gpu,
        };
        let success = result.is_success();
        if let Some(track) = self.tracker.get_mut(gpu_ref) {
            // A stale result (its action was already resolved by a fault)
            // must not touch the residency indices either: the entry it
            // would remove may belong to a newer LOAD of the same model
            // issued after the GPU recovered.
            let applied = track.note_load_result(result.action_id, result.model, success);
            if applied && !success {
                // The model never became resident; drop it from the indices.
                self.index_remove_holder(result.model, gpu_ref);
            }
        }
        self.in_flight_loads.remove(&result.action_id);
        if let ActionOutcome::Success(timing) = &result.outcome {
            self.profiler
                .record(ProfileKey::load(result.model), timing.device_duration);
        }
    }
}

impl Scheduler for ClockworkScheduler {
    fn add_gpu(&mut self, gpu_ref: GpuRef, total_pages: u64, page_size: u64) {
        ClockworkScheduler::add_gpu(self, gpu_ref, total_pages, page_size);
    }

    fn add_model(&mut self, id: ModelId, spec: Arc<ModelSpec>, load_seed: Nanos) {
        ClockworkScheduler::add_model(self, id, spec, load_seed);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_request(&mut self, now: Timestamp, request: InferenceRequest, ctx: &mut SchedulerCtx) {
        if !self.models.contains_key(&request.model) {
            ctx.send_response(Response {
                request: request.id,
                model: request.model,
                arrival: request.arrival,
                deadline: request.deadline(),
                outcome: RequestOutcome::Rejected {
                    at: now,
                    reason: RejectReason::UnknownModel,
                },
            });
            return;
        }
        let cold = !self.holders.contains_key(&request.model);
        if cold {
            self.stats.cold_requests += 1;
        }
        let deadline = request.deadline();
        let pending = PendingRequest {
            request,
            deadline,
            cold,
        };
        // Admission control: can this request possibly meet its SLO? Warm
        // models are priced against the batch-amortized cost of draining the
        // backlog this request joins (its share of covering the queue with
        // the largest compiled kernels, split across the GPUs holding the
        // weights), not the optimistic batch-1 kernel — so under overload a
        // request doomed by queueing is shed up front instead of polluting
        // the FIFO prefix every formed batch must serve. With an empty queue
        // the amortized price IS the batch-1 estimate, so light load admits
        // identically; with `batching` off the pricing stays pure batch-1
        // (the PR 6 comparator behavior).
        if self.config.admission_control && deadline != Timestamp::MAX {
            let exec = self.exec_estimate(request.model, 1);
            let load = if cold {
                self.load_estimate(request.model)
            } else {
                Nanos::ZERO
            };
            let priced_exec = if cold || !self.config.batching {
                exec
            } else {
                self.amortized_admission_estimate(request.model, exec)
            };
            let best_case = priced_exec + load + self.config.network_allowance;
            if now + best_case > deadline {
                let warm_case = exec + self.config.network_allowance;
                let doomed_only_by_cold_start = cold && now + warm_case <= deadline;
                // Estimate-bearing rejection span: only the admission path
                // knows the best-case serving estimate that doomed the
                // request, so the facade defers to this span instead of
                // synthesizing an estimate-free one from the response.
                ctx.trace(TraceEvent::Rejected {
                    request: request.id.0,
                    model: request.model.0,
                    reason: RejectReason::CannotMeetSlo.as_str(),
                    estimate: best_case.as_nanos(),
                });
                self.reject(&pending, now, RejectReason::CannotMeetSlo, ctx);
                if doomed_only_by_cold_start {
                    // The rejection is an SLO violation caused purely by the
                    // model not being resident; record it so the LOAD
                    // scheduler sees the demand (Appendix B) and future
                    // requests for this model can be served.
                    let history = self.cold_rejections.entry(request.model).or_default();
                    history.push_back(now);
                    if history.len() > 4096 {
                        history.pop_front();
                    }
                    self.mark_demand_dirty(request.model);
                    self.profile.passes_request += 1;
                    self.schedule(now, ctx);
                }
                return;
            }
            // Graceful degradation: best-effort requests must clear the same
            // bar with headroom to spare. The amortized `best_case` grows
            // with the backlog, so under flash-crowd or churn pressure the
            // scaled bar crosses first and the discount tier is shed while
            // strict traffic is still admitted. All-strict workloads never
            // reach this branch.
            if self.config.tier_aware && request.tier == Tier::BestEffort {
                // The per-model amortized estimate is blind to cross-model
                // GPU contention: under a fleet-wide burst every model's own
                // queue stays shallow while the GPUs drown in aggregate
                // backlog (found by the flash-crowd zoo scenario — every
                // loss was a queue-deadline miss and not one request was
                // shed). Fold the aggregate backlog's fair drain share into
                // the best-effort bar; strict admission is untouched.
                let queued = self.queued_total;
                let alive = self.alive_gpus.max(1);
                let pressure = Nanos::from_nanos(exec.as_nanos().saturating_mul(queued) / alive);
                let scaled = Nanos::from_nanos(
                    (best_case + pressure)
                        .as_nanos()
                        .saturating_mul(self.config.best_effort_headroom_milli)
                        / 1000,
                );
                if now + scaled > deadline {
                    ctx.trace(TraceEvent::Rejected {
                        request: request.id.0,
                        model: request.model.0,
                        reason: RejectReason::BestEffortShed.as_str(),
                        estimate: scaled.as_nanos(),
                    });
                    self.reject(&pending, now, RejectReason::BestEffortShed, ctx);
                    return;
                }
            }
        }
        self.stats.admitted += 1;
        if ctx.tracing() {
            // The best-case serving estimate that justified admission
            // (batch-1 execution + any pending cold load + network
            // allowance). Recomputed only under tracing so the off path
            // stays untouched.
            let exec = self.exec_estimate(request.model, 1);
            let load = if cold {
                self.load_estimate(request.model)
            } else {
                Nanos::ZERO
            };
            let estimate = exec + load + self.config.network_allowance;
            ctx.trace(TraceEvent::Admitted {
                request: request.id.0,
                model: request.model.0,
                estimate: estimate.as_nanos(),
            });
        }
        let entry = self.models.get_mut(&request.model).expect("checked above");
        let was_queued = !entry.queue.is_empty();
        let old_hint = entry.min_deadline_hint;
        entry.note_queue_changed();
        entry.deadline_added(pending.deadline);
        entry.queue.push_back(pending);
        self.resync_urgency(request.model, was_queued, old_hint);
        self.queued_total += 1;
        self.note_model_changed(request.model);
        self.profile.passes_request += 1;
        self.schedule(now, ctx);
        if ctx.tracing() {
            // If the dispatch pass left this request queued, the urgency
            // index deferred it — record when the model's queue next turns
            // urgent (its earliest queued deadline).
            let entry = self.models.get(&request.model).expect("checked above");
            if entry.queue.back().map(|p| p.request.id) == Some(request.id) {
                ctx.trace(TraceEvent::Deferred {
                    request: request.id.0,
                    model: request.model.0,
                    until: entry.min_deadline_hint.as_nanos(),
                });
            }
        }
    }

    fn on_result(&mut self, now: Timestamp, result: &ActionResult, ctx: &mut SchedulerCtx) {
        match result.action_type {
            "INFER" => self.handle_infer_result(now, result, ctx),
            "LOAD" => self.handle_load_result(result),
            _ => {}
        }
        // The reporting GPU's residency or outstanding work changed.
        if let Some(idx) = self.tracker.gpu_index(GpuRef {
            worker: result.worker,
            gpu: result.gpu,
        }) {
            self.infer_dirty.insert(idx);
        }
        self.profile.passes_result += 1;
        self.schedule(now, ctx);
    }

    fn on_tick(&mut self, now: Timestamp, ctx: &mut SchedulerCtx) -> TickOutcome {
        if !self.journal.needs_pass(now) {
            // Nothing changed since the last pass and no time edge was
            // crossed: the pass would be a provable no-op. O(1).
            self.profile.ticks_skipped += 1;
            return TickOutcome::Skipped;
        }
        self.profile.ticks_full += 1;
        self.profile.passes_tick += 1;
        self.schedule(now, ctx);
        TickOutcome::Full
    }

    fn on_fault(&mut self, now: Timestamp, fault: &FaultKind, ctx: &mut SchedulerCtx) {
        match *fault {
            FaultKind::WorkerCrash { worker } => {
                self.down_workers.insert(WorkerId(worker));
                let refs = self.worker_gpu_refs(WorkerId(worker));
                for &gpu_ref in &refs {
                    self.note_gpu_failed(now, gpu_ref, ctx);
                }
                self.scratch_gpus = refs;
            }
            FaultKind::WorkerRestart { worker } => {
                // A restart replaces the machine: every GPU of the worker
                // comes back cold, superseding any individual GPU failure
                // whose window overlapped the downtime (the worker side
                // clears its per-GPU failed flags the same way).
                self.down_workers.remove(&WorkerId(worker));
                let refs = self.worker_gpu_refs(WorkerId(worker));
                for &gpu_ref in &refs {
                    self.note_gpu_recovered(now, gpu_ref);
                }
                self.scratch_gpus = refs;
            }
            FaultKind::GpuFail { worker, gpu } => {
                self.note_gpu_failed(
                    now,
                    GpuRef {
                        worker: WorkerId(worker),
                        gpu: GpuId(gpu),
                    },
                    ctx,
                );
            }
            FaultKind::GpuRecover { worker, gpu } => {
                // While the whole worker is down, a single-GPU recovery
                // cannot make the GPU reachable — leave it parked; the
                // worker restart will re-admit every GPU.
                if !self.down_workers.contains(&WorkerId(worker)) {
                    self.note_gpu_recovered(
                        now,
                        GpuRef {
                            worker: WorkerId(worker),
                            gpu: GpuId(gpu),
                        },
                    );
                }
            }
            // Link faults are a transport matter: the scheduler observes
            // their effects as late-arriving results and window-elapsed
            // rejections, which the normal result path already handles.
            FaultKind::LinkDegrade { .. }
            | FaultKind::LinkRestore { .. }
            | FaultKind::PartitionStart { .. }
            | FaultKind::PartitionEnd { .. } => {}
            // The joined worker's GPUs were announced through `add_gpu`
            // before this hook fired; the schedule() below starts placing
            // work on the cold capacity.
            FaultKind::WorkerJoin { .. } => {}
        }
        self.profile.passes_fault += 1;
        self.schedule(now, ctx);
    }

    /// Ticks are scheduled only when (and exactly when) a pass could do
    /// productive work, but always *on the legacy fixed-cadence grid*: the
    /// rebuild-every-tick scheduler ticked at `anchor + k·tick_interval`
    /// for as long as work was pending, with the anchor (re)set whenever
    /// the chain started from idle. Deadline-expiry rejections are stamped
    /// with the tick time they run at, so productive passes must land on
    /// byte-identical instants — this returns only points of that grid,
    /// skipping the prefix the journal proves would early-out, and `None`
    /// when no grid point can ever be productive (quiescent, or settled
    /// until the next event).
    fn next_tick(&self, now: Timestamp) -> Option<Timestamp> {
        if !self.has_outstanding_work() {
            // The legacy chain stopped here; the anchor resets exactly as
            // its grid did.
            self.tick_anchor.set(None);
            return None;
        }
        let anchor = match self.tick_anchor.get() {
            Some(anchor) => anchor,
            None => {
                // Work just appeared from idle: the legacy chain would have
                // scheduled its first tick from this instant.
                self.tick_anchor.set(Some(now));
                now
            }
        };
        let interval = self.config.tick_interval.as_nanos();
        if interval == 0 {
            return Some(now);
        }
        // Earliest instant a pass could be productive. A dirty journal means
        // "the very next grid point"; a clean one lets the whole provably
        // no-op prefix of the grid go unscheduled.
        let earliest = if self.journal.is_dirty() {
            now
        } else {
            let clean_until = self.journal.clean_until();
            if clean_until == Timestamp::MAX {
                // Busy but settled: every future tick would early-out until
                // an event re-dirties the state — and that event's own pass
                // restarts the chain.
                return None;
            }
            clean_until
        };
        // First grid point strictly after `now` and not before `earliest`.
        let base = earliest.max(now);
        let elapsed = (base - anchor).as_nanos();
        let k = elapsed / interval;
        let next = if base > now && elapsed % interval == 0 {
            k
        } else {
            k + 1
        };
        Some(anchor + self.config.tick_interval * next)
    }

    fn sched_profile(&self) -> SchedProfile {
        self.profile
    }

    fn name(&self) -> &'static str {
        // The batching switch is a policy difference large enough to be its
        // own discipline: reports and benches must never conflate the two.
        if self.config.batching {
            "clockwork"
        } else {
            "clockwork-nobatch"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestId;
    use clockwork_model::zoo::ModelZoo;
    use clockwork_worker::{ActionId, ActionTiming, GpuId, WorkerId};

    const PAGE: u64 = 16 * 1024 * 1024;

    fn gref() -> GpuRef {
        GpuRef {
            worker: WorkerId(0),
            gpu: GpuId(0),
        }
    }

    fn resnet() -> Arc<ModelSpec> {
        Arc::new(ModelZoo::new().resnet50().clone())
    }

    fn scheduler_with_one_gpu(pages: u64) -> ClockworkScheduler {
        let mut s = ClockworkScheduler::with_defaults();
        s.add_gpu(gref(), pages, PAGE);
        s.add_model(ModelId(1), resnet(), Nanos::from_millis_f64(8.33));
        s
    }

    fn request(id: u64, model: u32, arrival_ms: u64, slo_ms: u64) -> InferenceRequest {
        InferenceRequest {
            id: RequestId(id),
            model: ModelId(model),
            arrival: Timestamp::from_millis(arrival_ms),
            slo: Nanos::from_millis(slo_ms),
            tier: Tier::Strict,
        }
    }

    fn success_result(
        action_id: ActionId,
        action: &clockwork_worker::Action,
        start_ms: u64,
        dur_us: u64,
    ) -> ActionResult {
        let (model, batch, request_ids) = match &action.kind {
            ActionKind::Infer {
                model,
                batch,
                request_ids,
            } => (*model, *batch, request_ids.clone()),
            ActionKind::Load { model } => (*model, 1, vec![]),
            ActionKind::Unload { model } => (*model, 1, vec![]),
        };
        let start = Timestamp::from_millis(start_ms);
        let dur = Nanos::from_micros(dur_us);
        ActionResult {
            action_id,
            worker: WorkerId(0),
            gpu: GpuId(0),
            model,
            action_type: action.kind.type_name(),
            batch,
            request_ids,
            expected_duration: action.expected_duration,
            outcome: ActionOutcome::Success(ActionTiming {
                received: start,
                start,
                end: start + dur,
                device_duration: dur,
            }),
        }
    }

    #[test]
    fn unknown_model_is_rejected_immediately() {
        let mut s = scheduler_with_one_gpu(100);
        let mut ctx = SchedulerCtx::new();
        s.on_request(Timestamp::ZERO, request(1, 99, 0, 100), &mut ctx);
        let responses = ctx.take_responses();
        assert_eq!(responses.len(), 1);
        assert!(matches!(
            responses[0].outcome,
            RequestOutcome::Rejected {
                reason: RejectReason::UnknownModel,
                ..
            }
        ));
        assert!(ctx.take_actions().is_empty());
    }

    #[test]
    fn cold_request_triggers_load_then_infer() {
        let mut s = scheduler_with_one_gpu(100);
        let mut ctx = SchedulerCtx::new();
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 100), &mut ctx);
        let actions = ctx.take_actions();
        // The model is cold: a LOAD must be issued, plus an INFER that waits
        // for the load to complete.
        let kinds: Vec<&str> = actions.iter().map(|(_, a)| a.kind.type_name()).collect();
        assert!(kinds.contains(&"LOAD"), "actions: {kinds:?}");
        assert!(kinds.contains(&"INFER"), "actions: {kinds:?}");
        assert_eq!(s.stats().cold_requests, 1);
        assert_eq!(s.stats().admitted, 1);
        // The INFER must not be scheduled to start before the LOAD finishes.
        let load = actions
            .iter()
            .find(|(_, a)| a.kind.type_name() == "LOAD")
            .unwrap();
        let infer = actions
            .iter()
            .find(|(_, a)| a.kind.type_name() == "INFER")
            .unwrap();
        assert!(infer.1.window.earliest >= load.1.window.earliest + load.1.expected_duration);
    }

    #[test]
    fn admission_control_rejects_impossible_slos() {
        let mut s = scheduler_with_one_gpu(100);
        let mut ctx = SchedulerCtx::new();
        // 1 ms SLO on a cold model that needs ~8 ms of loading + ~2.6 ms exec.
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 1), &mut ctx);
        let responses = ctx.take_responses();
        assert_eq!(responses.len(), 1);
        assert!(matches!(
            responses[0].outcome,
            RequestOutcome::Rejected {
                reason: RejectReason::CannotMeetSlo,
                ..
            }
        ));
        assert_eq!(s.stats().rejected_admission, 1);
        assert!(ctx.take_actions().is_empty(), "no fruitless work");
    }

    #[test]
    fn warm_request_is_batched_and_completed() {
        let mut s = scheduler_with_one_gpu(100);
        let mut ctx = SchedulerCtx::new();
        // Warm the model up with one request.
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 100), &mut ctx);
        let actions = ctx.take_actions();
        let (load_id, load_action) = actions
            .iter()
            .find(|(_, a)| a.kind.type_name() == "LOAD")
            .map(|(_, a)| (a.id, a.clone()))
            .unwrap();
        // Report LOAD completion.
        s.on_result(
            Timestamp::from_millis(9),
            &success_result(load_id, &load_action, 0, 8_330),
            &mut ctx,
        );
        // The first request's own INFER (issued together with the LOAD) is
        // still outstanding; keep it so it can be completed below.
        let mut pending_infers: Vec<(ActionId, clockwork_worker::Action)> = actions
            .iter()
            .filter(|(_, a)| a.kind.type_name() == "INFER")
            .map(|(_, a)| (a.id, a.clone()))
            .collect();
        // Now send 4 more requests at once; they should be batched together.
        for i in 2..=5 {
            s.on_request(Timestamp::from_millis(10), request(i, 1, 10, 100), &mut ctx);
        }
        let actions = ctx.take_actions();
        pending_infers.extend(
            actions
                .iter()
                .filter(|(_, a)| a.kind.type_name() == "INFER")
                .map(|(_, a)| (a.id, a.clone())),
        );
        assert!(!pending_infers.is_empty());
        let mut responses = ctx.take_responses();
        let mut t_ms = 20;
        while let Some((id, action)) = pending_infers.pop() {
            s.on_result(
                Timestamp::from_millis(t_ms),
                &success_result(id, &action, t_ms, 3_000),
                &mut ctx,
            );
            t_ms += 5;
            for (_, a) in ctx.take_actions() {
                if a.kind.type_name() == "INFER" {
                    pending_infers.push((a.id, a));
                }
            }
            responses.extend(ctx.take_responses());
        }
        let successes = responses.iter().filter(|r| r.outcome.is_success()).count();
        assert_eq!(successes, 5, "all requests served: {responses:?}");
        assert_eq!(s.stats().completed, 5);
        assert_eq!(s.queued_requests(), 0);
        assert_eq!(s.in_flight_batches(), 0);
    }

    #[test]
    fn batching_prefers_larger_batches() {
        let mut s = scheduler_with_one_gpu(100);
        let mut ctx = SchedulerCtx::new();
        // Warm model.
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 1_000), &mut ctx);
        let actions = ctx.take_actions();
        let (load_id, load_action) = actions
            .iter()
            .find(|(_, a)| a.kind.type_name() == "LOAD")
            .map(|(_, a)| (a.id, a.clone()))
            .unwrap();
        // Finish the first INFER too so the executor is free.
        let first_infers: Vec<_> = actions
            .iter()
            .filter(|(_, a)| a.kind.type_name() == "INFER")
            .map(|(_, a)| (a.id, a.clone()))
            .collect();
        s.on_result(
            Timestamp::from_millis(9),
            &success_result(load_id, &load_action, 0, 8_330),
            &mut ctx,
        );
        for (id, a) in first_infers {
            s.on_result(
                Timestamp::from_millis(13),
                &success_result(id, &a, 9, 2_610),
                &mut ctx,
            );
        }
        let _ = ctx.take_actions();
        let _ = ctx.take_responses();
        // 16 simultaneous requests for a warm model. The first couple are
        // dispatched at batch 1 (the executor was idle); once those complete,
        // the backlog should be served with a large batch.
        for i in 10..26 {
            s.on_request(Timestamp::from_millis(20), request(i, 1, 20, 200), &mut ctx);
        }
        let mut max_batch = 0u32;
        let mut pending: Vec<(ActionId, clockwork_worker::Action)> = ctx
            .take_actions()
            .iter()
            .filter(|(_, a)| a.kind.type_name() == "INFER")
            .map(|(_, a)| (a.id, a.clone()))
            .collect();
        let mut t_ms = 26;
        while let Some((id, action)) = pending.pop() {
            if let ActionKind::Infer { batch, .. } = &action.kind {
                max_batch = max_batch.max(*batch);
            }
            s.on_result(
                Timestamp::from_millis(t_ms),
                &success_result(id, &action, t_ms, 3_000),
                &mut ctx,
            );
            t_ms += 5;
            pending.extend(
                ctx.take_actions()
                    .iter()
                    .filter(|(_, a)| a.kind.type_name() == "INFER")
                    .map(|(_, a)| (a.id, a.clone())),
            );
            let _ = ctx.take_responses();
        }
        assert!(max_batch >= 8, "expected large batch, got {max_batch}");
    }

    #[test]
    fn infer_windows_respect_deadlines() {
        let mut s = scheduler_with_one_gpu(100);
        let mut ctx = SchedulerCtx::new();
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 50), &mut ctx);
        let actions = ctx.take_actions();
        for (_, a) in &actions {
            if let ActionKind::Infer { .. } = a.kind {
                // latest + exec estimate must not exceed the deadline.
                let est = a.expected_duration;
                assert!(a.window.latest + est <= Timestamp::from_millis(50));
                assert!(a.window.earliest <= a.window.latest);
            }
        }
    }

    #[test]
    fn load_failure_releases_reserved_pages() {
        // Give the GPU so few pages that the load reservation matters.
        let mut s = scheduler_with_one_gpu(7);
        let mut ctx = SchedulerCtx::new();
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 100), &mut ctx);
        let actions = ctx.take_actions();
        let (load_id, load_action) = actions
            .iter()
            .find(|(_, a)| a.kind.type_name() == "LOAD")
            .map(|(_, a)| (a.id, a.clone()))
            .unwrap();
        let free_before = s.tracker().get(gref()).unwrap().free_pages;
        assert_eq!(free_before, 0, "all 7 pages reserved for the load");
        // The worker reports failure.
        let result = ActionResult {
            outcome: ActionOutcome::Error {
                error: clockwork_worker::ActionError::InsufficientPages {
                    needed: 7,
                    available: 0,
                },
                at: Timestamp::from_millis(1),
            },
            ..success_result(load_id, &load_action, 0, 8_330)
        };
        s.on_result(Timestamp::from_millis(1), &result, &mut ctx);
        assert_eq!(s.tracker().get(gref()).unwrap().free_pages, 7);
    }

    #[test]
    fn worker_rejection_requeues_if_time_allows() {
        let mut s = scheduler_with_one_gpu(100);
        let mut ctx = SchedulerCtx::new();
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 500), &mut ctx);
        let actions = ctx.take_actions();
        let (infer_id, infer_action) = actions
            .iter()
            .find(|(_, a)| a.kind.type_name() == "INFER")
            .map(|(_, a)| (a.id, a.clone()))
            .unwrap();
        let result = ActionResult {
            outcome: ActionOutcome::Error {
                error: clockwork_worker::ActionError::WindowElapsed,
                at: Timestamp::from_millis(12),
            },
            ..success_result(infer_id, &infer_action, 12, 0)
        };
        s.on_result(Timestamp::from_millis(12), &result, &mut ctx);
        // Deadline is 500 ms away, so the request goes back into the queue
        // and a new INFER is eventually issued rather than a rejection.
        let responses = ctx.take_responses();
        assert!(responses.iter().all(|r| !matches!(
            r.outcome,
            RequestOutcome::Rejected {
                reason: RejectReason::WorkerRejected,
                ..
            }
        )));
        assert!(s.queued_requests() + s.in_flight_batches() >= 1);
    }

    #[test]
    fn queued_requests_expire_when_deadline_passes() {
        let mut s = scheduler_with_one_gpu(100);
        let mut ctx = SchedulerCtx::new();
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 30), &mut ctx);
        let _ = ctx.take_actions();
        // Pretend nothing happened for 40 ms (the worker never answered).
        s.on_tick(Timestamp::from_millis(40), &mut ctx);
        // The queued copy of the request (if any) must be expired; at minimum
        // no INFER may be scheduled that would start after the deadline.
        for (_, a) in ctx.take_actions() {
            assert!(a.window.earliest <= Timestamp::from_millis(30));
        }
    }

    #[test]
    fn next_tick_only_fires_when_a_tick_could_act() {
        let s = scheduler_with_one_gpu(100);
        assert_eq!(s.next_tick(Timestamp::ZERO), None, "idle: no ticks");
        let mut s = scheduler_with_one_gpu(100);
        let mut ctx = SchedulerCtx::new();
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 100), &mut ctx);
        // The request was fully planned (LOAD and a dependent INFER are in
        // flight, the queue is empty): busy but settled, so no tick is
        // wanted — the results will re-arm the chain.
        assert!(s.in_flight_batches() >= 1);
        assert_eq!(s.next_tick(Timestamp::ZERO), None, "settled: no ticks");
        // A second request cannot be planned yet — the executor is committed
        // past the lookahead horizon — so a tick is wanted, on the legacy
        // 1 ms grid, no earlier than when the horizon reaches the
        // executor's free time.
        s.on_request(Timestamp::ZERO, request(2, 1, 0, 100), &mut ctx);
        assert!(s.queued_requests() >= 1);
        let tick = s.next_tick(Timestamp::ZERO).expect("queued work pending");
        assert!(tick > Timestamp::ZERO);
        assert_eq!(
            tick.as_nanos() % s.config().tick_interval.as_nanos(),
            0,
            "ticks stay on the fixed-cadence grid"
        );
        assert_eq!(s.name(), "clockwork");
    }

    #[test]
    fn lru_unload_makes_room_when_cache_is_full() {
        // 8 pages: exactly one ResNet50 (7 pages) fits at a time.
        let mut s = ClockworkScheduler::with_defaults();
        s.add_gpu(gref(), 8, PAGE);
        s.add_model(ModelId(1), resnet(), Nanos::from_millis_f64(8.33));
        s.add_model(ModelId(2), resnet(), Nanos::from_millis_f64(8.33));
        let mut ctx = SchedulerCtx::new();
        // Load and finish model 1.
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 100), &mut ctx);
        let actions = ctx.take_actions();
        for (id, a) in actions.iter().map(|(_, a)| (a.id, a.clone())) {
            let dur = if a.kind.type_name() == "LOAD" {
                8_330
            } else {
                2_610
            };
            s.on_result(
                Timestamp::from_millis(15),
                &success_result(id, &a, 10, dur),
                &mut ctx,
            );
        }
        let _ = ctx.take_actions();
        let _ = ctx.take_responses();
        // A request for model 2 must evict model 1 first.
        s.on_request(Timestamp::from_millis(50), request(2, 2, 50, 100), &mut ctx);
        let actions = ctx.take_actions();
        let kinds: Vec<&str> = actions.iter().map(|(_, a)| a.kind.type_name()).collect();
        assert!(kinds.contains(&"UNLOAD"), "kinds: {kinds:?}");
        assert!(kinds.contains(&"LOAD"), "kinds: {kinds:?}");
        assert_eq!(s.stats().unload_actions, 1);
    }

    #[test]
    fn no_slo_requests_are_never_rejected_by_admission() {
        let mut s = scheduler_with_one_gpu(100);
        let mut ctx = SchedulerCtx::new();
        let r = InferenceRequest {
            id: RequestId(1),
            model: ModelId(1),
            arrival: Timestamp::ZERO,
            slo: Nanos::MAX,
            tier: Tier::Strict,
        };
        s.on_request(Timestamp::ZERO, r, &mut ctx);
        assert_eq!(s.stats().admitted, 1);
        assert_eq!(ctx.take_responses().len(), 0);
    }

    #[test]
    fn worker_crash_resolves_in_flight_actions_and_clears_residency() {
        let mut s = scheduler_with_one_gpu(100);
        let mut ctx = SchedulerCtx::new();
        // Cold request: a LOAD and an INFER are outstanding on the only GPU.
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 500), &mut ctx);
        let _ = ctx.take_actions();
        assert_eq!(s.in_flight_batches(), 1);
        s.on_fault(
            Timestamp::from_millis(5),
            &FaultKind::WorkerCrash { worker: 0 },
            &mut ctx,
        );
        // The batch was resolved: with 495 ms of slack the request is
        // requeued, not rejected.
        assert_eq!(s.in_flight_batches(), 0);
        assert!(s.queued_requests() >= 1);
        assert!(ctx.take_responses().is_empty());
        let track = s.tracker().get(gref()).unwrap();
        assert!(!track.alive);
        assert!(track.resident.is_empty() && track.loading.is_empty());
        assert_eq!(track.free_pages, track.total_pages, "reservations returned");
        // While the fleet is dead, no actions are issued even on a tick.
        let _ = ctx.take_actions();
        s.on_tick(Timestamp::from_millis(6), &mut ctx);
        assert!(
            ctx.take_actions().is_empty(),
            "no work may be sent to a dead worker"
        );
        // Restart: the queued request is scheduled again, cold (LOAD first).
        s.on_fault(
            Timestamp::from_millis(10),
            &FaultKind::WorkerRestart { worker: 0 },
            &mut ctx,
        );
        let kinds: Vec<&str> = ctx
            .take_actions()
            .iter()
            .map(|(_, a)| a.kind.type_name())
            .collect();
        assert!(
            kinds.contains(&"LOAD"),
            "recovered worker must be treated as cold: {kinds:?}"
        );
        assert!(kinds.contains(&"INFER"), "{kinds:?}");
    }

    #[test]
    fn crash_with_no_slack_rejects_with_worker_failed() {
        let mut s = scheduler_with_one_gpu(100);
        let mut ctx = SchedulerCtx::new();
        // 20 ms SLO: cold start (~8.3 + 2.6 ms) fits, so the request is
        // admitted and dispatched.
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 20), &mut ctx);
        let _ = ctx.take_actions();
        assert_eq!(s.in_flight_batches(), 1);
        // The GPU dies at 18 ms: 2.6 ms of exec no longer fits before the
        // 20 ms deadline, so the request must be rejected — exactly once,
        // with the fault-specific reason.
        s.on_fault(
            Timestamp::from_millis(18),
            &FaultKind::GpuFail { worker: 0, gpu: 0 },
            &mut ctx,
        );
        let responses = ctx.take_responses();
        assert_eq!(responses.len(), 1);
        assert!(matches!(
            responses[0].outcome,
            RequestOutcome::Rejected {
                reason: RejectReason::WorkerFailed,
                ..
            }
        ));
        assert_eq!(s.stats().rejected_worker_failed, 1);
        assert_eq!(s.queued_requests(), 0);
        assert_eq!(s.in_flight_batches(), 0);
    }

    #[test]
    fn cold_rejections_still_drive_load_scheduling() {
        // A model whose SLO is tighter than its own cold-start time: every
        // request is rejected up-front while the model is cold, but those
        // rejections are SLO violations and must still cause the model to be
        // loaded (Appendix B), so that later requests can be served.
        let mut s = scheduler_with_one_gpu(200);
        let mut ctx = SchedulerCtx::new();

        // 5 ms SLO: warm execution (~2.6 ms) fits, cold start (~11 ms) does not.
        s.on_request(Timestamp::from_millis(1), request(1, 1, 1, 5), &mut ctx);
        let responses = ctx.take_responses();
        assert_eq!(responses.len(), 1);
        assert!(!responses[0].outcome.is_success());

        // The rejection must have triggered a LOAD for the model anyway.
        let actions = ctx.take_actions();
        let load = actions
            .iter()
            .find(|(_, a)| matches!(a.kind, ActionKind::Load { model } if model == ModelId(1)))
            .expect("cold rejection should schedule a LOAD");
        let (_, load_action) = load;

        // Complete the LOAD; a later request with the same tight SLO is now
        // admitted and scheduled.
        s.on_result(
            Timestamp::from_millis(10),
            &success_result(load_action.id, load_action, 2, 8_330),
            &mut ctx,
        );
        ctx.take_actions();
        ctx.take_responses();
        s.on_request(Timestamp::from_millis(12), request(2, 1, 12, 5), &mut ctx);
        s.on_tick(Timestamp::from_millis(12), &mut ctx);
        let actions = ctx.take_actions();
        assert!(
            actions.iter().any(|(_, a)| a.kind.is_infer()),
            "warm model with a feasible SLO must be scheduled, got {actions:?}"
        );
        assert_eq!(s.stats().rejected_admission, 1);
    }

    /// A dispatch can make the model feasible again on a holder *earlier*
    /// in index order: the whole-fleet pass places that INFER in its second
    /// stage, so the event-local pass must carry the GPU into it too, not
    /// only the GPUs that received a LOAD.
    #[test]
    fn a_dispatch_that_unblocks_an_earlier_gpu_is_placed_in_the_same_pass() {
        let g0 = gref();
        let g1 = GpuRef {
            worker: WorkerId(1),
            gpu: GpuId(0),
        };
        let m = ModelId(1);
        let run = |mut s: ClockworkScheduler| {
            s.add_gpu(g0, 100, PAGE);
            s.add_gpu(g1, 100, PAGE);
            s.add_model(m, resnet(), Nanos::from_millis_f64(8.33));
            // GPU 0 holds the model, its executor busy until 4.5 ms; GPU 1
            // is loading it (done at 8 ms), its executor busy until 3.5 ms.
            let load = |id: u64| OutstandingAction {
                id: ActionId(id),
                model: m,
                expected_completion: Timestamp::from_millis(8),
                is_load: true,
            };
            let t0 = s.tracker.get_mut(g0).unwrap();
            t0.note_load_sent(load(900), 7, Timestamp::ZERO, Nanos::from_millis(8));
            t0.note_load_result(ActionId(900), m, true);
            t0.exec_free_at = Timestamp::from_nanos(4_500_000);
            s.exec_ready.update(0, Timestamp::from_nanos(4_500_000));
            let t1 = s.tracker.get_mut(g1).unwrap();
            t1.note_load_sent(load(901), 7, Timestamp::ZERO, Nanos::from_millis(8));
            t1.exec_free_at = Timestamp::from_nanos(3_500_000);
            s.exec_ready.update(1, Timestamp::from_nanos(3_500_000));
            s.in_flight_loads.insert(ActionId(901));
            s.index_add_holder(m, g0);
            s.index_add_holder(m, g1);
            // A tight request (deadline 7 ms) then a loose one queue behind
            // each other: neither GPU can start the tight one in time.
            let mut ctx = SchedulerCtx::new();
            s.on_request(Timestamp::ZERO, request(1, 1, 0, 7), &mut ctx);
            s.on_request(Timestamp::ZERO, request(2, 1, 0, 100), &mut ctx);
            assert!(ctx.take_actions().is_empty());
            // The LOAD lands early on GPU 1: the tight request fits there
            // (filling it past the horizon), which unblocks the loose one
            // on GPU 0 — earlier in index order than the dispatching GPU.
            let result = ActionResult {
                action_id: ActionId(901),
                worker: g1.worker,
                gpu: g1.gpu,
                model: m,
                action_type: "LOAD",
                batch: 1,
                request_ids: vec![],
                expected_duration: Nanos::from_millis(8),
                outcome: ActionOutcome::Success(ActionTiming {
                    received: Timestamp::ZERO,
                    start: Timestamp::ZERO,
                    end: Timestamp::from_millis(1),
                    device_duration: Nanos::from_millis(1),
                }),
            };
            s.on_result(Timestamp::from_millis(1), &result, &mut ctx);
            ctx.take_actions()
                .into_iter()
                .map(|(w, a)| format!("{w} {:?} {:?}", a.gpu, a.kind))
                .collect::<Vec<_>>()
        };
        let local = run(ClockworkScheduler::with_defaults());
        let oracle = run(ClockworkScheduler::new_all_scope(
            ClockworkSchedulerConfig::default(),
        ));
        assert_eq!(local, oracle);
        assert_eq!(local.len(), 2, "{local:?}");
        assert!(local[0].starts_with("w1") && local[0].contains("[1]"));
        assert!(local[1].starts_with("w0") && local[1].contains("[2]"));
    }

    /// An INFER result that lowers a model's execution estimate can make a
    /// queued request feasible on *another* GPU holding the model, one that
    /// neither reported the result nor crossed into the horizon.
    #[test]
    fn an_estimate_drop_reopens_other_holders() {
        let g0 = gref();
        let g1 = GpuRef {
            worker: WorkerId(1),
            gpu: GpuId(0),
        };
        let m = ModelId(1);
        let run = |mut s: ClockworkScheduler| {
            s.add_gpu(g0, 100, PAGE);
            s.add_gpu(g1, 100, PAGE);
            s.add_model(m, resnet(), Nanos::from_millis_f64(8.33));
            for (i, gpu) in [g0, g1].into_iter().enumerate() {
                let track = s.tracker.get_mut(gpu).unwrap();
                let load = OutstandingAction {
                    id: ActionId(900 + i as u64),
                    model: m,
                    expected_completion: Timestamp::ZERO,
                    is_load: true,
                };
                track.note_load_sent(load, 7, Timestamp::ZERO, Nanos::ZERO);
                track.note_load_result(load.id, m, true);
                s.index_add_holder(m, gpu);
            }
            // GPU 0 is busy past any horizon below with an INFER of the
            // model; GPU 1 frees at 11 ms.
            s.tracker.get_mut(g0).unwrap().exec_free_at = Timestamp::from_millis(20);
            s.exec_ready.update(0, Timestamp::from_millis(20));
            s.in_flight
                .insert(ActionId(700), InFlightBatch { requests: vec![] });
            s.tracker.get_mut(g1).unwrap().exec_free_at = Timestamp::from_millis(11);
            s.exec_ready.update(1, Timestamp::from_millis(11));
            // Deadline 13 ms: at the 2.61 ms seed estimate the request must
            // start by 9.89 ms, too early for GPU 1.
            let mut ctx = SchedulerCtx::new();
            s.on_request(Timestamp::from_millis(8), request(1, 1, 8, 5), &mut ctx);
            assert!(ctx.take_actions().is_empty());
            // GPU 0 reports the earlier INFER at 1 ms: the estimate drops and
            // the request now fits GPU 1 (start by 11.5 ms).
            let result = ActionResult {
                action_id: ActionId(700),
                worker: g0.worker,
                gpu: g0.gpu,
                model: m,
                action_type: "INFER",
                batch: 1,
                request_ids: vec![],
                expected_duration: Nanos::from_millis_f64(2.61),
                outcome: ActionOutcome::Success(ActionTiming {
                    received: Timestamp::from_millis(8),
                    start: Timestamp::from_millis(8),
                    end: Timestamp::from_millis(9),
                    device_duration: Nanos::from_millis(1),
                }),
            };
            s.on_result(Timestamp::from_millis(9), &result, &mut ctx);
            ctx.take_actions()
                .into_iter()
                .map(|(w, a)| format!("{w} {:?} {:?}", a.gpu, a.kind))
                .collect::<Vec<_>>()
        };
        let local = run(ClockworkScheduler::with_defaults());
        let oracle = run(ClockworkScheduler::new_all_scope(
            ClockworkSchedulerConfig::default(),
        ));
        assert_eq!(local, oracle);
        assert_eq!(local.len(), 1, "{local:?}");
        assert!(local[0].starts_with("w1") && local[0].contains("[1]"));
    }

    #[test]
    fn best_effort_is_shed_under_fleet_pressure_while_strict_admits() {
        let mut s = scheduler_with_one_gpu(200);
        let mut ctx = SchedulerCtx::new();
        // Occupy the single GPU with a cold-start request, then pile a
        // backlog into the model queue behind it. Generous SLOs keep plain
        // admission open while the aggregate queue grows.
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 10_000), &mut ctx);
        for i in 0..24 {
            s.on_request(
                Timestamp::from_millis(1),
                request(10 + i, 1, 1, 10_000),
                &mut ctx,
            );
        }
        ctx.take_actions();
        ctx.take_responses();

        // A strict request with a moderate SLO still clears admission: the
        // amortized best case fits inside its deadline.
        let admitted_before = s.stats().admitted;
        s.on_request(Timestamp::from_millis(2), request(100, 1, 2, 300), &mut ctx);
        assert_eq!(
            s.stats().admitted,
            admitted_before + 1,
            "strict request must be admitted under the same backlog"
        );
        assert_eq!(s.stats().rejected_shed, 0);

        // The *identical* request at the best-effort tier is shed: the
        // fleet-pressure bar (aggregate backlog's fair drain share, scaled
        // by the headroom factor) crosses its deadline first.
        let mut be = request(101, 1, 2, 300);
        be.tier = Tier::BestEffort;
        s.on_request(Timestamp::from_millis(2), be, &mut ctx);
        assert_eq!(s.stats().rejected_shed, 1, "best-effort twin must be shed");
        let responses = ctx.take_responses();
        assert!(
            responses.iter().any(|r| matches!(
                r.outcome,
                RequestOutcome::Rejected {
                    reason: RejectReason::BestEffortShed,
                    ..
                }
            )),
            "shed response must carry the BestEffortShed reason"
        );

        // With tier-awareness off the same best-effort request is admitted:
        // the shed branch is opt-out without touching plain admission.
        let mut blind = ClockworkScheduler::new(ClockworkSchedulerConfig {
            tier_aware: false,
            ..ClockworkSchedulerConfig::default()
        });
        blind.add_gpu(gref(), 200, PAGE);
        blind.add_model(ModelId(1), resnet(), Nanos::from_millis_f64(8.33));
        let mut ctx = SchedulerCtx::new();
        blind.on_request(Timestamp::ZERO, request(1, 1, 0, 10_000), &mut ctx);
        for i in 0..24 {
            blind.on_request(
                Timestamp::from_millis(1),
                request(10 + i, 1, 1, 10_000),
                &mut ctx,
            );
        }
        let mut be = request(101, 1, 2, 300);
        be.tier = Tier::BestEffort;
        blind.on_request(Timestamp::from_millis(2), be, &mut ctx);
        assert_eq!(blind.stats().rejected_shed, 0);
        assert_eq!(blind.stats().admitted, 26);
    }
}
