//! The controller's mirror of worker state (§5.3 "Managing worker state").
//!
//! The scheduler never asks a worker what it is doing — it *knows*, because
//! workers only do what they are told and their action latencies are
//! predictable. For every GPU the controller tracks three things: the memory
//! state of the paged weights cache (which models are resident or being
//! loaded, and how many pages are free), the set of outstanding actions, and
//! an estimate of when each executor will next be available. Together with
//! the action profiles this is enough to predict when any candidate action
//! would complete.

use std::collections::{BTreeSet, HashMap, HashSet};

use clockwork_model::ModelId;
use clockwork_sim::engine::FaultKind;
use clockwork_sim::time::{Nanos, Timestamp};
use clockwork_worker::{ActionId, GpuId, WorkerId};

/// A (worker, GPU) pair — the unit of scheduling.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GpuRef {
    /// The worker machine.
    pub worker: WorkerId,
    /// The GPU on that worker.
    pub gpu: GpuId,
}

impl std::fmt::Display for GpuRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.worker, self.gpu)
    }
}

/// An action the controller has sent and not yet heard back about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutstandingAction {
    /// The action id.
    pub id: ActionId,
    /// The model it concerns.
    pub model: ModelId,
    /// The controller's predicted completion time.
    pub expected_completion: Timestamp,
    /// Whether it is a LOAD (false = INFER; UNLOADs are not tracked).
    pub is_load: bool,
}

/// The tracked state of one GPU.
#[derive(Clone, Debug)]
pub struct GpuTrack {
    /// Which GPU this is.
    pub gpu_ref: GpuRef,
    /// Total pages in the weights cache.
    pub total_pages: u64,
    /// Pages not allocated to any resident or loading model.
    pub free_pages: u64,
    /// Page size in bytes.
    pub page_size: u64,
    /// Models whose weights are resident (LOAD confirmed complete).
    pub resident: HashSet<ModelId>,
    /// Models for which a LOAD is outstanding.
    pub loading: HashSet<ModelId>,
    /// Pages held by each resident or loading model.
    pub pages_held: HashMap<ModelId, u64>,
    /// Last time an INFER was scheduled per model (drives LRU eviction).
    pub last_used: HashMap<ModelId, Timestamp>,
    /// Estimated time at which the INFER executor is next free.
    pub exec_free_at: Timestamp,
    /// Estimated time at which the LOAD executor is next free.
    pub load_free_at: Timestamp,
    /// Outstanding actions on this GPU.
    pub outstanding: HashMap<ActionId, OutstandingAction>,
    /// Whether the GPU (and its worker) is up. Dead GPUs receive no work.
    pub alive: bool,
}

impl GpuTrack {
    /// Creates the track for a GPU with the given cache geometry.
    pub fn new(gpu_ref: GpuRef, total_pages: u64, page_size: u64) -> Self {
        GpuTrack {
            gpu_ref,
            total_pages,
            free_pages: total_pages,
            page_size,
            resident: HashSet::new(),
            loading: HashSet::new(),
            pages_held: HashMap::new(),
            last_used: HashMap::new(),
            exec_free_at: Timestamp::ZERO,
            load_free_at: Timestamp::ZERO,
            outstanding: HashMap::new(),
            alive: true,
        }
    }

    /// Resets the track after the GPU (or its whole worker) died: residency,
    /// page reservations and outstanding actions are gone, the memory comes
    /// back empty, and the GPU is unschedulable until [`GpuTrack::note_recovered`].
    /// The caller is responsible for resolving the outstanding actions (they
    /// will never produce a result) *before* calling this.
    pub fn note_fault(&mut self, now: Timestamp) {
        self.resident.clear();
        self.loading.clear();
        self.pages_held.clear();
        self.last_used.clear();
        self.outstanding.clear();
        self.free_pages = self.total_pages;
        self.exec_free_at = now;
        self.load_free_at = now;
        self.alive = false;
    }

    /// Marks the GPU usable again after a fault, cold (nothing resident).
    pub fn note_recovered(&mut self, now: Timestamp) {
        self.alive = true;
        self.exec_free_at = self.exec_free_at.max(now);
        self.load_free_at = self.load_free_at.max(now);
    }

    /// Whether a model is usable for INFER scheduling on this GPU (resident,
    /// or a LOAD is already on its way).
    pub fn has_or_loading(&self, model: ModelId) -> bool {
        self.resident.contains(&model) || self.loading.contains(&model)
    }

    /// Whether the model is confirmed resident.
    pub fn is_resident(&self, model: ModelId) -> bool {
        self.resident.contains(&model)
    }

    /// Number of pages a weights blob of `bytes` needs on this GPU.
    pub fn pages_for(&self, bytes: u64) -> u64 {
        if self.page_size == 0 {
            return 0;
        }
        bytes.div_ceil(self.page_size).max(1)
    }

    /// The time an INFER could start if sent now, given outstanding work.
    pub fn next_exec_slot(&self, now: Timestamp) -> Timestamp {
        self.exec_free_at.max(now)
    }

    /// The time a LOAD could start if sent now, given outstanding work.
    pub fn next_load_slot(&self, now: Timestamp) -> Timestamp {
        self.load_free_at.max(now)
    }

    /// Marks an INFER as scheduled: occupies the executor and touches LRU.
    pub fn note_infer_sent(
        &mut self,
        action: OutstandingAction,
        start: Timestamp,
        duration: Nanos,
    ) {
        self.exec_free_at = self.exec_free_at.max(start + duration);
        self.last_used.insert(action.model, start);
        self.outstanding.insert(action.id, action);
    }

    /// Marks a LOAD as scheduled: reserves pages, occupies the load executor.
    pub fn note_load_sent(
        &mut self,
        action: OutstandingAction,
        pages: u64,
        start: Timestamp,
        duration: Nanos,
    ) {
        self.free_pages = self.free_pages.saturating_sub(pages);
        self.pages_held.insert(action.model, pages);
        self.loading.insert(action.model);
        self.load_free_at = self.load_free_at.max(start + duration);
        self.last_used.entry(action.model).or_insert(start);
        self.outstanding.insert(action.id, action);
    }

    /// Marks an UNLOAD as sent: frees pages immediately (UNLOAD always
    /// succeeds and is metadata-only).
    pub fn note_unload_sent(&mut self, model: ModelId) {
        if let Some(pages) = self.pages_held.remove(&model) {
            self.free_pages = (self.free_pages + pages).min(self.total_pages);
        }
        self.resident.remove(&model);
        self.loading.remove(&model);
        self.last_used.remove(&model);
    }

    /// Records a LOAD result. A result whose action is no longer outstanding
    /// is stale — e.g. it was produced just before the GPU crashed and the
    /// crash already resolved the action — and is ignored entirely, so it
    /// cannot resurrect residency on a GPU whose memory is gone. Returns
    /// whether the result was applied (false = stale), so callers keep their
    /// own side tables (residency indices) in lockstep with this track.
    pub fn note_load_result(&mut self, id: ActionId, model: ModelId, success: bool) -> bool {
        if self.outstanding.remove(&id).is_none() {
            return false;
        }
        self.loading.remove(&model);
        if success {
            self.resident.insert(model);
        } else {
            // The worker did not allocate pages; return our reservation.
            if let Some(pages) = self.pages_held.remove(&model) {
                self.free_pages = (self.free_pages + pages).min(self.total_pages);
            }
        }
        true
    }

    /// Records an INFER result (success or failure frees the executor claim).
    pub fn note_infer_result(&mut self, id: ActionId) {
        self.outstanding.remove(&id);
    }

    /// The least-recently-used resident model, excluding `protect`ed ones.
    pub fn lru_candidate(&self, protect: &HashSet<ModelId>) -> Option<ModelId> {
        self.resident
            .iter()
            .filter(|m| !protect.contains(m) && !self.loading.contains(m))
            .min_by_key(|m| {
                (
                    self.last_used.get(m).copied().unwrap_or(Timestamp::ZERO),
                    **m,
                )
            })
            .copied()
    }

    /// Fraction of pages in use.
    pub fn occupancy(&self) -> f64 {
        if self.total_pages == 0 {
            return 1.0;
        }
        1.0 - self.free_pages as f64 / self.total_pages as f64
    }
}

/// The controller's view of every GPU in the cluster.
#[derive(Clone, Debug, Default)]
pub struct WorkerStateTracker {
    gpus: Vec<GpuTrack>,
    index: HashMap<GpuRef, usize>,
    /// Workers currently crashed. While a worker is down, a lone GPU
    /// recovery cannot make its GPUs reachable — only the worker restart
    /// re-admits them.
    down_workers: HashSet<WorkerId>,
}

impl WorkerStateTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a GPU.
    pub fn add_gpu(&mut self, gpu_ref: GpuRef, total_pages: u64, page_size: u64) {
        let idx = self.gpus.len();
        self.gpus
            .push(GpuTrack::new(gpu_ref, total_pages, page_size));
        self.index.insert(gpu_ref, idx);
    }

    /// All tracked GPUs.
    pub fn gpus(&self) -> &[GpuTrack] {
        &self.gpus
    }

    /// Mutable access to all tracked GPUs.
    pub fn gpus_mut(&mut self) -> &mut [GpuTrack] {
        &mut self.gpus
    }

    /// Number of GPUs.
    pub fn len(&self) -> usize {
        self.gpus.len()
    }

    /// Whether no GPUs are registered.
    pub fn is_empty(&self) -> bool {
        self.gpus.is_empty()
    }

    /// Looks a GPU up by reference.
    pub fn get(&self, gpu_ref: GpuRef) -> Option<&GpuTrack> {
        self.index.get(&gpu_ref).map(|&i| &self.gpus[i])
    }

    /// The dense registration index of a GPU (its position in
    /// [`WorkerStateTracker::gpus`]), usable as a key into per-GPU side
    /// tables that want `Vec` indexing instead of hash lookups.
    pub fn gpu_index(&self, gpu_ref: GpuRef) -> Option<usize> {
        self.index.get(&gpu_ref).copied()
    }

    /// Mutable lookup by reference.
    pub fn get_mut(&mut self, gpu_ref: GpuRef) -> Option<&mut GpuTrack> {
        match self.index.get(&gpu_ref) {
            Some(&i) => self.gpus.get_mut(i),
            None => None,
        }
    }

    /// GPUs on which a model is resident or loading.
    pub fn gpus_with_model(&self, model: ModelId) -> Vec<GpuRef> {
        self.gpus
            .iter()
            .filter(|g| g.has_or_loading(model))
            .map(|g| g.gpu_ref)
            .collect()
    }

    /// Whether the model is resident or loading anywhere in the cluster.
    pub fn model_available_somewhere(&self, model: ModelId) -> bool {
        self.gpus.iter().any(|g| g.has_or_loading(model))
    }

    /// The GPU whose INFER executor frees up soonest.
    pub fn least_loaded_gpu(&self, now: Timestamp) -> Option<GpuRef> {
        self.gpus
            .iter()
            .min_by_key(|g| (g.next_exec_slot(now), g.gpu_ref))
            .map(|g| g.gpu_ref)
    }

    /// Applies a fleet fault to the tracked GPUs — the minimal fault
    /// awareness a scheduler needs to stop placing work on dead capacity and
    /// to re-admit recovered capacity cold.
    ///
    /// Failures mark the affected GPU(s) dead (wiping residency and page
    /// reservations) and return the ids of their outstanding actions, sorted,
    /// which will never produce a result; the caller resolves them (requeue
    /// or reject) in that deterministic order. Recoveries re-admit GPUs with
    /// nothing resident. A GPU recovery naming a GPU of a crashed worker is
    /// ignored — the machine is gone; only its restart brings the GPUs back.
    /// Link faults are a transport matter and touch nothing here.
    pub fn apply_fault(&mut self, now: Timestamp, fault: &FaultKind) -> Vec<ActionId> {
        let worker = WorkerId(fault.worker());
        let mut lost = Vec::new();
        match *fault {
            FaultKind::WorkerCrash { .. } => {
                self.down_workers.insert(worker);
                for track in &mut self.gpus {
                    if track.gpu_ref.worker == worker {
                        lost.extend(track.outstanding.keys().copied());
                        track.note_fault(now);
                    }
                }
            }
            FaultKind::WorkerRestart { .. } => {
                self.down_workers.remove(&worker);
                for track in &mut self.gpus {
                    if track.gpu_ref.worker == worker {
                        track.note_recovered(now);
                    }
                }
            }
            FaultKind::GpuFail { gpu, .. } => {
                if let Some(track) = self.get_mut(GpuRef {
                    worker,
                    gpu: GpuId(gpu),
                }) {
                    lost.extend(track.outstanding.keys().copied());
                    track.note_fault(now);
                }
            }
            FaultKind::GpuRecover { gpu, .. } => {
                if !self.down_workers.contains(&worker) {
                    if let Some(track) = self.get_mut(GpuRef {
                        worker,
                        gpu: GpuId(gpu),
                    }) {
                        track.note_recovered(now);
                    }
                }
            }
            FaultKind::LinkDegrade { .. }
            | FaultKind::LinkRestore { .. }
            | FaultKind::PartitionStart { .. }
            | FaultKind::PartitionEnd { .. } => {}
            // A join loses nothing; the new GPUs were already registered
            // through `add_gpu` and start alive and empty.
            FaultKind::WorkerJoin { .. } => {}
        }
        lost.sort_unstable();
        lost
    }
}

/// An index of per-GPU "next actionable" times.
///
/// The scheduling passes used to scan every GPU per event just to discover
/// that most executors are busy past the lookahead horizon. This index keeps
/// each GPU's next-free time in a sorted set so a pass can pull exactly the
/// GPUs that are actionable before the horizon — in ascending registration
/// order, which keeps the visiting order (and therefore every scheduling
/// decision and the determinism digest) identical to the full scan's.
///
/// Dead GPUs are parked at [`Timestamp::MAX`], which doubles as the
/// "never actionable" sentinel.
#[derive(Clone, Debug, Default)]
pub struct FreeAtIndex {
    by_time: BTreeSet<(Timestamp, u32)>,
    current: Vec<Timestamp>,
}

impl FreeAtIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        FreeAtIndex::default()
    }

    /// Registers the next GPU (dense indices, in registration order),
    /// initially free at time zero.
    pub fn push_gpu(&mut self) {
        let idx = self.current.len() as u32;
        self.current.push(Timestamp::ZERO);
        self.by_time.insert((Timestamp::ZERO, idx));
    }

    /// Number of GPUs registered.
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// Whether no GPUs are registered.
    pub fn is_empty(&self) -> bool {
        self.current.is_empty()
    }

    /// The currently indexed free time of a GPU.
    pub fn free_at(&self, idx: usize) -> Timestamp {
        self.current[idx]
    }

    /// Moves a GPU to a new free time.
    pub fn update(&mut self, idx: usize, free_at: Timestamp) {
        let old = self.current[idx];
        if old == free_at {
            return;
        }
        self.by_time.remove(&(old, idx as u32));
        self.by_time.insert((free_at, idx as u32));
        self.current[idx] = free_at;
    }

    /// Collects the dense indices of every GPU whose free time is strictly
    /// before `horizon`, sorted ascending (registration order), into `out`.
    pub fn actionable_into(&self, horizon: Timestamp, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            self.by_time
                .range(..(horizon, 0u32))
                .map(|&(_, idx)| idx as usize),
        );
        out.sort_unstable();
    }

    /// The dense indices of the GPUs whose free time lies in `[from, to)`:
    /// the GPUs a lookahead horizon advancing from `from` to `to` brings
    /// into reach, in time order. Parked GPUs never enter.
    pub fn entering(&self, from: Timestamp, to: Timestamp) -> impl Iterator<Item = usize> + '_ {
        self.by_time
            .range((from, 0u32)..(to, 0u32))
            .map(|&(_, idx)| idx as usize)
    }

    /// The earliest indexed free time at or after `horizon`, skipping the
    /// [`Timestamp::MAX`] parked sentinel: the next instant at which pure
    /// time passage makes a currently non-actionable GPU actionable.
    pub fn next_beyond(&self, horizon: Timestamp) -> Option<Timestamp> {
        self.by_time
            .range((horizon, 0u32)..)
            .map(|&(t, _)| t)
            .find(|&t| t != Timestamp::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gref(w: u32, g: u32) -> GpuRef {
        GpuRef {
            worker: WorkerId(w),
            gpu: GpuId(g),
        }
    }

    fn outstanding(id: u64, model: u32, done_ms: u64, is_load: bool) -> OutstandingAction {
        OutstandingAction {
            id: ActionId(id),
            model: ModelId(model),
            expected_completion: Timestamp::from_millis(done_ms),
            is_load,
        }
    }

    #[test]
    fn add_and_lookup_gpus() {
        let mut t = WorkerStateTracker::new();
        assert!(t.is_empty());
        t.add_gpu(gref(0, 0), 100, 16);
        t.add_gpu(gref(0, 1), 100, 16);
        t.add_gpu(gref(1, 0), 50, 16);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(gref(1, 0)).unwrap().total_pages, 50);
        assert!(t.get(gref(9, 9)).is_none());
        assert_eq!(format!("{}", gref(1, 0)), "w1/g0");
    }

    #[test]
    fn load_reserves_pages_and_result_confirms_residency() {
        let mut g = GpuTrack::new(gref(0, 0), 10, 16 * 1024 * 1024);
        let model = ModelId(7);
        let pages = g.pages_for(100 * 1024 * 1024);
        assert_eq!(pages, 7);
        g.note_load_sent(
            outstanding(1, 7, 20, true),
            pages,
            Timestamp::from_millis(10),
            Nanos::from_millis(8),
        );
        assert_eq!(g.free_pages, 3);
        assert!(g.has_or_loading(model));
        assert!(!g.is_resident(model));
        assert_eq!(g.load_free_at, Timestamp::from_millis(18));
        g.note_load_result(ActionId(1), model, true);
        assert!(g.is_resident(model));
        assert_eq!(g.free_pages, 3, "pages stay allocated after success");
        assert!(g.outstanding.is_empty());
    }

    #[test]
    fn failed_load_returns_pages() {
        let mut g = GpuTrack::new(gref(0, 0), 10, 16 * 1024 * 1024);
        g.note_load_sent(
            outstanding(1, 7, 20, true),
            4,
            Timestamp::ZERO,
            Nanos::from_millis(8),
        );
        assert_eq!(g.free_pages, 6);
        g.note_load_result(ActionId(1), ModelId(7), false);
        assert_eq!(g.free_pages, 10);
        assert!(!g.has_or_loading(ModelId(7)));
    }

    #[test]
    fn unload_frees_pages_immediately() {
        let mut g = GpuTrack::new(gref(0, 0), 10, 16 * 1024 * 1024);
        g.note_load_sent(
            outstanding(1, 7, 20, true),
            4,
            Timestamp::ZERO,
            Nanos::from_millis(8),
        );
        g.note_load_result(ActionId(1), ModelId(7), true);
        g.note_unload_sent(ModelId(7));
        assert_eq!(g.free_pages, 10);
        assert!(!g.is_resident(ModelId(7)));
        // Unloading something unknown is harmless.
        g.note_unload_sent(ModelId(99));
        assert_eq!(g.free_pages, 10);
    }

    #[test]
    fn infer_occupies_executor_and_touches_lru() {
        let mut g = GpuTrack::new(gref(0, 0), 10, 16 * 1024 * 1024);
        g.note_infer_sent(
            outstanding(5, 3, 12, false),
            Timestamp::from_millis(10),
            Nanos::from_millis(3),
        );
        assert_eq!(g.exec_free_at, Timestamp::from_millis(13));
        assert_eq!(
            g.next_exec_slot(Timestamp::from_millis(5)),
            Timestamp::from_millis(13)
        );
        assert_eq!(
            g.next_exec_slot(Timestamp::from_millis(20)),
            Timestamp::from_millis(20)
        );
        assert_eq!(
            g.last_used.get(&ModelId(3)),
            Some(&Timestamp::from_millis(10))
        );
        g.note_infer_result(ActionId(5));
        assert!(g.outstanding.is_empty());
    }

    #[test]
    fn lru_candidate_respects_protection_and_order() {
        let mut g = GpuTrack::new(gref(0, 0), 20, 16 * 1024 * 1024);
        for (i, used_ms) in [(1u32, 30u64), (2, 10), (3, 20)] {
            g.note_load_sent(
                outstanding(u64::from(i), i, 5, true),
                2,
                Timestamp::ZERO,
                Nanos::from_millis(1),
            );
            g.note_load_result(ActionId(u64::from(i)), ModelId(i), true);
            g.last_used
                .insert(ModelId(i), Timestamp::from_millis(used_ms));
        }
        let none = HashSet::new();
        assert_eq!(g.lru_candidate(&none), Some(ModelId(2)));
        let protect: HashSet<ModelId> = [ModelId(2)].into_iter().collect();
        assert_eq!(g.lru_candidate(&protect), Some(ModelId(3)));
        let all: HashSet<ModelId> = [ModelId(1), ModelId(2), ModelId(3)].into_iter().collect();
        assert_eq!(g.lru_candidate(&all), None);
    }

    #[test]
    fn note_fault_wipes_state_and_note_recovered_restores_cold() {
        let mut g = GpuTrack::new(gref(0, 0), 10, 16 * 1024 * 1024);
        g.note_load_sent(
            outstanding(1, 7, 20, true),
            4,
            Timestamp::ZERO,
            Nanos::from_millis(8),
        );
        g.note_load_result(ActionId(1), ModelId(7), true);
        g.note_infer_sent(
            outstanding(2, 7, 30, false),
            Timestamp::from_millis(10),
            Nanos::from_millis(3),
        );
        assert!(g.alive);
        g.note_fault(Timestamp::from_millis(20));
        assert!(!g.alive);
        assert_eq!(g.free_pages, 10);
        assert!(g.resident.is_empty());
        assert!(g.outstanding.is_empty());
        assert_eq!(g.exec_free_at, Timestamp::from_millis(20));
        // A stale LOAD result (produced pre-crash) must not resurrect
        // residency on the wiped GPU, and must report that it was ignored.
        assert!(!g.note_load_result(ActionId(1), ModelId(7), true));
        assert!(!g.is_resident(ModelId(7)));
        g.note_recovered(Timestamp::from_millis(50));
        assert!(g.alive);
        assert!(g.resident.is_empty(), "recovery is cold");
        assert_eq!(g.exec_free_at, Timestamp::from_millis(50));
    }

    #[test]
    fn free_at_index_tracks_actionable_gpus_in_registration_order() {
        let mut index = FreeAtIndex::new();
        assert!(index.is_empty());
        for _ in 0..4 {
            index.push_gpu();
        }
        assert_eq!(index.len(), 4);
        index.update(0, Timestamp::from_millis(50));
        index.update(2, Timestamp::from_millis(5));
        index.update(3, Timestamp::MAX); // dead GPU
        let mut out = Vec::new();
        index.actionable_into(Timestamp::from_millis(10), &mut out);
        assert_eq!(out, vec![1, 2], "free-at 0 and 5ms are actionable, sorted");
        // The horizon bound is strict: a GPU free exactly at the horizon is
        // not actionable, matching the scan's `slot >= horizon` break.
        index.actionable_into(Timestamp::from_millis(5), &mut out);
        assert_eq!(out, vec![1]);
        index.update(3, Timestamp::ZERO); // recovered
        index.actionable_into(Timestamp::from_millis(10), &mut out);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(index.free_at(0), Timestamp::from_millis(50));
        // Advancing the horizon from 10 ms to 60 ms brings GPU 0 (free at
        // 50 ms) into reach; the parked sentinel never enters.
        index.update(3, Timestamp::MAX);
        let entered: Vec<usize> = index
            .entering(Timestamp::from_millis(10), Timestamp::from_millis(60))
            .collect();
        assert_eq!(entered, vec![0]);
        assert_eq!(
            index
                .entering(Timestamp::from_millis(10), Timestamp::MAX)
                .count(),
            1
        );
    }

    #[test]
    fn free_at_index_next_beyond_skips_parked_gpus() {
        let mut index = FreeAtIndex::new();
        for _ in 0..3 {
            index.push_gpu();
        }
        index.update(0, Timestamp::from_millis(50));
        index.update(1, Timestamp::from_millis(5));
        index.update(2, Timestamp::MAX); // dead GPU never becomes actionable
        assert_eq!(
            index.next_beyond(Timestamp::from_millis(10)),
            Some(Timestamp::from_millis(50))
        );
        // Inclusive at the horizon: a GPU free exactly at the horizon is the
        // first to become actionable once time passes it.
        assert_eq!(
            index.next_beyond(Timestamp::from_millis(5)),
            Some(Timestamp::from_millis(5))
        );
        assert_eq!(index.next_beyond(Timestamp::from_millis(51)), None);
        assert_eq!(FreeAtIndex::new().next_beyond(Timestamp::ZERO), None);
    }

    #[test]
    fn apply_fault_parks_capacity_and_returns_lost_actions_sorted() {
        let mut t = WorkerStateTracker::new();
        t.add_gpu(gref(0, 0), 10, 16 * 1024 * 1024);
        t.add_gpu(gref(0, 1), 10, 16 * 1024 * 1024);
        t.add_gpu(gref(1, 0), 10, 16 * 1024 * 1024);
        for (gpu, id) in [(gref(0, 0), 9u64), (gref(0, 0), 2), (gref(0, 1), 5)] {
            t.get_mut(gpu).unwrap().note_infer_sent(
                outstanding(id, 1, 50, false),
                Timestamp::ZERO,
                Nanos::from_millis(3),
            );
        }
        let now = Timestamp::from_millis(10);
        let lost = t.apply_fault(now, &FaultKind::WorkerCrash { worker: 0 });
        assert_eq!(
            lost,
            vec![ActionId(2), ActionId(5), ActionId(9)],
            "lost ids cover every GPU of the worker, sorted"
        );
        assert!(!t.get(gref(0, 0)).unwrap().alive);
        assert!(!t.get(gref(0, 1)).unwrap().alive);
        assert!(t.get(gref(1, 0)).unwrap().alive, "other workers untouched");
        // A lone GPU recovery cannot revive a GPU of a crashed worker.
        t.apply_fault(now, &FaultKind::GpuRecover { worker: 0, gpu: 0 });
        assert!(!t.get(gref(0, 0)).unwrap().alive);
        // The restart re-admits every GPU, cold.
        let lost = t.apply_fault(now, &FaultKind::WorkerRestart { worker: 0 });
        assert!(lost.is_empty());
        assert!(t.get(gref(0, 0)).unwrap().alive);
        assert!(t.get(gref(0, 1)).unwrap().alive);
        // Single-GPU failure and standalone recovery.
        let lost = t.apply_fault(now, &FaultKind::GpuFail { worker: 1, gpu: 0 });
        assert!(lost.is_empty());
        assert!(!t.get(gref(1, 0)).unwrap().alive);
        t.apply_fault(now, &FaultKind::GpuRecover { worker: 1, gpu: 0 });
        assert!(t.get(gref(1, 0)).unwrap().alive);
        // Link faults touch nothing.
        t.apply_fault(now, &FaultKind::PartitionStart { worker: 1 });
        assert!(t.get(gref(1, 0)).unwrap().alive);
        // Faults naming unknown capacity are ignored.
        assert!(t
            .apply_fault(now, &FaultKind::GpuFail { worker: 9, gpu: 9 })
            .is_empty());
    }

    #[test]
    fn cluster_queries() {
        let mut t = WorkerStateTracker::new();
        t.add_gpu(gref(0, 0), 10, 16 * 1024 * 1024);
        t.add_gpu(gref(1, 0), 10, 16 * 1024 * 1024);
        t.get_mut(gref(1, 0)).unwrap().note_load_sent(
            outstanding(1, 5, 8, true),
            2,
            Timestamp::ZERO,
            Nanos::from_millis(8),
        );
        assert!(t.model_available_somewhere(ModelId(5)));
        assert!(!t.model_available_somewhere(ModelId(6)));
        assert_eq!(t.gpus_with_model(ModelId(5)), vec![gref(1, 0)]);
        // Occupy gpu 0's exec engine; least loaded should be gpu 1.
        t.get_mut(gref(0, 0)).unwrap().note_infer_sent(
            outstanding(2, 5, 50, false),
            Timestamp::ZERO,
            Nanos::from_millis(50),
        );
        assert_eq!(t.least_loaded_gpu(Timestamp::ZERO), Some(gref(1, 0)));
        assert!((t.get(gref(0, 0)).unwrap().occupancy() - 0.0).abs() < 1e-12);
    }
}
