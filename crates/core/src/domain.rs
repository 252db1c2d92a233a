//! Online automatic view partitioning: an adaptive domain of views over
//! one shared heap, plus the repartitioning controller that splits and
//! merges them at runtime.
//!
//! The paper's Observation 2 says objects never accessed together belong
//! in separate views — but its API makes the *programmer* decide the
//! partitioning up front. An [`AdaptiveDomain`] removes that requirement:
//! it starts as ONE view over the whole heap and converges toward the
//! hand-partitioned layout by watching the conflict profile
//! ([`votm_obs::ConflictProfile`]) and executing live **splits** (and the
//! inverse **merges**) behind the admission gate's exclusive-drain
//! barrier.
//!
//! # Architecture
//!
//! * The heap is a single shared [`WordHeap`]; each *slot* of the domain
//!   holds a [`View`] built over it ([`votm_stm::TmInstance::over_heap`]):
//!   its own clock/orec/seqlock metadata domain, admission gate,
//!   contention manager and wait table. Data never moves — only metadata
//!   ownership does.
//! * A [`votm_stm::RouteTable`] maps each of the 64 locality-preserving
//!   address buckets (the profiler's fold, so a suggested bi-partition
//!   translates 1:1 into a remap) to its owning slot.
//! * Transactions enter through [`AdaptiveDomain::transact`] with a *hint
//!   address*; the domain dispatches to the hint's current owner view and
//!   checks every access against the route.
//!
//! # The repartition protocol (drain safety)
//!
//! A remap involving view V runs only while V is quiesced through
//! [`votm_rac::AdmissionGate::acquire_exclusive`] — the same barrier the
//! starvation watchdog's escalation uses. Because a view is drained
//! before any of its buckets move, a transaction admitted to V observes a
//! *stable* route for every bucket V owns, for its whole lifetime. The
//! full split choreography:
//!
//! 1. `acquire_exclusive` — block new admissions, wait out in-flight
//!    transactions;
//! 2. build the new [`View`] over the shared heap (fresh metadata);
//! 3. [`votm_stm::RouteTable::remap`] the moving buckets to the new slot;
//! 4. record a [`EventKind::Repartition`] trace event;
//! 5. drop the drain guard, then `publish(u64::MAX)` on the wait table —
//!    every parked waiter wakes, re-runs, and **re-homes** through the
//!    route check to whichever view now owns its data; the publish also
//!    stamps every bucket epoch, so a park racing the drain observes
//!    `SkippedStale` instead of sleeping through the move (no lost
//!    wakeups).
//!
//! A merge drains *both* views in ascending slot order, remaps the
//! source's buckets onto the destination, and *retires* the source's gate:
//! a retired gate still admits (a racer holding a stale route must enter,
//! discover staleness and leave through the re-route path rather than
//! hang) but refuses quota changes, so no controller decision can
//! resurrect it.
//!
//! # Stale routes and cross-view transactions
//!
//! [`DomainTx`] checks the route per access. A mismatch means one of:
//!
//! * **stale route** — the hint's bucket moved between dispatch and
//!   admission. The attempt exits through an innocuous (empty read-only)
//!   commit and re-dispatches.
//! * **straddle** — the hint still routes here but the body reached into
//!   another view's buckets. The attempt rolls back (if it buffered
//!   writes, via an ordinary abort first — buffered writes must never
//!   leak through the exit commit) and re-runs in *union mode*: exclusive
//!   drain over every live view, direct (irrevocable) heap access. Each
//!   straddle bumps the cross-view pressure pair; sustained pressure is
//!   the controller's merge signal — exactly the "cross-view commit cost
//!   exceeds saved conflicts" criterion.
//!
//! # Hysteresis
//!
//! The controller ([`AdaptiveDomain::run_controller`]) wakes every
//! [`RepartitionPolicy::interval`] virtual cycles and applies at most one
//! repartition per wake, gated by a cool-down, a minimum wasted-work
//! share over the last interval, a minimum attributed-abort count (noise
//! floor) and a minimum profile separability — so a marginal workload
//! does not thrash split/merge/split.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use votm_obs::{AbortReason, ConflictProfile, EventKind, FlightRecorder, PROFILE_BUCKETS};
use votm_rac::{GateGuard, QuotaMode};
use votm_sim::Rt;
use votm_stm::{bloom_bucket, cost, Addr, RouteTable, StatsSnapshot, WordHeap};
use votm_utils::Mutex;

use crate::error::TxError;
use crate::handle::TxHandle;
use crate::system::VotmConfig;
use crate::view::View;

/// Virtual cycles charged for a stale-route re-dispatch (route lookup +
/// re-entry bookkeeping) — same order as a transaction begin.
const REROUTE_COST: u64 = cost::BEGIN;

/// Hysteresis policy for the repartitioning controller.
#[derive(Debug, Clone)]
pub struct RepartitionPolicy {
    /// Virtual cycles between controller evaluations.
    pub interval: u64,
    /// Minimum virtual cycles between two repartitions (split or merge).
    pub cooldown: u64,
    /// Minimum profile separability (`1 − cut/(cut+internal)`) for a
    /// split; below it, splitting would mostly convert internal conflicts
    /// into cross-view straddles.
    pub min_separability: f64,
    /// Minimum wasted-work share (aborted cycles / total cycles) over the
    /// last interval before a view is worth splitting at all.
    pub min_waste_share: f64,
    /// Minimum attributed aborts in the profile window (noise floor).
    pub min_aborts: u64,
    /// Straddling transactions against a view pair per interval above
    /// which the pair merges back (the cross-view cost signal).
    pub merge_cross_threshold: u64,
    /// Maximum simultaneous live views (slot cap).
    pub max_views: usize,
}

impl Default for RepartitionPolicy {
    fn default() -> Self {
        Self {
            interval: 1 << 17,
            cooldown: 1 << 18,
            min_separability: 0.7,
            min_waste_share: 0.05,
            min_aborts: 16,
            merge_cross_threshold: 8,
            max_views: 8,
        }
    }
}

/// Counters the controller and dispatch paths maintain; exported into the
/// bench gate as `repartitions` / `split_drain_cycles`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DomainStats {
    /// Total repartitions executed (splits + merges).
    pub repartitions: u64,
    /// Splits executed.
    pub splits: u64,
    /// Merges executed.
    pub merges: u64,
    /// Virtual cycles spent inside split/merge drain barriers.
    pub split_drain_cycles: u64,
    /// Transactions that fell back to union mode (cross-view access).
    pub straddles: u64,
    /// Stale-route re-dispatches.
    pub reroutes: u64,
    /// Live (non-retired) views right now.
    pub live_views: usize,
    /// Route-table remap epoch.
    pub route_epoch: u64,
}

/// A self-partitioning group of views over one shared heap.
///
/// Create with [`crate::Votm::create_domain`] (or [`AdaptiveDomain::new`]),
/// run transactions through [`AdaptiveDomain::transact`], and spawn
/// [`AdaptiveDomain::run_controller`] as a task to enable online
/// split/merge. Without the controller task the domain behaves exactly
/// like its initial single view (plus one atomic route lookup per access).
pub struct AdaptiveDomain {
    heap: Arc<WordHeap>,
    route: RouteTable,
    /// Slot-indexed views. A merged-away slot keeps its (retired) view so
    /// stale racers drain through it; the slot is reused by later splits.
    views: Mutex<Vec<Arc<View>>>,
    /// Retired slots available for reuse, ascending.
    free_slots: Mutex<Vec<u32>>,
    policy: RepartitionPolicy,
    config: VotmConfig,
    quota: QuotaMode,
    /// Monotonic view-id allocator; every incarnation (including a reused
    /// slot) gets a fresh id so per-view trace folding never mixes eras.
    next_view_id: AtomicUsize,
    /// Flat `max_views²` straddle-pressure matrix, `[from · mv + to]`.
    cross: Vec<AtomicU64>,
    /// Per-slot stats snapshot at the last controller evaluation, for
    /// interval-delta waste shares.
    prev_stats: Mutex<Vec<StatsSnapshot>>,
    /// The split decision's input, folded event by event from the recorder.
    profiles: Mutex<ViewProfiles>,
    last_repartition: AtomicU64,
    repartitions: AtomicU64,
    splits: AtomicU64,
    merges: AtomicU64,
    split_drain_cycles: AtomicU64,
    straddles: AtomicU64,
    reroutes: AtomicU64,
}

/// The controller's incremental conflict profile: a read cursor per
/// recorder ring and one profile per live view id. Each evaluation folds
/// only the events recorded since the last one, so its cost is O(new
/// events) rather than O(history × views).
#[derive(Default)]
struct ViewProfiles {
    cursors: Vec<u64>,
    by_view: Vec<(u16, ConflictProfile)>,
}

impl ViewProfiles {
    /// Folds the recorder's new events into the profiles of `live` view
    /// ids, dropping the profiles of views no longer live. A view is live
    /// from its creation until it retires, so each live view's profile
    /// holds every event ever recorded against it — including events a
    /// wrapped ring has since overwritten, when the controller read them
    /// in time.
    fn fold_new(&mut self, recorder: &FlightRecorder, live: &[u16]) {
        self.by_view.retain(|(id, _)| live.contains(id));
        for &id in live {
            if !self.by_view.iter().any(|(v, _)| *v == id) {
                self.by_view.push((id, ConflictProfile::empty()));
            }
        }
        let by_view = &mut self.by_view;
        recorder.for_each_new(&mut self.cursors, |_, ev| {
            let view = ev.kind.view();
            if let Some((_, p)) = by_view.iter_mut().find(|(id, _)| *id == view) {
                p.add(&ev.kind);
            }
        });
    }

    fn get(&self, view: u16) -> Option<&ConflictProfile> {
        self.by_view
            .iter()
            .find(|(id, _)| *id == view)
            .map(|(_, p)| p)
    }
}

/// How an attempt left the view it was dispatched to.
#[derive(Clone, Copy)]
enum Exit {
    /// The hint's bucket moved away: re-dispatch by the new route.
    Reroute,
    /// The body reached into buckets owned by slot `.0`: fall back to the
    /// union-drained cross-view path.
    Straddle(u32),
}

enum Routed<T> {
    Done(T),
    Out(Exit),
}

impl AdaptiveDomain {
    /// A domain of `size_words` words starting as one view. `config`
    /// supplies the algorithm, thread count, clock, CM policy and
    /// recorder; the recorder is what the split decision profiles, so a
    /// domain without one never splits (merges, driven by straddle
    /// pressure, still work).
    pub fn new(
        config: &VotmConfig,
        size_words: usize,
        quota: QuotaMode,
        policy: RepartitionPolicy,
    ) -> Arc<Self> {
        assert!(
            !matches!(quota, QuotaMode::Unrestricted),
            "an AdaptiveDomain requires admission control: repartition \
             safety rests on the exclusive-drain barrier, and an \
             unrestricted view's transactions never consult the gate"
        );
        let capacity = size_words * config.reserve_factor.max(1);
        let heap = Arc::new(WordHeap::with_reserve(size_words, capacity));
        let route = RouteTable::new(heap.size_words(), 0);
        let mv = policy.max_views.max(1);
        let domain = Self {
            route,
            views: Mutex::new(Vec::new()),
            free_slots: Mutex::new(Vec::new()),
            policy,
            config: config.clone(),
            quota,
            next_view_id: AtomicUsize::new(0),
            cross: (0..mv * mv).map(|_| AtomicU64::new(0)).collect(),
            prev_stats: Mutex::new(Vec::new()),
            profiles: Mutex::new(ViewProfiles::default()),
            last_repartition: AtomicU64::new(0),
            repartitions: AtomicU64::new(0),
            splits: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            split_drain_cycles: AtomicU64::new(0),
            straddles: AtomicU64::new(0),
            reroutes: AtomicU64::new(0),
            heap,
        };
        let first = domain.build_view();
        domain.views.lock().push(first);
        domain.prev_stats.lock().push(StatsSnapshot::default());
        Arc::new(domain)
    }

    /// A fresh view over the shared heap with the next monotonic id.
    fn build_view(&self) -> Arc<View> {
        let id = self.next_view_id.fetch_add(1, Ordering::Relaxed);
        Arc::new(View::new_over(
            id,
            self.config.algorithm,
            Arc::clone(&self.heap),
            self.quota,
            self.config.n_threads,
            &self.config.controller,
            self.config.escalate_after,
            self.config.recorder.clone(),
            self.config.contention,
            self.config.clock,
        ))
    }

    /// The shared heap (allocation and inspection; all views see it).
    pub fn heap(&self) -> &WordHeap {
        &self.heap
    }

    /// Allocates a block from the shared heap (`malloc_block`).
    pub fn alloc_block(&self, size_words: u32) -> Option<Addr> {
        self.heap.alloc_block(size_words)
    }

    /// The route table, for assertions and exports.
    pub fn route(&self) -> &RouteTable {
        &self.route
    }

    /// The repartition policy this domain runs.
    pub fn policy(&self) -> &RepartitionPolicy {
        &self.policy
    }

    /// Every view slot, in slot order (retired incarnations included — their
    /// counters still belong in aggregate stats).
    pub fn views(&self) -> Vec<Arc<View>> {
        self.views.lock().iter().cloned().collect()
    }

    /// Live (non-retired) views, in slot order.
    pub fn live_views(&self) -> Vec<Arc<View>> {
        self.views
            .lock()
            .iter()
            .filter(|v| !v.gate().is_retired())
            .cloned()
            .collect()
    }

    /// Controller/dispatch counters.
    pub fn stats(&self) -> DomainStats {
        DomainStats {
            repartitions: self.repartitions.load(Ordering::Acquire),
            splits: self.splits.load(Ordering::Acquire),
            merges: self.merges.load(Ordering::Acquire),
            split_drain_cycles: self.split_drain_cycles.load(Ordering::Acquire),
            straddles: self.straddles.load(Ordering::Acquire),
            reroutes: self.reroutes.load(Ordering::Acquire),
            live_views: self
                .views
                .lock()
                .iter()
                .filter(|v| !v.gate().is_retired())
                .count(),
            route_epoch: self.route.epoch(),
        }
    }

    fn view_at(&self, slot: u32) -> Arc<View> {
        Arc::clone(&self.views.lock()[slot as usize])
    }

    fn note_cross(&self, from: u32, to: u32) {
        let mv = self.policy.max_views.max(1);
        let (f, t) = (from as usize % mv, to as usize % mv);
        self.cross[f * mv + t].fetch_add(1, Ordering::AcqRel);
        self.straddles.fetch_add(1, Ordering::AcqRel);
    }

    /// Runs `body` as one atomic transaction against the domain.
    ///
    /// `hint` selects the dispatch view: the transaction runs on the view
    /// owning the hint's bucket. The body must route all its accesses
    /// through the given [`DomainTx`] and propagate its errors with `?`
    /// (swallowing them breaks the re-route protocol). Accesses outside
    /// the hint's view are legal but expensive: they divert the
    /// transaction to the union-drained cross-view path and push the
    /// owning pair toward a merge.
    pub async fn transact<T, F>(&self, rt: &Rt, hint: Addr, mut body: F) -> T
    where
        F: for<'a, 'b, 'v> AsyncFnMut(&'a mut DomainTx<'b, 'v>) -> Result<T, TxError>,
    {
        loop {
            let slot = self.route.owner_of(hint);
            let view = self.view_at(slot);
            // Exit decision carried across attempts inside one driver call:
            // a dirty attempt that must leave aborts first (rolling back
            // its buffered writes) and exits through the next, clean
            // attempt's empty commit.
            let mut pending_exit: Option<Exit> = None;
            let routed = view
                .transact(rt, async |tx: &mut TxHandle<'_>| {
                    if let Some(e) = pending_exit {
                        return Ok(Routed::Out(e));
                    }
                    // Entry check, *after* admission: our view is drained
                    // before any bucket it owns moves, so if the hint still
                    // routes here the route is stable for this whole
                    // attempt.
                    if self.route.owner_of(hint) != slot {
                        return Ok(Routed::Out(Exit::Reroute));
                    }
                    let mut dtx = DomainTx {
                        inner: DomainAccess::Tx(tx),
                        route: &self.route,
                        slot,
                        foreign: None,
                        dirty: false,
                        write_summary: 0,
                        direct_cycles: 0,
                    };
                    let out = body(&mut dtx).await;
                    let (foreign, dirty) = (dtx.foreign, dtx.dirty);
                    match out {
                        // A body that recovered from (or never hit) a
                        // foreign access commits normally: everything in
                        // its read/write set passed the route check.
                        Ok(v) => Ok(Routed::Done(v)),
                        Err(e) => match foreign {
                            None => Err(e),
                            Some(owner) => {
                                let exit = Exit::Straddle(owner);
                                if dirty {
                                    // Buffered writes must never leak
                                    // through the exit commit: abort this
                                    // attempt, leave on the re-run.
                                    pending_exit = Some(exit);
                                    Err(TxError::Abort(AbortReason::Explicit))
                                } else {
                                    // Read-only so far: the exit commit is
                                    // a validated no-op.
                                    Ok(Routed::Out(exit))
                                }
                            }
                        },
                    }
                })
                .await;
            match routed {
                Routed::Done(v) => return v,
                Routed::Out(Exit::Reroute) => {
                    self.reroutes.fetch_add(1, Ordering::AcqRel);
                    rt.charge(REROUTE_COST).await;
                }
                Routed::Out(Exit::Straddle(owner)) => {
                    self.note_cross(slot, owner);
                    return self.run_union(rt, slot, &mut body).await;
                }
            }
        }
    }

    /// The cross-view fallback: exclusive drain over every live view
    /// (ascending slot order — the same total order the controller uses,
    /// so the two can never deadlock), then direct irrevocable access to
    /// the shared heap. Serializable by construction: every metadata
    /// domain is quiesced while the transaction runs.
    async fn run_union<T, F>(&self, rt: &Rt, home_slot: u32, body: &mut F) -> T
    where
        F: for<'a, 'b, 'v> AsyncFnMut(&'a mut DomainTx<'b, 'v>) -> Result<T, TxError>,
    {
        loop {
            let views = self.views();
            let epoch0 = self.route.epoch();
            let mut guards: Vec<GateGuard<'_>> = Vec::with_capacity(views.len());
            for v in &views {
                if v.gate().is_retired() {
                    continue;
                }
                guards.push(v.gate().acquire_exclusive(rt).await);
            }
            // A repartition needs exclusive admission to a view we now
            // hold, so if the epoch is unchanged the set of live views is
            // exactly the set we drained; a change means a split slipped
            // in between our snapshot and the last acquisition — release
            // everything and re-acquire over the new world.
            if self.route.epoch() != epoch0 {
                drop(guards);
                continue;
            }
            let home = &views[home_slot as usize];
            let rec = home.recorder_handle(rt.thread_index());
            let mut dtx = DomainTx {
                inner: DomainAccess::Direct {
                    heap: &self.heap,
                    rt,
                },
                route: &self.route,
                slot: home_slot,
                foreign: None,
                dirty: false,
                write_summary: 0,
                direct_cycles: 0,
            };
            let value = loop {
                match body(&mut dtx).await {
                    Ok(v) => break v,
                    Err(e) => {
                        // Direct mode is irrevocable, like the starvation
                        // watchdog's lock mode: nothing written so far can
                        // be rolled back. A clean failure may re-run; a
                        // dirty one cannot be recovered.
                        assert!(
                            !dtx.dirty,
                            "cross-view (union-drained) transaction failed after \
                             writing; irrevocable writes cannot be rolled back: {e}"
                        );
                        assert!(
                            !matches!(e, TxError::Retry),
                            "retry() in a cross-view (union-drained) transaction: \
                             blocking is not supported on the irrevocable path"
                        );
                        dtx.foreign = None;
                        rt.charge(cost::BUSY_RETRY).await;
                    }
                }
            };
            let DomainTx {
                direct_cycles: cycles,
                write_summary: wake,
                ..
            } = dtx;
            // Book the commit on the home view so throughput aggregation
            // and the commit-histogram invariant (count == tm.commits)
            // both hold.
            home.tm().stats().record_commit(rt.thread_index(), cycles);
            home.hists().commit.record(cycles);
            rec.record(
                rt.now(),
                EventKind::TxCommit {
                    view: home.id() as u16,
                    cycles,
                },
            );
            drop(guards);
            if wake != 0 {
                for v in &views {
                    v.waits().publish(wake);
                }
            }
            return value;
        }
    }

    /// The repartitioning controller loop. Spawn as its own task; it
    /// evaluates every [`RepartitionPolicy::interval`] virtual cycles and
    /// exits when `remaining` reaches zero (the worker tasks' shared
    /// countdown — a simulator run cannot end while any task loops
    /// forever).
    pub async fn run_controller(&self, rt: &Rt, remaining: &AtomicUsize) {
        while remaining.load(Ordering::Acquire) > 0 {
            rt.charge(self.policy.interval).await;
            self.rebalance(rt).await;
        }
    }

    /// One controller evaluation: folds the recorder's new events into
    /// the per-view conflict profiles, then applies at most one
    /// repartition, behind the hysteresis gates. Public so tests and
    /// single-shot harnesses can drive the decision without the periodic
    /// task.
    pub async fn rebalance(&self, rt: &Rt) {
        if let Some(recorder) = &self.config.recorder {
            let live: Vec<u16> = self.live_views().iter().map(|v| v.id() as u16).collect();
            self.profiles.lock().fold_new(recorder, &live);
        }
        let cooled = rt
            .now()
            .saturating_sub(self.last_repartition.load(Ordering::Acquire))
            >= self.policy.cooldown
            || self.repartitions.load(Ordering::Acquire) == 0;
        if !cooled {
            return;
        }
        if let Some((a, b)) = self.merge_candidate() {
            self.merge(rt, a, b).await;
            return;
        }
        self.try_split(rt).await;
    }

    /// The live pair with the highest straddle pressure at or above the
    /// merge threshold, ties to the lowest slots. Consumes the matrix.
    fn merge_candidate(&self) -> Option<(u32, u32)> {
        let mv = self.policy.max_views.max(1);
        let live: Vec<u32> = {
            let views = self.views.lock();
            (0..views.len() as u32)
                .filter(|&s| !views[s as usize].gate().is_retired())
                .collect()
        };
        let mut best: Option<(u64, u32, u32)> = None;
        for (i, &a) in live.iter().enumerate() {
            for &b in &live[i + 1..] {
                let (ai, bi) = (a as usize % mv, b as usize % mv);
                let p = self.cross[ai * mv + bi].load(Ordering::Acquire)
                    + self.cross[bi * mv + ai].load(Ordering::Acquire);
                if p >= self.policy.merge_cross_threshold && best.is_none_or(|(bp, ..)| p > bp) {
                    best = Some((p, a, b));
                }
            }
        }
        // Pressure is per-interval: stale straddles must not accumulate
        // into a later spurious merge.
        for c in &self.cross {
            c.store(0, Ordering::Release);
        }
        best.map(|(_, a, b)| (a, b))
    }

    /// Evaluates every live view for a split and executes the best
    /// eligible one.
    async fn try_split(&self, rt: &Rt) {
        if let Some((slot, move_mask)) = self.split_candidate() {
            self.split(rt, slot, move_mask).await;
        }
    }

    /// The first live view whose conflict profile clears the hysteresis
    /// gates, with the buckets to move off it. Synchronous, so no lock is
    /// held across the split's drain.
    fn split_candidate(&self) -> Option<(u32, u64)> {
        // No profile source: split decisions are impossible.
        self.config.recorder.as_ref()?;
        let live_count = self
            .views
            .lock()
            .iter()
            .filter(|v| !v.gate().is_retired())
            .count();
        if live_count >= self.policy.max_views {
            return None;
        }
        let profiles = self.profiles.lock();
        let slots: Vec<u32> = (0..self.views.lock().len() as u32).collect();
        for slot in slots {
            let view = self.view_at(slot);
            if view.gate().is_retired() {
                continue;
            }
            let snap = view.tm().stats().snapshot();
            let delta = {
                let mut prev = self.prev_stats.lock();
                let d = snap.since(&prev[slot as usize]);
                prev[slot as usize] = snap;
                d
            };
            let total = delta.cycles_aborted + delta.cycles_successful;
            if total == 0
                || (delta.cycles_aborted as f64 / total as f64) < self.policy.min_waste_share
            {
                continue;
            }
            let Some(profile) = profiles.get(view.id() as u16) else {
                continue;
            };
            if profile.aborts_total < self.policy.min_aborts {
                continue;
            }
            let part = profile.suggest_bipartition();
            if part.separability < self.policy.min_separability {
                continue;
            }
            let owned = self.route.owned_mask(slot);
            let mut move_mask = 0u64;
            for b in part.side_buckets(1) {
                if b < PROFILE_BUCKETS {
                    move_mask |= 1 << b;
                }
            }
            move_mask &= owned;
            // Both halves must be non-empty *within this view's ownership*,
            // or the split is a rename, not a partition.
            if move_mask == 0 || move_mask == owned {
                continue;
            }
            return Some((slot, move_mask));
        }
        None
    }

    /// Executes a split: drains `slot`, materialises a fresh view over the
    /// shared heap, and remaps `move_mask`'s buckets onto it.
    async fn split(&self, rt: &Rt, slot: u32, move_mask: u64) {
        let view = self.view_at(slot);
        let t0 = rt.now();
        let guard = view.gate().acquire_exclusive(rt).await;
        debug_assert_eq!(
            move_mask & !self.route.owned_mask(slot),
            0,
            "split mask strayed outside the drained view's ownership"
        );
        let new_view = self.build_view();
        let new_slot = {
            let mut views = self.views.lock();
            match self.free_slots.lock().pop() {
                Some(s) => {
                    views[s as usize] = Arc::clone(&new_view);
                    s
                }
                None => {
                    views.push(Arc::clone(&new_view));
                    views.len() as u32 - 1
                }
            }
        };
        {
            let mut prev = self.prev_stats.lock();
            let ns = new_slot as usize;
            if prev.len() <= ns {
                prev.resize(ns + 1, StatsSnapshot::default());
            } else {
                prev[ns] = StatsSnapshot::default();
            }
        }
        self.route.remap(move_mask, new_slot);
        let drain = rt.now().saturating_sub(t0);
        self.bump_repartition(rt, drain);
        self.splits.fetch_add(1, Ordering::AcqRel);
        self.record_repartition(
            rt,
            EventKind::Repartition {
                view: view.id() as u16,
                partner: new_view.id() as u16,
                split: true,
                moved: move_mask,
                drain_cycles: drain,
            },
        );
        drop(guard);
        // Re-home parked waiters: wake-all *and* stamp every bucket epoch,
        // so both sleeping and in-flight parks re-run through the route
        // check instead of waiting on the wrong view's table.
        view.waits().publish(u64::MAX);
    }

    /// Executes a merge: drains both views (ascending slot order), remaps
    /// the higher slot's buckets onto the lower, retires the source gate.
    async fn merge(&self, rt: &Rt, a: u32, b: u32) {
        let (dst, src) = (a.min(b), a.max(b));
        let dv = self.view_at(dst);
        let sv = self.view_at(src);
        let t0 = rt.now();
        let dg = dv.gate().acquire_exclusive(rt).await;
        let sg = sv.gate().acquire_exclusive(rt).await;
        let mask = self.route.owned_mask(src);
        self.route.remap(mask, dst);
        sv.gate().retire();
        self.free_slots.lock().push(src);
        let drain = rt.now().saturating_sub(t0);
        self.bump_repartition(rt, drain);
        self.merges.fetch_add(1, Ordering::AcqRel);
        self.record_repartition(
            rt,
            EventKind::Repartition {
                view: dv.id() as u16,
                partner: sv.id() as u16,
                split: false,
                moved: mask,
                drain_cycles: drain,
            },
        );
        drop(sg);
        drop(dg);
        sv.waits().publish(u64::MAX);
        dv.waits().publish(u64::MAX);
    }

    fn bump_repartition(&self, rt: &Rt, drain: u64) {
        self.repartitions.fetch_add(1, Ordering::AcqRel);
        self.split_drain_cycles.fetch_add(drain, Ordering::AcqRel);
        self.last_repartition.store(rt.now(), Ordering::Release);
    }

    fn record_repartition(&self, rt: &Rt, event: EventKind) {
        if let Some(rec) = &self.config.recorder {
            rec.record(rt.thread_index(), rt.now(), event);
        }
    }
}

impl std::fmt::Debug for AdaptiveDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveDomain")
            .field("stats", &self.stats())
            .field("route", &self.route)
            .finish()
    }
}

/// Which machinery backs a [`DomainTx`]'s accesses.
enum DomainAccess<'h, 'v> {
    /// The normal case: a transactional attempt on the dispatch view.
    Tx(&'h mut TxHandle<'v>),
    /// Union mode: every live view drained, direct heap access.
    Direct {
        /// The shared word array.
        heap: &'h WordHeap,
        /// Runtime for cost charging.
        rt: &'h Rt,
    },
}

/// In-transaction capability for [`AdaptiveDomain::transact`] bodies: a
/// [`TxHandle`] wrapper that checks every access against the route table.
pub struct DomainTx<'h, 'v> {
    inner: DomainAccess<'h, 'v>,
    route: &'h RouteTable,
    slot: u32,
    /// Owner slot of the first foreign access this attempt observed.
    foreign: Option<u32>,
    /// Whether this attempt issued any write.
    dirty: bool,
    /// Bloom summary of direct-mode writes (for post-commit wakeups).
    write_summary: u64,
    /// Cycles consumed in direct mode (booked as the commit's cost).
    direct_cycles: u64,
}

impl DomainTx<'_, '_> {
    /// Pre-access route check. `Ok` means the address belongs to the view
    /// this attempt runs on (always true in union mode, where every view
    /// is drained).
    fn check_route(&mut self, addr: Addr) -> Result<(), TxError> {
        if matches!(self.inner, DomainAccess::Direct { .. }) {
            return Ok(());
        }
        let owner = self.route.owner_of(addr);
        if owner == self.slot {
            return Ok(());
        }
        if self.foreign.is_none() {
            self.foreign = Some(owner);
        }
        // The dispatch loop inspects `foreign` when this error surfaces;
        // bodies must propagate it with `?`.
        Err(TxError::Abort(AbortReason::Explicit))
    }

    /// Transactional read of one word (route-checked).
    pub async fn read(&mut self, addr: Addr) -> Result<u64, TxError> {
        self.check_route(addr)?;
        match &mut self.inner {
            DomainAccess::Tx(tx) => tx.read(addr).await,
            DomainAccess::Direct { heap, rt } => {
                self.direct_cycles += cost::DIRECT_ACCESS;
                rt.charge(cost::DIRECT_ACCESS).await;
                Ok(heap.load(addr))
            }
        }
    }

    /// Transactional write of one word (route-checked).
    pub async fn write(&mut self, addr: Addr, value: u64) -> Result<(), TxError> {
        self.check_route(addr)?;
        match &mut self.inner {
            DomainAccess::Tx(tx) => {
                let out = tx.write(addr, value).await;
                if out.is_ok() {
                    self.dirty = true;
                }
                out
            }
            DomainAccess::Direct { heap, rt } => {
                self.dirty = true;
                self.write_summary |= 1u64 << bloom_bucket(addr);
                self.direct_cycles += cost::DIRECT_ACCESS;
                rt.charge(cost::DIRECT_ACCESS).await;
                heap.store(addr, value);
                Ok(())
            }
        }
    }

    /// Thread-private work inside the transaction (see
    /// [`TxHandle::local_work`]).
    pub async fn local_work(&mut self, reads: u64, writes: u64, nops: u64) {
        match &mut self.inner {
            DomainAccess::Tx(tx) => tx.local_work(reads, writes, nops).await,
            DomainAccess::Direct { rt, .. } => {
                let cycles = (reads + writes) * cost::LOCAL_ACCESS + nops * cost::NOP;
                self.direct_cycles += cycles;
                rt.work(cycles).await;
            }
        }
    }

    /// Blocks the transaction until its read set changes (see
    /// [`TxHandle::retry`]). Unsupported on the cross-view union path,
    /// where the attempt is irrevocable.
    pub fn retry<T>(&self) -> Result<T, TxError> {
        Err(TxError::Retry)
    }

    /// The slot of the view this attempt was dispatched to (union mode:
    /// the home slot). For diagnostics and tests.
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// Whether this attempt is running on the irrevocable union path.
    pub fn is_union(&self) -> bool {
        matches!(self.inner, DomainAccess::Direct { .. })
    }
}
