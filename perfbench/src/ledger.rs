//! The virtual-time cycle ledger: every virtual cycle of every simulated
//! thread, from time 0 to the makespan, booked to exactly one category.
//!
//! A traced run builds the ledger from its flight-recorder events. Each
//! thread's timeline is cut at the lifecycle events and each piece is
//! booked by the event that opened it:
//!
//! | piece                                  | category        |
//! |----------------------------------------|-----------------|
//! | `GateWaitEnter` → `GateWaitExit`       | `gate_wait`     |
//! | admission or `TxBegin` → `TxCommit`    | `committed`     |
//! | admission or `TxBegin` → `TxAbort`     | `aborted`       |
//! | `TxAbort` or `Wake` → next admission   | `cm_backoff`    |
//! | `Park` → `Wake` / `LostWakeup`         | `park`          |
//! | the drain window a `Repartition` names | `drain`         |
//! | start or `TxCommit` → next admission   | `nontx`         |
//! | last event → makespan                  | `idle`          |
//!
//! "Admission" is a `GateWaitExit` when the thread waited at the gate; a
//! thread admitted on the fast path records no event, so its time from the
//! previous boundary to `TxBegin` stays with the previous piece.

use votm::{EventKind, ThreadTrace, ViewStats};

/// Ledger categories, in report order.
pub const CATEGORIES: [&str; 8] = [
    "gate_wait",
    "committed",
    "aborted",
    "cm_backoff",
    "park",
    "drain",
    "nontx",
    "idle",
];

/// Index of each category in [`CATEGORIES`] and [`Ledger::cycles`].
pub const GATE: usize = 0;
pub const COMMITTED: usize = 1;
pub const ABORTED: usize = 2;
pub const BACKOFF: usize = 3;
pub const PARK: usize = 4;
pub const DRAIN: usize = 5;
pub const NONTX: usize = 6;
pub const IDLE: usize = 7;
/// Pseudo-category: inside an attempt whose outcome is not yet known.
const ATTEMPT: usize = usize::MAX;

/// Cycles per category, summed over the threads and runs folded in.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Booked cycles per [`CATEGORIES`] entry.
    pub cycles: [u64; 8],
    /// Σ threads × makespan over the runs folded in.
    pub capacity: u64,
    /// Some run's categories did not sum exactly to its threads ×
    /// makespan, or its timestamps were not monotone inside the makespan.
    pub inexact: bool,
    /// Events the recorder lost to ring wrap-around. Nonzero means the
    /// event-built ledger is unresolved, not partial.
    pub dropped: u64,
    /// Events recorded (including dropped ones).
    pub events: u64,
    /// Whether the ledger came from recorder events or view counters.
    pub source: &'static str,
    /// The event-built committed, aborted or gate-wait cycles disagree
    /// with the views' counters.
    pub counters_disagree: bool,
}

impl Ledger {
    /// Whether the shares describe the whole run (no dropped events).
    pub fn resolved(&self) -> bool {
        self.dropped == 0
    }

    /// Share of threads × makespan booked to category `i`.
    pub fn share(&self, i: usize) -> f64 {
        if self.capacity == 0 || !self.resolved() {
            0.0
        } else {
            self.cycles[i] as f64 / self.capacity as f64
        }
    }

    /// Folds one traced run in, from its per-thread event rings.
    pub fn add_traces(&mut self, traces: &[ThreadTrace], makespan: u64, views: &[ViewStats]) {
        self.source = "recorder events";
        let mut run = [0u64; 8];
        let (mut commit_cycles, mut abort_cycles) = (0u64, 0u64);
        for tr in traces {
            self.events += tr.recorded;
            self.dropped += tr.dropped;
            let mut t = 0u64;
            let mut cur = NONTX;
            let mut book = |cat: usize, from: u64, to: u64, inexact: &mut bool| {
                if to < from || to > makespan {
                    *inexact = true;
                }
                run[cat] += to.saturating_sub(from);
            };
            for ev in &tr.events {
                let ts = ev.ts;
                match ev.kind {
                    EventKind::GateWaitEnter { .. } => {
                        book(open_as(cur), t, ts, &mut self.inexact);
                        (t, cur) = (ts, GATE);
                    }
                    EventKind::GateWaitExit { .. } => {
                        book(GATE, t, ts, &mut self.inexact);
                        (t, cur) = (ts, ATTEMPT);
                    }
                    EventKind::TxBegin { .. } if cur != ATTEMPT => {
                        book(cur, t, ts, &mut self.inexact);
                        (t, cur) = (ts, ATTEMPT);
                    }
                    EventKind::TxCommit { cycles, .. } => {
                        commit_cycles += cycles;
                        book(COMMITTED, t, ts, &mut self.inexact);
                        (t, cur) = (ts, NONTX);
                    }
                    EventKind::TxAbort { cycles, .. } => {
                        abort_cycles += cycles;
                        book(ABORTED, t, ts, &mut self.inexact);
                        (t, cur) = (ts, BACKOFF);
                    }
                    EventKind::Park { .. } => {
                        book(open_as(cur), t, ts, &mut self.inexact);
                        (t, cur) = (ts, PARK);
                    }
                    EventKind::Wake { .. } | EventKind::LostWakeup { .. } => {
                        book(PARK, t, ts, &mut self.inexact);
                        (t, cur) = (ts, BACKOFF);
                    }
                    EventKind::Repartition { drain_cycles, .. } => {
                        let from = ts.saturating_sub(drain_cycles);
                        book(open_as(cur), t, from, &mut self.inexact);
                        book(DRAIN, from, ts, &mut self.inexact);
                        (t, cur) = (ts, NONTX);
                    }
                    _ => {}
                }
            }
            if cur == ATTEMPT {
                // An attempt still open at the end of the run: a lost event.
                self.inexact = true;
            }
            book(IDLE, t, makespan, &mut self.inexact);
        }
        let capacity = traces.len() as u64 * makespan;
        if run.iter().sum::<u64>() != capacity {
            self.inexact = true;
        }
        // The booked gate wait must match the counters too, so a piece
        // booked to the wrong category shows, not only a bad timestamp.
        let tm_commit: u64 = views.iter().map(|v| v.tm.cycles_successful).sum();
        let tm_abort: u64 = views.iter().map(|v| v.tm.cycles_aborted).sum();
        let tm_gate: u64 = views.iter().map(|v| v.tm.gate_wait_cycles).sum();
        if self.dropped == 0
            && (commit_cycles != tm_commit || abort_cycles != tm_abort || run[GATE] != tm_gate)
        {
            self.counters_disagree = true;
        }
        self.fold(run, capacity);
    }

    /// Folds one run in from its views' counters, for workload functions that take no
    /// recorder: gate wait, committed and aborted cycles come from
    /// [`ViewStats`], the remainder of threads × makespan is booked as
    /// non-transactional work.
    pub fn add_counters(&mut self, views: &[ViewStats], threads: u64, makespan: u64) {
        self.source = "view counters (votm_intruder::run_sim takes no recorder)";
        let mut run = [0u64; 8];
        run[GATE] = views.iter().map(|v| v.tm.gate_wait_cycles).sum();
        run[COMMITTED] = views.iter().map(|v| v.tm.cycles_successful).sum();
        run[ABORTED] = views.iter().map(|v| v.tm.cycles_aborted).sum();
        let capacity = threads * makespan;
        let booked: u64 = run.iter().sum();
        if booked > capacity {
            self.inexact = true;
        }
        run[NONTX] = capacity.saturating_sub(booked);
        self.fold(run, capacity);
    }

    fn fold(&mut self, run: [u64; 8], capacity: u64) {
        for (acc, c) in self.cycles.iter_mut().zip(run) {
            *acc += c;
        }
        self.capacity += capacity;
    }
}

/// The category an interval ends up in when a non-outcome boundary closes
/// it: a still-open attempt interval (admission without a begin) counts as
/// non-transactional work.
fn open_as(cur: usize) -> usize {
    if cur == ATTEMPT {
        NONTX
    } else {
        cur
    }
}
