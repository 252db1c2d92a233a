//! Per-thread lock-free flight recorder.
//!
//! One [`FlightRecorder`] owns an event ring per logical thread. Recording
//! is a handful of atomic stores into the caller's own ring — no CAS, no
//! locking — so it is cheap enough to leave on in benchmarked runs. When
//! the ring wraps, the oldest events are overwritten; the monotone head
//! counter keeps the drop count exact.
//!
//! A ring is a table of [`CHUNK_SLOTS`]-slot chunks allocated on first use:
//! building a recorder allocates only the chunk tables, and a record call
//! allocates (once, through the chunk's `OnceLock`) only when the ring's
//! first lap reaches a chunk. Memory is therefore O(events recorded),
//! capped at the capacity; every later record call allocates nothing.
//!
//! Each ring has a single logical writer (the thread it belongs to).
//! Readers ([`FlightRecorder::snapshot`], [`FlightRecorder::for_each_new`])
//! may run concurrently with the writers: every slot carries a seqlock-style
//! stamp (its sequence number plus one, so a zeroed slot can never pass for
//! event 0), and a slot whose stamp disagrees with its position before or
//! after the copy is reported as missing rather than torn.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use votm_utils::CachePadded;

use crate::event::{Event, EventKind};

/// Default per-thread ring capacity (events), a power of two.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Slots per lazily allocated ring chunk, a power of two. A ring smaller
/// than this is a single chunk of its own capacity.
pub const CHUNK_SLOTS: usize = 256;

struct Slot {
    /// Sequence number of the event stored here, offset by one so a
    /// zero-initialized slot can never masquerade as event 0. Zero while
    /// the writer is overwriting the slot.
    seq: AtomicU64,
    ts: AtomicU64,
    words: [AtomicU64; 3],
}

impl Slot {
    fn empty() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            ts: AtomicU64::new(0),
            words: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
        }
    }

    /// The event stored under `seq`, or `None` if the slot holds another
    /// lap (or is being written). Seqlock read: the stamp is checked before
    /// and after copying the payload.
    #[inline]
    fn read(&self, seq: u64) -> Option<Event> {
        // Acquire pairs with the writer's Release stamp store: a matching
        // stamp makes that lap's payload visible.
        if self.seq.load(Ordering::Acquire) != seq + 1 {
            return None;
        }
        let ts = self.ts.load(Ordering::Relaxed);
        let words = [
            self.words[0].load(Ordering::Relaxed),
            self.words[1].load(Ordering::Relaxed),
            self.words[2].load(Ordering::Relaxed),
        ];
        // Pairs with the writer's Release fence after it zeroes the stamp:
        // if any payload word above came from a newer lap, the re-check
        // below sees the zeroed (or newer) stamp.
        fence(Ordering::Acquire);
        if self.seq.load(Ordering::Relaxed) != seq + 1 {
            return None;
        }
        Some(Event {
            seq,
            ts,
            kind: EventKind::decode(words),
        })
    }
}

struct EventRing {
    /// Events ever recorded into this ring (monotone; never wraps in
    /// practice). `head - capacity` of them have been overwritten.
    head: CachePadded<AtomicU64>,
    /// `capacity / chunk length` chunks, each allocated on first use.
    chunks: Box<[OnceLock<Box<[Slot]>>]>,
    mask: u64,
    /// log2 of the chunk length.
    chunk_shift: u32,
}

impl EventRing {
    fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(8);
        let chunk = cap.min(CHUNK_SLOTS);
        EventRing {
            head: CachePadded::new(AtomicU64::new(0)),
            chunks: (0..cap / chunk).map(|_| OnceLock::new()).collect(),
            mask: cap as u64 - 1,
            chunk_shift: chunk.trailing_zeros(),
        }
    }

    fn capacity(&self) -> u64 {
        self.mask + 1
    }

    /// Chunk index and offset within it of sequence number `seq`.
    #[inline]
    fn locate(&self, seq: u64) -> (usize, usize) {
        let pos = (seq & self.mask) as usize;
        (pos >> self.chunk_shift, pos & ((1 << self.chunk_shift) - 1))
    }

    /// Chunk `i`, allocated on the ring's first lap through it.
    #[cold]
    fn alloc_chunk(&self, i: usize) -> &[Slot] {
        self.chunks[i].get_or_init(|| {
            (0..1usize << self.chunk_shift)
                .map(|_| Slot::empty())
                .collect()
        })
    }

    #[inline]
    fn record(&self, ts: u64, kind: EventKind) {
        let seq = self.head.load(Ordering::Relaxed);
        let (ci, off) = self.locate(seq);
        let chunk = match self.chunks[ci].get() {
            Some(chunk) => chunk,
            None => self.alloc_chunk(ci),
        };
        let slot = &chunk[off];
        let [meta, a, b] = kind.encode();
        // Seqlock write: zero the stamp, then publish the payload behind a
        // fresh stamp, so a concurrent reader never accepts a mix of laps.
        slot.seq.store(0, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.ts.store(ts, Ordering::Relaxed);
        slot.words[0].store(meta, Ordering::Relaxed);
        slot.words[1].store(a, Ordering::Relaxed);
        slot.words[2].store(b, Ordering::Relaxed);
        slot.seq.store(seq + 1, Ordering::Release);
        // Release pairs with the readers' Acquire head load: every event
        // (and chunk) below the head they see is visible to them.
        self.head.store(seq + 1, Ordering::Release);
    }

    /// Reads sequence numbers `from..to` (a window no longer than the
    /// ring) chunk by chunk, passing each to `f` — `None` for a slot that
    /// no longer holds that event. Stops when `f` returns false; returns
    /// the first sequence number not consumed.
    fn scan(&self, from: u64, to: u64, mut f: impl FnMut(Option<Event>) -> bool) -> u64 {
        let mut seq = from;
        while seq < to {
            let (ci, off) = self.locate(seq);
            let n = ((1usize << self.chunk_shift) - off).min((to - seq) as usize);
            // Every chunk below an Acquire-loaded head exists: the writer
            // allocates it before its Release head store.
            let Some(chunk) = self.chunks[ci].get() else {
                return seq;
            };
            for slot in &chunk[off..off + n] {
                if !f(slot.read(seq)) {
                    return seq;
                }
                seq += 1;
            }
        }
        to
    }

    fn snapshot(&self, thread: usize) -> ThreadTrace {
        let head = self.head.load(Ordering::Acquire);
        let start = head.saturating_sub(self.capacity());
        let mut events = Vec::with_capacity((head - start) as usize);
        // A slot racing with a concurrent writer is dropped instead of
        // being reported torn.
        self.scan(start, head, |ev| {
            if let Some(e) = ev {
                events.push(e);
            }
            true
        });
        ThreadTrace {
            thread,
            recorded: head,
            dropped: start,
            events,
        }
    }

    fn allocated_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| c.get().is_some()).count()
    }
}

/// Everything one thread's ring held at snapshot time.
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    /// Logical thread index the ring belongs to.
    pub thread: usize,
    /// Events ever recorded by this thread (monotone counter).
    pub recorded: u64,
    /// Oldest events overwritten by ring wrap-around (`recorded -
    /// events.len()` when no snapshot race skipped a slot).
    pub dropped: u64,
    /// Surviving events in sequence order.
    pub events: Vec<Event>,
}

/// A set of per-thread event rings covering one run.
pub struct FlightRecorder {
    rings: Vec<EventRing>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("threads", &self.rings.len())
            .field("capacity", &self.rings.first().map_or(0, |r| r.capacity()))
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder with one `capacity`-event ring (rounded up to a power of
    /// two, minimum 8) per logical thread. Allocates only the chunk
    /// tables; slots are allocated a chunk at a time as events arrive.
    pub fn new(n_threads: usize, capacity: usize) -> Self {
        FlightRecorder {
            rings: (0..n_threads.max(1))
                .map(|_| EventRing::new(capacity))
                .collect(),
        }
    }

    /// A recorder with the [`DEFAULT_RING_CAPACITY`] per thread.
    pub fn with_default_capacity(n_threads: usize) -> Self {
        Self::new(n_threads, DEFAULT_RING_CAPACITY)
    }

    /// Number of per-thread rings.
    pub fn n_threads(&self) -> usize {
        self.rings.len()
    }

    /// Records `kind` at timestamp `ts` into thread `tid`'s ring. Indices
    /// past the ring count fold with a modulo, mirroring the stats stripes.
    #[inline]
    pub fn record(&self, tid: usize, ts: u64, kind: EventKind) {
        self.rings[tid % self.rings.len()].record(ts, kind);
    }

    /// A live handle bound to thread `tid`'s ring.
    pub fn handle(self: &Arc<Self>, tid: usize) -> RecorderHandle {
        RecorderHandle {
            rec: Some(Arc::clone(self)),
            tid,
        }
    }

    /// Snapshot of every ring, in thread order. Deterministic given a
    /// deterministic schedule (the simulator's case).
    pub fn snapshot(&self) -> Vec<ThreadTrace> {
        self.rings
            .iter()
            .enumerate()
            .map(|(tid, ring)| ring.snapshot(tid))
            .collect()
    }

    /// Calls `f(thread, event)` on every event recorded since the previous
    /// call with the same `cursors` (one read position per ring; start with
    /// an empty vector), ring by ring and in sequence order, and advances
    /// the cursors. Each ring is read from `max(cursor, head − capacity)`;
    /// a ring stops at its first slot that does not hold the expected event
    /// — one a concurrent writer is overwriting — so that event is picked
    /// up by the next call or counted as lost, never delivered torn.
    ///
    /// Returns the number of events the rings overwrote before this call
    /// could read them. Cost is O(new events), independent of capacity.
    pub fn for_each_new(&self, cursors: &mut Vec<u64>, mut f: impl FnMut(usize, Event)) -> u64 {
        cursors.resize(self.rings.len(), 0);
        let mut lost = 0;
        for (tid, (ring, cursor)) in self.rings.iter().zip(cursors.iter_mut()).enumerate() {
            let head = ring.head.load(Ordering::Acquire);
            let start = (*cursor).max(head.saturating_sub(ring.capacity()));
            lost += start - *cursor;
            *cursor = ring.scan(start, head, |ev| match ev {
                Some(e) => {
                    f(tid, e);
                    true
                }
                None => false,
            });
        }
        lost
    }

    /// Slots allocated so far in thread `tid`'s ring: the events it has
    /// recorded rounded up to whole chunks, at most the capacity.
    pub fn allocated_slots(&self, tid: usize) -> usize {
        let ring = &self.rings[tid % self.rings.len()];
        ring.allocated_chunks() << ring.chunk_shift
    }
}

/// A thread's handle into the flight recorder — either live (bound to one
/// ring) or dead (every record call is a no-op branch on `None`).
#[derive(Debug, Clone)]
pub struct RecorderHandle {
    rec: Option<Arc<FlightRecorder>>,
    tid: usize,
}

impl RecorderHandle {
    /// The no-op handle: recording through it compiles down to a single
    /// branch on an always-`None` option.
    #[inline]
    pub fn dead() -> Self {
        RecorderHandle { rec: None, tid: 0 }
    }

    /// Whether this handle actually records anywhere.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.rec.is_some()
    }

    /// Records `kind` at `ts` into the bound ring; no-op for dead handles.
    #[inline]
    pub fn record(&self, ts: u64, kind: EventKind) {
        if let Some(rec) = &self.rec {
            rec.record(self.tid, ts, kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reason::AbortReason;

    #[test]
    fn events_come_back_in_order_with_timestamps() {
        let rec = Arc::new(FlightRecorder::new(2, 8));
        let h0 = rec.handle(0);
        let h1 = rec.handle(1);
        h0.record(10, EventKind::TxBegin { view: 1 });
        h1.record(11, EventKind::GateWaitEnter { view: 2 });
        h0.record(
            20,
            EventKind::TxAbort {
                view: 1,
                reason: AbortReason::OrecConflict,
                cycles: 10,
            },
        );
        let snap = rec.snapshot();
        assert_eq!(snap[0].events.len(), 2);
        assert_eq!(snap[0].dropped, 0);
        assert_eq!(snap[0].events[0].ts, 10);
        assert_eq!(snap[0].events[1].seq, 1);
        assert_eq!(snap[1].events.len(), 1);
        assert_eq!(snap[1].events[0].kind, EventKind::GateWaitEnter { view: 2 });
    }

    #[test]
    fn dead_handle_is_a_no_op() {
        let h = RecorderHandle::dead();
        assert!(!h.is_live());
        h.record(1, EventKind::TxBegin { view: 0 });
    }

    #[test]
    fn wrap_around_drops_oldest() {
        let rec = Arc::new(FlightRecorder::new(1, 8));
        let h = rec.handle(0);
        for i in 0..20u64 {
            h.record(i, EventKind::TxCommit { view: 0, cycles: i });
        }
        let t = &rec.snapshot()[0];
        assert_eq!(t.recorded, 20);
        assert_eq!(t.dropped, 12);
        assert_eq!(t.events.len(), 8);
        assert_eq!(t.events[0].seq, 12);
        assert_eq!(t.events[0].ts, 12);
        assert_eq!(t.events[7].seq, 19);
    }
}
