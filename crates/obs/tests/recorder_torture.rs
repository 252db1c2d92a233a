//! Real-thread torture of the flight recorder's concurrent read paths.
//!
//! Writer threads record events whose every word is derived from their
//! sequence number, across chunk boundaries and (in the wrapping variant)
//! around the ring, while a reader thread alternates
//! [`FlightRecorder::for_each_new`] and [`FlightRecorder::snapshot`] in a
//! loop. Checked on every read: no event is torn or mis-decoded, each ring
//! delivers its events exactly once and in order, and every event the
//! cursor reader never saw is accounted for as lost to wrap-around.
//!
//! This is a probabilistic check of the seqlock stamps under weak memory;
//! CI loops it in release mode.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use votm_obs::recorder::CHUNK_SLOTS;
use votm_obs::{Event, EventKind, FlightRecorder};

const WRITERS: usize = 2;

/// The event writer `tid` records under sequence number `seq`: every
/// payload word depends on both, so a mix of two laps cannot pass.
fn expected(tid: usize, seq: u64) -> (u64, EventKind) {
    let salt = (tid as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (
        seq ^ salt,
        EventKind::Footprint {
            view: tid as u16,
            committed: seq.is_multiple_of(2),
            reads: seq.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ salt,
            writes: !seq ^ salt.rotate_left(17),
        },
    )
}

fn check_untorn(tid: usize, ev: &Event) {
    let (ts, kind) = expected(tid, ev.seq);
    assert_eq!(ev.ts, ts, "ring {tid} seq {}: torn timestamp", ev.seq);
    assert_eq!(ev.kind, kind, "ring {tid} seq {}: torn payload", ev.seq);
}

/// State of the cursor reader.
#[derive(Default)]
struct Reader {
    cursors: Vec<u64>,
    /// Per ring: the lowest sequence number the next delivery may carry.
    next: Vec<u64>,
    /// Per ring: events delivered.
    delivered: Vec<u64>,
    /// Events the rings reported lost to wrap-around, all rings together.
    lost: u64,
}

impl Reader {
    fn new(rings: usize) -> Self {
        Reader {
            next: vec![0; rings],
            delivered: vec![0; rings],
            ..Reader::default()
        }
    }

    /// One pass: every new event is untorn and later than the previous
    /// one from its ring, and below each cursor every sequence number was
    /// either delivered once or reported lost.
    fn advance(&mut self, rec: &FlightRecorder) {
        let (next, delivered) = (&mut self.next, &mut self.delivered);
        self.lost += rec.for_each_new(&mut self.cursors, |tid, ev| {
            check_untorn(tid, &ev);
            assert!(
                ev.seq >= next[tid],
                "ring {tid}: seq {} delivered again or out of order",
                ev.seq
            );
            next[tid] = ev.seq + 1;
            delivered[tid] += 1;
        });
        let behind: u64 = self
            .cursors
            .iter()
            .zip(&self.delivered)
            .map(|(c, d)| c - d)
            .sum();
        assert_eq!(
            behind, self.lost,
            "an event was neither delivered nor counted lost"
        );
    }
}

/// A concurrent snapshot: each trace is an ordered run of untorn events.
fn check_snapshot(rec: &FlightRecorder) {
    for t in rec.snapshot() {
        assert!(t.events.len() as u64 <= t.recorded - t.dropped);
        let mut prev = None;
        for ev in &t.events {
            check_untorn(t.thread, ev);
            assert!(ev.seq >= t.dropped && ev.seq < t.recorded);
            assert!(prev.is_none_or(|p| ev.seq > p), "snapshot out of order");
            prev = Some(ev.seq);
        }
    }
}

/// Runs the writers against a concurrent reader; returns the reader's
/// final state after one last pass over the joined writers' rings. With
/// `paced`, each writer waits for a fresh reader pass every quarter chunk,
/// so reads provably interleave with chunk allocation and slot writes.
fn torture(capacity: usize, per_writer: u64, paced: bool) -> Reader {
    let rec = FlightRecorder::new(WRITERS, capacity);
    let start = Barrier::new(WRITERS + 1);
    let running = AtomicUsize::new(WRITERS);
    let passes = AtomicUsize::new(0);
    let mut reader = Reader::new(WRITERS);
    std::thread::scope(|s| {
        for tid in 0..WRITERS {
            let (rec, start, running, passes) = (&rec, &start, &running, &passes);
            s.spawn(move || {
                start.wait();
                let mut seen = 0;
                for seq in 0..per_writer {
                    if paced && seq % (CHUNK_SLOTS as u64 / 4) == 0 {
                        while passes.load(Ordering::Acquire) == seen {
                            std::thread::yield_now();
                        }
                        seen = passes.load(Ordering::Acquire);
                    }
                    let (ts, kind) = expected(tid, seq);
                    rec.record(tid, ts, kind);
                }
                running.fetch_sub(1, Ordering::Release);
            });
        }
        start.wait();
        while running.load(Ordering::Acquire) > 0 {
            reader.advance(&rec);
            check_snapshot(&rec);
            passes.fetch_add(1, Ordering::Release);
        }
    });
    reader.advance(&rec);
    assert!(
        reader.cursors.iter().all(|&c| c == per_writer),
        "the last pass must reach every ring's head"
    );
    reader
}

#[test]
fn cursor_reader_gets_every_event_exactly_once_while_chunks_are_allocated() {
    // No wrap: every chunk is allocated under the reader's feet and every
    // event must be delivered, in order, exactly once.
    let per_writer = 64 * CHUNK_SLOTS as u64 + 17;
    let reader = torture(128 * CHUNK_SLOTS, per_writer, true);
    assert_eq!(reader.lost, 0, "events lost without a wrap");
    assert_eq!(reader.delivered, vec![per_writer; WRITERS]);
}

#[test]
fn cursor_reader_never_sees_a_torn_slot_while_rings_wrap() {
    // Two chunks per ring, lapped thousands of times by unpaced writers
    // while being read: slots are overwritten mid-copy and whole laps are
    // lost between passes.
    let reader = torture(2 * CHUNK_SLOTS, 4000 * CHUNK_SLOTS as u64, false);
    assert!(reader.delivered.iter().all(|&d| d > 0));
}
