//! Allocation budget of the flight recorder, measured with a counting
//! global allocator: building a recorder allocates only its chunk tables,
//! and recording allocates one chunk per `CHUNK_SLOTS` events on the
//! recording thread's ring, and nothing once every chunk exists.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use votm_obs::recorder::CHUNK_SLOTS;
use votm_obs::{EventKind, FlightRecorder};

/// Counts allocations made by the current thread (tests run on parallel
/// threads, so a process-wide count would mix them).
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(layout: Layout) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, where the count no longer matters.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + layout.size() as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// const-initialized thread-locals that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout);
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(Layout::from_size_align(new_size, layout.align()).unwrap_or(layout));
        // SAFETY: the caller upholds `realloc`'s contract for `ptr`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `dealloc`'s contract for `ptr`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations (calls, bytes) it
/// made on this thread.
fn measure<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    (out, ALLOCS.with(Cell::get) - a0, BYTES.with(Cell::get) - b0)
}

fn commit(i: u64) -> EventKind {
    EventKind::TxCommit { view: 0, cycles: i }
}

#[test]
fn building_a_recorder_allocates_only_its_chunk_tables() {
    let (rec, _, bytes) = measure(|| FlightRecorder::new(17, 1 << 13));
    assert!(bytes < 64 << 10, "FlightRecorder::new allocated {bytes} B");
    assert!((0..17).all(|t| rec.allocated_slots(t) == 0));
}

#[test]
fn recording_allocates_one_chunk_per_chunk_of_events_on_its_ring_only() {
    let cap = 8 * CHUNK_SLOTS;
    for n in [
        0,
        1,
        CHUNK_SLOTS - 1,
        CHUNK_SLOTS,
        CHUNK_SLOTS + 1,
        5 * CHUNK_SLOTS + 7,
    ] {
        let rec = FlightRecorder::new(4, cap);
        let ((), allocs, _) = measure(|| {
            for i in 0..n as u64 {
                rec.record(2, i, commit(i));
            }
        });
        let chunks = n.div_ceil(CHUNK_SLOTS);
        assert_eq!(allocs, chunks as u64, "{n} events");
        assert_eq!(rec.allocated_slots(2), chunks * CHUNK_SLOTS, "{n} events");
        for t in [0, 1, 3] {
            assert_eq!(rec.allocated_slots(t), 0, "{n} events: ring {t} grew");
        }
    }
}

#[test]
fn a_full_ring_records_without_allocating() {
    let cap = 2 * CHUNK_SLOTS;
    let rec = FlightRecorder::new(1, cap);
    let ((), first_lap, _) = measure(|| {
        for i in 0..cap as u64 {
            rec.record(0, i, commit(i));
        }
    });
    assert_eq!(first_lap, 2);
    let ((), later_laps, _) = measure(|| {
        for i in 0..10 * cap as u64 {
            rec.record(0, i, commit(i));
        }
    });
    assert_eq!(later_laps, 0, "wrapping must reuse the allocated chunks");
    assert_eq!(rec.allocated_slots(0), cap);
}

#[test]
fn a_ring_smaller_than_a_chunk_is_one_chunk_of_its_capacity() {
    let rec = FlightRecorder::new(2, 16);
    let ((), allocs, _) = measure(|| {
        for i in 0..100u64 {
            rec.record(1, i, commit(i));
        }
    });
    assert_eq!(allocs, 1);
    assert_eq!(rec.allocated_slots(1), 16);
    assert_eq!(rec.allocated_slots(0), 0);
}
