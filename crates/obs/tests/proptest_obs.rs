//! Randomized property tests of the observability primitives, driven by a
//! fixed-seed PRNG (the repo's offline stand-in for a property-testing
//! crate; every case derives from the printed seed, so failures replay).

use std::sync::Arc;

use votm_obs::hist::{bucket_index, bucket_lower, bucket_upper};
use votm_obs::recorder::CHUNK_SLOTS;
use votm_obs::{
    AbortReason, ConflictProfile, ConflictSiteKind, EventKind, FlightRecorder, HistogramSnapshot,
    LatencyHistogram, ADDR_BUCKET_NONE, HIST_BUCKETS, PROFILE_BUCKETS,
};
use votm_utils::XorShift64;

/// Random sample skewed across magnitudes so every bucket range gets
/// exercised, not just the low ones.
fn random_sample(rng: &mut XorShift64) -> u64 {
    let bits = rng.next_below(65) as u32;
    if bits == 0 {
        0
    } else {
        rng.next_u64() >> (64 - bits)
    }
}

#[test]
fn histogram_count_equals_samples_and_buckets_bracket_them() {
    let mut rng = XorShift64::new(0x0b5_0001);
    for case in 0..200 {
        let h = LatencyHistogram::new();
        let n = rng.next_below(300);
        let mut samples = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let v = random_sample(&mut rng);
            samples.push(v);
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), n, "case {case}: count mismatch");
        // Each sample landed in exactly the bucket bracketing its value.
        let mut expected = [0u64; HIST_BUCKETS];
        for &v in &samples {
            let i = bucket_index(v);
            assert!(bucket_lower(i) <= v && v <= bucket_upper(i), "case {case}");
            expected[i] += 1;
        }
        assert_eq!(s.buckets, expected, "case {case}");
    }
}

#[test]
fn merge_is_commutative_and_counts_add() {
    let mut rng = XorShift64::new(0x0b5_0002);
    for case in 0..200 {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        for _ in 0..rng.next_below(100) {
            a.record(random_sample(&mut rng));
        }
        for _ in 0..rng.next_below(100) {
            b.record(random_sample(&mut rng));
        }
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut ab = sa;
        ab.merge(&sb);
        let mut ba = sb;
        ba.merge(&sa);
        assert_eq!(ab, ba, "case {case}: merge must be commutative");
        assert_eq!(ab.count(), sa.count() + sb.count(), "case {case}");
        let mut zero = HistogramSnapshot::default();
        zero.merge(&sa);
        assert_eq!(zero, sa, "case {case}: empty is a merge identity");
    }
}

#[test]
fn quantiles_are_monotone_and_bracket_the_extremes() {
    let mut rng = XorShift64::new(0x0b5_0003);
    for case in 0..200 {
        let h = LatencyHistogram::new();
        let n = 1 + rng.next_below(200);
        let mut min = u64::MAX;
        let mut max = 0u64;
        for _ in 0..n {
            let v = random_sample(&mut rng);
            min = min.min(v);
            max = max.max(v);
            h.record(v);
        }
        let s = h.snapshot();
        // Monotone in q.
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        for w in qs.windows(2) {
            assert!(
                s.quantile(w[0]) <= s.quantile(w[1]),
                "case {case}: quantile must be monotone in q"
            );
        }
        // q=0 returns the min's bucket bound (>= min); q=1 bounds the max
        // from above and stays inside the max's bucket.
        assert!(s.quantile(0.0) >= min, "case {case}");
        assert!(s.quantile(1.0) >= max, "case {case}");
        assert_eq!(
            bucket_index(s.quantile(1.0)),
            bucket_index(max),
            "case {case}: q=1 must land in the max sample's bucket"
        );
    }
}

#[test]
fn ring_wraparound_keeps_the_newest_suffix_intact() {
    let mut rng = XorShift64::new(0x0b5_0004);
    for case in 0..100 {
        // Capacities below, at and above one lazily allocated chunk, so
        // the newest suffix crosses chunk boundaries and wraps mid-chunk.
        let caps = [
            8,
            16,
            32,
            CHUNK_SLOTS / 2,
            CHUNK_SLOTS,
            2 * CHUNK_SLOTS,
            4 * CHUNK_SLOTS,
        ];
        let cap = caps[rng.next_index(caps.len())];
        let rec = Arc::new(FlightRecorder::new(1, cap));
        let h = rec.handle(0);
        let n = rng.next_below(4 * cap as u64);
        for i in 0..n {
            h.record(
                i,
                EventKind::TxCommit {
                    view: (i % 3) as u16,
                    cycles: i * 7,
                },
            );
        }
        let t = &rec.snapshot()[0];
        assert_eq!(t.recorded, n, "case {case}: monotone total");
        assert_eq!(t.dropped, n.saturating_sub(cap as u64), "case {case}");
        assert_eq!(
            t.events.len() as u64,
            n - t.dropped,
            "case {case}: survivors are exactly the newest suffix"
        );
        // The suffix is contiguous, in order, and untorn: each surviving
        // event is bit-exact what was recorded under that sequence number.
        for (k, e) in t.events.iter().enumerate() {
            let seq = t.dropped + k as u64;
            assert_eq!(e.seq, seq, "case {case}");
            assert_eq!(e.ts, seq, "case {case}");
            assert_eq!(
                e.kind,
                EventKind::TxCommit {
                    view: (seq % 3) as u16,
                    cycles: seq * 7,
                },
                "case {case}: torn or misplaced event"
            );
        }
    }
}

#[test]
fn recorded_counts_are_monotone_across_interleaved_snapshots() {
    let rec = Arc::new(FlightRecorder::new(2, 8));
    let h = rec.handle(1);
    let mut prev_recorded = 0;
    let mut prev_dropped = 0;
    for i in 0..50u64 {
        h.record(
            i,
            EventKind::TxAbort {
                view: 0,
                reason: AbortReason::OrecConflict,
                cycles: i,
            },
        );
        let t = &rec.snapshot()[1];
        assert!(t.recorded > prev_recorded, "recorded must be monotone");
        assert!(t.dropped >= prev_dropped, "dropped must be monotone");
        prev_recorded = t.recorded;
        prev_dropped = t.dropped;
    }
}

/// A random event of a kind the conflict profile folds (or ignores), on
/// `view`.
fn random_profile_event(rng: &mut XorShift64, view: u16) -> EventKind {
    let reason = AbortReason::ALL[rng.next_index(AbortReason::COUNT)];
    // Footprints touch a handful of buckets, so affinities accumulate.
    let sparse = |rng: &mut XorShift64| {
        (0..1 + rng.next_below(4))
            .fold(0u64, |m, _| m | 1 << rng.next_below(PROFILE_BUCKETS as u64))
    };
    match rng.next_below(5) {
        0 => EventKind::TxAbort {
            view,
            reason,
            cycles: rng.next_below(1000),
        },
        1 => EventKind::ConflictDetected {
            view,
            addr_bucket: if rng.chance_percent(20) {
                ADDR_BUCKET_NONE
            } else {
                rng.next_below(PROFILE_BUCKETS as u64) as u8
            },
            kind: reason,
            site: [
                ConflictSiteKind::None,
                ConflictSiteKind::Addr,
                ConflictSiteKind::Orec,
                ConflictSiteKind::Bloom,
            ][rng.next_index(4)],
            cycles: rng.next_below(1000),
            raw: rng.next_u64(),
        },
        2 | 3 => EventKind::Footprint {
            view,
            committed: rng.chance_percent(70),
            reads: sparse(rng),
            writes: sparse(rng),
        },
        _ => EventKind::TxBegin { view },
    }
}

#[test]
fn incremental_view_profiles_equal_a_final_snapshot_fold() {
    let mut rng = XorShift64::new(0x0b5_0005);
    for case in 0..100 {
        let threads = 1 + rng.next_index(4);
        let views = 1 + rng.next_below(4) as u16;
        let n = rng.next_below(600);
        // Large enough that no ring wraps.
        let rec = FlightRecorder::new(threads, 1024);
        let mut cursors = Vec::new();
        let mut profiles = vec![ConflictProfile::empty(); views as usize];
        let mut fold = |rec: &FlightRecorder, cursors: &mut Vec<u64>| {
            rec.for_each_new(cursors, |_, ev| {
                profiles[usize::from(ev.kind.view())].add(&ev.kind)
            })
        };
        for i in 0..n {
            let view = rng.next_below(u64::from(views)) as u16;
            let kind = random_profile_event(&mut rng, view);
            rec.record(rng.next_index(threads), i, kind);
            // Advance the cursors at random cut points.
            if rng.chance_percent(5) {
                assert_eq!(fold(&rec, &mut cursors), 0, "case {case}: lost events");
            }
        }
        assert_eq!(fold(&rec, &mut cursors), 0, "case {case}: lost events");
        let snapshot = rec.snapshot();
        for (v, p) in profiles.iter().enumerate() {
            assert_eq!(
                *p,
                ConflictProfile::from_traces_for_view(&snapshot, v as u16),
                "case {case}: view {v}"
            );
        }
    }
}

#[test]
fn incremental_profile_keeps_events_a_wrapped_ring_overwrote() {
    let footprint = EventKind::Footprint {
        view: 0,
        committed: true,
        reads: 0b11,
        writes: 0,
    };
    let rec = FlightRecorder::new(1, 8);
    let mut cursors = Vec::new();
    let mut incremental = ConflictProfile::empty();
    for i in 0..20u64 {
        rec.record(0, i, footprint);
        // Read every 4 events: nothing is overwritten before it is read.
        if i % 4 == 3 {
            let lost = rec.for_each_new(&mut cursors, |_, ev| incremental.add(&ev.kind));
            assert_eq!(lost, 0);
        }
    }
    // The incremental profile counts all 20 footprints; a fold of the
    // snapshot sees only the 8 the ring still holds.
    assert_eq!(incremental.touches[0], 20);
    assert_eq!(incremental.affinity(0, 1), 20);
    let snapshot = ConflictProfile::from_traces_for_view(&rec.snapshot(), 0);
    assert_eq!(snapshot.touches[0], 8);

    // A reader that falls more than a lap behind gets the surviving
    // suffix and the count of what it missed.
    let mut late = Vec::new();
    let mut seen = Vec::new();
    assert_eq!(rec.for_each_new(&mut late, |_, ev| seen.push(ev.seq)), 12);
    assert_eq!(seen, (12..20).collect::<Vec<u64>>());
}
