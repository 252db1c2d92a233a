//! Conflict-topology profiler: folds flight-recorder snapshots into an
//! address-bucket abort-attribution table, a co-access affinity matrix and
//! a suggested bi-partition.
//!
//! This is the analysis layer the ROADMAP's "online automatic view
//! partitioning" item needs: the paper's Observation 2 says objects never
//! accessed together belong in separate views, and the affinity matrix is
//! exactly the "accessed together" relation, mined from
//! [`EventKind::Footprint`] events. The attribution table answers the
//! complementary question — *which* addresses the wasted cycles are
//! attributable to — from [`EventKind::ConflictDetected`] events.
//!
//! Nothing in this module is on a transaction's hot path: profiles are
//! folded from a snapshot after the run, or event by event by the
//! repartitioning controller between evaluations.

use crate::event::{ConflictSiteKind, EventKind, ADDR_BUCKET_NONE, PROFILE_BUCKETS};
use crate::reason::AbortReason;
use crate::recorder::ThreadTrace;

/// Abort attribution for one address bucket: how many attempts died here
/// and how many cycles they wasted, split by [`AbortReason`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketRow {
    /// Aborted attempts attributed to this bucket.
    pub aborts: u64,
    /// Cycles wasted by those attempts.
    pub wasted_cycles: u64,
    /// Abort counts split by reason (indexed by [`AbortReason::index`]).
    pub aborts_by_reason: [u64; AbortReason::COUNT],
    /// Wasted cycles split by reason.
    pub cycles_by_reason: [u64; AbortReason::COUNT],
}

impl BucketRow {
    const ZERO: BucketRow = BucketRow {
        aborts: 0,
        wasted_cycles: 0,
        aborts_by_reason: [0; AbortReason::COUNT],
        cycles_by_reason: [0; AbortReason::COUNT],
    };

    fn record(&mut self, reason: AbortReason, cycles: u64) {
        self.aborts += 1;
        self.wasted_cycles += cycles;
        self.aborts_by_reason[reason.index()] += 1;
        self.cycles_by_reason[reason.index()] += cycles;
    }
}

/// The folded profile: attribution table + affinity matrix + counters.
///
/// Build with [`ConflictProfile::from_traces`] (or incrementally with
/// [`ConflictProfile::empty`] and [`ConflictProfile::add`]), then export with
/// [`ConflictProfile::to_json`] or partition with
/// [`ConflictProfile::suggest_bipartition`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictProfile {
    /// Per-bucket abort attribution (`PROFILE_BUCKETS` rows).
    pub buckets: Vec<BucketRow>,
    /// Aborts that carried no address attribution (explicit aborts,
    /// injected faults, CM kills observed away from a conflicting access).
    pub unattributed: BucketRow,
    /// Symmetric co-access affinity: `affinity(i, j)` counts attempts
    /// whose footprint touched both bucket `i` and bucket `j`. Stored as a
    /// flat row-major `PROFILE_BUCKETS²` matrix.
    pub affinity: Vec<u64>,
    /// Per-bucket touch counts (attempts whose footprint included the
    /// bucket) — the matrix diagonal.
    pub touches: Vec<u64>,
    /// Footprint events folded, split committed/aborted.
    pub committed_footprints: u64,
    /// Aborted-attempt footprints folded.
    pub aborted_footprints: u64,
    /// Conflict events folded, split by what the site word identified.
    pub sites: [u64; 4],
    /// Total cycles across all [`EventKind::TxAbort`] events in the same
    /// snapshot — the invariant check: bucket rows plus `unattributed`
    /// must sum exactly to this.
    pub abort_cycles_total: u64,
    /// Total [`EventKind::TxAbort`] events seen.
    pub aborts_total: u64,
}

impl ConflictProfile {
    /// The profile of no events.
    pub fn empty() -> ConflictProfile {
        ConflictProfile {
            buckets: vec![BucketRow::ZERO; PROFILE_BUCKETS],
            unattributed: BucketRow::ZERO,
            affinity: vec![0; PROFILE_BUCKETS * PROFILE_BUCKETS],
            touches: vec![0; PROFILE_BUCKETS],
            committed_footprints: 0,
            aborted_footprints: 0,
            sites: [0; 4],
            abort_cycles_total: 0,
            aborts_total: 0,
        }
    }

    /// Folds a flight-recorder snapshot into a profile.
    ///
    /// Thread order does not affect the result: every fold is a
    /// commutative counter bump, so the profile is deterministic for a
    /// deterministic simulation regardless of snapshot interleaving.
    pub fn from_traces(traces: &[ThreadTrace]) -> ConflictProfile {
        Self::fold(traces, |_| true)
    }

    /// Folds only the events recorded against `view`. This is the
    /// repartitioner's input: with several views sharing one recorder, a
    /// split decision for view V must not see the affinity of buckets the
    /// route table already assigns elsewhere.
    pub fn from_traces_for_view(traces: &[ThreadTrace], view: u16) -> ConflictProfile {
        Self::fold(traces, |kind| kind.view() == view)
    }

    fn fold(traces: &[ThreadTrace], keep: impl Fn(&EventKind) -> bool) -> ConflictProfile {
        let mut p = ConflictProfile::empty();
        for ev in traces.iter().flat_map(|t| &t.events) {
            if keep(&ev.kind) {
                p.add(&ev.kind);
            }
        }
        p
    }

    /// Folds one event into the profile; kinds other than aborts, conflict
    /// sites and footprints leave it unchanged. Folding is a sum of
    /// per-event counter bumps, so a profile built up incrementally equals
    /// one folded from a snapshot of the same events.
    pub fn add(&mut self, kind: &EventKind) {
        match *kind {
            EventKind::TxAbort { cycles, .. } => {
                self.abort_cycles_total += cycles;
                self.aborts_total += 1;
            }
            EventKind::ConflictDetected {
                addr_bucket,
                kind,
                site,
                cycles,
                ..
            } => {
                self.sites[site as usize] += 1;
                if addr_bucket == ADDR_BUCKET_NONE {
                    self.unattributed.record(kind, cycles);
                } else {
                    self.buckets[usize::from(addr_bucket) % PROFILE_BUCKETS].record(kind, cycles);
                }
            }
            EventKind::Footprint {
                committed,
                reads,
                writes,
                ..
            } => {
                if committed {
                    self.committed_footprints += 1;
                } else {
                    self.aborted_footprints += 1;
                }
                let mut bits = reads | writes;
                while bits != 0 {
                    let i = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.touches[i] += 1;
                    let mut rest = bits;
                    while rest != 0 {
                        let j = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        self.affinity[i * PROFILE_BUCKETS + j] += 1;
                        self.affinity[j * PROFILE_BUCKETS + i] += 1;
                    }
                }
            }
            _ => {}
        }
    }

    /// Co-access count between buckets `i` and `j` (symmetric).
    #[inline]
    pub fn affinity(&self, i: usize, j: usize) -> u64 {
        self.affinity[i * PROFILE_BUCKETS + j]
    }

    /// Total wasted cycles attributed across all bucket rows plus the
    /// unattributed row. Equals [`ConflictProfile::abort_cycles_total`]
    /// when every abort in the snapshot was paired with a
    /// [`EventKind::ConflictDetected`] (the core runtime guarantees this).
    pub fn attributed_cycles_total(&self) -> u64 {
        self.buckets.iter().map(|b| b.wasted_cycles).sum::<u64>() + self.unattributed.wasted_cycles
    }

    /// Suggests a two-way split of the touched buckets minimising
    /// cross-partition affinity, and scores how separable the workload is.
    ///
    /// Strategy: union-find the co-access graph into connected components.
    /// Multiple components ⇒ a zero-cut partition exists; components are
    /// balanced across the two sides by touch weight (greedy, heaviest
    /// first, ties by lowest bucket index — fully deterministic). A single
    /// component falls back to a greedy growing pass seeded at the two
    /// least-affine heavy buckets, followed by one local-improvement
    /// sweep. `separability = 1 − cut/(cut+internal)`: 1.0 means the two
    /// sides never co-accessed (the paper's Observation 2 trigger), 0.0
    /// means every co-access crosses the cut.
    pub fn suggest_bipartition(&self) -> Bipartition {
        let touched: Vec<usize> = (0..PROFILE_BUCKETS)
            .filter(|&i| self.touches[i] > 0)
            .collect();
        let mut side = [0u8; PROFILE_BUCKETS];
        if touched.len() >= 2 {
            // Union-find over co-access edges.
            let mut parent: Vec<usize> = (0..PROFILE_BUCKETS).collect();
            fn find(parent: &mut [usize], x: usize) -> usize {
                let mut r = x;
                while parent[r] != r {
                    r = parent[r];
                }
                let mut c = x;
                while parent[c] != r {
                    let next = parent[c];
                    parent[c] = r;
                    c = next;
                }
                r
            }
            for &i in &touched {
                for &j in &touched {
                    if j > i && self.affinity(i, j) > 0 {
                        let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                        if ri != rj {
                            parent[ri.max(rj)] = ri.min(rj);
                        }
                    }
                }
            }
            let mut roots: Vec<usize> = Vec::new();
            for &i in &touched {
                let r = find(&mut parent, i);
                if !roots.contains(&r) {
                    roots.push(r);
                }
            }
            if roots.len() >= 2 {
                // Zero-cut split exists: pack components onto the lighter
                // side, heaviest first.
                let mut comps: Vec<(u64, usize)> = roots
                    .iter()
                    .map(|&r| {
                        let w = touched
                            .iter()
                            .filter(|&&i| find(&mut parent, i) == r)
                            .map(|&i| self.touches[i])
                            .sum();
                        (w, r)
                    })
                    .collect();
                comps.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                let (mut w0, mut w1) = (0u64, 0u64);
                for (w, r) in comps {
                    let s = u8::from(w0 > w1);
                    for &i in &touched {
                        if find(&mut parent, i) == r {
                            side[i] = s;
                        }
                    }
                    if s == 0 {
                        w0 += w;
                    } else {
                        w1 += w;
                    }
                }
            } else {
                // One component: greedy growing from the two least-affine
                // heavy seeds, then one improvement sweep.
                let seed_a = *touched
                    .iter()
                    .max_by_key(|&&i| (self.touches[i], usize::MAX - i))
                    .unwrap();
                let seed_b = *touched
                    .iter()
                    .filter(|&&i| i != seed_a)
                    .min_by_key(|&&i| (self.affinity(seed_a, i), i))
                    .unwrap();
                side[seed_b] = 1;
                for &i in &touched {
                    if i == seed_a || i == seed_b {
                        continue;
                    }
                    let pull: i128 = touched
                        .iter()
                        .map(|&j| {
                            let a = self.affinity(i, j) as i128;
                            if side[j] == 0 {
                                a
                            } else {
                                -a
                            }
                        })
                        .sum();
                    side[i] = u8::from(pull < 0);
                }
                // One local-improvement sweep; the seeds stay pinned so the
                // sweep cannot collapse both sides into one.
                for &i in &touched {
                    if i == seed_a || i == seed_b {
                        continue;
                    }
                    let pull: i128 = touched
                        .iter()
                        .filter(|&&j| j != i)
                        .map(|&j| {
                            let a = self.affinity(i, j) as i128;
                            if side[j] == 0 {
                                a
                            } else {
                                -a
                            }
                        })
                        .sum();
                    side[i] = u8::from(pull < 0);
                }
            }
        }
        let (mut cut, mut internal) = (0u64, 0u64);
        for &i in &touched {
            for &j in &touched {
                if j > i {
                    let a = self.affinity(i, j);
                    if side[i] == side[j] {
                        internal += a;
                    } else {
                        cut += a;
                    }
                }
            }
        }
        let total = cut + internal;
        Bipartition {
            side,
            touched,
            cut_affinity: cut,
            internal_affinity: internal,
            separability: if total == 0 {
                1.0
            } else {
                1.0 - cut as f64 / total as f64
            },
        }
    }

    /// Deterministic `votm-obs-profile-v1` JSON document. Sparse: only
    /// buckets with any attribution or touches appear, and the affinity
    /// matrix is emitted as sorted upper-triangle `[i, j, count]` triples.
    pub fn to_json(&self) -> String {
        let part = self.suggest_bipartition();
        let mut out = String::with_capacity(4096);
        out.push_str("{\"schema\":\"votm-obs-profile-v1\",\"schema_version\":\"");
        out.push_str(crate::export::SCHEMA_VERSION);
        out.push_str("\",");
        out.push_str(&format!(
            "\"aborts_total\":{},\"abort_cycles_total\":{},",
            self.aborts_total, self.abort_cycles_total
        ));
        out.push_str(&format!(
            "\"footprints\":{{\"committed\":{},\"aborted\":{}}},",
            self.committed_footprints, self.aborted_footprints
        ));
        out.push_str(&format!(
            "\"sites\":{{\"none\":{},\"addr\":{},\"orec\":{},\"bloom\":{}}},",
            self.sites[0], self.sites[1], self.sites[2], self.sites[3]
        ));
        out.push_str("\"buckets\":[");
        let mut first = true;
        for (i, row) in self.buckets.iter().enumerate() {
            if row.aborts == 0 && self.touches[i] == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            bucket_row_json(&mut out, Some(i), row, self.touches[i]);
        }
        out.push_str("],\"unattributed\":");
        bucket_row_json(&mut out, None, &self.unattributed, 0);
        out.push_str(",\"affinity\":[");
        first = true;
        for i in 0..PROFILE_BUCKETS {
            for j in (i + 1)..PROFILE_BUCKETS {
                let a = self.affinity(i, j);
                if a == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("[{i},{j},{a}]"));
            }
        }
        out.push_str("],\"partition\":{\"side0\":[");
        let sides = |s: u8| {
            part.touched
                .iter()
                .filter(|&&i| part.side[i] == s)
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        out.push_str(&sides(0));
        out.push_str("],\"side1\":[");
        out.push_str(&sides(1));
        out.push_str(&format!(
            "],\"cut_affinity\":{},\"internal_affinity\":{},\"separability\":{:.6}}}}}",
            part.cut_affinity, part.internal_affinity, part.separability
        ));
        out
    }
}

fn bucket_row_json(out: &mut String, bucket: Option<usize>, row: &BucketRow, touches: u64) {
    out.push('{');
    if let Some(i) = bucket {
        out.push_str(&format!("\"bucket\":{i},\"touches\":{touches},"));
    }
    out.push_str(&format!(
        "\"aborts\":{},\"wasted_cycles\":{},\"by_reason\":{{",
        row.aborts, row.wasted_cycles
    ));
    let mut first = true;
    for r in AbortReason::ALL {
        let (n, c) = (
            row.aborts_by_reason[r.index()],
            row.cycles_by_reason[r.index()],
        );
        if n == 0 && c == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\"{}\":{{\"aborts\":{n},\"wasted_cycles\":{c}}}",
            r.name()
        ));
    }
    out.push_str("}}");
}

/// A suggested two-way bucket split with its quality score.
#[derive(Debug, Clone)]
pub struct Bipartition {
    /// Side assignment (0 or 1) per bucket; only meaningful for buckets in
    /// [`Bipartition::touched`].
    pub side: [u8; PROFILE_BUCKETS],
    /// Buckets that appeared in at least one footprint, ascending.
    pub touched: Vec<usize>,
    /// Total co-access affinity crossing the cut.
    pub cut_affinity: u64,
    /// Total co-access affinity within a side.
    pub internal_affinity: u64,
    /// `1 − cut/(cut+internal)`; 1.0 when the sides never co-access.
    pub separability: f64,
}

impl Bipartition {
    /// The touched buckets assigned to side `s` (0 or 1), ascending.
    pub fn side_buckets(&self, s: u8) -> Vec<usize> {
        self.touched
            .iter()
            .copied()
            .filter(|&i| self.side[i] == s)
            .collect()
    }
}

/// Profile kinds split by what the conflict-site word identified — used
/// only for readable indexing into [`ConflictProfile::sites`].
pub const SITE_KINDS: [ConflictSiteKind; 4] = [
    ConflictSiteKind::None,
    ConflictSiteKind::Addr,
    ConflictSiteKind::Orec,
    ConflictSiteKind::Bloom,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn trace(events: Vec<EventKind>) -> ThreadTrace {
        ThreadTrace {
            thread: 0,
            recorded: events.len() as u64,
            dropped: 0,
            events: events
                .into_iter()
                .enumerate()
                .map(|(i, kind)| Event {
                    seq: i as u64,
                    ts: i as u64,
                    kind,
                })
                .collect(),
        }
    }

    fn fp(reads: u64, writes: u64) -> EventKind {
        EventKind::Footprint {
            view: 0,
            committed: true,
            reads,
            writes,
        }
    }

    #[test]
    fn attribution_sums_match_abort_totals() {
        let t = trace(vec![
            EventKind::TxAbort {
                view: 0,
                reason: AbortReason::OrecConflict,
                cycles: 100,
            },
            EventKind::ConflictDetected {
                view: 0,
                addr_bucket: 5,
                kind: AbortReason::OrecConflict,
                site: ConflictSiteKind::Addr,
                cycles: 100,
                raw: 321,
            },
            EventKind::TxAbort {
                view: 0,
                reason: AbortReason::Explicit,
                cycles: 40,
            },
            EventKind::ConflictDetected {
                view: 0,
                addr_bucket: ADDR_BUCKET_NONE,
                kind: AbortReason::Explicit,
                site: ConflictSiteKind::None,
                cycles: 40,
                raw: 0,
            },
        ]);
        let p = ConflictProfile::from_traces(&[t]);
        assert_eq!(p.abort_cycles_total, 140);
        assert_eq!(p.attributed_cycles_total(), 140);
        assert_eq!(p.buckets[5].aborts, 1);
        assert_eq!(
            p.buckets[5].cycles_by_reason[AbortReason::OrecConflict.index()],
            100
        );
        assert_eq!(p.unattributed.wasted_cycles, 40);
        assert_eq!(p.sites, [1, 1, 0, 0]);
    }

    #[test]
    fn disjoint_footprints_partition_with_zero_cut() {
        // Two populations: buckets {0,1,2} and {40,41}. Never co-accessed.
        let mut evs = Vec::new();
        for _ in 0..10 {
            evs.push(fp(0b111, 0b10));
            evs.push(fp(0b11 << 40, 1 << 41));
        }
        let p = ConflictProfile::from_traces(&[trace(evs)]);
        let part = p.suggest_bipartition();
        assert_eq!(part.cut_affinity, 0);
        assert!(part.separability == 1.0);
        let (a, b) = (part.side_buckets(0), part.side_buckets(1));
        let mut sides = [a, b];
        sides.sort_by_key(|s| s[0]);
        assert_eq!(sides[0], vec![0, 1, 2]);
        assert_eq!(sides[1], vec![40, 41]);
    }

    #[test]
    fn fully_entangled_footprints_score_low() {
        let evs = vec![fp(0b1111, 0); 8];
        let p = ConflictProfile::from_traces(&[trace(evs)]);
        let part = p.suggest_bipartition();
        // Every pair co-accessed equally: any split cuts a lot.
        assert!(part.cut_affinity > 0);
        assert!(part.separability < 0.8, "{}", part.separability);
    }

    #[test]
    fn profile_json_is_deterministic_and_tagged() {
        let t1 = trace(vec![fp(0b11, 0)]);
        let t2 = trace(vec![fp(0b11, 0)]);
        let p1 = ConflictProfile::from_traces(&[t1.clone(), t2.clone()]);
        let p2 = ConflictProfile::from_traces(&[t2, t1]);
        assert_eq!(p1.to_json(), p2.to_json());
        assert!(p1
            .to_json()
            .starts_with("{\"schema\":\"votm-obs-profile-v1\""));
        assert!(p1.to_json().contains("\"schema_version\""));
    }

    #[test]
    fn per_view_folding_filters_other_views() {
        let mixed = trace(vec![
            fp(0b11, 0), // view 0
            EventKind::Footprint {
                view: 1,
                committed: true,
                reads: 0b1100,
                writes: 0,
            },
            EventKind::TxAbort {
                view: 1,
                reason: AbortReason::NorecValidation,
                cycles: 50,
            },
        ]);
        let all = ConflictProfile::from_traces(std::slice::from_ref(&mixed));
        assert_eq!(all.touches[0], 1);
        assert_eq!(all.touches[2], 1);
        assert_eq!(all.aborts_total, 1);
        let v0 = ConflictProfile::from_traces_for_view(std::slice::from_ref(&mixed), 0);
        assert_eq!(v0.touches[0], 1);
        assert_eq!(v0.touches[2], 0, "view 1 footprints filtered out");
        assert_eq!(v0.aborts_total, 0);
        let v1 = ConflictProfile::from_traces_for_view(&[mixed], 1);
        assert_eq!(v1.touches[2], 1);
        assert_eq!(v1.aborts_total, 1);
        assert_eq!(v1.abort_cycles_total, 50);
    }

    #[test]
    fn affinity_matrix_is_symmetric() {
        let p = ConflictProfile::from_traces(&[trace(vec![fp(0b101, 0b1000), fp(0b1100, 0)])]);
        for i in 0..PROFILE_BUCKETS {
            for j in 0..PROFILE_BUCKETS {
                assert_eq!(p.affinity(i, j), p.affinity(j, i));
            }
        }
        // fp1 touches {0,2,3}; fp2 touches {2,3}.
        assert_eq!(p.affinity(0, 2), 1);
        assert_eq!(p.affinity(2, 3), 2);
        assert_eq!(p.touches[2], 2);
    }
}
