//! `domain-readmostly`: an `AdaptiveDomain` over a 4096-word shared heap in
//! the shape of the `partition-readmostly` scenario — two thread groups
//! under NOrec, 90% read-only transactions of 3 keys each, the live
//! repartitioner on.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use votm::{Addr, FlightRecorder, QuotaMode, RepartitionPolicy, TmAlgorithm, Votm};
use votm_sim::{RunStatus, SimConfig, SimExecutor};
use votm_utils::SplitMix64;

use super::sim_seeds;
use crate::run::{Job, SimRun};
use crate::spans::Spans;

const THREADS: u32 = 16;
const OPS_PER_THREAD: u64 = 600;
const DOMAIN_WORDS: usize = 4096;
/// First word of group B's hot range; group A's starts at word 0.
const GROUP_B_BASE: u64 = 2048;
const GROUP_SPAN: u64 = 96;
const READ_PCT: u64 = 90;
const KEYS_PER_TX: usize = 3;
/// Events per recorder ring: a worker records about 2k. The recorder is on
/// the production path (the controller profiles it), so timed and traced
/// runs use the same size.
const RING_EVENTS: usize = 1 << 13;

/// Simulator seeds in one pass.
pub const SEEDS_PER_PASS: u64 = 12;

/// A fast controller with the default hysteresis shape: the runs are short.
fn policy() -> RepartitionPolicy {
    RepartitionPolicy {
        interval: 1 << 13,
        cooldown: 1 << 15,
        min_separability: 0.6,
        min_waste_share: 0.01,
        min_aborts: 8,
        merge_cross_threshold: 8,
        max_views: 4,
    }
}

/// One transaction of the access plan: its keys, and whether it only reads.
type Op = ([u32; KEYS_PER_TX], bool);

/// Every thread's access plan, drawn before the run so aborts and
/// re-executions consume no randomness.
fn plans(sim_seed: u64) -> Vec<Vec<Op>> {
    let mut seeds = SplitMix64::new(sim_seed);
    (0..THREADS as u64)
        .map(|t| {
            let mut rng = seeds.derive();
            let base = if t % 2 == 0 { 0 } else { GROUP_B_BASE };
            (0..OPS_PER_THREAD)
                .map(|_| {
                    let keys = std::array::from_fn(|_| (base + rng.next_below(GROUP_SPAN)) as u32);
                    (keys, rng.chance_percent(READ_PCT))
                })
                .collect()
        })
        .collect()
}

/// Builds one pass: per simulator seed, the access plans, a system with
/// its recorder, and the domain.
pub fn prepare(seed: u64, traced: bool, spans: &mut Spans) -> Vec<Job> {
    let mut jobs: Vec<Job> = Vec::new();
    for sim_seed in sim_seeds(seed, SEEDS_PER_PASS) {
        let plans = spans.time("input.generate", |_| plans(sim_seed));
        // Every read-write transaction adds 1 to each of its keys.
        let expect: u64 = plans
            .iter()
            .flatten()
            .filter(|(_, read_only)| !read_only)
            .count() as u64
            * KEYS_PER_TX as u64;
        let recorder = Arc::new(FlightRecorder::new(THREADS as usize + 1, RING_EVENTS));
        let sys = spans.time("system.build", |_| {
            Votm::builder()
                .algo(TmAlgorithm::NOrec)
                .threads(THREADS)
                .recorder(Arc::clone(&recorder))
                .build()
        });
        let domain = spans.time("domain.create", |_| {
            sys.create_domain(DOMAIN_WORDS, QuotaMode::Fixed(THREADS), policy())
        });
        jobs.push(Box::new(move |spans: &mut Spans| {
            let outcome = spans.time("executor.run", |_| {
                let remaining = Arc::new(AtomicUsize::new(THREADS as usize));
                let mut ex = SimExecutor::new(SimConfig {
                    seed: sim_seed,
                    ..SimConfig::default()
                });
                for plan in plans {
                    let domain = Arc::clone(&domain);
                    let remaining = Arc::clone(&remaining);
                    ex.spawn(move |rt| async move {
                        for (keys, read_only) in plan {
                            domain
                                .transact(&rt, Addr(keys[0]), async |tx| {
                                    for &k in &keys {
                                        let v = tx.read(Addr(k)).await?;
                                        if !read_only {
                                            tx.write(Addr(k), v + 1).await?;
                                        }
                                    }
                                    Ok(())
                                })
                                .await;
                        }
                        remaining.fetch_sub(1, Ordering::AcqRel);
                    });
                }
                let domain = Arc::clone(&domain);
                ex.spawn(move |rt| async move {
                    domain.run_controller(&rt, &remaining).await;
                });
                ex.run()
            });
            let (views, stats) = spans.time("stats.read", |_| {
                let views: Vec<_> = domain.views().iter().map(|v| v.stats()).collect();
                (views, domain.stats())
            });
            let sum: u64 = (0..DOMAIN_WORDS as u32)
                .map(|a| domain.heap().load(Addr(a)))
                .sum();
            let requested = u64::from(THREADS) * OPS_PER_THREAD;
            // A stale-route re-dispatch and a straddle each leave through
            // one empty commit before the transaction runs again.
            let all: u64 = views.iter().map(|v| v.tm.commits).sum();
            let exits = stats.reroutes + stats.straddles;
            let check = if outcome.status != RunStatus::Completed {
                Err(format!("seed {sim_seed}: {:?}", outcome.status))
            } else if all.checked_sub(exits) != Some(requested) {
                Err(format!(
                    "seed {sim_seed}: {all} commits less {exits} route exits, expected {requested} transactions"
                ))
            } else if sum != expect {
                Err(format!(
                    "seed {sim_seed}: heap sum {sum}, committed increments of the plan {expect}"
                ))
            } else {
                Ok(())
            };
            SimRun {
                algo: TmAlgorithm::NOrec,
                outcome,
                views,
                requested,
                tasks: u64::from(THREADS) + 1,
                check,
                domain: Some(stats),
                recorder: traced.then_some(recorder),
            }
        }));
    }
    jobs
}
