//! `handoff-block`: a bounded-buffer producer/consumer under NOrec in the
//! shape of the `bounded16-block` scenario — 8 producers and 8 consumers,
//! capacity 16, 60k-cycle producer think time, consumers blocking with
//! `retry()`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use votm::{FlightRecorder, QuotaMode, TmAlgorithm, Votm};
use votm_ds::BoundedBuffer;
use votm_sim::{RunStatus, SimConfig, SimExecutor};

use super::sim_seeds;
use crate::run::{Job, SimRun};
use crate::spans::Spans;

const PRODUCERS: u64 = 8;
const CONSUMERS: u64 = 8;
const CAPACITY: u32 = 16;
const ITEMS_PER_PRODUCER: u64 = 40;
const THINK_CYCLES: u64 = 60_000;
/// The starvation watchdog stays on, as in the scenario: parking must
/// never trip it.
const ESCALATE_AFTER: Option<u32> = Some(64);

/// Events per recorder ring in traced runs: a thread records about 1.5k.
const TRACE_RING_EVENTS: usize = 1 << 13;

/// Simulator seeds in one pass.
pub const SEEDS_PER_PASS: u64 = 8;

/// Builds one pass: a fresh system, view and buffer per simulator seed.
pub fn prepare(seed: u64, traced: bool, spans: &mut Spans) -> Vec<Job> {
    let threads = (PRODUCERS + CONSUMERS) as u32;
    let mut jobs: Vec<Job> = Vec::new();
    for sim_seed in sim_seeds(seed, SEEDS_PER_PASS) {
        let recorder = traced.then(|| {
            spans.time("recorder.create", |_| {
                Arc::new(FlightRecorder::new(threads as usize, TRACE_RING_EVENTS))
            })
        });
        let sys = spans.time("system.build", |_| {
            let mut b = Votm::builder()
                .algo(TmAlgorithm::NOrec)
                .threads(threads)
                .escalate_after(ESCALATE_AFTER);
            if let Some(r) = &recorder {
                b = b.recorder(Arc::clone(r));
            }
            b.build()
        });
        let view = spans.time("view.create", |_| {
            sys.create_view((2 + CAPACITY + 64) as usize, QuotaMode::Fixed(threads))
        });
        let buf = spans.time("ds.create", |_| BoundedBuffer::create(&view, CAPACITY));
        jobs.push(Box::new(move |spans: &mut Spans| {
            let consumed = Arc::new(AtomicU64::new(0));
            let outcome = spans.time("executor.run", |_| {
                let mut ex = SimExecutor::new(SimConfig {
                    seed: sim_seed,
                    ..SimConfig::default()
                });
                for p in 0..PRODUCERS {
                    let view = Arc::clone(&view);
                    ex.spawn(move |rt| async move {
                        for i in 0..ITEMS_PER_PRODUCER {
                            rt.charge(THINK_CYCLES).await;
                            let value = p * ITEMS_PER_PRODUCER + i;
                            view.transact(&rt, async |tx| buf.push(tx, value).await)
                                .await;
                        }
                    });
                }
                let per_consumer = PRODUCERS * ITEMS_PER_PRODUCER / CONSUMERS;
                for _ in 0..CONSUMERS {
                    let view = Arc::clone(&view);
                    let consumed = Arc::clone(&consumed);
                    ex.spawn(move |rt| async move {
                        for _ in 0..per_consumer {
                            let v = view.transact(&rt, async |tx| buf.pop(tx).await).await;
                            consumed.fetch_add(v, Ordering::Relaxed);
                        }
                    });
                }
                ex.run()
            });
            let views = vec![spans.time("stats.read", |_| view.stats())];
            let items = PRODUCERS * ITEMS_PER_PRODUCER;
            let expect: u64 = (0..items).sum();
            let got = consumed.load(Ordering::Relaxed);
            let lost = views[0].tm.lost_wakeups;
            let check = if outcome.status != RunStatus::Completed {
                Err(format!("seed {sim_seed}: {:?}", outcome.status))
            } else if got != expect {
                Err(format!(
                    "seed {sim_seed}: consumed sum {got}, produced sum {expect}"
                ))
            } else if lost != 0 {
                Err(format!("seed {sim_seed}: {lost} lost wakeups"))
            } else {
                Ok(())
            };
            SimRun {
                algo: TmAlgorithm::NOrec,
                outcome,
                views,
                // One push and one pop per item.
                requested: 2 * items,
                tasks: u64::from(threads),
                check,
                domain: None,
                recorder,
            }
        }));
    }
    jobs
}
