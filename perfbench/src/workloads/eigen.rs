//! `eigen-hot`: the paper's Table II Eigenbench, single-view, N = 16,
//! adaptive RAC, backoff contention management and the global clock, once
//! under each STM algorithm.

use std::sync::Arc;

use votm::{ClockKind, CmPolicy, FlightRecorder, QuotaMode, TmAlgorithm};
use votm_eigenbench::{EigenConfig, Version};
use votm_sim::{RunStatus, SimConfig};

use super::sim_seeds;
use crate::run::{algo_key, Job, SimRun};
use crate::spans::Spans;

/// Algorithms the workload runs, in report order.
pub const ALGOS: [TmAlgorithm; 3] = [
    TmAlgorithm::NOrec,
    TmAlgorithm::OrecEagerRedo,
    TmAlgorithm::OrecLazy,
];

/// Table II loop scale: 100 transactions per thread per view.
pub const SCALE: f64 = 0.001;

/// Simulator seeds per algorithm in one pass.
pub const SEEDS_PER_PASS: u64 = 3;

/// Events per recorder ring in traced runs: the busiest thread of a NOrec
/// run records about 10k.
const TRACE_RING_EVENTS: usize = 1 << 15;

fn config(sim_seed: u64) -> EigenConfig {
    let mut c = EigenConfig::paper_table2(SCALE);
    c.seed = sim_seed;
    c
}

/// Builds one pass: every algorithm under every simulator seed.
/// `run_sim_clock` builds its system and view inside the timed call, so
/// set-up is the configurations and, in traced passes, the recorders.
pub fn prepare(seed: u64, traced: bool, spans: &mut Spans) -> Vec<Job> {
    let mut jobs: Vec<Job> = Vec::new();
    for algo in ALGOS {
        for sim_seed in sim_seeds(seed, SEEDS_PER_PASS) {
            let c = config(sim_seed);
            let recorder = traced.then(|| {
                spans.time("recorder.create", |_| {
                    Arc::new(FlightRecorder::new(c.n_threads as usize, TRACE_RING_EVENTS))
                })
            });
            jobs.push(Box::new(move |spans: &mut Spans| {
                let res = spans.time("eigenbench.run_sim_clock", |_| {
                    votm_eigenbench::run_sim_clock(
                        &c,
                        algo,
                        Version::SingleView,
                        [QuotaMode::Adaptive, QuotaMode::Adaptive],
                        SimConfig {
                            seed: sim_seed,
                            ..SimConfig::default()
                        },
                        recorder.clone(),
                        CmPolicy::Backoff,
                        ClockKind::Global,
                    )
                });
                let requested = u64::from(c.n_threads) * (c.view1.loops + c.view2.loops);
                let commits: u64 = res.views.iter().map(|v| v.tm.commits).sum();
                let check = if res.outcome.status != RunStatus::Completed {
                    Err(format!(
                        "{} seed {sim_seed}: {:?}",
                        algo_key(algo),
                        res.outcome.status
                    ))
                } else if commits != requested {
                    Err(format!(
                        "{} seed {sim_seed}: {commits} commits, expected threads x (loops1 + loops2) = {requested}",
                        algo_key(algo)
                    ))
                } else {
                    Ok(())
                };
                SimRun {
                    algo,
                    outcome: res.outcome,
                    views: res.views,
                    requested,
                    tasks: u64::from(c.n_threads),
                    check,
                    domain: None,
                    recorder,
                }
            }));
        }
    }
    jobs
}

/// `BENCH_10.json`'s single-view, N = 16, backoff/global rows at
/// eigen-scale 0.001, seeds 1–3: `(algorithm, commits, vtime)` summed over
/// the three seeds.
const BENCH_10_ROWS: [(TmAlgorithm, u64, u64); 3] = [
    (TmAlgorithm::NOrec, 9600, 12_117_160),
    (TmAlgorithm::OrecEagerRedo, 9600, 28_023_118),
    (TmAlgorithm::OrecLazy, 9600, 12_982_614),
];

/// The determinism anchor: this workload at workload seed 1 runs simulator
/// seeds 1–3, the settings of `BENCH_10.json`, and must reproduce its
/// commits and makespans exactly.
pub fn anchor(spans: &mut Spans) -> Result<(), String> {
    let runs: Vec<SimRun> = prepare(1, false, spans)
        .into_iter()
        .map(|job| job(spans))
        .collect();
    for (algo, commits, vtime) in BENCH_10_ROWS {
        let mine = runs.iter().filter(|r| r.algo == algo);
        let got_commits: u64 = mine.clone().map(|r| r.commits()).sum();
        let got_vtime: u64 = mine.map(|r| r.outcome.vtime).sum();
        if (got_commits, got_vtime) != (commits, vtime) {
            return Err(format!(
                "{}: commits {got_commits} vtime {got_vtime}, BENCH_10 has commits {commits} vtime {vtime}",
                algo_key(algo)
            ));
        }
    }
    Ok(())
}
