//! `intruder-views`: STAMP Intruder, multi-view (the packet queue in one
//! view, the flow dictionary in another), N = 16, an adaptive quota per
//! view, under NOrec and OrecEagerRedo.

use std::sync::Arc;

use votm::{QuotaMode, TmAlgorithm};
use votm_intruder::{GenConfig, Input, Version};
use votm_sim::{RunStatus, SimConfig};

use super::sim_seeds;
use crate::run::{algo_key, Job, SimRun};
use crate::spans::Spans;

/// Algorithms the workload runs, in report order.
pub const ALGOS: [TmAlgorithm; 2] = [TmAlgorithm::NOrec, TmAlgorithm::OrecEagerRedo];

/// Flow scale: 1.0 is STAMP's 262144 flows.
pub const SCALE: f64 = 1.0 / 512.0;

/// Logical threads.
pub const THREADS: u32 = 16;

/// Simulator seeds per algorithm in one pass.
pub const SEEDS_PER_PASS: u64 = 2;

/// Generates the input from the workload seed.
pub fn generate(seed: u64) -> Input {
    votm_intruder::generate(&GenConfig {
        seed,
        ..GenConfig::paper(SCALE)
    })
}

/// Builds one pass: one generated input, then every algorithm under every
/// simulator seed. `votm_intruder::run_sim` builds the system, views and
/// prefilled queue inside the timed call.
pub fn prepare(seed: u64, _traced: bool, spans: &mut Spans) -> Vec<Job> {
    let input = Arc::new(spans.time("intruder.generate", |_| generate(seed)));
    let mut jobs: Vec<Job> = Vec::new();
    for algo in ALGOS {
        for sim_seed in sim_seeds(seed, SEEDS_PER_PASS) {
            let input = Arc::clone(&input);
            jobs.push(Box::new(move |spans: &mut Spans| {
                let res = spans.time("intruder.run_sim", |_| {
                    votm_intruder::run_sim(
                        &input,
                        THREADS,
                        algo,
                        Version::MultiView,
                        [QuotaMode::Adaptive, QuotaMode::Adaptive],
                        SimConfig {
                            seed: sim_seed,
                            ..SimConfig::default()
                        },
                    )
                });
                // Per packet one capture and one decode transaction, plus
                // one final capture per thread that finds the queue empty.
                let requested = 2 * input.packets.len() as u64 + u64::from(THREADS);
                let tag = format!("{} seed {sim_seed}", algo_key(algo));
                let check = if res.outcome.status != RunStatus::Completed {
                    Err(format!("{tag}: {:?}", res.outcome.status))
                } else if res.flows_processed != input.flows {
                    Err(format!(
                        "{tag}: {} flows processed, {} generated",
                        res.flows_processed, input.flows
                    ))
                } else if res.attacks_found != input.attacks_injected {
                    Err(format!(
                        "{tag}: {} attacks found, {} injected",
                        res.attacks_found, input.attacks_injected
                    ))
                } else if res.checksum_errors != 0 {
                    Err(format!("{tag}: {} checksum errors", res.checksum_errors))
                } else {
                    Ok(())
                };
                SimRun {
                    algo,
                    outcome: res.outcome,
                    views: res.views,
                    requested,
                    tasks: u64::from(THREADS),
                    check,
                    domain: None,
                    recorder: None,
                }
            }));
        }
    }
    jobs
}
