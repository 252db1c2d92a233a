//! What one simulation call leaves behind, and the metrics folded from a
//! set of them.

use std::sync::Arc;

use votm::{DomainStats, FlightRecorder, TmAlgorithm, ViewStats};
use votm_obs::HistogramSnapshot;
use votm_sim::{RunOutcome, RunStatus};
use votm_stm::cost::CYCLES_PER_SECOND;

use crate::spans::Spans;

/// One simulation call, reduced to what the metrics and checks need.
pub struct SimRun {
    /// STM algorithm the run's views use.
    pub algo: TmAlgorithm,
    /// Simulator outcome: status, makespan, steps.
    pub outcome: RunOutcome,
    /// Per-view statistics at the end of the run.
    pub views: Vec<ViewStats>,
    /// Transactions the run was asked to commit.
    pub requested: u64,
    /// Logical threads the executor ran (workers plus helper tasks).
    pub tasks: u64,
    /// The output check: `Err` names what was wrong.
    pub check: Result<(), String>,
    /// Domain counters, for domain workloads.
    pub domain: Option<DomainStats>,
    /// The run's flight recorder, for traced runs. The traced pass takes
    /// its snapshot after the timed call.
    pub recorder: Option<Arc<FlightRecorder>>,
}

impl SimRun {
    /// Committed transactions over every view, less the empty commits
    /// through which a domain transaction leaves a stale route or a
    /// cross-view straddle before it runs again: each of those is one
    /// extra commit of a transaction that commits once more afterwards.
    pub fn commits(&self) -> u64 {
        let all: u64 = self.views.iter().map(|v| v.tm.commits).sum();
        let exits = self.domain.map_or(0, |d| d.reroutes + d.straddles);
        all.saturating_sub(exits)
    }

    /// The run's virtual results, which must repeat bit for bit.
    pub fn fingerprint(&self) -> [u64; 4] {
        let aborts = self.views.iter().map(|v| v.tm.aborts).sum();
        [
            self.outcome.vtime,
            self.outcome.steps,
            self.commits(),
            aborts,
        ]
    }

    /// Requested transactions this run failed: the ones that did not
    /// commit, or all of them when the output check failed.
    pub fn failed(&self) -> u64 {
        if self.check.is_err() || self.outcome.status != RunStatus::Completed {
            self.requested
        } else {
            self.requested.saturating_sub(self.commits())
        }
    }
}

/// A prepared simulation call: everything built, ready to run.
pub type Job = Box<dyn FnOnce(&mut Spans) -> SimRun>;

/// Short metric-name form of an algorithm.
pub fn algo_key(algo: TmAlgorithm) -> &'static str {
    match algo {
        TmAlgorithm::NOrec => "norec",
        TmAlgorithm::OrecEagerRedo => "orec_eager_redo",
        TmAlgorithm::OrecLazy => "orec_lazy",
    }
}

/// Virtual end-to-end figures of one algorithm over a set of runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlgoFigures {
    /// Committed transactions per virtual second (Σ commits / Σ makespan).
    pub txns_per_vsec: f64,
    /// Median commit latency, virtual cycles: the upper bound of the
    /// histogram bucket that holds it.
    pub p50: f64,
    /// 99th-percentile commit latency, virtual cycles, likewise.
    pub p99: f64,
    /// Commit-latency samples.
    pub samples: u64,
}

/// Folds the runs of `algo` into its virtual figures; `None` when the set
/// holds no run of it.
pub fn algo_figures(runs: &[SimRun], algo: TmAlgorithm) -> Option<AlgoFigures> {
    let mine: Vec<&SimRun> = runs.iter().filter(|r| r.algo == algo).collect();
    if mine.is_empty() {
        return None;
    }
    let commits: u64 = mine.iter().map(|r| r.commits()).sum();
    let vtime: u64 = mine.iter().map(|r| r.outcome.vtime).sum();
    let mut hist = HistogramSnapshot::default();
    for v in mine.iter().flat_map(|r| &r.views) {
        hist.merge(&v.hists.commit);
    }
    Some(AlgoFigures {
        txns_per_vsec: commits as f64 * CYCLES_PER_SECOND as f64 / vtime.max(1) as f64,
        p50: hist.quantile(0.50) as f64,
        p99: hist.quantile(0.99) as f64,
        samples: hist.count(),
    })
}

/// Samples that lie beyond the `q`-quantile of `samples` samples.
pub fn beyond(samples: u64, q: f64) -> u64 {
    samples - ((q * samples as f64).ceil() as u64).min(samples)
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest of `xs` (0 for none).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
