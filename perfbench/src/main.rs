//! The repository benchmark. One command runs one workload for a fixed
//! wall-clock budget, checks its outputs, and prints its metrics by name
//! with their units; the last line of standard output is a JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload eigen-hot --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` additionally runs
//! the workload three times with spans and a flight recorder, the layer
//! probes and (on `eigen-hot`) the determinism anchor, and prints the
//! per-layer metrics. `perfbench/README.md` defines every metric.

mod ledger;
mod probes;
mod run;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use votm::{AbortReason, EventKind, TmAlgorithm};
use votm_obs::HistogramSnapshot;
use votm_stm::cost::CYCLES_PER_SECOND;

use ledger::{Ledger, CATEGORIES};
use run::{algo_figures, algo_key, beyond, min, ratio, Job, SimRun};
use spans::Spans;

/// The four workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    EigenHot,
    IntruderViews,
    HandoffBlock,
    DomainReadmostly,
}

impl Workload {
    fn from_name(name: &str) -> Option<Workload> {
        Some(match name {
            "eigen-hot" => Workload::EigenHot,
            "intruder-views" => Workload::IntruderViews,
            "handoff-block" => Workload::HandoffBlock,
            "domain-readmostly" => Workload::DomainReadmostly,
            _ => return None,
        })
    }

    fn prepare(self, seed: u64, traced: bool, spans: &mut Spans) -> Vec<Job> {
        match self {
            Workload::EigenHot => workloads::eigen::prepare(seed, traced, spans),
            Workload::IntruderViews => workloads::intruder::prepare(seed, traced, spans),
            Workload::HandoffBlock => workloads::handoff::prepare(seed, traced, spans),
            Workload::DomainReadmostly => workloads::domain::prepare(seed, traced, spans),
        }
    }
}

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        kv.insert(flag, value);
    }
    let get = |k: &str| kv.get(k).ok_or(format!("missing {k}"));
    let workload = get("--workload")?;
    let num = |k: &str| -> Result<u64, String> {
        get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"))
    };
    let args = Args {
        name: workload.clone(),
        workload: Workload::from_name(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: num("--seed")?,
        seconds: num("--seconds")? as f64,
        trace: match num("--trace")? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace {t}: expected 0 or 1")),
        },
    };
    if kv.len() != 4 {
        return Err("expected exactly --workload, --seed, --seconds and --trace".into());
    }
    Ok(args)
}

/// What the timed, untraced passes measured.
struct Timed {
    /// Wall seconds of each simulation call, one row per pass.
    call_s: Vec<Vec<f64>>,
    /// Set-up samples: mean wall seconds of a set-up.
    setup_s: Vec<f64>,
    /// The first pass's runs; every later pass must repeat their virtual
    /// results bit for bit.
    reference: Vec<SimRun>,
    /// Peak resident set after the first pass, MiB.
    peak_rss_mib: f64,
    attempted: u64,
    failed: u64,
}

/// One pass's simulation time with every call at its fastest: Σ over the
/// calls of that call's minimum over the passes in `call_s`. A shared
/// 2-vCPU Xeon VM alternates between a quiet and a contended regime every
/// few seconds (the same pass took 0.15 s and 0.30 s in one process), so a
/// median tracks the regime mix while the minimum tracks the program.
fn fastest(call_s: &[Vec<f64>]) -> f64 {
    (0..call_s[0].len())
        .map(|j| min(&call_s.iter().map(|pass| pass[j]).collect::<Vec<_>>()))
        .sum()
}

/// Passes always measured, however long they take.
const MIN_PASSES: usize = 3;
/// Wall seconds each set-up sample keeps setting up for.
const SETUP_SAMPLE_S: f64 = 0.01;
/// Wall seconds between the starts of two set-up samples.
const SETUP_EVERY_S: f64 = 0.1;

/// One set-up sample: sets up passes back to back for [`SETUP_SAMPLE_S`],
/// timing each set-up but not the tear-down that follows it, and returns
/// their mean. Samples are taken between simulation calls every
/// [`SETUP_EVERY_S`], so they span the whole measurement as the calls do,
/// and `setup_s` is the fastest, as `host_s` takes each call's fastest.
fn setup_sample(wl: Workload, seed: u64) -> f64 {
    let mut off = Spans::off();
    let sample = Instant::now();
    let (mut setups, mut secs) = (0u32, 0.0);
    while setups == 0 || sample.elapsed().as_secs_f64() < SETUP_SAMPLE_S {
        let t0 = Instant::now();
        let jobs = wl.prepare(seed, false, &mut off);
        secs += t0.elapsed().as_secs_f64();
        setups += 1;
        drop(jobs);
    }
    secs / f64::from(setups)
}

/// Runs whole passes, tracing off, until `seconds` have passed.
fn measure(wl: Workload, seed: u64, seconds: f64, errors: &mut Vec<String>) -> Timed {
    let mut off = Spans::off();
    let mut t = Timed {
        call_s: Vec::new(),
        setup_s: Vec::new(),
        reference: Vec::new(),
        peak_rss_mib: 0.0,
        attempted: 0,
        failed: 0,
    };
    let start = Instant::now();
    let mut next_sample = 0.0;
    while t.call_s.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        // No samples before the first pass ends: the peak resident set
        // measured after it then holds exactly one pass, whatever the
        // number of set-ups a sample fits in.
        let first = t.call_s.is_empty();
        let jobs = wl.prepare(seed, false, &mut off);
        let mut times = Vec::with_capacity(jobs.len());
        let runs: Vec<SimRun> = jobs
            .into_iter()
            .map(|job| {
                let now = start.elapsed().as_secs_f64();
                if !first && now >= next_sample {
                    t.setup_s.push(setup_sample(wl, seed));
                    next_sample = now + SETUP_EVERY_S;
                }
                let t0 = Instant::now();
                let r = job(&mut off);
                times.push(t0.elapsed().as_secs_f64());
                r
            })
            .collect();
        t.call_s.push(times);
        for r in &runs {
            t.attempted += r.requested;
            t.failed += r.failed();
            if let Err(e) = &r.check {
                if !errors.contains(e) {
                    errors.push(e.clone());
                }
            }
        }
        if t.reference.is_empty() {
            // Later passes repeat the same allocations; their peak differs
            // only by how the allocator reuses the freed first pass.
            t.peak_rss_mib = peak_rss_mib();
            t.reference = runs;
        } else if !same_virtual(&t.reference, &runs) {
            errors.push(format!(
                "pass {}: virtual results differ from pass 1 at the same seed",
                t.call_s.len()
            ));
        }
    }
    t
}

fn same_virtual(a: &[SimRun], b: &[SimRun]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.fingerprint() == y.fingerprint())
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Metric name → (value, unit), in name order.
type Metrics = BTreeMap<String, (f64, &'static str)>;

fn put(m: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str) {
    let value = if value.is_finite() { value } else { 0.0 };
    m.insert(name.into(), (value, unit));
}

/// The end-to-end metrics of the timed passes.
fn end_to_end(t: &Timed, errors: &mut Vec<String>) -> Metrics {
    let mut m = Metrics::new();
    let norec = algo_figures(&t.reference, TmAlgorithm::NOrec).expect("every workload runs NOrec");
    // A p99 is reported only with at least ten samples beyond it; the
    // workloads are sized so that it always has.
    if beyond(norec.samples, 0.99) < 10 {
        errors.push(format!(
            "only {} commit samples: fewer than 10 lie beyond p99",
            norec.samples
        ));
    }
    put(&mut m, "txns_per_vsec.norec", norec.txns_per_vsec, "txn/vs");
    put(&mut m, "commit_p50_vcycles.norec", norec.p50, "vcycles");
    put(&mut m, "commit_p99_vcycles.norec", norec.p99, "vcycles");
    put(&mut m, "setup_s", min(&t.setup_s), "s");
    put(&mut m, "host_peak_rss_mib", t.peak_rss_mib, "MiB");
    m
}

/// Traced passes run. The ledger and spans come from the first; the
/// traced host time is the per-call fastest over all of them, the same
/// statistic as `host_s`.
const TRACED_PASSES: usize = 3;

/// Everything the traced passes observed.
struct Traced {
    /// The first traced pass's runs.
    runs: Vec<SimRun>,
    ledger: Ledger,
    /// [`fastest`] over the traced passes.
    host_s: f64,
    /// Every traced pass repeated the first one's virtual results.
    repeats_agree: bool,
    quota_changes: u64,
    cm_kills: u64,
    export_s: f64,
    spans: Spans,
}

/// Runs the pass [`TRACED_PASSES`] times with spans and (where the
/// workload function takes one) a flight recorder, and folds the first
/// pass's events into the cycle ledger. Recorders are built in set-up and
/// read after the timed call, so the traced time holds only recording.
fn traced_pass(wl: Workload, seed: u64) -> Traced {
    let mut spans = Spans::on();
    let mut ledger = Ledger::default();
    let (mut quota_changes, mut cm_kills, mut export_s) = (0, 0, 0.0);
    let mut call_s = Vec::new();
    let mut runs: Vec<SimRun> = Vec::new();
    let mut repeats_agree = true;
    for pass in 0..TRACED_PASSES {
        let jobs = spans.time("setup", |s| wl.prepare(seed, true, s));
        let mut times = Vec::with_capacity(jobs.len());
        let mut pass_runs = Vec::with_capacity(jobs.len());
        spans.enter("run");
        for job in jobs {
            let t0 = Instant::now();
            let mut r = spans.time("job", job);
            times.push(t0.elapsed().as_secs_f64());
            let recorder = r.recorder.take();
            if pass == 0 {
                spans.enter("ledger.build");
                match recorder {
                    Some(rec) => {
                        let traces = spans.time("recorder.snapshot", |_| rec.snapshot());
                        ledger.add_traces(&traces, r.outcome.vtime, &r.views);
                        for ev in traces.iter().flat_map(|t| &t.events) {
                            match ev.kind {
                                EventKind::QuotaChange { .. } => quota_changes += 1,
                                EventKind::CmKill { .. } => cm_kills += 1,
                                _ => {}
                            }
                        }
                        if pass_runs.is_empty() {
                            let t0 = Instant::now();
                            let json = spans.time("export.chrome_trace", |_| {
                                votm_obs::export::chrome_trace(
                                    &traces,
                                    CYCLES_PER_SECOND / 1_000_000,
                                )
                            });
                            export_s = t0.elapsed().as_secs_f64();
                            std::hint::black_box(json);
                        }
                    }
                    None => ledger.add_counters(&r.views, r.tasks, r.outcome.vtime),
                }
                spans.exit();
            }
            pass_runs.push(r);
        }
        spans.exit();
        call_s.push(times);
        if pass == 0 {
            runs = pass_runs;
        } else if !same_virtual(&runs, &pass_runs) {
            repeats_agree = false;
        }
    }
    Traced {
        runs,
        ledger,
        host_s: fastest(&call_s),
        repeats_agree,
        quota_changes,
        cm_kills,
        export_s,
        spans,
    }
}

/// The per-layer metrics of the traced pass, the timed passes and the
/// probes.
fn per_layer(wl: Workload, timed: &Timed, tr: &Traced, probes: &[(String, f64)]) -> Metrics {
    let mut m = Metrics::new();
    let runs = &tr.runs;
    let views: Vec<_> = runs.iter().flat_map(|r| &r.views).collect();
    let sum = |f: &dyn Fn(&votm::ViewStats) -> u64| views.iter().map(|v| f(v)).sum::<u64>() as f64;
    let commits = sum(&|v| v.tm.commits);
    let aborts = sum(&|v| v.tm.aborts);
    let wasted = sum(&|v| v.tm.cycles_aborted);
    let useful = sum(&|v| v.tm.cycles_successful);
    let steps: u64 = runs.iter().map(|r| r.outcome.steps).sum();
    let timed_steps: u64 = timed.reference.iter().map(|r| r.outcome.steps).sum();
    let host_s = fastest(&timed.call_s);
    put(&mut m, "host_s", host_s, "s");

    // sim
    put(&mut m, "sim.steps", steps as f64, "count");
    let coalesced: u64 = runs.iter().map(|r| r.outcome.sched.coalesced).sum();
    put(&mut m, "sim.coalesced_polls", coalesced as f64, "count");
    put(
        &mut m,
        "sim.host_ns_per_step",
        ratio(host_s * 1e9, timed_steps as f64),
        "ns",
    );

    // stm
    put(
        &mut m,
        "stm.abort_rate",
        ratio(aborts, commits + aborts),
        "fraction",
    );
    put(
        &mut m,
        "stm.waste_frac",
        ratio(wasted, wasted + useful),
        "fraction",
    );
    for reason in AbortReason::ALL {
        let w = sum(&|v| v.tm.cycles_aborted_by_reason[reason.index()]);
        put(
            &mut m,
            format!("stm.wasted_share.{}", reason.name()),
            ratio(w, wasted),
            "fraction",
        );
    }
    put(
        &mut m,
        "stm.busy_retries_per_commit",
        ratio(sum(&|v| v.tm.busy_retries), commits),
        "ratio",
    );
    put(
        &mut m,
        "stm.clock_bumps_per_commit",
        ratio(sum(&|v| v.clock.bumps), commits),
        "ratio",
    );
    put(
        &mut m,
        "stm.clock_bump_skips",
        sum(&|v| v.clock.bump_skips),
        "count",
    );
    for algo in TmAlgorithm::ALL {
        let key = algo_key(algo);
        let f = algo_figures(runs, algo).unwrap_or_default();
        if algo != TmAlgorithm::NOrec {
            put(
                &mut m,
                format!("txns_per_vsec.{key}"),
                f.txns_per_vsec,
                "txn/vs",
            );
            put(
                &mut m,
                format!("commit_p50_vcycles.{key}"),
                f.p50,
                "vcycles",
            );
            put(
                &mut m,
                format!("commit_p99_vcycles.{key}"),
                f.p99,
                "vcycles",
            );
        }
        put(
            &mut m,
            format!("commit_samples.{key}"),
            f.samples as f64,
            "count",
        );
    }

    // rac
    let led = &tr.ledger;
    put(
        &mut m,
        "rac.gate_wait_share",
        led.share(ledger::GATE),
        "fraction",
    );
    let fast = sum(&|v| v.gate.fast_acquires);
    let slow = sum(&|v| v.gate.slow_acquires);
    put(
        &mut m,
        "rac.slow_acquire_frac",
        ratio(slow, fast + slow),
        "fraction",
    );
    put(
        &mut m,
        "rac.quota_changes",
        tr.quota_changes as f64,
        "count",
    );
    for slot in 0..2 {
        let q: f64 = runs
            .iter()
            .map(|r| r.views.get(slot).map_or(0.0, |v| f64::from(v.quota)))
            .sum();
        put(
            &mut m,
            format!("rac.final_quota.v{slot}"),
            q / runs.len() as f64,
            "threads",
        );
    }
    put(
        &mut m,
        "rac.cm_backoff_share",
        led.share(ledger::BACKOFF),
        "fraction",
    );
    put(&mut m, "rac.cm_kills", tr.cm_kills as f64, "count");

    // core
    put(
        &mut m,
        "core.parked_waits_per_commit",
        ratio(sum(&|v| v.tm.parked_waits), commits),
        "ratio",
    );
    put(
        &mut m,
        "core.lost_wakeups",
        sum(&|v| v.tm.lost_wakeups),
        "count",
    );
    put(
        &mut m,
        "core.park_share",
        led.share(ledger::PARK),
        "fraction",
    );
    let mut parked = HistogramSnapshot::default();
    for v in &views {
        parked.merge(&v.hists.parked_wait);
    }
    put(
        &mut m,
        "core.wake_p99_vcycles",
        parked.quantile(0.99) as f64,
        "vcycles",
    );
    put(
        &mut m,
        "core.escalations",
        sum(&|v| v.tm.escalations),
        "count",
    );
    let repartitions: u64 = runs
        .iter()
        .filter_map(|r| r.domain)
        .map(|d| d.repartitions)
        .sum();
    put(&mut m, "core.repartitions", repartitions as f64, "count");
    put(
        &mut m,
        "core.drain_share",
        led.share(ledger::DRAIN),
        "fraction",
    );
    let live: usize = runs
        .iter()
        .map(|r| r.domain.map_or(r.views.len(), |d| d.live_views))
        .sum();
    put(
        &mut m,
        "core.live_views",
        live as f64 / runs.len() as f64,
        "views",
    );

    // obs
    put(&mut m, "obs.events", led.events as f64, "count");
    put(&mut m, "obs.events_dropped", led.dropped as f64, "count");
    put(
        &mut m,
        "obs.trace_overhead",
        tr.host_s / host_s - 1.0,
        "ratio",
    );
    put(&mut m, "obs.export_s", tr.export_s, "s");

    // workloads and the ledger
    // Intruder's set-up is its input generation.
    let generate_s = if wl == Workload::IntruderViews {
        min(&timed.setup_s)
    } else {
        0.0
    };
    put(&mut m, "intruder.generate_s", generate_s, "s");
    put(
        &mut m,
        "ledger.committed_share",
        led.share(ledger::COMMITTED),
        "fraction",
    );
    put(
        &mut m,
        "ledger.aborted_share",
        led.share(ledger::ABORTED),
        "fraction",
    );
    put(
        &mut m,
        "ledger.nontx_share",
        led.share(ledger::NONTX),
        "fraction",
    );
    put(
        &mut m,
        "ledger.idle_share",
        led.share(ledger::IDLE),
        "fraction",
    );
    put(
        &mut m,
        "ledger.exact",
        f64::from(u8::from(!led.inexact)),
        "bool",
    );
    put(
        &mut m,
        "ledger.resolved",
        f64::from(u8::from(led.resolved())),
        "bool",
    );
    put(
        &mut m,
        "failed_frac",
        ratio(timed.failed as f64, timed.attempted as f64),
        "fraction",
    );

    for (name, ns) in probes {
        put(&mut m, name.clone(), *ns, "ns");
    }
    m
}

fn print_ledger(led: &Ledger) {
    println!("cycle ledger (source: {}):", led.source);
    if led.resolved() {
        for (i, name) in CATEGORIES.iter().enumerate() {
            println!(
                "  {name:<11} {:>16} vcycles  {:>8.4}",
                led.cycles[i],
                led.share(i)
            );
        }
    } else {
        println!(
            "  UNRESOLVED: the recorder dropped {} of {} events",
            led.dropped, led.events
        );
    }
    println!(
        "  exact-sum check: sum {} vs threads x makespan {}: {}",
        led.cycles.iter().sum::<u64>(),
        led.capacity,
        if led.inexact { "FAIL" } else { "pass" }
    );
}

fn json_line(correct: bool, attempted: u64, failed: u64, m: &Metrics) -> String {
    let metrics: Vec<String> = m
        .iter()
        .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <eigen-hot|intruder-views|handoff-block|domain-readmostly> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let wl = args.workload;
    let mut errors = Vec::new();
    let timed = measure(wl, args.seed, args.seconds, &mut errors);
    let e2e = end_to_end(&timed, &mut errors);
    println!(
        "workload {} seed {}: {} timed passes",
        args.name,
        args.seed,
        timed.call_s.len()
    );
    let reported = if args.trace {
        let tr = traced_pass(wl, args.seed);
        if !same_virtual(&timed.reference, &tr.runs) {
            errors.push("the traced pass's virtual results differ from the untraced pass".into());
        }
        if !tr.repeats_agree {
            errors.push("repeated traced passes give different virtual results".into());
        }
        for r in &tr.runs {
            if let Err(e) = &r.check {
                errors.push(format!("traced pass: {e}"));
            }
        }
        print_ledger(&tr.ledger);
        if tr.ledger.resolved() && tr.ledger.inexact {
            errors.push("cycle ledger does not sum exactly to threads x makespan".into());
        }
        if tr.ledger.counters_disagree {
            errors.push(
                "recorder commit, abort or gate-wait cycles disagree with the view counters".into(),
            );
        }
        if wl == Workload::EigenHot {
            match workloads::eigen::anchor(&mut Spans::off()) {
                Ok(()) => println!("determinism anchor (BENCH_10, seeds 1-3): pass"),
                Err(e) => errors.push(format!("determinism anchor: {e}")),
            }
        }
        println!("host-time spans (count, total s, self s):");
        for (name, (n, total, own)) in tr.spans.totals() {
            println!("  {name:<24} {n:>5} {total:>10.6} {own:>10.6}");
        }
        let dir = std::path::Path::new("perfbench/out");
        let file = dir.join(format!("spans-{}-seed{}.json", args.name, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, tr.spans.to_json()))
        {
            errors.push(format!("writing {}: {e}", file.display()));
        }
        let probes = probes::run_all();
        per_layer(wl, &timed, &tr, &probes)
    } else {
        e2e.clone()
    };
    if args.trace {
        println!("end-to-end:");
        for (k, (v, u)) in &e2e {
            println!("  {k:<36} {v} {u}");
        }
    }
    println!(
        "{}:",
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        }
    );
    for (k, (v, u)) in &reported {
        println!("  {k:<36} {v} {u}");
    }
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    let correct = errors.is_empty();
    println!(
        "{}",
        json_line(correct, timed.attempted, timed.failed, &reported)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
