//! `benchdiff`'s blocking and convergence gates, driven through the binary
//! on a minimal synthetic schema-1.3 artifact: the clean document passes,
//! and each doctored copy fails with exit status 1 naming the check.

use std::path::PathBuf;
use std::process::Command;

/// One gate row with every field the sanity pass reads.
fn row(version: &str, extra: &str) -> String {
    format!(
        "{{\"algo\": \"NOrec\", \"policy\": \"backoff\", \"clock\": \"global\", \
         \"version\": \"{version}\", \"n_threads\": 16, \"status\": \"completed\", \
         \"txns_per_vsec\": 1000.0, \"waste_frac\": 0.0, \"wasted_cycles\": 0, \
         \"wasted_by_reason\": {{}}{extra}}}"
    )
}

/// Fields of a clean artifact, per row version; a test overrides one.
const SPIN: &str = ", \"busy_retries_per_commit\": 400.0";
const BLOCK: &str = ", \"busy_retries_per_commit\": 0.0, \"parked_waits\": 10, \
                     \"lost_wakeups\": 0, \"escalations\": 0";
const HAND: &str = ", \"n_views\": 2";
const ADAPTIVE: &str = ", \"n_views\": 2, \"repartitions\": 1, \"split_drain_cycles\": 100, \
                        \"converged_throughput_ratio\": 0.95";

fn doc(rows: &[String]) -> String {
    format!(
        "{{\"schema_version\": \"1.3.0\", \"rows\": [{}]}}",
        rows.join(", ")
    )
}

fn clean_rows() -> Vec<String> {
    vec![
        row("bounded16-spin", SPIN),
        row("bounded16-block", BLOCK),
        row("partition-x-hand", HAND),
        row("partition-x-adaptive", ADAPTIVE),
    ]
}

fn write(name: &str, text: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write artifact");
    path
}

/// Runs `benchdiff clean CURRENT --allow-virtual-drift` (so only the
/// current-artifact checks can fail) and returns (exit code, stdout).
fn diff_against_clean(name: &str, current: &str) -> (i32, String) {
    let base = write(&format!("{name}.base.json"), &doc(&clean_rows()));
    let cur = write(&format!("{name}.cur.json"), current);
    let out = Command::new(env!("CARGO_BIN_EXE_benchdiff"))
        .arg(&base)
        .arg(&cur)
        .arg("--allow-virtual-drift")
        .output()
        .expect("run benchdiff");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn doctored(index: usize, version: &str, extra: &str) -> String {
    let mut rows = clean_rows();
    rows[index] = row(version, extra);
    doc(&rows)
}

#[test]
fn clean_artifact_passes() {
    let (code, out) = diff_against_clean("clean", &doc(&clean_rows()));
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("verdict: OK"), "{out}");
}

#[test]
fn blocking_gate_rejects_each_violation() {
    for (name, extra, needle) in [
        (
            "lost",
            BLOCK.replace("\"lost_wakeups\": 0", "\"lost_wakeups\": 1"),
            "lost_wakeups",
        ),
        (
            "unparked",
            BLOCK.replace("\"parked_waits\": 10", "\"parked_waits\": 0"),
            "never parked",
        ),
        (
            "escalated",
            BLOCK.replace("\"escalations\": 0", "\"escalations\": 1"),
            "escalated",
        ),
        (
            "busy",
            BLOCK.replace(
                "\"busy_retries_per_commit\": 0.0",
                "\"busy_retries_per_commit\": 50.0",
            ),
            "drop",
        ),
    ] {
        let (code, out) = diff_against_clean(name, &doctored(1, "bounded16-block", &extra));
        assert_eq!(code, 1, "{name}: {out}");
        assert!(out.contains(needle), "{name}: {out}");
    }
    let mut rows = clean_rows();
    rows.remove(0);
    let (code, out) = diff_against_clean("nospin", &doc(&rows));
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("blocking scenario rows"), "{out}");
}

#[test]
fn convergence_gate_rejects_each_violation() {
    for (name, extra, needle) in [
        (
            "undrained",
            ADAPTIVE.replace("\"split_drain_cycles\": 100", "\"split_drain_cycles\": 0"),
            "no time draining",
        ),
        (
            "oneview",
            ADAPTIVE.replace("\"n_views\": 2", "\"n_views\": 1"),
            "ended with 1 view",
        ),
        (
            "static",
            ADAPTIVE.replace("\"repartitions\": 1", "\"repartitions\": 0"),
            "never repartitioned",
        ),
        (
            "slow",
            ADAPTIVE.replace(
                "\"converged_throughput_ratio\": 0.95",
                "\"converged_throughput_ratio\": 0.5",
            ),
            "converged to",
        ),
    ] {
        let (code, out) = diff_against_clean(name, &doctored(3, "partition-x-adaptive", &extra));
        assert_eq!(code, 1, "{name}: {out}");
        assert!(out.contains(needle), "{name}: {out}");
    }
    let mut rows = clean_rows();
    rows.push(row("partition-y-adaptive", ADAPTIVE));
    let (code, out) = diff_against_clean("unpaired", &doc(&rows));
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("unpaired"), "{out}");
}
