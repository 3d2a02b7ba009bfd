//! The telemetry registry's merge order is structural (sorted names,
//! integer accumulation), so the deterministic slice of a snapshot —
//! counters, histogram counts/buckets/sums, span activation counts —
//! must be identical whether the instrumented work ran on a one-thread
//! pool or a four-thread pool.
//!
//! The worker pool shim sizes itself from `RAYON_NUM_THREADS` exactly
//! once per process, so the test re-executes its own binary twice as a
//! worker (pool of 1, then pool of 4), has each worker print the
//! deterministic view of its snapshot delta, and compares the two
//! line-for-line.

use adacomm_bench::figures::registry;
use adacomm_bench::sweep::SweepEngine;
use adacomm_bench::Scale;

const WORKER_ENV: &str = "TELEMETRY_DETERMINISM_WORKER";
const VIEW_BEGIN: &str = "TELEMETRY-VIEW-BEGIN";
const VIEW_END: &str = "TELEMETRY-VIEW-END";

/// The thread-count-invariant projection of a snapshot delta: everything
/// except wall-clock durations (span/kernel seconds, the `sweep.run_secs`
/// histogram) and point-in-time gauges.
fn deterministic_view(delta: &telemetry::Snapshot) -> Vec<String> {
    let mut view = Vec::new();
    for (name, value) in &delta.counters {
        view.push(format!("counter {name} = {value}"));
    }
    for hist in &delta.hists {
        if hist.name.starts_with("sim.") {
            view.push(format!(
                "hist {} count {} sum_micros {} buckets {:?}",
                hist.name, hist.count, hist.sum_micros, hist.buckets
            ));
        }
    }
    for span in &delta.spans {
        view.push(format!("span {} count {}", span.name, span.count));
    }
    view
}

/// Runs the fixed smoke workload (Figure 9's declared sweep specs) on a
/// fresh run-parallel engine and prints the deterministic view between
/// markers. Pool size comes from `RAYON_NUM_THREADS`.
fn run_worker() {
    let figure = registry()
        .into_iter()
        .find(|f| f.name == "fig09_vgg_adacomm")
        .expect("fig09 is registered");
    let specs = (figure.specs)(Scale::Smoke);
    assert!(!specs.is_empty(), "fig09 declares sweep specs");

    let before = telemetry::snapshot();
    let engine = SweepEngine::with_parallelism(true);
    let _ = engine.run(&specs);
    let delta = telemetry::snapshot().delta_since(&before);

    println!("{VIEW_BEGIN}");
    for line in deterministic_view(&delta) {
        println!("{line}");
    }
    println!("{VIEW_END}");
}

/// Re-runs this test binary in worker mode on a pool of `threads` and
/// returns the deterministic view it printed.
fn child_view(threads: usize) -> Vec<String> {
    let exe = std::env::current_exe().expect("test binary path");
    let output = std::process::Command::new(exe)
        .args([
            "snapshot_delta_is_identical_across_thread_counts",
            "--exact",
            "--nocapture",
        ])
        .env(WORKER_ENV, "1")
        .env("RAYON_NUM_THREADS", threads.to_string())
        .output()
        .expect("spawn worker process");
    assert!(
        output.status.success(),
        "worker with {threads} thread(s) failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut view = Vec::new();
    let mut inside = false;
    // libtest's unflushed `test name ... ` prefix can share a line with
    // the first marker, so markers are matched by containment.
    for line in stdout.lines() {
        if line.contains(VIEW_BEGIN) {
            inside = true;
        } else if line.contains(VIEW_END) {
            inside = false;
        } else if inside {
            view.push(line.to_string());
        }
    }
    assert!(
        !view.is_empty(),
        "worker with {threads} thread(s) printed no view:\n{stdout}"
    );
    view
}

#[test]
fn snapshot_delta_is_identical_across_thread_counts() {
    if std::env::var_os(WORKER_ENV).is_some() {
        run_worker();
        return;
    }
    let one = child_view(1);
    let four = child_view(4);
    assert_eq!(
        one, four,
        "telemetry snapshot delta depends on pool thread count"
    );
}
