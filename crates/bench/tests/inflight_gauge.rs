//! The `sweep.inflight_runs` gauge counts the runs executing right now: a
//! run that fails undoes only its own count, not those of the runs still
//! live beside it. The gauge is process-global, so this binary holds the
//! only test that runs an engine.

use adacomm_bench::sweep::{LrSpec, ScenarioSpec, SchedulerSpec, SweepEngine, SweepSpec};
use adacomm_bench::CancellableRun;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

fn inflight() -> i64 {
    telemetry::snapshot()
        .gauges
        .iter()
        .find(|(name, _)| name == "sweep.inflight_runs")
        .map_or(0, |&(_, level)| level)
}

/// A concept run at `tau = 1`, one round per simulated second.
fn concept(budget: f64) -> SweepSpec {
    SweepSpec::new(
        ScenarioSpec::Concept,
        SchedulerSpec::Fixed { tau: 1 },
        LrSpec::Fixed,
    )
    .with_budget(budget, budget)
}

#[test]
fn a_failed_run_leaves_the_live_runs_counted() {
    let engine = SweepEngine::with_parallelism(false);
    let gate = Barrier::new(2);
    let held = AtomicBool::new(false);
    // Parks the live run at its first round boundary: one wait to say it
    // is mid-flight, one for the release.
    let hold_once = || {
        if !held.swap(true, Ordering::SeqCst) {
            gate.wait();
            gate.wait();
        }
        false
    };
    let (with_one_live, failed, after_failure, live) = std::thread::scope(|scope| {
        let live = scope.spawn(|| engine.try_trace_cancellable(&concept(20.0), Some(&hold_once)));
        gate.wait();
        let with_one_live = inflight();
        // A zero budget fails the simulator's precondition, so this run
        // panics after the engine has counted it.
        let failed = engine.try_trace_for(&concept(0.0));
        let after_failure = inflight();
        gate.wait();
        (with_one_live, failed, after_failure, live.join().unwrap())
    });
    assert_eq!(with_one_live, 1);
    let reason = failed.expect_err("a zero budget cannot run");
    assert!(
        reason.contains("budget durations must be positive"),
        "{reason}"
    );
    assert_eq!(after_failure, 1, "the failed run undoes only its own count");
    assert!(matches!(live, Ok(CancellableRun::Done { .. })), "{live:?}");
    assert_eq!(inflight(), 0);
}
