//! Supervised run execution: panic isolation, per-run deadlines, and the
//! one retry [`backoff`] of the workspace.
//!
//! Every sweep run the engine executes goes through [`run_supervised`]:
//! the closure runs once under `catch_unwind`, and a panic becomes an
//! `Err` carrying its message. There is no retry: the runs are
//! bit-deterministic, so a run that panicked once panics again. A run
//! that returns after its per-run deadline fails terminally for the same
//! reason — re-executing it would overrun again.
//!
//! Failures are reported as `Err(reason)`; the engine records them and
//! degrades the reproduction to a partial-results report instead of
//! aborting (see `SweepEngine::run_failures`). Store save retries and
//! `sweepctl`'s reconnects, which retry real I/O, sleep by [`backoff`].
//!
//! For tests and CI drills, [`inject_panics`] arms a process-global hook
//! that panics at the start of any supervised execution whose label
//! contains a given substring — the supervised path is exercised end to
//! end without planting failure code in the simulator.

use binio::fnv1a64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Remaining injected panics: `(label substring, remaining count)`.
/// Process-global so binaries can arm it before the engine (and its pool
/// threads) exist.
static INJECTED: Mutex<Vec<(String, u32)>> = Mutex::new(Vec::new());

/// Arms the fault drill: the next `count` supervised executions whose
/// label contains `substr` panic at the start of the run. Counts
/// accumulate per substring; `u32::MAX` effectively means "always".
pub fn inject_panics(substr: &str, count: u32) {
    let mut hooks = INJECTED.lock().expect("injection hook poisoned");
    if let Some(entry) = hooks.iter_mut().find(|(s, _)| s == substr) {
        entry.1 = entry.1.saturating_add(count);
    } else {
        hooks.push((substr.to_string(), count));
    }
}

/// Consumes one injected panic for `label`, if armed.
fn consume_injected_panic(label: &str) -> bool {
    let mut hooks = INJECTED.lock().expect("injection hook poisoned");
    for (substr, remaining) in hooks.iter_mut() {
        if *remaining > 0 && label.contains(substr.as_str()) {
            *remaining = remaining.saturating_sub(1);
            return true;
        }
    }
    false
}

/// Ceiling on one backoff sleep.
const MAX_BACKOFF: Duration = Duration::from_secs(2);

/// The one retry backoff: before retry `retry` (0 for the first), sleep
/// `base_ms · 2^retry` plus a jitter in `[0, base_ms]` seeded by `label`
/// and `retry`, at most 2 s. Deterministic, so a retry sequence replays
/// exactly; seeded by the label, so distinct saves or requests do not
/// retry in lockstep.
pub fn backoff(base_ms: u64, label: &str, retry: u32) -> Duration {
    let seed = [label.as_bytes(), &retry.to_le_bytes()].concat();
    let jitter = fnv1a64(&seed) % base_ms.saturating_add(1);
    let exp = base_ms.saturating_mul(1u64.checked_shl(retry).unwrap_or(u64::MAX));
    Duration::from_millis(exp.saturating_add(jitter)).min(MAX_BACKOFF)
}

/// Extracts a printable message from a `catch_unwind` payload — the one
/// place a panic payload becomes text.
pub(crate) fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panicked (non-string payload)".to_string())
}

/// Executes `f` once, panic-isolated and checked against `deadline`.
///
/// # Errors
///
/// Returns the panic message when `f` panicked, or a terminal deadline
/// report when it returned after `deadline`.
pub fn run_supervised<T>(
    deadline: Option<Duration>,
    label: &str,
    f: impl FnOnce() -> T,
) -> Result<T, String> {
    let started = Instant::now();
    let value = catch_unwind(AssertUnwindSafe(|| {
        if consume_injected_panic(label) {
            panic!("injected panic (fault drill) in {label}");
        }
        f()
    }))
    .map_err(|panic| {
        telemetry::counter("sweep.run_panics").inc();
        panic_message(panic)
    })?;
    let elapsed = started.elapsed();
    if let Some(deadline) = deadline.filter(|&d| elapsed > d) {
        telemetry::counter("sweep.run_deadline_misses").inc();
        return Err(format!(
            "deadline exceeded: run took {:.2} s against a {:.2} s budget",
            elapsed.as_secs_f64(),
            deadline.as_secs_f64()
        ));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn success_passes_through() {
        assert_eq!(run_supervised(None, "ok-run", || 42), Ok(42));
    }

    // The injection table is process-global and tests run concurrently,
    // so each test uses a label no other test's substring matches.

    #[test]
    fn a_panicking_run_executes_exactly_once() {
        let calls = AtomicU32::new(0);
        let result: Result<(), String> = run_supervised(None, "diverging-run", || {
            calls.fetch_add(1, Ordering::SeqCst);
            panic!("loss diverged at round {}", 7)
        });
        assert!(result.unwrap_err().contains("loss diverged at round 7"));
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "deterministic runs are not retried"
        );
    }

    #[test]
    fn real_panic_message_is_preserved() {
        let result: Result<(), String> = run_supervised(None, "assert-run", || {
            panic!("loss diverged: {}", f64::INFINITY)
        });
        assert!(result.unwrap_err().contains("loss diverged: inf"));
    }

    #[test]
    fn injected_panic_fails_before_the_run() {
        inject_panics("doomed-run-b", 1);
        let calls = AtomicU32::new(0);
        let result = run_supervised(None, "doomed-run-b", || {
            calls.fetch_add(1, Ordering::SeqCst);
        });
        let err = result.unwrap_err();
        assert!(err.contains("injected panic"), "{err}");
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        // The one injected panic is spent: the next execution runs.
        assert_eq!(run_supervised(None, "doomed-run-b", || 7), Ok(7));
    }

    #[test]
    fn deadline_overrun_fails_without_retry() {
        let calls = AtomicU32::new(0);
        let result = run_supervised(Some(Duration::from_millis(1)), "slow-run", || {
            calls.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(30));
        });
        assert!(result.unwrap_err().contains("deadline exceeded"));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn backoff_is_deterministic_and_label_dependent() {
        for label in ["run-a", "run-b", "{\"cmd\":\"ping\"}"] {
            assert_eq!(backoff(16, label, 2), backoff(16, label, 2));
            // Growth across retries: the exponential part dominates jitter.
            assert!(backoff(16, label, 3) > backoff(16, label, 1));
        }
        assert_eq!(backoff(0, "run-a", 5), Duration::ZERO);
        // A burst of distinct runs or requests retrying together spreads out.
        let waits: std::collections::BTreeSet<Duration> = (0..32)
            .map(|i| backoff(1000, &format!("request {i}"), 0))
            .collect();
        assert!(waits.len() >= 28, "only {} distinct waits", waits.len());
    }

    #[test]
    fn backoff_adds_jitter_to_the_exponential_base() {
        // base·2ⁿ + U[0, base]: the jitter is added, not OR-ed in. At the
        // first retries the shifted base still has low bits set, so an OR
        // would swallow the jitter bits that overlap them.
        let mut disagreements = 0;
        for label in (0..64).map(|i| format!("run-{i}")) {
            for retry in 0..4 {
                let base = 20u64 << retry;
                let got = backoff(20, &label, retry).as_millis() as u64;
                assert!(
                    (base..=base + 20).contains(&got),
                    "{label} retry {retry}: {got} outside [{base}, {}]",
                    base + 20
                );
                disagreements += usize::from(got != (base | (got - base)));
            }
        }
        assert!(disagreements > 0, "no label separates + from |");
    }

    #[test]
    fn backoff_is_capped() {
        assert_eq!(backoff(50, "run-a", 12), MAX_BACKOFF);
        assert_eq!(backoff(u64::MAX, "run-a", 70), MAX_BACKOFF);
        assert!(backoff(50, "run-a", 5) < MAX_BACKOFF);
    }

    #[test]
    fn injection_matches_on_substring_only() {
        inject_panics("VggLike-drill", 1);
        assert_eq!(run_supervised(None, "scenario ResnetLike-x", || 1), Ok(1));
        let r = run_supervised(None, "scenario VggLike-drill tau=4", || 1);
        assert!(r.is_err());
    }
}
