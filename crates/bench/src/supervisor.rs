//! Supervised run execution: panic isolation, per-run deadlines, bounded
//! retry, and the one retry [`backoff`] of the workspace.
//!
//! Every sweep run the engine executes goes through [`run_supervised`]:
//! the closure runs under `catch_unwind`, a panic is converted into a
//! retryable failure, and retries back off by a deterministic,
//! label-seeded delay (no wall-clock randomness — the same label always
//! produces the same backoff sequence, so a supervised reproduction is as
//! replayable as an unsupervised one). Store save retries and `sweepctl`'s
//! reconnects sleep by the same function. A run whose
//! *successful* attempt overruns the per-run deadline fails terminally:
//! the runs are deterministic, so re-executing an overrun run would
//! overrun again.
//!
//! Failures are reported as `Err(reason)` after the attempt budget is
//! spent; the engine records them and degrades the reproduction to a
//! partial-results report instead of aborting (see
//! `SweepEngine::run_failures`).
//!
//! For tests and CI drills, [`inject_panics`] arms a process-global hook
//! that panics at the start of any supervised execution whose label
//! contains a given substring — the supervised path is exercised end to
//! end without planting failure code in the simulator.

use binio::fnv1a64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Retry/deadline policy for one supervised execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorPolicy {
    /// Total attempts per run, counting the first (`>= 1`).
    pub max_attempts: u32,
    /// Base of the [`backoff`] between attempts, in milliseconds. `0`
    /// disables sleeping (tests).
    pub backoff_base_millis: u64,
    /// Wall-clock budget for a single attempt, checked after it returns
    /// (the runs are compute loops with no await points to interrupt). A
    /// successful attempt that overran fails terminally; `None` disables
    /// the check.
    pub deadline: Option<Duration>,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            max_attempts: 3,
            backoff_base_millis: 20,
            deadline: None,
        }
    }
}

/// Remaining injected panics: `(label substring, remaining count)`.
/// Process-global so binaries can arm it before the engine (and its pool
/// threads) exist.
static INJECTED: Mutex<Vec<(String, u32)>> = Mutex::new(Vec::new());

/// Arms the fault drill: the next `count` supervised executions whose
/// label contains `substr` panic at the start of the attempt. Counts
/// accumulate per substring; `u32::MAX` effectively means "always".
pub fn inject_panics(substr: &str, count: u32) {
    let mut hooks = INJECTED.lock().expect("injection hook poisoned");
    if let Some(entry) = hooks.iter_mut().find(|(s, _)| s == substr) {
        entry.1 = entry.1.saturating_add(count);
    } else {
        hooks.push((substr.to_string(), count));
    }
}

/// Disarms every injected panic (test isolation).
pub fn clear_injected_panics() {
    INJECTED.lock().expect("injection hook poisoned").clear();
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
/// and `retry`, at most 2 s. Deterministic, so a retried run replays
/// exactly; seeded by the label, so distinct runs or requests do not
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

/// Executes `f` under the policy: panic-isolated, deadline-checked, and
/// retried with seeded backoff up to `max_attempts` total attempts.
///
/// # Errors
///
/// Returns the last failure reason when every attempt panicked, or a
/// terminal deadline report when the successful attempt overran
/// `policy.deadline`.
pub fn run_supervised<T>(
    policy: &SupervisorPolicy,
    label: &str,
    f: impl Fn() -> T,
) -> Result<T, String> {
    assert!(policy.max_attempts >= 1, "at least one attempt required");
    let mut last_failure = String::new();
    for attempt in 1..=policy.max_attempts {
        if attempt > 1 {
            telemetry::counter("sweep.run_retries").inc();
            let wait = backoff(policy.backoff_base_millis, label, attempt - 2);
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
        }
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            if consume_injected_panic(label) {
                panic!("injected panic (fault drill) in {label}");
            }
            if crate::failpoint::fire("supervisor.attempt.panic") {
                panic!("injected panic (failpoint) in {label}");
            }
            f()
        }));
        match result {
            Ok(value) => {
                if let Some(deadline) = policy.deadline {
                    let elapsed = started.elapsed();
                    if elapsed > deadline {
                        // Deterministic runs overrun deterministically;
                        // retrying would only pay the cost again.
                        telemetry::counter("sweep.run_deadline_misses").inc();
                        return Err(format!(
                            "deadline exceeded: attempt took {:.2} s against a {:.2} s budget",
                            elapsed.as_secs_f64(),
                            deadline.as_secs_f64()
                        ));
                    }
                }
                return Ok(value);
            }
            Err(panic) => {
                telemetry::counter("sweep.run_panics").inc();
                last_failure = panic_message(panic);
            }
        }
    }
    Err(format!(
        "panicked on all {} attempts; last: {last_failure}",
        policy.max_attempts
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn fast_policy() -> SupervisorPolicy {
        SupervisorPolicy {
            max_attempts: 3,
            backoff_base_millis: 0,
            deadline: None,
        }
    }

    #[test]
    fn success_passes_through() {
        assert_eq!(run_supervised(&fast_policy(), "ok-run", || 42), Ok(42));
    }

    // The injection table is process-global and tests run concurrently,
    // so each test uses a label no other test's substring matches and
    // never calls `clear_injected_panics` (which would race).

    #[test]
    fn injected_panic_is_recovered_by_retry() {
        inject_panics("flaky-run-a", 2);
        let calls = AtomicU32::new(0);
        let result = run_supervised(&fast_policy(), "flaky-run-a", || {
            calls.fetch_add(1, Ordering::SeqCst) + 1
        });
        // Injected panics fire before the closure body, so the successful
        // third attempt is the only one that actually runs it.
        assert_eq!(result, Ok(1));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let hooks = INJECTED.lock().expect("injection hook poisoned");
        let remaining = hooks
            .iter()
            .find(|(s, _)| s == "flaky-run-a")
            .expect("hook stays registered")
            .1;
        assert_eq!(remaining, 0, "both injected panics were consumed");
    }

    #[test]
    fn exhausted_attempts_fail_terminally() {
        inject_panics("doomed-run-b", u32::MAX);
        let result: Result<(), String> = run_supervised(&fast_policy(), "doomed-run-b", || ());
        let err = result.unwrap_err();
        assert!(err.contains("all 3 attempts"), "{err}");
        assert!(err.contains("injected panic"), "{err}");
    }

    #[test]
    fn real_panic_message_is_preserved() {
        let result: Result<(), String> = run_supervised(&fast_policy(), "assert-run", || {
            panic!("loss diverged: {}", f64::INFINITY)
        });
        assert!(result.unwrap_err().contains("loss diverged: inf"));
    }

    #[test]
    fn deadline_overrun_fails_without_retry() {
        let policy = SupervisorPolicy {
            deadline: Some(Duration::from_millis(1)),
            ..fast_policy()
        };
        let calls = AtomicU32::new(0);
        let result = run_supervised(&policy, "slow-run", || {
            calls.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(30));
        });
        assert!(result.unwrap_err().contains("deadline exceeded"));
        // Terminal: deterministic overruns are not retried.
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
        assert_eq!(
            run_supervised(&fast_policy(), "scenario ResnetLike-x", || 1),
            Ok(1)
        );
        let r = run_supervised(
            &SupervisorPolicy {
                max_attempts: 1,
                ..fast_policy()
            },
            "scenario VggLike-drill tau=4",
            || 1,
        );
        assert!(r.is_err());
    }
}
