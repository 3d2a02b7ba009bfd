//! Deterministic, seeded failpoints: named fault-injection sites that
//! tests, drills, and CI arm by name — through the API or the
//! `ADACOMM_FAILPOINTS` environment variable — to force a specific
//! failure at a specific moment.
//!
//! A failpoint is a *site* in production code (`failpoint::fire("name")`)
//! plus an optional *arming* (`skip` hits pass through, then `count` hits
//! trigger). Every build carries the sites; an unarmed site costs one
//! relaxed atomic load, and a build with nothing armed behaves exactly as
//! if the sites were not there.
//!
//! Arming is deterministic — no wall-clock, no RNG. A drill that arms
//! `store.save.torn=1` gets a torn write on exactly the first save, every
//! time, which is what lets the chaos drills in CI assert exact recovery
//! behaviour instead of "usually recovers".
//!
//! # Registered sites
//!
//! | name | effect at the site |
//! |---|---|
//! | `store.save.io_error` | save fails before touching the filesystem |
//! | `store.save.corrupt` | one bit of the frame flips before writing (CRC catches it at load) |
//! | `store.save.torn` | a truncated frame lands at the *final* path and save reports success |
//! | `store.save.orphan_tmp` | the temp file is written, then save fails before the rename (orphan left for GC) |
//! | `store.save.rename_fail` | the atomic rename fails (temp cleaned up) |
//! | `store.load.unreadable` | load reports a transient `unreadable entry` (exercises the engine's read retry) |
//! | `store.park.io_error` | parking a checkpoint fails |
//! | `store.park.torn` | a truncated parked frame lands at the final path and park reports success |
//! | `server.journal.io_error` | a journal append fails (the daemon warns and keeps serving) |
//! | `server.request.abort` | the process aborts as a worker starts executing a run (SIGKILL-equivalent) |
//! | `server.journal.post_append_abort` | the process aborts right after an accepted request is journaled |
//!
//! The table is the contract: [`init_from_env`] rejects names not listed
//! here, so a typo in a CI job fails fast instead of silently arming
//! nothing.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// Every site name production code fires. Kept in one place so env
/// parsing can reject typos.
pub const KNOWN_SITES: &[&str] = &[
    "store.save.io_error",
    "store.save.corrupt",
    "store.save.torn",
    "store.save.orphan_tmp",
    "store.save.rename_fail",
    "store.load.unreadable",
    "store.park.io_error",
    "store.park.torn",
    "server.journal.io_error",
    "server.request.abort",
    "server.journal.post_append_abort",
];

/// Environment variable [`init_from_env`] reads:
/// `name=count` or `name=S:count` entries separated by `;` or `,`
/// (`server.request.abort=2:1`: pass two hits, fail the third).
pub const ENV_VAR: &str = "ADACOMM_FAILPOINTS";

/// Sum of every armed spec's remaining trigger count: the fast path.
/// `fire` is one relaxed load when nothing is armed anywhere.
static ARMED_TOTAL: AtomicU32 = AtomicU32::new(0);

struct Spec {
    skip: u32,
    count: u32,
}

struct State {
    armed: HashMap<String, Spec>,
    fired: Vec<String>,
}

static STATE: Mutex<Option<State>> = Mutex::new(None);

fn with_state<T>(f: impl FnOnce(&mut State) -> T) -> T {
    let mut guard = match STATE.lock() {
        Ok(guard) => guard,
        // Nothing panics while this lock is held; were it ever
        // poisoned, the state would still be usable, and a drill must
        // not wedge on it.
        Err(poisoned) => poisoned.into_inner(),
    };
    let state = guard.get_or_insert_with(|| State {
        armed: HashMap::new(),
        fired: Vec::new(),
    });
    f(state)
}

/// Arms `name` to trigger on its next `count` hits after `skip`
/// pass-through hits. Re-arming an already-armed site replaces the
/// previous spec.
pub fn arm_after(name: &str, skip: u32, count: u32) {
    with_state(|state| {
        let previous = state
            .armed
            .insert(name.to_string(), Spec { skip, count })
            .map_or(0, |s| s.count);
        // Keep the fast-path total equal to the sum of counts.
        if count > previous {
            ARMED_TOTAL.fetch_add(count - previous, Ordering::SeqCst);
        } else {
            ARMED_TOTAL.fetch_sub(previous - count, Ordering::SeqCst);
        }
    });
}

/// Disarms everything and clears the fired log (test isolation).
pub fn disarm_all() {
    with_state(|state| {
        state.armed.clear();
        state.fired.clear();
        ARMED_TOTAL.store(0, Ordering::SeqCst);
    });
}

/// One production hit on the site `name`. Returns `true` when the
/// armed spec elects this hit to fail.
pub fn fire(name: &str) -> bool {
    if ARMED_TOTAL.load(Ordering::Relaxed) == 0 {
        return false;
    }
    with_state(|state| {
        let Some(spec) = state.armed.get_mut(name) else {
            return false;
        };
        if spec.skip > 0 {
            spec.skip -= 1;
            return false;
        }
        if spec.count == 0 {
            return false;
        }
        spec.count -= 1;
        if spec.count == 0 {
            state.armed.remove(name);
        }
        ARMED_TOTAL.fetch_sub(1, Ordering::SeqCst);
        state.fired.push(name.to_string());
        telemetry::counter("failpoint.fired").inc();
        true
    })
}

/// Drains the ordered log of failpoints that actually fired —
/// drills assert on it to prove the injected fault happened.
pub fn take_fired() -> Vec<String> {
    with_state(|state| std::mem::take(&mut state.fired))
}

/// Whether any failpoint is currently armed (fast, approximate).
pub fn armed() -> bool {
    ARMED_TOTAL.load(Ordering::Relaxed) != 0
}

/// Arms `name` to trigger on its next `count` hits.
pub fn arm(name: &str, count: u32) {
    arm_after(name, 0, count);
}

/// Fires the site and, when it triggers, aborts the whole process — the
/// deterministic stand-in for SIGKILL at an exact code location. The
/// abort is announced on stderr first so a chaos drill's log shows
/// *which* failpoint killed the process.
pub fn abort_if(name: &str) {
    if fire(name) {
        eprintln!("failpoint {name}: aborting process (chaos drill)");
        std::process::abort();
    }
}

/// Arms every failpoint listed in [`ENV_VAR`] (`name=count` or
/// `name=S:count`, separated by `;` or `,`). Returns the number of
/// sites armed.
///
/// # Errors
///
/// Returns a message naming the offending entry when a name is not in
/// [`KNOWN_SITES`] or a count fails to parse — callers (the daemon)
/// refuse to start rather than run a drill with a silently-unarmed
/// failpoint.
pub fn init_from_env() -> Result<usize, String> {
    let Ok(raw) = std::env::var(ENV_VAR) else {
        return Ok(0);
    };
    init_from_spec(&raw)
}

/// [`init_from_env`] on an explicit spec string (tests, and the daemon's
/// startup log which echoes what it armed).
///
/// # Errors
///
/// Same contract as [`init_from_env`].
pub fn init_from_spec(raw: &str) -> Result<usize, String> {
    let mut armed_count = 0;
    for entry in raw.split([';', ',']) {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (name, spec) = entry
            .split_once('=')
            .ok_or_else(|| format!("failpoint entry {entry:?} is not name=count"))?;
        let name = name.trim();
        if !KNOWN_SITES.contains(&name) {
            return Err(format!(
                "unknown failpoint {name:?}; known sites: {}",
                KNOWN_SITES.join(", ")
            ));
        }
        let parse = |v: &str| {
            v.trim()
                .parse::<u32>()
                .map_err(|_| format!("failpoint {name}: bad count {v:?}"))
        };
        let (skip, count) = match spec.split_once(':') {
            Some((skip, count)) => (parse(skip)?, parse(count)?),
            None => (0, parse(spec)?),
        };
        arm_after(name, skip, count);
        armed_count += 1;
    }
    Ok(armed_count)
}

/// Failpoint state is process-global, so every lib unit test that arms a
/// site or saves or loads through the store holds this one lock: a test's
/// [`disarm_all`] must never clear another test's arming mid-test.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_sites_never_fire() {
        let _serial = test_lock();
        disarm_all();
        assert!(!armed());
        assert!(!fire("store.save.io_error"));
        assert!(take_fired().is_empty());
    }

    #[test]
    fn skip_then_count_semantics() {
        let _serial = test_lock();
        disarm_all();
        arm_after("store.save.io_error", 2, 2);
        let hits: Vec<bool> = (0..6).map(|_| fire("store.save.io_error")).collect();
        assert_eq!(hits, [false, false, true, true, false, false]);
        assert_eq!(take_fired().len(), 2);
        assert!(!armed(), "exhausted spec must clear the fast path");
        disarm_all();
    }

    #[test]
    fn rearming_replaces_and_other_sites_are_untouched() {
        let _serial = test_lock();
        disarm_all();
        arm("store.save.torn", 5);
        arm("store.save.torn", 1);
        assert!(fire("store.save.torn"));
        assert!(!fire("store.save.torn"), "re-arm must replace, not add");
        assert!(!fire("store.save.corrupt"));
        disarm_all();
    }

    #[test]
    fn env_spec_parses_and_rejects_typos() {
        let _serial = test_lock();
        disarm_all();
        let n = init_from_spec("store.save.torn=1; store.load.unreadable=2:1").unwrap();
        assert_eq!(n, 2);
        assert!(armed());
        disarm_all();

        let err = init_from_spec("store.save.tron=1").unwrap_err();
        assert!(err.contains("unknown failpoint"), "{err}");
        let err = init_from_spec("store.save.torn=banana").unwrap_err();
        assert!(err.contains("bad count"), "{err}");
        let err = init_from_spec("just-a-name").unwrap_err();
        assert!(err.contains("name=count"), "{err}");
        disarm_all();
    }
}
