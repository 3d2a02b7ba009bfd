//! Seeded failpoint sweeps against the persistent run store: every
//! injected fault the `adacomm_bench::failpoint` registry can aim at the
//! store's write path — I/O errors, CRC flips, torn writes, orphaned
//! temp files, failed renames, transient unreadable loads — must degrade
//! to a structured outcome (`Rejected`/`Absent`/`Err`), never a panic
//! and never a silently wrong trace. This is the store half of the
//! crash-consistency contract; `sweepd_process.rs` and the CI chaos
//! drill assert the daemon half end to end.
//!
//! Failpoint state is process-global, so every test here serializes on
//! one mutex and disarms on entry and exit.
//!
//! Without the `failpoints` feature every site is a no-op and nothing
//! here can fire, so the whole file compiles out.

#![cfg(feature = "failpoints")]

use adacomm_bench::sweep::{LrSpec, ScenarioSpec, SchedulerSpec, SweepEngine, SweepSpec};
use adacomm_bench::{failpoint, CancellableRun, LoadOutcome, ParkedOutcome, RunStore};
use pasgd_sim::RunTrace;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

/// Serializes tests in this binary: the failpoint registry is global.
static SERIAL: Mutex<()> = Mutex::new(());

fn store_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("store_failpoints_{name}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The cheapest real run the scenario registry offers.
fn spec(tau: usize) -> SweepSpec {
    SweepSpec::new(
        ScenarioSpec::Concept,
        SchedulerSpec::Fixed { tau },
        LrSpec::Fixed,
    )
    .with_budget(20.0, 5.0)
}

fn trace_bits(t: &RunTrace) -> Vec<u64> {
    let mut v = vec![t.peak_payload_bytes.to_bits(), t.rounds];
    for p in &t.points {
        v.extend([
            p.clock.to_bits(),
            p.iterations,
            p.epoch.to_bits(),
            u64::from(p.train_loss.to_bits()),
            p.test_accuracy.to_bits(),
            p.tau as u64,
            u64::from(p.lr.to_bits()),
            p.comm_bytes.to_bits(),
        ]);
    }
    v
}

/// Computes the golden trace once, in a pristine store with no
/// failpoints armed.
fn golden(dir: &Path, s: &SweepSpec) -> RunTrace {
    let engine = SweepEngine::with_parallelism(false).with_store(RunStore::new(dir));
    engine.run(std::slice::from_ref(s)).remove(0)
}

/// The seeded sweep ISSUE's acceptance criterion asks for: >= 20 distinct
/// store-layer failpoint activations, zero corrupted cache loads.
///
/// Each activation arms one site with one (skip, count) schedule, drives
/// a save + load + re-save cycle through it, and asserts the load
/// outcome is structured — a bit-identical `Hit`, an honest `Absent`, or
/// a `Rejected` with a reason — and that a clean re-save always heals
/// the entry back to a bit-identical hit.
#[test]
fn seeded_failpoint_sweep_yields_zero_corrupted_loads() {
    let _serial = SERIAL.lock().unwrap();
    failpoint::disarm_all();

    let s = spec(2);
    let key = s.key();
    let golden_dir = store_dir("sweep_golden");
    let reference = golden(&golden_dir, &s);

    let save_sites = [
        "store.save.io_error",
        "store.save.corrupt",
        "store.save.torn",
        "store.save.orphan_tmp",
        "store.save.rename_fail",
    ];
    let mut activations: Vec<(&str, u32, u32)> = Vec::new();
    for site in save_sites {
        for skip in [0u32, 1] {
            for count in [1u32, 2] {
                activations.push((site, skip, count));
            }
        }
    }
    activations.push(("store.load.unreadable", 0, 1));
    activations.push(("store.load.unreadable", 0, 3));
    assert!(
        activations.len() >= 20,
        "acceptance floor: got {}",
        activations.len()
    );

    let mut corrupted_loads = 0u64;
    let mut rejects = 0u64;
    for (i, (site, skip, count)) in activations.iter().enumerate() {
        let dir = store_dir(&format!("sweep_{i}"));
        let store = RunStore::new(&dir);
        failpoint::arm_after(site, *skip, *count);

        // The armed save may fail or may plant a damaged frame; both are
        // legitimate. What is never legitimate is a wrong load.
        let first_save = store.save(&key, &reference);
        for _ in 0..3 {
            match store.load(&key) {
                LoadOutcome::Hit(trace) => {
                    if trace_bits(&trace) != trace_bits(&reference) {
                        corrupted_loads += 1;
                    }
                }
                LoadOutcome::Absent => {}
                LoadOutcome::Rejected(reason) => {
                    assert!(!reason.is_empty(), "rejects must carry a reason");
                    rejects += 1;
                    store.evict(&key);
                }
            }
        }
        failpoint::disarm_all();

        // An orphaned temp file is exactly what startup GC reclaims.
        if *site == "store.save.orphan_tmp" && first_save.is_err() {
            let gc = store.gc(Duration::from_secs(0));
            assert!(
                gc.tmp_removed >= 1,
                "activation {i}: orphaned tmp must be GC debris"
            );
        }

        // Healing: with the site disarmed, a clean save must round-trip
        // bit-identically no matter what the fault left behind.
        store.save(&key, &reference).expect("clean save succeeds");
        match store.load(&key) {
            LoadOutcome::Hit(trace) => {
                assert_eq!(
                    trace_bits(&trace),
                    trace_bits(&reference),
                    "activation {i} ({site} skip {skip} count {count}): healed entry differs"
                );
            }
            other => panic!("activation {i}: healed load must hit, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
    assert_eq!(
        corrupted_loads, 0,
        "no activation may ever serve wrong trace bytes"
    );
    assert!(rejects > 0, "the sweep must actually exercise reject paths");
    let _ = fs::remove_dir_all(&golden_dir);
}

/// Failpoint-injected torn writes plus a brute-force truncation/bit-flip
/// corpus over the resulting frame: every damaged frame must load as a
/// structured reject (or an honest absent after eviction), never a panic
/// and never foreign data.
#[test]
fn torn_write_corpus_loads_as_structured_rejects() {
    let _serial = SERIAL.lock().unwrap();
    failpoint::disarm_all();

    let s = spec(3);
    let key = s.key();
    let dir = store_dir("torn_corpus");
    let store = RunStore::new(&dir);
    let reference = golden(&dir, &s);
    let path = store.entry_path(&key);

    // Failpoint-injected tear: the frame on disk is a prefix.
    failpoint::arm("store.save.torn", 1);
    store
        .save(&key, &reference)
        .expect("a torn save reports success — that is the fault model");
    failpoint::disarm_all();
    match store.load(&key) {
        LoadOutcome::Rejected(reason) => {
            assert!(!reason.is_empty(), "torn frame must explain its reject")
        }
        other => panic!("torn frame must reject, got {other:?}"),
    }

    // Restore a whole frame, then grind a corpus out of it: every
    // truncation length (step 7 for speed) and a bit flip at every 7th
    // byte. CRC + field validation must catch each one.
    store.save(&key, &reference).expect("clean save");
    let whole = fs::read(&path).expect("read whole frame");
    let mut cases = 0u64;
    for cut in (0..whole.len()).step_by(7) {
        fs::write(&path, &whole[..cut]).expect("write truncation");
        match store.load(&key) {
            LoadOutcome::Rejected(_) => cases += 1,
            LoadOutcome::Absent => cases += 1,
            LoadOutcome::Hit(_) => panic!("truncation at {cut} bytes loaded as a hit"),
        }
    }
    for byte in (0..whole.len()).step_by(7) {
        let mut flipped = whole.clone();
        flipped[byte] ^= 0x10;
        fs::write(&path, &flipped).expect("write flip");
        match store.load(&key) {
            LoadOutcome::Rejected(_) => cases += 1,
            LoadOutcome::Absent => cases += 1,
            LoadOutcome::Hit(trace) => {
                // A flip the validators cannot see must still decode to
                // the identical bytes — otherwise the frame lied.
                assert_eq!(
                    trace_bits(&trace),
                    trace_bits(&reference),
                    "flip at byte {byte} decoded to different data"
                );
            }
        }
    }
    assert!(cases > 20, "corpus must exercise many damaged frames");
    let _ = fs::remove_dir_all(&dir);
}

/// Park-path failpoints: a failed park write keeps the cancellation
/// clean (no parked frame), and a torn parked frame loads as a
/// structured reject that unparks to absent.
#[test]
fn park_failpoints_degrade_to_clean_cancellation_and_rejects() {
    let _serial = SERIAL.lock().unwrap();
    failpoint::disarm_all();

    let s = spec(5);
    let key = s.key();

    // park I/O error: the cancel still reports cleanly, nothing parked.
    let dir = store_dir("park_io");
    let engine = SweepEngine::with_parallelism(false).with_store(RunStore::new(&dir));
    failpoint::arm("store.park.io_error", 1);
    let outcome = engine
        .try_trace_cancellable(&s, Some(&|| true))
        .expect("cancellable run never fails");
    failpoint::disarm_all();
    assert!(matches!(outcome, CancellableRun::Cancelled));
    assert!(matches!(
        RunStore::new(&dir).load_parked(&key),
        ParkedOutcome::Absent
    ));
    let _ = fs::remove_dir_all(&dir);

    // park torn write: a frame exists but must reject, never panic.
    let dir = store_dir("park_torn");
    let engine = SweepEngine::with_parallelism(false).with_store(RunStore::new(&dir));
    failpoint::arm("store.park.torn", 1);
    let outcome = engine
        .try_trace_cancellable(&s, Some(&|| true))
        .expect("cancellable run never fails");
    failpoint::disarm_all();
    assert!(matches!(outcome, CancellableRun::Cancelled));
    let store = RunStore::new(&dir);
    match store.load_parked(&key) {
        ParkedOutcome::Rejected(reason) => {
            assert!(!reason.is_empty(), "torn park must explain its reject")
        }
        other => panic!("torn parked frame must reject, got {other:?}"),
    }
    store.unpark(&key);
    assert!(matches!(store.load_parked(&key), ParkedOutcome::Absent));

    // And the run is still perfectly recoverable: a fresh request
    // recomputes the full trace.
    match engine
        .try_trace_cancellable(&s, None)
        .expect("fresh run succeeds")
    {
        CancellableRun::Done { trace, .. } => assert!(!trace.points.is_empty()),
        CancellableRun::Cancelled => panic!("no stop predicate, cannot cancel"),
    }
    let _ = fs::remove_dir_all(&dir);
}
