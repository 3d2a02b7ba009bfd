//! Fault injection against the persistent run store: every way an entry
//! can rot on disk — truncation, flipped bits, stale versions,
//! zero-length files, entries rewritten under a different key — must
//! degrade to a clean recompute (correct trace, rejected entry evicted
//! and re-saved), proven by the engine's cache-traffic counters. The
//! store may never panic and never serve a wrong figure.

use adacomm_bench::supervisor::SupervisorPolicy;
use adacomm_bench::sweep::{LrSpec, ScenarioSpec, SchedulerSpec, SweepEngine, SweepSpec};
use adacomm_bench::{
    CacheStats, CancellableRun, LoadOutcome, ParkedOutcome, RunStore, TraceSource,
};
use pasgd_sim::RunTrace;
use std::fs;
use std::path::{Path, PathBuf};

/// A per-test store directory under the target tmpdir, wiped on entry so
/// reruns start cold.
fn store_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("store_faults_{name}"));
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

/// A sequential engine (stats are then exact, not racy) over a store at
/// `dir`.
fn engine_on(dir: &Path) -> SweepEngine {
    SweepEngine::with_parallelism(false).with_store(RunStore::new(dir))
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

/// Populates the store with one run of `spec`, returning the golden
/// trace and the entry's on-disk path.
fn populate(dir: &Path, s: &SweepSpec) -> (RunTrace, PathBuf) {
    let engine = engine_on(dir);
    let golden = engine.run(std::slice::from_ref(s)).remove(0);
    let path = RunStore::new(dir).entry_path(&s.key());
    assert!(path.exists(), "populate must write {}", path.display());
    (golden, path)
}

/// Asserts a fresh engine over the (damaged) store still produces the
/// golden trace by recomputing: exactly one reject, one miss, no disk
/// hit — and that the recompute healed the entry so a further engine
/// takes a clean disk hit.
fn assert_recovers_by_recompute(dir: &Path, s: &SweepSpec, golden: &RunTrace) {
    let engine = engine_on(dir);
    let got = engine.run(std::slice::from_ref(s)).remove(0);
    assert_eq!(trace_bits(&got), trace_bits(golden), "recompute must match");
    let stats = engine.cache_stats();
    assert_eq!(
        stats.rejects, 1,
        "damaged entry must be rejected: {stats:?}"
    );
    assert_eq!(stats.misses, 1, "rejected key must recompute: {stats:?}");
    assert_eq!(stats.disk_hits, 0, "damaged entry must not hit: {stats:?}");

    // The recompute re-saved a valid entry: the next engine hits disk.
    let healed = engine_on(dir);
    let again = healed.run(std::slice::from_ref(s)).remove(0);
    assert_eq!(trace_bits(&again), trace_bits(golden));
    let stats = healed.cache_stats();
    assert_eq!(
        (stats.disk_hits, stats.misses, stats.rejects),
        (1, 0, 0),
        "healed entry must serve from disk: {stats:?}"
    );
}

#[test]
fn warm_engine_serves_from_disk_bit_identically() {
    let dir = store_dir("warm");
    let cold = engine_on(&dir);
    let specs = [spec(2), spec(4)];
    let golden = cold.run(&specs);
    let stats = cold.cache_stats();
    assert_eq!((stats.disk_hits, stats.misses), (0, 2), "{stats:?}");

    let warm = engine_on(&dir);
    let served = warm.run(&specs);
    let stats = warm.cache_stats();
    assert_eq!(
        (stats.disk_hits, stats.misses, stats.rejects),
        (2, 0, 0),
        "{stats:?}"
    );
    for (g, s) in golden.iter().zip(&served) {
        assert_eq!(g.name, s.name);
        assert_eq!(trace_bits(g), trace_bits(s));
    }

    // Repeat requests on the warm engine come from memory, not disk.
    let _ = warm.run(&specs);
    let stats = warm.cache_stats();
    assert_eq!(stats.disk_hits, 2, "{stats:?}");
    assert_eq!(stats.mem_hits, 2, "{stats:?}");
}

#[test]
fn truncated_entry_recomputes_cleanly() {
    let dir = store_dir("truncated");
    let s = spec(2);
    let (golden, path) = populate(&dir, &s);
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    assert_recovers_by_recompute(&dir, &s, &golden);
}

#[test]
fn zero_length_entry_recomputes_cleanly() {
    let dir = store_dir("zero_len");
    let s = spec(2);
    let (golden, path) = populate(&dir, &s);
    fs::write(&path, []).unwrap();
    assert_recovers_by_recompute(&dir, &s, &golden);
}

#[test]
fn flipped_payload_byte_recomputes_cleanly() {
    let dir = store_dir("bit_flip");
    let s = spec(2);
    let (golden, path) = populate(&dir, &s);
    let mut bytes = fs::read(&path).unwrap();
    // Deep in the payload: every header check passes, so only the CRC
    // can catch this flip.
    let at = bytes.len() - 9;
    bytes[at] ^= 0x40;
    fs::write(&path, &bytes).unwrap();
    assert_recovers_by_recompute(&dir, &s, &golden);
}

#[test]
fn stale_version_header_recomputes_cleanly() {
    let dir = store_dir("stale_version");
    let s = spec(2);
    let (golden, path) = populate(&dir, &s);
    // Frame layout: magic [0..4), store format u32 [4..8),
    // code-semantics u32 [8..12). Age the semantics version by one — the
    // entry now claims to predate the current simulation code.
    let mut bytes = fs::read(&path).unwrap();
    bytes[8] = bytes[8].wrapping_add(1);
    fs::write(&path, &bytes).unwrap();
    assert_recovers_by_recompute(&dir, &s, &golden);
}

#[test]
fn entry_rewritten_under_a_different_key_recomputes_cleanly() {
    // A concurrent writer (or a pathological hash collision) can leave a
    // *structurally valid* frame for the wrong spec at this path; the
    // key echo inside the frame is what catches it.
    let dir = store_dir("wrong_key");
    let s2 = spec(2);
    let s4 = spec(4);
    let (golden, path2) = populate(&dir, &s2);
    let (_, path4) = populate(&dir, &s4);
    fs::copy(&path4, &path2).unwrap();
    assert_recovers_by_recompute(&dir, &s2, &golden);
}

#[test]
fn arbitrary_garbage_never_panics_the_loader() {
    let dir = store_dir("garbage");
    let s = spec(2);
    let (golden, path) = populate(&dir, &s);
    let original = fs::read(&path).unwrap();
    // A deterministic xorshift keeps the test reproducible without any
    // wall-clock seeding.
    let mut x = 0x9E37_79B9u32;
    let garbage: Vec<u8> = (0..original.len())
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x as u8
        })
        .collect();
    fs::write(&path, &garbage).unwrap();
    assert_recovers_by_recompute(&dir, &s, &golden);
}

#[test]
fn direct_store_load_reports_reasons() {
    // The LoadOutcome reasons are what the engine logs; spot-check the
    // classifier end-to-end through real files.
    let dir = store_dir("reasons");
    let s = spec(2);
    let (_, path) = populate(&dir, &s);
    let store = RunStore::new(&dir);
    let key = s.key();

    match store.load(&key) {
        LoadOutcome::Hit(_) => {}
        other => panic!("pristine entry must hit, got {other:?}"),
    }
    match store.load("some other key") {
        LoadOutcome::Absent => {}
        other => panic!("unknown key must be absent, got {other:?}"),
    }
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..10]).unwrap();
    match store.load(&key) {
        LoadOutcome::Rejected(reason) => {
            assert!(!reason.is_empty(), "rejection must carry a reason")
        }
        other => panic!("truncated entry must reject, got {other:?}"),
    }
}

fn counts(mem_hits: usize, disk_hits: usize, misses: usize, rejects: usize) -> CacheStats {
    CacheStats {
        mem_hits,
        disk_hits,
        misses,
        rejects,
    }
}

/// `lookup`, `try_trace_for` and `try_trace_cancellable` share one cache
/// head, and whichever of them meets an outcome first counts it — once.
/// The expected counters are what the two entry points alone produced for
/// the same sequences before `lookup` existed.
#[test]
fn the_three_callers_of_the_cache_head_count_each_outcome_once() {
    let dir = store_dir("lookup_counts");
    let s = spec(2);
    let key = s.key();
    let source_of = |run: Result<CancellableRun, String>| match run {
        Ok(CancellableRun::Done { source, .. }) => source,
        other => panic!("expected a finished run, got {other:?}"),
    };

    // Cold engine: one miss, then every caller takes a memory hit.
    let cold = engine_on(&dir);
    assert!(cold.lookup(&key).is_none());
    assert_eq!(cold.cache_stats(), counts(0, 0, 0, 0));
    let golden = cold.try_trace_for(&s).expect("healthy run");
    assert_eq!(cold.cache_stats(), counts(0, 0, 1, 0));
    assert!(matches!(
        cold.lookup(&key),
        Some(Ok((_, TraceSource::Memory)))
    ));
    assert_eq!(
        source_of(cold.try_trace_cancellable(&s, None)),
        TraceSource::Memory
    );
    assert_eq!(cold.cache_stats(), counts(2, 0, 1, 0));

    // Warm store, fresh engine: the lookup takes the key's one disk hit.
    let warm = engine_on(&dir);
    match warm.lookup(&key) {
        Some(Ok((trace, TraceSource::Disk))) => assert_eq!(trace_bits(&trace), trace_bits(&golden)),
        other => panic!("expected a disk hit, got {other:?}"),
    }
    assert_eq!(warm.cache_stats(), counts(0, 1, 0, 0));
    warm.try_trace_for(&s).expect("memoized");
    assert_eq!(
        source_of(warm.try_trace_cancellable(&s, None)),
        TraceSource::Memory
    );
    assert_eq!(warm.cache_stats(), counts(2, 1, 0, 0));

    // Damaged entry: the lookup rejects and evicts it; the execution that
    // follows finds it absent, so the reject is counted (and warned
    // about) once.
    let path = RunStore::new(&dir).entry_path(&key);
    fs::write(&path, b"rot").unwrap();
    let healing = engine_on(&dir);
    assert!(healing.lookup(&key).is_none());
    assert!(!path.exists(), "a rejected entry is evicted");
    assert_eq!(healing.cache_stats(), counts(0, 0, 0, 1));
    assert_eq!(
        source_of(healing.try_trace_cancellable(&s, None)),
        TraceSource::Computed
    );
    assert_eq!(healing.cache_stats(), counts(0, 0, 1, 1));
    assert!(matches!(healing.lookup(&key), Some(Ok(_))));
    assert_eq!(healing.cache_stats(), counts(1, 0, 1, 1));
    assert_eq!(healing.take_warnings().len(), 1);
}

/// A key that failed terminally is known as failed, with the reason its
/// execution reported; nothing is counted as cache traffic.
#[test]
fn lookup_reports_a_failed_key_with_its_reason() {
    let doomed = SweepEngine::with_parallelism(false).with_supervisor(SupervisorPolicy {
        deadline: Some(std::time::Duration::ZERO),
        ..SupervisorPolicy::default()
    });
    let s = spec(2);
    let reason = doomed
        .try_trace_for(&s)
        .expect_err("no run meets a zero deadline");
    match doomed.lookup(&s.key()) {
        Some(Err(known)) => assert_eq!(known, reason),
        other => panic!("expected a known failure, got {other:?}"),
    }
    assert_eq!(doomed.cache_stats(), counts(0, 0, 0, 0));
}

/// An engine without a store has nothing to consult but its own maps: a
/// key that sits valid in a store directory is unknown to it, and the
/// directory is left exactly as it was.
#[test]
fn lookup_without_a_store_never_touches_the_filesystem() {
    let dir = store_dir("lookup_storeless");
    let s = spec(2);
    populate(&dir, &s);
    let listing = || {
        let mut entries: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                let meta = e.metadata().unwrap();
                (e.file_name(), meta.len(), meta.modified().unwrap())
            })
            .collect();
        entries.sort();
        entries
    };
    let before = listing();

    let storeless = SweepEngine::with_parallelism(false);
    assert!(storeless.lookup(&s.key()).is_none());
    assert_eq!(storeless.cache_stats(), counts(0, 0, 0, 0));
    assert!(storeless.take_warnings().is_empty());
    assert_eq!(listing(), before);
}

/// A batch run is the never-cancelled case of the cancellable run, so a
/// batch engine continues the checkpoint a cancelled request parked for
/// the key — bit-identically to an uninterrupted run — and then removes
/// it, instead of recomputing beside a parked frame nobody clears.
#[test]
fn batch_run_resumes_and_clears_parked_work() {
    let s = spec(3).with_budget(40.0, 10.0);
    let key = s.key();
    let golden = SweepEngine::with_parallelism(false)
        .run(std::slice::from_ref(&s))
        .remove(0);

    let dir = store_dir("batch_resume");
    let interrupted = engine_on(&dir);
    match interrupted.try_trace_cancellable(&s, Some(&|| true)) {
        Ok(CancellableRun::Cancelled) => {}
        other => panic!("expected a cancelled run, got {other:?}"),
    }
    let store = RunStore::new(&dir);
    let parked = store.parked_path(&key);
    assert!(parked.exists(), "the cancelled run must park its progress");
    assert!(!store.entry_path(&key).exists());

    let batch = engine_on(&dir);
    let got = batch.run(std::slice::from_ref(&s)).remove(0);
    assert_eq!(trace_bits(&got), trace_bits(&golden));
    assert_eq!(batch.cache_stats(), counts(0, 0, 1, 0));
    assert!(batch.take_warnings().is_empty());
    assert!(!parked.exists(), "the finished run must unpark");
    match store.load(&key) {
        LoadOutcome::Hit(trace) => assert_eq!(trace_bits(&trace), trace_bits(&golden)),
        other => panic!("the resumed run must be saved, got {other:?}"),
    }
}

/// Two threads each call `write` `per_writer` times, released together,
/// while a third polls `read` (which returns what is wrong with a load,
/// if anything) until both are done. Returns the failed writes and the
/// bad reads.
fn race_two_writers_against_a_reader(
    per_writer: usize,
    write: impl Fn() -> bool + Sync,
    read: impl Fn() -> Option<String> + Sync,
) -> (usize, Vec<String>) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let start = std::sync::Barrier::new(3);
    let writing = AtomicUsize::new(2);
    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    let failed = (0..per_writer).filter(|_| !write()).count();
                    writing.fetch_sub(1, Ordering::SeqCst);
                    failed
                })
            })
            .collect();
        let reader = scope.spawn(|| {
            start.wait();
            let mut bad = Vec::new();
            while writing.load(Ordering::SeqCst) > 0 {
                bad.extend(read());
            }
            bad
        });
        let failed = writers.into_iter().map(|w| w.join().unwrap()).sum();
        (failed, reader.join().unwrap())
    })
}

/// The engine's check-compute-insert cache lets two threads of one
/// process compute and save the same key at once. Every such save must
/// succeed and a concurrent reader must only ever see a complete frame
/// (or none yet) — each write goes through a temp file of its own. With
/// a temp name shared per (key, pid), the second `File::create` truncated
/// the first writer's temp under it: hundreds of failed saves and a few
/// `truncated magic` loads in a run of this size.
#[test]
fn two_threads_saving_one_key_never_tear_the_entry() {
    let dir = store_dir("same_key");
    let store = RunStore::new(&dir);
    let key = spec(2).key();
    let trace = SweepEngine::with_parallelism(false)
        .run(&[spec(2)])
        .remove(0);

    let (failed_saves, bad_loads) = race_two_writers_against_a_reader(
        400,
        || store.save(&key, &trace).is_ok(),
        || match store.load(&key) {
            LoadOutcome::Hit(got) => {
                (trace_bits(&got) != trace_bits(&trace)).then(|| "wrong trace".to_string())
            }
            LoadOutcome::Absent => None,
            LoadOutcome::Rejected(reason) => Some(reason),
        },
    );
    assert_eq!(failed_saves, 0, "of 800 saves");
    assert!(bad_loads.is_empty(), "torn reads: {bad_loads:?}");
    assert!(matches!(store.load(&key), LoadOutcome::Hit(_)));
    assert_eq!(debris(&dir), Vec::<String>::new());
}

/// The parked-checkpoint twin of the test above: `park` installs through
/// the same path as `save`.
#[test]
fn two_threads_parking_one_key_never_tear_the_frame() {
    let dir = store_dir("same_key_park");
    let s = spec(2);
    let key = s.key();
    // A real checkpoint: cancel a run at its first round boundary and
    // read back what the engine parked.
    match engine_on(&dir).try_trace_cancellable(&s, Some(&|| true)) {
        Ok(CancellableRun::Cancelled) => {}
        other => panic!("expected a cancelled run, got {other:?}"),
    }
    let store = RunStore::new(&dir);
    let checkpoint = match store.load_parked(&key) {
        ParkedOutcome::Hit(ck) => ck,
        other => panic!("expected the parked checkpoint, got {other:?}"),
    };
    let golden = checkpoint.to_bytes();

    let (failed_parks, bad_loads) = race_two_writers_against_a_reader(
        200,
        || store.park(&key, &checkpoint).is_ok(),
        || match store.load_parked(&key) {
            ParkedOutcome::Hit(got) => {
                (got.to_bytes() != golden).then(|| "wrong checkpoint".to_string())
            }
            ParkedOutcome::Absent => Some("absent".to_string()),
            ParkedOutcome::Rejected(reason) => Some(reason),
        },
    );
    assert_eq!(failed_parks, 0, "of 400 parks");
    assert!(bad_loads.is_empty(), "torn reads: {bad_loads:?}");
    assert_eq!(debris(&dir), Vec::<String>::new());
}

/// Set (to the store directory) in the child that
/// `a_crashed_holders_lock_is_free_at_once` re-executes this binary as.
const LOCK_HOLDER_ENV: &str = "STORE_FAULTS_LOCK_HOLDER_DIR";

/// The store lock is the kernel's: a holder that dies without unwinding —
/// `abort()` here, SIGKILL in the chaos drill — cannot leave it held, and
/// there is no liveness probe or reclaim step to get wrong. The next
/// `lock()` succeeds immediately and names the new holder in the file.
#[test]
fn a_crashed_holders_lock_is_free_at_once() {
    if let Some(dir) = std::env::var_os(LOCK_HOLDER_ENV) {
        let _held = RunStore::new(dir)
            .lock("doomed-holder")
            .expect("the child takes the lock");
        std::process::abort();
    }
    let dir = store_dir("crashed_holder");
    let child = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args(["a_crashed_holders_lock_is_free_at_once", "--exact"])
        .env(LOCK_HOLDER_ENV, &dir)
        .output()
        .expect("spawn the lock holder");
    assert!(
        !child.status.success(),
        "the holder must die holding the lock"
    );

    let store = RunStore::new(&dir);
    let left_behind = fs::read_to_string(store.lock_path()).expect("the child locked the store");
    assert!(left_behind.ends_with(" doomed-holder"), "{left_behind}");

    let lock = store
        .lock("survivor")
        .expect("a dead holder's lock is free");
    assert_eq!(
        fs::read_to_string(lock.path()).unwrap(),
        format!("{} survivor", std::process::id())
    );
}

/// Every `*.tmp.*` file left under `dir` (entry directory and `parked/`).
fn debris(dir: &Path) -> Vec<String> {
    [dir.to_path_buf(), dir.join("parked")]
        .iter()
        .flat_map(|d| fs::read_dir(d).into_iter().flatten().flatten())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.contains(".tmp."))
        .collect()
}
