//! Offline stand-in for the subset of the [`rayon`](https://docs.rs/rayon)
//! crate API used by this workspace: `par_iter_mut()` over slices followed
//! by `map(..).collect()`, `map(..).sum()` or `for_each(..)`, plus rayon's
//! `with_max_len` chunk-size cap.
//!
//! Like real rayon — and unlike the scoped-thread shim it replaces — work
//! runs on a **lazily-initialized persistent worker pool**: the first
//! parallel call spawns one worker per available core (override with the
//! `RAYON_NUM_THREADS` environment variable, read once at pool creation)
//! and every subsequent call just enqueues chunk jobs. The slice is split
//! into contiguous chunks (one per worker by default, or capped by
//! [`with_max_len`](ParIterMut::with_max_len)) and per-chunk outputs are
//! concatenated in slice order, so `map(..).collect()` preserves element
//! order exactly like rayon does.
//!
//! # Nesting
//!
//! A job running on a pool thread may itself call `par_iter_mut` without
//! deadlocking the (finite) pool. Every queued job is tagged with the
//! parallel call that submitted it, and a thread blocked waiting for its
//! call's chunks **runs only its own call's queued chunks**, then parks
//! until the chunks other threads took have finished. It never starts an
//! unrelated job: a blocked round of one run cannot pick up the next
//! queued run and finish it first, so the number of live outer jobs is
//! bounded by the executors (pool workers plus submitters), not by how
//! many are queued. Idle pool workers take any job, oldest first, so while
//! an outer sweep has runs queued each executor holds one run and runs
//! that run's fan-out itself; only otherwise-idle threads take another
//! call's chunks.
//!
//! An outer sweep over runs can therefore nest an inner `par_iter_mut`
//! over workers (which may itself nest chunked evaluation jobs) and every
//! level makes progress: a joiner parks only when none of its chunks is
//! queued, i.e. when every outstanding chunk is already running on some
//! other thread, and calls only wait on their own chunks, so the joins
//! form a DAG that drains bottom-up. Panics in a chunk job are caught, the
//! executing thread survives, and the panic is re-raised on the thread
//! that submitted that chunk's parallel call — an inner panic therefore
//! unwinds the outer job that caused it, reaching that outer call's
//! submitter in turn, never aborting the process.
//!
//! # Safety
//!
//! Dispatching borrowed chunks onto long-lived threads requires erasing the
//! job's lifetime (the same obligation real rayon discharges in its scoped
//! machinery). Soundness rests on one invariant, enforced in the private
//! `run_jobs` dispatcher: the submitting call **does not return until every
//! chunk job has finished running** (it runs its own queued chunks, then
//! parks until a completion latch reaches zero; panicking jobs are caught
//! and still counted), so no borrow escapes the caller's stack frame. The
//! latch itself lives in that frame, so the job that releases it touches
//! nothing of the frame after the releasing decrement. This is the only
//! unsafe code in the workspace.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread::Thread;

/// The traits and adaptors, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::ParallelSliceMut;
}

/// Number of worker threads in the global pool (rayon's
/// `current_num_threads`). Initializes the pool on first call; this is
/// the one authoritative answer to "how many executors does this machine
/// get" (cores, or the `RAYON_NUM_THREADS` override) — callers deciding
/// whether coarse-grained parallelism pays should ask this instead of
/// re-deriving the pool's sizing rules.
pub fn current_num_threads() -> usize {
    Pool::global().workers
}

/// Extension trait adding [`par_iter_mut`](ParallelSliceMut::par_iter_mut)
/// to slices (and through auto-deref, to `Vec`).
pub trait ParallelSliceMut<T: Send> {
    /// Returns a parallel iterator over mutable references to the elements.
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut {
            slice: self,
            max_len: usize::MAX,
        }
    }
}

/// A parallel iterator over `&mut T` items of a slice.
pub struct ParIterMut<'a, T> {
    slice: &'a mut [T],
    max_len: usize,
}

impl<'a, T: Send> ParIterMut<'a, T> {
    /// Caps the number of elements a single chunk job processes (rayon's
    /// `IndexedParallelIterator::with_max_len`). `with_max_len(1)` turns
    /// every element into its own pool job — the right shape for few,
    /// heterogeneous, long-running items (e.g. whole simulation runs),
    /// where contiguous per-worker chunks would straggle.
    ///
    /// # Panics
    ///
    /// Panics if `max_len == 0`.
    pub fn with_max_len(mut self, max_len: usize) -> Self {
        assert!(max_len > 0, "chunk cap must be at least 1");
        self.max_len = max_len;
        self
    }

    /// Maps every element through `op`, in parallel.
    pub fn map<R, F>(self, op: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&mut T) -> R + Sync,
    {
        ParMap {
            slice: self.slice,
            op,
            max_len: self.max_len,
        }
    }

    /// Runs `op` on every element, in parallel.
    pub fn for_each<F>(self, op: F)
    where
        F: Fn(&mut T) + Sync,
    {
        let _: Vec<()> = run_chunks(self.slice, self.max_len, &|item| op(item), |chunk, op| {
            chunk.iter_mut().for_each(op);
        });
    }
}

/// The parallel `map` adaptor; terminate it with [`collect`](ParMap::collect)
/// or [`sum`](ParMap::sum).
pub struct ParMap<'a, T, F> {
    slice: &'a mut [T],
    op: F,
    max_len: usize,
}

impl<T, R, F> ParMap<'_, T, F>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    /// Collects the mapped values in slice order.
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        let per_chunk = run_chunks(self.slice, self.max_len, &self.op, |chunk, op| {
            chunk.iter_mut().map(op).collect::<Vec<R>>()
        });
        let mut out = Vec::new();
        for chunk in per_chunk {
            out.extend(chunk);
        }
        C::from(out)
    }

    /// Sums the mapped values without materialising them: each chunk folds
    /// its elements in slice order, and the per-chunk partial sums are
    /// combined in chunk order. (Like rayon's `sum`, the float result may
    /// differ from a sequential sum in the last bits because partials are
    /// re-associated.)
    pub fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<R> + std::iter::Sum<S>,
    {
        run_chunks(self.slice, self.max_len, &self.op, |chunk, op| {
            chunk.iter_mut().map(op).sum::<S>()
        })
        .into_iter()
        .sum()
    }
}

// ---------------------------------------------------------------------
// The persistent worker pool
// ---------------------------------------------------------------------

/// A type-erased chunk job. `'static` is a lie told once, in
/// [`run_jobs`], which does not return until the job has run.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Identifies the parallel call that queued a job: the address of that
/// call's [`Latch`], unique while the call is live (and no job of a call
/// outlives it in the queue).
type CallId = usize;

struct Pool {
    queue: Mutex<VecDeque<(CallId, Job)>>,
    /// Wakes idle workers only; a blocked joiner parks on its own thread.
    job_ready: Condvar,
    workers: usize,
}

impl Pool {
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let workers = std::env::var("RAYON_NUM_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|p| p.get())
                        .unwrap_or(1)
                });
            let pool = Pool {
                queue: Mutex::new(VecDeque::new()),
                job_ready: Condvar::new(),
                workers,
            };
            for i in 0..workers {
                std::thread::Builder::new()
                    .name(format!("rayon-shim-{i}"))
                    .spawn(worker_loop)
                    .expect("spawn pool worker");
            }
            pool
        })
    }

    fn submit(&self, call: CallId, job: Job) {
        self.queue
            .lock()
            .expect("pool queue poisoned")
            .push_back((call, job));
        self.job_ready.notify_one();
    }

    /// Dequeues the oldest queued job of `call`, if any is still queued.
    fn take_own(&self, call: CallId) -> Option<Job> {
        let mut queue = self.queue.lock().expect("pool queue poisoned");
        let at = queue.iter().position(|&(owner, _)| owner == call)?;
        queue.remove(at).map(|(_, job)| job)
    }
}

/// An idle pool worker: runs any queued job, oldest first.
fn worker_loop() {
    let pool = Pool::global();
    loop {
        let job = {
            let mut queue = pool.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some((_, job)) = queue.pop_front() {
                    break job;
                }
                queue = pool.job_ready.wait(queue).expect("pool queue poisoned");
            }
        };
        job();
    }
}

/// Counts outstanding chunk jobs of one parallel call and names the thread
/// that joins them. The joiner runs its own queued chunks, then parks
/// until the count reaches zero; the last completion unparks it and no
/// other thread. A panicking job is caught inside the job (keeping its
/// thread alive), flagged here, and re-raised on the joiner.
struct Latch {
    remaining: AtomicUsize,
    panicked: AtomicBool,
    joiner: Thread,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: AtomicUsize::new(count),
            panicked: AtomicBool::new(false),
            joiner: std::thread::current(),
        }
    }

    /// The tag of every job this latch counts.
    fn call_id(&self) -> CallId {
        self as *const Latch as CallId
    }

    fn is_done(&self) -> bool {
        self.remaining.load(Ordering::SeqCst) == 0
    }

    /// Marks one job complete; the last completion unparks the joiner. The
    /// latch lives on the joiner's stack, and the decrement to zero lets
    /// the joiner return and free it, so the handle is cloned *before* the
    /// decrement and nothing of the latch is touched after it. A lost race
    /// is impossible: an `unpark` that lands before the joiner's `park`
    /// makes that `park` return at once.
    fn complete_one(&self) {
        let joiner = self.joiner.clone();
        if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            joiner.unpark();
        }
    }
}

/// The join half of a parallel call: runs this call's still-queued chunks
/// on the joining thread, then parks until the chunks other threads took
/// have completed. It never starts another call's job, so a join adds
/// only its own chunks to this stack. A taken chunk is never re-queued,
/// so once none is left to take only the latch can release the joiner
/// (`park` may return spuriously, hence the loop).
fn help_until(latch: &Latch) {
    let pool = Pool::global();
    while let Some(job) = pool.take_own(latch.call_id()) {
        job();
    }
    while !latch.is_done() {
        std::thread::park();
    }
}

/// Splits `slice` into contiguous chunks (one per pool worker, capped at
/// `max_len` elements), processes every chunk on the pool via `process`
/// (which receives the chunk and `op`), and returns the per-chunk outputs
/// in slice order. Single-chunk calls run inline without touching the
/// pool.
fn run_chunks<T, R, F, P, V>(slice: &mut [T], max_len: usize, op: &F, process: P) -> Vec<V>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
    P: Fn(&mut [T], &F) -> V + Sync,
    V: Send,
{
    let len = slice.len();
    if len == 0 {
        return Vec::new();
    }
    let threads = Pool::global().workers.min(len);
    let chunk_len = len.div_ceil(threads).min(max_len).max(1);
    if chunk_len >= len {
        return vec![process(slice, op)];
    }
    let mut slots: Vec<Option<V>> = Vec::new();
    slots.resize_with(slice.chunks_mut(chunk_len).len(), || None);
    run_jobs(slice, chunk_len, op, &process, &mut slots);
    slots
        .into_iter()
        .map(|slot| slot.expect("completed chunk job left no output"))
        .collect()
}

/// Dispatches one job per chunk onto the pool, tagged with this call's
/// latch, joins them through [`help_until`] (running only this call's
/// chunks on the calling thread), and panics afterwards if any chunk
/// panicked (matching the scoped-thread behaviour the pool replaced).
#[allow(unsafe_code)]
fn run_jobs<T, R, F, P, V>(
    slice: &mut [T],
    chunk_len: usize,
    op: &F,
    process: &P,
    slots: &mut [Option<V>],
) where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
    P: Fn(&mut [T], &F) -> V + Sync,
    V: Send,
{
    let latch = Latch::new(slots.len());
    // Once the first job is submitted, unwinding out of this frame before
    // the latch reaches zero would free stack data that lifetime-erased
    // jobs still reference. Jobs catch their own panics (so joining cannot
    // unwind here and the pool mutexes cannot be poisoned by them), but if
    // anything between submit and completion ever does panic, abort instead
    // of handing workers dangling pointers — the same escalation std's
    // scoped threads use for un-joinable panics.
    let abort_guard = AbortOnUnwind;
    {
        let pool = Pool::global();
        let call = latch.call_id();
        for (chunk, slot) in slice.chunks_mut(chunk_len).zip(slots.iter_mut()) {
            let latch_ref = &latch;
            let job = move || {
                // Catch panics inside the job so the executing thread
                // (worker or joiner) survives and the joiner is always
                // released.
                let result =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| process(chunk, op)));
                match result {
                    Ok(v) => *slot = Some(v),
                    Err(_) => latch_ref.panicked.store(true, Ordering::SeqCst),
                }
                latch_ref.complete_one();
            };
            let boxed: Box<dyn FnOnce() + Send + '_> = Box::new(job);
            // SAFETY: `help_until` below does not return until every job
            // has decremented the latch, so the borrows captured by `job`
            // (chunk, slot, op, process, latch) outlive their use; the
            // 'static lifetime is never observable. The decrement is the
            // job's last touch of this frame: `complete_one` clones the
            // joiner's handle before it and reads nothing of the latch
            // after it, because the decrement to zero may release this
            // frame. `abort_guard` upholds all this even if this frame
            // unwinds early.
            let boxed: Job = unsafe { std::mem::transmute(boxed) };
            pool.submit(call, boxed);
        }
        help_until(&latch);
    }
    std::mem::forget(abort_guard);
    if latch.panicked.load(Ordering::SeqCst) {
        panic!("parallel worker panicked");
    }
}

/// Escalates an unwind between job submission and latch completion to a
/// process abort (see the safety discussion in [`run_jobs`]'s body).
struct AbortOnUnwind;

impl Drop for AbortOnUnwind {
    fn drop(&mut self) {
        std::process::abort();
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    /// Pins the pool to four workers regardless of the host's core count
    /// so the nested-parallelism tests exercise real cross-thread joins
    /// even on single-core machines. Every test calls this before first
    /// pool use; the value is identical everywhere, so test ordering does
    /// not matter.
    fn four_worker_pool() {
        std::env::set_var("RAYON_NUM_THREADS", "4");
    }

    #[test]
    fn map_collect_preserves_order() {
        four_worker_pool();
        let mut v: Vec<u64> = (0..1_000).collect();
        let out: Vec<u64> = v.par_iter_mut().map(|x| *x * 2).collect();
        assert_eq!(out, (0..1_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_can_mutate_elements() {
        four_worker_pool();
        let mut v: Vec<u64> = vec![1; 64];
        let _: Vec<()> = v.par_iter_mut().map(|x| *x += 1).collect();
        assert!(v.iter().all(|&x| x == 2));
    }

    #[test]
    fn for_each_mutates_everything() {
        four_worker_pool();
        let mut v: Vec<u64> = (0..257).collect();
        v.par_iter_mut().for_each(|x| *x += 10);
        assert_eq!(v, (10..267).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_slices() {
        four_worker_pool();
        let mut empty: Vec<u32> = vec![];
        let out: Vec<u32> = empty.par_iter_mut().map(|x| *x).collect();
        assert!(out.is_empty());
        let mut one = [5u32];
        let out: Vec<u32> = one.par_iter_mut().map(|x| *x + 1).collect();
        assert_eq!(out, vec![6]);
    }

    #[test]
    fn sum_folds_without_collecting() {
        four_worker_pool();
        let mut v: Vec<u64> = (0..1_000).collect();
        let total: u64 = v.par_iter_mut().map(|x| *x).sum();
        assert_eq!(total, 499_500);
        let mut f: Vec<f32> = vec![0.5; 64];
        let total: f32 = f.par_iter_mut().map(|x| *x).sum();
        assert_eq!(total, 32.0);
    }

    #[test]
    fn pool_survives_many_rounds() {
        four_worker_pool();
        // Thousands of calls reuse the same workers; this is the shape of
        // the simulator's per-round fan-out.
        let mut v: Vec<u64> = (0..16).collect();
        for round in 0..2_000 {
            v.par_iter_mut().for_each(|x| *x += 1);
            assert_eq!(v[0], round + 1);
        }
    }

    #[test]
    fn with_max_len_one_job_per_item_preserves_order() {
        four_worker_pool();
        let mut v: Vec<u64> = (0..37).collect();
        let out: Vec<u64> = v.par_iter_mut().with_max_len(1).map(|x| *x * 3).collect();
        assert_eq!(out, (0..37).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn nested_parallelism_completes_and_preserves_order() {
        four_worker_pool();
        // Outer parallelism over "runs", inner par_iter_mut over each
        // run's "workers" — the sweep-engine shape. With four pool threads
        // and eight outer jobs, every pool thread can be blocked in an
        // inner join while outer jobs are still queued: each join must
        // run its own queued chunks, or the pool deadlocks on itself.
        let mut runs: Vec<Vec<u64>> = (0..8)
            .map(|r| (0..64).map(|w| r * 100 + w).collect())
            .collect();
        let sums: Vec<u64> = runs
            .par_iter_mut()
            .with_max_len(1)
            .map(|run| {
                let doubled: Vec<u64> = run.par_iter_mut().map(|w| *w * 2).collect();
                // Inner order must be preserved inside an outer job.
                assert!(doubled.windows(2).all(|p| p[0] < p[1]));
                doubled.iter().sum::<u64>()
            })
            .collect();
        let expected: Vec<u64> = (0..8u64)
            .map(|r| (0..64).map(|w| (r * 100 + w) * 2).sum())
            .collect();
        assert_eq!(sums, expected);
    }

    #[test]
    fn blocked_join_never_starts_unrelated_work() {
        use std::cell::Cell;
        use std::sync::atomic::{AtomicUsize, Ordering};
        four_worker_pool();
        thread_local!(static DEPTH: Cell<usize> = const { Cell::new(0) });
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        static MAX_LIVE: AtomicUsize = AtomicUsize::new(0);
        // Sixteen queued "runs", each blocking on its own fan-out: a join
        // that started another queued run would nest it on its stack.
        let mut runs: Vec<u64> = (0..16).collect();
        let depths: Vec<usize> = runs
            .par_iter_mut()
            .with_max_len(1)
            .map(|_| {
                let depth = DEPTH.with(|d| {
                    d.set(d.get() + 1);
                    d.get()
                });
                let live = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
                MAX_LIVE.fetch_max(live, Ordering::SeqCst);
                let mut inner = [0u64; 8];
                inner.par_iter_mut().for_each(|_| {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                });
                LIVE.fetch_sub(1, Ordering::SeqCst);
                DEPTH.with(|d| d.set(d.get() - 1));
                depth
            })
            .collect();
        assert!(depths.iter().all(|&d| d == 1), "nested runs: {depths:?}");
        let max_live = MAX_LIVE.load(Ordering::SeqCst);
        assert!(
            max_live <= 5,
            "{max_live} runs live on 4 workers + submitter"
        );
    }

    #[test]
    fn deeply_nested_parallelism_completes() {
        four_worker_pool();
        // Three levels: sweep -> runs -> workers, all smaller than the
        // pool, all joining on pool threads.
        let mut outer: Vec<u64> = (0..4).collect();
        let totals: Vec<u64> = outer
            .par_iter_mut()
            .with_max_len(1)
            .map(|o| {
                let mut mid: Vec<u64> = (0..4).map(|m| *o * 10 + m).collect();
                let mids: Vec<u64> = mid
                    .par_iter_mut()
                    .with_max_len(1)
                    .map(|m| {
                        let mut inner: Vec<u64> = (0..8).map(|i| *m + i).collect();
                        inner.par_iter_mut().map(|x| *x).sum::<u64>()
                    })
                    .collect();
                mids.iter().sum::<u64>()
            })
            .collect();
        for (o, &total) in totals.iter().enumerate() {
            let expect: u64 = (0..4u64)
                .map(|m| (0..8u64).map(|i| o as u64 * 10 + m + i).sum::<u64>())
                .sum();
            assert_eq!(total, expect);
        }
    }

    #[test]
    fn panics_propagate_to_caller() {
        four_worker_pool();
        let caught = std::panic::catch_unwind(|| {
            let mut v: Vec<u64> = (0..64).collect();
            v.par_iter_mut().for_each(|x| {
                if *x == 63 {
                    panic!("boom");
                }
            });
        });
        assert!(caught.is_err(), "worker panic must reach the caller");
        // The pool must still be usable afterwards.
        let mut v: Vec<u64> = (0..64).collect();
        let out: Vec<u64> = v.par_iter_mut().map(|x| *x).collect();
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn nested_panic_propagates_without_aborting() {
        four_worker_pool();
        // A panic in an *inner* parallel call unwinds the outer job, which
        // flags the outer latch, which re-raises on the outer submitter —
        // two latch hops, no process abort, pool intact.
        let caught = std::panic::catch_unwind(|| {
            let mut runs: Vec<u64> = (0..8).collect();
            let _: Vec<()> = runs
                .par_iter_mut()
                .with_max_len(1)
                .map(|r| {
                    let mut inner: Vec<u64> = (0..16).map(|i| *r * 16 + i).collect();
                    inner.par_iter_mut().for_each(|x| {
                        if *x == 50 {
                            panic!("inner boom");
                        }
                    });
                })
                .collect();
        });
        assert!(caught.is_err(), "inner panic must reach the outer caller");
        // Pool still fully functional, including nested calls.
        let mut runs: Vec<Vec<u64>> = (0..4).map(|r| vec![r; 8]).collect();
        let sums: Vec<u64> = runs
            .par_iter_mut()
            .with_max_len(1)
            .map(|run| run.par_iter_mut().map(|x| *x).sum::<u64>())
            .collect();
        assert_eq!(sums, vec![0, 8, 16, 24]);
    }
}
