//! Observability primitives for the AdaComm reproduction: a metrics
//! registry, hierarchical span timers, and a JSON-lines event sink.
//!
//! Like the other crates under `crates/shims/`, this crate has no external
//! dependencies (the build environment has no registry access). Unlike the
//! shims it is not a stand-in for a published crate — it is the
//! observability substrate the sweep engine, simulator, and kernels report
//! through.
//!
//! # One build
//!
//! Counters, gauges, histograms, span timers, and the event sink are live
//! in every build; observing a run never changes what it computes. The one
//! cargo feature, `profile`, arms the hot-kernel timers
//! ([`kernel_timer`]): GEMM and codec entry points are much hotter than
//! per-round phase spans, so without it a kernel timer is an empty guard.
//!
//! # Primitives
//!
//! * **Registry** ([`counter`], [`gauge`], [`histogram`]): named atomic
//!   cells in a global, sorted registry. Counters and histogram buckets are
//!   plain integer accumulators, so merged totals are identical no matter
//!   how work was split across threads — 1-thread and 4-thread runs of the
//!   same workload produce the same [`snapshot`].
//! * **Spans** ([`span`]): hierarchical wall-clock timers with a
//!   thread-local stack. Each span records its total elapsed time and its
//!   *self* time (elapsed minus time spent in child spans), so a set of
//!   sibling phases partitions its parent's wall clock without double
//!   counting.
//! * **Event sink** ([`install_sink`], [`emit`]): an in-memory JSON-lines
//!   buffer for structured per-point events, drained by the caller and
//!   written with [`write_jsonl_atomic`] ([`binio::install`]: temp file,
//!   fsync, rename). A [`Profiler`] owns one such sink and cuts a run
//!   into JSONL profile windows.
//!
//! # Example
//!
//! ```
//! let rounds = telemetry::counter("example.rounds");
//! let before = telemetry::snapshot();
//! {
//!     let _phase = telemetry::span("phase.example");
//!     rounds.add(3);
//! }
//! let delta = telemetry::snapshot().delta_since(&before);
//! assert_eq!(delta.counters, vec![("example.rounds".to_string(), 3)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod schema;

use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The global registry's cells, the thread-local span stack, and the
/// event-sink slot behind the public handles.
mod cells {
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};
    use std::time::Instant;

    /// Fixed histogram bucket count: one bucket per power-of-two magnitude.
    pub const HIST_BUCKETS: usize = 64;

    pub struct HistCell {
        pub buckets: [AtomicU64; HIST_BUCKETS],
        pub count: AtomicU64,
        /// Saturating sum in fixed-point micro-units (`value * 1e6`), so the
        /// merged sum is an integer accumulation — commutative, hence
        /// identical across thread splits.
        pub sum_micros: AtomicU64,
    }

    pub struct SpanCell {
        pub count: AtomicU64,
        pub total_nanos: AtomicU64,
        pub self_nanos: AtomicU64,
    }

    #[derive(Default)]
    pub struct Registry {
        pub counters: Mutex<BTreeMap<&'static str, &'static AtomicU64>>,
        pub gauges: Mutex<BTreeMap<&'static str, &'static AtomicI64>>,
        pub hists: Mutex<BTreeMap<&'static str, &'static HistCell>>,
        pub spans: Mutex<BTreeMap<&'static str, &'static SpanCell>>,
    }

    pub fn registry() -> &'static Registry {
        static REGISTRY: OnceLock<Registry> = OnceLock::new();
        REGISTRY.get_or_init(Registry::default)
    }

    pub fn counter_cell(name: &'static str) -> &'static AtomicU64 {
        let mut map = registry().counters.lock().unwrap();
        map.entry(name)
            .or_insert_with(|| Box::leak(Box::new(AtomicU64::new(0))))
    }

    pub fn gauge_cell(name: &'static str) -> &'static AtomicI64 {
        let mut map = registry().gauges.lock().unwrap();
        map.entry(name)
            .or_insert_with(|| Box::leak(Box::new(AtomicI64::new(0))))
    }

    pub fn hist_cell(name: &'static str) -> &'static HistCell {
        let mut map = registry().hists.lock().unwrap();
        map.entry(name).or_insert_with(|| {
            Box::leak(Box::new(HistCell {
                buckets: [(); HIST_BUCKETS].map(|()| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum_micros: AtomicU64::new(0),
            }))
        })
    }

    pub fn span_cell(name: &'static str) -> &'static SpanCell {
        let mut map = registry().spans.lock().unwrap();
        map.entry(name).or_insert_with(|| {
            Box::leak(Box::new(SpanCell {
                count: AtomicU64::new(0),
                total_nanos: AtomicU64::new(0),
                self_nanos: AtomicU64::new(0),
            }))
        })
    }

    /// Bucket index for a histogram observation: bucket 0 holds values
    /// `<= 0`, bucket `i` (1..=63) holds values with binary exponent
    /// `i - 33` (so bucket 33 is `[1, 2)`), clamped at both ends. Derived
    /// from the IEEE-754 exponent bits — exact and order-independent.
    pub fn bucket_index(value: f64) -> usize {
        if value.is_nan() || value <= 0.0 {
            return 0;
        }
        let exp = ((value.to_bits() >> 52) & 0x7ff) as i64 - 1023;
        (exp + 33).clamp(1, HIST_BUCKETS as i64 - 1) as usize
    }

    /// Saturating fixed-point accumulation of `value * 1e6` into `cell`.
    pub fn add_micros_saturating(cell: &AtomicU64, value: f64) {
        let add = if value <= 0.0 {
            0u64
        } else {
            let scaled = value * 1e6;
            if scaled >= u64::MAX as f64 {
                u64::MAX
            } else {
                scaled.round() as u64
            }
        };
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(add);
            match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    thread_local! {
        /// Per-thread stack of child-time accumulators for open spans.
        pub static CHILD_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    }

    /// Adds one finished activation of `elapsed` nanoseconds, `self_nanos`
    /// of them outside child spans, to `cell`.
    pub fn record(cell: &SpanCell, elapsed: u64, self_nanos: u64) {
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.total_nanos.fetch_add(elapsed, Ordering::Relaxed);
        cell.self_nanos.fetch_add(self_nanos, Ordering::Relaxed);
    }

    /// Nanoseconds since `start`, saturated to `u64`.
    pub fn nanos_since(start: Instant) -> u64 {
        start.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    pub static SINK_ACTIVE: AtomicBool = AtomicBool::new(false);

    pub fn sink_slot() -> &'static Mutex<Option<Arc<super::EventSink>>> {
        static SINK: OnceLock<Mutex<Option<Arc<super::EventSink>>>> = OnceLock::new();
        SINK.get_or_init(|| Mutex::new(None))
    }
}

/// Whether hot-kernel timers are compiled in (`profile` feature).
pub const fn profile_enabled() -> bool {
    cfg!(feature = "profile")
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Handle to a named monotonic counter. Handles are cheap `Copy` values;
/// hot call sites should obtain one once and reuse it.
#[derive(Clone, Copy)]
pub struct Counter {
    cell: &'static std::sync::atomic::AtomicU64,
}

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
}

/// Look up (registering on first use) the counter named `name`.
#[inline]
pub fn counter(name: &'static str) -> Counter {
    Counter {
        cell: cells::counter_cell(name),
    }
}

// ---------------------------------------------------------------------------
// Gauges
// ---------------------------------------------------------------------------

/// Handle to a named signed gauge (instantaneous level, e.g. queue depth).
#[derive(Clone, Copy)]
pub struct Gauge {
    cell: &'static std::sync::atomic::AtomicI64,
}

impl Gauge {
    /// Add `n` (may be negative) to the gauge.
    #[inline]
    pub fn add(&self, n: i64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Set the gauge to `n`.
    #[inline]
    pub fn set(&self, n: i64) {
        self.cell.store(n, Ordering::Relaxed);
    }
}

/// Look up (registering on first use) the gauge named `name`.
#[inline]
pub fn gauge(name: &'static str) -> Gauge {
    Gauge {
        cell: cells::gauge_cell(name),
    }
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Handle to a named fixed-bucket histogram (one bucket per power-of-two
/// magnitude). Bucket counts and the fixed-point sum are integer
/// accumulations, so merged output is identical across thread splits.
#[derive(Clone, Copy)]
pub struct Histogram {
    cell: &'static cells::HistCell,
}

impl Histogram {
    /// Record one observation. Negative and non-finite values land in
    /// bucket 0 and contribute nothing to the sum.
    #[inline]
    pub fn observe(&self, value: f64) {
        let idx = cells::bucket_index(value);
        self.cell.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.cell.count.fetch_add(1, Ordering::Relaxed);
        cells::add_micros_saturating(&self.cell.sum_micros, value);
    }
}

/// Look up (registering on first use) the histogram named `name`.
#[inline]
pub fn histogram(name: &'static str) -> Histogram {
    Histogram {
        cell: cells::hist_cell(name),
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// RAII guard for a hierarchical wall-clock span; records on drop.
///
/// While a guard is alive, spans opened on the same thread are its
/// children: their elapsed time is subtracted from this span's *self*
/// time, so sibling phases partition their parent without double counting.
#[must_use = "a span records its timing when the guard is dropped"]
pub struct SpanGuard {
    cell: &'static cells::SpanCell,
    start: std::time::Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = cells::nanos_since(self.start);
        let child = cells::CHILD_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let child = stack.pop().unwrap_or(0);
            if let Some(parent) = stack.last_mut() {
                *parent = parent.saturating_add(elapsed);
            }
            child
        });
        cells::record(self.cell, elapsed, elapsed.saturating_sub(child));
    }
}

/// Open a span named `name` on the current thread.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    let cell = cells::span_cell(name);
    cells::CHILD_STACK.with(|stack| stack.borrow_mut().push(0));
    SpanGuard {
        cell,
        start: std::time::Instant::now(),
    }
}

/// RAII guard for a flat hot-kernel timer; records on drop.
///
/// Unlike [`span`], kernel timers do not participate in the thread-local
/// span hierarchy (their time still counts as their enclosing span's self
/// time) and are only live under the `profile` feature. Their snapshot
/// rows report `self == total`.
#[must_use = "a kernel timer records when the guard is dropped"]
pub struct KernelGuard {
    #[cfg(feature = "profile")]
    cell: &'static cells::SpanCell,
    #[cfg(feature = "profile")]
    start: std::time::Instant,
}

#[cfg(feature = "profile")]
impl Drop for KernelGuard {
    fn drop(&mut self) {
        let elapsed = cells::nanos_since(self.start);
        cells::record(self.cell, elapsed, elapsed);
    }
}

/// Start a flat kernel timer named `name` (no-op unless `profile` is on).
#[inline]
pub fn kernel_timer(name: &'static str) -> KernelGuard {
    #[cfg(feature = "profile")]
    {
        KernelGuard {
            cell: cells::span_cell(name),
            start: std::time::Instant::now(),
        }
    }
    #[cfg(not(feature = "profile"))]
    {
        let _ = name;
        KernelGuard {}
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Point-in-time copy of one histogram's merged state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Registered histogram name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Saturating fixed-point sum of observations in micro-units
    /// (`value * 1e6`).
    pub sum_micros: u64,
    /// Non-empty buckets as `(bucket index, count)`, ascending by index.
    pub buckets: Vec<(u32, u64)>,
}

/// Point-in-time copy of one span's (or kernel timer's) merged state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Registered span name.
    pub name: String,
    /// Completed activations.
    pub count: u64,
    /// Total wall-clock nanoseconds across activations.
    pub total_nanos: u64,
    /// Total minus time attributed to child spans.
    pub self_nanos: u64,
}

/// Point-in-time copy of the whole registry, sorted by name within each
/// kind.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` for every registered counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every registered gauge.
    pub gauges: Vec<(String, i64)>,
    /// Every registered histogram.
    pub hists: Vec<HistSnapshot>,
    /// Every registered span and kernel timer.
    pub spans: Vec<SpanSnapshot>,
}

/// Capture a [`Snapshot`] of the global registry.
pub fn snapshot() -> Snapshot {
    let reg = cells::registry();
    let counters = reg
        .counters
        .lock()
        .unwrap()
        .iter()
        .map(|(name, cell)| (name.to_string(), cell.load(Ordering::Relaxed)))
        .collect();
    let gauges = reg
        .gauges
        .lock()
        .unwrap()
        .iter()
        .map(|(name, cell)| (name.to_string(), cell.load(Ordering::Relaxed)))
        .collect();
    let hists = reg
        .hists
        .lock()
        .unwrap()
        .iter()
        .map(|(name, cell)| HistSnapshot {
            name: name.to_string(),
            count: cell.count.load(Ordering::Relaxed),
            sum_micros: cell.sum_micros.load(Ordering::Relaxed),
            buckets: cell
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(idx, bucket)| {
                    let n = bucket.load(Ordering::Relaxed);
                    (n > 0).then_some((idx as u32, n))
                })
                .collect(),
        })
        .collect();
    let spans = reg
        .spans
        .lock()
        .unwrap()
        .iter()
        .map(|(name, cell)| SpanSnapshot {
            name: name.to_string(),
            count: cell.count.load(Ordering::Relaxed),
            total_nanos: cell.total_nanos.load(Ordering::Relaxed),
            self_nanos: cell.self_nanos.load(Ordering::Relaxed),
        })
        .collect();
    Snapshot {
        counters,
        gauges,
        hists,
        spans,
    }
}

impl Snapshot {
    /// The change between `earlier` and `self`: counters, histogram
    /// buckets/sums, and span totals are subtracted (saturating, in case a
    /// name did not exist at `earlier`); gauges keep their current value.
    /// Entries whose delta is entirely zero are dropped.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let counter_base: std::collections::BTreeMap<&str, u64> = earlier
            .counters
            .iter()
            .map(|(n, v)| (n.as_str(), *v))
            .collect();
        let counters = self
            .counters
            .iter()
            .filter_map(|(name, value)| {
                let delta =
                    value.saturating_sub(counter_base.get(name.as_str()).copied().unwrap_or(0));
                (delta > 0).then(|| (name.clone(), delta))
            })
            .collect();

        let gauges = self.gauges.clone();

        let hist_base: std::collections::BTreeMap<&str, &HistSnapshot> =
            earlier.hists.iter().map(|h| (h.name.as_str(), h)).collect();
        let hists = self
            .hists
            .iter()
            .filter_map(|h| {
                let base = hist_base.get(h.name.as_str());
                let base_buckets: std::collections::BTreeMap<u32, u64> = base
                    .map(|b| b.buckets.iter().copied().collect())
                    .unwrap_or_default();
                let delta = HistSnapshot {
                    name: h.name.clone(),
                    count: h.count.saturating_sub(base.map_or(0, |b| b.count)),
                    sum_micros: h
                        .sum_micros
                        .saturating_sub(base.map_or(0, |b| b.sum_micros)),
                    buckets: h
                        .buckets
                        .iter()
                        .filter_map(|&(idx, n)| {
                            let d = n.saturating_sub(base_buckets.get(&idx).copied().unwrap_or(0));
                            (d > 0).then_some((idx, d))
                        })
                        .collect(),
                };
                (delta.count > 0).then_some(delta)
            })
            .collect();

        let span_base: std::collections::BTreeMap<&str, &SpanSnapshot> =
            earlier.spans.iter().map(|s| (s.name.as_str(), s)).collect();
        let spans = self
            .spans
            .iter()
            .filter_map(|s| {
                let base = span_base.get(s.name.as_str());
                let delta = SpanSnapshot {
                    name: s.name.clone(),
                    count: s.count.saturating_sub(base.map_or(0, |b| b.count)),
                    total_nanos: s
                        .total_nanos
                        .saturating_sub(base.map_or(0, |b| b.total_nanos)),
                    self_nanos: s
                        .self_nanos
                        .saturating_sub(base.map_or(0, |b| b.self_nanos)),
                };
                (delta.count > 0 || delta.total_nanos > 0).then_some(delta)
            })
            .collect();

        Snapshot {
            counters,
            gauges,
            hists,
            spans,
        }
    }

    /// Render this snapshot as schema-valid JSONL lines (`counter`,
    /// `gauge`, `hist`, `span` records — no `meta` line; the caller
    /// prepends one describing the window).
    pub fn to_jsonl_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (name, value) in &self.counters {
            let mut obj = json::ObjectBuilder::new();
            obj.str_field("type", "counter");
            obj.str_field("name", name);
            obj.num_field("value", *value as f64);
            lines.push(obj.finish());
        }
        for (name, value) in &self.gauges {
            let mut obj = json::ObjectBuilder::new();
            obj.str_field("type", "gauge");
            obj.str_field("name", name);
            obj.num_field("value", *value as f64);
            lines.push(obj.finish());
        }
        for h in &self.hists {
            let mut obj = json::ObjectBuilder::new();
            obj.str_field("type", "hist");
            obj.str_field("name", &h.name);
            obj.num_field("count", h.count as f64);
            obj.num_field("sum", h.sum_micros as f64 / 1e6);
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|&(idx, n)| format!("[{idx},{n}]"))
                .collect();
            obj.raw_field("buckets", &format!("[{}]", buckets.join(",")));
            lines.push(obj.finish());
        }
        for s in &self.spans {
            let mut obj = json::ObjectBuilder::new();
            obj.str_field("type", "span");
            obj.str_field("name", &s.name);
            obj.num_field("count", s.count as f64);
            obj.num_field("total_secs", s.total_nanos as f64 / 1e9);
            obj.num_field("self_secs", s.self_nanos as f64 / 1e9);
            lines.push(obj.finish());
        }
        lines
    }
}

// ---------------------------------------------------------------------------
// Event sink
// ---------------------------------------------------------------------------

/// In-memory JSON-lines buffer for structured events ("point" records from
/// the simulator). Installed globally with [`install_sink`]; producers call
/// [`emit`]; the owner drains and writes the lines.
#[derive(Default)]
pub struct EventSink {
    lines: std::sync::Mutex<Vec<String>>,
}

impl EventSink {
    /// Create an empty sink behind an `Arc` (ready for [`install_sink`]).
    pub fn new() -> Arc<EventSink> {
        Arc::new(EventSink::default())
    }

    /// Append one pre-rendered JSON line.
    pub fn push_line(&self, line: String) {
        self.lines.lock().unwrap().push(line);
    }

    /// Remove and return all buffered lines.
    pub fn drain(&self) -> Vec<String> {
        std::mem::take(&mut *self.lines.lock().unwrap())
    }
}

/// Install `sink` as the global event sink (`None` uninstalls). Returns
/// the previously installed sink, if any.
pub fn install_sink(sink: Option<Arc<EventSink>>) -> Option<Arc<EventSink>> {
    let mut slot = cells::sink_slot().lock().unwrap();
    cells::SINK_ACTIVE.store(sink.is_some(), Ordering::Relaxed);
    std::mem::replace(&mut *slot, sink)
}

/// Emit one event line to the installed sink. The closure is only invoked
/// when a sink is installed, so callers can build the line lazily.
#[inline]
pub fn emit<F: FnOnce() -> String>(build: F) {
    if cells::SINK_ACTIVE.load(Ordering::Relaxed) {
        let sink = cells::sink_slot().lock().unwrap().clone();
        if let Some(sink) = sink {
            sink.push_line(build());
        }
    }
}

/// Whether an event sink is currently installed.
pub fn sink_active() -> bool {
    cells::SINK_ACTIVE.load(Ordering::Relaxed)
}

/// A profile being recorded: installs a fresh [`EventSink`] on
/// [`start`](Profiler::start), writes one JSONL window per
/// [`cut`](Profiler::cut), and reinstalls the previous sink when dropped
/// (error paths included).
pub struct Profiler {
    sink: Arc<EventSink>,
    previous: Option<Arc<EventSink>>,
    window_start: Snapshot,
}

impl Profiler {
    /// Installs a fresh sink and opens the first window.
    pub fn start() -> Profiler {
        let sink = EventSink::new();
        let previous = install_sink(Some(sink.clone()));
        Profiler {
            sink,
            previous,
            window_start: snapshot(),
        }
    }

    /// Closes the open window into `path` and opens the next: `meta` (a
    /// [`schema`] `meta` line describing the window), the registry's
    /// [`Snapshot::delta_since`] the window opened, then the events
    /// emitted meanwhile.
    ///
    /// # Errors
    ///
    /// The I/O error of [`write_jsonl_atomic`]; the next window is open
    /// either way.
    pub fn cut(&mut self, path: &Path, meta: String) -> io::Result<()> {
        let now = snapshot();
        let mut lines = vec![meta];
        lines.extend(now.delta_since(&self.window_start).to_jsonl_lines());
        lines.extend(self.sink.drain());
        self.window_start = now;
        write_jsonl_atomic(path, &lines)
    }
}

impl Drop for Profiler {
    fn drop(&mut self) {
        install_sink(self.previous.take());
    }
}

// ---------------------------------------------------------------------------
// Atomic JSONL file output
// ---------------------------------------------------------------------------

/// Write `lines` to `path` as newline-terminated JSONL with
/// [`binio::install`], creating the directory if needed, so readers never
/// observe a partially written profile and a failed write leaves nothing
/// behind.
pub fn write_jsonl_atomic(path: &Path, lines: &[String]) -> io::Result<()> {
    if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let text: String = lines
        .iter()
        .flat_map(|line| [line.as_str(), "\n"])
        .collect();
    binio::install(path, text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The event sink is process-global: tests that install one serialize.
    fn sink_lock() -> MutexGuard<'static, ()> {
        static SINK: Mutex<()> = Mutex::new(());
        SINK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn counters_and_deltas() {
        let c = counter("test.counter");
        let before = snapshot();
        c.add(5);
        c.inc();
        let delta = snapshot().delta_since(&before);
        assert_eq!(
            delta
                .counters
                .iter()
                .find(|(n, _)| n == "test.counter")
                .map(|(_, v)| *v),
            Some(6)
        );
    }

    #[test]
    fn gauges_track_levels() {
        let g = gauge("test.gauge");
        g.set(10);
        g.add(-3);
        assert_eq!(
            snapshot()
                .gauges
                .iter()
                .find(|(n, _)| n == "test.gauge")
                .map(|(_, v)| *v),
            Some(7)
        );
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let h = histogram("test.hist");
        let before = snapshot();
        h.observe(1.5); // exponent 0 -> bucket 33
        h.observe(1.75); // bucket 33
        h.observe(4.0); // exponent 2 -> bucket 35
        h.observe(-1.0); // bucket 0, no sum contribution
        let delta = snapshot().delta_since(&before);
        let h = delta.hists.iter().find(|h| h.name == "test.hist").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.buckets, vec![(0, 1), (33, 2), (35, 1)]);
        assert_eq!(h.sum_micros, 7_250_000);
    }

    #[test]
    fn span_self_time_excludes_children() {
        let before = snapshot();
        {
            let _outer = span("test.span_outer");
            std::thread::sleep(std::time::Duration::from_millis(4));
            {
                let _inner = span("test.span_inner");
                std::thread::sleep(std::time::Duration::from_millis(8));
            }
        }
        let delta = snapshot().delta_since(&before);
        let find = |name: &str| delta.spans.iter().find(|s| s.name == name).unwrap();
        let (outer, inner) = (find("test.span_outer"), find("test.span_inner"));
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(outer.total_nanos >= inner.total_nanos);
        // Outer self time must exclude the inner 8 ms sleep.
        assert!(outer.self_nanos <= outer.total_nanos - inner.total_nanos + 1_000_000);
        assert_eq!(inner.self_nanos, inner.total_nanos);
    }

    #[test]
    fn sink_collects_emitted_lines() {
        let _sink = sink_lock();
        let sink = EventSink::new();
        let previous = install_sink(Some(sink.clone()));
        emit(|| {
            "{\"type\":\"meta\",\"schema\":1,\"task\":\"t\",\"scale\":\"smoke\",\"wall_secs\":0}"
                .to_string()
        });
        install_sink(previous);
        let lines = sink.drain();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"meta\""));
        // After uninstalling, emits go nowhere.
        emit(unreachable_line);
    }

    fn unreachable_line() -> String {
        // `emit` must not invoke the builder when no sink is installed.
        if sink_active() {
            panic!("builder invoked with no sink installed");
        }
        String::new()
    }

    #[test]
    fn snapshot_jsonl_lines_are_schema_valid() {
        let c = counter("test.jsonl_counter");
        c.add(2);
        histogram("test.jsonl_hist").observe(3.0);
        {
            let _s = span("test.jsonl_span");
        }
        let snap = snapshot();
        for line in snap.to_jsonl_lines() {
            schema::validate_line(&line).unwrap_or_else(|e| panic!("invalid line {line}: {e}"));
        }
    }

    #[test]
    fn atomic_jsonl_write_round_trips() {
        let dir = std::env::temp_dir().join("telemetry_test_atomic_write");
        let path = dir.join("out.jsonl");
        let lines = vec!["{\"type\":\"counter\",\"name\":\"a\",\"value\":1}".to_string()];
        write_jsonl_atomic(&path, &lines).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read, format!("{}\n", lines[0]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_jsonl_write_leaves_no_temp_file() {
        let dir =
            std::env::temp_dir().join(format!("telemetry_failed_write_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // The target is an existing directory, so the rename fails.
        let path = dir.join("sweepd.jsonl");
        std::fs::create_dir_all(&path).unwrap();
        assert!(write_jsonl_atomic(&path, &["{}".to_string()]).is_err());
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, ["sweepd.jsonl"], "only the directory itself stays");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profiler_cuts_windows_and_restores_the_sink() {
        let _sink = sink_lock();
        let dir = std::env::temp_dir().join(format!("telemetry_profiler_{}", std::process::id()));
        let outer = EventSink::new();
        install_sink(Some(outer.clone()));
        let mut profiler = Profiler::start();
        counter("test.profiler_counter").add(2);
        emit(|| "{\"type\":\"warning\",\"source\":\"t\",\"reason\":\"r\"}".to_string());
        let meta = schema::meta_line("first", "smoke", 0.5);
        profiler
            .cut(&dir.join("first.jsonl"), meta.clone())
            .unwrap();
        profiler
            .cut(
                &dir.join("second.jsonl"),
                schema::meta_line("second", "smoke", 0.0),
            )
            .unwrap();
        drop(profiler);
        assert!(
            Arc::ptr_eq(&install_sink(None).unwrap(), &outer),
            "drop reinstalls the sink that was there before"
        );
        assert!(outer.drain().is_empty(), "the profiler took every event");

        let first = std::fs::read_to_string(dir.join("first.jsonl")).unwrap();
        let lines: Vec<&str> = first.lines().collect();
        assert_eq!(lines[0], meta);
        assert!(lines
            .contains(&"{\"type\":\"counter\",\"name\":\"test.profiler_counter\",\"value\":2}"));
        assert!(
            lines.last().unwrap().contains("\"warning\""),
            "events come last"
        );
        let second = std::fs::read_to_string(dir.join("second.jsonl")).unwrap();
        assert!(
            !second.contains("test.profiler_counter"),
            "a cut opens a new window"
        );
        assert!(!second.contains("\"warning\""));
        for line in first.lines().chain(second.lines()) {
            schema::validate_line(line).unwrap_or_else(|e| panic!("invalid line {line}: {e}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "profile")]
    #[test]
    fn kernel_timer_records_one_flat_row() {
        let before = snapshot();
        drop(kernel_timer("test.kernel_timer"));
        let delta = snapshot().delta_since(&before);
        let rows: Vec<&SpanSnapshot> = delta
            .spans
            .iter()
            .filter(|s| s.name == "test.kernel_timer")
            .collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].count, 1);
        assert_eq!(rows[0].self_nanos, rows[0].total_nanos);
    }

    #[test]
    fn bucket_index_is_monotonic() {
        let mut last = 0;
        for exp in -40..40 {
            let idx = {
                let h = histogram("test.bucket_probe");
                let before = snapshot();
                h.observe(2f64.powi(exp));
                let delta = snapshot().delta_since(&before);
                delta
                    .hists
                    .iter()
                    .find(|h| h.name == "test.bucket_probe")
                    .unwrap()
                    .buckets
                    .last()
                    .unwrap()
                    .0
            };
            assert!(idx >= last, "bucket index not monotonic at 2^{exp}");
            last = idx;
        }
    }
}
