//! Zero-cost-when-disabled observability primitives for the AdaComm
//! reproduction: a metrics registry, hierarchical span timers, and a
//! JSON-lines event sink.
//!
//! Like the other crates under `crates/shims/`, this crate has no external
//! dependencies (the build environment has no registry access). Unlike the
//! shims it is not a stand-in for a published crate — it is the
//! observability substrate the sweep engine, simulator, and kernels report
//! through.
//!
//! # Feature gates
//!
//! * Default (no features): every recording type is a zero-sized struct and
//!   every recording call is an empty inline function. Instrumented crates
//!   compile to the same code as uninstrumented ones; figure CSVs are
//!   byte-identical either way.
//! * `enabled`: counters, gauges, histograms, span timers, and the event
//!   sink are live.
//! * `profile` (implies `enabled`): hot-kernel timers ([`kernel_timer`])
//!   are live too. Kept separate because GEMM/codec entry points are much
//!   hotter than per-round phase spans.
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
//!   fsync, rename).
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
//! if telemetry::is_enabled() {
//!     assert_eq!(delta.counters, vec![("example.rounds".to_string(), 3)]);
//! } else {
//!     assert!(delta.counters.is_empty());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod schema;

use std::io;
use std::path::Path;

#[cfg(feature = "enabled")]
mod live {
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

    pub struct SpanGuardInner {
        pub cell: &'static SpanCell,
        pub start: Instant,
    }

    impl Drop for SpanGuardInner {
        fn drop(&mut self) {
            let elapsed = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let child = CHILD_STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                let child = stack.pop().unwrap_or(0);
                if let Some(parent) = stack.last_mut() {
                    *parent = parent.saturating_add(elapsed);
                }
                child
            });
            self.cell.count.fetch_add(1, Ordering::Relaxed);
            self.cell.total_nanos.fetch_add(elapsed, Ordering::Relaxed);
            self.cell
                .self_nanos
                .fetch_add(elapsed.saturating_sub(child), Ordering::Relaxed);
        }
    }

    pub static SINK_ACTIVE: AtomicBool = AtomicBool::new(false);

    pub fn sink_slot() -> &'static Mutex<Option<Arc<super::EventSink>>> {
        static SINK: OnceLock<Mutex<Option<Arc<super::EventSink>>>> = OnceLock::new();
        SINK.get_or_init(|| Mutex::new(None))
    }
}

/// Whether the metrics registry, spans, and event sink are compiled in
/// (`enabled` feature).
pub const fn is_enabled() -> bool {
    cfg!(feature = "enabled")
}

/// Whether hot-kernel timers are compiled in (`profile` feature).
pub const fn profile_enabled() -> bool {
    cfg!(feature = "profile")
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Handle to a named monotonic counter. Zero-sized and inert without the
/// `enabled` feature. Handles are cheap `Copy` values; hot call sites
/// should obtain one once and reuse it.
#[derive(Clone, Copy)]
pub struct Counter {
    #[cfg(feature = "enabled")]
    cell: &'static std::sync::atomic::AtomicU64,
}

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        #[cfg(feature = "enabled")]
        self.cell.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
        #[cfg(not(feature = "enabled"))]
        let _ = n;
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
    #[cfg(feature = "enabled")]
    {
        Counter {
            cell: live::counter_cell(name),
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = name;
        Counter {}
    }
}

// ---------------------------------------------------------------------------
// Gauges
// ---------------------------------------------------------------------------

/// Handle to a named signed gauge (instantaneous level, e.g. queue depth).
#[derive(Clone, Copy)]
pub struct Gauge {
    #[cfg(feature = "enabled")]
    cell: &'static std::sync::atomic::AtomicI64,
}

impl Gauge {
    /// Add `n` (may be negative) to the gauge.
    #[inline]
    pub fn add(&self, n: i64) {
        #[cfg(feature = "enabled")]
        self.cell.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
        #[cfg(not(feature = "enabled"))]
        let _ = n;
    }

    /// Set the gauge to `n`.
    #[inline]
    pub fn set(&self, n: i64) {
        #[cfg(feature = "enabled")]
        self.cell.store(n, std::sync::atomic::Ordering::Relaxed);
        #[cfg(not(feature = "enabled"))]
        let _ = n;
    }
}

/// Look up (registering on first use) the gauge named `name`.
#[inline]
pub fn gauge(name: &'static str) -> Gauge {
    #[cfg(feature = "enabled")]
    {
        Gauge {
            cell: live::gauge_cell(name),
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = name;
        Gauge {}
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
    #[cfg(feature = "enabled")]
    cell: &'static live::HistCell,
}

impl Histogram {
    /// Record one observation. Negative and non-finite values land in
    /// bucket 0 and contribute nothing to the sum.
    #[inline]
    pub fn observe(&self, value: f64) {
        #[cfg(feature = "enabled")]
        {
            let idx = live::bucket_index(value);
            self.cell.buckets[idx].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.cell
                .count
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            live::add_micros_saturating(&self.cell.sum_micros, value);
        }
        #[cfg(not(feature = "enabled"))]
        let _ = value;
    }
}

/// Look up (registering on first use) the histogram named `name`.
#[inline]
pub fn histogram(name: &'static str) -> Histogram {
    #[cfg(feature = "enabled")]
    {
        Histogram {
            cell: live::hist_cell(name),
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = name;
        Histogram {}
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
    // Held purely for its Drop impl, which records the timing.
    #[cfg(feature = "enabled")]
    _inner: live::SpanGuardInner,
}

/// Open a span named `name` on the current thread.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    #[cfg(feature = "enabled")]
    {
        let cell = live::span_cell(name);
        live::CHILD_STACK.with(|stack| stack.borrow_mut().push(0));
        SpanGuard {
            _inner: live::SpanGuardInner {
                cell,
                start: std::time::Instant::now(),
            },
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = name;
        SpanGuard {}
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
    cell: &'static live::SpanCell,
    #[cfg(feature = "profile")]
    start: std::time::Instant,
}

#[cfg(feature = "profile")]
impl Drop for KernelGuard {
    fn drop(&mut self) {
        use std::sync::atomic::Ordering;
        let elapsed = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.cell.count.fetch_add(1, Ordering::Relaxed);
        self.cell.total_nanos.fetch_add(elapsed, Ordering::Relaxed);
        self.cell.self_nanos.fetch_add(elapsed, Ordering::Relaxed);
    }
}

/// Start a flat kernel timer named `name` (no-op unless `profile` is on).
#[inline]
pub fn kernel_timer(name: &'static str) -> KernelGuard {
    #[cfg(feature = "profile")]
    {
        KernelGuard {
            cell: live::span_cell(name),
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
/// kind. Empty when the `enabled` feature is off.
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
    #[cfg(feature = "enabled")]
    {
        use std::sync::atomic::Ordering;
        let reg = live::registry();
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
    #[cfg(not(feature = "enabled"))]
    {
        Snapshot::default()
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
    pub fn new() -> std::sync::Arc<EventSink> {
        std::sync::Arc::new(EventSink::default())
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
/// the previously installed sink, if any. No-op without `enabled`.
pub fn install_sink(sink: Option<std::sync::Arc<EventSink>>) -> Option<std::sync::Arc<EventSink>> {
    #[cfg(feature = "enabled")]
    {
        use std::sync::atomic::Ordering;
        let slot = live::sink_slot();
        let mut guard = slot.lock().unwrap();
        live::SINK_ACTIVE.store(sink.is_some(), Ordering::Relaxed);
        std::mem::replace(&mut *guard, sink)
    }
    #[cfg(not(feature = "enabled"))]
    {
        sink
    }
}

/// Emit one event line to the installed sink. The closure is only invoked
/// when telemetry is enabled *and* a sink is installed, so callers can
/// build the line lazily.
#[inline]
pub fn emit<F: FnOnce() -> String>(build: F) {
    #[cfg(feature = "enabled")]
    {
        use std::sync::atomic::Ordering;
        if live::SINK_ACTIVE.load(Ordering::Relaxed) {
            let sink = live::sink_slot().lock().unwrap().clone();
            if let Some(sink) = sink {
                sink.push_line(build());
            }
        }
    }
    #[cfg(not(feature = "enabled"))]
    let _ = build;
}

/// Whether an event sink is currently installed (always `false` when
/// telemetry is compiled out).
pub fn sink_active() -> bool {
    #[cfg(feature = "enabled")]
    {
        live::SINK_ACTIVE.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "enabled"))]
    {
        false
    }
}

// ---------------------------------------------------------------------------
// Atomic JSONL file output
// ---------------------------------------------------------------------------

/// Write `lines` to `path` as newline-terminated JSONL with
/// [`binio::install`], creating the directory if needed, so readers never
/// observe a partially written profile and a failed write leaves nothing
/// behind. Available in every build (the report tooling works on traces
/// recorded by an instrumented binary).
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

    #[test]
    fn disabled_build_reports_itself() {
        // This test suite runs in both feature configurations; the
        // constant must agree with the snapshot behaviour either way.
        if is_enabled() {
            counter("test.enabled_probe").inc();
            assert!(snapshot()
                .counters
                .iter()
                .any(|(n, _)| n == "test.enabled_probe"));
        } else {
            counter("test.enabled_probe").inc();
            assert_eq!(snapshot(), Snapshot::default());
        }
    }

    #[test]
    fn counters_and_deltas() {
        let c = counter("test.counter");
        let before = snapshot();
        c.add(5);
        c.inc();
        let delta = snapshot().delta_since(&before);
        if is_enabled() {
            assert_eq!(
                delta
                    .counters
                    .iter()
                    .find(|(n, _)| n == "test.counter")
                    .map(|(_, v)| *v),
                Some(6)
            );
        } else {
            assert!(delta.counters.is_empty());
        }
    }

    #[test]
    fn gauges_track_levels() {
        let g = gauge("test.gauge");
        g.set(10);
        g.add(-3);
        if is_enabled() {
            let snap = snapshot();
            assert_eq!(
                snap.gauges
                    .iter()
                    .find(|(n, _)| n == "test.gauge")
                    .map(|(_, v)| *v),
                Some(7)
            );
        }
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
        if is_enabled() {
            let h = delta.hists.iter().find(|h| h.name == "test.hist").unwrap();
            assert_eq!(h.count, 4);
            assert_eq!(h.buckets, vec![(0, 1), (33, 2), (35, 1)]);
            assert_eq!(h.sum_micros, 7_250_000);
        } else {
            assert!(delta.hists.is_empty());
        }
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
        if is_enabled() {
            let outer = delta
                .spans
                .iter()
                .find(|s| s.name == "test.span_outer")
                .unwrap();
            let inner = delta
                .spans
                .iter()
                .find(|s| s.name == "test.span_inner")
                .unwrap();
            assert_eq!(outer.count, 1);
            assert_eq!(inner.count, 1);
            assert!(outer.total_nanos >= inner.total_nanos);
            // Outer self time must exclude the inner 8 ms sleep.
            assert!(outer.self_nanos <= outer.total_nanos - inner.total_nanos + 1_000_000);
            assert_eq!(inner.self_nanos, inner.total_nanos);
        } else {
            assert!(delta.spans.is_empty());
        }
    }

    #[test]
    fn sink_collects_emitted_lines() {
        let sink = EventSink::new();
        let previous = install_sink(Some(sink.clone()));
        emit(|| {
            "{\"type\":\"meta\",\"schema\":1,\"task\":\"t\",\"scale\":\"smoke\",\"wall_secs\":0}"
                .to_string()
        });
        install_sink(previous);
        let lines = sink.drain();
        if is_enabled() {
            assert_eq!(lines.len(), 1);
            assert!(lines[0].contains("\"meta\""));
        } else {
            assert!(lines.is_empty());
        }
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
    fn bucket_index_is_monotonic() {
        if !is_enabled() {
            return;
        }
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
