//! The reproduction harness: every figure and table of the paper as a
//! library entry, and the machinery that runs them.
//!
//! Each entry of the figure registry ([`figures`]) regenerates one figure
//! or table: it prints the same series/rows the paper reports and writes a
//! CSV under `results/`. There is one way to execute a figure
//! ([`figures::run_figure`]) and one way to execute a run
//! ([`SweepEngine::try_trace_cancellable`]; a batch run is its
//! never-cancelled case), whoever asks: `src/bin/` holds exactly four
//! binaries — `reproduce_all` (the figure command line; one figure is
//! `--only <name>`), the `sweepd`/`sweepctl` service pair, and the
//! `obs_report` trace reader — and none per figure.
//! Around them: the smoke/quick/full scale switch, canonical experiment
//! scenarios, the declarative sweep engine that executes runs concurrently
//! in-process ([`sweep`]), the persistent content-addressed run store that
//! memoizes traces across processes ([`store`]), and plain-text reporting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod failpoint;
pub mod figures;
pub mod panel;
pub mod report;
pub mod scale;
pub mod scenarios;
pub mod server;
pub mod store;
pub mod supervisor;
pub mod sweep;

pub use panel::{panel_csv, report_panel, save_panel_csv};
pub use report::{ascii_series, write_csv, Table};
pub use scale::Scale;
pub use store::{CacheStats, GcStats, LoadOutcome, ParkedOutcome, RunStore, StoreLock};
pub use sweep::{
    standard_panel_specs, CancellableRun, Known, LrSpec, ScenarioSpec, SchedulerSpec, SweepEngine,
    SweepSpec, TraceSource,
};

/// `writeln!` into a figure's report buffer, ignoring the (infallible)
/// `fmt::Result` — figures build their stdout as a `String` so that
/// concurrently-executing figures never interleave their output.
#[macro_export]
macro_rules! sayln {
    ($out:expr) => { $out.push('\n') };
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($out, $($arg)*);
    }};
}
