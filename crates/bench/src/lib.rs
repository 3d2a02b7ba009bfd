//! Shared harness utilities for the figure/table reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one figure or table of the paper
//! and prints the same series/rows the paper reports, plus a CSV dump under
//! `results/`. This library holds the common pieces: the smoke/quick/full
//! scale switch, canonical experiment scenarios, the declarative sweep
//! engine that executes runs concurrently in-process ([`sweep`]), the
//! persistent content-addressed run store that memoizes traces across
//! processes ([`store`]), the figure registry ([`figures`]), and
//! plain-text reporting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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
