//! Renders (and validates) the JSONL telemetry profiles written by
//! `reproduce_all --trace DIR`.
//!
//! ```sh
//! cargo run --release -p adacomm-bench --bin obs_report -- [--check] DIR
//! ```
//!
//! Without flags, prints a per-window report for every `*.jsonl` file in
//! `DIR` (sorted by name): the per-phase wall-time attribution table
//! (span self/total seconds and share of the window's measured wall
//! clock), the byte-traffic counters, the sweep-service counters and
//! histograms (`server.*`, when the window has any), and the enriched
//! simulator trace point count.
//!
//! `--check` validates instead of rendering: every line must parse
//! against the schema (see `telemetry::schema`), every file must lead
//! with exactly one `meta` header, and the `phase.*` span self-times must
//! sum to the window's measured wall clock within `max(5%, 2 ms)` — the
//! structural guarantee that the phase taxonomy actually covers the run.
//! Windows whose meta line carries `"service":true` (the `sweepd`
//! profile) are exempt from the coverage rule — a daemon idles between
//! requests and its workers overlap — and their `server.*` counters and
//! histograms are printed one per line (`service <file>: server.shed = N`,
//! `service <file>: server.queue_wait_us = N (mean M)`) so CI can assert
//! on them. Exits non-zero listing every violation. The checker
//! is feature-free: it works in a `--no-default-features` build and on
//! traces recorded on another machine.

use adacomm_bench::Table;
use telemetry::schema::{self, Record};

/// Everything `obs_report` keeps from one trace file.
struct Window {
    file: String,
    task: String,
    scale: String,
    wall_secs: f64,
    service: bool,
    spans: Vec<(String, f64, f64, f64)>, // name, count, total, self
    counters: Vec<(String, f64)>,
    hists: Vec<(String, f64, f64)>, // name, count, sum
    points: usize,
    warnings: Vec<(String, String)>, // source, reason
    errors: Vec<String>,
}

/// Tolerance for the phase-coverage check: generous for sub-millisecond
/// analytic windows, 5% for real ones.
fn coverage_slack(wall_secs: f64) -> f64 {
    (0.05 * wall_secs).max(0.002)
}

fn read_window(path: &std::path::Path) -> Window {
    let file = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let mut win = Window {
        file,
        task: String::new(),
        scale: String::new(),
        wall_secs: 0.0,
        service: false,
        spans: Vec::new(),
        counters: Vec::new(),
        hists: Vec::new(),
        points: 0,
        warnings: Vec::new(),
        errors: Vec::new(),
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            win.errors.push(format!("unreadable: {e}"));
            return win;
        }
    };
    let mut metas = 0usize;
    for (idx, line) in text.lines().enumerate() {
        match schema::parse_line(line) {
            Ok(Record::Meta {
                task,
                scale,
                wall_secs,
                service,
                ..
            }) => {
                metas += 1;
                if idx != 0 {
                    win.errors
                        .push(format!("line {}: meta header not first", idx + 1));
                }
                win.task = task;
                win.scale = scale;
                win.wall_secs = wall_secs;
                win.service = service;
            }
            Ok(Record::Span {
                name,
                count,
                total_secs,
                self_secs,
            }) => win.spans.push((name, count, total_secs, self_secs)),
            Ok(Record::Counter { name, value }) => win.counters.push((name, value)),
            Ok(Record::Hist {
                name, count, sum, ..
            }) => win.hists.push((name, count, sum)),
            Ok(Record::Point { .. }) => win.points += 1,
            // Warnings are recovered anomalies: surfaced in the report
            // (and under --check), but never a validation violation.
            Ok(Record::Warning { source, reason }) => win.warnings.push((source, reason)),
            Ok(Record::Gauge { .. }) => {}
            Err(e) => win.errors.push(format!("line {}: {e}", idx + 1)),
        }
    }
    if metas != 1 {
        win.errors
            .push(format!("expected exactly 1 meta header, found {metas}"));
    }
    win
}

/// Sum of `phase.*` self-times — the disjoint partition of the window's
/// instrumented wall clock (kernel timers overlap phases, so they are
/// excluded).
fn phase_self_sum(win: &Window) -> f64 {
    win.spans
        .iter()
        .filter(|(name, ..)| name.starts_with("phase."))
        .map(|(_, _, _, self_secs)| self_secs)
        .sum()
}

fn check_window(win: &Window) -> Vec<String> {
    let mut violations: Vec<String> = win
        .errors
        .iter()
        .map(|e| format!("{}: {e}", win.file))
        .collect();
    // Service windows (meta `"service":true`, e.g. `sweepd`) are exempt
    // from phase coverage: a daemon idles between requests and its
    // workers overlap, so span self-times never tile the wall clock.
    let covered = phase_self_sum(win);
    if !win.service && (covered - win.wall_secs).abs() > coverage_slack(win.wall_secs) {
        violations.push(format!(
            "{}: phase self-times sum to {covered:.4} s but the window measured {:.4} s wall \
             (tolerance {:.4} s)",
            win.file,
            win.wall_secs,
            coverage_slack(win.wall_secs)
        ));
    }
    violations
}

/// The sweep service's metrics (`server.*`) as `(name, value)` rows, for
/// the dedicated table in the rendered report and the `service` lines
/// under `--check`: each counter's value, then each histogram's
/// observation count and mean.
fn server_metrics(win: &Window) -> Vec<(&str, String)> {
    let counters = win
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("server."))
        .map(|(name, value)| (name.as_str(), format!("{value:.0}")));
    let hists = win
        .hists
        .iter()
        .filter(|(name, ..)| name.starts_with("server."))
        .map(|(name, count, sum)| {
            let mean = sum / count.max(1.0);
            (name.as_str(), format!("{count:.0} (mean {mean:.1})"))
        });
    counters.chain(hists).collect()
}

fn render_window(win: &Window) {
    println!(
        "=== {} (task {}, scale {}{})",
        win.file,
        win.task,
        win.scale,
        if win.service { ", service" } else { "" }
    );
    let covered = phase_self_sum(win);
    println!(
        "wall {:.3} s; phase coverage {:.3} s ({:.1}%); {} trace points",
        win.wall_secs,
        covered,
        100.0 * covered / win.wall_secs.max(1e-9),
        win.points
    );
    if !win.spans.is_empty() {
        let mut table = Table::new(vec![
            "span".into(),
            "calls".into(),
            "total s".into(),
            "self s".into(),
            "% of wall".into(),
        ]);
        for (name, count, total, self_secs) in &win.spans {
            table.row(vec![
                name.clone(),
                format!("{count:.0}"),
                format!("{total:.4}"),
                format!("{self_secs:.4}"),
                format!("{:.1}", 100.0 * self_secs / win.wall_secs.max(1e-9)),
            ]);
        }
        table.print();
    }
    let bytes: Vec<&(String, f64)> = win
        .counters
        .iter()
        .filter(|(name, _)| name.ends_with("_bytes"))
        .collect();
    if !bytes.is_empty() {
        let mut table = Table::new(vec!["counter".into(), "bytes".into()]);
        for (name, value) in bytes {
            table.row(vec![name.clone(), format!("{value:.0}")]);
        }
        table.print();
    }
    let service = server_metrics(win);
    if !service.is_empty() {
        let mut table = Table::new(vec!["service metric".into(), "value".into()]);
        for (name, value) in service {
            table.row(vec![name.to_string(), value]);
        }
        table.print();
    }
    if !win.hists.is_empty() {
        let mut table = Table::new(vec!["histogram".into(), "count".into(), "sum".into()]);
        for (name, count, sum) in &win.hists {
            table.row(vec![
                name.clone(),
                format!("{count:.0}"),
                format!("{sum:.3}"),
            ]);
        }
        table.print();
    }
    for (source, reason) in &win.warnings {
        println!("warning [{source}]: {reason}");
    }
    println!();
}

fn usage_error(complaint: &str) -> ! {
    eprintln!("{complaint}\nusage: obs_report [--check] TRACE_DIR");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--chekc DIR` must not render and exit 0 where CI meant to validate.
    if let Err(complaint) = adacomm_bench::cli::check_args(&args, &[], &["--check"], 1) {
        usage_error(&complaint);
    }
    let dir = match args.iter().find(|a| !a.starts_with("--")) {
        Some(dir) => std::path::PathBuf::from(dir),
        None => usage_error("a trace directory is required"),
    };
    let check = args.iter().any(|a| a == "--check");
    let mut paths: Vec<std::path::PathBuf> = match std::fs::read_dir(&dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
            .collect(),
        Err(e) => {
            eprintln!("cannot read trace dir {}: {e}", dir.display());
            std::process::exit(2);
        }
    };
    paths.sort();
    if paths.is_empty() {
        eprintln!("no .jsonl trace files in {}", dir.display());
        std::process::exit(2);
    }

    let windows: Vec<Window> = paths.iter().map(|p| read_window(p)).collect();
    let violations: Vec<String> = windows.iter().flat_map(check_window).collect();

    if check {
        // Recovered anomalies are worth seeing in CI logs even when the
        // trace itself is structurally valid.
        for win in &windows {
            for (source, reason) in &win.warnings {
                println!("warning {} [{source}]: {reason}", win.file);
            }
            // Sweep-service metrics, one per line so CI can assert on
            // them (e.g. nonzero shed/dedup after a load run).
            for (name, value) in server_metrics(win) {
                println!("service {}: {name} = {value}", win.file);
            }
        }
        if violations.is_empty() {
            println!(
                "{} trace file(s) valid: schema ok, phase coverage within tolerance",
                windows.len()
            );
        } else {
            for v in &violations {
                eprintln!("INVALID {v}");
            }
            std::process::exit(1);
        }
    } else {
        for win in &windows {
            render_window(win);
        }
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("WARNING {v}");
            }
            std::process::exit(1);
        }
    }
}
