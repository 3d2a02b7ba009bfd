//! Runs every figure/table target **in one process** and writes all CSVs
//! into `results/` — the one-shot reproduction driver.
//!
//! ```sh
//! cargo run --release -p adacomm-bench --bin reproduce_all -- \
//!     [--full|--smoke] [--only SUBSTR] [--sequential] [--no-cache] \
//!     [--trace DIR] [--json] [--inject-panic SUBSTR]
//! ```
//!
//! This is the only figure command line — there is no per-figure binary;
//! one figure is `--only <its registry name>`. It collects every selected
//! figure's declared sweep specs into one table, executes the
//! deduplicated union as a single run-parallel wave on the in-process
//! sweep engine, then renders all figures concurrently — each figure's
//! assertions still run, each figure's output prints un-interleaved in
//! registry order, and identical runs shared between figures (all 16 of
//! Table 1's, for instance) simulate exactly once.
//!
//! * `--only SUBSTR` reproduces just the figures whose name contains
//!   `SUBSTR` (e.g. `--only fig09_vgg_adacomm` for one figure — no
//!   registry name contains another — or `--only ablation` for a family),
//!   so partial reproductions don't pay for the full sweep. Matching
//!   nothing is a usage error (exit 2).
//! * Anything that is not a flag listed here or the value of one, and a
//!   value flag without its value, is a usage error (exit 2): a typo must
//!   never fall through to the full reproduction.
//! * `--sequential` / `--parallel` force the engine mode (the default is
//!   parallel exactly when the machine has more than one executor);
//!   `results/*.csv` are bit-identical across modes (the determinism
//!   test enforces the engine half of this guarantee).
//! * `--smoke` shrinks every simulated budget and redirects CSVs to
//!   `results/smoke/`, so CI exercises the whole in-process path in
//!   seconds without touching the committed quick-scale results.
//! * `--trace DIR` writes one JSONL telemetry profile per execution
//!   window (the sweep wave plus each figure) into `DIR` and appends a
//!   per-phase timing summary to the report. Requires the `trace`
//!   feature (on by default); tracing **forces the sequential engine**
//!   (an explicit notice is printed) so each profile is attributable to
//!   exactly one figure — combining `--trace` with an explicit
//!   `--parallel` is a hard argument conflict (exit 2). Inspect the
//!   profiles with the `obs_report` binary.
//! * `--json` replaces the human report with one machine-readable JSON
//!   document on stdout (per-figure wall times + cache statistics), for
//!   CI trend tracking.
//! * The engine's memoization is **persistent**: traces land in the
//!   content-addressed run store (`results/cache/`, or
//!   `results/smoke/cache/` under `--smoke`) and a warm re-run serves
//!   every cached run from disk — byte-identical CSVs in seconds instead
//!   of minutes. `--no-cache` runs fully cold without reading or writing
//!   the store; deleting the cache directory is always safe. The store's
//!   lock makes cache writers mutually exclusive: a reproduction against
//!   a cache a `sweepd` daemon is serving out of fails fast (exit 1,
//!   naming the holder) instead of interleaving writes. A run a daemon
//!   left parked mid-way in that cache is continued from its checkpoint
//!   (bit-identically), not recomputed beside it.
//! * Every sweep run executes under the supervisor (panic isolation,
//!   bounded seeded retry, optional per-run deadline). A run that fails
//!   terminally degrades the reproduction to a **partial-results
//!   report**: its figure fails with the supervisor's reason, every
//!   other figure still completes and writes its CSVs, a per-run failure
//!   table prints at the end, and the process exits non-zero.
//! * `--inject-panic SUBSTR` is the fault drill: every supervised run
//!   whose spec key contains `SUBSTR` panics on every attempt, proving
//!   the partial-results degradation end to end (CI runs this against
//!   one scenario and checks the other figures' CSVs are untouched).
//!
//! All human-readable output is assembled into a single buffer and
//! written to stdout in one call, so nothing a figure, the engine, or the
//! telemetry layer prints can interleave mid-line with the report.

use adacomm_bench::figures::{registry, reproduce_with_trace};
use adacomm_bench::{sayln, RunStore, Scale, SweepEngine, Table};
use std::io::Write;

const USAGE: &str = "\
usage: reproduce_all [--full|--smoke] [--only SUBSTR] [--sequential|--parallel]
                     [--no-cache] [--trace DIR] [--json] [--inject-panic SUBSTR]

  --full / --smoke      scale selection (default: quick)
  --only SUBSTR         reproduce only figures whose name contains SUBSTR
                        (a full registry name selects exactly that figure)
  --sequential          force the sequential engine
  --parallel            force the parallel engine
  --no-cache            ignore the persistent run store entirely
  --trace DIR           write per-window JSONL telemetry profiles to DIR;
                        forces the sequential engine so each profile is
                        attributable to exactly one figure
  --json                machine-readable report on stdout
  --inject-panic SUBSTR fault drill: panic every supervised run whose spec
                        key contains SUBSTR (the reproduction degrades to
                        a partial-results report and exits non-zero)
  --help                print this help";

/// Flags that take a value, with what the value is (for the error).
const VALUE_FLAGS: [(&str, &str); 3] = [
    ("--only", "a figure name or substring"),
    ("--trace", "a directory argument"),
    ("--inject-panic", "a substring argument"),
];

const SWITCHES: [&str; 6] = [
    "--full",
    "--smoke",
    "--sequential",
    "--parallel",
    "--no-cache",
    "--json",
];

fn usage_error(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    // Every argument must be a known flag or the value of one: this is the
    // only figure CLI, so `--ony fig09` must not run all 22 figures.
    if let Err(complaint) = adacomm_bench::cli::check_args(&args, &VALUE_FLAGS, &SWITCHES, 0) {
        usage_error(&complaint);
    }
    let value_of = |flag: &str| adacomm_bench::cli::value_of(&args, flag);
    let scale = Scale::from_env_and_args();
    let trace_dir = value_of("--trace").map(std::path::PathBuf::from);
    if trace_dir.is_some() && !telemetry::is_enabled() {
        eprintln!(
            "--trace requires the `trace` feature (this binary was built with \
             --no-default-features); rebuild with default features"
        );
        std::process::exit(2);
    }
    let json_mode = args.iter().any(|a| a == "--json");
    // Default: parallel iff the machine has more than one executor
    // (results are bit-identical either way); force with the flags.
    // Tracing overrides everything: per-figure snapshot deltas need the
    // strictly-ordered figure loop.
    let parallel = if trace_dir.is_some() {
        // An explicit --parallel is a hard conflict, not a silent
        // override: the user asked for two things that cannot coexist.
        if args.iter().any(|a| a == "--parallel") {
            eprintln!(
                "--trace and --parallel conflict: tracing requires the sequential \
                 engine (each telemetry profile must be attributable to exactly one \
                 figure); drop one of the flags"
            );
            std::process::exit(2);
        }
        if !args.iter().any(|a| a == "--sequential") {
            eprintln!(
                "notice: --trace forces the sequential engine (each telemetry profile \
                 must be attributable to exactly one figure)"
            );
        }
        false
    } else if args.iter().any(|a| a == "--sequential") {
        false
    } else if args.iter().any(|a| a == "--parallel") {
        true
    } else {
        adacomm_bench::sweep::hardware_parallelism()
    };
    let only = value_of("--only");
    if let Some(needle) = only {
        if !registry().iter().any(|f| f.name.contains(needle)) {
            usage_error(&format!("no figure matches --only {needle:?}"));
        }
    }
    if let Some(substr) = value_of("--inject-panic") {
        adacomm_bench::supervisor::inject_panics(substr, u32::MAX);
        eprintln!("fault drill: every supervised run matching {substr:?} will panic");
    }
    if scale.is_smoke() {
        adacomm_bench::report::set_results_subdir("smoke");
    }

    let mut out = String::new();
    sayln!(
        out,
        "reproduce_all (scale {scale}, {} engine{}{})",
        if parallel { "parallel" } else { "sequential" },
        only.map(|o| format!(", only *{o}*")).unwrap_or_default(),
        trace_dir
            .as_deref()
            .map(|d| format!(", tracing to {}", d.display()))
            .unwrap_or_default()
    );

    // Persistent memoization unless --no-cache: the store must be set up
    // after the --smoke results redirect so a smoke cache never mixes
    // with the quick-scale one. The store's lock excludes concurrent
    // writers — most importantly a running `sweepd` serving out of the
    // same cache — instead of interleaving their writes; the kernel
    // releases it however the holder ends.
    let mut engine = SweepEngine::with_parallelism(parallel);
    let mut _store_lock = None;
    if !args.iter().any(|a| a == "--no-cache") {
        let store = RunStore::new(RunStore::default_dir());
        match store.lock("reproduce_all") {
            Ok(lock) => _store_lock = Some(lock),
            Err(e) => {
                eprintln!(
                    "cannot lock the run store: {e}\n\
                     (is a sweepd daemon serving out of the same cache? stop it, or \
                     run with --no-cache)"
                );
                std::process::exit(1);
            }
        }
        engine = engine.with_store(store);
    }
    let before = telemetry::snapshot();
    let outcome = match reproduce_with_trace(scale, &engine, only, trace_dir.as_deref()) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("failed to write telemetry trace: {e}");
            std::process::exit(1);
        }
    };
    let phase_delta = telemetry::snapshot().delta_since(&before);
    let warnings = engine.take_warnings();
    let run_failures = engine.run_failures();

    let cache = engine.cache_stats();
    if json_mode {
        let mut doc = telemetry::json::ObjectBuilder::new();
        doc.str_field("scale", &format!("{scale}"));
        doc.str_field("engine", if parallel { "parallel" } else { "sequential" });
        let figures: Vec<String> = outcome
            .figures
            .iter()
            .map(|f| {
                let mut obj = telemetry::json::ObjectBuilder::new();
                obj.str_field("name", f.name);
                obj.num_field("wall_secs", f.wall_secs);
                obj.str_field("status", if f.failure.is_some() { "failed" } else { "ok" });
                obj.finish()
            })
            .collect();
        doc.raw_field("figures", &format!("[{}]", figures.join(",")));
        doc.num_field("sweep_secs", outcome.sweep_secs);
        doc.num_field("total_secs", outcome.total_secs);
        doc.num_field("unique_runs", outcome.unique_runs as f64);
        doc.num_field("cache_disk_hits", cache.disk_hits as f64);
        doc.num_field("cache_mem_hits", cache.mem_hits as f64);
        doc.num_field("cache_misses", cache.misses as f64);
        doc.num_field("cache_rejects", cache.rejects as f64);
        let failed_runs: Vec<String> = run_failures
            .iter()
            .map(|(key, reason)| {
                let mut obj = telemetry::json::ObjectBuilder::new();
                obj.str_field("key", key);
                obj.str_field("reason", reason);
                obj.finish()
            })
            .collect();
        doc.raw_field("run_failures", &format!("[{}]", failed_runs.join(",")));
        match engine.store() {
            Some(store) => doc.str_field("store_dir", &store.dir().display().to_string()),
            None => doc.raw_field("store_dir", "null"),
        }
        println!("{}", doc.finish());
    } else {
        for figure in &outcome.figures {
            sayln!(
                out,
                "\n================================================================"
            );
            sayln!(out, "=== {}", figure.name);
            sayln!(
                out,
                "================================================================"
            );
            out.push_str(&figure.output);
            if let Some(failure) = &figure.failure {
                sayln!(out, "{} FAILED: {failure}", figure.name);
            }
        }

        sayln!(
            out,
            "\n================================================================"
        );
        let mut timing = Table::new(vec!["figure".into(), "wall s".into(), "status".into()]);
        for figure in &outcome.figures {
            timing.row(vec![
                figure.name.to_string(),
                format!("{:.2}", figure.wall_secs),
                if figure.failure.is_some() {
                    "FAILED".into()
                } else {
                    "ok".into()
                },
            ]);
        }
        out.push_str(&timing.render());
        sayln!(
            out,
            "\nsweep wave: {:.2} s ({} unique runs); end-to-end: {:.2} s \
             (per-figure times overlap under the parallel engine)",
            outcome.sweep_secs,
            outcome.unique_runs,
            outcome.total_secs
        );
        match engine.store() {
            Some(store) => sayln!(
                out,
                "run store ({}): {} disk hits, {} memory hits, {} misses, {} rejected entries",
                store.dir().display(),
                cache.disk_hits,
                cache.mem_hits,
                cache.misses,
                cache.rejects
            ),
            None => sayln!(
                out,
                "run store: disabled (--no-cache); {} memory hits, {} misses",
                cache.mem_hits,
                cache.misses
            ),
        }

        if trace_dir.is_some() {
            append_phase_summary(&mut out, &phase_delta, outcome.total_secs);
        }

        if !run_failures.is_empty() {
            sayln!(
                out,
                "\nruns that failed terminally under supervision ({}):",
                run_failures.len()
            );
            for (key, reason) in &run_failures {
                sayln!(out, "  {key}");
                sayln!(out, "    -> {reason}");
            }
        }

        let failures = outcome.failures();
        if failures.is_empty() && run_failures.is_empty() {
            sayln!(
                out,
                "all {} reproduction targets completed; CSVs are in results/",
                outcome.figures.len()
            );
        } else {
            sayln!(
                out,
                "PARTIAL RESULTS: {} of {} reproduction targets completed; the rest \
                 degraded instead of aborting",
                outcome.figures.len() - failures.len(),
                outcome.figures.len()
            );
            if !failures.is_empty() {
                sayln!(out, "FAILED targets: {failures:?}");
            }
        }

        // One write, then flush, so stderr messages below can never land
        // mid-line inside the report.
        let stdout = std::io::stdout();
        let mut lock = stdout.lock();
        let _ = lock.write_all(out.as_bytes());
        let _ = lock.flush();
    }

    for warning in &warnings {
        eprintln!("{warning}");
    }
    for figure in &outcome.figures {
        if let Some(failure) = &figure.failure {
            eprintln!("{} FAILED: {failure}", figure.name);
        }
    }
    for (key, reason) in &run_failures {
        eprintln!("run FAILED ({reason}): {key}");
    }
    if !outcome.failures().is_empty() || !run_failures.is_empty() {
        std::process::exit(1);
    }
}

/// Appends the per-phase wall-time attribution table rendered under
/// `--trace`: self-time per `phase.*` span (and `kernel.*` timer under
/// the `profile` feature), sorted by the registry's deterministic order.
fn append_phase_summary(out: &mut String, delta: &telemetry::Snapshot, wall_secs: f64) {
    let phases: Vec<&telemetry::SpanSnapshot> = delta
        .spans
        .iter()
        .filter(|s| s.name.starts_with("phase.") || s.name.starts_with("kernel."))
        .collect();
    if phases.is_empty() {
        return;
    }
    sayln!(out, "\nper-phase wall-time attribution:");
    let mut table = Table::new(vec![
        "phase".into(),
        "calls".into(),
        "total s".into(),
        "self s".into(),
        "% of wall".into(),
    ]);
    for span in &phases {
        let self_secs = span.self_nanos as f64 / 1e9;
        table.row(vec![
            span.name.clone(),
            span.count.to_string(),
            format!("{:.3}", span.total_nanos as f64 / 1e9),
            format!("{self_secs:.3}"),
            format!("{:.1}", 100.0 * self_secs / wall_secs.max(1e-9)),
        ]);
    }
    out.push_str(&table.render());
}
