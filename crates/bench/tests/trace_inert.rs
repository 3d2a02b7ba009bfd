//! Tracing only observes. Telemetry is live in every build, so the one
//! way to show that watching a run does not change it is to render the
//! same figure traced and untraced and compare: the CSV bytes must be
//! identical, and every line of the traced profile must pass the schema.

use adacomm_bench::figures::{reproduce, reproduce_with_trace};
use adacomm_bench::report::{results_dir, set_results_subdir};
use adacomm_bench::{Scale, SweepEngine};
use std::fs;

const FIGURE: &str = "fig01_concept";

/// Renders [`FIGURE`] at smoke scale on a fresh engine (so every run is
/// simulated, not served from a memo) and returns its CSV bytes.
fn render(trace_dir: Option<&std::path::Path>) -> Vec<u8> {
    let engine = SweepEngine::with_parallelism(false);
    let outcome = match trace_dir {
        Some(dir) => {
            reproduce_with_trace(Scale::Smoke, &engine, Some(FIGURE), Some(dir)).expect("profiles")
        }
        None => reproduce(Scale::Smoke, &engine, Some(FIGURE)),
    };
    assert!(outcome.failures().is_empty(), "{:?}", outcome.failures());
    let csv = results_dir().join(format!("{FIGURE}.csv"));
    let bytes = fs::read(&csv).expect("the figure writes its CSV");
    fs::remove_file(&csv).expect("clear the CSV before the next render");
    bytes
}

#[test]
fn traced_render_writes_the_untraced_csv_bytes() {
    set_results_subdir("tests/trace_inert");
    let trace_dir =
        std::env::temp_dir().join(format!("adacomm-trace-inert-{}", std::process::id()));
    let _ = fs::remove_dir_all(&trace_dir);

    let traced = render(Some(&trace_dir));
    let untraced = render(None);
    assert!(!traced.is_empty());
    assert!(traced == untraced, "tracing changed {FIGURE}.csv");

    let mut windows = Vec::new();
    for entry in fs::read_dir(&trace_dir).expect("the trace directory exists") {
        let path = entry.expect("list the trace directory").path();
        let profile = fs::read_to_string(&path).expect("read a profile");
        for line in profile.lines() {
            telemetry::schema::validate_line(line)
                .unwrap_or_else(|e| panic!("{}: invalid line {line}: {e}", path.display()));
        }
        windows.push(path.file_name().unwrap().to_string_lossy().into_owned());
    }
    windows.sort();
    assert_eq!(
        windows,
        [format!("{FIGURE}.jsonl"), "sweep_wave.jsonl".into()]
    );
    let _ = fs::remove_dir_all(&trace_dir);
}
