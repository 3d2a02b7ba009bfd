//! CLI argument-conflict contracts: flag combinations that would produce
//! misleading output must fail fast with exit code 2 (usage error), not
//! degrade silently.

use std::process::Command;

/// `--trace` + `--parallel` is a hard error: tracing requires the
/// sequential engine so each telemetry profile is attributable to
/// exactly one figure. Exit code 2, conflict named on stderr, and no
/// figures computed. A build without the `trace` feature refuses
/// `--trace` before it looks for the conflict, so the test needs it.
#[cfg(feature = "trace")]
#[test]
fn reproduce_all_rejects_trace_plus_parallel() {
    let trace_dir =
        std::env::temp_dir().join(format!("adacomm-cli-conflict-{}-trace", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_reproduce_all"))
        .args(["--smoke", "--trace"])
        .arg(&trace_dir)
        .args(["--parallel", "--no-cache"])
        .output()
        .expect("run reproduce_all");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(2),
        "usage-error exit code; stderr: {stderr}"
    );
    assert!(
        stderr.contains("--trace and --parallel conflict"),
        "stderr must name the conflict: {stderr}"
    );
    assert!(
        !trace_dir.exists(),
        "the conflict must abort before any trace output is written"
    );
}

/// `--trace` without its directory argument is the same class of error.
#[test]
fn reproduce_all_rejects_trace_without_dir() {
    let output = Command::new(env!("CARGO_BIN_EXE_reproduce_all"))
        .args(["--smoke", "--trace", "--sequential"])
        .output()
        .expect("run reproduce_all");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("requires a directory"), "stderr: {stderr}");
}
