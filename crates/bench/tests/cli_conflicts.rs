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

/// `reproduce_all` is the only figure CLI, so it must not guess: a
/// misspelt flag, a value flag without its value, and a `--only` that
/// selects nothing each exit 2 with the usage text — none of them may
/// fall through to reproducing figures (which, at the default quick
/// scale these invocations would get, takes minutes).
#[test]
fn reproduce_all_rejects_unknown_arguments_and_empty_selections() {
    let cases: [(&[&str], &str); 4] = [
        (&["--ony", "fig09"], "unknown argument \"--ony\""),
        (&["fig09"], "unknown argument \"fig09\""),
        (&["--no-cache", "--only"], "--only requires"),
        (
            &["--no-cache", "--only", "nosuchfigure"],
            "no figure matches --only \"nosuchfigure\"",
        ),
    ];
    for (args, complaint) in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_reproduce_all"))
            .args(args)
            .output()
            .expect("run reproduce_all");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(complaint), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: reproduce_all"),
            "{args:?}: {stderr}"
        );
        assert!(
            output.stdout.is_empty(),
            "{args:?}: a usage error must not reproduce (or report) anything"
        );
    }
}
