//! CLI argument-conflict contracts: flag combinations that would produce
//! misleading output must fail fast with exit code 2 (usage error), not
//! degrade silently.

use std::process::Command;

/// `--trace` + `--parallel` is a hard error: tracing requires the
/// sequential engine so each telemetry profile is attributable to
/// exactly one figure. Exit code 2, conflict named on stderr, and no
/// figures computed.
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

/// Runs `bin` in a fresh empty directory (without cargo's variable the
/// store resolves under the working directory) and asserts a usage
/// error: exit 2, `complaint` and the usage text on stderr, nothing on
/// stdout, and no socket, store or `.lock` left behind.
fn assert_usage_error(name: &str, bin: &str, args: &[&str], complaint: &str) {
    let dir = std::env::temp_dir().join(format!("adacomm-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let output = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .env_remove("CARGO_MANIFEST_DIR")
        .output()
        .expect("run binary");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{name} {args:?}: {stderr}");
    assert!(stderr.contains(complaint), "{name} {args:?}: {stderr}");
    let usage = format!("usage: {name}");
    assert!(stderr.contains(&usage), "{name} {args:?}: {stderr}");
    assert!(output.stdout.is_empty(), "{name} {args:?}: no report");
    let left = std::fs::read_dir(&dir).expect("scratch dir").count();
    assert_eq!(left, 0, "{name} {args:?}: a usage error creates nothing");
    let _ = std::fs::remove_dir_all(&dir);
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
        let bin = env!("CARGO_BIN_EXE_reproduce_all");
        assert_usage_error("reproduce_all", bin, args, complaint);
    }
}

/// `sweepd` and `obs_report` go through the same validator, before
/// anything is locked, bound or rendered. (At the parent commit `--sockt`
/// served on the default socket, `--queue-limit --smoke` silently used
/// 64, and `obs_report --chekc DIR` rendered and exited 0.)
#[test]
fn sweepd_and_obs_report_reject_unknown_arguments_before_acting() {
    let cases: [(&[&str], &str); 3] = [
        (
            &["--smoke", "--sockt", "x.sock"],
            "unknown argument \"--sockt\"",
        ),
        (&["--queue-limit", "--smoke"], "--queue-limit requires"),
        (&["x.sock"], "unknown argument \"x.sock\""),
    ];
    for (args, complaint) in cases {
        assert_usage_error("sweepd", env!("CARGO_BIN_EXE_sweepd"), args, complaint);
    }
    let cases: [(&[&str], &str); 3] = [
        (&["--chekc", "."], "unknown argument \"--chekc\""),
        (&[".", "."], "unknown argument \".\""),
        (&["--check"], "a trace directory is required"),
    ];
    for (args, complaint) in cases {
        let bin = env!("CARGO_BIN_EXE_obs_report");
        assert_usage_error("obs_report", bin, args, complaint);
    }
}

/// `sweepctl` goes through the same validator before it connects, with
/// `--budget` as the one two-valued flag: a misspelt or misplaced flag
/// must not send a request with a default in its place (`--tua 8` would
/// run at τ = 4, `--deadline 1` with no deadline at all). The socket does
/// not exist, so a case that got past validation would fail with
/// `cannot connect` instead.
#[test]
fn sweepctl_rejects_unknown_arguments_before_connecting() {
    let socket = ["--socket", "/nonexistent/adacomm-sweepd.sock"];
    let cases: [(&[&str], &str); 5] = [
        (
            &["run", "concept", "--tua", "8", "--budget", "6", "2"],
            "unknown argument \"--tua\"",
        ),
        (
            &["run", "concept", "--deadline", "1"],
            "unknown argument \"--deadline\"",
        ),
        (&["ping", "--bogus"], "unknown argument \"--bogus\""),
        (&["ping", "--tau", "3"], "unknown argument \"--tau\""),
        (
            &["run", "concept", "--budget", "6"],
            "--budget requires TOTAL and RECORD seconds",
        ),
    ];
    for (args, complaint) in cases {
        let args = [&socket[..], args].concat();
        let bin = env!("CARGO_BIN_EXE_sweepctl");
        assert_usage_error("sweepctl", bin, &args, complaint);
    }
}
