//! The repo's one pinned benchmark: five workloads, six bounded
//! end-to-end metrics, and a per-layer ledger from `tensor` to `server`.
//! See `README.md` in this directory for every name, and `BENCHMARK.json`
//! at the repo root for the contract the driver runs it under.
//!
//! ```sh
//! # every workload, untraced pass then traced pass, every metric by name:
//! cargo run --release --manifest-path benchmark/Cargo.toml --target-dir target -- [--seed N] [--workload NAME]
//! # one pass of one workload, result as the last stdout line (driver mode):
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --workload NAME --seed N --seconds S --trace 0|1
//! # two complete sets back to back, gaps against the bounds:
//! cargo run --release --manifest-path benchmark/Cargo.toml --target-dir target -- --verify-noise
//! ```

mod layers;
mod manifest;
mod spans;
mod statefs;
mod util;
mod workloads;

use manifest::{END_TO_END, PER_LAYER, RUN_SECONDS};
use spans::Recorder;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use telemetry::json::ObjectBuilder;
use workloads::conv_full::ConvFull;
use workloads::round_paths::RoundPaths;
use workloads::service::{Mix, Service};
use workloads::sweep_cold::SweepCold;
use workloads::{Batch, Checks, EndToEnd, RunConfig};

/// The service-state directory under `scratch/`.
const STATE_DIR: &str = "state";

const USAGE: &str = "\
usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                 [--verify-noise] [--smoke] [--manifest]

  --workload NAME  one of sweep_cold, round_paths, conv_full, service_hits,
                   service_distinct (default: all five)
  --seed N         generates every input the benchmark chooses (default 1)
  --seconds S      seconds of measured work per pass (default 18)
  --trace 0|1      run only the untraced (end-to-end) or only the traced
                   (per-layer) pass; without it both passes run, each in a
                   child process of its own
  --verify-noise   run two complete sets (both passes of every workload)
                   back to back; compare every end-to-end gap with its bound
                   and every exact-repeat quantity for equality
  --smoke          one-tenth-size bodies: schema and output checks only
  --manifest       print BENCHMARK.json and exit";

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    verify_noise: bool,
    smoke: bool,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: None,
        verify_noise: false,
        smoke: false,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(
                    manifest::workload_names()
                        .into_iter()
                        .find(|known| *known == name)
                        .ok_or(format!("unknown workload \"{name}\""))?,
                );
            }
            "--seed" => {
                args.seed = value("an integer")?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer".to_string())?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                });
            }
            "--verify-noise" => args.verify_noise = true,
            "--smoke" => args.smoke = true,
            "--manifest" => args.manifest = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument \"{other}\"")),
        }
    }
    Ok(args)
}

/// Builds `sweepd` from the root workspace into the target directory this
/// binary was built into, so the service workloads drive the daemon users
/// run, fresh for the current sources. A no-op check (≈ 0.3 s) when it is
/// up to date.
fn ensure_sweepd() -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let target_dir = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("benchmark binary is not inside a cargo target directory")?;
    let status = std::process::Command::new("cargo")
        .args(["build", "--release", "--quiet", "--offline"])
        .args(["-p", "adacomm-bench", "--bin", "sweepd", "--target-dir"])
        .arg(target_dir)
        // The repo root: its `.cargo/config.toml` flags apply there.
        .current_dir("..")
        .env_remove("CARGO_TARGET_DIR")
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("building sweepd failed ({status})"))
    }
}

/// One pass's result, in the shape the driver contract names.
struct PassResult {
    workload: &'static str,
    traced: bool,
    checks: Checks,
    metrics: Vec<(&'static str, f64)>,
    notes: Vec<String>,
}

impl PassResult {
    fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    fn json_line(&self) -> String {
        let mut metrics = ObjectBuilder::new();
        for &(name, value) in &self.metrics {
            let mut m = ObjectBuilder::new();
            m.num_field("value", value);
            m.str_field("unit", manifest::unit_of(name));
            metrics.raw_field(name, &m.finish());
        }
        let mut o = ObjectBuilder::new();
        o.raw_field("correct", if self.correct() { "true" } else { "false" });
        o.num_field("attempted", self.checks.attempted.max(1) as f64);
        o.num_field("failed", self.checks.failed as f64);
        o.raw_field("metrics", &metrics.finish());
        o.finish()
    }

    fn print(&self, seed: u64) {
        println!(
            "== {} · {} pass · seed {seed} ==",
            self.workload,
            if self.traced { "traced" } else { "untraced" }
        );
        for note in &self.notes {
            println!("  {note}");
        }
        for &(name, value) in &self.metrics {
            println!("  {name:<32} {value:>18.6} {}", manifest::unit_of(name));
        }
        println!(
            "  {:<32} {:>18.6} ratio ({} failed of {} attempted)",
            "fail_share",
            self.checks.fail_share(),
            self.checks.failed,
            self.checks.attempted
        );
        for message in &self.checks.messages {
            println!("  CHECK FAILED: {message}");
        }
    }
}

fn batch_workload(name: &str, cfg: &RunConfig) -> Option<Box<dyn Batch>> {
    match name {
        "sweep_cold" => Some(Box::new(SweepCold::new(cfg))),
        "round_paths" => Some(Box::new(RoundPaths::new(cfg))),
        "conv_full" => Some(Box::new(ConvFull::new(cfg))),
        _ => None,
    }
}

fn service_mix(name: &str) -> Mix {
    if name == "service_hits" {
        Mix::Hits
    } else {
        Mix::Distinct
    }
}

/// The untraced pass: end-to-end metrics only.
fn untraced_pass(name: &'static str, cfg: &RunConfig) -> Result<PassResult, String> {
    let mut checks = Checks::default();
    let e2e: EndToEnd = match batch_workload(name, cfg) {
        Some(mut workload) => workloads::run_batch(workload.as_mut(), cfg, &mut checks),
        None => {
            let mut service = Service::new(service_mix(name), cfg);
            let setup_s = service.setup_median(cfg.setups())?;
            let phase = service.measure(cfg.seconds, &mut Recorder::new(false), &mut checks)?;
            service.finish(&mut checks);
            EndToEnd {
                setup_s,
                ..phase.e2e
            }
        }
    };
    Ok(PassResult {
        workload: name,
        traced: false,
        checks,
        metrics: e2e.metrics(),
        notes: e2e.notes,
    })
}

/// Seconds of self time the `phase.<name>` telemetry span accumulated in
/// a snapshot delta.
fn phase_self_secs(delta: &telemetry::Snapshot, name: &str) -> f64 {
    delta
        .spans
        .iter()
        .find(|s| s.name == name)
        .map_or(0.0, |s| s.self_nanos as f64 / 1e9)
}

/// The traced pass: the workload once without and once with the
/// benchmark's spans, then the layer probes; per-layer metrics only.
fn traced_pass(name: &'static str, cfg: &RunConfig) -> Result<PassResult, String> {
    let mut checks = Checks::default();
    let mut notes = Vec::new();
    let mut values: Vec<(&'static str, f64)> = Vec::new();
    let mut rec = Recorder::new(true);
    let pass_span = rec.enter("bench.traced_pass");
    let cpu_now = || util::cpu_secs(None).unwrap_or_default();
    // This process's CPU over the traced body (the generator's, for the
    // service workloads): a change may use the second core, but it shows.
    let cpu;
    let digest;
    let in_process = match batch_workload(name, cfg) {
        Some(mut workload) => {
            workload.setup();
            let plain = workload.body(&mut Recorder::new(false), &mut checks);
            let (tele0, cpu0) = (telemetry::snapshot(), cpu_now());
            let root = rec.enter("bench.workload_body");
            let traced = workload.body(&mut rec, &mut checks);
            rec.exit(root);
            let (tele, cpu1) = (telemetry::snapshot().delta_since(&tele0), cpu_now());
            cpu = (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1);
            checks.check(plain.digest == traced.digest, || {
                "sim.digest differs between the untraced and the traced body".to_string()
            });
            digest = traced.digest;
            values.push((
                "telemetry.trace_overhead_pct",
                100.0 * (traced.wall - plain.wall) / plain.wall,
            ));
            values.push(("sim.rounds", traced.rounds as f64));
            values.push(("sim.local_steps", traced.steps as f64));
            values.push(("sim.comm_bytes", traced.comm_bytes));
            for (metric, phase) in [
                ("sim.phase_compute_s", "phase.compute"),
                ("sim.phase_eval_s", "phase.eval"),
                ("sim.phase_codec_s", "phase.codec"),
                ("sim.phase_average_s", "phase.average"),
            ] {
                values.push((metric, phase_self_secs(&tele, phase)));
            }
            values.extend(traced.layer);
            true
        }
        None => {
            let mut service = Service::new(service_mix(name), cfg);
            service.setup()?;
            let half = cfg.seconds / 2.0;
            // An early return drops the service, which kills its daemon.
            let plain = service.measure(half, &mut Recorder::new(false), &mut checks)?;
            // A fresh daemon for the traced phase: the same requests must
            // meet the same state (a distinct key is only new once).
            service.setup()?;
            let cpu0 = cpu_now();
            let traced = service.measure(half, &mut rec, &mut checks)?;
            let cpu1 = cpu_now();
            cpu = (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1);
            service.finish(&mut checks);
            checks.check(plain.e2e.digest == traced.e2e.digest, || {
                "sim.digest differs between the untraced and the traced phase".to_string()
            });
            digest = traced.e2e.digest;
            values.push((
                "telemetry.trace_overhead_pct",
                100.0 * (plain.e2e.req_per_s - traced.e2e.req_per_s) / plain.e2e.req_per_s,
            ));
            values.extend(traced.layer);
            notes.extend(traced.e2e.notes);
            false
        }
    };
    values.push(("pool.cpu_user_s", cpu.0));
    values.push(("pool.cpu_sys_s", cpu.1));
    values.push(("sim.digest", digest.as_metric()));
    values.extend(layers::probe_all(cfg, &mut rec));
    rec.exit(pass_span);

    // Spans are written out when the pass ends; self time = span minus
    // children.
    let spans_path = cfg.scratch.join("spans.jsonl");
    rec.write_jsonl(&spans_path, name)
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    let table = rec.self_times();
    notes.push(format!(
        "{} spans written to {}",
        rec.spans().len(),
        spans_path.display()
    ));
    notes.push("span self times (count, total s, self s):".to_string());
    for (span, (count, total, self_ns)) in &table {
        notes.push(format!(
            "  {span:<34} {count:>8} {:>12.6} {:>12.6}",
            *total as f64 / 1e9,
            *self_ns as f64 / 1e9
        ));
    }
    checks.check(rec.spans().iter().skip(1).all(|s| s.parent != 0), || {
        "a traced span other than the pass root has no parent".to_string()
    });
    if in_process {
        // The self times under the traced body must account for its wall.
        // (Body and probe spans never share a name, and a subtree's self
        // times sum to its root's total.)
        let total = |span: &str| table.get(span).map_or(0, |t| t.1) as f64;
        let self_sum: f64 = table.values().map(|t| t.2 as f64).sum();
        let pass_self = table.get("bench.traced_pass").map_or(0, |t| t.2) as f64;
        let accounted = self_sum - pass_self - total("bench.layer_probes");
        let body = total("bench.workload_body");
        checks.check((accounted - body).abs() <= 0.05 * body, || {
            format!("span self times sum to {accounted} ns of a {body} ns traced body")
        });
    }

    // Every per-layer metric is reported; layers this workload does not
    // enter read 0.
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let value = values
                .iter()
                .find(|(name, _)| *name == m.name)
                .map_or(0.0, |&(_, v)| v);
            (m.name, value)
        })
        .collect();
    Ok(PassResult {
        workload: name,
        traced: true,
        checks,
        metrics,
        notes,
    })
}

fn run_pass(
    name: &'static str,
    traced: bool,
    args: &Args,
    scratch_root: &Path,
) -> Result<PassResult, String> {
    let scratch = scratch_root.join(format!("{name}-s{}-t{}", args.seed, u8::from(traced)));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        scratch,
        state: scratch_root.join(STATE_DIR),
    };
    let result = if traced {
        traced_pass(name, &cfg)
    } else {
        untraced_pass(name, &cfg)
    }?;
    result.print(args.seed);
    if result.correct() {
        // Keep only the span dump: a passing run's stores, journal and
        // daemon log are megabytes nobody will read.
        for dir in [&cfg.scratch, &cfg.state] {
            for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
                if entry.file_name() != "spans.jsonl" {
                    let path = entry.path();
                    let _ = std::fs::remove_dir_all(&path).or_else(|_| std::fs::remove_file(&path));
                }
            }
        }
    } else {
        // A memory-backed state directory dies with the process; keep the
        // daemon's log for the post-mortem.
        let _ = std::fs::copy(
            cfg.state.join("svc/sweepd.log"),
            cfg.scratch.join("sweepd.log"),
        );
    }
    Ok(result)
}

/// One pass in this process — how the driver runs the benchmark. The
/// result object is the last line of standard output.
fn run_here(name: &'static str, traced: bool, args: &Args) -> Result<bool, String> {
    // Everything the benchmark writes stays under its own directory.
    let package_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    std::env::set_current_dir(package_dir)
        .map_err(|e| format!("cannot enter {}: {e}", package_dir.display()))?;
    let scratch_root = PathBuf::from("scratch");
    std::fs::create_dir_all(&scratch_root).map_err(|e| e.to_string())?;
    // Before anything starts a thread: the service state goes on a tmpfs
    // private to this process, or stays on the checkout's disk if the
    // kernel refuses (the machine line below says which).
    let state_dir = scratch_root.join(STATE_DIR);
    if let Err(e) = statefs::mount_private_tmpfs(&state_dir) {
        eprintln!("benchmark: no private tmpfs for the service state ({e}); using the disk");
    }
    // Sized for the 2-core box the bounds were proven on; read once when
    // the pool starts, so it must be set before any parallel call.
    std::env::set_var("RAYON_NUM_THREADS", "2");
    // Figures write their CSVs under the active results directory; an
    // absolute "subdirectory" replaces the default root outright.
    adacomm_bench::report::set_results_subdir(
        package_dir
            .join("scratch/results")
            .to_str()
            .ok_or("non-UTF-8 checkout path")?,
    );
    ensure_sweepd()?;
    println!(
        "benchmark: seed {} · {} s per pass{} · {}",
        args.seed,
        args.seconds,
        if args.smoke { " · smoke sizes" } else { "" },
        util::machine_line(&state_dir)
    );
    let result = run_pass(name, traced, args, &scratch_root)?;
    println!("{}", result.json_line());
    Ok(result.correct())
}

/// What the parent of a multi-pass invocation keeps of one pass.
struct ChildPass {
    workload: &'static str,
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// One pass in a child process of its own, exactly as the driver would run
/// it: peak memory, allocator state and the telemetry registry of one
/// workload never leak into the next. The child's report is passed through.
fn run_child(name: &'static str, traced: bool, args: &Args) -> Result<ChildPass, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "--workload",
        name,
        "--trace",
        if traced { "1" } else { "0" },
    ])
    .args(["--seed", &args.seed.to_string()])
    .args(["--seconds", &args.seconds.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the {name} pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let result = stdout
        .lines()
        .last()
        .and_then(|line| telemetry::json::parse(line).ok())
        .ok_or(format!("the {name} pass printed no result"))?;
    let metrics = result
        .as_obj()
        .and_then(|o| o.get("metrics")?.as_obj())
        .ok_or("result has no metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.as_obj()?.get("value")?.as_num()?)))
        .collect();
    Ok(ChildPass {
        workload: name,
        correct: output.status.success(),
        metrics,
    })
}

/// Layer metrics that must repeat exactly for the same code and seed. On
/// the service workloads the simulation counts follow the request count,
/// which follows the machine's speed, so they are left out there.
fn exact_repeat_metrics(workload: &str) -> &'static [&'static str] {
    if workload.starts_with("service_") {
        &[
            "sim.digest",
            "journal.records_per_req",
            "server.dedup_hits",
            "server.shed",
        ]
    } else {
        &[
            "sim.digest",
            "sim.rounds",
            "sim.local_steps",
            "sim.comm_bytes",
            "figures.adacomm_speedup_x",
            "engine.unique_runs",
            "engine.misses",
            "engine.disk_hits",
            "gradcomp.payload_ratio",
        ]
    }
}

/// `--verify-noise`: two complete sets (both passes of every workload)
/// back to back; every end-to-end gap against its bound, every
/// exact-repeat quantity for equality.
fn verify_noise(names: &[&'static str], args: &Args) -> Result<bool, String> {
    let mut sets: Vec<Vec<(ChildPass, ChildPass)>> = Vec::new();
    for set in 1..=2 {
        println!("### set {set}");
        let mut passes = Vec::new();
        for &name in names {
            passes.push((run_child(name, false, args)?, run_child(name, true, args)?));
        }
        sets.push(passes);
    }
    println!("### noise: two sets of the same code, seed {}", args.seed);
    println!(
        "{:<18} {:<26} {:>18} {:>18} {:>8} {:>7}  verdict",
        "workload", "metric", "set 1", "set 2", "gap %", "bound %"
    );
    let mut ok = true;
    for ((e2e_a, layer_a), (e2e_b, layer_b)) in sets[0].iter().zip(&sets[1]) {
        let value =
            |pass: &ChildPass, metric: &str| pass.metrics.get(metric).copied().unwrap_or(f64::NAN);
        for m in &END_TO_END {
            let (va, vb) = (value(e2e_a, m.name), value(e2e_b, m.name));
            // How much worse set 2 reads than set 1 (negative: better). The
            // sets are the same code, so either direction is noise.
            let gap = if m.better == "higher" {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            let within = gap.abs() <= m.bound;
            ok &= within;
            println!(
                "{:<18} {:<26} {va:>18.4} {vb:>18.4} {:>8.2} {:>7.0}  {}",
                e2e_a.workload,
                m.name,
                100.0 * gap,
                100.0 * m.bound,
                if within { "ok" } else { "EXCEEDS BOUND" }
            );
        }
        for &metric in exact_repeat_metrics(e2e_a.workload) {
            let (va, vb) = (value(layer_a, metric), value(layer_b, metric));
            let same = va == vb;
            ok &= same;
            println!(
                "{:<18} {:<26} {:>18} {:>18} {:>8} {:>7}  {}",
                e2e_a.workload,
                metric,
                telemetry::json::format_num(va),
                telemetry::json::format_num(vb),
                "-",
                "exact",
                if same { "ok" } else { "DIFFERS" }
            );
        }
        ok &= [e2e_a, layer_a, e2e_b, layer_b].iter().all(|p| p.correct);
    }
    Ok(ok)
}

fn run(args: &Args) -> Result<bool, String> {
    if let (Some(name), Some(traced), false) = (args.workload, args.trace, args.verify_noise) {
        return run_here(name, traced, args);
    }
    let names = args
        .workload
        .map_or_else(manifest::workload_names, |name| vec![name]);
    if args.verify_noise {
        return verify_noise(&names, args);
    }
    let mut ok = true;
    for &name in &names {
        for traced in [false, true] {
            if args.trace.is_none_or(|only| only == traced) {
                ok &= run_child(name, traced, args)?.correct;
            }
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("benchmark: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", manifest::manifest_json());
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: an output check or noise bound failed");
            ExitCode::from(1)
        }
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(1)
        }
    }
}
