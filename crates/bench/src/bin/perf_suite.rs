//! Perf harness: times the canonical quick-scale scenarios **and the
//! whole in-process `reproduce_all` sweep end-to-end**, writing a
//! `BENCH_<n>.json` report at the repository root so the hot-path
//! performance trajectory is tracked across PRs.
//!
//! Scenarios:
//!
//! * `reproduce_all_quick` — every figure/table/ablation/extension of the
//!   reproduction, executed in-process by the run-parallel sweep engine
//!   at quick scale (smoke scale under `--smoke`), with step counts,
//!   simulated clock and peak payload bytes aggregated over the engine's
//!   unique runs. Runs against a freshly wiped run-store directory, so
//!   it measures the cold path while populating the cache for:
//! * `reproduce_all_warm` — the same reproduction again, served from the
//!   persistent run store the cold scenario just wrote. The harness
//!   asserts every engine run comes from disk (zero misses, zero
//!   rejects); the wall-clock ratio against `reproduce_all_quick` is the
//!   headline number for the store.
//! * `fig09_vgg_adacomm_quick` — AdaComm on the communication-bound
//!   VGG-16-like profile (Figure 9, fixed lr panel);
//! * `fig10_resnet_adacomm_quick` — AdaComm on the computation-bound
//!   ResNet-50-like profile (Figure 10);
//! * `ext_compression_topk_slice` — one frontier slice of the compression
//!   extension: fixed τ = 16 with 1% Top-K + error feedback under the
//!   bytes-aware VGG profile.
//!
//! ```sh
//! cargo run --release -p adacomm-bench --bin perf_suite -- \
//!     [--smoke] [--out PATH] [--baseline PATH]
//! ```
//!
//! `--smoke` shrinks every simulated budget so CI can validate the JSON in
//! seconds; `--baseline` embeds a previously recorded report (same schema)
//! and computes per-scenario wall-clock speedups against it — it defaults
//! to the committed `crates/bench/baselines/pre_pr8.json` when that file
//! exists. See the README "Performance" section for the schema.
//!
//! When the `trace` feature is on (the default build), every scenario also
//! reports a `"phases"` object: wall-clock self-seconds per `phase.*` span
//! recorded by the telemetry registry while that scenario ran.

use adacomm::{AdaComm, AdaCommConfig, FixedComm, LrCoupling, LrSchedule};
use adacomm_bench::figures::reproduce;
use adacomm_bench::scenarios::{scenario, ModelFamily};
use adacomm_bench::sweep::SweepEngine;
use adacomm_bench::{RunStore, Scale};
use data::GaussianMixture;
use gradcomp::CodecSpec;
use nn::models;
use pasgd_sim::{ClusterConfig, ExperimentConfig, ExperimentSuite, RunTrace};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Which `BENCH_<n>.json` this binary emits.
const BENCH_ID: u32 = 8;

/// One timed scenario.
struct Measurement {
    name: &'static str,
    workers: usize,
    wall_clock_s: f64,
    sim_clock_s: f64,
    rounds: u64,
    local_steps: u64,
    peak_payload_bytes: f64,
    final_train_loss: f32,
    /// `(span name, self seconds)` per `phase.*` span recorded while this
    /// scenario ran — empty when the telemetry feature is compiled out.
    phases: Vec<(String, f64)>,
}

/// `phase.*` self-seconds accumulated while `run` executed.
fn timed_phases<T>(run: impl FnOnce() -> T) -> (T, Vec<(String, f64)>) {
    let before = telemetry::snapshot();
    let value = run();
    let delta = telemetry::snapshot().delta_since(&before);
    let phases = delta
        .spans
        .iter()
        .filter(|s| s.name.starts_with("phase."))
        .map(|s| (s.name.clone(), s.self_nanos as f64 / 1e9))
        .collect();
    (value, phases)
}

impl Measurement {
    fn steps_per_sec(&self) -> f64 {
        (self.local_steps * self.workers as u64) as f64 / self.wall_clock_s.max(1e-12)
    }

    fn rounds_per_sec(&self) -> f64 {
        self.rounds as f64 / self.wall_clock_s.max(1e-12)
    }

    fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\n      \"name\": \"{}\",\n      \"workers\": {},\n      \
             \"wall_clock_s\": {:.6},\n      \"sim_clock_s\": {:.3},\n      \
             \"rounds\": {},\n      \"local_steps\": {},\n      \
             \"steps_per_sec\": {:.1},\n      \"rounds_per_sec\": {:.2},\n      \
             \"peak_payload_bytes\": {:.0},\n      \"final_train_loss\": {:.6},\n      \
             \"phases\": {{{}}}\n    }}",
            self.name,
            self.workers,
            self.wall_clock_s,
            self.sim_clock_s,
            self.rounds,
            self.local_steps,
            self.steps_per_sec(),
            self.rounds_per_sec(),
            self.peak_payload_bytes,
            self.final_train_loss,
            self.phases
                .iter()
                .map(|(name, secs)| format!("\"{name}\": {secs:.6}"))
                .collect::<Vec<_>>()
                .join(", "),
        );
        s
    }
}

fn measure(name: &'static str, workers: usize, run: impl FnOnce() -> RunTrace) -> Measurement {
    let start = Instant::now();
    let (trace, phases) = timed_phases(run);
    let wall = start.elapsed().as_secs_f64();
    let last = trace.points.last().expect("non-empty trace");
    println!(
        "  {name}: {wall:.2}s wall, {} rounds, {} local steps, loss {:.4}",
        trace.rounds, last.iterations, last.train_loss
    );
    Measurement {
        name,
        workers,
        wall_clock_s: wall,
        sim_clock_s: last.clock,
        rounds: trace.rounds,
        local_steps: last.iterations,
        peak_payload_bytes: trace.peak_payload_bytes,
        final_train_loss: last.train_loss,
        phases,
    }
}

/// Times the whole in-process reproduction (the sweep engine's parallel
/// path) and reports it in the shared scenario schema with *real*
/// aggregates over the engine's memoized runs: `rounds` counts reproduced
/// figures, while `local_steps` (per-worker steps summed across unique
/// runs), `sim_clock_s` (summed simulated seconds) and
/// `peak_payload_bytes` come from [`SweepEngine::run_stats`].
///
/// Cold mode (`warm == false`) wipes `cache_dir` first, so the timing is
/// a true cold path that leaves a fully populated run store behind; warm
/// mode re-runs against that store and asserts every engine run was
/// served from disk.
fn measure_reproduce_all(smoke: bool, cache_dir: &Path, warm: bool) -> Measurement {
    let scale = if smoke { Scale::Smoke } else { Scale::Quick };
    let name = if warm {
        "reproduce_all_warm"
    } else {
        "reproduce_all_quick"
    };
    if !warm {
        let _ = std::fs::remove_dir_all(cache_dir);
    }
    println!(
        "  {name}: running all figures in-process ({scale} scale, {} run store)...",
        if warm { "warm" } else { "cold" }
    );
    let engine = SweepEngine::new().with_store(RunStore::new(cache_dir));
    let (outcome, phases) = timed_phases(|| reproduce(scale, &engine, None));
    let failures = outcome.failures();
    assert!(
        failures.is_empty(),
        "reproduction figures failed during the perf run: {failures:?}"
    );
    let stats = engine.run_stats();
    let cache = engine.cache_stats();
    if warm {
        assert!(
            cache.disk_hits > 0,
            "warm reproduction took no disk hits: {cache:?}"
        );
        assert_eq!(
            (cache.misses, cache.rejects),
            (0, 0),
            "warm reproduction re-simulated runs: {cache:?}"
        );
    }
    println!(
        "  {name}: {:.2}s wall ({:.2}s sweep wave, {} figures, {} unique runs, \
         {} local steps simulated)",
        outcome.total_secs,
        outcome.sweep_secs,
        outcome.figures.len(),
        stats.unique_runs,
        stats.local_steps,
    );
    println!(
        "  run store ({}): {} disk hits, {} memory hits, {} misses, {} rejected entries",
        cache_dir.display(),
        cache.disk_hits,
        cache.mem_hits,
        cache.misses,
        cache.rejects
    );
    Measurement {
        name,
        workers: 1,
        wall_clock_s: outcome.total_secs,
        sim_clock_s: stats.sim_clock_secs,
        rounds: outcome.figures.len() as u64,
        local_steps: stats.local_steps,
        peak_payload_bytes: stats.peak_payload_bytes,
        final_train_loss: 0.0,
        phases,
    }
}

/// The Figure 9/10 AdaComm run at quick scale (fixed lr, τ-gated decay).
fn adacomm_run(family: ModelFamily, smoke: bool) -> RunTrace {
    let sc = scenario(family, 10, 4, Scale::Quick);
    let tau0 = sc.tau0;
    let lr = sc.fixed_lr.clone();
    let suite = if smoke {
        sc.suite.with_budget(30.0, 10.0)
    } else {
        sc.suite
    };
    let mut ada = AdaComm::new(AdaCommConfig {
        tau0,
        lr_coupling: LrCoupling::None,
        max_tau: 256.max(tau0),
        ..AdaCommConfig::default()
    });
    suite.run_configured(&mut ada, &lr, None, Some(true), None, None, None)
}

/// One frontier slice of the `ext_compression` experiment: τ = 16 with 1%
/// Top-K + error feedback under the bytes-aware VGG-16 profile.
fn compression_slice(smoke: bool) -> RunTrace {
    let workers = 4usize;
    let model = models::mlp_classifier(256, &[64], 100, 77);
    let full_bytes = model.param_count() * 4;
    let profile = ModelFamily::VggLike.profile().time_scaled(4.0);
    let runtime = profile.bytes_aware_runtime_model(workers, 0.9, full_bytes as f64);
    let split = GaussianMixture::cifar100_like().generate(1244);
    let total_secs = if smoke { 30.0 } else { 600.0 };
    let suite = ExperimentSuite::new(
        model,
        split,
        runtime,
        ClusterConfig {
            workers,
            batch_size: 32,
            lr: 0.1,
            weight_decay: 5e-4,
            seed: 42,
            eval_subset: 1024,
            ..ClusterConfig::default()
        },
        ExperimentConfig {
            interval_secs: 20.0,
            total_secs,
            record_every_secs: total_secs / 40.0,
            gate_lr_on_tau: false,
        },
    );
    suite.run_configured(
        &mut FixedComm::new(16),
        &LrSchedule::constant(0.1),
        None,
        None,
        Some(CodecSpec::TopK { ratio: 0.01 }),
        None,
        None,
    )
}

/// Pulls `"wall_clock_s": <x>` for scenario `name` out of a perf report —
/// the reports are machine-generated by this binary, so plain string
/// scanning is reliable and keeps the harness serde-free.
fn baseline_wall_clock(report: &str, name: &str) -> Option<f64> {
    let at = report.find(&format!("\"name\": \"{name}\""))?;
    let rest = &report[at..];
    let key = "\"wall_clock_s\": ";
    let v = &rest[rest.find(key)? + key.len()..];
    let end = v.find([',', '\n', '}'])?;
    v[..end].trim().parse().ok()
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(PathBuf::from)
    };
    let out_path =
        flag_value("--out").unwrap_or_else(|| repo_root().join(format!("BENCH_{BENCH_ID}.json")));
    // Default to the committed pre-PR baseline so a plain `perf_suite` run
    // reports speedups without extra flags. Smoke mode gets no default:
    // its shrunken budgets make speedups against the full-scale baseline
    // meaningless.
    let baseline_path = flag_value("--baseline").or_else(|| {
        let committed = repo_root().join("crates/bench/baselines/pre_pr8.json");
        (!smoke && committed.exists()).then_some(committed)
    });
    if smoke {
        // Keep the CI exercise away from the committed quick-scale CSVs.
        adacomm_bench::report::set_results_subdir("smoke");
    }
    // A dedicated store directory (wiped by the cold scenario) so the
    // cold/warm pair never mixes with a reproduce_all cache the user may
    // already have. Resolved after the --smoke redirect, like the CSVs.
    let perf_cache = adacomm_bench::report::results_dir().join("perf_cache");

    println!(
        "perf_suite ({} mode) — timing the in-process reproduction + quick-scale scenarios",
        if smoke { "smoke" } else { "full" }
    );
    let measurements = [
        measure_reproduce_all(smoke, &perf_cache, false),
        measure_reproduce_all(smoke, &perf_cache, true),
        measure("fig09_vgg_adacomm_quick", 4, || {
            adacomm_run(ModelFamily::VggLike, smoke)
        }),
        measure("fig10_resnet_adacomm_quick", 4, || {
            adacomm_run(ModelFamily::ResnetLike, smoke)
        }),
        measure("ext_compression_topk_slice", 4, || compression_slice(smoke)),
    ];

    let baseline = match &baseline_path {
        Some(p) => Some(std::fs::read_to_string(p)?),
        None => None,
    };

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench_id\": {BENCH_ID},");
    let _ = writeln!(json, "  \"generated_by\": \"perf_suite\",");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(json, "  \"scenarios\": [");
    for (i, m) in measurements.iter().enumerate() {
        let comma = if i + 1 < measurements.len() { "," } else { "" };
        let _ = writeln!(json, "    {}{comma}", m.to_json());
    }
    let _ = write!(json, "  ]");
    if let Some(base) = &baseline {
        let _ = writeln!(json, ",");
        let _ = writeln!(json, "  \"speedup_vs_baseline\": {{");
        let mut lines = Vec::new();
        for m in &measurements {
            if let Some(b) = baseline_wall_clock(base, m.name) {
                lines.push(format!(
                    "    \"{}\": {:.2}",
                    m.name,
                    b / m.wall_clock_s.max(1e-12)
                ));
            }
        }
        let _ = writeln!(json, "{}", lines.join(",\n"));
        let _ = writeln!(json, "  }},");
        // Embed the machine-generated baseline report verbatim (it is
        // itself a JSON object, so nesting it keeps the file valid).
        let _ = write!(json, "  \"baseline\": {}", base.trim_end());
    }
    let _ = writeln!(json, "\n}}");

    std::fs::write(&out_path, &json)?;
    println!("wrote {}", out_path.display());
    if let Some(base) = &baseline {
        for m in &measurements {
            if let Some(b) = baseline_wall_clock(base, m.name) {
                println!(
                    "  {}: {:.2}s vs baseline {:.2}s ({:.2}x)",
                    m.name,
                    m.wall_clock_s,
                    b,
                    b / m.wall_clock_s.max(1e-12)
                );
            }
        }
    }
    Ok(())
}
