//! The figure registry: every paper figure/table/ablation/extension as a
//! library entry. A figure is a module here plus one [`registry`] entry —
//! there is no per-figure binary; `reproduce_all --only <name>` runs one.
//!
//! Each figure is a pair of hooks:
//!
//! * [`Figure::specs`] — the [`SweepSpec`]s the figure contributes to the
//!   central sweep table (empty for analytic figures and free-form
//!   experiments). `reproduce_all` collects the union across figures,
//!   deduplicates it, and warms the engine cache in one parallel wave.
//! * [`Figure::run`] — renders the figure: requests its traces from the
//!   engine (cache hits after the warm-up wave), prints paper-style
//!   reports into its own buffer, and writes its CSVs.
//!
//! Figures write *all* of their stdout into the `out` buffer so that
//! concurrently-executing figures never interleave; `reproduce_all`
//! prints the buffers in registry order.
//!
//! [`run_figure`] is the one way a figure body executes — for
//! [`reproduce`], for a `figure` request served by `sweepd`, and for the
//! daemon's journal recovery alike.

use crate::sweep::{SweepEngine, SweepSpec};
use crate::Scale;
use std::io;

mod ablation_gamma;
mod ablation_lr_coupling;
mod ablation_momentum_mode;
mod ablation_straggler;
mod ablation_t0;
mod ext_averaging_strategies;
mod ext_compression;
mod ext_faults;
mod fig01_concept;
mod fig04_speedup;
mod fig05_runtime_dist;
mod fig06_theory_bound;
mod fig07_switching;
mod fig08_comm_comp;
mod fig09_vgg_adacomm;
mod fig10_resnet_adacomm;
mod fig11_block_momentum;
mod fig12_vgg_8workers;
mod fig13_resnet_8workers;
mod fig14_local_gap;
mod table1_accuracy;
mod thm3_schedule_check;

/// The canonical scenario label, matching
/// [`crate::scenarios::Scenario::name`] without building the suite.
pub(crate) fn scenario_title(
    family: crate::scenarios::ModelFamily,
    classes: usize,
    workers: usize,
    scale: Scale,
) -> String {
    format!(
        "{} / CIFAR{classes}-like / {workers} workers ({scale})",
        family.name()
    )
}

/// Appends the AdaComm communication-period trace printed under the
/// Figure 9–11 panels.
pub(crate) fn append_tau_trace(out: &mut String, trace: &pasgd_sim::RunTrace) {
    crate::sayln!(out, "adacomm comm-period trace:");
    for (t, tau) in trace.tau_trace().iter().step_by(4) {
        crate::sayln!(out, "  t = {t:>7.1} s  tau = {tau}");
    }
    crate::sayln!(out);
}

/// One reproduction target.
pub struct Figure {
    /// Stable name: what `reproduce_all --only` filters on (by substring;
    /// no name contains another, so a full name selects one figure), what
    /// a `sweepd` `figure` request names, and the stem of the CSVs.
    pub name: &'static str,
    /// The sweep specs this figure contributes to the central table.
    pub specs: fn(Scale) -> Vec<SweepSpec>,
    /// Renders the figure into `out` (requesting runs from `engine`).
    pub run: fn(Scale, &SweepEngine, &mut String) -> io::Result<()>,
}

fn no_specs(_scale: Scale) -> Vec<SweepSpec> {
    Vec::new()
}

/// Every reproduction target, in the canonical order `reproduce_all`
/// executes and reports them.
pub fn registry() -> Vec<Figure> {
    vec![
        Figure {
            name: "fig01_concept",
            specs: fig01_concept::specs,
            run: fig01_concept::run,
        },
        Figure {
            name: "fig04_speedup",
            specs: no_specs,
            run: fig04_speedup::run,
        },
        Figure {
            name: "fig05_runtime_dist",
            specs: no_specs,
            run: fig05_runtime_dist::run,
        },
        Figure {
            name: "fig06_theory_bound",
            specs: no_specs,
            run: fig06_theory_bound::run,
        },
        Figure {
            name: "fig07_switching",
            specs: no_specs,
            run: fig07_switching::run,
        },
        Figure {
            name: "fig08_comm_comp",
            specs: no_specs,
            run: fig08_comm_comp::run,
        },
        Figure {
            name: "fig09_vgg_adacomm",
            specs: fig09_vgg_adacomm::specs,
            run: fig09_vgg_adacomm::run,
        },
        Figure {
            name: "fig10_resnet_adacomm",
            specs: fig10_resnet_adacomm::specs,
            run: fig10_resnet_adacomm::run,
        },
        Figure {
            name: "fig11_block_momentum",
            specs: fig11_block_momentum::specs,
            run: fig11_block_momentum::run,
        },
        Figure {
            name: "fig12_vgg_8workers",
            specs: fig12_vgg_8workers::specs,
            run: fig12_vgg_8workers::run,
        },
        Figure {
            name: "fig13_resnet_8workers",
            specs: fig13_resnet_8workers::specs,
            run: fig13_resnet_8workers::run,
        },
        Figure {
            name: "fig14_local_gap",
            specs: no_specs,
            run: fig14_local_gap::run,
        },
        Figure {
            name: "table1_accuracy",
            specs: table1_accuracy::specs,
            run: table1_accuracy::run,
        },
        Figure {
            name: "thm3_schedule_check",
            specs: no_specs,
            run: thm3_schedule_check::run,
        },
        Figure {
            name: "ablation_gamma",
            specs: ablation_gamma::specs,
            run: ablation_gamma::run,
        },
        Figure {
            name: "ablation_lr_coupling",
            specs: ablation_lr_coupling::specs,
            run: ablation_lr_coupling::run,
        },
        Figure {
            name: "ablation_momentum_mode",
            specs: ablation_momentum_mode::specs,
            run: ablation_momentum_mode::run,
        },
        Figure {
            name: "ablation_t0",
            specs: ablation_t0::specs,
            run: ablation_t0::run,
        },
        Figure {
            name: "ablation_straggler",
            specs: no_specs,
            run: ablation_straggler::run,
        },
        Figure {
            name: "ext_averaging_strategies",
            specs: ext_averaging_strategies::specs,
            run: ext_averaging_strategies::run,
        },
        Figure {
            name: "ext_compression",
            specs: ext_compression::specs,
            run: ext_compression::run,
        },
        Figure {
            name: "ext_faults",
            specs: ext_faults::specs,
            run: ext_faults::run,
        },
    ]
}

/// The outcome of one figure inside [`reproduce`].
pub struct FigureOutcome {
    /// Registry name.
    pub name: &'static str,
    /// The figure's rendered report (its would-be stdout).
    pub output: String,
    /// Wall-clock seconds this figure's `run` hook took. Figures execute
    /// concurrently, so these overlap and their sum exceeds the driver's
    /// wall time; a figure whose runs were pre-warmed by the sweep wave
    /// reports only its rendering + residual simulation time.
    pub wall_secs: f64,
    /// `Err(panic message)` if the figure panicked (its assertions are
    /// part of the reproduction contract).
    pub failure: Option<String>,
}

/// The outcome of an in-process reproduction sweep.
pub struct ReproOutcome {
    /// Per-figure outcomes, in registry order.
    pub figures: Vec<FigureOutcome>,
    /// Wall-clock seconds of the sweep wave (phase 1: the deduplicated
    /// union of every figure's declared specs, run-parallel).
    pub sweep_secs: f64,
    /// End-to-end wall-clock seconds (sweep wave + figure phase).
    pub total_secs: f64,
    /// Distinct simulation runs the engine executed.
    pub unique_runs: usize,
}

impl ReproOutcome {
    /// Names of figures that failed.
    pub fn failures(&self) -> Vec<&'static str> {
        self.figures
            .iter()
            .filter(|f| f.failure.is_some())
            .map(|f| f.name)
            .collect()
    }
}

/// Runs the whole reproduction in-process: collects every selected
/// figure's declared [`SweepSpec`]s into one table, executes the
/// deduplicated union as a single run-parallel wave on `engine`, then
/// runs the figure bodies (their engine requests are cache hits; free-form
/// extras like the τ0 grid search still simulate) — concurrently when the
/// engine is parallel, strictly in order otherwise.
///
/// `only` filters figures by substring of their registry name.
pub fn reproduce(scale: Scale, engine: &SweepEngine, only: Option<&str>) -> ReproOutcome {
    reproduce_with_trace(scale, engine, only, None).expect("no trace dir requested, so no I/O")
}

/// [`reproduce`] with an optional telemetry trace: when `trace_dir` is
/// `Some`, every execution window (the sweep wave, then each figure body)
/// gets its own JSONL profile in that directory — a `meta` header, the
/// window's metric/span snapshot delta, and the per-round `point` events
/// the simulator emitted while the window ran.
///
/// Tracing forces the figure phase sequential regardless of the engine's
/// parallelism, so each window's snapshot delta is attributable to exactly
/// one figure. Pass `trace_dir = None` for the untraced (and
/// fully-parallel) behaviour; in that mode this never returns `Err`.
///
/// # Errors
///
/// Returns the underlying I/O error if a profile file cannot be written.
pub fn reproduce_with_trace(
    scale: Scale,
    engine: &SweepEngine,
    only: Option<&str>,
    trace_dir: Option<&std::path::Path>,
) -> io::Result<ReproOutcome> {
    use rayon::prelude::*;
    use std::time::Instant;

    let figures: Vec<Figure> = registry()
        .into_iter()
        .filter(|f| only.is_none_or(|needle| f.name.contains(needle)))
        .collect();

    let scale_label = format!("{scale}");
    let sink = trace_dir.map(|dir| {
        std::fs::create_dir_all(dir).ok();
        telemetry::EventSink::new()
    });
    let previous_sink = sink
        .as_ref()
        .map(|s| telemetry::install_sink(Some(s.clone())));
    // Restores the previously-installed sink (usually `None`) even on the
    // early-return I/O error paths below.
    struct SinkRestore {
        armed: bool,
        previous: Option<std::sync::Arc<telemetry::EventSink>>,
    }
    impl Drop for SinkRestore {
        fn drop(&mut self) {
            if self.armed {
                telemetry::install_sink(self.previous.take());
            }
        }
    }
    let _restore = SinkRestore {
        armed: previous_sink.is_some(),
        previous: previous_sink.flatten(),
    };

    let mut window_start = telemetry::snapshot();
    let mut write_window =
        |dir: Option<&std::path::Path>, task: &str, wall_secs: f64| -> io::Result<()> {
            let Some(dir) = dir else { return Ok(()) };
            let now = telemetry::snapshot();
            let delta = now.delta_since(&window_start);
            window_start = now;
            let mut lines = vec![telemetry::schema::meta_line(task, &scale_label, wall_secs)];
            lines.extend(delta.to_jsonl_lines());
            if let Some(sink) = &sink {
                lines.extend(sink.drain());
            }
            telemetry::write_jsonl_atomic(&dir.join(format!("{task}.jsonl")), &lines)
        };

    let start = Instant::now();
    // Phase 1: the central sweep table. Order follows the registry, so a
    // sequential engine executes runs exactly as the figures would.
    let all_specs: Vec<SweepSpec> = figures.iter().flat_map(|f| (f.specs)(scale)).collect();
    {
        // `warm`, not `run`: a run that fails terminally under the
        // supervisor must not abort the wave — its figure fails (with the
        // supervisor's reason) when its body requests the poisoned key,
        // and every other figure still completes.
        let _phase = telemetry::span("phase.sweep_wave");
        engine.warm(&all_specs);
    }
    let sweep_secs = start.elapsed().as_secs_f64();
    write_window(trace_dir, "sweep_wave", sweep_secs)?;

    // Phase 2: figure bodies (rendering + the non-declarable runs), each
    // filling in its own outcome.
    let mut outcomes: Vec<FigureOutcome> = figures
        .iter()
        .map(|f| FigureOutcome {
            name: f.name,
            output: String::new(),
            wall_secs: 0.0,
            failure: None,
        })
        .collect();
    let exec = |outcome: &mut FigureOutcome| {
        let t0 = Instant::now();
        let _phase = telemetry::span("phase.figure_render");
        outcome.failure = run_figure(outcome.name, scale, engine, &mut outcome.output)
            .err()
            .map(|e| e.to_string());
        outcome.wall_secs = t0.elapsed().as_secs_f64();
    };
    if trace_dir.is_some() {
        for outcome in outcomes.iter_mut() {
            exec(outcome);
            write_window(trace_dir, outcome.name, outcome.wall_secs)?;
        }
    } else if engine.is_parallel() {
        outcomes.par_iter_mut().with_max_len(1).for_each(exec);
    } else {
        outcomes.iter_mut().for_each(exec);
    }

    Ok(ReproOutcome {
        figures: outcomes,
        sweep_secs,
        total_secs: start.elapsed().as_secs_f64(),
        unique_runs: engine.unique_runs(),
    })
}

/// Why [`run_figure`] did not produce a figure.
#[derive(Debug)]
pub enum FigureError {
    /// No registry entry has this name.
    Unknown(String),
    /// The figure's CSV writing failed.
    Io(io::Error),
    /// The figure body panicked — a failed reproduction assertion, or a
    /// run that failed terminally under the engine's supervisor — with
    /// the panic message.
    Panicked(String),
}

impl std::fmt::Display for FigureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FigureError::Unknown(name) => write!(f, "unknown figure \"{name}\""),
            FigureError::Io(e) => write!(f, "I/O error: {e}"),
            FigureError::Panicked(message) => f.write_str(message),
        }
    }
}

/// Runs the registry figure `name` against `engine`, panic-isolated:
/// its report lands in `out` (whatever it wrote before a failure
/// included) and its CSVs in the active results directory. Every caller
/// that executes a figure body goes through here.
///
/// # Errors
///
/// [`FigureError`]: the name is not in the registry, a CSV could not be
/// written, or the body panicked.
pub fn run_figure(
    name: &str,
    scale: Scale,
    engine: &SweepEngine,
    out: &mut String,
) -> Result<(), FigureError> {
    let figure = registry()
        .into_iter()
        .find(|f| f.name == name)
        .ok_or_else(|| FigureError::Unknown(name.to_string()))?;
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        (figure.run)(scale, engine, out)
    }))
    .map_err(|panic| FigureError::Panicked(crate::supervisor::panic_message(panic)))?
    .map_err(FigureError::Io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::SupervisorPolicy;

    /// `reproduce_all --only <full name>` is the single-figure command
    /// line, and `--only` matches by substring.
    #[test]
    fn no_registry_name_contains_another() {
        let names: Vec<&str> = registry().iter().map(|f| f.name).collect();
        for a in &names {
            let matched: Vec<&&str> = names.iter().filter(|b| b.contains(a)).collect();
            assert_eq!(matched, [a], "--only {a} must select exactly {a}");
        }
    }

    #[test]
    fn run_figure_reports_unknown_healthy_and_panicked() {
        crate::report::set_results_subdir("tests");
        // No run meets a zero deadline, so every engine request fails
        // terminally and the requesting figure body panics with the reason.
        let doomed = SweepEngine::with_parallelism(false).with_supervisor(SupervisorPolicy {
            deadline: Some(std::time::Duration::ZERO),
            ..SupervisorPolicy::default()
        });
        let mut out = String::new();

        let err = run_figure("fig04", Scale::Smoke, &doomed, &mut out).unwrap_err();
        assert!(matches!(&err, FigureError::Unknown(name) if name == "fig04"));
        assert_eq!(err.to_string(), "unknown figure \"fig04\"");
        assert!(out.is_empty(), "an unknown figure renders nothing");

        // Analytic: asks the engine for nothing, so it is healthy here.
        run_figure("fig04_speedup", Scale::Smoke, &doomed, &mut out).expect("healthy figure");
        assert!(out.contains("Figure 4") && out.contains("[saved "), "{out}");

        out.clear();
        match run_figure("fig01_concept", Scale::Smoke, &doomed, &mut out) {
            Err(FigureError::Panicked(message)) => {
                assert!(message.contains("deadline exceeded"), "{message}")
            }
            other => panic!("expected a panicked figure, got {other:?}"),
        }
        assert!(
            out.starts_with("Figure 1"),
            "what the body wrote before it failed is kept: {out:?}"
        );
    }
}
