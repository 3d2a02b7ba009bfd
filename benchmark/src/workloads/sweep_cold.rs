//! `sweep_cold`: `figures::reproduce(Quick, fresh engine + empty store,
//! "fig09_vgg_adacomm")` — 12 unique runs, the path `reproduce_all` users
//! wait on.

use super::{tally, Batch, BodyOut, Checks, RunConfig};
use crate::spans::Recorder;
use adacomm_bench::scenarios::ModelFamily;
use adacomm_bench::sweep::standard_panel_specs;
use adacomm_bench::{figures, report, RunStore, Scale, SweepEngine, SweepSpec};
use pasgd_sim::RunTrace;
use std::path::PathBuf;
use std::time::Instant;

const FIGURE: &str = "fig09_vgg_adacomm";
/// Figure 9's panels: `(csv tag, classes, variable lr)`.
const PANELS: [(&str, usize, bool); 3] = [("a", 10, true), ("b", 10, false), ("c", 100, false)];
const WORKERS: usize = 4;

pub struct SweepCold {
    scale: Scale,
    store_dir: PathBuf,
}

impl SweepCold {
    pub fn new(cfg: &RunConfig) -> Self {
        SweepCold {
            scale: if cfg.smoke {
                Scale::Smoke
            } else {
                Scale::Quick
            },
            store_dir: cfg.scratch.join("store"),
        }
    }

    fn panel_specs(&self) -> Vec<Vec<SweepSpec>> {
        PANELS
            .iter()
            .map(|&(_, classes, variable)| {
                standard_panel_specs(
                    ModelFamily::VggLike,
                    classes,
                    WORKERS,
                    self.scale,
                    variable,
                    false,
                )
            })
            .collect()
    }

    fn read_csvs() -> Vec<Vec<u8>> {
        PANELS
            .iter()
            .map(|(tag, _, _)| {
                std::fs::read(report::results_dir().join(format!("fig09{tag}.csv")))
                    .unwrap_or_default()
            })
            .collect()
    }
}

/// The paper's headline by `report_panel`'s rule: simulated time for
/// sync-SGD to reach 1.1 × its own final loss, over AdaComm's time to the
/// same loss. AdaComm is a standard panel's last trace.
pub fn adacomm_speedup(panel: &[RunTrace]) -> Option<f64> {
    let sync = panel.iter().find(|t| t.name == "sync-sgd")?;
    let ada = panel.last().filter(|t| t.name.starts_with("adacomm"))?;
    let target = sync.final_loss() * 1.1;
    Some(sync.time_to_loss(target)? / ada.time_to_loss(target)?)
}

impl Batch for SweepCold {
    /// Warm-up only: the workload's own scenario builds and dataset
    /// generation are part of the cold body, as they are for a user. One
    /// smoke-scale panel spins up the pool and pages in the code.
    fn setup(&mut self) {
        let panel =
            standard_panel_specs(ModelFamily::VggLike, 10, WORKERS, Scale::Smoke, true, false);
        std::hint::black_box(SweepEngine::new().run(&panel));
    }

    fn body(&mut self, rec: &mut Recorder, checks: &mut Checks) -> BodyOut {
        let _ = std::fs::remove_dir_all(&self.store_dir);
        let engine = SweepEngine::new().with_store(RunStore::new(&self.store_dir));
        let t0 = Instant::now();
        let outcome = rec.call("figures.reproduce_cold", || {
            figures::reproduce(self.scale, &engine, Some(FIGURE))
        });
        let wall = t0.elapsed().as_secs_f64();

        for fig in &outcome.figures {
            checks.check(fig.failure.is_none(), || {
                format!("{} failed: {:?}", fig.name, fig.failure)
            });
        }
        let cold_csvs = Self::read_csvs();
        let cold = engine.cache_stats();

        // Memory hits now; the same traces the figure rendered.
        let panels: Vec<Vec<RunTrace>> = self
            .panel_specs()
            .iter()
            .map(|specs| rec.call("sweep.engine_run_memo", || engine.run(specs)))
            .collect();
        let speedup = adacomm_speedup(&panels[0]);
        checks.check(speedup.is_some_and(|s| s.is_finite() && s > 1.0), || {
            format!(
                "panel 9a: AdaComm is not faster than sync-SGD to the target loss ({speedup:?})"
            )
        });
        let traces: Vec<RunTrace> = panels.into_iter().flatten().collect();
        for t in &traces {
            checks.trace("fig09", t);
        }
        let (steps, rounds, comm_bytes, digest) = tally(&traces, WORKERS as u64);

        // A fresh engine on the now-populated store must serve the figure
        // without simulating, byte for byte.
        let warm_engine = SweepEngine::new().with_store(RunStore::new(&self.store_dir));
        let warm = rec.call("figures.reproduce_warm", || {
            figures::reproduce(self.scale, &warm_engine, Some(FIGURE))
        });
        let warm_stats = warm_engine.cache_stats();
        checks.check(
            warm.failures().is_empty()
                && warm_stats.misses == 0
                && warm_stats.disk_hits == cold.misses,
            || format!("store-served fig09 simulated again: {warm_stats:?} after cold {cold:?}"),
        );
        checks.check(
            cold_csvs.iter().all(|c| !c.is_empty()) && Self::read_csvs() == cold_csvs,
            || "store-served fig09 CSVs differ from the cold ones".to_string(),
        );

        BodyOut {
            wall,
            steps,
            rounds,
            comm_bytes,
            op_ms: vec![wall * 1e3],
            digest,
            layer: vec![
                ("figures.adacomm_speedup_x", speedup.unwrap_or(0.0)),
                ("engine.wave_s", outcome.sweep_secs),
                (
                    "engine.figure_render_s",
                    outcome.total_secs - outcome.sweep_secs,
                ),
                ("engine.unique_runs", outcome.unique_runs as f64),
                ("engine.mem_hits", cold.mem_hits as f64),
                ("engine.misses", cold.misses as f64),
                ("engine.disk_hits", warm_stats.disk_hits as f64),
            ],
        }
    }
}
