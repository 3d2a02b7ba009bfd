//! Determinism guarantees of the sweep engine.
//!
//! 1. **Parallel ≡ sequential**: one panel of runs executed by the
//!    run-parallel engine is bit-identical (every `RunTrace`, every float)
//!    to the same specs executed strictly one after another. This is the
//!    property that makes `reproduce_all`'s parallel CSVs trustworthy.
//! 2. **Golden fixture**: the engine path's results are pinned bit-exactly
//!    against a committed fixture (loss/clock bits per run), extending the
//!    simulator's golden-trace regression test to cover the sweep engine.
//!    Regenerate after an intentional math change with
//!    `ADACOMM_REGEN_GOLDEN=1 cargo test -p adacomm-bench --test
//!    sweep_determinism`.
//!
//! The pool is pinned to four workers so run-level parallelism is real
//! even on single-core CI machines (each run's nested join runs its own
//! chunks while idle pool threads take the rest).

use adacomm_bench::{LrSpec, ScenarioSpec, SchedulerSpec, SweepEngine, SweepSpec};
use pasgd_sim::RunTrace;
use std::fmt::Write as _;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/sweep_engine_golden.txt"
);

/// Pins the pool size before first use (each integration-test file is its
/// own process, so this reliably precedes pool creation).
fn four_worker_pool() {
    std::env::set_var("RAYON_NUM_THREADS", "4");
}

/// A small but non-trivial panel: sync, two fixed periods, AdaComm —
/// enough runs to actually overlap on a four-thread pool, with nested
/// worker fan-out and chunked evaluation inside each run.
fn panel() -> Vec<SweepSpec> {
    let mut specs: Vec<SweepSpec> = [1usize, 4, 16]
        .into_iter()
        .map(|tau| {
            SweepSpec::new(
                ScenarioSpec::Concept,
                SchedulerSpec::Fixed { tau },
                LrSpec::Fixed,
            )
            .with_budget(60.0, 12.0)
        })
        .collect();
    specs.push(
        SweepSpec::new(
            ScenarioSpec::Concept,
            SchedulerSpec::adacomm(16),
            LrSpec::Fixed,
        )
        .with_budget(60.0, 12.0),
    );
    specs
}

#[test]
fn parallel_engine_is_bit_identical_to_sequential() {
    four_worker_pool();
    let specs = panel();
    let sequential = SweepEngine::with_parallelism(false).run(&specs);
    let parallel = SweepEngine::with_parallelism(true).run(&specs);
    assert_eq!(sequential.len(), parallel.len());
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(s.name, p.name);
        assert_eq!(
            s, p,
            "run {} diverged between sequential and parallel execution",
            s.name
        );
    }
}

#[test]
fn engine_results_match_golden_fixture() {
    four_worker_pool();
    let traces: Vec<RunTrace> = SweepEngine::new().run(&panel());
    let mut got = String::new();
    let _ = writeln!(got, "# run,point,clock_f64_bits,train_loss_f32_bits");
    for trace in &traces {
        for (i, p) in trace.points.iter().enumerate() {
            let _ = writeln!(
                got,
                "{},{i},{:016x},{:08x}",
                trace.name,
                p.clock.to_bits(),
                p.train_loss.to_bits()
            );
        }
    }
    if std::env::var("ADACOMM_REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(
            std::path::Path::new(FIXTURE)
                .parent()
                .expect("fixture has a parent dir"),
        )
        .expect("create fixtures dir");
        std::fs::write(FIXTURE, &got).expect("write engine golden fixture");
        eprintln!("regenerated {FIXTURE}");
        return;
    }
    let expected = std::fs::read_to_string(FIXTURE).unwrap_or_else(|e| {
        panic!(
            "missing engine golden fixture {FIXTURE} ({e}); \
             run with ADACOMM_REGEN_GOLDEN=1 to create it"
        )
    });
    for (i, (g, w)) in got.lines().zip(expected.lines()).enumerate() {
        assert_eq!(g, w, "engine golden trace diverged at line {i}");
    }
    assert_eq!(
        got.lines().count(),
        expected.lines().count(),
        "engine golden trace length changed"
    );
}

#[test]
fn cross_figure_requests_hit_the_cache() {
    four_worker_pool();
    let engine = SweepEngine::new();
    let first = engine.run(&panel());
    let ran = engine.unique_runs();
    // A second figure asking for an overlapping panel re-uses every run.
    let second = engine.run(&panel()[1..3]);
    assert_eq!(engine.unique_runs(), ran, "no new simulations");
    assert_eq!(first[1], second[0]);
    assert_eq!(first[2], second[1]);
}
