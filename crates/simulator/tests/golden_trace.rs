//! Golden-trace regression test for the training hot path.
//!
//! A fixed-seed, full-precision quick run is recorded bit-exactly — every
//! per-round evaluation loss (`f32` bits) and simulated clock (`f64` bits)
//! — and compared against a committed fixture. The fixture pins the
//! FMA-folded kernel semantics introduced in PR 4 (`f32::mul_add`
//! accumulation — an intentional, accuracy-improving math change that
//! required regenerating the PR 3 fixture); everything since — four-row
//! register blocking, direct full averaging, chunked parallel trace-point
//! evaluation, reused batch buffers, evaluation-result memoization —
//! provably left full-precision results bit-identical, on any pool size.
//! Its trailing codec sections (every codec family under full, ring and
//! partial averaging, with comm bytes and residual norms per round) were
//! generated by the serial per-worker encode loop, committed before the
//! encode moved into the worker fan-out.
//!
//! Only parameter-derived quantities are recorded (evaluation loss, test
//! accuracy, simulated clock). The *mean local loss* returned by
//! `run_round` is deliberately excluded: it is a purely observational
//! reduction whose float summation order is allowed to change with the
//! parallel fold.
//!
//! To regenerate after an *intentional* math change:
//!
//! ```sh
//! ADACOMM_REGEN_GOLDEN=1 cargo test -p pasgd-sim --test golden_trace
//! ```

use data::GaussianMixture;
use delay::{CommModel, DelayDistribution, RuntimeModel};
use gradcomp::CodecSpec;
use pasgd_sim::{
    AggregationPolicy, AveragingStrategy, ClusterConfig, FaultConfig, FaultSpec, MomentumMode,
    PasgdCluster,
};
use std::fmt::Write as _;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_trace_quick.txt"
);

/// The convolution fixture: the same record format over `vgg_like` and
/// `resnet_like`, so `Conv2d`/`MaxPool2d`/`Residual` forward and backward
/// bits are pinned in tier-1 and not only by the benchmark digest. It was
/// generated by the PR 5 implicit-GEMM packers (committed before the PR 12
/// zero-copy kernels replaced them) and must stay byte-unchanged across
/// any rewrite of the conv kernels.
const CONV_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_trace_conv.txt"
);

/// The fault-active fixture: every [`AggregationPolicy`] × averaging
/// strategy × codec family under crash + rejoin + drop + corrupt +
/// straggler injection, recording the clock and byte ledgers and every
/// worker's parameters (through the model discrepancy) per round plus the
/// final [`pasgd_sim::FaultStats`]. It was generated by the separate
/// `run_round_faulty`/`average_subset` path (committed before that path
/// was merged into `run_round`) and must stay byte-unchanged across any
/// restructuring of the round.
const FAULTY_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_trace_faulty.txt"
);

/// Communication periods exercised per section: a mix of τ = 1 (sync),
/// short and long local-update periods.
const TAUS: [usize; 10] = [1, 4, 2, 8, 3, 5, 1, 6, 2, 4];

fn build_cluster(
    workers: usize,
    momentum: MomentumMode,
    averaging: AveragingStrategy,
    seed: u64,
) -> PasgdCluster {
    build_cluster_for(
        nn::models::mlp_classifier(8, &[16], 3, 42),
        GaussianMixture::small_test(),
        workers,
        momentum,
        averaging,
        seed,
    )
}

fn build_cluster_for(
    model: nn::Network,
    task: GaussianMixture,
    workers: usize,
    momentum: MomentumMode,
    averaging: AveragingStrategy,
    seed: u64,
) -> PasgdCluster {
    let split = task.generate(seed);
    let runtime = RuntimeModel::new(
        DelayDistribution::exponential(0.5),
        CommModel::constant(0.3),
        workers,
    );
    PasgdCluster::new(
        model,
        split,
        runtime,
        ClusterConfig {
            workers,
            batch_size: 8,
            lr: 0.05,
            weight_decay: 5e-4,
            momentum,
            averaging,
            codec: CodecSpec::Identity,
            seed,
            eval_subset: 64,
            fault: pasgd_sim::FaultConfig::NONE,
        },
    )
}

fn record_round(out: &mut String, section: &str, round: usize, c: &mut PasgdCluster) {
    let loss = c.eval_train_loss();
    let _ = writeln!(
        out,
        "{section},{round},{iters},{clock:016x},{loss:08x}",
        iters = c.iterations(),
        clock = c.clock().to_bits(),
        loss = loss.to_bits(),
    );
}

fn run_section(out: &mut String, section: &str, c: PasgdCluster) {
    run_section_taus(out, section, c, &TAUS);
}

fn run_section_taus(out: &mut String, section: &str, mut c: PasgdCluster, taus: &[usize]) {
    for (round, &tau) in taus.iter().enumerate() {
        let _ = c.run_round(tau);
        record_round(out, section, round, &mut c);
    }
    let acc = c.eval_test_accuracy();
    let _ = writeln!(out, "{section},accuracy,{:016x}", acc.to_bits());
}

/// Generates the full golden trace with the current code.
fn golden_trace() -> String {
    let mut out = String::new();
    out.push_str("# section,round,iterations,clock_f64_bits,train_loss_f32_bits\n");

    run_section(
        &mut out,
        "full-average",
        build_cluster(3, MomentumMode::None, AveragingStrategy::FullAverage, 7),
    );
    run_section(
        &mut out,
        "block-momentum",
        build_cluster(
            2,
            MomentumMode::paper_block(),
            AveragingStrategy::FullAverage,
            8,
        ),
    );
    run_section(
        &mut out,
        "local-momentum",
        build_cluster(
            2,
            MomentumMode::Local {
                beta: 0.9,
                reset_at_sync: true,
            },
            AveragingStrategy::FullAverage,
            9,
        ),
    );
    run_section(
        &mut out,
        "ring",
        build_cluster(4, MomentumMode::None, AveragingStrategy::Ring, 10),
    );
    run_section(
        &mut out,
        "elastic",
        build_cluster(
            3,
            MomentumMode::None,
            AveragingStrategy::Elastic { alpha: 0.5 },
            11,
        ),
    );
    run_section(
        &mut out,
        "partial",
        build_cluster(
            4,
            MomentumMode::None,
            AveragingStrategy::PartialParticipation { fraction: 0.5 },
            12,
        ),
    );

    // The Figure 14 probe path: local-only stretches closed by explicit
    // averaging calls.
    let mut c = build_cluster(2, MomentumMode::None, AveragingStrategy::FullAverage, 13);
    for round in 0..6 {
        let _ = c.run_local_only(3);
        record_round(&mut out, "local-only", round, &mut c);
        c.average_now();
        record_round(&mut out, "local-only-avg", round, &mut c);
    }
    let acc = c.eval_test_accuracy();
    let _ = writeln!(out, "local-only,accuracy,{:016x}", acc.to_bits());

    // Compressed fault-free rounds: every codec family under each mixing
    // shape, on the same bytes-aware cluster as the fault-active fixture.
    // `partial` pins the non-participant `reset_feedback` path.
    out.push_str(
        "# section,round,iterations,clock_f64_bits,train_loss_f32_bits,comm_bytes_f64_bits,\
         residual_norm_f32_bits,discrepancy_f32_bits\n",
    );
    let strategies = [
        ("full", AveragingStrategy::FullAverage),
        ("ring", AveragingStrategy::Ring),
        (
            "partial",
            AveragingStrategy::PartialParticipation { fraction: 0.5 },
        ),
    ];
    let codecs = [
        ("topk1", CodecSpec::TopK { ratio: 0.01 }),
        ("qsgd4", CodecSpec::Qsgd { bits: 4 }),
        ("sign", CodecSpec::Sign),
        ("randk", CodecSpec::RandomK { ratio: 0.25 }),
    ];
    let mut seed = 20;
    for (strategy_name, averaging) in strategies {
        for (codec_name, codec) in codecs {
            seed += 1;
            let mut c = ledger_cluster(
                MomentumMode::None,
                averaging,
                codec,
                FaultConfig::NONE,
                seed,
            );
            let section = format!("{codec_name}-{strategy_name}");
            for (round, &tau) in TAUS.iter().enumerate() {
                let _ = c.run_round(tau);
                let loss = c.eval_train_loss();
                let _ = writeln!(
                    out,
                    "{section},{round},{iters},{clock:016x},{loss:08x},{bytes:016x},\
                     {residual:08x},{disc:08x}",
                    iters = c.iterations(),
                    clock = c.clock().to_bits(),
                    loss = loss.to_bits(),
                    bytes = c.comm_bytes().to_bits(),
                    residual = c.mean_residual_norm().to_bits(),
                    disc = c.model_discrepancy().to_bits(),
                );
            }
            let acc = c.eval_test_accuracy();
            let _ = writeln!(out, "{section},accuracy,{:016x}", acc.to_bits());
        }
    }

    out
}

/// A four-worker MLP cluster whose comm model has a bandwidth term, so
/// payload bytes (codec- and retransmit-dependent) reach the clock.
fn ledger_cluster(
    momentum: MomentumMode,
    averaging: AveragingStrategy,
    codec: CodecSpec,
    fault: FaultConfig,
    seed: u64,
) -> PasgdCluster {
    let workers = 4;
    PasgdCluster::new(
        nn::models::mlp_classifier(8, &[16], 3, 42),
        GaussianMixture::small_test().generate(seed),
        RuntimeModel::new(
            DelayDistribution::exponential(0.5),
            CommModel::constant(0.3).with_bandwidth(1e-5),
            workers,
        ),
        ClusterConfig {
            workers,
            batch_size: 8,
            lr: 0.05,
            weight_decay: 5e-4,
            momentum,
            averaging,
            codec,
            seed,
            eval_subset: 64,
            fault,
        },
    )
}

/// Generates the convolution golden trace: five rounds of each conv model
/// family on flattened 1×8×8 images.
fn golden_trace_conv() -> String {
    let task = GaussianMixture {
        dim: 64,
        ..GaussianMixture::small_test()
    };
    let mut out = String::new();
    out.push_str("# section,round,iterations,clock_f64_bits,train_loss_f32_bits\n");
    run_section_taus(
        &mut out,
        "vgg-like",
        build_cluster_for(
            nn::models::vgg_like(1, 8, 3, 42),
            task.clone(),
            2,
            MomentumMode::None,
            AveragingStrategy::FullAverage,
            14,
        ),
        &TAUS[..5],
    );
    run_section_taus(
        &mut out,
        "resnet-like",
        build_cluster_for(
            nn::models::resnet_like(1, 8, 3, 43),
            task,
            2,
            MomentumMode::paper_block(),
            AveragingStrategy::FullAverage,
            15,
        ),
        &TAUS[..5],
    );
    out
}

/// Generates the fault-active golden trace: 27 four-worker sections of ten
/// rounds each; sections whose three indices sum to an odd number run with
/// local momentum so the sync-point momentum reset is pinned on every
/// averaging branch.
fn golden_trace_faulty() -> String {
    let spec = FaultSpec {
        crash_prob: 0.15,
        rejoin_after: 2,
        drop_prob: 0.1,
        corrupt_prob: 0.05,
        straggler_prob: 0.2,
        straggler_factor: 4.0,
    };
    let policies = [
        ("barrier", AggregationPolicy::FullBarrier),
        (
            "quorum",
            AggregationPolicy::Quorum {
                quorum: 4,
                deadline_secs: 3.0,
            },
        ),
        (
            "staleness",
            AggregationPolicy::BoundedStaleness {
                quorum: 3,
                max_staleness: 1,
            },
        ),
    ];
    let strategies = [
        ("full", AveragingStrategy::FullAverage),
        ("ring", AveragingStrategy::Ring),
        (
            "partial",
            AveragingStrategy::PartialParticipation { fraction: 0.5 },
        ),
    ];
    let codecs = [
        ("identity", CodecSpec::Identity),
        ("topk", CodecSpec::TopK { ratio: 0.25 }),
        ("qsgd", CodecSpec::Qsgd { bits: 4 }),
    ];
    let mut out = String::new();
    out.push_str(
        "# section,round,iterations,clock_f64_bits,train_loss_f32_bits,comm_bytes_f64_bits,\
         comm_time_f64_bits,compute_time_f64_bits,discrepancy_f32_bits\n",
    );
    let mut seed = 100;
    for (pi, (policy_name, policy)) in policies.into_iter().enumerate() {
        for (si, (strategy_name, averaging)) in strategies.into_iter().enumerate() {
            for (ci, (codec_name, codec)) in codecs.into_iter().enumerate() {
                let momentum = if (pi + si + ci) % 2 == 1 {
                    MomentumMode::Local {
                        beta: 0.9,
                        reset_at_sync: true,
                    }
                } else {
                    MomentumMode::None
                };
                seed += 1;
                let mut c = ledger_cluster(
                    momentum,
                    averaging,
                    codec,
                    FaultConfig { spec, policy },
                    seed,
                );
                let section = format!("{policy_name}-{strategy_name}-{codec_name}");
                for (round, &tau) in TAUS.iter().enumerate() {
                    let _ = c.run_round(tau);
                    let loss = c.eval_train_loss();
                    let _ = writeln!(
                        out,
                        "{section},{round},{iters},{clock:016x},{loss:08x},{bytes:016x},\
                         {comm:016x},{compute:016x},{disc:08x}",
                        iters = c.iterations(),
                        clock = c.clock().to_bits(),
                        loss = loss.to_bits(),
                        bytes = c.comm_bytes().to_bits(),
                        comm = c.comm_time().to_bits(),
                        compute = c.compute_time().to_bits(),
                        disc = c.model_discrepancy().to_bits(),
                    );
                }
                let acc = c.eval_test_accuracy();
                let _ = writeln!(out, "{section},accuracy,{:016x}", acc.to_bits());
                let s = c.fault_stats();
                let _ = writeln!(
                    out,
                    "{section},stats,crashes={},rejoins={},drops={},corruptions={},\
                     stragglers={},retransmits={},degraded_rounds={}",
                    s.crashes,
                    s.rejoins,
                    s.drops,
                    s.corruptions,
                    s.stragglers,
                    s.retransmits,
                    s.degraded_rounds,
                );
            }
        }
    }
    out
}

/// Compares `trace` with the committed fixture, or rewrites the fixture
/// when `ADACOMM_REGEN_GOLDEN` is set.
fn check_against_fixture(trace: &str, fixture: &str) {
    if std::env::var("ADACOMM_REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(
            std::path::Path::new(fixture)
                .parent()
                .expect("fixture has a parent dir"),
        )
        .expect("create fixtures dir");
        std::fs::write(fixture, trace).expect("write golden fixture");
        eprintln!("regenerated {fixture}");
        return;
    }
    let expected = std::fs::read_to_string(fixture).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {fixture} ({e}); \
             run with ADACOMM_REGEN_GOLDEN=1 to create it"
        )
    });
    // Compare line-by-line for a readable diff on mismatch.
    for (i, (got, want)) in trace.lines().zip(expected.lines()).enumerate() {
        assert_eq!(got, want, "golden trace diverged at line {} (0-indexed)", i);
    }
    assert_eq!(
        trace.lines().count(),
        expected.lines().count(),
        "golden trace length changed"
    );
}

#[test]
fn full_precision_trace_is_bit_identical_to_fixture() {
    check_against_fixture(&golden_trace(), FIXTURE);
}

#[test]
fn conv_trace_is_bit_identical_to_fixture() {
    check_against_fixture(&golden_trace_conv(), CONV_FIXTURE);
}

#[test]
fn faulty_trace_is_bit_identical_to_fixture() {
    check_against_fixture(&golden_trace_faulty(), FAULTY_FIXTURE);
}
