//! `round_paths`: the compression suite driven at τ = 1, so every local
//! step is followed by one encode and one average — the per-round
//! machinery `sweep_cold` (large τ) barely touches. Four codecs, one
//! block-momentum run, and one seeded-fault run under a quorum policy,
//! which drives the `*_faulty`/`*_subset` twins of the round path.

use super::parts::{self, Parts, WORKERS};
use super::{tally, Batch, BodyOut, Checks, RunConfig};
use crate::spans::Recorder;
use crate::util::derive_seed;
use adacomm::FixedComm;
use gradcomp::CodecSpec;
use pasgd_sim::{AggregationPolicy, FaultConfig, FaultSpec, MomentumMode, RunTrace, TracePoint};
use std::time::Instant;

/// Simulated seconds per run: ≈ 800 rounds at τ = 1, sized so the six
/// runs of one body take ≈ 5 s on the 2-core box.
const BUDGET_SECS: f64 = 400.0;

const CODECS: [(&str, CodecSpec); 4] = [
    ("identity", CodecSpec::Identity),
    ("topk-1%+ef", CodecSpec::TopK { ratio: 0.01 }),
    ("qsgd-4", CodecSpec::Qsgd { bits: 4 }),
    ("sign", CodecSpec::Sign),
];

/// Crashes with stale rejoin plus straggler spikes, averaged over the
/// fastest three of four workers.
pub const FAULTS: FaultConfig = FaultConfig {
    spec: FaultSpec {
        crash_prob: 0.01,
        rejoin_after: 5,
        drop_prob: 0.0,
        corrupt_prob: 0.0,
        straggler_prob: 0.05,
        straggler_factor: 4.0,
    },
    policy: AggregationPolicy::Quorum {
        quorum: 3,
        deadline_secs: 10.0,
    },
};

pub struct RoundPaths {
    data_seed: u64,
    cluster_seed: u64,
    budget: f64,
    parts: Option<Parts>,
}

impl RoundPaths {
    pub fn new(cfg: &RunConfig) -> Self {
        RoundPaths {
            data_seed: derive_seed(cfg.seed, 10),
            cluster_seed: derive_seed(cfg.seed, 11),
            budget: if cfg.smoke {
                BUDGET_SECS / 10.0
            } else {
                BUDGET_SECS
            },
            parts: None,
        }
    }

    /// The fault run is driven round by round on a bare cluster, because
    /// only the cluster (not the trace) exposes `fault_stats`.
    fn fault_run(parts: &Parts, budget: f64, checks: &mut Checks) -> RunTrace {
        let mut cfg = parts.clone();
        cfg.cluster.fault = FAULTS;
        let mut cluster = cfg.cluster();
        let point = |c: &mut pasgd_sim::PasgdCluster| TracePoint {
            clock: c.clock(),
            iterations: c.iterations(),
            epoch: c.epochs(),
            train_loss: c.eval_train_loss(),
            test_accuracy: 0.0,
            tau: 1,
            lr: c.lr(),
            comm_bytes: c.comm_bytes(),
        };
        let mut points = vec![point(&mut cluster)];
        while cluster.clock() < budget {
            cluster.run_round(1);
        }
        points.push(point(&mut cluster));
        let stats = cluster.fault_stats();
        checks.check(
            stats.crashes > 0 && stats.stragglers > 0 && stats.degraded_rounds > 0,
            || format!("fault run injected nothing: {stats:?}"),
        );
        RunTrace {
            name: "faulty-quorum".to_string(),
            points,
            peak_payload_bytes: cluster.peak_payload_bytes(),
            rounds: cluster.rounds(),
        }
    }
}

impl Batch for RoundPaths {
    fn setup(&mut self) {
        let parts = parts::compression_quick(self.data_seed, self.cluster_seed, self.budget);
        // Warm-up: a short stretch of rounds through the costliest codec.
        let mut warm = parts.clone();
        warm.cluster.codec = CodecSpec::TopK { ratio: 0.01 };
        let mut cluster = warm.cluster();
        for _ in 0..50 {
            cluster.run_round(1);
        }
        self.parts = Some(parts);
    }

    fn body(&mut self, rec: &mut Recorder, checks: &mut Checks) -> BodyOut {
        let parts = self.parts.as_ref().expect("setup ran");
        let suite = parts.suite();
        let full_bytes = parts.full_payload_bytes();
        let mut traces = Vec::new();
        let mut op_ms = Vec::new();
        let body_start = Instant::now();
        let mut timed =
            |name: &'static str, rec: &mut Recorder, run: &mut dyn FnMut() -> RunTrace| {
                let t0 = Instant::now();
                let trace = rec.call(name, run);
                op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                trace
            };

        for (label, codec) in CODECS {
            let mut trace = timed("sim.suite_run_codec", rec, &mut || {
                suite.run_configured(
                    &mut FixedComm::new(1),
                    &parts.lr,
                    None,
                    None,
                    Some(codec),
                    None,
                    None,
                )
            });
            trace.name = label.to_string();
            let compressed = !matches!(codec, CodecSpec::Identity);
            checks.check(
                if compressed {
                    trace.peak_payload_bytes < full_bytes
                } else {
                    trace.peak_payload_bytes == full_bytes
                },
                || {
                    format!(
                        "{label}: payload {} vs full {full_bytes} bytes",
                        trace.peak_payload_bytes
                    )
                },
            );
            traces.push(trace);
        }
        let mut block = timed("sim.suite_run_block_momentum", rec, &mut || {
            suite.run_configured(
                &mut FixedComm::new(1),
                &parts.lr.scaled(0.1),
                Some(MomentumMode::paper_block()),
                None,
                None,
                None,
                None,
            )
        });
        block.name = "block-momentum".to_string();
        traces.push(block);
        let budget = self.budget;
        traces.push(timed("sim.cluster_rounds_faulty", rec, &mut || {
            Self::fault_run(parts, budget, checks)
        }));
        let wall = body_start.elapsed().as_secs_f64();

        for t in &traces {
            checks.trace("round_paths", t);
        }
        let (steps, rounds, comm_bytes, digest) = tally(&traces, WORKERS as u64);
        BodyOut {
            wall,
            steps,
            rounds,
            comm_bytes,
            op_ms,
            digest,
            layer: Vec::new(),
        }
    }
}
