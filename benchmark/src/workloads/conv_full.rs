//! `conv_full`: the paper's real model families (VGG-like and
//! ResNet-like conv nets) at full scale — τ = 10, batch 128 — with the
//! simulated budget cut to a few rounds. im2col packing and large GEMMs
//! dominate; quick scale (MLP only) never runs this code.

use super::parts::{self, Parts, WORKERS};
use super::{tally, Batch, BodyOut, Checks, RunConfig};
use crate::spans::Recorder;
use crate::util::derive_seed;
use adacomm::FixedComm;
use adacomm_bench::scenarios::ModelFamily;
use std::time::Instant;

const TAU: usize = 10;
/// Simulated seconds per family: 5 rounds (200 worker-steps) each, ≈ 5.5 s
/// of host time per body on the 2-core box. Each budget sits midway
/// between the simulated clocks after 4 and after 5 rounds (VGG 2.68 ±
/// 0.05 s and 3.35 ± 0.06 s; ResNet 3.46 ± 0.09 s and 4.33 ± 0.10 s), so
/// every cluster seed runs the same number of rounds.
const BUDGETS: [(ModelFamily, &str, f64); 2] = [
    (ModelFamily::VggLike, "sim.suite_run_vgg", 3.0),
    (ModelFamily::ResnetLike, "sim.suite_run_resnet", 3.9),
];

pub struct ConvFull {
    data_seed: u64,
    cluster_seed: u64,
    scale: f64,
    parts: Vec<Parts>,
}

impl ConvFull {
    pub fn new(cfg: &RunConfig) -> Self {
        ConvFull {
            data_seed: derive_seed(cfg.seed, 20),
            cluster_seed: derive_seed(cfg.seed, 21),
            scale: if cfg.smoke { 0.2 } else { 1.0 },
            parts: Vec::new(),
        }
    }
}

impl Batch for ConvFull {
    fn setup(&mut self) {
        self.parts = BUDGETS
            .iter()
            .map(|&(family, _, secs)| {
                let parts = parts::canonical_full(
                    family,
                    self.data_seed,
                    self.cluster_seed,
                    secs * self.scale,
                );
                // Warm-up: one short round through forward, backward and
                // averaging at the real batch size.
                parts.cluster().run_round(2);
                parts
            })
            .collect();
    }

    fn body(&mut self, rec: &mut Recorder, checks: &mut Checks) -> BodyOut {
        let mut traces = Vec::new();
        let mut op_ms = Vec::new();
        let body_start = Instant::now();
        for (parts, (_, span, _)) in self.parts.iter().zip(BUDGETS) {
            let suite = parts.suite();
            let t0 = Instant::now();
            let trace = rec.call(span, || suite.run(&mut FixedComm::new(TAU), &parts.lr));
            op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            traces.push(trace);
        }
        let wall = body_start.elapsed().as_secs_f64();
        for t in &traces {
            checks.trace("conv_full", t);
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
