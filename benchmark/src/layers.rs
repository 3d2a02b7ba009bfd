//! Shape-matched probes of each layer's public functions — the
//! workload-independent half of the per-layer ledger. Every traced run
//! executes all of them (≈ 3 s), each inside the recorder's spans, at the
//! shapes the workloads actually use: the 256-64-100 MLP at batch 32
//! (`sweep_cold`, `round_paths`), the conv families at batch 128
//! (`conv_full`), the concept suite's request and trace (`service_*`).

use crate::spans::Recorder;
use crate::util::{derive_seed, median};
use crate::workloads::{parts, round_paths, RunConfig};
use adacomm::{AdaComm, CommSchedule, ScheduleContext};
use adacomm_bench::scenarios::ModelFamily;
use adacomm_bench::server::journal::Journal;
use adacomm_bench::server::protocol::{
    self, Command, Request, Response, ResponseBody, RunRequest, RunStats,
};
use adacomm_bench::{LrSpec, RunStore, Scale, ScenarioSpec, SchedulerSpec, SweepEngine, SweepSpec};
use data::BatchIter;
use gradcomp::{CodecSpec, Compressor, ErrorFeedback};
use nn::{models, Sgd};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tensor::{matmul_into, matmul_nt_into, matmul_tn_into};

struct Prober<'a> {
    rec: &'a mut Recorder,
    batches: usize,
    batch_target: Duration,
    out: Vec<(&'static str, f64)>,
}

impl Prober<'_> {
    /// Median seconds per call of `f`: calibrates a batch to
    /// `batch_target`, then times `batches` batches, one span each.
    fn secs_per_call(&mut self, name: &'static str, mut f: impl FnMut()) -> f64 {
        let t0 = Instant::now();
        f();
        let once = t0.elapsed().as_secs_f64().max(1e-9);
        let inner = ((self.batch_target.as_secs_f64() / once) as usize).clamp(1, 1_000_000);
        let times: Vec<f64> = (0..self.batches)
            .map(|_| {
                let span = self.rec.enter(name);
                let t0 = Instant::now();
                for _ in 0..inner {
                    f();
                }
                let per_call = t0.elapsed().as_secs_f64() / inner as f64;
                self.rec.exit(span);
                per_call
            })
            .collect();
        median(&times)
    }

    /// Like [`Prober::secs_per_call`] for calls that need untimed
    /// preparation before each one.
    fn secs_per_prepared_call(
        &mut self,
        name: &'static str,
        mut prepare: impl FnMut(),
        mut f: impl FnMut(),
    ) -> f64 {
        let times: Vec<f64> = (0..self.batches)
            .map(|_| {
                prepare();
                let span = self.rec.enter(name);
                let t0 = Instant::now();
                f();
                let secs = t0.elapsed().as_secs_f64();
                self.rec.exit(span);
                secs
            })
            .collect();
        median(&times)
    }

    fn time(&mut self, name: &'static str, scale: f64, f: impl FnMut()) {
        let secs = self.secs_per_call(name, f);
        self.out.push((name, secs * scale));
    }

    /// `work / seconds-per-call / 1e9`: GFLOP/s for flops.
    fn giga_rate(&mut self, name: &'static str, work: f64, f: impl FnMut()) {
        let secs = self.secs_per_call(name, f);
        self.out.push((name, work / secs / 1e9));
    }
}

const US: f64 = 1e6;
const MS: f64 = 1e3;
const NS: f64 = 1e9;

fn filled(len: usize, seed: u64) -> Vec<f32> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// The machine-peak denominator: independent fused multiply-add chains
/// over a register-resident block, one thread. 2 flops per lane per step.
fn fma_loop(steps: usize) -> f32 {
    const LANES: usize = 128;
    let mut acc = [0.5f32; LANES];
    let (a, b) = (black_box(0.999_9f32), black_box(1e-4f32));
    for _ in 0..steps {
        for x in &mut acc {
            *x = x.mul_add(a, b);
        }
    }
    acc.iter().sum()
}

fn tensor_probes(p: &mut Prober) {
    // Dense layer shapes of the 256-64-100 MLP at batch 32.
    let (m, k, n) = (32usize, 256usize, 64usize);
    let flops = (2 * m * k * n) as f64;
    let (a, b) = (filled(m * k, 1), filled(k * n, 2));
    let mut out = vec![0.0f32; m * n];
    p.giga_rate("tensor.gemm_nn_gflops", flops, || {
        matmul_into(black_box(&a), black_box(&b), &mut out, m, k, n)
    });
    // Weight gradient xᵀ·dy: the reduction runs over the batch.
    let dy = filled(m * n, 3);
    let mut dw = vec![0.0f32; k * n];
    p.giga_rate("tensor.gemm_tn_gflops", flops, || {
        matmul_tn_into(black_box(&a), black_box(&dy), &mut dw, m, k, n)
    });
    // Input gradient dy·Wᵀ.
    let mut dx = vec![0.0f32; m * k];
    p.giga_rate("tensor.gemm_nt_gflops", flops, || {
        matmul_nt_into(black_box(&dy), black_box(&b), &mut dx, m, n, k)
    });
    // vgg_like's widest im2col product: 8 filters over 8×3×3 patches at
    // every pixel of a 128-image 16×16 batch.
    let (cm, ck, cn) = (8usize, 72usize, 128 * 256usize);
    let (w, col) = (filled(cm * ck, 4), filled(ck * cn, 5));
    let mut y = vec![0.0f32; cm * cn];
    p.giga_rate("tensor.gemm_conv_gflops", (2 * cm * ck * cn) as f64, || {
        matmul_into(black_box(&w), black_box(&col), &mut y, cm, ck, cn)
    });
    let steps = 20_000usize;
    p.giga_rate("tensor.peak_gflops", (2 * 128 * steps) as f64, || {
        black_box(fma_loop(black_box(steps)));
    });
}

fn nn_probes(p: &mut Prober, cfg: &RunConfig) {
    let parts = parts::compression_quick(derive_seed(cfg.seed, 50), derive_seed(cfg.seed, 51), 1.0);
    let mut net = parts.model.clone();
    let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, 52));
    let mut batches = BatchIter::new(parts.split.train.clone(), 32);
    let (mut x, mut y) = batches.next_batch(&mut rng);
    p.time("data.batch_gather_us", US, || {
        batches.next_batch_into(&mut rng, &mut x, &mut y)
    });
    p.time("nn.mlp_train_step_us", US, || {
        black_box(net.train_step(&x, &y));
    });
    let mut opt = Sgd::new(1e-4).with_weight_decay(5e-4);
    p.time("nn.sgd_step_us", US, || opt.step(&mut net));
    // One 256-row evaluation chunk, as the simulator's chunked eval runs.
    let rows: Vec<usize> = (0..256).collect();
    let (ex, ey) = parts.split.train.gather(&rows);
    p.time("nn.mlp_eval_us", US, || {
        black_box(net.eval_loss(&ex, &ey));
    });
    let mut plane = vec![0.0f32; net.param_count()];
    p.time("nn.param_plane_copy_us", US, || {
        net.copy_params_into(&mut plane);
        net.load_params_from(black_box(&plane));
    });

    // The conv families at conv_full's batch size.
    let conv = parts::canonical_full(
        ModelFamily::VggLike,
        derive_seed(cfg.seed, 53),
        derive_seed(cfg.seed, 54),
        1.0,
    );
    let rows: Vec<usize> = (0..128).collect();
    let (cx, cy) = conv.split.train.gather(&rows);
    let mut vgg = conv.model.clone();
    p.time("nn.conv_train_step_ms", MS, || {
        black_box(vgg.train_step(&cx, &cy));
    });
    let mut resnet = models::resnet_like(1, 16, 10, 77);
    p.time("nn.resnet_train_step_ms", MS, || {
        black_box(resnet.train_step(&cx, &cy));
    });

    // Codecs over the MLP's flat parameter plane.
    let update = filled(plane.len(), 6);
    let mut sent = vec![0.0f32; update.len()];
    let mb = (update.len() * 4) as f64 / 1e6;
    for (name, codec) in [
        ("gradcomp.topk_mb_per_s", CodecSpec::TopK { ratio: 0.01 }),
        ("gradcomp.qsgd_mb_per_s", CodecSpec::Qsgd { bits: 4 }),
        ("gradcomp.sign_mb_per_s", CodecSpec::Sign),
    ] {
        let secs = p.secs_per_call(name, || {
            black_box(codec.compress_slice(&update, &mut sent, &mut rng));
        });
        p.out.push((name, mb / secs));
    }
    let segments = net.param_sizes();
    let mut feedback = ErrorFeedback::new();
    let mut scratch = vec![0.0f32; update.len()];
    let topk = CodecSpec::TopK { ratio: 0.01 };
    let mut payload = 0usize;
    p.time("gradcomp.ef_flat_us", US, || {
        payload =
            feedback.compress_flat(&topk, &update, &segments, &mut scratch, &mut sent, &mut rng);
    });
    p.out.push((
        "gradcomp.payload_ratio",
        payload as f64 / (update.len() * 4) as f64,
    ));

    // Once-per-round calls.
    p.time("delay.sample_round_ns", NS, || {
        black_box(parts.runtime.sample_round(1, &mut rng));
    });
    let mut sched = AdaComm::with_tau0(24);
    let ctx = ScheduleContext {
        interval_index: 3,
        wall_clock: 60.0,
        current_loss: 1.2,
        initial_loss: 4.6,
        current_lr: 0.1,
        initial_lr: 0.1,
        degraded_frac: 0.0,
    };
    p.time("sched.next_tau_ns", NS, || {
        black_box(sched.next_tau(black_box(&ctx)));
    });
}

fn sim_probes(p: &mut Prober, cfg: &RunConfig) {
    let parts = parts::compression_quick(derive_seed(cfg.seed, 60), derive_seed(cfg.seed, 61), 1.0);
    let mut cluster = parts.cluster();
    p.time("sim.round_tau1_us", US, || {
        black_box(cluster.run_round(1));
    });
    p.time("sim.round_tau20_us", US, || {
        black_box(cluster.run_round(20));
    });
    p.time("sim.average_us", US, || cluster.average_now());
    p.time("sim.checkpoint_roundtrip_us", US, || {
        let ck = cluster.checkpoint();
        cluster.restore(&ck).expect("own checkpoint restores");
    });
    // Evaluation is memoized per training state, so step between calls.
    let cell = std::cell::RefCell::new(cluster);
    let secs = p.secs_per_prepared_call(
        "sim.eval_ms",
        || {
            cell.borrow_mut().run_round(1);
        },
        || {
            let mut c = cell.borrow_mut();
            black_box(c.eval_train_loss());
            black_box(c.eval_test_accuracy());
        },
    );
    p.out.push(("sim.eval_ms", secs * MS));

    let mut faulty_parts = parts.clone();
    faulty_parts.cluster.fault = round_paths::FAULTS;
    let mut faulty = faulty_parts.cluster();
    p.time("sim.round_faulty_us", US, || {
        black_box(faulty.run_round(1));
    });
}

fn engine_probes(p: &mut Prober, cfg: &RunConfig) {
    let canonical = ScenarioSpec::Canonical {
        family: ModelFamily::VggLike,
        classes: 10,
        workers: 4,
        scale: Scale::Quick,
    };
    p.time("engine.scenario_build_ms", MS, || {
        black_box(canonical.build());
    });
    let spec = SweepSpec::new(
        ScenarioSpec::Concept,
        SchedulerSpec::Fixed { tau: 4 },
        LrSpec::Fixed,
    );
    let engine = SweepEngine::new();
    let trace = engine.try_trace_for(&spec).expect("concept run succeeds");
    p.time("engine.memo_hit_ns", NS, || {
        black_box(engine.try_trace_for(&spec).expect("memo hit"));
    });
    let store = RunStore::new(cfg.state.join("probe-store"));
    let key = spec.key();
    p.time("store.save_us", US, || {
        store.save(&key, &trace).expect("probe store is writable");
    });
    p.time("store.load_us", US, || {
        black_box(store.load(&key));
    });
    let bytes = std::fs::metadata(store.entry_path(&key)).map_or(0, |m| m.len());
    p.out.push(("store.bytes_per_run", bytes as f64));
}

fn server_probes(p: &mut Prober, cfg: &RunConfig) {
    let request = Request {
        id: Some(12_345),
        cmd: Command::Run(RunRequest {
            scenario: "concept".into(),
            scheduler: "fixed".into(),
            tau: 4,
            budget: Some((10.5, 2.0)),
            deadline_ms: None,
            panic: false,
        }),
    };
    let line = protocol::encode_request(&request);
    p.time("protocol.parse_request_ns", NS, || {
        black_box(protocol::parse_request(black_box(&line)).expect("own request parses"));
    });
    let response = Response::ok(
        Some(12_345),
        ResponseBody::Run(RunStats {
            source: "memory".into(),
            rounds: 12,
            points: 7,
            final_loss: 0.4321,
            wall_ms: 0.031,
        }),
    );
    p.time("protocol.encode_response_ns", NS, || {
        black_box(protocol::encode_response(black_box(&response)));
    });
    // One fsync'd append where the service state lives, and one on the
    // checkout's real disk (informational: it is disk behaviour).
    for (name, dir) in [
        ("journal.append_us", &cfg.state),
        ("journal.append_fsync_disk_us", &cfg.scratch),
    ] {
        let path = dir.join("probe-journal.log");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::open(&path).expect("probe journal opens");
        p.time(name, US, || {
            journal
                .append_accept("probe-key", &request)
                .expect("probe journal appends");
        });
    }
}

fn process_probes(p: &mut Prober) {
    let mut slots = [0u64; 4];
    p.time("pool.fanout_us", US, || {
        slots.par_iter_mut().with_max_len(1).for_each(|s| *s += 1);
    });
    p.time("telemetry.span_ns", NS, || {
        drop(telemetry::span("bench.span_probe"));
    });
}

/// Runs every probe; returns `(metric name, value)` pairs.
pub fn probe_all(cfg: &RunConfig, rec: &mut Recorder) -> Vec<(&'static str, f64)> {
    let mut p = Prober {
        rec,
        batches: if cfg.smoke { 3 } else { 7 },
        batch_target: Duration::from_millis(if cfg.smoke { 1 } else { 4 }),
        out: Vec::new(),
    };
    let root = p.rec.enter("bench.layer_probes");
    tensor_probes(&mut p);
    nn_probes(&mut p, cfg);
    sim_probes(&mut p, cfg);
    engine_probes(&mut p, cfg);
    server_probes(&mut p, cfg);
    process_probes(&mut p);
    p.rec.exit(root);
    p.out
}
