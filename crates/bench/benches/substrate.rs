//! Criterion micro-benchmarks for the substrate crates: tensor kernels,
//! layer passes, PASGD rounds, scheduler overhead, and the compression
//! kernels (Top-K select, sign pack/unpack, quantize/dequantize).
//!
//! ```sh
//! cargo bench -p adacomm-bench --bench substrate
//! ```

use adacomm::{AdaComm, CommSchedule, ScheduleContext};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use data::GaussianMixture;
use delay::{CommModel, DelayDistribution, RuntimeModel};
use gradcomp::kernels::{dequantize, pack_signs, quantize_stochastic, top_k_indices, unpack_signs};
use gradcomp::{Compressor, TopK};
use nn::{models, Layer};
use pasgd_sim::{ClusterConfig, MomentumMode, PasgdCluster};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use tensor::Tensor;

fn bench_tensor(c: &mut Criterion) {
    let mut group = c.benchmark_group("tensor");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(0);
    let a = Tensor::randn(&[64, 256], 1.0, &mut rng);
    let b = Tensor::randn(&[256, 64], 1.0, &mut rng);
    group.bench_function("matmul_64x256x64", |bench| {
        bench.iter(|| black_box(a.matmul(&b)))
    });
    let b2 = Tensor::randn(&[64, 256], 1.0, &mut rng);
    group.bench_function("matmul_nt_64x256", |bench| {
        bench.iter(|| black_box(a.matmul_nt(&b2)))
    });
    let x = Tensor::randn(&[16384], 1.0, &mut rng);
    let y = Tensor::randn(&[16384], 1.0, &mut rng);
    group.bench_function("axpy_16k", |bench| {
        bench.iter_batched(
            || x.clone(),
            |mut acc| {
                acc.axpy(0.5, &y);
                black_box(acc)
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("average_4x16k", |bench| {
        let replicas = vec![x.clone(), y.clone(), x.clone(), y.clone()];
        bench.iter(|| black_box(tensor::average(&replicas)))
    });
    group.finish();
}

/// The seed's naive i-k-j kernel, kept verbatim for old-vs-new comparison.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let (a, b) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (kk, &a_ik) in a_row.iter().enumerate() {
            if a_ik == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += a_ik * bv;
            }
        }
    }
    Tensor::from_vec(out, &[m, n]).expect("volume matches")
}

/// The seed's naive dot-product `a · bᵀ` kernel.
fn naive_matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[0];
    let (a, b) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row.iter()) {
                acc += av * bv;
            }
            *o = acc;
        }
    }
    Tensor::from_vec(out, &[m, n]).expect("volume matches")
}

/// Old (naive loops) vs new (k-blocked, register-tiled) kernels on the
/// exact shapes the training hot path runs: dense forward/backward and the
/// im2col GEMM. Results are bit-identical; only the wall clock differs.
fn bench_matmul_old_vs_new(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_old_vs_new");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(17);
    // Dense forward: x[32,256] · W[256,64].
    let x = Tensor::randn(&[32, 256], 1.0, &mut rng);
    let w = Tensor::randn(&[256, 64], 1.0, &mut rng);
    group.bench_function("dense_fwd_32x256x64/old", |b| {
        b.iter(|| black_box(naive_matmul(&x, &w)))
    });
    group.bench_function("dense_fwd_32x256x64/new", |b| {
        b.iter(|| black_box(x.matmul(&w)))
    });
    // Dense input gradient: dy[32,64] · W[256,64]ᵀ.
    let dy = Tensor::randn(&[32, 64], 1.0, &mut rng);
    let w1 = Tensor::randn(&[256, 64], 1.0, &mut rng);
    group.bench_function("dense_bwd_dx_32x64x256/old", |b| {
        b.iter(|| black_box(naive_matmul_nt(&dy, &w1)))
    });
    group.bench_function("dense_bwd_dx_32x64x256/new", |b| {
        b.iter(|| black_box(dy.matmul_nt(&w1)))
    });
    // im2col GEMM of the vgg_like first conv: W[16,144] · col[144,64].
    let wc = Tensor::randn(&[16, 144], 1.0, &mut rng);
    let col = Tensor::randn(&[144, 64], 1.0, &mut rng);
    group.bench_function("im2col_gemm_16x144x64/old", |b| {
        b.iter(|| black_box(naive_matmul(&wc, &col)))
    });
    group.bench_function("im2col_gemm_16x144x64/new", |b| {
        b.iter(|| black_box(wc.matmul(&col)))
    });
    group.finish();
}

/// Snapshot-per-round averaging (the seed's path: clone every worker's
/// tensors, average tensor-by-tensor) vs the flat-plane path (copy into
/// preallocated planes, accumulate into a reused accumulator).
fn bench_averaging_old_vs_new(c: &mut Criterion) {
    let mut group = c.benchmark_group("averaging_old_vs_new");
    group.sample_size(20);
    let replicas: Vec<nn::Network> = (0..4)
        .map(|s| models::mlp_classifier(256, &[64], 10, s))
        .collect();
    group.bench_function("snapshot_4xmlp", |b| {
        b.iter(|| {
            let snaps: Vec<Vec<Tensor>> =
                replicas.iter().map(nn::Network::params_snapshot).collect();
            black_box(nn::average_params(&snaps))
        })
    });
    let plane_len = replicas[0].param_count();
    group.bench_function("flat_plane_4xmlp", |b| {
        let mut accum = vec![0.0f32; plane_len];
        let mut scratch = vec![0.0f32; plane_len];
        b.iter(|| {
            replicas[0].copy_params_into(&mut accum);
            for r in &replicas[1..] {
                r.copy_params_into(&mut scratch);
                for (a, &s) in accum.iter_mut().zip(&scratch) {
                    *a += s;
                }
            }
            let inv = 1.0 / replicas.len() as f32;
            for a in accum.iter_mut() {
                *a *= inv;
            }
            black_box(accum[0])
        })
    });
    group.finish();
}

fn bench_nn(c: &mut Criterion) {
    let mut group = c.benchmark_group("nn");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(1);
    let x = Tensor::randn(&[32, 256], 1.0, &mut rng);
    let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();
    group.bench_function("mlp_train_step_b32", |bench| {
        let mut net = models::mlp_classifier(256, &[64], 10, 3);
        bench.iter(|| black_box(net.train_step(&x, &labels)))
    });
    let ximg = Tensor::randn(&[8, 256], 1.0, &mut rng);
    group.bench_function("conv_forward_vgg_like_b8", |bench| {
        let mut net = models::vgg_like(1, 16, 10, 3);
        bench.iter(|| black_box(net.stack_mut().forward(&ximg, true)))
    });
    group.bench_function("params_snapshot_mlp", |bench| {
        let net = models::mlp_classifier(256, &[64], 10, 3);
        bench.iter(|| black_box(net.params_snapshot()))
    });
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    let make_cluster = || {
        PasgdCluster::new(
            models::mlp_classifier(8, &[16], 3, 5),
            GaussianMixture::small_test().generate(1),
            RuntimeModel::new(
                DelayDistribution::constant(1.0),
                CommModel::constant(1.0),
                4,
            ),
            ClusterConfig {
                workers: 4,
                batch_size: 8,
                lr: 0.05,
                weight_decay: 0.0,
                momentum: MomentumMode::None,
                averaging: pasgd_sim::AveragingStrategy::FullAverage,
                codec: gradcomp::CodecSpec::Identity,
                seed: 2,
                eval_subset: 48,
                fault: pasgd_sim::FaultConfig::NONE,
            },
        )
    };
    group.bench_function("round_tau8_m4", |bench| {
        bench.iter_batched(
            make_cluster,
            |mut cluster| {
                cluster.run_round(8);
                black_box(cluster.clock())
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("averaging_only_m4", |bench| {
        bench.iter_batched(
            make_cluster,
            |mut cluster| {
                cluster.average_now();
                black_box(cluster.clock())
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler");
    let ctx = ScheduleContext {
        interval_index: 5,
        wall_clock: 300.0,
        current_loss: 0.4,
        initial_loss: 2.3,
        current_lr: 0.2,
        initial_lr: 0.2,
        degraded_frac: 0.0,
    };
    group.bench_function("adacomm_next_tau", |bench| {
        let mut sched = AdaComm::with_tau0(32);
        bench.iter(|| black_box(sched.next_tau(&ctx)))
    });
    group.finish();
}

fn bench_compress(c: &mut Criterion) {
    let mut group = c.benchmark_group("compress");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(7);
    let x = Tensor::randn(&[16384], 1.0, &mut rng);
    let values = x.as_slice().to_vec();

    group.bench_function("top_k_select_1pct_16k", |bench| {
        bench.iter(|| black_box(top_k_indices(&values, 164)))
    });
    group.bench_function("sign_pack_unpack_16k", |bench| {
        bench.iter(|| {
            let packed = pack_signs(&values);
            black_box(unpack_signs(&packed, values.len(), 0.5))
        })
    });
    group.bench_function("qsgd4_roundtrip_16k", |bench| {
        let norm = x.norm();
        let mut qrng = StdRng::seed_from_u64(8);
        bench.iter(|| {
            let q = quantize_stochastic(&values, norm, 15, &mut qrng);
            black_box(dequantize(&q, norm, 15))
        })
    });
    group.bench_function("topk_codec_1pct_16k", |bench| {
        let codec = TopK::new(0.01);
        let mut crng = StdRng::seed_from_u64(9);
        bench.iter(|| black_box(codec.compress(&x, &mut crng)))
    });
    group.finish();
}

fn bench_delay(c: &mut Criterion) {
    let mut group = c.benchmark_group("delay");
    let model = RuntimeModel::new(
        DelayDistribution::exponential(1.0),
        CommModel::constant(1.0),
        16,
    );
    group.bench_function("sample_round_tau10_m16", |bench| {
        let mut rng = StdRng::seed_from_u64(3);
        bench.iter(|| black_box(model.sample_round(10, &mut rng)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_tensor,
    bench_matmul_old_vs_new,
    bench_averaging_old_vs_new,
    bench_nn,
    bench_simulator,
    bench_scheduler,
    bench_compress,
    bench_delay
);
criterion_main!(benches);
