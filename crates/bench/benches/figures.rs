//! Criterion benchmarks over the figure-regeneration computations — each
//! group times the core computation behind one analytic figure, so
//! `cargo bench` both exercises and times the reproduction paths.
//! (The training figures 9–13 are regenerated by `reproduce_all --only
//! <name>`; benchmarking multi-minute training runs under Criterion is not
//! useful.)
//!
//! ```sh
//! cargo bench -p adacomm-bench --bench figures
//! ```

use adacomm::theory::{error_runtime_bound, tau_star, TheoryParams};
use criterion::{criterion_group, criterion_main, Criterion};
use delay::{speedup_constant, CommModel, DelayDistribution, Histogram, RuntimeModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn fig04_speedup_curve(c: &mut Criterion) {
    c.bench_function("fig04_speedup_curve_3alphas_100taus", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for alpha in [0.1, 0.5, 0.9] {
                for tau in 1..=100usize {
                    acc += speedup_constant(alpha, tau);
                }
            }
            black_box(acc)
        })
    });
}

fn fig05_runtime_histogram(c: &mut Criterion) {
    let model = RuntimeModel::new(
        DelayDistribution::exponential(1.0),
        CommModel::constant(1.0),
        16,
    );
    let mut group = c.benchmark_group("fig05");
    group.sample_size(10);
    group.bench_function("histogram_2k_samples_tau10", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| {
            let mut h = Histogram::new(0.0, 8.0, 40);
            h.extend_from(&model.per_iteration_samples(10, 2000, &mut rng));
            black_box(h.mean())
        })
    });
    group.finish();
}

fn fig06_bound_sweep(c: &mut Criterion) {
    let params = TheoryParams::figure6();
    c.bench_function("fig06_bound_sweep_40points_2taus", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for tau in [1usize, 10] {
                for i in 1..=40 {
                    acc += error_runtime_bound(&params, 1.0, 1.0, tau, i as f64 * 100.0);
                }
            }
            black_box(acc)
        })
    });
}

fn fig07_tau_star_sequence(c: &mut Criterion) {
    let params = TheoryParams::figure6();
    c.bench_function("fig07_tau_star_10intervals", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for l in 1..=10 {
                acc += tau_star(&params, 1.0, l as f64 * 200.0);
            }
            black_box(acc)
        })
    });
}

fn fig08_round_decomposition(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig08");
    group.sample_size(10);
    group.bench_function("vgg_100iters_decomposition", |b| {
        let model = delay::vgg16_profile().runtime_model(4);
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| {
            let mut total = 0.0;
            for _ in 0..10 {
                // 100 iterations at tau = 10.
                let r = model.sample_round(10, &mut rng);
                total += r.total();
            }
            black_box(total)
        })
    });
    group.finish();
}

criterion_group!(
    figures,
    fig04_speedup_curve,
    fig05_runtime_histogram,
    fig06_bound_sweep,
    fig07_tau_star_sequence,
    fig08_round_decomposition
);
criterion_main!(figures);
