//! The paper's flagship scenario (Figure 9b): a communication-bound
//! VGG-like model on a CIFAR-10-like task, fixed learning rate, comparing
//! fully synchronous SGD, fixed τ ∈ {20, 100}, and AdaComm.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example vgg_cifar_adacomm
//! ```
//!
//! The delay model is calibrated to the paper's Figure 8 ratio for VGG-16
//! (communication ≈ 4× computation on 4 workers), so large τ buys a big
//! wall-clock advantage early, but its extra gradient noise leaves a higher
//! error floor — exactly the trade-off AdaComm navigates.

use adacomm_repro::prelude::*;

fn main() {
    let workers = 4;
    // VGG-16-calibrated delays, slowed 4x so the run fits a laptop budget
    // while keeping alpha ~ 4 (see the substitution policy in
    // EXPERIMENTS.md).
    let profile = vgg16_profile().time_scaled(4.0);
    let runtime = profile.runtime_model(workers);
    println!(
        "profile: {} (alpha = {:.2})",
        profile.name(),
        profile.alpha(workers)
    );

    let split = GaussianMixture::cifar10_like().generate(3);
    let suite = ExperimentSuite::new(
        models::mlp_classifier(256, &[64], 10, 11),
        split,
        runtime,
        ClusterConfig {
            workers,
            batch_size: 32,
            lr: 0.2,
            weight_decay: 5e-4,
            momentum: MomentumMode::None,
            averaging: AveragingStrategy::FullAverage,
            codec: gradcomp::CodecSpec::Identity,
            seed: 5,
            eval_subset: 1024,
            fault: pasgd_sim::FaultConfig::NONE,
        },
        ExperimentConfig {
            interval_secs: 60.0,
            total_secs: 600.0,
            record_every_secs: 20.0,
            gate_lr_on_tau: false,
        },
    );

    let lr = LrSchedule::constant(0.2);
    let mut traces = Vec::new();
    for mut sched in [
        Box::new(FixedComm::new(1)) as Box<dyn CommSchedule>,
        Box::new(FixedComm::new(20)),
        Box::new(FixedComm::new(100)),
        Box::new(AdaComm::with_tau0(32)),
    ] {
        println!("running {} ...", sched.name());
        traces.push(suite.run(sched.as_mut(), &lr));
    }

    println!(
        "\n{:>10} | {:>10} | {:>10} | {:>8} | {:>8}",
        "method", "final", "min loss", "best acc", "iters"
    );
    println!("{}", "-".repeat(60));
    for t in &traces {
        println!(
            "{:>10} | {:>10.4} | {:>10.4} | {:>7.1}% | {:>8}",
            t.name,
            t.final_loss(),
            t.min_loss(),
            100.0 * t.best_test_accuracy(),
            t.points.last().expect("non-empty").iterations
        );
    }

    // The paper's headline metric: speed-up in time-to-target-loss.
    let sync_final = traces[0].final_loss();
    let target = sync_final * 1.1;
    println!("\ntime to reach training loss {target:.4} (sync final x 1.1):");
    let sync_time = traces[0].time_to_loss(target);
    for t in &traces {
        match (t.time_to_loss(target), sync_time) {
            (Some(time), Some(st)) => {
                println!(
                    "  {:>10}: {time:>7.1} s  ({:.2}x vs sync)",
                    t.name,
                    st / time
                )
            }
            (Some(time), None) => println!("  {:>10}: {time:>7.1} s", t.name),
            (None, _) => println!("  {:>10}: not reached", t.name),
        }
    }
}
