//! Criterion benchmarks of whole training epochs, per model variant —
//! the cost side of the design-choice ablations in DESIGN.md §4
//! (adversarial module on/off, constrained vs plain sigmoid, DP on/off).

use advsgm_core::{AdvSgmConfig, ModelVariant, Trainer};
use advsgm_graph::generators::sbm::{degree_corrected_sbm, SbmConfig};
use advsgm_linalg::rng::seeded;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn fixture() -> advsgm_graph::Graph {
    let mut rng = seeded(11);
    degree_corrected_sbm(
        &SbmConfig {
            num_nodes: 1000,
            num_edges: 5000,
            num_blocks: 8,
            mixing: 0.15,
            degree_exponent: 2.5,
        },
        &mut rng,
    )
}

/// One full epoch on the sequential engine (pinned to one thread so
/// `ADVSGM_THREADS` cannot reroute it).
fn one_epoch_config(variant: ModelVariant) -> AdvSgmConfig {
    AdvSgmConfig {
        variant,
        dim: 64,
        epochs: 1,
        disc_iters: 10,
        gen_iters: 3,
        batch_size: 64,
        epsilon: 1e9, // never stop: measure a full epoch
        num_threads: 1,
        ..AdvSgmConfig::default()
    }
}

fn bench_epochs(c: &mut Criterion) {
    let g = fixture();
    let mut group = c.benchmark_group("trainer_epoch");
    group.sample_size(10);
    for variant in ModelVariant::all() {
        group.bench_function(format!("{variant}"), |b| {
            b.iter(|| {
                let out = Trainer::fit(&g, one_epoch_config(variant)).unwrap();
                black_box(out.disc_updates)
            })
        });
    }
    group.finish();
}

fn bench_sharded_engine(c: &mut Criterion) {
    // The same epoch workload at 1 thread (sequential) and 4 (sharded).
    // On a multi-core host the 4-thread row drops; `training_throughput`
    // has the pairs/sec sweep.
    let g = fixture();
    let mut group = c.benchmark_group("sharded_epoch");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_function(format!("in_ram_{threads}_threads"), |b| {
            b.iter(|| {
                let cfg = one_epoch_config(ModelVariant::AdvSgm).with_threads(threads);
                black_box(Trainer::fit(&g, cfg).unwrap().disc_updates)
            })
        });
    }
    group.finish();
}

fn bench_noise_calibration_cost(c: &mut Criterion) {
    // The faithful-vs-activation noise reading has identical asymptotics;
    // this bench documents that the choice is free at runtime.
    let g = fixture();
    let mut group = c.benchmark_group("noise_calibration");
    group.sample_size(10);
    for (name, faithful) in [("activation_reading", false), ("faithful_dpsgd", true)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut cfg = one_epoch_config(ModelVariant::AdvSgm);
                cfg.faithful_noise = faithful;
                black_box(Trainer::fit(&g, cfg).unwrap().disc_updates)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_epochs,
    bench_sharded_engine,
    bench_noise_calibration_cost
);
criterion_main!(benches);
