//! Bench: ablations of design choices DESIGN.md calls out —
//! locking vs log-shipping propagation, epoch-check period, and write-log
//! capacity (snapshot fallback frequency).

use coterie_bench::{cluster, drive_ops};
use coterie_quorum::GridCoterie;
use coterie_simnet::SimDuration;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn bench_propagation_locking(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_propagation");
    group.sample_size(10);
    for (name, locking) in [("log_shipping", false), ("paper_locking", true)] {
        group.bench_function(BenchmarkId::new(name, 9), |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                let mut driver = cluster(Arc::new(GridCoterie::new()), 9, seed, |mut c| {
                    c.lock_propagation = locking;
                    c
                });
                black_box(drive_ops(&mut driver, 100, SimDuration::from_millis(10)))
            })
        });
    }
    group.finish();
}

fn bench_log_capacity(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_log_capacity");
    group.sample_size(10);
    for cap in [1usize, 8, 64] {
        group.bench_with_input(BenchmarkId::new("cap", cap), &cap, |b, &cap| {
            let mut seed = 100;
            b.iter(|| {
                seed += 1;
                let mut driver = cluster(Arc::new(GridCoterie::new()), 9, seed, |c| {
                    c.log_capacity(cap)
                });
                black_box(drive_ops(&mut driver, 100, SimDuration::from_millis(10)))
            })
        });
    }
    group.finish();
}

fn bench_check_period(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_check_period");
    group.sample_size(10);
    for millis in [500u64, 5_000] {
        group.bench_with_input(BenchmarkId::new("ms", millis), &millis, |b, &millis| {
            let mut seed = 200;
            b.iter(|| {
                seed += 1;
                let mut driver = cluster(Arc::new(GridCoterie::new()), 9, seed, |c| {
                    c.check_period(SimDuration::from_millis(millis))
                });
                driver.crash(coterie_quorum::NodeId(7));
                black_box(drive_ops(&mut driver, 60, SimDuration::from_millis(20)))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_propagation_locking,
    bench_log_capacity,
    bench_check_period
);
criterion_main!(benches);
