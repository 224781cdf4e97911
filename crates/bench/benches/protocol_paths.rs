//! Bench: full simulated protocol operations per coterie rule (backs E7's
//! traffic numbers with end-to-end cost) and the churn path (E8).

use coterie_bench::{cluster, drive_ops};
use coterie_quorum::{CoterieRule, GridCoterie, MajorityCoterie, RowaCoterie};
use coterie_simnet::SimDuration;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn bench_ops_per_rule(c: &mut Criterion) {
    let mut group = c.benchmark_group("ops_100_mixed");
    group.sample_size(10);
    let rules: Vec<(&str, Arc<dyn CoterieRule>)> = vec![
        ("grid", Arc::new(GridCoterie::new())),
        ("majority", Arc::new(MajorityCoterie::new())),
        ("rowa", Arc::new(RowaCoterie::new())),
    ];
    for n in [9usize, 25] {
        for (name, rule) in &rules {
            group.bench_with_input(BenchmarkId::new(*name, n), &n, |b, &n| {
                let mut seed = 0;
                b.iter(|| {
                    seed += 1;
                    let mut driver = cluster(rule.clone(), n, seed, |c| c);
                    black_box(drive_ops(&mut driver, 100, SimDuration::from_millis(10)))
                })
            });
        }
    }
    group.finish();
}

fn bench_epoch_change(c: &mut Criterion) {
    c.bench_function("epoch_change_after_failure_n9", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            let mut driver = cluster(Arc::new(GridCoterie::new()), 9, seed, |c| {
                c.check_period(SimDuration::from_millis(500))
            });
            driver.crash(coterie_quorum::NodeId(8));
            driver.run_for(SimDuration::from_secs(3));
            black_box(driver.node(coterie_quorum::NodeId(0)).durable.elist.len())
        })
    });
}

criterion_group!(benches, bench_ops_per_rule, bench_epoch_change);
criterion_main!(benches);
