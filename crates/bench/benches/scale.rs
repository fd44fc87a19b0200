//! Cluster-scale micro-benchmark: the scheduler's `next_completion` →
//! `advance` → `complete` → respawn loop against a fully loaded engine,
//! served by the per-node sharded rate cache and tournament tree.
//!
//! `fig20_scale` records the same loop as `results/BENCH_scale.json`
//! (both measure `bench_suite::scalekit` builders); these Criterion rows
//! exist for statistically careful spot checks.

use bench_suite::scalekit::{completion_step, scale_engine, EXECUTORS_PER_NODE};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_completion_churn(c: &mut Criterion) {
    for nodes in [400usize, 4_000] {
        let mut eng = scale_engine(nodes);
        let mut k = nodes * EXECUTORS_PER_NODE;
        c.bench_function(&format!("scale_completion_sharded_{nodes}n"), |b| {
            b.iter(|| {
                completion_step(&mut eng, k);
                k += 1;
            })
        });
    }
}

criterion_group!(benches, bench_completion_churn);
criterion_main!(benches);
