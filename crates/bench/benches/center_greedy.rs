//! Criterion bench for the strongly polynomial algorithm (Theorem 4.2) —
//! the series behind experiment E3's runtime table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kanon_core::algo;
use kanon_core::Budget;
use kanon_workloads::{clustered, uniform, ClusteredParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_n_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("center_greedy/n_sweep_m16_k5");
    group.sample_size(10);
    for n in [100usize, 200, 400, 800] {
        let mut rng = StdRng::seed_from_u64(42 + n as u64);
        let ds = uniform(&mut rng, n, 16, 4);
        group.bench_with_input(BenchmarkId::from_parameter(n), &ds, |b, ds| {
            b.iter(|| {
                algo::center_greedy(ds, 5, &Default::default(), &Budget::unlimited())
                    .unwrap()
                    .anonymization_cost(ds)
            });
        });
    }
    group.finish();
}

fn bench_m_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("center_greedy/m_sweep_n300_k5");
    group.sample_size(10);
    for m in [8usize, 32, 128] {
        let mut rng = StdRng::seed_from_u64(7 + m as u64);
        let ds = uniform(&mut rng, 300, m, 4);
        group.bench_with_input(BenchmarkId::from_parameter(m), &ds, |b, ds| {
            b.iter(|| {
                algo::center_greedy(ds, 5, &Default::default(), &Budget::unlimited())
                    .unwrap()
                    .anonymization_cost(ds)
            });
        });
    }
    group.finish();
}

fn bench_workload_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("center_greedy/workloads_n200_k5");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(11);
    let uniform_ds = uniform(&mut rng, 200, 12, 4);
    let clustered_ds = clustered(
        &mut rng,
        &ClusteredParams {
            n_clusters: 40,
            cluster_size: 5,
            m: 12,
            scatter: 1,
            values_per_cluster: 4,
        },
    )
    .dataset;
    for (name, ds) in [("uniform", &uniform_ds), ("clustered", &clustered_ds)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), ds, |b, ds| {
            b.iter(|| {
                algo::center_greedy(ds, 5, &Default::default(), &Budget::unlimited())
                    .unwrap()
                    .anonymization_cost(ds)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_n_sweep, bench_m_sweep, bench_workload_shapes);
criterion_main!(benches);
