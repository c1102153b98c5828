//! Criterion bench comparing partitioner throughput (cost comparison lives
//! in experiment E8; this measures speed on the same shapes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kanon_baselines::forest::{forest, ForestConfig};
use kanon_baselines::{agglomerative, knn_greedy, mondrian, random_partition};
use kanon_core::algo;
use kanon_core::Budget;
use kanon_workloads::{zipf, ZipfParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_partitioners(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(31);
    let ds = zipf(
        &mut rng,
        &ZipfParams {
            n: 200,
            m: 8,
            alphabet: 20,
            exponent: 1.0,
        },
    );
    let k = 5usize;
    let mut group = c.benchmark_group("baselines/zipf_n200_m8_k5");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("center_greedy"), |b| {
        b.iter(|| {
            algo::center_greedy(&ds, k, &Default::default(), &Budget::unlimited())
                .unwrap()
                .anonymization_cost(&ds)
        });
    });
    group.bench_function(BenchmarkId::from_parameter("knn_greedy"), |b| {
        b.iter(|| {
            knn_greedy(&ds, k, &Budget::unlimited())
                .unwrap()
                .anonymization_cost(&ds)
        });
    });
    group.bench_function(BenchmarkId::from_parameter("agglomerative"), |b| {
        b.iter(|| {
            agglomerative(&ds, k, &Budget::unlimited())
                .unwrap()
                .anonymization_cost(&ds)
        });
    });
    group.bench_function(BenchmarkId::from_parameter("mondrian"), |b| {
        b.iter(|| {
            mondrian(&ds, k, &Budget::unlimited())
                .unwrap()
                .anonymization_cost(&ds)
        });
    });
    group.bench_function(BenchmarkId::from_parameter("forest"), |b| {
        b.iter(|| {
            forest(&ds, k, &ForestConfig::default())
                .unwrap()
                .anonymization_cost(&ds)
        });
    });
    group.bench_function(BenchmarkId::from_parameter("random"), |b| {
        let mut rng = StdRng::seed_from_u64(99);
        b.iter(|| {
            random_partition(&mut rng, ds.n_rows(), k)
                .unwrap()
                .anonymization_cost(&ds)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_partitioners);
criterion_main!(benches);
