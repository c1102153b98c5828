//! Criterion bench for the exhaustive-candidate greedy (Theorem 4.1),
//! demonstrating the `O(n^{2k})` blow-up the paper accepts for the better
//! approximation ratio.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kanon_core::algo;
use kanon_core::Budget;
use kanon_workloads::uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_n_sweep_k2(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_greedy/n_sweep_k2_m6");
    group.sample_size(10);
    for n in [8usize, 12, 16, 24] {
        let mut rng = StdRng::seed_from_u64(1 + n as u64);
        let ds = uniform(&mut rng, n, 6, 3);
        group.bench_with_input(BenchmarkId::from_parameter(n), &ds, |b, ds| {
            b.iter(|| {
                algo::exhaustive_greedy(ds, 2, &Default::default(), &Budget::unlimited())
                    .unwrap()
                    .anonymization_cost(ds)
            });
        });
    }
    group.finish();
}

fn bench_k_sweep(c: &mut Criterion) {
    // Fixed n = 14: k = 2 enumerates C(14,2..3), k = 3 C(14,3..5),
    // k = 4 C(14,4..7) — the exponential-in-k wall.
    let mut group = c.benchmark_group("full_greedy/k_sweep_n14_m6");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(3);
    let ds = uniform(&mut rng, 14, 6, 3);
    for k in [2usize, 3, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                algo::exhaustive_greedy(&ds, k, &Default::default(), &Budget::unlimited())
                    .unwrap()
                    .anonymization_cost(&ds)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_n_sweep_k2, bench_k_sweep);
criterion_main!(benches);
