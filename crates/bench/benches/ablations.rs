//! Criterion bench for the pipeline ablations of experiment E11 (timing
//! side: cost effects are reported by `experiments e11`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kanon_core::greedy::{center_greedy_cover, reduce, CenterConfig};
use kanon_core::Budget;
use kanon_workloads::{zipf, ZipfParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_zero_radius(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(53);
    let ds = zipf(
        &mut rng,
        &ZipfParams {
            n: 300,
            m: 6,
            alphabet: 4,
            exponent: 1.5,
        },
    );
    let k = 4usize;
    let mut group = c.benchmark_group("ablations/zero_radius_dup_heavy");
    group.sample_size(10);
    for zero in [true, false] {
        let config = CenterConfig {
            include_zero_radius: zero,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(zero), &config, |b, config| {
            b.iter(|| {
                let cover =
                    center_greedy_cover(&ds, k, config, None, &Budget::unlimited()).unwrap();
                reduce(&cover, k).unwrap().anonymization_cost(&ds)
            });
        });
    }
    group.finish();
}

fn bench_split_large(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(59);
    let ds = zipf(
        &mut rng,
        &ZipfParams {
            n: 300,
            m: 6,
            alphabet: 4,
            exponent: 1.0,
        },
    );
    let k = 4usize;
    let cover =
        center_greedy_cover(&ds, k, &CenterConfig::default(), None, &Budget::unlimited()).unwrap();
    let partition = reduce(&cover, k).unwrap();
    let mut group = c.benchmark_group("ablations/split_large");
    group.sample_size(10);
    group.bench_function("split", |b| {
        b.iter(|| partition.split_large(k).anonymization_cost(&ds));
    });
    group.bench_function("no_split", |b| {
        b.iter(|| partition.anonymization_cost(&ds));
    });
    group.finish();
}

fn bench_threads(c: &mut Criterion) {
    // Speedup only materializes on multi-core hosts; on a single core this
    // measures the (small) coordination overhead. Either way the output is
    // bit-identical across thread counts (tested in kanon-core).
    let mut rng = StdRng::seed_from_u64(61);
    let ds = zipf(
        &mut rng,
        &ZipfParams {
            n: 600,
            m: 16,
            alphabet: 8,
            exponent: 1.0,
        },
    );
    let k = 5usize;
    let mut group = c.benchmark_group("ablations/threads_n600_m16");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        let config = CenterConfig {
            threads,
            ..Default::default()
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &config,
            |b, config| {
                b.iter(|| {
                    let cover =
                        center_greedy_cover(&ds, k, config, None, &Budget::unlimited()).unwrap();
                    reduce(&cover, k).unwrap().anonymization_cost(&ds)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_zero_radius, bench_split_large, bench_threads);
criterion_main!(benches);
