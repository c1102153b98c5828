//! Criterion bench for the shared distance cache and the parallel
//! candidate enumeration (Theorem 4.1 pipeline).
//!
//! Three views of the same optimization:
//!
//! * `full_greedy_n60_k3` — the headline: the exhaustive greedy on an
//!   `n = 60, k = 3` instance (≈ 5.98 M candidate subsets), sequential vs
//!   4 enumeration workers. On a ≥ 4-core machine the parallel variant
//!   should run at least 2× faster; on fewer cores it degrades gracefully
//!   to the sequential path's throughput (the output is byte-identical
//!   either way — see the `parallel_differential` suite).
//! * `diameter_source` — the core-count-independent win: computing every
//!   size-3 candidate diameter from the cache vs re-scanning rows, i.e.
//!   `O(1)` lookups vs `O(m)` Hamming scans per pair.
//! * `cache_build` — the cache's own construction cost, sequential vs
//!   banded across 4 threads, at a size where the build matters.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use kanon_core::distcache::PairwiseDistances;
use kanon_core::greedy::{full_greedy_cover, FullCoverConfig};
use kanon_core::metric::hamming;
use kanon_core::Budget;
use kanon_workloads::uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The instance the acceptance criterion names: n = 60, k = 3, which puts
/// `Σ C(60, 3..5) ≈ 5.98 M` subsets on the enumeration path.
fn headline_instance() -> kanon_core::Dataset {
    let mut rng = StdRng::seed_from_u64(0xD157);
    uniform(&mut rng, 60, 8, 4)
}

fn config(parallel: bool, threads: usize) -> FullCoverConfig {
    FullCoverConfig {
        max_candidates: 7_000_000,
        parallel,
        num_threads: Some(threads),
    }
}

fn bench_full_greedy(c: &mut Criterion) {
    let ds = headline_instance();
    let mut group = c.benchmark_group("distcache/full_greedy_n60_k3");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| {
            full_greedy_cover(&ds, 3, &config(false, 1), None, &Budget::unlimited())
                .unwrap()
                .n_sets()
        });
    });
    group.bench_function("parallel4", |b| {
        b.iter(|| {
            full_greedy_cover(&ds, 3, &config(true, 4), None, &Budget::unlimited())
                .unwrap()
                .n_sets()
        });
    });
    group.finish();
}

fn bench_diameter_source(c: &mut Criterion) {
    let ds = headline_instance();
    let cache = PairwiseDistances::build(&ds, Some(1), &Budget::unlimited()).unwrap();
    let n = ds.n_rows();
    let mut group = c.benchmark_group("distcache/diameter_source_n60_s3");
    group.sample_size(10);
    // All C(60, 3) = 34_220 triples, diameter per triple.
    group.bench_function("cached", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for i in 0..n {
                for j in (i + 1)..n {
                    let dij = cache.get(i, j);
                    for l in (j + 1)..n {
                        acc += dij.max(cache.get(i, l)).max(cache.get(j, l)) as usize;
                    }
                }
            }
            black_box(acc)
        });
    });
    group.bench_function("row_scan", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for i in 0..n {
                for j in (i + 1)..n {
                    let dij = hamming(ds.row(i), ds.row(j));
                    for l in (j + 1)..n {
                        let dil = hamming(ds.row(i), ds.row(l));
                        let djl = hamming(ds.row(j), ds.row(l));
                        acc += dij.max(dil).max(djl);
                    }
                }
            }
            black_box(acc)
        });
    });
    group.finish();
}

fn bench_cache_build(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0xB111D);
    let ds = uniform(&mut rng, 1_500, 16, 4);
    let mut group = c.benchmark_group("distcache/build_n1500_m16");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| {
            black_box(
                PairwiseDistances::build(&ds, Some(1), &Budget::unlimited())
                    .unwrap()
                    .n(),
            )
        });
    });
    group.bench_function("parallel4", |b| {
        b.iter(|| {
            black_box(
                PairwiseDistances::build(&ds, Some(4), &Budget::unlimited())
                    .unwrap()
                    .n(),
            )
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_full_greedy,
    bench_diameter_source,
    bench_cache_build
);
criterion_main!(benches);
