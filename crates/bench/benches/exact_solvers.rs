//! Criterion bench for the exact OPT oracles — quantifying the NP-hardness
//! wall Theorems 3.1/3.2 predict.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kanon_core::exact::{
    branch_and_bound, pattern_bb, subset_dp, BranchBoundConfig, PatternConfig, SubsetDpConfig,
};
use kanon_core::Budget;
use kanon_workloads::{clustered, uniform, ClusteredParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_subset_dp(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact/subset_dp_k3_m6");
    group.sample_size(10);
    for n in [9usize, 12, 15] {
        let mut rng = StdRng::seed_from_u64(5 + n as u64);
        let ds = uniform(&mut rng, n, 6, 3);
        group.bench_with_input(BenchmarkId::from_parameter(n), &ds, |b, ds| {
            b.iter(|| {
                subset_dp(ds, 3, &SubsetDpConfig::default(), &Budget::unlimited())
                    .unwrap()
                    .cost
            });
        });
    }
    group.finish();
}

fn bench_branch_and_bound(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact/branch_and_bound_clustered_k3");
    group.sample_size(10);
    for n_clusters in [4usize, 6, 8] {
        let mut rng = StdRng::seed_from_u64(17 + n_clusters as u64);
        let inst = clustered(
            &mut rng,
            &ClusteredParams {
                n_clusters,
                cluster_size: 3,
                m: 6,
                scatter: 1,
                values_per_cluster: 4,
            },
        );
        let n = inst.dataset.n_rows();
        group.bench_with_input(BenchmarkId::from_parameter(n), &inst.dataset, |b, ds| {
            b.iter(|| {
                branch_and_bound(ds, 3, &BranchBoundConfig::default(), &Budget::unlimited())
                    .unwrap()
                    .cost
            });
        });
    }
    group.finish();
}

fn bench_pattern_bb(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact/pattern_bb_k3");
    group.sample_size(10);
    for m in [4usize, 6, 8] {
        let mut rng = StdRng::seed_from_u64(23 + m as u64);
        let inst = clustered(
            &mut rng,
            &ClusteredParams {
                n_clusters: 5,
                cluster_size: 3,
                m,
                scatter: 1,
                values_per_cluster: 3,
            },
        );
        group.bench_with_input(BenchmarkId::from_parameter(m), &inst.dataset, |b, ds| {
            b.iter(|| {
                pattern_bb(ds, 3, &PatternConfig::default(), &Budget::unlimited())
                    .unwrap()
                    .cost
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_subset_dp,
    bench_branch_and_bound,
    bench_pattern_bb
);
criterion_main!(benches);
