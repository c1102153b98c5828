//! Property tests for the sharded pipeline: on random tables, any shard
//! plan must merge into a valid whole-table k-anonymization whose cost is
//! exactly the sum of the per-shard costs — the composition argument the
//! engine's correctness rests on — and the answer must not depend on the
//! worker count.

use kanon_pipeline::{run_pipeline, PipelineConfig, ShardStrategy};
use kanon_workloads::{zipf, ZipfParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Merged releases are k-anonymous, block sizes sit in the (k, 2k-1)
    /// band, and reported cost is additive over shards.
    #[test]
    fn random_shardings_compose_into_k_anonymity(
        seed in 0u64..1000,
        n in 12usize..60,
        k in 2usize..5,
        shard_size in 0usize..3,
        strategy in 0usize..2,
    ) {
        prop_assume!(n >= 2 * k);
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = zipf(&mut rng, &ZipfParams { n, m: 4, alphabet: 6, exponent: 1.0 });
        let config = PipelineConfig {
            // Sweep around the legality floor of 2k-1 so residue folding
            // and multi-shard plans both get exercised.
            shard_size: (2 * k - 1) + shard_size * 7,
            strategy: if strategy == 0 { ShardStrategy::HashQuasi } else { ShardStrategy::Sorted },
            ..Default::default()
        };
        let (anon, report) = run_pipeline(&ds, k, &config).unwrap();

        prop_assert!(anon.table.is_k_anonymous(k), "merged release not {k}-anonymous");
        prop_assert!(anon.partition.validate_group_sizes(k).is_ok());
        prop_assert_eq!(anon.partition.n_rows(), n);

        // Cost additivity: the whole-table objective equals the sum of the
        // per-shard objectives because suppression cost is position-free.
        let shard_sum: usize = report.shards.iter().map(|s| s.cost).sum();
        prop_assert_eq!(anon.cost, shard_sum, "merged cost != sum of shard costs");
        prop_assert_eq!(report.total_cost, anon.cost);
        prop_assert_eq!(report.n_rows, n);
    }

    /// The released table and cost are a pure function of (data, k,
    /// config): worker count is an execution detail, not an input.
    #[test]
    fn worker_count_is_not_observable(
        seed in 0u64..500,
        n in 16usize..48,
        k in 2usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = zipf(&mut rng, &ZipfParams { n, m: 3, alphabet: 5, exponent: 1.0 });
        let mut runs = Vec::new();
        for workers in [1usize, 2, 3] {
            let config = PipelineConfig {
                shard_size: 2 * k + 3,
                workers: Some(workers),
                ..Default::default()
            };
            let (anon, _) = run_pipeline(&ds, k, &config).unwrap();
            runs.push((anon.cost, anon.suppressor.to_mask_string()));
        }
        prop_assert_eq!(&runs[0], &runs[1]);
        prop_assert_eq!(&runs[1], &runs[2]);
    }
}

/// The worker-count property at a scale the proptest above does not
/// reach: a fixed-seed zipf table split into many default-size (512-row)
/// shards, so several workers really do take shards concurrently. The
/// cost and the suppression mask must be identical at 1, 2 and 4 workers,
/// whatever the host's core count.
#[test]
fn many_default_size_shards_give_one_answer_at_every_worker_count() {
    let k = 5;
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let ds = zipf(
        &mut rng,
        &ZipfParams {
            n: 5_000,
            m: 8,
            alphabet: 32,
            exponent: 1.0,
        },
    );
    let mut runs = Vec::new();
    for workers in [1usize, 2, 4] {
        let config = PipelineConfig {
            shard_size: 512,
            workers: Some(workers),
            ..Default::default()
        };
        let (anon, report) = run_pipeline(&ds, k, &config).unwrap();
        assert!(report.n_shards() >= 8, "{} shards", report.n_shards());
        assert_eq!(report.degraded_shards(), 0);
        runs.push((anon.cost, anon.suppressor.to_mask_string()));
    }
    // A mismatch prints only the costs: each mask has 5,000 lines.
    for (run, workers) in runs[1..].iter().zip([2, 4]) {
        assert!(
            *run == runs[0],
            "1 vs {workers} workers: cost {} vs {}",
            runs[0].0,
            run.0
        );
    }
}
