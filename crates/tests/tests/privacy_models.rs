//! Cross-crate tests for the privacy models beyond k-anonymity: property
//! tests that constraint repair never breaks the k-anonymity it rides on,
//! an FPT-vs-DP exact-solver differential on the small-alphabet regime,
//! pinned E21 regression numbers for the price of l-diversity, and the
//! CLI pipeline's `--privacy` path re-checked with an independent
//! verifier.

use kanon_baselines::knn_greedy;
use kanon_core::algo::anonymization_from_partition;
use kanon_core::exact::{fpt, subset_dp, FptConfig, SubsetDpConfig};
use kanon_core::Algorithm;
use kanon_core::Budget;
use kanon_privacy::{
    diversity_violations, enforce, enforce_l_diversity, verify, verify_l_diversity, Error,
    PrivacyModel,
};
use kanon_workloads::{census_table, uniform, zipf, CensusParams, ZipfParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Constraint repair preserves the k floor: whatever `enforce` does
    /// to satisfy the model, every surviving block still has at least k
    /// rows, the released table is still k-anonymous, and the release
    /// passes the *independent* verifier — or the instance was provably
    /// unreachable.
    #[test]
    fn enforced_partitions_stay_k_anonymous_and_verify(
        seed in 0u64..1000,
        k in 2usize..4,
        model_ix in 0usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = zipf(&mut rng, &ZipfParams { n: 24, m: 3, alphabet: 4, exponent: 1.0 });
        let sensitive: Vec<u32> = (0..24).map(|_| rng.gen_range(0..3u32)).collect();
        let model = match model_ix {
            0 => PrivacyModel::parse("l=2").unwrap(),
            1 => PrivacyModel::parse("entropy-l=1.5").unwrap(),
            2 => PrivacyModel::parse("t=0.4").unwrap(),
            _ => PrivacyModel::parse("emd-t=0.5").unwrap(),
        };
        let partition = knn_greedy(&ds, k, &Budget::unlimited()).unwrap();
        match enforce(&ds, &partition, &sensitive, model) {
            Ok(outcome) => {
                // The repaired partition satisfies the constraint by the
                // independent checker, not the enforcer's own say-so.
                let recheck = verify(model, &outcome.partition, &sensitive).unwrap();
                prop_assert!(recheck.ok(), "repair left violations: {recheck:?}");
                // And the k floor survived every merge.
                let anon = anonymization_from_partition(
                    &ds, outcome.partition, k, Algorithm::External("test"),
                ).unwrap();
                prop_assert!(anon.table.is_k_anonymous(k));
                prop_assert!(anon.cost >= outcome.cost_before);
            }
            // A table-wide impossibility is the one acceptable refusal.
            Err(Error::Unreachable(_)) => {}
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
        }
    }

    /// The pipeline's privacy path keeps its word: when the report says
    /// `verified`, the release really is k-anonymous and really is
    /// l-diverse by an independent re-check.
    #[test]
    fn verified_pipeline_releases_are_k_anonymous_and_diverse(
        seed in 0u64..500,
        k in 2usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut csv = Vec::new();
        kanon_workloads::write_zipf_csv(
            &mut rng,
            &ZipfParams { n: 40, m: 4, alphabet: 4, exponent: 1.2 },
            &mut csv,
        ).unwrap();
        let run = match kanon_pipeline::run_csv_private_with_progress(
            csv.as_slice(),
            k,
            None,
            Some("c3"),
            PrivacyModel::parse("l=2").unwrap(),
            &kanon_pipeline::PipelineConfig::default(),
            &|_| {},
        ) {
            Ok(run) => run,
            // One sensitive value table-wide: nothing to test.
            Err(kanon_pipeline::Error::Privacy(Error::Unreachable(_))) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("pipeline failed: {e}"))),
        };
        let privacy = run.report.privacy.as_deref().expect("privacy section");
        prop_assert!(privacy.verified, "release failed its own re-check");
        prop_assert!(run.anonymization.table.is_k_anonymous(k));
        let sens: Vec<u32> = (0..run.dataset.n_rows())
            .map(|i| run.dataset.row(i)[3])
            .collect();
        prop_assert!(
            verify_l_diversity(&run.anonymization.partition, &sens, 2).unwrap().ok()
        );
    }

    /// FPT (pattern search with multiplicities) agrees with the subset DP
    /// on its home regime — few columns, tiny alphabet, so rows repeat and
    /// the pattern space is small. Both are exact; any cost gap is a bug
    /// in one of them.
    #[test]
    fn fpt_matches_subset_dp_on_small_alphabets(
        seed in 0u64..800,
        n in 6usize..13,
        m in 2usize..5,
        alphabet in 2u32..4,
        k in 2usize..4,
    ) {
        prop_assume!(n >= 2 * k);
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = uniform(&mut rng, n, m, alphabet);
        let dp = subset_dp(&ds, k, &SubsetDpConfig::default(), &Budget::unlimited()).unwrap();
        let fp = fpt(&ds, k, &FptConfig::default(), &Budget::unlimited()).unwrap();
        prop_assert_eq!(
            fp.cost, dp.cost,
            "FPT and subset DP disagree on n={} m={} |Σ|={} k={}", n, m, alphabet, k
        );
        // Both partitions must actually achieve their claimed cost.
        let from_fpt = anonymization_from_partition(
            &ds, fp.partition, k, Algorithm::External("fpt"),
        ).unwrap();
        prop_assert_eq!(from_fpt.cost, dp.cost);
        prop_assert!(from_fpt.table.is_k_anonymous(k));
    }
}

/// E21's full-mode numbers, pinned. The experiment is deterministic
/// (seed `20040614 ^ 0xE21`, n = 200, six regions), so any drift here
/// means the diversity repair, the kNN baseline, or the census generator
/// changed behavior — all of which should be deliberate.
#[test]
fn e21_diversity_price_regression_pins() {
    let mut rng = StdRng::seed_from_u64(20040614 ^ 0xE21);
    let census = census_table(&mut rng, &CensusParams { n: 200, regions: 6 });
    let occupation = census.schema().index_of("occupation").unwrap();
    let (full, _) = census.encode();
    let qi: Vec<usize> = (0..full.n_cols()).filter(|&j| j != occupation).collect();
    let ds = full.project_columns(&qi).unwrap();
    let sensitive: Vec<u32> = (0..full.n_rows())
        .map(|i| full.get(i, occupation))
        .collect();

    // (k, l, violating blocks, total blocks, merges, cost before, after)
    let pins = [
        (2, 2, 22, 100, 21, 576, 684),
        (2, 3, 100, 100, 71, 576, 992),
        (3, 2, 0, 66, 0, 786, 786),
        (3, 3, 31, 66, 28, 786, 1020),
        (5, 2, 0, 40, 0, 1055, 1055),
        (5, 3, 2, 40, 2, 1055, 1085),
    ];
    for (k, l, violating, blocks, merges, before, after) in pins {
        let partition = knn_greedy(&ds, k, &Budget::unlimited()).unwrap();
        assert_eq!(partition.n_blocks(), blocks, "k={k}");
        let violations = diversity_violations(&partition, &sensitive, l).unwrap();
        assert_eq!(violations.len(), violating, "k={k} l={l}");
        let repaired = enforce_l_diversity(&ds, &partition, &sensitive, l).unwrap();
        assert_eq!(repaired.merges, merges, "k={k} l={l}");
        assert_eq!(repaired.cost_before, before, "k={k} l={l}");
        assert_eq!(repaired.cost_after, after, "k={k} l={l}");
        assert!(verify_l_diversity(&repaired.partition, &sensitive, l)
            .unwrap()
            .ok());
    }
}

/// End to end through the CLI: `kanon pipeline --privacy l=2` writes a
/// release whose k-anonymity and l-diversity hold under an independent
/// re-parse of the released CSV, not just in the run's own report.
#[test]
fn cli_pipeline_privacy_release_passes_independent_recheck() {
    let dir = std::env::temp_dir().join(format!("kanon-privacy-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.csv");
    let output = dir.join("out.csv");

    let mut rng = StdRng::seed_from_u64(7);
    let census = census_table(&mut rng, &CensusParams { n: 90, regions: 4 });
    std::fs::write(&input, kanon_relation::csv::to_string(&census)).unwrap();

    let k = 2;
    let outcome =
        kanon_cli::commands::execute(&kanon_cli::Command::Pipeline(kanon_cli::args::Pipeline {
            k,
            input: input.to_string_lossy().into_owned(),
            output: Some(output.to_string_lossy().into_owned()),
            shard_size: 64,
            strategy: kanon_pipeline::ShardStrategy::HashQuasi,
            buckets: None,
            workers: Some(2),
            quasi: None,
            hierarchies: None,
            compare: false,
            privacy: Some("l=2".to_string()),
            sensitive: Some("occupation".to_string()),
            deadline_ms: None,
            max_memory_mb: None,
            json: false,
        }))
        .unwrap();
    assert!(
        outcome
            .notes
            .iter()
            .any(|n| n.contains("privacy: l=2") && n.contains("verified")),
        "{:?}",
        outcome.notes
    );

    // Re-parse the released CSV cold and re-derive everything.
    let released = kanon_relation::csv::parse(&std::fs::read_to_string(&output).unwrap()).unwrap();
    assert_eq!(released.n_rows(), 90);
    let occupation = released.schema().index_of("occupation").unwrap();
    // The sensitive column is never suppressed — it stayed out of the QI.
    let mut groups: std::collections::HashMap<Vec<&str>, Vec<&str>> =
        std::collections::HashMap::new();
    for row in released.rows() {
        let mut qi: Vec<&str> = Vec::new();
        for (j, v) in row.iter().enumerate() {
            if j == occupation {
                assert_ne!(v, "*", "sensitive cell suppressed");
            } else {
                qi.push(v);
            }
        }
        groups.entry(qi).or_default().push(&row[occupation]);
    }
    for (qi, sens) in &groups {
        assert!(sens.len() >= k, "undersized group {qi:?}");
        let distinct: std::collections::HashSet<&&str> = sens.iter().collect();
        assert!(
            distinct.len() >= 2,
            "group {qi:?} is not 2-diverse: {sens:?}"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}
