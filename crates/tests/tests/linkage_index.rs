//! Differential suite for the indexed linkage attack.
//!
//! `oracle` is the attack as first written: every external record is
//! compared with every released record that holds a `*` or `-` cell. The
//! indexed [`linkage_attack`] over tables and [`attack_release`] over the
//! codec's dictionary must give the same [`LinkageReport`] on every
//! release, down to the bits of `expected_success`: suppression releases
//! from the hash and sorted plans under plain k and `l=2`, generalized
//! releases with interval and prefix cells, and tables whose raw values
//! themselves contain `*` or `-` (which both attacks read as patterns).

use std::collections::HashMap;

use kanon_pipeline::{
    attack_release, attack_tables, run_csv_private_with_progress, CsvRun, PipelineConfig,
    ShardStrategy,
};
use kanon_privacy::PrivacyModel;
use kanon_relation::cellgen::anonymize_cells;
use kanon_relation::{linkage_attack, Hierarchy, LinkageReport, Schema, Table};
use kanon_workloads::{census_table, write_zipf_csv, CensusParams, ZipfParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The released-cell consistency rule the oracle compares with.
fn consistent(released: &str, external: &str) -> bool {
    if released == "*" || released == external {
        return true;
    }
    if let Some((lo, hi)) = released.split_once('-') {
        if let (Ok(lo), Ok(hi), Ok(v)) = (
            lo.parse::<i64>(),
            hi.parse::<i64>(),
            external.parse::<i64>(),
        ) {
            return lo <= v && v <= hi;
        }
    }
    if released.contains('*') {
        let prefix: String = released.chars().take_while(|&c| c != '*').collect();
        let stars = released.chars().filter(|&c| c == '*').count();
        return external.starts_with(&prefix)
            && external.chars().count() == prefix.chars().count() + stars;
    }
    false
}

/// The quadratic attack: exact released keys are looked up, every other
/// released record is compared with every external record.
fn oracle(released: &Table, external: &Table, pairs: &[(&str, &str)]) -> LinkageReport {
    let ext_cols: Vec<usize> = pairs
        .iter()
        .map(|(e, _)| external.schema().index_of(e).unwrap())
        .collect();
    let rel_cols: Vec<usize> = pairs
        .iter()
        .map(|(_, r)| released.schema().index_of(r).unwrap())
        .collect();

    let mut exact_groups: HashMap<Vec<&str>, usize> = HashMap::new();
    let mut fuzzy_rows: Vec<usize> = Vec::new();
    for i in 0..released.n_rows() {
        let row = released.row(i);
        let key: Vec<&str> = rel_cols.iter().map(|&j| row[j].as_str()).collect();
        if key.iter().any(|v| v.contains('*') || v.contains('-')) {
            fuzzy_rows.push(i);
        } else {
            *exact_groups.entry(key).or_insert(0) += 1;
        }
    }

    let mut unique = 0usize;
    let mut none = 0usize;
    let mut total_candidates = 0usize;
    let mut matched_records = 0usize;
    let mut min_candidates = usize::MAX;
    let mut success_mass = 0.0f64;
    for e in 0..external.n_rows() {
        let ext_row = external.row(e);
        let ext_key: Vec<&str> = ext_cols.iter().map(|&j| ext_row[j].as_str()).collect();
        let mut candidates = exact_groups.get(&ext_key).copied().unwrap_or(0);
        for &i in &fuzzy_rows {
            let rel_row = released.row(i);
            let all_ok = rel_cols
                .iter()
                .zip(&ext_key)
                .all(|(&j, ev)| consistent(&rel_row[j], ev));
            if all_ok {
                candidates += 1;
            }
        }
        match candidates {
            0 => none += 1,
            1 => {
                unique += 1;
                matched_records += 1;
                total_candidates += 1;
                min_candidates = min_candidates.min(1);
                success_mass += 1.0;
            }
            c => {
                matched_records += 1;
                total_candidates += c;
                min_candidates = min_candidates.min(c);
                success_mass += 1.0 / c as f64;
            }
        }
    }

    LinkageReport {
        attacked: external.n_rows(),
        unique_matches: unique,
        no_match: none,
        mean_candidates: if matched_records == 0 {
            0.0
        } else {
            total_candidates as f64 / matched_records as f64
        },
        min_candidates: if min_candidates == usize::MAX {
            0
        } else {
            min_candidates
        },
        expected_success: if external.n_rows() == 0 {
            0.0
        } else {
            success_mass / external.n_rows() as f64
        },
    }
}

/// Equal reports, the floating-point fields compared bit for bit.
fn same(got: &LinkageReport, want: &LinkageReport) -> Result<(), TestCaseError> {
    prop_assert_eq!(got, want);
    prop_assert_eq!(
        got.expected_success.to_bits(),
        want.expected_success.to_bits()
    );
    prop_assert_eq!(
        got.mean_candidates.to_bits(),
        want.mean_candidates.to_bits()
    );
    Ok(())
}

/// Checks both production paths against the oracle on one pipeline run.
fn check_run(run: &CsvRun, cap: usize) -> Result<(), TestCaseError> {
    let (released, external) = attack_tables(run, cap).unwrap();
    let names: Vec<&str> = run
        .quasi
        .iter()
        .map(|&j| run.codec.header()[j].as_str())
        .collect();
    let pairs: Vec<(&str, &str)> = names.iter().map(|&n| (n, n)).collect();
    let want = oracle(&released, &external, &pairs);
    same(
        &linkage_attack(&released, &external, &pairs).unwrap(),
        &want,
    )?;
    same(&attack_release(run, cap).unwrap(), &want)
}

/// Runs the pipeline on `csv`, under `l=2` on the last column when
/// `diverse`; `None` when the model cannot be met.
fn pipeline(csv: &[u8], k: usize, diverse: bool, config: &PipelineConfig) -> Option<CsvRun> {
    let header = String::from_utf8_lossy(csv.split(|&b| b == b'\n').next().unwrap()).into_owned();
    let sensitive = header.rsplit(',').next().unwrap().to_string();
    let (sensitive, model) = if diverse {
        (
            Some(sensitive.as_str()),
            PrivacyModel::parse("l=2").unwrap(),
        )
    } else {
        (None, PrivacyModel::KOnly)
    };
    match run_csv_private_with_progress(csv, k, None, sensitive, model, config, &|_| {}) {
        Ok(run) => Some(run),
        Err(kanon_pipeline::Error::Privacy(_)) => None,
        Err(e) => panic!("pipeline failed: {e}"),
    }
}

fn config(sorted: bool, shard_size: usize) -> PipelineConfig {
    PipelineConfig {
        shard_size,
        strategy: if sorted {
            ShardStrategy::Sorted
        } else {
            ShardStrategy::HashQuasi
        },
        workers: Some(1),
        ..PipelineConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Suppression releases: hash and sorted plans, plain k and `l=2`,
    /// several shard sizes, with and without the sample cap biting.
    #[test]
    fn suppression_releases_match_the_oracle(
        seed in 0u64..10_000,
        n in 8usize..160,
        m in 2usize..6,
        alphabet in 2u32..9,
        k in 2usize..5,
        sorted in 0u8..2,
        diverse in 0u8..2,
        shard in 0usize..3,
        capped in 0u8..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut csv = Vec::new();
        write_zipf_csv(&mut rng, &ZipfParams { n, m, alphabet, exponent: 1.1 }, &mut csv).unwrap();
        let config = config(sorted == 1, [8, 32, 512][shard]);
        let Some(run) = pipeline(&csv, k, diverse == 1, &config) else {
            return Ok(());
        };
        check_run(&run, if capped == 1 { n / 2 } else { usize::MAX })?;
    }

    /// Raw values that read as patterns (`*`, `a*`, `1-3`, `x-y`): the
    /// attack off the dictionary must read them as the tables' attack does.
    #[test]
    fn pattern_like_raw_values_match_the_oracle(
        seed in 0u64..10_000,
        n in 6usize..80,
        k in 2usize..4,
        sorted in 0u8..2,
        diverse in 0u8..2,
    ) {
        const PALETTE: [&str; 9] = ["*", "2", "1-3", "a*", "ab", "x-y", "10", "5-", "a"];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut csv = String::from("c0,c1,c2\n");
        for _ in 0..n {
            let row: Vec<&str> = (0..3)
                .map(|_| PALETTE[rng.gen_range(0..PALETTE.len())])
                .collect();
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        let Some(run) = pipeline(csv.as_bytes(), k, diverse == 1, &config(sorted == 1, 16)) else {
            return Ok(());
        };
        check_run(&run, usize::MAX)?;
    }

    /// Arbitrary released cells, patterns mixed in, against external
    /// records drawn from the same values.
    #[test]
    fn random_pattern_releases_match_the_oracle(
        seed in 0u64..10_000,
        rows in 0usize..40,
        m in 1usize..4,
    ) {
        const RELEASED: [&str; 12] =
            ["*", "3", "12", "10-19", "1-3", "ab", "a*", "a**", "**", "x-y", "-", "1*"];
        const EXTERNAL: [&str; 8] = ["3", "12", "15", "ab", "abc", "a", "x-y", "-"];
        let mut rng = StdRng::seed_from_u64(seed);
        let names: Vec<String> = (0..m).map(|j| format!("q{j}")).collect();
        let mut table = |values: &[&str]| {
            let mut t = Table::new(Schema::new(names.clone()).unwrap());
            for _ in 0..rows {
                let row: Vec<&str> =
                    (0..m).map(|_| values[rng.gen_range(0..values.len())]).collect();
                t.push_str_row(&row).unwrap();
            }
            t
        };
        let released = table(&RELEASED);
        let external = table(&EXTERNAL);
        let pairs: Vec<(&str, &str)> = names.iter().map(|n| (n.as_str(), n.as_str())).collect();
        same(
            &linkage_attack(&released, &external, &pairs).unwrap(),
            &oracle(&released, &external, &pairs),
        )?;
    }

    /// Generalized releases with interval and prefix-mask cells.
    #[test]
    fn generalized_releases_match_the_oracle(
        seed in 0u64..10_000,
        n in 10usize..80,
        k in 2usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let census = census_table(&mut rng, &CensusParams { n, regions: 4 });
        let qi = ["age", "sex", "zip"];
        let mut external = Table::new(Schema::new(qi.to_vec()).unwrap());
        for row in census.rows() {
            external
                .push_row(
                    qi.iter()
                        .map(|q| row[census.schema().index_of(q).unwrap()].clone())
                        .collect(),
                )
                .unwrap();
        }
        let hierarchies = vec![
            Hierarchy::Intervals { widths: vec![5, 10, 20, 40, 80] },
            Hierarchy::SuppressOnly,
            Hierarchy::PrefixMask { height: 5 },
        ];
        let cell = anonymize_cells(&external, &hierarchies, k, &Default::default()).unwrap();
        let pairs: Vec<(&str, &str)> = qi.iter().map(|&q| (q, q)).collect();
        same(
            &linkage_attack(&cell.released, &external, &pairs).unwrap(),
            &oracle(&cell.released, &external, &pairs),
        )?;
    }
}
