//! Privacy-guarantee integration tests: the linkage attacker from
//! `kanon-relation` versus every release path the workspace offers. The
//! defining property under test: a k-anonymous release never yields a
//! candidate set smaller than `k` to an attacker joining on the released
//! attributes.

use kanon_core::{algo, Algorithm, Anonymization, Budget, Dataset};
use kanon_relation::cellgen::{anonymize_cells, is_table_k_anonymous};
use kanon_relation::{csv, linkage_attack, Hierarchy, Schema, Table};
use kanon_workloads::{census_table, CensusParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

const QI: [&str; 3] = ["age", "sex", "zip"];

/// The center greedy's partition, rounded into its release.
fn center(ds: &Dataset, k: usize) -> Anonymization {
    let p = algo::center_greedy(ds, k, &Default::default(), &Budget::unlimited()).unwrap();
    algo::anonymization_from_partition(ds, p, k, Algorithm::CenterGreedy).unwrap()
}

fn qi_projection(census: &Table) -> Table {
    let mut t = Table::new(Schema::new(QI.to_vec()).unwrap());
    for row in census.rows() {
        t.push_row(
            QI.iter()
                .map(|name| row[census.schema().index_of(name).unwrap()].clone())
                .collect(),
        )
        .unwrap();
    }
    t
}

#[test]
fn raw_census_is_linkable_suppressed_census_is_not() {
    let mut rng = StdRng::seed_from_u64(1);
    let census = census_table(&mut rng, &CensusParams { n: 120, regions: 6 });
    let external = qi_projection(&census);
    let pairs: Vec<(&str, &str)> = QI.iter().map(|&q| (q, q)).collect();

    // Raw: many unique matches expected on (age, sex, zip).
    let raw = linkage_attack(&external, &external, &pairs).unwrap();
    assert!(
        raw.unique_matches > 0,
        "synthetic census must have some unique QI combinations"
    );

    // Suppressed at k = 4: no unique matches, min candidates >= 4.
    let k = 4;
    let (ds, codec) = external.encode();
    let result = center(&ds, k);
    let released = csv::parse(&codec.decode(&result.table).unwrap()).unwrap();
    let attacked = linkage_attack(&released, &external, &pairs).unwrap();
    assert_eq!(attacked.unique_matches, 0);
    assert!(attacked.min_candidates >= k, "{attacked:?}");
}

#[test]
fn cell_level_generalization_also_blocks_linkage() {
    let mut rng = StdRng::seed_from_u64(2);
    let census = census_table(&mut rng, &CensusParams { n: 80, regions: 4 });
    let external = qi_projection(&census);
    let hierarchies = vec![
        Hierarchy::Intervals {
            widths: vec![5, 10, 20, 40, 80],
        }, // age
        Hierarchy::SuppressOnly,             // sex
        Hierarchy::PrefixMask { height: 5 }, // zip
    ];
    let k = 3;
    let cell = anonymize_cells(&external, &hierarchies, k, &Default::default()).unwrap();
    assert!(is_table_k_anonymous(&cell.released, k));

    let pairs: Vec<(&str, &str)> = QI.iter().map(|&q| (q, q)).collect();
    let attacked = linkage_attack(&cell.released, &external, &pairs).unwrap();
    assert_eq!(
        attacked.unique_matches, 0,
        "generalized bands must still cover their members: {attacked:?}"
    );
    // Every attacked individual is consistent with their own released
    // record, so nobody can be a no-match.
    assert_eq!(attacked.no_match, 0);
    assert!(attacked.min_candidates >= k);
}

#[test]
fn anonymity_level_matches_linkage_floor() {
    // The smallest candidate set an insider attacker sees equals the
    // release's anonymity level.
    let mut rng = StdRng::seed_from_u64(3);
    let census = census_table(&mut rng, &CensusParams { n: 60, regions: 3 });
    let external = qi_projection(&census);
    let (ds, codec) = external.encode();
    for k in [2usize, 5] {
        let result = center(&ds, k);
        let level = result.table.anonymity_level().unwrap();
        let released = csv::parse(&codec.decode(&result.table).unwrap()).unwrap();
        let pairs: Vec<(&str, &str)> = QI.iter().map(|&q| (q, q)).collect();
        let attacked = linkage_attack(&released, &external, &pairs).unwrap();
        assert!(
            attacked.min_candidates >= level,
            "k = {k}: linkage floor {} below anonymity level {level}",
            attacked.min_candidates
        );
    }
}
