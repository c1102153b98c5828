//! The attack the paper is defending against (§1): join a released table
//! with public information and re-identify individuals. This example plays
//! both sides — attacker against the raw release, then against a
//! k-anonymized one.
//!
//! ```text
//! cargo run --release --example linkage_attack
//! ```

use kanon_core::{algo, Algorithm, Budget};
use kanon_relation::{csv, linkage_attack, Schema, Table};
use kanon_workloads::{census_table, CensusParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(1734);
    // The "hospital" publishes 150 records; the attacker holds a public
    // directory with everyone's age, sex, and zip.
    let census = census_table(&mut rng, &CensusParams { n: 150, regions: 6 });
    let qi = ["age", "sex", "zip"];
    let mut public = Table::new(Schema::new(qi.to_vec()).expect("distinct"));
    for row in census.rows() {
        public
            .push_row(
                qi.iter()
                    .map(|n| row[census.schema().index_of(n).expect("known")].clone())
                    .collect(),
            )
            .expect("arity");
    }
    let pairs: Vec<(&str, &str)> = qi.iter().map(|&q| (q, q)).collect();

    // Attack the raw release.
    let raw = linkage_attack(&public, &public, &pairs).expect("columns exist");
    println!(
        "raw release:      {}/{} individuals uniquely re-identified ({:.0}%)",
        raw.unique_matches,
        raw.attacked,
        100.0 * raw.reidentification_rate()
    );

    // Anonymize at k = 5 and attack again.
    let (ds, codec) = public.encode();
    let k = 5;
    let partition = algo::center_greedy(&ds, k, &Default::default(), &Budget::unlimited())
        .expect("within guards");
    let result = algo::anonymization_from_partition(&ds, partition, k, Algorithm::CenterGreedy)
        .expect("a solver's groups have at least k rows");
    let released =
        csv::parse(&codec.decode(&result.table).expect("same codec")).expect("own output parses");
    let after = linkage_attack(&released, &public, &pairs).expect("columns exist");
    println!(
        "{k}-anonymized:     {}/{} re-identified; smallest candidate set = {}",
        after.unique_matches, after.attacked, after.min_candidates
    );
    assert_eq!(after.unique_matches, 0);
    assert!(after.min_candidates >= k);
    println!(
        "every attacked individual now hides among >= {} candidates \
         (suppressed {:.1}% of cells to get there).",
        after.min_candidates,
        100.0 * result.suppression_rate()
    );

    // The same guarantee with better utility: the knn baseline suppresses
    // less, leaving candidate sets near the k floor instead of far above it.
    let knn = kanon_baselines::knn_greedy(&ds, k, &Budget::unlimited()).expect("valid k");
    let suppressor =
        kanon_core::rounding::suppressor_for_partition(&ds, &knn).expect("valid partition");
    let knn_table = suppressor.apply(&ds).expect("shapes match");
    let knn_released =
        csv::parse(&codec.decode(&knn_table).expect("same codec")).expect("own output parses");
    let knn_attack = linkage_attack(&knn_released, &public, &pairs).expect("columns exist");
    assert_eq!(knn_attack.unique_matches, 0);
    println!(
        "knn baseline:     0/{} re-identified with only {:.1}% of cells suppressed \
         (min candidates = {}) — same privacy floor, far more utility.",
        knn_attack.attacked,
        100.0 * suppressor.cost() as f64 / ds.n_cells() as f64,
        knn_attack.min_candidates
    );
}
