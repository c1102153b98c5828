//! Census microdata release: the workload the paper's introduction is
//! about. Generates Adult-dataset-shaped records, treats the demographic
//! columns as quasi-identifiers, 5-anonymizes them with the Theorem 4.2
//! algorithm, and compares against the baselines.
//!
//! ```text
//! cargo run --example census_microdata
//! ```

use kanon_baselines::{knn_greedy, mondrian, random_partition};
use kanon_core::{algo, Algorithm, Budget};
use kanon_relation::{Schema, Table};
use kanon_workloads::{census_table, knn_lower_bound, CensusParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2004);
    let table = census_table(&mut rng, &CensusParams { n: 120, regions: 6 });

    // Quasi-identifiers: the externally observable attributes. Occupation
    // stays unsuppressed — it is the "payload" a data miner studies.
    let quasi = ["age", "sex", "race", "marital", "zip"];
    let qi_schema = Schema::new(quasi.to_vec()).expect("valid names");
    let mut qi_table = Table::new(qi_schema);
    for row in table.rows() {
        let projected: Vec<String> = quasi
            .iter()
            .map(|name| {
                let j = table.schema().index_of(name).expect("known column");
                row[j].clone()
            })
            .collect();
        qi_table.push_row(projected).expect("arity matches");
    }
    let (dataset, codec) = qi_table.encode();
    let k = 5;

    let partition = algo::center_greedy(&dataset, k, &Default::default(), &Budget::unlimited())
        .expect("within guards");
    let result =
        algo::anonymization_from_partition(&dataset, partition, k, Algorithm::CenterGreedy)
            .expect("a solver's groups have at least k rows");
    assert!(result.table.is_k_anonymous(k));

    println!(
        "center greedy (Thm 4.2): {} of {} QI cells suppressed ({:.1}%), {} groups",
        result.cost,
        dataset.n_cells(),
        100.0 * result.suppression_rate(),
        result.partition.n_blocks()
    );
    println!("k-NN lower bound on OPT: {}", knn_lower_bound(&dataset, k));

    let knn = knn_greedy(&dataset, k, &Budget::unlimited())
        .expect("valid k")
        .anonymization_cost(&dataset);
    let mon = mondrian(&dataset, k, &Budget::unlimited())
        .expect("valid k")
        .anonymization_cost(&dataset);
    let rnd = random_partition(&mut rng, dataset.n_rows(), k)
        .expect("valid k")
        .anonymization_cost(&dataset);
    println!("baselines: knn = {knn}, mondrian = {mon}, random = {rnd}");

    println!("\nfirst eight released QI records:");
    for line in codec
        .decode(&result.table)
        .expect("same codec")
        .lines()
        .take(9)
    {
        println!("  {line}");
    }
}
